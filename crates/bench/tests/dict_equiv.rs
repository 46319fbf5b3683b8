//! Dictionary-code paths ≡ string paths.
//!
//! The columnar store dictionary-encodes text columns, and two executor
//! fast paths consume the u32 codes directly: the hash-join build side
//! (`fuse::build_table`, reached through `UStream::hash_join`) and the
//! dense-code grouped-aggregation sink (`groupby::dense_dict_groups`,
//! reached through `core::agg::aggregate_stream`). Both must be
//! *invisible*: joining or grouping on a dictionary-encoded columnar
//! table has to produce output bit-identical to the row-major string
//! path — same tuples, same order, same group key variants — at 1/2/8
//! threads and morsel sizes down to a single row.
//!
//! The string universe is tiny (heavy duplication, so many rows share a
//! code and hash buckets collide across distinct keys), and NULL keys are
//! frequent (they must never match in a join and must form their own
//! group in an aggregation).

use std::sync::Arc;

use maybms_bench::naive;
use maybms_core::agg::{aggregate_stream_with, ConfContext};
use maybms_core::translate::AggSpec;
use maybms_engine::ops::{AggCall, AggFunc};
use maybms_engine::{DataType, Expr, Field, Relation, Schema, Tuple, Value};
use maybms_par::ThreadPool;
use maybms_pipe::UStream;
use maybms_urel::{URelation, WorldTable};
use proptest::prelude::*;

fn arb_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        prop::sample::select(vec!["a", "b", "c", "dd"]).prop_map(Value::str),
    ]
}

fn arb_payload() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0i64..6).prop_map(Value::Int),
        (0i64..8).prop_map(|i| Value::Float(i as f64 / 2.0)),
    ]
}

fn table(name: &str, rows: Vec<(Value, Value)>) -> Relation {
    let schema = Arc::new(Schema::from_pairs(&[
        (&format!("{name}_k"), DataType::Text),
        (&format!("{name}_v"), DataType::Unknown),
    ]));
    let tuples = rows.into_iter().map(|(k, v)| Tuple::new(vec![k, v])).collect();
    Relation::new_unchecked(schema, tuples)
}

/// The same logical table lifted twice: row-major, and columnar-at-rest
/// with its text keys dictionary-encoded.
fn lifted(r: &Relation) -> [URelation; 2] {
    let cols = URelation::from_certain(&r.compact());
    assert!(cols.is_columnar());
    [URelation::from_certain(r), cols]
}

fn sorted(r: &Relation) -> Vec<Tuple> {
    let mut t = r.tuples().to_vec();
    t.sort();
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hash join keyed on a text column: the dictionary-code build side
    /// over a columnar build table ≡ the string build side over a
    /// row-major one ≡ the one-thread row walk over row-major tables,
    /// bit-identically, at every thread count — and ≡ the naive join as
    /// a bag.
    #[test]
    fn dict_join_build_matches_string_path(
        build in prop::collection::vec((arb_key(), arb_payload()), 0..24),
        probe in prop::collection::vec((arb_key(), arb_payload()), 0..24),
    ) {
        let (b, p) = (table("b", build), table("p", probe));
        let (probes, builds) = (lifted(&p), lifted(&b));
        let want = UStream::new(probes[0].clone())
            .hash_join(builds[0].clone(), &[0], &[0])
            .unwrap()
            .collect_opts(&ThreadPool::new(1), 1, false)
            .unwrap()
            .into_certain();
        prop_assert_eq!(
            sorted(&naive::hash_join(&p, &b, &[0], &[0]).unwrap()),
            sorted(&want)
        );
        // NULL never equals NULL: no output row may carry a NULL key.
        for t in want.tuples() {
            prop_assert!(t.value(0) != &Value::Null);
        }
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            for morsel in [1usize, 4] {
                for (probe, build) in probes.iter().zip(&builds) {
                    let got = UStream::new(probe.clone())
                        .hash_join(build.clone(), &[0], &[0])
                        .unwrap()
                        .collect_with(&pool, morsel)
                        .unwrap()
                        .into_certain();
                    prop_assert_eq!(
                        got.tuples(), want.tuples(),
                        "threads {} morsel {} columnar {}",
                        threads, morsel, build.is_columnar()
                    );
                }
            }
        }
    }

    /// GROUP BY a text key with standard aggregates: the dense-code
    /// sink over a columnar table ≡ the hashed sink over a row-major
    /// one ≡ the naive two-pass aggregate, bit-identically, at every
    /// thread count.
    #[test]
    fn dense_dict_group_matches_hashed_group(
        data in prop::collection::vec((arb_key(), arb_payload()), 0..32),
    ) {
        let t = table("t", data);
        let key = [Expr::ColumnIdx(0)];
        let calls = [
            AggCall::new(AggFunc::Count, None, "n"),
            AggCall::new(AggFunc::Sum, Some(Expr::ColumnIdx(1)), "s"),
            AggCall::new(AggFunc::Min, Some(Expr::ColumnIdx(1)), "lo"),
        ];
        let want = naive::aggregate(&t, &key, &["g".to_string()], &calls).unwrap();
        let specs: Vec<(AggSpec, String)> = calls
            .iter()
            .map(|c| (AggSpec::Std { func: c.func, arg: c.arg.clone() }, c.name.clone()))
            .collect();
        let (wt, ctx) = (WorldTable::new(), ConfContext::default());
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            for morsel in [1usize, 4] {
                for source in lifted(&t) {
                    let columnar = source.is_columnar();
                    let got = aggregate_stream_with(
                        UStream::new(source),
                        &key,
                        1,
                        vec![Field::new("g", DataType::Text)],
                        &specs,
                        &wt,
                        &ctx,
                        None,
                        &pool,
                        morsel,
                    )
                    .unwrap();
                    prop_assert_eq!(
                        got.tuples(), want.tuples(),
                        "threads {} morsel {} columnar {}", threads, morsel, columnar
                    );
                }
            }
        }
    }
}
