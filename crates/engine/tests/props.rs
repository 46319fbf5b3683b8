//! Property tests for the relational engine's breakers: operator algebra
//! laws. (σ/π/⋈ laws are checked on the fused executor in
//! `crates/bench/tests/props.rs`.)

use std::sync::Arc;

use maybms_engine::ops::{self, AggCall, AggFunc, SortKey};
use maybms_engine::{BinaryOp, DataType, Expr, Relation, Schema, Tuple};
use proptest::prelude::*;

/// A small integer-pair relation with schema (k: Int, v: Int).
fn arb_relation(max_rows: usize, key_range: i64) -> impl Strategy<Value = Relation> {
    prop::collection::vec((0..key_range, -50i64..50), 0..max_rows).prop_map(|rows| {
        let schema = Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Int),
        ]));
        let tuples = rows
            .into_iter()
            .map(|(k, v)| Tuple::new(vec![k.into(), v.into()]))
            .collect();
        Relation::new(schema, tuples).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// σ_p(σ_p(R)) = σ_p(R) — filter is idempotent.
    #[test]
    fn filter_idempotent(r in arb_relation(32, 8), bound in -50i64..50) {
        let p = Expr::col("v").binary(BinaryOp::Gt, Expr::lit(bound));
        let once = ops::filter(&r, &p).unwrap();
        let twice = ops::filter(&once, &p).unwrap();
        prop_assert_eq!(once.tuples(), twice.tuples());
    }

    /// distinct(distinct(R)) = distinct(R) and result has unique rows.
    #[test]
    fn distinct_idempotent(r in arb_relation(32, 4)) {
        let once = ops::distinct(&r);
        let twice = ops::distinct(&once);
        prop_assert_eq!(once.tuples(), twice.tuples());
        let mut seen = std::collections::HashSet::new();
        for t in once.tuples() {
            prop_assert!(seen.insert(t.clone()));
        }
    }

    /// Sorting is a permutation of the input and is ordered.
    #[test]
    fn sort_permutation_and_ordered(r in arb_relation(32, 16)) {
        let out = ops::sort(&r, &[SortKey::asc(Expr::col("k"))]).unwrap();
        prop_assert_eq!(out.len(), r.len());
        let mut a = r.tuples().to_vec();
        let mut b = out.tuples().to_vec();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
        for w in out.tuples().windows(2) {
            prop_assert!(w[0].value(0) <= w[1].value(0));
        }
    }

    /// UNION ALL cardinality is the sum of input cardinalities.
    #[test]
    fn union_all_cardinality(a in arb_relation(16, 4), b in arb_relation(16, 4)) {
        let out = ops::union_all(&[&a, &b]).unwrap();
        prop_assert_eq!(out.len(), a.len() + b.len());
    }

    /// Grouped sums add up to the global sum.
    #[test]
    fn group_sums_total(r in arb_relation(32, 5)) {
        let grouped = ops::aggregate(
            &r,
            &[Expr::col("k")],
            &["k".into()],
            &[AggCall::new(AggFunc::Sum, Some(Expr::col("v")), "s")],
        ).unwrap();
        let global = ops::aggregate(
            &r,
            &[],
            &[],
            &[AggCall::new(AggFunc::Sum, Some(Expr::col("v")), "s")],
        ).unwrap();
        let total_grouped: i64 = grouped
            .tuples()
            .iter()
            .map(|t| t.value(1).as_int().unwrap_or(0))
            .sum();
        let total = global.tuples()[0].value(0).as_int().unwrap_or(0);
        prop_assert_eq!(total_grouped, total);
    }
}
