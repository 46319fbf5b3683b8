//! Operator-equivalence property tests for the zero-clone execution core.
//!
//! The optimized operators (selection vectors, hashed join keys, batched
//! row buffers, inline WSDs) must agree tuple-for-tuple with the
//! seed-faithful naive implementations in `maybms_bench::naive` — exactly
//! (order included) for the order-defined breakers (σ, distinct, sort),
//! and as bags for the σ and ⋈ stages of `UStream`, the executor every
//! SQL statement runs them through. Inputs include NULL join keys (which
//! must never match) and conflicting WSDs (whose join pairs must be
//! dropped as unsatisfiable).

use maybms_bench::naive;
use maybms_engine::{ops, BinaryOp, DataType, Expr, Relation, Schema, Tuple, Value};
use maybms_pipe::UStream;
use maybms_urel::{algebra, URelation, WorldTable, Wsd};
use proptest::prelude::*;
use std::sync::Arc;

mod gen;
use gen::{arb_num, arb_text, arb_urelation, schema3};

/// A relation over (k, v, s) with NULLs and cross-type numeric duplicates
/// in the key column.
fn arb_relation() -> impl Strategy<Value = Relation> {
    prop::collection::vec((arb_num(), arb_num(), arb_text()), 0..24).prop_map(|rows| {
        Relation::new_unchecked(
            schema3(),
            rows.into_iter().map(|(k, v, s)| Tuple::new(vec![k, v, s])).collect(),
        )
    })
}

fn bag(r: &Relation) -> Vec<Tuple> {
    let mut v = r.tuples().to_vec();
    v.sort();
    v
}

/// `l ⋈ r` on column 0 through a fused `UStream` probe (`r` builds).
fn probe(l: &URelation, r: &URelation) -> URelation {
    UStream::new(l.clone()).hash_join(r.clone(), &[0], &[0]).unwrap().collect().unwrap()
}

fn ubag(u: &URelation) -> Vec<(Tuple, Wsd)> {
    let mut v: Vec<(Tuple, Wsd)> =
        u.tuples().iter().map(|t| (t.data.clone(), t.wsd.clone())).collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// σ: selection-vector filter equals the cloning filter, order and all.
    #[test]
    fn filter_matches_naive(r in arb_relation()) {
        let pred = Expr::col("v").binary(BinaryOp::Gt, Expr::lit(1i64));
        let a = ops::filter(&r, &pred).unwrap();
        let b = naive::filter(&r, &pred).unwrap();
        prop_assert_eq!(a.tuples(), b.tuples());
    }

    /// distinct: index-dedup equals the double-clone dedup, order included.
    #[test]
    fn distinct_matches_naive(r in arb_relation()) {
        prop_assert_eq!(ops::distinct(&r).tuples(), naive::distinct(&r).tuples());
    }

    /// sort: gather-based sort equals the clone-based sort exactly
    /// (stability included).
    #[test]
    fn sort_matches_naive(r in arb_relation()) {
        let keys = [ops::SortKey::desc(Expr::col("v")), ops::SortKey::asc(Expr::col("k"))];
        let a = ops::sort(&r, &keys).unwrap();
        let b = naive::sort(&r, &keys).unwrap();
        prop_assert_eq!(a.tuples(), b.tuples());
    }

    /// The fused hash-join probe over certain relations equals the
    /// Vec-keyed join as a bag, including NULL join keys (never match)
    /// and cross-type numeric keys (1 == 1.0).
    #[test]
    fn hash_join_matches_naive(l in arb_relation(), r in arb_relation()) {
        let a = probe(&URelation::from_certain(&l), &URelation::from_certain(&r));
        let b = naive::hash_join(&l, &r, &[0], &[0]).unwrap();
        prop_assert_eq!(bag(&a.into_certain()), bag(&b));
    }

    /// The fused probe also equals the nested-loop join (the SQL path's
    /// join for sources no equality conjunct links) with the equivalent
    /// equality predicate — an independent oracle.
    #[test]
    fn hash_join_matches_nested_loop(l in arb_relation(), r in arb_relation()) {
        let (l, r) = (URelation::from_certain(&l), URelation::from_certain(&r));
        let a = probe(&l, &r);
        let pred = Expr::ColumnIdx(0).eq(Expr::ColumnIdx(3));
        let b = algebra::nested_loop_join(&l, &r, Some(&pred)).unwrap();
        prop_assert_eq!(ubag(&a), ubag(&b));
    }

    /// U-relational σ: the fused selection vector equals deep-clone select.
    #[test]
    fn select_u_matches_naive((_wt, u) in arb_urelation(arb_num, 16)) {
        let pred = Expr::col("v").binary(BinaryOp::Gt, Expr::lit(1i64));
        let a = UStream::new(u.clone()).filter(&pred).unwrap().collect().unwrap();
        let b = naive::select_u(&u, &pred).unwrap();
        prop_assert_eq!(ubag(&a), ubag(&b));
    }

    /// The U-relational fused probe equals the Vec-keyed join as a bag of
    /// (data, wsd) pairs — WSD conjunction and unsatisfiable-pair drops
    /// included.
    #[test]
    fn hash_join_u_matches_naive(
        (_wt, u) in arb_urelation(arb_num, 16),
        (_w2, u2) in arb_urelation(arb_num, 16),
    ) {
        let a = probe(&u, &u2);
        let b = naive::hash_join_u(&u, &u2, &[0], &[0]).unwrap();
        prop_assert_eq!(ubag(&a), ubag(&b));
    }

    /// The U-relational fused self-join probe equals the nested-loop
    /// translation — self-joins maximise conflicting-WSD pairs.
    #[test]
    fn hash_join_u_self_matches_nested_loop((_wt, u) in arb_urelation(arb_num, 16)) {
        let a = probe(&u, &u);
        let pred = Expr::ColumnIdx(0).eq(Expr::ColumnIdx(3));
        let b = naive::nested_loop_join_u(&u, &u, Some(&pred)).unwrap();
        prop_assert_eq!(ubag(&a), ubag(&b));
    }

    /// repair key: the optimized construction (scratch grouping, inline
    /// WSDs) produces the identical U-relation to the seed construction —
    /// same rows, same variables, same conditions.
    #[test]
    fn repair_key_matches_naive(
        rows in prop::collection::vec((0i64..6, 1u32..10), 1..40),
    ) {
        let schema = Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("w", DataType::Float),
        ]));
        let input = Relation::new_unchecked(
            schema,
            rows.iter()
                .map(|&(k, w)| Tuple::new(vec![
                    Value::Int(k),
                    Value::Float(f64::from(w) / 10.0),
                ]))
                .collect(),
        );
        let opts = maybms_urel::repair::RepairKeyOptions {
            weight: Some(Expr::col("w")),
        };
        let mut wt_a = WorldTable::new();
        let a = maybms_urel::repair::repair_key(&input, &[Expr::col("k")], &opts, &mut wt_a)
            .unwrap();
        let mut wt_b = WorldTable::new();
        let b = naive::repair_key(&input, &[Expr::col("k")], &opts, &mut wt_b).unwrap();
        prop_assert_eq!(a.tuples(), b.tuples());
        prop_assert_eq!(wt_a.num_vars(), wt_b.num_vars());
    }

    /// pick tuples: identical output and world table.
    #[test]
    fn pick_tuples_matches_naive(
        rows in prop::collection::vec((0i64..6, 0u32..=10), 1..40),
    ) {
        let schema = Arc::new(Schema::from_pairs(&[
            ("v", DataType::Int),
            ("p", DataType::Float),
        ]));
        let input = Relation::new_unchecked(
            schema,
            rows.iter()
                .map(|&(v, p)| Tuple::new(vec![
                    Value::Int(v),
                    Value::Float(f64::from(p) / 10.0),
                ]))
                .collect(),
        );
        let opts = maybms_urel::pick::PickTuplesOptions {
            probability: Some(Expr::col("p")),
        };
        let mut wt_a = WorldTable::new();
        let a = maybms_urel::pick::pick_tuples(&input, &opts, &mut wt_a).unwrap();
        let mut wt_b = WorldTable::new();
        let b = naive::pick_tuples(&input, &opts, &mut wt_b).unwrap();
        prop_assert_eq!(a.tuples(), b.tuples());
        prop_assert_eq!(wt_a.num_vars(), wt_b.num_vars());
    }
}
