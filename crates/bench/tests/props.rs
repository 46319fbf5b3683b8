//! Possible-worlds and relational-law properties of the σ/π/⋈ executor
//! every SQL statement runs: `maybms-pipe`'s `UStream`.
//!
//! The central theorem behind U-relations (§2.3) is that the
//! parsimonious translation of positive RA *commutes with possible-world
//! instantiation*: rep(q(D))'s worlds are exactly q applied to D's
//! worlds. These properties check that for fused σ, π, ⋈, the ∪ breaker
//! and a composite chain on random tuple-independent databases, with the
//! seed-faithful naive operators (`maybms_bench::naive`) evaluating q per
//! world; plus the relational laws the planner relies on over certain
//! relations.

use std::sync::Arc;

use maybms_bench::naive;
use maybms_engine::ops::{self, ProjectItem};
use maybms_engine::{rel, BinaryOp, DataType, Expr, Relation, Schema, Tuple, Value};
use maybms_pipe::UStream;
use maybms_urel::pick::{pick_tuples, PickTuplesOptions};
use maybms_urel::{algebra, URelation, WorldTable};
use proptest::prelude::*;

// ---------- generators ----------------------------------------------------

/// A random tuple-independent U-relation with schema (k, v) over a fresh
/// world table: rows with probabilities in {0.1 … 0.9}.
fn arb_ti_relation(max_rows: usize) -> impl Strategy<Value = (WorldTable, URelation)> {
    prop::collection::vec((0i64..4, 0i64..4, 1u32..10), 0..max_rows).prop_map(|rows| {
        let mut wt = WorldTable::new();
        let certain = rel(
            &[("k", DataType::Int), ("v", DataType::Int), ("p", DataType::Float)],
            rows.iter()
                .map(|(k, v, p10)| {
                    vec![
                        Value::Int(*k),
                        Value::Int(*v),
                        Value::Float(f64::from(*p10) / 10.0),
                    ]
                })
                .collect(),
        );
        let u = pick_tuples(
            &certain,
            &PickTuplesOptions { probability: Some(Expr::col("p")) },
            &mut wt,
        )
        .unwrap();
        (wt, u)
    })
}

/// A small integer-pair certain relation (k: Int, v: Int), lifted.
fn arb_relation(max_rows: usize, key_range: i64) -> impl Strategy<Value = URelation> {
    prop::collection::vec((0..key_range, -50i64..50), 0..max_rows).prop_map(|rows| {
        let schema = Arc::new(Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]));
        let tuples = rows.into_iter().map(|(k, v)| Tuple::new(vec![k.into(), v.into()])).collect();
        URelation::from_certain(&Relation::new(schema, tuples).unwrap())
    })
}

// ---------- translation ≡ possible worlds ---------------------------------

/// Compare a translated U-relation against per-world evaluation of the
/// equivalent certain query.
fn assert_commutes(
    wt: &WorldTable,
    translated: &URelation,
    per_world: impl Fn(&[u16]) -> Relation,
) -> Result<(), TestCaseError> {
    for (world, _p) in wt.enumerate_worlds(1 << 16).unwrap() {
        let mut lhs = translated.instantiate(&world).into_tuples();
        let mut rhs = per_world(&world).into_tuples();
        lhs.sort();
        rhs.sort();
        prop_assert_eq!(lhs, rhs, "world {:?}", world);
    }
    Ok(())
}

fn sorted(u: URelation) -> Vec<Tuple> {
    let mut t = u.into_certain().into_tuples();
    t.sort();
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// σ commutes with instantiation on tuple-independent inputs.
    #[test]
    fn select_commutes((wt, u) in arb_ti_relation(8), bound in 0i64..4) {
        let pred = Expr::col("v").binary(BinaryOp::GtEq, Expr::lit(bound));
        let translated = UStream::new(u.clone()).filter(&pred).unwrap().collect().unwrap();
        assert_commutes(&wt, &translated, |w| naive::filter(&u.instantiate(w), &pred).unwrap())?;
    }

    /// π commutes with instantiation.
    #[test]
    fn project_commutes((wt, u) in arb_ti_relation(8)) {
        let items = [
            ProjectItem::col("k"),
            ProjectItem::new(
                Expr::col("v").binary(BinaryOp::Add, Expr::lit(1i64)),
                "v1",
            ),
        ];
        let translated = UStream::new(u.clone()).project(&items).unwrap().collect().unwrap();
        assert_commutes(&wt, &translated, |w| naive::project(&u.instantiate(w), &items).unwrap())?;
    }

    /// ⋈ commutes with instantiation (equi-join on k), including the
    /// conflict-dropping rule for shared variables (self-join case).
    #[test]
    fn join_commutes((wt, u) in arb_ti_relation(6)) {
        let translated =
            UStream::new(u.clone()).hash_join(u.clone(), &[0], &[0]).unwrap().collect().unwrap();
        assert_commutes(&wt, &translated, |w| {
            let inst = u.instantiate(w);
            naive::hash_join(&inst, &inst, &[0], &[0]).unwrap()
        })?;
    }

    /// ∪ commutes with instantiation.
    #[test]
    fn union_commutes((wt, u) in arb_ti_relation(6)) {
        let translated = algebra::union_all(&[&u, &u]).unwrap();
        assert_commutes(&wt, &translated, |w| {
            let inst = u.instantiate(w);
            ops::union_all(&[&inst, &inst]).unwrap()
        })?;
    }

    /// A composite plan σ(π(R ⋈ R)) commutes with instantiation.
    #[test]
    fn composite_plan_commutes((wt, u) in arb_ti_relation(5), bound in 0i64..4) {
        let items = [ProjectItem::new(Expr::ColumnIdx(1), "v")];
        let pred = Expr::col("v").binary(BinaryOp::Lt, Expr::lit(bound));
        let translated = UStream::new(u.clone())
            .hash_join(u.clone(), &[0], &[0])
            .unwrap()
            .project(&items)
            .unwrap()
            .filter(&pred)
            .unwrap()
            .collect()
            .unwrap();
        assert_commutes(&wt, &translated, |w| {
            let inst = u.instantiate(w);
            let j = naive::hash_join(&inst, &inst, &[0], &[0]).unwrap();
            let p = naive::project(&j, &items).unwrap();
            naive::filter(&p, &pred).unwrap()
        })?;
    }
}

// ---------- relational laws over certain relations ------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fused hash-join probe and the nested-loop join compute the
    /// same multiset on equi-keys.
    #[test]
    fn hash_join_equals_nested_loop(l in arb_relation(24, 8), r in arb_relation(24, 8)) {
        let hj = UStream::new(l.clone()).hash_join(r.clone(), &[0], &[0]).unwrap();
        let pred = Expr::ColumnIdx(0).eq(Expr::ColumnIdx(2));
        let nl = algebra::nested_loop_join(&l, &r, Some(&pred)).unwrap();
        prop_assert_eq!(sorted(hj.collect().unwrap()), sorted(nl));
    }

    /// π over σ commutes with σ over π when the projection keeps the
    /// filtered column.
    #[test]
    fn filter_project_commute(r in arb_relation(32, 8), bound in -50i64..50) {
        let p = Expr::col("v").binary(BinaryOp::LtEq, Expr::lit(bound));
        let items = vec![ProjectItem::col("v")];
        let a = UStream::new(r.clone()).filter(&p).unwrap().project(&items).unwrap();
        let b = UStream::new(r).project(&items).unwrap().filter(&p).unwrap();
        prop_assert_eq!(a.collect().unwrap().tuples(), b.collect().unwrap().tuples());
    }

    /// Cross join (the nested loop without a predicate) cardinality is
    /// the product.
    #[test]
    fn cross_join_cardinality(a in arb_relation(12, 4), b in arb_relation(12, 4)) {
        let out = algebra::nested_loop_join(&a, &b, None).unwrap();
        prop_assert_eq!(out.len(), a.len() * b.len());
    }
}
