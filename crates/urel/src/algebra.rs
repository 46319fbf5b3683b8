//! The parsimonious translation of positive relational algebra onto
//! U-relations (§2.3, following Antova–Jansen–Koch–Olteanu, ICDE 2008).
//!
//! Each positive-RA operator maps to the *same* operator over the
//! representation, with condition-column bookkeeping:
//!
//! * σ filters on data columns only, WSDs ride along;
//! * π keeps WSDs and performs **no** duplicate elimination (distinct
//!   tuples with different conditions are different evidence);
//! * ⋈ concatenates data and *conjoins* WSDs, dropping pairs whose
//!   conjunction is unsatisfiable;
//! * ∪ is bag union.
//!
//! σ, π and hash-⋈ run as fused stages of `maybms-pipe`'s `UStream`,
//! the one σ/π/⋈ executor. This module keeps the materialising
//! operators a breaker still needs: the nested-loop ⋈ for sources no
//! equality conjunct links, bag ∪, and the sequential hash ⋈ behind
//! vertical recomposition (the `_tid` join).
//!
//! Evaluation cost is polynomial in the size of the representation and
//! completely independent of the (possibly exponential) number of worlds —
//! the property experiment E5 measures (`exp_baseline`'s `*_certain` /
//! `*_urel` row pairs).

use std::sync::Arc;

use maybms_engine::hash::FastMap;
use maybms_engine::ops::{join_keys_eq, row_key_hash};
use maybms_engine::tuple::TupleBatch;
use maybms_engine::{EngineError, Expr};

use crate::error::Result;
use crate::urelation::{zip_batch, URelation};

/// ⋈ (nested loop): concatenate data, conjoin conditions, drop
/// unsatisfiable combinations; optional predicate over the combined data
/// schema.
pub fn nested_loop_join(
    left: &URelation,
    right: &URelation,
    predicate: Option<&Expr>,
) -> Result<URelation> {
    let schema = Arc::new(left.schema().join(right.schema()));
    let bound = predicate.map(|p| p.bind(&schema)).transpose()?;
    let mut batch = TupleBatch::new();
    let mut wsds = Vec::new();
    let mut gov = maybms_gov::Ticker::new();
    for l in left.tuples() {
        for r in right.tuples() {
            // Quadratic output: tick the governor per candidate so a
            // runaway cross product stays cancellable and budget-bound.
            gov.tick().map_err(EngineError::from)?;
            let Some(wsd) = l.wsd.conjoin(&r.wsd) else { continue };
            // Stage the candidate row in the batch, evaluate in place,
            // and drop it if the predicate rejects — one copy per row.
            batch.push_concat(&l.data, &r.data);
            if let Some(p) = &bound {
                if !p.eval_predicate_values(batch.last_row())? {
                    batch.abandon_last();
                    continue;
                }
            }
            wsds.push(wsd);
        }
    }
    Ok(URelation::new(schema, zip_batch(batch, wsds)))
}

/// ⋈ (hash): equi-join on positional keys with WSD conjunction. NULL keys
/// never match.
///
/// **Builds on the right input and probes with the left** — the
/// convention `maybms-pipe`'s probe stages share: output rows are emitted
/// in left-row order with right-side candidates in build (ascending row)
/// order. The build table maps a 64-bit key hash to build-row indices (no
/// per-row `Vec<Value>` key allocation); hash matches are verified by
/// comparing the key columns before the WSDs are conjoined. Sequential:
/// its one caller is vertical recomposition (the `_tid` join), whose
/// inputs are a stored relation's column partitions.
pub fn hash_join(
    left: &URelation,
    right: &URelation,
    left_keys: &[usize],
    right_keys: &[usize],
) -> Result<URelation> {
    if left_keys.len() != right_keys.len() || left_keys.is_empty() {
        return Err(EngineError::InvalidOperator {
            message: "hash join requires matching, non-empty key lists".into(),
        }
        .into());
    }
    let schema = Arc::new(left.schema().join(right.schema()));
    let mut table: FastMap<u64, Vec<usize>> =
        FastMap::with_capacity_and_hasher(right.len(), Default::default());
    for (i, t) in right.tuples().iter().enumerate() {
        if let Some(h) = row_key_hash(t.data.values(), right_keys) {
            table.entry(h).or_default().push(i);
        }
    }
    let mut batch = TupleBatch::new();
    let mut wsds = Vec::new();
    for l in left.tuples() {
        let Some(h) = row_key_hash(l.data.values(), left_keys) else { continue };
        let Some(candidates) = table.get(&h) else { continue };
        for &ri in candidates {
            let r = &right.tuples()[ri];
            if !join_keys_eq(r.data.values(), right_keys, l.data.values(), left_keys) {
                continue; // hash collision
            }
            if let Some(wsd) = l.wsd.conjoin(&r.wsd) {
                batch.push_concat(&l.data, &r.data);
                wsds.push(wsd);
            }
        }
    }
    Ok(URelation::new(schema, zip_batch(batch, wsds)))
}

/// ∪: multiset union (§2.2 — `union` over uncertain relations is the
/// multiset union of the representations).
pub fn union_all(inputs: &[&URelation]) -> Result<URelation> {
    let Some(first) = inputs.first() else {
        return Err(EngineError::InvalidOperator {
            message: "union of zero inputs".into(),
        }
        .into());
    };
    for r in &inputs[1..] {
        if r.schema().len() != first.schema().len() {
            return Err(EngineError::SchemaMismatch {
                message: format!(
                    "UNION arity mismatch: {} vs {}",
                    first.schema().len(),
                    r.schema().len()
                ),
            }
            .into());
        }
    }
    let mut tuples = Vec::with_capacity(inputs.iter().map(|r| r.len()).sum());
    for r in inputs {
        tuples.extend(r.tuples().iter().cloned());
    }
    Ok(URelation::new(first.schema().clone(), tuples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::urelation::UTuple;
    use crate::world_table::WorldTable;
    use crate::wsd::Wsd;
    use maybms_engine::{rel, BinaryOp, DataType, Relation, Tuple};

    /// Two players, each with a variable choosing their state.
    fn setup() -> (WorldTable, URelation) {
        let mut wt = WorldTable::new();
        let x = wt.new_var(&[0.8, 0.2]).unwrap();
        let y = wt.new_var(&[0.5, 0.5]).unwrap();
        let base = rel(
            &[("player", DataType::Text), ("state", DataType::Text)],
            vec![
                vec!["Bryant".into(), "F".into()],
                vec!["Bryant".into(), "SE".into()],
                vec!["Duncan".into(), "F".into()],
                vec!["Duncan".into(), "SL".into()],
            ],
        );
        let mut rows = URelation::from_certain(&base).tuples().to_vec();
        rows[0].wsd = Wsd::of(x, 0);
        rows[1].wsd = Wsd::of(x, 1);
        rows[2].wsd = Wsd::of(y, 0);
        rows[3].wsd = Wsd::of(y, 1);
        (wt, URelation::new(base.schema().clone(), rows))
    }

    #[test]
    fn join_conjoins_conditions_and_drops_conflicts() {
        let (_, u) = setup();
        // Self-join on player: tuples of the same player with different
        // alternatives of the same variable must vanish.
        let l = u.clone().with_schema(Arc::new(u.schema().with_qualifier("a")));
        let r = u.clone().with_schema(Arc::new(u.schema().with_qualifier("b")));
        let out = nested_loop_join(
            &l,
            &r,
            Some(&Expr::qcol("a", "player").eq(Expr::qcol("b", "player"))),
        )
        .unwrap();
        // Per player: 2×2 pairs minus 2 conflicting = 2 surviving; ×2 players.
        assert_eq!(out.len(), 4);
        for t in out.tuples() {
            // survivors pair a tuple with itself, so the condition is the
            // single shared assignment
            assert_eq!(t.wsd.len(), 1);
        }
    }

    #[test]
    fn hash_join_agrees_with_nested_loop() {
        let (_, u) = setup();
        let hj = hash_join(&u, &u, &[0], &[0]).unwrap();
        let nl = nested_loop_join(
            &u,
            &u,
            Some(&Expr::ColumnIdx(0).eq(Expr::ColumnIdx(2))),
        )
        .unwrap();
        assert_eq!(hj.len(), nl.len());
        let key = |t: &UTuple| (t.data.clone(), t.wsd.clone());
        let mut a: Vec<_> = hj.tuples().iter().map(key).collect();
        let mut b: Vec<_> = nl.tuples().iter().map(key).collect();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn union_concatenates() {
        let (_, u) = setup();
        let out = union_all(&[&u, &u]).unwrap();
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn union_arity_checked() {
        let (_, u) = setup();
        let narrow = URelation::from_certain(&rel(&[("player", DataType::Text)], vec![]));
        assert!(union_all(&[&u, &narrow]).is_err());
    }

    /// The ordinary (certain) join `l ⋈_pred r`, by definition.
    fn join_by_definition(l: &Relation, r: &Relation, pred: &Expr) -> Vec<Tuple> {
        let bound = pred.bind(&l.schema().join(r.schema())).unwrap();
        let mut out = Vec::new();
        for a in l.tuples() {
            for b in r.tuples() {
                let t = a.concat(b);
                if bound.eval_predicate(&t).unwrap() {
                    out.push(t);
                }
            }
        }
        out.sort();
        out
    }

    /// The core soundness property on a small instance: evaluating the
    /// translated query and instantiating per world equals instantiating
    /// per world and evaluating the ordinary query.
    #[test]
    fn translation_commutes_with_instantiation() {
        let (wt, u) = setup();
        let translated = hash_join(&u, &u, &[0], &[0]).unwrap();
        let pred = Expr::ColumnIdx(0).eq(Expr::ColumnIdx(2));
        for (world, _p) in wt.enumerate_worlds(100).unwrap() {
            let mut lhs = translated.instantiate(&world).into_tuples();
            lhs.sort();
            let inst = u.instantiate(&world);
            assert_eq!(lhs, join_by_definition(&inst, &inst, &pred), "world {world:?}");
        }
    }

    #[test]
    fn join_commutes_with_instantiation() {
        let (wt, u) = setup();
        let l = u.clone().with_schema(Arc::new(u.schema().with_qualifier("a")));
        let r = u.clone().with_schema(Arc::new(u.schema().with_qualifier("b")));
        let pred = Expr::qcol("a", "player").eq(Expr::qcol("b", "player"));
        let translated = nested_loop_join(&l, &r, Some(&pred)).unwrap();
        for (world, _p) in wt.enumerate_worlds(100).unwrap() {
            let mut lhs = translated.instantiate(&world).into_tuples();
            lhs.sort();
            let rhs = join_by_definition(&l.instantiate(&world), &r.instantiate(&world), &pred);
            assert_eq!(lhs, rhs, "world {world:?}");
        }
    }

    #[test]
    fn join_with_comparison_predicate() {
        let (_, u) = setup();
        let out = nested_loop_join(
            &u,
            &u,
            Some(
                &Expr::ColumnIdx(1)
                    .binary(BinaryOp::Lt, Expr::ColumnIdx(3)),
            ),
        )
        .unwrap();
        // string comparison on states; just verify it runs and drops
        // conflicting conditions
        for t in out.tuples() {
            assert!(t.wsd.len() <= 2);
        }
    }
}
