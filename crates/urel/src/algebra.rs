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
//! Evaluation cost is polynomial in the size of the representation and
//! completely independent of the (possibly exponential) number of worlds —
//! the property benchmarked by experiment E5.

use std::sync::Arc;

use maybms_engine::hash::FastMap;
use maybms_engine::ops::{
    tuple_key_hash, tuple_keys_eq, ProjectItem, PAR_MIN_CHUNK, PAR_MIN_ROWS,
};
use maybms_engine::tuple::TupleBatch;
use maybms_engine::{EngineError, Expr};
use maybms_par::ThreadPool;

use crate::error::Result;
use crate::urelation::{zip_batch, URelation, UTuple};
use crate::wsd::Wsd;

/// σ: keep tuples whose *data* satisfies the predicate. Runs as a
/// selection vector — WSDs and row data are shared with the input, not
/// copied. Large inputs evaluate the selection vector chunk-parallel;
/// output is identical to the sequential scan.
pub fn select(input: &URelation, predicate: &Expr) -> Result<URelation> {
    if input.len() >= PAR_MIN_ROWS {
        let pool = maybms_par::pool();
        if pool.threads() > 1 {
            return select_with(input, predicate, &pool, PAR_MIN_CHUNK);
        }
    }
    let bound = predicate.bind(input.schema())?;
    let mut sel = Vec::new();
    for (i, t) in input.tuples().iter().enumerate() {
        if bound.eval_predicate(&t.data)? {
            sel.push(i);
        }
    }
    Ok(input.gather(&sel))
}

/// [`select`] on an explicit pool: chunk-local selection vectors are
/// concatenated in chunk order, so the gathered output equals the
/// sequential scan row-for-row at any thread count.
pub fn select_with(
    input: &URelation,
    predicate: &Expr,
    pool: &ThreadPool,
    min_chunk: usize,
) -> Result<URelation> {
    let bound = predicate.bind(input.schema())?;
    let chunk = maybms_par::auto_chunk(input.len(), pool.threads(), min_chunk);
    let partials: Vec<Result<Vec<usize>>> =
        pool.par_map_chunks(input.len(), chunk, |range| {
            let mut sel = Vec::new();
            for i in range {
                if bound.eval_predicate(&input.tuples()[i].data)? {
                    sel.push(i);
                }
            }
            Ok(sel)
        });
    let mut sel = Vec::new();
    for p in partials {
        sel.extend(p?);
    }
    Ok(input.gather(&sel))
}

/// π: evaluate the projection list per tuple; conditions are preserved and
/// duplicates are *not* eliminated (§2.2 forbids `select distinct` on
/// uncertain relations precisely because conditions differ per duplicate).
pub fn project(input: &URelation, items: &[ProjectItem]) -> Result<URelation> {
    let in_schema = input.schema();
    let bound: Vec<(Expr, maybms_engine::Field)> = items
        .iter()
        .map(|item| {
            let e = item.expr.bind(in_schema)?;
            let dtype = e.data_type(in_schema);
            Ok::<_, EngineError>((e, maybms_engine::Field::new(item.name.clone(), dtype)))
        })
        .collect::<std::result::Result<_, _>>()?;
    let schema = Arc::new(maybms_engine::Schema::new(
        bound.iter().map(|(_, f)| f.clone()).collect(),
    ));
    let mut batch = TupleBatch::new();
    let mut wsds = Vec::with_capacity(input.len());
    for t in input.tuples() {
        batch.begin_row();
        for (e, _) in &bound {
            batch.push_value(e.eval(&t.data)?);
        }
        wsds.push(t.wsd.clone());
    }
    Ok(URelation::new(schema, zip_batch(batch, wsds)))
}

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
/// **Builds on the right input and probes with the left** — the fixed
/// convention shared with the engine's `hash_join` and the morsel-driven
/// probes in `maybms-pipe`: output rows are emitted in left-row order
/// with right-side candidates in build (ascending row) order, so a
/// streaming executor can probe the left side morsel-by-morsel and
/// reproduce this output bit-for-bit. The build table maps a 64-bit key
/// hash to build-row indices (no per-row `Vec<Value>` key allocation);
/// hash matches are verified by comparing the key columns before the
/// WSDs are conjoined. Single-column keys hash columnar. Large inputs
/// dispatch to the chunk-parallel path ([`hash_join_with`]); output is
/// identical either way.
pub fn hash_join(
    left: &URelation,
    right: &URelation,
    left_keys: &[usize],
    right_keys: &[usize],
) -> Result<URelation> {
    if left.len() + right.len() >= PAR_MIN_ROWS {
        let pool = maybms_par::pool();
        if pool.threads() > 1 {
            return hash_join_with(left, right, left_keys, right_keys, &pool, PAR_MIN_CHUNK);
        }
    }
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
        if let Some(h) = tuple_key_hash(&t.data, right_keys) {
            table.entry(h).or_default().push(i);
        }
    }
    let mut batch = TupleBatch::new();
    let mut wsds = Vec::new();
    for l in left.tuples() {
        let Some(h) = tuple_key_hash(&l.data, left_keys) else { continue };
        let Some(candidates) = table.get(&h) else { continue };
        for &ri in candidates {
            let r = &right.tuples()[ri];
            if !tuple_keys_eq(&r.data, right_keys, &l.data, left_keys) {
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

/// [`hash_join`] on an explicit pool: hash-partitioned parallel build
/// over the right side, chunked parallel probe over the left, exactly
/// mirroring the engine's `hash_join_with` but conjoining WSDs (and
/// dropping unsatisfiable pairs) per emitted row.
///
/// Determinism: partition tables insert build rows in ascending index
/// order (the sequential candidate order) and probe chunk outputs are
/// concatenated in chunk order, so the output U-relation — tuples, WSDs,
/// and order — is identical to the sequential join at any thread count.
pub fn hash_join_with(
    left: &URelation,
    right: &URelation,
    left_keys: &[usize],
    right_keys: &[usize],
    pool: &ThreadPool,
    min_chunk: usize,
) -> Result<URelation> {
    if left_keys.len() != right_keys.len() || left_keys.is_empty() {
        return Err(EngineError::InvalidOperator {
            message: "hash join requires matching, non-empty key lists".into(),
        }
        .into());
    }
    let schema = Arc::new(left.schema().join(right.schema()));

    // Partitioned build: partition p owns hashes ≡ p (mod P). The
    // chunked hash pass pre-buckets (hash, row) pairs by partition, so
    // each partition task touches only its own pairs (O(rows) total
    // build work); chunk order = row order keeps every bucket's
    // candidate list in the sequential insertion order.
    let parts = if pool.threads() > 1 && right.len() >= min_chunk {
        pool.threads()
    } else {
        1
    };
    let chunk = maybms_par::auto_chunk(right.len(), pool.threads(), min_chunk);
    let bucketed: Vec<Vec<Vec<(u64, u32)>>> =
        pool.par_map_chunks(right.len(), chunk, |range| {
            let mut buckets: Vec<Vec<(u64, u32)>> = vec![Vec::new(); parts];
            for i in range {
                if let Some(h) = tuple_key_hash(&right.tuples()[i].data, right_keys) {
                    buckets[(h as usize) % parts].push((h, i as u32));
                }
            }
            buckets
        });
    let tables: Vec<FastMap<u64, Vec<usize>>> =
        pool.par_map((0..parts).collect::<Vec<_>>(), |p| {
            let mut table: FastMap<u64, Vec<usize>> = FastMap::with_capacity_and_hasher(
                right.len() / parts + 1,
                Default::default(),
            );
            for chunk_buckets in &bucketed {
                for &(h, i) in &chunk_buckets[p] {
                    table.entry(h).or_default().push(i as usize);
                }
            }
            table
        });

    // Chunked probe over the left input, with WSD conjunction.
    let chunk = maybms_par::auto_chunk(left.len(), pool.threads(), min_chunk);
    let outputs: Vec<Vec<UTuple>> = pool.par_map_chunks(left.len(), chunk, |range| {
        let mut batch = TupleBatch::new();
        let mut wsds: Vec<Wsd> = Vec::new();
        for li in range {
            let l = &left.tuples()[li];
            let Some(h) = tuple_key_hash(&l.data, left_keys) else { continue };
            let Some(candidates) = tables[(h as usize) % parts].get(&h) else { continue };
            for &ri in candidates {
                let r = &right.tuples()[ri];
                if !tuple_keys_eq(&r.data, right_keys, &l.data, left_keys) {
                    continue; // hash collision
                }
                if let Some(wsd) = l.wsd.conjoin(&r.wsd) {
                    batch.push_concat(&l.data, &r.data);
                    wsds.push(wsd);
                }
            }
        }
        zip_batch(batch, wsds)
    });
    let mut tuples = Vec::with_capacity(outputs.iter().map(Vec::len).sum());
    for o in outputs {
        tuples.extend(o);
    }
    Ok(URelation::new(schema, tuples))
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
    use crate::var::Var;
    use crate::world_table::WorldTable;
    use crate::wsd::Wsd;
    use maybms_engine::{rel, BinaryOp, DataType};

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
    fn select_preserves_conditions() {
        let (_, u) = setup();
        let out = select(&u, &Expr::col("state").eq(Expr::lit("F"))).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.tuples()[0].wsd, Wsd::of(Var(0), 0));
    }

    #[test]
    fn project_keeps_duplicate_tuples_with_their_conditions() {
        let (_, u) = setup();
        let out = project(&u, &[ProjectItem::col("player")]).unwrap();
        assert_eq!(out.len(), 4); // no dedup: two Bryant rows, two Duncan rows
        assert_eq!(out.schema().names(), vec!["player"]);
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
    fn parallel_join_and_select_identical_to_sequential() {
        let (_, u) = setup();
        // Grow the input so chunking actually splits it (conflicting WSDs
        // included via self-join).
        let mut big = u.clone();
        for _ in 0..4 {
            big = union_all(&[&big, &u]).unwrap();
        }
        let pred = Expr::col("state").eq(Expr::lit("F"));
        let seq_sel = select(&big, &pred).unwrap();
        let seq_join = hash_join(&big, &big, &[0], &[0]).unwrap();
        for threads in [1, 2, 8] {
            let pool = maybms_par::ThreadPool::new(threads);
            let par_sel = select_with(&big, &pred, &pool, 3).unwrap();
            assert_eq!(seq_sel.tuples(), par_sel.tuples(), "select, threads = {threads}");
            let par_join = hash_join_with(&big, &big, &[0], &[0], &pool, 3).unwrap();
            assert_eq!(seq_join.tuples(), par_join.tuples(), "join, threads = {threads}");
        }
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
        let narrow = project(&u, &[ProjectItem::col("player")]).unwrap();
        assert!(union_all(&[&u, &narrow]).is_err());
    }

    /// The core soundness property on a small instance: evaluating the
    /// translated query and instantiating per world equals instantiating
    /// per world and evaluating the ordinary query.
    #[test]
    fn translation_commutes_with_instantiation() {
        let (wt, u) = setup();
        let pred = Expr::col("state").eq(Expr::lit("F"));
        let translated = select(&u, &pred).unwrap();
        for (world, _p) in wt.enumerate_worlds(100).unwrap() {
            let lhs = translated.instantiate(&world);
            let rhs =
                maybms_engine::ops::filter(&u.instantiate(&world), &pred).unwrap();
            assert_eq!(lhs.tuples(), rhs.tuples(), "world {world:?}");
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
            let lhs = translated.instantiate(&world);
            let rhs = maybms_engine::ops::nested_loop_join(
                &l.instantiate(&world),
                &r.instantiate(&world),
                Some(&pred),
            )
            .unwrap();
            let mut a = lhs.tuples().to_vec();
            let mut b = rhs.tuples().to_vec();
            a.sort();
            b.sort();
            assert_eq!(a, b, "world {world:?}");
        }
    }

    #[test]
    fn select_condition_on_missing_column_errors() {
        let (_, u) = setup();
        assert!(select(&u, &Expr::col("nope").eq(Expr::lit(1i64))).is_err());
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
