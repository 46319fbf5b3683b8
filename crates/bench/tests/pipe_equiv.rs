//! The morsel-driven executor (`maybms-pipe`) against its references:
//! **bit-identical** output — schema, tuples, WSDs, order — at any thread
//! count and any morsel size to the one-thread, whole-input row walk
//! (`collect_opts(.., false)`), and the same bag as the seed-faithful
//! naive operators (`maybms_bench::naive`, the single oracle).
//!
//! Random σ/π/⋈ chains are generated as token programs (arity tracked
//! through projections and joins, comparisons and arithmetic restricted
//! to numeric columns), over data with NULL join keys, cross-type
//! numeric duplicates (`1 == 1.0`), and — on the U-relational side —
//! conflicting WSDs whose join conjunctions are unsatisfiable and must
//! be dropped. Certain chains run through the same `UStream` front end
//! as U-relational ones (tautological WSDs). Each case runs on explicit
//! 1-, 2-, and 8-thread pools with morsel sizes down to a single row
//! (the worst case for any order bug); CI additionally runs the whole
//! suite under `MAYBMS_THREADS=1` and `=4`, covering the process-wide
//! pool dispatch.

use maybms_core::agg as uagg;
use maybms_core::translate::AggSpec;
use maybms_bench::naive;
use maybms_engine::ops::{self, AggCall, AggFunc, ProjectItem};
use maybms_engine::{DataType, Expr, Field, Relation, Tuple};
use maybms_par::ThreadPool;
use maybms_pipe::UStream;
use maybms_urel::{URelation, WorldTable, Wsd};
use proptest::prelude::*;

mod chains;
mod gen;
use chains::{arb_cell, arb_tables, certain_stream, run_naive, sorted, Step};
use gen::arb_urelation;

/// Per-stage `(label, rows_in, rows_out, build_rows)` fingerprint of an
/// instrumented pipeline, plus its group count. Everything in here is
/// part of the determinism contract — bit-identical at any thread count
/// and morsel size. (Morsel counts and wall times are *not*: morsel
/// boundaries depend on the pool.)
fn stage_fingerprint(ps: &maybms_obs::PipelineStats) -> (Vec<(String, u64, u64, u64)>, u64) {
    (
        ps.stages
            .iter()
            .map(|s| (s.label.clone(), s.rows_in.get(), s.rows_out.get(), s.build_rows.get()))
            .collect(),
        ps.groups.get(),
    )
}

/// The thread-invariant portion of a per-query collector: per-pipeline
/// stage fingerprints plus the confidence-estimator effort counters.
#[allow(clippy::type_complexity)]
fn query_fingerprint(
    qs: &maybms_obs::QueryStats,
) -> (Vec<(Vec<(String, u64, u64, u64)>, u64)>, [u64; 5], u64) {
    (
        qs.pipelines().iter().map(|p| stage_fingerprint(p)).collect(),
        [
            qs.conf_calls.get(),
            qs.dnf_clauses.get(),
            qs.dtree_nodes.get(),
            qs.samples_drawn.get(),
            qs.sample_batches.get(),
        ],
        qs.max_rel_stderr().to_bits(),
    )
}

// ---------------------------------------------------------------------
// Certain path: random σ/π/⋈ UStream chains vs the naive operators
// ---------------------------------------------------------------------

/// One chain-building token: `(opcode, a, b)`.
type Token = (u8, u8, u8);

/// Fold a token program into a well-typed chain over `tables[base % 2]`,
/// tracking output arity (returned last). All columns stay
/// numeric-or-NULL, so every generated expression is total on the data.
fn build_steps(base: u8, tokens: &[Token]) -> (usize, Vec<Step>, usize) {
    let arity_of = |t: usize| if t == 0 { 3 } else { 2 };
    let source = base as usize % 2;
    let mut arity = arity_of(source);
    let mut steps = Vec::new();
    for &(op, a, b) in tokens {
        let col = |x: u8| Expr::ColumnIdx(x as usize % arity);
        match op % 3 {
            0 => {
                let cmp = if b % 2 == 0 {
                    maybms_engine::BinaryOp::Gt
                } else {
                    maybms_engine::BinaryOp::LtEq
                };
                steps.push(Step::Filter(col(a).binary(cmp, Expr::lit(i64::from(b % 5)))));
            }
            1 => {
                // Rotate the columns and append one computed column.
                let mut items: Vec<ProjectItem> = (0..arity)
                    .map(|i| {
                        ProjectItem::new(
                            Expr::ColumnIdx((i + a as usize) % arity),
                            format!("p{i}"),
                        )
                    })
                    .collect();
                items.push(ProjectItem::new(
                    col(b).binary(maybms_engine::BinaryOp::Add, Expr::lit(1i64)),
                    "sum",
                ));
                arity += 1;
                steps.push(Step::Project(items));
            }
            _ => {
                let table = b as usize % 2;
                steps.push(Step::Join {
                    table,
                    left_key: a as usize % arity,
                    right_key: b as usize % arity_of(table),
                });
                arity += arity_of(table);
            }
        }
    }
    (source, steps, arity)
}

/// A terminal grouped aggregation over a chain of output arity `arity`
/// (the streaming breaker): every standard aggregate function, with
/// zero or one group key, over numeric-or-NULL columns (NULL keys and
/// `1 == 1.0` duplicates form groups too).
fn build_agg(arity: usize, (keyed, a, b): (bool, u8, u8)) -> (Vec<Expr>, Vec<AggCall>) {
    let col = |x: u8| Expr::ColumnIdx(x as usize % arity);
    let group_exprs = if keyed { vec![col(b)] } else { Vec::new() };
    let aggs = vec![
        AggCall::new(AggFunc::Count, None, "n"),
        AggCall::new(AggFunc::Sum, Some(col(a)), "s"),
        AggCall::new(AggFunc::Avg, Some(col(b)), "m"),
        AggCall::new(AggFunc::Min, Some(col(a)), "lo"),
        AggCall::new(AggFunc::Max, Some(col(b)), "hi"),
    ];
    (group_exprs, aggs)
}

/// The aggregation through the SQL path's streaming group breaker
/// (`core::agg` with `AggSpec::Std`).
fn stream_agg(
    stream: UStream,
    group_exprs: &[Expr],
    aggs: &[AggCall],
    pool: &ThreadPool,
    morsel: usize,
) -> Relation {
    let key_fields: Vec<Field> =
        group_exprs.iter().map(|_| Field::new("g", DataType::Unknown)).collect();
    let specs: Vec<(AggSpec, String)> = aggs
        .iter()
        .map(|c| (AggSpec::Std { func: c.func, arg: c.arg.clone() }, c.name.clone()))
        .collect();
    let (wt, ctx) = (WorldTable::new(), uagg::ConfContext::default());
    uagg::aggregate_stream_with(
        stream,
        group_exprs,
        group_exprs.len(),
        key_fields,
        &specs,
        &wt,
        &ctx,
        None,
        pool,
        morsel,
    )
    .unwrap()
}

/// The order reference: the one-thread, whole-input row walk.
fn row_walk(stream: UStream) -> URelation {
    stream.collect_opts(&ThreadPool::new(1), 1, false).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A fused UStream chain over certain relations ≡ the one-thread row
    /// walk (rows and order), and ≡ the naive operators as a bag, at
    /// 1/2/8 threads and morsel sizes down to one row — over row-store
    /// sources and over columnar-at-rest (`compact()`) sources alike,
    /// every WSD tautological. With a terminal grouped aggregation, the
    /// streaming group breaker (per-morsel states merged) ≡
    /// `ops::aggregate` over the collected row walk, exactly.
    #[test]
    fn pipelined_plan_matches_materialized(
        tables in arb_tables(),
        base in 0u8..2,
        tokens in prop::collection::vec((0u8..3, 0u8..16, 0u8..16), 0..6),
        agg_tok in prop::option::of((any::<bool>(), 0u8..16, 0u8..16)),
    ) {
        let (source, steps, arity) = build_steps(base, &tokens);
        let row_store = [0, 1].map(|i| URelation::from_certain(&tables[i]));
        let compacted = [0, 1].map(|i| URelation::from_certain(&tables[i].compact()));
        prop_assert!(compacted.iter().all(URelation::is_columnar));
        let chain = row_walk(certain_stream(&row_store, source, &steps)).into_certain();
        prop_assert_eq!(sorted(&run_naive(&tables, source, &steps).unwrap()), sorted(&chain));
        let agg = agg_tok.map(|tok| build_agg(arity, tok));
        let materialized = match &agg {
            None => chain,
            Some((group_exprs, aggs)) => {
                let names: Vec<String> = group_exprs.iter().map(|_| "g".to_string()).collect();
                ops::aggregate(&chain, group_exprs, &names, aggs).unwrap()
            }
        };
        for lifted in [&row_store, &compacted] {
            for threads in [1usize, 2, 8] {
                let pool = ThreadPool::new(threads);
                for morsel in [1usize, 4] {
                    let stream = certain_stream(lifted, source, &steps);
                    let pipelined = match &agg {
                        None => {
                            let u = stream.collect_with(&pool, morsel).unwrap();
                            prop_assert!(u.is_t_certain());
                            u.into_certain()
                        }
                        Some((group_exprs, aggs)) => {
                            stream_agg(stream, group_exprs, aggs, &pool, morsel)
                        }
                    };
                    prop_assert_eq!(
                        pipelined.schema().names(),
                        materialized.schema().names(),
                        "schema, threads {} morsel {}", threads, morsel
                    );
                    prop_assert_eq!(
                        pipelined.tuples(),
                        materialized.tuples(),
                        "tuples, threads {} morsel {}", threads, morsel
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// U-relational path: UStream chains vs the naive U-relational algebra
// ---------------------------------------------------------------------

fn ubag(u: &URelation) -> Vec<(Tuple, Wsd)> {
    let mut v: Vec<(Tuple, Wsd)> =
        u.tuples().iter().map(|t| (t.data.clone(), t.wsd.clone())).collect();
    v.sort();
    v
}

/// Fold tokens into both the naive U-relational chain (`select_u`,
/// `project_u`, `hash_join_u`) and the lazy stream. Returns `(naive,
/// stream, per-column numeric-or-NULL flags)`; both sides built from
/// identical stages. The naive joins build on their left input, so the
/// naive chain matches the stream as a bag, not in order.
fn build_uchain(
    u1: &URelation,
    u2: &URelation,
    tokens: &[Token],
) -> (URelation, UStream, Vec<bool>) {
    // Per output column: numeric-or-NULL? (Comparisons against integer
    // literals are total only then.)
    let mut numeric = vec![true, true, false];
    let mut oracle = u1.clone();
    let mut lazy = UStream::new(u1.clone());
    for &(op, a, b) in tokens {
        let arity = numeric.len();
        match op % 3 {
            0 => {
                // Filter: comparison on a numeric column when one
                // exists, IS NOT NULL otherwise (total either way).
                let idx = a as usize % arity;
                let pred = if numeric[idx] {
                    let cmp = if b % 2 == 0 {
                        maybms_engine::BinaryOp::Gt
                    } else {
                        maybms_engine::BinaryOp::Lt
                    };
                    Expr::ColumnIdx(idx).binary(cmp, Expr::lit(i64::from(b % 4)))
                } else {
                    Expr::IsNull { expr: Box::new(Expr::ColumnIdx(idx)), negated: true }
                };
                oracle = naive::select_u(&oracle, &pred).unwrap();
                lazy = lazy.filter(&pred).unwrap();
            }
            1 => {
                // Project: rotate all columns (bare references keep the
                // per-column numeric flags meaningful).
                let items: Vec<ProjectItem> = (0..arity)
                    .map(|i| {
                        ProjectItem::new(
                            Expr::ColumnIdx((i + a as usize) % arity),
                            format!("p{i}"),
                        )
                    })
                    .collect();
                numeric =
                    (0..arity).map(|i| numeric[(i + a as usize) % arity]).collect();
                oracle = naive::project_u(&oracle, &items).unwrap();
                lazy = lazy.project(&items).unwrap();
            }
            _ => {
                // Hash-join probe against u2 (or u1 for a self-join's
                // conflicting WSDs); the stream is the probe side.
                let build = if b % 2 == 0 { u2 } else { u1 };
                let lk = a as usize % arity;
                oracle = naive::hash_join_u(&oracle, build, &[lk], &[0]).unwrap();
                lazy = lazy.hash_join(build.clone(), &[lk], &[0]).unwrap();
                numeric.extend([true, true, false]);
            }
        }
    }
    (oracle, lazy, numeric)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Fused UStream chains ≡ the naive U-relational algebra as a bag of
    /// (data, WSD) pairs (unsatisfiable conjunctions dropped), and ≡ the
    /// one-thread row walk in row order too, at 1/2/8 threads and
    /// single-row morsels.
    #[test]
    fn ustream_chain_matches_algebra(
        (_wt, u1) in arb_urelation(arb_cell, 14),
        (_w2, u2) in arb_urelation(arb_cell, 14),
        tokens in prop::collection::vec((0u8..3, 0u8..16, 0u8..16), 0..5),
    ) {
        let (naive_chain, lazy, _) = build_uchain(&u1, &u2, &tokens);
        prop_assert_eq!(lazy.schema().len(), naive_chain.schema().len());
        let reference = row_walk(lazy);
        prop_assert_eq!(ubag(&reference), ubag(&naive_chain));
        // Collected per-stage stats must also be bit-identical across
        // thread counts (order-independent sums — the instrumentation
        // side of the determinism contract).
        let mut fingerprints = Vec::new();
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            // Rebuild the stream per thread count (collect consumes it).
            let (_, stream, _) = build_uchain(&u1, &u2, &tokens);
            let ps = stream.stats_skeleton("property pipeline");
            let got = stream
                .collect_stats(&pool, 1, Some(&ps))
                .unwrap();
            prop_assert_eq!(got.tuples(), reference.tuples(), "threads {}", threads);
            fingerprints.push(stage_fingerprint(&ps));
        }
        prop_assert_eq!(&fingerprints[1], &fingerprints[0], "stats, threads 2 vs 1");
        prop_assert_eq!(&fingerprints[2], &fingerprints[0], "stats, threads 8 vs 1");
        let (_, stream, _) = build_uchain(&u1, &u2, &tokens);
        prop_assert_eq!(stream.collect().unwrap().tuples(), reference.tuples());
    }

    /// The streaming grouped-aggregation breaker ≡ collecting the chain
    /// (one-thread row walk) and running the two-pass group + aggregate path — group
    /// keys (incl. NULLs and duplicate select keys), `conf()`,
    /// `esum`/`ecount` partial sums, and `aconf` seed numbering — at
    /// 1/2/8 threads with single-row morsels. Covers empty inputs with
    /// and without GROUP BY (0-row generators).
    #[test]
    fn grouped_streaming_matches_two_pass(
        (wt, u1) in arb_urelation(arb_cell, 14),
        (_w2, u2) in arb_urelation(arb_cell, 14),
        tokens in prop::collection::vec((0u8..3, 0u8..16, 0u8..16), 0..4),
        key_pick in 0u8..3,
        agg_pick in 0u8..4,
    ) {
        let (_, stream, numeric) = build_uchain(&u1, &u2, &tokens);
        let reference = row_walk(stream);
        // Group keys: global (none), one key, or a duplicated key pair
        // (the same expression selected twice).
        let k0 = Expr::ColumnIdx(0);
        let grouping: Vec<Expr> = match key_pick {
            0 => Vec::new(),
            1 => vec![k0.clone()],
            _ => vec![k0.clone(), k0],
        };
        let key_fields: Vec<Field> = (0..grouping.len())
            .map(|i| Field::new(format!("k{i}"), DataType::Unknown))
            .collect();
        // esum needs a numeric argument; pick the first numeric column
        // (falling back to column 0, where both paths must then raise
        // the same typing error).
        let num_col = numeric
            .iter()
            .position(|&n| n)
            .map(Expr::ColumnIdx)
            .unwrap_or(Expr::ColumnIdx(0));
        let aggs: Vec<(AggSpec, String)> = match agg_pick {
            0 => vec![(AggSpec::Conf, "p".into())],
            1 => vec![
                (AggSpec::ESum(num_col.clone()), "es".into()),
                (AggSpec::ECount(None), "ec".into()),
            ],
            2 => vec![
                (AggSpec::AConf { epsilon: 0.5, delta: 0.4 }, "ap".into()),
                (AggSpec::Conf, "p".into()),
            ],
            _ => vec![
                (AggSpec::ECount(Some(Expr::ColumnIdx(1))), "ec".into()),
                (AggSpec::Conf, "p".into()),
                (AggSpec::ESum(num_col.clone()), "es".into()),
            ],
        };
        let ctx = uagg::ConfContext::default();
        // Two-pass reference over the collected chain.
        let want = uagg::group(&reference, &grouping).and_then(|groups| {
            uagg::aggregate_groups(&reference, &groups, key_fields.clone(), &aggs, &wt, &ctx)
        });
        // Per-query collectors attached at every thread count: results
        // AND collected stats (per-stage rows, group counts, estimator
        // effort) must be bit-identical.
        let mut fingerprints = Vec::new();
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            let (_, stream, _) = build_uchain(&u1, &u2, &tokens);
            let qs = maybms_obs::QueryStats::new();
            let got = uagg::aggregate_stream_with(
                stream,
                &grouping,
                grouping.len(),
                key_fields.clone(),
                &aggs,
                &wt,
                &ctx,
                Some(&qs),
                &pool,
                1,
            );
            match (&want, &got) {
                (Ok(w), Ok(g)) => {
                    prop_assert_eq!(g.tuples(), w.tuples(), "threads {}", threads);
                    fingerprints.push(query_fingerprint(&qs));
                }
                (Err(_), Err(_)) => {}
                (w, g) => prop_assert!(
                    false,
                    "two-pass {:?} vs streaming {:?} (threads {})",
                    w,
                    g,
                    threads
                ),
            }
        }
        for (i, f) in fingerprints.iter().enumerate().skip(1) {
            prop_assert_eq!(f, &fingerprints[0], "stats fingerprint, run {}", i);
        }
    }
}
