//! A lazy, morsel-driven pipeline over U-relations — the one σ/π/⋈
//! executor.
//!
//! `maybms-core` evaluates the parsimonious translation (§2.3) of every
//! SELECT block's select/project/join chain through a [`UStream`]: σ, π,
//! and hash-join probes are recorded as **fused stages** over one source
//! U-relation and run in a single morsel-driven pass at
//! [`UStream::collect`]: WSDs ride along with each in-flight row, probe
//! stages conjoin them (dropping unsatisfiable pairs), and nothing is
//! materialised between stages.
//!
//! Determinism contract: `collect()` is bit-identical — data, WSDs, and
//! row order — at any thread count and morsel size to the one-thread,
//! whole-input row walk ([`UStream::collect_opts`] with the columnar path
//! off on a 1-thread pool): morsel outputs concatenate in morsel order,
//! and build tables merge morsel-locally in morsel order, so every probe
//! emits in probe-row order with build candidates in ascending build-row
//! order (the fixed build-right/probe-left convention).

use std::fmt::Write as _;
use std::sync::Arc;

use maybms_engine::ops::ProjectItem;
use maybms_engine::expr::fold;
use maybms_engine::{EngineError, Expr, Field, Schema, Value};
use maybms_par::ThreadPool;
use maybms_urel::{Result, URelation, UTuple, Wsd};

use crate::fuse::{self, FusedOutput, Stage};

/// A lazily evaluated U-relational pipeline: a source plus fused stages
/// (run by the shared executor in [`fuse`]).
///
/// Stage constructors bind their expressions against the stream's
/// current schema immediately (so planning errors surface where the
/// materialising code would raise them); rows only flow — and probe
/// build tables are only constructed, morsel-locally, on the collecting
/// pool — at [`UStream::collect`].
pub struct UStream {
    source: URelation,
    stages: Vec<Stage>,
    schema: Arc<Schema>,
}

impl UStream {
    /// Start a pipeline from a materialised U-relation.
    pub fn new(source: URelation) -> UStream {
        let schema = source.schema().clone();
        UStream { source, stages: Vec::new(), schema }
    }

    /// The schema rows will have after the recorded stages.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of recorded stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Append a σ stage: keep rows whose data satisfies the predicate;
    /// WSDs ride along unchanged.
    ///
    /// The predicate is constant-folded at bind time ([`fold`]'s guard
    /// applies: fallible subexpressions never fold out of
    /// short-circuited positions). A predicate folding to
    /// `true` records no stage at all; one folding to `false`/`NULL`
    /// short-circuits the whole stream to an empty U-relation — but
    /// only when every stage recorded so far is infallible, so a
    /// runtime error the fused chain would have raised is never
    /// swallowed.
    pub fn filter(mut self, predicate: &Expr) -> Result<UStream> {
        let bound = fold(predicate.bind(&self.schema)?);
        match &bound {
            Expr::Literal(Value::Bool(true)) => return Ok(self),
            Expr::Literal(Value::Bool(false)) | Expr::Literal(Value::Null)
                if fuse::stages_infallible(&self.stages) =>
            {
                self.source = URelation::new(self.schema.clone(), Vec::new());
                self.stages.clear();
                return Ok(self);
            }
            _ => {}
        }
        self.stages.push(Stage::Filter(bound));
        Ok(self)
    }

    /// Append a π stage: one expression per output column, WSDs kept, no
    /// duplicate elimination (§2.2). Expressions are constant-folded at
    /// bind time.
    pub fn project(mut self, items: &[ProjectItem]) -> Result<UStream> {
        let mut exprs = Vec::with_capacity(items.len());
        let mut fields = Vec::with_capacity(items.len());
        for item in items {
            let e = item.expr.bind(&self.schema)?;
            // Field type from the unfolded expression, so folding never
            // changes the stream's schema.
            fields.push(Field::new(item.name.clone(), e.data_type(&self.schema)));
            exprs.push(fold(e));
        }
        self.schema = Arc::new(Schema::new(fields));
        self.stages.push(Stage::Project(exprs));
        Ok(self)
    }

    /// Replace the output schema (same arity; e.g. re-qualifying after a
    /// projection) without touching the stages.
    pub fn with_schema(mut self, schema: Arc<Schema>) -> UStream {
        self.schema = schema;
        self
    }

    /// Append a hash-join probe stage against `build`: an equi-join on
    /// positional keys that concatenates data, conjoins WSDs, and drops
    /// unsatisfiable pairs; NULL keys never match. The stream is the left
    /// / probe side, `build` the right / build side. The build table is
    /// constructed at collect time, morsel-locally on the collecting
    /// pool.
    pub fn hash_join(
        mut self,
        build: URelation,
        left_keys: &[usize],
        right_keys: &[usize],
    ) -> Result<UStream> {
        if left_keys.len() != right_keys.len() || left_keys.is_empty() {
            return Err(EngineError::InvalidOperator {
                message: "hash join requires matching, non-empty key lists".into(),
            }
            .into());
        }
        if left_keys.iter().any(|&k| k >= self.schema.len())
            || right_keys.iter().any(|&k| k >= build.schema().len())
        {
            return Err(EngineError::InvalidOperator {
                message: "hash join key out of range".into(),
            }
            .into());
        }
        self.schema = Arc::new(self.schema.join(build.schema()));
        self.stages.push(Stage::Probe {
            build,
            left_keys: left_keys.to_vec(),
            right_keys: right_keys.to_vec(),
        });
        Ok(self)
    }

    /// Run the pipeline on the process-wide pool. Dispatches morsels in
    /// parallel for large sources; output is identical either way.
    pub fn collect(self) -> Result<URelation> {
        let pool = maybms_par::pool();
        self.collect_with(&pool, maybms_engine::ops::PAR_MIN_CHUNK)
    }

    /// [`UStream::collect`] on an explicit pool and minimum morsel size
    /// (what the determinism property tests pin to 1/2/8 threads).
    pub fn collect_with(self, pool: &ThreadPool, min_morsel: usize) -> Result<URelation> {
        self.collect_stats(pool, min_morsel, None)
    }

    /// [`UStream::collect_with`] with the columnar path pinned
    /// explicitly. `columnar = false` runs every stage through the
    /// row-at-a-time walk — the reference the columnar ≡ row
    /// equivalence tests compare the vectorised prefix against.
    pub fn collect_opts(
        self,
        pool: &ThreadPool,
        min_morsel: usize,
        columnar: bool,
    ) -> Result<URelation> {
        self.run(pool, min_morsel, columnar, None)
    }

    /// [`UStream::collect_with`] with an optional per-pipeline stats
    /// collector attached (see [`UStream::stats_skeleton`]). Collection
    /// is allocation-light (per-morsel stack tallies, flushed once per
    /// morsel) and never changes the output: stats are order-independent
    /// sums, bit-identical at any thread count or morsel size.
    pub fn collect_stats(
        self,
        pool: &ThreadPool,
        min_morsel: usize,
        stats: Option<&maybms_obs::PipelineStats>,
    ) -> Result<URelation> {
        self.run(pool, min_morsel, true, stats)
    }

    fn run(
        self,
        pool: &ThreadPool,
        min_morsel: usize,
        columnar: bool,
        stats: Option<&maybms_obs::PipelineStats>,
    ) -> Result<URelation> {
        let UStream { source, stages, schema } = self;
        // The span opens before the stage-less early return so pipeline
        // span count always equals EXPLAIN ANALYZE's pipeline count
        // (stage-less pipelines register stats too).
        let mut span = maybms_obs::trace::span("pipeline");
        span.attr("stages", stages.len());
        span.attr("source_rows", source.len());
        if stages.is_empty() {
            span.attr("rows_out", source.len());
            return Ok(source.with_schema(schema));
        }
        let t0 = stats.map(|_| std::time::Instant::now());
        let out = match fuse::run(&source, &stages, pool, min_morsel, columnar, stats)? {
            // Filter-only pipeline: gather shares rows (data + WSDs)
            // with the source — a selection vector, no copies.
            FusedOutput::Select(sel) => source.gather(&sel).with_schema(schema),
            FusedOutput::Rows(tuples, wsds) => URelation::new(
                schema,
                tuples
                    .into_iter()
                    .zip(wsds)
                    .map(|(data, wsd)| UTuple::new(data, wsd))
                    .collect(),
            ),
        };
        if let (Some(st), Some(t0)) = (stats, t0) {
            st.record_wall(t0.elapsed());
            // Morsel counts are thread-dependent — attrs are excluded
            // from the determinism contract (unlike span labels/links).
            span.attr("morsels", st.morsels.get());
        }
        span.attr("rows_out", out.len());
        Ok(out)
    }

    /// Run the pipeline with **grouped aggregation as the breaker**: every
    /// morsel's surviving rows fold straight into a morsel-local
    /// [`crate::GroupTable`] keyed by the (bound-here) `group_exprs`, and
    /// the tables merge in morsel order — the input is never materialised.
    ///
    /// The accumulator is caller-defined: `new_state` opens a group,
    /// `fold` absorbs one row (data values plus its WSD), `merge` absorbs
    /// a later morsel's state into an earlier one. Determinism contract:
    /// provided `fold`-then-`merge` equals folding the concatenated rows
    /// (see [`maybms_engine::ops::ExactSum`] for float sums), the returned
    /// `(keys, states)` — first-seen key order included — are identical to
    /// a sequential scan at any thread count and morsel size.
    ///
    /// With no group expressions a single global group is guaranteed,
    /// even over an empty input (SQL's scalar-aggregate behaviour).
    pub fn collect_grouped<A, NF, FF, MF>(
        self,
        group_exprs: &[Expr],
        new_state: NF,
        fold: FF,
        merge: MF,
    ) -> Result<(Vec<Vec<Value>>, Vec<A>)>
    where
        A: Send,
        NF: Fn() -> A + Sync,
        FF: Fn(&mut A, &[Value], &Wsd) -> Result<()> + Sync,
        MF: FnMut(&mut A, A) -> Result<()>,
    {
        let pool = maybms_par::pool();
        self.collect_grouped_with(
            group_exprs,
            &pool,
            maybms_engine::ops::PAR_MIN_CHUNK,
            new_state,
            fold,
            merge,
        )
    }

    /// [`UStream::collect_grouped`] on an explicit pool and minimum
    /// morsel size (what the determinism property tests pin to 1/2/8
    /// threads and single-row morsels).
    pub fn collect_grouped_with<A, NF, FF, MF>(
        self,
        group_exprs: &[Expr],
        pool: &ThreadPool,
        min_morsel: usize,
        new_state: NF,
        fold: FF,
        merge: MF,
    ) -> Result<(Vec<Vec<Value>>, Vec<A>)>
    where
        A: Send,
        NF: Fn() -> A + Sync,
        FF: Fn(&mut A, &[Value], &Wsd) -> Result<()> + Sync,
        MF: FnMut(&mut A, A) -> Result<()>,
    {
        self.collect_grouped_stats(group_exprs, pool, min_morsel, None, new_state, fold, merge)
    }

    /// [`UStream::collect_grouped_with`] with an optional per-pipeline
    /// stats collector attached (same contract as
    /// [`UStream::collect_stats`]; the collector's group counter records
    /// the merged group count).
    #[allow(clippy::too_many_arguments)]
    pub fn collect_grouped_stats<A, NF, FF, MF>(
        self,
        group_exprs: &[Expr],
        pool: &ThreadPool,
        min_morsel: usize,
        stats: Option<&maybms_obs::PipelineStats>,
        new_state: NF,
        fold: FF,
        merge: MF,
    ) -> Result<(Vec<Vec<Value>>, Vec<A>)>
    where
        A: Send,
        NF: Fn() -> A + Sync,
        FF: Fn(&mut A, &[Value], &Wsd) -> Result<()> + Sync,
        MF: FnMut(&mut A, A) -> Result<()>,
    {
        let UStream { source, stages, schema } = self;
        let bound: Vec<Expr> = group_exprs
            .iter()
            .map(|e| e.bind(&schema))
            .collect::<std::result::Result<_, EngineError>>()?;
        let mut span = maybms_obs::trace::span("pipeline");
        span.attr("breaker", "group");
        span.attr("stages", stages.len());
        span.attr("source_rows", source.len());
        let t0 = stats.map(|_| std::time::Instant::now());
        let out = crate::groupby::group_stream(
            &source,
            &stages,
            &bound,
            pool,
            min_morsel,
            stats,
            new_state,
            fold,
            merge,
        )?;
        if let (Some(st), Some(t0)) = (stats, t0) {
            st.record_wall(t0.elapsed());
            span.attr("morsels", st.morsels.get());
        }
        span.attr("groups", out.0.len());
        Ok(out)
    }

    /// A [`maybms_obs::PipelineStats`] collector shaped for this
    /// pipeline: one stage-stats slot per recorded stage, labelled like
    /// [`UStream::describe`]'s lines. Register it on a
    /// [`maybms_obs::QueryStats`] and pass it to
    /// [`UStream::collect_stats`] / [`UStream::collect_grouped_stats`].
    pub fn stats_skeleton(&self, label: impl Into<String>) -> maybms_obs::PipelineStats {
        let vectorised = fuse::vector_prefix_len(&self.stages);
        let labels: Vec<String> = self
            .stages
            .iter()
            .enumerate()
            .map(|(k, stage)| {
                let vec_mark = if k < vectorised { " (vectorised)" } else { "" };
                match stage {
                    Stage::Filter(predicate) => format!("filter {predicate}{vec_mark}"),
                    Stage::Project(exprs) => {
                        let cols: Vec<String> =
                            exprs.iter().map(|e| e.to_string()).collect();
                        format!("project [{}]{vec_mark}", cols.join(", "))
                    }
                    Stage::Probe { left_keys, right_keys, .. } => {
                        let keys: Vec<String> = left_keys
                            .iter()
                            .zip(right_keys)
                            .map(|(l, r)| format!("#{l} = build #{r}"))
                            .collect();
                        format!("hash probe [{}]", keys.join(", "))
                    }
                }
            })
            .collect();
        maybms_obs::PipelineStats::new(label, self.source_mark(), labels)
    }

    /// Source label shared by [`UStream::describe`] and
    /// [`UStream::stats_skeleton`] (so EXPLAIN and EXPLAIN ANALYZE print
    /// the same line): columnar-at-rest sources are marked — their
    /// vectorised prefix borrows column slices instead of pivoting.
    fn source_mark(&self) -> String {
        if self.source.is_columnar() {
            format!("{} stored rows (columnar, zero-pivot)", self.source.len())
        } else {
            format!("{} stored rows", self.source.len())
        }
    }

    /// One-line-per-stage description of the pipeline, used by
    /// `EXPLAIN`. Stages the columnar planner will run vectorised are
    /// marked `(vectorised)`.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "source: {}", self.source_mark());
        let vectorised = fuse::vector_prefix_len(&self.stages);
        for (k, stage) in self.stages.iter().enumerate() {
            let vec_mark = if k < vectorised { " (vectorised)" } else { "" };
            match stage {
                Stage::Filter(predicate) => {
                    let _ = writeln!(out, "-> filter {predicate}{vec_mark}");
                }
                Stage::Project(exprs) => {
                    let cols: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
                    let _ = writeln!(out, "-> project [{}]{vec_mark}", cols.join(", "));
                }
                Stage::Probe { build, left_keys, right_keys } => {
                    let keys: Vec<String> = left_keys
                        .iter()
                        .zip(right_keys)
                        .map(|(l, r)| format!("#{l} = build #{r}"))
                        .collect();
                    let _ = writeln!(
                        out,
                        "-> hash probe [{}] against {}-row build (WSD conjunction)",
                        keys.join(", "),
                        build.len()
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_engine::{rel, DataType};
    use maybms_urel::{Var, WorldTable, Wsd};

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

    /// Fused σ → probe → π equals the parsimonious translation of the
    /// same chain (written out below), WSDs and order included —
    /// including the self-join's unsatisfiable conjunctions being
    /// dropped.
    #[test]
    fn fused_chain_matches_algebra_chain() {
        let (_, u) = setup();
        let pred = Expr::col("state").eq(Expr::lit("F"));
        let items = [ProjectItem::new(Expr::ColumnIdx(0), "who")];
        let chain = || {
            UStream::new(u.clone())
                .filter(&pred)
                .unwrap()
                .hash_join(u.clone(), &[0], &[0])
                .unwrap()
                .project(&items)
                .unwrap()
        };
        assert_eq!(chain().schema().names(), vec!["who"]);
        // σ keeps (Bryant, F | x=0) and (Duncan, F | y=0); each joins its
        // own player's two rows, and only the consistent pair survives.
        let want = [
            (Value::str("Bryant"), Wsd::of(Var(0), 0)),
            (Value::str("Duncan"), Wsd::of(Var(1), 0)),
        ];
        let check = |got: URelation| {
            let rows: Vec<_> =
                got.tuples().iter().map(|t| (t.data.value(0).clone(), t.wsd.clone())).collect();
            assert_eq!(rows, want);
        };
        for threads in [1, 2, 8] {
            check(chain().collect_with(&ThreadPool::new(threads), 1).unwrap());
        }
        check(chain().collect().unwrap());
    }

    #[test]
    fn filter_only_stream_gathers() {
        let (_, u) = setup();
        let pred = Expr::col("player").eq(Expr::lit("Bryant"));
        let got = UStream::new(u.clone()).filter(&pred).unwrap().collect().unwrap();
        assert_eq!(got.tuples(), &u.tuples()[..2]);
        assert_eq!(got.tuples()[0].wsd, Wsd::of(Var(0), 0));
    }

    #[test]
    fn empty_stream_returns_source() {
        let (_, u) = setup();
        let got = UStream::new(u.clone()).collect().unwrap();
        assert_eq!(got.tuples(), u.tuples());
    }

    #[test]
    fn binding_errors_surface_at_stage_construction() {
        let (_, u) = setup();
        assert!(UStream::new(u).filter(&Expr::col("nope").eq(Expr::lit(1i64))).is_err());
    }

    #[test]
    fn key_arity_mismatch_rejected() {
        let (_, u) = setup();
        assert!(UStream::new(u.clone()).hash_join(u, &[0, 1], &[0]).is_err());
    }

    #[test]
    fn empty_keys_rejected() {
        let (_, u) = setup();
        assert!(UStream::new(u.clone()).hash_join(u, &[], &[]).is_err());
    }

    #[test]
    fn out_of_range_keys_rejected() {
        let (_, u) = setup();
        assert!(UStream::new(u.clone()).hash_join(u.clone(), &[9], &[0]).is_err());
        assert!(UStream::new(u.clone()).hash_join(u, &[0], &[9]).is_err());
    }

    #[test]
    fn describe_names_stages() {
        let (_, u) = setup();
        let s = UStream::new(u.clone())
            .filter(&Expr::col("state").eq(Expr::lit("F")))
            .unwrap()
            .hash_join(u, &[0], &[0])
            .unwrap();
        let d = s.describe();
        assert!(d.contains("-> filter"), "{d}");
        assert!(d.contains("hash probe"), "{d}");
    }
}
