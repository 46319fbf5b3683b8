//! # maybms-pipe — morsel-driven streaming execution
//!
//! A bottom-up executor that fully materialises every intermediate
//! relation allocates four complete relations for a `σ → π → σ → π`
//! chain, and memory traffic — not the probabilistic bookkeeping — then
//! dominates the hot path. This crate is the push-based streaming
//! executor that runs every σ/π/⋈ of a SQL statement:
//!
//! * `maybms-core` splits each query into **pipelines** at *breakers* —
//!   operators that must see all of their input before emitting anything
//!   (hash-join *build*, aggregation, sort, distinct, limit, union,
//!   nested-loop join);
//! * within a pipeline, fused `Scan → Filter → Project → (join-probe)`
//!   stages consume the source in **morsels** (contiguous row ranges) and
//!   push each row through the whole stage chain with **no intermediate
//!   materialisation** — only the pipeline's final output is built, one
//!   morsel-local [`TupleBatch`](maybms_engine::tuple::TupleBatch) at a
//!   time;
//! * hash-join **builds are morsel-local**: each morsel constructs a
//!   private hash table and the per-key candidate lists are merged in
//!   morsel order ([`BuildTable`]), so the merged table is identical to a
//!   sequential build at any thread count;
//! * grouped aggregation is **streaming**: the breaker's input pipeline
//!   folds each surviving row into a morsel-local [`GroupTable`] of
//!   mergeable accumulator states, merged in morsel order with global
//!   first-seen key order ([`groupby`]) — `GROUP BY` plans never
//!   materialise their input;
//! * the **kernel-eligible σ/π prefix** of a pipeline runs *columnar*:
//!   each morsel pivots into a typed
//!   [`ColumnBatch`](maybms_engine::column::ColumnBatch) (only the
//!   referenced source columns), predicates and projections evaluate
//!   through the vectorised kernels of
//!   [`maybms_engine::vector`], and rows pivot back to shared-row
//!   tuples at probes, breakers, and sinks (where the U-relational WSD
//!   bookkeeping lives). Eligibility is decided per stage when the
//!   pipeline runs; `EXPLAIN` marks those stages `(vectorised)`. The
//!   row-at-a-time walk stays reachable only through
//!   [`UStream::collect_opts`], as the equivalence tests' reference;
//! * when the source table is **columnar at rest** (every catalog table
//!   in `maybms-core` is), a kernel-eligible scan skips the per-morsel
//!   pivot entirely: stages
//!   borrow the stored column slices (dictionary codes included) and
//!   the whole σ/π prefix runs **zero-pivot** — `EXPLAIN` marks the
//!   source `(columnar, zero-pivot)` and the
//!   `maybms_pipe_pivots_total` / `maybms_pipe_pivot_rows_total`
//!   counters stay flat. Dictionary-encoded text columns feed the
//!   hash-join build side and the dense GROUP BY key path with u32
//!   codes and pre-cached hashes instead of strings;
//! * morsels run on the `maybms-par` pool and morsel outputs are
//!   concatenated in morsel order, preserving the determinism
//!   contract: **output is bit-identical at any thread count and morsel
//!   size** to the one-thread, whole-input row walk — and the columnar
//!   path is bit-identical to the row path, values *and* errors
//!   (property-tested at 1/2/8 threads in
//!   `crates/bench/tests/pipe_equiv.rs` and
//!   `crates/bench/tests/vec_equiv.rs`, against the naive oracle
//!   `maybms_bench::naive` as a bag).
//!
//! The one front end is [`ustream`]: a lazy [`UStream`] over U-relations
//! that `maybms-core` threads through its select/project/join chains,
//! conjoining world-set descriptors in the probe stage and dropping
//! unsatisfiable rows (the parsimonious translation, §2.3). A certain
//! relation runs through it as a U-relation with tautological WSDs
//! (`URelation::from_certain`, which keeps a columnar store's columns).
//! [`UStream::describe`] is what the SQL `EXPLAIN` statement prints.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod build;
pub(crate) mod fuse;
pub mod groupby;
pub mod ustream;

pub use build::BuildTable;
pub use groupby::GroupTable;
pub use ustream::UStream;
