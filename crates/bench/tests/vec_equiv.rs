//! Vectorised ≡ scalar: the columnar kernels and the columnar pipeline
//! path must be **bit-identical** to the row-at-a-time evaluator —
//! values (variant and float bits included), NULL propagation, row
//! order, and the first runtime error (row *and* message).
//!
//! Three layers:
//! * expression level — random expression trees (arithmetic,
//!   comparisons, `AND`/`OR`, `NOT`, negation, `IS NULL`, `||`, `CASE`,
//!   `IN`, `CAST`) over random column batches (typed, mixed-variant,
//!   all-NULL, empty, single-row) checked against per-row
//!   [`Expr::eval_values`];
//! * certain pipelines — random σ/π/⋈ `UStream` chains over lifted
//!   certain relations, collected with the columnar path on vs off, at
//!   1/2/8 threads and single-row morsels;
//! * U-relational pipelines — `UStream` chains (WSDs riding along)
//!   collected with the columnar path on vs off.
//!
//! Plus pinned regressions for the `Value` edge cases the kernels must
//! not drift on: `'a' || NULL`, `%` by zero (integer and float),
//! Float/Int cross-type comparisons (including the > 2^53 widening
//! quirk), and mixed-variant columns under `||`.

use std::sync::Arc;

use maybms_engine::column::ColumnBatch;
use maybms_engine::ops::{self, ProjectItem};
use maybms_engine::{vector, BinaryOp, DataType, Expr, Relation, Schema, Tuple, UnaryOp, Value};
use maybms_par::ThreadPool;
use maybms_pipe::UStream;
use maybms_urel::{URelation, UTuple, Wsd};
use proptest::prelude::*;

mod chains;
mod gen;
use chains::{arb_cell, arb_tables, certain_stream, run_naive, sorted, Step};
use gen::{arb_urelation, schema3};

// ---------------------------------------------------------------------
// Expression level: eval_batch vs per-row eval_values
// ---------------------------------------------------------------------

/// One cell of column `mode`: typed columns (0–4), mixed-variant (5).
/// `r % 5 == 0` is NULL everywhere, so NULL-heavy data is routine.
fn make_cell(mode: u8, r: u8) -> Value {
    if r.is_multiple_of(5) {
        return Value::Null;
    }
    match mode {
        // Small ints: arithmetic mostly succeeds.
        0 => Value::Int(i64::from(r) - 120),
        // Extreme ints: overflow and the f64-widening comparison zone.
        1 => {
            if r.is_multiple_of(2) {
                Value::Int(i64::MAX - i64::from(r))
            } else {
                Value::Int(i64::from(r) << 55)
            }
        }
        2 => Value::Float(f64::from(r) / 4.0 - 20.0),
        3 => Value::str(match r % 3 {
            0 => "a",
            1 => "bb",
            _ => "",
        }),
        4 => Value::Bool(r.is_multiple_of(2)),
        // Mixed-variant column: pivots to the Values fallback.
        _ => match r % 4 {
            0 => Value::Int(i64::from(r)),
            1 => Value::Float(f64::from(r) / 2.0),
            2 => Value::str("m"),
            _ => Value::Bool(true),
        },
    }
}

/// Random 4-column batches: per-column type mode plus raw cells.
/// 0..12 rows covers empty and single-row morsels.
fn arb_rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    (
        prop::collection::vec(0u8..6, 4),
        prop::collection::vec(prop::collection::vec(0u8..250, 4), 0..12),
    )
        .prop_map(|(modes, raw)| {
            raw.into_iter()
                .map(|cells| {
                    cells.iter().zip(&modes).map(|(&r, &m)| make_cell(m, r)).collect()
                })
                .collect()
        })
}

type ExprToken = (u8, u8, u8);

fn arb_expr_tokens() -> impl Strategy<Value = Vec<ExprToken>> {
    prop::collection::vec((0u8..13, 0u8..16, 0u8..16), 0..5)
}

fn arith_op(b: u8) -> BinaryOp {
    [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div, BinaryOp::Mod]
        [b as usize % 5]
}

fn cmp_op(b: u8) -> BinaryOp {
    [BinaryOp::Eq, BinaryOp::NotEq, BinaryOp::Lt, BinaryOp::LtEq, BinaryOp::Gt, BinaryOp::GtEq]
        [b as usize % 6]
}

/// Fold a token program into one expression over 4 columns. Every
/// kernel (and both scalar-fallback node kinds) is reachable, as are
/// runtime errors: `% 0`, overflow, type mismatches, non-bool logic.
fn build_expr(tokens: &[ExprToken]) -> Expr {
    let col = |x: u8| Expr::ColumnIdx(x as usize % 4);
    let mut e = col(tokens.first().map_or(0, |t| t.1));
    for &(op, a, b) in tokens {
        e = match op % 13 {
            0 => e.binary(arith_op(b), col(a)),
            // Literal arithmetic — `% 0` and `/ 0` included.
            1 => e.binary(arith_op(b), Expr::lit(i64::from(a % 5))),
            2 => e.binary(cmp_op(b), col(a)),
            3 => e.binary(cmp_op(b), litf(f64::from(a) / 2.0 - 3.0)),
            4 => e.and(col(a).binary(cmp_op(b), Expr::lit(1i64))),
            5 => e.or(col(a).binary(cmp_op(b), Expr::lit(2i64))),
            6 => e.not(),
            7 => Expr::Unary { op: UnaryOp::Neg, expr: Box::new(e) },
            8 => Expr::IsNull { expr: Box::new(e), negated: b % 2 == 1 },
            9 => e.binary(BinaryOp::Concat, col(a)),
            10 => Expr::Case {
                branches: vec![(col(a).binary(BinaryOp::Gt, Expr::lit(0i64)), e)],
                else_expr: Some(Box::new(Expr::lit(i64::from(b)))),
            },
            11 => Expr::InList {
                expr: Box::new(e),
                list: vec![Expr::lit(i64::from(a % 3)), Expr::lit(Value::Null), col(b)],
                negated: b % 2 == 0,
            },
            _ => Expr::Cast {
                expr: Box::new(e),
                dtype: [DataType::Int, DataType::Float, DataType::Text, DataType::Bool]
                    [b as usize % 4],
            },
        };
    }
    e
}

/// `Expr::lit` only takes `Into<Value>`; floats go through the variant.
fn litf(f: f64) -> Expr {
    Expr::Literal(Value::Float(f))
}

/// The oracle: eval_batch must agree with row-at-a-time eval_values on
/// values, variants, and the first error (row + message). Panics on
/// divergence (the vendored proptest reports panics as case failures).
fn check_expr(e: &Expr, rows: &[Vec<Value>]) {
    let batch = ColumnBatch::pivot(rows.len(), rows.iter().map(|r| r.as_slice()), &[0, 1, 2, 3]);
    let (col, err) = vector::eval_batch(e, &batch);
    let mut scalar_err = None;
    let mut expected = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        match e.eval_values(row) {
            Ok(v) => expected.push(v),
            Err(er) => {
                scalar_err = Some((i, er.to_string()));
                break;
            }
        }
    }
    let vec_err = err.map(|(i, er)| (i, er.to_string()));
    assert_eq!(vec_err, scalar_err, "error mismatch for {e}");
    assert_eq!(col.len(), expected.len(), "value count for {e}");
    for (i, want) in expected.iter().enumerate() {
        let got = col.value_at(i);
        assert_eq!(&got, want, "row {i} of {e}");
        assert_eq!(got.data_type(), want.data_type(), "variant at row {i} of {e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Vectorised expression evaluation ≡ scalar, over random
    /// expressions and random batches (typed, mixed, NULL-heavy, empty,
    /// single-row), errors included.
    #[test]
    fn vectorised_expr_matches_scalar(
        rows in arb_rows(),
        tokens in arb_expr_tokens(),
    ) {
        let e = build_expr(&tokens);
        check_expr(&e, &rows);
        // All-NULL batches of the same shape, too.
        let null_rows: Vec<Vec<Value>> =
            rows.iter().map(|r| vec![Value::Null; r.len()]).collect();
        check_expr(&e, &null_rows);
        // And the single-row slices (morsel size one).
        for row in rows.iter().take(2) {
            check_expr(&e, std::slice::from_ref(row));
        }
    }
}

// ---------------------------------------------------------------------
// Certain pipelines: columnar on ≡ columnar off ≡ naive (bag)
// ---------------------------------------------------------------------

type Token = (u8, u8, u8);

/// σ/π/hash-probe chains — exactly the stage shapes the columnar prefix
/// covers (breakers are shared between both paths).
fn build_chain(base: u8, tokens: &[Token]) -> (usize, Vec<Step>) {
    let arity_of = |t: usize| if t == 0 { 3 } else { 2 };
    let source = base as usize % 2;
    let mut arity = arity_of(source);
    let mut steps = Vec::new();
    for &(op, a, b) in tokens {
        let col = |x: u8| Expr::ColumnIdx(x as usize % arity);
        match op % 4 {
            0 => steps.push(Step::Filter(col(a).binary(cmp_op(b), Expr::lit(i64::from(b % 5))))),
            1 => {
                // Conjunction with a comparison right side (vectorises)
                // or an IS NULL (vectorises) — NULL-heavy keys exercise
                // the Kleene kernel.
                let right = if b % 2 == 0 {
                    col(b).binary(BinaryOp::LtEq, col(a))
                } else {
                    Expr::IsNull { expr: Box::new(col(b)), negated: a % 2 == 0 }
                };
                steps.push(Step::Filter(col(a).binary(BinaryOp::Gt, Expr::lit(1i64)).and(right)));
            }
            2 => {
                let mut items: Vec<ProjectItem> = (0..arity)
                    .map(|i| {
                        ProjectItem::new(
                            Expr::ColumnIdx((i + a as usize) % arity),
                            format!("p{i}"),
                        )
                    })
                    .collect();
                items.push(ProjectItem::new(
                    col(b)
                        .binary(BinaryOp::Add, Expr::lit(1i64))
                        .binary(BinaryOp::Mul, col(a)),
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
    (source, steps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Columnar pipeline ≡ row pipeline ≡ the one-thread, whole-input
    /// row walk, at 1/2/8 threads and morsel sizes down to one row, over
    /// row-store and columnar-at-rest (zero-pivot) sources — and ≡ the
    /// naive chain as a bag.
    #[test]
    fn columnar_pipeline_matches_row_pipeline(
        tables in arb_tables(),
        base in 0u8..2,
        tokens in prop::collection::vec((0u8..4, 0u8..16, 0u8..16), 0..6),
    ) {
        let (source, steps) = build_chain(base, &tokens);
        let row_store = [0, 1].map(|i| URelation::from_certain(&tables[i]));
        let compacted = [0, 1].map(|i| URelation::from_certain(&tables[i].compact()));
        let reference = certain_stream(&row_store, source, &steps)
            .collect_opts(&ThreadPool::new(1), 1, false)
            .unwrap();
        prop_assert_eq!(
            sorted(&reference.clone().into_certain()),
            sorted(&run_naive(&tables, source, &steps).unwrap())
        );
        for lifted in [&row_store, &compacted] {
            for threads in [1usize, 2, 8] {
                let pool = ThreadPool::new(threads);
                for morsel in [1usize, 4] {
                    let row = certain_stream(lifted, source, &steps)
                        .collect_opts(&pool, morsel, false)
                        .unwrap();
                    let col = certain_stream(lifted, source, &steps)
                        .collect_opts(&pool, morsel, true)
                        .unwrap();
                    prop_assert_eq!(
                        col.schema().names(),
                        row.schema().names(),
                        "schema, threads {} morsel {}", threads, morsel
                    );
                    prop_assert_eq!(
                        col.tuples(),
                        row.tuples(),
                        "columnar vs row, threads {} morsel {}", threads, morsel
                    );
                    prop_assert_eq!(
                        col.tuples(),
                        reference.tuples(),
                        "columnar vs one-thread row walk, threads {} morsel {}", threads, morsel
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// U-relational pipelines: UStream columnar ≡ row (WSDs ride along)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// UStream σ → π → self-probe chains: columnar collect ≡ row collect
    /// — data, WSDs (conjunction + unsatisfiable drops), and order — at
    /// 1/2/8 threads, single-row morsels included.
    #[test]
    fn ustream_columnar_matches_row(
        (_wt, u) in arb_urelation(arb_cell, 14),
        pa in 0u8..3,
        pb in 0u8..5,
        join_raw in 0u8..2,
    ) {
        let join = join_raw == 1;
        let pred = Expr::ColumnIdx(pa as usize % 3)
            .binary(cmp_op(pb), Expr::lit(i64::from(pb % 3)));
        let items = [
            ProjectItem::new(Expr::ColumnIdx(0), "k"),
            ProjectItem::new(
                Expr::ColumnIdx(1).binary(BinaryOp::Add, Expr::lit(1i64)),
                "v1",
            ),
        ];
        let build = |u: &URelation| -> maybms_urel::Result<UStream> {
            let mut s = UStream::new(u.clone()).filter(&pred)?;
            if join {
                s = s.hash_join(u.clone(), &[0], &[0])?;
            }
            s.project(&items)
        };
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            let row = build(&u).unwrap().collect_opts(&pool, 1, false);
            let col = build(&u).unwrap().collect_opts(&pool, 1, true);
            match (row, col) {
                (Ok(r), Ok(c)) => prop_assert_eq!(
                    c.tuples(),
                    r.tuples(),
                    "columnar vs row U-stream, threads {}", threads
                ),
                // Mixed-type data can error; both paths must agree on it.
                (Err(re), Err(ce)) => prop_assert_eq!(
                    re.to_string(),
                    ce.to_string(),
                    "columnar vs row U-stream error, threads {}", threads
                ),
                (r, c) => prop_assert!(
                    false,
                    "path divergence at {} threads: row {:?} vs columnar {:?}",
                    threads, r.is_ok(), c.is_ok()
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pinned Value-semantics regressions (scalar ≡ vectorised, each)
// ---------------------------------------------------------------------

/// Run a chain over `t` through both pipeline paths, from a row-store
/// source and from its compacted (columnar-at-rest: dictionary-encoded
/// text, `Values` for mixed columns) twin; the paths must agree exactly
/// — values or error message. (The naive chain triangulates on success,
/// as a bag; on error it may legitimately surface a *different* row's
/// error, since it runs stage-major while fused pipelines run row-major
/// — the columnar ≡ row contract is the strict one.)
fn three_way(t: &Relation, steps: &[Step]) {
    let pool = ThreadPool::new(2);
    for source in [t.clone(), t.compact()] {
        let tables = [source.clone()];
        let lifted = [URelation::from_certain(&source)];
        let naive = run_naive(&tables, 0, steps);
        let row = certain_stream(&lifted, 0, steps).collect_opts(&pool, 1, false);
        let col = certain_stream(&lifted, 0, steps).collect_opts(&pool, 1, true);
        match (row, col) {
            (Ok(r), Ok(c)) => {
                assert_eq!(r.tuples(), c.tuples(), "columnar vs row");
                assert_eq!(
                    sorted(&naive.expect("pipelines succeeded")),
                    sorted(&r.into_certain()),
                    "vs naive"
                );
            }
            (Err(re), Err(ce)) => {
                assert_eq!(re.to_string(), ce.to_string(), "columnar vs row error");
                assert!(naive.is_err(), "the naive chain must error too");
            }
            (r, c) => panic!("path divergence: row {r:?} vs columnar {c:?}"),
        }
    }
}

fn one_table(rows: Vec<Vec<Value>>) -> Relation {
    let schema = Arc::new(Schema::from_pairs(&[
        ("a", DataType::Unknown),
        ("b", DataType::Unknown),
    ]));
    Relation::new_unchecked(schema, rows.into_iter().map(Tuple::new).collect())
}

#[test]
fn regression_concat_with_null() {
    let t = one_table(vec![
        vec![Value::str("a"), Value::str("b")],
        vec![Value::str("x"), Value::Null],
        vec![Value::Null, Value::Null],
    ]);
    three_way(
        &t,
        &[Step::Project(vec![ProjectItem::new(
            Expr::col("a").binary(BinaryOp::Concat, Expr::col("b")),
            "ab",
        )])],
    );
    // And as a predicate operand: (a || b) IS NULL.
    three_way(
        &t,
        &[Step::Filter(Expr::IsNull {
            expr: Box::new(Expr::col("a").binary(BinaryOp::Concat, Expr::col("b"))),
            negated: false,
        })],
    );
}

#[test]
fn regression_mod_by_zero() {
    // Integer % 0 errors at row 1 on every path; rows before it flow.
    let modulo = [Step::Project(vec![ProjectItem::new(
        Expr::col("a").binary(BinaryOp::Mod, Expr::col("b")),
        "m",
    )])];
    let t = one_table(vec![
        vec![Value::Int(7), Value::Int(2)],
        vec![Value::Int(7), Value::Int(0)],
    ]);
    three_way(&t, &modulo);
    // Float % 0.0, and the Int % Float(0.0) cross-type case.
    three_way(&one_table(vec![vec![Value::Float(7.5), Value::Float(0.0)]]), &modulo);
    three_way(&one_table(vec![vec![Value::Int(7), Value::Float(0.0)]]), &modulo);
}

#[test]
fn regression_float_int_cross_comparisons() {
    // Mixed Int/Float comparisons — including the > 2^53 zone where the
    // scalar path's f64 widening makes distinct ints compare Equal.
    let big = 1i64 << 60;
    let t = one_table(vec![
        vec![Value::Int(2), Value::Float(2.0)],
        vec![Value::Int(2), Value::Float(2.5)],
        vec![Value::Int(big), Value::Int(big + 1)],
        vec![Value::Null, Value::Float(1.0)],
    ]);
    for op in [BinaryOp::Eq, BinaryOp::NotEq, BinaryOp::Lt, BinaryOp::GtEq] {
        three_way(&t, &[Step::Filter(Expr::col("a").binary(op, Expr::col("b")))]);
    }
}

#[test]
fn regression_mixed_variant_column_concat() {
    // A mixed Int/Float column must render per-variant under || —
    // Int(1) is "1", Float(1.0) is "1.0" — on every path.
    let t = one_table(vec![
        vec![Value::Int(1), Value::str("x")],
        vec![Value::Float(1.0), Value::str("x")],
    ]);
    let steps = [Step::Project(vec![ProjectItem::new(
        Expr::col("a").binary(BinaryOp::Concat, Expr::col("b")),
        "ax",
    )])];
    three_way(&t, &steps);
    let pool = ThreadPool::new(1);
    for source in [t.clone(), t.compact()] {
        let out = certain_stream(&[URelation::from_certain(&source)], 0, &steps)
            .collect_opts(&pool, 1, true)
            .unwrap();
        assert_eq!(out.tuples()[0].data.value(0), &Value::str("1x"));
        assert_eq!(out.tuples()[1].data.value(0), &Value::str("1.0x"));
    }
}

#[test]
fn regression_division_error_vs_filter_order() {
    // Row 0 passes the filter and then divides by zero in the project;
    // row 1 would error in the filter — row-major order means the
    // project's row-0 error must win on every path.
    let t = one_table(vec![
        vec![Value::Int(1), Value::Int(0)],
        vec![Value::str("s"), Value::Int(1)],
    ]);
    three_way(
        &t,
        &[
            Step::Filter(Expr::col("a").binary(BinaryOp::LtEq, Expr::lit(5i64))),
            Step::Project(vec![ProjectItem::new(
                Expr::lit(1i64).binary(BinaryOp::Div, Expr::col("b")),
                "q",
            )]),
        ],
    );
}

#[test]
fn regression_fold_keeps_error_beside_constant_false() {
    // `(1/0 = 1) AND false`: the scalar evaluator always runs the left
    // side, so bind-time folding must not rewrite the predicate to
    // `false` — the pipelined paths must error exactly like the
    // materialising one.
    let t = one_table(vec![vec![Value::Int(1), Value::Int(2)]]);
    let boom =
        Expr::lit(1i64).binary(BinaryOp::Div, Expr::lit(0i64)).eq(Expr::lit(1i64));
    let pred = boom.clone().and(Expr::lit(false));
    assert!(ops::filter(&t, &pred).is_err(), "materialising path errors");
    three_way(&t, &[Step::Filter(pred)]);
    // Mirrored: `false AND (1/0 = 1)` short-circuits — no error, empty.
    let pred = Expr::lit(false).and(boom);
    assert_eq!(ops::filter(&t, &pred).unwrap().len(), 0);
    three_way(&t, &[Step::Filter(pred)]);
}

#[test]
fn explain_marks_vectorised_stages() {
    let u = URelation::from_certain(&one_table(vec![vec![Value::Int(1), Value::Int(2)]]));
    let text = UStream::new(u.clone())
        .filter(&Expr::col("a").binary(BinaryOp::Gt, Expr::lit(1i64)))
        .unwrap()
        .project(&[ProjectItem::new(Expr::col("a").binary(BinaryOp::Add, Expr::col("b")), "s")])
        .unwrap()
        .describe();
    assert!(text.contains("-> filter (#0 > 1) (vectorised)"), "{text}");
    assert!(text.contains("-> project [(#0 + #1)] (vectorised)"), "{text}");
    // CASE stays scalar — and says so by not being marked.
    let text = UStream::new(u)
        .filter(&Expr::Case {
            branches: vec![(Expr::col("a").binary(BinaryOp::Gt, Expr::lit(0i64)), Expr::lit(true))],
            else_expr: Some(Box::new(Expr::lit(false))),
        })
        .unwrap()
        .describe();
    assert!(!text.contains("(vectorised)"), "{text}");
}

#[test]
fn ustream_constant_filters_fold_at_bind() {
    let u = URelation::new(
        schema3(),
        vec![UTuple::new(
            Tuple::new(vec![Value::Int(1), Value::Int(2), Value::str("a")]),
            Wsd::tautology(),
        )],
    );
    // σ_true records no stage.
    let s = UStream::new(u.clone()).filter(&Expr::lit(true)).unwrap();
    assert_eq!(s.stage_count(), 0);
    // σ_false empties the stream outright (infallible prior stages).
    let s = UStream::new(u.clone())
        .filter(&Expr::lit(1i64).eq(Expr::lit(2i64)))
        .unwrap();
    assert_eq!(s.stage_count(), 0);
    assert_eq!(s.collect().unwrap().len(), 0);
    // …but a fallible stage before it must keep raising its error.
    let boom = [ProjectItem::new(
        Expr::lit(1i64).binary(BinaryOp::Div, Expr::lit(0i64)),
        "boom",
    )];
    let s = UStream::new(u)
        .project(&boom)
        .unwrap()
        .filter(&Expr::lit(false))
        .unwrap();
    assert!(s.collect().is_err(), "σ_false must not swallow the projection error");
}
