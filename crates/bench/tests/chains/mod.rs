//! Random certain σ/π/⋈ chains shared by `pipe_equiv` and `vec_equiv`:
//! two all-numeric tables, the chain's stages, and the two ways to run
//! it — one fused `UStream`, and the seed-faithful naive operators (the
//! bag oracle).

use std::sync::Arc;

use maybms_bench::naive;
use maybms_engine::ops::ProjectItem;
use maybms_engine::{DataType, Expr, Relation, Schema, Tuple, Value};
use maybms_pipe::UStream;
use maybms_urel::URelation;
use proptest::prelude::*;

use crate::gen::arb_num;

/// Mixed numeric-or-NULL cells for the U-relational chains.
pub fn arb_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0i64..4).prop_map(Value::Int),
        (0i64..6).prop_map(|i| Value::Float(i as f64 / 2.0)),
    ]
}

/// Two all-numeric tables: `t0` (3 columns) and `t1` (2 columns).
pub fn arb_tables() -> impl Strategy<Value = [Relation; 2]> {
    (
        prop::collection::vec((arb_num(), arb_num(), arb_num()), 0..20),
        prop::collection::vec((arb_num(), arb_num()), 0..8),
    )
        .prop_map(|(rows0, rows1)| {
            let s0 = Arc::new(Schema::from_pairs(&[
                ("a", DataType::Unknown),
                ("b", DataType::Unknown),
                ("c", DataType::Unknown),
            ]));
            let s1 = Arc::new(Schema::from_pairs(&[
                ("d", DataType::Unknown),
                ("e", DataType::Unknown),
            ]));
            [
                Relation::new_unchecked(
                    s0,
                    rows0.into_iter().map(|(a, b, x)| Tuple::new(vec![a, b, x])).collect(),
                ),
                Relation::new_unchecked(
                    s1,
                    rows1.into_iter().map(|(d, e)| Tuple::new(vec![d, e])).collect(),
                ),
            ]
        })
}

/// One stage of a certain σ/π/⋈ chain.
pub enum Step {
    Filter(Expr),
    Project(Vec<ProjectItem>),
    /// Hash join against `tables[table]` (the chain is the probe side).
    Join { table: usize, left_key: usize, right_key: usize },
}

/// The chain as one fused `UStream` over certain U-relations (`lifted`
/// are the tables already lifted by `URelation::from_certain`).
pub fn certain_stream(lifted: &[URelation], source: usize, steps: &[Step]) -> UStream {
    let mut s = UStream::new(lifted[source].clone());
    for step in steps {
        s = match step {
            Step::Filter(p) => s.filter(p),
            Step::Project(items) => s.project(items),
            Step::Join { table, left_key, right_key } => {
                s.hash_join(lifted[*table].clone(), &[*left_key], &[*right_key])
            }
        }
        .unwrap();
    }
    s
}

/// The chain through the seed-faithful naive operators (stage-major;
/// its joins build on the smaller side, so compare as a bag).
pub fn run_naive(
    tables: &[Relation],
    source: usize,
    steps: &[Step],
) -> maybms_engine::Result<Relation> {
    let mut r = tables[source].clone();
    for step in steps {
        r = match step {
            Step::Filter(p) => naive::filter(&r, p)?,
            Step::Project(items) => naive::project(&r, items)?,
            Step::Join { table, left_key, right_key } => {
                naive::hash_join(&r, &tables[*table], &[*left_key], &[*right_key])?
            }
        };
    }
    Ok(r)
}

/// A relation's rows as a sorted bag.
pub fn sorted(r: &Relation) -> Vec<Tuple> {
    let mut t = r.tuples().to_vec();
    t.sort();
    t
}
