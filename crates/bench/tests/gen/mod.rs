//! Generators shared by the bench equivalence suites: numeric-or-NULL
//! cells, and U-relations over `(k, v, s)` whose WSDs mention three
//! shared variables — so self-joins hit conflicting (unsatisfiable)
//! assignments that every join must drop.

use std::sync::Arc;

use maybms_engine::{DataType, Schema, Tuple, Value};
use maybms_urel::{Assignment, URelation, UTuple, Var, WorldTable, Wsd};
use proptest::prelude::*;

/// Numeric-or-NULL values: usable as join keys and in comparison
/// predicates, with cross-type Int/Float duplicates (1 == 1.0).
pub fn arb_num() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0i64..5).prop_map(Value::Int),
        (0i64..8).prop_map(|i| Value::Float(i as f64 / 2.0)),
    ]
}

/// Text payload (exercises `Arc<str>` sharing through the operators).
pub fn arb_text() -> impl Strategy<Value = Value> {
    prop::sample::select(vec!["a", "b", "c"]).prop_map(Value::str)
}

/// `(k, v, s)`: two untyped columns and a text payload.
pub fn schema3() -> Arc<Schema> {
    Arc::new(Schema::from_pairs(&[
        ("k", DataType::Unknown),
        ("v", DataType::Unknown),
        ("s", DataType::Text),
    ]))
}

/// A world table with three small variables plus a U-relation over
/// [`schema3`] — up to `max_rows` rows of `cell` values — whose WSDs
/// mention them.
pub fn arb_urelation<S: Strategy<Value = Value>>(
    cell: fn() -> S,
    max_rows: usize,
) -> impl Strategy<Value = (WorldTable, URelation)> {
    (
        prop::collection::vec((cell(), cell(), arb_text()), 0..max_rows),
        prop::collection::vec(prop::collection::vec((0u32..3, 0u16..2), 0..3), 0..max_rows),
    )
        .prop_map(|(rows, raw_wsds)| {
            let mut wt = WorldTable::new();
            for _ in 0..3 {
                wt.new_var(&[0.5, 0.5]).unwrap();
            }
            let tuples = rows
                .into_iter()
                .zip(raw_wsds.into_iter().chain(std::iter::repeat(Vec::new())))
                .map(|((k, v, s), raw)| {
                    let wsd = Wsd::from_assignments(
                        raw.into_iter().map(|(v, a)| Assignment::new(Var(v), a)).collect(),
                    )
                    .unwrap_or_else(Wsd::tautology);
                    UTuple::new(Tuple::new(vec![k, v, s]), wsd)
                })
                .collect();
            (wt, URelation::new(schema3(), tuples))
        })
}
