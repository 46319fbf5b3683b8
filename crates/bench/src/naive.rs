//! Seed-faithful "naive" operator implementations, kept as the measured
//! *before* of the zero-clone execution core (`exp_baseline`) and as the
//! oracle for the operator-equivalence property tests.
//!
//! Each function reproduces the pre-refactor algorithm exactly as the seed
//! engine ran it:
//!
//! * tuples are **deep-copied** at every operator boundary (the seed's
//!   `Box<[Value]>`-backed rows made every clone an allocation plus a
//!   value-by-value copy);
//! * `distinct` clones every surviving tuple twice (once into the seen-set
//!   and once into the output);
//! * hash joins key their build table with an owned `Vec<Value>` cloned
//!   from the key columns of every build *and* probe row.
//!
//! They are correct, just allocation-heavy — exactly what `exp_baseline`
//! measures the optimized operators against.

use std::collections::{HashMap, HashSet};

use maybms_engine::{ops, EngineError, Expr, Relation, Tuple, Value};
use maybms_urel::{URelation, UTuple};

/// Deep copy of a row: allocates and copies every value (the seed's clone
/// semantics, bypassing today's `Arc` sharing).
pub fn deep_clone(t: &Tuple) -> Tuple {
    Tuple::new(t.values().to_vec())
}

/// Deep copy of an uncertain row (data values and WSD assignment list).
pub fn deep_clone_u(t: &UTuple) -> UTuple {
    let wsd = maybms_urel::Wsd::from_assignments(t.wsd.assignments().to_vec())
        .expect("existing WSD is satisfiable");
    UTuple::new(deep_clone(&t.data), wsd)
}

/// Seed `filter`: clone every surviving tuple.
pub fn filter(input: &Relation, predicate: &Expr) -> Result<Relation, EngineError> {
    let bound = predicate.bind(input.schema())?;
    let mut out = Vec::new();
    for t in input.tuples() {
        if bound.eval_predicate(t)? {
            out.push(deep_clone(t));
        }
    }
    Ok(Relation::new_unchecked(input.schema().clone(), out))
}

/// Seed π: evaluate the items per row into a fresh per-row allocation
/// (one `Vec` + one buffer per output row — the seed's cost model,
/// bypassing today's batched shared buffers).
pub fn project(
    input: &Relation,
    items: &[ops::ProjectItem],
) -> Result<Relation, EngineError> {
    let in_schema = input.schema();
    let bound: Vec<(Expr, maybms_engine::Field)> = items
        .iter()
        .map(|item| {
            let e = item.expr.bind(in_schema)?;
            let dtype = e.data_type(in_schema);
            Ok((e, maybms_engine::Field::new(item.name.clone(), dtype)))
        })
        .collect::<Result<_, EngineError>>()?;
    let schema = std::sync::Arc::new(maybms_engine::Schema::new(
        bound.iter().map(|(_, f)| f.clone()).collect(),
    ));
    let mut out = Vec::with_capacity(input.len());
    for t in input.tuples() {
        let vals: Vec<Value> = bound
            .iter()
            .map(|(e, _)| e.eval(t))
            .collect::<Result<_, EngineError>>()?;
        out.push(Tuple::new(vals));
    }
    Ok(Relation::new_unchecked(schema, out))
}

/// Seed `distinct`: the double clone (seen-set + output).
pub fn distinct(input: &Relation) -> Relation {
    let mut seen = HashSet::with_capacity(input.len());
    let mut out = Vec::new();
    for t in input.tuples() {
        if seen.insert(deep_clone(t)) {
            out.push(deep_clone(t));
        }
    }
    Relation::new_unchecked(input.schema().clone(), out)
}

/// Seed `sort`: decorate, sort, clone each tuple into place.
pub fn sort(input: &Relation, keys: &[ops::SortKey]) -> Result<Relation, EngineError> {
    let bound: Vec<(Expr, bool)> = keys
        .iter()
        .map(|k| Ok((k.expr.bind(input.schema())?, k.ascending)))
        .collect::<Result<_, EngineError>>()?;
    let mut decorated: Vec<(Vec<Value>, usize)> = Vec::with_capacity(input.len());
    for (i, t) in input.tuples().iter().enumerate() {
        let kv: Vec<Value> = bound
            .iter()
            .map(|(e, _)| e.eval(t))
            .collect::<Result<_, EngineError>>()?;
        decorated.push((kv, i));
    }
    decorated.sort_by(|(ka, ia), (kb, ib)| {
        for ((a, b), (_, asc)) in ka.iter().zip(kb).zip(&bound) {
            let ord = a.cmp(b);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        ia.cmp(ib)
    });
    let tuples = decorated
        .into_iter()
        .map(|(_, i)| deep_clone(&input.tuples()[i]))
        .collect();
    Ok(Relation::new_unchecked(input.schema().clone(), tuples))
}

/// The seed's key extractor: an owned `Vec<Value>` per row, `None` on any
/// NULL key.
fn key_of(values: &[Value], keys: &[usize]) -> Option<Vec<Value>> {
    let mut k = Vec::with_capacity(keys.len());
    for &i in keys {
        let v = &values[i];
        if v.is_null() {
            return None;
        }
        k.push(v.clone());
    }
    Some(k)
}

/// Seed `hash_join` over certain relations: `Vec<Value>`-keyed build
/// table, build on the smaller side.
pub fn hash_join(
    left: &Relation,
    right: &Relation,
    left_keys: &[usize],
    right_keys: &[usize],
) -> Result<Relation, EngineError> {
    let schema = std::sync::Arc::new(left.schema().join(right.schema()));
    let (build, probe, build_keys, probe_keys, build_is_left) = if left.len() <= right.len() {
        (left, right, left_keys, right_keys, true)
    } else {
        (right, left, right_keys, left_keys, false)
    };
    let mut table: HashMap<Vec<Value>, Vec<&Tuple>> = HashMap::with_capacity(build.len());
    for t in build.tuples() {
        if let Some(k) = key_of(t.values(), build_keys) {
            table.entry(k).or_default().push(t);
        }
    }
    let mut out = Vec::new();
    for p in probe.tuples() {
        let Some(k) = key_of(p.values(), probe_keys) else { continue };
        if let Some(matches) = table.get(&k) {
            for b in matches {
                out.push(if build_is_left { b.concat(p) } else { p.concat(b) });
            }
        }
    }
    Ok(Relation::new_unchecked(schema, out))
}

/// Seed U-relational σ: clone every surviving `UTuple` (data + WSD).
pub fn select_u(input: &URelation, predicate: &Expr) -> maybms_urel::Result<URelation> {
    let bound = predicate.bind(input.schema())?;
    let mut out = Vec::new();
    for t in input.tuples() {
        if bound.eval_predicate(&t.data)? {
            out.push(deep_clone_u(t));
        }
    }
    Ok(URelation::new(input.schema().clone(), out))
}

/// Seed U-relational π: one fresh `Vec` per output row plus a deep WSD
/// clone (the seed's cost model).
pub fn project_u(
    input: &URelation,
    items: &[ops::ProjectItem],
) -> maybms_urel::Result<URelation> {
    let in_schema = input.schema();
    let bound: Vec<(Expr, maybms_engine::Field)> = items
        .iter()
        .map(|item| {
            let e = item.expr.bind(in_schema)?;
            let dtype = e.data_type(in_schema);
            Ok((e, maybms_engine::Field::new(item.name.clone(), dtype)))
        })
        .collect::<Result<_, EngineError>>()?;
    let schema = std::sync::Arc::new(maybms_engine::Schema::new(
        bound.iter().map(|(_, f)| f.clone()).collect(),
    ));
    let mut out = Vec::with_capacity(input.len());
    for t in input.tuples() {
        let vals: Vec<Value> = bound
            .iter()
            .map(|(e, _)| e.eval(&t.data))
            .collect::<Result<_, EngineError>>()?;
        let wsd = maybms_urel::Wsd::from_assignments(t.wsd.assignments().to_vec())
            .expect("existing WSD is satisfiable");
        out.push(UTuple::new(Tuple::new(vals), wsd));
    }
    Ok(URelation::new(schema, out))
}

/// Seed U-relational hash ⋈: `Vec<Value>` keys, WSD conjunction per
/// surviving pair.
pub fn hash_join_u(
    left: &URelation,
    right: &URelation,
    left_keys: &[usize],
    right_keys: &[usize],
) -> maybms_urel::Result<URelation> {
    let schema = std::sync::Arc::new(left.schema().join(right.schema()));
    let mut table: HashMap<Vec<Value>, Vec<&UTuple>> = HashMap::with_capacity(left.len());
    for t in left.tuples() {
        if let Some(k) = key_of(t.data.values(), left_keys) {
            table.entry(k).or_default().push(t);
        }
    }
    let mut out = Vec::new();
    for r in right.tuples() {
        let Some(k) = key_of(r.data.values(), right_keys) else { continue };
        if let Some(matches) = table.get(&k) {
            for l in matches {
                if let Some(wsd) = l.wsd.conjoin(&r.wsd) {
                    // The seed conjoin heap-allocated a fresh
                    // `Vec<Assignment>` per output row; reconstruct the
                    // WSD through the Vec path to reproduce that cost.
                    let wsd = maybms_urel::Wsd::from_assignments(
                        wsd.assignments().to_vec(),
                    )
                    .expect("conjoined WSD is satisfiable");
                    out.push(UTuple::new(l.data.concat(&r.data), wsd));
                }
            }
        }
    }
    Ok(URelation::new(schema, out))
}

/// Seed nested-loop ⋈ over U-relations (predicate oracle for the property
/// tests: every hashed equi-join must agree with it as a bag).
pub fn nested_loop_join_u(
    left: &URelation,
    right: &URelation,
    predicate: Option<&Expr>,
) -> maybms_urel::Result<URelation> {
    let schema = std::sync::Arc::new(left.schema().join(right.schema()));
    let bound = predicate.map(|p| p.bind(&schema)).transpose()?;
    let mut out = Vec::new();
    for l in left.tuples() {
        for r in right.tuples() {
            let Some(wsd) = l.wsd.conjoin(&r.wsd) else { continue };
            let data = l.data.concat(&r.data);
            if let Some(p) = &bound {
                if !p.eval_predicate(&data)? {
                    continue;
                }
            }
            out.push(UTuple::new(data, wsd));
        }
    }
    Ok(URelation::new(schema, out))
}

/// Seed grouped aggregation: SipHash `Vec<Value>`-keyed grouping with one
/// owned key per row, then a **second pass** per (group, aggregate) that
/// re-scans the group's index list and collects the argument values into
/// a fresh `Vec` before reducing — the pre-AggState shape whose
/// full-input materialisation and per-group rescans `exp_baseline`
/// measures the streaming breaker against.
pub fn aggregate(
    input: &Relation,
    group_exprs: &[Expr],
    group_names: &[String],
    aggs: &[ops::AggCall],
) -> Result<Relation, EngineError> {
    let in_schema = input.schema();
    let bound_keys: Vec<Expr> = group_exprs
        .iter()
        .map(|e| e.bind(in_schema))
        .collect::<Result<_, EngineError>>()?;
    let bound_aggs: Vec<(ops::AggFunc, Option<Expr>)> = aggs
        .iter()
        .map(|a| Ok((a.func, a.arg.as_ref().map(|e| e.bind(in_schema)).transpose()?)))
        .collect::<Result<_, EngineError>>()?;
    let schema = ops::aggregate_schema(in_schema, group_exprs, group_names, aggs)?;

    // Pass 1: group by owned keys.
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
    if bound_keys.is_empty() {
        groups.push((Vec::new(), (0..input.len()).collect()));
    } else {
        for (i, t) in input.tuples().iter().enumerate() {
            let key: Vec<Value> = bound_keys
                .iter()
                .map(|e| e.eval(t))
                .collect::<Result<_, EngineError>>()?;
            match index.get(&key) {
                Some(&g) => groups[g].1.push(i),
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push((key, vec![i]));
                }
            }
        }
    }

    // Pass 2: per (group, aggregate), re-scan the index list.
    let mut out = Vec::with_capacity(groups.len());
    for (key, indices) in groups {
        let mut row = key;
        for (func, arg) in &bound_aggs {
            let values = |a: &Expr| -> Result<Vec<Value>, EngineError> {
                let mut vs = Vec::with_capacity(indices.len());
                for &i in &indices {
                    let v = a.eval(&input.tuples()[i])?;
                    if !v.is_null() {
                        vs.push(v);
                    }
                }
                Ok(vs)
            };
            let v = match (func, arg) {
                (ops::AggFunc::Count, None) => Value::Int(indices.len() as i64),
                (ops::AggFunc::Count, Some(a)) => Value::Int(values(a)?.len() as i64),
                (f, Some(a)) => {
                    let vs = values(a)?;
                    match f {
                        ops::AggFunc::Sum | ops::AggFunc::Avg => {
                            if vs.is_empty() {
                                Value::Null
                            } else {
                                let mut fsum = 0.0f64;
                                let mut isum = 0i64;
                                let mut all_int = true;
                                for v in &vs {
                                    match v {
                                        Value::Int(i) => {
                                            isum = isum.wrapping_add(*i);
                                            fsum += *i as f64;
                                        }
                                        Value::Float(x) => {
                                            all_int = false;
                                            fsum += x;
                                        }
                                        other => {
                                            return Err(EngineError::TypeMismatch {
                                                message: format!(
                                                    "{}() applied to {}",
                                                    f.name(),
                                                    other.data_type()
                                                ),
                                            })
                                        }
                                    }
                                }
                                match f {
                                    ops::AggFunc::Sum if all_int => Value::Int(isum),
                                    ops::AggFunc::Sum => Value::Float(fsum),
                                    _ => Value::Float(fsum / vs.len() as f64),
                                }
                            }
                        }
                        ops::AggFunc::Min => vs.into_iter().min().unwrap_or(Value::Null),
                        ops::AggFunc::Max => vs.into_iter().max().unwrap_or(Value::Null),
                        ops::AggFunc::Count => unreachable!(),
                    }
                }
                (f, None) => {
                    return Err(EngineError::InvalidOperator {
                        message: format!("{}() requires an argument", f.name()),
                    })
                }
            };
            row.push(v);
        }
        out.push(Tuple::new(row));
    }
    Ok(Relation::new_unchecked(schema, out))
}

/// Seed U-relational grouping: one owned `Vec<Value>` key per row into a
/// SipHash map (`exp_baseline`'s *before* for the grouped-`conf()`
/// workload; aggregate evaluation is shared so the delta isolates
/// grouping + materialisation).
#[allow(clippy::type_complexity)]
pub fn group_u(
    u: &URelation,
    key_exprs: &[Expr],
) -> maybms_urel::Result<(Vec<Vec<Value>>, Vec<Vec<usize>>)> {
    if key_exprs.is_empty() {
        return Ok((vec![Vec::new()], vec![(0..u.len()).collect()]));
    }
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut keys: Vec<Vec<Value>> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (i, t) in u.tuples().iter().enumerate() {
        let key: Vec<Value> = key_exprs
            .iter()
            .map(|e| e.eval(&t.data))
            .collect::<Result<_, EngineError>>()?;
        match index.get(&key) {
            Some(&g) => members[g].push(i),
            None => {
                index.insert(key.clone(), keys.len());
                keys.push(key);
                members.push(vec![i]);
            }
        }
    }
    Ok((keys, members))
}

/// Seed `repair key`: SipHash `Vec<Value>`-keyed grouping, deep-cloned
/// output rows, and per-row heap-allocated WSD construction.
pub fn repair_key(
    input: &Relation,
    key_exprs: &[Expr],
    options: &maybms_urel::repair::RepairKeyOptions,
    wt: &mut maybms_urel::WorldTable,
) -> maybms_urel::Result<URelation> {
    use maybms_urel::{Assignment, UrelError, Wsd};
    let weights: Vec<f64> = match &options.weight {
        None => vec![1.0; input.len()],
        Some(w) => {
            let bound = w.bind(input.schema())?;
            let mut ws = Vec::with_capacity(input.len());
            for t in input.tuples() {
                let v = bound.eval(t)?;
                let x = v.as_f64().ok_or_else(|| UrelError::BadWeight {
                    message: format!("weight expression produced non-numeric value {v}"),
                })?;
                if !x.is_finite() || x < 0.0 {
                    return Err(UrelError::BadWeight {
                        message: format!("weight {x} is negative or not finite"),
                    });
                }
                ws.push(x);
            }
            ws
        }
    };
    // Seed grouping: one owned Vec<Value> key per row into a SipHash map.
    let bound: Vec<Expr> = key_exprs
        .iter()
        .map(|e| e.bind(input.schema()))
        .collect::<Result<_, EngineError>>()?;
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, t) in input.tuples().iter().enumerate() {
        let key: Vec<Value> = bound
            .iter()
            .map(|e| e.eval(t))
            .collect::<Result<_, EngineError>>()?;
        match index.get(&key) {
            Some(&g) => groups[g].push(i),
            None => {
                index.insert(key, groups.len());
                groups.push(vec![i]);
            }
        }
    }
    let mut out = Vec::with_capacity(input.len());
    for indices in groups {
        let alive: Vec<usize> =
            indices.iter().copied().filter(|&i| weights[i] > 0.0).collect();
        if alive.is_empty() {
            return Err(UrelError::BadWeight {
                message: "all weights in a repair-key group are zero".into(),
            });
        }
        if alive.len() == 1 {
            out.push(UTuple::certain(deep_clone(&input.tuples()[alive[0]])));
            continue;
        }
        let total: f64 = alive.iter().map(|&i| weights[i]).sum();
        let probs: Vec<f64> = alive.iter().map(|&i| weights[i] / total).collect();
        let var = wt.new_var(&probs)?;
        for (alt, &i) in alive.iter().enumerate() {
            let wsd = Wsd::from_assignments(vec![Assignment::new(var, alt as u16)])
                .expect("single assignment is satisfiable");
            out.push(UTuple::new(deep_clone(&input.tuples()[i]), wsd));
        }
    }
    Ok(URelation::new(input.schema().clone(), out))
}

/// Seed `pick tuples`: deep-cloned rows and heap-built single-assignment
/// WSDs.
pub fn pick_tuples(
    input: &Relation,
    options: &maybms_urel::pick::PickTuplesOptions,
    wt: &mut maybms_urel::WorldTable,
) -> maybms_urel::Result<URelation> {
    use maybms_urel::{Assignment, UrelError, Wsd};
    let bound =
        options.probability.as_ref().map(|e| e.bind(input.schema())).transpose()?;
    let mut out = Vec::with_capacity(input.len());
    for t in input.tuples() {
        let p = match &bound {
            None => 0.5,
            Some(e) => {
                let v = e.eval(t)?;
                v.as_f64().ok_or_else(|| UrelError::BadProbability {
                    message: format!("probability expression produced non-numeric value {v}"),
                })?
            }
        };
        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
            return Err(UrelError::BadProbability {
                message: format!("tuple probability {p} outside [0, 1]"),
            });
        }
        if p == 0.0 {
            continue;
        }
        if p == 1.0 {
            out.push(UTuple::certain(deep_clone(t)));
            continue;
        }
        let var = wt.new_var(&[1.0 - p, p])?;
        let wsd = Wsd::from_assignments(vec![Assignment::new(var, 1)])
            .expect("single assignment is satisfiable");
        out.push(UTuple::new(deep_clone(t), wsd));
    }
    Ok(URelation::new(input.schema().clone(), out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_engine::{rel, BinaryOp, DataType};

    #[test]
    fn naive_ops_agree_with_engine_ops() {
        let r = rel(
            &[("k", DataType::Int), ("v", DataType::Int)],
            vec![
                vec![1.into(), 10.into()],
                vec![2.into(), 20.into()],
                vec![1.into(), 10.into()],
                vec![Value::Null, 5.into()],
            ],
        );
        let pred = Expr::col("v").binary(BinaryOp::Gt, Expr::lit(5i64));
        assert_eq!(
            filter(&r, &pred).unwrap().tuples(),
            ops::filter(&r, &pred).unwrap().tuples()
        );
        assert_eq!(distinct(&r).tuples(), ops::distinct(&r).tuples());
        // Joins run only as fused UStream probes.
        let u = URelation::from_certain(&r);
        let joined = maybms_pipe::UStream::new(u.clone()).hash_join(u, &[0], &[0]).unwrap();
        let mut a = hash_join(&r, &r, &[0], &[0]).unwrap().into_tuples();
        let mut b = joined.collect().unwrap().into_certain().into_tuples();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
