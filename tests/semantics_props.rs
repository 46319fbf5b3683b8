//! End-to-end property tests: full SQL pipelines (parser → planner →
//! executor → confidence engines) against brute-force possible-worlds
//! enumeration on randomly generated databases.

use std::collections::HashMap;

use maybms::MayBms;
use maybms_engine::{rel, DataType, Relation, Value};
use proptest::prelude::*;

/// Rows for a `(g, v, p)` table with probabilities in {0.1, …, 0.9}.
fn arb_rows() -> impl Strategy<Value = Vec<(i64, i64, u32)>> {
    prop::collection::vec((0i64..3, 0i64..5, 1u32..10), 1..8)
}

fn load(rows: &[(i64, i64, u32)]) -> MayBms {
    let mut db = MayBms::new();
    db.register(
        "t",
        rel(
            &[("g", DataType::Int), ("v", DataType::Int), ("p", DataType::Float)],
            rows.iter()
                .map(|&(g, v, p)| {
                    vec![Value::Int(g), Value::Int(v), Value::Float(f64::from(p) / 10.0)]
                })
                .collect(),
        ),
    )
    .unwrap();
    db
}

/// [`load`] plus `picked`: each row of `t` kept independently with
/// probability `p`.
fn load_picked(rows: &[(i64, i64, u32)]) -> MayBms {
    let mut db = load(rows);
    db.run(
        "create table picked as
         select * from (pick tuples from t independently with probability p) x",
    )
    .unwrap();
    db
}

/// `(key, conf)` output rows == the enumerated per-key probabilities.
fn check_conf(out: &Relation, truth: &HashMap<i64, f64>) -> Result<(), TestCaseError> {
    prop_assert_eq!(out.len(), truth.len());
    for t in out.tuples() {
        let (k, p) = (t.value(0).as_int().unwrap(), t.value(1).as_f64().unwrap());
        prop_assert!((p - truth[&k]).abs() < 1e-9, "key={} p={} truth={}", k, p, truth[&k]);
    }
    Ok(())
}

/// Rows for a `(k, p)` table with probabilities in {0.1, …, 0.9}.
fn arb_pair_rows() -> impl Strategy<Value = Vec<(i64, u32)>> {
    prop::collection::vec((0i64..3, 1u32..10), 1..5)
}

/// Tuple-independent tables `pa` and `pb`, picked from `(k, p)` rows.
fn load_pair(rows_a: &[(i64, u32)], rows_b: &[(i64, u32)]) -> MayBms {
    let mut db = MayBms::new();
    for (name, rows) in [("a", rows_a), ("b", rows_b)] {
        let r = rel(
            &[("k", DataType::Int), ("p", DataType::Float)],
            rows.iter()
                .map(|&(k, p)| vec![Value::Int(k), Value::Float(f64::from(p) / 10.0)])
                .collect(),
        );
        db.register(name, r).unwrap();
        db.run(&format!(
            "create table p{name} as select * from \
             (pick tuples from {name} independently with probability p) x"
        ))
        .unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// conf() per group over a picked subset == brute-force world sums.
    #[test]
    fn sql_conf_equals_enumeration(rows in arb_rows()) {
        let mut db = load_picked(&rows);
        let out = db
            .query("select g, conf() as c from picked group by g")
            .unwrap();
        let u = db.table("picked").unwrap().clone();
        let wt = db.world_table();
        let mut truth: HashMap<i64, f64> = Default::default();
        for (world, wp) in wt.enumerate_worlds(1 << 16).unwrap() {
            let inst = u.instantiate(&world);
            let mut seen = std::collections::HashSet::new();
            for t in inst.tuples() {
                if seen.insert(t.value(0).as_int().unwrap()) {
                    *truth.entry(t.value(0).as_int().unwrap()).or_insert(0.0) += wp;
                }
            }
        }
        check_conf(&out, &truth)?;
    }

    /// esum()/ecount() == brute-force expectations.
    #[test]
    fn sql_expectations_equal_enumeration(rows in arb_rows()) {
        let mut db = load_picked(&rows);
        let out = db.query("select esum(v) as es, ecount() as ec from picked").unwrap();
        let es = out.tuples()[0].value(0).as_f64().unwrap();
        let ec = out.tuples()[0].value(1).as_f64().unwrap();
        let u = db.table("picked").unwrap().clone();
        let wt = db.world_table();
        let mut es_truth = 0.0;
        let mut ec_truth = 0.0;
        for (world, wp) in wt.enumerate_worlds(1 << 16).unwrap() {
            let inst = u.instantiate(&world);
            ec_truth += wp * inst.len() as f64;
            es_truth += wp
                * inst
                    .tuples()
                    .iter()
                    .map(|t| t.value(1).as_f64().unwrap())
                    .sum::<f64>();
        }
        prop_assert!((es - es_truth).abs() < 1e-9, "esum {} vs {}", es, es_truth);
        prop_assert!((ec - ec_truth).abs() < 1e-9, "ecount {} vs {}", ec, ec_truth);
    }

    /// repair-key marginals through full SQL == brute force.
    #[test]
    fn sql_repair_key_marginals(rows in arb_rows()) {
        let mut db = load(&rows);
        db.run(
            "create table repaired as
             select * from (repair key g in t weight by p) x",
        ).unwrap();
        let out = db
            .query("select g, v, conf() as c from repaired group by g, v")
            .unwrap();
        let u = db.table("repaired").unwrap().clone();
        let wt = db.world_table();
        let mut truth: HashMap<(i64, i64), f64> = Default::default();
        for (world, wp) in wt.enumerate_worlds(1 << 16).unwrap() {
            let inst = u.instantiate(&world);
            let mut seen = std::collections::HashSet::new();
            for t in inst.tuples() {
                let key = (t.value(0).as_int().unwrap(), t.value(1).as_int().unwrap());
                if seen.insert(key) {
                    *truth.entry(key).or_insert(0.0) += wp;
                }
            }
        }
        for t in out.tuples() {
            let key = (t.value(0).as_int().unwrap(), t.value(1).as_int().unwrap());
            let p = t.value(2).as_f64().unwrap();
            prop_assert!((p - truth[&key]).abs() < 1e-9,
                "key={:?} p={} truth={}", key, p, truth[&key]);
        }
    }

    /// A join of two independent picked tables: conf() == enumeration.
    #[test]
    fn sql_join_conf_equals_enumeration(
        rows_a in arb_pair_rows(),
        rows_b in arb_pair_rows(),
    ) {
        let mut db = load_pair(&rows_a, &rows_b);
        let out = db
            .query(
                "select pa.k, conf() as c from pa, pb where pa.k = pb.k group by pa.k",
            )
            .unwrap();
        let ua = db.table("pa").unwrap().clone();
        let ub = db.table("pb").unwrap().clone();
        let wt = db.world_table();
        let mut truth: HashMap<i64, f64> = Default::default();
        for (world, wp) in wt.enumerate_worlds(1 << 16).unwrap() {
            let ia = ua.instantiate(&world);
            let ib = ub.instantiate(&world);
            let keys_b: std::collections::HashSet<i64> =
                ib.tuples().iter().map(|t| t.value(0).as_int().unwrap()).collect();
            let mut seen = std::collections::HashSet::new();
            for t in ia.tuples() {
                let k = t.value(0).as_int().unwrap();
                if keys_b.contains(&k) && seen.insert(k) {
                    *truth.entry(k).or_insert(0.0) += wp;
                }
            }
        }
        check_conf(&out, &truth)?;
    }

    /// `JOIN … ON` (equi and θ) == the comma form == enumeration.
    #[test]
    fn sql_join_on_equals_comma_form_and_enumeration(
        rows_a in arb_pair_rows(),
        rows_b in arb_pair_rows(),
    ) {
        let mut db = load_pair(&rows_a, &rows_b);
        let ua = db.table("pa").unwrap().clone();
        let ub = db.table("pb").unwrap().clone();
        for (op, holds) in [("=", (|a, b| a == b) as fn(i64, i64) -> bool), ("<", |a, b| a < b)] {
            let join_on = db
                .query(&format!(
                    "select pa.k, conf() as c from pa join pb on pa.k {op} pb.k group by pa.k"
                ))
                .unwrap();
            let comma = db
                .query(&format!(
                    "select pa.k, conf() as c from pa, pb where pa.k {op} pb.k group by pa.k"
                ))
                .unwrap();
            prop_assert_eq!(join_on.tuples(), comma.tuples(), "op {}", op);
            let star_on = db
                .query_uncertain(&format!("select * from pa join pb on pa.k {op} pb.k"))
                .unwrap();
            let star_comma = db
                .query_uncertain(&format!("select * from pa, pb where pa.k {op} pb.k"))
                .unwrap();
            prop_assert_eq!(star_on.schema().names(), star_comma.schema().names());
            prop_assert_eq!(star_on.tuples(), star_comma.tuples(), "op {}", op);
            let wt = db.world_table();
            let mut truth: HashMap<i64, f64> = Default::default();
            for (world, wp) in wt.enumerate_worlds(1 << 16).unwrap() {
                let (ia, ib) = (ua.instantiate(&world), ub.instantiate(&world));
                let mut seen = std::collections::HashSet::new();
                for t in ia.tuples() {
                    let k = t.value(0).as_int().unwrap();
                    let joins = ib.tuples().iter().any(|u| holds(k, u.value(0).as_int().unwrap()));
                    if joins && seen.insert(k) {
                        *truth.entry(k).or_insert(0.0) += wp;
                    }
                }
            }
            check_conf(&join_on, &truth)?;
        }
    }

    /// `IN (SELECT …)` over a t-certain subquery is an exact semi-join:
    /// count(*) and ecount() == enumeration.
    #[test]
    fn sql_in_certain_subquery_counts_equal_enumeration(rows in arb_rows()) {
        let mut db = load_picked(&rows);
        let keys: std::collections::HashSet<i64> = rows.iter().map(|r| r.0).collect();
        let n = db.query("select count(*) as n from t where v in (select g from t)").unwrap();
        let want = rows.iter().filter(|r| keys.contains(&r.1)).count() as i64;
        prop_assert_eq!(n.tuples()[0].value(0), &Value::Int(want));
        let out = db
            .query("select ecount() as ec from picked where v in (select g from t)")
            .unwrap();
        let ec = out.tuples()[0].value(0).as_f64().unwrap();
        let u = db.table("picked").unwrap().clone();
        let wt = db.world_table();
        let mut ec_truth = 0.0;
        for (world, wp) in wt.enumerate_worlds(1 << 16).unwrap() {
            let inst = u.instantiate(&world);
            let hits = inst
                .tuples()
                .iter()
                .filter(|t| keys.contains(&t.value(1).as_int().unwrap()))
                .count();
            ec_truth += wp * hits as f64;
        }
        prop_assert!((ec - ec_truth).abs() < 1e-9, "ecount {} vs {}", ec, ec_truth);
    }

    /// `IN (SELECT …)` over an uncertain subquery: conf() == enumeration.
    #[test]
    fn sql_in_uncertain_subquery_conf_equals_enumeration(rows in arb_rows()) {
        let mut db = load_picked(&rows);
        let out = db
            .query(
                "select v, conf() as c from picked
                 where v in (select g from picked) group by v",
            )
            .unwrap();
        let u = db.table("picked").unwrap().clone();
        let wt = db.world_table();
        let mut truth: HashMap<i64, f64> = Default::default();
        for (world, wp) in wt.enumerate_worlds(1 << 16).unwrap() {
            let inst = u.instantiate(&world);
            let gs: std::collections::HashSet<i64> =
                inst.tuples().iter().map(|t| t.value(0).as_int().unwrap()).collect();
            let vs: std::collections::HashSet<i64> = inst
                .tuples()
                .iter()
                .map(|t| t.value(1).as_int().unwrap())
                .filter(|v| gs.contains(v))
                .collect();
            for v in vs {
                *truth.entry(v).or_insert(0.0) += wp;
            }
        }
        check_conf(&out, &truth)?;
    }

    /// `select possible` == set of tuples appearing in some world.
    #[test]
    fn sql_possible_equals_enumeration(rows in arb_rows()) {
        let mut db = load_picked(&rows);
        let out = db.query("select possible v from picked").unwrap();
        let u = db.table("picked").unwrap().clone();
        let wt = db.world_table();
        let mut truth = std::collections::HashSet::new();
        for (world, _wp) in wt.enumerate_worlds(1 << 16).unwrap() {
            for t in u.instantiate(&world).tuples() {
                truth.insert(t.value(1).as_int().unwrap());
            }
        }
        let got: std::collections::HashSet<i64> =
            out.tuples().iter().map(|t| t.value(0).as_int().unwrap()).collect();
        prop_assert_eq!(got.len(), out.len(), "possible must deduplicate");
        prop_assert_eq!(got, truth);
    }
}
