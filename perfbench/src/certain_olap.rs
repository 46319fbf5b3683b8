//! `certain_olap`: certain analytics over 100k-row tables. Each round runs
//! a GROUP BY and a DISTINCT on a text key, an arithmetic filter and
//! projection, a join with GROUP BY, and an ORDER BY … LIMIT. The
//! pipelines do the work; conf, urel and store stay idle.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;

use maybms_core::MayBms;
use maybms_engine::{rel, DataType, Relation, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::session::Recorder;
use crate::Workload;

const FACT_ROWS: usize = 100_000;
const TEXT_KEYS: usize = 1_000;
const DIM_ROWS: usize = 1_000;
const REGIONS: usize = 25;

const Q_GROUP: &str = "select s, count(*) as n, sum(v) as total from sk group by s";
const Q_DISTINCT: &str = "select distinct s from sk";
const Q_FILTER: &str =
    "select a * 3 + b as y, c - d as z from et where (a + c) % 7 = 3 and b - d > 100";
const Q_JOIN: &str = "select d.region, count(*) as n, sum(e.b) as total \
                      from et e, dim d where e.a = d.k group by d.region";
/// The filter runs in the pipeline and leaves ~2k rows to sort; the float
/// key is distinct with probability ~1, so the top rows are unique.
/// `TOP_K` and `TOP_K_MAX_C` are its LIMIT and its bound on `c`.
const Q_TOPK: &str = "select a, b, x from et where c < 20 order by x desc limit 20";
const TOP_K: usize = 20;
const TOP_K_MAX_C: i64 = 20;

/// The answers, computed from the generated rows in plain Rust.
#[derive(Default)]
struct Oracle {
    groups: HashMap<Option<String>, (i64, i64)>,
    distinct: BTreeSet<Option<String>>,
    filter: (usize, i64, i64),
    regions: HashMap<String, (i64, i64)>,
    top_k: Vec<(i64, i64, f64)>,
}

pub struct CertainOlap {
    db: MayBms,
    oracle: Oracle,
}

fn text(v: &Value) -> Option<String> {
    v.as_str().map(str::to_string)
}

fn int(v: &Value) -> i64 {
    v.as_int().expect("generated integer column")
}

/// A numeric result cell as an exact integer, if it is one.
fn whole(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
        _ => None,
    }
}

/// The generated `sk`, `et` and `dim` tables.
fn generate(seed: u64) -> [(&'static str, Relation); 3] {
    let sk = maybms_bench::workloads::string_keyed(
        maybms_par::derive_seed(seed, 1),
        FACT_ROWS,
        TEXT_KEYS,
    );
    let et = maybms_bench::workloads::expr_table(maybms_par::derive_seed(seed, 2), FACT_ROWS);
    let dim = dim_table(maybms_par::derive_seed(seed, 3));
    [("sk", sk), ("et", et), ("dim", dim)]
}

fn dim_table(seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = (0..DIM_ROWS)
        .map(|k| {
            let region = format!("region-{:02}", rng.gen_range(0..REGIONS));
            vec![Value::Int(k as i64), Value::str(region)]
        })
        .collect();
    rel(&[("k", DataType::Int), ("region", DataType::Text)], rows)
}

impl Oracle {
    fn new(sk: &Relation, et: &Relation, dim: &Relation) -> Oracle {
        let mut groups: HashMap<Option<String>, (i64, i64)> = HashMap::new();
        for t in sk.tuples() {
            let g = groups.entry(text(t.value(0))).or_default();
            g.0 += 1;
            g.1 += int(t.value(1));
        }
        let distinct = groups.keys().cloned().collect();

        let region_of: HashMap<i64, String> = dim
            .tuples()
            .iter()
            .map(|t| (int(t.value(0)), text(t.value(1)).expect("region")))
            .collect();
        let mut filter = (0, 0, 0);
        let mut regions: HashMap<String, (i64, i64)> = HashMap::new();
        let mut rows: Vec<(i64, i64, f64)> = Vec::new();
        for t in et.tuples() {
            let [a, b, c, d] = [0, 1, 2, 3].map(|i| int(t.value(i)));
            if (a + c) % 7 == 3 && b - d > 100 {
                filter.0 += 1;
                filter.1 += a * 3 + b;
                filter.2 += c - d;
            }
            if let Some(region) = region_of.get(&a) {
                let r = regions.entry(region.clone()).or_default();
                r.0 += 1;
                r.1 += b;
            }
            if c < TOP_K_MAX_C {
                rows.push((a, b, t.value(4).as_f64().expect("generated float column")));
            }
        }
        rows.sort_by(|x, y| y.2.total_cmp(&x.2));
        rows.truncate(TOP_K);
        Oracle {
            groups,
            distinct,
            filter,
            regions,
            top_k: rows,
        }
    }
}

impl Workload for CertainOlap {
    fn setup(seed: u64, _work: &Path) -> Result<Self, String> {
        let mut db = MayBms::new();
        for (name, r) in generate(seed) {
            db.register(name, r)
                .map_err(|e| format!("register {name}: {e}"))?;
        }
        Ok(CertainOlap {
            db,
            oracle: Oracle::default(),
        })
    }

    fn build_oracle(&mut self, seed: u64) {
        let [(_, sk), (_, et), (_, dim)] = generate(seed);
        self.oracle = Oracle::new(&sk, &et, &dim);
    }

    fn db(&self) -> &MayBms {
        &self.db
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("sk_rows", FACT_ROWS as u64),
            ("sk_text_keys", TEXT_KEYS as u64),
            ("et_rows", FACT_ROWS as u64),
            ("dim_rows", DIM_ROWS as u64),
            ("statements_per_round", 5),
        ]
    }

    fn round(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let (db, o) = (&mut self.db, &self.oracle);

        if let Some(r) = rec.query(db, Q_GROUP) {
            let ok = r.len() == o.groups.len()
                && r.tuples().iter().all(|t| {
                    let want = o.groups.get(&text(t.value(0)));
                    want.is_some_and(|&(n, s)| {
                        whole(t.value(1)) == Some(n) && whole(t.value(2)) == Some(s)
                    })
                });
            rec.check(ok, || format!("{Q_GROUP}: {} groups", r.len()));
        }

        if let Some(r) = rec.query(db, Q_DISTINCT) {
            let got: BTreeSet<Option<String>> =
                r.tuples().iter().map(|t| text(t.value(0))).collect();
            let ok = r.len() == o.distinct.len() && got == o.distinct;
            rec.check(ok, || format!("{Q_DISTINCT}: {} rows", r.len()));
        }

        if let Some(r) = rec.query(db, Q_FILTER) {
            let mut got = (r.len(), 0, 0);
            for t in r.tuples() {
                got.1 += whole(t.value(0)).unwrap_or(i64::MIN / 4);
                got.2 += whole(t.value(1)).unwrap_or(i64::MIN / 4);
            }
            rec.check(got == o.filter, || {
                format!("{Q_FILTER}: {got:?} vs {:?}", o.filter)
            });
        }

        if let Some(r) = rec.query(db, Q_JOIN) {
            let ok = r.len() == o.regions.len()
                && r.tuples().iter().all(|t| {
                    let want = text(t.value(0)).and_then(|k| o.regions.get(&k));
                    want.is_some_and(|&(n, s)| {
                        whole(t.value(1)) == Some(n) && whole(t.value(2)) == Some(s)
                    })
                });
            rec.check(ok, || format!("{Q_JOIN}: {} groups", r.len()));
        }

        if let Some(r) = rec.query(db, Q_TOPK) {
            let got: Vec<(Option<i64>, Option<i64>, Option<f64>)> = r
                .tuples()
                .iter()
                .map(|t| (whole(t.value(0)), whole(t.value(1)), t.value(2).as_f64()))
                .collect();
            let want: Vec<_> = o
                .top_k
                .iter()
                .map(|&(a, b, x)| (Some(a), Some(b), Some(x)))
                .collect();
            rec.check(got == want, || format!("{Q_TOPK}: {got:?}"));
        }
        Ok(())
    }
}
