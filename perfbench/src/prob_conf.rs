//! `prob_conf`: confidence computation on the paper's own scenarios.
//!
//! - The Figure 1 NBA what-if: a two-step random walk over per-player
//!   transition matrices, two `repair key … weight by p` joined and folded
//!   back with `conf()` GROUP BY.
//! - A TPC-H-shaped tuple-independent instance (customer × orders ×
//!   lineitem), loaded by CTAS over `pick tuples … independently with
//!   probability`, queried with exact `conf()` over the 3-way join (a
//!   d-tree over 2,400 clauses), per-customer `conf()` and `aconf(0.1,
//!   0.05)` over the same join, `esum`/`ecount`, `tconf` and `select
//!   possible`. Monte Carlo takes about three quarters of a round.
//!
//! Every exact answer is checked against closed forms computed from the
//! generated rows: the walk is a matrix product, and tuple independence
//! makes the join's lineage factor per customer and per order. Each
//! `aconf` group must lie within ε (relative) of the engine's exact
//! `conf()` of the same group.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;

use maybms_core::MayBms;
use maybms_engine::{Relation, Tuple, Value};
use maybms_urel::URelation;

use crate::session::{close, Recorder};
use crate::Workload;

const PLAYERS: usize = 200;
const CUSTOMERS: usize = 200;
const ORDERS_PER_CUSTOMER: usize = 3;
const LINEITEMS_PER_ORDER: usize = 4;
/// `aconf(ε, δ)` parameters of the approximate query.
const ACONF_EPS: f64 = 0.1;
const ACONF_DELTA: f64 = 0.05;
/// Tolerance for exact confidences and expectations.
const EXACT_TOL: f64 = 1e-9;

const Q_WALK: &str = "select s.player, r2.final as state, conf() as p \
     from states s, (repair key player, init in ft weight by p) r1, \
          (repair key player, init in ft weight by p) r2 \
     where r1.player = s.player and r1.init = s.state \
       and r2.player = r1.player and r2.init = r1.final \
     group by s.player, r2.final";
/// Orders with `ok` below this get an `aconf` group each: enough groups
/// that the Monte Carlo work varies little from seed to seed, few enough
/// that the exact d-tree keeps about a fifth of the round.
const ACONF_ORDERS: usize = 150;
const Q_ESUM: &str = "select esum(qty) as e, ecount() as n from lineitem";
const TCONF_QTY: i64 = 45;
const POSSIBLE_QTY: i64 = 47;

/// The customer ⋈ orders ⋈ lineitem join, aggregated by `select`.
fn q_join(select: &str, tail: &str) -> String {
    format!(
        "select {select} from customer c, orders o, lineitem l \
         where c.ck = o.ck and o.ok = l.ok{tail}"
    )
}

/// The integer group key (`ck` or `ok`) of a result row, as an index.
fn key(t: &Tuple) -> Option<usize> {
    t.value(0).as_int().and_then(|ck| usize::try_from(ck).ok())
}

/// The generated inputs, as the oracle sees them.
#[derive(Default)]
struct Data {
    /// player → (initial state, transition matrix over `STATES`).
    walk: HashMap<String, (usize, [[f64; 3]; 3])>,
    /// Customer probabilities, indexed by `ck`.
    customers: Vec<f64>,
    /// (ck, probability) per order, indexed by `ok`.
    orders: Vec<(i64, f64)>,
    /// (ok, qty, probability) per lineitem.
    lineitems: Vec<(i64, i64, f64)>,
}

pub struct ProbConf {
    db: MayBms,
    data: Data,
    q_exact: String,
    q_per_customer: String,
    q_approx: String,
    q_tconf: String,
    q_possible: String,
}

fn state_index(v: &Value) -> usize {
    let s = v.as_str().expect("state is text");
    maybms_bench::workloads::STATES
        .iter()
        .position(|x| *x == s)
        .expect("known state")
}

fn num(v: &Value) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

/// The generated NBA tables (`ft`, `states`) and TPC-H tables.
fn generate(seed: u64) -> (Relation, Relation, HashMap<String, URelation>) {
    let (ft, states) = maybms_bench::workloads::nba(maybms_par::derive_seed(seed, 1), PLAYERS);
    let (_, tpch) = maybms_bench::workloads::tpch_ti(
        maybms_par::derive_seed(seed, 2),
        CUSTOMERS,
        ORDERS_PER_CUSTOMER,
        LINEITEMS_PER_ORDER,
    );
    (ft, states, tpch)
}

/// The certain rows behind a generated tuple-independent table.
fn certain_rows(u: &URelation) -> Relation {
    let rows: Vec<Tuple> = u.tuples().iter().map(|t| t.data.clone()).collect();
    Relation::new_unchecked(u.schema().clone(), rows)
}

impl Data {
    fn new(ft: &Relation, states: &Relation, tpch: &HashMap<String, URelation>) -> Data {
        let mut walk: HashMap<String, (usize, [[f64; 3]; 3])> = HashMap::new();
        for t in states.tuples() {
            let player = t.value(0).as_str().expect("player").to_string();
            walk.insert(player, (state_index(t.value(1)), [[0.0; 3]; 3]));
        }
        for t in ft.tuples() {
            let m = &mut walk
                .get_mut(t.value(0).as_str().expect("player"))
                .expect("player")
                .1;
            m[state_index(t.value(1))][state_index(t.value(2))] = num(t.value(3));
        }
        let col = |table: &str, i: usize| -> Vec<Value> {
            tpch[table]
                .tuples()
                .iter()
                .map(|t| t.data.value(i).clone())
                .collect()
        };
        let int = |v: &Value| v.as_int().expect("integer column");
        let customers = col("customer", 2).iter().map(num).collect();
        let orders = col("orders", 1)
            .iter()
            .zip(col("orders", 2))
            .map(|(ck, p)| (int(ck), num(&p)))
            .collect();
        let lineitems = col("lineitem", 0)
            .iter()
            .zip(col("lineitem", 1))
            .zip(col("lineitem", 2))
            .map(|((ok, qty), p)| (int(ok), int(&qty), num(&p)))
            .collect();
        Data {
            walk,
            customers,
            orders,
            lineitems,
        }
    }

    /// P(player is in each state after two steps).
    fn walk_dist(&self, player: &str) -> Option<[f64; 3]> {
        let (s0, m) = self.walk.get(player)?;
        let mut out = [0.0; 3];
        for (mid, p_mid) in m[*s0].iter().enumerate() {
            for (f, p_f) in m[mid].iter().enumerate() {
                out[f] += p_mid * p_f;
            }
        }
        Some(out)
    }

    /// P(no lineitem of the order exists), per order.
    fn no_lineitem(&self) -> Vec<f64> {
        let mut none = vec![1.0; self.orders.len()];
        for &(ok, _, p) in &self.lineitems {
            none[ok as usize] *= 1.0 - p;
        }
        none
    }

    /// P(order `ok` joins some lineitem), per order: c ∧ o ∧ ⋁_l l.
    fn per_order(&self) -> Vec<f64> {
        let none = self.no_lineitem();
        self.orders
            .iter()
            .zip(none)
            .map(|(&(ck, po), none)| self.customers[ck as usize] * po * (1.0 - none))
            .collect()
    }

    /// P(customer `ck` joins some lineitem), per customer:
    /// c ∧ ⋁_o (o ∧ ⋁_l l) over independent tuples.
    fn per_customer(&self) -> Vec<f64> {
        let none_of_order = self.no_lineitem();
        let mut none_of_customer = vec![1.0; self.customers.len()];
        for (ok, &(ck, p)) in self.orders.iter().enumerate() {
            none_of_customer[ck as usize] *= 1.0 - p * (1.0 - none_of_order[ok]);
        }
        self.customers
            .iter()
            .zip(none_of_customer)
            .map(|(pc, none)| pc * (1.0 - none))
            .collect()
    }
}

impl Workload for ProbConf {
    fn setup(seed: u64, _work: &Path) -> Result<Self, String> {
        let (ft, states, tpch) = generate(seed);
        let mut db = MayBms::new();
        let err = |what: &str, e: maybms_core::CoreError| format!("load {what}: {e}");
        db.register("ft", ft).map_err(|e| err("ft", e))?;
        db.register("states", states)
            .map_err(|e| err("states", e))?;
        for name in ["customer", "orders", "lineitem"] {
            db.register(&format!("{name}_raw"), certain_rows(&tpch[name]))
                .map_err(|e| err(name, e))?;
            db.run(&format!(
                "create table {name} as select * from \
                 (pick tuples from {name}_raw independently with probability prob) x"
            ))
            .map_err(|e| err(name, e))?;
        }
        Ok(ProbConf {
            db,
            data: Data::default(),
            q_exact: q_join("conf() as p", ""),
            q_per_customer: q_join("c.ck, conf() as p", " group by c.ck"),
            q_approx: q_join(
                &format!("o.ok, conf() as p, aconf({ACONF_EPS}, {ACONF_DELTA}) as a"),
                &format!(" and o.ok < {ACONF_ORDERS} group by o.ok"),
            ),
            q_tconf: format!(
                "select ok, qty, prob, tconf() as p from lineitem where qty > {TCONF_QTY}"
            ),
            q_possible: format!(
                "select possible o.ck from orders o, lineitem l \
                 where o.ok = l.ok and l.qty > {POSSIBLE_QTY}"
            ),
        })
    }

    fn build_oracle(&mut self, seed: u64) {
        let (ft, states, tpch) = generate(seed);
        self.data = Data::new(&ft, &states, &tpch);
    }

    fn db(&self) -> &MayBms {
        &self.db
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("nba_players", PLAYERS as u64),
            ("customers", CUSTOMERS as u64),
            ("orders", (CUSTOMERS * ORDERS_PER_CUSTOMER) as u64),
            (
                "lineitems",
                (CUSTOMERS * ORDERS_PER_CUSTOMER * LINEITEMS_PER_ORDER) as u64,
            ),
            ("statements_per_round", 7),
        ]
    }

    fn round(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let (db, d) = (&mut self.db, &self.data);

        if let Some(r) = rec.query(db, Q_WALK) {
            let mut sums: HashMap<String, f64> = HashMap::new();
            let mut ok = r.len() == 3 * d.walk.len();
            for t in r.tuples() {
                let player = t.value(0).as_str().unwrap_or_default();
                let p = num(t.value(2));
                let want = d
                    .walk_dist(player)
                    .map(|dist| dist[state_index(t.value(1))]);
                ok &= want.is_some_and(|w| close(p, w, EXACT_TOL));
                *sums.entry(player.to_string()).or_default() += p;
            }
            ok &= sums.values().all(|s| close(*s, 1.0, EXACT_TOL));
            rec.check(ok, || format!("NBA walk: {} rows", r.len()));
        }

        // Customers are independent: the join exists unless no customer's
        // lineage holds.
        let exact = d.per_customer();
        let want_join = 1.0 - exact.iter().map(|p| 1.0 - p).product::<f64>();
        if let Some(r) = rec.query(db, &self.q_exact) {
            let got = r.tuples().first().map_or(f64::NAN, |t| num(t.value(0)));
            rec.check(r.len() == 1 && close(got, want_join, EXACT_TOL), || {
                format!("exact conf {got} vs {want_join}")
            });
        }

        if let Some(r) = rec.query(db, &self.q_per_customer) {
            let ok = r.len() == exact.len()
                && r.tuples()
                    .iter()
                    .all(|t| key(t).is_some_and(|i| close(num(t.value(1)), exact[i], EXACT_TOL)));
            rec.check(ok, || format!("per-customer conf: {} rows", r.len()));
        }

        // aconf beside the engine's exact conf() of the same groups.
        // `aconf(ε, δ)` promises |a − p| ≤ ε·p only with probability
        // 1 − δ per group, so this check is probabilistic. The engine seeds
        // its sampler deterministically: one data seed passes or fails the
        // same way on every round, and a sampler change can move a group
        // across the line without any bug. Over data seeds 1-30 the worst
        // of the 150 groups lay within 0.32-0.52 ε.
        if let Some(r) = rec.query(db, &self.q_approx) {
            let per_order = d.per_order();
            let ok = r.len() == ACONF_ORDERS
                && r.tuples().iter().all(|t| {
                    let (p, a) = (num(t.value(1)), num(t.value(2)));
                    key(t).filter(|&i| i < ACONF_ORDERS).is_some_and(|i| {
                        close(p, per_order[i], EXACT_TOL) && (a - p).abs() <= ACONF_EPS * p
                    })
                });
            rec.check(ok, || {
                format!("aconf not within ε = {ACONF_EPS} of conf: {} rows", r.len())
            });
        }

        if let Some(r) = rec.query(db, Q_ESUM) {
            let esum: f64 = d.lineitems.iter().map(|&(_, q, p)| q as f64 * p).sum();
            let ecount: f64 = d.lineitems.iter().map(|&(_, _, p)| p).sum();
            let ok = r.len() == 1
                && close(num(r.tuples()[0].value(0)), esum, EXACT_TOL)
                && close(num(r.tuples()[0].value(1)), ecount, EXACT_TOL);
            rec.check(ok, || format!("esum/ecount vs {esum}/{ecount}"));
        }

        if let Some(r) = rec.query(db, &self.q_tconf) {
            let want: Vec<f64> = d
                .lineitems
                .iter()
                .filter(|l| l.1 > TCONF_QTY)
                .map(|l| l.2)
                .collect();
            let ok = r.len() == want.len()
                && r.tuples()
                    .iter()
                    .all(|t| close(num(t.value(3)), num(t.value(2)), EXACT_TOL))
                && close(
                    r.tuples().iter().map(|t| num(t.value(3))).sum(),
                    want.iter().sum(),
                    EXACT_TOL,
                );
            rec.check(ok, || format!("tconf: {} rows", r.len()));
        }

        if let Some(r) = rec.query(db, &self.q_possible) {
            let got: BTreeSet<i64> = r
                .tuples()
                .iter()
                .filter_map(|t| t.value(0).as_int())
                .collect();
            let want: BTreeSet<i64> = d
                .lineitems
                .iter()
                .filter(|l| l.1 > POSSIBLE_QTY)
                .map(|l| d.orders[l.0 as usize].0)
                .collect();
            rec.check(r.len() == want.len() && got == want, || {
                format!("possible: {} rows vs {}", r.len(), want.len())
            });
        }
        Ok(())
    }
}
