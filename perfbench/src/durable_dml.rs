//! `durable_dml`: single-row writes against a durable database. Each round
//! runs an INSERT, an UPDATE by id and a DELETE by id, then
//! [`POINT_READS`] point SELECTs by id and [`GROUP_READS`] GROUP BY reads
//! over a random balance range, on a 10k-row `acct(id, bal, tag)` table
//! opened with `MayBms::open`. A checkpoint runs every
//! [`ROUNDS_PER_CHECKPOINT`] rounds.
//! After the measured phase the run writes a fixed WAL tail that is never
//! checkpointed and times `MayBms::open` replaying it.
//!
//! The benchmark keeps its own model of every acknowledged write; every
//! read, and the recovered table, is checked against it.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use maybms_core::MayBms;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::session::Recorder;
use crate::{Recovery, Workload};

const ROWS: usize = 10_000;
const LOAD_BATCH: usize = 500;
const TAGS: usize = 16;
/// Reads per round. With 2 + 3 no median sits on the gap between two
/// statement kinds: the overall and the read median both fall inside the
/// GROUP BY reads (~1 ms), the p90 inside the UPDATE/DELETE writes.
const POINT_READS: usize = 2;
const GROUP_READS: usize = 3;
const STATEMENTS_PER_ROUND: u64 = 3 + (POINT_READS + GROUP_READS) as u64;
const ROUNDS_PER_CHECKPOINT: u64 = 40;
/// Rounds of INSERT/UPDATE/DELETE written after the last checkpoint.
const TAIL_ROUNDS: usize = 50;
/// Times the data directory is reopened to time recovery.
const REOPENS: usize = 3;

fn tag(t: usize) -> String {
    format!("tag{t:02}")
}

/// The benchmark's model of `acct`.
#[derive(Default)]
struct Model {
    /// id → (bal, tag, index into `live`).
    rows: HashMap<i64, (i64, usize, usize)>,
    live: Vec<i64>,
}

impl Model {
    fn insert(&mut self, id: i64, bal: i64, t: usize) {
        self.rows.insert(id, (bal, t, self.live.len()));
        self.live.push(id);
    }

    fn add(&mut self, id: i64, delta: i64) {
        self.rows.get_mut(&id).expect("live id").0 += delta;
    }

    fn delete(&mut self, id: i64) {
        let (_, _, idx) = self.rows.remove(&id).expect("live id");
        self.live.swap_remove(idx);
        if let Some(&moved) = self.live.get(idx) {
            self.rows.get_mut(&moved).expect("live id").2 = idx;
        }
    }

    /// (tag, count, sum of bal) per tag over the rows with `bal >= min_bal`.
    fn per_tag(&self, min_bal: i64) -> Vec<(String, i64, i64)> {
        let mut acc = [(0, 0); TAGS];
        for &(bal, t, _) in self.rows.values().filter(|r| r.0 >= min_bal) {
            acc[t].0 += 1;
            acc[t].1 += bal;
        }
        (0..TAGS)
            .filter(|&t| acc[t].0 > 0)
            .map(|t| (tag(t), acc[t].0, acc[t].1))
            .collect()
    }

    fn pick(&self, rng: &mut StdRng) -> i64 {
        self.live[rng.gen_range(0..self.live.len())]
    }
}

pub struct DurableDml {
    db: MayBms,
    dir: PathBuf,
    /// (bal, tag) of the loaded rows, by id, until the model is built.
    loaded: Vec<(i64, usize)>,
    model: Model,
    rng: StdRng,
    next_id: i64,
    rounds_since_checkpoint: u64,
}

impl DurableDml {
    fn insert(&mut self, rec: &mut Recorder) {
        let id = self.next_id;
        self.next_id += 1;
        let bal = self.rng.gen_range(0..10_000);
        let t = self.rng.gen_range(0..TAGS);
        let sql = format!("insert into acct values ({id}, {bal}, '{}')", tag(t));
        if rec.dml(&mut self.db, &sql, 1) {
            self.model.insert(id, bal, t);
        }
    }

    fn update(&mut self, rec: &mut Recorder) {
        let id = self.model.pick(&mut self.rng);
        let delta: i64 = self.rng.gen_range(1..100);
        let sql = format!("update acct set bal = bal + {delta} where id = {id}");
        if rec.dml(&mut self.db, &sql, 1) {
            self.model.add(id, delta);
        }
    }

    fn delete(&mut self, rec: &mut Recorder) {
        let id = self.model.pick(&mut self.rng);
        if rec.dml(
            &mut self.db,
            &format!("delete from acct where id = {id}"),
            1,
        ) {
            self.model.delete(id);
        }
    }

    fn point_read(&mut self, rec: &mut Recorder) {
        let id = self.model.pick(&mut self.rng);
        let sql = format!("select id, bal, tag from acct where id = {id}");
        if let Some(r) = rec.query(&mut self.db, &sql) {
            let (bal, t, _) = self.model.rows[&id];
            let ok = r.len() == 1
                && r.tuples()[0].value(1).as_int() == Some(bal)
                && r.tuples()[0].value(2).as_str() == Some(tag(t).as_str());
            rec.check(ok, || format!("{sql}: {:?}", r.tuples()));
        }
    }

    fn group_read(&mut self, rec: &mut Recorder, min_bal: i64) {
        let sql = format!(
            "select tag, count(*) as n, sum(bal) as total from acct \
             where bal >= {min_bal} group by tag"
        );
        if let Some(r) = rec.query(&mut self.db, &sql) {
            let want = self.model.per_tag(min_bal);
            let mut got: Vec<(String, i64, i64)> = r
                .tuples()
                .iter()
                .map(|t| {
                    let n = |i: usize| t.value(i).as_f64().map_or(i64::MIN, |v| v as i64);
                    (
                        t.value(0).as_str().unwrap_or_default().to_string(),
                        n(1),
                        n(2),
                    )
                })
                .collect();
            got.sort();
            rec.check(got == want, || format!("{sql}: {got:?}"));
        }
    }

    /// Check that the reopened table holds exactly the model's rows.
    fn matches_model(&mut self, rec: &mut Recorder) {
        let Some(r) = rec.query(&mut self.db, "select id, bal, tag from acct") else {
            return;
        };
        let ok = r.len() == self.model.rows.len()
            && r.tuples().iter().all(|t| {
                let id = t.value(0).as_int().unwrap_or(-1);
                self.model.rows.get(&id).is_some_and(|&(bal, tg, _)| {
                    t.value(1).as_int() == Some(bal)
                        && t.value(2).as_str() == Some(tag(tg).as_str())
                })
            });
        rec.check(ok, || {
            format!("recovered acct ({} rows) differs from the model", r.len())
        });
    }
}

impl Workload for DurableDml {
    fn setup(seed: u64, work: &Path) -> Result<Self, String> {
        let dir = work.join("durable_dml");
        let mut db = MayBms::open(&dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
        db.run("create table acct (id bigint, bal bigint, tag text)")
            .map_err(|e| format!("create acct: {e}"))?;
        let mut rng = StdRng::seed_from_u64(maybms_par::derive_seed(seed, 1));
        let loaded: Vec<(i64, usize)> = (0..ROWS)
            .map(|_| (rng.gen_range(0..10_000), rng.gen_range(0..TAGS)))
            .collect();
        for (batch, rows) in loaded.chunks(LOAD_BATCH).enumerate() {
            let values: Vec<String> = rows
                .iter()
                .enumerate()
                .map(|(i, &(bal, t))| format!("({}, {bal}, '{}')", batch * LOAD_BATCH + i, tag(t)))
                .collect();
            db.run(&format!("insert into acct values {}", values.join(", ")))
                .map_err(|e| format!("load acct: {e}"))?;
        }
        db.checkpoint()
            .map_err(|e| format!("checkpoint after load: {e}"))?;
        Ok(DurableDml {
            db,
            dir,
            loaded,
            model: Model::default(),
            rng,
            next_id: ROWS as i64,
            rounds_since_checkpoint: 0,
        })
    }

    fn build_oracle(&mut self, _seed: u64) {
        for (id, (bal, t)) in std::mem::take(&mut self.loaded).into_iter().enumerate() {
            self.model.insert(id as i64, bal, t);
        }
    }

    fn db(&self) -> &MayBms {
        &self.db
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("acct_rows", ROWS as u64),
            ("checkpoint_every_rounds", ROUNDS_PER_CHECKPOINT),
            ("wal_tail_statements", 3 * TAIL_ROUNDS as u64),
            ("statements_per_round", STATEMENTS_PER_ROUND),
        ]
    }

    fn round(&mut self, rec: &mut Recorder) -> Result<(), String> {
        self.insert(rec);
        self.update(rec);
        self.delete(rec);
        for _ in 0..POINT_READS {
            self.point_read(rec);
        }
        for _ in 0..GROUP_READS {
            let min_bal = self.rng.gen_range(0..5_000);
            self.group_read(rec, min_bal);
        }
        self.rounds_since_checkpoint += 1;
        if self.rounds_since_checkpoint == ROUNDS_PER_CHECKPOINT {
            self.rounds_since_checkpoint = 0;
            rec.checkpoint(&mut self.db)?;
        }
        Ok(())
    }

    fn rounds_per_window(&self) -> u64 {
        ROUNDS_PER_CHECKPOINT
    }

    fn finish(&mut self, rec: &mut Recorder) -> Result<Option<Recovery>, String> {
        rec.checkpoint(&mut self.db)?;
        let appends = || maybms_obs::metrics().wal_appends.get();
        let before = appends();
        for _ in 0..TAIL_ROUNDS {
            self.insert(rec);
            self.update(rec);
            self.delete(rec);
        }
        let tail_records = appends() - before;
        self.db = MayBms::new();
        let mut open_s = Vec::with_capacity(REOPENS);
        let mut replayed = 0;
        for _ in 0..REOPENS {
            self.db = MayBms::new();
            let t0 = Instant::now();
            self.db = MayBms::open(&self.dir).map_err(|e| format!("reopen: {e}"))?;
            open_s.push(t0.elapsed().as_secs_f64());
            replayed = self.db.recovery_report().map_or(0, |r| r.replayed as u64);
        }
        rec.check(replayed == tail_records, || {
            format!("recovery replayed {replayed} WAL records, the tail has {tail_records}")
        });
        self.matches_model(rec);
        self.group_read(rec, 0);
        Ok(Some(Recovery { open_s, replayed }))
    }
}
