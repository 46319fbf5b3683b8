//! The one-client closed loop: every statement goes through
//! `maybms_sql::parse_statement` and then `MayBms::execute`, each timed
//! from outside, and is sent only after the previous one returned.

use std::time::Instant;

use maybms_core::{MayBms, StatementResult};
use maybms_engine::Relation;
use maybms_obs::trace;

use crate::spans::{LayerTimes, ROOT_LABEL};
use crate::stats::Tally;

/// What a statement does, for the read/write latency split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// SELECT.
    Read,
    /// INSERT, UPDATE or DELETE.
    Write,
}

/// Outside timings of one group of statements (traced or untraced).
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Measured statements.
    pub statements: u64,
    /// Time inside `parse_statement` + `execute` + `checkpoint` calls.
    pub busy_nanos: u64,
    /// Time inside `parse_statement`.
    pub parse_nanos: u64,
    /// Time inside `MayBms::execute`.
    pub execute_nanos: u64,
}

impl Phase {
    /// Statements per second of engine time.
    pub fn throughput(&self) -> f64 {
        self.statements as f64 / (self.busy_nanos as f64 / 1e9)
    }
}

/// Per-run recorder shared by all workloads.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Whether the statements now being sent are in the measured phase.
    pub measuring: bool,
    /// Whether the current round runs with the span ring on.
    pub traced: bool,
    /// Outcome counts over every statement sent after set-up.
    pub tally: Tally,
    /// Measured untraced statements.
    pub untraced: Phase,
    /// Measured traced statements.
    pub traced_phase: Phase,
    /// Latencies (ms) of measured untraced statements.
    pub lat_all: Vec<f64>,
    /// Latencies (ms) of measured untraced reads.
    pub lat_read: Vec<f64>,
    /// Latencies (ms) of measured untraced writes.
    pub lat_write: Vec<f64>,
    /// Measured write statements and the WAL bytes they appended.
    pub writes: u64,
    /// WAL bytes appended by measured write statements.
    pub wal_bytes: u64,
    /// `conf` calls made by measured statements (`last_stats`).
    pub conf_calls: u64,
    /// Durations (ms) of every `MayBms::checkpoint` call.
    pub checkpoint_ms: Vec<f64>,
    /// Self time per layer over the traced statements.
    pub layers: LayerTimes,
    reported: u32,
}

impl Recorder {
    /// Parse and execute one statement. `None` when the engine returned
    /// an error (counted as a failure).
    fn exec(&mut self, db: &mut MayBms, sql: &str, kind: Kind) -> Option<StatementResult> {
        self.tally.attempted += 1;
        let wal_before = db.durability_status().map_or(0, |s| s.wal_bytes);
        let root = self.traced.then(|| trace::span(ROOT_LABEL));
        let t0 = Instant::now();
        let parsed = {
            let _parse = trace::span("parse");
            maybms_sql::parse_statement(sql)
        };
        let t1 = Instant::now();
        let result = match parsed {
            Ok(stmt) => db.execute(&stmt).map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        let t2 = Instant::now();
        self.collect_trace(root);

        if let Err(e) = &result {
            self.tally.errors += 1;
            self.report(&format!("statement failed: {e}\n  {sql}"));
        }
        if self.measuring {
            let parse = (t1 - t0).as_nanos() as u64;
            let execute = (t2 - t1).as_nanos() as u64;
            let phase = if self.traced {
                &mut self.traced_phase
            } else {
                &mut self.untraced
            };
            phase.statements += 1;
            phase.busy_nanos += parse + execute;
            phase.parse_nanos += parse;
            phase.execute_nanos += execute;
            if !self.traced {
                let ms = (parse + execute) as f64 / 1e6;
                self.lat_all.push(ms);
                match kind {
                    Kind::Read => self.lat_read.push(ms),
                    Kind::Write => self.lat_write.push(ms),
                }
            }
            if kind == Kind::Write {
                self.writes += 1;
                let wal_after = db.durability_status().map_or(0, |s| s.wal_bytes);
                self.wal_bytes += wal_after.saturating_sub(wal_before);
            }
            self.conf_calls += db.last_stats().map_or(0, |s| s.conf_calls.get());
        }
        result.ok()
    }

    /// Run a SELECT that must return a certain relation.
    pub fn query(&mut self, db: &mut MayBms, sql: &str) -> Option<Relation> {
        match self.exec(db, sql, Kind::Read)? {
            StatementResult::Query(maybms_core::QueryOutput::Certain(r)) => Some(r),
            _ => {
                self.wrong(&format!("expected a certain result from: {sql}"));
                None
            }
        }
    }

    /// Run a DML statement and check the number of rows it reports.
    pub fn dml(&mut self, db: &mut MayBms, sql: &str, rows: u64) -> bool {
        let Some(res) = self.exec(db, sql, Kind::Write) else {
            return false;
        };
        let got = match &res {
            StatementResult::Ok { message } => message
                .rsplit(' ')
                .next()
                .and_then(|n| n.parse::<u64>().ok()),
            StatementResult::Query(_) => None,
        };
        self.check(got == Some(rows), || {
            format!("{sql}: expected {rows} row(s), got {res:?}")
        })
    }

    /// `MayBms::checkpoint`, timed; counts in the measured engine time.
    pub fn checkpoint(&mut self, db: &mut MayBms) -> Result<(), String> {
        let root = self.traced.then(|| trace::span(ROOT_LABEL));
        let t0 = Instant::now();
        let r = db.checkpoint();
        let nanos = t0.elapsed().as_nanos() as u64;
        self.collect_trace(root);
        r.map_err(|e| format!("checkpoint failed: {e}"))?;
        self.checkpoint_ms.push(nanos as f64 / 1e6);
        if self.measuring {
            let phase = if self.traced {
                &mut self.traced_phase
            } else {
                &mut self.untraced
            };
            phase.busy_nanos += nanos;
        }
        Ok(())
    }

    /// Count the last statement's answer as wrong when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.wrong(&what());
        }
        ok
    }

    /// Count the last statement's answer as wrong.
    pub fn wrong(&mut self, what: &str) {
        self.tally.wrong += 1;
        self.report(&format!("wrong result: {what}"));
    }

    fn report(&mut self, msg: &str) {
        // A broken engine fails every round; the first few say why.
        if self.reported < 5 {
            eprintln!("perfbench: {msg}");
        }
        self.reported += 1;
    }

    /// Close the benchmark root span and drain its tree from the ring, so
    /// the ring (bounded at `RING_CAPACITY`) never evicts a live tree.
    fn collect_trace(&mut self, root: Option<trace::Span>) {
        let Some(root) = root else { return };
        let id = root.id();
        drop(root);
        let tree = trace::spans_for_root(id);
        trace::clear();
        self.layers.add_tree(&tree);
    }
}

/// Approximate equality for probabilities and float sums.
pub fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * b.abs().max(1.0)
}
