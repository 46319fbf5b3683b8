//! SQL-level, layer-attributed MayBMS benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <certain_olap|prob_conf|durable_dml> --seed N --seconds S --trace <0|1>
//! ```
//!
//! One process, one session, one client in a closed loop: every statement
//! is parsed with `maybms_sql::parse_statement` and run with
//! `MayBms::execute`, and the next is sent only after it returns. The
//! `maybms-par` pool gets one thread per core. Inputs come from the seed;
//! every answer is checked against an oracle computed apart from the
//! engine.
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` every other round runs with the engine's span ring on and
//! the run reports the per-layer metrics: self times from the span trees,
//! count deltas from `maybms_obs::metrics()`, and the tracing overhead
//! measured against the untraced rounds between them. The last line of
//! standard output is the result object; the line before it carries the
//! run metadata and every end-to-end figure, including those that only
//! apply to some workloads.

mod certain_olap;
mod durable_dml;
mod json;
mod prob_conf;
mod session;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use maybms_core::MayBms;
use maybms_obs::trace;

use json::Json;
use session::Recorder;
use stats::{median, nearest_rank, samples_beyond, tail};

/// Set-ups per run: `SETUP_FIRST_REPS` before the first round (the last
/// of them is the database the rounds run on), then, on untraced runs,
/// one more every `SETUP_EVERY` of the measured phase once
/// `peak_rss_mb` has been read. Spread over the run, the set-ups see the
/// same mix of machine speeds as the measured rounds; a burst of
/// interference of a few seconds would otherwise move the whole sample.
/// `setup_s` is their median. Set-ups run between rounds and count in no
/// statement's latency.
const SETUP_FIRST_REPS: usize = 5;
const SETUP_EVERY: Duration = Duration::from_millis(500);

/// Measured rounds after which `peak_rss_mb` is read: the same work on
/// every commit, so that a faster engine that completes more rounds in
/// `--seconds` does not read as a bigger one. Every run completes at
/// least this many rounds.
const RSS_ROUNDS: u64 = 40;

/// End-to-end metrics printed by `--trace 0`, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_sps", "stmt/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics printed by `--trace 1`, with their units. Counts and
/// times are per measured statement unless the unit says otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sql.parse_ms", "ms/stmt"),
    ("sql.self_share", "ratio"),
    ("core.execute_ms", "ms/stmt"),
    ("core.self_ms", "ms/stmt"),
    ("core.self_share", "ratio"),
    ("engine.pivots", "1/stmt"),
    ("engine.pivot_rows", "rows/stmt"),
    ("pipe.pipeline_ms", "ms/stmt"),
    ("pipe.self_share", "ratio"),
    ("pipe.pipelines", "1/stmt"),
    ("pipe.morsels", "1/stmt"),
    ("pipe.rows_in", "rows/stmt"),
    ("pipe.rows_out", "rows/stmt"),
    ("pipe.vector_batches", "1/stmt"),
    ("pipe.scalar_fallbacks", "1/stmt"),
    ("pipe.groups", "1/stmt"),
    ("pipe.join_build_rows", "rows/stmt"),
    ("pipe.vector_share", "ratio"),
    ("par.threads", "count"),
    ("par.tasks", "1/stmt"),
    ("par.queue_depth_hwm", "count"),
    ("conf.exact_ms", "ms/stmt"),
    ("conf.approx_ms", "ms/stmt"),
    ("conf.self_share", "ratio"),
    ("conf.calls", "1/stmt"),
    ("conf.dnf_clauses", "1/stmt"),
    ("conf.dtree_nodes", "1/stmt"),
    ("conf.mc_samples", "1/stmt"),
    ("conf.mc_batches", "1/stmt"),
    ("conf.samples_per_call", "1/call"),
    ("urel.world_vars_added", "vars/stmt"),
    ("store.wal_append_ms", "ms/stmt"),
    ("store.wal_fsync_ms", "ms/stmt"),
    ("store.self_share", "ratio"),
    ("store.wal_appends", "1/stmt"),
    ("store.wal_bytes", "B/stmt"),
    ("store.checkpoints", "1/stmt"),
    ("store.checkpoint_ms", "ms"),
    ("store.recovery_replayed", "count"),
    ("store.retries", "count"),
    ("gov.aborts", "count"),
    ("obs.trace_overhead_pct", "%"),
    // End-to-end figures that exist on some workloads only (0 elsewhere);
    // the gated set above must be nonzero on every workload.
    ("e2e.latency_p99_ms", "ms"),
    ("e2e.write_p50_ms", "ms"),
    ("e2e.wal_bytes_per_write", "B"),
    ("e2e.recovery_s", "s"),
    ("e2e.error_rate", "ratio"),
];

/// One workload: its inputs, its rounds of statements and its oracle.
pub trait Workload: Sized {
    /// Generate the inputs from `seed` and load them into a fresh
    /// database; `work` is an empty working directory inside the checkout.
    /// This is the work `setup_s` times, and nothing else.
    fn setup(seed: u64, work: &Path) -> Result<Self, String>;
    /// Compute the answers the rounds are checked against, apart from the
    /// engine, from the inputs of the same `seed`. Runs once, untimed,
    /// after the last set-up.
    fn build_oracle(&mut self, seed: u64);
    /// The session's database.
    fn db(&self) -> &MayBms;
    /// Input sizes, for the run metadata.
    fn sizes(&self) -> Vec<(&'static str, u64)>;
    /// Send one round of statements and check their answers. An `Err` is
    /// a failure of the benchmark itself, not of a statement.
    fn round(&mut self, rec: &mut Recorder) -> Result<(), String>;
    /// Rounds per throughput window: enough that every window holds the
    /// same mix of work, periodic checkpoints included.
    fn rounds_per_window(&self) -> u64 {
        1
    }
    /// Work after the measured phase (the durable workload's recovery).
    fn finish(&mut self, _rec: &mut Recorder) -> Result<Option<Recovery>, String> {
        Ok(None)
    }
}

/// Timed reopens of a data directory after the measured phase.
pub struct Recovery {
    /// Seconds per `MayBms::open`.
    pub open_s: Vec<f64>,
    /// WAL records the last reopen replayed.
    pub replayed: u64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse().map_err(bad)?),
                "--trace" => {
                    trace = Some(value.parse::<u8>().map_err(|e| format!("--trace: {e}"))? != 0)
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".perfbench_work").join(format!("run-{}", std::process::id()));
    let out = std::fs::create_dir_all(&work)
        .map_err(|e| format!("create {}: {e}", work.display()))
        .and_then(|()| match args.workload.as_str() {
            "certain_olap" => run::<certain_olap::CertainOlap>(&args, &work),
            "prob_conf" => run::<prob_conf::ProbConf>(&args, &work),
            "durable_dml" => run::<durable_dml::DurableDml>(&args, &work),
            w => Err(format!(
                "unknown workload {w:?}: certain_olap, prob_conf or durable_dml"
            )),
        });
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");
    match out {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Process-wide counters read before and after the measured phase.
fn counters() -> Vec<(&'static str, u64)> {
    let m = maybms_obs::metrics();
    vec![
        ("engine.pivots", m.pivots.get()),
        ("engine.pivot_rows", m.pivot_rows.get()),
        ("pipe.pipelines", m.pipelines.get()),
        ("pipe.morsels", m.morsels.get()),
        ("pipe.rows_in", m.rows_in.get()),
        ("pipe.rows_out", m.rows_out.get()),
        ("pipe.vector_batches", m.vector_batches.get()),
        ("pipe.scalar_fallbacks", m.scalar_fallbacks.get()),
        ("pipe.groups", m.groups.get()),
        ("pipe.join_build_rows", m.join_build_rows.get()),
        ("par.tasks", m.par_tasks.get()),
        ("conf.dnf_clauses", m.dnf_clauses.get()),
        ("conf.dtree_nodes", m.dtree_nodes.get()),
        ("conf.mc_samples", m.mc_samples.get()),
        ("conf.mc_batches", m.mc_batches.get()),
        ("store.wal_appends", m.wal_appends.get()),
        ("store.checkpoints", m.checkpoints.get()),
        // Governor aborts of every kind: cancelled, deadline, memory
        // budget, degraded aconf and isolated panics.
        (
            "gov.aborts",
            m.gov_cancelled.get()
                + m.gov_deadline.get()
                + m.gov_mem_rejected.get()
                + m.gov_degraded_conf.get()
                + m.gov_panics.get(),
        ),
        ("store.retries", m.store_retries.get()),
    ]
}

fn delta(
    after: &[(&'static str, u64)],
    before: &[(&'static str, u64)],
) -> Vec<(&'static str, u64)> {
    after
        .iter()
        .zip(before)
        .map(|(&(k, a), &(_, b))| (k, a.saturating_sub(b)))
        .collect()
}

fn get(counts: &[(&str, u64)], name: &str) -> u64 {
    counts
        .iter()
        .find(|(k, _)| *k == name)
        .map_or(0, |&(_, v)| v)
}

/// Process peak resident set (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split(' ').next().map(str::to_string))
            }),
            None => Some(head),
        },
        None => None,
    }
    .unwrap_or_else(|| "unknown".into())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One timed set-up of `W` in a fresh directory under `work`; its time is
/// pushed onto `setup_s`.
fn timed_setup<W: Workload>(
    seed: u64,
    work: &Path,
    setup_s: &mut Vec<f64>,
) -> Result<(W, PathBuf), String> {
    let dir = work.join(format!("setup-{}", setup_s.len()));
    std::fs::create_dir(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let w = W::setup(seed, &dir)?;
    setup_s.push(t0.elapsed().as_secs_f64());
    Ok((w, dir))
}

/// Drop a set-up's database, then its directory, untimed.
fn discard<W>((w, dir): (W, PathBuf)) -> Result<(), String> {
    drop(w);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))
}

fn run<W: Workload>(args: &Args, work: &Path) -> Result<Vec<String>, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    maybms_par::set_threads(threads);
    trace::set_enabled(false);
    let run_start = counters();

    let mut setup_s = Vec::new();
    let mut kept = timed_setup::<W>(args.seed, work, &mut setup_s)?;
    while setup_s.len() < SETUP_FIRST_REPS {
        discard(kept)?;
        kept = timed_setup::<W>(args.seed, work, &mut setup_s)?;
    }
    let (mut w, _) = kept;
    w.build_oracle(args.seed);

    // One unmeasured round warms caches and lazy state.
    let mut rec = Recorder::default();
    w.round(&mut rec)?;

    let before = counters();
    let vars_before = w.db().world_table().num_vars();
    rec.measuring = true;
    let budget = Duration::from_secs(args.seconds);
    let per_window = w.rounds_per_window();
    let mut window_sps = Vec::new();
    let mut mark = (0, 0);
    let mut peak = None;
    let mut last_setup = Instant::now();
    let t0 = Instant::now();
    let mut rounds = 0u64;
    while t0.elapsed() < budget || rounds < RSS_ROUNDS {
        rec.traced = args.trace && rounds % 2 == 1;
        trace::set_enabled(rec.traced);
        w.round(&mut rec)?;
        rounds += 1;
        if rounds == RSS_ROUNDS {
            peak = Some(peak_rss_mb());
        }
        if !args.trace && rounds > RSS_ROUNDS && last_setup.elapsed() >= SETUP_EVERY {
            discard(timed_setup::<W>(args.seed, work, &mut setup_s)?)?;
            last_setup = Instant::now();
        }
        if !args.trace && rounds.is_multiple_of(per_window) {
            let (n, busy) = (rec.untraced.statements, rec.untraced.busy_nanos);
            window_sps.push((n - mark.0) as f64 / ((busy - mark.1) as f64 / 1e9));
            mark = (n, busy);
        }
    }
    rec.traced = false;
    trace::set_enabled(false);
    rec.measuring = false;
    let measured = delta(&counters(), &before);
    let vars_added = w.db().world_table().num_vars() - vars_before;

    let recovery = w.finish(&mut rec)?;
    let sizes = w.sizes();
    drop(w);
    let whole_run = delta(&counters(), &run_start);
    let gov_aborts = get(&whole_run, "gov.aborts");
    let retries = get(&whole_run, "store.retries");
    let valid = gov_aborts == 0 && retries == 0;
    if !valid {
        eprintln!(
            "perfbench: run invalid: {gov_aborts} governor abort(s), {retries} store retr(ies) \
             (a limit or fault injection is armed?)"
        );
    }

    // End-to-end figures, from the untraced statements.
    let sorted = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    let all = sorted(&rec.lat_all);
    let reads = sorted(&rec.lat_read);
    let writes = sorted(&rec.lat_write);
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    let recovery_s = recovery.as_ref().and_then(|r| median(&r.open_s));
    let e2e: Vec<(&str, Json)> = vec![
        ("setup_s", opt(median(&setup_s))),
        // The median window resists bursts of interference from outside.
        (
            "throughput_sps",
            Json::Num(median(&window_sps).unwrap_or(rec.untraced.throughput())),
        ),
        ("latency_p50_ms", opt(nearest_rank(&all, 0.5))),
        ("latency_p90_ms", opt(tail(&all, 0.9))),
        ("latency_p99_ms", opt(tail(&all, 0.99))),
        (
            "latency_p99_samples_beyond",
            Json::Int(samples_beyond(all.len(), 0.99) as u64),
        ),
        ("read_p50_ms", opt(nearest_rank(&reads, 0.5))),
        ("write_p50_ms", opt(nearest_rank(&writes, 0.5))),
        (
            "wal_bytes_per_write",
            opt((rec.writes > 0).then(|| rec.wal_bytes as f64 / rec.writes as f64)),
        ),
        ("recovery_s", opt(recovery_s)),
        ("peak_rss_mb", opt(peak)),
        ("error_rate", Json::Num(rec.tally.error_rate())),
    ];

    let metrics: Vec<(String, Json)> = if args.trace {
        per_layer(
            &rec,
            &measured,
            &whole_run,
            &e2e,
            vars_added,
            recovery.as_ref(),
        )
    } else {
        let mut m = Vec::with_capacity(END_TO_END.len());
        for &(name, unit) in END_TO_END {
            match e2e.iter().find(|(k, _)| *k == name) {
                Some((_, Json::Num(x))) => m.push((name.to_string(), json::metric(*x, unit))),
                _ => {
                    return Err(format!(
                        "{name} has too few samples ({} statements); run longer",
                        all.len()
                    ))
                }
            }
        }
        m
    };

    let meta = Json::obj([
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Int(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Int(threads as u64)),
        (
            "pool_threads",
            Json::Int(maybms_par::current_threads() as u64),
        ),
        ("git_commit", Json::Str(git_commit())),
        (
            "build_profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        (
            "sizes",
            Json::obj(sizes.into_iter().map(|(k, v)| (k, Json::Int(v)))),
        ),
        (
            "client",
            Json::Str("closed loop, 1 client, 1 session".into()),
        ),
        ("setups", Json::Int(setup_s.len() as u64)),
        ("rounds", Json::Int(rounds)),
        ("peak_rss_after_rounds", Json::Int(RSS_ROUNDS)),
        ("throughput_windows", Json::Int(window_sps.len() as u64)),
        ("mean_throughput_sps", Json::Num(rec.untraced.throughput())),
        (
            "measured_statements",
            Json::Int(rec.untraced.statements + rec.traced_phase.statements),
        ),
        ("latency_samples", Json::Int(all.len() as u64)),
        ("valid", Json::Bool(valid)),
        ("end_to_end", Json::obj(e2e)),
        (
            "measured_counts",
            Json::obj(measured.iter().map(|&(k, v)| (k, Json::Int(v)))),
        ),
        ("world_vars_added", Json::Int(vars_added as u64)),
    ]);
    let result = Json::obj([
        ("correct", Json::Bool(valid && rec.tally.failed() == 0)),
        ("attempted", Json::Int(rec.tally.attempted)),
        ("failed", Json::Int(rec.tally.failed())),
        ("metrics", Json::Obj(metrics)),
    ]);
    Ok(vec![
        Json::obj([("perfbench", meta)]).to_string(),
        result.to_string(),
    ])
}

fn per_layer(
    rec: &Recorder,
    measured: &[(&'static str, u64)],
    whole_run: &[(&'static str, u64)],
    e2e: &[(&str, Json)],
    vars_added: usize,
    recovery: Option<&Recovery>,
) -> Vec<(String, Json)> {
    let n = (rec.untraced.statements + rec.traced_phase.statements) as f64;
    let per_stmt = |name: &str| ratio(get(measured, name) as f64, n);
    let u = &rec.untraced;
    let traced_n = rec.traced_phase.statements as f64;
    let lt = &rec.layers;
    let span_ms = |nanos: u64| ratio(nanos as f64 / 1e6, traced_n);
    let share = |layer: &str| ratio(lt.layer_nanos(layer) as f64, lt.total_nanos() as f64);
    let vb = get(measured, "pipe.vector_batches") as f64;
    let sf = get(measured, "pipe.scalar_fallbacks") as f64;

    let mut out: Vec<(&str, f64)> = vec![
        (
            "sql.parse_ms",
            ratio(u.parse_nanos as f64 / 1e6, u.statements as f64),
        ),
        ("sql.self_share", share("sql")),
        (
            "core.execute_ms",
            ratio(u.execute_nanos as f64 / 1e6, u.statements as f64),
        ),
        ("core.self_ms", span_ms(lt.layer_nanos("core"))),
        ("core.self_share", share("core")),
        ("pipe.pipeline_ms", span_ms(lt.layer_nanos("pipe"))),
        ("pipe.self_share", share("pipe")),
        ("pipe.vector_share", ratio(vb, vb + sf)),
        ("par.threads", maybms_par::current_threads() as f64),
        (
            "par.queue_depth_hwm",
            maybms_obs::metrics().par_queue_depth_hwm.get() as f64,
        ),
        ("conf.exact_ms", span_ms(lt.bucket_nanos("conf.exact"))),
        ("conf.approx_ms", span_ms(lt.bucket_nanos("conf.approx"))),
        ("conf.self_share", share("conf")),
        ("conf.calls", ratio(rec.conf_calls as f64, n)),
        (
            "conf.samples_per_call",
            ratio(
                get(measured, "conf.mc_samples") as f64,
                rec.conf_calls as f64,
            ),
        ),
        ("urel.world_vars_added", ratio(vars_added as f64, n)),
        (
            "store.wal_append_ms",
            span_ms(lt.bucket_nanos("store.wal_append")),
        ),
        (
            "store.wal_fsync_ms",
            span_ms(lt.bucket_nanos("store.wal_fsync")),
        ),
        ("store.self_share", share("store")),
        ("store.wal_bytes", ratio(rec.wal_bytes as f64, n)),
        (
            "store.checkpoint_ms",
            median(&rec.checkpoint_ms).unwrap_or(0.0),
        ),
        (
            "store.recovery_replayed",
            recovery.map_or(0.0, |r| r.replayed as f64),
        ),
        ("store.retries", get(whole_run, "store.retries") as f64),
        ("gov.aborts", get(whole_run, "gov.aborts") as f64),
        (
            "obs.trace_overhead_pct",
            ratio(
                u.throughput() - rec.traced_phase.throughput(),
                u.throughput(),
            ) * 100.0,
        ),
    ];
    for &(name, ref v) in e2e {
        if let Some(&(key, _)) = PER_LAYER
            .iter()
            .find(|(k, _)| k.strip_prefix("e2e.") == Some(name))
        {
            out.push((key, if let Json::Num(x) = v { *x } else { 0.0 }));
        }
    }
    for name in [
        "engine.pivots",
        "engine.pivot_rows",
        "pipe.pipelines",
        "pipe.morsels",
        "pipe.rows_in",
        "pipe.rows_out",
        "pipe.vector_batches",
        "pipe.scalar_fallbacks",
        "pipe.groups",
        "pipe.join_build_rows",
        "par.tasks",
        "conf.dnf_clauses",
        "conf.dtree_nodes",
        "conf.mc_samples",
        "conf.mc_batches",
        "store.wal_appends",
        "store.checkpoints",
    ] {
        out.push((name, per_stmt(name)));
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = out.iter().find(|(k, _)| *k == name).map(|&(_, v)| v);
            let value = value.unwrap_or_else(|| panic!("per-layer metric {name} not computed"));
            (name.to_string(), json::metric(value, unit))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_declares_every_printed_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let decl = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&decl), "BENCHMARK.json lacks {decl}");
        }
        assert_eq!(
            spec.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for w in ["certain_olap", "prob_conf", "durable_dml"] {
            assert!(
                spec.contains(&format!("{{\"name\": \"{w}\", \"why\":")),
                "workload {w}"
            );
        }
    }

    #[test]
    fn args_parse_the_command_line_flags() {
        let argv = [
            "--workload",
            "prob_conf",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ];
        let a = Args::parse(argv.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("prob_conf", 7, 3, true)
        );
        assert!(Args::parse(["--seed", "x"].iter().map(|s| s.to_string())).is_err());
        assert!(Args::parse(["--bogus", "1"].iter().map(|s| s.to_string())).is_err());
    }
}
