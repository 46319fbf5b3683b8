//! The crash matrix: run a mixed DDL/DML/checkpoint workload against the
//! store with a fault injected at the Nth file-system operation — for
//! every N until the workload completes untouched — then recover and
//! check the two durability invariants:
//!
//! * **Atomicity.** The recovered state is bit-identical (by
//!   [`fingerprint`]) to the oracle state either just before or just
//!   after the statement that was in flight when the fault hit. No torn
//!   statements, no lost earlier statements.
//! * **Idempotence.** Recovering twice produces the same state and the
//!   same files as recovering once (a crash *during recovery* is just
//!   another crash).
//!
//! Each fault point is tested under two post-mortem file states: as the
//! dying process left them (partial writes persisted — the torn-write
//! case), and after a power cut that drops every unsynced byte
//! ([`MemVfs::crash`]).

use std::sync::Arc;

use maybms_engine::{DataType, Schema, Tuple, Value};
use maybms_store::{
    apply_op, fingerprint, Catalog, FaultMode, FaultVfs, MemVfs, Op, Store, Vfs,
};
use maybms_urel::{Assignment, URelation, UTuple, Var, WorldTable, Wsd};

/// One workload step: world-table variables that appear (query side
/// effects) before the action runs, then the action itself.
struct Step {
    new_vars: Vec<Vec<f64>>,
    action: Action,
}

enum Action {
    Apply(Op),
    Checkpoint,
}

fn step(op: Op) -> Step {
    Step { new_vars: Vec::new(), action: Action::Apply(op) }
}

fn certain(vals: Vec<Value>) -> UTuple {
    UTuple::certain(Tuple::new(vals))
}

/// A workload touching every op kind (the legacy whole-table
/// `ReplaceRows` included: it is still replayed from old WALs), with
/// uncertainty (world-table
/// extensions riding on records), a mid-stream checkpoint, a burnt
/// variable (created by a query, never stored), and adversarial values
/// (non-representable floats, a `;` in a string).
fn workload() -> Vec<Step> {
    let t_schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Float),
        ("c", DataType::Text),
    ]);
    let picks_schema = Schema::from_pairs(&[("a", DataType::Int)]);
    let picks = URelation::new(
        Arc::new(picks_schema),
        vec![
            UTuple::new(Tuple::new(vec![Value::Int(10)]), Wsd::of(Var(0), 1)),
            UTuple::new(
                Tuple::new(vec![Value::Int(20)]),
                Wsd::from_assignments(vec![
                    Assignment::new(Var(0), 0),
                    Assignment::new(Var(1), 1),
                ])
                .expect("satisfiable"),
            ),
        ],
    );
    vec![
        step(Op::CreateTable { name: "t".into(), schema: t_schema }),
        step(Op::InsertRows {
            table: "t".into(),
            rows: vec![
                certain(vec![Value::Int(1), Value::Float(1.5), Value::str("x")]),
                certain(vec![
                    Value::Int(2),
                    Value::Float(0.1 + 0.2), // not exactly 0.3: bit-exactness matters
                    Value::str("y;'z"),
                ]),
            ],
        }),
        Step {
            new_vars: vec![vec![0.5, 0.5], vec![0.3, 0.7]],
            // Columnar-at-rest: this PutTable logs under the columnar
            // WAL op tag and lands in version-2 snapshot bodies, so the
            // whole fault matrix sweeps the columnar codec too.
            action: Action::Apply(Op::PutTable {
                name: "picks".into(),
                table: picks.compact(),
            }),
        },
        Step { new_vars: Vec::new(), action: Action::Checkpoint },
        Step {
            // A query burnt a variable that nothing stored references.
            new_vars: vec![vec![0.2, 0.8]],
            action: Action::Apply(Op::InsertRows {
                table: "t".into(),
                rows: vec![certain(vec![Value::Int(3), Value::Null, Value::Null])],
            }),
        },
        // Row-id edits: a text cell rewritten to a string the dictionary
        // has never seen, an int cell widened to a float, then a delete
        // that shifts the survivors' row ids.
        step(Op::UpdateRows {
            table: "t".into(),
            ids: vec![0, 2],
            rows: vec![
                certain(vec![Value::Int(1), Value::Float(-0.0), Value::str("new")]),
                certain(vec![Value::Float(3.5), Value::Null, Value::str("x")]),
            ],
        }),
        step(Op::DeleteRows { table: "t".into(), ids: vec![1] }),
        step(Op::UpdateRows {
            table: "picks".into(),
            ids: vec![1],
            rows: vec![UTuple::new(
                Tuple::new(vec![Value::Int(21)]),
                Wsd::of(Var(1), 0),
            )],
        }),
        step(Op::DeleteRows { table: "picks".into(), ids: vec![0] }),
        step(Op::ReplaceRows {
            table: "picks".into(),
            rows: vec![UTuple::new(
                Tuple::new(vec![Value::Int(10)]),
                Wsd::of(Var(0), 1),
            )],
        }),
        step(Op::PutTable {
            name: "names".into(),
            // Dictionary-encoded text column (with a NULL slot) through
            // the crash matrix: the dictionary must survive any fault.
            table: URelation::from_certain(&maybms_engine::rel(
                &[("who", DataType::Text)],
                vec![
                    vec![Value::str("ann")],
                    vec![Value::Null],
                    vec![Value::str("ann")],
                    vec![Value::str("bob")],
                ],
            ))
            .compact(),
        }),
        step(Op::DropTable { name: "t".into() }),
        step(Op::CreateTable {
            name: "t2".into(),
            schema: Schema::from_pairs(&[("d", DataType::Int)]),
        }),
        step(Op::InsertRows {
            table: "t2".into(),
            rows: vec![certain(vec![Value::Int(99)])],
        }),
    ]
}

/// Oracle fingerprints: `fps[k]` is the state after the first `k` steps
/// applied fault-free in memory.
fn oracle_fingerprints(steps: &[Step]) -> Vec<Vec<u8>> {
    let mut tables = Catalog::new();
    let mut wt = WorldTable::new();
    let mut fps = vec![fingerprint(&tables, &wt)];
    for s in steps {
        for d in &s.new_vars {
            wt.new_var(d).expect("oracle var");
        }
        if let Action::Apply(op) = &s.action {
            apply_op(&mut tables, op.clone()).expect("oracle apply");
        }
        fps.push(fingerprint(&tables, &wt));
    }
    fps
}

/// Drive the workload with a fault at the `fail_at`-th file operation.
/// Returns the post-mortem filesystem, which step failed (`None` when
/// `Store::open` itself died), whether open succeeded, and whether the
/// fault was actually reached.
fn faulted_run(
    steps: &[Step],
    fail_at: u64,
    mode: FaultMode,
) -> (MemVfs, Option<usize>, bool, bool) {
    let mem = MemVfs::new();
    let fault = FaultVfs::new(mem.clone(), fail_at, mode);
    let (opened, failed_step) = match Store::open(Arc::new(fault.clone())) {
        Err(_) => (false, None),
        Ok((mut store, rec)) => {
            let mut tables = rec.tables;
            let mut wt = rec.wt;
            let mut failed = None;
            for (k, s) in steps.iter().enumerate() {
                for d in &s.new_vars {
                    wt.new_var(d).expect("live var");
                }
                let r = match &s.action {
                    Action::Apply(op) => store.log(op, &wt).map(|_| {
                        apply_op(&mut tables, op.clone()).expect("validated op applies")
                    }),
                    Action::Checkpoint => store.checkpoint(&tables, &wt),
                };
                if r.is_err() {
                    failed = Some(k);
                    break;
                }
            }
            (true, failed)
        }
    };
    (mem, failed_step, opened, fault.triggered())
}

/// Recover fault-free and assert atomicity (state ∈ `allowed`) and
/// idempotence (second recovery: same state, same bytes on disk).
fn check_recovery(mem: &MemVfs, allowed: &[&Vec<u8>], what: &str) {
    let (_, r1) = Store::open(Arc::new(mem.clone())).expect("recovery must succeed");
    let f1 = fingerprint(&r1.tables, &r1.wt);
    assert!(
        allowed.iter().any(|a| **a == f1),
        "{what}: recovered state matches neither pre- nor post-statement oracle \
         ({} tables recovered)",
        r1.tables.len()
    );
    let files_1: Vec<_> = ["wal", "snapshot"]
        .iter()
        .map(|f| mem.read(f).ok())
        .collect();
    let (_, r2) = Store::open(Arc::new(mem.clone())).expect("re-recovery must succeed");
    assert_eq!(f1, fingerprint(&r2.tables, &r2.wt), "{what}: recovery not idempotent");
    let files_2: Vec<_> = ["wal", "snapshot"]
        .iter()
        .map(|f| mem.read(f).ok())
        .collect();
    assert_eq!(files_1, files_2, "{what}: second recovery changed files on disk");
}

fn run_matrix(mode: FaultMode) {
    let steps = workload();
    let fps = oracle_fingerprints(&steps);
    let mut points = 0u64;
    for fail_at in 1..10_000 {
        // Post-mortem state as the dying process left it: partial
        // writes (torn frames) persisted.
        let (mem, failed_step, opened, triggered) = faulted_run(&steps, fail_at, mode);
        if !triggered {
            points = fail_at - 1;
            // Fault never reached: the whole workload ran; final state
            // must be the full oracle state.
            assert_eq!(failed_step, None);
            check_recovery(&mem, &[fps.last().expect("nonempty")], "fault-free run");
            break;
        }
        let allowed: Vec<&Vec<u8>> = match (opened, failed_step) {
            (false, _) => vec![&fps[0]],
            (true, Some(k)) => vec![&fps[k], &fps[k + 1]],
            (true, None) => unreachable!("fault triggered but every step succeeded"),
        };
        check_recovery(&mem, &allowed, &format!("{mode:?} fail_at={fail_at}, as-left"));
        // Same fault point, but a power cut also drops every byte that
        // was never fsynced.
        let (mem, _, _, _) = faulted_run(&steps, fail_at, mode);
        mem.crash();
        check_recovery(&mem, &allowed, &format!("{mode:?} fail_at={fail_at}, power-cut"));
    }
    // The workload is ~2 file ops per statement plus open/checkpoint
    // traffic; make sure the loop actually swept a real matrix and
    // terminated by exhaustion rather than the safety bound.
    assert!(points >= 20, "matrix covered only {points} fault points");
}

/// Frame `rec` the way builds before the columnar store wrote it: a
/// table image as a bare row image under op tag 1 (this build writes
/// tag 5, whose body is a representation tag followed by the same row
/// image). Other ops frame unchanged.
fn legacy_frame(rec: &maybms_store::wal::WalRecord) -> Vec<u8> {
    use maybms_store::{codec, wal};
    let mut payload = wal::encode_record(rec);
    if let Op::PutTable { name, .. } = &rec.op {
        // The op tag follows the 8-byte LSN and the world extension.
        let prefix = wal::encode_record(&wal::WalRecord {
            lsn: rec.lsn,
            world_ext: rec.world_ext.clone(),
            op: Op::DropTable { name: String::new() },
        })
        .len()
            - 5;
        assert_eq!(payload[prefix], 5);
        payload[prefix] = 1;
        let rep_tag = prefix + 1 + 4 + name.len();
        assert_eq!(payload.remove(rep_tag), 0, "fixture table must be a row image");
    }
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&codec::crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// A data directory written *before* the columnar refactor and the
/// row-id DML records — no snapshot, a WAL holding only row-image
/// records (op tags 0–4: a tag-1 table image, a tag-3 whole-table
/// `ReplaceRows`) — must recover cleanly, and a checkpoint taken
/// afterwards re-persists the state in the current format without
/// losing a row.
#[test]
fn pre_refactor_row_image_wal_recovers() {
    use maybms_store::wal;

    let t_schema = Schema::from_pairs(&[("a", DataType::Int), ("c", DataType::Text)]);
    let old_table = URelation::new(
        Arc::new(Schema::from_pairs(&[("a", DataType::Int)])),
        vec![UTuple::new(Tuple::new(vec![Value::Int(10)]), Wsd::of(Var(0), 1))],
    );
    assert!(!old_table.is_columnar(), "fixture must be a row image");
    let records = vec![
        wal::WalRecord {
            lsn: 0,
            world_ext: None,
            op: Op::CreateTable { name: "t".into(), schema: t_schema },
        },
        wal::WalRecord {
            lsn: 1,
            world_ext: None,
            op: Op::InsertRows {
                table: "t".into(),
                rows: vec![certain(vec![Value::Int(1), Value::str("x")])],
            },
        },
        wal::WalRecord {
            lsn: 2,
            world_ext: Some((0, vec![vec![0.4, 0.6]])),
            op: Op::PutTable { name: "picks".into(), table: old_table },
        },
        wal::WalRecord {
            lsn: 3,
            world_ext: None,
            op: Op::ReplaceRows {
                table: "t".into(),
                rows: vec![
                    certain(vec![Value::Int(2), Value::str("y")]),
                    certain(vec![Value::Int(3), Value::Null]),
                ],
            },
        },
    ];
    let mem = MemVfs::new();
    let mut bytes = wal::WAL_MAGIC.to_vec();
    for r in &records {
        bytes.extend_from_slice(&legacy_frame(r));
    }
    let mut f = mem.create(wal::WAL_FILE).unwrap();
    f.append(&bytes).unwrap();
    f.sync().unwrap();
    drop(f);

    let (mut store, rec) = Store::open(Arc::new(mem.clone())).expect("legacy WAL recovers");
    assert_eq!(rec.tables.len(), 2);
    assert_eq!(
        rec.tables["t"].tuples(),
        &[
            certain(vec![Value::Int(2), Value::str("y")]),
            certain(vec![Value::Int(3), Value::Null]),
        ]
    );
    assert_eq!(rec.tables["picks"].len(), 1);
    assert_eq!(rec.wt.num_vars(), 1);
    let fp = fingerprint(&rec.tables, &rec.wt);

    // Checkpoint rewrites the state in the current snapshot format;
    // reopening must land on the identical state.
    store.checkpoint(&rec.tables, &rec.wt).unwrap();
    drop(store);
    let (_, rec2) = Store::open(Arc::new(mem)).expect("reopen after checkpoint");
    assert_eq!(fingerprint(&rec2.tables, &rec2.wt), fp);
}

#[test]
fn crash_matrix_fail_stop() {
    run_matrix(FaultMode::FailStop);
}

#[test]
fn crash_matrix_torn_writes() {
    run_matrix(FaultMode::Torn);
}
