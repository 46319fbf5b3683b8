//! Acceptance: one-row DML costs one row, whatever the table size. On
//! durable databases of 1k and 50k rows, a one-row INSERT, UPDATE and
//! DELETE each do ZERO row→column pivots, append exactly the same WAL
//! bytes at both sizes, and leave the table columnar at rest with its
//! text column still dictionary-encoded.
//!
//! One test function, in its own integration-test binary: the pivot
//! counters are process-global, so nothing else may pivot between the
//! snapshot and the assertion.

use std::sync::Arc;

use maybms_core::MayBms;
use maybms_engine::{rel, ColumnData, DataType, Value};
use maybms_store::MemVfs;

/// WAL bytes of each of the three one-row statements on a `rows`-row
/// table, after checking they did not pivot and kept the layout.
fn one_row_dml(rows: i64) -> Vec<u64> {
    let mut db = MayBms::open_with_vfs(Arc::new(MemVfs::new())).unwrap();
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| vec![i.into(), Value::Float(i as f64 / 4.0), Value::str(format!("tag{}", i % 16))])
        .collect();
    db.register(
        "acct",
        rel(&[("id", DataType::Int), ("bal", DataType::Float), ("tag", DataType::Text)], data),
    )
    .unwrap();
    let m = maybms_obs::metrics();
    let (pivots, pivot_rows) = (m.pivots.get(), m.pivot_rows.get());
    let mut wal = Vec::new();
    for sql in [
        format!("insert into acct values ({rows}, 0.5, 'fresh')"),
        "update acct set bal = bal + 1.0, tag = 'moved' where id = 7".to_string(),
        "delete from acct where id = 9".to_string(),
    ] {
        let before = db.durability_status().unwrap().wal_bytes;
        db.run(&sql).unwrap();
        let appended = db.durability_status().unwrap().wal_bytes - before;
        assert_eq!(db.last_stats().unwrap().wal_bytes.get(), appended, "{sql}: stats");
        wal.push(appended);
    }
    assert_eq!(m.pivots.get(), pivots, "one-row DML on {rows} rows must not pivot");
    assert_eq!(m.pivot_rows.get(), pivot_rows);

    let table = db.table("acct").unwrap();
    assert_eq!(table.len() as i64, rows);
    let (batch, _) = table.at_rest().expect("table stays columnar at rest");
    assert!(matches!(batch.column(2).data(), ColumnData::Dict { .. }), "text column stays Dict");
    let r = db.query("select bal, tag from acct where id = 7 or id = 9").unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r.tuples()[0].value(0), &Value::Float(7.0 / 4.0 + 1.0));
    assert_eq!(r.tuples()[0].value(1), &Value::str("moved"));
    wal
}

#[test]
fn one_row_dml_is_flat_in_table_size() {
    let small = one_row_dml(1_000);
    let large = one_row_dml(50_000);
    assert_eq!(small, large, "WAL bytes per one-row statement must not grow with the table");
    assert!(small.iter().all(|&b| b > 0 && b < 256), "{small:?}");
}
