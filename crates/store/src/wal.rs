//! The write-ahead log: length-prefixed, CRC32-checksummed records.
//!
//! File layout:
//!
//! ```text
//! [8-byte magic "MAYBWAL\x01"]
//! repeat: [u32 payload_len][u32 crc32(payload)][payload]
//! ```
//!
//! Each payload is one [`WalRecord`]: an LSN, the world-table extension
//! the logged operation depends on (so a single record is atomic — the
//! new random variables and the table rows referencing them commit
//! together), and the [`Op`] itself.
//!
//! Op tags, as this build writes them:
//!
//! | tag | op | payload |
//! |---|---|---|
//! | 0 | [`Op::CreateTable`] | name, schema |
//! | 2 | [`Op::InsertRows`] | table, appended rows |
//! | 4 | [`Op::DropTable`] | name |
//! | 5 | [`Op::PutTable`] | name, representation-preserving table image |
//! | 6 | [`Op::UpdateRows`] | table, (row id, post-image) pairs of the hit rows |
//! | 7 | [`Op::DeleteRows`] | table, row ids |
//!
//! DML records are O(change): a one-row UPDATE logs one row, a one-row
//! DELETE one id. Row ids are positions in the table at the time of the
//! statement; replay applies the same ops in the same order from the
//! same snapshot, so it reaches the same positions. Two older tags stay
//! decodable so data directories written by earlier builds recover:
//! tag 1 (a row-image [`Op::PutTable`]) and tag 3 ([`Op::ReplaceRows`],
//! the full post-statement table that UPDATE/DELETE used to log).
//!
//! Replay semantics ([`scan`]): records are applied in file order. A
//! record whose frame is incomplete or whose CRC does not match is a
//! *torn tail* — the crash interrupted the append — and replay stops
//! cleanly there, reporting the valid prefix length so the caller can
//! truncate it away. A record whose CRC matches but whose payload does
//! not decode is genuine corruption (bit rot, hand editing) and is an
//! error carrying the file offset.

use maybms_urel::URelation;
use maybms_urel::UTuple;

use crate::codec::{self, Reader, Writer};
use crate::error::{Result, StoreError};

/// WAL file name inside the data directory.
pub const WAL_FILE: &str = "wal";

/// Magic bytes heading every WAL file (version byte last).
pub const WAL_MAGIC: &[u8; 8] = b"MAYBWAL\x01";

/// A logged catalog mutation: the *physical result* of a statement
/// (per §2.3, updates are just modifications of the representation
/// tables, so results — including `repair key` / `pick tuples` output —
/// log as plain rows).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `CREATE TABLE`: an empty table with the given schema.
    CreateTable {
        /// Catalog key (lowercased).
        name: String,
        /// Column schema.
        schema: maybms_engine::Schema,
    },
    /// Store a full table image (`CREATE TABLE AS`, programmatic
    /// registration). The rows may carry WSDs.
    PutTable {
        /// Catalog key (lowercased).
        name: String,
        /// The stored U-relation.
        table: URelation,
    },
    /// `INSERT`: rows appended to an existing table.
    InsertRows {
        /// Catalog key (lowercased).
        table: String,
        /// The appended rows.
        rows: Vec<UTuple>,
    },
    /// `UPDATE`: the post-images (data and WSD) of the hit rows, by
    /// row id.
    UpdateRows {
        /// Catalog key (lowercased).
        table: String,
        /// Positions of the updated rows (parallel to `rows`).
        ids: Vec<u32>,
        /// Their post-statement images.
        rows: Vec<UTuple>,
    },
    /// `DELETE`: the removed rows, by row id.
    DeleteRows {
        /// Catalog key (lowercased).
        table: String,
        /// Positions of the deleted rows.
        ids: Vec<u32>,
    },
    /// The table's full post-statement row list (schema unchanged) —
    /// what UPDATE / DELETE logged before [`Op::UpdateRows`] and
    /// [`Op::DeleteRows`]. Decoded and replayed for old WALs; no
    /// statement logs it any more.
    ReplaceRows {
        /// Catalog key (lowercased).
        table: String,
        /// The replacement rows.
        rows: Vec<UTuple>,
    },
    /// `DROP TABLE`.
    DropTable {
        /// Catalog key (lowercased).
        name: String,
    },
}

impl Op {
    /// Short human-readable label (for EXPLAIN-style status output).
    pub fn describe(&self) -> String {
        match self {
            Op::CreateTable { name, .. } => format!("create {name}"),
            Op::PutTable { name, table } => format!("put {name} ({} rows)", table.len()),
            Op::InsertRows { table, rows } => format!("insert {table} (+{} rows)", rows.len()),
            Op::UpdateRows { table, ids, .. } => format!("update {table} ({} rows)", ids.len()),
            Op::DeleteRows { table, ids } => format!("delete {table} (-{} rows)", ids.len()),
            Op::ReplaceRows { table, rows } => {
                format!("replace {table} ({} rows)", rows.len())
            }
            Op::DropTable { name } => format!("drop {name}"),
        }
    }
}

/// New random variables the operation's rows may reference:
/// `(first_var_id, distributions)` — the world table is extended with
/// `distributions[i]` at id `first_var_id + i` before the op applies.
pub type WorldExt = Option<(u32, Vec<Vec<f64>>)>;

/// One WAL record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Log sequence number (monotonic; snapshots store the next LSN so
    /// records already folded into a snapshot are skipped on replay).
    pub lsn: u64,
    /// World-table extension committed atomically with the op.
    pub world_ext: WorldExt,
    /// The mutation.
    pub op: Op,
}

fn put_rows(w: &mut Writer, rows: &[UTuple]) {
    w.put_u32(rows.len() as u32);
    for t in rows {
        codec::put_utuple(w, t);
    }
}

fn get_rows(r: &mut Reader<'_>) -> codec::DecodeResult<Vec<UTuple>> {
    let n = r.u32()? as usize;
    let mut rows = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        rows.push(codec::get_utuple(r)?);
    }
    Ok(rows)
}

fn put_ids(w: &mut Writer, ids: &[u32]) {
    w.put_u32(ids.len() as u32);
    for &id in ids {
        w.put_u32(id);
    }
}

fn get_ids(r: &mut Reader<'_>) -> codec::DecodeResult<Vec<u32>> {
    let n = r.u32()? as usize;
    let mut ids = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        ids.push(r.u32()?);
    }
    Ok(ids)
}

/// `UpdateRows` payload: count, then `(id, post-image)` pairs — so a
/// decoded record always has one row per id.
fn put_id_rows(w: &mut Writer, ids: &[u32], rows: &[UTuple]) {
    debug_assert_eq!(ids.len(), rows.len());
    w.put_u32(ids.len() as u32);
    for (&id, t) in ids.iter().zip(rows) {
        w.put_u32(id);
        codec::put_utuple(w, t);
    }
}

fn get_id_rows(r: &mut Reader<'_>) -> codec::DecodeResult<(Vec<u32>, Vec<UTuple>)> {
    let n = r.u32()? as usize;
    let mut ids = Vec::with_capacity(n.min(1 << 16));
    let mut rows = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        ids.push(r.u32()?);
        rows.push(codec::get_utuple(r)?);
    }
    Ok((ids, rows))
}

/// Encode a record payload (no framing).
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(rec.lsn);
    match &rec.world_ext {
        None => w.put_u8(0),
        Some((first, dists)) => {
            w.put_u8(1);
            w.put_u32(*first);
            codec::put_dists(&mut w, dists);
        }
    }
    match &rec.op {
        Op::CreateTable { name, schema } => {
            w.put_u8(0);
            w.put_str(name);
            codec::put_schema(&mut w, schema);
        }
        Op::PutTable { name, table } => {
            // The exact representation (dictionaries included) replays
            // without a re-pivot.
            w.put_u8(5);
            w.put_str(name);
            codec::put_urelation_any(&mut w, table);
        }
        Op::InsertRows { table, rows } => {
            w.put_u8(2);
            w.put_str(table);
            put_rows(&mut w, rows);
        }
        Op::ReplaceRows { table, rows } => {
            w.put_u8(3);
            w.put_str(table);
            put_rows(&mut w, rows);
        }
        Op::DropTable { name } => {
            w.put_u8(4);
            w.put_str(name);
        }
        Op::UpdateRows { table, ids, rows } => {
            w.put_u8(6);
            w.put_str(table);
            put_id_rows(&mut w, ids, rows);
        }
        Op::DeleteRows { table, ids } => {
            w.put_u8(7);
            w.put_str(table);
            put_ids(&mut w, ids);
        }
    }
    w.finish()
}

/// Decode a record payload.
pub fn decode_record(payload: &[u8]) -> codec::DecodeResult<WalRecord> {
    let mut r = Reader::new(payload);
    let lsn = r.u64()?;
    let world_ext = match r.u8()? {
        0 => None,
        1 => {
            let first = r.u32()?;
            let dists = codec::get_dists(&mut r)?;
            Some((first, dists))
        }
        t => {
            return Err(codec::CodecError {
                offset: r.offset(),
                reason: format!("unknown world-ext tag {t}"),
            })
        }
    };
    let op = match r.u8()? {
        0 => Op::CreateTable { name: r.str()?, schema: codec::get_schema(&mut r)? },
        1 => Op::PutTable { name: r.str()?, table: codec::get_urelation(&mut r)? },
        2 => Op::InsertRows { table: r.str()?, rows: get_rows(&mut r)? },
        3 => Op::ReplaceRows { table: r.str()?, rows: get_rows(&mut r)? },
        4 => Op::DropTable { name: r.str()? },
        5 => Op::PutTable { name: r.str()?, table: codec::get_urelation_any(&mut r)? },
        6 => {
            let table = r.str()?;
            let (ids, rows) = get_id_rows(&mut r)?;
            Op::UpdateRows { table, ids, rows }
        }
        7 => Op::DeleteRows { table: r.str()?, ids: get_ids(&mut r)? },
        t => {
            return Err(codec::CodecError {
                offset: r.offset(),
                reason: format!("unknown op tag {t}"),
            })
        }
    };
    if !r.is_exhausted() {
        return Err(codec::CodecError {
            offset: r.offset(),
            reason: "trailing bytes after record".into(),
        });
    }
    Ok(WalRecord { lsn, world_ext, op })
}

/// Frame a record for appending: `[len][crc][payload]`.
pub fn frame_record(rec: &WalRecord) -> Vec<u8> {
    let payload = encode_record(rec);
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&codec::crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Result of scanning a WAL file.
#[derive(Debug)]
pub struct WalScan {
    /// The decoded records, in file order.
    pub records: Vec<WalRecord>,
    /// File offset of each record's frame (parallel to `records`).
    pub offsets: Vec<u64>,
    /// Length of the valid prefix (bytes). Anything past this is a torn
    /// tail and should be truncated before appending resumes.
    pub valid_len: u64,
    /// Whether a torn tail was found (incomplete frame or CRC mismatch
    /// on the final record).
    pub torn: bool,
}

/// Scan a WAL file's bytes. See the module docs for the stop rules.
pub fn scan(bytes: &[u8]) -> Result<WalScan> {
    // A file shorter than the magic is what a crash during the very
    // first create+write leaves behind: an empty WAL, as long as what
    // *is* there is a prefix of the magic.
    if bytes.len() < WAL_MAGIC.len() {
        if *bytes != WAL_MAGIC[..bytes.len()] {
            return Err(StoreError::corrupt(WAL_FILE, 0, "bad WAL magic"));
        }
        return Ok(WalScan {
            records: Vec::new(),
            offsets: Vec::new(),
            valid_len: 0,
            torn: !bytes.is_empty(),
        });
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(StoreError::corrupt(WAL_FILE, 0, "bad WAL magic"));
    }
    let mut records = Vec::new();
    let mut offsets = Vec::new();
    let mut pos = WAL_MAGIC.len();
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return Ok(WalScan { records, offsets, valid_len: pos as u64, torn: false });
        }
        if remaining < 8 {
            return Ok(WalScan { records, offsets, valid_len: pos as u64, torn: true });
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"))
            as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > remaining - 8 {
            // Frame promises more bytes than the file holds: torn append.
            return Ok(WalScan { records, offsets, valid_len: pos as u64, torn: true });
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if codec::crc32(payload) != crc {
            // Checksum mismatch: the append tore inside the payload (or
            // the tail rotted). Either way nothing after it can be
            // trusted — stop cleanly at the last good record.
            return Ok(WalScan { records, offsets, valid_len: pos as u64, torn: true });
        }
        match decode_record(payload) {
            Ok(rec) => {
                records.push(rec);
                offsets.push(pos as u64);
            }
            Err(e) => {
                // CRC-valid but undecodable: not a crash artifact.
                return Err(StoreError::corrupt(
                    WAL_FILE,
                    (pos + 8) as u64 + e.offset,
                    e.reason,
                ));
            }
        }
        pos += 8 + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_engine::{DataType, Schema};

    fn rec(lsn: u64) -> WalRecord {
        WalRecord {
            lsn,
            world_ext: if lsn.is_multiple_of(2) {
                Some((lsn as u32, vec![vec![0.5, 0.5], vec![1.0]]))
            } else {
                None
            },
            op: Op::CreateTable {
                name: format!("t{lsn}"),
                schema: Schema::from_pairs(&[("a", DataType::Int)]),
            },
        }
    }

    fn wal_bytes(recs: &[WalRecord]) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        for r in recs {
            bytes.extend_from_slice(&frame_record(r));
        }
        bytes
    }

    #[test]
    fn roundtrip_and_scan() {
        let recs: Vec<WalRecord> = (0..5).map(rec).collect();
        let bytes = wal_bytes(&recs);
        let scan = scan(&bytes).unwrap();
        assert_eq!(scan.records, recs);
        let mut offset = WAL_MAGIC.len() as u64;
        for (rec, &at) in recs.iter().zip(&scan.offsets) {
            assert_eq!(at, offset);
            offset += frame_record(rec).len() as u64;
        }
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert!(!scan.torn);
    }

    #[test]
    fn columnar_put_table_roundtrips_and_reencodes_byte_identical() {
        use maybms_engine::{rel, Value};
        use maybms_urel::URelation;
        let base = rel(
            &[("s", DataType::Text), ("n", DataType::Int)],
            vec![
                vec!["x".into(), 1.into()],
                vec![Value::Null, Value::Null],
                vec!["y".into(), 2.into()],
                vec!["x".into(), 3.into()],
            ],
        );
        let table = URelation::from_certain(&base).compact();
        assert!(table.is_columnar());
        let record = WalRecord {
            lsn: 7,
            world_ext: None,
            op: Op::PutTable { name: "t".into(), table },
        };
        let payload = encode_record(&record);
        let decoded = decode_record(&payload).unwrap();
        assert_eq!(decoded, record);
        let Op::PutTable { table, .. } = &decoded.op else { unreachable!() };
        assert!(table.is_columnar());
        // Recovery recomputes frame offsets by re-encoding each decoded
        // record, so the round-trip must be byte-identical.
        assert_eq!(encode_record(&decoded), payload);
    }

    #[test]
    fn legacy_row_image_put_table_tag_still_decodes() {
        use maybms_engine::rel;
        use maybms_urel::URelation;
        let base = rel(&[("n", DataType::Int)], vec![vec![1.into()]]);
        let table = URelation::from_certain(&base);
        assert!(!table.is_columnar());
        // Tag 1 as earlier builds wrote it: the bare row image.
        let mut w = Writer::new();
        w.put_u64(1);
        w.put_u8(0);
        w.put_u8(1);
        w.put_str("t");
        codec::put_urelation(&mut w, &table);
        let decoded = decode_record(&w.finish()).unwrap();
        let op = Op::PutTable { name: "t".into(), table };
        let want = WalRecord { lsn: 1, world_ext: None, op };
        assert_eq!(decoded, want);
        // This build logs every table image under the columnar tag 5.
        assert_eq!(encode_record(&want)[9], 5);
    }

    #[test]
    fn row_id_ops_roundtrip_and_stay_small() {
        use maybms_engine::{Tuple, Value};
        use maybms_urel::{Var, Wsd};
        let row = UTuple::new(Tuple::new(vec![Value::Int(7), Value::str("x")]), Wsd::of(Var(2), 1));
        let update = WalRecord {
            lsn: 3,
            world_ext: None,
            op: Op::UpdateRows { table: "t".into(), ids: vec![41], rows: vec![row] },
        };
        let delete = WalRecord {
            lsn: 4,
            world_ext: None,
            op: Op::DeleteRows { table: "t".into(), ids: vec![0, 9_999] },
        };
        for rec in [&update, &delete] {
            let payload = encode_record(rec);
            assert!(payload.len() < 64, "{} bytes for {:?}", payload.len(), rec.op);
            assert_eq!(&decode_record(&payload).unwrap(), rec);
        }
        assert_eq!(encode_record(&update)[9], 6);
        assert_eq!(encode_record(&delete)[9], 7);
    }

    #[test]
    fn every_truncation_point_stops_cleanly() {
        let recs: Vec<WalRecord> = (0..3).map(rec).collect();
        let bytes = wal_bytes(&recs);
        for cut in 0..bytes.len() {
            let s = scan(&bytes[..cut]).unwrap();
            // The scan keeps only whole records and reports a valid
            // prefix no longer than the cut.
            assert!(s.valid_len <= cut as u64);
            assert!(s.records.len() <= recs.len());
            for (got, want) in s.records.iter().zip(&recs) {
                assert_eq!(got, want);
            }
            // Every mid-record cut is flagged torn.
            if s.valid_len < cut as u64 {
                assert!(s.torn, "cut at {cut} not flagged torn");
            }
        }
    }

    #[test]
    fn crc_flip_in_final_record_is_torn_not_error() {
        let recs: Vec<WalRecord> = (0..2).map(rec).collect();
        let mut bytes = wal_bytes(&recs);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let s = scan(&bytes).unwrap();
        assert_eq!(s.records.len(), 1);
        assert!(s.torn);
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let mut bytes = wal_bytes(&[rec(0)]);
        bytes[0] = b'X';
        match scan(&bytes) {
            Err(StoreError::Corrupt { path, offset, .. }) => {
                assert_eq!(path, WAL_FILE);
                assert_eq!(offset, 0);
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn crc_valid_garbage_is_corrupt_with_offset() {
        // Hand-build a frame whose CRC matches a nonsense payload.
        let payload = vec![9u8; 16];
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&codec::crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        match scan(&bytes) {
            Err(StoreError::Corrupt { offset, .. }) => {
                assert!(offset >= WAL_MAGIC.len() as u64 + 8);
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn empty_and_magic_prefix_files_scan_empty() {
        assert!(scan(b"").unwrap().records.is_empty());
        let s = scan(&WAL_MAGIC[..3]).unwrap();
        assert!(s.records.is_empty());
        assert!(s.torn);
        assert!(scan(WAL_MAGIC).unwrap().records.is_empty());
    }
}
