//! Layer attribution from the engine's span trees.
//!
//! A traced statement runs under a benchmark root span; the engine's own
//! spans (`statement`, `execute`, `pipeline`, `conf`, `wal_append`, …)
//! hang beneath it. A span's *self time* is its duration minus the union
//! of its children's intervals — not their sum, because children fanned
//! out to the pool's threads can overlap.

use std::collections::{BTreeMap, HashMap};

use maybms_obs::trace::{AttrValue, SpanRecord};

/// Label of the root span the benchmark opens around each traced call.
pub const ROOT_LABEL: &str = "perfbench";

/// Self time of each span in `spans` (parallel to the input), in
/// nanoseconds.
pub fn self_nanos(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_nanos, s.end_nanos()));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| union_len(c, s.start_nanos, s.end_nanos()));
            s.dur_nanos.saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn union_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// The `<layer>.<part>` bucket a span's self time belongs to, or `None`
/// for the benchmark's own root.
pub fn bucket(rec: &SpanRecord) -> Option<&'static str> {
    Some(match rec.label {
        ROOT_LABEL => return None,
        "parse" => "sql.parse",
        "statement" | "execute" => "core.execute",
        "pipeline" | "breaker" => "pipe.pipeline",
        "conf" => {
            let method = rec
                .attrs
                .iter()
                .find(|(k, _)| *k == "method")
                .map(|(_, v)| *v);
            match method {
                Some(AttrValue::Str("approx" | "naive")) => "conf.approx",
                _ => "conf.exact",
            }
        }
        "wal_append" => "store.wal_append",
        "wal_fsync" => "store.wal_fsync",
        "checkpoint" => "store.checkpoint",
        "recovery" => "store.recovery",
        _ => "other.unknown",
    })
}

/// Self time accumulated per bucket over many span trees.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    nanos: BTreeMap<&'static str, u64>,
}

impl LayerTimes {
    /// Add one finished span tree.
    pub fn add_tree(&mut self, spans: &[SpanRecord]) {
        for (rec, own) in spans.iter().zip(self_nanos(spans)) {
            if let Some(b) = bucket(rec) {
                *self.nanos.entry(b).or_default() += own;
            }
        }
    }

    /// Self time of one bucket, in nanoseconds.
    pub fn bucket_nanos(&self, bucket: &str) -> u64 {
        self.nanos.get(bucket).copied().unwrap_or(0)
    }

    /// Self time of every bucket of `layer` (the part before the dot).
    pub fn layer_nanos(&self, layer: &str) -> u64 {
        self.nanos
            .iter()
            .filter(|(b, _)| b.split('.').next() == Some(layer))
            .map(|(_, n)| n)
            .sum()
    }

    /// Self time of all engine spans.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, label: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            root: 1,
            label,
            start_nanos: start,
            dur_nanos: end - start,
            attrs: Vec::new(),
        }
    }

    fn conf(id: u64, parent: u64, method: &'static str, start: u64, end: u64) -> SpanRecord {
        let mut r = rec(id, parent, "conf", start, end);
        r.attrs.push(("method", AttrValue::Str(method)));
        r
    }

    /// perfbench 0..100
    ///   parse 0..5
    ///   statement 5..100
    ///     execute 10..90
    ///       conf(exact) 20..60   (pool thread 1)
    ///       conf(approx) 40..80  (pool thread 2, overlaps the first)
    ///       pipeline 85..95      (runs past its parent's end: clipped)
    fn tree() -> Vec<SpanRecord> {
        vec![
            rec(1, 0, ROOT_LABEL, 0, 100),
            rec(2, 1, "parse", 0, 5),
            rec(3, 1, "statement", 5, 100),
            rec(4, 3, "execute", 10, 90),
            conf(5, 4, "exact", 20, 60),
            conf(6, 4, "approx", 40, 80),
            rec(7, 4, "pipeline", 85, 95),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let own = self_nanos(&tree());
        // root: 100 − union(0..5, 5..100) = 0.
        assert_eq!(own[0], 0);
        assert_eq!(own[1], 5);
        // statement: 95 − execute's 80.
        assert_eq!(own[2], 15);
        // execute: 80 − |20..80 ∪ 85..90| = 80 − 65 (a sum would give 90).
        assert_eq!(own[3], 15);
        assert_eq!(&own[4..], &[40, 40, 10]);
    }

    #[test]
    fn union_handles_nesting_touching_and_empty_input() {
        assert_eq!(union_len(&[], 0, 10), 0);
        assert_eq!(union_len(&[(0, 10), (2, 3)], 0, 10), 10);
        assert_eq!(union_len(&[(0, 3), (3, 6)], 0, 10), 6);
        assert_eq!(union_len(&[(8, 20), (0, 2)], 1, 10), 3);
        assert_eq!(union_len(&[(20, 30)], 0, 10), 0);
    }

    #[test]
    fn layers_split_conf_by_method_and_skip_the_root() {
        let mut lt = LayerTimes::default();
        lt.add_tree(&tree());
        assert_eq!(lt.bucket_nanos("sql.parse"), 5);
        assert_eq!(lt.layer_nanos("core"), 30);
        assert_eq!(lt.bucket_nanos("conf.exact"), 40);
        assert_eq!(lt.bucket_nanos("conf.approx"), 40);
        assert_eq!(lt.layer_nanos("conf"), 80);
        assert_eq!(lt.layer_nanos("pipe"), 10);
        assert_eq!(lt.layer_nanos("store"), 0);
        assert_eq!(lt.total_nanos(), 125);
    }
}
