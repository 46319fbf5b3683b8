//! Column-major morsels: typed column vectors with null bitmaps.
//!
//! The row-major execution core shuttles `Vec<Value>` rows through every
//! fused stage, paying the `Value` enum tag (and its match dispatch) per
//! cell per operator. Following MonetDB/X100-style vectorised execution,
//! a [`ColumnBatch`] stores one *morsel* of rows column-major: each
//! [`Column`] is a typed vector (`Vec<i64>`, `Vec<f64>`, …) plus a
//! [`NullMask`] bitmap, so the vectorised kernels in [`crate::vector`]
//! run tight monomorphic loops over primitive slices instead of matching
//! on `Value` per cell.
//!
//! # Representation invariants
//!
//! * A typed column ([`ColumnData::Int`] / `Float` / `Bool` / `Str`)
//!   holds **only values of that one variant**; NULL slots hold a
//!   placeholder and are marked in the mask. Columns whose rows mix
//!   variants (legal — `Value` is dynamically typed and `1 = 1.0`) fall
//!   back to [`ColumnData::Values`], where the per-row `Value` is
//!   authoritative. This keeps the row ↔ column pivot a *bijection*:
//!   `value_at` returns the exact `Value` that was pivoted in, variant
//!   included (an `Int(1)` never comes back as `Float(1.0)` — `Concat`
//!   and `CAST` observe the variant).
//! * [`ColumnData::Const`] broadcasts one value (vectorised literals,
//!   all-NULL columns) without materialising it per row.
//! * Float bits are preserved exactly (no normalisation on pivot), so
//!   columnar execution is bit-identical to the row path.
//! * [`ColumnData::Dict`] stores strings dictionary-encoded: a shared,
//!   insertion-ordered [`StrDict`] of distinct `Arc<str>` entries plus a
//!   `u32` code per row. Within one column, code equality ⇔ string
//!   equality, so hashing / comparing / grouping can run over codes.
//!   `value_at` decodes to the exact `Arc<str>` that was encoded (an
//!   `Arc` bump), keeping the bijection.
//!
//! Every call to [`ColumnBatch::pivot`] bumps the process-wide
//! `maybms_pipe_pivots_total` / `maybms_pipe_pivot_rows_total` counters,
//! so "zero pivots end-to-end" is an observable claim, not an intention.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::hash::FastMap;
use crate::tuple::TupleBatch;
use crate::types::Value;

/// A null bitmap: bit `i` set ⇔ row `i` is NULL. Empty (no words) means
/// "no nulls", the common fast path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NullMask {
    bits: Vec<u64>,
}

impl NullMask {
    /// A mask with no nulls.
    pub fn none() -> NullMask {
        NullMask::default()
    }

    /// Is row `i` null?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.bits.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }

    /// Mark row `i` null.
    #[inline]
    pub fn set_null(&mut self, i: usize) {
        let word = i / 64;
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        self.bits[word] |= 1 << (i % 64);
    }

    /// Mark row `i` non-null.
    #[inline]
    pub fn clear_null(&mut self, i: usize) {
        if let Some(w) = self.bits.get_mut(i / 64) {
            *w &= !(1 << (i % 64));
        }
    }

    /// True iff any row is null. O(words), with the empty-mask fast path.
    pub fn any(&self) -> bool {
        self.bits.iter().any(|w| *w != 0)
    }

    /// Mask for the rows at `sel`, in that order.
    pub fn gather(&self, sel: &[u32]) -> NullMask {
        let mut out = NullMask::none();
        if self.any() {
            for (j, &i) in sel.iter().enumerate() {
                if self.is_null(i as usize) {
                    out.set_null(j);
                }
            }
        }
        out
    }

    /// Mask for the rows whose `keep` flag is set, in order.
    pub fn retain(&self, keep: &[bool]) -> NullMask {
        let mut out = NullMask::none();
        if self.any() {
            let kept = keep.iter().enumerate().filter(|(_, &k)| k);
            for (j, (i, _)) in kept.enumerate() {
                if self.is_null(i) {
                    out.set_null(j);
                }
            }
        }
        out
    }

    /// Mask for the contiguous rows `[start, start + len)`.
    pub fn slice(&self, start: usize, len: usize) -> NullMask {
        let mut out = NullMask::none();
        if self.any() {
            for j in 0..len {
                if self.is_null(start + j) {
                    out.set_null(j);
                }
            }
        }
        out
    }
}

/// An insertion-ordered dictionary of distinct strings, shared by every
/// slice of a dictionary-encoded column via `Arc`.
///
/// Codes are assigned in first-appearance order, so encoding is
/// deterministic for a given row order. Per-entry derived data (the
/// precomputed key hashes joins and grouping use) is cached once per
/// dictionary lifetime behind a [`OnceLock`] and dropped whenever a new
/// entry is interned.
#[derive(Debug, Default, Clone)]
pub struct StrDict {
    entries: Vec<Arc<str>>,
    lookup: FastMap<Arc<str>, u32>,
    hashes: OnceLock<Vec<u64>>,
}

impl PartialEq for StrDict {
    fn eq(&self, other: &StrDict) -> bool {
        self.entries == other.entries
    }
}

impl StrDict {
    /// An empty dictionary.
    pub fn new() -> StrDict {
        StrDict::default()
    }

    /// The code for `s`, interning it on first sight.
    pub fn intern(&mut self, s: &Arc<str>) -> u32 {
        if let Some(&code) = self.lookup.get(s) {
            return code;
        }
        let code = self.entries.len() as u32;
        self.entries.push(s.clone());
        self.lookup.insert(s.clone(), code);
        self.hashes.take();
        code
    }

    /// The code for `s`, if already interned.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.lookup.get(s).copied()
    }

    /// The string for `code`.
    #[inline]
    pub fn get(&self, code: u32) -> &Arc<str> {
        &self.entries[code as usize]
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no strings are interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries, in code order.
    pub fn entries(&self) -> &[Arc<str>] {
        &self.entries
    }

    /// Per-entry derived values (e.g. key hashes), computed once per
    /// dictionary by `f` and cached. `f` must be deterministic — every
    /// caller of the same dictionary sees the first computation.
    pub fn cached_hashes(&self, f: impl FnOnce(&[Arc<str>]) -> Vec<u64>) -> &[u64] {
        self.hashes.get_or_init(|| f(&self.entries))
    }
}

/// The physical storage of one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// All non-null rows are `Value::Int`.
    Int(Vec<i64>),
    /// All non-null rows are `Value::Float` (bits preserved).
    Float(Vec<f64>),
    /// All non-null rows are `Value::Bool`.
    Bool(Vec<bool>),
    /// All non-null rows are `Value::Str`.
    Str(Vec<Arc<str>>),
    /// All non-null rows are `Value::Str`, dictionary-encoded: row `i`
    /// holds `dict.get(codes[i])`. NULL rows carry code 0 as a
    /// placeholder and are marked in the column's mask.
    Dict {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// The shared, insertion-ordered dictionary.
        dict: Arc<StrDict>,
    },
    /// Mixed-variant (or otherwise untypable) rows: the per-row `Value`
    /// is authoritative, including its nulls.
    Values(Vec<Value>),
    /// Every row is this same value (vectorised literal / all-NULL).
    Const(Value),
}

/// One typed column of a [`ColumnBatch`]: data plus null bitmap plus
/// logical length.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    nulls: NullMask,
    len: usize,
}

impl Column {
    /// A column repeating `v` for `len` rows.
    pub fn from_const(v: Value, len: usize) -> Column {
        Column { data: ColumnData::Const(v), nulls: NullMask::none(), len }
    }

    /// An `Int` column from raw parts.
    pub fn from_ints(v: Vec<i64>, nulls: NullMask) -> Column {
        let len = v.len();
        Column { data: ColumnData::Int(v), nulls, len }
    }

    /// A `Float` column from raw parts.
    pub fn from_floats(v: Vec<f64>, nulls: NullMask) -> Column {
        let len = v.len();
        Column { data: ColumnData::Float(v), nulls, len }
    }

    /// A `Bool` column from raw parts.
    pub fn from_bools(v: Vec<bool>, nulls: NullMask) -> Column {
        let len = v.len();
        Column { data: ColumnData::Bool(v), nulls, len }
    }

    /// A `Str` column from raw parts.
    pub fn from_strs(v: Vec<Arc<str>>, nulls: NullMask) -> Column {
        let len = v.len();
        Column { data: ColumnData::Str(v), nulls, len }
    }

    /// A dictionary-encoded column from raw parts (the store codec's
    /// decode path). Every non-null row's code must index into `dict`;
    /// the caller validates.
    pub fn from_dict(codes: Vec<u32>, dict: Arc<StrDict>, nulls: NullMask) -> Column {
        let len = codes.len();
        Column { data: ColumnData::Dict { codes, dict }, nulls, len }
    }

    /// Build from owned values, choosing the tightest representation
    /// (typed vector, `Const` for all-NULL, `Values` for mixed).
    pub fn from_values(values: Vec<Value>) -> Column {
        let mut b = ColumnBuilder::new();
        for v in &values {
            b.push(v);
        }
        b.finish()
    }

    /// A mixed-variant column from raw parts, keeping the
    /// [`ColumnData::Values`] representation as-is (the store codec's
    /// decode path, where re-encoding must be byte-identical).
    pub fn from_raw_values(values: Vec<Value>) -> Column {
        let len = values.len();
        Column { data: ColumnData::Values(values), nulls: NullMask::none(), len }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The physical storage.
    #[inline]
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The null bitmap (not authoritative for `Values` / `Const` — use
    /// [`Column::is_null`]).
    #[inline]
    pub fn nulls(&self) -> &NullMask {
        &self.nulls
    }

    /// Is row `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        match &self.data {
            ColumnData::Const(v) => v.is_null(),
            ColumnData::Values(v) => v[i].is_null(),
            _ => self.nulls.is_null(i),
        }
    }

    /// True iff any row is NULL.
    pub fn has_nulls(&self) -> bool {
        match &self.data {
            ColumnData::Const(v) => self.len > 0 && v.is_null(),
            ColumnData::Values(v) => v.iter().any(Value::is_null),
            _ => self.nulls.any(),
        }
    }

    /// The `Value` at row `i` — the exact value that was pivoted in
    /// (variant and float bits included). Cheap: `Str` is an `Arc` bump.
    #[inline]
    pub fn value_at(&self, i: usize) -> Value {
        debug_assert!(i < self.len);
        match &self.data {
            ColumnData::Const(v) => v.clone(),
            ColumnData::Values(v) => v[i].clone(),
            ColumnData::Int(v) => {
                if self.nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Int(v[i])
                }
            }
            ColumnData::Float(v) => {
                if self.nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Float(v[i])
                }
            }
            ColumnData::Bool(v) => {
                if self.nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Bool(v[i])
                }
            }
            ColumnData::Str(v) => {
                if self.nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Str(v[i].clone())
                }
            }
            ColumnData::Dict { codes, dict } => {
                if self.nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Str(dict.get(codes[i]).clone())
                }
            }
        }
    }

    /// The rows at `sel`, in that order (typed gather; indices may
    /// repeat and must be in range).
    pub fn gather(&self, sel: &[u32]) -> Column {
        let len = sel.len();
        let data = match &self.data {
            ColumnData::Const(v) => {
                return Column { data: ColumnData::Const(v.clone()), nulls: NullMask::none(), len }
            }
            ColumnData::Int(v) => ColumnData::Int(sel.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Float(v) => {
                ColumnData::Float(sel.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnData::Bool(v) => {
                ColumnData::Bool(sel.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnData::Str(v) => {
                ColumnData::Str(sel.iter().map(|&i| v[i as usize].clone()).collect())
            }
            ColumnData::Dict { codes, dict } => ColumnData::Dict {
                codes: sel.iter().map(|&i| codes[i as usize]).collect(),
                dict: dict.clone(),
            },
            ColumnData::Values(v) => {
                ColumnData::Values(sel.iter().map(|&i| v[i as usize].clone()).collect())
            }
        };
        Column { data, nulls: self.nulls.gather(sel), len }
    }

    /// Shorten to the first `n` rows (no-op when already ≤ `n`).
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len {
            return;
        }
        match &mut self.data {
            ColumnData::Const(_) => {}
            ColumnData::Int(v) => v.truncate(n),
            ColumnData::Float(v) => v.truncate(n),
            ColumnData::Bool(v) => v.truncate(n),
            ColumnData::Str(v) => v.truncate(n),
            ColumnData::Dict { codes, .. } => codes.truncate(n),
            ColumnData::Values(v) => v.truncate(n),
        }
        self.len = n;
    }

    /// The contiguous rows `[start, start + len)` as a new column. A
    /// typed copy of the subrange (primitive memcpy / code copy sharing
    /// the dictionary `Arc`) — **not** a pivot: no per-value dispatch,
    /// no row materialisation.
    pub fn slice(&self, start: usize, len: usize) -> Column {
        debug_assert!(start + len <= self.len);
        let data = match &self.data {
            ColumnData::Const(v) => {
                return Column { data: ColumnData::Const(v.clone()), nulls: NullMask::none(), len }
            }
            ColumnData::Int(v) => ColumnData::Int(v[start..start + len].to_vec()),
            ColumnData::Float(v) => ColumnData::Float(v[start..start + len].to_vec()),
            ColumnData::Bool(v) => ColumnData::Bool(v[start..start + len].to_vec()),
            ColumnData::Str(v) => ColumnData::Str(v[start..start + len].to_vec()),
            ColumnData::Dict { codes, dict } => ColumnData::Dict {
                codes: codes[start..start + len].to_vec(),
                dict: dict.clone(),
            },
            ColumnData::Values(v) => ColumnData::Values(v[start..start + len].to_vec()),
        };
        Column { data, nulls: self.nulls.slice(start, len), len }
    }

    /// Dictionary-encode a `Str` column (first-appearance code order);
    /// every other representation is returned unchanged. The at-rest
    /// compaction path for string columns.
    pub fn dict_encode(&self) -> Column {
        match &self.data {
            ColumnData::Str(v) => {
                let mut dict = StrDict::new();
                let codes: Vec<u32> = v
                    .iter()
                    .enumerate()
                    .map(|(i, s)| if self.nulls.is_null(i) { 0 } else { dict.intern(s) })
                    .collect();
                Column {
                    data: ColumnData::Dict { codes, dict: Arc::new(dict) },
                    nulls: self.nulls.clone(),
                    len: self.len,
                }
            }
            _ => self.clone(),
        }
    }

    /// Can `v` be stored in this column's current representation with
    /// its variant and bits intact? (`Values` takes anything; `Const`
    /// only a bit-identical copy of its value.)
    fn fits(&self, v: &Value) -> bool {
        match (&self.data, v) {
            (ColumnData::Values(_), _) => true,
            (ColumnData::Const(c), v) => same_cell(c, v),
            (_, Value::Null) => true,
            (ColumnData::Int(_), Value::Int(_))
            | (ColumnData::Float(_), Value::Float(_))
            | (ColumnData::Bool(_), Value::Bool(_))
            | (ColumnData::Str(_), Value::Str(_))
            | (ColumnData::Dict { .. }, Value::Str(_)) => true,
            _ => false,
        }
    }

    /// Store `v` at row `i`, or push it when `i == len`. `v` must
    /// [`fit`](Column::fits). A new string is interned into the
    /// dictionary, which is copied first if another column shares it.
    fn put_fitting(&mut self, i: usize, v: &Value) {
        fn put<T>(xs: &mut Vec<T>, i: usize, x: T) {
            if i == xs.len() {
                xs.push(x);
            } else {
                xs[i] = x;
            }
        }
        let null = v.is_null();
        match (&mut self.data, v) {
            (ColumnData::Const(_), _) => {}
            (ColumnData::Values(xs), v) => put(xs, i, v.clone()),
            (ColumnData::Int(xs), v) => put(xs, i, if let Value::Int(x) = v { *x } else { 0 }),
            (ColumnData::Float(xs), v) => {
                put(xs, i, if let Value::Float(x) = v { *x } else { 0.0 })
            }
            (ColumnData::Bool(xs), v) => put(xs, i, matches!(v, Value::Bool(true))),
            (ColumnData::Str(xs), v) => {
                put(xs, i, if let Value::Str(s) = v { s.clone() } else { Arc::from("") })
            }
            (ColumnData::Dict { codes, dict }, v) => {
                let code = match v {
                    Value::Str(s) => match dict.code_of(s) {
                        Some(code) => code,
                        None => Arc::make_mut(dict).intern(s),
                    },
                    _ => 0,
                };
                put(codes, i, code);
            }
        }
        if !matches!(self.data, ColumnData::Const(_) | ColumnData::Values(_)) {
            if null {
                self.nulls.set_null(i);
            } else {
                self.nulls.clear_null(i);
            }
        }
    }

    /// Rebuild from exact per-row values in the tightest representation,
    /// the way compaction would (strings dictionary-encoded). The
    /// fallback when a value does not fit the current representation:
    /// a variant mismatch widens the column to [`ColumnData::Values`].
    fn rebuild(&mut self, values: Vec<Value>) {
        let col = Column::from_values(values);
        *self = match col.data {
            ColumnData::Str(_) => col.dict_encode(),
            _ => col,
        };
    }

    /// Append `values` in place: amortised O(1) per value while each
    /// fits the representation, one rebuild otherwise.
    pub fn append(&mut self, values: &[&Value]) {
        if values.iter().all(|v| self.fits(v)) {
            for v in values {
                self.put_fitting(self.len, v);
                self.len += 1;
            }
        } else {
            let mut all: Vec<Value> = (0..self.len).map(|i| self.value_at(i)).collect();
            all.extend(values.iter().map(|&v| v.clone()));
            self.rebuild(all);
        }
    }

    /// Overwrite row `ids[k]` with `values[k]` in place (ids in range;
    /// a repeated id takes its last value), with the same fit-or-rebuild
    /// rule as [`Column::append`].
    pub fn set_cells(&mut self, ids: &[u32], values: &[&Value]) {
        debug_assert_eq!(ids.len(), values.len());
        if values.iter().all(|v| self.fits(v)) {
            for (&i, v) in ids.iter().zip(values) {
                self.put_fitting(i as usize, v);
            }
        } else {
            let mut all: Vec<Value> = (0..self.len).map(|i| self.value_at(i)).collect();
            for (&i, &v) in ids.iter().zip(values) {
                all[i as usize] = v.clone();
            }
            self.rebuild(all);
        }
    }

    /// Keep only the rows whose `keep` flag is set (`keep.len()` equals
    /// the row count), in order: a typed in-place compaction.
    pub fn retain(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.len);
        fn retain_vec<T>(xs: &mut Vec<T>, keep: &[bool]) {
            let mut flags = keep.iter();
            xs.retain(|_| *flags.next().expect("one flag per row"));
        }
        match &mut self.data {
            ColumnData::Const(_) => {}
            ColumnData::Int(v) => retain_vec(v, keep),
            ColumnData::Float(v) => retain_vec(v, keep),
            ColumnData::Bool(v) => retain_vec(v, keep),
            ColumnData::Str(v) => retain_vec(v, keep),
            ColumnData::Dict { codes, .. } => retain_vec(codes, keep),
            ColumnData::Values(v) => retain_vec(v, keep),
        }
        self.nulls = self.nulls.retain(keep);
        self.len = keep.iter().filter(|&&k| k).count();
    }
}

/// Variant- and bit-exact cell equality (`Int(1)` ≠ `Float(1.0)`,
/// floats by bits).
fn same_cell(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
    }
}

/// Incremental [`Column`] builder: starts optimistic (typed on the first
/// non-null value) and degrades to [`ColumnData::Values`] on the first
/// variant mismatch, reconstructing the already-pushed values exactly.
#[derive(Debug)]
pub struct ColumnBuilder {
    state: BuilderState,
    nulls: NullMask,
    len: usize,
    /// Governor working-memory tally: charged once per
    /// [`CHARGE_STRIDE`](ColumnBuilder::CHARGE_STRIDE) pushed rows (never
    /// per row), credited on drop.
    charge: maybms_gov::MemCharge,
}

#[derive(Debug)]
enum BuilderState {
    /// Only NULLs seen so far.
    AllNull,
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    Str(Vec<Arc<str>>),
    Values(Vec<Value>),
}

impl Default for ColumnBuilder {
    fn default() -> Self {
        ColumnBuilder::new()
    }
}

impl ColumnBuilder {
    /// Rows between governor memory charges.
    const CHARGE_STRIDE: usize = 1024;

    /// An empty builder.
    pub fn new() -> ColumnBuilder {
        ColumnBuilder {
            state: BuilderState::AllNull,
            nulls: NullMask::none(),
            len: 0,
            charge: maybms_gov::MemCharge::new(),
        }
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one value.
    pub fn push(&mut self, v: &Value) {
        use BuilderState::*;
        let i = self.len;
        match (&mut self.state, v) {
            (_, Value::Null) => {
                self.nulls.set_null(i);
                match &mut self.state {
                    AllNull => {}
                    Int(xs) => xs.push(0),
                    Float(xs) => xs.push(0.0),
                    Bool(xs) => xs.push(false),
                    Str(xs) => xs.push(Arc::from("")),
                    Values(xs) => xs.push(Value::Null),
                }
            }
            (AllNull, _) => {
                // First non-null value decides the optimistic type.
                self.state = match v {
                    Value::Int(x) => Int(backfill(i, 0).chain([*x]).collect()),
                    Value::Float(x) => Float(backfill(i, 0.0).chain([*x]).collect()),
                    Value::Bool(x) => Bool(backfill(i, false).chain([*x]).collect()),
                    Value::Str(s) => {
                        Str(backfill(i, Arc::from("")).chain([s.clone()]).collect())
                    }
                    Value::Null => unreachable!("handled above"),
                };
            }
            (Int(xs), Value::Int(x)) => xs.push(*x),
            (Float(xs), Value::Float(x)) => xs.push(*x),
            (Bool(xs), Value::Bool(x)) => xs.push(*x),
            (Str(xs), Value::Str(s)) => xs.push(s.clone()),
            (Values(xs), _) => xs.push(v.clone()),
            // Variant mismatch: degrade to per-row values, rebuilding the
            // prefix exactly from the typed vector plus the null mask.
            (_, _) => {
                let col = std::mem::take(self).finish();
                let mut vals: Vec<Value> = (0..col.len()).map(|j| col.value_at(j)).collect();
                vals.push(v.clone());
                self.state = Values(vals);
                self.nulls = NullMask::none();
                self.len = i;
            }
        }
        self.len += 1;
        if self.len.is_multiple_of(Self::CHARGE_STRIDE) {
            self.charge.add(Self::CHARGE_STRIDE * std::mem::size_of::<Value>());
        }
    }

    /// Finish into a column. All-NULL input becomes `Const(NULL)`.
    pub fn finish(self) -> Column {
        let len = self.len;
        let (data, nulls) = match self.state {
            BuilderState::AllNull => (ColumnData::Const(Value::Null), NullMask::none()),
            BuilderState::Int(v) => (ColumnData::Int(v), self.nulls),
            BuilderState::Float(v) => (ColumnData::Float(v), self.nulls),
            BuilderState::Bool(v) => (ColumnData::Bool(v), self.nulls),
            BuilderState::Str(v) => (ColumnData::Str(v), self.nulls),
            BuilderState::Values(v) => (ColumnData::Values(v), NullMask::none()),
        };
        Column { data, nulls, len }
    }
}

/// `n` copies of a placeholder (backfills NULL-prefixed typed columns).
fn backfill<T: Clone>(n: usize, v: T) -> impl Iterator<Item = T> {
    std::iter::repeat_n(v, n)
}

/// A column-major morsel: parallel [`Column`]s of one common length.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBatch {
    columns: Vec<Column>,
    rows: usize,
}

impl ColumnBatch {
    /// Pivot `rows` (each of one common arity) into columns, keeping
    /// only the source columns at `cols` (in that order). `n_rows` must
    /// equal the iterator length — kept explicit so a zero-column pivot
    /// still knows its row count.
    pub fn pivot<'a>(
        n_rows: usize,
        rows: impl Iterator<Item = &'a [Value]>,
        cols: &[usize],
    ) -> ColumnBatch {
        let m = maybms_obs::metrics();
        m.pivots.inc();
        m.pivot_rows.add(n_rows as u64);
        let mut builders: Vec<ColumnBuilder> =
            (0..cols.len()).map(|_| ColumnBuilder::new()).collect();
        let mut seen = 0usize;
        for row in rows {
            for (b, &c) in builders.iter_mut().zip(cols) {
                b.push(&row[c]);
            }
            seen += 1;
        }
        debug_assert_eq!(seen, n_rows, "pivot row count mismatch");
        ColumnBatch { columns: builders.into_iter().map(ColumnBuilder::finish).collect(), rows: n_rows }
    }

    /// Assemble from already-built columns, truncating each to `rows`
    /// (columns may be longer after a partial evaluation).
    pub fn from_columns(mut columns: Vec<Column>, rows: usize) -> ColumnBatch {
        for c in &mut columns {
            debug_assert!(c.len() >= rows, "column shorter than batch");
            c.truncate(rows);
        }
        ColumnBatch { columns, rows }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// True iff the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column `i`.
    #[inline]
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// All columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The rows at `sel`, in that order.
    pub fn gather(&self, sel: &[u32]) -> ColumnBatch {
        ColumnBatch {
            columns: self.columns.iter().map(|c| c.gather(sel)).collect(),
            rows: sel.len(),
        }
    }

    /// The contiguous rows `[start, start + len)` of the columns at
    /// `cols` (in that order) — the zero-pivot morsel path: typed
    /// subrange copies, no row materialisation, no pivot counted.
    pub fn slice_cols(&self, start: usize, len: usize, cols: &[usize]) -> ColumnBatch {
        ColumnBatch {
            columns: cols.iter().map(|&c| self.columns[c].slice(start, len)).collect(),
            rows: len,
        }
    }

    /// Append `rows` (each of the batch's arity) in place, column by
    /// column — see [`Column::append`].
    pub fn append(&mut self, rows: &[&[Value]]) {
        debug_assert!(rows.iter().all(|r| r.len() == self.columns.len()));
        for (c, col) in self.columns.iter_mut().enumerate() {
            let values: Vec<&Value> = rows.iter().map(|r| &r[c]).collect();
            col.append(&values);
        }
        self.rows += rows.len();
    }

    /// Overwrite row `ids[k]` with `rows[k]` in place — see
    /// [`Column::set_cells`].
    pub fn set_cells(&mut self, ids: &[u32], rows: &[&[Value]]) {
        debug_assert!(rows.iter().all(|r| r.len() == self.columns.len()));
        for (c, col) in self.columns.iter_mut().enumerate() {
            let values: Vec<&Value> = rows.iter().map(|r| &r[c]).collect();
            col.set_cells(ids, &values);
        }
    }

    /// Keep only the rows whose `keep` flag is set — see
    /// [`Column::retain`].
    pub fn retain(&mut self, keep: &[bool]) {
        for col in &mut self.columns {
            col.retain(keep);
        }
        self.rows = keep.iter().filter(|&&k| k).count();
    }

    /// Dictionary-encode every `Str` column (see [`Column::dict_encode`])
    /// — the at-rest compaction applied once at load/CTAS/INSERT.
    pub fn dict_encode(&self) -> ColumnBatch {
        ColumnBatch {
            columns: self.columns.iter().map(Column::dict_encode).collect(),
            rows: self.rows,
        }
    }

    /// Write row `i` into `out` (cleared first) — the row ↔ column
    /// pivot inverse, used by scalar fallbacks and the pivot back to
    /// shared-row tuples.
    pub fn write_row(&self, i: usize, out: &mut Vec<Value>) {
        out.clear();
        for c in &self.columns {
            out.push(c.value_at(i));
        }
    }

    /// Pivot back to row-major tuples sharing chunked buffers (the same
    /// [`TupleBatch`] machinery the row operators use).
    pub fn to_tuple_batch(&self) -> TupleBatch {
        let mut batch = TupleBatch::new();
        for i in 0..self.rows {
            batch.begin_row();
            for c in &self.columns {
                batch.push_value(c.value_at(i));
            }
        }
        batch
    }
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for i in 0..self.len.min(16) {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.value_at(i))?;
        }
        if self.len > 16 {
            write!(f, ", … ({} rows)", self.len)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: Vec<Value>) {
        let col = Column::from_values(values.clone());
        assert_eq!(col.len(), values.len());
        for (i, v) in values.iter().enumerate() {
            assert_eq!(&col.value_at(i), v, "row {i}");
            assert_eq!(col.is_null(i), v.is_null(), "null flag row {i}");
        }
    }

    #[test]
    fn typed_columns_roundtrip_exactly() {
        roundtrip(vec![Value::Int(1), Value::Null, Value::Int(-3)]);
        roundtrip(vec![Value::Float(0.5), Value::Float(-0.0), Value::Null]);
        roundtrip(vec![Value::Bool(true), Value::Null, Value::Bool(false)]);
        roundtrip(vec![Value::str("a"), Value::Null, Value::str("")]);
    }

    #[test]
    fn mixed_variants_fall_back_to_values_preserving_variant() {
        // 1 and 1.0 compare equal but are distinct variants; the pivot
        // must not coerce (Concat/CAST observe the variant).
        let vals = vec![Value::Int(1), Value::Float(1.0), Value::Null, Value::str("x")];
        let col = Column::from_values(vals.clone());
        assert!(matches!(col.data(), ColumnData::Values(_)));
        for (i, v) in vals.iter().enumerate() {
            let got = col.value_at(i);
            assert_eq!(&got, v);
            assert_eq!(got.data_type(), v.data_type(), "variant preserved at {i}");
        }
    }

    #[test]
    fn all_null_becomes_const_null() {
        let col = Column::from_values(vec![Value::Null, Value::Null]);
        assert!(matches!(col.data(), ColumnData::Const(Value::Null)));
        assert_eq!(col.len(), 2);
        assert!(col.is_null(0) && col.is_null(1));
    }

    #[test]
    fn null_prefix_backfills_typed() {
        let col = Column::from_values(vec![Value::Null, Value::Null, Value::Int(7)]);
        assert!(matches!(col.data(), ColumnData::Int(_)));
        assert_eq!(col.value_at(0), Value::Null);
        assert_eq!(col.value_at(2), Value::Int(7));
    }

    #[test]
    fn degrade_after_nulls_and_values_is_exact() {
        let vals =
            vec![Value::Null, Value::Int(1), Value::Null, Value::str("s"), Value::Int(2)];
        roundtrip(vals);
    }

    #[test]
    fn gather_and_truncate() {
        let col = Column::from_values(vec![
            Value::Int(10),
            Value::Null,
            Value::Int(30),
            Value::Int(40),
        ]);
        let g = col.gather(&[3, 1, 1, 0]);
        assert_eq!(g.value_at(0), Value::Int(40));
        assert_eq!(g.value_at(1), Value::Null);
        assert_eq!(g.value_at(2), Value::Null);
        assert_eq!(g.value_at(3), Value::Int(10));
        let mut t = col.clone();
        t.truncate(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.value_at(1), Value::Null);
    }

    #[test]
    fn const_column_broadcasts_and_gathers() {
        let c = Column::from_const(Value::str("k"), 5);
        assert_eq!(c.len(), 5);
        assert_eq!(c.value_at(4), Value::str("k"));
        let g = c.gather(&[0, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.value_at(1), Value::str("k"));
    }

    #[test]
    fn batch_pivot_projects_columns_and_inverts() {
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::str("a"), Value::Float(0.5)],
            vec![Value::Int(2), Value::Null, Value::Float(1.5)],
        ];
        let batch = ColumnBatch::pivot(2, rows.iter().map(|r| r.as_slice()), &[2, 0]);
        assert_eq!(batch.rows(), 2);
        assert_eq!(batch.arity(), 2);
        assert_eq!(batch.column(0).value_at(1), Value::Float(1.5));
        assert_eq!(batch.column(1).value_at(0), Value::Int(1));
        let mut row = Vec::new();
        batch.write_row(1, &mut row);
        assert_eq!(row, vec![Value::Float(1.5), Value::Int(2)]);
    }

    #[test]
    fn batch_to_tuple_batch_matches_rows() {
        let rows: Vec<Vec<Value>> =
            vec![vec![Value::Int(1), Value::Null], vec![Value::str("x"), Value::Bool(true)]];
        let batch = ColumnBatch::pivot(2, rows.iter().map(|r| r.as_slice()), &[0, 1]);
        let tuples = batch.to_tuple_batch().finish();
        assert_eq!(tuples.len(), 2);
        assert_eq!(tuples[0].values(), rows[0].as_slice());
        assert_eq!(tuples[1].values(), rows[1].as_slice());
    }

    #[test]
    fn zero_column_pivot_keeps_row_count() {
        let rows: Vec<Vec<Value>> = vec![vec![Value::Int(1)]; 3];
        let batch = ColumnBatch::pivot(3, rows.iter().map(|r| r.as_slice()), &[]);
        assert_eq!(batch.rows(), 3);
        assert_eq!(batch.arity(), 0);
        let mut row = vec![Value::Int(9)];
        batch.write_row(2, &mut row);
        assert!(row.is_empty());
    }

    #[test]
    fn dict_encode_roundtrips_and_shares_dictionary() {
        let strs: Vec<Arc<str>> =
            vec![Arc::from("a"), Arc::from("b"), Arc::from("a"), Arc::from("")];
        let mut nulls = NullMask::none();
        nulls.set_null(2);
        let col = Column::from_strs(strs, nulls);
        let d = col.dict_encode();
        let ColumnData::Dict { codes, dict } = d.data() else {
            panic!("expected dict encoding, got {:?}", d.data());
        };
        // First-appearance code order; the NULL slot carries placeholder 0.
        assert_eq!(codes, &vec![0, 1, 0, 2]);
        assert_eq!(dict.len(), 3);
        assert_eq!(dict.get(0).as_ref(), "a");
        assert_eq!(d.value_at(0), Value::str("a"));
        assert_eq!(d.value_at(2), Value::Null);
        assert_eq!(d.value_at(3), Value::str(""));
        // Gather and slice keep the same dictionary Arc.
        let g = d.gather(&[3, 0]);
        let ColumnData::Dict { dict: gd, .. } = g.data() else { panic!() };
        assert!(Arc::ptr_eq(dict, gd));
        assert_eq!(g.value_at(0), Value::str(""));
        let s = d.slice(1, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.value_at(0), Value::str("b"));
        assert_eq!(s.value_at(1), Value::Null);
    }

    #[test]
    fn slice_matches_value_at_for_every_representation() {
        let cols = vec![
            Column::from_values(vec![Value::Int(1), Value::Null, Value::Int(3), Value::Int(4)]),
            Column::from_values(vec![
                Value::Float(0.5),
                Value::Float(-0.0),
                Value::Null,
                Value::Float(2.0),
            ]),
            Column::from_values(vec![
                Value::str("x"),
                Value::Null,
                Value::str("y"),
                Value::str("x"),
            ])
            .dict_encode(),
            Column::from_values(vec![
                Value::Int(1),
                Value::str("mixed"),
                Value::Null,
                Value::Bool(true),
            ]),
            Column::from_const(Value::str("k"), 4),
        ];
        for col in cols {
            for start in 0..col.len() {
                for len in 0..=(col.len() - start) {
                    let s = col.slice(start, len);
                    assert_eq!(s.len(), len);
                    for j in 0..len {
                        assert_eq!(s.value_at(j), col.value_at(start + j));
                        assert_eq!(s.is_null(j), col.is_null(start + j));
                    }
                }
            }
        }
    }

    #[test]
    fn pivot_bumps_pivot_counters() {
        let m = maybms_obs::metrics();
        let (p0, r0) = (m.pivots.get(), m.pivot_rows.get());
        let rows: Vec<Vec<Value>> = vec![vec![Value::Int(1)]; 5];
        let _ = ColumnBatch::pivot(5, rows.iter().map(|r| r.as_slice()), &[0]);
        assert_eq!(m.pivots.get(), p0 + 1);
        assert_eq!(m.pivot_rows.get(), r0 + 5);
        // slice_cols is the zero-pivot path: counters stay put.
        let batch = ColumnBatch::pivot(5, rows.iter().map(|r| r.as_slice()), &[0]);
        let (p1, r1) = (m.pivots.get(), m.pivot_rows.get());
        let s = batch.slice_cols(1, 3, &[0]);
        assert_eq!(s.rows(), 3);
        assert_eq!(m.pivots.get(), p1);
        assert_eq!(m.pivot_rows.get(), r1);
    }

    fn values(col: &Column) -> Vec<Value> {
        (0..col.len()).map(|i| col.value_at(i)).collect()
    }

    #[test]
    fn append_set_retain_keep_typed_layout_when_values_fit() {
        let mut col = Column::from_values(vec![Value::Int(1), Value::Null, Value::Int(3)]);
        col.append(&[&Value::Int(4), &Value::Null]);
        col.set_cells(&[1, 0], &[&Value::Int(20), &Value::Null]);
        assert!(matches!(col.data(), ColumnData::Int(_)));
        assert_eq!(
            values(&col),
            vec![Value::Null, Value::Int(20), Value::Int(3), Value::Int(4), Value::Null]
        );
        col.retain(&[false, true, false, true, true]);
        assert!(matches!(col.data(), ColumnData::Int(_)));
        assert_eq!(values(&col), vec![Value::Int(20), Value::Int(4), Value::Null]);
        assert!(col.is_null(2) && !col.is_null(0));
    }

    #[test]
    fn misfit_values_widen_exactly() {
        // Int column, Float value: widened to per-row values, variants kept.
        let mut col = Column::from_values(vec![Value::Int(1), Value::Int(2)]);
        col.set_cells(&[1], &[&Value::Float(-0.0)]);
        assert!(matches!(col.data(), ColumnData::Values(_)));
        let Value::Float(f) = col.value_at(1) else { panic!("variant lost") };
        assert!(f.is_sign_negative());
        assert_eq!(col.value_at(0), Value::Int(1));
        // All-NULL Const column: the first value types it.
        let mut col = Column::from_values(vec![Value::Null, Value::Null]);
        assert!(matches!(col.data(), ColumnData::Const(Value::Null)));
        col.append(&[&Value::Null]);
        assert!(matches!(col.data(), ColumnData::Const(Value::Null)));
        col.append(&[&Value::str("a")]);
        assert!(matches!(col.data(), ColumnData::Dict { .. }));
        assert_eq!(values(&col), vec![Value::Null, Value::Null, Value::Null, Value::str("a")]);
    }

    #[test]
    fn dict_edits_intern_copy_on_write_and_refresh_hashes() {
        let mut col =
            Column::from_values(vec![Value::str("a"), Value::str("b"), Value::str("a")])
                .dict_encode();
        let shared = col.clone();
        let ColumnData::Dict { dict, .. } = shared.data() else { panic!() };
        assert_eq!(dict.cached_hashes(|e| vec![7; e.len()]).len(), 2);
        // Known strings reuse their codes: the dictionary stays shared.
        col.set_cells(&[2], &[&Value::str("b")]);
        let ColumnData::Dict { dict: d1, .. } = col.data() else { panic!() };
        assert!(Arc::ptr_eq(dict, d1));
        // A new string is interned into a private copy.
        col.append(&[&Value::str("c"), &Value::Null]);
        let ColumnData::Dict { codes, dict: d2 } = col.data() else { panic!() };
        assert!(!Arc::ptr_eq(dict, d2));
        assert_eq!(dict.len(), 2, "the sharer's dictionary is untouched");
        assert_eq!(codes[..4], [0, 1, 1, 2]);
        assert_eq!(d2.cached_hashes(|e| vec![7; e.len()]).len(), 3, "stale hash cache dropped");
        assert_eq!(
            values(&col),
            vec![Value::str("a"), Value::str("b"), Value::str("b"), Value::str("c"), Value::Null]
        );
        assert_eq!(values(&shared), vec![Value::str("a"), Value::str("b"), Value::str("a")]);
    }

    #[test]
    fn batch_edits_keep_rows_in_step() {
        let rows: Vec<Vec<Value>> =
            vec![vec![Value::Int(1), Value::str("x")], vec![Value::Int(2), Value::str("y")]];
        let mut batch =
            ColumnBatch::pivot(2, rows.iter().map(|r| r.as_slice()), &[0, 1]).dict_encode();
        let new_row = [Value::Int(3), Value::str("z")];
        batch.append(&[&new_row]);
        let upd = [Value::Float(2.5), Value::Null];
        batch.set_cells(&[1], &[&upd]);
        batch.retain(&[false, true, true]);
        assert_eq!(batch.rows(), 2);
        let mut row = Vec::new();
        batch.write_row(0, &mut row);
        assert_eq!(row, upd);
        batch.write_row(1, &mut row);
        assert_eq!(row, new_row);
    }

    #[test]
    fn float_bits_preserved_through_pivot() {
        // -0.0 and NaN are constructible Values; the pivot must not
        // normalise them (bit-identity with the row path).
        let neg_zero = Value::Float(-0.0);
        let col = Column::from_values(vec![neg_zero.clone(), Value::Float(1.0)]);
        match col.value_at(0) {
            Value::Float(f) => assert!(f.is_sign_negative()),
            other => panic!("expected float, got {other:?}"),
        }
    }
}
