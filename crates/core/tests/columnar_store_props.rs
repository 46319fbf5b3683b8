//! Catalog-level property: the columnar-at-rest store is invisible.
//!
//! Random DML sequences (INSERT / UPDATE / DELETE / CREATE TABLE AS)
//! drive a live `MayBms` catalog — whose tables sit columnar-at-rest
//! with dictionary-encoded text, edited in place by row id — while the
//! same sequence is applied to a plain row-major oracle `Vec`. UPDATEs
//! rewrite text cells (including strings the dictionary has never seen)
//! and change a column's variant (int → float, int → NULL). After every
//! statement the stored table must match the oracle **by variant and
//! bit**: an `Int` must come back `Int` (never a numerically-equal
//! `Float`), floats must round-trip to the exact bit pattern, and NULLs
//! must stay NULL. A final query runs on 1-, 2-, and 8-thread pools and
//! must be bit-identical across all three, and an UPDATE of an
//! uncertain table must keep every row's WSD.

use maybms_core::MayBms;
use maybms_engine::Value;
use proptest::prelude::*;

/// One generated statement, with enough structure to mirror it onto the
/// oracle without re-implementing SQL.
#[derive(Debug, Clone)]
enum Dml {
    /// `insert into t values (s, n, f)`.
    Insert(Option<&'static str>, Option<i64>, Option<i64>),
    /// `update t set n = c where n > k`.
    Update(i64, i64),
    /// `update t set n = v where n > k`, with `v` a float or NULL: the
    /// column changes variant.
    UpdateVariant(Value, i64),
    /// `update t set s = v where n > k` (`v` may be new to the
    /// dictionary, or NULL).
    UpdateText(Option<&'static str>, i64),
    /// `delete from t where n < k`.
    Delete(i64),
    /// `create table uN as select * from t where n >= k`.
    Ctas(i64),
}

fn arb_dml() -> impl Strategy<Value = Dml> {
    let key = prop::option::of(prop::sample::select(vec!["a", "b", "c"]));
    prop_oneof![
        (key, prop::option::of(0i64..6), prop::option::of(0i64..8))
            .prop_map(|(s, n, f)| Dml::Insert(s, n, f)),
        (0i64..6, 0i64..6).prop_map(|(c, k)| Dml::Update(c, k)),
        (prop::option::of(0i64..6), 0i64..6).prop_map(|(c, k)| {
            // Halves are exactly representable (bit-exact literals).
            Dml::UpdateVariant(c.map_or(Value::Null, |c| Value::Float(c as f64 + 0.5)), k)
        }),
        (prop::option::of(prop::sample::select(vec!["a", "zz", "new"])), 0i64..6)
            .prop_map(|(s, k)| Dml::UpdateText(s, k)),
        (0i64..6).prop_map(Dml::Delete),
        (0i64..6).prop_map(Dml::Ctas),
    ]
}

fn sql_literal(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Str(s) => format!("'{s}'"),
        Value::Bool(b) => b.to_string(),
    }
}

/// Variant- and bit-exact comparison: `Int(1)` ≠ `Float(1.0)` here even
/// though SQL comparison calls them equal, and floats compare by bits.
fn assert_cell(got: &Value, want: &Value, ctx: &str) {
    match (got, want) {
        (Value::Float(a), Value::Float(b)) => {
            assert_eq!(a.to_bits(), b.to_bits(), "float bits, {ctx}")
        }
        (a, b) => assert_eq!(
            std::mem::discriminant(a),
            std::mem::discriminant(b),
            "variant, {ctx}: {a:?} vs {b:?}"
        ),
    }
    assert_eq!(got, want, "{ctx}");
}

fn check_table(db: &MayBms, name: &str, oracle: &[Vec<Value>], ctx: &str) {
    let table = db.table(name).unwrap();
    let got = table.tuples();
    assert_eq!(got.len(), oracle.len(), "row count of {name}, {ctx}");
    for (i, (g, w)) in got.iter().zip(oracle).enumerate() {
        assert_eq!(g.data.arity(), w.len());
        for (c, (gv, wv)) in g.data.values().iter().zip(w).enumerate() {
            assert_cell(gv, wv, &format!("{name}[{i}][{c}], {ctx}"));
        }
    }
}

/// `n` as SQL compares it (ints and floats numerically; NULL is None).
fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Oracle for `where n > k`.
fn above(row: &[Value], k: i64) -> bool {
    num(&row[1]).is_some_and(|n| n > k as f64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dml_on_columnar_store_matches_row_oracle(ops in prop::collection::vec(arb_dml(), 0..12)) {
        let mut db = MayBms::new();
        db.run("create table t (s text, n int, f float)").unwrap();
        let mut oracle: Vec<Vec<Value>> = Vec::new();
        let mut ctas: Vec<(String, Vec<Vec<Value>>)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                Dml::Insert(s, n, f) => {
                    let row = vec![
                        s.map_or(Value::Null, Value::str),
                        n.map_or(Value::Null, Value::Int),
                        // Halves are exactly representable, so the SQL
                        // literal round-trips bit-exactly.
                        f.map_or(Value::Null, |x| Value::Float(x as f64 / 2.0)),
                    ];
                    let lits: Vec<String> = row.iter().map(sql_literal).collect();
                    db.run(&format!("insert into t values ({})", lits.join(", ")))
                        .unwrap();
                    oracle.push(row);
                }
                Dml::Update(c, k) => {
                    db.run(&format!("update t set n = {c} where n > {k}")).unwrap();
                    for row in oracle.iter_mut().filter(|row| above(row, *k)) {
                        row[1] = Value::Int(*c);
                    }
                }
                Dml::UpdateVariant(v, k) => {
                    db.run(&format!("update t set n = {} where n > {k}", sql_literal(v)))
                        .unwrap();
                    for row in oracle.iter_mut().filter(|row| above(row, *k)) {
                        row[1] = v.clone();
                    }
                }
                Dml::UpdateText(s, k) => {
                    let v = s.map_or(Value::Null, Value::str);
                    db.run(&format!("update t set s = {} where n > {k}", sql_literal(&v)))
                        .unwrap();
                    for row in oracle.iter_mut().filter(|row| above(row, *k)) {
                        row[0] = v.clone();
                    }
                }
                Dml::Delete(k) => {
                    db.run(&format!("delete from t where n < {k}")).unwrap();
                    oracle.retain(|row| num(&row[1]).is_none_or(|n| n >= *k as f64));
                }
                Dml::Ctas(k) => {
                    let name = format!("u{i}");
                    db.run(&format!(
                        "create table {name} as select * from t where n >= {k}"
                    ))
                    .unwrap();
                    let snap: Vec<Vec<Value>> = oracle
                        .iter()
                        .filter(|row| num(&row[1]).is_some_and(|n| n >= *k as f64))
                        .cloned()
                        .collect();
                    ctas.push((name, snap));
                }
            }
            check_table(&db, "t", &oracle, &format!("after op {i} ({op:?})"));
        }
        for (name, snap) in &ctas {
            check_table(&db, name, snap, "final");
        }
        // The same query must come back bit-identical at 1/2/8 threads.
        let mut results = Vec::new();
        for threads in [1usize, 2, 8] {
            maybms_par::set_threads(threads);
            let r = db
                .query("select s, count(*) as n, sum(f) as sf from t group by s")
                .unwrap();
            results.push((threads, r));
        }
        for w in results.windows(2) {
            let (ta, a) = &w[0];
            let (tb, b) = &w[1];
            prop_assert_eq!(a.tuples(), b.tuples(), "threads {} vs {}", ta, tb);
        }
        // An UPDATE of an uncertain table edits data cells only: every
        // row keeps its WSD.
        db.run("create table p as select * from (pick tuples from t with probability 0.5) x")
            .unwrap();
        let before = db.table("p").unwrap().tuples().to_vec();
        prop_assert!(before.iter().all(|r| !r.wsd.is_tautology()));
        db.run("update p set n = 7, s = 'upd' where n > 2").unwrap();
        let after = db.table("p").unwrap().tuples().to_vec();
        prop_assert_eq!(after.len(), before.len());
        for (b, a) in before.iter().zip(&after) {
            prop_assert_eq!(&a.wsd, &b.wsd);
            let mut want = b.data.values().to_vec();
            if above(&want, 2) {
                want[0] = Value::str("upd");
                want[1] = Value::Int(7);
            }
            for (c, (g, w)) in a.data.values().iter().zip(&want).enumerate() {
                assert_cell(g, w, &format!("p column {c}"));
            }
        }
    }
}
