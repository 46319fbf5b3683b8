//! Just enough JSON output for the result lines.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

/// `{"value": v, "unit": u}`.
pub fn metric(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"{}\"", maybms_obs::trace::json_escaped(s))
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            // Rust's shortest round-trip form keeps every digit measured.
            Json::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_objects_and_escapes() {
        let j = Json::obj([
            ("a", Json::Int(3)),
            ("b", Json::Num(0.5)),
            ("c", Json::Str("q\"\\\n".into())),
            ("d", Json::obj([("x", Json::Null), ("y", Json::Bool(true))])),
            ("e", Json::Num(f64::NAN)),
            ("f", Json::Num(2.0)),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"a": 3, "b": 0.5, "c": "q\"\\\u000a", "d": {"x": null, "y": true}, "e": null, "f": 2.0}"#
        );
    }
}
