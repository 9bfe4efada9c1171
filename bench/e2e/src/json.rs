//! JSON output. Reading goes through `gmt_metrics::json::parse`; its
//! writer has no floating-point numbers, so results are built as values
//! here and printed with every digit they were measured with.

use gmt_metrics::json::Value;
use std::fmt::{self, Write as _};

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A measured value that may be absent: `null` when it is.
    pub fn opt(v: Option<f64>) -> Json {
        v.map_or(Json::Null, Json::Num)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

/// A parsed value as an output value.
impl From<&Value> for Json {
    fn from(v: &Value) -> Json {
        match v {
            Value::Null => Json::Null,
            Value::Bool(b) => Json::Bool(*b),
            Value::Num(n) => Json::Num(*n),
            Value::Str(s) => Json::Str(s.clone()),
            Value::Arr(items) => Json::Arr(items.iter().map(Json::from).collect()),
            Value::Obj(map) => Json::Obj(map.iter().map(|(k, v)| (k.clone(), v.into())).collect()),
        }
    }
}

pub fn write_str(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for ch in s.chars() {
        match ch {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // JSON has no NaN or infinity; a value that is not a number
            // is absent.
            Json::Num(n) if !n.is_finite() => f.write_str("null"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_metrics::json::parse;

    #[test]
    fn output_parses_back_with_all_digits() {
        let doc = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::from(1_048_576)),
            ("lat", Json::Num(309.712_345_678_9)),
            ("tiny", Json::Num(0.000_000_123)),
            ("absent", Json::opt(None)),
            ("nan", Json::Num(f64::NAN)),
            ("name", Json::str("a \"quoted\"\tname\n")),
            ("list", Json::Arr(vec![Json::from(1), Json::Null])),
        ]);
        let text = doc.to_string();
        assert!(!text.contains('\n'), "one line: {text}");
        let v = parse(&text).unwrap();
        assert_eq!(v.get("attempted").unwrap().as_u64(), Some(1_048_576));
        assert_eq!(v.get("lat").unwrap().as_f64(), Some(309.712_345_678_9));
        assert_eq!(v.get("tiny").unwrap().as_f64(), Some(0.000_000_123));
        assert_eq!(v.get("name").unwrap().as_str(), Some("a \"quoted\"\tname\n"));
        assert!(v.get("absent").unwrap().as_f64().is_none());
        assert!(v.get("nan").unwrap().as_f64().is_none());
    }
}
