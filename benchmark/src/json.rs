//! Compact one-line JSON over the workspace's [`Value`] model, plus the
//! lookups the result and compare paths need. Parsing reuses
//! `wavelan_analysis::json::parse`.

pub use wavelan_analysis::json::{parse, Value};

/// A JSON number for `v`, with every digit Rust's shortest round-trip
/// formatting gives (`null` for a non-finite value).
pub fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::Number(format!("{v:?}"))
    } else {
        Value::Null
    }
}

/// A JSON integer.
pub fn int(v: u64) -> Value {
    Value::Number(v.to_string())
}

/// A JSON string.
pub fn string(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// An object from `(key, value)` pairs, in order.
pub fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Renders `value` on one line with no insignificant whitespace.
pub fn compact(value: &Value) -> String {
    let mut out = String::new();
    write(value, &mut out);
    out
}

fn write(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(lexeme) => out.push_str(lexeme),
        Value::Str(s) => quote(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                quote(k, out);
                out.push(':');
                write(v, out);
            }
            out.push('}');
        }
    }
}

fn quote(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The number at `key` of an object, if present and numeric.
pub fn get_f64(value: &Value, key: &str) -> Option<f64> {
    match value.get(key)? {
        Value::Number(lexeme) => lexeme.parse().ok(),
        _ => None,
    }
}

/// The string at `key` of an object, if present.
pub fn get_str<'a>(value: &'a Value, key: &str) -> Option<&'a str> {
    match value.get(key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// The array at `key` of an object (empty when absent).
pub fn get_array<'a>(value: &'a Value, key: &str) -> &'a [Value] {
    match value.get(key) {
        Some(Value::Array(items)) => items,
        _ => &[],
    }
}

/// The entries of the object at `key` (empty when absent).
pub fn get_entries<'a>(value: &'a Value, key: &str) -> &'a [(String, Value)] {
    match value.get(key) {
        Some(Value::Object(entries)) => entries,
        _ => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_output_round_trips() {
        let v = object([
            ("correct", Value::Bool(true)),
            ("attempted", int(3)),
            ("name", string("a \"b\"\n")),
            ("x", num(0.1)),
            ("list", Value::Array(vec![int(1), Value::Null])),
        ]);
        let text = compact(&v);
        assert!(!text.contains('\n'));
        assert_eq!(parse(&text).expect("valid"), v);
        assert_eq!(get_f64(&v, "x"), Some(0.1));
        assert_eq!(get_str(&v, "name"), Some("a \"b\"\n"));
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(compact(&num(1.2034567891234)), "1.2034567891234");
        assert_eq!(compact(&num(f64::NAN)), "null");
    }
}
