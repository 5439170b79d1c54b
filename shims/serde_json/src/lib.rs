//! Offline stand-in for the subset of serde_json this workspace uses:
//! [`Value`], the [`json!`] macro, [`to_string`] and [`to_string_pretty`].
//!
//! Rendering is deterministic: object keys keep insertion order, floats use
//! Rust's shortest round-trip `Display`, and non-finite floats render as
//! `null` (serde_json errors there; artifacts never contain them).

pub use serde::{Serialize, Value};

/// Serialization error. The shim's rendering is infallible, but the real
/// serde_json returns `Result`, so callers `?`/`unwrap` — keep the shape.
#[derive(Debug)]
pub struct Error;

/// Render compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), None, 0, &mut out);
    Ok(out)
}

/// Render human-readable JSON with 2-space indentation (serde_json style).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), Some(2), 0, &mut out);
    Ok(out)
}

fn write_value(v: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_value(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_escaped(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push('}');
        }
    }
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_float(f: f64, out: &mut String) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    // Match serde_json: integral floats get a ".0" suffix so they read back
    // as floats.
    if f == f.trunc() && f.abs() < 1e15 {
        out.push_str(&format!("{f:.1}"));
    } else {
        out.push_str(&f.to_string());
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Build a [`Value`] from JSON-looking syntax. Supports the shapes the
/// workspace uses: object literals with string-literal keys and expression
/// values, array literals of expressions, and bare expressions.
#[macro_export]
macro_rules! json {
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::json!($elem) ),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( ($key.to_string(), $crate::Serialize::to_value(&$val)) ),*
        ])
    };
    ($other:expr) => { $crate::Serialize::to_value(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_agree_on_structure() {
        let v = json!({ "a": 1u32, "b": [1u8, 2u8], "c": "x" });
        assert_eq!(to_string(&v).unwrap(), r#"{"a":1,"b":[1,2],"c":"x"}"#);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  \"a\": 1"), "{pretty}");
    }

    #[test]
    fn floats_render_like_serde_json() {
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&2.5f64).unwrap(), "2.5");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(to_string(&"a\"b\n").unwrap(), r#""a\"b\n""#);
    }

    #[test]
    fn object_keys_keep_insertion_order() {
        let v = json!({ "z": 1u8, "a": 2u8 });
        assert_eq!(to_string(&v).unwrap(), r#"{"z":1,"a":2}"#);
    }
}
