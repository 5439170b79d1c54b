//! `BENCHMARK.json`, read for what the suite needs from it: the workload
//! and metric names it promises, the bounds, and the run length. Not a
//! JSON parser: it reads flat objects whose values are strings or numbers,
//! which is all that file holds.

use std::path::PathBuf;

pub struct Entry {
    pub name: String,
    /// `bound` of an end-to-end metric.
    pub bound: Option<f64>,
    pub lower_is_better: bool,
}

pub struct Schema {
    pub run_seconds: f64,
    pub workloads: Vec<Entry>,
    pub end_to_end: Vec<Entry>,
    pub per_layer: Vec<Entry>,
}

/// The text of the array under `key`.
fn array<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let key = format!("\"{key}\":");
    let rest = &text[text.find(&key)? + key.len()..];
    let rest = &rest[rest.find('[')? + 1..];
    Some(&rest[..rest.find(']')?])
}

/// The value of `key` in one flat object, quotes stripped.
fn value<'a>(object: &'a str, key: &str) -> Option<&'a str> {
    let key = format!("\"{key}\":");
    let rest = object[object.find(&key)? + key.len()..].trim_start();
    match rest.strip_prefix('"') {
        Some(s) => Some(&s[..s.find('"')?]),
        None => Some(rest[..rest.find([',', '}', '\n']).unwrap_or(rest.len())].trim()),
    }
}

fn entries(text: &str, key: &str) -> Result<Vec<Entry>, String> {
    let body = array(text, key).ok_or_else(|| format!("BENCHMARK.json has no {key} array"))?;
    body.split('{')
        .skip(1)
        .map(|object| {
            Ok(Entry {
                name: value(object, "name")
                    .ok_or_else(|| format!("a {key} entry has no name"))?
                    .to_string(),
                bound: value(object, "bound").and_then(|b| b.parse().ok()),
                lower_is_better: value(object, "better") == Some("lower"),
            })
        })
        .collect()
}

impl Schema {
    /// Read the `BENCHMARK.json` next to this package's directory.
    pub fn load() -> Result<Schema, String> {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Schema {
            run_seconds: value(&text, "run_seconds")
                .and_then(|v| v.parse().ok())
                .ok_or("BENCHMARK.json has no run_seconds")?,
            workloads: entries(&text, "workloads")?,
            end_to_end: entries(&text, "end_to_end")?,
            per_layer: entries(&text, "per_layer")?,
        })
    }
}
