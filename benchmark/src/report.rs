//! What a run reports: named metrics with units and sample counts, the
//! operation counts, and the one-line JSON result the driver reads.

use std::fmt::Write as _;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (rounds for a best-round value).
    pub n: usize,
    /// The per-round values a best round was taken from, for the log: a
    /// run disturbed by a neighbour shows here as rounds off the best.
    pub rounds: Vec<f64>,
}

/// End-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("images_per_s", "img/s"),
    ("lat_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order. Every traced run prints
/// all of them; one that does not apply to a workload (`net.*` offline,
/// attention in a convolutional model) reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("net.parse_us", "us"),
    ("net.write_us", "us"),
    ("net.residual_ms", "ms"),
    ("net.body_kb", "KiB"),
    ("net.accepted", "count"),
    ("net.responded_ok", "count"),
    ("net.rejected_or_shed", "count"),
    ("imaging.decode_ms", "ms"),
    ("imaging.decode_mpix_s", "Mpx/s"),
    ("imaging.encode_ms", "ms"),
    ("preproc.transform_ms", "ms"),
    ("serving.batch_mean", "img"),
    ("serving.batches", "count"),
    ("serving.queue_wait_ms", "ms"),
    ("serving.offer_us", "us"),
    ("engine.forward_ms", "ms"),
    ("engine.forward_b1_ms", "ms"),
    ("engine.gflops", "GFLOP/s"),
    ("engine.materialize_ms", "ms"),
    ("engine.artifact_encode_ms", "ms"),
    ("engine.artifact_decode_ms", "ms"),
    ("engine.scratch_hit_share", "share"),
    ("engine.peak_live_mb", "MiB"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.attention_gflops", "GFLOP/s"),
    ("tensor.conv_gflops", "GFLOP/s"),
    ("tensor.norm_act_ms", "ms"),
    ("tensor.model_over_kernel", "ratio"),
    ("threads.forward_speedup", "ratio"),
    ("models.gmacs_per_image", "GMAC"),
    ("data.render_encode_ms", "ms"),
    ("proc.cpu_ms_per_image", "ms"),
    ("proc.cpu_util", "share"),
    ("lat_p90_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("slo_ok_share", "share"),
    ("gen.late_max_ms", "ms"),
    ("trace.overhead_share", "share"),
];

/// The metrics of one run, filled in by name against a fixed schema so a
/// run can neither omit a metric nor invent one.
pub struct Sheet {
    metrics: Vec<Metric>,
}

impl Sheet {
    pub fn new(schema: &[(&'static str, &'static str)]) -> Sheet {
        Sheet {
            metrics: schema
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    unit,
                    value: 0.0,
                    n: 0,
                    rounds: Vec::new(),
                })
                .collect(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let m = self
            .metrics
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the schema"));
        m.value = value;
        m.n = n;
    }

    /// Set `name` to the best of the per-round `values`: the highest, or
    /// the lowest for a metric where lower is better.
    pub fn set_best_round(&mut self, name: &str, values: &[f64], higher_is_better: bool) {
        let pick = if higher_is_better { f64::max } else { f64::min };
        let best = values
            .iter()
            .copied()
            .reduce(pick)
            .expect("at least one round");
        self.set(name, best, values.len());
        let m = self
            .metrics
            .iter_mut()
            .find(|m| m.name == name)
            .expect("set above");
        m.rounds = values.to_vec();
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, for the human reading the log.
    pub notes: Vec<String>,
    pub sheet: Sheet,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.sheet.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Every metric by name, unit and sample count, then the counts.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.sheet.metrics {
            let _ = writeln!(
                out,
                "  {:<28} {:>14.4} {:<8} n={}",
                m.name, m.value, m.unit, m.n
            );
            if !m.rounds.is_empty() {
                let rounds: Vec<String> = m.rounds.iter().map(|v| format!("{v:.2}")).collect();
                let _ = writeln!(out, "      per round: {}", rounds.join(" "));
            }
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "  attempted {}  failed {}  failed_share {share:.6}",
            self.attempted, self.failed
        );
        for note in &self.notes {
            let _ = writeln!(out, "  FAILED: {note}");
        }
        out
    }

    /// The result line: one JSON object, the last line of standard output.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .sheet
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A result line read back by the suite from a child's output.
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit) in the order printed.
    pub metrics: Vec<(String, f64, String)>,
}

impl ResultLine {
    /// Parse a line `json_line` wrote. Not a JSON parser: it reads the one
    /// layout this file writes.
    pub fn parse(line: &str) -> Option<ResultLine> {
        let field = |key: &str| {
            let rest = &line[line.find(key)? + key.len()..];
            Some(rest[..rest.find([',', '}'])?].trim())
        };
        let correct = field("\"correct\":")? == "true";
        let attempted = field("\"attempted\":")?.parse().ok()?;
        let failed = field("\"failed\":")?.parse().ok()?;
        let body = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
        let mut metrics = Vec::new();
        for entry in body.split("}, ") {
            let (name, rest) = entry
                .trim_start_matches('"')
                .split_once("\": {\"value\": ")?;
            let (value, unit) = rest.split_once(", \"unit\": \"")?;
            let unit = unit.trim_end_matches(['}', '"']);
            metrics.push((name.to_string(), value.parse().ok()?, unit.to_string()));
        }
        Some(ResultLine {
            correct,
            attempted,
            failed,
            metrics,
        })
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}
