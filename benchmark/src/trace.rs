//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span is (name, start, end, parent, request id); spans of one request
//! share the id. They stay in memory during the run and are written out as
//! JSON lines when it ends, so recording costs one `Vec::push` per call.

use std::io::Write;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// This span's id, unique within the tracer (1-based; 0 = no parent).
    pub id: u32,
    pub parent: u32,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    epoch: Instant,
    /// Off for the runs that give the end-to-end numbers: `span` then
    /// calls straight through, without reading the clock.
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; `close` stamps its end. Returns 0 while disabled.
    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        if id != 0 {
            self.spans[id as usize - 1].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span; `f` gets the span's id to parent its own.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce(&mut Tracer, u32) -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let out = f(self, id);
        self.close(id);
        out
    }

    /// Record a span measured elsewhere (a client thread's request).
    pub fn record(&mut self, name: &'static str, request: u64, start_ns: u64, end_ns: u64) {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            name,
            id,
            parent: 0,
            request,
            start_ns,
            end_ns,
        });
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
