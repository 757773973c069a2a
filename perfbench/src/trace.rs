//! In-memory spans, written out once when the benchmark ends.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Every op keeps one id across the depths it is replayed at, and a
//! span's parent is the same op's span one depth up, so a layer's self
//! time is its span minus its child spans.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Where a span was recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Depth {
    /// The measured closed-loop run (client calls, two connections).
    Live,
    /// Replay through `Client` over loopback.
    Client,
    /// Replay through `TenantHandle` (actor, no transport).
    Actor,
    /// Replay against a bare `Workspace`.
    Workspace,
    /// Per-component re-solves with the tenant's `SolveSession`.
    Solver,
}

impl Depth {
    fn name(self) -> &'static str {
        match self {
            Depth::Live => "live",
            Depth::Client => "client",
            Depth::Actor => "actor",
            Depth::Workspace => "workspace",
            Depth::Solver => "solver",
        }
    }
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub parent: Option<u32>,
    pub op: u32,
    pub depth: Depth,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// The span store; a span's id is its index.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's origin.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its id.
    pub fn record(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Time `f` as a span; returns its value and the span id.
    pub fn time<T>(
        &mut self,
        depth: Depth,
        name: &'static str,
        op: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.record(Span {
            parent,
            op,
            depth,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        (out, id)
    }

    pub fn get(&self, id: u32) -> &Span {
        &self.spans[id as usize]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one tab-separated line:
    /// `id parent op depth name start_ns end_ns` (`-` for no parent).
    pub fn write_tsv(&self, path: &Path, header: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        writeln!(out, "# {header}")?;
        writeln!(out, "id\tparent\top\tdepth\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.op,
                s.depth.name(),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
