//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are held in memory while measuring and written out once, at
//! exit, as one JSON object per line (`out/trace-<workload>.jsonl`):
//! `{"id","name","start_ns","end_ns","parent","packet"}`. A span's
//! *self time* is its duration minus the durations of the spans naming it
//! as parent.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// No parent / no packet.
pub const NONE: u64 = u64::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified call name, e.g. `engine.ingest`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NONE`].
    pub parent: u64,
    /// The packet id all spans of one packet share, or [`NONE`].
    pub packet: u64,
}

/// Per-name summary over a tracer's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageStats {
    /// Spans with this name.
    pub count: u64,
    /// Median duration, ns.
    pub p50_ns: f64,
    /// 99th-percentile duration, ns.
    pub p99_ns: f64,
    /// Total duration, ns.
    pub total_ns: f64,
    /// Total self time (children subtracted), ns.
    pub self_ns: f64,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty log whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: u64, packet: u64) -> u64 {
        let at = self.now();
        self.spans.push(Span { name, start_ns: at, end_ns: at, parent, packet });
        self.spans.len() as u64 - 1
    }

    /// Closes the span `id`.
    pub fn end(&mut self, id: u64) {
        let at = self.now();
        self.spans[id as usize].end_ns = at;
    }

    /// Records a span around `f`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        packet: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_ns = self.now();
        let r = f();
        let end_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns, parent, packet });
        r
    }

    /// Records a span whose bounds the caller measured with
    /// [`Tracer::now`].
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u64,
        packet: u64,
    ) {
        self.spans.push(Span { name, start_ns, end_ns, parent, packet });
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name count, percentiles, total and self time.
    pub fn summarize(&self) -> BTreeMap<&'static str, StageStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (Vec<f32>, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0.push(dur as f32);
            e.1 += dur.saturating_sub(*child) as f64;
        }
        by_name
            .into_iter()
            .map(|(name, (mut durs, self_ns))| {
                durs.sort_by(f32::total_cmp);
                let stats = StageStats {
                    count: durs.len() as u64,
                    p50_ns: crate::stats::percentile_sorted(&durs, 0.50),
                    p99_ns: crate::stats::percentile_sorted(&durs, 0.99),
                    total_ns: durs.iter().map(|d| f64::from(*d)).sum(),
                    self_ns,
                };
                (name, stats)
            })
            .collect()
    }

    /// Writes the first `limit` spans, one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, limit: usize) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: u64| if v == NONE { "null".to_string() } else { v.to_string() };
        for (id, s) in self.spans.iter().enumerate().take(limit) {
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"packet\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.packet)
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.spans.push(Span { name: "outer", start_ns: 0, end_ns: 100, parent: NONE, packet: 7 });
        t.spans.push(Span { name: "inner", start_ns: 10, end_ns: 40, parent: 0, packet: 7 });
        t.spans.push(Span { name: "inner", start_ns: 50, end_ns: 60, parent: 0, packet: 7 });
        let s = t.summarize();
        assert_eq!(s["outer"].count, 1);
        assert_eq!(s["outer"].total_ns, 100.0);
        assert_eq!(s["outer"].self_ns, 60.0);
        assert_eq!(s["inner"].count, 2);
        assert_eq!(s["inner"].self_ns, 40.0);
        assert_eq!(s["inner"].p50_ns, 10.0);
        assert_eq!(s["inner"].p99_ns, 30.0);
    }
}
