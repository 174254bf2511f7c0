//! In-memory span recording for the traced run.
//!
//! A span wraps one call into a layer's public function. Spans carry a
//! name, host start and end (ns since the recorder was made), the span
//! that caused them and the frame they belong to. They stay in memory
//! until [`Tracer::write_jsonl`] writes them out at the end of the run.

use crate::stats::self_time;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub frame: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. With `enabled == false` the wrapped calls still run,
/// but nothing is timed or stored: the same code path measures tracing
/// overhead.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    frame: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            frame: 0,
        }
    }

    /// Sets the frame id stamped on the spans that follow.
    pub fn set_frame(&mut self, frame: u64) {
        self.frame = frame;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.span_named(f, |_| name)
    }

    /// Like [`Tracer::span`], but the name is chosen from the result
    /// (e.g. intra vs inter once the encoder has decided).
    pub fn span_named<R>(
        &mut self,
        f: impl FnOnce(&mut Self) -> R,
        name: impl FnOnce(&R) -> &'static str,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: "",
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            frame: self.frame,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.name = name(&out);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span, the ns of its interval its children cover.
    pub fn covered_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| s.dur_ns() - self_time(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Per-name totals: calls, total ns and self ns.
    pub fn by_name(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(self.covered_ns()) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns() - covered;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"frame\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.frame
            )?;
        }
        w.flush()
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTotals {
    /// Mean ms per call, 0 when never called.
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.set_frame(7);
        let v = t.span("frame", |t| {
            let a = t.span("render", |_| 2);
            let b = t.span_named(|_| 3, |&r| if r == 3 { "encode_inter" } else { "x" });
            a + b
        });
        assert_eq!(v, 5);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "frame");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].name, "encode_inter");
        assert!(spans.iter().all(|s| s.frame == 7));
        let totals = t.by_name();
        let frame = totals["frame"];
        let kids = totals["render"].total_ns + totals["encode_inter"].total_ns;
        assert_eq!(frame.self_ns, frame.total_ns - kids);
    }

    #[test]
    fn disabled_tracer_runs_the_call_and_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("render", |_| 4), 4);
        assert!(t.spans().is_empty());
    }
}
