//! Benchmark-side spans around each call into a layer's public API.
//!
//! Each load thread owns a [`Tracer`]; spans stay in its memory until
//! the run ends, when they are merged, reduced to per-layer self times
//! and written as a chrome-trace document. A tracer that is off records
//! nothing and reads no clock.

use std::time::Instant;

/// The stack layer a span's call enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own loop: rounds, clients, the open-loop generator.
    Bench,
    /// `mo_algorithms::real::par_*` kernels (the SB runtime runs inside).
    Algos,
    /// `Server::submit` and `Ticket::wait`.
    Serve,
    /// `Router` calls into the fleet.
    Dist,
}

impl Layer {
    pub const ALL: [Layer; 4] = [Layer::Bench, Layer::Algos, Layer::Serve, Layer::Dist];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Algos => "algos",
            Layer::Serve => "serve",
            Layer::Dist => "dist",
        }
    }
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    /// Load thread that recorded it.
    pub tid: u32,
    /// Request or round id the span belongs to.
    pub id: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an open span; `None` when tracing is off.
pub type Open = Option<usize>;

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    tid: u32,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, tid: u32, epoch: Instant) -> Self {
        Self {
            on,
            tid,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether this tracer records.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, layer: Layer, id: u64) -> Open {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            tid: self.tid,
            id,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Close the innermost open span, which must be `open`.
    pub fn close(&mut self, open: Open) {
        let Some(idx) = open else { return };
        assert_eq!(self.stack.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "every span that opens closes");
        self.spans
    }
}

/// Self time per layer in nanoseconds, in [`Layer::ALL`] order: each
/// span's duration minus the part its direct children cover. `spans`
/// holds one tracer's spans (parents index into it).
pub fn self_ns(spans: &[Span]) -> [u64; 4] {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = [0u64; 4];
    for (s, c) in spans.iter().zip(&child) {
        let layer = Layer::ALL.iter().position(|l| *l == s.layer).unwrap_or(0);
        out[layer] += (s.end_ns - s.start_ns).saturating_sub(*c);
    }
    out
}

/// Render the first `cap` spans of each tracer as a chrome-trace
/// document (complete `X` events in microseconds, one track per load
/// thread). Returns the document and the number of spans written.
pub fn to_chrome(tracers: &[Vec<Span>], cap: usize) -> (String, usize) {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut written = 0usize;
    for spans in tracers {
        for s in spans.iter().take(cap) {
            if written > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.layer.name(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.tid,
                s.id,
                parent
            ));
            written += 1;
        }
    }
    out.push_str("]}");
    (out, written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            layer,
            tid: 0,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(Layer::Bench, None, 0, 100),
            span(Layer::Algos, Some(0), 10, 40),
            span(Layer::Algos, Some(0), 50, 90),
            span(Layer::Serve, Some(2), 60, 70),
        ];
        assert_eq!(self_ns(&spans), [30, 60, 10, 0]);
    }

    #[test]
    fn off_tracer_records_nothing_and_chrome_output_validates() {
        let epoch = Instant::now();
        let mut off = Tracer::new(false, 0, epoch);
        let o = off.open("x", Layer::Bench, 1);
        off.close(o);
        assert!(off.into_spans().is_empty());

        let mut on = Tracer::new(true, 3, epoch);
        let round = on.open("round", Layer::Bench, 1);
        let call = on.open("call", Layer::Algos, 1);
        on.close(call);
        on.close(round);
        let spans = on.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        let (doc, n) = to_chrome(&[spans], 10);
        assert_eq!(n, 2);
        mo_obs::chrome::validate(&doc).unwrap();
    }
}
