//! Spans around the calls into each layer, recorded by the benchmark.
//!
//! Tracing is off unless [`arm`] turned it on for this thread; [`span`]
//! then costs one thread-local flag read. When on, each span records its
//! layer, parent, input id, start and end, and the allocations and bytes
//! requested while it was open. Spans of one input are folded into
//! per-layer totals by [`finish_input`], and the first spans up to a cap
//! set in advance are kept for a Chrome trace-event file.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use irdl_ir::OpName;
use irdl_rewrite::{MatchProgram, RewritePattern, Rewriter};

use crate::alloc;

/// A layer boundary the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One input through the whole flow; the parent of every other span.
    Module,
    Parse,
    Decode,
    Verify,
    Drive,
    Conorm,
    Fold,
    Print,
    Encode,
    Erase,
}

impl Layer {
    pub const COUNT: usize = 10;
    pub const ALL: [Layer; Layer::COUNT] = [
        Layer::Module,
        Layer::Parse,
        Layer::Decode,
        Layer::Verify,
        Layer::Drive,
        Layer::Conorm,
        Layer::Fold,
        Layer::Print,
        Layer::Encode,
        Layer::Erase,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Module => "module",
            Layer::Parse => "ir.parse",
            Layer::Decode => "ir.decode",
            Layer::Verify => "ir.verify",
            Layer::Drive => "rewrite.drive",
            Layer::Conorm => "rewrite.pattern.conorm",
            Layer::Fold => "rewrite.pattern.fold-constants",
            Layer::Print => "ir.print",
            Layer::Encode => "ir.encode",
            Layer::Erase => "ir.erase",
        }
    }

    /// The span layer of a rewrite pattern, by pattern name.
    fn of_pattern(name: &str) -> Option<Layer> {
        match name {
            "conorm" => Some(Layer::Conorm),
            "fold-constants" => Some(Layer::Fold),
            _ => None,
        }
    }
}

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since [`arm`]; `allocs` and
/// `bytes` count what was requested while the span was open, its
/// children's requests included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    /// Index of the enclosing span in the same slice, or [`NO_PARENT`].
    pub parent: u32,
    pub input: u32,
    pub start: u64,
    pub end: u64,
    pub allocs: u64,
    pub bytes: u64,
}

/// Writes into `out`, per span, `value(span)` minus the values of its
/// direct children: a span's self time when `value` is its duration.
/// Parents must precede their children, as they do in recording order.
pub fn self_values(spans: &[Span], value: impl Fn(&Span) -> u64, out: &mut Vec<u64>) {
    out.clear();
    out.extend(spans.iter().map(&value));
    for span in spans {
        if span.parent != NO_PARENT {
            let parent = &mut out[span.parent as usize];
            *parent = parent.saturating_sub(value(span));
        }
    }
}

/// Per-layer sums over every finished input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub total_allocs: u64,
    pub self_allocs: u64,
}

struct Recorder {
    clock: Instant,
    input: u32,
    open: Vec<u32>,
    /// Spans of the input in progress.
    spans: Vec<Span>,
    /// Spans kept for the trace file, with absolute parent indices.
    kept: Vec<Span>,
    scratch: Vec<u64>,
    totals: [LayerTotals; Layer::COUNT],
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Turns tracing on for this thread with buffers sized in advance:
/// `per_input` spans for the input in progress and `keep` spans for the
/// trace file.
pub fn arm(per_input: usize, keep: usize) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            clock: Instant::now(),
            input: 0,
            open: Vec::with_capacity(16),
            spans: Vec::with_capacity(per_input),
            kept: Vec::with_capacity(keep),
            scratch: Vec::with_capacity(per_input),
            totals: [LayerTotals::default(); Layer::COUNT],
        })
    });
    ON.with(|on| on.set(true));
}

/// Turns tracing off and returns the per-layer totals (indexed like
/// [`Layer::ALL`]) and the kept spans.
pub fn disarm() -> ([LayerTotals; Layer::COUNT], Vec<Span>) {
    ON.with(|on| on.set(false));
    let recorder = RECORDER
        .with(|r| r.borrow_mut().take())
        .expect("tracing was armed");
    (recorder.totals, recorder.kept)
}

/// Whether tracing is on for this thread.
pub fn on() -> bool {
    ON.with(Cell::get)
}

/// Runs `f` inside a span of `layer` when tracing is on.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !on() {
        return f();
    }
    let index = RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut().expect("tracing was armed");
        let index = rec.spans.len() as u32;
        let parent = rec.open.last().copied().unwrap_or(NO_PARENT);
        let input = rec.input;
        rec.open.push(index);
        let start = rec.clock.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            layer,
            parent,
            input,
            start,
            end: start,
            allocs: alloc::allocs(),
            bytes: alloc::bytes(),
        });
        index
    });
    let result = f();
    RECORDER.with(|r| {
        let (allocs, bytes) = (alloc::allocs(), alloc::bytes());
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut().expect("tracing was armed");
        let end = rec.clock.elapsed().as_nanos() as u64;
        let span = &mut rec.spans[index as usize];
        span.end = end;
        span.allocs = allocs - span.allocs;
        span.bytes = bytes - span.bytes;
        rec.open.pop();
    });
    result
}

/// Folds the spans of the input just processed into the layer totals and
/// keeps them for the trace file while there is room.
pub fn finish_input() {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let Recorder {
            input,
            open,
            spans,
            kept,
            scratch,
            totals,
            ..
        } = guard.as_mut().expect("tracing was armed");
        self_values(spans, |s| s.end - s.start, scratch);
        for (span, &self_ns) in spans.iter().zip(scratch.iter()) {
            let t = &mut totals[span.layer as usize];
            t.spans += 1;
            t.total_ns += span.end - span.start;
            t.self_ns += self_ns;
            t.total_allocs += span.allocs;
        }
        self_values(spans, |s| s.allocs, scratch);
        for (span, &self_allocs) in spans.iter().zip(scratch.iter()) {
            totals[span.layer as usize].self_allocs += self_allocs;
        }
        if kept.len() + spans.len() <= kept.capacity() {
            let base = kept.len() as u32;
            kept.extend(spans.iter().map(|s| Span {
                parent: if s.parent == NO_PARENT {
                    NO_PARENT
                } else {
                    base + s.parent
                },
                ..*s
            }));
        }
        spans.clear();
        // A panic caught mid-input leaves spans open; they end here.
        open.clear();
        *input += 1;
    });
}

/// Writes each workload's spans as Chrome trace-event JSON, one process
/// per workload, which Perfetto and `chrome://tracing` open.
pub fn write_chrome(path: &std::path::Path, runs: &[(&str, &[Span])]) -> std::io::Result<()> {
    let total: usize = runs.iter().map(|(_, spans)| spans.len()).sum();
    let mut out = String::with_capacity(total * 180 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (pid, (workload, spans)) in runs.iter().enumerate() {
        let pid = pid + 1;
        let sep = if pid == 1 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":1,\
             \"args\":{{\"name\":\"{workload}\"}}}}"
        );
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"irdlbench\",\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"input\":{},\"span\":{i},\"parent\":{parent},\
                 \"allocs\":{},\"bytes\":{}}}}}",
                s.layer.name(),
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.input,
                s.allocs,
                s.bytes,
            );
        }
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(out.as_bytes())?;
    file.flush()
}

/// A rewrite pattern wrapped for the traced run: every attempt is a span
/// and is counted, and so is every application. Dispatch data (root,
/// benefit, name, match program) is forwarded, so the rewrite driver
/// tries the same patterns in the same order as without the wrapper.
pub struct TracedPattern {
    inner: Arc<dyn RewritePattern>,
    layer: Layer,
    pub attempts: AtomicU64,
    pub applied: AtomicU64,
}

impl TracedPattern {
    /// Wraps `inner`, whose name must be one the benchmark has a layer for.
    pub fn new(inner: Arc<dyn RewritePattern>) -> TracedPattern {
        let layer = Layer::of_pattern(inner.name())
            .unwrap_or_else(|| panic!("no span layer for pattern `{}`", inner.name()));
        TracedPattern {
            inner,
            layer,
            attempts: AtomicU64::new(0),
            applied: AtomicU64::new(0),
        }
    }

    pub fn layer(&self) -> Layer {
        self.layer
    }
}

impl RewritePattern for TracedPattern {
    fn root(&self) -> Option<OpName> {
        self.inner.root()
    }

    fn benefit(&self) -> usize {
        self.inner.benefit()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn match_program(&self) -> Option<MatchProgram> {
        self.inner.match_program()
    }

    fn match_and_rewrite(&self, rewriter: &mut Rewriter<'_>) -> bool {
        self.attempts.fetch_add(1, Ordering::Relaxed);
        let applied = span(self.layer, || self.inner.match_and_rewrite(rewriter));
        if applied {
            self.applied.fetch_add(1, Ordering::Relaxed);
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(layer: Layer, parent: u32, start: u64, end: u64, allocs: u64) -> Span {
        Span {
            layer,
            parent,
            input: 0,
            start,
            end,
            allocs,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // module [0,100) ─┬─ parse [5,35)
        //                 ├─ drive [40,90) ─┬─ conorm [45,55)
        //                 │                 └─ fold   [60,80)
        //                 └─ erase [92,98)
        let spans = [
            s(Layer::Module, NO_PARENT, 0, 100, 20),
            s(Layer::Parse, 0, 5, 35, 7),
            s(Layer::Drive, 0, 40, 90, 9),
            s(Layer::Conorm, 2, 45, 55, 2),
            s(Layer::Fold, 2, 60, 80, 4),
            s(Layer::Erase, 0, 92, 98, 0),
        ];
        let mut out = Vec::new();
        self_values(&spans, |s| s.end - s.start, &mut out);
        assert_eq!(out, [14, 30, 20, 10, 20, 6]);
        assert_eq!(
            out.iter().sum::<u64>(),
            100,
            "self times partition the root"
        );
        self_values(&spans, |s| s.allocs, &mut out);
        assert_eq!(out, [4, 7, 3, 2, 4, 0]);
    }

    #[test]
    fn finish_input_folds_totals_and_keeps_spans() {
        arm(64, 64);
        for _ in 0..2 {
            span(Layer::Module, || {
                span(Layer::Parse, || std::hint::black_box(vec![0u8; 16]));
                span(Layer::Erase, || ());
            });
            finish_input();
        }
        let (totals, kept) = disarm();
        assert!(!on());
        assert_eq!(kept.len(), 6);
        assert_eq!(
            (kept[3].parent, kept[4].parent, kept[4].input),
            (NO_PARENT, 3, 1)
        );
        let module = totals[Layer::Module as usize];
        let parse = totals[Layer::Parse as usize];
        let erase = totals[Layer::Erase as usize];
        assert_eq!((module.spans, parse.spans, erase.spans), (2, 2, 2));
        assert_eq!(
            module.self_ns + parse.self_ns + erase.self_ns,
            module.total_ns
        );
        assert!(
            parse.self_allocs >= 2,
            "one allocation per parse span: {parse:?}"
        );
    }
}
