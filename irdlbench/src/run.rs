//! Passes over an input set: untimed reference and warm-up passes, and
//! the closed-loop measured phase (one client, one thread, the next input
//! sent when the previous one completes).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::alloc;
use crate::flow::{Output, Worker};
use crate::inputs::InputSet;
use crate::stats;
use crate::trace::{self, Layer};

/// Runs every input once into fresh outputs; returns them with the
/// pass's wall time in nanoseconds.
pub fn reference_pass(worker: &mut Worker, set: &InputSet) -> (Vec<Output>, u64) {
    let mut outputs = vec![Output::default(); set.inputs.len()];
    let start = Instant::now();
    for (input, out) in set.inputs.iter().zip(&mut outputs) {
        worker.process(&input.payload, out);
    }
    (outputs, start.elapsed().as_nanos() as u64)
}

/// Runs one untimed pass into `outputs` and clears `ok` for every input
/// whose output differs from `reference`.
pub fn warm_up(
    worker: &mut Worker,
    set: &InputSet,
    reference: &[Output],
    outputs: &mut [Output],
    ok: &mut [bool],
) {
    for (i, input) in set.inputs.iter().enumerate() {
        worker.process(&input.payload, &mut outputs[i]);
        ok[i] &= outputs[i] == reference[i];
    }
}

/// What one measured phase saw.
#[derive(Debug, Default)]
pub struct Phase {
    /// Inputs and input ops per pass.
    pub inputs: usize,
    pub pass_ops: u64,
    /// Wall time of each pass; the untimed work between passes is excluded.
    pub pass_ns: Vec<u64>,
    /// Per-execution latency in nanoseconds, pass after pass.
    pub samples: Vec<u64>,
    /// Input executions, and those whose outcome was wrong.
    pub attempted: u64,
    pub failed: u64,
    /// Allocations made during the first pass.
    pub first_pass_allocs: u64,
    /// Highest live-heap byte count seen during any pass.
    pub peak_live: u64,
}

impl Phase {
    /// The passes throughput comes from: the fastest tenth.
    pub fn quiet_passes(&self) -> Vec<usize> {
        stats::quiet(&self.pass_ns, 1)
    }

    /// Input ops per second over the quiet passes.
    pub fn throughput(&self) -> f64 {
        let quiet = self.quiet_passes();
        let ns: u64 = quiet.iter().map(|&p| self.pass_ns[p]).sum();
        (self.pass_ops * quiet.len() as u64) as f64 / (ns.max(1) as f64 / 1e9)
    }

    /// Each input's best latency over all passes, in milliseconds,
    /// ascending: one sample per input, free of the hiccups a single
    /// execution can hit.
    pub fn best_latencies_ms(&self) -> Vec<f64> {
        let mut best = vec![u64::MAX; self.inputs];
        for pass in self.samples.chunks_exact(self.inputs.max(1)) {
            for (b, &ns) in best.iter_mut().zip(pass) {
                *b = (*b).min(ns);
            }
        }
        let mut ms: Vec<f64> = best.into_iter().map(|ns| ns as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        ms
    }
}

/// Runs whole passes until `seconds` have elapsed or the sample buffer,
/// whose capacity is fixed by the caller, cannot hold another pass. Each
/// execution is timed around the flow's calls; a panic counts as a
/// failure. After each pass, untimed, every output is compared with the
/// checked reference (an input that failed its checks, `ok` false, fails
/// on every execution) and `between` runs.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    worker: &mut Worker,
    set: &InputSet,
    reference: &[Output],
    ok: &[bool],
    outputs: &mut [Output],
    mut samples: Vec<u64>,
    seconds: f64,
    between: &mut dyn FnMut(),
) -> Phase {
    let n = set.inputs.len();
    let traced = trace::on();
    let mut panicked = vec![false; n];
    let mut phase = Phase {
        inputs: n,
        pass_ops: set.ops() as u64,
        pass_ns: Vec::with_capacity(samples.capacity() / n.max(1)),
        ..Phase::default()
    };
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while samples.len() + n <= samples.capacity() {
        let allocs = alloc::allocs();
        alloc::reset_peak();
        let pass_start = Instant::now();
        for (i, input) in set.inputs.iter().enumerate() {
            let out = &mut outputs[i];
            let t0 = Instant::now();
            let run = catch_unwind(AssertUnwindSafe(|| {
                if traced {
                    trace::span(Layer::Module, || worker.process(&input.payload, out));
                } else {
                    worker.process(&input.payload, out);
                }
            }));
            samples.push(t0.elapsed().as_nanos() as u64);
            if traced {
                trace::finish_input();
            }
            panicked[i] = run.is_err();
        }
        phase.pass_ns.push(pass_start.elapsed().as_nanos() as u64);
        phase.peak_live = phase.peak_live.max(alloc::peak());
        if phase.attempted == 0 {
            phase.first_pass_allocs = alloc::allocs() - allocs;
        }
        phase.attempted += n as u64;
        phase.failed += (0..n)
            .filter(|&i| !ok[i] || panicked[i] || outputs[i] != reference[i])
            .count() as u64;
        between();
        if start.elapsed() >= budget {
            break;
        }
    }
    phase.samples = samples;
    phase
}

/// Lexes all `texts`, pass after pass, for at least `seconds`; returns
/// the lexer's rate in MB/s.
pub fn lex_rate(texts: &[&str], seconds: f64) -> f64 {
    let bytes: usize = texts.iter().map(|t| t.len()).sum();
    let start = Instant::now();
    let mut passes = 0usize;
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        for text in texts {
            std::hint::black_box(irdl_ir::lexer::lex(text).expect("benchmark inputs lex"));
        }
        passes += 1;
    }
    (bytes * passes) as f64 / start.elapsed().as_secs_f64() / 1e6
}
