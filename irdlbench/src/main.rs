//! `irdlbench`: the end-to-end `irdl-opt` benchmark.
//!
//! Dialects written in IRDL become a working `mlir-opt`-style flow at
//! run time: spec → verifier and format → parse → verify → rewrite →
//! print. This benchmark measures that flow on four seeded workloads and
//! checks every output against a known answer:
//!
//! ```text
//! cargo run --release --manifest-path irdlbench/Cargo.toml -- \
//!     --workload <corpus-text|corpus-bytecode|scale-wide|cmath-opt|all> \
//!     --seed <n> [--seconds <s>] [--trace <0|1|FILE>] [--quick]
//! ```
//!
//! Every metric is printed by name with its unit; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Without tracing the metrics are the end-to-end
//! ones; with `--trace 1` (or a file name) half the time runs untraced and
//! half traced, the metrics are the per-layer ones, and the spans are
//! written as Chrome trace-event JSON. The exit code is 1 when any output
//! is wrong, 2 on a usage error. See README.md for the workloads, the
//! metrics and how to compare two commits.

mod alloc;
mod check;
mod cmath;
mod flow;
mod inputs;
mod run;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use flow::{SetupTimes, Worker, WorkerStats};
use inputs::{Expect, InputSet, Payload, Size, Workload};
use irdl_rewrite::RewritePattern;
use trace::{Layer, LayerTotals, Span};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups from scratch per run: a burst of `SETUP_BURST` back to back
/// after every `SETUP_EVERY`-th measured pass, so they sample the same
/// stretch of time as the passes, and at least `SETUP_REPS` in all. The
/// quiet ones are then the bursts' later set-ups, which do not pay for
/// the caches and free lists the pass before left behind.
const SETUP_BURST: usize = 3;
const SETUP_EVERY: usize = 4;
const SETUP_REPS: usize = 21;
const QUICK_SETUP_REPS: usize = 5;
/// Span buffer for one input, and spans kept for the trace file.
const SPANS_PER_INPUT: usize = 1 << 12;
const KEPT_SPANS: usize = 20_000;
/// Upper bound on latency samples held in one phase.
const MAX_SAMPLES: usize = 1 << 22;

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    size: Size,
    /// `None`: tracing off. `Some(path)`: traced, spans written to `path`.
    trace: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: irdlbench --workload <corpus-text|corpus-bytecode|scale-wide|cmath-opt|all> \
     --seed <n> [--seconds <s>] [--trace <0|1|FILE>] [--quick]"
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut quick = false;
    let mut trace = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("invalid --seed `{v}`"))?,
                );
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s = v.parse::<f64>().ok().filter(|s| *s > 0.0 && s.is_finite());
                seconds = Some(s.ok_or(format!("invalid --seconds `{v}`"))?);
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => None,
                    "1" => Some(PathBuf::from(concat!(
                        env!("CARGO_MANIFEST_DIR"),
                        "/out/trace.json"
                    ))),
                    path => Some(PathBuf::from(path)),
                }
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = match workload.as_str() {
        "all" => Workload::ALL.to_vec(),
        name => vec![Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?],
    };
    Ok(Options {
        workloads,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(if quick { 1.0 } else { 20.0 }),
        size: if quick { Size::Quick } else { Size::Full },
        trace,
    })
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    let value = if value.is_finite() { value } else { 0.0 };
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: note.into(),
    }
}

/// `num / den`, or zero when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

struct Report {
    workload: Workload,
    attempted: u64,
    failed: u64,
    /// The metrics of the JSON line: end-to-end, or per-layer when traced.
    metrics: Vec<Metric>,
    /// Printed only: failure share, and the end-to-end numbers of a traced run.
    extra: Vec<Metric>,
    spans: Vec<Span>,
}

/// The machine the numbers come from.
struct Host {
    nproc: usize,
    rustc: String,
    commit: String,
    spin_speedup: f64,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..std::hint::black_box(iters) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Speed-up of two threads each spinning as long as one thread alone:
/// about 2 when two cores are free for this process, about 1 when not.
fn spin_speedup() -> f64 {
    const ITERS: u64 = 20_000_000;
    let start = Instant::now();
    std::hint::black_box(spin(ITERS));
    let one = start.elapsed().as_secs_f64();
    let start = Instant::now();
    std::thread::scope(|s| {
        let other = s.spawn(|| spin(ITERS));
        std::hint::black_box(spin(ITERS));
        std::hint::black_box(other.join().expect("spin thread does not panic"));
    });
    2.0 * one / start.elapsed().as_secs_f64()
}

fn probe_host() -> Host {
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        None
    };
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        commit: commit.unwrap_or_else(|| "unknown".to_string()),
        spin_speedup: spin_speedup(),
    }
}

/// Texts the standalone lexer pass reads: the text inputs, or for
/// bytecode inputs the text of the module each encodes.
fn lex_texts(set: &InputSet) -> Vec<&str> {
    set.inputs
        .iter()
        .filter_map(|input| match (&input.payload, &input.expect) {
            (Payload::Text(text), _) | (Payload::Bytecode(_), Expect::Accept { text }) => {
                Some(text.as_str())
            }
            _ => None,
        })
        .collect()
}

fn median_of(values: impl Iterator<Item = f64>) -> (f64, f64, f64) {
    stats::quartiles(&values.collect::<Vec<_>>())
}

/// The quiet set-up repetitions by total time (at least three).
fn quiet_setups(setups: &[SetupTimes]) -> Vec<SetupTimes> {
    let totals: Vec<u64> = setups.iter().map(|t| t.total).collect();
    stats::quiet(&totals, 3)
        .into_iter()
        .map(|i| setups[i])
        .collect()
}

fn end_to_end(
    set: &InputSet,
    setups: &[SetupTimes],
    phase: &run::Phase,
    peak_bytes: u64,
    output_bytes: usize,
) -> Vec<Metric> {
    let quiet = quiet_setups(setups);
    let (setup, q1, q3) = median_of(quiet.iter().map(|t| t.total as f64 / 1e9));
    let ms = phase.best_latencies_ms();
    let tail = stats::tail(&ms);
    let ops = set.ops() as f64;
    let passes = phase.pass_ns.len();
    let quiet_passes = phase.quiet_passes().len();
    vec![
        metric(
            "setup_s",
            setup,
            "s",
            format!(
                "median of the fastest {} of {} set-ups, q1 {q1:.6} q3 {q3:.6}",
                quiet.len(),
                setups.len()
            ),
        ),
        metric(
            "throughput_ops_s",
            phase.throughput(),
            "ops/s",
            format!(
                "fastest {quiet_passes} of {passes} passes of {} inputs",
                phase.inputs
            ),
        ),
        metric(
            "module_ms_p50",
            stats::percentile(&ms, 50.0),
            "ms",
            format!(
                "over inputs of each input's best of {passes} passes, {} samples",
                ms.len()
            ),
        ),
        metric(
            "module_ms_tail",
            tail.value,
            "ms",
            format!(
                "p{:.1}, {} samples beyond, {} samples",
                tail.percentile,
                tail.beyond,
                ms.len()
            ),
        ),
        metric(
            "peak_heap_mb",
            peak_bytes as f64 / 1e6,
            "MB",
            "live heap above the benchmark's own data",
        ),
        metric(
            "allocs_per_op",
            phase.first_pass_allocs as f64 / ops,
            "count",
            "first measured pass",
        ),
        metric(
            "output_bytes_per_op",
            output_bytes as f64 / ops,
            "bytes",
            "",
        ),
    ]
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    setups: &[SetupTimes],
    lex_mb_s: f64,
    untraced: &run::Phase,
    traced: &run::Phase,
    totals: &[LayerTotals; Layer::COUNT],
    worker: &WorkerStats,
    patterns: &[std::sync::Arc<trace::TracedPattern>],
    output_bytes: usize,
) -> Vec<Metric> {
    use std::sync::atomic::Ordering::Relaxed;
    let layer = |l: Layer| totals[l as usize];
    let sum = |a: Layer, b: Layer| {
        let (a, b) = (layer(a), layer(b));
        LayerTotals {
            spans: a.spans + b.spans,
            total_ns: a.total_ns + b.total_ns,
            self_ns: a.self_ns + b.self_ns,
            total_allocs: a.total_allocs + b.total_allocs,
            self_allocs: a.self_allocs + b.self_allocs,
        }
    };
    let runs = traced.attempted as f64;
    let ops = (traced.pass_ops * traced.pass_ns.len() as u64) as f64;
    let wall: f64 = traced.samples.iter().map(|&ns| ns as f64).sum();
    let share = |t: LayerTotals| ratio(t.self_ns as f64, wall);
    let self_ms = |t: LayerTotals| ratio(t.self_ns as f64 / 1e6, runs);
    let ops_s = |t: LayerTotals| ratio(ops, t.self_ns as f64 / 1e9);
    let allocs_per_op = |t: LayerTotals| ratio(t.self_allocs as f64, ops);
    let setups = quiet_setups(setups);
    let setup_ms =
        |part: fn(&SetupTimes) -> u64| median_of(setups.iter().map(|t| part(t) as f64 / 1e6)).0;
    let setup_share = |part: fn(&SetupTimes) -> u64| {
        median_of(setups.iter().map(|t| part(t) as f64 / t.total as f64)).0
    };

    let (read, verify, drive) = (
        sum(Layer::Parse, Layer::Decode),
        layer(Layer::Verify),
        layer(Layer::Drive),
    );
    let (write, erase) = (sum(Layer::Print, Layer::Encode), layer(Layer::Erase));
    let mut m = vec![
        metric(
            "core.bundle_ms",
            setup_ms(|t| t.bundle),
            "ms",
            "compile from IRDL text, or IRDB load",
        ),
        metric("core.instantiate_ms", setup_ms(|t| t.instantiate), "ms", ""),
        metric(
            "rewrite.dsl.share",
            setup_share(|t| t.dsl),
            "ratio",
            "of setup_s",
        ),
        metric(
            "rewrite.seal.share",
            setup_share(|t| t.seal),
            "ratio",
            "of setup_s",
        ),
        metric(
            "ir.lex.mb_s",
            lex_mb_s,
            "MB/s",
            "standalone pass, outside the layer sum",
        ),
        metric(
            "ir.read.self_ms",
            self_ms(read),
            "ms",
            "parse, or decode; per input",
        ),
        metric("ir.read.ops_s", ops_s(read), "ops/s", ""),
        metric("ir.read.allocs_per_op", allocs_per_op(read), "count", ""),
        metric(
            "ir.read.share",
            share(read),
            "ratio",
            "of traced module time",
        ),
        metric("ir.verify.self_ms", self_ms(verify), "ms", "per input"),
        metric("ir.verify.ops_s", ops_s(verify), "ops/s", ""),
        metric(
            "ir.verify.allocs_per_op",
            allocs_per_op(verify),
            "count",
            "",
        ),
        metric(
            "ir.verify.cache_hit_ratio",
            ratio(
                worker.verdict_hits as f64,
                (worker.verdict_hits + worker.verdict_misses) as f64,
            ),
            "ratio",
            format!(
                "{} hits, {} misses",
                worker.verdict_hits, worker.verdict_misses
            ),
        ),
        metric(
            "ir.verify.share",
            share(verify),
            "ratio",
            "of traced module time",
        ),
        metric(
            "rewrite.drive.share",
            share(drive),
            "ratio",
            "drive minus pattern attempts",
        ),
        metric(
            "rewrite.drive.visited",
            ratio(worker.visited as f64, runs),
            "count",
            "per input",
        ),
        metric(
            "rewrite.drive.rewrites",
            ratio(worker.rewrites as f64, runs),
            "count",
            "per input",
        ),
        metric(
            "rewrite.drive.allocs_per_rewrite",
            ratio(drive.total_allocs as f64, worker.rewrites as f64),
            "count",
            "pattern attempts included",
        ),
    ];
    let (mut attempts, mut applied) = (0u64, 0u64);
    for name in ["conorm", "fold-constants"] {
        let found = patterns.iter().find(|p| p.name() == name);
        let (a, h) = found.map_or((0, 0), |p| {
            (p.attempts.load(Relaxed), p.applied.load(Relaxed))
        });
        let t = found.map_or_else(LayerTotals::default, |p| layer(p.layer()));
        attempts += a;
        applied += h;
        m.push(metric(
            &format!("rewrite.pattern.{name}.attempts"),
            ratio(a as f64, runs),
            "count",
            "per input",
        ));
        m.push(metric(
            &format!("rewrite.pattern.{name}.applied"),
            ratio(h as f64, runs),
            "count",
            "per input",
        ));
        m.push(metric(
            &format!("rewrite.pattern.{name}.share"),
            share(t),
            "ratio",
            "of traced module time",
        ));
    }
    let out_bytes = output_bytes as f64 * traced.pass_ns.len() as f64;
    m.extend([
        metric(
            "rewrite.useful_ratio",
            ratio(applied as f64, attempts as f64),
            "ratio",
            "applied / attempts",
        ),
        metric(
            "ir.write.self_ms",
            self_ms(write),
            "ms",
            "print, or encode; per input",
        ),
        metric(
            "ir.write.mb_s",
            ratio(out_bytes / 1e6, write.self_ns as f64 / 1e9),
            "MB/s",
            "",
        ),
        metric("ir.write.allocs_per_op", allocs_per_op(write), "count", ""),
        metric(
            "ir.write.share",
            share(write),
            "ratio",
            "of traced module time",
        ),
        metric("ir.erase.self_ms", self_ms(erase), "ms", "per input"),
        metric(
            "ir.erase.share",
            share(erase),
            "ratio",
            "of traced module time",
        ),
        metric(
            "trace.overhead",
            ratio(untraced.throughput(), traced.throughput()),
            "ratio",
            "untraced / traced throughput",
        ),
        metric(
            "trace.layer_sum_ratio",
            ratio(
                Layer::ALL[1..]
                    .iter()
                    .map(|&l| layer(l).self_ns as f64)
                    .sum(),
                wall,
            ),
            "ratio",
            format!(
                "layer self times / traced wall time, {} inputs",
                traced.attempted
            ),
        ),
    ]);
    m
}

/// Runs one input set: set-up repetitions, a checked reference pass, a
/// warm-up pass, the measured phase and, when tracing, the traced phase.
fn run_set(set: &InputSet, opts: &Options) -> Report {
    let n = set.inputs.len();
    // Reference outputs from a context of their own, checked against the
    // known answers; every later pass must reproduce them byte for byte.
    let (reference, reference_ns, verdicts) = {
        let (s, _) = flow::setup(set);
        let mut worker = Worker::new(s.ctx, s.patterns);
        let (outputs, ns) = run::reference_pass(&mut worker, set);
        let verdicts = check::check_all(set, &s.bundle, &outputs);
        (outputs, ns, verdicts)
    };
    let mut ok: Vec<bool> = verdicts.iter().map(Option::is_none).collect();
    for (i, why) in verdicts
        .iter()
        .enumerate()
        .filter_map(|(i, v)| Some((i, v.as_ref()?)))
        .take(5)
    {
        eprintln!("check failed: {} input {i}: {why}", set.workload.name());
    }
    let output_bytes: usize = reference.iter().map(flow::Output::len).sum();

    let seconds = if opts.trace.is_some() {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let max_passes = (seconds * 1e9 / reference_ns.max(1) as f64 * 3.0).ceil() as usize + 4;
    let sample_buffer = || Vec::with_capacity((n * max_passes).min(MAX_SAMPLES.max(n)));
    let mut outputs = reference.clone();
    let samples = sample_buffer();
    let mut setups: Vec<SetupTimes> =
        Vec::with_capacity(max_passes / SETUP_EVERY * SETUP_BURST + SETUP_REPS);
    let reps = if opts.size == Size::Quick {
        QUICK_SETUP_REPS
    } else {
        SETUP_REPS
    };

    // Everything the benchmark holds is allocated; what the heap gains
    // from here on is the compiler's.
    let baseline = alloc::live();
    let (s, _) = flow::setup(set);
    // The bundle stays alive for the whole run, as in `irdl-opt`, and so
    // counts toward `peak_heap_mb`.
    let _bundle = s.bundle;
    let mut worker = Worker::new(s.ctx, s.patterns);
    run::warm_up(&mut worker, set, &reference, &mut outputs, &mut ok);
    let mut pass = 0;
    let mut set_up = || {
        pass += 1;
        if pass % SETUP_EVERY == 0 {
            setups.extend((0..SETUP_BURST).map(|_| flow::setup(set).1));
        }
    };
    let phase = run::measure(
        &mut worker,
        set,
        &reference,
        &ok,
        &mut outputs,
        samples,
        seconds,
        &mut set_up,
    );
    while setups.len() < reps {
        setups.push(flow::setup(set).1);
    }
    let peak = phase.peak_live.saturating_sub(baseline);
    let e2e = end_to_end(set, &setups, &phase, peak, output_bytes);

    let mut report = Report {
        workload: set.workload,
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: e2e,
        extra: Vec::new(),
        spans: Vec::new(),
    };
    if opts.trace.is_some() {
        let lex = run::lex_rate(
            &lex_texts(set),
            if opts.size == Size::Quick { 0.05 } else { 0.25 },
        );
        let (traced_set, wrapped) = flow::traced_patterns(&worker.patterns);
        worker.patterns = traced_set;
        worker.stats = WorkerStats::default();
        let samples = sample_buffer();
        trace::arm(SPANS_PER_INPUT, KEPT_SPANS);
        let traced = run::measure(
            &mut worker,
            set,
            &reference,
            &ok,
            &mut outputs,
            samples,
            seconds,
            &mut || (),
        );
        let (totals, spans) = trace::disarm();
        let layers = per_layer(
            &setups,
            lex,
            &phase,
            &traced,
            &totals,
            &worker.stats,
            &wrapped,
            output_bytes,
        );
        report.extra = std::mem::replace(&mut report.metrics, layers);
        report.attempted += traced.attempted;
        report.failed += traced.failed;
        report.spans = spans;
    }
    report.extra.push(metric(
        "failed_frac",
        ratio(report.failed as f64, report.attempted as f64),
        "ratio",
        format!("{} of {} executions wrong", report.failed, report.attempted),
    ));
    report
}

fn print_metric(m: &Metric) {
    println!(
        "  {:<40} {:>18.6} {:<6} {}",
        m.name, m.value, m.unit, m.note
    );
}

/// The JSON result line: per-workload metric names are prefixed with the
/// workload when several workloads ran.
fn json_line(reports: &[Report]) -> String {
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    let mut first = true;
    for r in reports {
        for m in &r.metrics {
            let name = if reports.len() > 1 {
                format!("{}.{}", r.workload.name(), m.name)
            } else {
                m.name.clone()
            };
            let sep = if first { "" } else { ", " };
            first = false;
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.value, m.unit
            );
        }
    }
    out.push_str("}}");
    out
}

/// 0 when every output was right, 1 otherwise.
fn exit_code(reports: &[Report]) -> i32 {
    i32::from(reports.iter().any(|r| r.failed > 0))
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("error: {message}\n{}", usage());
            std::process::exit(2);
        }
    };
    let host = probe_host();
    let mut reports = Vec::new();
    for &workload in &opts.workloads {
        let set = inputs::generate(workload, opts.seed, opts.size);
        let report = run_set(&set, &opts);
        println!(
            "irdlbench {} seed {} ({} inputs, {} ops, {} s measured{})",
            workload.name(),
            opts.seed,
            set.inputs.len(),
            set.ops(),
            opts.seconds,
            if opts.trace.is_some() {
                ", half traced"
            } else {
                ""
            },
        );
        println!(
            "  host: nproc {}, {}, commit {}, two-thread spin speed-up {:.2}x",
            host.nproc, host.rustc, host.commit, host.spin_speedup
        );
        report
            .metrics
            .iter()
            .chain(&report.extra)
            .for_each(print_metric);
        reports.push(report);
    }
    if let Some(path) = &opts.trace {
        let spans: Vec<(&str, &[Span])> = reports
            .iter()
            .map(|r| (r.workload.name(), r.spans.as_slice()))
            .collect();
        match trace::write_chrome(path, &spans) {
            Ok(()) => println!(
                "  trace: {} (open in https://ui.perfetto.dev)",
                path.display()
            ),
            Err(e) => eprintln!("error: cannot write trace `{}`: {e}", path.display()),
        }
    }
    println!("{}", json_line(&reports));
    std::process::exit(exit_code(&reports));
}

#[cfg(test)]
mod tests {
    use std::hash::{Hash, Hasher};

    use super::*;
    use flow::Output;

    fn quick(seconds: f64, trace: bool) -> Options {
        Options {
            workloads: Workload::ALL.to_vec(),
            seed: 1,
            seconds,
            size: Size::Quick,
            trace: trace.then(|| PathBuf::from("unused.json")),
        }
    }

    fn reference(set: &InputSet) -> Vec<Output> {
        let (s, _) = flow::setup(set);
        run::reference_pass(&mut Worker::new(s.ctx, s.patterns), set).0
    }

    fn digest(set: &InputSet, outputs: &[Output]) -> (u64, u64) {
        let mut inputs = std::collections::hash_map::DefaultHasher::new();
        let mut outs = std::collections::hash_map::DefaultHasher::new();
        for (input, out) in set.inputs.iter().zip(outputs) {
            input.payload.hash(&mut inputs);
            input.ops.hash(&mut inputs);
            out.hash(&mut outs);
        }
        (inputs.finish(), outs.finish())
    }

    #[test]
    fn same_seed_same_inputs_and_outputs() {
        for workload in Workload::ALL {
            let a = inputs::generate(workload, 7, Size::Quick);
            let b = inputs::generate(workload, 7, Size::Quick);
            let c = inputs::generate(workload, 8, Size::Quick);
            let (da, db, dc) = (
                digest(&a, &reference(&a)),
                digest(&b, &reference(&b)),
                digest(&c, &reference(&c)),
            );
            assert_eq!(da, db, "{}", workload.name());
            assert_ne!(
                da.0,
                dc.0,
                "{}: another seed, other inputs",
                workload.name()
            );
        }
    }

    #[test]
    fn quick_runs_pass_every_check() {
        let opts = quick(0.3, false);
        for workload in Workload::ALL {
            let set = inputs::generate(workload, 2, Size::Quick);
            let report = run_set(&set, &opts);
            assert!(report.attempted > 0, "{}", workload.name());
            assert_eq!(report.failed, 0, "{}", workload.name());
            assert_eq!(exit_code(&[report]), 0);
        }
    }

    #[test]
    fn traced_run_reports_every_layer_metric() {
        let opts = quick(0.3, true);
        let set = inputs::generate(Workload::CmathOpt, 1, Size::Quick);
        let report = run_set(&set, &opts);
        assert_eq!(
            report.failed, 0,
            "traced outputs equal the untraced reference"
        );
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names.len(), 33);
        assert!(names.contains(&"rewrite.pattern.conorm.applied"));
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert!(value("rewrite.pattern.conorm.applied") > 0.0);
        assert!(value("rewrite.pattern.fold-constants.applied") > 0.0);
        let sum = value("trace.layer_sum_ratio");
        assert!(
            (0.9..=1.0).contains(&sum),
            "layer self times cover the module time: {sum}"
        );
        assert!(!report.spans.is_empty());
    }

    #[test]
    fn traced_patterns_leave_the_drive_output_unchanged() {
        let set = inputs::generate(Workload::CmathOpt, 3, Size::Quick);
        let plain = reference(&set);
        let (s, _) = flow::setup(&set);
        let (patterns, wrapped) = flow::traced_patterns(&s.patterns);
        let mut worker = Worker::new(s.ctx, patterns);
        trace::arm(1 << 12, 0);
        let mut traced = vec![Output::default(); set.inputs.len()];
        for (input, out) in set.inputs.iter().zip(&mut traced) {
            trace::span(Layer::Module, || worker.process(&input.payload, out));
            trace::finish_input();
        }
        let (totals, _) = trace::disarm();
        assert!(
            plain == traced,
            "wrapped patterns must drive byte-identical output"
        );
        let attempts: u64 = wrapped
            .iter()
            .map(|p| p.attempts.load(std::sync::atomic::Ordering::Relaxed))
            .sum();
        let spans = totals[Layer::Conorm as usize].spans + totals[Layer::Fold as usize].spans;
        assert!(attempts > 0 && attempts == spans, "one span per attempt");
    }

    #[test]
    fn a_failed_check_fails_the_run() {
        let mut set = inputs::generate(Workload::CorpusText, 1, Size::Quick);
        set.inputs[3].ops += 1;
        let report = run_set(&set, &quick(0.2, false));
        assert!(report.failed > 0);
        assert!(json_line(std::slice::from_ref(&report)).starts_with("{\"correct\": false,"));
        assert_eq!(exit_code(&[report]), 1);
    }

    #[test]
    fn a_wrong_rewrite_fails_its_check() {
        let mut set = inputs::generate(Workload::CmathOpt, 1, Size::Quick);
        let Expect::Rewrite(model) = &mut set.inputs[0].expect else {
            panic!("cmath model")
        };
        model.chains[0] += 1.0;
        let outputs = reference(&set);
        let (s, _) = flow::setup(&set);
        let verdicts = check::check_all(&set, &s.bundle, &outputs);
        assert!(
            verdicts[0].as_ref().is_some_and(|v| v.contains("chain 0")),
            "{:?}",
            verdicts[0]
        );
        assert!(verdicts[1..].iter().all(Option::is_none));
    }

    #[test]
    fn json_line_has_the_result_shape() {
        let report = Report {
            workload: Workload::ScaleWide,
            attempted: 3,
            failed: 0,
            metrics: vec![
                metric("setup_s", 0.25, "s", ""),
                metric("x", f64::NAN, "ms", ""),
            ],
            extra: Vec::new(),
            spans: Vec::new(),
        };
        assert_eq!(
            json_line(&[report]),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.25, \"unit\": \"s\"}, \"x\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let opts = args("--workload scale-wide --seed 4 --seconds 10 --trace 0").unwrap();
        assert_eq!(
            (opts.workloads, opts.seed, opts.seconds),
            (vec![Workload::ScaleWide], 4, 10.0)
        );
        assert!(opts.trace.is_none());
        assert!(args("--workload all --seed 1 --trace 1")
            .unwrap()
            .trace
            .is_some());
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload all").is_err());
        assert!(args("--workload all --seed 1 --seconds 0").is_err());
        assert!(args("--workload all --seed 1 --bogus").is_err());
    }
}
