//! The `irdl-opt` flow under test: set-up, then one worker that takes
//! each input through the same public calls as `irdl-opt`'s single-input
//! path with one thread per module:
//!
//! 1. `parse_module_chunked` or `decode_module`
//! 2. `ModuleVerifier::verify_parallel`
//! 3. `rewrite_greedily_matched` (only when there are patterns)
//! 4. `Printer::print_op` or `encode_module`
//! 5. `Context::erase_op`
//!
//! The worker keeps one context for every input, as a batch-pipeline
//! worker does, and records a span around each call when tracing is on.

use std::sync::Arc;
use std::time::Instant;

use irdl::DialectBundle;
use irdl_ir::print::Printer;
use irdl_ir::verify::ModuleVerifier;
use irdl_ir::Context;
use irdl_rewrite::{
    parse_patterns, rewrite_greedily_matched, CheckLevel, FoldConstants, MatcherMode, PatternSet,
    RewritePattern,
};

use crate::inputs::{Dialects, InputSet, Payload};
use crate::trace::{self, Layer, TracedPattern};

/// Threads per module: every workload is single-threaded.
const INTRA_JOBS: usize = 1;

/// Everything set-up leaves for the first input.
pub struct Setup {
    pub bundle: DialectBundle,
    pub ctx: Context,
    pub patterns: PatternSet,
}

/// Nanoseconds spent in each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `DialectBundle::compile` from IRDL text, or `DialectBundle::load`.
    pub bundle: u64,
    pub instantiate: u64,
    /// `parse_patterns` plus building the folder.
    pub dsl: u64,
    pub seal: u64,
    pub total: u64,
}

fn nanos_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// What one `irdl-opt` invocation does before its first input.
pub fn setup(set: &InputSet) -> (Setup, SetupTimes) {
    let mut times = SetupTimes::default();
    let begin = Instant::now();
    let bundle = match &set.dialects {
        Dialects::Irdl(sources, natives) => DialectBundle::compile(sources, natives),
        Dialects::Irdb(bytes, natives) => DialectBundle::load(bytes, natives),
    }
    .expect("the workload's dialects build");
    times.bundle = nanos_since(begin);

    let start = Instant::now();
    let mut ctx = bundle.instantiate();
    times.instantiate = nanos_since(start);

    let mut patterns = PatternSet::new();
    if let Some(source) = set.patterns {
        let start = Instant::now();
        patterns = parse_patterns(&mut ctx, source).expect("the workload's patterns parse");
        patterns.add(Arc::new(FoldConstants::new(Arc::new(
            irdl_dialects::showcase_semantics(),
        ))));
        times.dsl = nanos_since(start);
        let start = Instant::now();
        patterns.seal();
        times.seal = nanos_since(start);
    }
    times.total = nanos_since(begin);
    (
        Setup {
            bundle,
            ctx,
            patterns,
        },
        times,
    )
}

/// Wraps every pattern of `patterns` for the traced run.
pub fn traced_patterns(patterns: &PatternSet) -> (PatternSet, Vec<Arc<TracedPattern>>) {
    let wrapped: Vec<Arc<TracedPattern>> = patterns
        .patterns()
        .iter()
        .map(|p| Arc::new(TracedPattern::new(p.clone())))
        .collect();
    let mut set = PatternSet::new();
    for pattern in &wrapped {
        set.add(pattern.clone() as Arc<dyn RewritePattern>);
    }
    set.seal();
    (set, wrapped)
}

/// One input's result: the printed or encoded module when accepted, the
/// rendered diagnostics when rejected. Buffers are reused across inputs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Output {
    pub accepted: bool,
    pub text: String,
    pub bytes: Vec<u8>,
}

impl Output {
    /// Bytes of printed text or encoded module; zero when rejected.
    pub fn len(&self) -> usize {
        if self.accepted {
            self.text.len() + self.bytes.len()
        } else {
            0
        }
    }

    fn reject(&mut self, message: impl std::fmt::Display) {
        use std::fmt::Write as _;
        self.accepted = false;
        self.text.clear();
        self.bytes.clear();
        let _ = write!(self.text, "{message}");
    }
}

/// Counters the worker keeps across inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    pub visited: u64,
    pub rewrites: u64,
    /// Verdict-cache hits and misses during verify spans (traced only).
    pub verdict_hits: u64,
    pub verdict_misses: u64,
}

pub struct Worker {
    pub ctx: Context,
    verifier: ModuleVerifier,
    pub patterns: PatternSet,
    pub stats: WorkerStats,
}

impl Worker {
    pub fn new(ctx: Context, patterns: PatternSet) -> Worker {
        Worker {
            ctx,
            verifier: ModuleVerifier::new(),
            patterns,
            stats: WorkerStats::default(),
        }
    }

    /// Takes one input through the flow into `out`.
    pub fn process(&mut self, payload: &Payload, out: &mut Output) {
        let ctx = &mut self.ctx;
        let parsed = match payload {
            Payload::Text(source) => trace::span(Layer::Parse, || {
                irdl_ir::parse::parse_module_chunked(ctx, source, INTRA_JOBS)
                    .map_err(|d| d.render(source))
            }),
            Payload::Bytecode(bytes) => trace::span(Layer::Decode, || {
                irdl_ir::bytecode::decode_module(ctx, bytes).map_err(|d| d.to_string())
            }),
        };
        let module = match parsed {
            Ok(module) => module,
            Err(message) => return out.reject(message),
        };

        let verifier = &mut self.verifier;
        let stats = &mut self.stats;
        let verdict = trace::span(Layer::Verify, || {
            let before = trace::on().then(|| ctx.verdict_cache_stats());
            let verdict = verifier.verify_parallel(ctx, module, INTRA_JOBS);
            if let Some((hits, misses)) = before {
                let (h, m) = ctx.verdict_cache_stats();
                stats.verdict_hits += h - hits;
                stats.verdict_misses += m - misses;
            }
            verdict
        });
        let mut result = verdict.map_err(|errs| {
            errs.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        });

        if result.is_ok() && !self.patterns.is_empty() {
            let patterns = &self.patterns;
            let drive = trace::span(Layer::Drive, || {
                rewrite_greedily_matched(
                    ctx,
                    module,
                    patterns,
                    CheckLevel::Incremental,
                    MatcherMode::Auto,
                )
            });
            result = match drive {
                Ok(s) => {
                    stats.visited += s.visited as u64;
                    stats.rewrites += s.rewrites as u64;
                    Ok(())
                }
                Err(err) => Err(format!("{err}: {}", err.diagnostics[0])),
            };
        }

        if let Err(message) = result {
            out.reject(message);
        } else {
            match payload {
                Payload::Text(_) => trace::span(Layer::Print, || {
                    out.text.clear();
                    out.bytes.clear();
                    Printer::new(&mut out.text).print_op(ctx, module);
                    out.accepted = true;
                }),
                Payload::Bytecode(_) => trace::span(Layer::Encode, || {
                    match irdl_ir::bytecode::encode_module(ctx, module) {
                        Ok(bytes) => {
                            out.text.clear();
                            out.bytes = bytes;
                            out.accepted = true;
                        }
                        Err(d) => out.reject(d),
                    }
                }),
            }
        }
        trace::span(Layer::Erase, || ctx.erase_op(module));
    }
}
