//! Zero-dependency verifier throughput benchmark.
//!
//! Measures the registered, IRDL-synthesized verifier — a
//! [`CompiledOp`] checking its lowered constraint program — over two
//! workloads:
//!
//! - **corpus**: one generated, verifying instance of every instantiable
//!   operation of the 28-dialect corpus (the paper's §6 evaluation set);
//! - **cmath_mul_chain**: a straight-line module of `cmath.mul` ops over
//!   `!cmath.complex<f32>` — the Listing-1 showcase dialect — which is the
//!   shape the rewrite driver re-verifies between pattern applications.
//!   Here the baseline is Listing 2's hand-written `MulOp::verify()`, the
//!   C++-verifier world the paper's flow replaces.
//!
//! Timing uses `std::time::Instant` only. A counting global allocator
//! reports steady-state heap allocations per verification pass, which
//! substantiates the "allocation-free success path" claim directly: after
//! warm-up the registered verifier must not allocate on valid IR. That is
//! the gate; it does not depend on the machine.
//!
//! Results are written to `BENCH_verifier.json` at the repository root.
//!
//! ```text
//! cargo run -p irdl-bench --bin verifybench --release [-- --quick]
//! ```

use std::sync::Arc;

use irdl::genir::{instantiate_op, Instantiation};
use irdl::DialectBundle;
use irdl::program::EvalScratch;
use irdl::verifier::CompiledOp;
use irdl_bench::measure::{
    finish, json_f, measure, quick, report_header, CountingAlloc, Measurement,
};
use irdl_ir::{Context, Diagnostic, OpRef, OpVerifier, Symbol};

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One operation kind: its compiled form and the registered production
/// verifier.
struct Kind {
    compiled: Arc<CompiledOp>,
    registered: Arc<dyn OpVerifier>,
}

/// A set of live, valid op instances, each pointing at its kind.
struct Workload {
    ctx: Context,
    kinds: Vec<Kind>,
    /// `(kind index, instance)` pairs — the unit of one verification.
    instances: Vec<(usize, OpRef)>,
    /// The `cmath.complex` name, when the hand-written baseline applies.
    listing2: Option<Symbol>,
}

/// Listing 2's hand-written `MulOp::verify()`: two operands, one result,
/// all the same `!cmath.complex` type.
fn listing2_mul_verify(ctx: &Context, op: OpRef, complex: Symbol) -> Result<(), Diagnostic> {
    if op.num_operands(ctx) != 2 || op.num_results(ctx) != 1 || op.num_regions(ctx) != 0 {
        return Err(Diagnostic::new("mul expects 2 operands, 1 result"));
    }
    let lhs = op.operand(ctx, 0).ty(ctx);
    let rhs = op.operand(ctx, 1).ty(ctx);
    let res = op.result_types(ctx)[0];
    if lhs.parametric_name(ctx).map(|(_, n)| n) != Some(complex) {
        return Err(Diagnostic::new("operand is not a complex type"));
    }
    if lhs != rhs || rhs != res {
        return Err(Diagnostic::new("mismatched types"));
    }
    Ok(())
}

impl Workload {
    /// One pass of the registered verifier (the production entry point:
    /// silent program, verdict cache, explain mode only on rejection).
    fn pass_fast(&self) -> usize {
        let mut ok = 0;
        for &(kind, op) in &self.instances {
            if self.kinds[kind].registered.verify(&self.ctx, op).is_ok() {
                ok += 1;
            }
        }
        ok
    }

    /// One pass of the bare declarative check with caller-owned scratch
    /// (the shape `ModuleVerifier` reuse exposes).
    fn pass_program(&self, scratch: &mut EvalScratch) -> usize {
        let mut ok = 0;
        for &(kind, op) in &self.instances {
            if self.kinds[kind].compiled.check(&self.ctx, op, scratch) {
                ok += 1;
            }
        }
        ok
    }

    /// One pass of the hand-written Listing 2 verifier.
    fn pass_handwritten(&self, complex: Symbol) -> usize {
        let mut ok = 0;
        for &(_, op) in &self.instances {
            if listing2_mul_verify(&self.ctx, op, complex).is_ok() {
                ok += 1;
            }
        }
        ok
    }
}

/// Every instantiable operation of the 28-dialect corpus, one instance
/// each, generated from its own compiled constraints.
fn corpus_workload() -> Workload {
    let bundle = DialectBundle::compile(
        &irdl_dialects::corpus_sources(),
        &irdl_dialects::corpus_natives(),
    )
    .expect("corpus compiles");
    let mut ctx = bundle.instantiate();
    let mut kinds = Vec::new();
    let mut instances = Vec::new();
    for op in bundle.ops() {
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let built = match instantiate_op(&mut ctx, op, block) {
            Instantiation::Built(built) => built,
            // CFG terminators need successor context; skip, as the
            // corpus generation test does.
            Instantiation::Skipped(_) => continue,
        };
        let registered = ctx
            .op_info(built)
            .and_then(|info| info.verifier.clone())
            .expect("compiled op has a registered verifier");
        instances.push((kinds.len(), built));
        kinds.push(Kind { compiled: op.clone(), registered });
    }
    Workload { ctx, kinds, instances, listing2: None }
}

/// A straight-line chain of `n` `cmath.mul` ops over `!cmath.complex<f32>`.
fn mul_chain_workload(n: usize) -> Workload {
    let sources = [("showcase".to_string(), irdl_dialects::showcase::SHOWCASE_SPEC.to_string())];
    let bundle = DialectBundle::compile(&sources, &irdl::NativeRegistry::default())
        .expect("showcase compiles");
    let mut ctx = bundle.instantiate();
    let mul_name = ctx.op_name("cmath", "mul");
    let mul = bundle
        .ops()
        .iter()
        .find(|op| op.op_name() == mul_name)
        .expect("showcase defines cmath.mul")
        .clone();
    let registered = ctx
        .registry()
        .op_info(mul_name.dialect, mul_name.name)
        .and_then(|info| info.verifier.clone())
        .expect("cmath.mul has a registered verifier");

    let module = irdl_bench::mul_chain_module(&mut ctx, n);
    let block = ctx.module_block(module);
    let instances: Vec<(usize, OpRef)> = block
        .ops(&ctx)
        .iter()
        .filter(|op| op.name(&ctx) == mul_name)
        .map(|&op| (0usize, op))
        .collect();
    assert_eq!(instances.len(), n);
    let complex = ctx.symbol("complex");
    Workload {
        ctx,
        kinds: vec![Kind { compiled: mul, registered }],
        instances,
        listing2: Some(complex),
    }
}

struct WorkloadReport {
    name: &'static str,
    instances: usize,
    fast: Measurement,
    program: Measurement,
    handwritten: Option<Measurement>,
}

impl WorkloadReport {
    /// Allocations per verification pass over every instance.
    fn allocs_per_pass(&self, m: &Measurement) -> f64 {
        m.allocs_per_unit * self.instances as f64
    }
}

fn run_workload(name: &'static str, workload: &Workload, budget: f64) -> WorkloadReport {
    let expected = workload.instances.len();
    let mut scratch = EvalScratch::new();
    WorkloadReport {
        name,
        instances: expected,
        fast: measure(|| workload.pass_fast(), expected, expected, budget),
        program: measure(|| workload.pass_program(&mut scratch), expected, expected, budget),
        handwritten: workload.listing2.map(|complex| {
            measure(|| workload.pass_handwritten(complex), expected, expected, budget)
        }),
    }
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

fn report_json(reports: &[WorkloadReport], cache: (usize, u64, u64)) -> String {
    let mut out = report_header("registered IRDL verifier vs Listing 2 hand-written", "verifybench");
    out.push_str("  \"gate\": \"fast_allocs_per_pass == 0 on every workload\",\n");
    out.push_str("  \"workloads\": {\n");
    for (i, r) in reports.iter().enumerate() {
        let handwritten = match &r.handwritten {
            Some(h) => format!(
                ",\n      \"handwritten_ops_per_sec\": {},\n      \"fast_vs_handwritten\": {:.2}",
                json_f(h.units_per_sec),
                r.fast.units_per_sec / h.units_per_sec
            ),
            None => String::new(),
        };
        out.push_str(&format!(
            concat!(
                "    \"{}\": {{\n",
                "      \"instances\": {},\n",
                "      \"fast_ops_per_sec\": {},\n",
                "      \"program_check_ops_per_sec\": {},\n",
                "      \"fast_allocs_per_pass\": {},\n",
                "      \"program_check_allocs_per_pass\": {}{}\n",
                "    }}{}\n",
            ),
            r.name,
            r.instances,
            json_f(r.fast.units_per_sec),
            json_f(r.program.units_per_sec),
            json_f(r.allocs_per_pass(&r.fast)),
            json_f(r.allocs_per_pass(&r.program)),
            handwritten,
            if i + 1 == reports.len() { "" } else { "," },
        ));
    }
    let (entries, hits, misses) = cache;
    out.push_str(&format!(
        concat!(
            "  }},\n",
            "  \"verdict_cache\": {{ \"entries\": {}, \"hits\": {}, \"misses\": {} }}\n",
            "}}\n",
        ),
        entries, hits, misses,
    ));
    out
}

fn main() {
    // Quick mode trims the per-workload budget for CI smoke runs; the
    // allocation gate stays enforced.
    let budget = if quick() { 0.1 } else { 0.4 };
    let corpus = corpus_workload();
    let chain = mul_chain_workload(512);

    let reports = vec![
        run_workload("corpus", &corpus, budget),
        run_workload("cmath_mul_chain", &chain, budget),
    ];

    // Cache statistics from the corpus context, where kind diversity makes
    // memoization do real work.
    let (hits, misses) = corpus.ctx.verdict_cache_stats();
    let cache = (corpus.ctx.verdict_cache_len(), hits, misses);

    for r in &reports {
        eprintln!(
            "{}: {} instances, fast {:.0} ops/s, program check {:.0} ops/s, \
             fast allocs/pass {:.1}",
            r.name, r.instances, r.fast.units_per_sec, r.program.units_per_sec,
            r.allocs_per_pass(&r.fast),
        );
    }

    let failures: Vec<String> = reports
        .iter()
        .filter(|r| r.allocs_per_pass(&r.fast) != 0.0)
        .map(|r| {
            format!(
                "{} allocates {:.1} times per verification pass on valid IR",
                r.name,
                r.allocs_per_pass(&r.fast)
            )
        })
        .collect();
    finish("verifier", &report_json(&reports, cache), &failures);
}
