//! Zero-dependency parse/print throughput benchmark.
//!
//! Measures the textual pipeline — lexing, parsing, and printing — over
//! three workloads:
//!
//! - **corpus_parse**: one generated module per instantiable operation of
//!   the 28-dialect corpus (the paper's §6 evaluation set), printed to text
//!   and re-parsed each pass;
//! - **genir_module_parse**: one large module holding every instantiable
//!   corpus op, parsed as a single text — the "big file" shape;
//! - **cmath_chain_parse**: a straight-line custom-syntax `cmath.mul` chain,
//!   exercising the dialect `OpSyntax` parse path;
//! - **print_buffered**: per-op printing into a caller-provided reusable
//!   buffer through a fresh `Printer` per op, which must be
//!   allocation-free at steady state (the printer's naming tables are
//!   parked in the context between printers).
//!
//! Timing uses `std::time::Instant` only. A counting global allocator
//! reports steady-state heap allocations, substantiating the zero-copy
//! claims directly. Parse throughput is gated against the pre-change
//! baseline recorded below: the run fails if the corpus workload does not
//! reach 1.5x the owned-token pipeline it replaced.
//!
//! Results are written to `BENCH_textio.json` at the repository root.
//!
//! ```text
//! cargo run -p irdl-bench --bin parsebench --release [-- --quick]
//! ```

use std::hint::black_box;

use irdl_bench::measure::{
    finish, json_f, measure, quick, report_header, CountingAlloc, Measurement,
};
use irdl_bench::ModuleSet;
use irdl_ir::parse::parse_module;
use irdl_ir::print::Printer;
use irdl_ir::Context;

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// Pre-change baseline
// ---------------------------------------------------------------------------

// Parse throughput of the owned-token pipeline (String-payload tokens,
// String-keyed scopes, format!-based printer) measured on this machine at
// the commit preceding the zero-copy change, release profile, default
// iteration budget. The floor below is enforced against these numbers.
const BASELINE_CORPUS_PARSE_OPS_PER_SEC: f64 = 789_000.0;
const BASELINE_GENIR_PARSE_OPS_PER_SEC: f64 = 638_000.0;
const BASELINE_CHAIN_PARSE_OPS_PER_SEC: f64 = 607_500.0;
const BASELINE_PRINT_ALLOCS_PER_OP: f64 = 19.3;

const REQUIRED_PARSE_SPEEDUP: f64 = 1.5;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct ParseReport {
    name: &'static str,
    modules: usize,
    ops: usize,
    bytes: usize,
    measurement: Measurement,
    baseline_ops_per_sec: f64,
}

impl ParseReport {
    fn mb_per_sec(&self) -> f64 {
        // Scale bytes/pass by the measured op throughput.
        self.measurement.units_per_sec * self.bytes as f64 / (self.ops as f64 * 1e6)
    }

    fn speedup(&self) -> f64 {
        if self.baseline_ops_per_sec > 0.0 {
            self.measurement.units_per_sec / self.baseline_ops_per_sec
        } else {
            f64::NAN
        }
    }
}

fn run_parse(
    name: &'static str,
    ctx: Context,
    texts: Vec<String>,
    baseline: f64,
    budget: f64,
) -> ParseReport {
    let mut set = ModuleSet::new(ctx, texts);
    let (modules, ops, bytes) = (set.texts.len(), set.ops, set.text_bytes());
    let measurement = measure(|| set.parse_pass(), modules, ops, budget);
    ParseReport { name, modules, ops, bytes, measurement, baseline_ops_per_sec: baseline }
}

/// Per-op printing into one reusable buffer, one `Printer` per op. Once
/// the buffer and the context's naming tables have grown during warmup,
/// the steady-state passes must not touch the heap at all.
fn run_print(big_text: &str, budget: f64) -> (usize, Measurement) {
    let mut ctx = Context::new();
    irdl_dialects::register_corpus(&mut ctx).expect("corpus compiles");
    let module = parse_module(&mut ctx, big_text).expect("big module parses");
    let block = ctx.module_block(module);
    let ops: Vec<_> = block.ops(&ctx).to_vec();
    let expected = ops.len();
    let mut out = String::new();
    let measurement = measure(
        || {
            let mut ok = 0;
            for &op in &ops {
                out.clear();
                Printer::new(&mut out).print_op(&ctx, op);
                black_box(out.len());
                ok += 1;
            }
            ok
        },
        expected,
        expected,
        budget,
    );
    (expected, measurement)
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

fn report_json(
    parses: &[ParseReport],
    print_ops: usize,
    print: &Measurement,
) -> String {
    let mut out = report_header("zero-copy text pipeline", "parsebench");
    out.push_str(&format!(
        "  \"required_parse_speedup\": {REQUIRED_PARSE_SPEEDUP},\n"
    ));
    out.push_str(&format!(
        concat!(
            "  \"baseline\": {{\n",
            "    \"note\": \"owned-token pipeline at the pre-change commit, this machine\",\n",
            "    \"corpus_parse_ops_per_sec\": {},\n",
            "    \"genir_module_parse_ops_per_sec\": {},\n",
            "    \"cmath_chain_parse_ops_per_sec\": {},\n",
            "    \"print_allocs_per_op\": {}\n",
            "  }},\n",
        ),
        json_f(BASELINE_CORPUS_PARSE_OPS_PER_SEC),
        json_f(BASELINE_GENIR_PARSE_OPS_PER_SEC),
        json_f(BASELINE_CHAIN_PARSE_OPS_PER_SEC),
        json_f(BASELINE_PRINT_ALLOCS_PER_OP),
    ));
    out.push_str("  \"workloads\": {\n");
    for r in parses {
        out.push_str(&format!(
            concat!(
                "    \"{}\": {{\n",
                "      \"modules\": {},\n",
                "      \"ops\": {},\n",
                "      \"source_bytes\": {},\n",
                "      \"parse_ops_per_sec\": {},\n",
                "      \"parse_mb_per_sec\": {},\n",
                "      \"parse_allocs_per_op\": {:.2},\n",
                "      \"speedup_vs_baseline\": {}\n",
                "    }},\n",
            ),
            r.name,
            r.modules,
            r.ops,
            r.bytes,
            json_f(r.measurement.units_per_sec),
            json_f(r.mb_per_sec()),
            r.measurement.allocs_per_unit,
            json_f(r.speedup()),
        ));
    }
    out.push_str(&format!(
        concat!(
            "    \"print_buffered\": {{\n",
            "      \"ops\": {},\n",
            "      \"print_ops_per_sec\": {},\n",
            "      \"print_allocs_per_op\": {:.2}\n",
            "    }}\n",
            "  }}\n",
            "}}\n",
        ),
        print_ops,
        json_f(print.units_per_sec),
        print.allocs_per_unit,
    ));
    out
}

fn main() {
    // Quick mode trims the per-workload budget for CI smoke runs; floors
    // stay enforced.
    let budget = if quick() { 0.06 } else { 0.4 };

    eprintln!("generating corpus texts...");
    let mut texts = irdl_bench::corpus_texts();
    let big = texts.pop().expect("the combined module comes last");
    let chain = irdl_bench::mul_chain_source(2048);

    let parses = vec![
        run_parse(
            "corpus_parse",
            irdl_bench::corpus_context().0,
            texts,
            BASELINE_CORPUS_PARSE_OPS_PER_SEC,
            budget,
        ),
        run_parse(
            "genir_module_parse",
            irdl_bench::corpus_context().0,
            vec![big.clone()],
            BASELINE_GENIR_PARSE_OPS_PER_SEC,
            budget,
        ),
        run_parse(
            "cmath_chain_parse",
            irdl_bench::showcase_context(),
            vec![chain],
            BASELINE_CHAIN_PARSE_OPS_PER_SEC,
            budget,
        ),
    ];
    let (print_ops, print) = run_print(&big, budget);

    for r in &parses {
        eprintln!(
            "{}: {} modules / {} ops / {} bytes, {:.0} ops/s ({:.1} MB/s), \
             {:.2} allocs/op, speedup {:.2}x",
            r.name,
            r.modules,
            r.ops,
            r.bytes,
            r.measurement.units_per_sec,
            r.mb_per_sec(),
            r.measurement.allocs_per_unit,
            r.speedup(),
        );
    }
    eprintln!(
        "print_buffered: {} ops, {:.0} ops/s, {:.2} allocs/op",
        print_ops, print.units_per_sec, print.allocs_per_unit,
    );

    let mut failures = Vec::new();
    let corpus = &parses[0];
    if corpus.baseline_ops_per_sec > 0.0 && corpus.speedup() < REQUIRED_PARSE_SPEEDUP {
        failures.push(format!(
            "corpus parse speedup {:.2}x is below the required {REQUIRED_PARSE_SPEEDUP}x",
            corpus.speedup()
        ));
    }
    if BASELINE_PRINT_ALLOCS_PER_OP > 0.0 && print.allocs_per_unit > 0.0 {
        failures.push(format!(
            "buffered printer allocates {:.2} per op at steady state (must be 0)",
            print.allocs_per_unit
        ));
    }
    finish("textio", &report_json(&parses, print_ops, &print), &failures);
}
