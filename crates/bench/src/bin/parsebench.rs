//! Zero-dependency parse/print throughput benchmark.
//!
//! Measures the textual pipeline — lexing, parsing, and printing — over
//! three workloads:
//!
//! - **genir_module_parse**: one large module holding every instantiable
//!   op of the 28-dialect corpus (the paper's §6 evaluation set), parsed
//!   as a single text — the "big file" shape;
//! - **cmath_chain_parse**: a straight-line custom-syntax `cmath.mul` chain,
//!   exercising the dialect `OpSyntax` parse path;
//! - **print_buffered**: per-op printing into a caller-provided reusable
//!   buffer through a fresh `Printer` per op, which must be
//!   allocation-free at steady state (the printer's naming tables are
//!   parked in the context between printers).
//!
//! Timing uses `std::time::Instant` only. A counting global allocator
//! reports steady-state heap allocations, substantiating the zero-copy
//! claims directly. The one gate is the printer's: the run fails if
//! print_buffered allocates at all. Parse throughput is reported, not
//! gated; irdlbench's corpus-text `ir.read` layer guards it end to end.
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
// Workloads
// ---------------------------------------------------------------------------

struct ParseReport {
    name: &'static str,
    modules: usize,
    ops: usize,
    bytes: usize,
    measurement: Measurement,
}

impl ParseReport {
    fn mb_per_sec(&self) -> f64 {
        // Scale bytes/pass by the measured op throughput.
        self.measurement.units_per_sec * self.bytes as f64 / (self.ops as f64 * 1e6)
    }
}

fn run_parse(name: &'static str, ctx: Context, texts: Vec<String>, budget: f64) -> ParseReport {
    let mut set = ModuleSet::new(ctx, texts);
    let (modules, ops, bytes) = (set.texts.len(), set.ops, set.text_bytes());
    let measurement = measure(|| set.parse_pass(), modules, ops, budget);
    ParseReport { name, modules, ops, bytes, measurement }
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
                "      \"parse_allocs_per_op\": {:.2}\n",
                "    }},\n",
            ),
            r.name,
            r.modules,
            r.ops,
            r.bytes,
            json_f(r.measurement.units_per_sec),
            json_f(r.mb_per_sec()),
            r.measurement.allocs_per_unit,
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
    // Quick mode trims the per-workload budget for CI smoke runs; the
    // allocation gate stays enforced.
    let budget = if quick() { 0.06 } else { 0.4 };

    eprintln!("generating corpus texts...");
    let big = irdl_bench::corpus_texts().pop().expect("the combined module comes last");
    let chain = irdl_bench::mul_chain_source(2048);

    let parses = vec![
        run_parse("genir_module_parse", irdl_bench::corpus_context().0, vec![big.clone()], budget),
        run_parse("cmath_chain_parse", irdl_bench::showcase_context(), vec![chain], budget),
    ];
    let (print_ops, print) = run_print(&big, budget);

    for r in &parses {
        eprintln!(
            "{}: {} modules / {} ops / {} bytes, {:.0} ops/s ({:.1} MB/s), {:.2} allocs/op",
            r.name,
            r.modules,
            r.ops,
            r.bytes,
            r.measurement.units_per_sec,
            r.mb_per_sec(),
            r.measurement.allocs_per_unit,
        );
    }
    eprintln!(
        "print_buffered: {} ops, {:.0} ops/s, {:.2} allocs/op",
        print_ops, print.units_per_sec, print.allocs_per_unit,
    );

    let mut failures = Vec::new();
    if print.allocs_per_unit > 0.0 {
        failures.push(format!(
            "buffered printer allocates {:.2} per op at steady state (must be 0)",
            print.allocs_per_unit
        ));
    }
    finish("textio", &report_json(&parses, print_ops, &print), &failures);
}
