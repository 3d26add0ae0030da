//! Zero-dependency bytecode benchmark: binary vs textual load paths.
//!
//! Measures the loads the bytecode layer exists to accelerate, each gated
//! against its textual counterpart *measured in the same run*:
//!
//! - **module_load**: decoding `IRBC` module bytecode into a
//!   corpus-registered context vs parsing the same modules from text.
//!   The workload is one generated module per instantiable operation of
//!   the 28-dialect corpus plus the combined "big file" module, the same
//!   set `parsebench` parses. Corpus IR is *construction-bound*: both
//!   paths end in the same arena op-building, so the ceiling is parse's
//!   lex/resolve overhead (~2-3x; see DESIGN.md "Bytecode format").
//!   Gate: decode ≥ 1.5x parse (ops/s).
//! - **weights_distinct**: modules whose ops each carry their own large
//!   constant array. Every element is a fresh attribute on both paths, so
//!   hash-consing the elements into the context dominates parse *and*
//!   decode alike and bounds the ratio near the corpus ceiling.
//!   Gate: decode ≥ 1.5x parse (elements/s).
//! - **weights_shared**: the payload shape binary IR formats exist for —
//!   many ops referencing a small set of large constant arrays (shared
//!   initializers). The printed text has no attribute aliases, so it
//!   repeats the full literal at every use and parse re-lexes and
//!   re-interns every copy; the bytecode pool stores each unique array
//!   once and op references are O(1) index reads. Gate: decode ≥ 10x
//!   parse (elements/s).
//! - **bundle_cold_start**: rehydrating the full 28-dialect corpus from a
//!   saved `IRDB` artifact ([`DialectBundle::load`]) vs compiling it from
//!   IRDL source through the frontend ([`DialectBundle::compile`]).
//!   Registration into the context registry is shared by both paths, so
//!   the ratio is bounded by frontend-vs-artifact-decode (~4x asymptote).
//!   Gate: load ≥ 1.5x compile (bundles/s).
//!
//! Timing uses `std::time::Instant` only. A counting global allocator
//! reports per-op heap allocations on both module paths, substantiating
//! that decode does strictly less work than parse. Results are written to
//! `BENCH_bytecode.json` at the repository root.
//!
//! ```text
//! cargo run -p irdl-bench --bin bytebench --release [-- --quick]
//! ```

use std::hint::black_box;

use irdl::DialectBundle;
use irdl_bench::measure::{
    finish, json_f, measure, quick, report_header, CountingAlloc, Measurement,
};
use irdl_bench::ModuleSet;
use irdl_ir::print::op_to_string;
use irdl_ir::Context;

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// Gates
// ---------------------------------------------------------------------------

/// Corpus module decode must beat text parse by at least this factor
/// (construction-bound workload; see the module docs).
const REQUIRED_DECODE_SPEEDUP: f64 = 1.5;
/// Distinct-constant (weights) module decode must beat text parse by at
/// least this factor (interning-bound workload; see the module docs).
const REQUIRED_WEIGHTS_DISTINCT_SPEEDUP: f64 = 1.5;
/// Shared-constant (weights) module decode must beat text parse by at
/// least this factor: the pool stores each unique array once while the
/// alias-free text repeats it per use.
const REQUIRED_WEIGHTS_SHARED_SPEEDUP: f64 = 10.0;
/// Bundle load must beat frontend compile by at least this factor
/// (registration-bound workload; see the module docs).
const REQUIRED_LOAD_SPEEDUP: f64 = 1.5;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct ModuleLoadReport {
    modules: usize,
    ops: usize,
    text_bytes: usize,
    bytecode_bytes: usize,
    parse: Measurement,
    decode: Measurement,
}

impl ModuleLoadReport {
    fn speedup(&self) -> f64 {
        self.decode.units_per_sec / self.parse.units_per_sec
    }
}

/// Parse vs decode over the corpus module set, in one long-lived
/// corpus-registered context (modules are erased per pass so arenas stay
/// bounded).
fn run_module_load(budget: f64) -> ModuleLoadReport {
    let mut set = ModuleSet::new(irdl_bench::corpus_context().0, irdl_bench::corpus_texts());
    let (modules, ops) = (set.texts.len(), set.ops);
    let (text_bytes, bytecode_bytes) = (set.text_bytes(), set.bytecode_bytes());
    let parse = measure(|| set.parse_pass(), modules, ops, budget);
    let decode = measure(|| set.decode_pass(), modules, ops, budget);
    ModuleLoadReport { modules, ops, text_bytes, bytecode_bytes, parse, decode }
}

struct WeightsReport {
    modules: usize,
    distinct_arrays: usize,
    elements: usize,
    text_bytes: usize,
    bytecode_bytes: usize,
    parse: Measurement,
    decode: Measurement,
}

impl WeightsReport {
    fn speedup(&self) -> f64 {
        self.decode.units_per_sec / self.parse.units_per_sec
    }
}

/// Parse vs decode over constant-heavy modules: `MODULES` modules of
/// `OPS_PER_MODULE` generic ops, each op carrying one array attribute of
/// `ELEMS` integer attributes. With `distinct_arrays = OPS_PER_MODULE`
/// every op carries its own array (the measured win is literal decode);
/// with a smaller count, ops share arrays — the pool stores each unique
/// array once while text repeats the full literal at every use.
fn run_weights(budget: f64, distinct_arrays: usize) -> WeightsReport {
    const MODULES: usize = 8;
    const OPS_PER_MODULE: usize = 16;
    const ELEMS: usize = 256;

    let mut ctx = Context::new();
    let weight = ctx.symbol("weight");
    let i64t = ctx.i64_type();
    let const_name = ctx.op_name("w", "const");
    let mut texts = Vec::with_capacity(MODULES);
    for m in 0..MODULES {
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let arrays: Vec<_> = (0..distinct_arrays)
            .map(|a| {
                let base = ((m * OPS_PER_MODULE + a) * ELEMS) as i128;
                let items: Vec<_> =
                    (0..ELEMS).map(|e| ctx.int_attr(base + e as i128, i64t)).collect();
                ctx.array_attr(items)
            })
            .collect();
        for o in 0..OPS_PER_MODULE {
            let value = arrays[o % arrays.len()];
            let op = ctx.create_op(
                irdl_ir::OperationState::new(const_name)
                    .add_result_types([i64t])
                    .add_attribute(weight, value),
            );
            ctx.append_op(block, op);
        }
        texts.push(op_to_string(&ctx, module));
        ctx.erase_op(module);
    }
    let elements = MODULES * OPS_PER_MODULE * ELEMS;
    let mut set = ModuleSet::new(ctx, texts);
    let (text_bytes, bytecode_bytes) = (set.text_bytes(), set.bytecode_bytes());
    let parse = measure(|| set.parse_pass(), MODULES, elements, budget);
    let decode = measure(|| set.decode_pass(), MODULES, elements, budget);

    WeightsReport { modules: MODULES, distinct_arrays, elements, text_bytes, bytecode_bytes, parse, decode }
}

struct BundleReport {
    dialects: usize,
    source_bytes: usize,
    artifact_bytes: usize,
    compile: Measurement,
    load: Measurement,
}

impl BundleReport {
    fn speedup(&self) -> f64 {
        self.load.units_per_sec / self.compile.units_per_sec
    }
}

/// Frontend compile vs artifact load of the full 28-dialect corpus.
fn run_bundle_cold_start(budget: f64) -> BundleReport {
    let natives = irdl_dialects::corpus_natives();
    let sources = irdl_dialects::corpus_sources();
    let bundle = DialectBundle::compile(&sources, &natives).expect("corpus compiles");
    let artifact = bundle.save().expect("corpus bundle saves");
    let dialects = bundle.recipes().len();
    let source_bytes = sources.iter().map(|(_, s)| s.len()).sum();

    let compile = measure(
        || {
            let bundle = DialectBundle::compile(&sources, &natives).expect("compiles");
            black_box(&bundle);
            1
        },
        1,
        1,
        budget,
    );
    let load = measure(
        || {
            let bundle = DialectBundle::load(&artifact, &natives).expect("loads");
            black_box(&bundle);
            1
        },
        1,
        1,
        budget,
    );

    BundleReport { dialects, source_bytes, artifact_bytes: artifact.len(), compile, load }
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

fn weights_json(key: &str, weights: &WeightsReport) -> String {
    format!(
        concat!(
            "  \"{}\": {{\n",
            "    \"modules\": {},\n",
            "    \"distinct_arrays_per_module\": {},\n",
            "    \"elements\": {},\n",
            "    \"text_bytes\": {},\n",
            "    \"bytecode_bytes\": {},\n",
            "    \"parse_elems_per_sec\": {},\n",
            "    \"decode_elems_per_sec\": {},\n",
            "    \"decode_speedup_vs_parse\": {}\n",
            "  }},\n",
        ),
        key,
        weights.modules,
        weights.distinct_arrays,
        weights.elements,
        weights.text_bytes,
        weights.bytecode_bytes,
        json_f(weights.parse.units_per_sec),
        json_f(weights.decode.units_per_sec),
        json_f(weights.speedup()),
    )
}

fn report_json(
    modules: &ModuleLoadReport,
    distinct: &WeightsReport,
    shared: &WeightsReport,
    bundles: &BundleReport,
) -> String {
    let mut out = report_header("bytecode load paths", "bytebench");
    out.push_str(&format!(
        concat!(
            "  \"required_decode_speedup\": {},\n",
            "  \"required_weights_distinct_speedup\": {},\n",
            "  \"required_weights_shared_speedup\": {},\n",
            "  \"required_load_speedup\": {},\n",
            "  \"module_load\": {{\n",
            "    \"modules\": {},\n",
            "    \"ops\": {},\n",
            "    \"text_bytes\": {},\n",
            "    \"bytecode_bytes\": {},\n",
            "    \"parse_ops_per_sec\": {},\n",
            "    \"parse_allocs_per_op\": {:.2},\n",
            "    \"decode_ops_per_sec\": {},\n",
            "    \"decode_allocs_per_op\": {:.2},\n",
            "    \"decode_speedup_vs_parse\": {}\n",
            "  }},\n",
            "{}",
            "{}",
            "  \"bundle_cold_start\": {{\n",
            "    \"dialects\": {},\n",
            "    \"source_bytes\": {},\n",
            "    \"artifact_bytes\": {},\n",
            "    \"compiles_per_sec\": {},\n",
            "    \"loads_per_sec\": {},\n",
            "    \"load_speedup_vs_compile\": {}\n",
            "  }}\n",
            "}}\n",
        ),
        REQUIRED_DECODE_SPEEDUP,
        REQUIRED_WEIGHTS_DISTINCT_SPEEDUP,
        REQUIRED_WEIGHTS_SHARED_SPEEDUP,
        REQUIRED_LOAD_SPEEDUP,
        modules.modules,
        modules.ops,
        modules.text_bytes,
        modules.bytecode_bytes,
        json_f(modules.parse.units_per_sec),
        modules.parse.allocs_per_unit,
        json_f(modules.decode.units_per_sec),
        modules.decode.allocs_per_unit,
        json_f(modules.speedup()),
        weights_json("weights_distinct", distinct),
        weights_json("weights_shared", shared),
        bundles.dialects,
        bundles.source_bytes,
        bundles.artifact_bytes,
        json_f(bundles.compile.units_per_sec),
        json_f(bundles.load.units_per_sec),
        json_f(bundles.speedup()),
    ));
    out
}

fn main() {
    // Quick mode trims the per-workload budget for CI smoke runs; floors
    // stay enforced.
    let budget = if quick() { 0.08 } else { 0.5 };

    eprintln!("generating corpus module workload...");
    let modules = run_module_load(budget);
    eprintln!(
        "module_load: {} modules / {} ops, text {} B vs bytecode {} B, \
         parse {:.0} ops/s ({:.2} allocs/op) vs decode {:.0} ops/s ({:.2} allocs/op), \
         speedup {:.2}x",
        modules.modules,
        modules.ops,
        modules.text_bytes,
        modules.bytecode_bytes,
        modules.parse.units_per_sec,
        modules.parse.allocs_per_unit,
        modules.decode.units_per_sec,
        modules.decode.allocs_per_unit,
        modules.speedup(),
    );

    let report_weights = |label: &str, weights: &WeightsReport| {
        eprintln!(
            "{label}: {} modules / {} elements ({} distinct arrays/module), \
             text {} B vs bytecode {} B, \
             parse {:.0} elems/s vs decode {:.0} elems/s, speedup {:.2}x",
            weights.modules,
            weights.elements,
            weights.distinct_arrays,
            weights.text_bytes,
            weights.bytecode_bytes,
            weights.parse.units_per_sec,
            weights.decode.units_per_sec,
            weights.speedup(),
        );
    };
    let distinct = run_weights(budget, 16);
    report_weights("weights_distinct", &distinct);
    let shared = run_weights(budget, 2);
    report_weights("weights_shared", &shared);

    let bundles = run_bundle_cold_start(budget);
    eprintln!(
        "bundle_cold_start: {} dialects, source {} B vs artifact {} B, \
         compile {:.2}/s vs load {:.2}/s, speedup {:.2}x",
        bundles.dialects,
        bundles.source_bytes,
        bundles.artifact_bytes,
        bundles.compile.units_per_sec,
        bundles.load.units_per_sec,
        bundles.speedup(),
    );

    let mut failures = Vec::new();
    if modules.speedup() < REQUIRED_DECODE_SPEEDUP {
        failures.push(format!(
            "module decode speedup {:.2}x is below the required {REQUIRED_DECODE_SPEEDUP}x",
            modules.speedup()
        ));
    }
    if distinct.speedup() < REQUIRED_WEIGHTS_DISTINCT_SPEEDUP {
        failures.push(format!(
            "distinct-weights decode speedup {:.2}x is below the required \
             {REQUIRED_WEIGHTS_DISTINCT_SPEEDUP}x",
            distinct.speedup()
        ));
    }
    if shared.speedup() < REQUIRED_WEIGHTS_SHARED_SPEEDUP {
        failures.push(format!(
            "shared-weights decode speedup {:.2}x is below the required \
             {REQUIRED_WEIGHTS_SHARED_SPEEDUP}x",
            shared.speedup()
        ));
    }
    if bundles.speedup() < REQUIRED_LOAD_SPEEDUP {
        failures.push(format!(
            "bundle load speedup {:.2}x is below the required {REQUIRED_LOAD_SPEEDUP}x",
            bundles.speedup()
        ));
    }
    finish("bytecode", &report_json(&modules, &distinct, &shared, &bundles), &failures);
}
