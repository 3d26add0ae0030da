//! Zero-dependency memory benchmark: allocations per constructed op.
//!
//! PR 8 left op construction at ~8 heap allocations per operation: six
//! per-op `Vec`s in `OperationData`, a `Vec<Vec<Use>>` use-list, and
//! operand-vector clones on the erase path. The compact-storage layer
//! (inline payloads, intrusive use-chains, pooled spill buffers — see
//! DESIGN.md "Op storage layout") exists to break that floor. This bench
//! substantiates the claim with a counting global allocator:
//!
//! - **text_parse**: the corpus module workload (one module per
//!   instantiable corpus op plus the combined big file, as `bytebench`
//!   measures). Gates: ≤ 3 allocs/op and ≥ 1.3x the PR 8 parse
//!   throughput baseline.
//! - **bytecode_decode**: the same modules decoded from `IRBC` bytecode.
//!   Gates: ≤ 2 allocs/op and ≥ 1.3x the PR 8 decode throughput baseline.
//! - **steady_rewrite**: a warmed journaled rewrite loop (insert a
//!   replacement op, forward uses, erase the old op, via the rewrite
//!   `Rewriter`). After warmup every buffer involved — inline op payloads,
//!   the spill pool, arena free lists, journal vectors, order-key
//!   respacing — is recycled, so the gate is **exactly zero** allocations
//!   per rewrite step.
//!
//! The throughput baselines are the PR 8 numbers recorded in
//! BENCH_bytecode.json on this machine; the alloc gates are
//! deterministic counts, independent of machine load. Results are written
//! to `BENCH_mem.json` at the repository root.
//!
//! ```text
//! cargo run -p irdl-bench --bin membench --release [-- --quick]
//! ```
//!
//! `--quick` trims measurement budgets for CI smoke runs and skips the
//! machine-relative throughput floors (load-sensitive); the deterministic
//! allocation gates are always enforced.

use std::hint::black_box;

use irdl_bench::measure::{
    allocs, finish, json_f, measure, quick, report_header, timed, CountingAlloc, Measurement,
};
use irdl_bench::ModuleSet;
use irdl_ir::{ChangeJournal, Context, OpRef, OperationState};
use irdl_rewrite::Rewriter;

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// Gates and baselines
// ---------------------------------------------------------------------------

/// Construction from text must average at most this many heap allocations
/// per op over the corpus workload.
const MAX_PARSE_ALLOCS_PER_OP: f64 = 3.0;
/// Construction from bytecode must average at most this many.
const MAX_DECODE_ALLOCS_PER_OP: f64 = 2.0;
/// A warmed rewrite step must not allocate at all.
const MAX_REWRITE_ALLOCS: u64 = 0;
/// Parse and decode must beat the PR 8 baseline by at least this factor.
const REQUIRED_THROUGHPUT_SPEEDUP: f64 = 1.3;

/// PR 8 corpus parse throughput (ops/s) from BENCH_bytecode.json, recorded
/// at 8.34 allocs/op on this machine.
const PR8_PARSE_OPS_PER_SEC: f64 = 1_002_322.7;
/// PR 8 corpus decode throughput (ops/s), recorded at 7.46 allocs/op.
const PR8_DECODE_OPS_PER_SEC: f64 = 2_007_525.5;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct LoadReport {
    modules: usize,
    ops: usize,
    parse: Measurement,
    decode: Measurement,
}

/// Parse and decode the corpus module set in one long-lived
/// corpus-registered context, erasing each module after the load so
/// arenas and pools reach steady state.
fn run_construction(budget: f64) -> LoadReport {
    let mut set = ModuleSet::new(irdl_bench::corpus_context().0, irdl_bench::corpus_texts());
    let (modules, ops) = (set.texts.len(), set.ops);
    let parse = measure(|| set.parse_pass(), modules, ops, budget);
    let decode = measure(|| set.decode_pass(), modules, ops, budget);
    LoadReport { modules, ops, parse, decode }
}

struct RewriteReport {
    steps: usize,
    total_allocs: u64,
    steps_per_sec: f64,
}

/// A journaled replace-forward-erase loop: each step inserts a fresh op
/// before the current one, forwards the current op's uses to it, and
/// erases the old op — the canonical greedy-rewrite inner step. After
/// warmup the step count is exact: zero heap allocations.
fn run_steady_rewrite(steps: usize) -> RewriteReport {
    let mut ctx = Context::new();
    let f32t = ctx.f32_type();
    let src_name = ctx.op_name("m", "src");
    let mid_name = ctx.op_name("m", "mid");
    let sink_name = ctx.op_name("m", "sink");

    let module = ctx.create_module();
    let block = ctx.module_block(module);
    let src = ctx.create_op(OperationState::new(src_name).add_result_types([f32t]));
    ctx.append_op(block, src);
    let feed = src.result(&ctx, 0);
    let mut current =
        ctx.create_op(OperationState::new(mid_name).add_operands([feed]).add_result_types([f32t]));
    ctx.append_op(block, current);
    let sink = ctx
        .create_op(OperationState::new(sink_name).add_operands([current.result(&ctx, 0)]));
    ctx.append_op(block, sink);

    let mut journal = ChangeJournal::new();
    let step = |ctx: &mut Context, journal: &mut ChangeJournal, current: OpRef| {
        journal.clear();
        let mut rw = Rewriter::new(ctx, current, journal);
        let fresh = rw.insert_before(
            current,
            OperationState::new(mid_name).add_operands([feed]).add_result_types([f32t]),
        );
        let old = current.result(rw.ctx(), 0);
        let new = fresh.result(rw.ctx(), 0);
        rw.replace_all_uses(old, new);
        rw.erase(current);
        fresh
    };

    // Warmup: grow every reusable buffer (journal vectors, spill pool,
    // arena free lists, erase scratch) and cycle past an order-key
    // respace so the measured loop runs entirely on recycled storage.
    for _ in 0..4096 {
        current = step(&mut ctx, &mut journal, current);
    }

    let before = allocs();
    let ((), secs) = timed(|| {
        for _ in 0..steps {
            current = step(&mut ctx, &mut journal, current);
        }
    });
    let total_allocs = allocs() - before;
    black_box(current);

    RewriteReport { steps, total_allocs, steps_per_sec: steps as f64 / secs.max(1e-9) }
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

fn report_json(load: &LoadReport, rewrite: &RewriteReport) -> String {
    let mut out = report_header("op construction allocations", "membench");
    out.push_str(&format!(
        concat!(
            "  \"max_parse_allocs_per_op\": {},\n",
            "  \"max_decode_allocs_per_op\": {},\n",
            "  \"max_rewrite_allocs_per_step\": {},\n",
            "  \"required_throughput_speedup\": {},\n",
            "  \"baseline\": {{\n",
            "    \"note\": \"PR 8 (pre-compact-storage) corpus numbers, this machine\",\n",
            "    \"parse_ops_per_sec\": {},\n",
            "    \"parse_allocs_per_op\": 8.34,\n",
            "    \"decode_ops_per_sec\": {},\n",
            "    \"decode_allocs_per_op\": 7.46\n",
            "  }},\n",
            "  \"text_parse\": {{\n",
            "    \"modules\": {},\n",
            "    \"ops\": {},\n",
            "    \"ops_per_sec\": {},\n",
            "    \"allocs_per_op\": {:.2},\n",
            "    \"speedup_vs_pr8\": {:.2}\n",
            "  }},\n",
            "  \"bytecode_decode\": {{\n",
            "    \"modules\": {},\n",
            "    \"ops\": {},\n",
            "    \"ops_per_sec\": {},\n",
            "    \"allocs_per_op\": {:.2},\n",
            "    \"speedup_vs_pr8\": {:.2}\n",
            "  }},\n",
            "  \"steady_rewrite\": {{\n",
            "    \"steps\": {},\n",
            "    \"total_allocs\": {},\n",
            "    \"steps_per_sec\": {}\n",
            "  }}\n",
            "}}\n",
        ),
        MAX_PARSE_ALLOCS_PER_OP,
        MAX_DECODE_ALLOCS_PER_OP,
        MAX_REWRITE_ALLOCS,
        REQUIRED_THROUGHPUT_SPEEDUP,
        json_f(PR8_PARSE_OPS_PER_SEC),
        json_f(PR8_DECODE_OPS_PER_SEC),
        load.modules,
        load.ops,
        json_f(load.parse.units_per_sec),
        load.parse.allocs_per_unit,
        load.parse.units_per_sec / PR8_PARSE_OPS_PER_SEC,
        load.modules,
        load.ops,
        json_f(load.decode.units_per_sec),
        load.decode.allocs_per_unit,
        load.decode.units_per_sec / PR8_DECODE_OPS_PER_SEC,
        rewrite.steps,
        rewrite.total_allocs,
        json_f(rewrite.steps_per_sec),
    ));
    out
}

fn main() {
    let quick = quick();
    let budget = if quick { 0.08 } else { 0.5 };
    let rewrite_steps = if quick { 20_000 } else { 200_000 };

    eprintln!("generating corpus module workload...");
    let load = run_construction(budget);
    eprintln!(
        "text_parse: {} modules / {} ops, {:.0} ops/s, {:.2} allocs/op ({:.2}x vs PR 8)",
        load.modules,
        load.ops,
        load.parse.units_per_sec,
        load.parse.allocs_per_unit,
        load.parse.units_per_sec / PR8_PARSE_OPS_PER_SEC,
    );
    eprintln!(
        "bytecode_decode: {} modules / {} ops, {:.0} ops/s, {:.2} allocs/op ({:.2}x vs PR 8)",
        load.modules,
        load.ops,
        load.decode.units_per_sec,
        load.decode.allocs_per_unit,
        load.decode.units_per_sec / PR8_DECODE_OPS_PER_SEC,
    );

    let rewrite = run_steady_rewrite(rewrite_steps);
    eprintln!(
        "steady_rewrite: {} steps, {} total allocs, {:.0} steps/s",
        rewrite.steps, rewrite.total_allocs, rewrite.steps_per_sec,
    );

    let mut failures = Vec::new();
    if load.parse.allocs_per_unit > MAX_PARSE_ALLOCS_PER_OP {
        failures.push(format!(
            "parse at {:.2} allocs/op exceeds the {MAX_PARSE_ALLOCS_PER_OP} gate",
            load.parse.allocs_per_unit
        ));
    }
    if load.decode.allocs_per_unit > MAX_DECODE_ALLOCS_PER_OP {
        failures.push(format!(
            "decode at {:.2} allocs/op exceeds the {MAX_DECODE_ALLOCS_PER_OP} gate",
            load.decode.allocs_per_unit
        ));
    }
    if rewrite.total_allocs > MAX_REWRITE_ALLOCS {
        failures.push(format!(
            "steady-state rewrite performed {} allocations over {} steps (gate: {})",
            rewrite.total_allocs, rewrite.steps, MAX_REWRITE_ALLOCS
        ));
    }
    // Throughput floors compare against fixed numbers recorded on an idle
    // machine, so they are only meaningful in full runs.
    if !quick {
        if load.parse.units_per_sec < REQUIRED_THROUGHPUT_SPEEDUP * PR8_PARSE_OPS_PER_SEC {
            failures.push(format!(
                "parse throughput {:.0} ops/s is below {REQUIRED_THROUGHPUT_SPEEDUP}x \
                 the PR 8 baseline ({PR8_PARSE_OPS_PER_SEC} ops/s)",
                load.parse.units_per_sec
            ));
        }
        if load.decode.units_per_sec < REQUIRED_THROUGHPUT_SPEEDUP * PR8_DECODE_OPS_PER_SEC {
            failures.push(format!(
                "decode throughput {:.0} ops/s is below {REQUIRED_THROUGHPUT_SPEEDUP}x \
                 the PR 8 baseline ({PR8_DECODE_OPS_PER_SEC} ops/s)",
                load.decode.units_per_sec
            ));
        }
    }
    finish("mem", &report_json(&load, &rewrite), &failures);
}
