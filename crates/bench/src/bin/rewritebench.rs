//! Checked-rewrite throughput benchmark: incremental vs full re-verification.
//!
//! The workload is the shape the incremental verifier was built for: a
//! straight-line chain of `cmath.mul` ops over `!cmath.complex<f32>` and a
//! pattern rewriting `cmath.mul(x, x)` into `bench.sqr(x)`. Every rewrite
//! rewires the next link of the chain, so the greedy driver cascades down
//! the module applying exactly one rewrite per chain op — and a checked
//! driver re-verifies after every one of them.
//!
//! With `CheckLevel::Full` each of those checks walks the whole module, so
//! the drive is O(n^2) in the chain length. With `CheckLevel::Incremental`
//! the change journal names the one created op, the one rewired user, and
//! the dirty block, so each check is O(touched) and the drive is O(n).
//!
//! The gated quantity is the *paired* speedup of the incremental drive over
//! the full drive: in each round the two run back-to-back, so a load spike
//! degrades both sides instead of skewing their ratio, and the best round
//! wins. The floor is 5x at a 200-op chain. Two more properties are
//! enforced on every run:
//!
//! - both checked drives apply exactly `CHAIN_LEN` rewrites and produce
//!   byte-identical output to the unchecked drive;
//! - a warm incremental drive makes no allocation at all.
//!
//! Each check level drives one long-lived context, the way a pass
//! pipeline reuses its context: after each drive the rewritten chain is
//! erased and a fresh one built, outside the timer, so the measured drives
//! run on warm arenas, caches and parked drive state.
//!
//! Results are written to `BENCH_rewrite.json` at the repository root.
//!
//! ```text
//! cargo run -p irdl-bench --bin rewritebench --release [-- --quick]
//! ```

use irdl_bench::measure::{
    allocs, finish, iterations, paired, quick, report_header, timed, CountingAlloc,
};
use irdl_bench::{mul_chain_module, showcase_context};
use irdl_ir::print::op_to_string;
use irdl_ir::{Context, OpName, OpRef, OperationState};
use irdl_rewrite::{rewrite_greedily_with, CheckLevel, PatternSet, RewritePattern, Rewriter};

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Chain length for the gated configuration. Long enough that the O(n^2)
/// full-check drive is clearly separated from the O(n) incremental one,
/// short enough that calibration stays fast in `--quick` CI runs.
const CHAIN_LEN: usize = 200;

/// The paired-speedup floor at [`CHAIN_LEN`].
const REQUIRED_SPEEDUP: f64 = 5.0;

/// Allocation ceiling per incremental checked rewrite on a warm context.
/// The journal, worklist, dirty sets and verifier scratch are parked in
/// the context between drives and the arenas reuse the erased chain's
/// slots, so a warm drive allocates nothing; any allocation fails the
/// gate.
const MAX_INCR_ALLOCS_PER_REWRITE: f64 = 0.0;

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

/// Rewrites `cmath.mul(x, x)` into `bench.sqr(x)`. Replacing the result
/// rewires the next chain link's operands, which requeues it, which makes
/// the driver cascade one rewrite per chain op.
struct MulToSqr {
    mul: OpName,
    sqr: OpName,
}

impl RewritePattern for MulToSqr {
    fn root(&self) -> Option<OpName> {
        Some(self.mul)
    }
    fn name(&self) -> &str {
        "mul-to-sqr"
    }
    fn match_and_rewrite(&self, rewriter: &mut Rewriter<'_>) -> bool {
        let op = rewriter.root();
        let ctx = rewriter.ctx();
        if op.num_operands(ctx) != 2 || op.operand(ctx, 0) != op.operand(ctx, 1) {
            return false;
        }
        let x = op.operand(ctx, 0);
        let result_ty = op.result_types(ctx)[0];
        let sqr = rewriter.insert_before_root(
            OperationState::new(self.sqr).add_operands([x]).add_result_types([result_ty]),
        );
        let replacement = sqr.result(rewriter.ctx(), 0);
        rewriter.replace_root(&[replacement]);
        true
    }
}

/// A pristine context holding the untouched chain; each check level
/// starts from a clone of it.
struct Workload {
    pristine: Context,
    module: OpRef,
    patterns: PatternSet,
}

fn build_workload() -> Workload {
    let mut ctx = showcase_context();
    let module = mul_chain_module(&mut ctx, CHAIN_LEN);
    let mut patterns = PatternSet::new();
    patterns.add(std::sync::Arc::new(MulToSqr {
        mul: ctx.op_name("cmath", "mul"),
        sqr: ctx.op_name("bench", "sqr"),
    }));
    Workload { pristine: ctx, module, patterns }
}

/// One timed checked drive.
struct Drive {
    secs: f64,
    allocs: u64,
}

/// The printed module after a drive at `check`, for the output-equivalence
/// gate.
fn drive_output(w: &Workload, check: CheckLevel) -> String {
    let mut ctx = w.pristine.clone();
    rewrite_greedily_with(&mut ctx, w.module, &w.patterns, check)
        .expect("the chain stays valid under rewriting");
    op_to_string(&ctx, w.module)
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// A drive at one check level on its own warm context, with its
/// iteration count calibrated to `budget` seconds per round after two
/// warm-up drives.
struct Level {
    check: CheckLevel,
    ctx: Context,
    module: OpRef,
    iters: usize,
    /// Allocations per rewrite in the latest round: the steady state.
    allocs_per_rewrite: f64,
}

impl Level {
    fn calibrate(w: &Workload, check: CheckLevel, budget: f64) -> Level {
        let ctx = w.pristine.clone();
        let mut level =
            Level { check, ctx, module: w.module, iters: 0, allocs_per_rewrite: 0.0 };
        for _ in 0..2 {
            level.drive(w);
        }
        level.iters = iterations(level.drive(w).secs, budget);
        level
    }

    /// One checked drive of the chain. Only the drive is timed and
    /// counted; erasing the rewritten chain and building the next one
    /// happen outside.
    fn drive(&mut self, w: &Workload) -> Drive {
        let (ctx, module, check) = (&mut self.ctx, self.module, self.check);
        let allocs_before = allocs();
        let (stats, secs) = timed(|| rewrite_greedily_with(ctx, module, &w.patterns, check));
        let allocs = allocs() - allocs_before;
        let stats = stats.expect("the chain stays valid under rewriting");
        assert_eq!(stats.rewrites, CHAIN_LEN, "one rewrite per chain op");
        self.ctx.erase_op(module);
        self.module = mul_chain_module(&mut self.ctx, CHAIN_LEN);
        Drive { secs, allocs }
    }

    /// One round of `iters` drives; returns the mean drive time.
    fn round(&mut self, w: &Workload) -> f64 {
        let mut secs = 0.0;
        let mut drive_allocs = 0u64;
        for _ in 0..self.iters {
            let drive = self.drive(w);
            secs += drive.secs;
            drive_allocs += drive.allocs;
        }
        self.allocs_per_rewrite = drive_allocs as f64 / (self.iters * CHAIN_LEN) as f64;
        secs / self.iters as f64
    }
}

fn main() {
    // Quick mode trims the per-round budget for CI smoke runs; the speedup
    // floor stays enforced, so the budget stays large enough for the
    // full/incremental ratio to be stable on a loaded machine.
    let budget = if quick() { 0.15 } else { 0.4 };
    let rounds = 3;

    let workload = build_workload();

    // Output equivalence: both checked drives must leave the module
    // byte-identical to the unchecked drive.
    let baseline = drive_output(&workload, CheckLevel::Off);
    let outputs_identical = drive_output(&workload, CheckLevel::Full) == baseline
        && drive_output(&workload, CheckLevel::Incremental) == baseline;
    assert!(outputs_identical, "checked drives must not change rewrite outcomes");
    assert!(
        baseline.contains("bench.sqr") && !baseline.contains("cmath.mul"),
        "the cascade must rewrite the whole chain"
    );

    let mut unchecked = Level::calibrate(&workload, CheckLevel::Off, budget);
    let mut full = Level::calibrate(&workload, CheckLevel::Full, budget);
    let mut incremental = Level::calibrate(&workload, CheckLevel::Incremental, budget);

    let unchecked_best =
        (0..rounds).map(|_| unchecked.round(&workload)).fold(f64::INFINITY, f64::min);
    // The gated quantity: full over incremental, paired per round.
    let pair = paired(rounds, || full.round(&workload), || incremental.round(&workload));
    let speedup = pair.ratio;

    let mut json = report_header(
        "checked greedy rewriting: incremental vs full re-verification",
        "rewritebench",
    );
    json.push_str(&format!(
        concat!(
            "  \"required_speedup\": {:.1},\n",
            "  \"chain_len\": {},\n",
            "  \"rewrites_per_drive\": {},\n",
            "  \"speedup\": {:.2},\n",
            "  \"unchecked_drives_per_sec\": {:.1},\n",
            "  \"full_checked_drives_per_sec\": {:.1},\n",
            "  \"incremental_checked_drives_per_sec\": {:.1},\n",
            "  \"incremental_check_overhead\": {:.2},\n",
            "  \"full_allocs_per_rewrite\": {:.1},\n",
            "  \"incremental_allocs_per_rewrite\": {},\n",
            "  \"max_incremental_allocs_per_rewrite\": {:.1},\n",
            "  \"outputs_identical\": {}\n",
            "}}\n",
        ),
        REQUIRED_SPEEDUP,
        CHAIN_LEN,
        CHAIN_LEN,
        speedup,
        1.0 / unchecked_best,
        1.0 / pair.a_best,
        1.0 / pair.b_best,
        pair.b_best / unchecked_best,
        full.allocs_per_rewrite,
        incremental.allocs_per_rewrite,
        MAX_INCR_ALLOCS_PER_REWRITE,
        outputs_identical,
    ));
    eprintln!(
        "rewrite: {CHAIN_LEN}-op chain, full-checked {:.1} drives/s, incremental \
         {:.1} drives/s ({speedup:.2}x paired, floor {REQUIRED_SPEEDUP:.1}x), \
         incremental allocs/rewrite {}",
        1.0 / pair.a_best,
        1.0 / pair.b_best,
        incremental.allocs_per_rewrite,
    );

    let mut failures = Vec::new();
    if speedup < REQUIRED_SPEEDUP {
        failures.push(format!(
            "speedup {speedup:.2}x is below the required {REQUIRED_SPEEDUP:.1}x"
        ));
    }
    if incremental.allocs_per_rewrite > MAX_INCR_ALLOCS_PER_REWRITE {
        failures.push(format!(
            "{} allocations per warm incremental checked rewrite exceeds the \
             {MAX_INCR_ALLOCS_PER_REWRITE:.1} ceiling",
            incremental.allocs_per_rewrite
        ));
    }
    finish("rewrite", &json, &failures);
}
