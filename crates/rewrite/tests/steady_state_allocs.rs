//! Regression gates for the allocation-free steady state of greedy
//! rewriting.
//!
//! - A warmed journaled rewrite step — insert a replacement, forward uses,
//!   erase the original — performs **zero** heap allocations. The compact
//!   op storage layer (inline payloads, spill pool, recycled journal and
//!   erase scratch; see DESIGN.md "Op storage layout") exists to make it
//!   allocation-free.
//! - On the paper's workload (the showcase dialects and semantics), a
//!   declined constant-fold attempt, an applied fold and one application
//!   of Listing 1's `conorm` each make 0 allocations, once repeated
//!   constant values have been interned.
//! - A whole checked drive (`CheckLevel::Incremental`, automaton
//!   dispatch) over a module that folds and applies `conorm` makes 0
//!   allocations on a warmed context: its worklist, queued set, journal
//!   and incremental verifier are parked in the context between drives.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use irdl_dialects::showcase::{register_showcase, CONORM_PATTERN};
use irdl_ir::parse::parse_module;
use irdl_ir::{ChangeJournal, Context, ModuleVerifier, OpRef, OperationState, Value};
use irdl_rewrite::{
    parse_patterns, rewrite_greedily_matched, CheckLevel, FoldConstants, MatcherMode,
    RewritePattern, Rewriter,
};

/// Counts allocations per thread: the tests of this binary run in
/// parallel, and each gate must see only its own thread's allocations.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the current thread makes in `f`.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let result = f();
    (ALLOCS.with(Cell::get) - before, result)
}

#[test]
fn warmed_rewrite_step_is_allocation_free() {
    let mut ctx = Context::new();
    let f32t = ctx.f32_type();
    let name = ctx.op_name("t", "node");

    let module = ctx.create_module();
    let block = ctx.module_block(module);
    let src = ctx.create_op(OperationState::new(name).add_result_types([f32t]));
    ctx.append_op(block, src);
    let feed = src.result(&ctx, 0);
    let mut current =
        ctx.create_op(OperationState::new(name).add_operands([feed]).add_result_types([f32t]));
    ctx.append_op(block, current);
    let sink =
        ctx.create_op(OperationState::new(name).add_operands([current.result(&ctx, 0)]));
    ctx.append_op(block, sink);

    let mut journal = ChangeJournal::new();
    let step = |ctx: &mut Context, journal: &mut ChangeJournal, current: OpRef| {
        journal.clear();
        let mut rw = Rewriter::new(ctx, current, journal);
        let fresh = rw.insert_before(
            current,
            OperationState::new(name).add_operands([feed]).add_result_types([f32t]),
        );
        let old = current.result(rw.ctx(), 0);
        let new = fresh.result(rw.ctx(), 0);
        rw.replace_all_uses(old, new);
        rw.erase(current);
        fresh
    };

    // Warm past every buffer growth, including an order-key respace of the
    // block (orders are respaced every ~2^12 prepends at ORDER_STRIDE).
    for _ in 0..8192 {
        current = step(&mut ctx, &mut journal, current);
    }

    let (used, ()) = allocs_in(|| {
        for _ in 0..10_000 {
            current = step(&mut ctx, &mut journal, current);
        }
    });
    assert_eq!(used, 0, "steady-state rewrite steps must not allocate");
    assert_eq!(current.num_operands(&ctx), 1);
}

/// Warm-up applications before a budget is measured: past every buffer
/// growth and the block's order-key respace, as above.
const WARM: usize = 8192;
/// Measured applications per gate.
const ROUNDS: usize = 2000;

/// The showcase dialects and one block of inputs for the gates: complex
/// arguments `%p`/`%q`, a non-constant float `%x`, float constants
/// `%a`/`%b`, and a `test.sink` that keeps one value used.
struct Workbench {
    ctx: Context,
    journal: ChangeJournal,
    /// The ops of the parsed block, in order.
    ops: Vec<OpRef>,
}

impl Workbench {
    fn new() -> Workbench {
        let mut ctx = Context::new();
        register_showcase(&mut ctx).expect("showcase registers");
        let module = parse_module(
            &mut ctx,
            r#"
            %p = "test.arg"() : () -> !cmath.complex<f32>
            %q = "test.arg"() : () -> !cmath.complex<f32>
            %x = "test.arg"() : () -> f32
            %a = "arith.constant"() {value = 1.5 : f32} : () -> f32
            %b = "arith.constant"() {value = 2.0 : f32} : () -> f32
            %d = "arith.mulf"(%a, %x) : (f32, f32) -> f32
            %n = "cmath.norm"(%p) : (!cmath.complex<f32>) -> f32
            "test.sink"(%a, %d, %n, %x) : (f32, f32, f32, f32) -> ()
            "#,
        )
        .expect("gate module parses");
        let block = ctx.module_block(module);
        let ops = block.ops(&ctx).to_vec();
        Workbench { ctx, journal: ChangeJournal::new(), ops }
    }

    fn value(&self, index: usize) -> Value {
        self.ops[index].result(&self.ctx, 0)
    }

    fn sink(&self) -> OpRef {
        *self.ops.last().expect("the sink closes the block")
    }

    /// Runs `pattern` on `root` and returns (allocations, applied?).
    fn attempt(&mut self, pattern: &dyn RewritePattern, root: OpRef) -> (u64, bool) {
        self.journal.clear();
        let (ctx, journal) = (&mut self.ctx, &mut self.journal);
        allocs_in(|| pattern.match_and_rewrite(&mut Rewriter::new(ctx, root, journal)))
    }

    /// Inserts `state` before the sink (unmeasured set-up).
    fn insert(&mut self, state: OperationState) -> OpRef {
        self.journal.clear();
        let sink = self.sink();
        Rewriter::new(&mut self.ctx, sink, &mut self.journal).insert_before(sink, state)
    }

    /// Points the sink's first operand at `value` and erases `stale` (the
    /// previous round's output) bottom-up once unused (unmeasured).
    fn retarget_sink(&mut self, value: Value, stale: &[OpRef]) {
        self.journal.clear();
        let sink = self.sink();
        let mut rw = Rewriter::new(&mut self.ctx, sink, &mut self.journal);
        rw.set_operand(sink, 0, value);
        for &op in stale {
            assert!(rw.erase_if_unused(op), "stale op must be unused");
        }
    }
}

/// Runs `round` `WARM` times, then `ROUNDS` more, and returns the largest
/// allocation count a measured round reported.
fn steady_max(mut round: impl FnMut() -> u64) -> u64 {
    for _ in 0..WARM {
        round();
    }
    (0..ROUNDS).map(|_| round()).max().unwrap_or(0)
}

#[test]
fn declined_fold_attempts_are_allocation_free() {
    let mut bench = Workbench::new();
    let fold = FoldConstants::new(Arc::new(irdl_dialects::showcase_semantics()));
    // No evaluator (`test.arg`), itself a constant, a non-constant operand
    // (`mulf(%a, %x)`, `norm(%p)`), and an unused result (`%b`).
    let declined = [bench.ops[2], bench.ops[3], bench.ops[4], bench.ops[5], bench.ops[6]];
    let worst = steady_max(|| {
        declined
            .iter()
            .map(|&op| {
                let (allocs, applied) = bench.attempt(&fold, op);
                assert!(!applied, "{} must not fold", op.name(&bench.ctx).display(&bench.ctx));
                allocs
            })
            .max()
            .unwrap_or(0)
    });
    assert_eq!(worst, 0, "a declined fold attempt must not allocate");
}

#[test]
fn applied_fold_is_allocation_free() {
    let mut bench = Workbench::new();
    let fold = FoldConstants::new(Arc::new(irdl_dialects::showcase_semantics()));
    let mulf = bench.ctx.op_name("arith", "mulf");
    let f32t = bench.ctx.f32_type();
    let (a, b) = (bench.value(3), bench.value(4));
    let mut stale: Option<OpRef> = None;
    let worst = steady_max(|| {
        // Fold `%a * %b` fed to the sink; it always folds to 3.0, so the
        // materialized attribute is interned after the first round.
        let product = bench
            .insert(OperationState::new(mulf).add_operands([a, b]).add_result_types([f32t]));
        let value = product.result(&bench.ctx, 0);
        bench.retarget_sink(value, stale.as_slice());
        let (allocs, applied) = bench.attempt(&fold, product);
        assert!(applied, "mulf of two constants must fold");
        stale = bench.sink().operand(&bench.ctx, 0).defining_op(&bench.ctx);
        allocs
    });
    assert_eq!(worst, 0, "an applied fold must not allocate");
}

#[test]
fn conorm_application_is_allocation_free() {
    let mut bench = Workbench::new();
    let patterns = parse_patterns(&mut bench.ctx, CONORM_PATTERN).expect("conorm parses");
    let conorm = patterns.patterns()[0].clone();
    let norm = bench.ctx.op_name("cmath", "norm");
    let mulf = bench.ctx.op_name("arith", "mulf");
    let f32t = bench.ctx.f32_type();
    let (p, q) = (bench.value(0), bench.value(1));
    let mut stale: Vec<OpRef> = Vec::with_capacity(2);
    let worst = steady_max(|| {
        let n1 = bench.insert(OperationState::new(norm).add_operands([p]).add_result_types([f32t]));
        let n2 = bench.insert(OperationState::new(norm).add_operands([q]).add_result_types([f32t]));
        let (v1, v2) = (n1.result(&bench.ctx, 0), n2.result(&bench.ctx, 0));
        let root =
            bench.insert(OperationState::new(mulf).add_operands([v1, v2]).add_result_types([f32t]));
        let value = root.result(&bench.ctx, 0);
        bench.retarget_sink(value, &stale);
        let (allocs, applied) = bench.attempt(&*conorm, root);
        assert!(applied, "norm(p) * norm(q) must match conorm");
        // The rewrite left `norm(mul(p, q))` feeding the sink.
        let new_norm = bench
            .sink()
            .operand(&bench.ctx, 0)
            .defining_op(&bench.ctx)
            .expect("conorm's replacement is an op result");
        let mul = new_norm
            .operand(&bench.ctx, 0)
            .defining_op(&bench.ctx)
            .expect("the new norm reads the new mul");
        stale.clear();
        stale.extend([new_norm, mul]);
        allocs
    });
    assert_eq!(worst, 0, "a conorm application must not allocate");
}

/// A cmath-opt-style function: two `conorm` triples, a constant chain the
/// folder collapses step by step, and opaque arithmetic nothing rewrites.
const DRIVE_INPUT: &str = r#"
"func.func_op"() ({
^bb0(%p0: !cmath.complex<f32>, %p1: !cmath.complex<f32>, %x0: f32):
  %n0 = "cmath.norm"(%p0) : (!cmath.complex<f32>) -> f32
  %n1 = "cmath.norm"(%p1) : (!cmath.complex<f32>) -> f32
  %r0 = "arith.mulf"(%n0, %n1) : (f32, f32) -> f32
  %c0 = "arith.constant"() {value = 1.5 : f32} : () -> f32
  %c1 = "arith.constant"() {value = 2.0 : f32} : () -> f32
  %s0 = "arith.mulf"(%c0, %c1) : (f32, f32) -> f32
  %c2 = "arith.constant"() {value = 0.25 : f32} : () -> f32
  %s1 = "arith.addf"(%s0, %c2) : (f32, f32) -> f32
  %s2 = "arith.mulf"(%s1, %s1) : (f32, f32) -> f32
  %o0 = "arith.mulf"(%x0, %s2) : (f32, f32) -> f32
  %n2 = "cmath.norm"(%p1) : (!cmath.complex<f32>) -> f32
  %n3 = "cmath.norm"(%p0) : (!cmath.complex<f32>) -> f32
  %r1 = "arith.mulf"(%n2, %n3) : (f32, f32) -> f32
  "func.return_op"(%r0, %s2, %o0, %r1) : (f32, f32, f32, f32) -> ()
}) {sym_name = "f", function_type = (!cmath.complex<f32>, !cmath.complex<f32>, f32) -> (f32, f32, f32, f32)} : () -> ()
"#;

#[test]
fn warmed_checked_drive_is_allocation_free() {
    let mut ctx = Context::new();
    register_showcase(&mut ctx).expect("showcase registers");
    let mut patterns = parse_patterns(&mut ctx, CONORM_PATTERN).expect("conorm parses");
    patterns.add(Arc::new(FoldConstants::new(Arc::new(irdl_dialects::showcase_semantics()))));
    patterns.seal();
    let mut verifier = ModuleVerifier::new();

    // Parse and verify outside the measurement, as `irdl-opt` does before
    // it drives; measure the drive alone.
    let mut drive = |ctx: &mut Context| {
        let module = parse_module(ctx, DRIVE_INPUT).expect("drive input parses");
        verifier.verify(ctx, module).expect("drive input verifies");
        let (allocs, outcome) = allocs_in(|| {
            rewrite_greedily_matched(
                ctx,
                module,
                &patterns,
                CheckLevel::Incremental,
                MatcherMode::Auto,
            )
        });
        let stats = outcome.expect("the drive stays valid");
        // Two conorm rewrites and three folds.
        assert_eq!(stats.rewrites, 5);
        ctx.erase_op(module);
        allocs
    };
    for _ in 0..64 {
        drive(&mut ctx);
    }
    let worst = (0..256).map(|_| drive(&mut ctx)).max().unwrap_or(0);
    assert_eq!(worst, 0, "a checked drive on a warmed context must not allocate");
}
