//! The IR verifier: structural SSA rules plus registered dialect hooks.
//!
//! Verification proceeds in three layers, mirroring MLIR:
//!
//! 1. **Structural rules** that hold for any IR: terminators are final,
//!    successor edges stay within one region, every block of a multi-block
//!    region ends with a terminator, operations of unknown dialects are
//!    rejected when the context forbids them.
//! 2. **Dominance**: every operand's definition dominates its use
//!    (including uses nested in regions, which may capture values from
//!    enclosing regions).
//! 3. **Registered verifiers**: the per-operation hooks synthesized by the
//!    IRDL compiler from declarative constraints (or written natively).

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::block::BlockRef;
use crate::context::Context;
use crate::diag::Diagnostic;
use crate::dominance::DominanceCache;
use crate::journal::ChangeJournal;
use crate::op::OpRef;
use crate::region::RegionRef;
use crate::value::Value;

/// Verifies `root` and everything nested inside it.
///
/// # Errors
///
/// Returns every diagnostic discovered (the verifier does not stop at the
/// first failure).
pub fn verify_op(ctx: &Context, root: OpRef) -> Result<(), Vec<Diagnostic>> {
    verify(ctx, root, true)
}

/// Like [`verify_op`] but runs only the structural SSA rules, skipping
/// registered per-operation verifier hooks. Useful for checking IR whose
/// surrounding scaffolding is intentionally incomplete (e.g. generated
/// test inputs).
///
/// # Errors
///
/// Returns every structural diagnostic discovered.
pub fn verify_op_structural(ctx: &Context, root: OpRef) -> Result<(), Vec<Diagnostic>> {
    verify(ctx, root, false)
}

fn verify(ctx: &Context, root: OpRef, run_hooks: bool) -> Result<(), Vec<Diagnostic>> {
    ModuleVerifier::new().verify_inner(ctx, root, run_hooks)
}

/// A reusable whole-module verifier.
///
/// Behaves exactly like [`verify_op`], but the dominance cache and the
/// diagnostic buffer are retained (capacity-wise) across calls, so
/// verifying repeatedly does not re-allocate its scratch state each time.
/// Cached analyses are invalidated wholesale at the start of each call,
/// since the IR may have changed arbitrarily — this is the conservative
/// oracle; [`IncrementalVerifier`] is the journal-driven fast path.
#[derive(Default)]
pub struct ModuleVerifier {
    dominance: DominanceCache,
    diags: Vec<Diagnostic>,
}

impl ModuleVerifier {
    /// Creates a verifier with empty scratch state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Verifies `root` and everything nested inside it.
    ///
    /// # Errors
    ///
    /// Returns every diagnostic discovered (the verifier does not stop at
    /// the first failure).
    pub fn verify(&mut self, ctx: &Context, root: OpRef) -> Result<(), Vec<Diagnostic>> {
        self.verify_inner(ctx, root, true)
    }

    /// Verifies `root` with up to `workers` threads sharing the context
    /// read-only, producing a verdict and diagnostic list byte-identical
    /// to [`verify`](Self::verify).
    ///
    /// A planning pre-pass linearizes the sequential walk into work units
    /// (emitted in exactly the order the sequential verifier would visit
    /// them — large subtrees are split into a placement "shell" followed
    /// by units for their nested regions), groups the units into chunks of
    /// roughly 1024 ops, and a `std::thread::scope` pool
    /// claims chunks off a shared atomic counter. Each worker verifies its
    /// chunks with a private [`DominanceCache`] and a private diagnostic
    /// buffer per chunk; buffers are merged in ascending chunk order, so
    /// the concatenation reproduces the sequential order no matter which
    /// worker ran which chunk. The context's sharded verdict cache is
    /// shared by all workers, so warm-cache semantics survive — verdicts
    /// are pure, so insertion races are benign.
    ///
    /// Falls back to the sequential walk when `workers <= 1` or when the
    /// module is too small for threading to pay for itself.
    ///
    /// # Errors
    ///
    /// Returns every diagnostic discovered, in the same order as
    /// [`verify`](Self::verify).
    pub fn verify_parallel(
        &mut self,
        ctx: &Context,
        root: OpRef,
        workers: usize,
    ) -> Result<(), Vec<Diagnostic>> {
        if crate::walk::count_ops_capped(ctx, root, PAR_MIN_OPS) < PAR_MIN_OPS {
            return self.verify(ctx, root);
        }
        self.verify_parallel_force(ctx, root, workers)
    }

    /// [`verify_parallel`](Self::verify_parallel) without the small-module
    /// sequential fallback: the planner and worker pool run even on tiny
    /// modules. Only worth calling for differential testing (the fuzz
    /// oracle cross-checks it against the sequential walk on every
    /// generated module); production callers want the fallback.
    ///
    /// # Errors
    ///
    /// Returns every diagnostic discovered, in sequential order.
    pub fn verify_parallel_force(
        &mut self,
        ctx: &Context,
        root: OpRef,
        workers: usize,
    ) -> Result<(), Vec<Diagnostic>> {
        if workers <= 1 {
            return self.verify(ctx, root);
        }
        self.dominance.clear();
        self.diags.clear();

        let plan = ParPlan::build(ctx, root);
        let chunk_count = plan.chunk_count();
        let workers = workers.min(chunk_count);
        let next = AtomicUsize::new(0);
        let mut collected: Vec<(usize, Vec<Diagnostic>)> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let plan = &plan;
                    let next = &next;
                    scope.spawn(move || {
                        let mut dominance = DominanceCache::default();
                        let mut found: Vec<(usize, Vec<Diagnostic>)> = Vec::new();
                        loop {
                            let chunk = next.fetch_add(1, Ordering::Relaxed);
                            if chunk >= chunk_count {
                                break;
                            }
                            let mut diags = Vec::new();
                            let mut verifier = Verifier {
                                ctx,
                                diags: &mut diags,
                                dominance: &mut dominance,
                                run_hooks: true,
                            };
                            for unit in plan.chunk(chunk) {
                                unit.run(&mut verifier);
                            }
                            if !diags.is_empty() {
                                found.push((chunk, diags));
                            }
                        }
                        found
                    })
                })
                .collect();
            for handle in handles {
                collected.extend(handle.join().expect("verifier worker panicked"));
            }
        });

        collected.sort_unstable_by_key(|&(chunk, _)| chunk);
        for (_, mut diags) in collected {
            self.diags.append(&mut diags);
        }
        if self.diags.is_empty() {
            Ok(())
        } else {
            Err(std::mem::take(&mut self.diags))
        }
    }

    fn verify_inner(
        &mut self,
        ctx: &Context,
        root: OpRef,
        run_hooks: bool,
    ) -> Result<(), Vec<Diagnostic>> {
        self.dominance.clear();
        self.diags.clear();
        let mut verifier = Verifier {
            ctx,
            diags: &mut self.diags,
            dominance: &mut self.dominance,
            run_hooks,
        };
        verifier.verify_tree(root);
        if self.diags.is_empty() {
            Ok(())
        } else {
            Err(std::mem::take(&mut self.diags))
        }
    }
}

/// The journal-driven incremental verifier.
///
/// Where [`ModuleVerifier`] re-walks the entire op tree on every call,
/// this verifier consumes a [`ChangeJournal`] and re-checks only the
/// recorded dirty set, making verification after a rewrite cost
/// proportional to what the rewrite touched:
///
/// - **created** ops are verified as whole subtrees (their nested regions
///   are new IR);
/// - **modified** ops (rewired operands, moves, displaced block
///   neighbours) are re-verified individually;
/// - **dirty blocks** get the O(1) structural block rules (a multi-block
///   region's blocks must be non-empty and terminator-final);
/// - **CFG-dirty regions** — where blocks were inserted/removed or ops
///   with successors were created/moved/erased — are re-verified
///   region-wide, because edge changes can alter dominance for ops
///   outside the dirty set;
/// - **erased regions** are evicted from the dominance cache before
///   anything else, since entity slots are reused and a stale analysis
///   under a recycled `RegionRef` would answer for the wrong CFG.
///
/// ## Soundness
///
/// [`verify_changes`](Self::verify_changes) assumes the IR was valid
/// before the journaled mutations (establish that once with
/// [`verify_full`](Self::verify_full)); under that precondition, an `Ok`
/// verdict implies the IR is valid afterwards. Every structural or SSA
/// rule is local to an op, its block, or its region's CFG, and every
/// mutation that can change a rule's outcome lands the affected entity in
/// the journal's dirty set — see DESIGN.md ("Incremental verification")
/// for the case analysis.
#[derive(Default)]
pub struct IncrementalVerifier {
    dominance: DominanceCache,
    diags: Vec<Diagnostic>,
    seen_ops: HashSet<OpRef>,
    seen_blocks: HashSet<BlockRef>,
    seen_regions: HashSet<RegionRef>,
}

impl IncrementalVerifier {
    /// Creates a verifier with empty scratch state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Full verification of `root`, establishing the valid-before baseline
    /// for subsequent [`verify_changes`](Self::verify_changes) calls and
    /// warming the dominance cache.
    ///
    /// # Errors
    ///
    /// Returns every diagnostic discovered.
    pub fn verify_full(&mut self, ctx: &Context, root: OpRef) -> Result<(), Vec<Diagnostic>> {
        self.dominance.clear();
        self.diags.clear();
        let mut verifier =
            Verifier { ctx, diags: &mut self.diags, dominance: &mut self.dominance, run_hooks: true };
        verifier.verify_tree(root);
        self.take_verdict()
    }

    /// Re-verifies only the dirty set recorded in `journal`.
    ///
    /// The IR must have been valid before the journaled mutations; then
    /// `Ok` here means it is valid after them (and `Err` carries at least
    /// one real violation).
    ///
    /// # Errors
    ///
    /// Returns every diagnostic discovered in the dirty set.
    pub fn verify_changes(
        &mut self,
        ctx: &Context,
        journal: &ChangeJournal,
    ) -> Result<(), Vec<Diagnostic>> {
        self.diags.clear();
        self.seen_ops.clear();
        self.seen_blocks.clear();
        self.seen_regions.clear();

        // Eviction first: erased-region slots may already have been reused
        // by regions created later in the same journal window.
        for &region in journal.erased_regions() {
            self.dominance.invalidate(region);
        }
        for &region in journal.cfg_dirty_regions() {
            self.dominance.invalidate(region);
        }

        let mut verifier =
            Verifier { ctx, diags: &mut self.diags, dominance: &mut self.dominance, run_hooks: true };

        // Regions with CFG changes get the full (but region-scoped) walk;
        // everything they cover is marked seen so the per-op passes below
        // do not double-report.
        for &region in journal.cfg_dirty_regions() {
            if !self.seen_regions.insert(region) {
                continue;
            }
            for &block in region.blocks(ctx) {
                self.seen_blocks.insert(block);
                self.seen_ops.extend(block.ops(ctx).iter().copied());
            }
            verifier.verify_region(region);
        }

        for &op in journal.created() {
            if self.seen_ops.insert(op) {
                verifier.verify_placement(op);
                verifier.verify_tree(op);
            }
        }
        for &op in journal.modified() {
            if self.seen_ops.insert(op) {
                verifier.verify_placement(op);
                verifier.verify_single(op);
            }
        }
        for &block in journal.dirty_blocks() {
            if self.seen_blocks.insert(block) {
                verifier.verify_block_shape(block);
            }
        }
        self.take_verdict()
    }

    /// Number of regions with a cached dominator analysis (observability
    /// for tests and benchmarks).
    pub fn cached_regions(&self) -> usize {
        self.dominance.len()
    }

    fn take_verdict(&mut self) -> Result<(), Vec<Diagnostic>> {
        if self.diags.is_empty() {
            Ok(())
        } else {
            Err(std::mem::take(&mut self.diags))
        }
    }
}

/// Subtrees of at least this many ops are split out of their enclosing
/// block's work unit: the op itself becomes a [`ParUnit::Shell`] and its
/// regions are planned as further independent units.
const PAR_SPLIT_THRESHOLD: usize = 256;

/// Approximate op weight per chunk. Small enough that a module a few
/// thousand ops wide load-balances across workers, large enough that the
/// per-chunk claim (one atomic increment) and diagnostic buffer are noise.
const PAR_CHUNK_TARGET: usize = 1024;

/// Modules below this op count are verified sequentially even when a
/// worker pool was requested: thread spawn plus planning would dominate.
const PAR_MIN_OPS: usize = 4096;

/// One step of the linearized sequential walk.
///
/// The planner emits units in exactly the order [`Verifier::verify_tree`]
/// would report their diagnostics, so concatenating per-unit output in
/// plan order reproduces the sequential diagnostic list byte for byte.
enum ParUnit {
    /// The detached root: `verify_single` only (the sequential walk runs
    /// no placement rules on a root op).
    Root(OpRef),
    /// A large op whose regions were split into their own units:
    /// placement rules and per-op rules here, nested regions elsewhere.
    Shell { op: OpRef, is_last: bool, multi_block: bool },
    /// A small op verified whole: placement, per-op rules, and the full
    /// recursive walk of its nested regions.
    Subtree { op: OpRef, is_last: bool, multi_block: bool },
    /// The structural rule for an empty block in a multi-block region,
    /// reported positionally after the block's (absent) ops.
    EmptyBlock,
}

impl ParUnit {
    fn run(&self, verifier: &mut Verifier<'_, '_>) {
        match *self {
            ParUnit::Root(op) => verifier.verify_single(op),
            ParUnit::Shell { op, is_last, multi_block } => {
                verifier.verify_op_at(op, is_last, multi_block, false);
            }
            ParUnit::Subtree { op, is_last, multi_block } => {
                verifier.verify_op_at(op, is_last, multi_block, true);
            }
            ParUnit::EmptyBlock => verifier.diags.push(Diagnostic::new(
                "empty block in a multi-block region has no terminator",
            )),
        }
    }
}

/// The unit list plus chunk boundaries: chunk `i` is
/// `units[starts[i]..starts[i+1]]` (the last chunk runs to the end).
struct ParPlan {
    units: Vec<ParUnit>,
    starts: Vec<usize>,
    open_weight: usize,
}

impl ParPlan {
    fn build(ctx: &Context, root: OpRef) -> ParPlan {
        let mut plan = ParPlan { units: Vec::new(), starts: vec![0], open_weight: 0 };
        plan.push(ParUnit::Root(root), 1);
        for &region in root.regions(ctx) {
            plan.plan_region(ctx, region);
        }
        plan
    }

    fn push(&mut self, unit: ParUnit, weight: usize) {
        if self.open_weight >= PAR_CHUNK_TARGET {
            self.starts.push(self.units.len());
            self.open_weight = 0;
        }
        self.units.push(unit);
        self.open_weight += weight;
    }

    fn plan_region(&mut self, ctx: &Context, region: RegionRef) {
        let blocks = region.blocks(ctx);
        let multi_block = blocks.len() > 1;
        for &block in blocks {
            let ops = block.ops(ctx);
            for (index, &op) in ops.iter().enumerate() {
                let is_last = index + 1 == ops.len();
                let size = crate::walk::count_ops_capped(ctx, op, PAR_SPLIT_THRESHOLD);
                if size >= PAR_SPLIT_THRESHOLD {
                    self.push(ParUnit::Shell { op, is_last, multi_block }, 1);
                    for &nested in op.regions(ctx) {
                        self.plan_region(ctx, nested);
                    }
                } else {
                    self.push(ParUnit::Subtree { op, is_last, multi_block }, size);
                }
            }
            if multi_block && block.ops(ctx).is_empty() {
                self.push(ParUnit::EmptyBlock, 0);
            }
        }
    }

    fn chunk_count(&self) -> usize {
        self.starts.len()
    }

    fn chunk(&self, index: usize) -> &[ParUnit] {
        let start = self.starts[index];
        let end = self.starts.get(index + 1).copied().unwrap_or(self.units.len());
        &self.units[start..end]
    }
}

struct Verifier<'a, 'b> {
    ctx: &'a Context,
    diags: &'b mut Vec<Diagnostic>,
    dominance: &'b mut DominanceCache,
    run_hooks: bool,
}

impl<'a, 'b> Verifier<'a, 'b> {
    fn verify_tree(&mut self, root: OpRef) {
        self.verify_single(root);
        for &region in root.regions(self.ctx) {
            self.verify_region(region);
        }
    }

    fn verify_region(&mut self, region: RegionRef) {
        // The context is immutable for the whole walk, so block/op lists can
        // be iterated in place — no defensive copies.
        let ctx = self.ctx;
        let blocks = region.blocks(ctx);
        let multi_block = blocks.len() > 1;
        for &block in blocks {
            let ops = block.ops(ctx);
            for (index, &op) in ops.iter().enumerate() {
                let is_last = index + 1 == ops.len();
                self.verify_op_at(op, is_last, multi_block, true);
            }
            if multi_block && block.ops(ctx).is_empty() {
                self.diags.push(Diagnostic::new(
                    "empty block in a multi-block region has no terminator",
                ));
            }
        }
    }

    /// Verifies one op at a known block position: the positional placement
    /// rules, then the per-op rules, then (when `recurse`) every nested
    /// region. This is exactly the per-op body of
    /// [`Verifier::verify_region`]; the parallel planner re-emits it as
    /// standalone work units, so diagnostic text and order stay identical
    /// between the sequential walk and the chunked one.
    fn verify_op_at(&mut self, op: OpRef, is_last: bool, multi_block: bool, recurse: bool) {
        let ctx = self.ctx;
        if ctx.is_terminator(op) && !is_last {
            self.error(op, "terminator operation must be the last in its block");
        }
        if is_last && multi_block && !ctx.is_terminator(op) {
            self.error(op, "block in a multi-block region must end with a terminator");
        }
        self.verify_single(op);
        if recurse {
            for &nested in op.regions(ctx) {
                self.verify_region(nested);
            }
        }
    }

    fn verify_single(&mut self, op: OpRef) {
        let ctx = self.ctx;
        let name = op.name(ctx);

        // Dialect registration.
        let dialect_registered = ctx.registry().dialect(name.dialect).is_some();
        if !dialect_registered && !ctx.allows_unregistered() {
            self.error(op, "operation belongs to an unregistered dialect");
            return;
        }
        if dialect_registered
            && ctx.registry().op_info(name.dialect, name.name).is_none()
            && !ctx.allows_unregistered()
        {
            self.error(op, "operation is not registered in its dialect");
            return;
        }

        // Successor edges must stay within the parent region.
        if !op.successors(ctx).is_empty() {
            match op.parent_block(ctx).and_then(|b| b.parent_region(ctx)) {
                Some(region) => {
                    for &succ in op.successors(ctx) {
                        if succ.parent_region(ctx) != Some(region) {
                            self.error(op, "successor block belongs to a different region");
                        }
                    }
                }
                None => self.error(op, "operation with successors is not inserted in a region"),
            }
            if let Some(info) = ctx.op_info(op) {
                if !info.is_terminator {
                    self.error(op, "non-terminator operation cannot have successors");
                }
            }
        }

        // Dominance of operands.
        for (index, &operand) in op.operands(ctx).iter().enumerate() {
            if !self.value_dominates(operand, op) {
                self.error(
                    op,
                    format!("operand #{index} is used before its definition dominates the use"),
                );
            }
        }

        // Registered hook.
        if !self.run_hooks {
            return;
        }
        if let Some(info) = ctx.op_info(op) {
            if let Some(verifier) = info.verifier.clone() {
                if let Err(diag) = verifier.verify(ctx, op) {
                    self.diags
                        .push(diag.with_note(format!("in operation `{}`", name.display(ctx))));
                }
            }
        }
    }

    /// Checks whether `value`'s definition dominates the use in `user`.
    fn value_dominates(&mut self, value: Value, user: OpRef) -> bool {
        let ctx = self.ctx;
        let Some(def_block) = value.parent_block(ctx) else {
            // Detached definition: permitted only when the user is detached
            // too (IR under construction is not checked for dominance).
            return user.parent_block(ctx).is_none();
        };
        let Some(def_region) = def_block.parent_region(ctx) else {
            return true; // Detached block: under construction.
        };

        // Climb the user's ancestor chain until we reach the def's region.
        let mut cur: OpRef = user;
        let mut first = true;
        loop {
            let Some(cur_block) = cur.parent_block(ctx) else {
                // The user itself being detached means the IR is under
                // construction; a detached *ancestor* means we reached the
                // root without finding the defining region.
                return first;
            };
            first = false;
            let cur_region = match cur_block.parent_region(ctx) {
                Some(r) => r,
                None => return true,
            };
            if cur_region == def_region {
                return self.dominates_in_region(def_region, value, def_block, cur, cur_block);
            }
            match cur_region.parent_op(ctx) {
                Some(parent) => cur = parent,
                None => return false, // def region is not an ancestor
            }
        }
    }

    fn dominates_in_region(
        &mut self,
        region: RegionRef,
        value: Value,
        def_block: BlockRef,
        user: OpRef,
        user_block: BlockRef,
    ) -> bool {
        let ctx = self.ctx;
        // Same-block queries never touch the dominator analysis: block
        // arguments precede every op, and op ordering is an O(1) order-key
        // comparison. This keeps straight-line verification free of any
        // per-block index building.
        if def_block == user_block {
            return match value {
                Value::BlockArg { .. } => true,
                Value::OpResult { op: def_op, .. } => def_op.is_before_in_block(ctx, user),
            };
        }
        self.dominance.get_or_compute(ctx, region).dominates(def_block, user_block)
    }

    /// The O(1) in-block placement rules for one op, used by the
    /// incremental verifier on dirty ops (the whole-tree walk checks the
    /// same rules positionally in [`Verifier::verify_region`]).
    fn verify_placement(&mut self, op: OpRef) {
        let ctx = self.ctx;
        let Some(block) = op.parent_block(ctx) else { return };
        let Some(region) = block.parent_region(ctx) else { return };
        let is_last = block.ops(ctx).last() == Some(&op);
        if ctx.is_terminator(op) && !is_last {
            self.error(op, "terminator operation must be the last in its block");
        }
        if is_last && region.blocks(ctx).len() > 1 && !ctx.is_terminator(op) {
            self.error(op, "block in a multi-block region must end with a terminator");
        }
    }

    /// The O(1) per-block structural rules, used by the incremental
    /// verifier on dirty blocks: in a multi-block region a block must be
    /// non-empty and end with a terminator.
    fn verify_block_shape(&mut self, block: BlockRef) {
        let ctx = self.ctx;
        let Some(region) = block.parent_region(ctx) else { return };
        if region.blocks(ctx).len() <= 1 {
            return;
        }
        match block.ops(ctx).last() {
            None => self.diags.push(Diagnostic::new(
                "empty block in a multi-block region has no terminator",
            )),
            Some(&last) => {
                if !ctx.is_terminator(last) {
                    self.error(last, "block in a multi-block region must end with a terminator");
                }
            }
        }
    }

    fn error(&mut self, op: OpRef, message: impl Into<String>) {
        let name = op.name(self.ctx).display(self.ctx);
        self.diags
            .push(Diagnostic::new(message).with_note(format!("in operation `{name}`")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, OperationState};

    fn value_op(ctx: &mut Context, block: crate::BlockRef) -> OpRef {
        let f32 = ctx.f32_type();
        let name = ctx.op_name("test", "def");
        let op = ctx.create_op(OperationState::new(name).add_result_types([f32]));
        ctx.append_op(block, op);
        op
    }

    #[test]
    fn well_formed_module_verifies() {
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let def = value_op(&mut ctx, block);
        let v = def.result(&ctx, 0);
        let name = ctx.op_name("test", "use");
        let user = ctx.create_op(OperationState::new(name).add_operands([v]));
        ctx.append_op(block, user);
        assert!(verify_op(&ctx, module).is_ok());
    }

    #[test]
    fn use_before_def_in_same_block_fails() {
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let def = value_op(&mut ctx, block);
        let v = def.result(&ctx, 0);
        let name = ctx.op_name("test", "use");
        let user = ctx.create_op(OperationState::new(name).add_operands([v]));
        // Insert the user *before* the definition.
        ctx.detach_op(def);
        ctx.append_op(block, user);
        ctx.append_op(block, def);
        let errs = verify_op(&ctx, module).unwrap_err();
        assert!(errs[0].message().contains("dominates"), "{}", errs[0]);
    }

    #[test]
    fn nested_region_can_capture_outer_values() {
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let def = value_op(&mut ctx, block);
        let v = def.result(&ctx, 0);
        let (region, inner) = ctx.create_region_with_entry([]);
        let use_name = ctx.op_name("test", "use");
        let user = ctx.create_op(OperationState::new(use_name).add_operands([v]));
        ctx.append_op(inner, user);
        let outer_name = ctx.op_name("test", "outer");
        let outer = ctx.create_op(OperationState::new(outer_name).add_regions([region]));
        ctx.append_op(block, outer);
        assert!(verify_op(&ctx, module).is_ok());
    }

    #[test]
    fn value_cannot_escape_its_region() {
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let (region, inner) = ctx.create_region_with_entry([]);
        let def = value_op(&mut ctx, inner);
        let v = def.result(&ctx, 0);
        let outer_name = ctx.op_name("test", "outer");
        let outer = ctx.create_op(OperationState::new(outer_name).add_regions([region]));
        ctx.append_op(block, outer);
        // Use the inner value at module scope: invalid.
        let use_name = ctx.op_name("test", "use");
        let user = ctx.create_op(OperationState::new(use_name).add_operands([v]));
        ctx.append_op(block, user);
        assert!(verify_op(&ctx, module).is_err());
    }

    #[test]
    fn misplaced_terminator_fails() {
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let other = ctx.create_block([]);
        let br = ctx.op_name("cf", "br");
        let op = ctx.create_op(OperationState::new(br).add_successors([other]));
        ctx.append_op(block, op);
        let after = ctx.op_name("test", "after");
        let trailing = ctx.create_op(OperationState::new(after));
        ctx.append_op(block, trailing);
        let errs = verify_op(&ctx, module).unwrap_err();
        assert!(
            errs.iter().any(|d| d.message().contains("terminator")),
            "{errs:?}"
        );
    }

    #[test]
    fn unregistered_dialect_rejected_when_strict() {
        let mut ctx = Context::new();
        ctx.set_allow_unregistered(false);
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let name = ctx.op_name("ghost", "op");
        let op = ctx.create_op(OperationState::new(name));
        ctx.append_op(block, op);
        let errs = verify_op(&ctx, module).unwrap_err();
        assert!(errs[0].message().contains("unregistered"), "{}", errs[0]);
    }

    #[test]
    fn parallel_verify_matches_sequential_diagnostics() {
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let f32 = ctx.f32_type();
        let def_name = ctx.op_name("test", "def");
        let use_name = ctx.op_name("test", "use");
        let outer_name = ctx.op_name("test", "outer");
        // Wide fan-out, large enough to take the threaded path, with a
        // use-before-def violation sprinkled in every 97th pair.
        for i in 0..6000usize {
            let def = ctx.create_op(OperationState::new(def_name).add_result_types([f32]));
            ctx.append_op(block, def);
            let v = def.result(&ctx, 0);
            let user = ctx.create_op(OperationState::new(use_name).add_operands([v]));
            ctx.append_op(block, user);
            if i % 97 == 0 {
                // Reorder so the user precedes its definition.
                ctx.detach_op(def);
                ctx.append_op(block, def);
            }
        }
        // One large nested region so the planner exercises the shell split.
        let (region, inner) = ctx.create_region_with_entry([]);
        for i in 0..800usize {
            let def = ctx.create_op(OperationState::new(def_name).add_result_types([f32]));
            ctx.append_op(inner, def);
            let v = def.result(&ctx, 0);
            let user = ctx.create_op(OperationState::new(use_name).add_operands([v]));
            ctx.append_op(inner, user);
            if i % 131 == 0 {
                ctx.detach_op(def);
                ctx.append_op(inner, def);
            }
        }
        let outer = ctx.create_op(OperationState::new(outer_name).add_regions([region]));
        ctx.append_op(block, outer);

        let sequential = ModuleVerifier::new().verify(&ctx, module).unwrap_err();
        let expected: Vec<String> = sequential.iter().map(|d| d.to_string()).collect();
        assert!(!expected.is_empty());
        for workers in [1, 2, 8] {
            let parallel =
                ModuleVerifier::new().verify_parallel(&ctx, module, workers).unwrap_err();
            let got: Vec<String> = parallel.iter().map(|d| d.to_string()).collect();
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn parallel_verify_accepts_valid_module() {
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let f32 = ctx.f32_type();
        let def_name = ctx.op_name("test", "def");
        let use_name = ctx.op_name("test", "use");
        for _ in 0..5000 {
            let def = ctx.create_op(OperationState::new(def_name).add_result_types([f32]));
            ctx.append_op(block, def);
            let v = def.result(&ctx, 0);
            let user = ctx.create_op(OperationState::new(use_name).add_operands([v]));
            ctx.append_op(block, user);
        }
        assert!(ModuleVerifier::new().verify_parallel(&ctx, module, 4).is_ok());
    }

    #[test]
    fn cross_block_dominance_in_cfg() {
        let mut ctx = Context::new();
        // Region: entry(defines %v) -> next(uses %v). Requires terminator.
        let module = ctx.create_module();
        let mblock = ctx.module_block(module);
        let region = ctx.create_region();
        let entry = ctx.create_block([]);
        let next = ctx.create_block([]);
        ctx.append_block(region, entry);
        ctx.append_block(region, next);
        let def = value_op(&mut ctx, entry);
        let v = def.result(&ctx, 0);
        let br = ctx.op_name("cf", "br");
        let br_op = ctx.create_op(OperationState::new(br).add_successors([next]));
        ctx.append_op(entry, br_op);
        let use_name = ctx.op_name("test", "use");
        let user = ctx.create_op(OperationState::new(use_name).add_operands([v]));
        ctx.append_op(next, user);
        let ret = ctx.op_name("cf", "ret");
        let ret_op = ctx.create_op(OperationState::new(ret).add_successors([]));
        ctx.append_op(next, ret_op);
        let holder_name = ctx.op_name("test", "holder");
        let holder = ctx.create_op(OperationState::new(holder_name).add_regions([region]));
        ctx.append_op(mblock, holder);
        // `cf.ret` has an empty successor list but is unregistered, so it is
        // not recognized as a terminator; the multi-block rule fires for it.
        let result = verify_op(&ctx, module);
        let errs = result.unwrap_err();
        assert!(
            errs.iter().all(|d| d.message().contains("terminator")),
            "only terminator-placement errors expected, got {errs:?}"
        );
        assert!(
            !errs.iter().any(|d| d.message().contains("dominates")),
            "cross-block use is dominated: {errs:?}"
        );
    }
}
