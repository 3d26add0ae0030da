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
//!
//! [`ModuleVerifier`] always walks the whole tree. A successful hooked
//! walk also stamps its root in the [`Context`]; the stamp stays fresh
//! until the next change to IR or registration (see
//! [`Context::is_verified`]). [`IncrementalVerifier::verify_full`] trusts a
//! fresh stamp instead of walking again, so a checked rewrite drive right
//! after a verify pays for one walk, not two. The whole-module verifier
//! itself never reads the stamp: it stays the from-scratch oracle.

use crate::block::BlockRef;
use crate::context::Context;
use crate::diag::Diagnostic;
use crate::dominance::DominanceCache;
use crate::entity::SlotMarks;
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
///
/// Every call walks the module; none reads the context's verified stamp.
/// A successful hooked call sets it.
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

    /// The same as [`verify`](Self::verify); `workers` is ignored. It
    /// stays only because the benchmark in `irdlbench/` calls it.
    ///
    /// # Errors
    ///
    /// As [`verify`](Self::verify).
    pub fn verify_parallel(
        &mut self,
        ctx: &Context,
        root: OpRef,
        _workers: usize,
    ) -> Result<(), Vec<Diagnostic>> {
        self.verify(ctx, root)
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
            if run_hooks {
                ctx.stamp_verified(root);
            }
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
    seen_ops: SlotMarks,
    seen_blocks: SlotMarks,
    seen_regions: SlotMarks,
}

impl IncrementalVerifier {
    /// Creates a verifier with empty scratch state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Full verification of `root`, establishing the valid-before baseline
    /// for subsequent [`verify_changes`](Self::verify_changes) calls.
    ///
    /// When `root` carries a fresh verified stamp ([`Context::is_verified`]:
    /// a hooked [`ModuleVerifier`] accepted it and nothing has changed
    /// since) the baseline already holds and nothing is walked. Either way
    /// the dominance cache starts empty, since region slots are reused
    /// from one module to the next.
    ///
    /// # Errors
    ///
    /// Returns every diagnostic discovered.
    pub fn verify_full(&mut self, ctx: &Context, root: OpRef) -> Result<(), Vec<Diagnostic>> {
        self.dominance.clear();
        self.diags.clear();
        if ctx.is_verified(root) {
            return Ok(());
        }
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
            if !self.seen_regions.insert(region.index()) {
                continue;
            }
            for &block in region.blocks(ctx) {
                self.seen_blocks.insert(block.index());
                for &op in block.ops(ctx) {
                    self.seen_ops.insert(op.index());
                }
            }
            verifier.verify_region(region);
        }

        for &op in journal.created() {
            if self.seen_ops.insert(op.index()) {
                verifier.verify_placement(op);
                verifier.verify_tree(op);
            }
        }
        for &op in journal.modified() {
            if self.seen_ops.insert(op.index()) {
                verifier.verify_placement(op);
                verifier.verify_single(op);
            }
        }
        for &block in journal.dirty_blocks() {
            if self.seen_blocks.insert(block.index()) {
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
                let is_terminator = ctx.is_terminator(op);
                if is_terminator && !is_last {
                    self.error(op, "terminator operation must be the last in its block");
                }
                if is_last && multi_block && !is_terminator {
                    self.error(op, "block in a multi-block region must end with a terminator");
                }
                self.verify_single(op);
                for &nested in op.regions(ctx) {
                    self.verify_region(nested);
                }
            }
            if multi_block && block.ops(ctx).is_empty() {
                self.diags.push(Diagnostic::new(
                    "empty block in a multi-block region has no terminator",
                ));
            }
        }
    }

    fn verify_single(&mut self, op: OpRef) {
        let ctx = self.ctx;
        let name = op.name(ctx);

        // Registration: one lookup serves every rule below.
        let info = ctx.registry().op_info(name.dialect, name.name);
        if info.is_none() && !ctx.allows_unregistered() {
            if ctx.registry().dialect(name.dialect).is_none() {
                self.error(op, "operation belongs to an unregistered dialect");
            } else {
                self.error(op, "operation is not registered in its dialect");
            }
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
            if info.is_some_and(|info| !info.is_terminator) {
                self.error(op, "non-terminator operation cannot have successors");
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
        if let Some(verifier) = info.and_then(|info| info.verifier.as_ref()) {
            if let Err(diag) = verifier.verify(ctx, op) {
                self.diags.push(diag.with_note(format!("in operation `{}`", name.display(ctx))));
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
        let is_terminator = ctx.is_terminator(op);
        if is_terminator && !is_last {
            self.error(op, "terminator operation must be the last in its block");
        }
        if is_last && region.blocks(ctx).len() > 1 && !is_terminator {
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
