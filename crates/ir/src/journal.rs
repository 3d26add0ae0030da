//! The change journal: a record of what one rewrite touched.
//!
//! A [`ChangeJournal`] is filled in by mutation APIs (the rewrite crate's
//! `Rewriter`) and consumed by the [`IncrementalVerifier`], which
//! re-verifies only the recorded dirty set, and by the greedy driver,
//! which re-enqueues exactly the created and modified operations. It
//! supersedes ad-hoc "added"/"touched" lists: one journal captures every
//! kind of mutation with enough precision to make checked rewriting
//! O(touched) instead of O(module).
//!
//! ## Recorded facts
//!
//! - **created**: operations built during the rewrite (verified as whole
//!   subtrees — their nested regions are new too).
//! - **modified**: operations whose operands were rewired, that were
//!   moved, or whose in-block position semantics changed (e.g. the op
//!   that used to be last in a block after an append). Verified
//!   individually.
//! - **dirty blocks**: blocks where ops were inserted or erased; they get
//!   the O(1) per-block structural checks (last-op-must-terminate,
//!   no-empty-block in multi-block regions).
//! - **cfg-dirty regions**: regions whose block graph changed — a block
//!   was inserted or removed, or an op with successors was created,
//!   moved, or erased. Edge changes can affect the dominance of
//!   operations *outside* the dirty set, so these regions are re-verified
//!   wholesale (still region-scoped, never module-scoped).
//! - **erased regions**: every region inside an erased subtree. Entity
//!   arenas reuse slots without generation counters, so cached dominator
//!   state keyed by `RegionRef` must be evicted for each of these before
//!   a reused slot can alias a different region.
//!
//! Erasure *removes* the erased ops and blocks from the earlier journal
//! entries (and compensates created-then-erased ops), so consumers never
//! see a dangling reference and `created`/`modified` stay directly usable
//! as a requeue list.
//!
//! ## Reuse
//!
//! A journal keeps its capacity across [`clear`](ChangeJournal::clear),
//! and with it the erasure walk's buffers and a staging list for
//! operations a rewrite builds all-or-nothing
//! ([`take_staged`](ChangeJournal::take_staged)). The driver keeps its
//! journal, worklist and incremental verifier in a [`DriveScratch`]
//! parked in the [`Context`] between drives, so a drive over a warmed
//! context allocates nothing.

use crate::block::BlockRef;
use crate::context::Context;
use crate::entity::SlotMarks;
use crate::op::{OpRef, OperationState};
use crate::region::RegionRef;
use crate::verify::IncrementalVerifier;

/// The state a greedy rewrite drive keeps from one drive to the next.
///
/// A drive takes it out of the [`Context`]
/// ([`Context::take_drive_scratch`]) and parks it again when it returns,
/// so its buffers keep their capacity and the verifier its dominance
/// arrays. `Context::clone` starts it empty. The worklist is left empty
/// between drives; every other part is cleared by its user before use.
#[derive(Default)]
pub struct DriveScratch {
    /// Operations still to visit.
    pub worklist: Vec<OpRef>,
    /// The worklist's members, by op slot.
    pub enqueued: SlotMarks,
    /// Candidate pattern positions for the op in hand.
    pub matched: Vec<u32>,
    /// The record of one rewrite.
    pub journal: ChangeJournal,
    /// The checker of an incrementally verified drive.
    pub verifier: IncrementalVerifier,
}

/// A journal of IR mutations since the last [`clear`](ChangeJournal::clear).
#[derive(Debug, Default, Clone)]
pub struct ChangeJournal {
    created: Vec<OpRef>,
    modified: Vec<OpRef>,
    blocks: Vec<BlockRef>,
    cfg_dirty_regions: Vec<RegionRef>,
    erased_regions: Vec<RegionRef>,
    erased_ops: usize,
    /// Reusable traversal buffers for [`note_erase_subtree`]
    /// (always left empty between calls, so `clear`/`is_empty` need not
    /// consider them); kept so steady-state erasure records allocate
    /// nothing.
    ///
    /// [`note_erase_subtree`]: ChangeJournal::note_erase_subtree
    scratch_ops: Vec<OpRef>,
    scratch_blocks: Vec<BlockRef>,
    scratch_stack: Vec<OpRef>,
    /// Operations a rewrite has built but not created yet (see
    /// [`take_staged`](ChangeJournal::take_staged)); empty between uses.
    staged: Vec<OperationState>,
}

impl ChangeJournal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets everything recorded so far (capacity is retained).
    pub fn clear(&mut self) {
        self.created.clear();
        self.modified.clear();
        self.blocks.clear();
        self.cfg_dirty_regions.clear();
        self.erased_regions.clear();
        self.erased_ops = 0;
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.created.is_empty()
            && self.modified.is_empty()
            && self.blocks.is_empty()
            && self.cfg_dirty_regions.is_empty()
            && self.erased_regions.is_empty()
            && self.erased_ops == 0
    }

    /// Operations created since the last clear (still live).
    pub fn created(&self) -> &[OpRef] {
        &self.created
    }

    /// Operations modified since the last clear (still live; may repeat).
    pub fn modified(&self) -> &[OpRef] {
        &self.modified
    }

    /// Blocks where ops were inserted or erased (still live; may repeat).
    pub fn dirty_blocks(&self) -> &[BlockRef] {
        &self.blocks
    }

    /// Regions whose CFG changed and need a full (region-scoped) re-check.
    pub fn cfg_dirty_regions(&self) -> &[RegionRef] {
        &self.cfg_dirty_regions
    }

    /// Regions erased since the last clear; cached per-region analyses
    /// keyed by these refs must be evicted.
    pub fn erased_regions(&self) -> &[RegionRef] {
        &self.erased_regions
    }

    /// Number of pre-existing operations erased since the last clear
    /// (created-then-erased ops cancel out).
    pub fn erased_ops(&self) -> usize {
        self.erased_ops
    }

    /// Records a newly created (and inserted) operation.
    ///
    /// If the op carries successors, its parent region's CFG gained edges,
    /// which can change dominance for ops outside the dirty set.
    pub fn note_created(&mut self, ctx: &Context, op: OpRef) {
        self.created.push(op);
        self.note_cfg_effects(ctx, op);
    }

    /// Records an operation whose operands, position, or block changed.
    pub fn note_modified(&mut self, op: OpRef) {
        self.modified.push(op);
    }

    /// Records an operation that moved between or within blocks: the op
    /// itself is re-checked, and any CFG edges it carries moved with it.
    pub fn note_moved(&mut self, ctx: &Context, op: OpRef) {
        self.modified.push(op);
        self.note_cfg_effects(ctx, op);
    }

    /// Records a block whose op list changed (insertion or erasure site).
    pub fn note_block(&mut self, block: BlockRef) {
        self.blocks.push(block);
    }

    /// Records a block inserted into (or detached from) `region`: the
    /// region's block structure changed, so the multi-block rules and the
    /// dominator analysis must be re-established region-wide.
    pub fn note_region_blocks_changed(&mut self, region: RegionRef) {
        self.cfg_dirty_regions.push(region);
    }

    /// Records the impending erasure of `op`'s whole subtree. Must be
    /// called *before* the actual `erase_op`, while the subtree is intact.
    ///
    /// Walks the subtree collecting every nested region (for cache
    /// eviction) and scrubs the subtree's ops and blocks out of the
    /// `created`/`modified`/`blocks` lists so no dangling (or reused)
    /// reference survives in the journal.
    pub fn note_erase_subtree(&mut self, ctx: &Context, root: OpRef) {
        if let Some(parent) = root.parent_block(ctx) {
            self.blocks.push(parent);
            if !root.successors(ctx).is_empty() {
                if let Some(region) = parent.parent_region(ctx) {
                    // Removing CFG edges invalidates cached dominator
                    // state (it may now under-approximate dominance and
                    // report spurious violations).
                    self.cfg_dirty_regions.push(region);
                }
            }
        }

        // Collect the subtree: ops and blocks to scrub, regions to evict.
        // The buffers are journal-owned scratch, reused across erasures so
        // steady-state rewriting records erasures without allocating.
        let mut doomed_ops = std::mem::take(&mut self.scratch_ops);
        let mut doomed_blocks = std::mem::take(&mut self.scratch_blocks);
        let mut stack = std::mem::take(&mut self.scratch_stack);
        stack.push(root);
        while let Some(op) = stack.pop() {
            doomed_ops.push(op);
            for &region in op.regions(ctx) {
                self.erased_regions.push(region);
                for &block in region.blocks(ctx) {
                    doomed_blocks.push(block);
                    stack.extend(block.ops(ctx).iter().copied());
                }
            }
        }

        self.erased_ops += doomed_ops.len();
        // Created-then-erased ops were never observed live; they must not
        // inflate the erased count the driver uses for bookkeeping.
        // (Scrubbing below removes them from `created` either way.)
        let mut created_and_erased = 0;
        self.created.retain(|op| {
            let keep = !doomed_ops.contains(op);
            if !keep {
                created_and_erased += 1;
            }
            keep
        });
        self.erased_ops -= created_and_erased;
        self.modified.retain(|op| !doomed_ops.contains(op));
        self.blocks.retain(|block| !doomed_blocks.contains(block));
        let erased = &self.erased_regions;
        self.cfg_dirty_regions.retain(|region| !erased.contains(region));

        doomed_ops.clear();
        doomed_blocks.clear();
        self.scratch_ops = doomed_ops;
        self.scratch_blocks = doomed_blocks;
        self.scratch_stack = stack;
    }

    /// Lends the journal's (empty) staging list, for a rewrite that must
    /// build every new operation's state before it creates any of them.
    /// Hand it back with [`put_staged`](Self::put_staged) so its capacity
    /// serves the next rewrite.
    pub fn take_staged(&mut self) -> Vec<OperationState> {
        std::mem::take(&mut self.staged)
    }

    /// Returns the staging list lent by [`take_staged`](Self::take_staged),
    /// emptied.
    pub fn put_staged(&mut self, mut staged: Vec<OperationState>) {
        staged.clear();
        self.staged = staged;
    }

    fn note_cfg_effects(&mut self, ctx: &Context, op: OpRef) {
        if !op.successors(ctx).is_empty() {
            if let Some(region) = op.parent_block(ctx).and_then(|b| b.parent_region(ctx)) {
                self.cfg_dirty_regions.push(region);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, OperationState};

    #[test]
    fn erasure_scrubs_the_subtree_out_of_earlier_entries() {
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        // An op holding a region with one inner op.
        let (region, inner_block) = ctx.create_region_with_entry([]);
        let inner_name = ctx.op_name("t", "inner");
        let inner = ctx.create_op(OperationState::new(inner_name));
        ctx.append_op(inner_block, inner);
        let holder_name = ctx.op_name("t", "holder");
        let holder = ctx.create_op(OperationState::new(holder_name).add_regions([region]));
        ctx.append_op(block, holder);

        let mut journal = ChangeJournal::new();
        journal.note_created(&ctx, holder);
        journal.note_modified(inner);
        journal.note_block(inner_block);
        assert_eq!(journal.created(), &[holder]);

        journal.note_erase_subtree(&ctx, holder);
        ctx.erase_op(holder);

        assert!(journal.created().is_empty(), "created-then-erased op scrubbed");
        assert!(journal.modified().is_empty(), "erased inner op scrubbed");
        assert_eq!(journal.erased_regions(), &[region]);
        assert_eq!(
            journal.dirty_blocks(),
            &[block],
            "erasure site stays dirty, erased inner block scrubbed"
        );
        assert_eq!(journal.erased_ops(), 1, "inner op counted, created holder compensated");

        journal.clear();
        assert!(journal.is_empty());
    }
}
