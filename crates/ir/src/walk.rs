//! IR traversal helpers.

use crate::block::BlockRef;
use crate::context::Context;
use crate::op::OpRef;
use crate::region::RegionRef;

/// Controls continuation of a walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkResult {
    /// Continue into nested regions.
    Advance,
    /// Skip the current operation's regions but continue the walk.
    Skip,
    /// Stop the whole walk.
    Interrupt,
}

/// Walks `root` and every operation nested inside it, pre-order.
///
/// The callback decides whether to descend ([`WalkResult::Advance`]), skip
/// the op's regions ([`WalkResult::Skip`]), or abort
/// ([`WalkResult::Interrupt`]). Returns `true` if the walk ran to
/// completion.
pub fn walk_ops(
    ctx: &Context,
    root: OpRef,
    callback: &mut impl FnMut(&Context, OpRef) -> WalkResult,
) -> bool {
    match callback(ctx, root) {
        WalkResult::Interrupt => return false,
        WalkResult::Skip => return true,
        WalkResult::Advance => {}
    }
    for &region in root.regions(ctx) {
        if !walk_region(ctx, region, callback) {
            return false;
        }
    }
    true
}

/// Walks every operation in `region`, pre-order.
pub fn walk_region(
    ctx: &Context,
    region: RegionRef,
    callback: &mut impl FnMut(&Context, OpRef) -> WalkResult,
) -> bool {
    for &block in region.blocks(ctx) {
        if !walk_block(ctx, block, callback) {
            return false;
        }
    }
    true
}

/// Walks every operation in `block`, pre-order.
pub fn walk_block(
    ctx: &Context,
    block: BlockRef,
    callback: &mut impl FnMut(&Context, OpRef) -> WalkResult,
) -> bool {
    for &op in block.ops(ctx) {
        if !walk_ops(ctx, op, callback) {
            return false;
        }
    }
    true
}

/// Collects all operations nested in (and including) `root`, pre-order.
pub fn collect_ops(ctx: &Context, root: OpRef) -> Vec<OpRef> {
    let mut out = Vec::new();
    walk_ops(ctx, root, &mut |_, op| {
        out.push(op);
        WalkResult::Advance
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, OperationState};

    fn build_nest(ctx: &mut Context) -> OpRef {
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let (region, inner_block) = ctx.create_region_with_entry([]);
        let outer_name = ctx.op_name("test", "outer");
        let inner_name = ctx.op_name("test", "inner");
        let inner = ctx.create_op(OperationState::new(inner_name));
        ctx.append_op(inner_block, inner);
        let outer = ctx.create_op(OperationState::new(outer_name).add_regions([region]));
        ctx.append_op(block, outer);
        module
    }

    #[test]
    fn preorder_walk_visits_nested_ops() {
        let mut ctx = Context::new();
        let module = build_nest(&mut ctx);
        let names: Vec<String> = collect_ops(&ctx, module)
            .iter()
            .map(|op| op.name(&ctx).display(&ctx))
            .collect();
        assert_eq!(names, ["builtin.module", "test.outer", "test.inner"]);
    }

    #[test]
    fn skip_avoids_regions() {
        let mut ctx = Context::new();
        let module = build_nest(&mut ctx);
        let mut names = Vec::new();
        walk_ops(&ctx, module, &mut |ctx, op| {
            let name = op.name(ctx).display(ctx);
            let skip = name == "test.outer";
            names.push(name);
            if skip {
                WalkResult::Skip
            } else {
                WalkResult::Advance
            }
        });
        assert_eq!(names, ["builtin.module", "test.outer"]);
    }

    #[test]
    fn interrupt_stops_walk() {
        let mut ctx = Context::new();
        let module = build_nest(&mut ctx);
        let mut count = 0;
        let completed = walk_ops(&ctx, module, &mut |_, _| {
            count += 1;
            WalkResult::Interrupt
        });
        assert!(!completed);
        assert_eq!(count, 1);
    }
}
