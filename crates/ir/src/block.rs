//! Basic blocks: ordered operation sequences with typed arguments.

use crate::context::{Context, SpillPool};
use crate::entity::entity_handle;
use crate::op::OpRef;
use crate::region::RegionRef;
use crate::types::Type;
use crate::value::{Use, Value};

entity_handle! {
    /// A handle to a basic block stored in a [`Context`].
    BlockRef
}

/// The payload of a basic block.
#[derive(Debug, Clone, Default)]
pub struct BlockData {
    pub(crate) arg_types: Vec<Type>,
    /// Head of each block argument's use-chain (parallel to `arg_types`);
    /// the chain itself is threaded through user operand slots.
    pub(crate) arg_first_use: Vec<Option<Use>>,
    pub(crate) ops: Vec<OpRef>,
    pub(crate) parent: Option<RegionRef>,
}

impl BlockRef {
    /// The block argument types, in order.
    pub fn arg_types(self, ctx: &Context) -> &[Type] {
        &ctx.block_data(self).arg_types
    }

    /// The `i`-th block argument value.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn arg(self, ctx: &Context, i: usize) -> Value {
        assert!(i < self.num_args(ctx), "block argument index out of bounds");
        Value::BlockArg { block: self, index: i as u32 }
    }

    /// All block argument values.
    pub fn args(self, ctx: &Context) -> Vec<Value> {
        (0..self.num_args(ctx))
            .map(|i| Value::BlockArg { block: self, index: i as u32 })
            .collect()
    }

    /// Number of block arguments.
    pub fn num_args(self, ctx: &Context) -> usize {
        ctx.block_data(self).arg_types.len()
    }

    /// The operations in the block, in order.
    pub fn ops(self, ctx: &Context) -> &[OpRef] {
        &ctx.block_data(self).ops
    }

    /// The first operation, if any.
    pub fn first_op(self, ctx: &Context) -> Option<OpRef> {
        ctx.block_data(self).ops.first().copied()
    }

    /// The last operation, if any (the terminator in a well-formed CFG).
    pub fn last_op(self, ctx: &Context) -> Option<OpRef> {
        ctx.block_data(self).ops.last().copied()
    }

    /// The terminator: the last operation, when it is registered as one.
    pub fn terminator(self, ctx: &Context) -> Option<OpRef> {
        let last = self.last_op(ctx)?;
        ctx.is_terminator(last).then_some(last)
    }

    /// The region containing this block, if attached.
    pub fn parent_region(self, ctx: &Context) -> Option<RegionRef> {
        ctx.block_data(self).parent
    }

    /// The operation owning the region containing this block.
    pub fn parent_op(self, ctx: &Context) -> Option<OpRef> {
        self.parent_region(ctx)?.parent_op(ctx)
    }

    /// Returns `true` if this block is still live in the context.
    pub fn is_live(self, ctx: &Context) -> bool {
        ctx.block_is_live(self)
    }
}

impl Context {
    /// Creates a detached block with the given argument types.
    ///
    /// Its op and argument lists draw their buffers from the context's
    /// pool (see [`Context::append_op`]), so a warmed context builds
    /// blocks without allocating.
    pub fn create_block(&mut self, arg_types: impl IntoIterator<Item = Type>) -> BlockRef {
        let block = BlockRef(self.blocks_mut().alloc(BlockData::default()));
        for ty in arg_types {
            self.add_block_arg(block, ty);
        }
        block
    }

    /// Appends a block argument of type `ty`, returning the new value.
    pub fn add_block_arg(&mut self, block: BlockRef, ty: Type) -> Value {
        let (data, pool) = self.block_data_and_pool(block);
        SpillPool::push(&mut data.arg_types, ty, &mut pool.block_arg_types);
        SpillPool::push(&mut data.arg_first_use, None, &mut pool.block_arg_heads);
        Value::BlockArg { block, index: (data.arg_types.len() - 1) as u32 }
    }

    /// Appends `block` at the end of `region`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is already attached to a region.
    pub fn append_block(&mut self, region: RegionRef, block: BlockRef) {
        assert!(self.block_data(block).parent.is_none(), "block already attached");
        let (data, pool) = self.region_data_and_pool(region);
        SpillPool::push(&mut data.blocks, block, &mut pool.region_blocks);
        self.block_data_mut(block).parent = Some(region);
    }

    /// Inserts `block` after `anchor` within `anchor`'s region.
    ///
    /// # Panics
    ///
    /// Panics if `anchor` is detached or `block` is already attached.
    pub fn insert_block_after(&mut self, anchor: BlockRef, block: BlockRef) {
        assert!(self.block_data(block).parent.is_none(), "block already attached");
        let region = self.block_data(anchor).parent.expect("anchor block is detached");
        let pos = {
            let blocks = &self.region_data(region).blocks;
            blocks.iter().position(|b| *b == anchor).expect("anchor not in its region")
        };
        self.region_data_mut(region).blocks.insert(pos + 1, block);
        self.block_data_mut(block).parent = Some(region);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OperationState;

    #[test]
    fn block_arg_growth() {
        let mut ctx = Context::new();
        let i32 = ctx.i32_type();
        let f32 = ctx.f32_type();
        let block = ctx.create_block([i32]);
        assert_eq!(block.num_args(&ctx), 1);
        let v = ctx.add_block_arg(block, f32);
        assert_eq!(block.num_args(&ctx), 2);
        assert_eq!(v.ty(&ctx), f32);
    }

    #[test]
    fn blocks_attach_to_regions() {
        let mut ctx = Context::new();
        let region = ctx.create_region();
        let entry = ctx.create_block([]);
        let b1 = ctx.create_block([]);
        let b2 = ctx.create_block([]);
        ctx.append_block(region, entry);
        ctx.append_block(region, b2);
        ctx.insert_block_after(entry, b1);
        assert_eq!(region.blocks(&ctx), &[entry, b1, b2]);
        assert_eq!(b1.parent_region(&ctx), Some(region));
    }

    #[test]
    fn terminator_detection_uses_registry() {
        let mut ctx = Context::new();
        let block = ctx.create_block([]);
        let other = ctx.create_block([]);
        // Unregistered op with successors is treated as a terminator.
        let name = ctx.op_name("test", "br");
        let br = ctx.create_op(OperationState::new(name).add_successors([other]));
        ctx.append_op(block, br);
        assert_eq!(block.terminator(&ctx), Some(br));
    }
}
