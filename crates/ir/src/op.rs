//! Operations: the unit of computation in the IR.
//!
//! An operation has a dialect-qualified [`OpName`], SSA operands and results,
//! a sorted attribute dictionary, successor blocks (for terminators), and
//! nested regions. Operations are created from an [`OperationState`] and
//! inserted into blocks; def-use chains are maintained by every mutation on
//! [`Context`].

use crate::attrs::Attribute;
use crate::block::BlockRef;
use crate::context::{Context, EraseScratch, SpillPool};
use crate::entity::entity_handle;
use crate::inline_vec::InlineVec;
use crate::region::RegionRef;
use crate::symbol::Symbol;
use crate::types::Type;
use crate::value::{Use, Value};

/// Operand list storage: three operands inline covers binary arithmetic
/// and ternary ops such as a fused multiply-add (15% of the corpus's op
/// definitions declare three or more operands); wider ops spill to a heap
/// buffer.
pub type OperandList = InlineVec<Value, 3>;
/// Result-type list storage: almost every op has zero or one result.
pub type TypeList = InlineVec<Type, 1>;
/// Attribute dictionary storage: ops carry at most a couple of attributes
/// (constants carry one).
pub type AttrList = InlineVec<(Symbol, Attribute), 2>;
/// Successor list storage: only terminators have successors, and nearly
/// all have one.
pub type SuccessorList = InlineVec<BlockRef, 1>;
/// Region list storage: region-holding ops (modules, funcs) carry one.
pub type RegionList = InlineVec<RegionRef, 1>;
/// Per-operand use-chain links, parallel to the operand list, so its
/// inline capacity matches [`OperandList`]'s.
pub(crate) type LinkList = InlineVec<UseLink, 3>;
/// Per-result use-chain heads, parallel to the result-type list.
pub(crate) type FirstUseList = InlineVec<Option<Use>, 1>;

/// One node of the intrusive use-chain, stored per operand slot.
///
/// The uses of a value form a doubly-linked list threaded through the
/// operand slots that reference it: the value's defining entity holds the
/// head (`first_use`), and each use's operand slot holds `prev`/`next`
/// links to its neighbors in the chain. Linking and unlinking are O(1) and
/// allocation-free; see `Context::link_use`/`unlink_use`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct UseLink {
    pub(crate) prev: Option<Use>,
    pub(crate) next: Option<Use>,
}

entity_handle! {
    /// A handle to an operation stored in a [`Context`].
    OpRef
}

/// A dialect-qualified operation name, e.g. `cmath.mul`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpName {
    /// Dialect namespace.
    pub dialect: Symbol,
    /// Operation name within the dialect.
    pub name: Symbol,
}

impl OpName {
    /// Renders the name as `dialect.op`.
    pub fn display(self, ctx: &Context) -> String {
        format!("{}.{}", ctx.symbol_str(self.dialect), ctx.symbol_str(self.name))
    }
}

/// The payload of an operation.
///
/// Every per-op list is an [`InlineVec`] sized so that typical operations
/// (≤3 operands, ≤1 result/successor/region, ≤2 attributes) are stored fully
/// inline — constructing them performs no heap allocation. Oversized lists
/// spill to buffers drawn from (and recycled into) the context's spill
/// pool.
#[derive(Debug, Clone)]
pub struct OperationData {
    pub(crate) name: OpName,
    pub(crate) operands: OperandList,
    /// Use-chain links, one per operand slot (`operand_links.len() ==
    /// operands.len()` always). `operand_links[i]` is the list node for
    /// the use `(this op, operand i)` within the chain of whatever value
    /// `operands[i]` currently holds.
    pub(crate) operand_links: LinkList,
    pub(crate) result_types: TypeList,
    /// Head of each result's use-chain (`result_first_use.len() ==
    /// result_types.len()` always).
    pub(crate) result_first_use: FirstUseList,
    /// Attribute dictionary, kept sorted by key symbol index for
    /// deterministic printing.
    pub(crate) attributes: AttrList,
    pub(crate) successors: SuccessorList,
    pub(crate) regions: RegionList,
    pub(crate) parent: Option<BlockRef>,
    /// Position key within the parent block: strictly increasing along the
    /// block's op list, so "does `a` come before `b`?" is one integer
    /// comparison instead of a scan. Maintained by every insertion;
    /// meaningless while the op is detached. Keys are spaced
    /// [`ORDER_STRIDE`] apart so mid-block insertion usually finds a gap;
    /// when a gap is exhausted the whole block is renumbered (amortized
    /// O(1) per insertion).
    pub(crate) order: u64,
}

/// Spacing between consecutive order keys, leaving room for mid-block
/// insertions before a renumbering pass is needed.
pub(crate) const ORDER_STRIDE: u64 = 1 << 10;

/// Everything needed to create an operation, assembled builder-style.
///
/// ```
/// use irdl_ir::{Context, OperationState};
///
/// let mut ctx = Context::new();
/// let f32 = ctx.f32_type();
/// let key = ctx.symbol("value");
/// let one = ctx.f32_attr(1.0);
/// let name = ctx.op_name("arith", "constant");
/// let op = ctx.create_op(
///     OperationState::new(name)
///         .add_result_types([f32])
///         .add_attribute(key, one),
/// );
/// assert_eq!(op.num_results(&ctx), 1);
/// ```
#[derive(Debug, Clone)]
pub struct OperationState {
    /// The operation name.
    pub name: OpName,
    /// SSA operands.
    pub operands: OperandList,
    /// Result types.
    pub result_types: TypeList,
    /// Attribute dictionary entries (deduplicated on creation, last wins).
    pub attributes: AttrList,
    /// Successor blocks.
    pub successors: SuccessorList,
    /// Regions to attach; each must be detached (no parent op).
    pub regions: RegionList,
}

impl OperationState {
    /// Starts a state for the given operation name.
    pub fn new(name: OpName) -> Self {
        OperationState {
            name,
            operands: OperandList::new(),
            result_types: TypeList::new(),
            attributes: AttrList::new(),
            successors: SuccessorList::new(),
            regions: RegionList::new(),
        }
    }

    /// Appends operands.
    pub fn add_operands(mut self, operands: impl IntoIterator<Item = Value>) -> Self {
        self.operands.extend(operands);
        self
    }

    /// Appends result types.
    pub fn add_result_types(mut self, types: impl IntoIterator<Item = Type>) -> Self {
        self.result_types.extend(types);
        self
    }

    /// Adds (or overrides) an attribute.
    pub fn add_attribute(mut self, key: Symbol, value: Attribute) -> Self {
        self.attributes.push((key, value));
        self
    }

    /// Appends successor blocks.
    pub fn add_successors(mut self, successors: impl IntoIterator<Item = BlockRef>) -> Self {
        self.successors.extend(successors);
        self
    }

    /// Attaches detached regions.
    pub fn add_regions(mut self, regions: impl IntoIterator<Item = RegionRef>) -> Self {
        self.regions.extend(regions);
        self
    }
}

impl OpRef {
    /// The operation's dialect-qualified name.
    pub fn name(self, ctx: &Context) -> OpName {
        ctx.op_data(self).name
    }

    /// The operands, in order.
    pub fn operands(self, ctx: &Context) -> &[Value] {
        &ctx.op_data(self).operands
    }

    /// The `i`-th operand.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn operand(self, ctx: &Context, i: usize) -> Value {
        ctx.op_data(self).operands[i]
    }

    /// Number of operands.
    pub fn num_operands(self, ctx: &Context) -> usize {
        ctx.op_data(self).operands.len()
    }

    /// The result types, in order.
    pub fn result_types(self, ctx: &Context) -> &[Type] {
        &ctx.op_data(self).result_types
    }

    /// The `i`-th result value.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn result(self, ctx: &Context, i: usize) -> Value {
        assert!(i < self.num_results(ctx), "result index out of bounds");
        Value::OpResult { op: self, index: i as u32 }
    }

    /// All result values, in order, as an exact-size iterator.
    ///
    /// The iterator captures the result count up front (it does not borrow
    /// the context), so it can be held across context mutations.
    pub fn results(self, ctx: &Context) -> ResultValues {
        ResultValues { op: self, range: 0..self.num_results(ctx) as u32 }
    }

    /// Number of results.
    pub fn num_results(self, ctx: &Context) -> usize {
        ctx.op_data(self).result_types.len()
    }

    /// The attribute dictionary, sorted by key.
    pub fn attributes(self, ctx: &Context) -> &[(Symbol, Attribute)] {
        &ctx.op_data(self).attributes
    }

    /// Looks up an attribute by name.
    pub fn attr(self, ctx: &Context, key: &str) -> Option<Attribute> {
        let key = ctx.symbol_lookup(key)?;
        self.attr_sym(ctx, key)
    }

    /// Looks up an attribute by interned key.
    pub fn attr_sym(self, ctx: &Context, key: Symbol) -> Option<Attribute> {
        ctx.op_data(self)
            .attributes
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
    }

    /// The successor blocks.
    pub fn successors(self, ctx: &Context) -> &[BlockRef] {
        &ctx.op_data(self).successors
    }

    /// The nested regions, in order.
    pub fn regions(self, ctx: &Context) -> &[RegionRef] {
        &ctx.op_data(self).regions
    }

    /// The `i`-th region.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn region(self, ctx: &Context, i: usize) -> RegionRef {
        ctx.op_data(self).regions[i]
    }

    /// Number of nested regions.
    pub fn num_regions(self, ctx: &Context) -> usize {
        ctx.op_data(self).regions.len()
    }

    /// The block containing this operation, if inserted.
    pub fn parent_block(self, ctx: &Context) -> Option<BlockRef> {
        ctx.op_data(self).parent
    }

    /// The operation owning the region containing this operation.
    pub fn parent_op(self, ctx: &Context) -> Option<OpRef> {
        let block = self.parent_block(ctx)?;
        let region = block.parent_region(ctx)?;
        region.parent_op(ctx)
    }

    /// Returns `true` if this operation is still live in the context.
    pub fn is_live(self, ctx: &Context) -> bool {
        ctx.op_is_live(self)
    }

    /// Returns `true` if this operation comes before `other` in their
    /// shared parent block. O(1): compares maintained order keys.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the two operations are not inserted in
    /// the same block; the comparison is meaningless across blocks.
    pub fn is_before_in_block(self, ctx: &Context, other: OpRef) -> bool {
        debug_assert_eq!(
            self.parent_block(ctx),
            other.parent_block(ctx),
            "order keys only compare within one block"
        );
        ctx.op_data(self).order < ctx.op_data(other).order
    }
}

/// Exact-size iterator over an operation's result values (see
/// [`OpRef::results`]).
#[derive(Debug, Clone)]
pub struct ResultValues {
    op: OpRef,
    range: std::ops::Range<u32>,
}

impl Iterator for ResultValues {
    type Item = Value;

    fn next(&mut self) -> Option<Value> {
        let index = self.range.next()?;
        Some(Value::OpResult { op: self.op, index })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl DoubleEndedIterator for ResultValues {
    fn next_back(&mut self) -> Option<Value> {
        let index = self.range.next_back()?;
        Some(Value::OpResult { op: self.op, index })
    }
}

impl ExactSizeIterator for ResultValues {}

impl Context {
    /// Builds an [`OpName`] from dialect and operation strings.
    pub fn op_name(&mut self, dialect: &str, name: &str) -> OpName {
        OpName { dialect: self.symbol(dialect), name: self.symbol(name) }
    }

    /// Creates a detached operation from `state`.
    ///
    /// Operand uses are recorded, attributes are sorted and deduplicated
    /// (later entries win), and the supplied regions are attached.
    ///
    /// # Panics
    ///
    /// Panics if a supplied region is already attached to another operation.
    pub fn create_op(&mut self, state: OperationState) -> OpRef {
        let OperationState { name, operands, result_types, mut attributes, successors, regions } =
            state;
        // Deduplicate attributes in place (last write to a key wins, stored
        // at the key's first position), then key-sort. O(n²) over a dict
        // that is almost always ≤2 entries, and allocation-free —
        // `sort_unstable` because keys are unique after the dedup.
        let mut kept = 0usize;
        for i in 0..attributes.len() {
            let (key, value) = attributes[i];
            match attributes[..kept].iter().position(|(k, _)| *k == key) {
                Some(j) => attributes[j].1 = value,
                None => {
                    attributes[kept] = (key, value);
                    kept += 1;
                }
            }
        }
        attributes.truncate(kept);
        attributes.sort_unstable_by_key(|(k, _)| k.0);

        // The state's lists move into the payload unchanged; only the two
        // bookkeeping lists (use links and chain heads) are built here,
        // drawing spill buffers from the pool when they don't fit inline.
        let num_operands = operands.len();
        let num_results = result_types.len();
        let pool = self.spill_pool_mut();
        let operand_links =
            LinkList::with_len_pooled(num_operands, UseLink::default(), &mut pool.links);
        let result_first_use = FirstUseList::with_len_pooled(num_results, None, &mut pool.heads);
        let data = OperationData {
            name,
            operands,
            operand_links,
            result_types,
            result_first_use,
            attributes,
            successors,
            regions,
            parent: None,
            order: 0,
        };
        let op = OpRef(self.ops_mut().alloc(data));
        for index in 0..num_operands {
            let operand = self.op_data(op).operands[index];
            self.link_use(operand, Use { op, operand_index: index as u32 });
        }
        let num_regions = self.op_data(op).regions.len();
        for i in 0..num_regions {
            let region = self.op_data(op).regions[i];
            let slot = self.region_data_mut(region);
            assert!(slot.parent_op.is_none(), "region already attached to an operation");
            slot.parent_op = Some(op);
        }
        op
    }

    /// Replaces operand `index` of `op` with `value`, updating use lists.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set_operand(&mut self, op: OpRef, index: usize, value: Value) {
        let old = self.op_data(op).operands[index];
        if old == value {
            return;
        }
        let u = Use { op, operand_index: index as u32 };
        self.unlink_use(old, u);
        self.op_data_mut(op).operands[index] = value;
        self.link_use(value, u);
    }

    /// Replaces every use of `old` with `new`.
    ///
    /// Replacing a value with itself is a no-op. O(uses) and
    /// allocation-free: each step pops the head of `old`'s use-chain and
    /// relinks that operand slot onto `new`'s chain.
    pub fn replace_all_uses(&mut self, old: Value, new: Value) {
        if old == new {
            return;
        }
        while let Some(u) = self.first_use(old) {
            self.set_operand(u.op, u.operand_index as usize, new);
        }
    }

    /// Sets (or overrides) an attribute on `op`.
    pub fn set_attr(&mut self, op: OpRef, key: Symbol, value: Attribute) {
        let dict = &mut self.op_data_mut(op).attributes;
        match dict.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => entry.1 = value,
            None => {
                dict.push((key, value));
                dict.sort_unstable_by_key(|(k, _)| k.0);
            }
        }
    }

    /// Removes an attribute from `op`, returning its previous value.
    pub fn remove_attr(&mut self, op: OpRef, key: Symbol) -> Option<Attribute> {
        let dict = &mut self.op_data_mut(op).attributes;
        let pos = dict.iter().position(|(k, _)| *k == key)?;
        Some(dict.remove(pos).1)
    }

    /// Detaches `op` from its parent block (it remains live).
    pub fn detach_op(&mut self, op: OpRef) {
        if let Some(block) = self.op_data(op).parent {
            let ops = &mut self.block_data_mut(block).ops;
            let pos = ops.iter().position(|o| *o == op).expect("op not in parent block");
            ops.remove(pos);
            self.op_data_mut(op).parent = None;
        }
    }

    /// Appends `op` at the end of `block`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is already inserted in a block.
    pub fn append_op(&mut self, block: BlockRef, op: OpRef) {
        assert!(self.op_data(op).parent.is_none(), "op already inserted; detach first");
        let order = match self.block_data(block).ops.last() {
            Some(&last) => self.op_data(last).order + ORDER_STRIDE,
            None => ORDER_STRIDE,
        };
        let (data, pool) = self.block_data_and_pool(block);
        SpillPool::push(&mut data.ops, op, &mut pool.block_ops);
        let data = self.op_data_mut(op);
        data.parent = Some(block);
        data.order = order;
    }

    /// Inserts `op` immediately before `anchor` in `anchor`'s block.
    ///
    /// # Panics
    ///
    /// Panics if `anchor` is detached or `op` is already inserted.
    pub fn insert_op_before(&mut self, anchor: OpRef, op: OpRef) {
        assert!(self.op_data(op).parent.is_none(), "op already inserted; detach first");
        let block = self.op_data(anchor).parent.expect("anchor op is detached");
        let pos = {
            let ops = &self.block_data(block).ops;
            ops.iter().position(|o| *o == anchor).expect("anchor not in its parent block")
        };
        self.block_data_mut(block).ops.insert(pos, op);
        self.op_data_mut(op).parent = Some(block);
        self.assign_order(block, pos);
    }

    /// Inserts `op` immediately after `anchor` in `anchor`'s block.
    ///
    /// # Panics
    ///
    /// Panics if `anchor` is detached or `op` is already inserted.
    pub fn insert_op_after(&mut self, anchor: OpRef, op: OpRef) {
        assert!(self.op_data(op).parent.is_none(), "op already inserted; detach first");
        let block = self.op_data(anchor).parent.expect("anchor op is detached");
        let pos = {
            let ops = &self.block_data(block).ops;
            ops.iter().position(|o| *o == anchor).expect("anchor not in its parent block")
        };
        self.block_data_mut(block).ops.insert(pos + 1, op);
        self.op_data_mut(op).parent = Some(block);
        self.assign_order(block, pos + 1);
    }

    /// Gives the op at `pos` in `block` an order key between its neighbors,
    /// renumbering the whole block when the gap is exhausted.
    fn assign_order(&mut self, block: BlockRef, pos: usize) {
        let ops = &self.block_data(block).ops;
        let lo = if pos > 0 { self.op_data(ops[pos - 1]).order } else { 0 };
        let hi = if pos + 1 < ops.len() {
            self.op_data(ops[pos + 1]).order
        } else {
            lo + 2 * ORDER_STRIDE
        };
        let op = ops[pos];
        if hi > lo + 1 {
            self.op_data_mut(op).order = lo + (hi - lo) / 2;
        } else {
            // Gap exhausted: respace the whole block. Amortized across the
            // ~log(ORDER_STRIDE) insertions that consumed the gap. The op
            // list is taken, not cloned, so respacing never allocates.
            let ops = std::mem::take(&mut self.block_data_mut(block).ops);
            for (i, &o) in ops.iter().enumerate() {
                self.op_data_mut(o).order = (i as u64 + 1) * ORDER_STRIDE;
            }
            self.block_data_mut(block).ops = ops;
        }
    }

    /// Erases `op` and everything nested inside it.
    ///
    /// # Panics
    ///
    /// Panics if any result of any operation in the erased subtree still
    /// has uses outside the subtree.
    pub fn erase_op(&mut self, op: OpRef) {
        // Fast path: no nested regions, so the subtree is the op itself.
        // Walks the use-chains (self-uses are part of the "subtree"),
        // unlinks the operands, and recycles the payload's spill buffers —
        // all without touching the allocator.
        if self.op_data(op).regions.is_empty() {
            let num_results = self.op_data(op).result_first_use.len();
            for i in 0..num_results {
                let mut next = self.op_data(op).result_first_use[i];
                while let Some(u) = next {
                    assert!(u.op == op, "erasing operation whose results still have uses");
                    next = self.op_data(u.op).operand_links[u.operand_index as usize].next;
                }
            }
            self.unlink_all_operands(op);
            self.detach_op(op);
            let data = self.ops_mut().erase(op.0);
            self.recycle_op_data(data);
            return;
        }

        // General path: collect the whole subtree first, into scratch
        // buffers reused across erasures.
        let mut scratch = std::mem::take(self.erase_scratch_mut());
        scratch.clear();
        self.collect_op(op, &mut scratch);
        scratch.mark_ops();
        // No result anywhere in the subtree may be used outside it. (Uses
        // from outside a region are invalid IR, but the guard keeps a
        // mis-built context from leaving dangling references.)
        for &o in &scratch.ops {
            let num_results = self.op_data(o).result_first_use.len();
            for i in 0..num_results {
                let mut next = self.op_data(o).result_first_use[i];
                while let Some(u) = next {
                    assert!(
                        scratch.is_marked(u.op),
                        "erasing operation whose results still have uses"
                    );
                    next = self.op_data(u.op).operand_links[u.operand_index as usize].next;
                }
            }
        }
        self.detach_op(op);
        self.erase_collected(scratch);
    }

    /// Erases IR that a failed parse or decode left behind: the detached
    /// ops in `partial.ops`, the regions in `partial.regions` that no op
    /// owns and the blocks in `partial.blocks` that no region holds, each
    /// with everything nested in it. Entries already erased, or listed
    /// twice, are skipped. Values may be used across these trees, so
    /// every operand is unlinked before anything is erased. Clears
    /// `partial`.
    pub(crate) fn erase_partial(&mut self, partial: &mut PartialIr) {
        let mut scratch = std::mem::take(self.erase_scratch_mut());
        scratch.clear();
        for &op in &partial.ops {
            if self.op_is_live(op) && self.op_data(op).parent.is_none() {
                self.collect_op(op, &mut scratch);
            }
        }
        for &region in &partial.regions {
            if self.region_is_live(region) && self.region_data(region).parent_op.is_none() {
                self.collect_region(region, &mut scratch);
            }
        }
        for &block in &partial.blocks {
            if self.block_is_live(block) && self.block_data(block).parent.is_none() {
                self.collect_block(block, &mut scratch);
            }
        }
        // A slot erased and reused within one build is listed twice.
        scratch.ops.sort_unstable();
        scratch.ops.dedup();
        scratch.blocks.sort_unstable();
        scratch.blocks.dedup();
        scratch.regions.sort_unstable();
        scratch.regions.dedup();
        self.erase_collected(scratch);
        partial.clear();
    }

    /// Erases everything collected in `scratch`, which no op outside it
    /// uses: drops the operand uses originating from it (so internal
    /// def-use edges do not block destruction), then recycles each op,
    /// block and region payload. Parks `scratch` again.
    fn erase_collected(&mut self, mut scratch: EraseScratch) {
        for i in 0..scratch.ops.len() {
            self.unlink_all_operands(scratch.ops[i]);
        }
        for &o in &scratch.ops {
            let data = self.ops_mut().erase(o.0);
            self.recycle_op_data(data);
        }
        for &b in &scratch.blocks {
            let data = self.blocks_mut().erase(b.0);
            self.recycle_block_data(data);
        }
        for &r in &scratch.regions {
            let data = self.regions_mut().erase(r.0);
            self.recycle_region_data(data);
        }
        scratch.clear();
        *self.erase_scratch_mut() = scratch;
    }

    /// Unlinks every operand use of `op` from its value's use-chain.
    fn unlink_all_operands(&mut self, op: OpRef) {
        let num_operands = self.op_data(op).operands.len();
        for index in 0..num_operands {
            let operand = self.op_data(op).operands[index];
            self.unlink_use(operand, Use { op, operand_index: index as u32 });
        }
    }

    /// Collects `op` and everything nested in it into `scratch`.
    fn collect_op(&self, op: OpRef, scratch: &mut EraseScratch) {
        scratch.ops.push(op);
        for &region in self.op_data(op).regions.iter() {
            self.collect_region(region, scratch);
        }
    }

    fn collect_region(&self, region: RegionRef, scratch: &mut EraseScratch) {
        scratch.regions.push(region);
        for &block in self.region_data(region).blocks.iter() {
            self.collect_block(block, scratch);
        }
    }

    fn collect_block(&self, block: BlockRef, scratch: &mut EraseScratch) {
        scratch.blocks.push(block);
        for &nested in self.block_data(block).ops.iter() {
            self.collect_op(nested, scratch);
        }
    }
}

/// The IR a parse or decode has built so far that is not yet reachable
/// from its result, so that a failure can erase it (see
/// `Context::erase_partial`): detached ops, and every region and block
/// the build created. Kept with the builder's other scratch, so its
/// buffers are reused.
#[derive(Debug, Default)]
pub(crate) struct PartialIr {
    pub(crate) ops: Vec<OpRef>,
    pub(crate) blocks: Vec<BlockRef>,
    pub(crate) regions: Vec<RegionRef>,
}

impl PartialIr {
    pub(crate) fn clear(&mut self) {
        self.ops.clear();
        self.blocks.clear();
        self.regions.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_op(ctx: &mut Context, name: &str, operands: &[Value], results: usize) -> OpRef {
        let f32 = ctx.f32_type();
        let name = ctx.op_name("test", name);
        ctx.create_op(
            OperationState::new(name)
                .add_operands(operands.iter().copied())
                .add_result_types(std::iter::repeat_n(f32, results)),
        )
    }

    #[test]
    fn use_lists_track_operands() {
        let mut ctx = Context::new();
        let a = test_op(&mut ctx, "a", &[], 1);
        let va = a.result(&ctx, 0);
        let b = test_op(&mut ctx, "b", &[va, va], 1);
        assert_eq!(va.uses(&ctx).count(), 2);
        assert!(va.uses(&ctx).all(|u| u.op == b));
    }

    #[test]
    fn replace_all_uses_moves_edges() {
        let mut ctx = Context::new();
        let a = test_op(&mut ctx, "a", &[], 1);
        let c = test_op(&mut ctx, "c", &[], 1);
        let va = a.result(&ctx, 0);
        let vc = c.result(&ctx, 0);
        let b = test_op(&mut ctx, "b", &[va], 1);
        ctx.replace_all_uses(va, vc);
        assert!(va.is_unused(&ctx));
        assert_eq!(vc.uses(&ctx).count(), 1);
        assert_eq!(b.operand(&ctx, 0), vc);
    }

    #[test]
    fn attributes_sorted_and_deduped() {
        let mut ctx = Context::new();
        let k1 = ctx.symbol("zeta");
        let k2 = ctx.symbol("alpha");
        let v1 = ctx.i32_attr(1);
        let v2 = ctx.i32_attr(2);
        let v3 = ctx.i32_attr(3);
        let name = ctx.op_name("test", "attrs");
        let op = ctx.create_op(
            OperationState::new(name)
                .add_attribute(k1, v1)
                .add_attribute(k2, v2)
                .add_attribute(k1, v3),
        );
        assert_eq!(op.attr_sym(&ctx, k1), Some(v3), "last write wins");
        assert_eq!(op.attr_sym(&ctx, k2), Some(v2));
        assert_eq!(op.attributes(&ctx).len(), 2);
    }

    #[test]
    fn insertion_and_detach() {
        let mut ctx = Context::new();
        let block = ctx.create_block([]);
        let a = test_op(&mut ctx, "a", &[], 0);
        let b = test_op(&mut ctx, "b", &[], 0);
        let c = test_op(&mut ctx, "c", &[], 0);
        ctx.append_op(block, a);
        ctx.append_op(block, c);
        ctx.insert_op_before(c, b);
        let names: Vec<String> =
            block.ops(&ctx).iter().map(|o| o.name(&ctx).display(&ctx)).collect();
        assert_eq!(names, ["test.a", "test.b", "test.c"]);
        ctx.detach_op(b);
        assert_eq!(block.ops(&ctx).len(), 2);
        assert_eq!(b.parent_block(&ctx), None);
        ctx.insert_op_after(a, b);
        let names: Vec<String> =
            block.ops(&ctx).iter().map(|o| o.name(&ctx).display(&ctx)).collect();
        assert_eq!(names, ["test.a", "test.b", "test.c"]);
    }

    #[test]
    fn erase_op_releases_operand_uses() {
        let mut ctx = Context::new();
        let a = test_op(&mut ctx, "a", &[], 1);
        let va = a.result(&ctx, 0);
        let b = test_op(&mut ctx, "b", &[va], 0);
        assert_eq!(va.uses(&ctx).count(), 1);
        ctx.erase_op(b);
        assert!(va.is_unused(&ctx));
        assert!(!b.is_live(&ctx));
    }

    #[test]
    fn order_keys_track_block_position() {
        let mut ctx = Context::new();
        let block = ctx.create_block([]);
        let a = test_op(&mut ctx, "a", &[], 0);
        let b = test_op(&mut ctx, "b", &[], 0);
        ctx.append_op(block, a);
        ctx.append_op(block, b);
        assert!(a.is_before_in_block(&ctx, b));
        assert!(!b.is_before_in_block(&ctx, a));
        // Exhaust the gap between a and b: every insertion must keep the
        // whole block strictly ordered, forcing renumbering on the way.
        let mut anchor = b;
        for i in 0..32 {
            let mid = test_op(&mut ctx, &format!("m{i}"), &[], 0);
            ctx.insert_op_before(anchor, mid);
            anchor = mid;
        }
        let ops = block.ops(&ctx).to_vec();
        for pair in ops.windows(2) {
            assert!(pair[0].is_before_in_block(&ctx, pair[1]));
        }
        // Detach + reinsert refreshes the key.
        ctx.detach_op(a);
        ctx.append_op(block, a);
        assert!(b.is_before_in_block(&ctx, a));
    }

    /// Every arena slot pays the whole record, so its size is pinned. The
    /// lists keep their heap pointer in their inline slots; when each
    /// carried a `Vec` header beside them the record was 344 B.
    #[test]
    fn operation_data_stays_compact() {
        const MAX_BYTES: usize = 248;
        let lists = [
            ("operands", size_of::<OperandList>()),
            ("operand_links", size_of::<LinkList>()),
            ("result_types", size_of::<TypeList>()),
            ("result_first_use", size_of::<FirstUseList>()),
            ("attributes", size_of::<AttrList>()),
            ("successors", size_of::<SuccessorList>()),
            ("regions", size_of::<RegionList>()),
        ];
        let record = size_of::<OperationData>();
        let slot = size_of::<Option<OperationData>>();
        assert!(
            record <= MAX_BYTES && slot <= MAX_BYTES,
            "OperationData is {record} B and its arena slot {slot} B, over {MAX_BYTES} B; \
             list sizes in bytes: {lists:?}"
        );
    }

    /// Erasing a module whose ops spill every list, and whose blocks and
    /// regions hold lists, fills every pool bucket; parsing the same
    /// module again draws each bucket down.
    #[test]
    fn erased_lists_are_drawn_by_the_next_module() {
        let source = r#""t.top"() ({
^bb0(%a: i32, %b: i32):
  %r:2 = "t.wide"(%a, %b, %a, %b) {k1 = 1 : i32, k2 = 2 : i32, k3 = 3 : i32} : (i32, i32, i32, i32) -> (i32, i32)
  "t.br"(%r#0)[^bb1, ^bb2] : (i32) -> ()
^bb1:
  "t.two"() ({
    "t.a"() : () -> ()
  }, {
    "t.b"() : () -> ()
  }) : () -> ()
^bb2:
  "t.ret"() : () -> ()
}) : () -> ()"#;
        let mut ctx = Context::new();
        let module = crate::parse::parse_module(&mut ctx, source).unwrap();
        ctx.erase_op(module);
        let filled = ctx.spill_pool_mut().bucket_lens();
        for (name, parked) in filled {
            assert!(parked > 0, "erasing filled no `{name}` buffer: {filled:?}");
        }
        let module = crate::parse::parse_module(&mut ctx, source).unwrap();
        let drawn = ctx.spill_pool_mut().bucket_lens();
        for ((name, parked), (_, left)) in filled.into_iter().zip(drawn) {
            assert!(
                left < parked,
                "`{name}`: {parked} buffers parked, {left} left after the rebuild"
            );
        }
        ctx.erase_op(module);
    }

    #[test]
    #[should_panic(expected = "results still have uses")]
    fn erase_used_op_panics() {
        let mut ctx = Context::new();
        let a = test_op(&mut ctx, "a", &[], 1);
        let va = a.result(&ctx, 0);
        let _b = test_op(&mut ctx, "b", &[va], 0);
        ctx.erase_op(a);
    }
}
