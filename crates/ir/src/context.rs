//! The [`Context`]: owner of all IR state.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use crate::attrs::{AttrData, Attribute};
use crate::block::{BlockData, BlockRef};
use crate::bytecode::{DecodeScratch, EncodeScratch};
use crate::dialect::DialectRegistry;
use crate::entity::{EntityArena, SlotMarks, UniqueArena};
use crate::journal::DriveScratch;
use crate::op::{OpRef, OperationData, OperationState, UseLink};
use crate::parse::ParseScratch;
use crate::print::ParkedNames;
use crate::region::{RegionData, RegionRef};
use crate::symbol::Symbol;
use crate::types::{Type, TypeData};
use crate::value::{Use, Value};

/// Owns every piece of IR state: interned symbols, types and attributes,
/// the operation/block/region arenas, and the dialect registry.
///
/// All handles ([`Type`], [`Attribute`], [`OpRef`], ...) are indices into
/// this context; using a handle with a different context is a logic error.
///
/// A context has one owner: it is `Send` but not `Sync`. Threads that
/// work on the same dialects each take their own clone (see
/// `irdl::DialectBundle`), so its caches and scratch buffers are plain
/// cells, not locks.
pub struct Context {
    symbols: UniqueArena<Box<str>>,
    types: UniqueArena<TypeData>,
    attrs: UniqueArena<AttrData>,
    ops: EntityArena<OperationData>,
    blocks: EntityArena<BlockData>,
    regions: EntityArena<RegionData>,
    registry: DialectRegistry,
    allow_unregistered: bool,
    /// Memoized constraint verdicts, keyed by an opaque `u64` composed by
    /// the verifier compiler from a *verdict domain* (see
    /// [`Context::reserve_verdict_domains`]) and a uniqued type/attribute
    /// index. Sound because interned values are immutable and append-only:
    /// a verdict computed once holds for the lifetime of the context.
    /// In a `RefCell` because verifier hooks only see `&Context`.
    verdict_cache: RefCell<HashMap<u64, bool>>,
    verdict_hits: Cell<u64>,
    verdict_misses: Cell<u64>,
    next_verdict_domain: u32,
    /// Per-context evaluation scratch parked here between verifier runs so
    /// shared (`Arc`'d, stateless) verifier objects stay `Sync`. Type-erased
    /// because the scratch type lives in a downstream crate; `Send` so the
    /// context stays `Send`; a pool (not a single slot) so a nested
    /// verifier run takes its own scratch instead of allocating fresh ones
    /// on every op.
    eval_scratch: RefCell<Vec<Box<dyn Any + Send>>>,
    /// Recycled buffers for oversized [`OperationData`] lists and for the
    /// op, argument and block lists of blocks and regions. `erase_op`
    /// harvests them here instead of freeing them; building IR (ops,
    /// operation states, blocks, regions) draws from here instead of
    /// allocating — so steady-state create/erase churn (the rewrite
    /// driver's workload, a batch worker's module after module) never
    /// touches the allocator. Plain fields: both ends take `&mut self`.
    spill_pool: SpillPool,
    /// Reusable traversal buffers for `erase_op`'s subtree walk.
    erase_scratch: EraseScratch,
    /// The text parser's scope tables, reused from one parse to the next.
    parse_scratch: ParseScratch,
    /// The bytecode decoder's tables, reused from one decode to the next.
    decode_scratch: DecodeScratch,
    /// The bytecode encoder's tables, reused from one encode to the next.
    /// In a `Cell` because encoding takes `&Context`.
    encode_scratch: Cell<Option<EncodeScratch>>,
    /// The printer's naming tables, reused from one printer to the next.
    /// A printer holds them from its first `print_op` until it drops, so
    /// it keeps a handle to this slot rather than borrowing the context.
    parked_names: ParkedNames,
    /// Bumped by every `&mut` path into the op, block and region arenas
    /// and the registry. The fields are private to this file, so the few
    /// accessors that hand them out (`ops_mut`, `op_data_mut`,
    /// `registry_mut`, ...) see every change to IR or registration.
    mutations: u64,
    /// `(root, mutations)` when the last successful hooked
    /// `ModuleVerifier::verify` finished: `root` is known valid while the
    /// counter still reads the same. In a `Cell` because verification
    /// takes `&Context`.
    verified: Cell<Option<(OpRef, u64)>>,
    /// The rewrite driver's worklist, journal and incremental verifier,
    /// reused from one drive to the next.
    drive_scratch: DriveScratch,
}

/// Buffers parked per spill-pool bucket: enough to absorb any realistic
/// create/erase burst.
const SPILL_POOL_CAP: usize = 32;

/// Largest buffer capacity (in elements) the pool parks; larger buffers
/// are freed. With [`SPILL_POOL_CAP`] this bounds what the pool can pin
/// after a pathological module is erased: at most 32 × 256 elements per
/// bucket, well under a megabyte for all eleven, where capping the count
/// alone let four erased million-operand ops pin 99.5 MB.
const SPILL_POOL_MAX_CAPACITY: usize = 256;

/// Buckets of recycled buffers: one per `OperationData` list type, one
/// per `BlockData` list and one for `RegionData::blocks`. Every bucket is
/// filled by erasure and drawn from when IR is built.
#[derive(Debug, Default)]
pub(crate) struct SpillPool {
    pub(crate) operands: Vec<Vec<Value>>,
    pub(crate) links: Vec<Vec<UseLink>>,
    pub(crate) types: Vec<Vec<Type>>,
    pub(crate) heads: Vec<Vec<Option<Use>>>,
    pub(crate) attrs: Vec<Vec<(Symbol, Attribute)>>,
    pub(crate) successors: Vec<Vec<BlockRef>>,
    pub(crate) regions: Vec<Vec<RegionRef>>,
    pub(crate) block_ops: Vec<Vec<OpRef>>,
    pub(crate) block_arg_types: Vec<Vec<Type>>,
    pub(crate) block_arg_heads: Vec<Vec<Option<Use>>>,
    pub(crate) region_blocks: Vec<Vec<BlockRef>>,
}

impl SpillPool {
    /// Parks a harvested buffer in `bucket`; drops it when the bucket is
    /// full, or the buffer never allocated or is larger than the pool
    /// keeps.
    fn stash<T>(bucket: &mut Vec<Vec<T>>, buf: Option<Vec<T>>) {
        if let Some(mut buf) = buf {
            if bucket.len() < SPILL_POOL_CAP
                && (1..=SPILL_POOL_MAX_CAPACITY).contains(&buf.capacity())
            {
                buf.clear();
                bucket.push(buf);
            }
        }
    }

    /// Pushes `value` onto `list`, first giving a list that has never
    /// allocated a buffer from `bucket`.
    pub(crate) fn push<T>(list: &mut Vec<T>, value: T, bucket: &mut Vec<Vec<T>>) {
        if list.capacity() == 0 {
            if let Some(buf) = bucket.pop() {
                *list = buf;
            }
        }
        list.push(value);
    }

    /// Each bucket's name and the buffers parked in it (tests).
    #[cfg(test)]
    pub(crate) fn bucket_lens(&self) -> [(&'static str, usize); 11] {
        [
            ("operands", self.operands.len()),
            ("links", self.links.len()),
            ("types", self.types.len()),
            ("heads", self.heads.len()),
            ("attrs", self.attrs.len()),
            ("successors", self.successors.len()),
            ("regions", self.regions.len()),
            ("block_ops", self.block_ops.len()),
            ("block_arg_types", self.block_arg_types.len()),
            ("block_arg_heads", self.block_arg_heads.len()),
            ("region_blocks", self.region_blocks.len()),
        ]
    }
}

/// Reusable buffers for `erase_op`'s subtree collection.
#[derive(Debug, Default)]
pub(crate) struct EraseScratch {
    pub(crate) ops: Vec<OpRef>,
    pub(crate) blocks: Vec<BlockRef>,
    pub(crate) regions: Vec<RegionRef>,
    /// The current subtree's ops, by arena slot.
    marks: SlotMarks,
}

impl EraseScratch {
    pub(crate) fn clear(&mut self) {
        self.ops.clear();
        self.blocks.clear();
        self.regions.clear();
    }

    /// Starts a new subtree: marks exactly `ops`.
    pub(crate) fn mark_ops(&mut self) {
        self.marks.clear();
        for op in &self.ops {
            self.marks.insert(op.index());
        }
    }

    /// Whether `op` was marked by the most recent [`Self::mark_ops`].
    pub(crate) fn is_marked(&self, op: OpRef) -> bool {
        self.marks.contains(op.index())
    }
}

/// Iterator over the uses of a value (see [`Context::value_uses`]).
///
/// Walks the intrusive use-chain; most-recently-linked uses come first.
/// Allocation-free. The chain must not be mutated while iterating (the
/// borrow on the context enforces this).
#[derive(Clone)]
pub struct UseIter<'c> {
    ctx: &'c Context,
    next: Option<Use>,
}

impl Iterator for UseIter<'_> {
    type Item = Use;

    fn next(&mut self) -> Option<Use> {
        let u = self.next?;
        self.next = self.ctx.op_data(u.op).operand_links[u.operand_index as usize].next;
        Some(u)
    }
}

impl Clone for Context {
    /// Clones the full context: interned tables, entity arenas, registry
    /// (hook objects are `Arc`-shared, not deep-copied), and the verdict
    /// cache. Because the uniquing tables are append-only, every index in
    /// the clone resolves to the same value as in the original — so compiled
    /// artifacts built against the original remain valid in the clone, and
    /// the cloned verdict cache is warm *and* sound. Hit/miss counters reset
    /// to zero; evaluation scratch and drive state start empty, and the
    /// clone holds no verified stamp.
    fn clone(&self) -> Self {
        Context {
            symbols: self.symbols.clone(),
            types: self.types.clone(),
            attrs: self.attrs.clone(),
            ops: self.ops.clone(),
            blocks: self.blocks.clone(),
            regions: self.regions.clone(),
            registry: self.registry.clone(),
            allow_unregistered: self.allow_unregistered,
            verdict_cache: self.verdict_cache.clone(),
            verdict_hits: Cell::new(0),
            verdict_misses: Cell::new(0),
            next_verdict_domain: self.next_verdict_domain,
            eval_scratch: RefCell::new(Vec::new()),
            spill_pool: SpillPool::default(),
            erase_scratch: EraseScratch::default(),
            parse_scratch: ParseScratch::default(),
            decode_scratch: DecodeScratch::default(),
            encode_scratch: Cell::new(None),
            parked_names: ParkedNames::default(),
            mutations: 0,
            verified: Cell::new(None),
            drive_scratch: DriveScratch::default(),
        }
    }
}

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("symbols", &self.symbols.len())
            .field("types", &self.types.len())
            .field("attrs", &self.attrs.len())
            .field("ops", &self.ops.len())
            .field("blocks", &self.blocks.len())
            .field("regions", &self.regions.len())
            .field("dialects", &self.registry.len())
            .finish()
    }
}

impl Default for Context {
    fn default() -> Self {
        Self::new()
    }
}

impl Context {
    /// Creates a fresh context with the `builtin` dialect registered and
    /// unregistered dialects allowed.
    pub fn new() -> Self {
        let mut ctx = Context {
            symbols: UniqueArena::new(),
            types: UniqueArena::new(),
            attrs: UniqueArena::new(),
            ops: EntityArena::new(),
            blocks: EntityArena::new(),
            regions: EntityArena::new(),
            registry: DialectRegistry::new(),
            allow_unregistered: true,
            verdict_cache: RefCell::new(HashMap::new()),
            verdict_hits: Cell::new(0),
            verdict_misses: Cell::new(0),
            next_verdict_domain: 0,
            eval_scratch: RefCell::new(Vec::new()),
            spill_pool: SpillPool::default(),
            erase_scratch: EraseScratch::default(),
            parse_scratch: ParseScratch::default(),
            decode_scratch: DecodeScratch::default(),
            encode_scratch: Cell::new(None),
            parked_names: ParkedNames::default(),
            mutations: 0,
            verified: Cell::new(None),
            drive_scratch: DriveScratch::default(),
        };
        crate::builtin::register_builtin_dialect(&mut ctx);
        ctx
    }

    // ----- Symbols ---------------------------------------------------------

    /// Interns a string, returning its [`Symbol`].
    ///
    /// A single hash lookup on the hit path; the string is copied into the
    /// table only when it has never been seen before.
    pub fn symbol(&mut self, s: &str) -> Symbol {
        Symbol(self.symbols.intern_ref(s))
    }

    /// Returns the symbol for `s` if it has been interned.
    pub fn symbol_lookup(&self, s: &str) -> Option<Symbol> {
        self.symbols.lookup(s).map(Symbol)
    }

    /// Resolves a symbol back to its string.
    pub fn symbol_str(&self, sym: Symbol) -> &str {
        self.symbols.get(sym.0)
    }

    // ----- Uniquing tables -------------------------------------------------

    pub(crate) fn types_mut(&mut self) -> &mut UniqueArena<TypeData> {
        &mut self.types
    }

    pub(crate) fn attrs_mut(&mut self) -> &mut UniqueArena<AttrData> {
        &mut self.attrs
    }

    /// Returns the structural payload of an interned type.
    pub fn type_data(&self, ty: Type) -> &TypeData {
        self.types.get(ty.0)
    }

    /// Returns the structural payload of an interned attribute.
    pub fn attr_data(&self, attr: Attribute) -> &AttrData {
        self.attrs.get(attr.0)
    }

    /// Number of distinct interned types.
    pub fn num_types(&self) -> usize {
        self.types.len()
    }

    /// Number of distinct interned attributes.
    pub fn num_attrs(&self) -> usize {
        self.attrs.len()
    }

    // ----- Verdict cache ---------------------------------------------------
    //
    // Compiled verifiers memoize the outcome of *pure* (variable-free,
    // native-free) constraint subprograms per uniqued type/attribute. The
    // context hands out disjoint key domains so independent programs can
    // never collide, and stores verdicts behind interior mutability because
    // verification only sees `&Context`. Soundness rests on the uniquing
    // tables being append-only and immutable: the value behind a given
    // index never changes, so neither does its verdict. Every borrow of
    // the map ends inside the method that takes it, so a verifier hook
    // that re-enters verification never meets a held borrow.

    /// Reserves `count` fresh verdict-cache key domains, returning the first.
    ///
    /// Each domain is a namespace for one memoizable subprogram; callers
    /// compose full keys from `(domain, uniqued index)`.
    pub fn reserve_verdict_domains(&mut self, count: u32) -> u32 {
        let base = self.next_verdict_domain;
        self.next_verdict_domain = base.checked_add(count).expect("verdict domain overflow");
        base
    }

    /// Looks up a memoized verdict, counting the hit or miss.
    pub fn cached_verdict(&self, key: u64) -> Option<bool> {
        let hit = self.verdict_cache.borrow().get(&key).copied();
        let counter = if hit.is_some() { &self.verdict_hits } else { &self.verdict_misses };
        counter.set(counter.get() + 1);
        hit
    }

    /// Records a verdict for `key`.
    pub fn cache_verdict(&self, key: u64, verdict: bool) {
        self.verdict_cache.borrow_mut().insert(key, verdict);
    }

    /// Number of memoized verdicts (observability / tests).
    pub fn verdict_cache_len(&self) -> usize {
        self.verdict_cache.borrow().len()
    }

    /// `(hits, misses)` counters for the verdict cache.
    pub fn verdict_cache_stats(&self) -> (u64, u64) {
        (self.verdict_hits.get(), self.verdict_misses.get())
    }

    /// Zeroes the verdict hit/miss counters (the cache itself is kept).
    ///
    /// Lets callers measure hit rates over a window — e.g. per worker in
    /// the batch pipeline — instead of since context creation.
    pub fn reset_verdict_stats(&self) {
        self.verdict_hits.set(0);
        self.verdict_misses.set(0);
    }

    /// Drops every memoized verdict (counters are kept).
    ///
    /// Verification after a clear re-evaluates every constraint from
    /// scratch, which is what differential cache oracles compare against
    /// the memoized path.
    pub fn clear_verdict_cache(&self) {
        self.verdict_cache.borrow_mut().clear();
    }

    // ----- Evaluation scratch ----------------------------------------------

    /// Takes one parked evaluation scratch from the pool, if any.
    ///
    /// Verifier implementations park reusable evaluation buffers here so
    /// the verifier objects themselves stay stateless and shareable. The
    /// pool is type-erased; callers downcast to their own scratch type and
    /// fall back to a fresh value on mismatch or when the pool is empty
    /// (which also makes nested verification re-entrant).
    pub fn take_eval_scratch(&self) -> Option<Box<dyn Any + Send>> {
        self.eval_scratch.borrow_mut().pop()
    }

    /// Parks evaluation scratch for the next verifier run.
    pub fn put_eval_scratch(&self, scratch: Box<dyn Any + Send>) {
        let mut pool = self.eval_scratch.borrow_mut();
        // Bound the pool: steady state needs one entry per nesting level
        // of verification; anything beyond a generous cap is churn.
        if pool.len() < 64 {
            pool.push(scratch);
        }
    }

    // ----- Entity arenas ---------------------------------------------------

    pub(crate) fn ops_mut(&mut self) -> &mut EntityArena<OperationData> {
        self.mutations += 1;
        &mut self.ops
    }

    pub(crate) fn blocks_mut(&mut self) -> &mut EntityArena<BlockData> {
        self.mutations += 1;
        &mut self.blocks
    }

    pub(crate) fn regions_mut(&mut self) -> &mut EntityArena<RegionData> {
        self.mutations += 1;
        &mut self.regions
    }

    /// Returns the payload of a live operation.
    ///
    /// # Panics
    ///
    /// Panics if `op` was erased.
    pub fn op_data(&self, op: OpRef) -> &OperationData {
        self.ops.get(op.0)
    }

    pub(crate) fn op_data_mut(&mut self, op: OpRef) -> &mut OperationData {
        self.mutations += 1;
        self.ops.get_mut(op.0)
    }

    /// Returns the payload of a live block.
    ///
    /// # Panics
    ///
    /// Panics if `block` was erased.
    pub fn block_data(&self, block: BlockRef) -> &BlockData {
        self.blocks.get(block.0)
    }

    pub(crate) fn block_data_mut(&mut self, block: BlockRef) -> &mut BlockData {
        self.mutations += 1;
        self.blocks.get_mut(block.0)
    }

    /// Returns the payload of a live region.
    ///
    /// # Panics
    ///
    /// Panics if `region` was erased.
    pub fn region_data(&self, region: RegionRef) -> &RegionData {
        self.regions.get(region.0)
    }

    pub(crate) fn region_data_mut(&mut self, region: RegionRef) -> &mut RegionData {
        self.mutations += 1;
        self.regions.get_mut(region.0)
    }

    pub(crate) fn op_is_live(&self, op: OpRef) -> bool {
        self.ops.is_live(op.0)
    }

    pub(crate) fn block_is_live(&self, block: BlockRef) -> bool {
        self.blocks.is_live(block.0)
    }

    pub(crate) fn region_is_live(&self, region: RegionRef) -> bool {
        self.regions.is_live(region.0)
    }

    /// Number of live operations in the context.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of live blocks in the context.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of live regions in the context.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    // ----- Def-use chains --------------------------------------------------
    //
    // Uses are stored as an intrusive doubly-linked chain threaded through
    // the operand slots: each value's defining entity holds the head
    // (`first_use`), and every operand slot carries `prev`/`next` links for
    // the use it currently represents. Links are index-based (`Use`
    // handles), so cloning the context clones valid chains, and linking/
    // unlinking is O(1) with zero allocation. New uses are pushed at the
    // front, so iteration order is most-recently-linked first.

    /// The current uses of `value`, walking the intrusive use-chain.
    pub fn value_uses(&self, value: Value) -> UseIter<'_> {
        UseIter { ctx: self, next: self.first_use(value) }
    }

    /// The head of `value`'s use-chain, if it has any uses.
    pub fn first_use(&self, value: Value) -> Option<Use> {
        match value {
            Value::OpResult { op, index } => self.op_data(op).result_first_use[index as usize],
            Value::BlockArg { block, index } => {
                self.block_data(block).arg_first_use[index as usize]
            }
        }
    }

    fn set_first_use(&mut self, value: Value, u: Option<Use>) {
        match value {
            Value::OpResult { op, index } => {
                self.op_data_mut(op).result_first_use[index as usize] = u;
            }
            Value::BlockArg { block, index } => {
                self.block_data_mut(block).arg_first_use[index as usize] = u;
            }
        }
    }

    /// Pushes `u` onto the front of `value`'s use-chain.
    ///
    /// `u`'s operand slot must already hold `value` and must not currently
    /// be linked into any chain.
    pub(crate) fn link_use(&mut self, value: Value, u: Use) {
        let head = self.first_use(value);
        if let Some(h) = head {
            self.op_data_mut(h.op).operand_links[h.operand_index as usize].prev = Some(u);
        }
        let link = &mut self.op_data_mut(u.op).operand_links[u.operand_index as usize];
        link.prev = None;
        link.next = head;
        self.set_first_use(value, Some(u));
    }

    /// Removes `u` from `value`'s use-chain; `u` must be linked into it.
    pub(crate) fn unlink_use(&mut self, value: Value, u: Use) {
        let UseLink { prev, next } =
            self.op_data(u.op).operand_links[u.operand_index as usize];
        match prev {
            Some(p) => {
                self.op_data_mut(p.op).operand_links[p.operand_index as usize].next = next;
            }
            None => self.set_first_use(value, next),
        }
        if let Some(n) = next {
            self.op_data_mut(n.op).operand_links[n.operand_index as usize].prev = prev;
        }
        let link = &mut self.op_data_mut(u.op).operand_links[u.operand_index as usize];
        link.prev = None;
        link.next = None;
    }

    // ----- Storage recycling -----------------------------------------------

    pub(crate) fn spill_pool_mut(&mut self) -> &mut SpillPool {
        &mut self.spill_pool
    }

    /// A live block's payload beside the pool its lists draw from.
    pub(crate) fn block_data_and_pool(
        &mut self,
        block: BlockRef,
    ) -> (&mut BlockData, &mut SpillPool) {
        self.mutations += 1;
        (self.blocks.get_mut(block.0), &mut self.spill_pool)
    }

    /// A live region's payload beside the pool its block list draws from.
    pub(crate) fn region_data_and_pool(
        &mut self,
        region: RegionRef,
    ) -> (&mut RegionData, &mut SpillPool) {
        self.mutations += 1;
        (self.regions.get_mut(region.0), &mut self.spill_pool)
    }

    pub(crate) fn erase_scratch_mut(&mut self) -> &mut EraseScratch {
        &mut self.erase_scratch
    }

    pub(crate) fn parse_scratch_mut(&mut self) -> &mut ParseScratch {
        &mut self.parse_scratch
    }

    pub(crate) fn decode_scratch_mut(&mut self) -> &mut DecodeScratch {
        &mut self.decode_scratch
    }

    /// Takes the parked encoder scratch, or a fresh one on first use.
    pub(crate) fn take_encode_scratch(&self) -> EncodeScratch {
        self.encode_scratch.take().unwrap_or_default()
    }

    /// Parks encoder scratch for the next encode.
    pub(crate) fn put_encode_scratch(&self, scratch: EncodeScratch) {
        self.encode_scratch.set(Some(scratch));
    }

    /// The slot printers take their naming tables from and park them in.
    pub(crate) fn parked_names(&self) -> &ParkedNames {
        &self.parked_names
    }

    /// Harvests the spill buffers of an erased operation's payload into
    /// the pool, so the next oversized `create_op` allocates nothing.
    pub(crate) fn recycle_op_data(&mut self, mut data: OperationData) {
        let pool = &mut self.spill_pool;
        SpillPool::stash(&mut pool.operands, data.operands.take_spill());
        SpillPool::stash(&mut pool.links, data.operand_links.take_spill());
        SpillPool::stash(&mut pool.types, data.result_types.take_spill());
        SpillPool::stash(&mut pool.heads, data.result_first_use.take_spill());
        SpillPool::stash(&mut pool.attrs, data.attributes.take_spill());
        SpillPool::stash(&mut pool.successors, data.successors.take_spill());
        SpillPool::stash(&mut pool.regions, data.regions.take_spill());
    }

    /// Harvests an erased block's op and argument lists into the pool.
    pub(crate) fn recycle_block_data(&mut self, data: BlockData) {
        let pool = &mut self.spill_pool;
        SpillPool::stash(&mut pool.block_ops, Some(data.ops));
        SpillPool::stash(&mut pool.block_arg_types, Some(data.arg_types));
        SpillPool::stash(&mut pool.block_arg_heads, Some(data.arg_first_use));
    }

    /// Harvests an erased region's block list into the pool.
    pub(crate) fn recycle_region_data(&mut self, data: RegionData) {
        SpillPool::stash(&mut self.spill_pool.region_blocks, Some(data.blocks));
    }

    // ----- Registry --------------------------------------------------------

    /// The dialect registry.
    pub fn registry(&self) -> &DialectRegistry {
        &self.registry
    }

    /// Mutable access to the dialect registry.
    pub fn registry_mut(&mut self) -> &mut DialectRegistry {
        self.mutations += 1;
        &mut self.registry
    }

    /// Whether operations of unregistered dialects are accepted (default:
    /// `true`, as in MLIR's `allowUnregisteredDialects`).
    pub fn allows_unregistered(&self) -> bool {
        self.allow_unregistered
    }

    /// Toggles acceptance of unregistered dialects.
    pub fn set_allow_unregistered(&mut self, allow: bool) {
        self.mutations += 1;
        self.allow_unregistered = allow;
    }

    // ----- Verified stamp --------------------------------------------------
    //
    // A successful hooked `ModuleVerifier::verify` stamps its root with the
    // mutation counter. Every change to IR or registration bumps the
    // counter, so the stamp goes stale the moment anything could have made
    // the root invalid; until then `IncrementalVerifier::verify_full` can
    // trust it instead of walking the module again.

    /// Records that `root` has just been verified in full, hooks included.
    pub(crate) fn stamp_verified(&self, root: OpRef) {
        self.verified.set(Some((root, self.mutations)));
    }

    /// Whether `root` passed a full hooked verification and neither IR nor
    /// registration has changed since.
    pub fn is_verified(&self, root: OpRef) -> bool {
        self.verified.get() == Some((root, self.mutations))
    }

    // ----- Rewrite drive state ---------------------------------------------

    /// Takes the rewrite driver's parked state: empty on a fresh or cloned
    /// context, warm after the first drive.
    pub fn take_drive_scratch(&mut self) -> DriveScratch {
        std::mem::take(&mut self.drive_scratch)
    }

    /// Parks the rewrite driver's state for the next drive.
    pub fn put_drive_scratch(&mut self, scratch: DriveScratch) {
        self.drive_scratch = scratch;
    }

    // ----- Module convenience ----------------------------------------------

    /// Creates a `builtin.module` operation with a single-block region.
    pub fn create_module(&mut self) -> OpRef {
        let (region, _entry) = self.create_region_with_entry([]);
        let name = self.op_name("builtin", "module");
        self.create_op(OperationState::new(name).add_regions([region]))
    }

    /// The body block of a `builtin.module` created by
    /// [`Context::create_module`].
    ///
    /// # Panics
    ///
    /// Panics if `module` has no region or an empty region.
    pub fn module_block(&self, module: OpRef) -> BlockRef {
        module
            .region(self, 0)
            .entry_block(self)
            .expect("module region has no entry block")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_roundtrip() {
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        assert_eq!(block.ops(&ctx).len(), 0);
        assert_eq!(module.name(&ctx).display(&ctx), "builtin.module");
    }

    /// A context moves to the thread that owns it: a bundle's template is
    /// shared behind a lock and each batch worker owns a clone. This pin
    /// makes losing `Send` a compile error rather than a runtime surprise.
    #[test]
    fn context_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Context>();
    }

    #[test]
    fn symbol_lookup_does_not_intern() {
        let mut ctx = Context::new();
        assert_eq!(ctx.symbol_lookup("never-seen"), None);
        let s = ctx.symbol("seen");
        assert_eq!(ctx.symbol_lookup("seen"), Some(s));
    }
}
