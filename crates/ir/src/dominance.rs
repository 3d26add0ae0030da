//! Dominance analysis over region CFGs, used by the SSA verifier.
//!
//! Implements the Cooper–Harvey–Kennedy iterative dominator algorithm on
//! the block graph of one region. Blocks unreachable from the entry are
//! reported as such and treated permissively by the verifier (as in MLIR).
//!
//! The analysis works on dense arrays indexed by a block's position in
//! its region: reverse post-order numbers, immediate dominators and
//! predecessor lists. A [`DominanceCache`] keeps every array it
//! has filled, and hands cleared analyses back out, so a verifier that
//! runs module after module computes dominance without allocating once
//! its buffers have grown to the largest region seen.

use crate::block::BlockRef;
use crate::context::Context;
use crate::fasthash::FastMap;
use crate::region::RegionRef;

/// The reverse post-order number of a block no path from the entry reaches.
const UNREACHED: u32 = u32::MAX;

/// Dominator information for one region.
#[derive(Debug, Clone, Default)]
pub struct RegionDominance {
    entry: Option<BlockRef>,
    /// Each block's position in the region.
    position: FastMap<BlockRef, u32>,
    /// Reverse post-order number of the block at each position, or
    /// [`UNREACHED`].
    rpo: Vec<u32>,
    /// Position of the immediate dominator of the block at each position
    /// (the entry's is itself); meaningful for reached blocks only.
    idom: Vec<u32>,
}

/// Working buffers of [`RegionDominance::compute`], kept between regions.
#[derive(Debug, Default)]
struct DomScratch {
    /// Reached positions, in reverse post-order once the walk is done.
    order: Vec<u32>,
    /// Depth-first frames: a position and how many successors it has
    /// handed out.
    stack: Vec<(u32, u32)>,
    /// The reached predecessors of the block at each position.
    preds: Vec<Vec<u32>>,
}

impl RegionDominance {
    /// Computes dominators for `region`.
    pub fn compute(ctx: &Context, region: RegionRef) -> Self {
        let mut dom = RegionDominance::default();
        dom.recompute(ctx, region, &mut DomScratch::default());
        dom
    }

    /// Fills `self` with the dominators of `region`, reusing its arrays.
    fn recompute(&mut self, ctx: &Context, region: RegionRef, scratch: &mut DomScratch) {
        let blocks = region.blocks(ctx);
        let n = blocks.len();
        self.entry = blocks.first().copied();
        self.position.clear();
        self.position.extend(blocks.iter().enumerate().map(|(i, &b)| (b, i as u32)));
        self.rpo.clear();
        self.rpo.resize(n, UNREACHED);
        self.idom.clear();
        self.idom.resize(n, UNREACHED);
        if n == 0 {
            return;
        }
        let position = &self.position;
        let succs = |pos: u32| successor_list(ctx, blocks[pos as usize]);

        // Post-order depth-first walk from the entry, then reversed. A
        // successor outside the region (malformed IR) is no edge.
        let DomScratch { order, stack, preds } = scratch;
        order.clear();
        stack.clear();
        stack.push((0, 0));
        self.rpo[0] = 0; // marks the entry seen; numbered below
        while let Some(frame) = stack.last_mut() {
            let (pos, next) = *frame;
            let Some(block) = succs(pos).get(next as usize) else {
                order.push(pos);
                stack.pop();
                continue;
            };
            frame.1 += 1;
            match position.get(block) {
                Some(&s) if self.rpo[s as usize] == UNREACHED => {
                    self.rpo[s as usize] = 0;
                    stack.push((s, 0));
                }
                _ => {}
            }
        }
        order.reverse();
        for (number, &pos) in order.iter().enumerate() {
            self.rpo[pos as usize] = number as u32;
        }

        // Predecessor lists, from reached blocks only.
        for list in preds.iter_mut().take(n) {
            list.clear();
        }
        if preds.len() < n {
            preds.resize_with(n, Vec::new);
        }
        for &pos in order.iter() {
            for block in succs(pos) {
                if let Some(&s) = position.get(block) {
                    preds[s as usize].push(pos);
                }
            }
        }

        // Cooper-Harvey-Kennedy iteration.
        self.idom[0] = 0;
        let mut changed = true;
        while changed {
            changed = false;
            for &pos in order.iter().skip(1) {
                let mut new_idom = UNREACHED;
                for &pred in &preds[pos as usize] {
                    if self.idom[pred as usize] == UNREACHED {
                        continue;
                    }
                    new_idom = if new_idom == UNREACHED {
                        pred
                    } else {
                        self.intersect(pred, new_idom)
                    };
                }
                if new_idom != UNREACHED && self.idom[pos as usize] != new_idom {
                    self.idom[pos as usize] = new_idom;
                    changed = true;
                }
            }
        }
    }

    /// The nearest common dominator of the reached positions `a` and `b`.
    fn intersect(&self, mut a: u32, mut b: u32) -> u32 {
        while a != b {
            while self.rpo[a as usize] > self.rpo[b as usize] {
                a = self.idom[a as usize];
            }
            while self.rpo[b as usize] > self.rpo[a as usize] {
                b = self.idom[b as usize];
            }
        }
        a
    }

    /// The position of `block`, if it is reached from the entry.
    fn reached(&self, block: BlockRef) -> Option<u32> {
        let pos = *self.position.get(&block)?;
        (self.rpo[pos as usize] != UNREACHED).then_some(pos)
    }

    /// Returns `true` if `block` is reachable from the region entry.
    pub fn is_reachable(&self, block: BlockRef) -> bool {
        self.reached(block).is_some()
    }

    /// Returns `true` if `a` dominates `b` (reflexively).
    ///
    /// Unreachable blocks are conservatively reported as dominated by
    /// everything, matching MLIR's permissive treatment.
    pub fn dominates(&self, a: BlockRef, b: BlockRef) -> bool {
        if a == b {
            return true;
        }
        let Some(mut cur) = self.reached(b) else { return true };
        let Some(a) = self.reached(a) else { return false };
        loop {
            let parent = self.idom[cur as usize];
            if parent == a {
                return true;
            }
            if parent == cur {
                return false; // reached entry
            }
            cur = parent;
        }
    }

    /// The region entry block, if any.
    pub fn entry(&self) -> Option<BlockRef> {
        self.entry
    }
}

/// A cache of per-region dominator analyses with region-granular
/// invalidation.
///
/// The whole-module [`ModuleVerifier`](crate::verify::ModuleVerifier)
/// clears it wholesale at the start of every run; the
/// [`IncrementalVerifier`](crate::verify::IncrementalVerifier) instead
/// invalidates only the regions a change journal names, so dominance for
/// untouched regions is never recomputed. Dropped analyses keep their
/// arrays for the next region computed, and the walk's working buffers
/// live here too, so a warmed cache computes without allocating.
///
/// Entity arenas reuse slots without generation counters, so an erased
/// region's `RegionRef` can come back identifying a *different* region.
/// Holders of a cache across erasures must therefore evict every erased
/// region (the journal records them for exactly this purpose) — a stale
/// entry under a reused ref would silently answer for the wrong CFG.
#[derive(Debug, Default)]
pub struct DominanceCache {
    regions: FastMap<RegionRef, RegionDominance>,
    /// Dropped analyses whose arrays the next computation reuses.
    spare: Vec<RegionDominance>,
    scratch: DomScratch,
}

impl DominanceCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every cached analysis (capacity is retained).
    pub fn clear(&mut self) {
        self.spare.extend(self.regions.drain().map(|(_, dom)| dom));
    }

    /// Drops the cached analysis for `region`, if any. Used both for
    /// regions whose CFG changed and for erased regions whose slot may be
    /// reused.
    pub fn invalidate(&mut self, region: RegionRef) {
        self.spare.extend(self.regions.remove(&region));
    }

    /// The dominator analysis for `region`, computing (and caching) it on
    /// first use.
    pub fn get_or_compute(&mut self, ctx: &Context, region: RegionRef) -> &RegionDominance {
        let DominanceCache { regions, spare, scratch } = self;
        regions.entry(region).or_insert_with(|| {
            let mut dom = spare.pop().unwrap_or_default();
            dom.recompute(ctx, region, scratch);
            dom
        })
    }

    /// Number of cached region analyses.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }
}

/// The successor list of `block`'s final operation.
fn successor_list(ctx: &Context, block: BlockRef) -> &[BlockRef] {
    block.last_op(ctx).map_or(&[], |op| op.successors(ctx))
}

/// The CFG successors of `block`: the successor list of its final
/// operation.
pub fn successors(ctx: &Context, block: BlockRef) -> impl Iterator<Item = BlockRef> + '_ {
    successor_list(ctx, block).iter().copied()
}

/// The CFG predecessors of `block` within its region, in region order.
pub fn predecessors(ctx: &Context, block: BlockRef) -> impl Iterator<Item = BlockRef> + '_ {
    let blocks = block.parent_region(ctx).map_or(&[][..], |region| region.blocks(ctx));
    blocks.iter().copied().filter(move |&candidate| successor_list(ctx, candidate).contains(&block))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, OperationState};

    /// Builds a diamond CFG: entry -> (left | right) -> merge.
    fn diamond(ctx: &mut Context) -> (RegionRef, [BlockRef; 4]) {
        let region = ctx.create_region();
        let entry = ctx.create_block([]);
        let left = ctx.create_block([]);
        let right = ctx.create_block([]);
        let merge = ctx.create_block([]);
        for b in [entry, left, right, merge] {
            ctx.append_block(region, b);
        }
        let cond_br = ctx.op_name("cf", "cond_br");
        let br = ctx.op_name("cf", "br");
        let ret = ctx.op_name("cf", "return");
        let op = ctx.create_op(OperationState::new(cond_br).add_successors([left, right]));
        ctx.append_op(entry, op);
        let op = ctx.create_op(OperationState::new(br).add_successors([merge]));
        ctx.append_op(left, op);
        let op = ctx.create_op(OperationState::new(br).add_successors([merge]));
        ctx.append_op(right, op);
        let op = ctx.create_op(OperationState::new(ret));
        ctx.append_op(merge, op);
        (region, [entry, left, right, merge])
    }

    #[test]
    fn diamond_dominators() {
        let mut ctx = Context::new();
        let (region, [entry, left, right, merge]) = diamond(&mut ctx);
        let dom = RegionDominance::compute(&ctx, region);
        assert!(dom.dominates(entry, merge));
        assert!(dom.dominates(entry, left));
        assert!(!dom.dominates(left, merge), "merge is reachable around left");
        assert!(!dom.dominates(right, merge));
        assert!(dom.dominates(merge, merge));
    }

    /// Builds a loop: entry -> body, body -> (body | exit).
    fn back_edge(ctx: &mut Context) -> (RegionRef, [BlockRef; 3]) {
        let region = ctx.create_region();
        let entry = ctx.create_block([]);
        let body = ctx.create_block([]);
        let exit = ctx.create_block([]);
        for b in [entry, body, exit] {
            ctx.append_block(region, b);
        }
        let br = ctx.op_name("cf", "br");
        let cond_br = ctx.op_name("cf", "cond_br");
        let op = ctx.create_op(OperationState::new(br).add_successors([body]));
        ctx.append_op(entry, op);
        // body loops to itself or exits.
        let op = ctx.create_op(OperationState::new(cond_br).add_successors([body, exit]));
        ctx.append_op(body, op);
        (region, [entry, body, exit])
    }

    #[test]
    fn loop_back_edge() {
        let mut ctx = Context::new();
        let (region, [entry, body, exit]) = back_edge(&mut ctx);
        let dom = RegionDominance::compute(&ctx, region);
        assert!(dom.dominates(entry, body));
        assert!(dom.dominates(body, exit));
        assert_eq!(predecessors(&ctx, body).collect::<Vec<_>>(), vec![entry, body]);
    }

    /// A cached analysis computed into the arrays of a dropped one, for a
    /// region of another shape, answers exactly as a fresh one does.
    #[test]
    fn reused_analyses_match_fresh_ones() {
        let mut ctx = Context::new();
        let (diamond_region, diamond_blocks) = diamond(&mut ctx);
        let (loop_region, loop_blocks) = back_edge(&mut ctx);
        let blocks: Vec<BlockRef> = diamond_blocks.into_iter().chain(loop_blocks).collect();
        let mut cache = DominanceCache::new();
        for region in [diamond_region, loop_region, diamond_region, loop_region] {
            cache.clear();
            let fresh = RegionDominance::compute(&ctx, region);
            let reused = cache.get_or_compute(&ctx, region);
            for &a in &blocks {
                assert_eq!(reused.is_reachable(a), fresh.is_reachable(a));
                for &b in &blocks {
                    assert_eq!(reused.dominates(a, b), fresh.dominates(a, b), "{a:?} {b:?}");
                }
            }
        }
    }

    #[test]
    fn cache_invalidation_is_per_region() {
        let mut ctx = Context::new();
        let (region_a, [entry_a, ..]) = diamond(&mut ctx);
        let (region_b, [entry_b, ..]) = diamond(&mut ctx);
        let mut cache = DominanceCache::new();
        assert!(cache.get_or_compute(&ctx, region_a).is_reachable(entry_a));
        assert!(cache.get_or_compute(&ctx, region_b).is_reachable(entry_b));
        assert_eq!(cache.len(), 2);
        cache.invalidate(region_a);
        assert_eq!(cache.len(), 1, "only the named region is dropped");
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn unreachable_blocks_are_permissive() {
        let mut ctx = Context::new();
        let region = ctx.create_region();
        let entry = ctx.create_block([]);
        let island = ctx.create_block([]);
        ctx.append_block(region, entry);
        ctx.append_block(region, island);
        let dom = RegionDominance::compute(&ctx, region);
        assert!(dom.is_reachable(entry));
        assert!(!dom.is_reachable(island));
        assert!(dom.dominates(entry, island));
        assert!(!dom.dominates(island, entry));
    }
}
