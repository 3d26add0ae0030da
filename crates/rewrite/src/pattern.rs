//! The [`RewritePattern`] trait and the [`Rewriter`] handed to patterns.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use irdl_ir::{
    BlockRef, ChangeJournal, Context, InlineVec, OpName, OperationState, OpRef, Type, Value,
};

use crate::matcher::{MatchProgram, PatternMatcher};

/// A rewrite pattern rooted at one operation.
///
/// Patterns are registered behind `Arc` and shared across threads by the
/// batch pipeline, so implementations must be `Send + Sync` — in practice,
/// immutable match/rewrite logic plus configuration data.
pub trait RewritePattern: Send + Sync {
    /// The operation name this pattern is anchored on, or `None` to try it
    /// on every operation.
    fn root(&self) -> Option<OpName> {
        None
    }

    /// Relative priority; higher-benefit patterns are tried first.
    fn benefit(&self) -> usize {
        1
    }

    /// A human-readable name for debugging and statistics.
    fn name(&self) -> &str {
        "<anonymous>"
    }

    /// Attempts to match at `rewriter.root()` and perform the rewrite.
    ///
    /// Returns `true` if the IR was changed. Patterns must perform all
    /// mutation through the [`Rewriter`] so the driver can track changes.
    fn match_and_rewrite(&self, rewriter: &mut Rewriter<'_>) -> bool;

    /// Lowers this pattern's match side to a predicate program for the
    /// shared [`PatternMatcher`] automaton, or `None` if the match logic
    /// is opaque Rust code.
    ///
    /// A returned program must be a conservative approximation: it may
    /// accept operations [`RewritePattern::match_and_rewrite`] then
    /// declines, but must accept every operation it would rewrite —
    /// a false negative changes driver semantics. When in doubt return
    /// `None`; the pattern is then tried at every op matching
    /// [`RewritePattern::root`], exactly as under a per-pattern scan.
    fn match_program(&self) -> Option<MatchProgram> {
        None
    }
}

/// An ordered collection of patterns, sorted by descending benefit and
/// indexed by root operation name.
///
/// The driver asks for the patterns applicable to one operation; the index
/// answers without scanning patterns anchored elsewhere. Because the sort
/// is stable, position in `patterns` *is* priority order, so candidate
/// lists (which hold ascending positions) merge back into exactly the
/// order a full scan would have produced.
#[derive(Clone, Default)]
pub struct PatternSet {
    patterns: Vec<Arc<dyn RewritePattern>>,
    /// Positions of patterns anchored on a specific op name (ascending).
    anchored: HashMap<OpName, Vec<usize>>,
    /// Positions of patterns that try every operation (ascending).
    anchorless: Vec<usize>,
    /// Lazily-compiled shared matcher automaton; reset by [`PatternSet::add`],
    /// so the artifact always reflects the current catalog. Cloning a set
    /// shares the already-compiled automaton.
    matcher: OnceLock<Arc<PatternMatcher>>,
}

impl std::fmt::Debug for PatternSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.patterns.iter().map(|p| p.name()).collect();
        f.debug_tuple("PatternSet").field(&names).finish()
    }
}

impl PatternSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a pattern, keeping the set sorted by benefit.
    pub fn add(&mut self, pattern: Arc<dyn RewritePattern>) {
        self.patterns.push(pattern);
        self.patterns.sort_by_key(|p| std::cmp::Reverse(p.benefit()));
        self.reindex();
        // The catalog changed; any compiled automaton is stale.
        self.matcher = OnceLock::new();
    }

    fn reindex(&mut self) {
        self.anchored.clear();
        self.anchorless.clear();
        for (i, pattern) in self.patterns.iter().enumerate() {
            match pattern.root() {
                Some(root) => self.anchored.entry(root).or_default().push(i),
                None => self.anchorless.push(i),
            }
        }
    }

    /// The patterns, highest benefit first.
    pub fn patterns(&self) -> &[Arc<dyn RewritePattern>] {
        &self.patterns
    }

    /// The patterns applicable to an operation named `name` — those
    /// anchored on `name` plus the anchorless ones — highest benefit first
    /// (ties in registration order, matching [`PatternSet::patterns`]).
    pub fn candidates(&self, name: OpName) -> impl Iterator<Item = &dyn RewritePattern> + '_ {
        let anchored = self.anchored.get(&name).map_or(&[][..], Vec::as_slice);
        MergeAscending { a: anchored, b: &self.anchorless }
            .map(move |i| &*self.patterns[i])
    }

    /// The positions (into [`PatternSet::patterns`]) of the patterns
    /// applicable to an operation named `name`, ascending — the index view
    /// behind [`PatternSet::candidates`].
    pub fn candidate_positions(&self, name: OpName) -> impl Iterator<Item = usize> + '_ {
        let anchored = self.anchored.get(&name).map_or(&[][..], Vec::as_slice);
        MergeAscending { a: anchored, b: &self.anchorless }
    }

    /// The compiled matcher automaton for this catalog, building it on
    /// first use. The artifact is cached (and shared by clones), so
    /// repeated drives over the same set compile exactly once.
    pub fn matcher(&self) -> Arc<PatternMatcher> {
        self.matcher
            .get_or_init(|| Arc::new(PatternMatcher::compile(&self.patterns)))
            .clone()
    }

    /// Eagerly compiles the matcher automaton. Call at seal time — e.g.
    /// before fanning a batch out to workers — so compilation happens once
    /// up front instead of racing lazily on first use.
    pub fn seal(&self) {
        let _ = self.matcher();
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Returns `true` if the set has no patterns.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }
}

/// Merges two ascending position lists into one ascending stream.
struct MergeAscending<'a> {
    a: &'a [usize],
    b: &'a [usize],
}

impl Iterator for MergeAscending<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let take_a = match (self.a.first(), self.b.first()) {
            (Some(x), Some(y)) => x < y,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let list = if take_a { &mut self.a } else { &mut self.b };
        let item = list[0];
        *list = &list[1..];
        Some(item)
    }
}

impl FromIterator<Arc<dyn RewritePattern>> for PatternSet {
    fn from_iter<I: IntoIterator<Item = Arc<dyn RewritePattern>>>(iter: I) -> Self {
        let mut set = PatternSet::new();
        set.patterns.extend(iter);
        set.patterns.sort_by_key(|p| std::cmp::Reverse(p.benefit()));
        set.reindex();
        set
    }
}

/// The mutation interface handed to patterns: all IR changes made during a
/// rewrite go through it so they land in the [`ChangeJournal`], which the
/// driver consumes both for worklist maintenance and for incremental
/// re-verification. Mutating the IR behind the rewriter's back (via
/// [`Rewriter::ctx_mut`]) is possible for interning but must not be used
/// for structural changes — unjournaled changes are invisible to the
/// incremental verifier.
pub struct Rewriter<'a> {
    ctx: &'a mut Context,
    root: OpRef,
    journal: &'a mut ChangeJournal,
}

impl<'a> Rewriter<'a> {
    /// Creates a rewriter anchored on `root`, recording every mutation
    /// into `journal` (on top of whatever it already holds).
    pub fn new(ctx: &'a mut Context, root: OpRef, journal: &'a mut ChangeJournal) -> Self {
        Rewriter { ctx, root, journal }
    }

    /// The operation the pattern is anchored on.
    pub fn root(&self) -> OpRef {
        self.root
    }

    /// Read access to the context.
    pub fn ctx(&self) -> &Context {
        self.ctx
    }

    /// Mutable access to the context (for interning types/attributes).
    pub fn ctx_mut(&mut self) -> &mut Context {
        self.ctx
    }

    /// Read access to the journal accumulated so far.
    pub fn journal(&self) -> &ChangeJournal {
        self.journal
    }

    /// Creates an operation and inserts it immediately before the root.
    pub fn insert_before_root(&mut self, state: OperationState) -> OpRef {
        let root = self.root;
        self.insert_before(root, state)
    }

    /// Builds the states of `count` new operations with `build` (called
    /// with `0..count` in order) and, only if every call returned one,
    /// creates them all before the root, in order. When any call declines,
    /// nothing is created and `None` is returned: all-or-nothing. The
    /// states wait in the journal's staging list, so a warmed rewriter
    /// allocates nothing for them.
    pub fn insert_all_before_root(
        &mut self,
        count: usize,
        mut build: impl FnMut(&mut Context, usize) -> Option<OperationState>,
    ) -> Option<InlineVec<OpRef, 4>> {
        let mut staged = self.journal.take_staged();
        for i in 0..count {
            match build(self.ctx, i) {
                Some(state) => staged.push(state),
                None => break,
            }
        }
        let created = (staged.len() == count)
            .then(|| staged.drain(..).map(|state| self.insert_before_root(state)).collect());
        self.journal.put_staged(staged);
        created
    }

    /// Creates an operation and inserts it immediately before `anchor`.
    pub fn insert_before(&mut self, anchor: OpRef, state: OperationState) -> OpRef {
        let op = self.ctx.create_op(state);
        self.ctx.insert_op_before(anchor, op);
        if let Some(block) = op.parent_block(self.ctx) {
            self.journal.note_block(block);
        }
        self.journal.note_created(self.ctx, op);
        op
    }

    /// Creates an operation and inserts it immediately after `anchor`.
    ///
    /// `anchor` itself is journaled as modified: if it was the last op in
    /// its block, it no longer is, which can flip the terminator-placement
    /// rules for it.
    pub fn insert_after(&mut self, anchor: OpRef, state: OperationState) -> OpRef {
        let op = self.ctx.create_op(state);
        self.ctx.insert_op_after(anchor, op);
        if let Some(block) = op.parent_block(self.ctx) {
            self.journal.note_block(block);
        }
        self.journal.note_modified(anchor);
        self.journal.note_created(self.ctx, op);
        op
    }

    /// Creates an operation and appends it at the end of `block`.
    ///
    /// The previous last op (if any) is journaled as modified — it lost
    /// its "last in block" status.
    pub fn append(&mut self, block: BlockRef, state: OperationState) -> OpRef {
        if let Some(&last) = block.ops(self.ctx).last() {
            self.journal.note_modified(last);
        }
        let op = self.ctx.create_op(state);
        self.ctx.append_op(block, op);
        self.journal.note_block(block);
        self.journal.note_created(self.ctx, op);
        op
    }

    /// Rewires operand `index` of `op` to `value`.
    pub fn set_operand(&mut self, op: OpRef, index: usize, value: Value) {
        self.ctx.set_operand(op, index, value);
        self.journal.note_modified(op);
    }

    /// Replaces every use of `old` with `new`, journaling each rewired
    /// user as modified.
    pub fn replace_all_uses(&mut self, old: Value, new: Value) {
        for u in self.ctx.value_uses(old) {
            self.journal.note_modified(u.op);
        }
        self.ctx.replace_all_uses(old, new);
    }

    /// Detaches `op` from its current position and re-inserts it before
    /// `anchor`.
    ///
    /// Both blocks, the op itself, and every user of its results are
    /// journaled — a move can break the dominance of uses that were valid
    /// at the old position.
    pub fn move_before(&mut self, op: OpRef, anchor: OpRef) {
        if let Some(old_block) = op.parent_block(self.ctx) {
            if let Some(&last) = old_block.ops(self.ctx).last() {
                if last == op {
                    // The op below the moved one becomes the new last.
                    let ops = old_block.ops(self.ctx);
                    if ops.len() > 1 {
                        self.journal.note_modified(ops[ops.len() - 2]);
                    }
                }
            }
            self.journal.note_block(old_block);
            self.ctx.detach_op(op);
        }
        self.ctx.insert_op_before(anchor, op);
        if let Some(block) = op.parent_block(self.ctx) {
            self.journal.note_block(block);
        }
        self.journal.note_moved(self.ctx, op);
        for i in 0..op.num_results(self.ctx) {
            for u in self.ctx.value_uses(op.result(self.ctx, i)) {
                self.journal.note_modified(u.op);
            }
        }
    }

    /// Creates a block with the given argument types and inserts it after
    /// `anchor` in the same region. The region is journaled as CFG-dirty:
    /// growing a region past one block changes which structural rules
    /// apply to *all* of its blocks.
    pub fn insert_block_after(
        &mut self,
        anchor: BlockRef,
        arg_types: impl IntoIterator<Item = Type>,
    ) -> BlockRef {
        let block = self.ctx.create_block(arg_types);
        self.ctx.insert_block_after(anchor, block);
        if let Some(region) = block.parent_region(self.ctx) {
            self.journal.note_region_blocks_changed(region);
        }
        self.journal.note_block(block);
        block
    }

    /// Replaces every use of the root's results with `values` and erases
    /// the root.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the root's result count.
    pub fn replace_root(&mut self, values: &[Value]) {
        assert_eq!(
            values.len(),
            self.root.num_results(self.ctx),
            "replacement value count must match the root's result count"
        );
        for (i, value) in values.iter().enumerate() {
            let old = self.root.result(self.ctx, i);
            self.replace_all_uses(old, *value);
        }
        let root = self.root;
        self.erase(root);
    }

    /// Erases `op` (which must be use-free), journaling the whole erased
    /// subtree first so no dangling reference survives in the journal.
    pub fn erase(&mut self, op: OpRef) {
        self.journal.note_erase_subtree(self.ctx, op);
        self.ctx.erase_op(op);
    }

    /// Erases `op` if none of its results have uses; returns whether it was
    /// erased.
    pub fn erase_if_unused(&mut self, op: OpRef) -> bool {
        let unused = (0..op.num_results(self.ctx))
            .all(|i| op.result(self.ctx, i).is_unused(self.ctx));
        if unused {
            self.erase(op);
        }
        unused
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Trivial;
    impl RewritePattern for Trivial {
        fn match_and_rewrite(&self, _rewriter: &mut Rewriter<'_>) -> bool {
            false
        }
    }

    struct Better;
    impl RewritePattern for Better {
        fn benefit(&self) -> usize {
            10
        }
        fn name(&self) -> &str {
            "better"
        }
        fn match_and_rewrite(&self, _rewriter: &mut Rewriter<'_>) -> bool {
            false
        }
    }

    #[test]
    fn pattern_set_orders_by_benefit() {
        let mut set = PatternSet::new();
        set.add(Arc::new(Trivial));
        set.add(Arc::new(Better));
        assert_eq!(set.patterns()[0].name(), "better");
        assert_eq!(set.len(), 2);
    }

    /// A configurable pattern for ordering tests.
    struct Named {
        name: &'static str,
        benefit: usize,
        root: Option<OpName>,
    }
    impl RewritePattern for Named {
        fn root(&self) -> Option<OpName> {
            self.root
        }
        fn benefit(&self) -> usize {
            self.benefit
        }
        fn name(&self) -> &str {
            self.name
        }
        fn match_and_rewrite(&self, _rewriter: &mut Rewriter<'_>) -> bool {
            false
        }
    }

    /// `candidates()` must yield descending benefit, ties in registration
    /// order, with anchored and anchorless patterns interleaved exactly as
    /// a full scan of `patterns()` would visit them.
    #[test]
    fn candidates_order_is_benefit_desc_with_stable_ties() {
        let mut ctx = Context::new();
        let add = ctx.op_name("t", "add");
        let mul = ctx.op_name("t", "mul");
        let mut set = PatternSet::new();
        set.add(Arc::new(Named { name: "add-low-a", benefit: 1, root: Some(add) }));
        set.add(Arc::new(Named { name: "any-high", benefit: 9, root: None }));
        set.add(Arc::new(Named { name: "add-low-b", benefit: 1, root: Some(add) }));
        set.add(Arc::new(Named { name: "add-high", benefit: 9, root: Some(add) }));
        set.add(Arc::new(Named { name: "mul-mid", benefit: 5, root: Some(mul) }));

        let order: Vec<&str> = set.candidates(add).map(|p| p.name()).collect();
        // Benefit 9 ties resolve in registration order (any-high first),
        // mul-anchored patterns never appear, benefit-1 ties keep
        // registration order.
        assert_eq!(order, ["any-high", "add-high", "add-low-a", "add-low-b"]);

        let order: Vec<&str> = set.candidates(mul).map(|p| p.name()).collect();
        assert_eq!(order, ["any-high", "mul-mid"]);

        // The candidate stream is a filtered view of the full priority
        // scan: relative order must match `patterns()`.
        let full: Vec<&str> = set.patterns().iter().map(|p| p.name()).collect();
        let filtered: Vec<&str> =
            full.iter().copied().filter(|n| order.contains(n)).collect();
        assert_eq!(order, filtered);
    }

    #[test]
    fn rewriter_replace_root() {
        let mut ctx = Context::new();
        let f32 = ctx.f32_type();
        let block = ctx.create_block([]);
        let src = ctx.op_name("t", "src");
        let a = ctx.create_op(OperationState::new(src).add_result_types([f32]));
        let b = ctx.create_op(OperationState::new(src).add_result_types([f32]));
        ctx.append_op(block, a);
        ctx.append_op(block, b);
        let va = a.result(&ctx, 0);
        let vb = b.result(&ctx, 0);
        let sink = ctx.op_name("t", "sink");
        let user = ctx.create_op(OperationState::new(sink).add_operands([va]));
        ctx.append_op(block, user);

        let mut journal = ChangeJournal::new();
        let mut rewriter = Rewriter::new(&mut ctx, a, &mut journal);
        rewriter.replace_root(&[vb]);
        assert_eq!(user.operand(&ctx, 0), vb);
        assert!(!a.is_live(&ctx));
        assert_eq!(journal.modified(), &[user], "the rewired user is journaled");
        assert_eq!(journal.erased_ops(), 1);
        assert_eq!(journal.dirty_blocks(), &[block], "the erasure site is dirty");
    }

    #[test]
    fn rewriter_insertions_journal_displaced_neighbours() {
        let mut ctx = Context::new();
        let block = ctx.create_block([]);
        let src = ctx.op_name("t", "src");
        let first = ctx.create_op(OperationState::new(src));
        ctx.append_op(block, first);

        let mut journal = ChangeJournal::new();
        let mut rewriter = Rewriter::new(&mut ctx, first, &mut journal);
        // Appending displaces `first` from its last-in-block position.
        let appended = rewriter.append(block, OperationState::new(src));
        assert_eq!(rewriter.journal().created(), &[appended]);
        assert_eq!(rewriter.journal().modified(), &[first]);
        // insert_after displaces its anchor the same way.
        let after = rewriter.insert_after(appended, OperationState::new(src));
        assert_eq!(rewriter.journal().created(), &[appended, after]);
        assert_eq!(rewriter.journal().modified(), &[first, appended]);
        // insert_before displaces nobody.
        let before = rewriter.insert_before(first, OperationState::new(src));
        assert_eq!(rewriter.journal().created(), &[appended, after, before]);
        assert_eq!(rewriter.journal().modified(), &[first, appended]);
        assert_eq!(block.ops(&ctx), &[before, first, appended, after]);
    }
}
