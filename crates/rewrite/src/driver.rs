//! The greedy worklist rewrite driver.
//!
//! A drive takes its worklist, queued set, journal and incremental
//! verifier out of the context ([`Context::take_drive_scratch`]) and parks
//! them again when it returns, so a drive over a warmed context allocates
//! nothing. A checked drive establishes its valid-before baseline once: by
//! a full walk, or by trusting the stamp a just-finished
//! [`ModuleVerifier::verify`] left on the same, unchanged module.

use irdl_ir::diag::Diagnostic;
use irdl_ir::journal::DriveScratch;
use irdl_ir::verify::ModuleVerifier;
use irdl_ir::walk::{walk_ops, WalkResult};
use irdl_ir::{Context, OpRef};

use crate::pattern::{PatternSet, Rewriter};

/// How the driver finds the patterns applicable to an operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MatcherMode {
    /// Dispatch through the compiled [`crate::matcher::PatternMatcher`]
    /// automaton: one trie evaluation per op answers for the whole
    /// catalog. The default.
    #[default]
    Auto,
    /// Per-pattern scan via the root index, trying `match_and_rewrite` on
    /// every candidate. The pre-automaton behaviour, kept as the
    /// differential oracle: both modes must drive byte-identical output.
    Scan,
}

/// How much verification the driver interleaves with rewriting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CheckLevel {
    /// No verification: the fastest mode, for trusted patterns.
    #[default]
    Off,
    /// Journal-driven incremental verification after every application:
    /// the container is verified once up front, then each rewrite
    /// re-checks only what it touched — O(touched) per rewrite instead of
    /// O(module). The up-front check is free when a hooked
    /// [`ModuleVerifier::verify`] accepted the same container and nothing
    /// has changed since (the context's verified stamp,
    /// [`Context::is_verified`]); otherwise it walks the container.
    Incremental,
    /// Full re-verification of the whole container after every
    /// application (and once up front). The conservative oracle —
    /// `Incremental` is required to produce the same verdicts.
    Full,
}

/// Statistics from one greedy rewriting run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Number of successful pattern applications.
    pub rewrites: usize,
    /// Number of operations visited (including revisits).
    pub visited: usize,
}

/// Failure of a checked [`rewrite_greedily_with`] drive: a pattern
/// application left the IR invalid.
#[derive(Debug)]
pub struct RewriteVerifyError {
    /// Name of the pattern whose application produced the invalid IR.
    pub pattern: String,
    /// Statistics up to (and including) the offending application.
    pub stats: RewriteStats,
    /// The verifier diagnostics.
    pub diagnostics: Vec<Diagnostic>,
}

impl std::fmt::Display for RewriteVerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pattern `{}` left the IR invalid after {} rewrite(s)",
            self.pattern, self.stats.rewrites
        )
    }
}

impl std::error::Error for RewriteVerifyError {}

/// Applies `patterns` to every operation nested under `container` until a
/// fixpoint is reached, in the style of MLIR's greedy pattern driver.
///
/// After each successful application, the operations created by the
/// rewrite and the users of any changed values are re-enqueued, so
/// cascading rewrites (like `conorm`: first fuse the multiplication, then
/// anything enabled by it) converge in one call.
pub fn rewrite_greedily(
    ctx: &mut Context,
    container: OpRef,
    patterns: &PatternSet,
) -> RewriteStats {
    rewrite_greedily_with(ctx, container, patterns, CheckLevel::Off)
        .expect("unchecked drive cannot fail")
}

/// The checker state for one drive, chosen by [`CheckLevel`]. The
/// incremental verifier lives in the drive's [`DriveScratch`].
enum Checker {
    Off,
    Incremental,
    Full(ModuleVerifier),
}

/// Greedy rewriting with a configurable verification level.
///
/// Both checked levels verify `container` before the first rewrite:
/// [`CheckLevel::Incremental`] needs a valid starting point for its
/// valid-before ⇒ valid-after argument, and sharing the behaviour keeps
/// the two levels verdict-equivalent. At `Incremental` a fresh verified
/// stamp on `container` stands in for that walk.
///
/// # Errors
///
/// Returns the offending pattern and diagnostics on the first invalid
/// intermediate state (pattern `<input>` if the IR was invalid on entry).
/// Never fails at [`CheckLevel::Off`].
pub fn rewrite_greedily_with(
    ctx: &mut Context,
    container: OpRef,
    patterns: &PatternSet,
    check: CheckLevel,
) -> Result<RewriteStats, RewriteVerifyError> {
    rewrite_greedily_matched(ctx, container, patterns, check, MatcherMode::default())
}

/// [`rewrite_greedily_with`] with an explicit [`MatcherMode`]. The two
/// modes are semantically interchangeable — same rewrites, same order,
/// same output — differing only in how candidates are found; `Scan`
/// exists as the differential oracle and escape hatch.
///
/// # Errors
///
/// Returns the offending pattern and diagnostics on the first invalid
/// intermediate state (pattern `<input>` if the IR was invalid on entry).
/// Never fails at [`CheckLevel::Off`].
pub fn rewrite_greedily_matched(
    ctx: &mut Context,
    container: OpRef,
    patterns: &PatternSet,
    check: CheckLevel,
    mode: MatcherMode,
) -> Result<RewriteStats, RewriteVerifyError> {
    let mut scratch = ctx.take_drive_scratch();
    let result = drive(ctx, container, patterns, check, mode, &mut scratch);
    scratch.worklist.clear();
    ctx.put_drive_scratch(scratch);
    result
}

fn drive(
    ctx: &mut Context,
    container: OpRef,
    patterns: &PatternSet,
    check: CheckLevel,
    mode: MatcherMode,
    scratch: &mut DriveScratch,
) -> Result<RewriteStats, RewriteVerifyError> {
    let mut checker = match check {
        CheckLevel::Off => Checker::Off,
        CheckLevel::Incremental => Checker::Incremental,
        CheckLevel::Full => Checker::Full(ModuleVerifier::new()),
    };
    let mut stats = RewriteStats::default();
    let upfront = match &mut checker {
        Checker::Off => Ok(()),
        Checker::Incremental => scratch.verifier.verify_full(ctx, container),
        Checker::Full(v) => v.verify(ctx, container),
    };
    if let Err(diagnostics) = upfront {
        return Err(RewriteVerifyError { pattern: "<input>".to_string(), stats, diagnostics });
    }
    // Fast path (after the upfront check, which callers rely on even for
    // empty sets): with nothing to apply, skip the worklist, journal, and
    // matcher entirely.
    if patterns.is_empty() {
        return Ok(stats);
    }

    // One journal, recycled across applications: the driver's requeue list
    // and the incremental verifier's dirty set are the same record, so the
    // hot loop allocates nothing per rewrite. `matched` holds the candidate
    // positions for the op in hand, ascending — which is
    // benefit-desc/registration priority order.
    let DriveScratch { worklist, enqueued, matched, journal, verifier } = scratch;
    // Every op under the container, pre-order; the container itself is
    // not rewritten.
    enqueued.clear();
    walk_ops(ctx, container, &mut |_, op| {
        if op != container {
            worklist.push(op);
            enqueued.insert(op.index());
        }
        WalkResult::Advance
    });
    let matcher = match mode {
        MatcherMode::Auto => Some(patterns.matcher()),
        MatcherMode::Scan => None,
    };

    while let Some(op) = worklist.pop() {
        enqueued.remove(op.index());
        if !op.is_live(ctx) {
            continue;
        }
        stats.visited += 1;
        // Both modes produce candidates in the same priority order; the
        // automaton merely prunes candidates whose predicate program
        // already rules the op out.
        match &matcher {
            Some(automaton) => automaton.matches_into(ctx, op, matched),
            None => {
                matched.clear();
                let op_name = op.name(ctx);
                matched.extend(patterns.candidate_positions(op_name).map(|i| i as u32));
            }
        }
        for &position in matched.iter() {
            let pattern = &*patterns.patterns()[position as usize];
            journal.clear();
            let mut rewriter = Rewriter::new(ctx, op, journal);
            let changed = pattern.match_and_rewrite(&mut rewriter);
            if changed {
                stats.rewrites += 1;
                let verdict = match &mut checker {
                    Checker::Off => Ok(()),
                    Checker::Incremental => verifier.verify_changes(ctx, journal),
                    Checker::Full(v) => v.verify(ctx, container),
                };
                if let Err(diagnostics) = verdict {
                    return Err(RewriteVerifyError {
                        pattern: pattern.name().to_string(),
                        stats,
                        diagnostics,
                    });
                }
                // Requeue from the journal: new ops, and the ops whose
                // operands were rewired (or that moved) — exactly the set
                // whose match status can have changed. Erased ops were
                // scrubbed out by the journal, so no tombstone checks or
                // use-list copies are needed.
                for &new_op in journal.created() {
                    if enqueued.insert(new_op.index()) {
                        worklist.push(new_op);
                    }
                }
                for &changed_op in journal.modified() {
                    if changed_op.is_live(ctx) && enqueued.insert(changed_op.index()) {
                        worklist.push(changed_op);
                    }
                }
                break; // The root may be gone; stop trying patterns on it.
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::RewritePattern;
    use irdl_ir::{OperationState, OpName};
    use std::sync::Arc;

    /// Rewrites `t.add(x, x)` into `t.double(x)`.
    struct AddToDouble {
        add: OpName,
        double: OpName,
    }

    impl RewritePattern for AddToDouble {
        fn root(&self) -> Option<OpName> {
            Some(self.add)
        }
        fn name(&self) -> &str {
            "add-to-double"
        }
        fn match_and_rewrite(&self, rewriter: &mut Rewriter<'_>) -> bool {
            let op = rewriter.root();
            let ctx = rewriter.ctx();
            if op.num_operands(ctx) != 2 || op.operand(ctx, 0) != op.operand(ctx, 1) {
                return false;
            }
            let x = op.operand(ctx, 0);
            let result_ty = op.result_types(ctx)[0];
            let double = rewriter.insert_before_root(
                OperationState::new(self.double)
                    .add_operands([x])
                    .add_result_types([result_ty]),
            );
            let ctx = rewriter.ctx();
            let replacement = double.result(ctx, 0);
            rewriter.replace_root(&[replacement]);
            true
        }
    }

    /// Folds `t.double(t.double(x))` into `t.quad(x)`.
    struct DoubleDoubleToQuad {
        double: OpName,
        quad: OpName,
    }

    impl RewritePattern for DoubleDoubleToQuad {
        fn root(&self) -> Option<OpName> {
            Some(self.double)
        }
        fn name(&self) -> &str {
            "double-double-to-quad"
        }
        fn match_and_rewrite(&self, rewriter: &mut Rewriter<'_>) -> bool {
            let op = rewriter.root();
            let ctx = rewriter.ctx();
            let Some(inner) = op.operand(ctx, 0).defining_op(ctx) else { return false };
            if inner.name(ctx) != self.double {
                return false;
            }
            let x = inner.operand(ctx, 0);
            let result_ty = op.result_types(ctx)[0];
            let quad = rewriter.insert_before_root(
                OperationState::new(self.quad).add_operands([x]).add_result_types([result_ty]),
            );
            let ctx = rewriter.ctx();
            let replacement = quad.result(ctx, 0);
            rewriter.replace_root(&[replacement]);
            rewriter.erase_if_unused(inner);
            true
        }
    }

    #[test]
    fn cascading_rewrites_reach_fixpoint() {
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let i32 = ctx.i32_type();
        let src = ctx.op_name("t", "src");
        let add = ctx.op_name("t", "add");
        let double = ctx.op_name("t", "double");
        let quad = ctx.op_name("t", "quad");

        // x = src(); a = add(x, x); b = add(a, a); sink(b)
        let x = ctx.create_op(OperationState::new(src).add_result_types([i32]));
        ctx.append_op(block, x);
        let vx = x.result(&ctx, 0);
        let a = ctx.create_op(OperationState::new(add).add_operands([vx, vx]).add_result_types([i32]));
        ctx.append_op(block, a);
        let va = a.result(&ctx, 0);
        let b = ctx.create_op(OperationState::new(add).add_operands([va, va]).add_result_types([i32]));
        ctx.append_op(block, b);
        let vb = b.result(&ctx, 0);
        let sink = ctx.op_name("t", "sink");
        let s = ctx.create_op(OperationState::new(sink).add_operands([vb]));
        ctx.append_op(block, s);

        let mut patterns = PatternSet::new();
        patterns.add(Arc::new(AddToDouble { add, double }));
        patterns.add(Arc::new(DoubleDoubleToQuad { double, quad }));
        let stats = rewrite_greedily(&mut ctx, module, &patterns);

        // add(x,x) -> double(x); add(a,a) -> double(a);
        // double(double(x)) -> quad(x). Three rewrites total.
        assert_eq!(stats.rewrites, 3);
        let names: Vec<String> =
            block.ops(&ctx).iter().map(|o| o.name(&ctx).display(&ctx)).collect();
        assert_eq!(names, ["t.src", "t.quad", "t.sink"]);
    }

    /// Replacing a root with a *pre-existing* value must re-enqueue that
    /// value's users so cascading rewrites still reach a fixpoint.
    struct ForwardCopy {
        copy: OpName,
    }

    impl RewritePattern for ForwardCopy {
        fn root(&self) -> Option<OpName> {
            Some(self.copy)
        }
        fn name(&self) -> &str {
            "forward-copy"
        }
        fn match_and_rewrite(&self, rewriter: &mut Rewriter<'_>) -> bool {
            let op = rewriter.root();
            let source = op.operand(rewriter.ctx(), 0);
            rewriter.replace_root(&[source]);
            true
        }
    }

    #[test]
    fn replacement_with_existing_value_requeues_users() {
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let i32 = ctx.i32_type();
        let src = ctx.op_name("t", "src");
        let copy = ctx.op_name("t", "copy");
        let add = ctx.op_name("t", "add");
        let double = ctx.op_name("t", "double");

        // x = src(); c = copy(x); b = add(c, x); sink(b)
        // The copy-forwarding rewrite turns add(c, x) into add(x, x), which
        // only then matches add-to-double. Without touched-value requeueing
        // the add op is never revisited (it was popped before the copy).
        let x = ctx.create_op(OperationState::new(src).add_result_types([i32]));
        ctx.append_op(block, x);
        let vx = x.result(&ctx, 0);
        let c = ctx.create_op(OperationState::new(copy).add_operands([vx]).add_result_types([i32]));
        ctx.append_op(block, c);
        let vc = c.result(&ctx, 0);
        let b = ctx.create_op(OperationState::new(add).add_operands([vc, vx]).add_result_types([i32]));
        ctx.append_op(block, b);
        let vb = b.result(&ctx, 0);
        let sink = ctx.op_name("t", "sink");
        let s = ctx.create_op(OperationState::new(sink).add_operands([vb]));
        ctx.append_op(block, s);

        let mut patterns = PatternSet::new();
        // Benefit ordering + LIFO worklist make the add op pop before the
        // copy op is forwarded.
        patterns.add(Arc::new(AddToDouble { add, double }));
        patterns.add(Arc::new(ForwardCopy { copy }));
        let stats = rewrite_greedily(&mut ctx, module, &patterns);
        assert_eq!(stats.rewrites, 2, "copy forward + add-to-double");
        let names: Vec<String> =
            block.ops(&ctx).iter().map(|o| o.name(&ctx).display(&ctx)).collect();
        assert_eq!(names, ["t.src", "t.double", "t.sink"]);
    }

    /// A deliberately buggy pattern: inserts an op *before* the root that
    /// uses the root's result, creating a use-before-def violation.
    struct BreaksDominance {
        add: OpName,
        bad: OpName,
    }

    impl RewritePattern for BreaksDominance {
        fn root(&self) -> Option<OpName> {
            Some(self.add)
        }
        fn name(&self) -> &str {
            "breaks-dominance"
        }
        fn match_and_rewrite(&self, rewriter: &mut Rewriter<'_>) -> bool {
            let op = rewriter.root();
            let result = op.result(rewriter.ctx(), 0);
            rewriter.insert_before_root(OperationState::new(self.bad).add_operands([result]));
            true
        }
    }

    #[test]
    fn checked_driver_catches_invalid_intermediate_ir() {
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let i32 = ctx.i32_type();
        let src = ctx.op_name("t", "src");
        let add = ctx.op_name("t", "add");
        let double = ctx.op_name("t", "double");
        let bad = ctx.op_name("t", "bad");

        let x = ctx.create_op(OperationState::new(src).add_result_types([i32]));
        ctx.append_op(block, x);
        let vx = x.result(&ctx, 0);
        let a = ctx.create_op(OperationState::new(add).add_operands([vx, vx]).add_result_types([i32]));
        ctx.append_op(block, a);

        // A correct pattern set passes the checked driver...
        let mut good = PatternSet::new();
        good.add(Arc::new(AddToDouble { add, double }));
        let stats = rewrite_greedily_with(&mut ctx, module, &good, CheckLevel::Incremental).unwrap();
        assert_eq!(stats.rewrites, 1);

        // ...and a buggy one is caught at the first invalid state.
        let y = ctx.create_op(OperationState::new(add).add_operands([vx, vx]).add_result_types([i32]));
        ctx.append_op(block, y);
        let mut buggy = PatternSet::new();
        buggy.add(Arc::new(BreaksDominance { add, bad }));
        let err = rewrite_greedily_with(&mut ctx, module, &buggy, CheckLevel::Incremental).unwrap_err();
        assert_eq!(err.pattern, "breaks-dominance");
        assert!(
            err.diagnostics.iter().any(|d| d.message().contains("dominates")),
            "{:?}",
            err.diagnostics
        );
    }

    /// The incremental and full check levels must agree — on success and
    /// on the exact failing pattern.
    #[test]
    fn incremental_and_full_check_levels_agree() {
        for check in [CheckLevel::Full, CheckLevel::Incremental] {
            let mut ctx = Context::new();
            let module = ctx.create_module();
            let block = ctx.module_block(module);
            let i32 = ctx.i32_type();
            let src = ctx.op_name("t", "src");
            let add = ctx.op_name("t", "add");
            let double = ctx.op_name("t", "double");
            let bad = ctx.op_name("t", "bad");

            let x = ctx.create_op(OperationState::new(src).add_result_types([i32]));
            ctx.append_op(block, x);
            let vx = x.result(&ctx, 0);
            let a = ctx
                .create_op(OperationState::new(add).add_operands([vx, vx]).add_result_types([i32]));
            ctx.append_op(block, a);

            let mut good = PatternSet::new();
            good.add(Arc::new(AddToDouble { add, double }));
            let stats = rewrite_greedily_with(&mut ctx, module, &good, check).unwrap();
            assert_eq!(stats.rewrites, 1, "{check:?}");

            let y = ctx
                .create_op(OperationState::new(add).add_operands([vx, vx]).add_result_types([i32]));
            ctx.append_op(block, y);
            let mut buggy = PatternSet::new();
            buggy.add(Arc::new(BreaksDominance { add, bad }));
            let err = rewrite_greedily_with(&mut ctx, module, &buggy, check).unwrap_err();
            assert_eq!(err.pattern, "breaks-dominance", "{check:?}");
            assert!(
                err.diagnostics.iter().any(|d| d.message().contains("dominates")),
                "{check:?}: {:?}",
                err.diagnostics
            );
        }
    }

    /// Checked levels validate the input IR before the first rewrite.
    #[test]
    fn checked_levels_reject_invalid_input() {
        for check in [CheckLevel::Full, CheckLevel::Incremental] {
            let mut ctx = Context::new();
            let module = ctx.create_module();
            let block = ctx.module_block(module);
            let i32 = ctx.i32_type();
            let src = ctx.op_name("t", "src");
            let use_name = ctx.op_name("t", "use");
            let def = ctx.create_op(OperationState::new(src).add_result_types([i32]));
            let v = def.result(&ctx, 0);
            let user = ctx.create_op(OperationState::new(use_name).add_operands([v]));
            // Use before def: invalid from the start.
            ctx.append_op(block, user);
            ctx.append_op(block, def);
            let err =
                rewrite_greedily_with(&mut ctx, module, &PatternSet::new(), check).unwrap_err();
            assert_eq!(err.pattern, "<input>", "{check:?}");
            assert_eq!(err.stats.rewrites, 0);
        }
    }

    /// A pattern that never fires but records that (and when) it was
    /// tried, for observing dispatch order.
    struct Probe {
        name: &'static str,
        benefit: usize,
        root: Option<OpName>,
        log: Arc<std::sync::Mutex<Vec<&'static str>>>,
    }

    impl RewritePattern for Probe {
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
            self.log.lock().unwrap().push(self.name);
            false
        }
    }

    /// Candidate order — benefit desc, registration-order ties, anchored
    /// and anchorless interleaved — must be identical under automaton and
    /// scan dispatch (the ordering semantics `PatternSet` pins, observed
    /// through the driver).
    #[test]
    fn matcher_modes_preserve_ordering_semantics() {
        for mode in [MatcherMode::Auto, MatcherMode::Scan] {
            let mut ctx = Context::new();
            let module = ctx.create_module();
            let block = ctx.module_block(module);
            let i32 = ctx.i32_type();
            let src = ctx.op_name("t", "src");
            let add = ctx.op_name("t", "add");
            let mul = ctx.op_name("t", "mul");
            let x = ctx.create_op(OperationState::new(src).add_result_types([i32]));
            ctx.append_op(block, x);
            let vx = x.result(&ctx, 0);
            let a = ctx
                .create_op(OperationState::new(add).add_operands([vx, vx]).add_result_types([i32]));
            ctx.append_op(block, a);

            let log = Arc::new(std::sync::Mutex::new(Vec::new()));
            let mut patterns = PatternSet::new();
            for (name, benefit, root) in [
                ("add-low-a", 1, Some(add)),
                ("any-high", 9, None),
                ("add-low-b", 1, Some(add)),
                ("add-high", 9, Some(add)),
                ("mul-mid", 5, Some(mul)),
            ] {
                patterns.add(Arc::new(Probe { name, benefit, root, log: log.clone() }));
            }
            rewrite_greedily_matched(&mut ctx, module, &patterns, CheckLevel::Off, mode)
                .unwrap();
            let order: Vec<&str> = log.lock().unwrap().clone();
            // Per op the probes fire in priority order; the mul-anchored
            // pattern never fires (no mul op). The src op sees only the
            // anchorless probe.
            let add_order: Vec<&str> =
                order.iter().copied().filter(|n| n.starts_with("add") || *n == "any-high").collect();
            assert!(!order.contains(&"mul-mid"), "{mode:?}: {order:?}");
            // The add op is visited once; its candidate sequence appears
            // contiguously (the src op contributes a lone any-high).
            let window: Vec<&str> = add_order
                .windows(4)
                .find(|w| w[0] == "any-high" && w[1] == "add-high")
                .map(|w| w.to_vec())
                .unwrap_or_default();
            assert_eq!(
                window,
                ["any-high", "add-high", "add-low-a", "add-low-b"],
                "{mode:?}: {order:?}"
            );
        }
    }

    /// Both matcher modes must drive byte-identical results through a
    /// cascading rewrite sequence.
    #[test]
    fn matcher_modes_drive_identically() {
        let mut outcomes = Vec::new();
        for mode in [MatcherMode::Auto, MatcherMode::Scan] {
            let mut ctx = Context::new();
            let module = ctx.create_module();
            let block = ctx.module_block(module);
            let i32 = ctx.i32_type();
            let src = ctx.op_name("t", "src");
            let add = ctx.op_name("t", "add");
            let double = ctx.op_name("t", "double");
            let quad = ctx.op_name("t", "quad");
            let x = ctx.create_op(OperationState::new(src).add_result_types([i32]));
            ctx.append_op(block, x);
            let vx = x.result(&ctx, 0);
            let a = ctx
                .create_op(OperationState::new(add).add_operands([vx, vx]).add_result_types([i32]));
            ctx.append_op(block, a);
            let va = a.result(&ctx, 0);
            let b = ctx
                .create_op(OperationState::new(add).add_operands([va, va]).add_result_types([i32]));
            ctx.append_op(block, b);
            let vb = b.result(&ctx, 0);
            let sink = ctx.op_name("t", "sink");
            let s = ctx.create_op(OperationState::new(sink).add_operands([vb]));
            ctx.append_op(block, s);

            let mut patterns = PatternSet::new();
            patterns.add(Arc::new(AddToDouble { add, double }));
            patterns.add(Arc::new(DoubleDoubleToQuad { double, quad }));
            let stats =
                rewrite_greedily_matched(&mut ctx, module, &patterns, CheckLevel::Off, mode)
                    .unwrap();
            let names: Vec<String> =
                block.ops(&ctx).iter().map(|o| o.name(&ctx).display(&ctx)).collect();
            outcomes.push((stats.rewrites, names));
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0].0, 3);
    }

    #[test]
    fn no_patterns_is_a_noop() {
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let src = ctx.op_name("t", "src");
        let op = ctx.create_op(OperationState::new(src));
        ctx.append_op(block, op);
        let stats = rewrite_greedily(&mut ctx, module, &PatternSet::new());
        assert_eq!(stats.rewrites, 0);
        assert!(op.is_live(&ctx));
    }
}
