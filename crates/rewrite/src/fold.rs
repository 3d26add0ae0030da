//! Constant folding built on the interpreter's registered semantics.
//!
//! [`FoldConstants`] is an anchorless [`RewritePattern`] that replaces an
//! operation whose operands are all compile-time constants (per the
//! [`EvalRegistry`]'s constant model) with materialized constant ops
//! carrying its evaluated results — MLIR's `fold` hook, driven by the
//! same evaluator the execution machine uses, so "fold then interpret"
//! and "interpret" are bit-identical by construction.
//!
//! The pattern is deliberately conservative; it folds only when
//!
//! - the op has results and at least one of them is used (folding a sink
//!   would erase an execution observable),
//! - it has no regions or successors and is not itself a constant,
//! - every operand is a result of a constant-model op,
//! - evaluation completes without trapping (a folded `div-by-zero` would
//!   erase the runtime trap) and without consulting the seed-dependent
//!   uninterpreted model, and
//! - every result value has a registered materializer.
//!
//! Each successful fold strictly decreases the number of non-constant ops
//! with used results, so greedy application terminates.
//!
//! The pattern runs on every op, so a declined attempt must be cheap: the
//! evaluator lookup, the "is itself a constant" check and the operand
//! reads all happen before anything is allocated, and the operand,
//! result-type and replacement lists live inline. Evaluation uses a
//! [`Machine`] whose register file holds a few operands without a heap
//! table, and the materialized constants wait in the journal's staging
//! list ([`Rewriter::insert_all_before_root`]), so a warmed fold — applied
//! or declined — allocates nothing.

use std::sync::Arc;

use irdl_interp::{EvalOptions, EvalRegistry, EvalValues, Machine};
use irdl_ir::{Context, InlineVec, OpRef, Type, Value};

use crate::pattern::{PatternSet, RewritePattern, Rewriter};

/// The constant-folding pattern. One instance serves every op name: it is
/// anchorless, and the registry decides per op whether semantics exist.
pub struct FoldConstants {
    semantics: Arc<EvalRegistry>,
}

impl FoldConstants {
    /// A folder over `semantics`.
    pub fn new(semantics: Arc<EvalRegistry>) -> FoldConstants {
        FoldConstants { semantics }
    }

    /// The constant operand values of `op`, if every operand is a result
    /// of a constant-model op.
    fn constant_operands(&self, ctx: &Context, op: OpRef) -> Option<EvalValues> {
        op.operands(ctx)
            .iter()
            .map(|&operand| {
                let Value::OpResult { op: def, index } = operand else { return None };
                self.semantics.constant_values(ctx, def)?.get(index as usize).copied()
            })
            .collect()
    }
}

impl RewritePattern for FoldConstants {
    fn name(&self) -> &str {
        "fold-constants"
    }

    /// Folds run before same-benefit cleanup patterns (e.g. source DCE),
    /// so a fold's newly orphaned constants are swept in the same drive.
    fn benefit(&self) -> usize {
        2
    }

    fn match_and_rewrite(&self, rewriter: &mut Rewriter<'_>) -> bool {
        let op = rewriter.root();
        let ctx = rewriter.ctx();
        let num_results = op.num_results(ctx);
        if num_results == 0
            || !op.regions(ctx).is_empty()
            || !op.successors(ctx).is_empty()
            || (0..num_results).all(|i| op.result(ctx, i).is_unused(ctx))
        {
            return false;
        }
        let Some(evaluator) = self.semantics.evaluator_for(ctx, op) else { return false };
        if evaluator.constant(ctx, op).is_some() {
            return false;
        }
        let Some(operand_values) = self.constant_operands(ctx, op) else { return false };

        // Evaluate with just the operand registers set. A trap (the fold
        // would erase a runtime trap) or any visit to the uninterpreted
        // model (the result would depend on the input seed) vetoes the
        // fold.
        let mut machine = Machine::new(ctx, &self.semantics, EvalOptions::default());
        for (&operand, &value) in op.operands(ctx).iter().zip(&operand_values) {
            machine.set(operand, value);
        }
        let values = match evaluator.eval(&mut machine, op) {
            Ok(values) if machine.uninterpreted_hits() == 0 => values,
            _ => return false,
        };
        if values.len() != num_results {
            return false;
        }

        // Materialize every result before touching the IR: all-or-nothing.
        let result_types: InlineVec<Type, 4> = op.result_types(ctx).iter().copied().collect();
        let semantics = &self.semantics;
        let Some(constants) = rewriter.insert_all_before_root(num_results, |ctx, i| {
            semantics.materialize(ctx, &values[i], result_types[i])
        }) else {
            return false;
        };
        let replacements: InlineVec<Value, 4> =
            constants.iter().map(|constant| constant.result(rewriter.ctx(), 0)).collect();
        rewriter.replace_root(&replacements);
        true
    }
}

/// A pattern set holding just the constant folder over `semantics`.
pub fn fold_patterns(semantics: Arc<EvalRegistry>) -> PatternSet {
    let mut set = PatternSet::new();
    set.add(Arc::new(FoldConstants::new(semantics)));
    set
}
