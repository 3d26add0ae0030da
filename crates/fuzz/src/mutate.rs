//! Mutation engines: byte-level splices over module text and journaled
//! structured mutations over live IR.
//!
//! Text mutations stress the lexer/parser on near-miss inputs (the parser
//! must reject gracefully, never panic, and accepted mutants must still
//! satisfy the print fixpoint). Structured mutations go through the
//! [`Rewriter`] so every change is journaled — that makes each mutation a
//! differential test of the incremental verifier against the full walk,
//! on *both* verdict polarities: half of the mutation menu preserves
//! validity, the other half deliberately breaks dominance, typing, or
//! required attributes to cover the rejection paths.

use irdl_ir::{ChangeJournal, Context, OperationState, OpRef, Value};
use irdl_rewrite::Rewriter;

use crate::rng::SplitMix64;

// ---------------------------------------------------------------------------
// Text mutation
// ---------------------------------------------------------------------------

/// Tokens spliced into text mutants: structure-bearing characters the
/// grammar cares about.
const SPLICE_TOKENS: [&str; 10] = ["\"", "%", "(", ")", ":", "->", "}", "{", ",", "^"];

/// Applies 1–3 random byte-level edits to `text`.
pub fn mutate_text(text: &str, rng: &mut SplitMix64) -> String {
    let mut out = text.as_bytes().to_vec();
    let edits = rng.range(1, 4);
    for _ in 0..edits {
        if out.is_empty() {
            break;
        }
        match rng.below(5) {
            // Delete a short span.
            0 => {
                let start = rng.below(out.len());
                let len = rng.range(1, 9).min(out.len() - start);
                out.drain(start..start + len);
            }
            // Duplicate a short span in place.
            1 => {
                let start = rng.below(out.len());
                let len = rng.range(1, 9).min(out.len() - start);
                let span: Vec<u8> = out[start..start + len].to_vec();
                out.splice(start..start, span);
            }
            // Overwrite one byte with a random printable character.
            2 => {
                let at = rng.below(out.len());
                out[at] = b' ' + (rng.below(95) as u8);
            }
            // Insert a grammar token.
            3 => {
                let at = rng.below(out.len() + 1);
                let token = SPLICE_TOKENS[rng.below(SPLICE_TOKENS.len())];
                out.splice(at..at, token.bytes());
            }
            // Truncate the tail.
            _ => {
                let keep = rng.below(out.len());
                out.truncate(keep);
            }
        }
    }
    // Mutations operate on bytes; the source is ASCII so this is
    // effectively infallible, but stay defensive.
    String::from_utf8_lossy(&out).into_owned()
}

// ---------------------------------------------------------------------------
// Structured mutation
// ---------------------------------------------------------------------------

/// Whether a structured mutation is allowed to invalidate the module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationPolicy {
    /// Only validity-preserving mutations.
    ValidOnly,
    /// Validity-preserving and deliberately-invalid mutations mixed.
    AllowInvalid,
}

/// All ops in the module in deterministic pre-order, excluding the module
/// op itself.
fn all_ops(ctx: &Context, module: OpRef) -> Vec<OpRef> {
    irdl_ir::walk::collect_ops(ctx, module).into_iter().filter(|&op| op != module).collect()
}

/// Results defined by ops *before* `anchor` in the same block, i.e.
/// values that dominate `anchor`.
fn earlier_values(ctx: &Context, anchor: OpRef) -> Vec<Value> {
    let Some(block) = anchor.parent_block(ctx) else { return Vec::new() };
    let mut values: Vec<Value> = block.args(ctx);
    for &op in block.ops(ctx) {
        if op == anchor {
            break;
        }
        values.extend(op.results(ctx));
    }
    values
}

/// Results defined by ops *after* `anchor` in the same block (uses of
/// these from `anchor` break dominance).
fn later_values(ctx: &Context, anchor: OpRef) -> Vec<Value> {
    let Some(block) = anchor.parent_block(ctx) else { return Vec::new() };
    let mut values = Vec::new();
    let mut seen_anchor = false;
    for &op in block.ops(ctx) {
        if op == anchor {
            seen_anchor = true;
            continue;
        }
        if seen_anchor {
            values.extend(op.results(ctx));
        }
    }
    values
}

/// Applies one random journaled mutation somewhere in `module`. Returns
/// the name of the mutation applied, or `None` if the drawn variant was
/// inapplicable at the drawn anchor or would leave the IR as it was (the
/// journal is untouched then).
pub fn mutate_structured(
    ctx: &mut Context,
    module: OpRef,
    journal: &mut ChangeJournal,
    policy: MutationPolicy,
    rng: &mut SplitMix64,
) -> Option<&'static str> {
    let ops = all_ops(ctx, module);
    if ops.is_empty() {
        return None;
    }
    let anchor = ops[rng.below(ops.len())];
    if !anchor.is_live(ctx) {
        return None;
    }
    let variants = match policy {
        MutationPolicy::ValidOnly => 5,
        MutationPolicy::AllowInvalid => 9,
    };
    let src = ctx.op_name("fuzz", "src");
    match rng.below(variants) {
        // --- validity-preserving -----------------------------------------
        // Insert a fresh source op before the anchor.
        0 => {
            let ty = ctx.i32_type();
            let mut rewriter = Rewriter::new(ctx, anchor, journal);
            rewriter.insert_before(anchor, OperationState::new(src).add_result_types([ty]));
            Some("insert-source")
        }
        // Erase an unused source op.
        1 => {
            if anchor.name(ctx) != src || !anchor.regions(ctx).is_empty() {
                return None;
            }
            let mut rewriter = Rewriter::new(ctx, anchor, journal);
            rewriter.erase_if_unused(anchor).then_some("erase-unused")
        }
        // Append a fresh source op, then move it before the anchor
        // (exercises order-key refresh and displaced-neighbour journaling).
        2 => {
            let block = anchor.parent_block(ctx)?;
            let ty = ctx.f32_type();
            let mut rewriter = Rewriter::new(ctx, anchor, journal);
            let fresh = rewriter.append(block, OperationState::new(src).add_result_types([ty]));
            rewriter.move_before(fresh, anchor);
            Some("append-move")
        }
        // Retarget one operand to an earlier-defined value of the same
        // type: dominance and typing both preserved.
        3 => {
            if anchor.num_operands(ctx) == 0 {
                return None;
            }
            let slot = rng.below(anchor.num_operands(ctx));
            let current_ty = anchor.operand(ctx, slot).ty(ctx);
            let candidates: Vec<Value> = earlier_values(ctx, anchor)
                .into_iter()
                .filter(|v| v.ty(ctx) == current_ty)
                .collect();
            if candidates.is_empty() {
                return None;
            }
            let value = *rng.choose(&candidates);
            if value == anchor.operand(ctx, slot) {
                return None;
            }
            let mut rewriter = Rewriter::new(ctx, anchor, journal);
            rewriter.set_operand(anchor, slot, value);
            Some("retarget-earlier")
        }
        // Forward all uses of a result to an equal-typed earlier value
        // (every use of the result sits after the anchor, hence after the
        // earlier definition too).
        4 => {
            if anchor.num_results(ctx) == 0 {
                return None;
            }
            let result = anchor.result(ctx, rng.below(anchor.num_results(ctx)));
            let ty = result.ty(ctx);
            let candidates: Vec<Value> = earlier_values(ctx, anchor)
                .into_iter()
                .filter(|v| v.ty(ctx) == ty)
                .collect();
            if candidates.is_empty() {
                return None;
            }
            let replacement = *rng.choose(&candidates);
            if result.is_unused(ctx) {
                return None;
            }
            let mut rewriter = Rewriter::new(ctx, anchor, journal);
            rewriter.replace_all_uses(result, replacement);
            Some("forward-uses")
        }
        // --- deliberately invalid ----------------------------------------
        // Insert a use of the anchor's own result before the anchor:
        // textbook dominance break.
        5 => {
            if anchor.num_results(ctx) == 0 {
                return None;
            }
            let bad = anchor.result(ctx, 0);
            let user = ctx.op_name("fuzz", "use");
            let mut rewriter = Rewriter::new(ctx, anchor, journal);
            rewriter.insert_before(anchor, OperationState::new(user).add_operands([bad]));
            Some("use-before-def")
        }
        // Retarget an operand to a later-defined value: dominance break
        // through set_operand.
        6 => {
            if anchor.num_operands(ctx) == 0 {
                return None;
            }
            let slot = rng.below(anchor.num_operands(ctx));
            let candidates = later_values(ctx, anchor);
            if candidates.is_empty() {
                return None;
            }
            let value = *rng.choose(&candidates);
            let mut rewriter = Rewriter::new(ctx, anchor, journal);
            rewriter.set_operand(anchor, slot, value);
            Some("retarget-later")
        }
        // Drop an attribute from a registered op with required attributes:
        // the synthesized verifier must reject the instance.
        7 => {
            let attrs = anchor.attributes(ctx);
            if attrs.is_empty() || ctx.op_info(anchor).is_none() {
                return None;
            }
            let key = attrs[rng.below(attrs.len())].0;
            ctx.remove_attr(anchor, key);
            journal.note_modified(anchor);
            Some("drop-attr")
        }
        // Overwrite an attribute of a registered op with a unit attr (a
        // type confusion the constraint checker must catch — unless the
        // constraint genuinely admits unit).
        _ => {
            let attrs = anchor.attributes(ctx);
            if attrs.is_empty() || ctx.op_info(anchor).is_none() {
                return None;
            }
            let key = attrs[rng.below(attrs.len())].0;
            let unit = ctx.unit_attr();
            ctx.set_attr(anchor, key, unit);
            journal.note_modified(anchor);
            Some("poison-attr")
        }
    }
}

#[cfg(test)]
mod tests {
    use irdl_ir::print::op_to_string;

    use super::*;
    use crate::genmod::{generate_module, GenConfig};
    use crate::harness::FuzzTarget;

    /// A reported mutation always changes the module; an unreported one
    /// journals nothing. Variants 3 and 4 draw no-ops often on generated
    /// modules (an operand's own value, a result nobody uses).
    #[test]
    fn every_reported_mutation_changes_the_module() {
        let target = FuzzTarget::corpus().expect("corpus compiles");
        let mut rng = SplitMix64::new(0x5eed_0029);
        let (mut reported, mut declined) = (0, 0);
        for _ in 0..24 {
            let mut ctx = target.bundle.instantiate();
            let module = generate_module(&mut ctx, &target.catalog, &GenConfig::default(), &mut rng);
            let mut journal = ChangeJournal::new();
            for _ in 0..32 {
                journal.clear();
                let before = op_to_string(&ctx, module);
                let mutation = mutate_structured(
                    &mut ctx,
                    module,
                    &mut journal,
                    MutationPolicy::ValidOnly,
                    &mut rng,
                );
                match mutation {
                    Some(name) => {
                        reported += 1;
                        assert_ne!(op_to_string(&ctx, module), before, "{name} changed nothing");
                    }
                    None => {
                        declined += 1;
                        assert!(journal.is_empty(), "a declined mutation journaled a change");
                    }
                }
            }
        }
        assert!(reported > 100 && declined > 0, "{reported} reported, {declined} declined");
    }
}
