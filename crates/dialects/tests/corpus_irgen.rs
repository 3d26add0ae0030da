//! Corpus-wide generation stress test: instantiate every operation of the
//! 28-dialect corpus from its compiled constraints and check that the
//! synthesized verifier accepts every generated instance.
//!
//! This drives the constraint *evaluator* across all 942 operation
//! definitions — every constraint the corpus uses is exercised both as a
//! generator (sampling a witness) and as a checker (verifying the witness).

use irdl::genir::{instantiate_op, Instantiation};
use irdl::DialectBundle;
use irdl_ir::verify::verify_op_structural;

#[test]
fn every_corpus_op_instantiates_and_verifies() {
    let bundle =
        DialectBundle::compile(&irdl_dialects::corpus_sources(), &irdl_dialects::corpus_natives())
            .unwrap();
    let mut ctx = bundle.instantiate();
    let mut built = 0usize;
    let mut skipped = Vec::new();
    let total = bundle.ops().len();
    // Secondary context for textual round-trips: a second instance of the
    // same bundle.
    let mut ctx2 = bundle.instantiate();

    for op in bundle.ops() {
        let dialect_name = ctx.symbol_str(op.op_name().dialect).to_string();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        match instantiate_op(&mut ctx, op, block) {
            Instantiation::Built(built_op) => {
                built += 1;
                // The generated instance must satisfy the verifier
                // synthesized from the same definition.
                let info = ctx.op_info(built_op).unwrap_or_else(|| {
                    panic!(
                        "{dialect_name}: {} not registered",
                        built_op.name(&ctx).display(&ctx)
                    )
                });
                let verifier = info.verifier.clone().expect("compiled verifier");
                verifier.verify(&ctx, built_op).unwrap_or_else(|e| {
                    panic!(
                        "{dialect_name}: generated {} does not verify: {e}\n{}",
                        built_op.name(&ctx).display(&ctx),
                        irdl_ir::print::op_to_string_generic(&ctx, built_op),
                    )
                });
                // Structural verification of the containing module
                // (dominance, terminator placement) must succeed; hooks are
                // skipped because region terminators are created bare,
                // without their own sampled operands.
                verify_op_structural(&ctx, module).unwrap_or_else(|errs| {
                    panic!(
                        "{dialect_name}: module around {} is invalid: {}",
                        built_op.name(&ctx).display(&ctx),
                        errs[0]
                    )
                });
                // Every generated module must round-trip through the
                // textual format.
                let text = irdl_ir::print::op_to_string(&ctx, module);
                let module2 = irdl_ir::parse::parse_module(&mut ctx2, &text)
                    .unwrap_or_else(|e| panic!("{dialect_name}: reparse failed:\n{text}\n{e}"));
                assert_eq!(
                    irdl_ir::print::op_to_string(&ctx2, module2),
                    text,
                    "{dialect_name}: print is not a fixpoint"
                );
            }
            Instantiation::Skipped(reason) => {
                skipped.push(format!("{dialect_name}: {reason}"));
            }
        }
        ctx.erase_op(module);
    }

    assert_eq!(total, 942, "the corpus defines 942 operations");
    // Terminators with successors are legitimately skipped (they need CFG
    // context); everything else must instantiate.
    let expected_skips: usize =
        irdl_dialects::dialects().iter().map(|d| d.successor_ops).sum();
    assert_eq!(
        built + skipped.len(),
        total,
        "every op is either built or skipped"
    );
    assert!(
        skipped.len() <= expected_skips,
        "unexpected skips beyond CFG terminators:\n{}",
        skipped.join("\n")
    );
    assert!(
        built >= total - expected_skips,
        "built {built} of {total} (allowed skips: {expected_skips})"
    );
}
