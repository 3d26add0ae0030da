//! Corpus-wide bytecode round-trip: for every instantiable operation of
//! the 28-dialect corpus (plus the combined big module), encoding the
//! generated module and decoding the bytes into a second corpus-registered
//! context must reproduce the exact printed text — both pretty and generic
//! forms — that the original module prints.
//!
//! This is the acceptance property behind fuzz oracle 7: text and bytecode
//! are two surfaces of one module, so `print ∘ decode ∘ encode` must equal
//! `print`, byte for byte.

use irdl_repro::ir::bytecode::{decode_module, encode_module, is_module_bytecode};
use irdl_repro::ir::print::{op_to_string, op_to_string_generic};
use irdl_repro::ir::Context;
use irdl_repro::irdl::genir::{instantiate_op, Instantiation};
use irdl_repro::irdl::DialectBundle;

#[test]
fn every_corpus_module_round_trips_through_bytecode() {
    let bundle = DialectBundle::compile(
        &irdl_repro::dialects::corpus_sources(),
        &irdl_repro::dialects::corpus_natives(),
    )
    .unwrap();
    let mut ctx = bundle.instantiate();
    // Decoding context: a second instance of the same bundle, as a reader
    // that received the bytes would have it.
    let mut ctx2 = bundle.instantiate();

    let big_module = ctx.create_module();
    let big_block = ctx.module_block(big_module);

    let mut checked = 0usize;
    let mut text_total = 0usize;
    let mut bytecode_total = 0usize;
    let mut check = |ctx: &Context, ctx2: &mut Context, module| {
        let text = op_to_string(ctx, module);
        let generic = op_to_string_generic(ctx, module);
        let bytes = encode_module(ctx, module).unwrap_or_else(|e| {
            panic!("module does not encode: {e}\n{text}");
        });
        assert!(is_module_bytecode(&bytes));
        let decoded = decode_module(ctx2, &bytes).unwrap_or_else(|e| {
            panic!("module does not decode: {e}\n{text}");
        });
        assert_eq!(op_to_string(ctx2, decoded), text, "pretty print diverged");
        assert_eq!(op_to_string_generic(ctx2, decoded), generic, "generic print diverged");
        ctx2.erase_op(decoded);
        checked += 1;
        text_total += text.len();
        bytecode_total += bytes.len();
    };

    for op in bundle.ops() {
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        match instantiate_op(&mut ctx, op, block) {
            Instantiation::Built(_) => {
                check(&ctx, &mut ctx2, module);
                ctx.erase_op(module);
                let again = instantiate_op(&mut ctx, op, big_block);
                assert!(matches!(again, Instantiation::Built(_)));
            }
            // CFG terminators need successor context, as in the corpus
            // generation test.
            Instantiation::Skipped(_) => ctx.erase_op(module),
        }
    }
    check(&ctx, &mut ctx2, big_module);

    assert!(checked > 900, "corpus shrank unexpectedly: {checked} modules");
    // The whole point of the binary format: the corpus encodes smaller
    // than it prints.
    assert!(
        bytecode_total < text_total,
        "bytecode ({bytecode_total} B) is not smaller than text ({text_total} B)"
    );
}
