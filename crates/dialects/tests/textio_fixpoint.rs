//! Corpus-wide parse→print→parse fixpoint test for the zero-copy text
//! pipeline.
//!
//! For every dialect of the 28-dialect corpus this builds one module
//! containing an instance of each instantiable operation (via `genir`),
//! prints it, parses the text back, and checks:
//!
//! - printing the reparsed module reproduces the text byte-for-byte (the
//!   printer is a fixpoint of parse∘print);
//! - parsing that text again yields a structurally identical module: same
//!   op count and identical generic form (names, operands, attributes,
//!   regions all agree).
//!
//! `corpus_irgen.rs` round-trips each generated instance in isolation;
//! this test exercises whole-module parsing — shared value scopes, block
//! labels, many ops per region — which is what the span-based lexer and
//! interning parser actually optimize.

use irdl::genir::{instantiate_op, Instantiation};
use irdl_ir::parse::parse_module;
use irdl_ir::print::{op_to_string, op_to_string_generic};
use irdl_ir::Context;

#[test]
fn corpus_parse_print_parse_fixpoint() {
    let natives = irdl_dialects::corpus_natives();
    // Parsing context with the whole corpus registered once.
    let mut pctx = Context::new();
    irdl_dialects::register_corpus(&mut pctx).unwrap();
    // Generation context, compiled cumulatively: later dialects reference
    // earlier ones (e.g. `builtin.complex`).
    let mut gctx = Context::new();

    let mut dialect_count = 0usize;
    for (dialect_name, source) in irdl_dialects::corpus_sources() {
        let file = irdl::parse_irdl(&source).unwrap();
        for dialect in &file.dialects {
            dialect_count += 1;
            // One module holding every instantiable op of this dialect.
            let (_, compiled) =
                irdl::compile_dialect(&mut gctx, dialect, &natives).unwrap();
            let module = gctx.create_module();
            let block = gctx.module_block(module);
            let mut built = 0usize;
            for op in compiled {
                match instantiate_op(&mut gctx, &op, block) {
                    Instantiation::Built(_) => built += 1,
                    // CFG terminators need successor context; skipped, as in
                    // the generation stress test.
                    Instantiation::Skipped(_) => {}
                }
            }
            assert!(built > 0, "{dialect_name}: no instantiable ops");
            let text = op_to_string(&gctx, module);
            gctx.erase_op(module);

            // parse → print must reproduce the text exactly.
            let ops_before = pctx.num_ops();
            let reparsed = parse_module(&mut pctx, &text).unwrap_or_else(|e| {
                panic!("{dialect_name}: reparse failed:\n{text}\n{e}")
            });
            let ops_first = pctx.num_ops() - ops_before;
            let reprinted = op_to_string(&pctx, reparsed);
            assert_eq!(
                reprinted, text,
                "{dialect_name}: print is not a fixpoint of parse∘print"
            );

            // parse again: the module must be structurally identical.
            let ops_before = pctx.num_ops();
            let reparsed2 = parse_module(&mut pctx, &reprinted).unwrap_or_else(|e| {
                panic!("{dialect_name}: second reparse failed:\n{reprinted}\n{e}")
            });
            let ops_second = pctx.num_ops() - ops_before;
            assert_eq!(
                ops_first, ops_second,
                "{dialect_name}: reparse changed the op count"
            );
            assert_eq!(
                op_to_string_generic(&pctx, reparsed),
                op_to_string_generic(&pctx, reparsed2),
                "{dialect_name}: reparse is not structurally identical"
            );
            pctx.erase_op(reparsed);
            pctx.erase_op(reparsed2);
        }
    }
    assert_eq!(dialect_count, 28, "the corpus defines 28 dialects");
}
