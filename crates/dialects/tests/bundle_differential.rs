//! Compile-versus-load differential over the 28-dialect corpus.
//!
//! A dialect compiled from IRDL source and the same dialect loaded from its
//! saved `IRDB` artifact register through one driver (`register_recipe`),
//! so the two registries must describe every definition identically, and
//! every registered op verifier must share the recipe it was built from.

use std::sync::Arc;

use irdl::artifact::decode_bundle;
use irdl::introspect::report;
use irdl::verifier::CompiledOp;
use irdl::{DialectBundle, DialectRecipe, OpRecipe};
use irdl_ir::Context;

#[test]
fn compiled_and_loaded_corpus_registries_agree() {
    let natives = irdl_dialects::corpus_natives();
    let compiled = DialectBundle::compile(&irdl_dialects::corpus_sources(), &natives).unwrap();
    let bytes = compiled.save().unwrap();
    let loaded = DialectBundle::load(&bytes, &natives).unwrap();
    assert_eq!(compiled.names(), loaded.names());
    assert_eq!(compiled.names().len(), 28);

    let compiled_report = report(&compiled.instantiate());
    let loaded_report = report(&loaded.instantiate());
    assert_eq!(compiled_report.len(), loaded_report.len());
    let mut ops = 0;
    for (c, l) in compiled_report.iter().zip(&loaded_report) {
        assert_eq!(c.name, l.name);
        assert_eq!(c.ops.len(), l.ops.len(), "op count of `{}`", c.name);
        for (c_op, l_op) in c.ops.iter().zip(&l.ops) {
            assert_eq!(c_op.name, l_op.name);
            assert_eq!(c_op.decl, l_op.decl, "declaration of `{}.{}`", c.name, c_op.name);
            ops += 1;
        }
    }
    assert_eq!(compiled_report, loaded_report);
    assert!(ops > 900, "only {ops} ops compared");
}

/// Asserts that each of `ops` is the verifier registered for its op on
/// `ctx` and holds the very recipe `recipe` lists for it.
fn assert_shared(ctx: &Context, recipe: &DialectRecipe, ops: &[Arc<CompiledOp>]) {
    assert_eq!(ops.len(), recipe.ops.len(), "ops of `{}`", recipe.name);
    for (op, entry) in ops.iter().zip(&recipe.ops) {
        let what = format!("`{}.{}`", recipe.name, entry.name);
        let shared: &OpRecipe = op;
        assert!(std::ptr::eq(shared, Arc::as_ptr(entry)), "{what} holds a copy of its recipe");
        let name = op.op_name();
        let info = ctx.registry().op_info(name.dialect, name.name).expect("op is registered");
        let registered = info.verifier.as_ref().expect("op has a verifier");
        let same = std::ptr::addr_eq(Arc::as_ptr(registered), Arc::as_ptr(op));
        assert!(same, "{what} is registered with another verifier");
    }
}

#[test]
fn registered_verifiers_share_their_recipes() {
    let natives = irdl_dialects::corpus_natives();

    // From source: each compiled op shares the recipe compilation returns.
    let mut ctx = Context::new();
    for (_, source) in irdl_dialects::corpus_sources() {
        for dialect in &irdl::parse_irdl(&source).unwrap().dialects {
            let (recipe, ops) = irdl::compile_dialect(&mut ctx, dialect, &natives).unwrap();
            assert_shared(&ctx, &recipe, &ops);
        }
    }

    // From an artifact, registered the way `DialectBundle::load` does.
    let bundle = DialectBundle::compile(&irdl_dialects::corpus_sources(), &natives).unwrap();
    let bytes = bundle.save().unwrap();
    let mut ctx = Context::new();
    let recipes = decode_bundle(&mut ctx, &bytes, &natives).unwrap();
    assert_eq!(recipes.len(), bundle.recipes().len());
    for recipe in &recipes {
        let ops = irdl::register_recipe(&mut ctx, recipe, &natives).unwrap();
        assert_shared(&ctx, recipe, &ops);
    }
}
