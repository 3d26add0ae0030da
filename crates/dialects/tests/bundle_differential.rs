//! Compile-versus-load differential over the 28-dialect corpus.
//!
//! A dialect compiled from IRDL source and the same dialect loaded from its
//! saved `IRDB` artifact register through one driver (`register_recipe`),
//! so the two registries must describe every definition identically, and
//! each bundle's ops must be its registered op verifiers, each sharing the
//! recipe it was built from.

use std::sync::Arc;

use irdl::introspect::report;
use irdl::{DialectBundle, DialectRecipe, OpRecipe};

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

/// Asserts that `bundle.ops()` lists, in recipe order, the verifier an
/// instance of `bundle` registers for each op, and that each holds the
/// very recipe `bundle.recipes()` lists for it.
fn assert_shared(bundle: &DialectBundle) {
    let ctx = bundle.instantiate();
    let entries: Vec<(&DialectRecipe, &Arc<OpRecipe>)> =
        bundle.recipes().iter().flat_map(|r| r.ops.iter().map(move |e| (r, e))).collect();
    assert_eq!(bundle.ops().len(), entries.len());
    assert!(entries.len() > 900, "only {} ops compared", entries.len());
    for (op, (recipe, entry)) in bundle.ops().iter().zip(entries) {
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
    let compiled = DialectBundle::compile(&irdl_dialects::corpus_sources(), &natives).unwrap();
    let loaded = DialectBundle::load(&compiled.save().unwrap(), &natives).unwrap();
    assert_shared(&compiled);
    assert_shared(&loaded);
}
