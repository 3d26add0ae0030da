//! Shareable compiled-dialect artifacts: compile IRDL once, register
//! everywhere.
//!
//! The paper's central claim is that dialect definitions are *data* (§4):
//! compiled once from an IRDL specification and registered dynamically. A
//! [`DialectBundle`] makes that sharing real across threads. Compilation
//! resolves each dialect into a [`DialectRecipe`] and registers it with
//! [`register_recipe`]; loading a saved bundle decodes the recipes and
//! runs the same registration, so both produce the same registry.
//! Registration produces artifacts — [`crate::verifier::CompiledOp`]s, flat
//! [`crate::program::ConstraintProgram`]s, format specs, native hooks —
//! that embed context-relative uniqued indices (`Symbol`s, `Type`s, verdict
//! key domains). They are therefore only meaningful against a context whose
//! interning tables contain the same entries at the same indices.
//!
//! The bundle exploits a structural property of [`Context`]: its uniquing
//! tables are append-only, so a *clone* of a context resolves every
//! existing index to the same value as the original. The bundle seals the
//! fully-compiled context as an immutable template;
//! [`DialectBundle::instantiate`] hands each caller a private clone. All
//! `Arc`'d hook objects are shared (never recompiled), every clone may
//! intern new symbols/types independently without affecting its siblings,
//! and the cloned verdict cache arrives warm — and is sound, because the
//! cached keys refer to interned values the clone resolves identically.
//!
//! This module is where the threading decision lives. A [`Context`] has
//! one owner (`Send`, not `Sync`), so its caches and scratch are plain
//! cells; the bundle is `Send + Sync` because it keeps its template in a
//! `Mutex`, taken once per [`DialectBundle::instantiate`] or
//! [`DialectBundle::save`] and never while IR is processed.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use irdl_ir::diag::{Diagnostic, Result};
use irdl_ir::Context;

use crate::artifact::{decode_bundle, encode_bundle, DialectRecipe};
use crate::compile::{compile_dialect, register_recipe};
use crate::native::NativeRegistry;
use crate::parser::parse_irdl;

/// An immutable, thread-shareable set of compiled dialects.
///
/// Internally this is a sealed template [`Context`] holding the compiled
/// registry, behind a `Mutex` because a context is not `Sync`.
pub struct DialectBundle {
    template: Mutex<Context>,
    names: Vec<String>,
    /// The serializable description of every compiled dialect, retained by
    /// [`DialectBundle::compile`] and [`DialectBundle::load`] so the
    /// bundle can be persisted with [`DialectBundle::save`]. Empty for
    /// hand-captured bundles.
    recipes: Vec<DialectRecipe>,
    /// Typed side-artifacts derived from the bundle (compiled pattern
    /// catalogs, matcher automata, analysis tables, ...), keyed by type.
    /// Like the dialect artifacts themselves: built once, `Arc`-shared by
    /// every consumer.
    artifacts: RwLock<HashMap<TypeId, Arc<dyn Any + Send + Sync>>>,
}

impl std::fmt::Debug for DialectBundle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DialectBundle").field("names", &self.names).finish()
    }
}

impl DialectBundle {
    /// Compiles every dialect in `sources` (each a `(label, irdl-source)`
    /// pair) into one bundle, using the given native hooks.
    ///
    /// Compilation happens exactly once here, regardless of how many
    /// contexts are later instantiated from the bundle.
    ///
    /// # Errors
    ///
    /// Returns the first parse or compile diagnostic, prefixed with the
    /// label of the offending source.
    pub fn compile(sources: &[(String, String)], natives: &NativeRegistry) -> Result<Self> {
        let mut ctx = Context::new();
        let mut names = Vec::new();
        let mut recipes = Vec::new();
        for (label, source) in sources {
            let file = parse_irdl(source)
                .map_err(|d| d.with_note(format!("while compiling `{label}`")))?;
            for dialect in &file.dialects {
                let (recipe, _) = compile_dialect(&mut ctx, dialect, natives)
                    .map_err(|d| d.with_note(format!("while compiling `{label}`")))?;
                names.push(dialect.name.clone());
                recipes.push(recipe);
            }
        }
        Ok(DialectBundle {
            template: Mutex::new(ctx),
            names,
            recipes,
            artifacts: RwLock::new(HashMap::new()),
        })
    }

    /// Seals an already-compiled context as a bundle.
    ///
    /// Use this when compilation needs custom setup beyond
    /// [`DialectBundle::compile`] — e.g. extra hand-registered dialects or
    /// native syntaxes. The context should be treated as consumed: IR state
    /// (modules, ops) present in it will be cloned into every instance.
    pub fn capture(ctx: Context, names: Vec<String>) -> Self {
        DialectBundle {
            template: Mutex::new(ctx),
            names,
            recipes: Vec::new(),
            artifacts: RwLock::new(HashMap::new()),
        }
    }

    /// Serializes the bundle's compiled dialects into a persistable
    /// artifact (`.irdlbc`, magic `IRDB`). [`DialectBundle::load`]
    /// rehydrates it without the IRDL frontend.
    ///
    /// Native hooks are closures and travel by *name*: the loader's
    /// [`NativeRegistry`] must register every hook the dialects use.
    /// Likewise, rewrite-pattern artifacts attached via
    /// [`DialectBundle::attach_artifact`] contain closures and are not
    /// persisted — only the dialects themselves.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic for bundles created with
    /// [`DialectBundle::capture`]: hand-registered dialects have no
    /// serializable recipe.
    pub fn save(&self) -> Result<Vec<u8>> {
        if self.recipes.is_empty() && !self.names.is_empty() {
            return Err(Diagnostic::new(
                "this bundle was hand-captured, not compiled from IRDL; it has no \
                 serializable recipes (use DialectBundle::compile)",
            ));
        }
        let template = self.template.lock().expect("bundle template lock poisoned");
        Ok(encode_bundle(&template, &self.recipes))
    }

    /// [`DialectBundle::save`] straight to a file.
    ///
    /// # Errors
    ///
    /// Returns serialization diagnostics and I/O failures.
    pub fn save_to(&self, path: &std::path::Path) -> Result<()> {
        let bytes = self.save()?;
        std::fs::write(path, bytes)
            .map_err(|e| Diagnostic::new(format!("cannot write `{}`: {e}", path.display())))
    }

    /// Rehydrates a bundle from a persisted artifact: decodes the recipes
    /// and registers each on a fresh context through the same registration
    /// path compilation uses — no IRDL parsing, no constraint resolution,
    /// and no movement of [`crate::compile::dialect_compile_count`].
    ///
    /// # Errors
    ///
    /// Returns a diagnostic on malformed input, or when `natives` lacks a
    /// hook the artifact names.
    pub fn load(bytes: &[u8], natives: &NativeRegistry) -> Result<Self> {
        let mut ctx = Context::new();
        let recipes = decode_bundle(&mut ctx, bytes, natives)?;
        let mut names = Vec::with_capacity(recipes.len());
        for recipe in &recipes {
            register_recipe(&mut ctx, recipe, natives)?;
            names.push(recipe.name.clone());
        }
        Ok(DialectBundle {
            template: Mutex::new(ctx),
            names,
            recipes,
            artifacts: RwLock::new(HashMap::new()),
        })
    }

    /// [`DialectBundle::load`] straight from a file.
    ///
    /// # Errors
    ///
    /// Returns decode diagnostics and I/O failures.
    pub fn load_from(path: &std::path::Path, natives: &NativeRegistry) -> Result<Self> {
        let bytes = std::fs::read(path)
            .map_err(|e| Diagnostic::new(format!("cannot read `{}`: {e}", path.display())))?;
        Self::load(&bytes, natives)
    }

    /// The serializable recipes of the compiled dialects (empty for
    /// hand-captured bundles).
    pub fn recipes(&self) -> &[DialectRecipe] {
        &self.recipes
    }

    /// Creates a private [`Context`] carrying every compiled dialect.
    ///
    /// No recompilation happens: the registry (and all `Arc`'d verifier,
    /// syntax, and native-hook objects) is shared with the template, the
    /// interning tables are cloned so existing indices stay valid, and the
    /// verdict cache arrives warm. The instance is fully independent
    /// afterwards — interning, IR building, and cache growth are private.
    pub fn instantiate(&self) -> Context {
        self.template.lock().expect("bundle template lock poisoned").clone()
    }

    /// The names of the dialects compiled into this bundle.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Attaches (or replaces) the artifact of type `T`.
    ///
    /// One artifact per type: wrap same-typed artifacts in distinct
    /// newtypes to store several.
    pub fn attach_artifact<T: Any + Send + Sync>(&self, artifact: Arc<T>) {
        self.artifacts
            .write()
            .expect("bundle artifact lock poisoned")
            .insert(TypeId::of::<T>(), artifact);
    }

    /// The attached artifact of type `T`, if any.
    pub fn artifact<T: Any + Send + Sync>(&self) -> Option<Arc<T>> {
        let artifacts = self.artifacts.read().expect("bundle artifact lock poisoned");
        artifacts
            .get(&TypeId::of::<T>())
            .cloned()
            .map(|a| a.downcast::<T>().expect("artifact stored under its own TypeId"))
    }

    /// The attached artifact of type `T`, building and attaching it first
    /// if absent. `build` runs at most once per bundle under the write
    /// lock, so concurrent callers share one construction.
    pub fn artifact_or_insert<T: Any + Send + Sync>(
        &self,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        if let Some(existing) = self.artifact::<T>() {
            return existing;
        }
        let mut artifacts = self.artifacts.write().expect("bundle artifact lock poisoned");
        // Double-check: another thread may have built it while we waited.
        if let Some(existing) = artifacts.get(&TypeId::of::<T>()) {
            return existing.clone().downcast::<T>().expect("artifact stored under its own TypeId");
        }
        let built = Arc::new(build());
        artifacts.insert(TypeId::of::<T>(), built.clone());
        built
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
Dialect cmath {
  Alias !FloatType = !AnyOf<!f32, !f64>
  Type complex {
    Parameters (elementType: !FloatType)
  }
  Operation mul {
    ConstraintVar (!T: !FloatType)
    Operands (lhs: !complex<!T>, rhs: !complex<!T>)
    Results (res: !complex<!T>)
  }
}
"#;

    #[test]
    fn bundle_compiles_once_and_instantiates_many() {
        let natives = NativeRegistry::with_std();
        let sources = vec![("cmath.irdl".to_string(), SPEC.to_string())];
        // The compile counter's exact deltas are pinned in
        // `tests/compile_count.rs`, away from tests compiling in parallel.
        let bundle = DialectBundle::compile(&sources, &natives).unwrap();
        assert_eq!(bundle.names(), ["cmath"]);

        let mut a = bundle.instantiate();
        let mut b = bundle.instantiate();

        // Both instances resolve the compiled dialect and enforce its
        // constraints identically.
        for ctx in [&mut a, &mut b] {
            let f32 = ctx.f32_type();
            let ok = ctx.type_attr(f32);
            assert!(ctx.parametric_type("cmath", "complex", [ok]).is_ok());
            let i32 = ctx.i32_type();
            let bad = ctx.type_attr(i32);
            assert!(ctx.parametric_type("cmath", "complex", [bad]).is_err());
        }

        // Instances are independent: interning in one does not affect the
        // other.
        a.symbol("only-in-a");
        assert_eq!(b.symbol_lookup("only-in-a"), None);
    }

    #[test]
    fn bundle_saves_and_loads_without_recompiling() {
        let natives = NativeRegistry::with_std();
        let sources = vec![("cmath.irdl".to_string(), SPEC.to_string())];
        let bundle = DialectBundle::compile(&sources, &natives).unwrap();
        let bytes = bundle.save().unwrap();

        let loaded = DialectBundle::load(&bytes, &natives).unwrap();
        assert_eq!(loaded.names(), ["cmath"]);

        let mut ctx = loaded.instantiate();
        let f32 = ctx.f32_type();
        let ok = ctx.type_attr(f32);
        assert!(ctx.parametric_type("cmath", "complex", [ok]).is_ok());
        let i32 = ctx.i32_type();
        let bad = ctx.type_attr(i32);
        assert!(ctx.parametric_type("cmath", "complex", [bad]).is_err());

        // The rehydrated registry enforces op constraints end to end.
        let ir = "%a = \"test.def\"() : () -> !cmath.complex<f32>\n\
                  %m = \"cmath.mul\"(%a, %a) : (!cmath.complex<f32>, !cmath.complex<f32>) \
                  -> !cmath.complex<f32>";
        let module = irdl_ir::parse::parse_module(&mut ctx, ir).unwrap();
        assert!(irdl_ir::verify::verify_op(&ctx, module).is_ok());
    }

    #[test]
    fn captured_bundle_refuses_to_save() {
        let mut ctx = Context::new();
        ctx.symbol("x");
        let bundle = DialectBundle::capture(ctx, vec!["hand".to_string()]);
        let err = bundle.save().unwrap_err();
        assert!(err.message().contains("hand-captured"), "{err}");
    }

    #[test]
    fn corrupt_bundle_bytes_are_diagnostics() {
        let natives = NativeRegistry::with_std();
        let sources = vec![("cmath.irdl".to_string(), SPEC.to_string())];
        let bundle = DialectBundle::compile(&sources, &natives).unwrap();
        let bytes = bundle.save().unwrap();

        assert!(DialectBundle::load(b"IRDBx", &natives).is_err());
        assert!(DialectBundle::load(&bytes[..bytes.len() / 2], &natives).is_err());
        for index in 5..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[index] ^= 0xff;
            // Either outcome is fine; panicking is not.
            let _ = DialectBundle::load(&corrupt, &natives);
        }
    }

    #[test]
    fn bundle_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DialectBundle>();
    }

    #[test]
    fn artifact_store_builds_once_and_shares() {
        #[derive(Debug, PartialEq)]
        struct Table(Vec<u32>);
        struct Other(&'static str);

        let bundle = DialectBundle::capture(Context::new(), Vec::new());
        assert!(bundle.artifact::<Table>().is_none());

        let built = std::sync::atomic::AtomicUsize::new(0);
        let first = bundle.artifact_or_insert(|| {
            built.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Table(vec![1, 2, 3])
        });
        let second = bundle.artifact_or_insert(|| {
            built.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Table(Vec::new())
        });
        assert_eq!(built.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(*first, Table(vec![1, 2, 3]));

        // Distinct types occupy distinct slots.
        bundle.attach_artifact(Arc::new(Other("aux")));
        assert_eq!(bundle.artifact::<Other>().unwrap().0, "aux");
        assert_eq!(*bundle.artifact::<Table>().unwrap(), Table(vec![1, 2, 3]));

        // Replacement swaps the artifact for later consumers.
        bundle.attach_artifact(Arc::new(Table(vec![9])));
        assert_eq!(*bundle.artifact::<Table>().unwrap(), Table(vec![9]));
    }
}
