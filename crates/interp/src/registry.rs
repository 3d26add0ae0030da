//! The evaluator registry: executable semantics registered per op name.
//!
//! Semantics follow the same registration model as the verifier's
//! [`NativeRegistry`](irdl::NativeRegistry) hooks: a dialect's operations
//! gain behavior by registering an [`OpEvaluator`] under the op's
//! *qualified name* (`"cmath.mul"`). Names — not context-relative symbols —
//! key the table, so one registry serves every [`Context`] instantiated
//! from a bundle, hand-built test contexts, and rehydrated bytecode
//! bundles alike. A compiled [`DialectBundle`](irdl::DialectBundle) carries
//! its semantics as a typed bundle artifact (see [`crate::Semantics`]),
//! mirroring how native verifier hooks travel by name.
//!
//! The registry also owns the *constant model* used by constant folding:
//! which ops denote compile-time constants ([`OpEvaluator::constant`]) and
//! how to materialize a computed value back into IR as a constant op
//! ([`EvalRegistry::register_materializer`]) — the two hooks MLIR folds
//! are built from.

use std::sync::Arc;

use irdl_ir::fasthash::FastMap;
use irdl_ir::{Context, InlineVec, OperationState, OpRef, Type};

use crate::machine::Machine;
use crate::trap::Trap;
use crate::value::{hash_qualified, hash_str, EvalValue};

/// A short list of runtime values — an op's operand or result values.
/// Up to four live inline, so evaluating a typical op allocates nothing.
pub type EvalValues = InlineVec<EvalValue, 4>;

/// Executable semantics for one operation.
pub trait OpEvaluator: Send + Sync {
    /// Evaluates `op`, whose operand values are available through
    /// `machine`. Returns one value per result (the machine pads or
    /// truncates deterministically on a mismatch) or a structured trap.
    ///
    /// # Errors
    ///
    /// Returns the trap that aborts execution.
    fn eval(&self, machine: &mut Machine<'_>, op: OpRef) -> Result<EvalValues, Trap>;

    /// If `op` denotes a compile-time constant, its result values. This is
    /// what the folder uses to read operands — only ops answering `Some`
    /// here count as constant inputs to a fold.
    fn constant(&self, ctx: &Context, op: OpRef) -> Option<EvalValues> {
        let _ = (ctx, op);
        None
    }
}

/// An [`OpEvaluator`] built from a plain closure (no constant model).
struct FnEvaluator<F>(F);

impl<F> OpEvaluator for FnEvaluator<F>
where
    F: Fn(&mut Machine<'_>, OpRef) -> Result<EvalValues, Trap> + Send + Sync,
{
    fn eval(&self, machine: &mut Machine<'_>, op: OpRef) -> Result<EvalValues, Trap> {
        (self.0)(machine, op)
    }
}

/// An [`OpEvaluator`] for constant ops: a reader maps the op's attributes
/// to its values; evaluation returns the same values.
struct ConstEvaluator<R>(R);

impl<R> OpEvaluator for ConstEvaluator<R>
where
    R: Fn(&Context, OpRef) -> Option<EvalValues> + Send + Sync,
{
    fn eval(&self, machine: &mut Machine<'_>, op: OpRef) -> Result<EvalValues, Trap> {
        match (self.0)(machine.ctx(), op) {
            Some(values) => Ok(values),
            // A constant whose payload does not decode falls back to the
            // uninterpreted model — deterministic, never a panic.
            None => machine.uninterpreted(op),
        }
    }

    fn constant(&self, ctx: &Context, op: OpRef) -> Option<EvalValues> {
        (self.0)(ctx, op)
    }
}

/// Materializes `value` as a new constant op of result type `ty`, or
/// `None` when the dialect has no constant op able to carry the value.
pub type ConstMaterializer =
    Arc<dyn Fn(&mut Context, &EvalValue, Type) -> Option<OperationState> + Send + Sync>;

/// The table of registered semantics, keyed by qualified op name.
///
/// The table is bucketed by the FNV-1a hash of the qualified name
/// ([`hash_str`]), which can be fed an op's dialect and name pieces
/// without joining them; a lookup then compares the pieces against the
/// stored names. Resolving an op therefore allocates nothing and
/// resolves exactly as a lookup by `op.name(ctx).display(ctx)` would.
#[derive(Default, Clone)]
pub struct EvalRegistry {
    /// Name hash → every entry whose name has that hash (in practice one).
    evaluators: FastMap<u64, Vec<Entry>>,
    materializers: Vec<ConstMaterializer>,
}

/// A registered `(qualified name, evaluator)` pair.
type Entry = (String, Arc<dyn OpEvaluator>);

/// Whether `qualified` spells `dialect.op`.
fn is_qualified(qualified: &str, dialect: &str, op: &str) -> bool {
    let (q, d) = (qualified.as_bytes(), dialect.as_bytes());
    q.len() == d.len() + 1 + op.len()
        && q.starts_with(d)
        && q[d.len()] == b'.'
        && q.ends_with(op.as_bytes())
}

impl std::fmt::Debug for EvalRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&String> =
            self.evaluators.values().flatten().map(|(name, _)| name).collect();
        names.sort();
        f.debug_struct("EvalRegistry")
            .field("evaluators", &names)
            .field("materializers", &self.materializers.len())
            .finish()
    }
}

impl EvalRegistry {
    /// An empty registry: every op is uninterpreted.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers semantics for the qualified op name `name` (`"scf.if_op"`).
    /// A later registration under the same name replaces the earlier one.
    pub fn register(&mut self, name: impl Into<String>, evaluator: Arc<dyn OpEvaluator>) {
        let name = name.into();
        let bucket = self.evaluators.entry(hash_str(&name)).or_default();
        match bucket.iter_mut().find(|(key, _)| *key == name) {
            Some(entry) => entry.1 = evaluator,
            None => bucket.push((name, evaluator)),
        }
    }

    /// Registers closure semantics for `name`.
    pub fn register_fn(
        &mut self,
        name: impl Into<String>,
        eval: impl Fn(&mut Machine<'_>, OpRef) -> Result<EvalValues, Trap> + Send + Sync + 'static,
    ) {
        self.register(name, Arc::new(FnEvaluator(eval)));
    }

    /// Registers a constant op: `read` maps the op (its attributes) to its
    /// values; evaluation returns the same values, and the folder treats
    /// the op as a constant input.
    pub fn register_const(
        &mut self,
        name: impl Into<String>,
        read: impl Fn(&Context, OpRef) -> Option<EvalValues> + Send + Sync + 'static,
    ) {
        self.register(name, Arc::new(ConstEvaluator(read)));
    }

    /// Registers a constant materializer. Materializers are tried in
    /// registration order; the first `Some` wins.
    pub fn register_materializer(&mut self, materializer: ConstMaterializer) {
        self.materializers.push(materializer);
    }

    /// The evaluator registered under `name`, if any.
    pub fn evaluator(&self, name: &str) -> Option<&dyn OpEvaluator> {
        let bucket = self.evaluators.get(&hash_str(name))?;
        bucket.iter().find(|(key, _)| key == name).map(|(_, evaluator)| &**evaluator)
    }

    /// The evaluator for `op`, resolved through its qualified name without
    /// building it.
    pub fn evaluator_for(&self, ctx: &Context, op: OpRef) -> Option<&dyn OpEvaluator> {
        let name = op.name(ctx);
        let (dialect, op) = (ctx.symbol_str(name.dialect), ctx.symbol_str(name.name));
        let bucket = self.evaluators.get(&hash_qualified(dialect, op))?;
        bucket
            .iter()
            .find(|(key, _)| is_qualified(key, dialect, op))
            .map(|(_, evaluator)| &**evaluator)
    }

    /// `op`'s compile-time values, if its registered semantics declare it
    /// a constant.
    pub fn constant_values(&self, ctx: &Context, op: OpRef) -> Option<EvalValues> {
        self.evaluator_for(ctx, op)?.constant(ctx, op)
    }

    /// Builds a constant op carrying `value` with result type `ty`, or
    /// `None` when no registered materializer covers the pair.
    pub fn materialize(
        &self,
        ctx: &mut Context,
        value: &EvalValue,
        ty: Type,
    ) -> Option<OperationState> {
        self.materializers.iter().find_map(|m| m(ctx, value, ty))
    }

    /// The number of registered evaluators.
    pub fn len(&self) -> usize {
        self.evaluators.values().map(Vec::len).sum()
    }

    /// Whether no semantics are registered.
    pub fn is_empty(&self) -> bool {
        self.evaluators.is_empty()
    }
}

/// The bundle-artifact wrapper carrying a registry on a
/// [`DialectBundle`](irdl::DialectBundle): compiled dialects and their
/// executable semantics travel together, the way native verifier hooks do.
pub struct Semantics(pub EvalRegistry);

/// The semantics artifact attached to `bundle`, defaulting to an empty
/// registry (every op uninterpreted) when none was attached.
pub fn bundle_semantics(bundle: &irdl::DialectBundle) -> Arc<Semantics> {
    bundle.artifact_or_insert(|| Semantics(EvalRegistry::new()))
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use irdl_ir::OpName;

    use super::*;

    /// Registers a constant evaluator under each name whose one value is
    /// its index, so a lookup reports which registration it found.
    fn tagged_registry(names: &[&str]) -> EvalRegistry {
        let mut registry = EvalRegistry::new();
        for (tag, &name) in names.iter().enumerate() {
            let token = EvalValue::Opaque(tag as u64);
            registry.register_const(name, move |_, _| Some([token].into()));
        }
        registry
    }

    /// The tag `evaluator_for` resolves `name` to in `ctx`.
    fn resolve(registry: &EvalRegistry, ctx: &mut Context, name: OpName) -> Option<EvalValue> {
        let op = ctx.create_op(OperationState::new(name));
        registry.evaluator_for(ctx, op)?.constant(ctx, op).map(|values| values[0])
    }

    #[test]
    fn lookup_resolves_exactly_as_the_displayed_name_did() {
        let long_dialect = "d".repeat(300);
        let long_name = format!("{long_dialect}.{}", "o".repeat(200));
        let names = ["cmath.mul", "a.b.c", "ab.c", long_name.as_str(), "x."];
        let registry = tagged_registry(&names);
        let reference: HashMap<String, EvalValue> = names
            .iter()
            .enumerate()
            .map(|(tag, name)| (name.to_string(), EvalValue::Opaque(tag as u64)))
            .collect();

        // The second context interns other symbols first, so the same
        // names carry different symbol ids there.
        let mut first = Context::new();
        let mut second = Context::new();
        for filler in ["zz", "yy", "o", "b.c", "cmath"] {
            second.symbol(filler);
        }
        let probes: [(&str, &str); 10] = [
            ("cmath", "mul"),
            ("cmath", "norm"),
            ("a", "b.c"),
            ("a.b", "c"),
            ("a", "bc"),
            ("ab", "c"),
            (&long_dialect, &long_name[long_dialect.len() + 1..]),
            (&long_dialect, "o"),
            ("x", ""),
            ("", "x"),
        ];
        for ctx in [&mut first, &mut second] {
            for (dialect, op) in probes {
                let name = ctx.op_name(dialect, op);
                let expected = reference.get(&name.display(ctx)).copied();
                assert_eq!(resolve(&registry, ctx, name), expected, "{dialect:?} . {op:?}");
            }
        }
        let module = first.create_module();
        assert_eq!(
            registry.evaluator("a.b.c").and_then(|e| e.constant(&first, module)),
            Some([EvalValue::Opaque(1)].into())
        );
        assert!(registry.evaluator("a.b").is_none());
    }

    #[test]
    fn re_registering_a_name_replaces_its_evaluator() {
        let mut registry = tagged_registry(&["t.op", "t.other"]);
        registry.register_const("t.op", |_, _| Some([EvalValue::Opaque(9)].into()));
        assert_eq!(registry.len(), 2);
        let mut ctx = Context::new();
        let name = ctx.op_name("t", "op");
        assert_eq!(resolve(&registry, &mut ctx, name), Some(EvalValue::Opaque(9)));
    }
}
