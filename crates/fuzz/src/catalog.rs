//! The generator's view of a set of compiled dialects.
//!
//! IRDL's self-contained definitions make dialects introspectable data
//! (paper §3); the fuzzer leans on exactly that: every operation shape is
//! available as an [`irdl::verifier::CompiledOp`], so one generator covers
//! every dialect ever compiled — the 28-dialect corpus and randomly
//! generated specs alike — with no per-dialect code.
//!
//! Ordering matters: the catalog lists operations in *source order* (the
//! order the IRDL text declares them), never in registry-map order, so
//! generation driven by a seeded PRNG is bit-reproducible.

use std::collections::HashMap;
use std::sync::Arc;

use irdl::verifier::CompiledOp;
use irdl::NativeRegistry;
use irdl_ir::{Context, OpName};

/// All operation definitions of one or more compiled dialects, in
/// deterministic (source) order.
pub struct OpCatalog {
    /// Every compiled op, in declaration order across sources.
    pub ops: Vec<Arc<CompiledOp>>,
    /// Indices into `ops` of definitions the block-local generator can
    /// instantiate mid-block. Terminators are excluded: a `successors`
    /// clause — even an empty one, like a yield's — marks the op as a
    /// terminator, which must come last in its block and is instantiated
    /// only on demand (region terminator requirements, CFG generation).
    generatable: Vec<usize>,
    by_name: HashMap<OpName, usize>,
}

impl OpCatalog {
    /// Compiles `sources` (pairs of `(display name, IRDL text)`) into
    /// `ctx`, registering every dialect and collecting every op shape.
    ///
    /// The same context must be the one modules are later generated in —
    /// compiled shapes hold symbols interned in `ctx` (clones of `ctx`,
    /// e.g. [`irdl::DialectBundle`] instances captured from it, stay
    /// compatible because interning is append-only).
    pub fn compile(
        ctx: &mut Context,
        sources: &[(String, String)],
        natives: &NativeRegistry,
    ) -> Result<OpCatalog, String> {
        let mut ops: Vec<Arc<CompiledOp>> = Vec::new();
        for (name, source) in sources {
            let file = irdl::parse_irdl(source)
                .map_err(|e| format!("{name}: {}", e.render(source)))?;
            for dialect in &file.dialects {
                let (_, compiled) = irdl::compile_dialect(ctx, dialect, natives)
                    .map_err(|e| format!("{name}: {}", e.render(source)))?;
                ops.extend(compiled);
            }
        }
        Ok(OpCatalog::from_ops(ops))
    }

    /// Wraps an already-compiled op list (assumed to be in a
    /// deterministic order).
    pub fn from_ops(ops: Vec<Arc<CompiledOp>>) -> OpCatalog {
        let by_name = ops.iter().enumerate().map(|(i, op)| (op.op_name(), i)).collect();
        let generatable = ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.successors.is_none())
            .map(|(i, _)| i)
            .collect();
        OpCatalog { ops, generatable, by_name }
    }

    /// The compiled definition of `name`, if this catalog has it.
    pub fn lookup(&self, name: OpName) -> Option<&Arc<CompiledOp>> {
        self.by_name.get(&name).map(|i| &self.ops[*i])
    }

    /// Definitions the block-local generator can instantiate.
    pub fn generatable(&self) -> impl Iterator<Item = &Arc<CompiledOp>> {
        self.generatable.iter().map(|i| &self.ops[*i])
    }

    /// Number of generatable definitions.
    pub fn num_generatable(&self) -> usize {
        self.generatable.len()
    }

    /// The `i % len`-th generatable definition (PRNG indexing).
    pub fn generatable_at(&self, i: usize) -> &Arc<CompiledOp> {
        &self.ops[self.generatable[i % self.generatable.len()]]
    }
}
