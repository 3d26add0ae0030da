//! Verifier synthesis: compiled operation and type/attribute verifiers.
//!
//! This module turns resolved IRDL definitions into the hook objects the IR
//! substrate evaluates — reproducing the paper's central claim that the
//! hand-written C++ verifier of Listing 2 is derivable from the declarative
//! specification of Listing 3. A [`CompiledOp`] / [`CompiledParams`] shares
//! its definition's recipe ([`OpRecipe`] / [`TypeOrAttrRecipe`], the one
//! declaration record), owns the [`ConstraintProgram`] lowered from it, and
//! is itself the registered verifier.

use std::ops::Deref;
use std::sync::Arc;

use irdl_ir::diag::{Diagnostic, Result};
use irdl_ir::{Attribute, Context, OpName, OpRef, Symbol};

use crate::artifact::{ArgRecipe, OpRecipe, TypeOrAttrRecipe};
use crate::ast::Variadicity;
use crate::constraint::CVal;
use crate::native::{NativeOpVerifier, NativeParamsVerifier};
use crate::program::{
    with_ctx_scratch, Builder, ConstraintProgram, EvalScratch, Explain, Mode, Silent,
};
use crate::variadic::{resolve_segments_into, OPERAND_SEGMENT_ATTR, RESULT_SEGMENT_ATTR};

/// An [`OpRecipe`] lowered for checking against one context: every
/// constraint of the op in one [`ConstraintProgram`], with per-slot roots,
/// pre-resolved variadicity tables, and the recipe's names interned.
/// Implements [`irdl_ir::OpVerifier`]; dereferences to its recipe.
pub struct CompiledOp {
    recipe: Arc<OpRecipe>,
    op_name: OpName,
    native_hook: Option<NativeOpVerifier>,
    program: ConstraintProgram,
    operand_roots: Vec<u32>,
    operand_variadicity: Vec<Variadicity>,
    result_roots: Vec<u32>,
    result_variadicity: Vec<Variadicity>,
    /// Attribute keys with their roots, parallel to `recipe.attributes`.
    attr_roots: Vec<(Symbol, u32)>,
    /// Entry-block argument roots and variadicities, parallel to
    /// `recipe.regions` (`None` = unconstrained).
    region_args: Vec<Option<(Vec<u32>, Vec<Variadicity>)>>,
    /// Required terminator of each region, parallel to `recipe.regions`.
    terminators: Vec<Option<OpName>>,
    /// The recipe's successor count, kept here with the other tables the
    /// success path reads.
    successor_count: Option<usize>,
    /// Pre-interned segment-attribute names, so the hot loop never hashes
    /// a string.
    operand_seg_sym: Symbol,
    result_seg_sym: Symbol,
}

impl std::fmt::Debug for CompiledOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.recipe.fmt(f)
    }
}

impl Deref for CompiledOp {
    type Target = OpRecipe;
    fn deref(&self) -> &OpRecipe {
        &self.recipe
    }
}

fn variadicities(args: &[ArgRecipe]) -> Vec<Variadicity> {
    args.iter().map(|a| a.variadicity).collect()
}

impl CompiledOp {
    /// Lowers `recipe`, an op of `dialect`, into its program, interning
    /// its names and reserving verdict-cache domains from `ctx` for its
    /// pure subconstraints. `native_hook` is the op's native verifier,
    /// resolved from the name the recipe gives.
    pub fn new(
        ctx: &mut Context,
        dialect: Symbol,
        recipe: Arc<OpRecipe>,
        native_hook: Option<NativeOpVerifier>,
    ) -> CompiledOp {
        let attr_keys: Vec<Symbol> =
            recipe.attributes.iter().map(|(key, _)| ctx.symbol(key)).collect();
        let terminators = recipe
            .regions
            .iter()
            .map(|r| {
                let term = r.terminator.as_ref();
                term.map(|(d, n)| OpName { dialect: ctx.symbol(d), name: ctx.symbol(n) })
            })
            .collect();
        let op_name = OpName { dialect, name: ctx.symbol(&recipe.name) };

        let mut b = Builder::default();
        let var_roots = recipe.var_decls.iter().map(|d| b.lower(d)).collect();
        let mut lower_args =
            |args: &[ArgRecipe]| args.iter().map(|a| b.lower(&a.constraint)).collect::<Vec<_>>();
        let operand_roots = lower_args(&recipe.operands);
        let result_roots = lower_args(&recipe.results);
        let region_args = recipe
            .regions
            .iter()
            .map(|r| r.args.as_deref().map(|args| (lower_args(args), variadicities(args))))
            .collect();
        let attr_roots = attr_keys.into_iter().zip(&recipe.attributes);
        let attr_roots = attr_roots.map(|(k, (_, c))| (k, b.lower(c))).collect();
        CompiledOp {
            program: b.finish(ctx, var_roots),
            op_name,
            native_hook,
            operand_roots,
            operand_variadicity: variadicities(&recipe.operands),
            result_roots,
            result_variadicity: variadicities(&recipe.results),
            attr_roots,
            region_args,
            terminators,
            successor_count: recipe.successors,
            operand_seg_sym: ctx.symbol(OPERAND_SEGMENT_ATTR),
            result_seg_sym: ctx.symbol(RESULT_SEGMENT_ATTR),
            recipe,
        }
    }

    /// The op's `(dialect, op)` name pair.
    pub fn op_name(&self) -> OpName {
        self.op_name
    }

    /// The required terminator of region `index`, if any.
    pub fn terminator(&self, index: usize) -> Option<OpName> {
        self.terminators[index]
    }

    /// The lowered program holding every constraint of the op.
    pub fn program(&self) -> &ConstraintProgram {
        &self.program
    }

    /// Program roots of the operand definitions, in order.
    pub fn operand_roots(&self) -> &[u32] {
        &self.operand_roots
    }

    /// Program roots of the result definitions, in order.
    pub fn result_roots(&self) -> &[u32] {
        &self.result_roots
    }

    /// Attribute keys with the program roots of their constraints, in
    /// declaration order.
    pub fn attr_roots(&self) -> &[(Symbol, u32)] {
        &self.attr_roots
    }

    /// Program roots of region `index`'s entry-block arguments, when
    /// constrained.
    pub fn region_arg_roots(&self, index: usize) -> Option<&[u32]> {
        self.region_args[index].as_ref().map(|(roots, _)| roots.as_slice())
    }

    /// Silent verdict: `true` iff `op` satisfies every *declarative*
    /// invariant (constraints, counts, segments, regions, successors).
    /// The native verifier is not consulted. Performs no heap allocation
    /// on the success path.
    pub fn check(&self, ctx: &Context, op: OpRef, scratch: &mut EvalScratch) -> bool {
        self.check_declarative::<Silent>(ctx, op, scratch).is_ok()
    }

    /// Checks every declarative invariant of `op` under one shared binding
    /// environment, reporting the first violation in mode `M`.
    fn check_declarative<M: Mode>(
        &self,
        ctx: &Context,
        op: OpRef,
        scratch: &mut EvalScratch,
    ) -> std::result::Result<(), M::Fail> {
        scratch.reset(self.program.num_vars());

        // --- operands ----------------------------------------------------
        let total = op.num_operands(ctx);
        self.segments::<M>(ctx, op, total, &self.operand_variadicity, self.operand_seg_sym, scratch)
            .map_err(|e| M::wrap(e, |e| format!("operand count mismatch: {e}")))?;
        let mut cursor = 0usize;
        // The hot loops read only the compact root tables; declaration
        // names are fetched when a rejection is rendered.
        for (slot, &root) in self.operand_roots.iter().enumerate() {
            let size = scratch.seg_sizes[slot];
            for k in 0..size {
                let ty = op.operands(ctx)[cursor + k].ty(ctx);
                self.program.eval::<M>(ctx, root, CVal::Type(ty), scratch).map_err(|e| {
                    M::wrap(e, |e| {
                        format!("operand `{}` is invalid: {e}", self.operands[slot].name)
                    })
                })?;
            }
            cursor += size;
        }

        // --- results -----------------------------------------------------
        let total = op.num_results(ctx);
        self.segments::<M>(ctx, op, total, &self.result_variadicity, self.result_seg_sym, scratch)
            .map_err(|e| M::wrap(e, |e| format!("result count mismatch: {e}")))?;
        let mut cursor = 0usize;
        for (slot, &root) in self.result_roots.iter().enumerate() {
            let size = scratch.seg_sizes[slot];
            for k in 0..size {
                let ty = op.result_types(ctx)[cursor + k];
                self.program.eval::<M>(ctx, root, CVal::Type(ty), scratch).map_err(|e| {
                    M::wrap(e, |e| {
                        format!("result `{}` is invalid: {e}", self.results[slot].name)
                    })
                })?;
            }
            cursor += size;
        }

        // --- attributes --------------------------------------------------
        for &(key, root) in &self.attr_roots {
            let key_str = || ctx.symbol_str(key);
            let Some(value) = op.attr_sym(ctx, key) else {
                return Err(M::fail(|| format!("missing required attribute `{}`", key_str())));
            };
            self.program.eval::<M>(ctx, root, CVal::from_attr(ctx, value), scratch).map_err(
                |e| M::wrap(e, |e| format!("attribute `{}` is invalid: {e}", key_str())),
            )?;
        }

        // --- regions -----------------------------------------------------
        let regions = self.region_args.len();
        if op.num_regions(ctx) != regions {
            return Err(M::fail(|| {
                format!("expected {regions} region(s), got {}", op.num_regions(ctx))
            }));
        }
        for index in 0..regions {
            self.check_region::<M>(ctx, op, index, scratch)?;
        }

        // --- successors --------------------------------------------------
        let actual = op.successors(ctx).len();
        match self.successor_count {
            Some(expected) if actual != expected => Err(M::fail(|| {
                format!("expected {expected} successor(s), got {actual}")
            })),
            None if actual != 0 => {
                Err(M::fail(|| "operation declares no successors but has some".into()))
            }
            _ => Ok(()),
        }
    }

    fn check_region<M: Mode>(
        &self,
        ctx: &Context,
        op: OpRef,
        index: usize,
        scratch: &mut EvalScratch,
    ) -> std::result::Result<(), M::Fail> {
        // The declaration is read only to render a rejection.
        let def = || &self.regions[index];
        let region = op.region(ctx, index);
        if let Some((roots, variadicity)) = &self.region_args[index] {
            let arg_types = region.entry_block(ctx).map_or(&[][..], |b| b.arg_types(ctx));
            resolve_segments_into(arg_types.len(), variadicity, None, &mut scratch.seg_sizes)
                .map_err(|e| {
                    M::fail(|| format!("region `{}` argument mismatch: {e}", def().name))
                })?;
            let mut cursor = 0usize;
            for (slot, &root) in roots.iter().enumerate() {
                let size = scratch.seg_sizes[slot];
                for &ty in &arg_types[cursor..cursor + size] {
                    self.program.eval::<M>(ctx, root, CVal::Type(ty), scratch).map_err(|e| {
                        M::wrap(e, |e| {
                            let arg = &def().args.as_deref().unwrap_or(&[])[slot];
                            format!(
                                "region `{}` argument `{}` is invalid: {e}",
                                def().name,
                                arg.name
                            )
                        })
                    })?;
                }
                cursor += size;
            }
        }
        // A terminator requirement implies a single block.
        let Some(term) = self.terminators[index] else { return Ok(()) };
        let blocks = region.blocks(ctx);
        if blocks.len() != 1 {
            return Err(M::fail(|| {
                format!(
                    "region `{}` must consist of a single block, got {}",
                    def().name,
                    blocks.len()
                )
            }));
        }
        match blocks[0].last_op(ctx) {
            None => Err(M::fail(|| {
                format!("region `{}` must end with `{}`", def().name, term.display(ctx))
            })),
            Some(last) if last.name(ctx) != term => Err(M::fail(|| {
                format!(
                    "region `{}` must end with `{}`, found `{}`",
                    def().name,
                    term.display(ctx),
                    last.name(ctx).display(ctx)
                )
            })),
            Some(_) => Ok(()),
        }
    }

    /// Resolves operand/result segment sizes into `scratch.seg_sizes`,
    /// reading a present segment-sizes attribute even when no definition
    /// is variadic.
    fn segments<M: Mode>(
        &self,
        ctx: &Context,
        op: OpRef,
        total: usize,
        defs: &[Variadicity],
        seg_sym: Symbol,
        scratch: &mut EvalScratch,
    ) -> std::result::Result<(), M::Fail> {
        let explicit = match op.attr_sym(ctx, seg_sym).and_then(|a| a.as_array(ctx)) {
            Some(items) => {
                scratch.seg_explicit.clear();
                scratch
                    .seg_explicit
                    .extend(items.iter().map(|a| a.as_int(ctx).unwrap_or(-1) as i64));
                Some(scratch.seg_explicit.as_slice())
            }
            None => None,
        };
        resolve_segments_into(total, defs, explicit, &mut scratch.seg_sizes)
            .map_err(|e| M::fail(|| e))
    }
}

impl irdl_ir::OpVerifier for CompiledOp {
    fn verify(&self, ctx: &Context, op: OpRef) -> Result<()> {
        // Silent first: the success path renders and allocates nothing.
        // Only a rejection is re-run in explain mode, which skips the
        // verdict cache and so has the last word on the verdict.
        with_ctx_scratch(ctx, |scratch| {
            if self.check(ctx, op, scratch) {
                return Ok(());
            }
            self.check_declarative::<Explain>(ctx, op, scratch).map_err(Diagnostic::new)
        })?;
        match &self.native_hook {
            Some(native) => native(ctx, op),
            None => Ok(()),
        }
    }
}

/// A [`TypeOrAttrRecipe`] lowered for checking: its parameter constraints
/// in one program, plus the optional native verifier. Implements
/// [`irdl_ir::ParamsVerifier`]; dereferences to its recipe.
pub struct CompiledParams {
    recipe: Arc<TypeOrAttrRecipe>,
    native_hook: Option<NativeParamsVerifier>,
    program: ConstraintProgram,
    roots: Vec<u32>,
}

impl std::fmt::Debug for CompiledParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.recipe.fmt(f)
    }
}

impl Deref for CompiledParams {
    type Target = TypeOrAttrRecipe;
    fn deref(&self) -> &TypeOrAttrRecipe {
        &self.recipe
    }
}

impl CompiledParams {
    /// Lowers the recipe's parameter constraints into a program, reserving
    /// verdict-cache domains from `ctx`. `native_hook` is the definition's
    /// native verifier, resolved from the name the recipe gives.
    pub fn new(
        ctx: &mut Context,
        recipe: Arc<TypeOrAttrRecipe>,
        native_hook: Option<NativeParamsVerifier>,
    ) -> CompiledParams {
        let mut b = Builder::default();
        let roots = recipe.params.iter().map(|(_, c)| b.lower(c)).collect();
        CompiledParams { program: b.finish(ctx, Vec::new()), recipe, native_hook, roots }
    }

    fn check<M: Mode>(
        &self,
        ctx: &Context,
        params: &[Attribute],
        scratch: &mut EvalScratch,
    ) -> std::result::Result<(), M::Fail> {
        if params.len() != self.roots.len() {
            return Err(M::fail(|| {
                format!("expected {} parameter(s), got {}", self.roots.len(), params.len())
            }));
        }
        scratch.reset(0);
        for (i, (&root, &param)) in self.roots.iter().zip(params).enumerate() {
            self.program.eval::<M>(ctx, root, CVal::from_attr(ctx, param), scratch).map_err(
                |e| M::wrap(e, |e| format!("parameter `{}` is invalid: {e}", self.params[i].0)),
            )?;
        }
        Ok(())
    }
}

impl irdl_ir::ParamsVerifier for CompiledParams {
    fn verify(&self, ctx: &Context, params: &[Attribute]) -> Result<()> {
        with_ctx_scratch(ctx, |scratch| {
            if self.check::<Silent>(ctx, params, scratch).is_ok() {
                return Ok(());
            }
            self.check::<Explain>(ctx, params, scratch).map_err(Diagnostic::new)
        })?;
        match &self.native_hook {
            Some(native) => native(ctx, params),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use irdl_ir::{OpVerifier, OperationState, ParamsVerifier};

    fn compile(ctx: &mut Context, recipe: OpRecipe) -> CompiledOp {
        let cmath = ctx.symbol("cmath");
        CompiledOp::new(ctx, cmath, Arc::new(recipe), None)
    }

    fn single(name: &str, constraint: Constraint) -> ArgRecipe {
        ArgRecipe { name: name.into(), constraint, variadicity: Variadicity::Single }
    }

    /// Hand-builds the compiled form of cmath.mul (Listing 3) and checks it
    /// against valid and invalid operations — the behavior of Listing 2's
    /// hand-written verifier.
    #[test]
    fn mul_verifier_equivalent_to_listing2() {
        let mut ctx = Context::new();
        let f32 = ctx.f32_type();
        let f64 = ctx.f64_type();
        let cmath = ctx.symbol("cmath");
        let complex = ctx.symbol("complex");
        let f32a = ctx.type_attr(f32);
        let f64a = ctx.type_attr(f64);
        let complex_f32 = ctx.parametric_type_syms(cmath, complex, vec![f32a]).unwrap();
        let complex_f64 = ctx.parametric_type_syms(cmath, complex, vec![f64a]).unwrap();

        let float_ty = Constraint::AnyOf(vec![
            Constraint::ExactType(f32),
            Constraint::ExactType(f64),
        ]);
        let t_decl = Constraint::ParametricType {
            dialect: cmath,
            name: complex,
            params: vec![float_ty],
        };
        let mul = OpRecipe {
            name: "mul".into(),
            var_names: vec!["T".into()],
            var_decls: vec![t_decl],
            operands: vec![single("lhs", Constraint::Var(0)), single("rhs", Constraint::Var(0))],
            results: vec![single("res", Constraint::Var(0))],
            ..OpRecipe::default()
        };
        let compiled = compile(&mut ctx, mul);

        let mk = |ctx: &mut Context, tys: [irdl_ir::Type; 2], res: irdl_ir::Type| {
            let mk_name = ctx.op_name("test", "val");
            let a = ctx.create_op(OperationState::new(mk_name).add_result_types([tys[0]]));
            let b = ctx.create_op(OperationState::new(mk_name).add_result_types([tys[1]]));
            let name = ctx.op_name("cmath", "mul");
            let va = a.result(ctx, 0);
            let vb = b.result(ctx, 0);
            ctx.create_op(
                OperationState::new(name).add_operands([va, vb]).add_result_types([res]),
            )
        };

        // Valid: both operands and result are complex<f32>.
        let good = mk(&mut ctx, [complex_f32, complex_f32], complex_f32);
        assert!(compiled.verify(&ctx, good).is_ok());

        // Invalid: mixed element types.
        let mixed = mk(&mut ctx, [complex_f32, complex_f64], complex_f32);
        let err = compiled.verify(&ctx, mixed).unwrap_err();
        assert!(err.message().contains("rhs"), "{err}");

        // Invalid: result type differs.
        let bad_res = mk(&mut ctx, [complex_f32, complex_f32], complex_f64);
        assert!(compiled.verify(&ctx, bad_res).is_err());

        // Invalid: operand is not complex at all.
        let not_complex = mk(&mut ctx, [f32, f32], f32);
        assert!(compiled.verify(&ctx, not_complex).is_err());

        // Invalid: wrong operand count.
        let name = ctx.op_name("cmath", "mul");
        let one_operand = {
            let mk_name = ctx.op_name("test", "val");
            let a = ctx.create_op(OperationState::new(mk_name).add_result_types([complex_f32]));
            let va = a.result(&ctx, 0);
            ctx.create_op(
                OperationState::new(name).add_operands([va]).add_result_types([complex_f32]),
            )
        };
        let err = compiled.verify(&ctx, one_operand).unwrap_err();
        assert!(err.message().contains("operand count"), "{err}");
    }

    #[test]
    fn missing_attribute_is_reported() {
        let mut ctx = Context::new();
        let constant = OpRecipe {
            name: "create_constant".into(),
            attributes: vec![("re".into(), Constraint::FloatAttr(Some(irdl_ir::FloatKind::F32)))],
            ..OpRecipe::default()
        };
        let compiled = compile(&mut ctx, constant);
        let key = ctx.symbol("re");
        let name = ctx.op_name("cmath", "create_constant");
        let without = ctx.create_op(OperationState::new(name));
        let err = compiled.verify(&ctx, without).unwrap_err();
        assert!(err.message().contains("missing required attribute"), "{err}");
        let value = ctx.f32_attr(1.0);
        let with = ctx.create_op(OperationState::new(name).add_attribute(key, value));
        assert!(compiled.verify(&ctx, with).is_ok());
        let wrong = ctx.string_attr("oops");
        let bad = ctx.create_op(OperationState::new(name).add_attribute(key, wrong));
        assert!(compiled.verify(&ctx, bad).is_err());
    }

    #[test]
    fn compiled_params_check_count_and_constraints() {
        let mut ctx = Context::new();
        let f32 = ctx.f32_type();
        let f64 = ctx.f64_type();
        let element =
            Constraint::AnyOf(vec![Constraint::ExactType(f32), Constraint::ExactType(f64)]);
        let recipe = TypeOrAttrRecipe {
            name: "complex".into(),
            params: vec![("elementType".into(), element)],
            ..TypeOrAttrRecipe::default()
        };
        let compiled = CompiledParams::new(&mut ctx, Arc::new(recipe), None);
        let f32a = ctx.type_attr(f32);
        assert!(compiled.verify(&ctx, &[f32a]).is_ok());
        let i32 = ctx.i32_type();
        let i32a = ctx.type_attr(i32);
        let err = compiled.verify(&ctx, &[i32a]).unwrap_err();
        assert!(err.message().contains("elementType"), "{err}");
        assert!(compiled.verify(&ctx, &[]).is_err());
    }
}
