//! Verifier synthesis: compiled operation and type/attribute verifiers.
//!
//! This module turns resolved IRDL definitions into the hook objects the IR
//! substrate evaluates — reproducing the paper's central claim that the
//! hand-written C++ verifier of Listing 2 is derivable from the declarative
//! specification of Listing 3. A [`CompiledOp`] / [`CompiledParams`] owns
//! its lowered [`ConstraintProgram`] and is itself the registered verifier.

use std::ops::Deref;

use irdl_ir::diag::{Diagnostic, Result};
use irdl_ir::{Attribute, Context, OpName, OpRef, Symbol};

use crate::ast::Variadicity;
use crate::constraint::{CVal, Constraint};
use crate::native::{NativeOpVerifier, NativeParamsVerifier};
use crate::program::{
    with_ctx_scratch, Builder, ConstraintProgram, EvalScratch, Explain, Mode, Silent,
};
use crate::variadic::{resolve_segments_into, OPERAND_SEGMENT_ATTR, RESULT_SEGMENT_ATTR};

/// A compiled operand/result definition.
#[derive(Debug, Clone)]
pub struct CompiledArg {
    /// Declared name (used by formats and diagnostics).
    pub name: String,
    /// Element constraint.
    pub constraint: Constraint,
    /// Single / variadic / optional.
    pub variadicity: Variadicity,
}

/// A compiled region definition.
#[derive(Debug, Clone)]
pub struct CompiledRegion {
    /// Declared name.
    pub name: String,
    /// Entry-block argument constraints (`None` = unconstrained).
    pub args: Option<Vec<CompiledArg>>,
    /// Required terminator (also forces a single block).
    pub terminator: Option<OpName>,
}

/// Everything declared by one `Operation` definition, with its constraints
/// as data.
pub struct OpDecl {
    /// `(dialect, op)` name pair.
    pub name: OpName,
    /// Constraint-variable names, for diagnostics and formats.
    pub var_names: Vec<String>,
    /// Declared constraint of each variable.
    pub var_decls: Vec<Constraint>,
    /// Operand definitions.
    pub operands: Vec<CompiledArg>,
    /// Result definitions.
    pub results: Vec<CompiledArg>,
    /// Attribute definitions (all required).
    pub attributes: Vec<(Symbol, Constraint)>,
    /// Region definitions.
    pub regions: Vec<CompiledRegion>,
    /// `Some(n)` when the op declares `Successors` with `n` names.
    pub successors: Option<usize>,
    /// Optional native (global) verifier.
    pub native_verifier: Option<NativeOpVerifier>,
}

impl std::fmt::Debug for OpDecl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpDecl")
            .field("operands", &self.operands)
            .field("results", &self.results)
            .field("attributes", &self.attributes.len())
            .field("regions", &self.regions.len())
            .field("successors", &self.successors)
            .field("has_native_verifier", &self.native_verifier.is_some())
            .finish()
    }
}

/// An [`OpDecl`] lowered for checking: every constraint of the op in one
/// [`ConstraintProgram`], with per-slot roots and pre-resolved variadicity
/// tables. Implements [`irdl_ir::OpVerifier`]; dereferences to its
/// declaration.
pub struct CompiledOp {
    decl: OpDecl,
    program: ConstraintProgram,
    operand_roots: Vec<u32>,
    operand_variadicity: Vec<Variadicity>,
    result_roots: Vec<u32>,
    result_variadicity: Vec<Variadicity>,
    /// Attribute keys with their roots, parallel to `decl.attributes`.
    attr_roots: Vec<(Symbol, u32)>,
    /// Entry-block argument roots and variadicities, parallel to
    /// `decl.regions` (`None` = unconstrained).
    region_args: Vec<Option<(Vec<u32>, Vec<Variadicity>)>>,
    /// Pre-interned segment-attribute names, so the hot loop never hashes
    /// a string.
    operand_seg_sym: Symbol,
    result_seg_sym: Symbol,
}

impl std::fmt::Debug for CompiledOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.decl.fmt(f)
    }
}

impl Deref for CompiledOp {
    type Target = OpDecl;
    fn deref(&self) -> &OpDecl {
        &self.decl
    }
}

fn variadicities(args: &[CompiledArg]) -> Vec<Variadicity> {
    args.iter().map(|a| a.variadicity).collect()
}

impl CompiledOp {
    /// Lowers `decl` into its program, reserving verdict-cache domains
    /// from `ctx` for its pure subconstraints.
    pub fn new(ctx: &mut Context, decl: OpDecl) -> CompiledOp {
        let mut b = Builder::default();
        let var_roots = decl.var_decls.iter().map(|d| b.lower(d)).collect();
        let mut lower_args =
            |args: &[CompiledArg]| args.iter().map(|a| b.lower(&a.constraint)).collect::<Vec<_>>();
        let operand_roots = lower_args(&decl.operands);
        let result_roots = lower_args(&decl.results);
        let region_args = decl
            .regions
            .iter()
            .map(|r| r.args.as_deref().map(|args| (lower_args(args), variadicities(args))))
            .collect();
        let attr_roots = decl.attributes.iter().map(|(key, c)| (*key, b.lower(c))).collect();
        CompiledOp {
            program: b.finish(ctx, var_roots),
            operand_roots,
            operand_variadicity: variadicities(&decl.operands),
            result_roots,
            result_variadicity: variadicities(&decl.results),
            attr_roots,
            region_args,
            operand_seg_sym: ctx.symbol(OPERAND_SEGMENT_ATTR),
            result_seg_sym: ctx.symbol(RESULT_SEGMENT_ATTR),
            decl,
        }
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
        scratch.reset(self.var_decls.len());

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
        if op.num_regions(ctx) != self.regions.len() {
            return Err(M::fail(|| {
                format!("expected {} region(s), got {}", self.regions.len(), op.num_regions(ctx))
            }));
        }
        for index in 0..self.regions.len() {
            self.check_region::<M>(ctx, op, index, scratch)?;
        }

        // --- successors --------------------------------------------------
        let actual = op.successors(ctx).len();
        match self.successors {
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
        let def = &self.regions[index];
        let region = op.region(ctx, index);
        if let Some((roots, variadicity)) = &self.region_args[index] {
            let arg_types = region.entry_block(ctx).map_or(&[][..], |b| b.arg_types(ctx));
            resolve_segments_into(arg_types.len(), variadicity, None, &mut scratch.seg_sizes)
                .map_err(|e| {
                    M::fail(|| format!("region `{}` argument mismatch: {e}", def.name))
                })?;
            let mut cursor = 0usize;
            for (slot, &root) in roots.iter().enumerate() {
                let size = scratch.seg_sizes[slot];
                for &ty in &arg_types[cursor..cursor + size] {
                    self.program.eval::<M>(ctx, root, CVal::Type(ty), scratch).map_err(|e| {
                        M::wrap(e, |e| {
                            let arg = &def.args.as_deref().unwrap_or(&[])[slot];
                            format!(
                                "region `{}` argument `{}` is invalid: {e}",
                                def.name, arg.name
                            )
                        })
                    })?;
                }
                cursor += size;
            }
        }
        // A terminator requirement implies a single block.
        let Some(term) = def.terminator else { return Ok(()) };
        let blocks = region.blocks(ctx);
        if blocks.len() != 1 {
            return Err(M::fail(|| {
                format!(
                    "region `{}` must consist of a single block, got {}",
                    def.name,
                    blocks.len()
                )
            }));
        }
        match blocks[0].last_op(ctx) {
            None => Err(M::fail(|| {
                format!("region `{}` must end with `{}`", def.name, term.display(ctx))
            })),
            Some(last) if last.name(ctx) != term => Err(M::fail(|| {
                format!(
                    "region `{}` must end with `{}`, found `{}`",
                    def.name,
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
        match &self.native_verifier {
            Some(native) => native(ctx, op),
            None => Ok(()),
        }
    }
}

/// A compiled type/attribute definition: parameter constraints plus an
/// optional native verifier. Implements [`irdl_ir::ParamsVerifier`].
pub struct CompiledParams {
    /// Parameter names, in order.
    pub names: Vec<String>,
    /// Optional native verifier over the whole parameter list.
    pub native_verifier: Option<NativeParamsVerifier>,
    program: ConstraintProgram,
    roots: Vec<u32>,
}

impl std::fmt::Debug for CompiledParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledParams")
            .field("names", &self.names)
            .field("has_native_verifier", &self.native_verifier.is_some())
            .finish()
    }
}

impl CompiledParams {
    /// Lowers the parameter constraints (one per name) into a program,
    /// reserving verdict-cache domains from `ctx`.
    pub fn new(
        ctx: &mut Context,
        names: Vec<String>,
        constraints: &[Constraint],
        native_verifier: Option<NativeParamsVerifier>,
    ) -> CompiledParams {
        let (program, roots) = ConstraintProgram::lower(ctx, &[], constraints);
        CompiledParams { names, native_verifier, program, roots }
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
                |e| M::wrap(e, |e| format!("parameter `{}` is invalid: {e}", self.names[i])),
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
        match &self.native_verifier {
            Some(native) => native(ctx, params),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irdl_ir::{OpVerifier, OperationState, ParamsVerifier};

    fn decl(ctx: &mut Context, name: &str) -> OpDecl {
        OpDecl {
            name: ctx.op_name("cmath", name),
            var_names: vec![],
            var_decls: vec![],
            operands: vec![],
            results: vec![],
            attributes: vec![],
            regions: vec![],
            successors: None,
            native_verifier: None,
        }
    }

    fn single(name: &str, constraint: Constraint) -> CompiledArg {
        CompiledArg { name: name.into(), constraint, variadicity: Variadicity::Single }
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
        let mul = OpDecl {
            var_names: vec!["T".into()],
            var_decls: vec![t_decl],
            operands: vec![single("lhs", Constraint::Var(0)), single("rhs", Constraint::Var(0))],
            results: vec![single("res", Constraint::Var(0))],
            ..decl(&mut ctx, "mul")
        };
        let compiled = CompiledOp::new(&mut ctx, mul);

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
        let key = ctx.symbol("re");
        let constant = OpDecl {
            attributes: vec![(key, Constraint::FloatAttr(Some(irdl_ir::FloatKind::F32)))],
            ..decl(&mut ctx, "create_constant")
        };
        let compiled = CompiledOp::new(&mut ctx, constant);
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
        let compiled = CompiledParams::new(
            &mut ctx,
            vec!["elementType".into()],
            &[Constraint::AnyOf(vec![Constraint::ExactType(f32), Constraint::ExactType(f64)])],
            None,
        );
        let f32a = ctx.type_attr(f32);
        assert!(compiled.verify(&ctx, &[f32a]).is_ok());
        let i32 = ctx.i32_type();
        let i32a = ctx.type_attr(i32);
        let err = compiled.verify(&ctx, &[i32a]).unwrap_err();
        assert!(err.message().contains("elementType"), "{err}");
        assert!(compiled.verify(&ctx, &[]).is_err());
    }
}
