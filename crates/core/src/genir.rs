//! Generating IR *from* constraints.
//!
//! The paper argues that self-contained definitions make it "easy to
//! introspect and generate IRs" (§3). This module is the generation half: a
//! sampler that, given a compiled constraint, produces a value satisfying
//! it — and, given a compiled operation, a fully formed operation instance
//! that the synthesized verifier accepts. Used for corpus-wide smoke
//! testing (every generated instance must verify) and test-input
//! generation.

use irdl_ir::{Attribute, BlockRef, Context, OperationState, OpRef, Type};

use crate::ast::Variadicity;
use crate::constraint::{CVal, TypeClass};
use crate::program::{int_attr, ConstraintProgram, EvalScratch, Inst};
use crate::verifier::CompiledOp;

/// Samples a value satisfying node `node` of `program`, binding variables
/// in `scratch` along the way.
///
/// Returns `None` for constraints with no computable witness (negations of
/// broad constraints, native predicates whose language is unknown, ...).
pub fn sample(
    ctx: &mut Context,
    program: &ConstraintProgram,
    node: u32,
    scratch: &mut EvalScratch,
) -> Option<CVal> {
    let attrs = |ctx: &mut Context, nodes: &[u32], scratch: &mut EvalScratch| {
        let mut out = Vec::with_capacity(nodes.len());
        for &n in nodes {
            let v = sample(ctx, program, n, scratch)?;
            out.push(v.into_attr(ctx));
        }
        Some(out)
    };
    match program.inst(node) {
        Inst::Any | Inst::AnyType => Some(CVal::Type(ctx.i32_type())),
        Inst::AnyAttr => Some(CVal::Attr(ctx.unit_attr())),
        Inst::ExactType(ty) => Some(CVal::Type(*ty)),
        Inst::ExactAttr(attr) => Some(CVal::Attr(*attr)),
        Inst::Class(class) => {
            let ty = match class {
                TypeClass::AnyInteger => ctx.i32_type(),
                TypeClass::AnyFloat => ctx.f32_type(),
                TypeClass::Index => ctx.index_type(),
                TypeClass::AnyVector => {
                    let f32 = ctx.f32_type();
                    ctx.vector_type([4], f32)
                }
                TypeClass::AnyTensor => {
                    let f32 = ctx.f32_type();
                    ctx.tensor_type([2, 2], f32)
                }
                TypeClass::AnyMemRef => {
                    let f32 = ctx.f32_type();
                    ctx.memref_type([2], f32)
                }
                TypeClass::AnyFunction => ctx.function_type([], []),
            };
            Some(CVal::Type(ty))
        }
        Inst::ParametricType { dialect, name, children } => {
            let args = attrs(ctx, program.children(*children), scratch)?;
            ctx.parametric_type_syms(*dialect, *name, args).ok().map(CVal::Type)
        }
        Inst::BaseType { dialect, name } => {
            // A bare base reference: fall back to the definition's declared
            // arity with maximally generic parameters.
            let (dialect, name) = (*dialect, *name);
            let count = ctx
                .registry()
                .type_def(dialect, name)
                .map(|info| info.param_names.len())
                .unwrap_or(0);
            let mut args = Vec::with_capacity(count);
            for _ in 0..count {
                let f32 = ctx.f32_type();
                args.push(ctx.type_attr(f32));
            }
            ctx.parametric_type_syms(dialect, name, args).ok().map(CVal::Type)
        }
        Inst::ParametricAttr { dialect, name, children } => {
            let args = attrs(ctx, program.children(*children), scratch)?;
            ctx.parametric_attr_syms(*dialect, *name, args).ok().map(CVal::Attr)
        }
        Inst::BaseAttr { dialect, name } => {
            ctx.parametric_attr_syms(*dialect, *name, Vec::new()).ok().map(CVal::Attr)
        }
        Inst::Int(kind) => Some(CVal::Attr(int_attr(ctx, *kind, 1))),
        Inst::IntLiteral { value, kind } => Some(CVal::Attr(int_attr(ctx, *kind, *value))),
        Inst::FloatAttr(kind) => {
            let kind = kind.unwrap_or(irdl_ir::FloatKind::F32);
            Some(CVal::Attr(ctx.float_attr(1.0, kind)))
        }
        Inst::StringAny => Some(CVal::Attr(ctx.string_attr("sample"))),
        Inst::StringLiteral(s) => Some(CVal::Attr(ctx.string_attr(&**s))),
        Inst::BoolAttr => Some(CVal::Attr(ctx.bool_attr(true))),
        Inst::UnitAttr => Some(CVal::Attr(ctx.unit_attr())),
        Inst::SymbolRefAttr => Some(CVal::Attr(ctx.symbol_ref_attr("sampled"))),
        Inst::LocationAttr => Some(CVal::Attr(ctx.location_attr("gen.ir", 1, 1))),
        Inst::TypeIdAttr => Some(CVal::Attr(ctx.type_id_attr("SampledType"))),
        Inst::ArrayAny => Some(CVal::Attr(ctx.array_attr([]))),
        Inst::ArrayOf(inner) => {
            let item = attrs(ctx, &[*inner], scratch)?;
            Some(CVal::Attr(ctx.array_attr(item)))
        }
        Inst::ArrayExact(children) => {
            let items = attrs(ctx, program.children(*children), scratch)?;
            Some(CVal::Attr(ctx.array_attr(items)))
        }
        Inst::EnumAny { dialect, name } | Inst::EnumVariant { dialect, name, .. } => {
            let (dialect, name) = (*dialect, *name);
            let variant = match program.inst(node) {
                Inst::EnumVariant { variant, .. } => Some(*variant),
                _ => ctx
                    .registry()
                    .enum_def(dialect, name)
                    .and_then(|e| e.variants.first().copied()),
            }?;
            Some(CVal::Attr(ctx.intern_attr(irdl_ir::AttrData::EnumValue {
                dialect,
                enum_name: name,
                variant,
            })))
        }
        Inst::NativeParam { kind } => {
            let kind_name = ctx.symbol_str(*kind).to_string();
            let text = match kind_name.as_str() {
                "affine_map" => "(d0) -> (d0)",
                _ => "sampled",
            };
            ctx.native_attr(&kind_name, text).ok().map(CVal::Attr)
        }
        Inst::AnyOf(children) => {
            // The first alternative whose witness actually satisfies it
            // (sampling a var may have raced a binding) commits.
            for &choice in program.children(*children) {
                let mark = scratch.mark();
                if let Some(v) = sample(ctx, program, choice, scratch) {
                    if program.check(ctx, choice, v, scratch) {
                        return Some(v);
                    }
                }
                scratch.rollback(mark);
            }
            None
        }
        Inst::And(children) => {
            // Sample the most constrained part first (exact constraints),
            // then check the rest.
            let parts = program.children(*children);
            let source = parts.iter().max_by_key(|&&p| specificity(program.inst(p)))?;
            let v = sample(ctx, program, *source, scratch)?;
            let mark = scratch.mark();
            if parts.iter().all(|&part| program.check(ctx, part, v, scratch)) {
                return Some(v);
            }
            scratch.rollback(mark);
            None
        }
        Inst::Not(inner) => {
            // Try a few canonical witnesses and keep one the inner
            // constraint rejects.
            let f64 = ctx.f64_type();
            let i64 = ctx.i64_type();
            let one = ctx.i64_attr(1);
            let s = ctx.string_attr("not");
            let candidates =
                [CVal::Type(f64), CVal::Type(i64), CVal::Attr(one), CVal::Attr(s)];
            candidates.into_iter().find(|v| {
                let mark = scratch.mark();
                let matched = program.check(ctx, *inner, *v, scratch);
                scratch.rollback(mark);
                !matched
            })
        }
        Inst::Var(i) => {
            if let Some(bound) = scratch.binding(*i) {
                return Some(bound);
            }
            let v = match program.var_root(*i) {
                Some(decl) => sample(ctx, program, decl, scratch)?,
                None => CVal::Type(ctx.i32_type()),
            };
            scratch.bind(*i, v);
            Some(v)
        }
        Inst::Native { .. } => {
            // The predicate's language is unknown; try the stock witnesses
            // used by the corpus categories.
            let i64 = ctx.i64_type();
            let one = ctx.int_attr(1, i64);
            let arr = ctx.array_attr([one]);
            let s = ctx.string_attr("body");
            [CVal::Attr(one), CVal::Attr(arr), CVal::Attr(s)]
                .into_iter()
                .find(|v| program.check(ctx, node, *v, scratch))
        }
    }
}

fn specificity(inst: &Inst) -> u32 {
    match inst {
        Inst::ExactType(_)
        | Inst::ExactAttr(_)
        | Inst::IntLiteral { .. }
        | Inst::StringLiteral(_)
        | Inst::EnumVariant { .. } => 4,
        Inst::ParametricType { .. } | Inst::ParametricAttr { .. } => 3,
        Inst::Int(_)
        | Inst::FloatAttr(_)
        | Inst::Class(_)
        | Inst::BaseType { .. }
        | Inst::BaseAttr { .. }
        | Inst::ArrayOf(_)
        | Inst::ArrayExact(_) => 2,
        Inst::Native { .. } | Inst::Not(_) => 0,
        _ => 1,
    }
}

/// The outcome of instantiating one operation definition.
#[derive(Debug)]
pub enum Instantiation {
    /// A complete, inserted operation.
    Built(OpRef),
    /// The definition could not be instantiated (with the reason).
    Skipped(String),
}

/// Builds a best-effort instance of `op` at the end of `block`, creating
/// source operations for every operand. Segment-size attributes are added
/// when more than one variadic definition is present.
///
/// Required region terminators are created *bare* (no operands or
/// attributes of their own); run the enclosing module through
/// [`irdl_ir::verify::verify_op_structural`] rather than the hook-running
/// verifier when terminators have required operands.
pub fn instantiate_op(
    ctx: &mut Context,
    compiled: &CompiledOp,
    block: BlockRef,
) -> Instantiation {
    let program = compiled.program();
    let mut scratch = EvalScratch::new();
    scratch.reset(compiled.var_decls.len());

    // --- operand types ----------------------------------------------------
    let mut operand_types: Vec<Type> = Vec::new();
    let mut operand_sizes: Vec<i64> = Vec::new();
    for (def, &root) in compiled.operands.iter().zip(compiled.operand_roots()) {
        // One value per definition, variadic or not; the segment-sizes
        // attribute below records the all-ones layout when needed.
        let count = 1;
        operand_sizes.push(count);
        for _ in 0..count {
            match sample(ctx, program, root, &mut scratch) {
                Some(CVal::Type(ty)) => operand_types.push(ty),
                _ => {
                    return Instantiation::Skipped(format!(
                        "cannot sample operand `{}`",
                        def.name
                    ))
                }
            }
        }
    }

    // --- result types -------------------------------------------------------
    let mut result_types: Vec<Type> = Vec::new();
    let mut result_sizes: Vec<i64> = Vec::new();
    for (def, &root) in compiled.results.iter().zip(compiled.result_roots()) {
        result_sizes.push(1);
        match sample(ctx, program, root, &mut scratch) {
            Some(CVal::Type(ty)) => result_types.push(ty),
            _ => {
                return Instantiation::Skipped(format!("cannot sample result `{}`", def.name))
            }
        }
    }

    // --- attributes ------------------------------------------------------------
    let mut attributes: Vec<(irdl_ir::Symbol, Attribute)> = Vec::new();
    for &(key, root) in compiled.attr_roots() {
        match sample(ctx, program, root, &mut scratch) {
            Some(v) => {
                let attr = v.into_attr(ctx);
                attributes.push((key, attr));
            }
            None => {
                let key = ctx.symbol_str(key).to_string();
                return Instantiation::Skipped(format!("cannot sample attribute `{key}`"));
            }
        }
    }
    let multi_variadic = |defs: &[crate::artifact::ArgRecipe]| {
        defs.iter().filter(|d| !matches!(d.variadicity, Variadicity::Single)).count() > 1
    };
    if multi_variadic(&compiled.operands) {
        let key = ctx.symbol(crate::variadic::OPERAND_SEGMENT_ATTR);
        let items: Vec<Attribute> =
            operand_sizes.iter().map(|s| ctx.i64_attr(*s)).collect();
        let sizes = ctx.array_attr(items);
        attributes.push((key, sizes));
    }
    if multi_variadic(&compiled.results) {
        let key = ctx.symbol(crate::variadic::RESULT_SEGMENT_ATTR);
        let items: Vec<Attribute> = result_sizes.iter().map(|s| ctx.i64_attr(*s)).collect();
        let sizes = ctx.array_attr(items);
        attributes.push((key, sizes));
    }

    // --- regions -----------------------------------------------------------------
    let mut regions = Vec::new();
    for (index, def) in compiled.regions.iter().enumerate() {
        let mut arg_types = Vec::new();
        if let (Some(args), Some(roots)) = (&def.args, compiled.region_arg_roots(index)) {
            for (arg, &root) in args.iter().zip(roots) {
                if !matches!(arg.variadicity, Variadicity::Single) {
                    continue;
                }
                match sample(ctx, program, root, &mut scratch) {
                    Some(CVal::Type(ty)) => arg_types.push(ty),
                    _ => {
                        return Instantiation::Skipped(format!(
                            "cannot sample region argument `{}`",
                            arg.name
                        ))
                    }
                }
            }
        }
        let (region, entry) = ctx.create_region_with_entry(arg_types);
        if let Some(term) = compiled.terminator(index) {
            let term_op = ctx.create_op(OperationState::new(term));
            ctx.append_op(entry, term_op);
        }
        regions.push(region);
    }

    // --- successors -----------------------------------------------------------------
    if compiled.successors.unwrap_or(0) > 0 {
        // Terminators with successors need surrounding CFG structure;
        // out of scope for block-local instantiation.
        return Instantiation::Skipped("terminator with successors".to_string());
    }

    // --- materialize -----------------------------------------------------------------
    let src = ctx.op_name("genir", "source");
    let mut operands = Vec::with_capacity(operand_types.len());
    for ty in operand_types {
        let def = ctx.create_op(OperationState::new(src).add_result_types([ty]));
        ctx.append_op(block, def);
        operands.push(def.result(ctx, 0));
    }
    let state = OperationState {
        name: compiled.op_name(),
        operands: operands.into(),
        result_types: result_types.into(),
        attributes: attributes.into(),
        successors: irdl_ir::SuccessorList::new(),
        regions: regions.into(),
    };
    let op = ctx.create_op(state);
    ctx.append_op(block, op);
    Instantiation::Built(op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;

    #[test]
    fn sample_satisfies_what_it_samples() {
        let mut ctx = Context::new();
        let f32 = ctx.f32_type();
        let f64 = ctx.f64_type();
        let kind = crate::ast::IntKind { width: 32, unsigned: false };
        let constraints = vec![
            Constraint::AnyType,
            Constraint::ExactType(f32),
            Constraint::AnyOf(vec![Constraint::ExactType(f64), Constraint::ExactType(f32)]),
            Constraint::Int(kind),
            Constraint::And(vec![
                Constraint::Int(kind),
                Constraint::Not(Box::new(Constraint::IntLiteral { value: 0, kind })),
            ]),
            Constraint::ArrayOf(Box::new(Constraint::Int(kind))),
            Constraint::StringLiteral("exact".to_string()),
            Constraint::Class(TypeClass::AnyVector),
        ];
        let (program, roots) = ConstraintProgram::lower(&mut ctx, &[], &constraints);
        for (c, &root) in constraints.iter().zip(&roots) {
            let v = sample(&mut ctx, &program, root, &mut EvalScratch::new())
                .unwrap_or_else(|| panic!("no sample for {c:?}"));
            program
                .explain(&ctx, root, v, &mut EvalScratch::new())
                .unwrap_or_else(|e| panic!("sample violates {c:?}: {e}"));
        }
    }

    #[test]
    fn sampled_vars_are_consistent() {
        let mut ctx = Context::new();
        let f32 = ctx.f32_type();
        let decls = [Constraint::ExactType(f32)];
        let (program, roots) = ConstraintProgram::lower(&mut ctx, &decls, &[Constraint::Var(0)]);
        let mut scratch = EvalScratch::new();
        scratch.reset(1);
        let a = sample(&mut ctx, &program, roots[0], &mut scratch).unwrap();
        let b = sample(&mut ctx, &program, roots[0], &mut scratch).unwrap();
        assert_eq!(a, b, "a variable samples to one value");
    }
}
