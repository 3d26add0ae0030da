//! Randomized structured module generation.
//!
//! Builds modules that are well-formed *by construction* against any
//! [`OpCatalog`]: operand/result/attribute payloads are sampled from each
//! definition's compiled constraints (via [`irdl::genir::sample`], so the
//! synthesized verifier provably accepts them), while a seeded PRNG picks
//! the shape — which ops, variadic segment sizes, def-use sharing, region
//! nesting, block arguments, and CFG structure.
//!
//! Unlike [`irdl::genir::instantiate_op`] (one deterministic witness per
//! definition, bare terminators), this generator emits *fully valid*
//! modules: required region terminators are themselves instantiated from
//! their compiled definitions, so the hook-running [`verify_op`] — not
//! just the structural walk — accepts every generated module. That is the
//! precondition the differential oracles build on.
//!
//! [`verify_op`]: irdl_ir::verify::verify_op

use irdl::constraint::CVal;
use irdl::genir::sample;
use irdl::program::EvalScratch;
use irdl::verifier::CompiledOp;
use irdl_ir::{Attribute, BlockRef, Context, OperationState, OpRef, Type, Value};

use crate::catalog::OpCatalog;
use crate::rng::SplitMix64;

/// Shape knobs for module generation.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Operations generated in the module's top-level block.
    pub max_top_ops: usize,
    /// Operations generated inside each nested region block.
    pub max_region_ops: usize,
    /// Maximum region nesting depth below the module.
    pub max_depth: usize,
    /// Blocks in a generated multi-block CFG region (`< 2` disables CFG
    /// generation).
    pub max_cfg_blocks: usize,
    /// Probability (numerator over denominator) that an operand reuses an
    /// in-scope value of the required type instead of a fresh source.
    pub reuse_chance: (u32, u32),
    /// Probability that a generated op is an unregistered filler op
    /// (arbitrary shape, no verifier hooks) rather than a catalog op.
    pub misc_chance: (u32, u32),
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_top_ops: 8,
            max_region_ops: 3,
            max_depth: 2,
            max_cfg_blocks: 4,
            reuse_chance: (1, 2),
            misc_chance: (1, 4),
        }
    }
}

/// Generates one module into `ctx`. The result verifies under the full
/// hook-running verifier; a failure to do so is a bug in either the
/// generator or the verifier (the harness checks this invariant).
pub fn generate_module(
    ctx: &mut Context,
    catalog: &OpCatalog,
    config: &GenConfig,
    rng: &mut SplitMix64,
) -> OpRef {
    let module = ctx.create_module();
    let block = ctx.module_block(module);
    let count = rng.range(1, config.max_top_ops.max(1) + 1);
    fill_block(ctx, catalog, config, rng, block, 0, count);
    if config.max_cfg_blocks >= 2 && rng.chance(1, 3) {
        generate_cfg_op(ctx, config, rng, block);
    }
    module
}

/// Appends `count` generated ops to `block`.
fn fill_block(
    ctx: &mut Context,
    catalog: &OpCatalog,
    config: &GenConfig,
    rng: &mut SplitMix64,
    block: BlockRef,
    depth: usize,
    count: usize,
) {
    for _ in 0..count {
        let use_misc = catalog.num_generatable() == 0
            || rng.chance(config.misc_chance.0, config.misc_chance.1);
        if use_misc {
            if rng.chance(1, 2) {
                generate_arith_op(ctx, config, rng, block);
            } else {
                generate_misc_op(ctx, config, rng, block);
            }
            continue;
        }
        let pick = rng.below(catalog.num_generatable());
        let compiled = catalog.generatable_at(pick).clone();
        if instantiate_random(ctx, catalog, &compiled, config, rng, block, depth).is_none() {
            // Unsatisfiable sample (native predicate, negation, ...):
            // keep the op count with a filler instead.
            generate_misc_op(ctx, config, rng, block);
        }
    }
}

/// Builds one randomized instance of `compiled` at the end of `block`.
///
/// Returns `None` when some constraint has no computable witness; the
/// block is left with at most a few extra source ops in that case (they
/// are valid on their own, so well-formedness is preserved).
fn instantiate_random(
    ctx: &mut Context,
    catalog: &OpCatalog,
    compiled: &CompiledOp,
    config: &GenConfig,
    rng: &mut SplitMix64,
    block: BlockRef,
    depth: usize,
) -> Option<OpRef> {
    use irdl::ast::Variadicity;

    let program = compiled.program();
    let mut scratch = EvalScratch::new();
    scratch.reset(compiled.var_decls.len());

    // Segment sizes first: the PRNG draws them up front so the sampled
    // element count matches the emitted segment attributes exactly.
    let draw_count = |rng: &mut SplitMix64, v: &Variadicity| -> usize {
        match v {
            Variadicity::Single => 1,
            Variadicity::Optional => rng.below(2),
            Variadicity::Variadic => rng.below(3),
        }
    };

    let mut operand_types: Vec<Type> = Vec::new();
    let mut operand_sizes: Vec<i64> = Vec::new();
    for (def, &root) in compiled.operands.iter().zip(compiled.operand_roots()) {
        let count = draw_count(rng, &def.variadicity);
        operand_sizes.push(count as i64);
        for _ in 0..count {
            match sample(ctx, program, root, &mut scratch) {
                Some(CVal::Type(ty)) => operand_types.push(ty),
                _ => return None,
            }
        }
    }

    let mut result_types: Vec<Type> = Vec::new();
    let mut result_sizes: Vec<i64> = Vec::new();
    for (def, &root) in compiled.results.iter().zip(compiled.result_roots()) {
        let count = draw_count(rng, &def.variadicity);
        result_sizes.push(count as i64);
        for _ in 0..count {
            match sample(ctx, program, root, &mut scratch) {
                Some(CVal::Type(ty)) => result_types.push(ty),
                _ => return None,
            }
        }
    }

    let mut attributes: Vec<(irdl_ir::Symbol, Attribute)> = Vec::new();
    for &(key, root) in compiled.attr_roots() {
        let v = sample(ctx, program, root, &mut scratch)?;
        let attr = v.into_attr(ctx);
        attributes.push((key, attr));
    }
    let multi_variadic = |defs: &[irdl::artifact::ArgRecipe]| {
        defs.iter().filter(|d| !matches!(d.variadicity, Variadicity::Single)).count() > 1
    };
    if multi_variadic(&compiled.operands) {
        let key = ctx.symbol(irdl::variadic::OPERAND_SEGMENT_ATTR);
        let items: Vec<Attribute> = operand_sizes.iter().map(|s| ctx.i64_attr(*s)).collect();
        let sizes = ctx.array_attr(items);
        attributes.push((key, sizes));
    }
    if multi_variadic(&compiled.results) {
        let key = ctx.symbol(irdl::variadic::RESULT_SEGMENT_ATTR);
        let items: Vec<Attribute> = result_sizes.iter().map(|s| ctx.i64_attr(*s)).collect();
        let sizes = ctx.array_attr(items);
        attributes.push((key, sizes));
    }

    // Regions: entry args from their compiled constraints, optional nested
    // payload ops, and — when the definition requires a terminator — a
    // *fully instantiated* terminator op, so hook verification passes.
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
                    _ => return None,
                }
            }
        }
        let (region, entry) = ctx.create_region_with_entry(arg_types);
        if depth < config.max_depth && rng.chance(1, 2) {
            let count = rng.below(config.max_region_ops + 1);
            fill_block(ctx, catalog, config, rng, entry, depth + 1, count);
        }
        if let Some(term) = compiled.terminator(index) {
            let term_def = catalog.lookup(term)?.clone();
            if term_def.successors.unwrap_or(0) > 0 {
                return None;
            }
            instantiate_random(ctx, catalog, &term_def, config, rng, entry, config.max_depth)?;
        }
        regions.push(region);
    }

    if compiled.successors.unwrap_or(0) > 0 {
        return None;
    }

    let operands: Vec<Value> =
        operand_types.iter().map(|ty| operand_of_type(ctx, config, rng, block, *ty)).collect();
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
    Some(op)
}

/// A value of exactly `ty`, visible at the end of `block`: either a reused
/// in-scope value (an earlier op's result or a block argument) or a fresh
/// `fuzz.src` source op.
fn operand_of_type(
    ctx: &mut Context,
    config: &GenConfig,
    rng: &mut SplitMix64,
    block: BlockRef,
    ty: Type,
) -> Value {
    if rng.chance(config.reuse_chance.0, config.reuse_chance.1) {
        let mut candidates: Vec<Value> =
            block.args(ctx).into_iter().filter(|v| v.ty(ctx) == ty).collect();
        for op in block.ops(ctx) {
            for result in op.results(ctx) {
                if result.ty(ctx) == ty {
                    candidates.push(result);
                }
            }
        }
        if !candidates.is_empty() {
            return *rng.choose(&candidates);
        }
    }
    let src = ctx.op_name("fuzz", "src");
    // The entropy attribute distinguishes same-typed sources under the
    // interpreter's uninterpreted-input model: it feeds the op's identity
    // hash, so two `fuzz.src : i32` ops produce *different* input values,
    // and the assignment survives DCE of unrelated ops (unlike any
    // stream-order scheme would).
    let key = ctx.symbol("entropy");
    let attr = ctx.i64_attr(rng.below(1 << 31) as i64);
    let op = ctx
        .create_op(OperationState::new(src).add_result_types([ty]).add_attribute(key, attr));
    ctx.append_op(block, op);
    op.result(ctx, 0)
}

/// Integer types the generated arithmetic ops compute in.
fn random_int_type(ctx: &mut Context, rng: &mut SplitMix64) -> Type {
    match rng.below(3) {
        0 => ctx.i32_type(),
        1 => ctx.i64_type(),
        _ => ctx.index_type(),
    }
}

/// Appends one `fuzz.const` holding a small integer literal.
fn generate_const_op(ctx: &mut Context, rng: &mut SplitMix64, block: BlockRef, ty: Type) -> OpRef {
    let name = ctx.op_name("fuzz", "const");
    let key = ctx.symbol("value");
    // Small signed literals, zero included: `fuzz.divi` by a constant
    // zero exercises trap preservation through constant folding.
    let attr_value = rng.below(21) as i128 - 10;
    let attr = ctx.int_attr(attr_value, ty);
    let op =
        ctx.create_op(OperationState::new(name).add_result_types([ty]).add_attribute(key, attr));
    ctx.append_op(block, op);
    op
}

/// Appends one interpreted arithmetic op (`fuzz.addi`/`subi`/`muli`/`divi`)
/// or a bare `fuzz.const`. Operands lean constant-heavy so the constant
/// folder has real work in generated modules.
fn generate_arith_op(
    ctx: &mut Context,
    config: &GenConfig,
    rng: &mut SplitMix64,
    block: BlockRef,
) -> OpRef {
    let ty = random_int_type(ctx, rng);
    if rng.chance(1, 3) {
        return generate_const_op(ctx, rng, block, ty);
    }
    const OPS: [&str; 4] = ["addi", "subi", "muli", "divi"];
    let name = ctx.op_name("fuzz", OPS[rng.below(OPS.len())]);
    let operands: Vec<Value> = (0..2)
        .map(|_| {
            if rng.chance(1, 2) {
                generate_const_op(ctx, rng, block, ty).result(ctx, 0)
            } else {
                operand_of_type(ctx, config, rng, block, ty)
            }
        })
        .collect();
    let op = ctx
        .create_op(OperationState::new(name).add_operands(operands).add_result_types([ty]));
    ctx.append_op(block, op);
    op
}

/// Builtin types the unregistered filler ops draw from.
fn random_type(ctx: &mut Context, rng: &mut SplitMix64) -> Type {
    match rng.below(8) {
        0 => ctx.i1_type(),
        1 => ctx.i32_type(),
        2 => ctx.i64_type(),
        3 => ctx.index_type(),
        4 => ctx.f32_type(),
        5 => ctx.f64_type(),
        6 => {
            let f32 = ctx.f32_type();
            ctx.vector_type([rng.range(1, 5) as u64], f32)
        }
        _ => {
            let i32 = ctx.i32_type();
            ctx.tensor_type([rng.range(1, 4) as i64, rng.range(1, 4) as i64], i32)
        }
    }
}

/// An unregistered op with an arbitrary (but valid) shape: random operand
/// reuse, random result types, sometimes an attribute. Exercises the
/// parser/printer and the structural verifier without hook interference.
fn generate_misc_op(
    ctx: &mut Context,
    config: &GenConfig,
    rng: &mut SplitMix64,
    block: BlockRef,
) -> OpRef {
    const NAMES: [&str; 4] = ["use", "mix", "sink", "pass"];
    let name = ctx.op_name("fuzz", NAMES[rng.below(NAMES.len())]);
    let num_operands = rng.below(3);
    let num_results = rng.below(3);
    let operands: Vec<Value> = (0..num_operands)
        .map(|_| {
            let ty = random_type(ctx, rng);
            operand_of_type(ctx, config, rng, block, ty)
        })
        .collect();
    let result_types: Vec<Type> = (0..num_results).map(|_| random_type(ctx, rng)).collect();
    let mut state =
        OperationState::new(name).add_operands(operands).add_result_types(result_types);
    if rng.chance(1, 3) {
        let key = ctx.symbol("tag");
        let attr = match rng.below(3) {
            0 => ctx.i64_attr(rng.below(100) as i64),
            1 => ctx.string_attr(format!("t{}", rng.below(10))),
            _ => ctx.unit_attr(),
        };
        state = state.add_attribute(key, attr);
    }
    let op = ctx.create_op(state);
    ctx.append_op(block, op);
    op
}

/// Appends one `fuzz.cfg` op holding a multi-block region: every block
/// gets a few local ops and ends with a `fuzz.br` terminator targeting
/// 1–2 random blocks. Block arguments are sprinkled on non-entry blocks.
/// Uses stay block-local, so dominance holds for any branch shape.
fn generate_cfg_op(
    ctx: &mut Context,
    config: &GenConfig,
    rng: &mut SplitMix64,
    block: BlockRef,
) -> OpRef {
    let region = ctx.create_region();
    let num_blocks = rng.range(2, config.max_cfg_blocks.max(2) + 1);
    let mut blocks = Vec::with_capacity(num_blocks);
    for i in 0..num_blocks {
        let num_args = if i == 0 { 0 } else { rng.below(3) };
        let arg_types: Vec<Type> = (0..num_args).map(|_| random_type(ctx, rng)).collect();
        let b = ctx.create_block(arg_types);
        ctx.append_block(region, b);
        blocks.push(b);
    }
    let br = ctx.op_name("fuzz", "br");
    for b in &blocks {
        for _ in 0..rng.below(3) {
            generate_misc_op(ctx, config, rng, *b);
        }
        let num_succs = rng.range(1, 3);
        let succs: Vec<BlockRef> =
            (0..num_succs).map(|_| blocks[rng.below(blocks.len())]).collect();
        let term = ctx.create_op(OperationState::new(br).add_successors(succs));
        ctx.append_op(*b, term);
    }
    let holder = ctx.op_name("fuzz", "cfg");
    let op = ctx.create_op(OperationState::new(holder).add_regions([region]));
    ctx.append_op(block, op);
    op
}
