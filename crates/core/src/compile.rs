//! Compiling IRDL definitions into registered dialects.
//!
//! [`register_dialects`] is the main entry point: parse, then
//! [`compile_dialect`] each dialect. After it returns, the dialect is live
//! on the [`Context`]: IR using it parses, prints, and verifies with no
//! host-language code generation — the paper's "register a new dialect by
//! providing an IRDL specification file instead of writing, compiling, and
//! linking several complex C++ files" (§3).
//!
//! Compiling a dialect takes two steps:
//!
//! 1. **Resolution** (frontend): the AST is resolved against the dialect
//!    scope into a [`DialectRecipe`] — names, resolved constraints, format
//!    strings, native hook names. Nothing is registered yet.
//! 2. **Registration** ([`register_recipe`]): the recipe is lowered onto
//!    the context — native hooks looked up, constraint programs and format
//!    specs built, verifier objects added to the registry. Each verifier
//!    shares its definition's recipe rather than copying it.
//!
//! [`register_recipe`] is the only registration driver and has no
//! dependency on the frontend, which is what makes persisted dialect
//! artifacts possible: a recipe decoded from a bundle file
//! ([`crate::artifact`]) registers through exactly the same code as one
//! freshly resolved from source.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use irdl_ir::diag::{Diagnostic, Result};
use irdl_ir::dialect::{DialectInfo, EnumInfo, OpDeclStats, OpInfo, ParamKind, TypeDefInfo};
use irdl_ir::{Context, Symbol};

use crate::artifact::{ArgRecipe, DialectRecipe, OpRecipe, RegionRecipe, TypeOrAttrRecipe};
use crate::ast::*;
use crate::constraint::Constraint;
use crate::format::{FormatSpec, ParamsFormatSpec};
use crate::native::NativeRegistry;
use crate::parser::parse_irdl;
use crate::resolve::{DialectScope, Resolver};
use crate::verifier::{CompiledOp, CompiledParams};

/// Parses `source` and registers every dialect it defines, using the stock
/// native registry ([`NativeRegistry::with_std`]).
///
/// Returns the names of the registered dialects.
///
/// # Errors
///
/// Returns the first parse or compile diagnostic.
pub fn register_dialects(ctx: &mut Context, source: &str) -> Result<Vec<String>> {
    let natives = NativeRegistry::with_std();
    register_dialects_with(ctx, source, &natives)
}

/// Like [`register_dialects`], with caller-provided native hooks.
///
/// # Errors
///
/// Returns the first parse or compile diagnostic.
pub fn register_dialects_with(
    ctx: &mut Context,
    source: &str,
    natives: &NativeRegistry,
) -> Result<Vec<String>> {
    let file = parse_irdl(source)?;
    let mut names = Vec::with_capacity(file.dialects.len());
    for dialect in &file.dialects {
        compile_dialect(ctx, dialect, natives)?;
        names.push(dialect.name.clone());
    }
    Ok(names)
}

/// Process-wide count of dialect compilations, for asserting that sharing
/// actually shares: a batch run over N workers must compile each dialect
/// exactly once, so this counter must not move after setup. Registering a
/// persisted recipe ([`register_recipe`]) is *not* a compilation and does
/// not move it either.
static DIALECT_COMPILES: AtomicU64 = AtomicU64::new(0);

/// Number of dialect compilations performed by this process so far.
pub fn dialect_compile_count() -> u64 {
    DIALECT_COMPILES.load(Ordering::Relaxed)
}

/// Compiles one dialect definition into the context registry: resolves it
/// into a [`DialectRecipe`], then registers that with [`register_recipe`].
///
/// Returns the recipe — the serializable description consumed by
/// [`crate::DialectBundle::save`] — and the compiled form of every
/// operation, in declaration order, as consumed by IR generation
/// ([`crate::genir`]) and other tooling.
///
/// If a dialect with the same name already exists (e.g. `builtin`), the new
/// definitions are merged into it.
///
/// # Errors
///
/// Returns the first resolution or registration diagnostic.
pub fn compile_dialect(
    ctx: &mut Context,
    dialect: &DialectDef,
    natives: &NativeRegistry,
) -> Result<(DialectRecipe, Vec<Arc<CompiledOp>>)> {
    DIALECT_COMPILES.fetch_add(1, Ordering::Relaxed);
    let recipe = resolve_dialect(ctx, dialect, natives)?;
    let ops = register_recipe(ctx, &recipe, natives)?;
    Ok((recipe, ops))
}

/// Resolves `dialect` into its recipe. Interns symbols but writes nothing
/// to the registry: in-dialect names resolve through the [`DialectScope`],
/// names of other dialects through their registered definitions.
fn resolve_dialect(
    ctx: &mut Context,
    dialect: &DialectDef,
    natives: &NativeRegistry,
) -> Result<DialectRecipe> {
    let scope = DialectScope::from_ast(dialect)?;
    let mut recipe = DialectRecipe {
        name: dialect.name.clone(),
        summary: dialect.summary.clone(),
        enums: Vec::new(),
        param_kinds: Vec::new(),
        typedefs: Vec::new(),
        attrdefs: Vec::new(),
        ops: Vec::new(),
    };

    for item in &dialect.items {
        match item {
            Item::Enum(def) => recipe.enums.push((def.name.clone(), def.variants.clone())),
            Item::TypeOrAttrParam(def) => {
                recipe.param_kinds.push((def.name.clone(), def.native_kind.clone(), Some(def.span)))
            }
            Item::Type(def) => recipe.typedefs.push(resolve_typedef(ctx, natives, &scope, def)?),
            Item::Attribute(def) => {
                recipe.attrdefs.push(resolve_typedef(ctx, natives, &scope, def)?)
            }
            Item::Operation(def) => {
                let op = resolve_op(ctx, &dialect.name, &scope, def, natives).map_err(|d| {
                    d.with_note(format!("in operation `{}.{}`", dialect.name, def.name))
                })?;
                recipe.ops.push(Arc::new(op));
            }
            Item::Alias(_) | Item::Constraint(_) => {}
        }
    }
    Ok(recipe)
}

/// Registers a [`DialectRecipe`] on `ctx`, resolved from source or decoded
/// from a bundle. No IRDL parsing or constraint resolution happens; native
/// hooks are looked up in `natives` by name, and constraint / format
/// programs are lowered against `ctx`.
///
/// Returns the compiled form of every operation, each sharing its
/// [`OpRecipe`] with `recipe`.
///
/// # Errors
///
/// Returns a diagnostic when a native hook the recipe names is not
/// registered, or when a format string fails to compile. The diagnostic
/// points at the failing definition's source offset when the recipe
/// carries one; otherwise a note names the definition.
pub fn register_recipe(
    ctx: &mut Context,
    recipe: &DialectRecipe,
    natives: &NativeRegistry,
) -> Result<Vec<Arc<CompiledOp>>> {
    let dialect_sym = ctx.symbol(&recipe.name);
    ensure_dialect(ctx, dialect_sym, recipe.summary.as_deref());

    for (name, variants) in &recipe.enums {
        register_enum(ctx, dialect_sym, name, variants);
    }
    for (item, kind, offset) in &recipe.param_kinds {
        register_param_kind(ctx, natives, item, kind)
            .map_err(|d| locate_definition(d, *offset, &recipe.name, item))?;
    }
    for (defs, is_type) in [(&recipe.typedefs, true), (&recipe.attrdefs, false)] {
        for def in defs.iter() {
            register_typedef(ctx, dialect_sym, def, is_type, natives)
                .map_err(|d| locate_definition(d, def.offset, &recipe.name, &def.name))?;
        }
    }
    let mut compiled_ops = Vec::with_capacity(recipe.ops.len());
    for op in &recipe.ops {
        let compiled = register_op(ctx, dialect_sym, op, natives).map_err(|d| {
            locate(d, op.offset).with_note(format!("in operation `{}.{}`", recipe.name, op.name))
        })?;
        compiled_ops.push(compiled);
    }
    Ok(compiled_ops)
}

/// Points `d` at a definition's source offset, when the recipe has one.
fn locate(d: Diagnostic, offset: Option<usize>) -> Diagnostic {
    match offset {
        Some(offset) => d.or_offset(offset),
        None => d,
    }
}

/// Points a definition's registration error at its source offset, or,
/// for a loaded recipe that has none, names `dialect.name` in a note.
fn locate_definition(
    d: Diagnostic,
    offset: Option<usize>,
    dialect: &str,
    name: &str,
) -> Diagnostic {
    match offset {
        Some(offset) => d.or_offset(offset),
        None => d.with_note(format!("in definition `{dialect}.{name}`")),
    }
}

/// Ensures the dialect exists in the registry, updating its summary.
fn ensure_dialect(ctx: &mut Context, dialect_sym: Symbol, summary: Option<&str>) {
    if ctx.registry().dialect(dialect_sym).is_none() {
        ctx.register_dialect(DialectInfo::new(dialect_sym));
    }
    if let Some(summary) = summary {
        if let Some(info) = ctx.registry_mut().dialect_mut(dialect_sym) {
            info.summary = summary.to_string();
        }
    }
}

fn register_enum(ctx: &mut Context, dialect_sym: Symbol, name: &str, variants: &[String]) {
    let name = ctx.symbol(name);
    let variants = variants.iter().map(|v| ctx.symbol(v)).collect();
    let info = EnumInfo { name, variants };
    ctx.registry_mut()
        .dialect_mut(dialect_sym)
        .expect("registered above")
        .add_enum(info);
}

fn register_param_kind(
    ctx: &mut Context,
    natives: &NativeRegistry,
    item_name: &str,
    kind_name: &str,
) -> Result<()> {
    let handler = natives.param_kind(kind_name).ok_or_else(|| {
        Diagnostic::new(format!(
            "native parameter kind `{kind_name}` is not registered \
             (required by TypeOrAttrParam `{item_name}`)"
        ))
    })?;
    let kind = ctx.symbol(kind_name);
    ctx.registry_mut().register_native_param(kind, handler);
    Ok(())
}

/// Registers one type/attribute definition: builds the [`CompiledParams`]
/// sharing `def`, and the optional declarative format, and adds the full
/// [`TypeDefInfo`].
fn register_typedef(
    ctx: &mut Context,
    dialect_sym: Symbol,
    def: &Arc<TypeOrAttrRecipe>,
    is_type: bool,
    natives: &NativeRegistry,
) -> Result<()> {
    let native_verifier = match &def.native_verifier {
        Some(name) => Some(natives.params_verifier(name).ok_or_else(|| {
            Diagnostic::new(format!(
                "native verifier `{name}` is not registered (required by `{}`)",
                def.name
            ))
        })?),
        None => None,
    };
    let uses_native_constraint = def.params.iter().any(|(_, c)| contains_native(c));
    let has_native_verifier = native_verifier.is_some() || uses_native_constraint;
    let verifier = Arc::new(CompiledParams::new(ctx, def.clone(), native_verifier));
    let syntax = match &def.format {
        Some(format) => Some(Arc::new(ParamsFormatSpec::compile(format, &def.params)?)
            as Arc<dyn irdl_ir::dialect::ParamsSyntax>),
        None => None,
    };
    let info = TypeDefInfo {
        name: ctx.symbol(&def.name),
        summary: def.summary.clone(),
        param_names: def.params.iter().map(|(p, _)| ctx.symbol(p)).collect(),
        param_kinds: def.params.iter().map(|(_, c)| classify_param(c)).collect(),
        verifier: Some(verifier),
        syntax,
        has_native_verifier,
    };
    let dinfo = ctx.registry_mut().dialect_mut(dialect_sym).expect("registered");
    if is_type {
        dinfo.add_type(info);
    } else {
        dinfo.add_attr(info);
    }
    Ok(())
}

/// Resolves one type or attribute definition into its recipe form.
fn resolve_typedef(
    ctx: &mut Context,
    natives: &NativeRegistry,
    scope: &DialectScope,
    def: &TypeAttrDef,
) -> Result<Arc<TypeOrAttrRecipe>> {
    let mut resolver = Resolver::new(ctx, natives, scope, &[]);
    let mut params = Vec::with_capacity(def.parameters.len());
    for param in &def.parameters {
        let constraint = resolver.resolve(&param.constraint).map_err(|d| {
            d.with_note(format!("in parameter `{}` of `{}`", param.name, def.name))
        })?;
        params.push((param.name.clone(), constraint));
    }
    Ok(Arc::new(TypeOrAttrRecipe {
        name: def.name.clone(),
        summary: def.summary.clone().unwrap_or_default(),
        params,
        native_verifier: def.native_verifier.clone(),
        format: def.format.clone(),
        offset: Some(def.span),
    }))
}

/// Resolves one operation definition into its recipe form (everything
/// registration needs, with no remaining AST references).
fn resolve_op(
    ctx: &mut Context,
    dialect_name: &str,
    scope: &DialectScope,
    def: &OpDef,
    natives: &NativeRegistry,
) -> Result<OpRecipe> {
    let var_names: Vec<String> = def.constraint_vars.iter().map(|v| v.name.clone()).collect();

    let mut resolver = Resolver::new(ctx, natives, scope, &var_names);
    let mut var_decls = Vec::with_capacity(def.constraint_vars.len());
    for var in &def.constraint_vars {
        var_decls.push(resolver.resolve(&var.constraint).map_err(|d| {
            d.with_note(format!("in constraint variable `{}`", var.name))
        })?);
    }
    let resolve_args = |resolver: &mut Resolver<'_>, args: &[ArgDef]| -> Result<Vec<ArgRecipe>> {
        args.iter()
            .map(|arg| {
                Ok(ArgRecipe {
                    name: arg.name.clone(),
                    constraint: resolver.resolve(&arg.constraint).map_err(|d| {
                        d.with_note(format!("in definition `{}`", arg.name))
                    })?,
                    variadicity: arg.variadicity,
                })
            })
            .collect()
    };
    let operands = resolve_args(&mut resolver, &def.operands)?;
    let results = resolve_args(&mut resolver, &def.results)?;

    let mut attributes = Vec::with_capacity(def.attributes.len());
    for attr in &def.attributes {
        let constraint = resolver.resolve(&attr.constraint).map_err(|d| {
            d.with_note(format!("in attribute `{}`", attr.name))
        })?;
        attributes.push((attr.name.clone(), constraint));
    }

    let mut regions = Vec::with_capacity(def.regions.len());
    for region in &def.regions {
        let args = match &region.arguments {
            Some(arguments) => {
                // Region arguments have no segment-sizes attribute to
                // disambiguate several variadic groups (unlike operands and
                // results, paper §4.6).
                let variadic = arguments
                    .iter()
                    .filter(|a| !matches!(a.variadicity, Variadicity::Single))
                    .count();
                if variadic > 1 {
                    return Err(Diagnostic::at(
                        region.span,
                        format!(
                            "region `{}` declares {variadic} variadic arguments; at \
                             most one is supported",
                            region.name
                        ),
                    ));
                }
                Some(resolve_args(&mut resolver, arguments)?)
            }
            None => None,
        };
        // Terminator references resolve to `dialect.name` here; the recipe
        // carries the resolved pair.
        let terminator = region.terminator.as_ref().map(|name| match name.split_once('.') {
            Some((d, n)) => (d.to_string(), n.to_string()),
            None => (dialect_name.to_string(), name.clone()),
        });
        regions.push(RegionRecipe { name: region.name.clone(), args, terminator });
    }

    Ok(OpRecipe {
        name: def.name.clone(),
        summary: def.summary.clone().unwrap_or_default(),
        var_names,
        var_decls,
        operands,
        results,
        attributes,
        regions,
        successors: def.successors.as_ref().map(Vec::len),
        native_verifier: def.native_verifier.clone(),
        format: def.format.clone(),
        offset: Some(def.span),
    })
}

/// Registers one operation definition: builds the [`CompiledOp`] sharing
/// `def`, its optional declarative format, and the Figure 11/12
/// declaration statistics, and adds the [`OpInfo`].
fn register_op(
    ctx: &mut Context,
    dialect_sym: Symbol,
    def: &Arc<OpRecipe>,
    natives: &NativeRegistry,
) -> Result<Arc<CompiledOp>> {
    let native_verifier = match &def.native_verifier {
        Some(name) => Some(natives.op_verifier(name).ok_or_else(|| {
            Diagnostic::new(format!("native op verifier `{name}` is not registered"))
        })?),
        None => None,
    };

    // Figure 11/12 statistics.
    let mut native_local = Vec::new();
    for c in def
        .operands
        .iter()
        .map(|a| &a.constraint)
        .chain(def.results.iter().map(|a| &a.constraint))
        .chain(def.attributes.iter().map(|(_, c)| c))
        .chain(def.regions.iter().flat_map(|r| r.args.iter().flatten().map(|a| &a.constraint)))
        .chain(def.var_decls.iter())
    {
        collect_native_names(c, &mut native_local);
    }
    native_local.sort();
    native_local.dedup();

    let variadic = |args: &[ArgRecipe]| {
        args.iter().filter(|a| !matches!(a.variadicity, Variadicity::Single)).count() as u32
    };
    let decl = OpDeclStats {
        operand_defs: def.operands.len() as u32,
        variadic_operands: variadic(&def.operands),
        result_defs: def.results.len() as u32,
        variadic_results: variadic(&def.results),
        attr_defs: def.attributes.len() as u32,
        region_defs: def.regions.len() as u32,
        successor_defs: def.successors.unwrap_or(0) as u32,
        native_local_constraints: native_local,
        has_native_verifier: def.native_verifier.is_some(),
    };

    // Lower the constraints into the op's program at registration time;
    // the compiled op is itself the registered verifier.
    let compiled = Arc::new(CompiledOp::new(ctx, dialect_sym, def.clone(), native_verifier));

    let syntax = match &def.format {
        Some(format) => Some(Arc::new(FormatSpec::compile(format, compiled.clone())?)
            as Arc<dyn irdl_ir::OpSyntax>),
        None => None,
    };

    let info = OpInfo {
        name: compiled.op_name().name,
        summary: def.summary.clone(),
        is_terminator: def.successors.is_some(),
        verifier: Some(compiled.clone()),
        syntax,
        decl,
    };
    ctx.registry_mut()
        .dialect_mut(dialect_sym)
        .expect("registered")
        .add_op(info);
    Ok(compiled)
}

/// Classifies a parameter constraint for the Figure 8 analysis.
pub fn classify_param(constraint: &Constraint) -> ParamKind {
    match constraint {
        Constraint::AnyType
        | Constraint::ExactType(_)
        | Constraint::BaseType { .. }
        | Constraint::ParametricType { .. }
        | Constraint::Class(_) => ParamKind::Type,
        Constraint::Int(_) | Constraint::IntLiteral { .. } => ParamKind::Integer,
        Constraint::FloatAttr(_) => ParamKind::Float,
        Constraint::StringAny | Constraint::StringLiteral(_) => ParamKind::String,
        Constraint::EnumAny { .. } | Constraint::EnumVariant { .. } => ParamKind::Enum,
        Constraint::LocationAttr => ParamKind::Location,
        Constraint::TypeIdAttr => ParamKind::TypeId,
        Constraint::ArrayAny | Constraint::ArrayOf(_) | Constraint::ArrayExact(_) => {
            ParamKind::Array
        }
        Constraint::NativeParam { .. } => ParamKind::Native("native-param".to_string()),
        Constraint::And(parts) => parts
            .iter()
            .find(|p| !matches!(p, Constraint::Native { .. }))
            .map(classify_param)
            .unwrap_or(ParamKind::Attr),
        Constraint::AnyOf(parts) => {
            let kinds: Vec<ParamKind> = parts.iter().map(classify_param).collect();
            match kinds.first() {
                Some(first) if kinds.iter().all(|k| k == first) => first.clone(),
                _ => ParamKind::Attr,
            }
        }
        Constraint::Not(inner) => classify_param(inner),
        _ => ParamKind::Attr,
    }
}

/// Collects the names of native predicates used inside `constraint`
/// (Figure 12's census of C++-requiring local constraints).
pub fn collect_native_names(constraint: &Constraint, out: &mut Vec<String>) {
    match constraint {
        Constraint::Native { name, .. } => out.push(name.clone()),
        Constraint::AnyOf(parts) | Constraint::And(parts) | Constraint::ArrayExact(parts) => {
            for p in parts {
                collect_native_names(p, out);
            }
        }
        Constraint::Not(inner) | Constraint::ArrayOf(inner) => {
            collect_native_names(inner, out)
        }
        Constraint::ParametricType { params, .. } | Constraint::ParametricAttr { params, .. } => {
            for p in params {
                collect_native_names(p, out);
            }
        }
        _ => {}
    }
}

fn contains_native(constraint: &Constraint) -> bool {
    let mut names = Vec::new();
    collect_native_names(constraint, &mut names);
    !names.is_empty()
}
