//! Compiling IRDL definitions into registered dialects.
//!
//! [`register_dialects`] is the main entry point: parse → collect scope →
//! register enums and native parameter kinds → register type/attribute
//! definitions (with synthesized parameter verifiers) → register operations
//! (with synthesized operation verifiers and declarative formats). After it
//! returns, the dialect is live on the [`Context`]: IR using it parses,
//! prints, and verifies with no host-language code generation — the paper's
//! "register a new dialect by providing an IRDL specification file instead
//! of writing, compiling, and linking several complex C++ files" (§3).
//!
//! Compilation is split into two halves:
//!
//! 1. **Resolution** (frontend): the AST is resolved against the dialect
//!    scope into a [`DialectRecipe`] — names, resolved constraints, format
//!    strings, native hook names.
//! 2. **Registration** ([`register_recipe`] and the helpers it shares with
//!    the compile path): a recipe is lowered onto a context — constraint
//!    programs, format specs, and verifier objects are built and added to
//!    the registry.
//!
//! The registration half has no dependency on the frontend, which is what
//! makes persisted dialect artifacts possible: a recipe decoded from a
//! bundle file ([`crate::artifact`]) registers through exactly the same
//! code path as one freshly compiled from source.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use irdl_ir::diag::{Diagnostic, Result};
use irdl_ir::dialect::{DialectInfo, EnumInfo, OpDeclStats, OpInfo, ParamKind, TypeDefInfo};
use irdl_ir::{Context, OpName, Symbol};

use crate::artifact::{ArgRecipe, DialectRecipe, OpRecipe, RegionRecipe, TypeOrAttrRecipe};
use crate::ast::*;
use crate::constraint::Constraint;
use crate::format::FormatSpec;
use crate::native::NativeRegistry;
use crate::parser::parse_irdl;
use crate::resolve::{DialectScope, Resolver};
use crate::verifier::{CompiledArg, CompiledOp, CompiledParams, CompiledRegion, OpDecl};

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

/// Compiles one dialect definition into the context registry.
///
/// If a dialect with the same name already exists (e.g. `builtin`), the new
/// definitions are merged into it.
///
/// # Errors
///
/// Returns the first resolution or compilation diagnostic.
pub fn compile_dialect(
    ctx: &mut Context,
    dialect: &DialectDef,
    natives: &NativeRegistry,
) -> Result<()> {
    compile_dialect_collecting(ctx, dialect, natives).map(|_| ())
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

/// Like [`compile_dialect`], additionally returning the compiled form of
/// every operation — the structured artifact consumed by IR generation
/// ([`crate::genir`]) and other tooling.
///
/// # Errors
///
/// Returns the first resolution or compilation diagnostic.
pub fn compile_dialect_collecting(
    ctx: &mut Context,
    dialect: &DialectDef,
    natives: &NativeRegistry,
) -> Result<Vec<Arc<CompiledOp>>> {
    compile_dialect_to_recipe(ctx, dialect, natives).map(|(_, ops)| ops)
}

/// Like [`compile_dialect_collecting`], additionally returning the
/// [`DialectRecipe`] — the serializable description consumed by
/// [`crate::DialectBundle::save`].
///
/// # Errors
///
/// Returns the first resolution or compilation diagnostic.
pub fn compile_dialect_to_recipe(
    ctx: &mut Context,
    dialect: &DialectDef,
    natives: &NativeRegistry,
) -> Result<(DialectRecipe, Vec<Arc<CompiledOp>>)> {
    DIALECT_COMPILES.fetch_add(1, Ordering::Relaxed);
    let scope = DialectScope::from_ast(dialect)?;
    let dialect_sym = ctx.symbol(&dialect.name);
    ensure_dialect(ctx, dialect_sym, dialect.summary.as_deref());

    let mut recipe = DialectRecipe {
        name: dialect.name.clone(),
        summary: dialect.summary.clone(),
        enums: Vec::new(),
        param_kinds: Vec::new(),
        typedefs: Vec::new(),
        attrdefs: Vec::new(),
        ops: Vec::new(),
    };

    // Pass 1: enums, native parameter kinds, and type/attribute stubs, so
    // every in-dialect reference resolves regardless of declaration order.
    for item in &dialect.items {
        match item {
            Item::Enum(def) => {
                register_enum(ctx, dialect_sym, &def.name, &def.variants);
                recipe.enums.push((def.name.clone(), def.variants.clone()));
            }
            Item::TypeOrAttrParam(def) => {
                register_param_kind(ctx, natives, &def.name, &def.native_kind)
                    .map_err(|d| d.or_offset(def.span))?;
                recipe.param_kinds.push((def.name.clone(), def.native_kind.clone()));
            }
            Item::Type(def) | Item::Attribute(def) => {
                let param_names: Vec<String> =
                    def.parameters.iter().map(|p| p.name.clone()).collect();
                register_stub(
                    ctx,
                    dialect_sym,
                    &def.name,
                    def.summary.as_deref().unwrap_or_default(),
                    &param_names,
                    matches!(item, Item::Type(_)),
                );
            }
            _ => {}
        }
    }

    // Pass 2: compile type/attribute parameter constraints and verifiers.
    for item in &dialect.items {
        let (def, is_type) = match item {
            Item::Type(def) => (def, true),
            Item::Attribute(def) => (def, false),
            _ => continue,
        };
        let mut resolver = Resolver::new(ctx, natives, &scope, &[]);
        let mut params = Vec::with_capacity(def.parameters.len());
        for param in &def.parameters {
            let constraint = resolver.resolve(&param.constraint).map_err(|d| {
                d.with_note(format!("in parameter `{}` of `{}`", param.name, def.name))
            })?;
            params.push((param.name.clone(), constraint));
        }
        let def_recipe = TypeOrAttrRecipe {
            name: def.name.clone(),
            summary: def.summary.clone().unwrap_or_default(),
            params,
            native_verifier: def.native_verifier.clone(),
            format: def.format.clone(),
        };
        register_typedef(ctx, dialect_sym, &def_recipe, is_type, natives)
            .map_err(|d| d.or_offset(def.span))?;
        if is_type {
            recipe.typedefs.push(def_recipe);
        } else {
            recipe.attrdefs.push(def_recipe);
        }
    }

    // Pass 3: compile operations.
    let mut compiled_ops = Vec::new();
    for item in &dialect.items {
        let Item::Operation(def) = item else { continue };
        let note = || format!("in operation `{}.{}`", dialect.name, def.name);
        let op_recipe = compile_op_recipe(ctx, &dialect.name, &scope, def, natives)
            .map_err(|d| d.with_note(note()))?;
        let compiled = register_op(ctx, dialect_sym, &op_recipe, natives)
            .map_err(|d| d.or_offset(def.span).with_note(note()))?;
        recipe.ops.push(op_recipe);
        compiled_ops.push(compiled);
    }
    Ok((recipe, compiled_ops))
}

/// Registers a persisted [`DialectRecipe`] on `ctx` — the frontend-free
/// cold-start path. No IRDL parsing or constraint resolution happens;
/// native hooks are re-resolved from `natives` by name, and constraint /
/// format programs are lowered against `ctx` exactly as they are when
/// compiling from source.
///
/// # Errors
///
/// Returns a diagnostic when a native hook the recipe names is not
/// registered, or when a persisted format string fails to compile.
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
    for (item, kind) in &recipe.param_kinds {
        register_param_kind(ctx, natives, item, kind)?;
    }
    for (defs, is_type) in [(&recipe.typedefs, true), (&recipe.attrdefs, false)] {
        for def in defs.iter() {
            let param_names: Vec<String> =
                def.params.iter().map(|(name, _)| name.clone()).collect();
            register_stub(ctx, dialect_sym, &def.name, &def.summary, &param_names, is_type);
        }
    }
    for (defs, is_type) in [(&recipe.typedefs, true), (&recipe.attrdefs, false)] {
        for def in defs.iter() {
            register_typedef(ctx, dialect_sym, def, is_type, natives)
                .map_err(|d| d.with_note(format!("in definition `{}.{}`", recipe.name, def.name)))?;
        }
    }
    let mut compiled_ops = Vec::with_capacity(recipe.ops.len());
    for op in &recipe.ops {
        let compiled = register_op(ctx, dialect_sym, op, natives).map_err(|d| {
            d.with_note(format!("in operation `{}.{}`", recipe.name, op.name))
        })?;
        compiled_ops.push(compiled);
    }
    Ok(compiled_ops)
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

fn register_stub(
    ctx: &mut Context,
    dialect_sym: Symbol,
    name: &str,
    summary: &str,
    param_names: &[String],
    is_type: bool,
) {
    let name = ctx.symbol(name);
    let param_names = param_names.iter().map(|p| ctx.symbol(p)).collect();
    let stub = TypeDefInfo {
        name,
        summary: summary.to_string(),
        param_names,
        param_kinds: Vec::new(),
        verifier: None,
        syntax: None,
        has_native_verifier: false,
    };
    let info = ctx.registry_mut().dialect_mut(dialect_sym).expect("registered");
    if is_type {
        info.add_type(stub);
    } else {
        info.add_attr(stub);
    }
}

/// Registers one resolved type/attribute definition: builds the compiled
/// parameter record, the flat verifier program, and the optional
/// declarative format, and adds the full [`TypeDefInfo`].
fn register_typedef(
    ctx: &mut Context,
    dialect_sym: Symbol,
    def: &TypeOrAttrRecipe,
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
    let param_kinds: Vec<ParamKind> =
        def.params.iter().map(|(_, c)| classify_param(c)).collect();
    let has_native_verifier = native_verifier.is_some() || uses_native_constraint;
    let param_name_strs: Vec<String> =
        def.params.iter().map(|(name, _)| name.clone()).collect();
    let constraints: Vec<Constraint> = def.params.iter().map(|(_, c)| c.clone()).collect();
    let verifier = Arc::new(CompiledParams::new(
        ctx,
        param_name_strs.clone(),
        &constraints,
        native_verifier,
    ));
    let name = ctx.symbol(&def.name);
    let param_names = def.params.iter().map(|(p, _)| ctx.symbol(p)).collect();
    let syntax = match &def.format {
        Some(format) => {
            Some(Arc::new(crate::format::ParamsFormatSpec::compile(format, &param_name_strs)?)
                as Arc<dyn irdl_ir::dialect::ParamsSyntax>)
        }
        None => None,
    };
    let info = TypeDefInfo {
        name,
        summary: def.summary.clone(),
        param_names,
        param_kinds,
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

/// Resolves one operation definition into its recipe form (everything
/// registration needs, with no remaining AST references).
fn compile_op_recipe(
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
        // Terminator references resolve to `dialect.name` here; persisted
        // recipes carry the resolved pair.
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
    })
}

fn compiled_args(args: &[ArgRecipe]) -> Vec<CompiledArg> {
    args.iter()
        .map(|arg| CompiledArg {
            name: arg.name.clone(),
            constraint: arg.constraint.clone(),
            variadicity: arg.variadicity,
        })
        .collect()
}

/// Registers one resolved operation definition: builds the [`CompiledOp`],
/// its flat verifier program, the optional declarative format, and the
/// Figure 11/12 declaration statistics, and adds the [`OpInfo`].
fn register_op(
    ctx: &mut Context,
    dialect_sym: Symbol,
    def: &OpRecipe,
    natives: &NativeRegistry,
) -> Result<Arc<CompiledOp>> {
    let attributes: Vec<(Symbol, Constraint)> = def
        .attributes
        .iter()
        .map(|(key, constraint)| (ctx.symbol(key), constraint.clone()))
        .collect();

    let regions: Vec<CompiledRegion> = def
        .regions
        .iter()
        .map(|region| CompiledRegion {
            name: region.name.clone(),
            args: region.args.as_deref().map(compiled_args),
            terminator: region.terminator.as_ref().map(|(dialect, name)| {
                let dialect = ctx.symbol(dialect);
                let name = ctx.symbol(name);
                OpName { dialect, name }
            }),
        })
        .collect();

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

    let decl = OpDeclStats {
        operand_defs: def.operands.len() as u32,
        variadic_operands: def
            .operands
            .iter()
            .filter(|a| !matches!(a.variadicity, Variadicity::Single))
            .count() as u32,
        result_defs: def.results.len() as u32,
        variadic_results: def
            .results
            .iter()
            .filter(|a| !matches!(a.variadicity, Variadicity::Single))
            .count() as u32,
        attr_defs: def.attributes.len() as u32,
        region_defs: def.regions.len() as u32,
        successor_defs: def.successors.unwrap_or(0) as u32,
        native_local_constraints: native_local,
        has_native_verifier: def.native_verifier.is_some(),
    };

    let name_sym = ctx.symbol(&def.name);
    // Lower the constraints into the op's program at registration time;
    // the compiled op is itself the registered verifier.
    let op_decl = OpDecl {
        name: OpName { dialect: dialect_sym, name: name_sym },
        var_names: def.var_names.clone(),
        var_decls: def.var_decls.clone(),
        operands: compiled_args(&def.operands),
        results: compiled_args(&def.results),
        attributes,
        regions,
        successors: def.successors,
        native_verifier,
    };
    let compiled = Arc::new(CompiledOp::new(ctx, op_decl));

    let syntax = match &def.format {
        Some(format) => Some(Arc::new(FormatSpec::compile(ctx, format, compiled.clone())?)
            as Arc<dyn irdl_ir::OpSyntax>),
        None => None,
    };

    let info = OpInfo {
        name: name_sym,
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
