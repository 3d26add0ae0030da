//! Dialect recipes and their persisted form.
//!
//! A [`DialectRecipe`] is the one declaration record of a compiled
//! dialect: every name, resolved [`Constraint`], format string, and native
//! hook *name* needed to register the dialect on a [`Context`] without
//! parsing IRDL source or running the resolver. The resolver produces it
//! from source; [`crate::compile::register_recipe`] is the only code that
//! registers one, and the registered verifiers share its [`OpRecipe`]s and
//! [`TypeOrAttrRecipe`]s rather than copying them. Recipes are what
//! [`crate::DialectBundle::save`] persists (magic `IRDB`) and what
//! [`crate::DialectBundle::load`] rehydrates — the cold-start path skips
//! the frontend entirely and goes straight to registration, which lowers
//! the constraint programs against the new context.
//!
//! Native hooks (predicates, verifiers, parameter kinds) are closures and
//! cannot be serialized; recipes store their registered *names* and
//! [`decode_bundle`] re-resolves them from the caller's
//! [`NativeRegistry`], failing with a diagnostic when a hook the artifact
//! needs is not registered.
//!
//! The wire format reuses the `irdl-ir` bytecode primitives: a string
//! table + type/attribute constant pool (encoded against the bundle's
//! template context), then one `RECIPES` section. See the crate-level
//! docs of [`irdl_ir::bytecode`] for the framing and versioning rules.

use std::sync::Arc;

use irdl_ir::bytecode::{
    float_kind_from, float_kind_tag, read_sections, ByteReader, ByteWriter, DecodedPool, Pool,
    SECTION_POOL, SECTION_STRINGS, VERSION,
};
use irdl_ir::diag::{Diagnostic, Result};
use irdl_ir::Context;

use crate::ast::{IntKind, Variadicity};
use crate::constraint::{Constraint, TypeClass};
use crate::native::NativeRegistry;

/// Magic bytes of a dialect-artifact bundle file (`.irdlbc`).
pub const BUNDLE_MAGIC: [u8; 4] = *b"IRDB";
/// Section tag of the recipes payload.
pub const SECTION_RECIPES: u8 = 4;

/// The sections of a bundle file, in the order they must come.
const BUNDLE_SECTIONS: [(u8, &str); 3] =
    [(SECTION_STRINGS, "strings"), (SECTION_POOL, "pool"), (SECTION_RECIPES, "recipes")];

/// Returns `true` when `bytes` starts with the bundle artifact magic.
pub fn is_bundle_bytecode(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == BUNDLE_MAGIC
}

/// Everything needed to register one compiled dialect without the IRDL
/// frontend. Constraints are fully resolved; native hooks appear by name.
#[derive(Debug, Clone)]
pub struct DialectRecipe {
    /// Dialect name.
    pub name: String,
    /// Documentation summary, if any.
    pub summary: Option<String>,
    /// Enum definitions: `(name, variants)`.
    pub enums: Vec<(String, Vec<String>)>,
    /// `TypeOrAttrParam` items: `(item name, native kind name, source
    /// offset)`.
    pub param_kinds: Vec<(String, String, Option<usize>)>,
    /// Type definitions.
    pub typedefs: Vec<Arc<TypeOrAttrRecipe>>,
    /// Attribute definitions.
    pub attrdefs: Vec<Arc<TypeOrAttrRecipe>>,
    /// Operation definitions.
    pub ops: Vec<Arc<OpRecipe>>,
}

/// A compiled type or attribute definition.
#[derive(Debug, Clone, Default)]
pub struct TypeOrAttrRecipe {
    /// Definition name within the dialect.
    pub name: String,
    /// Documentation summary (empty when absent).
    pub summary: String,
    /// Named, resolved parameter constraints.
    pub params: Vec<(String, Constraint)>,
    /// Registered name of the native params verifier, if any.
    pub native_verifier: Option<String>,
    /// Declarative parameter format source, if any.
    pub format: Option<String>,
    /// Byte offset of the definition in its IRDL source, which locates
    /// registration errors. Not persisted: `None` after a load.
    pub offset: Option<usize>,
}

/// A compiled operand/result/region-argument definition.
#[derive(Debug, Clone)]
pub struct ArgRecipe {
    /// Declared name.
    pub name: String,
    /// Resolved element constraint.
    pub constraint: Constraint,
    /// Single, variadic, or optional.
    pub variadicity: Variadicity,
}

/// A compiled region definition.
#[derive(Debug, Clone)]
pub struct RegionRecipe {
    /// Region name.
    pub name: String,
    /// Entry-block argument constraints (`None` = unconstrained).
    pub args: Option<Vec<ArgRecipe>>,
    /// Required terminator as `(dialect, op name)`, already resolved.
    pub terminator: Option<(String, String)>,
}

/// A compiled operation definition.
#[derive(Debug, Clone, Default)]
pub struct OpRecipe {
    /// Operation name within the dialect.
    pub name: String,
    /// Documentation summary (empty when absent).
    pub summary: String,
    /// Constraint variable names.
    pub var_names: Vec<String>,
    /// Constraint variable declarations (parallel to `var_names`).
    pub var_decls: Vec<Constraint>,
    /// Operand definitions.
    pub operands: Vec<ArgRecipe>,
    /// Result definitions.
    pub results: Vec<ArgRecipe>,
    /// Attribute definitions: `(key, constraint)`.
    pub attributes: Vec<(String, Constraint)>,
    /// Region definitions.
    pub regions: Vec<RegionRecipe>,
    /// Successor count; `Some` also marks the op a terminator.
    pub successors: Option<usize>,
    /// Registered name of the native op verifier, if any.
    pub native_verifier: Option<String>,
    /// Declarative assembly format source, if any.
    pub format: Option<String>,
    /// Byte offset of the definition in its IRDL source, which locates
    /// registration errors. Not persisted: `None` after a load.
    pub offset: Option<usize>,
}

// ---------------------------------------------------------------------------
// Constraint codec
// ---------------------------------------------------------------------------

const C_ANY: u8 = 0;
const C_ANY_TYPE: u8 = 1;
const C_ANY_ATTR: u8 = 2;
const C_EXACT_TYPE: u8 = 3;
const C_BASE_TYPE: u8 = 4;
const C_PARAMETRIC_TYPE: u8 = 5;
const C_CLASS: u8 = 6;
const C_EXACT_ATTR: u8 = 7;
const C_BASE_ATTR: u8 = 8;
const C_PARAMETRIC_ATTR: u8 = 9;
const C_INT: u8 = 10;
const C_INT_LITERAL: u8 = 11;
const C_FLOAT_ATTR: u8 = 12;
const C_STRING_ANY: u8 = 13;
const C_STRING_LITERAL: u8 = 14;
const C_BOOL_ATTR: u8 = 15;
const C_UNIT_ATTR: u8 = 16;
const C_SYMBOL_REF_ATTR: u8 = 17;
const C_LOCATION_ATTR: u8 = 18;
const C_TYPE_ID_ATTR: u8 = 19;
const C_ARRAY_ANY: u8 = 20;
const C_ARRAY_OF: u8 = 21;
const C_ARRAY_EXACT: u8 = 22;
const C_ENUM_ANY: u8 = 23;
const C_ENUM_VARIANT: u8 = 24;
const C_NATIVE_PARAM: u8 = 25;
const C_ANY_OF: u8 = 26;
const C_AND: u8 = 27;
const C_NOT: u8 = 28;
const C_VAR: u8 = 29;
const C_NATIVE: u8 = 30;

/// Nesting bound for constraint decoding: real constraints are shallow;
/// anything deeper is corrupt input trying to exhaust the stack.
const MAX_CONSTRAINT_DEPTH: u32 = 256;

fn class_tag(class: TypeClass) -> u8 {
    match class {
        TypeClass::AnyInteger => 0,
        TypeClass::AnyFloat => 1,
        TypeClass::Index => 2,
        TypeClass::AnyVector => 3,
        TypeClass::AnyTensor => 4,
        TypeClass::AnyMemRef => 5,
        TypeClass::AnyFunction => 6,
    }
}

fn class_from(tag: u8) -> Option<TypeClass> {
    match tag {
        0 => Some(TypeClass::AnyInteger),
        1 => Some(TypeClass::AnyFloat),
        2 => Some(TypeClass::Index),
        3 => Some(TypeClass::AnyVector),
        4 => Some(TypeClass::AnyTensor),
        5 => Some(TypeClass::AnyMemRef),
        6 => Some(TypeClass::AnyFunction),
        _ => None,
    }
}

fn write_int_kind(w: &mut ByteWriter, kind: IntKind) {
    w.varint(u64::from(kind.width));
    w.u8(u8::from(kind.unsigned));
}

fn read_int_kind(r: &mut ByteReader<'_>) -> Result<IntKind> {
    let width = r.varint()? as u32;
    let unsigned = r.u8()? != 0;
    if !matches!(width, 8 | 16 | 32 | 64) {
        return Err(r.error(format!("invalid integer parameter width {width}")));
    }
    Ok(IntKind { width, unsigned })
}

/// Encodes one resolved constraint against `pool`.
pub fn encode_constraint(
    ctx: &Context,
    pool: &mut Pool,
    w: &mut ByteWriter,
    c: &Constraint,
) {
    match c {
        Constraint::Any => w.u8(C_ANY),
        Constraint::AnyType => w.u8(C_ANY_TYPE),
        Constraint::AnyAttr => w.u8(C_ANY_ATTR),
        Constraint::ExactType(ty) => {
            w.u8(C_EXACT_TYPE);
            let id = pool.type_id(ctx, *ty);
            w.varint(u64::from(id));
        }
        Constraint::BaseType { dialect, name } => {
            w.u8(C_BASE_TYPE);
            let d = pool.symbol_id(ctx, *dialect);
            let n = pool.symbol_id(ctx, *name);
            w.varint(u64::from(d));
            w.varint(u64::from(n));
        }
        Constraint::ParametricType { dialect, name, params } => {
            w.u8(C_PARAMETRIC_TYPE);
            let d = pool.symbol_id(ctx, *dialect);
            let n = pool.symbol_id(ctx, *name);
            w.varint(u64::from(d));
            w.varint(u64::from(n));
            w.varint(params.len() as u64);
            for p in params {
                encode_constraint(ctx, pool, w, p);
            }
        }
        Constraint::Class(class) => {
            w.u8(C_CLASS);
            w.u8(class_tag(*class));
        }
        Constraint::ExactAttr(attr) => {
            w.u8(C_EXACT_ATTR);
            let id = pool.attr_id(ctx, *attr);
            w.varint(u64::from(id));
        }
        Constraint::BaseAttr { dialect, name } => {
            w.u8(C_BASE_ATTR);
            let d = pool.symbol_id(ctx, *dialect);
            let n = pool.symbol_id(ctx, *name);
            w.varint(u64::from(d));
            w.varint(u64::from(n));
        }
        Constraint::ParametricAttr { dialect, name, params } => {
            w.u8(C_PARAMETRIC_ATTR);
            let d = pool.symbol_id(ctx, *dialect);
            let n = pool.symbol_id(ctx, *name);
            w.varint(u64::from(d));
            w.varint(u64::from(n));
            w.varint(params.len() as u64);
            for p in params {
                encode_constraint(ctx, pool, w, p);
            }
        }
        Constraint::Int(kind) => {
            w.u8(C_INT);
            write_int_kind(w, *kind);
        }
        Constraint::IntLiteral { value, kind } => {
            w.u8(C_INT_LITERAL);
            w.zigzag128(*value);
            write_int_kind(w, *kind);
        }
        Constraint::FloatAttr(kind) => {
            w.u8(C_FLOAT_ATTR);
            match kind {
                Some(kind) => {
                    w.u8(1);
                    w.u8(float_kind_tag(*kind));
                }
                None => w.u8(0),
            }
        }
        Constraint::StringAny => w.u8(C_STRING_ANY),
        Constraint::StringLiteral(s) => {
            w.u8(C_STRING_LITERAL);
            let id = pool.str_id(s);
            w.varint(u64::from(id));
        }
        Constraint::BoolAttr => w.u8(C_BOOL_ATTR),
        Constraint::UnitAttr => w.u8(C_UNIT_ATTR),
        Constraint::SymbolRefAttr => w.u8(C_SYMBOL_REF_ATTR),
        Constraint::LocationAttr => w.u8(C_LOCATION_ATTR),
        Constraint::TypeIdAttr => w.u8(C_TYPE_ID_ATTR),
        Constraint::ArrayAny => w.u8(C_ARRAY_ANY),
        Constraint::ArrayOf(inner) => {
            w.u8(C_ARRAY_OF);
            encode_constraint(ctx, pool, w, inner);
        }
        Constraint::ArrayExact(items) => {
            w.u8(C_ARRAY_EXACT);
            w.varint(items.len() as u64);
            for item in items {
                encode_constraint(ctx, pool, w, item);
            }
        }
        Constraint::EnumAny { dialect, name } => {
            w.u8(C_ENUM_ANY);
            let d = pool.symbol_id(ctx, *dialect);
            let n = pool.symbol_id(ctx, *name);
            w.varint(u64::from(d));
            w.varint(u64::from(n));
        }
        Constraint::EnumVariant { dialect, name, variant } => {
            w.u8(C_ENUM_VARIANT);
            for sym in [dialect, name, variant] {
                let id = pool.symbol_id(ctx, *sym);
                w.varint(u64::from(id));
            }
        }
        Constraint::NativeParam { kind } => {
            w.u8(C_NATIVE_PARAM);
            let id = pool.symbol_id(ctx, *kind);
            w.varint(u64::from(id));
        }
        Constraint::AnyOf(parts) => {
            w.u8(C_ANY_OF);
            w.varint(parts.len() as u64);
            for p in parts {
                encode_constraint(ctx, pool, w, p);
            }
        }
        Constraint::And(parts) => {
            w.u8(C_AND);
            w.varint(parts.len() as u64);
            for p in parts {
                encode_constraint(ctx, pool, w, p);
            }
        }
        Constraint::Not(inner) => {
            w.u8(C_NOT);
            encode_constraint(ctx, pool, w, inner);
        }
        Constraint::Var(index) => {
            w.u8(C_VAR);
            w.varint(u64::from(*index));
        }
        Constraint::Native { name, .. } => {
            // The predicate is a closure: persist the registered name, let
            // the loader re-resolve it.
            w.u8(C_NATIVE);
            let id = pool.str_id(name);
            w.varint(u64::from(id));
        }
    }
}

/// Decodes one constraint, re-resolving native predicates by name from
/// `natives`.
pub fn decode_constraint(
    ctx: &mut Context,
    pool: &mut DecodedPool,
    natives: &NativeRegistry,
    r: &mut ByteReader<'_>,
) -> Result<Constraint> {
    decode_constraint_at(ctx, pool, natives, r, 0)
}

fn decode_constraint_list(
    ctx: &mut Context,
    pool: &mut DecodedPool,
    natives: &NativeRegistry,
    r: &mut ByteReader<'_>,
    depth: u32,
) -> Result<Vec<Constraint>> {
    let n = r.count(1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_constraint_at(ctx, pool, natives, r, depth)?);
    }
    Ok(out)
}

fn decode_constraint_at(
    ctx: &mut Context,
    pool: &mut DecodedPool,
    natives: &NativeRegistry,
    r: &mut ByteReader<'_>,
    depth: u32,
) -> Result<Constraint> {
    if depth > MAX_CONSTRAINT_DEPTH {
        return Err(r.error("constraint nesting exceeds the decoder limit"));
    }
    let depth = depth + 1;
    Ok(match r.u8()? {
        C_ANY => Constraint::Any,
        C_ANY_TYPE => Constraint::AnyType,
        C_ANY_ATTR => Constraint::AnyAttr,
        C_EXACT_TYPE => Constraint::ExactType(pool.body_type(r)?),
        C_BASE_TYPE => {
            let dialect = pool.symbol(ctx, r)?;
            let name = pool.symbol(ctx, r)?;
            Constraint::BaseType { dialect, name }
        }
        C_PARAMETRIC_TYPE => {
            let dialect = pool.symbol(ctx, r)?;
            let name = pool.symbol(ctx, r)?;
            let params = decode_constraint_list(ctx, pool, natives, r, depth)?;
            Constraint::ParametricType { dialect, name, params }
        }
        C_CLASS => Constraint::Class(
            class_from(r.u8()?).ok_or_else(|| r.error("invalid type class tag"))?,
        ),
        C_EXACT_ATTR => Constraint::ExactAttr(pool.body_attr(r)?),
        C_BASE_ATTR => {
            let dialect = pool.symbol(ctx, r)?;
            let name = pool.symbol(ctx, r)?;
            Constraint::BaseAttr { dialect, name }
        }
        C_PARAMETRIC_ATTR => {
            let dialect = pool.symbol(ctx, r)?;
            let name = pool.symbol(ctx, r)?;
            let params = decode_constraint_list(ctx, pool, natives, r, depth)?;
            Constraint::ParametricAttr { dialect, name, params }
        }
        C_INT => Constraint::Int(read_int_kind(r)?),
        C_INT_LITERAL => {
            let value = r.zigzag128()?;
            let kind = read_int_kind(r)?;
            Constraint::IntLiteral { value, kind }
        }
        C_FLOAT_ATTR => {
            let kind = match r.u8()? {
                0 => None,
                1 => Some(
                    float_kind_from(r.u8()?).ok_or_else(|| r.error("invalid float kind tag"))?,
                ),
                _ => return Err(r.error("invalid option tag")),
            };
            Constraint::FloatAttr(kind)
        }
        C_STRING_ANY => Constraint::StringAny,
        C_STRING_LITERAL => Constraint::StringLiteral(pool.string(r)?.to_string()),
        C_BOOL_ATTR => Constraint::BoolAttr,
        C_UNIT_ATTR => Constraint::UnitAttr,
        C_SYMBOL_REF_ATTR => Constraint::SymbolRefAttr,
        C_LOCATION_ATTR => Constraint::LocationAttr,
        C_TYPE_ID_ATTR => Constraint::TypeIdAttr,
        C_ARRAY_ANY => Constraint::ArrayAny,
        C_ARRAY_OF => {
            Constraint::ArrayOf(Box::new(decode_constraint_at(ctx, pool, natives, r, depth)?))
        }
        C_ARRAY_EXACT => {
            Constraint::ArrayExact(decode_constraint_list(ctx, pool, natives, r, depth)?)
        }
        C_ENUM_ANY => {
            let dialect = pool.symbol(ctx, r)?;
            let name = pool.symbol(ctx, r)?;
            Constraint::EnumAny { dialect, name }
        }
        C_ENUM_VARIANT => {
            let dialect = pool.symbol(ctx, r)?;
            let name = pool.symbol(ctx, r)?;
            let variant = pool.symbol(ctx, r)?;
            Constraint::EnumVariant { dialect, name, variant }
        }
        C_NATIVE_PARAM => Constraint::NativeParam { kind: pool.symbol(ctx, r)? },
        C_ANY_OF => Constraint::AnyOf(decode_constraint_list(ctx, pool, natives, r, depth)?),
        C_AND => Constraint::And(decode_constraint_list(ctx, pool, natives, r, depth)?),
        C_NOT => Constraint::Not(Box::new(decode_constraint_at(ctx, pool, natives, r, depth)?)),
        C_VAR => Constraint::Var(r.varint()? as u32),
        C_NATIVE => {
            let name = pool.string(r)?;
            let pred = natives.constraint(name).ok_or_else(|| {
                Diagnostic::new(format!(
                    "artifact requires native predicate `{name}`, which is not registered"
                ))
            })?;
            Constraint::Native { name: name.to_string(), pred }
        }
        other => return Err(r.error(format!("unknown constraint tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Recipe codec
// ---------------------------------------------------------------------------

fn write_opt_str(pool: &mut Pool, w: &mut ByteWriter, s: Option<&str>) {
    match s {
        Some(s) => {
            w.u8(1);
            let id = pool.str_id(s);
            w.varint(u64::from(id));
        }
        None => w.u8(0),
    }
}

fn read_opt_string(pool: &DecodedPool, r: &mut ByteReader<'_>) -> Result<Option<String>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(pool.string(r)?.to_string())),
        _ => Err(r.error("invalid option tag")),
    }
}

fn write_str(pool: &mut Pool, w: &mut ByteWriter, s: &str) {
    let id = pool.str_id(s);
    w.varint(u64::from(id));
}

fn variadicity_tag(v: Variadicity) -> u8 {
    match v {
        Variadicity::Single => 0,
        Variadicity::Variadic => 1,
        Variadicity::Optional => 2,
    }
}

fn variadicity_from(tag: u8) -> Option<Variadicity> {
    match tag {
        0 => Some(Variadicity::Single),
        1 => Some(Variadicity::Variadic),
        2 => Some(Variadicity::Optional),
        _ => None,
    }
}

fn encode_args(
    ctx: &Context,
    pool: &mut Pool,
    w: &mut ByteWriter,
    args: &[ArgRecipe],
) {
    w.varint(args.len() as u64);
    for arg in args {
        write_str(pool, w, &arg.name);
        encode_constraint(ctx, pool, w, &arg.constraint);
        w.u8(variadicity_tag(arg.variadicity));
    }
}

fn decode_args(
    ctx: &mut Context,
    pool: &mut DecodedPool,
    natives: &NativeRegistry,
    r: &mut ByteReader<'_>,
) -> Result<Vec<ArgRecipe>> {
    let n = r.count(1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = pool.string(r)?.to_string();
        let constraint = decode_constraint(ctx, pool, natives, r)?;
        let variadicity = variadicity_from(r.u8()?)
            .ok_or_else(|| r.error("invalid variadicity tag"))?;
        out.push(ArgRecipe { name, constraint, variadicity });
    }
    Ok(out)
}

fn encode_recipe(
    ctx: &Context,
    pool: &mut Pool,
    w: &mut ByteWriter,
    recipe: &DialectRecipe,
) {
    write_str(pool, w, &recipe.name);
    write_opt_str(pool, w, recipe.summary.as_deref());

    w.varint(recipe.enums.len() as u64);
    for (name, variants) in &recipe.enums {
        write_str(pool, w, name);
        w.varint(variants.len() as u64);
        for variant in variants {
            write_str(pool, w, variant);
        }
    }

    w.varint(recipe.param_kinds.len() as u64);
    for (item, kind, _) in &recipe.param_kinds {
        write_str(pool, w, item);
        write_str(pool, w, kind);
    }

    for defs in [&recipe.typedefs, &recipe.attrdefs] {
        w.varint(defs.len() as u64);
        for def in defs.iter() {
            write_str(pool, w, &def.name);
            write_str(pool, w, &def.summary);
            w.varint(def.params.len() as u64);
            for (name, constraint) in &def.params {
                write_str(pool, w, name);
                encode_constraint(ctx, pool, w, constraint);
            }
            write_opt_str(pool, w, def.native_verifier.as_deref());
            write_opt_str(pool, w, def.format.as_deref());
        }
    }

    w.varint(recipe.ops.len() as u64);
    for op in &recipe.ops {
        write_str(pool, w, &op.name);
        write_str(pool, w, &op.summary);
        w.varint(op.var_names.len() as u64);
        for name in &op.var_names {
            write_str(pool, w, name);
        }
        for decl in &op.var_decls {
            encode_constraint(ctx, pool, w, decl);
        }
        encode_args(ctx, pool, w, &op.operands);
        encode_args(ctx, pool, w, &op.results);
        w.varint(op.attributes.len() as u64);
        for (key, constraint) in &op.attributes {
            write_str(pool, w, key);
            encode_constraint(ctx, pool, w, constraint);
        }
        w.varint(op.regions.len() as u64);
        for region in &op.regions {
            write_str(pool, w, &region.name);
            match &region.args {
                Some(args) => {
                    w.u8(1);
                    encode_args(ctx, pool, w, args);
                }
                None => w.u8(0),
            }
            match &region.terminator {
                Some((dialect, name)) => {
                    w.u8(1);
                    write_str(pool, w, dialect);
                    write_str(pool, w, name);
                }
                None => w.u8(0),
            }
        }
        match op.successors {
            Some(count) => {
                w.u8(1);
                w.varint(count as u64);
            }
            None => w.u8(0),
        }
        write_opt_str(pool, w, op.native_verifier.as_deref());
        write_opt_str(pool, w, op.format.as_deref());
    }
}

fn decode_recipe(
    ctx: &mut Context,
    pool: &mut DecodedPool,
    natives: &NativeRegistry,
    r: &mut ByteReader<'_>,
) -> Result<DialectRecipe> {
    let name = pool.string(r)?.to_string();
    let summary = read_opt_string(pool, r)?;

    let n_enums = r.count(1)?;
    let mut enums = Vec::with_capacity(n_enums);
    for _ in 0..n_enums {
        let name = pool.string(r)?.to_string();
        let n_variants = r.count(1)?;
        let mut variants = Vec::with_capacity(n_variants);
        for _ in 0..n_variants {
            variants.push(pool.string(r)?.to_string());
        }
        enums.push((name, variants));
    }

    let n_kinds = r.count(1)?;
    let mut param_kinds = Vec::with_capacity(n_kinds);
    for _ in 0..n_kinds {
        let item = pool.string(r)?.to_string();
        let kind = pool.string(r)?.to_string();
        param_kinds.push((item, kind, None));
    }

    let mut def_lists = Vec::with_capacity(2);
    for _ in 0..2 {
        let n_defs = r.count(1)?;
        let mut defs = Vec::with_capacity(n_defs);
        for _ in 0..n_defs {
            let name = pool.string(r)?.to_string();
            let summary = pool.string(r)?.to_string();
            let n_params = r.count(1)?;
            let mut params = Vec::with_capacity(n_params);
            for _ in 0..n_params {
                let name = pool.string(r)?.to_string();
                let constraint = decode_constraint(ctx, pool, natives, r)?;
                params.push((name, constraint));
            }
            let native_verifier = read_opt_string(pool, r)?;
            let format = read_opt_string(pool, r)?;
            defs.push(Arc::new(TypeOrAttrRecipe {
                name,
                summary,
                params,
                native_verifier,
                format,
                offset: None,
            }));
        }
        def_lists.push(defs);
    }
    let attrdefs = def_lists.pop().expect("two lists");
    let typedefs = def_lists.pop().expect("two lists");

    let n_ops = r.count(1)?;
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        let name = pool.string(r)?.to_string();
        let summary = pool.string(r)?.to_string();
        let n_vars = r.count(1)?;
        let mut var_names = Vec::with_capacity(n_vars);
        for _ in 0..n_vars {
            var_names.push(pool.string(r)?.to_string());
        }
        let mut var_decls = Vec::with_capacity(n_vars);
        for _ in 0..n_vars {
            var_decls.push(decode_constraint(ctx, pool, natives, r)?);
        }
        let operands = decode_args(ctx, pool, natives, r)?;
        let results = decode_args(ctx, pool, natives, r)?;
        let n_attrs = r.count(1)?;
        let mut attributes = Vec::with_capacity(n_attrs);
        for _ in 0..n_attrs {
            let key = pool.string(r)?.to_string();
            let constraint = decode_constraint(ctx, pool, natives, r)?;
            attributes.push((key, constraint));
        }
        let n_regions = r.count(1)?;
        let mut regions = Vec::with_capacity(n_regions);
        for _ in 0..n_regions {
            let name = pool.string(r)?.to_string();
            let args = match r.u8()? {
                0 => None,
                1 => Some(decode_args(ctx, pool, natives, r)?),
                _ => return Err(r.error("invalid option tag")),
            };
            let terminator = match r.u8()? {
                0 => None,
                1 => {
                    let dialect = pool.string(r)?.to_string();
                    let op = pool.string(r)?.to_string();
                    Some((dialect, op))
                }
                _ => return Err(r.error("invalid option tag")),
            };
            regions.push(RegionRecipe { name, args, terminator });
        }
        let successors = match r.u8()? {
            0 => None,
            1 => Some(r.varint()? as usize),
            _ => return Err(r.error("invalid option tag")),
        };
        let native_verifier = read_opt_string(pool, r)?;
        let format = read_opt_string(pool, r)?;
        ops.push(Arc::new(OpRecipe {
            name,
            summary,
            var_names,
            var_decls,
            operands,
            results,
            attributes,
            regions,
            successors,
            native_verifier,
            format,
            offset: None,
        }));
    }

    Ok(DialectRecipe { name, summary, enums, param_kinds, typedefs, attrdefs, ops })
}

// ---------------------------------------------------------------------------
// Bundle file
// ---------------------------------------------------------------------------

/// Encodes `recipes` (resolved against `ctx`, the bundle template) into a
/// bundle artifact file.
pub fn encode_bundle(ctx: &Context, recipes: &[DialectRecipe]) -> Vec<u8> {
    let mut pool = Pool::new();
    let mut body = ByteWriter::new();
    body.varint(recipes.len() as u64);
    for recipe in recipes {
        encode_recipe(ctx, &mut pool, &mut body, recipe);
    }

    let mut out = ByteWriter::new();
    out.bytes(&BUNDLE_MAGIC);
    out.u8(VERSION);
    pool.emit_sections(&mut out);
    out.section(SECTION_RECIPES, &body);
    out.into_vec()
}

/// Decodes a bundle artifact into recipes bound to `ctx`, re-resolving
/// native hooks from `natives`.
///
/// # Errors
///
/// Returns a diagnostic (never panics) on bad magic, an unsupported
/// version, truncated or malformed sections, or a native predicate the
/// artifact needs that `natives` does not register.
pub fn decode_bundle(
    ctx: &mut Context,
    bytes: &[u8],
    natives: &NativeRegistry,
) -> Result<Vec<DialectRecipe>> {
    let mut pool = DecodedPool::empty();
    let mut recipes = Vec::new();
    let kind = "dialect bundle file";
    read_sections(bytes, BUNDLE_MAGIC, kind, &BUNDLE_SECTIONS, |tag, section| match tag {
        SECTION_STRINGS => pool.read_strings(ctx, section),
        SECTION_POOL => pool.read_pool(ctx, section),
        _ => {
            let count = section.count(1)?;
            recipes.reserve_exact(count);
            for _ in 0..count {
                recipes.push(decode_recipe(ctx, &mut pool, natives, section)?);
            }
            if !section.is_empty() {
                return Err(section.error("trailing bytes after recipes"));
            }
            Ok(())
        }
    })?;
    Ok(recipes)
}
