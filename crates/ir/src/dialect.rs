//! The dialect registry: runtime-registered IR definitions.
//!
//! A dialect groups operation, type, attribute, and enum definitions under a
//! namespace. Definitions are plain data ([`OpInfo`], [`TypeDefInfo`], ...)
//! carrying hook objects for verification and custom syntax — this is what
//! makes the IR *dynamically extensible*: the IRDL compiler registers new
//! dialects at runtime without any Rust code generation, exactly as the
//! paper registers dialects in MLIR from an IRDL file.

use crate::fasthash::FastMap;
use std::sync::Arc;

use crate::attrs::Attribute;
use crate::context::Context;
use crate::diag::Result;
use crate::op::{OpRef, OperationState};
use crate::symbol::Symbol;

/// Verifies a fully-constructed operation (operands, results, attributes,
/// regions, successors). IRDL compiles declarative constraints into one of
/// these; IRDL-Rust (the IRDL-C++ analog) registers arbitrary closures.
pub trait OpVerifier: Send + Sync {
    /// Checks `op` against this verifier's invariants.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic describing the first violated invariant.
    fn verify(&self, ctx: &Context, op: OpRef) -> Result<()>;
}

impl<F: Fn(&Context, OpRef) -> Result<()> + Send + Sync> OpVerifier for F {
    fn verify(&self, ctx: &Context, op: OpRef) -> Result<()> {
        self(ctx, op)
    }
}

/// Verifies the parameter list of a parametric type or attribute.
pub trait ParamsVerifier: Send + Sync {
    /// Checks the parameter list against the definition's constraints.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic describing the first violated constraint.
    fn verify(&self, ctx: &Context, params: &[Attribute]) -> Result<()>;
}

impl<F: Fn(&Context, &[Attribute]) -> Result<()> + Send + Sync> ParamsVerifier for F {
    fn verify(&self, ctx: &Context, params: &[Attribute]) -> Result<()> {
        self(ctx, params)
    }
}

/// Custom textual syntax for an operation (IRDL `Format` directive or a
/// native Rust implementation for syntaxes beyond the declarative subset).
pub trait OpSyntax: Send + Sync {
    /// Prints `op` after its result list (`%r = `) and name have been
    /// printed by the framework.
    fn print(&self, ctx: &Context, op: OpRef, printer: &mut crate::print::Printer<'_>);

    /// Parses the body of the operation (everything after its name) and
    /// returns the assembled [`OperationState`].
    ///
    /// # Errors
    ///
    /// Returns a diagnostic pointing at the offending token.
    fn parse(&self, parser: &mut crate::parse::OpParser<'_, '_, '_>) -> Result<OperationState>;
}

/// Custom textual syntax for the parameter list of a parametric type or
/// attribute (IRDL `Format` on `Type`/`Attribute` definitions, §4.7).
///
/// The framework prints/parses the `!dialect.name<` ... `>` shell; the hook
/// handles everything between the angle brackets.
pub trait ParamsSyntax: Send + Sync {
    /// Prints the parameter list (without the surrounding brackets).
    fn print(&self, ctx: &Context, params: &[Attribute], printer: &mut crate::print::Printer<'_>);

    /// Parses the parameter list (without the surrounding brackets),
    /// storing each parameter through
    /// [`ParamParser::set_param`](crate::parse::ParamParser::set_param).
    ///
    /// # Errors
    ///
    /// Returns a diagnostic pointing at the offending token.
    fn parse(&self, parser: &mut crate::parse::ParamParser<'_, '_, '_>) -> Result<()>;
}

/// Validates and normalizes native (IRDL-Rust `TypeOrAttrParam`) parameter
/// values from their textual form.
pub trait NativeParamHandler: Send + Sync {
    /// Checks that `text` is a valid value of this parameter kind.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when `text` is malformed.
    fn validate(&self, text: &str) -> Result<()>;
}

impl<F: Fn(&str) -> Result<()> + Send + Sync> NativeParamHandler for F {
    fn validate(&self, text: &str) -> Result<()> {
        self(text)
    }
}

/// Classification of a type/attribute parameter, used for the paper's
/// Figure 8 analysis (which parameter kinds appear in practice) and filled
/// in by the IRDL compiler.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// A type parameter (`!AnyType`, `!f32`, ...).
    Type,
    /// An attribute parameter.
    Attr,
    /// An integer parameter (`int32_t`, `uint8_t`, ...).
    Integer,
    /// A float parameter.
    Float,
    /// A string parameter.
    String,
    /// An enum parameter.
    Enum,
    /// A source-location parameter.
    Location,
    /// A host-type-id parameter.
    TypeId,
    /// An array of parameters.
    Array,
    /// A domain-specific native parameter (IRDL-C++ `TypeOrAttrParam`),
    /// tagged with its registered kind name (e.g. `affine_map`).
    Native(String),
}

impl ParamKind {
    /// Returns `true` for parameters expressible in pure IRDL (everything
    /// except [`ParamKind::Native`]).
    pub fn is_builtin(&self) -> bool {
        !matches!(self, ParamKind::Native(_))
    }
}

/// Declarative statistics about an operation definition, filled by the IRDL
/// compiler and consumed by the evaluation tooling (Figures 5-7, 11, 12).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpDeclStats {
    /// Number of operand definitions (variadic definitions count once).
    pub operand_defs: u32,
    /// Number of operand definitions marked `Variadic` or `Optional`.
    pub variadic_operands: u32,
    /// Number of result definitions.
    pub result_defs: u32,
    /// Number of result definitions marked `Variadic` or `Optional`.
    pub variadic_results: u32,
    /// Number of attribute definitions.
    pub attr_defs: u32,
    /// Number of region definitions.
    pub region_defs: u32,
    /// Number of successor definitions.
    pub successor_defs: u32,
    /// Whether any *local* constraint required a native (IRDL-Rust /
    /// IRDL-C++) escape hatch, and the kinds used (Figure 12 census).
    pub native_local_constraints: Vec<String>,
    /// Whether the op declares a native (global) verifier — the
    /// `CppConstraint` on operations measured at 30% in the paper.
    pub has_native_verifier: bool,
}

/// A registered operation definition.
#[derive(Clone)]
pub struct OpInfo {
    /// Operation name within its dialect.
    pub name: Symbol,
    /// Documentation summary (IRDL `Summary` directive).
    pub summary: String,
    /// Whether the op is a terminator (declared `Successors`, even empty).
    pub is_terminator: bool,
    /// Verifier hook (IRDL-compiled constraints and/or native code).
    pub verifier: Option<Arc<dyn OpVerifier>>,
    /// Custom syntax hook (IRDL `Format` or native).
    pub syntax: Option<Arc<dyn OpSyntax>>,
    /// Declarative statistics for the evaluation tooling.
    pub decl: OpDeclStats,
}

impl std::fmt::Debug for OpInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpInfo")
            .field("name", &self.name)
            .field("is_terminator", &self.is_terminator)
            .field("has_verifier", &self.verifier.is_some())
            .field("has_syntax", &self.syntax.is_some())
            .field("decl", &self.decl)
            .finish()
    }
}

/// A registered type definition.
#[derive(Clone)]
pub struct TypeDefInfo {
    /// Type name within its dialect.
    pub name: Symbol,
    /// Documentation summary.
    pub summary: String,
    /// Declared parameter names, in order.
    pub param_names: Vec<Symbol>,
    /// Parameter kinds, for the Figure 8 analysis.
    pub param_kinds: Vec<ParamKind>,
    /// Parameter-constraint verifier.
    pub verifier: Option<Arc<dyn ParamsVerifier>>,
    /// Custom parameter-list syntax (IRDL `Format` on the definition).
    pub syntax: Option<Arc<dyn ParamsSyntax>>,
    /// Whether a native (IRDL-C++) verifier participates (Figure 9b).
    pub has_native_verifier: bool,
}

impl std::fmt::Debug for TypeDefInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TypeDefInfo")
            .field("name", &self.name)
            .field("param_kinds", &self.param_kinds)
            .field("has_custom_syntax", &self.syntax.is_some())
            .field("has_native_verifier", &self.has_native_verifier)
            .finish()
    }
}

/// A registered attribute definition (structurally identical to types,
/// as in the paper: "Besides the keyword, type and attribute definitions
/// are identical in IRDL").
pub type AttrDefInfo = TypeDefInfo;

/// A registered enum definition (IRDL `Enum` directive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumInfo {
    /// Enum name within its dialect.
    pub name: Symbol,
    /// Constructors, in declaration order.
    pub variants: Vec<Symbol>,
}

/// A dialect: a namespace of registered definitions.
#[derive(Debug, Clone, Default)]
pub struct DialectInfo {
    /// Dialect namespace (e.g. `cmath`).
    pub name: Option<Symbol>,
    /// Documentation summary.
    pub summary: String,
    ops: FastMap<Symbol, OpInfo>,
    types: FastMap<Symbol, TypeDefInfo>,
    attrs: FastMap<Symbol, AttrDefInfo>,
    enums: FastMap<Symbol, EnumInfo>,
}

impl DialectInfo {
    /// Creates an empty dialect with the given interned name.
    pub fn new(name: Symbol) -> Self {
        DialectInfo { name: Some(name), ..Default::default() }
    }

    /// Registers an operation definition, replacing any previous definition
    /// of the same name.
    pub fn add_op(&mut self, info: OpInfo) {
        self.ops.insert(info.name, info);
    }

    /// Registers a type definition.
    pub fn add_type(&mut self, info: TypeDefInfo) {
        self.types.insert(info.name, info);
    }

    /// Registers an attribute definition.
    pub fn add_attr(&mut self, info: AttrDefInfo) {
        self.attrs.insert(info.name, info);
    }

    /// Registers an enum definition.
    pub fn add_enum(&mut self, info: EnumInfo) {
        self.enums.insert(info.name, info);
    }

    /// Looks up an operation definition.
    pub fn op(&self, name: Symbol) -> Option<&OpInfo> {
        self.ops.get(&name)
    }

    /// Attaches (or replaces) the custom syntax of a registered operation.
    ///
    /// This is the hook for native syntaxes beyond the declarative format
    /// language. Returns `false` if no operation named `name` exists.
    pub fn set_op_syntax(&mut self, name: Symbol, syntax: Arc<dyn OpSyntax>) -> bool {
        match self.ops.get_mut(&name) {
            Some(info) => {
                info.syntax = Some(syntax);
                true
            }
            None => false,
        }
    }

    /// Looks up a type definition.
    pub fn type_def(&self, name: Symbol) -> Option<&TypeDefInfo> {
        self.types.get(&name)
    }

    /// Looks up an attribute definition.
    pub fn attr_def(&self, name: Symbol) -> Option<&AttrDefInfo> {
        self.attrs.get(&name)
    }

    /// Looks up an enum definition.
    pub fn enum_def(&self, name: Symbol) -> Option<&EnumInfo> {
        self.enums.get(&name)
    }

    /// Iterates over registered operations (unordered).
    pub fn ops(&self) -> impl Iterator<Item = &OpInfo> {
        self.ops.values()
    }

    /// Iterates over registered types (unordered).
    pub fn types(&self) -> impl Iterator<Item = &TypeDefInfo> {
        self.types.values()
    }

    /// Iterates over registered attributes (unordered).
    pub fn attrs(&self) -> impl Iterator<Item = &AttrDefInfo> {
        self.attrs.values()
    }

    /// Iterates over registered enums (unordered).
    pub fn enums(&self) -> impl Iterator<Item = &EnumInfo> {
        self.enums.values()
    }

    /// Number of registered operations.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of registered types.
    pub fn num_types(&self) -> usize {
        self.types.len()
    }

    /// Number of registered attributes.
    pub fn num_attrs(&self) -> usize {
        self.attrs.len()
    }
}

/// All dialects registered in a [`Context`], plus the registry of native
/// parameter handlers shared across dialects.
#[derive(Clone, Default)]
pub struct DialectRegistry {
    dialects: FastMap<Symbol, DialectInfo>,
    native_params: FastMap<Symbol, Arc<dyn NativeParamHandler>>,
}

impl std::fmt::Debug for DialectRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DialectRegistry")
            .field("dialects", &self.dialects)
            .field("native_params", &self.native_params.len())
            .finish()
    }
}

impl DialectRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a dialect.
    ///
    /// # Panics
    ///
    /// Panics if the dialect has no name.
    pub fn register(&mut self, dialect: DialectInfo) {
        let name = dialect.name.expect("registered dialect must be named");
        self.dialects.insert(name, dialect);
    }

    /// Looks up a dialect by interned name.
    pub fn dialect(&self, name: Symbol) -> Option<&DialectInfo> {
        self.dialects.get(&name)
    }

    /// Mutable lookup, for incremental registration.
    pub fn dialect_mut(&mut self, name: Symbol) -> Option<&mut DialectInfo> {
        self.dialects.get_mut(&name)
    }

    /// Looks up an operation definition by `(dialect, op)` name pair.
    pub fn op_info(&self, dialect: Symbol, op: Symbol) -> Option<&OpInfo> {
        self.dialects.get(&dialect)?.op(op)
    }

    /// Looks up a type definition by `(dialect, type)` name pair.
    pub fn type_def(&self, dialect: Symbol, name: Symbol) -> Option<&TypeDefInfo> {
        self.dialects.get(&dialect)?.type_def(name)
    }

    /// Looks up an attribute definition by `(dialect, attr)` name pair.
    pub fn attr_def(&self, dialect: Symbol, name: Symbol) -> Option<&AttrDefInfo> {
        self.dialects.get(&dialect)?.attr_def(name)
    }

    /// Looks up an enum definition by `(dialect, enum)` name pair.
    pub fn enum_def(&self, dialect: Symbol, name: Symbol) -> Option<&EnumInfo> {
        self.dialects.get(&dialect)?.enum_def(name)
    }

    /// Registers a native parameter handler under `kind`.
    pub fn register_native_param(
        &mut self,
        kind: Symbol,
        handler: Arc<dyn NativeParamHandler>,
    ) {
        self.native_params.insert(kind, handler);
    }

    /// Looks up the handler for a native parameter kind.
    pub fn native_param(&self, kind: Symbol) -> Option<Arc<dyn NativeParamHandler>> {
        self.native_params.get(&kind).cloned()
    }

    /// Iterates over registered dialects (unordered).
    pub fn dialects(&self) -> impl Iterator<Item = &DialectInfo> {
        self.dialects.values()
    }

    /// Number of registered dialects.
    pub fn len(&self) -> usize {
        self.dialects.len()
    }

    /// Returns `true` if no dialect is registered.
    pub fn is_empty(&self) -> bool {
        self.dialects.is_empty()
    }
}

/// Convenience constructor for an [`OpInfo`] with no hooks.
pub fn simple_op_info(name: Symbol, summary: impl Into<String>) -> OpInfo {
    OpInfo {
        name,
        summary: summary.into(),
        is_terminator: false,
        verifier: None,
        syntax: None,
        decl: OpDeclStats::default(),
    }
}

impl Context {
    /// Registers a dialect in this context's registry.
    pub fn register_dialect(&mut self, dialect: DialectInfo) {
        self.registry_mut().register(dialect);
    }

    /// Returns the [`OpInfo`] for `op`'s name, if registered.
    pub fn op_info(&self, op: OpRef) -> Option<&OpInfo> {
        let name = op.name(self);
        self.registry().op_info(name.dialect, name.name)
    }

    /// Returns `true` if `op`'s definition marks it a terminator.
    ///
    /// Unregistered operations are conservatively treated as
    /// non-terminators unless they carry successors.
    pub fn is_terminator(&self, op: OpRef) -> bool {
        match self.op_info(op) {
            Some(info) => info.is_terminator,
            None => !op.successors(self).is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Context;

    #[test]
    fn register_and_lookup() {
        let mut ctx = Context::new();
        let cmath = ctx.symbol("cmath");
        let mul = ctx.symbol("mul");
        let mut dialect = DialectInfo::new(cmath);
        dialect.add_op(simple_op_info(mul, "Multiply two complex numbers"));
        ctx.register_dialect(dialect);
        let info = ctx.registry().op_info(cmath, mul).unwrap();
        assert_eq!(info.summary, "Multiply two complex numbers");
        assert!(!info.is_terminator);
        assert!(ctx.registry().op_info(cmath, ctx.symbol_lookup("norm").unwrap_or(mul)).is_some());
    }

    #[test]
    fn missing_dialect_lookup_is_none() {
        let mut ctx = Context::new();
        let d = ctx.symbol("nope");
        let o = ctx.symbol("op");
        assert!(ctx.registry().op_info(d, o).is_none());
        assert!(ctx.registry().type_def(d, o).is_none());
    }

    #[test]
    fn native_param_handler_dispatch() {
        let mut ctx = Context::new();
        let kind = ctx.symbol("affine_map");
        ctx.registry_mut().register_native_param(
            kind,
            Arc::new(|text: &str| {
                if text.starts_with('(') {
                    Ok(())
                } else {
                    Err(crate::Diagnostic::new("affine map must start with `(`"))
                }
            }),
        );
        assert!(ctx.native_attr("affine_map", "(d0) -> (d0)").is_ok());
        assert!(ctx.native_attr("affine_map", "d0").is_err());
        // Unregistered kinds pass through unvalidated.
        assert!(ctx.native_attr("unknown_kind", "whatever").is_ok());
    }
}
