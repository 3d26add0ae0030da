//! The compiled constraint language, as data.
//!
//! [`Constraint`] is the runtime form of the paper's Figure 2: type and
//! attribute constraints, parameter constraints, the generic combinators
//! (`AnyOf` / `And` / `Not`), constraint variables, and native (IRDL-Rust)
//! predicates. Constraints are checked against a [`CVal`] — a type or an
//! attribute — only after lowering into a
//! [`ConstraintProgram`](crate::program::ConstraintProgram), whose binding
//! environment gives constraint variables their "equal at every use"
//! semantics (paper §4.6).

use std::sync::Arc;

use irdl_ir::attrs::AttrData;
use irdl_ir::types::TypeData;
use irdl_ir::{Attribute, Context, FloatKind, Symbol, Type};

use crate::ast::IntKind;

/// A constrained value: an SSA type or a static attribute.
///
/// Type-valued parameters (stored as
/// [`AttrData::TypeAttr`]) are eagerly unwrapped
/// into [`CVal::Type`] before evaluation, so type constraints apply
/// uniformly to operand types and to type parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CVal {
    /// A type.
    Type(Type),
    /// A non-type attribute.
    Attr(Attribute),
}

impl CVal {
    /// Wraps an attribute, unwrapping type attributes into [`CVal::Type`].
    pub fn from_attr(ctx: &Context, attr: Attribute) -> CVal {
        match ctx.attr_data(attr) {
            AttrData::TypeAttr(ty) => CVal::Type(*ty),
            _ => CVal::Attr(attr),
        }
    }

    /// Converts back to an attribute (types become type attributes).
    pub fn into_attr(self, ctx: &mut Context) -> Attribute {
        match self {
            CVal::Type(ty) => ctx.type_attr(ty),
            CVal::Attr(attr) => attr,
        }
    }

    /// Renders the value for diagnostics.
    pub fn display(self, ctx: &Context) -> String {
        match self {
            CVal::Type(ty) => ty.display(ctx),
            CVal::Attr(attr) => attr.display(ctx),
        }
    }
}

/// Classes of builtin (structural) types, usable as IRDL constraints via
/// the `!AnyInteger` / `!AnyFloat` / ... extension keywords.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeClass {
    /// Any builtin integer type.
    AnyInteger,
    /// Any builtin float type.
    AnyFloat,
    /// The `index` type.
    Index,
    /// Any `vector` type.
    AnyVector,
    /// Any `tensor` type.
    AnyTensor,
    /// Any `memref` type.
    AnyMemRef,
    /// Any function type.
    AnyFunction,
}

impl TypeClass {
    /// Returns `true` when `ty` belongs to the class.
    pub fn matches(self, ctx: &Context, ty: Type) -> bool {
        matches!(
            (self, ctx.type_data(ty)),
            (TypeClass::AnyInteger, TypeData::Integer { .. })
                | (TypeClass::AnyFloat, TypeData::Float(_))
                | (TypeClass::Index, TypeData::Index)
                | (TypeClass::AnyVector, TypeData::Vector { .. })
                | (TypeClass::AnyTensor, TypeData::Tensor { .. })
                | (TypeClass::AnyMemRef, TypeData::MemRef { .. })
                | (TypeClass::AnyFunction, TypeData::Function { .. })
        )
    }
}

/// A native (IRDL-Rust) predicate over a constrained value.
pub type NativePred = Arc<dyn Fn(&Context, &CVal) -> Result<(), String> + Send + Sync>;

/// A compiled constraint (runtime form of paper Figure 2).
#[derive(Clone)]
pub enum Constraint {
    /// `AnyParam`: matches any type or attribute.
    Any,
    /// `!AnyType`: matches any type.
    AnyType,
    /// `#AnyAttr`: matches any (non-type) attribute.
    AnyAttr,
    /// A specific type, e.g. `!f32`.
    ExactType(Type),
    /// Any type with the given base name, e.g. `!complex` (paper Fig 2a).
    BaseType {
        /// Owning dialect.
        dialect: Symbol,
        /// Type name.
        name: Symbol,
    },
    /// A parameterized type pattern, e.g. `!complex<!FloatType>`.
    ParametricType {
        /// Owning dialect.
        dialect: Symbol,
        /// Type name.
        name: Symbol,
        /// Per-parameter constraints.
        params: Vec<Constraint>,
    },
    /// A class of builtin structural types.
    Class(TypeClass),
    /// A specific attribute value.
    ExactAttr(Attribute),
    /// Any attribute with the given base name.
    BaseAttr {
        /// Owning dialect.
        dialect: Symbol,
        /// Attribute name.
        name: Symbol,
    },
    /// A parameterized attribute pattern.
    ParametricAttr {
        /// Owning dialect.
        dialect: Symbol,
        /// Attribute name.
        name: Symbol,
        /// Per-parameter constraints.
        params: Vec<Constraint>,
    },
    /// An integer parameter of a given width/signedness (`int32_t`, ...).
    Int(IntKind),
    /// An exact integer literal (`3 : int32_t`).
    IntLiteral {
        /// Required value.
        value: i128,
        /// Required encoding.
        kind: IntKind,
    },
    /// A float parameter (`#f32_attr`); `None` accepts any float format.
    FloatAttr(Option<FloatKind>),
    /// Any string parameter (`string`).
    StringAny,
    /// An exact string literal (`"foo"`).
    StringLiteral(String),
    /// A boolean parameter.
    BoolAttr,
    /// The unit attribute.
    UnitAttr,
    /// A symbol-reference parameter (`@name`).
    SymbolRefAttr,
    /// A source-location parameter.
    LocationAttr,
    /// A host-type-id parameter.
    TypeIdAttr,
    /// Any array parameter (`array`).
    ArrayAny,
    /// `array<pc>`: all elements satisfy the constraint.
    ArrayOf(Box<Constraint>),
    /// `[pc1, ..., pcN]`: exactly N constrained elements.
    ArrayExact(Vec<Constraint>),
    /// Any constructor of an enum (`signedness`).
    EnumAny {
        /// Owning dialect.
        dialect: Symbol,
        /// Enum name.
        name: Symbol,
    },
    /// A specific enum constructor (`signedness.Signed`).
    EnumVariant {
        /// Owning dialect.
        dialect: Symbol,
        /// Enum name.
        name: Symbol,
        /// Constructor.
        variant: Symbol,
    },
    /// A native parameter kind (`TypeOrAttrParam`, paper §5.2).
    NativeParam {
        /// Registered kind name.
        kind: Symbol,
    },
    /// `AnyOf<c1, ..., cN>`.
    AnyOf(Vec<Constraint>),
    /// `And<c1, ..., cN>`.
    And(Vec<Constraint>),
    /// `Not<c>`.
    Not(Box<Constraint>),
    /// A constraint variable (index into the op's variable table).
    Var(u32),
    /// A named native (IRDL-Rust) predicate (paper §5.1).
    Native {
        /// The registered name (kept for introspection and Figure 12).
        name: String,
        /// The predicate itself.
        pred: NativePred,
    },
}

impl std::fmt::Debug for Constraint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Constraint::Any => write!(f, "Any"),
            Constraint::AnyType => write!(f, "AnyType"),
            Constraint::AnyAttr => write!(f, "AnyAttr"),
            Constraint::ExactType(t) => write!(f, "ExactType({t:?})"),
            Constraint::BaseType { dialect, name } => {
                write!(f, "BaseType({dialect:?}.{name:?})")
            }
            Constraint::ParametricType { dialect, name, params } => {
                write!(f, "ParametricType({dialect:?}.{name:?}, {params:?})")
            }
            Constraint::Class(c) => write!(f, "Class({c:?})"),
            Constraint::ExactAttr(a) => write!(f, "ExactAttr({a:?})"),
            Constraint::BaseAttr { dialect, name } => {
                write!(f, "BaseAttr({dialect:?}.{name:?})")
            }
            Constraint::ParametricAttr { dialect, name, params } => {
                write!(f, "ParametricAttr({dialect:?}.{name:?}, {params:?})")
            }
            Constraint::Int(kind) => write!(f, "Int({})", kind.keyword()),
            Constraint::IntLiteral { value, kind } => {
                write!(f, "IntLiteral({value} : {})", kind.keyword())
            }
            Constraint::FloatAttr(kind) => write!(f, "FloatAttr({kind:?})"),
            Constraint::StringAny => write!(f, "StringAny"),
            Constraint::StringLiteral(s) => write!(f, "StringLiteral({s:?})"),
            Constraint::BoolAttr => write!(f, "BoolAttr"),
            Constraint::UnitAttr => write!(f, "UnitAttr"),
            Constraint::SymbolRefAttr => write!(f, "SymbolRefAttr"),
            Constraint::LocationAttr => write!(f, "LocationAttr"),
            Constraint::TypeIdAttr => write!(f, "TypeIdAttr"),
            Constraint::ArrayAny => write!(f, "ArrayAny"),
            Constraint::ArrayOf(c) => write!(f, "ArrayOf({c:?})"),
            Constraint::ArrayExact(cs) => write!(f, "ArrayExact({cs:?})"),
            Constraint::EnumAny { dialect, name } => write!(f, "EnumAny({dialect:?}.{name:?})"),
            Constraint::EnumVariant { dialect, name, variant } => {
                write!(f, "EnumVariant({dialect:?}.{name:?}.{variant:?})")
            }
            Constraint::NativeParam { kind } => write!(f, "NativeParam({kind:?})"),
            Constraint::AnyOf(cs) => write!(f, "AnyOf({cs:?})"),
            Constraint::And(cs) => write!(f, "And({cs:?})"),
            Constraint::Not(c) => write!(f, "Not({c:?})"),
            Constraint::Var(i) => write!(f, "Var({i})"),
            Constraint::Native { name, .. } => write!(f, "Native({name:?})"),
        }
    }
}
