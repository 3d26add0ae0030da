//! Types: interned, immutable, structurally uniqued.
//!
//! The builtin type system mirrors MLIR's: parameterless scalars (`index`,
//! floats), parameterized integers (`i32` / `si32` / `ui32`), function types,
//! and shaped container types (`vector` / `tensor` / `memref`). Everything
//! else is a [`TypeData::Parametric`] type belonging to a dialect, with its
//! parameters encoded as [`Attribute`]s — the representation the IRDL
//! compiler targets when registering `Type` definitions dynamically.

use crate::attrs::Attribute;
use crate::context::Context;
use crate::entity::{entity_handle, Interned};
use crate::symbol::Symbol;

entity_handle! {
    /// A handle to an interned type. Equality is structural equality.
    Type
}

/// Signedness of a builtin integer type (MLIR-style: `i32`, `si32`, `ui32`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Signedness {
    /// Sign-agnostic (`i32`): the interpretation is up to operations.
    Signless,
    /// Signed (`si32`).
    Signed,
    /// Unsigned (`ui32`).
    Unsigned,
}

impl Signedness {
    /// The textual prefix used in the builtin syntax (``/`s`/`u`).
    pub fn prefix(self) -> &'static str {
        match self {
            Signedness::Signless => "",
            Signedness::Signed => "s",
            Signedness::Unsigned => "u",
        }
    }
}

/// Builtin floating-point formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FloatKind {
    /// bfloat16.
    BF16,
    /// IEEE 754 half precision.
    F16,
    /// IEEE 754 single precision.
    F32,
    /// IEEE 754 double precision.
    F64,
}

impl FloatKind {
    /// Bit width of the format.
    pub fn bit_width(self) -> u32 {
        match self {
            FloatKind::BF16 | FloatKind::F16 => 16,
            FloatKind::F32 => 32,
            FloatKind::F64 => 64,
        }
    }

    /// The builtin type keyword (`f32`, `bf16`, ...).
    pub fn keyword(self) -> &'static str {
        match self {
            FloatKind::BF16 => "bf16",
            FloatKind::F16 => "f16",
            FloatKind::F32 => "f32",
            FloatKind::F64 => "f64",
        }
    }
}

/// The structural payload of a [`Type`].
///
/// The uniquing table hashes and compares its borrowed view, [`TypeRef`],
/// so it can be probed without an owned payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeData {
    /// Builtin integer, e.g. `i1`, `si8`, `ui64`.
    Integer {
        /// Bit width (1..=128 in practice; unchecked here).
        width: u32,
        /// Signed, unsigned, or signless.
        signedness: Signedness,
    },
    /// Builtin float, e.g. `f32`.
    Float(FloatKind),
    /// The platform-width `index` type.
    Index,
    /// A function type `(inputs) -> (results)`.
    Function {
        /// Argument types.
        inputs: Vec<Type>,
        /// Result types.
        results: Vec<Type>,
    },
    /// Builtin fixed-shape vector, e.g. `vector<4x8xf32>`.
    Vector {
        /// Static dimensions (all strictly positive).
        dims: Vec<u64>,
        /// Element type.
        elem: Type,
    },
    /// Builtin tensor with optional dynamic dims, e.g. `tensor<?x4xf32>`.
    Tensor {
        /// Dimensions; `-1` encodes a dynamic extent (`?`).
        dims: Vec<i64>,
        /// Element type.
        elem: Type,
    },
    /// Builtin memref (buffer) type, e.g. `memref<16x16xf32>`.
    MemRef {
        /// Dimensions; `-1` encodes a dynamic extent (`?`).
        dims: Vec<i64>,
        /// Element type.
        elem: Type,
    },
    /// A dialect-defined parametric type such as `!cmath.complex<f32>`.
    ///
    /// Parameters are attributes (types are wrapped in
    /// [`AttrData::TypeAttr`](crate::attrs::AttrData::TypeAttr)), matching
    /// the IRDL model where type parameters hold arbitrary static data.
    Parametric {
        /// Owning dialect name.
        dialect: Symbol,
        /// Type name within the dialect.
        name: Symbol,
        /// Parameter values.
        params: Vec<Attribute>,
    },
}

/// A [`TypeData`] with borrowed payloads: the key the uniquing table is
/// probed with, so interning a type that already exists builds no owned
/// payload. Its variants mirror `TypeData`'s one for one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeRef<'a> {
    Integer { width: u32, signedness: Signedness },
    Float(FloatKind),
    Index,
    Function { inputs: &'a [Type], results: &'a [Type] },
    Vector { dims: &'a [u64], elem: Type },
    Tensor { dims: &'a [i64], elem: Type },
    MemRef { dims: &'a [i64], elem: Type },
    Parametric { dialect: Symbol, name: Symbol, params: &'a [Attribute] },
}

impl Interned for TypeData {
    type View<'a> = TypeRef<'a>;

    fn view(&self) -> TypeRef<'_> {
        match self {
            TypeData::Integer { width, signedness } => {
                TypeRef::Integer { width: *width, signedness: *signedness }
            }
            TypeData::Float(kind) => TypeRef::Float(*kind),
            TypeData::Index => TypeRef::Index,
            TypeData::Function { inputs, results } => TypeRef::Function { inputs, results },
            TypeData::Vector { dims, elem } => TypeRef::Vector { dims, elem: *elem },
            TypeData::Tensor { dims, elem } => TypeRef::Tensor { dims, elem: *elem },
            TypeData::MemRef { dims, elem } => TypeRef::MemRef { dims, elem: *elem },
            TypeData::Parametric { dialect, name, params } => {
                TypeRef::Parametric { dialect: *dialect, name: *name, params }
            }
        }
    }

    fn is(&self, view: TypeRef<'_>) -> bool {
        self.view() == view
    }

    fn from_view(view: TypeRef<'_>) -> TypeData {
        match view {
            TypeRef::Integer { width, signedness } => TypeData::Integer { width, signedness },
            TypeRef::Float(kind) => TypeData::Float(kind),
            TypeRef::Index => TypeData::Index,
            TypeRef::Function { inputs, results } => {
                TypeData::Function { inputs: inputs.to_vec(), results: results.to_vec() }
            }
            TypeRef::Vector { dims, elem } => TypeData::Vector { dims: dims.to_vec(), elem },
            TypeRef::Tensor { dims, elem } => TypeData::Tensor { dims: dims.to_vec(), elem },
            TypeRef::MemRef { dims, elem } => TypeData::MemRef { dims: dims.to_vec(), elem },
            TypeRef::Parametric { dialect, name, params } => {
                TypeData::Parametric { dialect, name, params: params.to_vec() }
            }
        }
    }
}

impl Type {
    /// Returns the structural payload of this type.
    pub fn data(self, ctx: &Context) -> &TypeData {
        ctx.type_data(self)
    }

    /// Returns `true` if this is a builtin integer type.
    pub fn is_integer(self, ctx: &Context) -> bool {
        matches!(self.data(ctx), TypeData::Integer { .. })
    }

    /// Returns `true` if this is a builtin float type.
    pub fn is_float(self, ctx: &Context) -> bool {
        matches!(self.data(ctx), TypeData::Float(_))
    }

    /// Returns the `(dialect, name)` pair for parametric types.
    pub fn parametric_name(self, ctx: &Context) -> Option<(Symbol, Symbol)> {
        match self.data(ctx) {
            TypeData::Parametric { dialect, name, .. } => Some((*dialect, *name)),
            _ => None,
        }
    }

    /// Returns the parameters of a parametric type (empty otherwise).
    pub fn params(self, ctx: &Context) -> &[Attribute] {
        match self.data(ctx) {
            TypeData::Parametric { params, .. } => params,
            _ => &[],
        }
    }

    /// Renders the type in the generic textual syntax (e.g. `!cmath.complex<f32>`).
    pub fn display(self, ctx: &Context) -> String {
        crate::print::type_to_string(ctx, self)
    }
}

impl Context {
    /// Interns an arbitrary [`TypeData`], without running dialect verifiers.
    ///
    /// Prefer the typed constructors ([`Context::int_type`],
    /// [`Context::parametric_type`], ...) which validate their inputs.
    pub fn intern_type(&mut self, data: TypeData) -> Type {
        Type(self.types_mut().intern(data))
    }

    /// Interns the type `key` describes, building an owned [`TypeData`]
    /// only when it is new.
    pub(crate) fn intern_type_ref(&mut self, key: TypeRef<'_>) -> Type {
        Type(self.types_mut().intern_ref(key))
    }

    /// The signless integer type `i<width>`.
    pub fn int_type(&mut self, width: u32) -> Type {
        self.intern_type(TypeData::Integer { width, signedness: Signedness::Signless })
    }

    /// An integer type with explicit signedness.
    pub fn int_type_with_signedness(&mut self, width: u32, signedness: Signedness) -> Type {
        self.intern_type(TypeData::Integer { width, signedness })
    }

    /// The `i1` type.
    pub fn i1_type(&mut self) -> Type {
        self.int_type(1)
    }

    /// The `i32` type.
    pub fn i32_type(&mut self) -> Type {
        self.int_type(32)
    }

    /// The `i64` type.
    pub fn i64_type(&mut self) -> Type {
        self.int_type(64)
    }

    /// A builtin float type.
    pub fn float_type(&mut self, kind: FloatKind) -> Type {
        self.intern_type(TypeData::Float(kind))
    }

    /// The `f32` type.
    pub fn f32_type(&mut self) -> Type {
        self.float_type(FloatKind::F32)
    }

    /// The `f64` type.
    pub fn f64_type(&mut self) -> Type {
        self.float_type(FloatKind::F64)
    }

    /// The `index` type.
    pub fn index_type(&mut self) -> Type {
        self.intern_type(TypeData::Index)
    }

    /// A function type `(inputs) -> (results)`.
    pub fn function_type(
        &mut self,
        inputs: impl IntoIterator<Item = Type>,
        results: impl IntoIterator<Item = Type>,
    ) -> Type {
        let data = TypeData::Function {
            inputs: inputs.into_iter().collect(),
            results: results.into_iter().collect(),
        };
        self.intern_type(data)
    }

    /// A fixed-shape `vector` type.
    pub fn vector_type(&mut self, dims: impl IntoIterator<Item = u64>, elem: Type) -> Type {
        self.intern_type(TypeData::Vector { dims: dims.into_iter().collect(), elem })
    }

    /// A `tensor` type; use `-1` for dynamic dimensions.
    pub fn tensor_type(&mut self, dims: impl IntoIterator<Item = i64>, elem: Type) -> Type {
        self.intern_type(TypeData::Tensor { dims: dims.into_iter().collect(), elem })
    }

    /// A `memref` type; use `-1` for dynamic dimensions.
    pub fn memref_type(&mut self, dims: impl IntoIterator<Item = i64>, elem: Type) -> Type {
        self.intern_type(TypeData::MemRef { dims: dims.into_iter().collect(), elem })
    }

    /// Creates a dialect-defined parametric type, running the registered
    /// type verifier if the `(dialect, name)` pair is registered.
    ///
    /// # Errors
    ///
    /// Returns the verifier's diagnostic when the parameters violate the
    /// registered constraints.
    pub fn parametric_type(
        &mut self,
        dialect: &str,
        name: &str,
        params: impl IntoIterator<Item = Attribute>,
    ) -> crate::Result<Type> {
        let dialect = self.symbol(dialect);
        let name = self.symbol(name);
        self.parametric_type_syms(dialect, name, params.into_iter().collect())
    }

    /// Symbol-based variant of [`Context::parametric_type`].
    pub fn parametric_type_syms(
        &mut self,
        dialect: Symbol,
        name: Symbol,
        params: Vec<Attribute>,
    ) -> crate::Result<Type> {
        self.parametric_type_ref(dialect, name, &params)
    }

    /// [`Context::parametric_type_syms`] over a borrowed parameter list:
    /// a type that already exists is found without building an owned
    /// list. The registered verifier runs before the type is interned,
    /// so a rejected parameter list leaves nothing in the table.
    pub fn parametric_type_ref(
        &mut self,
        dialect: Symbol,
        name: Symbol,
        params: &[Attribute],
    ) -> crate::Result<Type> {
        let info = self.registry().type_def(dialect, name);
        if let Some(verifier) = info.and_then(|info| info.verifier.as_ref()) {
            verifier.verify(self, params).map_err(|d| {
                d.with_note(format!(
                    "while building type !{}.{}",
                    self.symbol_str(dialect),
                    self.symbol_str(name)
                ))
            })?;
        }
        Ok(self.intern_type_ref(TypeRef::Parametric { dialect, name, params }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn types_are_uniqued() {
        let mut ctx = Context::new();
        let a = ctx.i32_type();
        let b = ctx.int_type(32);
        let c = ctx.int_type(64);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn signedness_distinguishes_types() {
        let mut ctx = Context::new();
        let i8 = ctx.int_type(8);
        let si8 = ctx.int_type_with_signedness(8, Signedness::Signed);
        let ui8 = ctx.int_type_with_signedness(8, Signedness::Unsigned);
        assert_ne!(i8, si8);
        assert_ne!(si8, ui8);
    }

    #[test]
    fn function_type_structure() {
        let mut ctx = Context::new();
        let f32 = ctx.f32_type();
        let i32 = ctx.i32_type();
        let fty = ctx.function_type([f32, f32], [i32]);
        match fty.data(&ctx) {
            TypeData::Function { inputs, results } => {
                assert_eq!(inputs, &[f32, f32]);
                assert_eq!(results, &[i32]);
            }
            other => panic!("expected function type, got {other:?}"),
        }
    }

    #[test]
    fn unregistered_parametric_type_is_opaque() {
        let mut ctx = Context::new();
        let f32 = ctx.f32_type();
        let param = ctx.type_attr(f32);
        let ty = ctx.parametric_type("cmath", "complex", [param]).unwrap();
        let (dialect, name) = ty.parametric_name(&ctx).unwrap();
        assert_eq!(ctx.symbol_str(dialect), "cmath");
        assert_eq!(ctx.symbol_str(name), "complex");
        assert_eq!(ty.params(&ctx), &[param]);
    }
}
