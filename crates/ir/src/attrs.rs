//! Attributes: interned static data attached to operations and used as
//! parameters of types and attributes.
//!
//! The builtin kinds mirror the parameter kinds the paper observes in the
//! MLIR ecosystem (Figure 8): types, integers, floats, strings, arrays,
//! enums, locations, and type ids. Domain-specific parameters (affine maps,
//! LLVM struct bodies, ...) are carried by [`AttrData::Native`], the
//! mechanism behind IRDL-C++'s `TypeOrAttrParam` directive.

use crate::context::Context;
use crate::entity::{entity_handle, Interned};
use crate::symbol::Symbol;
use crate::types::{FloatKind, Type};

entity_handle! {
    /// A handle to an interned attribute. Equality is structural equality.
    Attribute
}

/// The structural payload of an [`Attribute`].
///
/// The uniquing table hashes and compares its borrowed view, [`AttrRef`],
/// so it can be probed without an owned payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrData {
    /// The `unit` attribute: presence is the information.
    Unit,
    /// `true` / `false`.
    Bool(bool),
    /// A typed integer value, e.g. `42 : i32`.
    Integer {
        /// The integer value (sign-extended into an `i128`).
        value: i128,
        /// The integer or index type giving the width and signedness.
        ty: Type,
    },
    /// A typed float value, stored as the raw bits of the `f64` encoding.
    Float {
        /// `f64` bit pattern (bit-exact uniquing; NaNs compare by payload).
        bits: u64,
        /// The float format this value is annotated with.
        kind: FloatKind,
    },
    /// A string literal.
    String(Box<str>),
    /// An ordered list of attributes.
    Array(Vec<Attribute>),
    /// A type used as an attribute value.
    TypeAttr(Type),
    /// A reference to a symbol (e.g. `@conorm`).
    SymbolRef(Symbol),
    /// A constructor of a dialect-defined enum, e.g. `#arith.fastmath<fast>`.
    EnumValue {
        /// Dialect owning the enum.
        dialect: Symbol,
        /// Enum name.
        enum_name: Symbol,
        /// The selected constructor.
        variant: Symbol,
    },
    /// A source location, e.g. `loc("f.mlir":3:7)`.
    Location {
        /// File name.
        file: Box<str>,
        /// 1-based line.
        line: u32,
        /// 1-based column.
        col: u32,
    },
    /// A unique identifier for a host-language type (used by e.g. `pdl`).
    TypeId(Symbol),
    /// A dialect-defined native parameter (the IRDL-C++ `TypeOrAttrParam`
    /// analog): a registered `kind` plus its canonical textual form,
    /// validated and printed by native hooks.
    Native {
        /// Registered native parameter kind (e.g. `affine_map`).
        kind: Symbol,
        /// Canonical textual representation.
        text: Box<str>,
    },
    /// A dialect-defined parametric attribute such as `#llvm.linkage<...>`.
    Parametric {
        /// Owning dialect name.
        dialect: Symbol,
        /// Attribute name within the dialect.
        name: Symbol,
        /// Parameter values.
        params: Vec<Attribute>,
    },
}

/// An [`AttrData`] with borrowed payloads: the key the uniquing table is
/// probed with, so interning an attribute that already exists builds no
/// owned payload. Its variants mirror `AttrData`'s one for one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrRef<'a> {
    Unit,
    Bool(bool),
    Integer { value: i128, ty: Type },
    Float { bits: u64, kind: FloatKind },
    String(&'a str),
    Array(&'a [Attribute]),
    TypeAttr(Type),
    SymbolRef(Symbol),
    EnumValue { dialect: Symbol, enum_name: Symbol, variant: Symbol },
    Location { file: &'a str, line: u32, col: u32 },
    TypeId(Symbol),
    Native { kind: Symbol, text: &'a str },
    Parametric { dialect: Symbol, name: Symbol, params: &'a [Attribute] },
}

impl Interned for AttrData {
    type View<'a> = AttrRef<'a>;

    fn view(&self) -> AttrRef<'_> {
        match self {
            AttrData::Unit => AttrRef::Unit,
            AttrData::Bool(b) => AttrRef::Bool(*b),
            AttrData::Integer { value, ty } => AttrRef::Integer { value: *value, ty: *ty },
            AttrData::Float { bits, kind } => AttrRef::Float { bits: *bits, kind: *kind },
            AttrData::String(s) => AttrRef::String(s),
            AttrData::Array(items) => AttrRef::Array(items),
            AttrData::TypeAttr(ty) => AttrRef::TypeAttr(*ty),
            AttrData::SymbolRef(sym) => AttrRef::SymbolRef(*sym),
            AttrData::EnumValue { dialect, enum_name, variant } => AttrRef::EnumValue {
                dialect: *dialect,
                enum_name: *enum_name,
                variant: *variant,
            },
            AttrData::Location { file, line, col } => {
                AttrRef::Location { file, line: *line, col: *col }
            }
            AttrData::TypeId(sym) => AttrRef::TypeId(*sym),
            AttrData::Native { kind, text } => AttrRef::Native { kind: *kind, text },
            AttrData::Parametric { dialect, name, params } => {
                AttrRef::Parametric { dialect: *dialect, name: *name, params }
            }
        }
    }

    fn is(&self, view: AttrRef<'_>) -> bool {
        self.view() == view
    }

    fn from_view(view: AttrRef<'_>) -> AttrData {
        match view {
            AttrRef::Unit => AttrData::Unit,
            AttrRef::Bool(b) => AttrData::Bool(b),
            AttrRef::Integer { value, ty } => AttrData::Integer { value, ty },
            AttrRef::Float { bits, kind } => AttrData::Float { bits, kind },
            AttrRef::String(s) => AttrData::String(s.into()),
            AttrRef::Array(items) => AttrData::Array(items.to_vec()),
            AttrRef::TypeAttr(ty) => AttrData::TypeAttr(ty),
            AttrRef::SymbolRef(sym) => AttrData::SymbolRef(sym),
            AttrRef::EnumValue { dialect, enum_name, variant } => {
                AttrData::EnumValue { dialect, enum_name, variant }
            }
            AttrRef::Location { file, line, col } => {
                AttrData::Location { file: file.into(), line, col }
            }
            AttrRef::TypeId(sym) => AttrData::TypeId(sym),
            AttrRef::Native { kind, text } => AttrData::Native { kind, text: text.into() },
            AttrRef::Parametric { dialect, name, params } => {
                AttrData::Parametric { dialect, name, params: params.to_vec() }
            }
        }
    }
}

impl Attribute {
    /// Returns the structural payload of this attribute.
    pub fn data(self, ctx: &Context) -> &AttrData {
        ctx.attr_data(self)
    }

    /// Returns the integer value if this is an integer attribute.
    pub fn as_int(self, ctx: &Context) -> Option<i128> {
        match self.data(ctx) {
            AttrData::Integer { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// Returns the string contents if this is a string attribute.
    pub fn as_str(self, ctx: &Context) -> Option<&str> {
        match self.data(ctx) {
            AttrData::String(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the wrapped type if this is a type attribute.
    pub fn as_type(self, ctx: &Context) -> Option<Type> {
        match self.data(ctx) {
            AttrData::TypeAttr(ty) => Some(*ty),
            _ => None,
        }
    }

    /// Returns the float value if this is a float attribute.
    pub fn as_float(self, ctx: &Context) -> Option<f64> {
        match self.data(ctx) {
            AttrData::Float { bits, .. } => Some(f64::from_bits(*bits)),
            _ => None,
        }
    }

    /// Returns the elements if this is an array attribute.
    pub fn as_array(self, ctx: &Context) -> Option<&[Attribute]> {
        match self.data(ctx) {
            AttrData::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the `(dialect, name)` pair for parametric attributes.
    pub fn parametric_name(self, ctx: &Context) -> Option<(Symbol, Symbol)> {
        match self.data(ctx) {
            AttrData::Parametric { dialect, name, .. } => Some((*dialect, *name)),
            _ => None,
        }
    }

    /// Renders the attribute in the generic textual syntax.
    pub fn display(self, ctx: &Context) -> String {
        crate::print::attr_to_string(ctx, self)
    }
}

impl Context {
    /// Interns an arbitrary [`AttrData`], without running dialect verifiers.
    pub fn intern_attr(&mut self, data: AttrData) -> Attribute {
        Attribute(self.attrs_mut().intern(data))
    }

    /// Interns the attribute `key` describes, building an owned
    /// [`AttrData`] only when it is new.
    pub(crate) fn intern_attr_ref(&mut self, key: AttrRef<'_>) -> Attribute {
        Attribute(self.attrs_mut().intern_ref(key))
    }

    /// The `unit` attribute.
    pub fn unit_attr(&mut self) -> Attribute {
        self.intern_attr(AttrData::Unit)
    }

    /// A boolean attribute.
    pub fn bool_attr(&mut self, value: bool) -> Attribute {
        self.intern_attr(AttrData::Bool(value))
    }

    /// An integer attribute of the given type.
    pub fn int_attr(&mut self, value: i128, ty: Type) -> Attribute {
        self.intern_attr(AttrData::Integer { value, ty })
    }

    /// A 64-bit signless integer attribute (`value : i64`).
    pub fn i64_attr(&mut self, value: i64) -> Attribute {
        let ty = self.i64_type();
        self.int_attr(value as i128, ty)
    }

    /// A 32-bit signless integer attribute (`value : i32`).
    pub fn i32_attr(&mut self, value: i32) -> Attribute {
        let ty = self.i32_type();
        self.int_attr(value as i128, ty)
    }

    /// A float attribute of the given format.
    pub fn float_attr(&mut self, value: f64, kind: FloatKind) -> Attribute {
        self.intern_attr(AttrData::Float { bits: value.to_bits(), kind })
    }

    /// An `f32`-annotated float attribute.
    pub fn f32_attr(&mut self, value: f64) -> Attribute {
        self.float_attr(value, FloatKind::F32)
    }

    /// A string attribute.
    pub fn string_attr(&mut self, value: impl Into<Box<str>>) -> Attribute {
        self.intern_attr(AttrData::String(value.into()))
    }

    /// An array attribute.
    pub fn array_attr(&mut self, items: impl IntoIterator<Item = Attribute>) -> Attribute {
        let items = items.into_iter().collect();
        self.intern_attr(AttrData::Array(items))
    }

    /// A type attribute wrapping `ty`.
    pub fn type_attr(&mut self, ty: Type) -> Attribute {
        self.intern_attr(AttrData::TypeAttr(ty))
    }

    /// A symbol-reference attribute (`@name`).
    pub fn symbol_ref_attr(&mut self, name: &str) -> Attribute {
        let sym = self.symbol(name);
        self.intern_attr(AttrData::SymbolRef(sym))
    }

    /// An enum-constructor attribute.
    pub fn enum_attr(&mut self, dialect: &str, enum_name: &str, variant: &str) -> Attribute {
        let dialect = self.symbol(dialect);
        let enum_name = self.symbol(enum_name);
        let variant = self.symbol(variant);
        self.intern_attr(AttrData::EnumValue { dialect, enum_name, variant })
    }

    /// A source-location attribute.
    pub fn location_attr(&mut self, file: &str, line: u32, col: u32) -> Attribute {
        self.intern_attr_ref(AttrRef::Location { file, line, col })
    }

    /// A type-id attribute.
    pub fn type_id_attr(&mut self, name: &str) -> Attribute {
        let sym = self.symbol(name);
        self.intern_attr(AttrData::TypeId(sym))
    }

    /// A native (IRDL-Rust / `TypeOrAttrParam`) parameter value, validated
    /// by the registered native parameter handler when one exists.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when the registered handler rejects `text`.
    pub fn native_attr(&mut self, kind: &str, text: &str) -> crate::Result<Attribute> {
        let kind_sym = self.symbol(kind);
        if let Some(handler) = self.registry().native_param(kind_sym) {
            handler.validate(text).map_err(|d| {
                d.with_note(format!("while building native parameter of kind `{kind}`"))
            })?;
        }
        Ok(self.intern_attr_ref(AttrRef::Native { kind: kind_sym, text }))
    }

    /// Creates a dialect-defined parametric attribute, running the
    /// registered attribute verifier if one exists.
    ///
    /// # Errors
    ///
    /// Returns the verifier's diagnostic when the parameters violate the
    /// registered constraints.
    pub fn parametric_attr(
        &mut self,
        dialect: &str,
        name: &str,
        params: impl IntoIterator<Item = Attribute>,
    ) -> crate::Result<Attribute> {
        let dialect = self.symbol(dialect);
        let name = self.symbol(name);
        self.parametric_attr_syms(dialect, name, params.into_iter().collect())
    }

    /// Symbol-based variant of [`Context::parametric_attr`].
    pub fn parametric_attr_syms(
        &mut self,
        dialect: Symbol,
        name: Symbol,
        params: Vec<Attribute>,
    ) -> crate::Result<Attribute> {
        self.parametric_attr_ref(dialect, name, &params)
    }

    /// [`Context::parametric_attr_syms`] over a borrowed parameter list:
    /// an attribute that already exists is found without building an
    /// owned list. The registered verifier runs before the attribute is
    /// interned, so a rejected parameter list leaves nothing in the table.
    pub fn parametric_attr_ref(
        &mut self,
        dialect: Symbol,
        name: Symbol,
        params: &[Attribute],
    ) -> crate::Result<Attribute> {
        let info = self.registry().attr_def(dialect, name);
        if let Some(verifier) = info.and_then(|info| info.verifier.as_ref()) {
            verifier.verify(self, params).map_err(|d| {
                d.with_note(format!(
                    "while building attribute #{}.{}",
                    self.symbol_str(dialect),
                    self.symbol_str(name)
                ))
            })?;
        }
        Ok(self.intern_attr_ref(AttrRef::Parametric { dialect, name, params }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attrs_are_uniqued() {
        let mut ctx = Context::new();
        let a = ctx.i32_attr(7);
        let b = ctx.i32_attr(7);
        let c = ctx.i32_attr(8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// The borrowed key of every kind of payload finds the entry its
    /// owned form interned, and interns an equal entry the same way: the
    /// two forms agree on `Eq` and `Hash`.
    #[test]
    fn borrowed_keys_find_owned_entries() {
        use crate::types::TypeData;
        let mut ctx = Context::new();
        let i32 = ctx.i32_type();
        let f32 = ctx.f32_type();
        let (d, n, v) = (ctx.symbol("d"), ctx.symbol("n"), ctx.symbol("v"));
        let one = ctx.i32_attr(1);
        let types = [
            TypeData::Integer { width: 7, signedness: crate::types::Signedness::Unsigned },
            TypeData::Float(FloatKind::BF16),
            TypeData::Index,
            TypeData::Function { inputs: vec![i32, f32], results: vec![f32] },
            TypeData::Vector { dims: vec![4, 8], elem: f32 },
            TypeData::Tensor { dims: vec![-1, 3], elem: i32 },
            TypeData::MemRef { dims: vec![16], elem: i32 },
            TypeData::Parametric { dialect: d, name: n, params: vec![one] },
        ];
        for data in types {
            let owned = ctx.intern_type(data.clone());
            assert_eq!(ctx.intern_type_ref(data.view()), owned, "{data:?}");
        }
        let attrs = [
            AttrData::Unit,
            AttrData::Bool(true),
            AttrData::Integer { value: -5, ty: i32 },
            AttrData::Float { bits: 2.5f64.to_bits(), kind: FloatKind::F64 },
            AttrData::String("borrowed".into()),
            AttrData::Array(vec![one, one]),
            AttrData::TypeAttr(f32),
            AttrData::SymbolRef(n),
            AttrData::EnumValue { dialect: d, enum_name: n, variant: v },
            AttrData::Location { file: "f.ir".into(), line: 3, col: 9 },
            AttrData::TypeId(v),
            AttrData::Native { kind: n, text: "map".into() },
            AttrData::Parametric { dialect: d, name: n, params: vec![one] },
        ];
        for data in attrs {
            // Interned first through the key, then found by the owned form.
            let borrowed = ctx.intern_attr_ref(data.view());
            assert_eq!(ctx.intern_attr(data.clone()), borrowed, "{data:?}");
        }
    }

    #[test]
    fn accessors_extract_payloads() {
        let mut ctx = Context::new();
        let i = ctx.i64_attr(-3);
        assert_eq!(i.as_int(&ctx), Some(-3));
        let s = ctx.string_attr("hello");
        assert_eq!(s.as_str(&ctx), Some("hello"));
        let f32 = ctx.f32_type();
        let t = ctx.type_attr(f32);
        assert_eq!(t.as_type(&ctx), Some(f32));
        let f = ctx.f32_attr(1.5);
        assert_eq!(f.as_float(&ctx), Some(1.5));
        let arr = ctx.array_attr([i, s]);
        assert_eq!(arr.as_array(&ctx), Some(&[i, s][..]));
    }

    #[test]
    fn float_attr_uniques_bitwise() {
        let mut ctx = Context::new();
        let a = ctx.f32_attr(0.0);
        let b = ctx.f32_attr(-0.0);
        assert_ne!(a, b, "-0.0 and 0.0 have different bit patterns");
        let c = ctx.f32_attr(f64::NAN);
        let d = ctx.f32_attr(f64::NAN);
        assert_eq!(c, d, "identical NaN payloads unique to one attribute");
    }

    #[test]
    fn enum_attr_structure() {
        let mut ctx = Context::new();
        let e = ctx.enum_attr("builtin", "signedness", "Signed");
        match e.data(&ctx) {
            AttrData::EnumValue { dialect, enum_name, variant } => {
                assert_eq!(ctx.symbol_str(*dialect), "builtin");
                assert_eq!(ctx.symbol_str(*enum_name), "signedness");
                assert_eq!(ctx.symbol_str(*variant), "Signed");
            }
            other => panic!("expected enum value, got {other:?}"),
        }
    }
}
