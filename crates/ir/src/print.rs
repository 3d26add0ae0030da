//! Printing IR to the generic textual format.
//!
//! The syntax is a close cousin of MLIR's generic form:
//!
//! ```text
//! %0 = "cmath.norm"(%p) : (!cmath.complex<f32>) -> f32
//! ```
//!
//! with attribute dictionaries (`{key = value}`), successor lists
//! (`[^bb1, ^bb2]`), and nested regions (`({ ... })`). Operations whose
//! dialect registers a custom syntax hook (an IRDL `Format` or a native
//! implementation) print in their custom form unless
//! [`Printer::set_generic`] forces the generic one.
//!
//! The printer writes into a caller-provided `String` and never builds
//! intermediate per-token strings: SSA names and block labels are numeric
//! ids numbered in [`FastMap`]s (one entry per op, shared by its results)
//! and rendered on the fly, escape-free string literals are copied in one
//! `push_str`, and [`print_op_into`] with a reusable [`PrintScratch`]
//! prints in a steady state of zero heap allocations per operation.
//! Ids, result counts, integer widths and values, dimensions and
//! qualified names are pushed directly, without `core::fmt`.
//!
//! One divergence from MLIR: shaped-type dimension lists are spaced
//! (`vector<4 x f32>` instead of `vector<4xf32>`), which keeps the lexer
//! free of MLIR's dimension-list special case.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::attrs::{AttrData, Attribute};
use crate::block::BlockRef;
use crate::context::Context;
use crate::fasthash::FastMap;
use crate::op::OpRef;
use crate::region::RegionRef;
use crate::types::{Type, TypeData};
use crate::value::Value;

/// Prints IR entities into a borrowed buffer, assigning stable SSA names
/// as it goes.
///
/// Dialect syntax hooks receive a `&mut Printer` and append to the same
/// buffer via [`Printer::token`], [`Printer::print_value`], and friends.
#[derive(Debug)]
pub struct Printer<'w> {
    out: &'w mut String,
    indent: usize,
    /// Ids by value; an op's results share one id, keyed by result 0.
    value_ids: FastMap<Value, u32>,
    block_ids: FastMap<BlockRef, u32>,
    next_value: u32,
    next_block: u32,
    generic: bool,
}

/// Reusable naming-table storage for [`print_op_into`].
///
/// Holding one of these across calls lets the per-op hash maps keep their
/// capacity, so steady-state printing performs no heap allocation.
#[derive(Debug, Default)]
pub struct PrintScratch {
    value_ids: FastMap<Value, u32>,
    block_ids: FastMap<BlockRef, u32>,
}

impl<'w> Printer<'w> {
    /// Creates a printer appending to `out` with custom syntax enabled.
    pub fn new(out: &'w mut String) -> Self {
        Printer {
            out,
            indent: 0,
            value_ids: FastMap::default(),
            block_ids: FastMap::default(),
            next_value: 0,
            next_block: 0,
            generic: false,
        }
    }

    /// Forces the generic form for all operations when `generic` is `true`.
    pub fn set_generic(&mut self, generic: bool) {
        self.generic = generic;
    }

    /// Appends raw text.
    pub fn token(&mut self, text: &str) {
        self.out.push_str(text);
    }

    /// Appends a newline followed by the current indentation.
    pub fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    /// Prints the SSA name of `value` (assigning one if needed).
    pub fn print_value(&mut self, ctx: &Context, value: Value) {
        let id = self.value_id(value);
        self.out.push('%');
        push_decimal(self.out, u64::from(id));
        if let Value::OpResult { op, index } = value {
            if op.num_results(ctx) > 1 {
                self.out.push('#');
                push_decimal(self.out, u64::from(index));
            }
        }
    }

    /// Returns the numeric id naming `value`, assigning one to the whole
    /// result group of the defining op (or to the block arg) on first
    /// sight.
    fn value_id(&mut self, value: Value) -> u32 {
        let key = match value {
            Value::OpResult { op, .. } => Value::OpResult { op, index: 0 },
            arg => arg,
        };
        *self.value_ids.entry(key).or_insert_with(|| {
            let id = self.next_value;
            self.next_value += 1;
            id
        })
    }

    /// Prints the label of `block` (assigning one if needed).
    pub fn print_block_name(&mut self, block: BlockRef) {
        let id = *self.block_ids.entry(block).or_insert_with(|| {
            let id = self.next_block;
            self.next_block += 1;
            id
        });
        self.out.push_str("^bb");
        push_decimal(self.out, u64::from(id));
    }

    /// Appends `dialect.name`.
    fn push_qualified(&mut self, ctx: &Context, dialect: crate::Symbol, name: crate::Symbol) {
        self.out.push_str(ctx.symbol_str(dialect));
        self.out.push('.');
        self.out.push_str(ctx.symbol_str(name));
    }

    /// Appends `s` as the body of a double-quoted literal, escaping as
    /// needed. Escape-free spans (the common case) are copied wholesale.
    fn push_escaped(&mut self, s: &str) {
        let mut rest = s;
        while let Some(pos) = rest
            .bytes()
            .position(|b| matches!(b, b'"' | b'\\' | b'\n' | b'\t'))
        {
            self.out.push_str(&rest[..pos]);
            self.out.push_str(match rest.as_bytes()[pos] {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                _ => "\\t",
            });
            rest = &rest[pos + 1..];
        }
        self.out.push_str(rest);
    }

    /// Prints a type in textual syntax.
    pub fn print_type(&mut self, ctx: &Context, ty: Type) {
        match ctx.type_data(ty) {
            TypeData::Integer { width, signedness } => {
                self.out.push_str(signedness.prefix());
                self.out.push('i');
                push_decimal(self.out, u64::from(*width));
            }
            TypeData::Float(kind) => self.out.push_str(kind.keyword()),
            TypeData::Index => self.out.push_str("index"),
            TypeData::Function { inputs, results } => {
                self.out.push('(');
                for (i, input) in inputs.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.print_type(ctx, *input);
                }
                self.out.push_str(") -> ");
                self.print_type_list_grouped(ctx, results);
            }
            TypeData::Vector { dims, elem } => {
                self.out.push_str("vector<");
                for d in dims {
                    push_decimal(self.out, *d);
                    self.out.push_str(" x ");
                }
                self.print_type(ctx, *elem);
                self.out.push('>');
            }
            TypeData::Tensor { dims, elem } => {
                self.out.push_str("tensor<");
                self.print_signed_dims(ctx, dims, *elem);
            }
            TypeData::MemRef { dims, elem } => {
                self.out.push_str("memref<");
                self.print_signed_dims(ctx, dims, *elem);
            }
            TypeData::Parametric { dialect, name, params } => {
                let (dialect, name) = (*dialect, *name);
                self.out.push('!');
                self.push_qualified(ctx, dialect, name);
                let custom = ctx
                    .registry()
                    .type_def(dialect, name)
                    .and_then(|info| info.syntax.as_deref());
                if let Some(syntax) = custom {
                    self.out.push('<');
                    syntax.print(ctx, params, self);
                    self.out.push('>');
                } else if !params.is_empty() {
                    self.out.push('<');
                    for (i, p) in params.iter().enumerate() {
                        if i > 0 {
                            self.out.push_str(", ");
                        }
                        self.print_attribute(ctx, *p);
                    }
                    self.out.push('>');
                }
            }
        }
    }

    fn print_signed_dims(&mut self, ctx: &Context, dims: &[i64], elem: Type) {
        for d in dims {
            match u64::try_from(*d) {
                Ok(d) => {
                    push_decimal(self.out, d);
                    self.out.push_str(" x ");
                }
                Err(_) => self.out.push_str("? x "),
            }
        }
        self.print_type(ctx, elem);
        self.out.push('>');
    }

    /// Prints `types` as a single type or a parenthesized list.
    pub fn print_type_list_grouped(&mut self, ctx: &Context, types: &[Type]) {
        if types.len() == 1 {
            // A function result that is itself a function type needs parens.
            if matches!(ctx.type_data(types[0]), TypeData::Function { .. }) {
                self.out.push('(');
                self.print_type(ctx, types[0]);
                self.out.push(')');
            } else {
                self.print_type(ctx, types[0]);
            }
            return;
        }
        self.out.push('(');
        for (i, ty) in types.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.print_type(ctx, *ty);
        }
        self.out.push(')');
    }

    /// Prints an attribute-dictionary key, quoting it when it is not a
    /// bare identifier (e.g. `{"foo-bar" = ...}`).
    pub fn print_attr_key(&mut self, ctx: &Context, key: crate::Symbol) {
        let text = ctx.symbol_str(key);
        if is_bare_identifier(text) {
            self.out.push_str(text);
        } else {
            self.out.push('"');
            self.push_escaped(text);
            self.out.push('"');
        }
    }

    /// Prints an attribute in textual syntax.
    pub fn print_attribute(&mut self, ctx: &Context, attr: Attribute) {
        match ctx.attr_data(attr) {
            AttrData::Unit => self.out.push_str("unit"),
            AttrData::Bool(b) => self.out.push_str(if *b { "true" } else { "false" }),
            AttrData::Integer { value, ty } => {
                if *value < 0 {
                    self.out.push('-');
                }
                match u64::try_from(value.unsigned_abs()) {
                    Ok(magnitude) => push_decimal(self.out, magnitude),
                    Err(_) => {
                        let _ = write!(self.out, "{}", value.unsigned_abs());
                    }
                }
                self.out.push_str(" : ");
                self.print_type(ctx, *ty);
            }
            AttrData::Float { bits, kind } => {
                let value = f64::from_bits(*bits);
                if value.is_finite() {
                    let _ = write!(self.out, "{value:?} : {}", kind.keyword());
                } else {
                    let _ = write!(self.out, "0x{bits:016X} : {}", kind.keyword());
                }
            }
            AttrData::String(s) => {
                self.out.push('"');
                self.push_escaped(s);
                self.out.push('"');
            }
            AttrData::Array(items) => {
                self.out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.print_attribute(ctx, *item);
                }
                self.out.push(']');
            }
            AttrData::TypeAttr(ty) => {
                self.print_type(ctx, *ty);
            }
            AttrData::SymbolRef(sym) => {
                let _ = write!(self.out, "@{}", ctx.symbol_str(*sym));
            }
            AttrData::EnumValue { dialect, enum_name, variant } => {
                let _ = write!(
                    self.out,
                    "#{}.{}<{}>",
                    ctx.symbol_str(*dialect),
                    ctx.symbol_str(*enum_name),
                    ctx.symbol_str(*variant)
                );
            }
            AttrData::Location { file, line, col } => {
                self.out.push_str("loc(\"");
                self.push_escaped(file);
                let _ = write!(self.out, "\":{line}:{col})");
            }
            AttrData::TypeId(sym) => {
                let _ = write!(self.out, "typeid<\"{}\">", ctx.symbol_str(*sym));
            }
            AttrData::Native { kind, text } => {
                let _ = write!(self.out, "#native<{} \"", ctx.symbol_str(*kind));
                self.push_escaped(text);
                self.out.push_str("\">");
            }
            AttrData::Parametric { dialect, name, params } => {
                let (dialect, name) = (*dialect, *name);
                self.out.push('#');
                self.push_qualified(ctx, dialect, name);
                let custom = ctx
                    .registry()
                    .attr_def(dialect, name)
                    .and_then(|info| info.syntax.as_deref());
                if let Some(syntax) = custom {
                    self.out.push('<');
                    syntax.print(ctx, params, self);
                    self.out.push('>');
                } else if !params.is_empty() {
                    self.out.push('<');
                    for (i, p) in params.iter().enumerate() {
                        if i > 0 {
                            self.out.push_str(", ");
                        }
                        self.print_attribute(ctx, *p);
                    }
                    self.out.push('>');
                }
            }
        }
    }

    /// Prints a full operation (results, name, body, nested regions).
    pub fn print_op(&mut self, ctx: &Context, op: OpRef) {
        let num_results = op.num_results(ctx);
        if num_results > 0 {
            let id = self.value_id(op.result(ctx, 0));
            self.out.push('%');
            push_decimal(self.out, u64::from(id));
            if num_results > 1 {
                self.out.push(':');
                push_decimal(self.out, num_results as u64);
            }
            self.out.push_str(" = ");
        }
        let name = op.name(ctx);
        let custom = if self.generic {
            None
        } else {
            ctx.op_info(op).and_then(|i| i.syntax.clone())
        };
        match custom {
            Some(syntax) => {
                self.push_qualified(ctx, name.dialect, name.name);
                syntax.print(ctx, op, self);
            }
            None => self.print_op_generic_body(ctx, op),
        }
    }

    fn print_op_generic_body(&mut self, ctx: &Context, op: OpRef) {
        let name = op.name(ctx);
        self.out.push('"');
        self.push_qualified(ctx, name.dialect, name.name);
        self.out.push_str("\"(");
        for i in 0..op.num_operands(ctx) {
            if i > 0 {
                self.out.push_str(", ");
            }
            let operand = op.operands(ctx)[i];
            self.print_value(ctx, operand);
        }
        self.out.push(')');
        if !op.successors(ctx).is_empty() {
            self.out.push('[');
            for i in 0..op.successors(ctx).len() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                self.print_block_name(op.successors(ctx)[i]);
            }
            self.out.push(']');
        }
        if !op.regions(ctx).is_empty() {
            self.out.push_str(" (");
            for i in 0..op.regions(ctx).len() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                self.print_region(ctx, op.regions(ctx)[i]);
            }
            self.out.push(')');
        }
        if !op.attributes(ctx).is_empty() {
            self.out.push_str(" {");
            for i in 0..op.attributes(ctx).len() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                let (key, value) = op.attributes(ctx)[i];
                self.print_attr_key(ctx, key);
                self.out.push_str(" = ");
                self.print_attribute(ctx, value);
            }
            self.out.push('}');
        }
        self.out.push_str(" : (");
        for i in 0..op.num_operands(ctx) {
            if i > 0 {
                self.out.push_str(", ");
            }
            let ty = op.operands(ctx)[i].ty(ctx);
            self.print_type(ctx, ty);
        }
        self.out.push_str(") -> ");
        if op.result_types(ctx).is_empty() {
            self.out.push_str("()");
        } else {
            let types = op.result_types(ctx);
            self.print_type_list_grouped(ctx, types);
        }
    }

    /// Prints a region: `{ blocks }` with indented operations.
    pub fn print_region(&mut self, ctx: &Context, region: RegionRef) {
        self.out.push('{');
        self.indent += 1;
        let blocks = region.blocks(ctx);
        // The entry-block header can only be omitted when nothing needs it:
        // the block must be the sole, non-empty, argument-free block, and no
        // operation in the region may name it as a successor.
        let entry_targeted = blocks.iter().any(|b| {
            b.ops(ctx).iter().any(|op| op.successors(ctx).contains(&blocks[0]))
        });
        let single_plain_entry = blocks.len() == 1
            && blocks[0].num_args(ctx) == 0
            && !blocks[0].ops(ctx).is_empty()
            && !entry_targeted;
        for i in 0..region.blocks(ctx).len() {
            let block = region.blocks(ctx)[i];
            if !(single_plain_entry && i == 0) {
                self.indent -= 1;
                self.newline();
                self.indent += 1;
                self.print_block_header(ctx, block);
            }
            for j in 0..block.ops(ctx).len() {
                let op = block.ops(ctx)[j];
                self.newline();
                self.print_op(ctx, op);
            }
        }
        self.indent -= 1;
        self.newline();
        self.out.push('}');
    }

    fn print_block_header(&mut self, ctx: &Context, block: BlockRef) {
        self.print_block_name(block);
        if block.num_args(ctx) > 0 {
            self.out.push('(');
            for i in 0..block.num_args(ctx) {
                if i > 0 {
                    self.out.push_str(", ");
                }
                let arg = block.arg(ctx, i);
                self.print_value(ctx, arg);
                self.out.push_str(": ");
                self.print_type(ctx, arg.ty(ctx));
            }
            self.out.push(')');
        }
        self.out.push(':');
    }
}

/// Prints `op` (custom syntax where registered) into `out`, reusing the
/// naming tables in `scratch`.
///
/// This is the allocation-free workhorse behind [`op_to_string`]: with a
/// warm `out` capacity and `scratch` reused across calls, steady-state
/// printing performs zero heap allocations per operation.
pub fn print_op_into(ctx: &Context, op: OpRef, out: &mut String, scratch: &mut PrintScratch) {
    let mut p = Printer::new(out);
    std::mem::swap(&mut p.value_ids, &mut scratch.value_ids);
    std::mem::swap(&mut p.block_ids, &mut scratch.block_ids);
    p.value_ids.clear();
    p.block_ids.clear();
    p.print_op(ctx, op);
    std::mem::swap(&mut p.value_ids, &mut scratch.value_ids);
    std::mem::swap(&mut p.block_ids, &mut scratch.block_ids);
}

/// Renders a type to a string.
pub fn type_to_string(ctx: &Context, ty: Type) -> String {
    let mut out = String::new();
    Printer::new(&mut out).print_type(ctx, ty);
    out
}

/// Renders an attribute to a string.
pub fn attr_to_string(ctx: &Context, attr: Attribute) -> String {
    let mut out = String::new();
    Printer::new(&mut out).print_attribute(ctx, attr);
    out
}

/// Renders an operation (custom syntax where registered) to a string.
pub fn op_to_string(ctx: &Context, op: OpRef) -> String {
    let mut out = String::new();
    Printer::new(&mut out).print_op(ctx, op);
    out
}

/// Renders an operation in the generic form only.
pub fn op_to_string_generic(ctx: &Context, op: OpRef) -> String {
    let mut out = String::new();
    let mut p = Printer::new(&mut out);
    p.set_generic(true);
    p.print_op(ctx, op);
    out
}

/// Appends the decimal digits of `n`, without going through `core::fmt`.
fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Returns `true` when `s` lexes as a single bare identifier.
fn is_bare_identifier(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == '$' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$' || c == '.')
}

/// Escapes `s` for inclusion in a double-quoted string literal.
///
/// Escape-free input (the overwhelmingly common case) is returned borrowed
/// without allocating.
pub fn escape_string(s: &str) -> Cow<'_, str> {
    if !s.bytes().any(|b| matches!(b, b'"' | b'\\' | b'\n' | b'\t')) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            _ => out.push(ch),
        }
    }
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, OperationState};

    #[test]
    fn print_builtin_types() {
        let mut ctx = Context::new();
        let i32 = ctx.i32_type();
        assert_eq!(type_to_string(&ctx, i32), "i32");
        let si8 = ctx.int_type_with_signedness(8, crate::Signedness::Signed);
        assert_eq!(type_to_string(&ctx, si8), "si8");
        let f32 = ctx.f32_type();
        let fty = ctx.function_type([i32, f32], [f32]);
        assert_eq!(type_to_string(&ctx, fty), "(i32, f32) -> f32");
        let multi = ctx.function_type([], [i32, f32]);
        assert_eq!(type_to_string(&ctx, multi), "() -> (i32, f32)");
        let vec = ctx.vector_type([4, 8], f32);
        assert_eq!(type_to_string(&ctx, vec), "vector<4 x 8 x f32>");
        let tensor = ctx.tensor_type([-1, 3], f32);
        assert_eq!(type_to_string(&ctx, tensor), "tensor<? x 3 x f32>");
    }

    #[test]
    fn print_parametric_type() {
        let mut ctx = Context::new();
        let f32 = ctx.f32_type();
        let param = ctx.type_attr(f32);
        let complex = ctx.parametric_type("cmath", "complex", [param]).unwrap();
        assert_eq!(type_to_string(&ctx, complex), "!cmath.complex<f32>");
    }

    #[test]
    fn print_attributes() {
        let mut ctx = Context::new();
        let i = ctx.i32_attr(42);
        assert_eq!(attr_to_string(&ctx, i), "42 : i32");
        let f = ctx.f32_attr(1.5);
        assert_eq!(attr_to_string(&ctx, f), "1.5 : f32");
        let s = ctx.string_attr("a\"b");
        assert_eq!(attr_to_string(&ctx, s), "\"a\\\"b\"");
        let arr = ctx.array_attr([i, f]);
        assert_eq!(attr_to_string(&ctx, arr), "[42 : i32, 1.5 : f32]");
        let sym = ctx.symbol_ref_attr("main");
        assert_eq!(attr_to_string(&ctx, sym), "@main");
        let e = ctx.enum_attr("x", "signedness", "Signed");
        assert_eq!(attr_to_string(&ctx, e), "#x.signedness<Signed>");
        let loc = ctx.location_attr("f.mlir", 3, 7);
        assert_eq!(attr_to_string(&ctx, loc), "loc(\"f.mlir\":3:7)");
    }

    #[test]
    fn integers_print_as_core_fmt_does() {
        let mut ctx = Context::new();
        let i64t = ctx.int_type(64);
        for value in [
            0,
            7,
            -1,
            i128::from(u32::MAX),
            i128::from(u64::MAX),
            i128::from(u64::MAX) + 1,
            -i128::from(u64::MAX),
            -i128::from(u64::MAX) - 1,
            i128::MAX,
            i128::MIN,
        ] {
            let attr = ctx.int_attr(value, i64t);
            assert_eq!(attr_to_string(&ctx, attr), format!("{value} : i64"));
        }
        for width in [1, 32, 1000, 16_777_215] {
            let ty = ctx.int_type_with_signedness(width, crate::Signedness::Unsigned);
            assert_eq!(type_to_string(&ctx, ty), format!("ui{width}"));
        }
        let f32 = ctx.f32_type();
        let vec = ctx.vector_type([0, 10, u64::MAX], f32);
        assert_eq!(type_to_string(&ctx, vec), format!("vector<0 x 10 x {} x f32>", u64::MAX));
        let memref = ctx.memref_type([i64::MAX, -1, 100], f32);
        assert_eq!(type_to_string(&ctx, memref), format!("memref<{} x ? x 100 x f32>", i64::MAX));
    }

    #[test]
    fn escape_free_strings_borrow() {
        assert!(matches!(escape_string("plain"), Cow::Borrowed("plain")));
        assert!(matches!(escape_string("a\"b"), Cow::Owned(_)));
        assert_eq!(escape_string("a\\b\nc"), "a\\\\b\\nc");
    }

    #[test]
    fn print_simple_op() {
        let mut ctx = Context::new();
        let f32 = ctx.f32_type();
        let name = ctx.op_name("test", "source");
        let def = ctx.create_op(OperationState::new(name).add_result_types([f32]));
        let v = def.result(&ctx, 0);
        let use_name = ctx.op_name("test", "sink");
        let user = ctx.create_op(OperationState::new(use_name).add_operands([v]));
        let block = ctx.create_block([]);
        ctx.append_op(block, def);
        ctx.append_op(block, user);
        assert_eq!(op_to_string(&ctx, def), "%0 = \"test.source\"() : () -> f32");
        let mut text = String::new();
        let mut p = Printer::new(&mut text);
        p.print_op(&ctx, def);
        p.newline();
        p.print_op(&ctx, user);
        assert_eq!(
            text,
            "%0 = \"test.source\"() : () -> f32\n\"test.sink\"(%0) : (f32) -> ()"
        );
    }

    #[test]
    fn print_module_with_region() {
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let name = ctx.op_name("test", "op");
        let op = ctx.create_op(OperationState::new(name));
        ctx.append_op(block, op);
        let text = op_to_string(&ctx, module);
        assert_eq!(
            text,
            "\"builtin.module\"() ({\n  \"test.op\"() : () -> ()\n}) : () -> ()"
        );
    }

    #[test]
    fn multi_result_group_naming() {
        let mut ctx = Context::new();
        let f32 = ctx.f32_type();
        let i32 = ctx.i32_type();
        let name = ctx.op_name("test", "pair");
        let def = ctx.create_op(OperationState::new(name).add_result_types([f32, i32]));
        let user_name = ctx.op_name("test", "use");
        let r1 = def.result(&ctx, 1);
        let user = ctx.create_op(OperationState::new(user_name).add_operands([r1]));
        let mut text = String::new();
        let mut p = Printer::new(&mut text);
        p.print_op(&ctx, def);
        p.newline();
        p.print_op(&ctx, user);
        assert_eq!(
            text,
            "%0:2 = \"test.pair\"() : () -> (f32, i32)\n\"test.use\"(%0#1) : (i32) -> ()"
        );
    }

    #[test]
    fn print_op_into_reuses_buffers() {
        let mut ctx = Context::new();
        let f32 = ctx.f32_type();
        let name = ctx.op_name("test", "source");
        let op = ctx.create_op(OperationState::new(name).add_result_types([f32]));
        let block = ctx.create_block([]);
        ctx.append_op(block, op);
        let mut out = String::new();
        let mut scratch = PrintScratch::default();
        print_op_into(&ctx, op, &mut out, &mut scratch);
        assert_eq!(out, "%0 = \"test.source\"() : () -> f32");
        out.clear();
        print_op_into(&ctx, op, &mut out, &mut scratch);
        assert_eq!(out, "%0 = \"test.source\"() : () -> f32");
    }
}
