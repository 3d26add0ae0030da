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
//! ids, kept in tables indexed by op and block arena index (one entry per
//! op, shared by its results; block arguments in a [`FastMap`]) and
//! rendered on the fly, and escape-free string literals are copied in one
//! `push_str`. Ids, result counts, integer widths and values, dimensions
//! and qualified names are pushed directly, without `core::fmt`.
//!
//! The naming tables live in the [`Context`] between printers: a
//! [`Printer`]'s first [`Printer::print_op`] takes the context's parked
//! tables, and the printer parks them again, emptied, when it drops. So a
//! printer made per module, as `irdl-opt` and the batch pipeline make
//! them, prints without allocating once the tables have grown, into a
//! reused output `String`.
//!
//! One divergence from MLIR: shaped-type dimension lists are spaced
//! (`vector<4 x f32>` instead of `vector<4xf32>`), which keeps the lexer
//! free of MLIR's dimension-list special case.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};

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
/// Names stay assigned for the printer's lifetime, so ops printed one
/// after another by the same printer name shared values alike.
#[derive(Debug)]
pub struct Printer<'w> {
    out: &'w mut String,
    indent: usize,
    names: NameTables,
    /// The context slot `names` came from and goes back to on drop.
    home: Option<ParkedNames>,
    next_value: u32,
    next_block: u32,
    generic: bool,
}

/// A context's parking slot for printer naming tables.
pub(crate) type ParkedNames = Arc<Mutex<Option<NameTables>>>;

/// A printer's naming tables. The id an op's results share sits at the
/// op's arena index, and a block's label at the block's; block arguments
/// are keyed by value. An indexed entry counts only while it carries the
/// tables' current `stamp`, so emptying them for the next printer is one
/// increment, however large the last module was.
#[derive(Debug)]
pub(crate) struct NameTables {
    stamp: u32,
    ops: Vec<(u32, u32)>,
    blocks: Vec<(u32, u32)>,
    args: FastMap<Value, u32>,
}

impl Default for NameTables {
    fn default() -> Self {
        NameTables { stamp: 1, ops: Vec::new(), blocks: Vec::new(), args: FastMap::default() }
    }
}

impl NameTables {
    /// The id `table` holds at `index`, taking `*next` (and advancing
    /// it) when there is none yet.
    fn id(stamp: u32, table: &mut Vec<(u32, u32)>, index: usize, next: &mut u32) -> u32 {
        if index >= table.len() {
            table.resize(index + 1, (0, 0));
        }
        let slot = &mut table[index];
        if slot.0 != stamp {
            *slot = (stamp, *next);
            *next += 1;
        }
        slot.1
    }

    fn is_empty(&self) -> bool {
        self.ops.is_empty() && self.blocks.is_empty() && self.args.is_empty()
    }

    /// Forgets every name, keeping the buffers.
    fn clear(&mut self) {
        self.args.clear();
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.ops.fill((0, 0));
            self.blocks.fill((0, 0));
            self.stamp = 1;
        }
    }
}

impl<'w> Printer<'w> {
    /// Creates a printer appending to `out` with custom syntax enabled.
    pub fn new(out: &'w mut String) -> Self {
        Printer {
            out,
            indent: 0,
            names: NameTables::default(),
            home: None,
            next_value: 0,
            next_block: 0,
            generic: false,
        }
    }

    /// Takes `ctx`'s parked naming tables for this printer's lifetime,
    /// unless another printer holds them or this one has named something
    /// already; [`Drop`] parks the printer's tables in their place.
    fn adopt_names(&mut self, ctx: &Context) {
        let home = Arc::clone(ctx.parked_names());
        let parked = home.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(parked) = parked {
            if self.names.is_empty() {
                self.names = parked;
            }
        }
        self.home = Some(home);
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
        let names = &mut self.names;
        match value {
            Value::OpResult { op, .. } => {
                NameTables::id(names.stamp, &mut names.ops, op.index(), &mut self.next_value)
            }
            arg => *names.args.entry(arg).or_insert_with(|| {
                let id = self.next_value;
                self.next_value += 1;
                id
            }),
        }
    }

    /// Prints the label of `block` (assigning one if needed).
    pub fn print_block_name(&mut self, block: BlockRef) {
        let names = &mut self.names;
        let (stamp, index) = (names.stamp, block.index());
        let id = NameTables::id(stamp, &mut names.blocks, index, &mut self.next_block);
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
        if self.home.is_none() {
            self.adopt_names(ctx);
        }
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

impl Drop for Printer<'_> {
    /// Parks the naming tables, emptied, in the context they came from.
    fn drop(&mut self) {
        if let Some(home) = self.home.take() {
            let mut names = std::mem::take(&mut self.names);
            names.clear();
            *home.lock().unwrap_or_else(PoisonError::into_inner) = Some(names);
        }
    }
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
    drop(p);
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
        drop(p);
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
        drop(p);
        assert_eq!(
            text,
            "%0:2 = \"test.pair\"() : () -> (f32, i32)\n\"test.use\"(%0#1) : (i32) -> ()"
        );
    }

    /// Printers made one after another reuse the context's naming
    /// tables: once warm, printing a module into a reused `String` through
    /// a fresh printer leaves the tables parked, grown, and prints the
    /// same text.
    #[test]
    fn printers_reuse_the_context_tables() {
        let mut ctx = Context::new();
        let f32 = ctx.f32_type();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let name = ctx.op_name("test", "source");
        for _ in 0..64 {
            let op = ctx.create_op(OperationState::new(name).add_result_types([f32]));
            ctx.append_op(block, op);
        }
        let first = op_to_string(&ctx, module);
        let parked = |ctx: &Context| {
            let slot = ctx.parked_names().lock().unwrap();
            slot.as_ref().map(|names| (names.stamp, names.ops.len(), names.ops.capacity()))
        };
        let (stamp, len, capacity) = parked(&ctx).expect("the printer parked its tables");
        assert!(len > 64, "the tables kept an entry for every op");
        let mut out = String::new();
        Printer::new(&mut out).print_op(&ctx, module);
        assert_eq!(out, first);
        assert_eq!(parked(&ctx), Some((stamp + 1, len, capacity)), "emptied by a new stamp");
    }

    /// When the stamp wraps, emptying the tables resets every entry, so
    /// no name from 2^32 printers ago can come back.
    #[test]
    fn stamp_wrap_resets_entries() {
        let mut names = NameTables { stamp: u32::MAX, ..NameTables::default() };
        let mut next = 0;
        assert_eq!(NameTables::id(names.stamp, &mut names.ops, 3, &mut next), 0);
        names.clear();
        assert_eq!(names.stamp, 1);
        assert_eq!(NameTables::id(names.stamp, &mut names.ops, 3, &mut next), 1);
        assert_eq!(NameTables::id(names.stamp, &mut names.ops, 0, &mut next), 2);
    }
}
