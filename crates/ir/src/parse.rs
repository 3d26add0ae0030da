//! Parsing the generic IR textual format back into a [`Context`].
//!
//! Supports the generic operation form produced by [`crate::print`] plus
//! dialect-registered custom syntax (IRDL `Format` directives or native
//! hooks). SSA value names must be defined textually before use (forward
//! references to *blocks* are supported; forward references to values are
//! not — a documented divergence from MLIR's graph regions).
//!
//! The parser streams its input: it pulls one token at a time from the
//! lexer through a [`TokenStream`] with two tokens of lookahead, so the
//! source is never held as a token buffer. A lex error is still reported
//! ahead of any parse error (see [`TokenStream::finish`]).
//!
//! It is also zero-copy end to end: tokens borrow `&str` slices of the
//! source (see [`crate::lexer`]) and identifiers intern straight into
//! [`Symbol`]s with a single hash lookup. Types and attributes intern
//! through their borrowed keys ([`TypeRef`], [`AttrRef`]): the elements
//! of a payload (function-type inputs and results, parameters, array
//! items, shaped-type dimensions) are parsed onto stacks kept in
//! `ParseScratch`, interned from their slice and truncated away, and a
//! string literal interns from its token. So a type or attribute that is
//! already interned costs no allocation, and one that is new costs only
//! its own payload. A parametric type or attribute is interned only once
//! its dialect's verifier has accepted the parameters.
//!
//! SSA value names are purely textual, as in MLIR: they are scoped per
//! region and never outlive the parse. A decimal name (`%0`, `%17#1`,
//! `%3:2`, a block argument `%5`) indexes a dense table directly and is
//! never interned. The table holds at most one slot per source byte: a
//! decimal name at or past the source length, a name with a leading zero
//! (`%007` stays distinct from `%7`) and every other name (`%arg`, `%v3`)
//! resolve through per-scope maps keyed by interned [`Symbol`]s instead.
//! Block labels always do. The tables live in the [`Context`] between
//! parses, so their buffers are reused (see `ParseScratch`).

use std::collections::hash_map::Entry;

use crate::fasthash::FastMap;

use crate::attrs::{AttrData, AttrRef, Attribute};
use crate::block::BlockRef;
use crate::context::Context;
use crate::diag::{Diagnostic, Result};
use crate::dialect::ParamsSyntax;
use crate::lexer::{Token, TokenStream};
use crate::op::{OpName, OpRef, OperationState, PartialIr};
use crate::region::RegionRef;
use crate::symbol::Symbol;
use crate::types::{FloatKind, Signedness, Type, TypeData, TypeRef};
use crate::value::Value;

/// Parses a source file: a sequence of top-level operations.
///
/// If the source contains exactly one `builtin.module`, it is returned
/// directly; otherwise the parsed operations are wrapped in a fresh module.
///
/// # Errors
///
/// Returns a diagnostic with a byte offset into `source` on malformed
/// input. A lex error anywhere in `source` is reported ahead of any parse
/// error. Either way, the IR parsed before the error is erased from
/// `ctx`.
pub fn parse_module(ctx: &mut Context, source: &str) -> Result<OpRef> {
    parse_source(ctx, source, |parser| parser.parse_top_level())
}

/// The same as [`parse_module`]; `lex_jobs` is ignored. It stays only
/// because the benchmark in `irdlbench/` calls it.
///
/// # Errors
///
/// As [`parse_module`].
pub fn parse_module_chunked(ctx: &mut Context, source: &str, _lex_jobs: usize) -> Result<OpRef> {
    parse_module(ctx, source)
}

/// Parses a single type from `source` (e.g. `"!cmath.complex<f32>"`).
///
/// # Errors
///
/// Returns a diagnostic on malformed input or trailing tokens.
pub fn parse_type_str(ctx: &mut Context, source: &str) -> Result<Type> {
    parse_source(ctx, source, |parser| {
        let ty = parser.parse_type()?;
        parser.tokens.expect_eof()?;
        Ok(ty)
    })
}

/// Parses a single attribute from `source` (e.g. `"42 : i32"`).
///
/// # Errors
///
/// Returns a diagnostic on malformed input or trailing tokens.
pub fn parse_attr_str(ctx: &mut Context, source: &str) -> Result<Attribute> {
    parse_source(ctx, source, |parser| {
        let attr = parser.parse_attribute()?;
        parser.tokens.expect_eof()?;
        Ok(attr)
    })
}

/// Runs `parse` over a token stream of `source`, ending through
/// [`TokenStream::finish`] so a lex error anywhere wins.
fn parse_source<'s, T>(
    ctx: &mut Context,
    source: &'s str,
    parse: impl FnOnce(&mut Parser<'s, '_>) -> Result<T>,
) -> Result<T> {
    let scopes = std::mem::take(ctx.parse_scratch_mut());
    let mut parser = Parser::new(ctx, source, scopes);
    let result = parse(&mut parser);
    let result = parser.tokens.finish(result);
    parser.scopes.close_all();
    if result.is_err() {
        parser.ctx.erase_partial(&mut parser.scopes.partial);
    }
    parser.scopes.partial.clear();
    debug_assert!(
        parser.scopes.types.is_empty()
            && parser.scopes.attrs.is_empty()
            && parser.scopes.dims.is_empty()
            && parser.scopes.signed_dims.is_empty(),
        "every payload frame is truncated on the way out"
    );
    *parser.ctx.parse_scratch_mut() = parser.scopes;
    result
}

/// A named group of values: one value, or `len` consecutive results of
/// one op starting at `first` (`%x:2` defines a group of two). Small, so a
/// scope map of a large block stays small.
#[derive(Debug, Clone, Copy)]
struct ValueGroup {
    first: Value,
    len: u32,
}

impl ValueGroup {
    fn get(self, i: usize) -> Option<Value> {
        if i >= self.len as usize {
            return None;
        }
        Some(match self.first {
            Value::OpResult { op, index } => Value::OpResult { op, index: index + i as u32 },
            arg => arg,
        })
    }
}

/// A visible binding of a decimal name, and the depth of the scope that
/// made it (the outermost scope is depth 1).
#[derive(Debug, Clone, Copy)]
struct DenseBinding {
    group: ValueGroup,
    depth: u32,
}

/// The value and block scopes of a parse. It is parked in the [`Context`]
/// between parses, so its buffers keep their capacity.
///
/// A decimal value name `%N` (digits with no leading zero, `N` below the
/// source length) binds in `dense` at index `N`. Shadowing works through
/// an undo log: a definition that hides an outer binding saves it, and
/// closing the scope restores it. Every other name binds in a per-scope
/// map keyed by its interned [`Symbol`]. A name's path depends only on its
/// text and the source length, so within one parse a name always takes the
/// same path, and `dense` never outgrows the source.
#[derive(Debug, Default)]
pub(crate) struct ParseScratch {
    /// The visible binding of `%N`, at index `N`.
    dense: Vec<Option<DenseBinding>>,
    /// The `dense` indices each open scope defined, innermost scope last.
    dense_defined: Vec<u32>,
    /// Outer bindings hidden by inner definitions, with their indices.
    dense_shadowed: Vec<(u32, DenseBinding)>,
    /// For each open scope, the lengths of `dense_defined` and
    /// `dense_shadowed` when it opened.
    marks: Vec<(usize, usize)>,
    /// Non-decimal value names and block labels, one map per open scope.
    named: Vec<FastMap<Symbol, ValueGroup>>,
    blocks: Vec<FastMap<Symbol, BlockRef>>,
    /// Retired scope maps, kept to reuse their capacity.
    named_pool: Vec<FastMap<Symbol, ValueGroup>>,
    block_pool: Vec<FastMap<Symbol, BlockRef>>,
    /// What a failed parse must erase: the top-level ops (and, once built,
    /// the result), and every block and region the parse created.
    partial: PartialIr,
    /// Stacks the elements of type and attribute payloads are parsed
    /// onto: function-type inputs and results, parameters and array
    /// items, and shaped-type dimensions. A payload's elements sit above
    /// those of the payloads enclosing it; it is interned from its slice
    /// and truncated away, so a payload that is already interned costs no
    /// allocation.
    types: Vec<Type>,
    attrs: Vec<Attribute>,
    dims: Vec<u64>,
    signed_dims: Vec<i64>,
}

impl ParseScratch {
    fn open(&mut self) {
        self.marks.push((self.dense_defined.len(), self.dense_shadowed.len()));
        self.named.push(self.named_pool.pop().unwrap_or_default());
        self.blocks.push(self.block_pool.pop().unwrap_or_default());
    }

    fn close(&mut self) {
        let (defined, shadowed) = self.marks.pop().expect("no open scope");
        for n in self.dense_defined.drain(defined..) {
            self.dense[n as usize] = None;
        }
        for (n, binding) in self.dense_shadowed.drain(shadowed..) {
            self.dense[n as usize] = Some(binding);
        }
        let mut named = self.named.pop().expect("no open scope");
        named.clear();
        self.named_pool.push(named);
        let mut blocks = self.blocks.pop().expect("no open scope");
        blocks.clear();
        self.block_pool.push(blocks);
    }

    /// Closes every open scope, as a parse that failed part-way leaves
    /// them, so the next parse starts from an empty table.
    fn close_all(&mut self) {
        while !self.marks.is_empty() {
            self.close();
        }
    }

    /// Binds `%n` in the innermost scope; `false` if that scope already
    /// binds it.
    fn define_dense(&mut self, n: u32, group: ValueGroup) -> bool {
        let depth = self.marks.len() as u32;
        let index = n as usize;
        if index >= self.dense.len() {
            self.dense.resize(index + 1, None);
        }
        match self.dense[index] {
            Some(outer) if outer.depth == depth => return false,
            Some(outer) => self.dense_shadowed.push((n, outer)),
            None => {}
        }
        self.dense[index] = Some(DenseBinding { group, depth });
        self.dense_defined.push(n);
        true
    }

    fn lookup_dense(&self, n: u32) -> Option<ValueGroup> {
        self.dense.get(n as usize).copied().flatten().map(|binding| binding.group)
    }
}

/// The index of `%name` in the dense table: `name` is decimal without a
/// leading zero (`%007` stays distinct from `%7`) and below `limit`.
fn dense_index(name: &str, limit: u32) -> Option<u32> {
    let bytes = name.as_bytes();
    if bytes.is_empty() || (bytes[0] == b'0' && bytes.len() > 1) {
        return None;
    }
    let mut n = 0u32;
    for &byte in bytes {
        let digit = byte.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        // Stops at the limit, so no name can overflow.
        n = n * 10 + u32::from(digit);
        if n >= limit {
            return None;
        }
    }
    Some(n)
}

pub(crate) struct Parser<'s, 'c> {
    pub(crate) ctx: &'c mut Context,
    tokens: TokenStream<'s>,
    scopes: ParseScratch,
    /// Decimal names below this bound (the source length) are dense.
    dense_limit: u32,
}

impl<'s, 'c> Parser<'s, 'c> {
    fn new(ctx: &'c mut Context, source: &'s str, scopes: ParseScratch) -> Self {
        // `u32::MAX / 10` keeps `dense_index`'s arithmetic in range.
        let dense_limit = source.len().min(u32::MAX as usize / 10) as u32;
        Parser { ctx, tokens: TokenStream::new(source), scopes, dense_limit }
    }

    /// Parses the top-level operations of a source file into a module.
    ///
    /// The ops are listed in the scratch's partial IR until they are in
    /// the module, and the module is listed once built, so a failure
    /// reported after this returns still erases it.
    fn parse_top_level(&mut self) -> Result<OpRef> {
        self.scopes.open();
        while self.tokens.peek() != &Token::Eof {
            let op = self.parse_op()?;
            self.scopes.partial.ops.push(op);
        }
        self.scopes.close();
        let module_name = self.ctx.op_name("builtin", "module");
        let ops = &mut self.scopes.partial.ops;
        if ops.len() == 1 && ops[0].name(self.ctx) == module_name {
            return Ok(ops[0]);
        }
        let module = self.ctx.create_module();
        let block = self.ctx.module_block(module);
        for &op in ops.iter() {
            self.ctx.append_op(block, op);
        }
        ops.clear();
        ops.push(module);
        Ok(module)
    }

    /// An attribute-dictionary key: a bare identifier or a quoted string
    /// (for keys that are not lexable identifiers). Interned directly.
    fn expect_attr_key(&mut self) -> Result<Symbol> {
        match self.tokens.peek() {
            Token::Ident(s) => {
                let s = *s;
                self.tokens.bump();
                Ok(self.ctx.symbol(s))
            }
            Token::Str(_) => {
                let Token::Str(s) = self.tokens.bump() else { unreachable!() };
                Ok(self.ctx.symbol(&s))
            }
            other => Err(self.tokens.expected("attribute key", other)),
        }
    }

    /// Parses an optional `{key = attr, ...}` dictionary into `out`.
    fn parse_optional_attr_entries(&mut self, out: &mut crate::op::AttrList) -> Result<()> {
        if self.tokens.consume_if(&Token::LBrace) && !self.tokens.consume_if(&Token::RBrace) {
            loop {
                let key = self.expect_attr_key()?;
                self.tokens.expect(&Token::Equals)?;
                let value = self.parse_attribute()?;
                out.push_pooled((key, value), &mut self.ctx.spill_pool_mut().attrs);
                if !self.tokens.consume_if(&Token::Comma) {
                    break;
                }
            }
            self.tokens.expect(&Token::RBrace)?;
        }
        Ok(())
    }

    // ----- scopes ------------------------------------------------------------

    /// Binds `%name` (its token at `offset`) to `len` values from `first`.
    fn define_value_group(&mut self, name: &str, offset: usize, first: Value, len: u32) -> Result<()> {
        // Every use splits its name at `#`, so no use could reach this one.
        if name.contains('#') {
            return Err(Diagnostic::at(
                offset,
                format!("value name `%{name}` cannot contain `#`, which selects a result"),
            ));
        }
        let group = ValueGroup { first, len };
        let defined = match dense_index(name, self.dense_limit) {
            Some(n) => self.scopes.define_dense(n, group),
            None => {
                let sym = self.ctx.symbol(name);
                let scope = self.scopes.named.last_mut().expect("no open scope");
                match scope.entry(sym) {
                    Entry::Occupied(_) => false,
                    Entry::Vacant(slot) => {
                        slot.insert(group);
                        true
                    }
                }
            }
        };
        if !defined {
            return Err(Diagnostic::at(offset, format!("redefinition of value `%{name}`")));
        }
        Ok(())
    }

    /// Resolves the use `%name` whose token starts at `offset`.
    fn resolve_value(&self, name: &str, offset: usize) -> Result<Value> {
        let (base, index) = match name.split_once('#') {
            Some((base, idx)) => {
                let index: usize = idx.parse().map_err(|_| {
                    Diagnostic::at(offset, format!("invalid result index in `%{name}`"))
                })?;
                (base, Some(index))
            }
            None => (name, None),
        };
        let group = match dense_index(base, self.dense_limit) {
            Some(n) => self.scopes.lookup_dense(n),
            // A name that was never interned cannot have been defined.
            None => self.ctx.symbol_lookup(base).and_then(|sym| {
                self.scopes.named.iter().rev().find_map(|scope| scope.get(&sym).copied())
            }),
        };
        let Some(group) = group else {
            return Err(Diagnostic::at(offset, format!("use of undefined value `%{base}`")));
        };
        match index {
            Some(i) => group.get(i).ok_or_else(|| {
                Diagnostic::at(offset, format!("result index out of range in `%{name}`"))
            }),
            None if group.len == 1 => Ok(group.first),
            None => Err(Diagnostic::at(
                offset,
                format!("`%{base}` names a group of {} results; use `%{base}#N`", group.len),
            )),
        }
    }

    /// Where the `%name` token of a hook-supplied entry-argument name
    /// starts. Names from [`OpParser::parse_value_id`] are slices of the
    /// source; any other name is placed at the current token.
    fn value_name_offset(&self, name: &str) -> usize {
        self.tokens.offset_of(name).map_or(self.tokens.offset(), |start| start.saturating_sub(1))
    }

    fn get_or_create_block(&mut self, name: &str) -> BlockRef {
        let sym = self.ctx.symbol(name);
        let scopes = &mut self.scopes;
        let scope = scopes.blocks.last_mut().expect("no open scope");
        *scope.entry(sym).or_insert_with(|| {
            let block = self.ctx.create_block([]);
            scopes.partial.blocks.push(block);
            block
        })
    }

    /// Runs `parse` on a frame of the payload stack `stack` selects: it
    /// gets the stack's length as the frame's start, and the stack is
    /// truncated back to it afterwards, whether `parse` succeeds or not.
    fn framed<E, T>(
        &mut self,
        stack: impl Fn(&mut ParseScratch) -> &mut Vec<E>,
        parse: impl FnOnce(&mut Self, usize) -> Result<T>,
    ) -> Result<T> {
        let start = stack(&mut self.scopes).len();
        let result = parse(self, start);
        stack(&mut self.scopes).truncate(start);
        result
    }

    // ----- types -------------------------------------------------------------

    pub(crate) fn parse_type(&mut self) -> Result<Type> {
        match self.tokens.peek() {
            Token::Ident(name) => {
                let name = *name;
                self.tokens.bump();
                self.parse_builtin_type(name)
            }
            Token::TypeRef(full) => {
                let full = *full;
                self.tokens.bump();
                let (dialect, name) = full.split_once('.').ok_or_else(|| {
                    self.tokens.error(format!("type reference `!{full}` must be dialect-qualified"))
                })?;
                let dialect = self.ctx.symbol(dialect);
                let name = self.ctx.symbol(name);
                // Custom parameter syntax (IRDL `Format` on the type).
                let custom = self
                    .ctx
                    .registry()
                    .type_def(dialect, name)
                    .and_then(|info| info.syntax.clone());
                self.framed(
                    |s| &mut s.attrs,
                    |p, start| {
                        p.parse_params(custom.as_deref(), start)?;
                        let offset = p.tokens.offset();
                        p.ctx
                            .parametric_type_ref(dialect, name, &p.scopes.attrs[start..])
                            .map_err(|d| d.or_offset(offset))
                    },
                )
            }
            Token::LParen => {
                self.tokens.bump();
                self.framed(
                    |s| &mut s.types,
                    |p, start| {
                        if !p.tokens.consume_if(&Token::RParen) {
                            loop {
                                let ty = p.parse_type()?;
                                p.scopes.types.push(ty);
                                if !p.tokens.consume_if(&Token::Comma) {
                                    break;
                                }
                            }
                            p.tokens.expect(&Token::RParen)?;
                        }
                        p.tokens.expect(&Token::Arrow)?;
                        let results = p.scopes.types.len();
                        p.push_type_list_grouped()?;
                        let (inputs, results) = p.scopes.types[start..].split_at(results - start);
                        Ok(p.ctx.intern_type_ref(TypeRef::Function { inputs, results }))
                    },
                )
            }
            other => Err(self.tokens.expected("type", other)),
        }
    }

    fn parse_builtin_type(&mut self, name: &str) -> Result<Type> {
        if let Some(width) = parse_int_keyword(name, "i") {
            return Ok(self.ctx.int_type(width));
        }
        if let Some(width) = parse_int_keyword(name, "si") {
            return Ok(self.ctx.int_type_with_signedness(width, Signedness::Signed));
        }
        if let Some(width) = parse_int_keyword(name, "ui") {
            return Ok(self.ctx.int_type_with_signedness(width, Signedness::Unsigned));
        }
        match name {
            "f16" => return Ok(self.ctx.float_type(FloatKind::F16)),
            "bf16" => return Ok(self.ctx.float_type(FloatKind::BF16)),
            "f32" => return Ok(self.ctx.f32_type()),
            "f64" => return Ok(self.ctx.f64_type()),
            "index" => return Ok(self.ctx.index_type()),
            _ => {}
        }
        match name {
            "vector" => {
                self.tokens.expect(&Token::Lt)?;
                self.framed(
                    |s| &mut s.dims,
                    |p, start| {
                        while let Token::Integer { value, .. } = *p.tokens.peek() {
                            if value < 0 {
                                break;
                            }
                            p.tokens.bump();
                            p.scopes.dims.push(value as u64);
                            p.tokens.expect_keyword("x")?;
                        }
                        let elem = p.parse_type()?;
                        p.tokens.expect(&Token::Gt)?;
                        let dims = &p.scopes.dims[start..];
                        Ok(p.ctx.intern_type_ref(TypeRef::Vector { dims, elem }))
                    },
                )
            }
            "tensor" | "memref" => {
                let is_tensor = name == "tensor";
                self.tokens.expect(&Token::Lt)?;
                self.framed(
                    |s| &mut s.signed_dims,
                    |p, start| {
                        loop {
                            match *p.tokens.peek() {
                                Token::Integer { value, .. } if value >= 0 => {
                                    p.tokens.bump();
                                    p.scopes.signed_dims.push(value as i64);
                                }
                                Token::Question => {
                                    p.tokens.bump();
                                    p.scopes.signed_dims.push(-1);
                                }
                                _ => break,
                            }
                            p.tokens.expect_keyword("x")?;
                        }
                        let elem = p.parse_type()?;
                        p.tokens.expect(&Token::Gt)?;
                        let dims = &p.scopes.signed_dims[start..];
                        Ok(p.ctx.intern_type_ref(if is_tensor {
                            TypeRef::Tensor { dims, elem }
                        } else {
                            TypeRef::MemRef { dims, elem }
                        }))
                    },
                )
            }
            other => Err(self.tokens.error(format!("unknown builtin type `{other}`"))),
        }
    }

    /// Pushes a single type, or a parenthesized list of them, onto the
    /// type stack.
    fn push_type_list_grouped(&mut self) -> Result<()> {
        if !self.tokens.consume_if(&Token::LParen) {
            let ty = self.parse_type()?;
            self.scopes.types.push(ty);
            return Ok(());
        }
        if !self.tokens.consume_if(&Token::RParen) {
            loop {
                let ty = self.parse_type()?;
                self.scopes.types.push(ty);
                if !self.tokens.consume_if(&Token::Comma) {
                    break;
                }
            }
            self.tokens.expect(&Token::RParen)?;
        }
        Ok(())
    }

    /// Pushes the parameters of a parametric type or attribute onto the
    /// attribute stack, whose frame starts at `start`: through the
    /// registered syntax hook between `<` and `>` when there is one,
    /// otherwise as an optional `<attr, attr, ...>` list.
    fn parse_params(&mut self, custom: Option<&dyn ParamsSyntax>, start: usize) -> Result<()> {
        if let Some(syntax) = custom {
            self.tokens.expect(&Token::Lt)?;
            syntax.parse(&mut ParamParser { parser: self, start })?;
            return self.tokens.expect(&Token::Gt);
        }
        if self.tokens.consume_if(&Token::Lt) && !self.tokens.consume_if(&Token::Gt) {
            loop {
                let param = self.parse_attribute()?;
                self.scopes.attrs.push(param);
                if !self.tokens.consume_if(&Token::Comma) {
                    break;
                }
            }
            self.tokens.expect(&Token::Gt)?;
        }
        Ok(())
    }

    // ----- attributes ----------------------------------------------------------

    pub(crate) fn parse_attribute(&mut self) -> Result<Attribute> {
        match self.tokens.peek() {
            Token::Integer { value, hex } => {
                let (value, hex) = (*value, *hex);
                self.tokens.bump();
                if self.tokens.consume_if(&Token::Colon) {
                    let ty = self.parse_type()?;
                    match *self.ctx.type_data(ty) {
                        TypeData::Float(kind) => {
                            if hex {
                                let bits = u64::try_from(value).map_err(|_| {
                                    self.tokens.error(format!(
                                        "hex float literal {value:#x} does not fit in 64 bits"
                                    ))
                                })?;
                                Ok(self.ctx.intern_attr(AttrData::Float { bits, kind }))
                            } else {
                                Ok(self.ctx.float_attr(value as f64, kind))
                            }
                        }
                        TypeData::Integer { .. } | TypeData::Index => {
                            Ok(self.ctx.int_attr(value, ty))
                        }
                        _ => Err(self
                            .tokens
                            .error("integer attribute requires an integer, index, or float type")),
                    }
                } else {
                    // Untyped integers default to i64, matching common usage.
                    Ok(self.ctx.i64_attr(value as i64))
                }
            }
            Token::Float(value) => {
                let value = *value;
                self.tokens.bump();
                let kind = if self.tokens.consume_if(&Token::Colon) {
                    let ty = self.parse_type()?;
                    match *self.ctx.type_data(ty) {
                        TypeData::Float(kind) => kind,
                        _ => return Err(self.tokens.error("float attribute requires a float type")),
                    }
                } else {
                    FloatKind::F64
                };
                Ok(self.ctx.float_attr(value, kind))
            }
            Token::Str(_) => {
                let Token::Str(s) = self.tokens.bump() else { unreachable!() };
                Ok(self.ctx.intern_attr_ref(AttrRef::String(&s)))
            }
            Token::LBracket => {
                self.tokens.bump();
                self.framed(
                    |s| &mut s.attrs,
                    |p, start| {
                        if !p.tokens.consume_if(&Token::RBracket) {
                            loop {
                                let item = p.parse_attribute()?;
                                p.scopes.attrs.push(item);
                                if !p.tokens.consume_if(&Token::Comma) {
                                    break;
                                }
                            }
                            p.tokens.expect(&Token::RBracket)?;
                        }
                        Ok(p.ctx.intern_attr_ref(AttrRef::Array(&p.scopes.attrs[start..])))
                    },
                )
            }
            Token::SymbolRef(name) => {
                let name = *name;
                self.tokens.bump();
                Ok(self.ctx.symbol_ref_attr(name))
            }
            Token::Ident(kw) => match *kw {
                "unit" => {
                    self.tokens.bump();
                    Ok(self.ctx.unit_attr())
                }
                "true" => {
                    self.tokens.bump();
                    Ok(self.ctx.bool_attr(true))
                }
                "false" => {
                    self.tokens.bump();
                    Ok(self.ctx.bool_attr(false))
                }
                "loc" => {
                    self.tokens.bump();
                    self.tokens.expect(&Token::LParen)?;
                    let file = match self.tokens.bump() {
                        Token::Str(s) => s,
                        other => return Err(self.tokens.expected("file string", &other)),
                    };
                    self.tokens.expect(&Token::Colon)?;
                    let line = self.expect_unsigned()? as u32;
                    self.tokens.expect(&Token::Colon)?;
                    let col = self.expect_unsigned()? as u32;
                    self.tokens.expect(&Token::RParen)?;
                    Ok(self.ctx.location_attr(&file, line, col))
                }
                "typeid" => {
                    self.tokens.bump();
                    self.tokens.expect(&Token::Lt)?;
                    let name = match self.tokens.bump() {
                        Token::Str(s) => s,
                        other => return Err(self.tokens.expected("type-id string", &other)),
                    };
                    self.tokens.expect(&Token::Gt)?;
                    Ok(self.ctx.type_id_attr(&name))
                }
                _ => {
                    // Fall back to a type attribute (`i32`, `vector<...>`, ...).
                    let ty = self.parse_type()?;
                    Ok(self.ctx.type_attr(ty))
                }
            },
            Token::TypeRef(_) | Token::LParen => {
                let ty = self.parse_type()?;
                Ok(self.ctx.type_attr(ty))
            }
            Token::AttrRef(full) => {
                let full = *full;
                self.tokens.bump();
                if full == "native" {
                    self.tokens.expect(&Token::Lt)?;
                    let kind = self.tokens.expect_ident()?;
                    let text = match self.tokens.bump() {
                        Token::Str(s) => s,
                        other => return Err(self.tokens.expected("native parameter text", &other)),
                    };
                    self.tokens.expect(&Token::Gt)?;
                    let offset = self.tokens.offset();
                    return self
                        .ctx
                        .native_attr(kind, &text)
                        .map_err(|d| d.or_offset(offset));
                }
                let (dialect, name) = full.split_once('.').ok_or_else(|| {
                    let message = format!("attribute reference `#{full}` must be dialect-qualified");
                    self.tokens.error(message)
                })?;
                let dialect_sym = self.ctx.symbol(dialect);
                let name_sym = self.ctx.symbol(name);
                // Enum attribute if (dialect, name) names a registered enum.
                if self.ctx.registry().enum_def(dialect_sym, name_sym).is_some() {
                    self.tokens.expect(&Token::Lt)?;
                    let variant = self.tokens.expect_ident()?;
                    self.tokens.expect(&Token::Gt)?;
                    let offset = self.tokens.offset();
                    let info = self
                        .ctx
                        .registry()
                        .enum_def(dialect_sym, name_sym)
                        .expect("checked above");
                    let variant_sym = self.ctx.symbol_lookup(variant);
                    let valid = variant_sym.is_some_and(|v| info.variants.contains(&v));
                    if !valid {
                        return Err(Diagnostic::at(
                            offset,
                            format!("`{variant}` is not a constructor of enum `{dialect}.{name}`"),
                        ));
                    }
                    return Ok(self.ctx.enum_attr(dialect, name, variant));
                }
                let custom = self
                    .ctx
                    .registry()
                    .attr_def(dialect_sym, name_sym)
                    .and_then(|info| info.syntax.clone());
                self.framed(
                    |s| &mut s.attrs,
                    |p, start| {
                        p.parse_params(custom.as_deref(), start)?;
                        let offset = p.tokens.offset();
                        p.ctx
                            .parametric_attr_ref(dialect_sym, name_sym, &p.scopes.attrs[start..])
                            .map_err(|d| d.or_offset(offset))
                    },
                )
            }
            other => Err(self.tokens.expected("attribute", other)),
        }
    }

    fn expect_unsigned(&mut self) -> Result<i128> {
        match self.tokens.peek() {
            Token::Integer { value, .. } if *value >= 0 => {
                let value = *value;
                self.tokens.bump();
                Ok(value)
            }
            other => Err(self.tokens.expected("unsigned integer", other)),
        }
    }

    // ----- operations ----------------------------------------------------------

    fn parse_op(&mut self) -> Result<OpRef> {
        // Result definitions: `%a:2, %b = ...` (inline up to two defs —
        // the overwhelmingly common shapes are zero or one).
        let mut defs: crate::inline_vec::InlineVec<(&'s str, usize, usize), 2> =
            crate::inline_vec::InlineVec::new();
        if matches!(self.tokens.peek(), Token::ValueId(_)) {
            loop {
                // After a comma the next token need not be a value id
                // (`%a, = ...`), so this must reject, not assume.
                let offset = self.tokens.offset();
                let name = match self.tokens.peek() {
                    Token::ValueId(name) => {
                        let name = *name;
                        self.tokens.bump();
                        name
                    }
                    other => return Err(self.tokens.expected("result name", other)),
                };
                let mut count = 1usize;
                if self.tokens.consume_if(&Token::Colon) {
                    count = self.expect_unsigned()? as usize;
                    if count == 0 {
                        return Err(self.tokens.error("result group size must be positive"));
                    }
                }
                defs.push((name, offset, count));
                if !self.tokens.consume_if(&Token::Comma) {
                    break;
                }
            }
            self.tokens.expect(&Token::Equals)?;
        }

        let op = match self.tokens.peek() {
            Token::Str(_) => {
                let Token::Str(name) = self.tokens.bump() else { unreachable!() };
                self.parse_generic_op_body(&name)?
            }
            Token::Ident(name) if name.contains('.') => {
                let name = *name;
                self.tokens.bump();
                self.parse_custom_op_body(name)?
            }
            other => {
                return Err(self.tokens.expected("operation name (quoted or dialect-qualified)", other))
            }
        };

        // The op is in no block yet, so a failure to bind its results
        // erases it here.
        if let Err(diag) = self.bind_results(&defs, op) {
            self.ctx.erase_op(op);
            return Err(diag);
        }
        Ok(op)
    }

    /// Binds the result names `defs` (name, offset, group size) to `op`.
    fn bind_results(&mut self, defs: &[(&'s str, usize, usize)], op: OpRef) -> Result<()> {
        let total: usize = defs.iter().map(|(_, _, n)| n).sum();
        if !defs.is_empty() && total != op.num_results(self.ctx) {
            return Err(self.tokens.error(format!(
                "operation defines {} result(s), but {} name(s) were bound",
                op.num_results(self.ctx),
                total
            )));
        }
        let mut next = 0usize;
        for &(name, offset, count) in defs {
            // `count` fits: the group sizes sum to the op's result count.
            self.define_value_group(name, offset, op.result(self.ctx, next), count as u32)?;
            next += count;
        }
        Ok(())
    }

    fn split_op_name(&mut self, full: &str) -> Result<OpName> {
        let (dialect, name) = full
            .split_once('.')
            .ok_or_else(|| {
                self.tokens.error(format!("operation name `{full}` must be dialect-qualified"))
            })?;
        let dialect = self.ctx.symbol(dialect);
        let name = self.ctx.symbol(name);
        Ok(OpName { dialect, name })
    }

    fn parse_generic_op_body(&mut self, full_name: &str) -> Result<OpRef> {
        let name = self.split_op_name(full_name)?;
        // The parsed lists accumulate directly into the operation state's
        // inline storage: a typical op never allocates on this path.
        let mut state = OperationState::new(name);
        self.tokens.expect(&Token::LParen)?;
        if !self.tokens.consume_if(&Token::RParen) {
            loop {
                let offset = self.tokens.offset();
                match self.tokens.bump() {
                    Token::ValueId(vname) => {
                        let value = self.resolve_value(vname, offset)?;
                        state.operands.push_pooled(value, &mut self.ctx.spill_pool_mut().operands);
                    }
                    other => return Err(self.tokens.expected("operand `%name`", &other)),
                }
                if !self.tokens.consume_if(&Token::Comma) {
                    break;
                }
            }
            self.tokens.expect(&Token::RParen)?;
        }

        if self.tokens.consume_if(&Token::LBracket)
            && !self.tokens.consume_if(&Token::RBracket) {
                loop {
                    match self.tokens.bump() {
                        Token::BlockId(bname) => {
                            let block = self.get_or_create_block(bname);
                            let pool = &mut self.ctx.spill_pool_mut().successors;
                            state.successors.push_pooled(block, pool);
                        }
                        other => return Err(self.tokens.expected("successor `^name`", &other)),
                    }
                    if !self.tokens.consume_if(&Token::Comma) {
                        break;
                    }
                }
                self.tokens.expect(&Token::RBracket)?;
            }

        if self.tokens.peek() == &Token::LParen {
            self.tokens.bump();
            if !self.tokens.consume_if(&Token::RParen) {
                loop {
                    let region = self.parse_region(&[])?;
                    state.regions.push_pooled(region, &mut self.ctx.spill_pool_mut().regions);
                    if !self.tokens.consume_if(&Token::Comma) {
                        break;
                    }
                }
                self.tokens.expect(&Token::RParen)?;
            }
        }

        self.parse_optional_attr_entries(&mut state.attributes)?;

        self.tokens.expect(&Token::Colon)?;
        let sig_offset = self.tokens.offset();
        self.tokens.expect(&Token::LParen)?;
        // Operand types are checked against the operands as they stream
        // past instead of being buffered. The first mismatch is deferred:
        // an arity error (checked after the list is consumed) takes
        // precedence, matching the historical diagnostic order.
        let mut num_operand_types = 0usize;
        let mut type_mismatch: Option<Diagnostic> = None;
        if !self.tokens.consume_if(&Token::RParen) {
            loop {
                let expected = self.parse_type()?;
                if num_operand_types < state.operands.len() && type_mismatch.is_none() {
                    let actual = state.operands[num_operand_types].ty(self.ctx);
                    if actual != expected {
                        type_mismatch = Some(Diagnostic::at(
                            sig_offset,
                            format!(
                                "operand #{} has type {} but the signature expects {}",
                                num_operand_types,
                                actual.display(self.ctx),
                                expected.display(self.ctx)
                            ),
                        ));
                    }
                }
                num_operand_types += 1;
                if !self.tokens.consume_if(&Token::Comma) {
                    break;
                }
            }
            self.tokens.expect(&Token::RParen)?;
        }
        self.tokens.expect(&Token::Arrow)?;
        self.parse_result_types_grouped_or_empty_into(&mut state)?;

        if num_operand_types != state.operands.len() {
            return Err(Diagnostic::at(
                sig_offset,
                format!(
                    "signature lists {} operand type(s) but {} operand(s) were given",
                    num_operand_types,
                    state.operands.len()
                ),
            ));
        }
        if let Some(diag) = type_mismatch {
            return Err(diag);
        }

        Ok(self.ctx.create_op(state))
    }

    /// `() -> ()`-style empty lists are common in result position.
    fn parse_result_types_grouped_or_empty_into(
        &mut self,
        state: &mut OperationState,
    ) -> Result<()> {
        if self.tokens.peek() == &Token::LParen && self.tokens.peek2() == &Token::RParen {
            self.tokens.bump();
            self.tokens.bump();
            // A trailing `-> (...)` after `()` would mean a function type
            // result; the generic form never prints that without parens.
            return Ok(());
        }
        if self.tokens.consume_if(&Token::LParen) {
            loop {
                let ty = self.parse_type()?;
                state.result_types.push_pooled(ty, &mut self.ctx.spill_pool_mut().types);
                if !self.tokens.consume_if(&Token::Comma) {
                    break;
                }
            }
            self.tokens.expect(&Token::RParen)?;
        } else {
            let ty = self.parse_type()?;
            state.result_types.push_pooled(ty, &mut self.ctx.spill_pool_mut().types);
        }
        Ok(())
    }

    fn parse_custom_op_body(&mut self, full_name: &str) -> Result<OpRef> {
        let name = self.split_op_name(full_name)?;
        // Clone only the syntax handle (an `Arc` bump), not the whole
        // `OpInfo`: this runs once per custom-syntax op.
        let Some(info) = self.ctx.registry().op_info(name.dialect, name.name) else {
            return Err(self.tokens.error(format!(
                "operation `{full_name}` is not registered; use the quoted generic form"
            )));
        };
        let syntax = info.syntax.clone().ok_or_else(|| {
            self.tokens.error(format!(
                "operation `{full_name}` has no custom syntax; use the quoted generic form"
            ))
        })?;
        let mut op_parser = OpParser { parser: self, name };
        let mut state = syntax.parse(&mut op_parser)?;
        state.name = name;
        Ok(self.ctx.create_op(state))
    }

    // ----- regions ---------------------------------------------------------------

    fn parse_region(&mut self, entry_args: &[(&str, Type)]) -> Result<RegionRef> {
        self.tokens.expect(&Token::LBrace)?;
        let region = self.ctx.create_region();
        self.scopes.partial.regions.push(region);
        self.scopes.open();

        let starts_with_label = matches!(self.tokens.peek(), Token::BlockId(_));
        if starts_with_label && !entry_args.is_empty() {
            return Err(self.tokens.error(
                "region with explicit entry arguments cannot start with a block label",
            ));
        }

        if !starts_with_label {
            if self.tokens.peek() == &Token::RBrace && entry_args.is_empty() {
                // Empty region.
                self.tokens.bump();
                self.scopes.close();
                return Ok(region);
            }
            let entry = self.ctx.create_block([]);
            self.ctx.append_block(region, entry);
            for (name, ty) in entry_args {
                let value = self.ctx.add_block_arg(entry, *ty);
                self.define_value_group(name, self.value_name_offset(name), value, 1)?;
            }
            while !matches!(self.tokens.peek(), Token::RBrace | Token::BlockId(_)) {
                let op = self.parse_op()?;
                self.ctx.append_op(entry, op);
            }
        }

        while let Token::BlockId(label) = self.tokens.peek() {
            let label = *label;
            self.tokens.bump();
            let block = self.get_or_create_block(label);
            if block.parent_region(self.ctx).is_some() {
                return Err(self.tokens.error(format!("redefinition of block `^{label}`")));
            }
            self.ctx.append_block(region, block);
            if self.tokens.consume_if(&Token::LParen)
                && !self.tokens.consume_if(&Token::RParen) {
                    loop {
                        let offset = self.tokens.offset();
                        let vname = match self.tokens.bump() {
                            Token::ValueId(v) => v,
                            other => {
                                return Err(self.tokens.expected("block argument `%name`", &other))
                            }
                        };
                        self.tokens.expect(&Token::Colon)?;
                        let ty = self.parse_type()?;
                        let value = self.ctx.add_block_arg(block, ty);
                        self.define_value_group(vname, offset, value, 1)?;
                        if !self.tokens.consume_if(&Token::Comma) {
                            break;
                        }
                    }
                    self.tokens.expect(&Token::RParen)?;
                }
            self.tokens.expect(&Token::Colon)?;
            while !matches!(self.tokens.peek(), Token::RBrace | Token::BlockId(_)) {
                let op = self.parse_op()?;
                self.ctx.append_op(block, op);
            }
        }

        self.tokens.expect(&Token::RBrace)?;

        // Every referenced block must have been defined.
        let scope = self.scopes.blocks.last().expect("no open scope");
        for (&label, block) in scope {
            if block.parent_region(self.ctx).is_none() {
                let label = self.ctx.symbol_str(label);
                return Err(self.tokens.error(format!("use of undefined block `^{label}`")));
            }
        }
        self.scopes.close();
        Ok(region)
    }
}

fn parse_int_keyword(name: &str, prefix: &str) -> Option<u32> {
    let rest = name.strip_prefix(prefix)?;
    if rest.is_empty() || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// The parsing interface handed to dialect syntax hooks (IRDL formats and
/// native implementations): token primitives plus recursive entry points
/// for types, attributes, operands, successors, and regions.
///
/// Identifier-returning methods hand back `&'s str` slices of the source
/// being parsed, so hooks can intern or inspect names without copies.
pub struct OpParser<'p, 's, 'c> {
    parser: &'p mut Parser<'s, 'c>,
    name: OpName,
}

impl<'p, 's, 'c> OpParser<'p, 's, 'c> {
    /// The name of the operation being parsed.
    pub fn op_name(&self) -> OpName {
        self.name
    }

    /// Mutable access to the context (for building types/attributes).
    pub fn ctx(&mut self) -> &mut Context {
        self.parser.ctx
    }

    /// Read-only access to the context.
    pub fn ctx_ref(&self) -> &Context {
        self.parser.ctx
    }

    /// Byte offset of the next token (for diagnostics).
    pub fn offset(&self) -> usize {
        self.parser.tokens.offset()
    }

    /// Creates a diagnostic at the current position.
    pub fn error(&self, message: impl Into<String>) -> Diagnostic {
        self.parser.tokens.error(message)
    }

    /// Consumes the next token if it equals `token`.
    pub fn consume_if(&mut self, token: &Token<'_>) -> bool {
        self.parser.tokens.consume_if(token)
    }

    /// Requires the next token to equal `token`.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the found token otherwise.
    pub fn expect(&mut self, token: &Token<'_>) -> Result<()> {
        self.parser.tokens.expect(token)
    }

    /// Requires and returns a bare identifier (a source slice).
    ///
    /// # Errors
    ///
    /// Returns a diagnostic if the next token is not an identifier.
    pub fn expect_ident(&mut self) -> Result<&'s str> {
        self.parser.tokens.expect_ident()
    }

    /// Requires the identifier `kw`.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic if the next token is not `kw`.
    pub fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        self.parser.tokens.expect_keyword(kw)
    }

    /// Consumes the identifier `kw` if present.
    pub fn consume_keyword(&mut self, kw: &str) -> bool {
        self.parser.tokens.consume_keyword(kw)
    }

    /// Peeks at the next token.
    pub fn peek(&self) -> &Token<'s> {
        self.parser.tokens.peek()
    }

    /// Parses and resolves one SSA operand (`%name`).
    ///
    /// # Errors
    ///
    /// Returns a diagnostic if the value is undefined or malformed.
    pub fn parse_operand(&mut self) -> Result<Value> {
        let offset = self.parser.tokens.offset();
        match self.parser.tokens.bump() {
            Token::ValueId(name) => self.parser.resolve_value(name, offset),
            other => Err(self.parser.tokens.expected("operand `%name`", &other)),
        }
    }

    /// Parses a comma-separated list of operands.
    ///
    /// # Errors
    ///
    /// Propagates operand resolution failures.
    pub fn parse_operand_list(&mut self) -> Result<Vec<Value>> {
        let mut operands = vec![self.parse_operand()?];
        while self.consume_if(&Token::Comma) {
            operands.push(self.parse_operand()?);
        }
        Ok(operands)
    }

    /// Parses a type.
    ///
    /// # Errors
    ///
    /// Propagates type parsing failures.
    pub fn parse_type(&mut self) -> Result<Type> {
        self.parser.parse_type()
    }

    /// Parses an attribute.
    ///
    /// # Errors
    ///
    /// Propagates attribute parsing failures.
    pub fn parse_attribute(&mut self) -> Result<Attribute> {
        self.parser.parse_attribute()
    }

    /// Parses a successor block reference (`^name`).
    ///
    /// # Errors
    ///
    /// Returns a diagnostic if the next token is not a block label.
    pub fn parse_successor(&mut self) -> Result<BlockRef> {
        match self.parser.tokens.bump() {
            Token::BlockId(name) => Ok(self.parser.get_or_create_block(name)),
            other => Err(self.parser.tokens.expected("successor `^name`", &other)),
        }
    }

    /// Parses a nested region `{ ... }` with no predeclared entry arguments.
    ///
    /// # Errors
    ///
    /// Propagates region parsing failures.
    pub fn parse_region(&mut self) -> Result<RegionRef> {
        self.parser.parse_region(&[])
    }

    /// Parses a nested region whose entry block binds `args` (used by
    /// function-like syntaxes where the signature declares the arguments).
    ///
    /// # Errors
    ///
    /// Propagates region parsing failures.
    pub fn parse_region_with_entry(&mut self, args: &[(&str, Type)]) -> Result<RegionRef> {
        self.parser.parse_region(args)
    }

    /// Parses an optional trailing attribute dictionary into `state`.
    ///
    /// # Errors
    ///
    /// Propagates attribute parsing failures.
    pub fn parse_optional_attr_dict(&mut self, state: &mut OperationState) -> Result<()> {
        self.parser.parse_optional_attr_entries(&mut state.attributes)
    }

    /// Parses `@name`, returning the symbol text as a source slice.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic if the next token is not a symbol reference.
    pub fn parse_symbol_name(&mut self) -> Result<&'s str> {
        match self.parser.tokens.bump() {
            Token::SymbolRef(name) => Ok(name),
            other => Err(self.parser.tokens.expected("`@symbol`", &other)),
        }
    }

    /// Parses `%name` introducing a *definition* (e.g. a function argument
    /// in a signature) and returns the raw name without resolving it.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic if the next token is not a value id.
    pub fn parse_value_id(&mut self) -> Result<&'s str> {
        match self.parser.tokens.bump() {
            Token::ValueId(name) => Ok(name),
            other => Err(self.parser.tokens.expected("`%name`", &other)),
        }
    }
}

/// The parsing interface handed to type/attribute parameter-syntax hooks:
/// everything between the angle brackets of `!dialect.name<...>`.
///
/// A hook stores each parameter it parses with [`ParamParser::set_param`];
/// the parameters are interned from the parser's stack, so a hook builds
/// no list of its own.
pub struct ParamParser<'p, 's, 'c> {
    parser: &'p mut Parser<'s, 'c>,
    /// Where parameter 0 sits on the parser's attribute stack.
    start: usize,
}

impl<'p, 's, 'c> ParamParser<'p, 's, 'c> {
    /// Stores `attr` as parameter `index` of the type or attribute being
    /// parsed. Parameters may be set in any order, and setting one again
    /// replaces it; a parameter below the highest index set that is never
    /// set itself is `unit`.
    pub fn set_param(&mut self, index: usize, attr: Attribute) {
        let slot = self.start + index;
        if self.parser.scopes.attrs.len() <= slot {
            let unit = self.parser.ctx.unit_attr();
            self.parser.scopes.attrs.resize(slot + 1, unit);
        }
        self.parser.scopes.attrs[slot] = attr;
    }

    /// Mutable access to the context.
    pub fn ctx(&mut self) -> &mut Context {
        self.parser.ctx
    }

    /// Read-only access to the context.
    pub fn ctx_ref(&self) -> &Context {
        self.parser.ctx
    }

    /// Creates a diagnostic at the current position.
    pub fn error(&self, message: impl Into<String>) -> Diagnostic {
        self.parser.tokens.error(message)
    }

    /// Peeks at the next token.
    pub fn peek(&self) -> &Token<'s> {
        self.parser.tokens.peek()
    }

    /// Requires the next token to equal `token`.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the found token otherwise.
    pub fn expect(&mut self, token: &Token<'_>) -> Result<()> {
        self.parser.tokens.expect(token)
    }

    /// Consumes the next token if it equals `token`.
    pub fn consume_if(&mut self, token: &Token<'_>) -> bool {
        self.parser.tokens.consume_if(token)
    }

    /// Requires the identifier `kw`.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic if the next token is not `kw`.
    pub fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        self.parser.tokens.expect_keyword(kw)
    }

    /// Parses a type.
    ///
    /// # Errors
    ///
    /// Propagates type parsing failures.
    pub fn parse_type(&mut self) -> Result<Type> {
        self.parser.parse_type()
    }

    /// Parses an attribute.
    ///
    /// # Errors
    ///
    /// Propagates attribute parsing failures.
    pub fn parse_attribute(&mut self) -> Result<Attribute> {
        self.parser.parse_attribute()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::print::{op_to_string, op_to_string_generic};
    use crate::verify::verify_op;

    #[test]
    fn parse_types_roundtrip() {
        let mut ctx = Context::new();
        for text in [
            "i32",
            "si8",
            "ui64",
            "f32",
            "bf16",
            "index",
            "(i32, f32) -> f64",
            "() -> (i32, i32)",
            "vector<4 x f32>",
            "tensor<? x 3 x i8>",
            "memref<2 x 2 x f64>",
            "!cmath.complex<f32>",
            "!llvm.ptr",
        ] {
            let ty = parse_type_str(&mut ctx, text).unwrap();
            assert_eq!(ty.display(&ctx), text, "roundtrip failed for {text}");
        }
    }

    #[test]
    fn parse_attrs_roundtrip() {
        let mut ctx = Context::new();
        for text in [
            "42 : i32",
            "-7 : i64",
            "1.5 : f32",
            "\"hello\"",
            "[1 : i32, 2 : i32]",
            "unit",
            "true",
            "false",
            "@main",
            "loc(\"f.mlir\":3:7)",
            "typeid<\"TypeID\">",
            "i32",
            "#llvm.linkage<\"internal\">",
            "#native<affine_map \"(d0) -> (d0)\">",
        ] {
            let attr = parse_attr_str(&mut ctx, text).unwrap();
            assert_eq!(attr.display(&ctx), text, "roundtrip failed for {text}");
        }
    }

    #[test]
    fn parse_generic_op() {
        let mut ctx = Context::new();
        let src = r#"
            %0 = "test.source"() : () -> f32
            %1 = "test.twice"(%0, %0) {factor = 2 : i32} : (f32, f32) -> f32
        "#;
        let module = parse_module(&mut ctx, src).unwrap();
        verify_op(&ctx, module).unwrap();
        let block = ctx.module_block(module);
        assert_eq!(block.ops(&ctx).len(), 2);
        let twice = block.ops(&ctx)[1];
        assert_eq!(twice.num_operands(&ctx), 2);
        assert!(twice.attr(&ctx, "factor").is_some());
    }

    #[test]
    fn parse_print_roundtrip_with_regions_and_blocks() {
        let mut ctx = Context::new();
        let src = r#""test.func"() ({
^bb0(%arg: i32):
  "test.use"(%arg) : (i32) -> ()
  "test.br"()[^bb1] : () -> ()
^bb1:
  "test.done"() : () -> ()
}) : () -> ()"#;
        let module = parse_module(&mut ctx, src).unwrap();
        let block = ctx.module_block(module);
        let func = block.ops(&ctx)[0];
        let printed = op_to_string_generic(&ctx, func);
        // Re-parse the printed form and print again: must be a fixpoint.
        let mut ctx2 = Context::new();
        let module2 = parse_module(&mut ctx2, &printed).unwrap();
        let func2 = ctx2.module_block(module2).ops(&ctx2)[0];
        assert_eq!(op_to_string_generic(&ctx2, func2), printed);
    }

    #[test]
    fn forward_block_references_resolve() {
        let mut ctx = Context::new();
        let src = r#""test.region"() ({
  "test.br"()[^exit] : () -> ()
^exit:
  "test.done"() : () -> ()
}) : () -> ()"#;
        let module = parse_module(&mut ctx, src).unwrap();
        let func = ctx.module_block(module).ops(&ctx)[0];
        let region = func.region(&ctx, 0);
        assert_eq!(region.blocks(&ctx).len(), 2);
        let entry = region.entry_block(&ctx).unwrap();
        let br = entry.last_op(&ctx).unwrap();
        assert_eq!(br.successors(&ctx), &[region.blocks(&ctx)[1]]);
    }

    #[test]
    fn undefined_value_is_an_error() {
        let mut ctx = Context::new();
        let err = parse_module(&mut ctx, r#""test.use"(%nope) : (f32) -> ()"#).unwrap_err();
        assert!(err.message().contains("undefined value"), "{err}");
    }

    /// A failed parse erases everything it built, wherever the error is,
    /// so a worker that parses many inputs into one context leaks nothing.
    #[test]
    fn failed_parses_leave_no_ir_behind() {
        let cases = [
            // An undefined operand inside a nested region.
            r#""t.outer"() ({
  %a = "t.def"() : () -> i32
  "t.mid"() ({
    "t.use"(%b) : (i32) -> ()
  }) : () -> ()
}) : () -> ()"#,
            // An undefined block in a region's second block, after a
            // complete top-level op.
            r#""t.first"() : () -> ()
"t.outer"() ({
^bb0:
  "t.br"()[^bb1] : () -> ()
^bb1:
  "t.br"()[^missing] : () -> ()
}) : () -> ()"#,
            // A bad type among a later block's arguments.
            r#""t.outer"() ({
^bb0(%x: i32):
  "t.br"(%x)[^bb1] : (i32) -> ()
^bb1(%y: !):
  "t.ret"() : () -> ()
}) : () -> ()"#,
            // A result name redefined by an op that holds a region.
            r#"%v = "t.a"() : () -> i32
%v = "t.holder"() ({
  "t.inner"() : () -> ()
}) : () -> i32"#,
            // A truncated signature on an op whose region is finished.
            r#""t.holder"() ({
^bb0(%x: i32):
  "t.ret"(%x) : (i32) -> ()
}) : () -> (i32, f32"#,
            // A lex error after two complete ops.
            "\"t.a\"() : () -> ()\n\"t.b\"() : () -> ()\n\"unterminated",
        ];
        let mut ctx = Context::new();
        let live = |ctx: &Context| (ctx.num_ops(), ctx.num_blocks(), ctx.num_regions());
        let start = live(&ctx);
        for source in cases {
            assert!(parse_module(&mut ctx, source).is_err(), "parsed:\n{source}");
            assert_eq!(live(&ctx), start, "a failed parse left IR behind:\n{source}");
        }
        let module = parse_module(&mut ctx, cases[0].replace("%b", "%a").as_str()).unwrap();
        ctx.erase_op(module);
        assert_eq!(live(&ctx), start);
    }

    #[test]
    fn undefined_block_is_an_error() {
        let mut ctx = Context::new();
        let src = r#""test.region"() ({
  "test.br"()[^nowhere] : () -> ()
}) : () -> ()"#;
        let err = parse_module(&mut ctx, src).unwrap_err();
        assert!(err.message().contains("undefined block"), "{err}");
    }

    #[test]
    fn signature_mismatch_is_an_error() {
        let mut ctx = Context::new();
        let src = r#"
            %0 = "test.source"() : () -> f32
            "test.use"(%0) : (i32) -> ()
        "#;
        let err = parse_module(&mut ctx, src).unwrap_err();
        assert!(err.message().contains("has type f32"), "{err}");
    }

    #[test]
    fn multi_result_groups_parse() {
        let mut ctx = Context::new();
        let src = r#"
            %p:2 = "test.pair"() : () -> (f32, i32)
            "test.use"(%p#1) : (i32) -> ()
        "#;
        let module = parse_module(&mut ctx, src).unwrap();
        verify_op(&ctx, module).unwrap();
        // Round-trip through the printer.
        let printed = op_to_string(&ctx, module);
        let mut ctx2 = Context::new();
        assert!(parse_module(&mut ctx2, &printed).is_ok());
    }

    #[test]
    fn redefinition_is_an_error() {
        let mut ctx = Context::new();
        let src = r#"
            %x = "test.a"() : () -> f32
            %x = "test.b"() : () -> f32
        "#;
        let err = parse_module(&mut ctx, src).unwrap_err();
        assert!(err.message().contains("redefinition"), "{err}");
    }

    /// The first line of `src`'s rendered parse diagnostic:
    /// `error at LINE:COL: MESSAGE`.
    fn first_error_line(src: &str) -> String {
        let err = parse_module(&mut Context::new(), src).unwrap_err();
        err.render(src).lines().next().unwrap_or_default().to_string()
    }

    #[test]
    fn value_resolution_diagnostics_are_pinned() {
        let cases = [
            // An undefined decimal name, and one never seen anywhere.
            (
                "%0 = \"t.a\"() : () -> i32\n\"t.use\"(%1) : (i32) -> ()\n",
                "error at 2:9: use of undefined value `%1`",
            ),
            (
                "\"t.use\"(%a#1) : (i32) -> ()\n",
                "error at 1:9: use of undefined value `%a`",
            ),
            // A redefinition within one scope.
            (
                "%0 = \"t.a\"() : () -> i32\n%0 = \"t.b\"() : () -> i32\n\"t.c\"() : () -> ()\n",
                "error at 2:1: redefinition of value `%0`",
            ),
            (
                "%x = \"t.a\"() : () -> i32\n%x = \"t.b\"() : () -> i32\n",
                "error at 2:1: redefinition of value `%x`",
            ),
            // Result indices out of range, and groups used without `#`.
            (
                "%0:2 = \"t.p\"() : () -> (i32, i32)\n\"t.use\"(%0#5) : (i32) -> ()\n",
                "error at 2:9: result index out of range in `%0#5`",
            ),
            (
                "%p:2 = \"t.p\"() : () -> (i32, i32)\n\"t.use\"(%p#5) : (i32) -> ()\n",
                "error at 2:9: result index out of range in `%p#5`",
            ),
            (
                "%0 = \"t.a\"() : () -> i32\n\"t.use\"(%0#1) : (i32) -> ()\n",
                "error at 2:9: result index out of range in `%0#1`",
            ),
            (
                "%0:2 = \"t.p\"() : () -> (i32, i32)\n\"t.use\"(%0) : (i32) -> ()\n",
                "error at 2:9: `%0` names a group of 2 results; use `%0#N`",
            ),
            (
                "%p:2 = \"t.p\"() : () -> (i32, i32)\n\"t.use\"(%p) : (i32) -> ()\n",
                "error at 2:9: `%p` names a group of 2 results; use `%p#N`",
            ),
            (
                "%0 = \"t.a\"() : () -> i32\n\"t.use\"(%0#x) : (i32) -> ()\n",
                "error at 2:9: invalid result index in `%0#x`",
            ),
            // A leading-zero name is its own name, not `%7`.
            (
                "%007 = \"t.a\"() : () -> i32\n\"t.use\"(%7) : (i32) -> ()\n",
                "error at 2:9: use of undefined value `%7`",
            ),
            (
                "%7 = \"t.a\"() : () -> i32\n\"t.use\"(%07) : (i32) -> ()\n",
                "error at 2:9: use of undefined value `%07`",
            ),
            // An inner region's names leave scope when it closes.
            (
                "\"t.r\"() ({\n  %1 = \"t.a\"() : () -> i32\n}) : () -> ()\n\"t.use\"(%1) : (i32) -> ()\n",
                "error at 4:9: use of undefined value `%1`",
            ),
            // Block arguments share the value scope of their region.
            (
                "\"t.r\"() ({\n^bb0(%0: i32, %0: f32):\n  \"t.c\"() : () -> ()\n}) : () -> ()\n",
                "error at 2:15: redefinition of value `%0`",
            ),
            (
                "\"t.r\"() ({\n^bb0(%0: i32):\n  %0 = \"t.a\"() : () -> i32\n}) : () -> ()\n",
                "error at 3:3: redefinition of value `%0`",
            ),
            // A definition cannot contain `#`: every use splits there.
            (
                "%a#1 = \"t.a\"() : () -> i32\n",
                "error at 1:1: value name `%a#1` cannot contain `#`, which selects a result",
            ),
            (
                "%0, %1#0 = \"t.p\"() : () -> (i32, i32)\n",
                "error at 1:5: value name `%1#0` cannot contain `#`, which selects a result",
            ),
            (
                "\"t.r\"() ({\n^bb0(%x: i32, %a#1: i32):\n  \"t.c\"() : () -> ()\n}) : () -> ()\n",
                "error at 2:15: value name `%a#1` cannot contain `#`, which selects a result",
            ),
        ];
        for (src, expected) in cases {
            assert_eq!(first_error_line(src), expected, "{src}");
        }
    }

    /// `t.fn (%a: i32, ...) { body }`: a native syntax whose signature
    /// names the entry block's arguments.
    struct EntryArgSyntax;

    impl crate::dialect::OpSyntax for EntryArgSyntax {
        fn print(&self, _: &Context, _: OpRef, _: &mut crate::print::Printer<'_>) {}

        fn parse(&self, p: &mut OpParser<'_, '_, '_>) -> Result<OperationState> {
            let mut args = Vec::new();
            p.expect(&Token::LParen)?;
            loop {
                let name = p.parse_value_id()?;
                p.expect(&Token::Colon)?;
                args.push((name, p.parse_type()?));
                if !p.consume_if(&Token::Comma) {
                    break;
                }
            }
            p.expect(&Token::RParen)?;
            let region = p.parse_region_with_entry(&args)?;
            Ok(OperationState::new(p.op_name()).add_regions([region]))
        }
    }

    #[test]
    fn entry_argument_diagnostics_point_at_the_signature() {
        let mut ctx = Context::new();
        let (t, f) = (ctx.symbol("t"), ctx.symbol("fn"));
        let mut dialect = crate::dialect::DialectInfo::new(t);
        dialect.add_op(crate::dialect::simple_op_info(f, "entry arguments"));
        dialect.set_op_syntax(f, std::sync::Arc::new(EntryArgSyntax));
        ctx.register_dialect(dialect);
        let cases = [
            ("t.fn (%a: i32, %a: f32) {\n}\n", "error at 1:16: redefinition of value `%a`"),
            (
                "t.fn (%0: i32) {\n  %0 = \"t.a\"() : () -> i32\n}\n",
                "error at 2:3: redefinition of value `%0`",
            ),
            (
                "t.fn (%a#0: i32) {\n}\n",
                "error at 1:7: value name `%a#0` cannot contain `#`, which selects a result",
            ),
        ];
        for (src, expected) in cases {
            let err = parse_module(&mut ctx.clone(), src).unwrap_err();
            assert_eq!(err.render(src).lines().next(), Some(expected), "{src}");
        }
        let src = "t.fn (%0: i32, %1: f32) {\n  \"t.use\"(%1, %0) : (f32, i32) -> ()\n}\n";
        parse_module(&mut ctx, src).unwrap();
    }

    #[test]
    fn inner_regions_shadow_outer_values() {
        let mut ctx = Context::new();
        let src = "%0 = \"t.a\"() : () -> i32
\"t.r\"() ({
  %0 = \"t.b\"() : () -> f32
  \"t.use\"(%0) : (f32) -> ()
^bb1(%1: index):
  \"t.use\"(%1, %0) : (index, f32) -> ()
}) : () -> ()
\"t.use\"(%0) : (i32) -> ()
";
        let module = parse_module(&mut ctx, src).unwrap();
        let ops = ctx.module_block(module).ops(&ctx).to_vec();
        let (i32t, f32t) = (ctx.i32_type(), ctx.f32_type());
        assert_eq!(ops[2].operands(&ctx)[0].ty(&ctx), i32t);
        let region = ops[1].region(&ctx, 0);
        let inner = region.blocks(&ctx)[0].ops(&ctx)[1];
        assert_eq!(inner.operands(&ctx)[0].ty(&ctx), f32t);
        let second = region.blocks(&ctx)[1];
        let user = second.ops(&ctx)[0];
        assert_eq!(user.operands(&ctx), &[second.arg(&ctx, 0), inner.operands(&ctx)[0]]);
    }

    #[test]
    fn leading_zero_names_are_distinct() {
        let mut ctx = Context::new();
        let src = "%007 = \"t.a\"() : () -> i32
%7 = \"t.b\"() : () -> f32
%0:2 = \"t.p\"() : () -> (index, i64)
\"t.use\"(%007, %7, %0#1, %0#0) : (i32, f32, i64, index) -> ()
";
        let module = parse_module(&mut ctx, src).unwrap();
        let ops = ctx.module_block(module).ops(&ctx).to_vec();
        let operands = ops[3].operands(&ctx).to_vec();
        let results = [ops[0].result(&ctx, 0), ops[1].result(&ctx, 0)];
        assert_eq!(operands[..2], results);
        assert_eq!(operands[2..], [ops[2].result(&ctx, 1), ops[2].result(&ctx, 0)]);
    }

    #[test]
    fn empty_module_roundtrips() {
        // Regression: a single empty block used to print headerless, which
        // reparsed as a zero-block region and made module_block panic.
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let text = op_to_string_generic(&ctx, module);
        let mut ctx2 = Context::new();
        let module2 = parse_module(&mut ctx2, &text).unwrap();
        assert!(module2.region(&ctx2, 0).entry_block(&ctx2).is_some());
        let _ = ctx2.module_block(module2); // must not panic
        assert_eq!(op_to_string_generic(&ctx2, module2), text);
    }

    #[test]
    fn quoted_attr_keys_roundtrip() {
        // Regression: keys that are not bare identifiers must print quoted
        // and parse back.
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let key = ctx.symbol("llvm.loop-metadata");
        let value = ctx.i64_attr(7);
        let name = ctx.op_name("test", "annotated");
        let op = ctx.create_op(OperationState::new(name).add_attribute(key, value));
        ctx.append_op(block, op);
        let text = op_to_string_generic(&ctx, op);
        assert!(text.contains("\"llvm.loop-metadata\" = 7 : i64"), "{text}");
        let mut ctx2 = Context::new();
        let module2 = parse_module(&mut ctx2, &text).unwrap();
        let reparsed = ctx2.module_block(module2).ops(&ctx2)[0];
        assert!(reparsed.attr(&ctx2, "llvm.loop-metadata").is_some());
    }

    /// The first lex error anywhere in the source is the diagnostic,
    /// whatever the parser made of the tokens before it.
    #[test]
    fn lex_errors_take_precedence_over_parse_errors() {
        let cases = [
            // A parse error on line 1, a lex error on line 2.
            ("\"test.a\"( : () -> ()\n\"test.b\"() {k = \"\\q\"} : () -> ()\n", 39, "unknown escape `\\q`"),
            // A lex error right after a complete, valid op.
            ("\"test.a\"() : () -> ()\n`", 22, "unexpected character ```"),
            // A lex error first seen by the two-token lookahead after `->`.
            ("\"test.a\"() : () -> (`", 20, "unexpected character ```"),
        ];
        for (source, offset, message) in cases {
            let err = parse_module(&mut Context::new(), source).unwrap_err();
            assert_eq!((err.offset(), err.message()), (Some(offset), message), "{source}");
        }
        let err = parse_attr_str(&mut Context::new(), "[1 : i32 2, \"\\q\"]").unwrap_err();
        assert_eq!((err.offset(), err.message()), (Some(14), "unknown escape `\\q`"));
        let err = parse_type_str(&mut Context::new(), "i32 `").unwrap_err();
        assert_eq!((err.offset(), err.message()), (Some(4), "unexpected character ```"));
    }

    /// A parametric type whose registered verifier rejects its parameters
    /// is never interned: a failed parse leaves only what the parameters
    /// themselves interned. Before the verifier ran ahead of interning,
    /// each rejected `!cmath.complex<iN>` stayed in the type table.
    #[test]
    fn rejected_parametric_types_are_not_interned() {
        let mut ctx = Context::new();
        let (cmath, complex) = (ctx.symbol("cmath"), ctx.symbol("complex"));
        let verifier = |ctx: &Context, params: &[Attribute]| match params {
            [p] if p.as_type(ctx).is_some_and(|ty| ty.is_float(ctx)) => Ok(()),
            _ => Err(Diagnostic::new("complex element must be a float type")),
        };
        let mut dialect = crate::dialect::DialectInfo::new(cmath);
        dialect.add_type(crate::dialect::TypeDefInfo {
            name: complex,
            summary: String::new(),
            param_names: Vec::new(),
            param_kinds: Vec::new(),
            verifier: Some(std::sync::Arc::new(verifier)),
            syntax: None,
            has_native_verifier: false,
        });
        ctx.register_dialect(dialect);
        let ok = "%0 = \"t.x\"() : () -> !cmath.complex<f32>\n";
        let module = parse_module(&mut ctx, ok).unwrap();
        ctx.erase_op(module);
        let before = ctx.num_types();
        const REJECTED: u32 = 48;
        for width in 1..=REJECTED {
            let src = format!("%0 = \"t.x\"() : () -> !cmath.complex<i{width}>\n");
            let err = parse_module(&mut ctx, &src).unwrap_err();
            assert_eq!(err.message(), "complex element must be a float type", "{src}");
            let int = ctx.int_type(width);
            let param = ctx.type_attr(int);
            let key = TypeRef::Parametric { dialect: cmath, name: complex, params: &[param] };
            assert_eq!(ctx.types_mut().lookup(key), None, "!cmath.complex<i{width}> was interned");
        }
        assert_eq!(ctx.num_types(), before + REJECTED as usize, "only the `iN` types are new");
    }

    #[test]
    fn oversized_hex_float_is_rejected() {
        let mut ctx = Context::new();
        let err = parse_attr_str(&mut ctx, "0x1FFFFFFFFFFFFFFFF : f64").unwrap_err();
        assert!(err.to_string().contains("does not fit in 64 bits"), "{err}");
    }

    #[test]
    fn successor_targeted_entry_block_prints_with_header() {
        // Regression: the entry-block header used to be omitted for
        // single-block regions even when a terminator named the block,
        // producing unparseable text.
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let (region, entry) = ctx.create_region_with_entry([]);
        let br = ctx.op_name("cf", "br");
        let brop = ctx.create_op(OperationState::new(br).add_successors([entry]));
        ctx.append_op(entry, brop);
        let holder = ctx.op_name("test", "holder");
        let op = ctx.create_op(OperationState::new(holder).add_regions([region]));
        ctx.append_op(block, op);
        let text = op_to_string_generic(&ctx, op);
        assert!(text.contains("^bb0:"), "{text}");
        let mut ctx2 = Context::new();
        assert!(parse_module(&mut ctx2, &text).is_ok(), "{text}");
    }
}
