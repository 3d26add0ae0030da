//! The IRDL bytecode substrate: a compact, versioned binary encoding for
//! modules, plus the reusable primitives (varints, string table, type/attr
//! constant pool, section framing) the other crates build their own
//! artifact encodings on.
//!
//! # Wire layout
//!
//! Every bytecode file is `magic(4) version(u8) section*`, where a section
//! is `tag(u8) length(varint) payload`. Length-prefixed sections make the
//! format skippable: a reader can map the file without decoding payloads
//! it does not care about (and `irdl-bc inspect` does exactly that).
//! Unknown section tags are skipped, which is the forward-compatibility
//! policy: readers reject a different *version* byte, but tolerate extra
//! sections within their version.
//!
//! A module file ([`MODULE_MAGIC`]) carries three sections:
//!
//! 1. **strings** — every string the module needs, length-prefixed,
//!    deduplicated, followed by the symbol intern order (see below);
//! 2. **pool** — a flat constant pool of types and attributes. Entries
//!    reference strings and *earlier* pool entries only, so the decoder
//!    materializes the pool in one forward pass with no recursion and no
//!    fixups;
//! 3. **ops** — the operation tree. Each operation is its name, operand
//!    value ids, result type pool ids, attribute (key, pool id) pairs,
//!    successor block indices, and length-prefixed nested regions.
//!
//! # Encoding
//!
//! [`encode_module`] makes one pass over the operation tree and allocates
//! per module, not per op. It reads operand, type, attribute, successor,
//! region, block and op lists through borrows of the context. Each nested
//! region is encoded into the enclosing body buffer and its length varint
//! is then rotated in front of it. The [`Pool`] interns an entry's
//! children first, keeping their ids on one shared stack, and then
//! appends the entry to one flat byte buffer; its string table borrows
//! its strings. The output `Vec` is sized exactly once, from the section
//! lengths, and the three sections are written straight into it.
//!
//! # Zero-copy rules
//!
//! Decoding works straight off the input `&[u8]`: no token stream, no
//! intermediate AST. Strings are interned once each via the string table
//! (`&str` subslices of the input go directly into the interner), pool
//! entries intern once each into the context's uniquing tables, and
//! operations are built through the ordinary [`OperationState`] builder
//! API — the decoded module is indistinguishable from a parsed one.
//!
//! Symbol-backed strings record their *intern order* (ascending symbol
//! index in the encoding context). The decoder pre-interns symbols in that
//! order, so two contexts that share an interning prefix (e.g. instances
//! of one `DialectBundle`) assign new symbols the same relative indices —
//! which keeps attribute dictionaries, sorted by symbol index, printing
//! byte-identically after a round-trip.
//!
//! Decoding is corruption-safe: malformed input produces a
//! [`Diagnostic`] naming the file offset, never a panic, and never an
//! allocation proportional to a corrupt count field (counts are validated
//! against the bytes actually remaining). Parametric type/attr verifiers
//! are *not* re-run during decode — verification stays a separate,
//! explicit pass, exactly as it is after parsing.

use crate::attrs::{AttrData, Attribute};
use crate::block::BlockRef;
use crate::context::Context;
use crate::diag::{Diagnostic, Result};
use crate::fasthash::FastMap;
use crate::op::{OpName, OpRef, OperationState};
use crate::region::RegionRef;
use crate::symbol::Symbol;
use crate::types::{FloatKind, Signedness, Type, TypeData};
use crate::value::Value;

/// Magic bytes of a module bytecode file (`.mlirbc`).
pub const MODULE_MAGIC: [u8; 4] = *b"IRBC";
/// Current bytecode format version (shared by modules and artifacts).
pub const VERSION: u8 = 1;

/// Section tags of a module file.
pub const SECTION_STRINGS: u8 = 1;
/// The type/attribute constant pool section.
pub const SECTION_POOL: u8 = 2;
/// The operation tree section.
pub const SECTION_OPS: u8 = 3;

/// Returns `true` when `bytes` starts with the module bytecode magic.
pub fn is_module_bytecode(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == MODULE_MAGIC
}

// ---------------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------------

/// An append-only byte buffer with varint primitives.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one raw byte.
    pub fn u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Appends a little-endian `u64`.
    pub fn u64le(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends an LEB128 varint.
    pub fn varint(&mut self, mut value: u64) {
        loop {
            let byte = (value & 0x7f) as u8;
            value >>= 7;
            if value == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a zigzag-encoded signed varint.
    pub fn zigzag(&mut self, value: i64) {
        self.varint(((value << 1) ^ (value >> 63)) as u64);
    }

    /// Appends a zigzag-encoded `i128` (LEB128 over the 128-bit pattern).
    pub fn zigzag128(&mut self, value: i128) {
        let mut v = ((value << 1) ^ (value >> 127)) as u128;
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends `tag length payload` as one section.
    pub fn section(&mut self, tag: u8, payload: &ByteWriter) {
        self.u8(tag);
        self.varint(payload.buf.len() as u64);
        self.buf.extend_from_slice(&payload.buf);
    }

    /// Consumes the writer, returning the bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// The number of bytes [`ByteWriter::varint`] writes for `value`.
fn varint_len(value: u64) -> usize {
    (64 - (value | 1).leading_zeros() as usize).div_ceil(7)
}

/// A bounds-checked forward reader over `&[u8]`.
///
/// Every read returns a [`Diagnostic`] (with the byte offset of the
/// failure) instead of panicking when the input is truncated or malformed.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    /// Offset of `buf[0]` in the whole file, for error messages of nested
    /// (section / region) readers.
    base: usize,
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over the whole of `bytes`.
    pub fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf: bytes, base: 0, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the reader is exhausted.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The absolute file offset of the next byte.
    pub fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// A decode error at the current offset.
    pub fn error(&self, message: impl std::fmt::Display) -> Diagnostic {
        Diagnostic::new(format!("bytecode: {message} (at byte {})", self.offset()))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        let Some(&byte) = self.buf.get(self.pos) else {
            return Err(self.error("unexpected end of input"));
        };
        self.pos += 1;
        Ok(byte)
    }

    /// Reads a little-endian `u64`.
    pub fn u64le(&mut self) -> Result<u64> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads an LEB128 varint.
    pub fn varint(&mut self) -> Result<u64> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(self.error("varint overflows 64 bits"));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Reads a zigzag-encoded signed varint.
    pub fn zigzag(&mut self) -> Result<i64> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Reads a zigzag-encoded `i128`.
    pub fn zigzag128(&mut self) -> Result<i128> {
        let mut value = 0u128;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 128 || (shift == 127 && byte > 1) {
                return Err(self.error("varint overflows 128 bits"));
            }
            value |= u128::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(((value >> 1) as i128) ^ -((value & 1) as i128));
            }
            shift += 7;
        }
    }

    /// Reads `len` raw bytes.
    pub fn take(&mut self, len: usize) -> Result<&'a [u8]> {
        if len > self.remaining() {
            return Err(self.error(format!(
                "truncated: need {len} byte(s), {} remain",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Reads a length-prefixed UTF-8 string as a subslice of the input.
    pub fn str(&mut self) -> Result<&'a str> {
        let len = self.varint()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| self.error("string is not valid UTF-8"))
    }

    /// Reads an element count and validates it against the bytes that
    /// remain (every element occupies at least `min_bytes` bytes), so a
    /// corrupt count cannot drive a giant allocation.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize> {
        let count = self.varint()? as usize;
        if count.saturating_mul(min_bytes.max(1)) > self.remaining() {
            return Err(self.error(format!(
                "count {count} exceeds the {} byte(s) remaining",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// Splits off a length-prefixed sub-reader (section / region payload).
    pub fn sub_reader(&mut self) -> Result<ByteReader<'a>> {
        let len = self.varint()? as usize;
        let base = self.offset();
        let bytes = self.take(len)?;
        Ok(ByteReader { buf: bytes, base, pos: 0 })
    }
}

// ---------------------------------------------------------------------------
// String table + constant pool (encoder)
// ---------------------------------------------------------------------------

/// Pool entry tags. Types and attributes share one id space; the tag
/// distinguishes them.
const T_INTEGER: u8 = 0;
const T_FLOAT: u8 = 1;
const T_INDEX: u8 = 2;
const T_FUNCTION: u8 = 3;
const T_VECTOR: u8 = 4;
const T_TENSOR: u8 = 5;
const T_MEMREF: u8 = 6;
const T_PARAMETRIC: u8 = 7;
const A_UNIT: u8 = 16;
const A_BOOL: u8 = 17;
const A_INTEGER: u8 = 18;
const A_FLOAT: u8 = 19;
const A_STRING: u8 = 20;
const A_ARRAY: u8 = 21;
const A_TYPE: u8 = 22;
const A_SYMBOL_REF: u8 = 23;
const A_ENUM: u8 = 24;
const A_LOCATION: u8 = 25;
const A_TYPE_ID: u8 = 26;
const A_NATIVE: u8 = 27;
const A_PARAMETRIC: u8 = 28;

fn float_kind_tag(kind: FloatKind) -> u8 {
    match kind {
        FloatKind::BF16 => 0,
        FloatKind::F16 => 1,
        FloatKind::F32 => 2,
        FloatKind::F64 => 3,
    }
}

fn float_kind_from(tag: u8) -> Option<FloatKind> {
    match tag {
        0 => Some(FloatKind::BF16),
        1 => Some(FloatKind::F16),
        2 => Some(FloatKind::F32),
        3 => Some(FloatKind::F64),
        _ => None,
    }
}

fn signedness_tag(s: Signedness) -> u8 {
    match s {
        Signedness::Signless => 0,
        Signedness::Signed => 1,
        Signedness::Unsigned => 2,
    }
}

fn signedness_from(tag: u8) -> Option<Signedness> {
    match tag {
        0 => Some(Signedness::Signless),
        1 => Some(Signedness::Signed),
        2 => Some(Signedness::Unsigned),
        _ => None,
    }
}

/// Builds the deduplicated string table and the type/attribute constant
/// pool while a body is being encoded against it.
///
/// Pool entries are emitted children-first, so every entry references only
/// strings and strictly earlier entries — the invariant that lets the
/// decoder materialize the pool in one forward pass. An entry interns its
/// children before it writes a byte, keeping their ids on a shared stack,
/// and then appends its bytes to one flat buffer: no entry has a buffer of
/// its own.
///
/// The table borrows its strings for `'s`, the lifetime of the context
/// (and of whatever else, such as dialect recipes, the body is encoded
/// from): interning a string copies nothing.
#[derive(Default)]
pub struct Pool<'s> {
    strings: Vec<&'s str>,
    string_ids: FastMap<&'s str, u32>,
    /// `(symbol index in the encoding context, string id)` for every
    /// symbol-backed string: emitted sorted so the decoder re-interns
    /// symbols in the encoder's relative order.
    symbol_order: Vec<(u32, u32)>,
    /// Every entry's bytes, back to back, in id order.
    entries: ByteWriter,
    entry_count: u32,
    /// Child ids of the entries under construction, innermost last.
    child_ids: Vec<u32>,
    type_ids: FastMap<Type, u32>,
    attr_ids: FastMap<Attribute, u32>,
}

impl<'s> Pool<'s> {
    /// An empty pool.
    pub fn new() -> Pool<'s> {
        Pool::default()
    }

    /// Interns `s` into the string table.
    pub fn str_id(&mut self, s: &'s str) -> u32 {
        let next = self.strings.len() as u32;
        let id = *self.string_ids.entry(s).or_insert(next);
        if id == next {
            self.strings.push(s);
        }
        id
    }

    /// Interns the string behind `sym`, recording its intern order.
    pub fn symbol_id(&mut self, ctx: &'s Context, sym: Symbol) -> u32 {
        let next = self.strings.len() as u32;
        let id = self.str_id(ctx.symbol_str(sym));
        if id == next {
            self.symbol_order.push((sym.index() as u32, id));
        }
        id
    }

    /// Interns both halves of an operation name.
    pub fn op_name_ids(&mut self, ctx: &'s Context, name: OpName) -> (u32, u32) {
        (self.symbol_id(ctx, name.dialect), self.symbol_id(ctx, name.name))
    }

    /// Appends the child ids `child_ids[from..to]` as a counted list.
    fn id_list(&mut self, from: usize, to: usize) {
        self.entries.varint((to - from) as u64);
        for &id in &self.child_ids[from..to] {
            self.entries.varint(u64::from(id));
        }
    }

    /// Returns the pool id of `ty`, encoding it (and its children) on
    /// first use.
    pub fn type_id(&mut self, ctx: &'s Context, ty: Type) -> u32 {
        if let Some(&id) = self.type_ids.get(&ty) {
            return id;
        }
        let base = self.child_ids.len();
        match ctx.type_data(ty) {
            TypeData::Integer { width, signedness } => {
                self.entries.u8(T_INTEGER);
                self.entries.varint(u64::from(*width));
                self.entries.u8(signedness_tag(*signedness));
            }
            TypeData::Float(kind) => {
                self.entries.u8(T_FLOAT);
                self.entries.u8(float_kind_tag(*kind));
            }
            TypeData::Index => self.entries.u8(T_INDEX),
            TypeData::Function { inputs, results } => {
                for &input in inputs {
                    let id = self.type_id(ctx, input);
                    self.child_ids.push(id);
                }
                let inputs_end = self.child_ids.len();
                for &result in results {
                    let id = self.type_id(ctx, result);
                    self.child_ids.push(id);
                }
                self.entries.u8(T_FUNCTION);
                self.id_list(base, inputs_end);
                self.id_list(inputs_end, self.child_ids.len());
            }
            TypeData::Vector { dims, elem } => {
                let elem = self.type_id(ctx, *elem);
                self.entries.u8(T_VECTOR);
                self.entries.varint(dims.len() as u64);
                for &dim in dims {
                    self.entries.varint(dim);
                }
                self.entries.varint(u64::from(elem));
            }
            TypeData::Tensor { dims, elem } | TypeData::MemRef { dims, elem } => {
                let elem = self.type_id(ctx, *elem);
                let tensor = matches!(ctx.type_data(ty), TypeData::Tensor { .. });
                self.entries.u8(if tensor { T_TENSOR } else { T_MEMREF });
                self.entries.varint(dims.len() as u64);
                for &dim in dims {
                    self.entries.zigzag(dim);
                }
                self.entries.varint(u64::from(elem));
            }
            TypeData::Parametric { dialect, name, params } => {
                let d = self.symbol_id(ctx, *dialect);
                let n = self.symbol_id(ctx, *name);
                for &param in params {
                    let id = self.attr_id(ctx, param);
                    self.child_ids.push(id);
                }
                self.entries.u8(T_PARAMETRIC);
                self.entries.varint(u64::from(d));
                self.entries.varint(u64::from(n));
                self.id_list(base, self.child_ids.len());
            }
        }
        self.child_ids.truncate(base);
        let id = self.entry_count;
        self.entry_count += 1;
        self.type_ids.insert(ty, id);
        id
    }

    /// Returns the pool id of `attr`, encoding it (and its children) on
    /// first use.
    pub fn attr_id(&mut self, ctx: &'s Context, attr: Attribute) -> u32 {
        if let Some(&id) = self.attr_ids.get(&attr) {
            return id;
        }
        let base = self.child_ids.len();
        match ctx.attr_data(attr) {
            AttrData::Unit => self.entries.u8(A_UNIT),
            AttrData::Bool(b) => {
                self.entries.u8(A_BOOL);
                self.entries.u8(u8::from(*b));
            }
            AttrData::Integer { value, ty } => {
                let id = self.type_id(ctx, *ty);
                self.entries.u8(A_INTEGER);
                self.entries.zigzag128(*value);
                self.entries.varint(u64::from(id));
            }
            AttrData::Float { bits, kind } => {
                self.entries.u8(A_FLOAT);
                self.entries.u64le(*bits);
                self.entries.u8(float_kind_tag(*kind));
            }
            AttrData::String(s) => {
                let id = self.str_id(s);
                self.entries.u8(A_STRING);
                self.entries.varint(u64::from(id));
            }
            AttrData::Array(items) => {
                for &item in items {
                    let id = self.attr_id(ctx, item);
                    self.child_ids.push(id);
                }
                self.entries.u8(A_ARRAY);
                self.id_list(base, self.child_ids.len());
            }
            AttrData::TypeAttr(ty) => {
                let id = self.type_id(ctx, *ty);
                self.entries.u8(A_TYPE);
                self.entries.varint(u64::from(id));
            }
            AttrData::SymbolRef(sym) => {
                let id = self.symbol_id(ctx, *sym);
                self.entries.u8(A_SYMBOL_REF);
                self.entries.varint(u64::from(id));
            }
            AttrData::EnumValue { dialect, enum_name, variant } => {
                let ids = [dialect, enum_name, variant].map(|&sym| self.symbol_id(ctx, sym));
                self.entries.u8(A_ENUM);
                for id in ids {
                    self.entries.varint(u64::from(id));
                }
            }
            AttrData::Location { file, line, col } => {
                let id = self.str_id(file);
                self.entries.u8(A_LOCATION);
                self.entries.varint(u64::from(id));
                self.entries.varint(u64::from(*line));
                self.entries.varint(u64::from(*col));
            }
            AttrData::TypeId(sym) => {
                let id = self.symbol_id(ctx, *sym);
                self.entries.u8(A_TYPE_ID);
                self.entries.varint(u64::from(id));
            }
            AttrData::Native { kind, text } => {
                let k = self.symbol_id(ctx, *kind);
                let t = self.str_id(text);
                self.entries.u8(A_NATIVE);
                self.entries.varint(u64::from(k));
                self.entries.varint(u64::from(t));
            }
            AttrData::Parametric { dialect, name, params } => {
                let d = self.symbol_id(ctx, *dialect);
                let n = self.symbol_id(ctx, *name);
                for &param in params {
                    let id = self.attr_id(ctx, param);
                    self.child_ids.push(id);
                }
                self.entries.u8(A_PARAMETRIC);
                self.entries.varint(u64::from(d));
                self.entries.varint(u64::from(n));
                self.id_list(base, self.child_ids.len());
            }
        }
        self.child_ids.truncate(base);
        let id = self.entry_count;
        self.entry_count += 1;
        self.attr_ids.insert(attr, id);
        id
    }

    /// Payload lengths of the strings and pool sections.
    fn payload_lens(&self) -> (usize, usize) {
        let strings = varint_len(self.strings.len() as u64)
            + self.strings.iter().map(|s| varint_len(s.len() as u64) + s.len()).sum::<usize>()
            + varint_len(self.symbol_order.len() as u64)
            + self.symbol_order.iter().map(|&(_, id)| varint_len(u64::from(id))).sum::<usize>();
        let pool = varint_len(u64::from(self.entry_count)) + self.entries.len();
        (strings, pool)
    }

    /// The number of bytes [`Pool::emit_sections`] appends, for sizing
    /// the output buffer once.
    fn sections_len(&self) -> usize {
        let (strings, pool) = self.payload_lens();
        2 + varint_len(strings as u64) + strings + varint_len(pool as u64) + pool
    }

    /// Emits the strings and pool sections into `out`.
    pub fn emit_sections(&mut self, out: &mut ByteWriter) {
        self.symbol_order.sort_unstable();
        let (strings, pool) = self.payload_lens();
        out.u8(SECTION_STRINGS);
        out.varint(strings as u64);
        out.varint(self.strings.len() as u64);
        for s in &self.strings {
            out.str(s);
        }
        out.varint(self.symbol_order.len() as u64);
        for &(_, id) in &self.symbol_order {
            out.varint(u64::from(id));
        }

        out.u8(SECTION_POOL);
        out.varint(pool as u64);
        out.varint(u64::from(self.entry_count));
        out.bytes(&self.entries.buf);
    }
}

// ---------------------------------------------------------------------------
// String table + constant pool (decoder)
// ---------------------------------------------------------------------------

/// One materialized pool value.
#[derive(Clone, Copy)]
enum PoolValue {
    Type(Type),
    Attr(Attribute),
}

/// The decoded string table and constant pool of one bytecode file.
pub struct DecodedPool<'a> {
    strings: Vec<&'a str>,
    symbols: Vec<Option<Symbol>>,
    values: Vec<PoolValue>,
}

impl<'a> DecodedPool<'a> {
    /// An empty pool (for files without pool sections).
    pub fn empty() -> DecodedPool<'a> {
        DecodedPool { strings: Vec::new(), symbols: Vec::new(), values: Vec::new() }
    }

    /// Decodes a strings section payload. Symbol-order entries are
    /// interned into `ctx` immediately, reproducing the encoder's relative
    /// symbol order.
    pub fn read_strings(&mut self, ctx: &mut Context, r: &mut ByteReader<'a>) -> Result<()> {
        let count = r.count(1)?;
        self.strings = Vec::with_capacity(count);
        for _ in 0..count {
            self.strings.push(r.str()?);
        }
        self.symbols = vec![None; self.strings.len()];
        let order = r.count(1)?;
        for _ in 0..order {
            let id = r.varint()? as usize;
            let Some(&s) = self.strings.get(id) else {
                return Err(r.error(format!("symbol order references string {id} of {}", self.strings.len())));
            };
            self.symbols[id] = Some(ctx.symbol(s));
        }
        Ok(())
    }

    /// Decodes a pool section payload, interning every entry into `ctx`.
    pub fn read_pool(&mut self, ctx: &mut Context, r: &mut ByteReader<'a>) -> Result<()> {
        let count = r.count(1)?;
        self.values = Vec::with_capacity(count);
        for index in 0..count {
            let tag = r.u8()?;
            let value = match tag {
                T_INTEGER => {
                    let width = r.varint()? as u32;
                    let signedness = signedness_from(r.u8()?)
                        .ok_or_else(|| r.error("invalid signedness tag"))?;
                    PoolValue::Type(ctx.intern_type(TypeData::Integer { width, signedness }))
                }
                T_FLOAT => {
                    let kind = float_kind_from(r.u8()?)
                        .ok_or_else(|| r.error("invalid float kind tag"))?;
                    PoolValue::Type(ctx.intern_type(TypeData::Float(kind)))
                }
                T_INDEX => PoolValue::Type(ctx.intern_type(TypeData::Index)),
                T_FUNCTION => {
                    let inputs = self.type_list(index, r)?;
                    let results = self.type_list(index, r)?;
                    PoolValue::Type(ctx.intern_type(TypeData::Function { inputs, results }))
                }
                T_VECTOR => {
                    let n = r.count(1)?;
                    let mut dims = Vec::with_capacity(n);
                    for _ in 0..n {
                        dims.push(r.varint()?);
                    }
                    let elem = self.type_ref(index, r)?;
                    PoolValue::Type(ctx.intern_type(TypeData::Vector { dims, elem }))
                }
                T_TENSOR | T_MEMREF => {
                    let n = r.count(1)?;
                    let mut dims = Vec::with_capacity(n);
                    for _ in 0..n {
                        dims.push(r.zigzag()?);
                    }
                    let elem = self.type_ref(index, r)?;
                    let data = if tag == T_TENSOR {
                        TypeData::Tensor { dims, elem }
                    } else {
                        TypeData::MemRef { dims, elem }
                    };
                    PoolValue::Type(ctx.intern_type(data))
                }
                T_PARAMETRIC => {
                    let dialect = self.symbol(ctx, r)?;
                    let name = self.symbol(ctx, r)?;
                    let params = self.attr_list(index, r)?;
                    PoolValue::Type(ctx.intern_type(TypeData::Parametric { dialect, name, params }))
                }
                A_UNIT => PoolValue::Attr(ctx.intern_attr(AttrData::Unit)),
                A_BOOL => PoolValue::Attr(ctx.intern_attr(AttrData::Bool(r.u8()? != 0))),
                A_INTEGER => {
                    let value = r.zigzag128()?;
                    let ty = self.type_ref(index, r)?;
                    PoolValue::Attr(ctx.intern_attr(AttrData::Integer { value, ty }))
                }
                A_FLOAT => {
                    let bits = r.u64le()?;
                    let kind = float_kind_from(r.u8()?)
                        .ok_or_else(|| r.error("invalid float kind tag"))?;
                    PoolValue::Attr(ctx.intern_attr(AttrData::Float { bits, kind }))
                }
                A_STRING => {
                    let s = self.string(r)?;
                    PoolValue::Attr(ctx.intern_attr(AttrData::String(s.into())))
                }
                A_ARRAY => {
                    let items = self.attr_list(index, r)?;
                    PoolValue::Attr(ctx.intern_attr(AttrData::Array(items)))
                }
                A_TYPE => {
                    let ty = self.type_ref(index, r)?;
                    PoolValue::Attr(ctx.intern_attr(AttrData::TypeAttr(ty)))
                }
                A_SYMBOL_REF => {
                    let sym = self.symbol(ctx, r)?;
                    PoolValue::Attr(ctx.intern_attr(AttrData::SymbolRef(sym)))
                }
                A_ENUM => {
                    let dialect = self.symbol(ctx, r)?;
                    let enum_name = self.symbol(ctx, r)?;
                    let variant = self.symbol(ctx, r)?;
                    PoolValue::Attr(ctx.intern_attr(AttrData::EnumValue {
                        dialect,
                        enum_name,
                        variant,
                    }))
                }
                A_LOCATION => {
                    let file = self.string(r)?.into();
                    let line = r.varint()? as u32;
                    let col = r.varint()? as u32;
                    PoolValue::Attr(ctx.intern_attr(AttrData::Location { file, line, col }))
                }
                A_TYPE_ID => {
                    let sym = self.symbol(ctx, r)?;
                    PoolValue::Attr(ctx.intern_attr(AttrData::TypeId(sym)))
                }
                A_NATIVE => {
                    let kind = self.symbol(ctx, r)?;
                    let text = self.string(r)?.into();
                    PoolValue::Attr(ctx.intern_attr(AttrData::Native { kind, text }))
                }
                A_PARAMETRIC => {
                    let dialect = self.symbol(ctx, r)?;
                    let name = self.symbol(ctx, r)?;
                    let params = self.attr_list(index, r)?;
                    PoolValue::Attr(ctx.intern_attr(AttrData::Parametric { dialect, name, params }))
                }
                other => return Err(r.error(format!("unknown pool entry tag {other}"))),
            };
            self.values.push(value);
        }
        Ok(())
    }

    /// The string behind table id read from `r`.
    pub fn string(&self, r: &mut ByteReader<'_>) -> Result<&'a str> {
        let id = r.varint()? as usize;
        self.strings
            .get(id)
            .copied()
            .ok_or_else(|| r.error(format!("string id {id} out of range ({})", self.strings.len())))
    }

    /// The symbol behind a string-table id read from `r`, interning on
    /// first use.
    pub fn symbol(&mut self, ctx: &mut Context, r: &mut ByteReader<'_>) -> Result<Symbol> {
        let id = r.varint()? as usize;
        let Some(slot) = self.symbols.get_mut(id) else {
            return Err(r.error(format!("string id {id} out of range ({})", self.strings.len())));
        };
        if let Some(sym) = *slot {
            return Ok(sym);
        }
        let sym = ctx.symbol(self.strings[id]);
        *slot = Some(sym);
        Ok(sym)
    }

    /// The type behind a pool id read from `r`. `limit` bounds the ids a
    /// pool entry under construction may reference (its own index);
    /// `usize::MAX` for body readers.
    fn type_at(&self, limit: usize, r: &mut ByteReader<'_>) -> Result<Type> {
        let id = r.varint()? as usize;
        if id >= limit.min(self.values.len()) {
            return Err(r.error(format!("pool id {id} out of range ({})", self.values.len())));
        }
        match self.values[id] {
            PoolValue::Type(ty) => Ok(ty),
            PoolValue::Attr(_) => Err(r.error(format!("pool id {id} is an attribute, expected a type"))),
        }
    }

    fn attr_at(&self, limit: usize, r: &mut ByteReader<'_>) -> Result<Attribute> {
        let id = r.varint()? as usize;
        if id >= limit.min(self.values.len()) {
            return Err(r.error(format!("pool id {id} out of range ({})", self.values.len())));
        }
        match self.values[id] {
            PoolValue::Attr(attr) => Ok(attr),
            PoolValue::Type(_) => Err(r.error(format!("pool id {id} is a type, expected an attribute"))),
        }
    }

    /// Reads a type pool reference from a body section.
    pub fn body_type(&self, r: &mut ByteReader<'_>) -> Result<Type> {
        self.type_at(usize::MAX, r)
    }

    /// Reads an attribute pool reference from a body section.
    pub fn body_attr(&self, r: &mut ByteReader<'_>) -> Result<Attribute> {
        self.attr_at(usize::MAX, r)
    }

    fn type_ref(&self, entry_index: usize, r: &mut ByteReader<'_>) -> Result<Type> {
        self.type_at(entry_index, r)
    }

    fn type_list(&self, entry_index: usize, r: &mut ByteReader<'_>) -> Result<Vec<Type>> {
        let n = r.count(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.type_at(entry_index, r)?);
        }
        Ok(out)
    }

    fn attr_list(&self, entry_index: usize, r: &mut ByteReader<'_>) -> Result<Vec<Attribute>> {
        let n = r.count(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.attr_at(entry_index, r)?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Module encoding
// ---------------------------------------------------------------------------

struct ModuleEncoder<'c> {
    ctx: &'c Context,
    pool: Pool<'c>,
    /// Dense value numbering in definition order.
    value_ids: FastMap<Value, u32>,
    /// Every block entered so far: its region and its index there.
    blocks: FastMap<BlockRef, (RegionRef, u32)>,
}

impl<'c> ModuleEncoder<'c> {
    fn value_id(&self, w: &ByteWriter, value: Value) -> Result<u32> {
        self.value_ids.get(&value).copied().ok_or_else(|| {
            Diagnostic::new(format!(
                "bytecode: operand uses a value before its definition (at byte {})",
                w.len()
            ))
        })
    }

    /// Encodes `op`, whose enclosing region is `parent` (`None` for the
    /// root), onto the end of `w`.
    fn encode_op(
        &mut self,
        w: &mut ByteWriter,
        op: OpRef,
        parent: Option<RegionRef>,
    ) -> Result<()> {
        let ctx = self.ctx;
        let name = op.name(ctx);
        let (d, n) = self.pool.op_name_ids(ctx, name);
        w.varint(u64::from(d));
        w.varint(u64::from(n));

        let operands = op.operands(ctx);
        w.varint(operands.len() as u64);
        for &operand in operands {
            let id = self.value_id(w, operand)?;
            w.varint(u64::from(id));
        }

        let result_types = op.result_types(ctx);
        w.varint(result_types.len() as u64);
        for &ty in result_types {
            let id = self.pool.type_id(ctx, ty);
            w.varint(u64::from(id));
        }

        let attributes = op.attributes(ctx);
        w.varint(attributes.len() as u64);
        for &(key, value) in attributes {
            let k = self.pool.symbol_id(ctx, key);
            let v = self.pool.attr_id(ctx, value);
            w.varint(u64::from(k));
            w.varint(u64::from(v));
        }

        let successors = op.successors(ctx);
        w.varint(successors.len() as u64);
        for successor in successors {
            match self.blocks.get(successor) {
                Some(&(region, index)) if Some(region) == parent => w.varint(u64::from(index)),
                _ => {
                    return Err(Diagnostic::new(
                        "bytecode: successor references a block outside the enclosing region",
                    ))
                }
            }
        }

        let regions = op.regions(ctx);
        w.varint(regions.len() as u64);
        for &region in regions {
            // Encode the body in place, then insert its length before it.
            let start = w.len();
            self.encode_region(w, region)?;
            let len = w.len() - start;
            w.varint(len as u64);
            let prefix = w.len() - start - len;
            w.buf[start..].rotate_right(prefix);
        }

        // Results are numbered after the regions, mirroring the text
        // parser (a region body cannot reference its enclosing op's
        // results).
        for (index, value) in op.results(ctx).enumerate() {
            let id = self.value_ids.len() as u32;
            debug_assert!(matches!(value, Value::OpResult { index: i, .. } if i as usize == index));
            self.value_ids.insert(value, id);
        }
        Ok(())
    }

    fn encode_region(&mut self, w: &mut ByteWriter, region: RegionRef) -> Result<()> {
        let ctx = self.ctx;
        let blocks = &ctx.region_data(region).blocks;
        w.varint(blocks.len() as u64);
        for (index, &block) in blocks.iter().enumerate() {
            self.blocks.insert(block, (region, index as u32));
            let args = &ctx.block_data(block).arg_types;
            w.varint(args.len() as u64);
            for (arg_index, &ty) in args.iter().enumerate() {
                let id = self.pool.type_id(ctx, ty);
                w.varint(u64::from(id));
                let value = Value::BlockArg { block, index: arg_index as u32 };
                let vid = self.value_ids.len() as u32;
                self.value_ids.insert(value, vid);
            }
        }
        for &block in blocks {
            let ops = &ctx.block_data(block).ops;
            w.varint(ops.len() as u64);
            for &op in ops {
                self.encode_op(w, op, Some(region))?;
            }
        }
        Ok(())
    }
}

/// Encodes `module` (any operation tree) into bytecode.
///
/// # Errors
///
/// Returns a diagnostic when the module is not encodable — an operand used
/// before its definition in structural order, or a successor outside its
/// enclosing region (both are un-printable IR as well).
pub fn encode_module(ctx: &Context, module: OpRef) -> Result<Vec<u8>> {
    let mut enc = ModuleEncoder {
        ctx,
        pool: Pool::new(),
        value_ids: FastMap::default(),
        blocks: FastMap::default(),
    };
    let mut body = ByteWriter::new();
    enc.encode_op(&mut body, module, None)?;

    let len = MODULE_MAGIC.len()
        + 1
        + enc.pool.sections_len()
        + 1
        + varint_len(body.len() as u64)
        + body.len();
    let mut out = ByteWriter { buf: Vec::with_capacity(len) };
    out.bytes(&MODULE_MAGIC);
    out.u8(VERSION);
    enc.pool.emit_sections(&mut out);
    out.section(SECTION_OPS, &body);
    debug_assert_eq!(out.len(), len, "module output is sized exactly");
    Ok(out.into_vec())
}

// ---------------------------------------------------------------------------
// Module decoding
// ---------------------------------------------------------------------------

struct ModuleDecoder<'c, 'a> {
    ctx: &'c mut Context,
    pool: DecodedPool<'a>,
    values: Vec<Value>,
}

impl<'c, 'a> ModuleDecoder<'c, 'a> {
    fn decode_op(&mut self, r: &mut ByteReader<'a>, blocks: &[BlockRef]) -> Result<OpRef> {
        let dialect = self.pool.symbol(self.ctx, r)?;
        let name = self.pool.symbol(self.ctx, r)?;
        let op_name = OpName { dialect, name };

        // Decode straight into the state's inline lists: small ops (the
        // common case) build without a single heap allocation here.
        let mut state = OperationState::new(op_name);

        let n_operands = r.count(1)?;
        for _ in 0..n_operands {
            let id = r.varint()? as usize;
            let Some(&value) = self.values.get(id) else {
                return Err(r.error(format!(
                    "operand value id {id} out of range ({})",
                    self.values.len()
                )));
            };
            state.operands.push(value);
        }

        let n_results = r.count(1)?;
        for _ in 0..n_results {
            state.result_types.push(self.pool.body_type(r)?);
        }

        let n_attrs = r.count(1)?;
        for _ in 0..n_attrs {
            let key = self.pool.symbol(self.ctx, r)?;
            let value = self.pool.body_attr(r)?;
            state.attributes.push((key, value));
        }

        let n_successors = r.count(1)?;
        for _ in 0..n_successors {
            let index = r.varint()? as usize;
            let Some(&block) = blocks.get(index) else {
                return Err(r.error(format!(
                    "successor block index {index} out of range ({})",
                    blocks.len()
                )));
            };
            state.successors.push(block);
        }

        let n_regions = r.count(1)?;
        for _ in 0..n_regions {
            let mut body = r.sub_reader()?;
            let region = self.decode_region(&mut body)?;
            state.regions.push(region);
            if !body.is_empty() {
                return Err(body.error("trailing bytes after region payload"));
            }
        }

        let op = self.ctx.create_op(state);
        for value in op.results(self.ctx) {
            self.values.push(value);
        }
        Ok(op)
    }

    fn decode_region(&mut self, r: &mut ByteReader<'a>) -> Result<RegionRef> {
        let region = self.ctx.create_region();
        let n_blocks = r.count(1)?;
        let mut blocks = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let n_args = r.count(1)?;
            let mut arg_types = Vec::with_capacity(n_args);
            for _ in 0..n_args {
                arg_types.push(self.pool.body_type(r)?);
            }
            let n_args = arg_types.len();
            let block = self.ctx.create_block(arg_types);
            for index in 0..n_args {
                self.values.push(Value::BlockArg { block, index: index as u32 });
            }
            self.ctx.append_block(region, block);
            blocks.push(block);
        }
        for &block in &blocks {
            let n_ops = r.count(1)?;
            for _ in 0..n_ops {
                let op = self.decode_op(r, &blocks)?;
                self.ctx.append_op(block, op);
            }
        }
        Ok(region)
    }
}

/// Decodes a module encoded by [`encode_module`] into `ctx`, returning the
/// root operation (detached, like [`crate::parse::parse_module`]'s result).
///
/// # Errors
///
/// Returns a diagnostic (never panics) on bad magic, an unsupported
/// version, truncated or trailing bytes, unknown tags, or out-of-range
/// string / pool / value / block references.
pub fn decode_module(ctx: &mut Context, bytes: &[u8]) -> Result<OpRef> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take(4).map_err(|_| Diagnostic::new("bytecode: input shorter than magic"))?;
    if magic != MODULE_MAGIC {
        return Err(Diagnostic::new(format!(
            "bytecode: bad magic {magic:?} (expected {MODULE_MAGIC:?}; not a module bytecode file)"
        )));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(Diagnostic::new(format!(
            "bytecode: unsupported version {version} (this reader supports {VERSION})"
        )));
    }

    let mut dec = ModuleDecoder { ctx, pool: DecodedPool::empty(), values: Vec::new() };
    let mut seen_strings = false;
    let mut seen_pool = false;
    let mut root = None;
    while !r.is_empty() {
        let tag = r.u8()?;
        let mut section = r.sub_reader()?;
        match tag {
            SECTION_STRINGS => {
                dec.pool.read_strings(dec.ctx, &mut section)?;
                seen_strings = true;
            }
            SECTION_POOL => {
                if !seen_strings {
                    return Err(section.error("pool section precedes strings section"));
                }
                dec.pool.read_pool(dec.ctx, &mut section)?;
                seen_pool = true;
            }
            SECTION_OPS => {
                if !seen_pool {
                    return Err(section.error("ops section precedes pool section"));
                }
                let op = dec.decode_op(&mut section, &[])?;
                if !section.is_empty() {
                    return Err(section.error("trailing bytes after root operation"));
                }
                root = Some(op);
            }
            // Unknown sections are skippable by design.
            _ => {}
        }
    }
    root.ok_or_else(|| Diagnostic::new("bytecode: no ops section"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::print::op_to_string;

    #[test]
    fn varint_roundtrip() {
        let mut w = ByteWriter::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            let before = w.len();
            w.varint(v);
            assert_eq!(w.len() - before, varint_len(v), "varint_len({v})");
        }
        w.zigzag(-1);
        w.zigzag(i64::MIN);
        w.zigzag128(i128::MIN);
        w.zigzag128(170_141_183_460_469_231_731_687_303_715_884_105_727);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.varint().unwrap(), v);
        }
        assert_eq!(r.zigzag().unwrap(), -1);
        assert_eq!(r.zigzag().unwrap(), i64::MIN);
        assert_eq!(r.zigzag128().unwrap(), i128::MIN);
        assert_eq!(r.zigzag128().unwrap(), i128::MAX);
        assert!(r.is_empty());
    }

    fn sample_module(ctx: &mut Context) -> OpRef {
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let f32 = ctx.f32_type();
        let i32 = ctx.i32_type();
        let name = ctx.op_name("test", "const");
        let key = ctx.symbol("value");
        let ty = ctx.type_attr(f32);
        let op = ctx.create_op(
            OperationState::new(name).add_result_types([f32, i32]).add_attribute(key, ty),
        );
        ctx.append_op(block, op);
        let use_name = ctx.op_name("test", "use");
        let use_op = ctx.create_op(
            OperationState::new(use_name).add_operands([op.result(ctx, 1), op.result(ctx, 0)]),
        );
        ctx.append_op(block, use_op);
        module
    }

    #[test]
    fn module_roundtrip_is_print_identical() {
        let mut ctx = Context::new();
        let module = sample_module(&mut ctx);
        let printed = op_to_string(&ctx, module);
        let bytes = encode_module(&ctx, module).unwrap();

        let mut ctx2 = Context::new();
        let module2 = decode_module(&mut ctx2, &bytes).unwrap();
        assert_eq!(op_to_string(&ctx2, module2), printed);
    }

    #[test]
    fn bad_magic_version_and_truncation_are_diagnostics() {
        let mut ctx = Context::new();
        let module = sample_module(&mut ctx);
        let bytes = encode_module(&ctx, module).unwrap();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        let mut ctx2 = Context::new();
        let err = decode_module(&mut ctx2, &bad_magic).unwrap_err();
        assert!(err.message().contains("bad magic"), "{err}");

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xfe;
        let err = decode_module(&mut ctx2, &bad_version).unwrap_err();
        assert!(err.message().contains("unsupported version"), "{err}");

        // Every truncation must fail cleanly (no panic, no success: a
        // shorter file always loses the ops section or part of it).
        for len in 0..bytes.len() {
            let mut ctx3 = Context::new();
            assert!(
                decode_module(&mut ctx3, &bytes[..len]).is_err(),
                "truncation to {len} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn operand_before_definition_is_a_diagnostic() {
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let f32 = ctx.f32_type();
        let def_name = ctx.op_name("test", "def");
        let use_name = ctx.op_name("test", "use");
        let def = ctx.create_op(OperationState::new(def_name).add_result_types([f32]));
        let user = ctx.create_op(OperationState::new(use_name).add_operands([def.result(&ctx, 0)]));
        // The use comes first in structural order.
        ctx.append_op(block, user);
        ctx.append_op(block, def);
        let err = encode_module(&ctx, module).unwrap_err();
        assert!(err.message().contains("operand uses a value before its definition"), "{err}");
    }

    #[test]
    fn successor_in_another_region_is_a_diagnostic() {
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let holder = ctx.op_name("test", "holder");
        let br = ctx.op_name("test", "br");

        // `test.holder` owns the target block in its own region.
        let target_region = ctx.create_region();
        let target = ctx.create_block([]);
        ctx.append_block(target_region, target);
        let first = ctx.create_op(OperationState::new(holder).add_regions([target_region]));
        ctx.append_op(block, first);

        // A branch in a second holder's region names that block.
        let branch_region = ctx.create_region();
        let branch_block = ctx.create_block([]);
        ctx.append_block(branch_region, branch_block);
        let branch = ctx.create_op(OperationState::new(br).add_successors([target]));
        ctx.append_op(branch_block, branch);
        let second = ctx.create_op(OperationState::new(holder).add_regions([branch_region]));
        ctx.append_op(block, second);

        let err = encode_module(&ctx, module).unwrap_err();
        assert!(
            err.message().contains("successor references a block outside the enclosing region"),
            "{err}"
        );
    }

    #[test]
    fn corrupt_bytes_never_panic() {
        let mut ctx = Context::new();
        let module = sample_module(&mut ctx);
        let bytes = encode_module(&ctx, module).unwrap();
        for index in 5..bytes.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut corrupt = bytes.clone();
                corrupt[index] ^= flip;
                let mut ctx2 = Context::new();
                // Either outcome is fine; panicking is not.
                let _ = decode_module(&mut ctx2, &corrupt);
            }
        }
    }
}
