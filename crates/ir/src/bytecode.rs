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
//! A module file ([`MODULE_MAGIC`]) carries three sections, each exactly
//! once: a repeated strings, pool or ops section is an error located at
//! the repeat's payload (a second ops section would otherwise orphan the
//! first root). [`read_sections`] checks the header, the order and the
//! repeats for every container, so a dialect bundle's strings, pool and
//! recipes sections follow the same rule.
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
//! [`encode_module`] makes one pass over the operation tree and, once its
//! context is warm, allocates only its output. It reads operand, type,
//! attribute, successor, region, block and op lists through borrows of
//! the context. Each nested region is encoded into the enclosing body
//! buffer and its length varint is then rotated in front of it. The
//! [`Pool`] interns an entry's children first, keeping their ids on one
//! shared stack, and then appends the entry to one flat byte buffer; its
//! string table copies each distinct string once into one text buffer.
//! The output `Vec` is sized exactly once, from the section lengths, and
//! the three sections are written straight into it.
//!
//! # Scratch
//!
//! Neither direction keeps a table of its own between calls. The
//! encoder's pool, value numbering, block index and body buffer form one
//! `EncodeScratch` that the [`Context`] parks in a `Cell<Option<_>>`
//! (encoding takes `&Context`): [`encode_module`] takes it on entry and
//! puts it back, emptied, on exit. The decoder's string table, symbol and pool
//! tables, value list, child-list buffers and failure log form a
//! `DecodeScratch` kept as a plain context field, like the text parser's
//! scopes. Neither holds a borrow, so both outlive the input they served:
//! each string table copies its strings into one text buffer of its own.
//!
//! # Zero-copy rules
//!
//! Decoding works straight off the input `&[u8]`: no token stream, no
//! intermediate AST. Each string is checked to be UTF-8 and copied once,
//! into the string table's text buffer, and interned at most once from
//! there; pool entries intern once each into the context's uniquing tables,
//! probed with borrowed keys so an entry the context already holds builds
//! no owned payload. Operations are built through the ordinary
//! [`OperationState`] builder API, with spilled lists drawn from the
//! context's pool — the decoded module is indistinguishable from a parsed
//! one, and a warmed decode allocates nothing.
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
//! against the bytes actually remaining). A failed decode erases the IR
//! it had built, so a worker decoding many files into one context leaks
//! nothing. Parametric type/attr verifiers
//! are *not* re-run during decode — verification stays a separate,
//! explicit pass, exactly as it is after parsing.

use crate::attrs::{AttrData, AttrRef, Attribute};
use crate::block::BlockRef;
use crate::context::Context;
use crate::diag::{Diagnostic, Result};
use crate::entity::{content_hash, HashIndex};
use crate::fasthash::FastMap;
use crate::op::{OpName, OpRef, OperationState, PartialIr};
use crate::region::RegionRef;
use crate::symbol::Symbol;
use crate::types::{FloatKind, Signedness, Type, TypeData, TypeRef};
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
// Container framing
// ---------------------------------------------------------------------------

/// The sections of a module file, in the order they must come.
const MODULE_SECTIONS: [(u8, &str); 3] =
    [(SECTION_STRINGS, "strings"), (SECTION_POOL, "pool"), (SECTION_OPS, "ops")];

/// Reads a bytecode container: the `magic version` header, then each
/// section. `sections` lists the known `(tag, name)`s in the order they
/// must come: each appears exactly once, after the one listed before it,
/// and `read` gets its tag and payload. Unknown tags are skipped. A
/// repeated or early section is an error located at its payload; a file
/// that ends early is reported as missing the last section.
///
/// # Errors
///
/// Returns a diagnostic on a bad header, a malformed, repeated or early
/// section, a missing section, or any error of `read`.
pub fn read_sections<'a>(
    bytes: &'a [u8],
    magic: [u8; 4],
    kind: &str,
    sections: &[(u8, &str)],
    mut read: impl FnMut(u8, &mut ByteReader<'a>) -> Result<()>,
) -> Result<()> {
    let mut r = ByteReader::new(bytes);
    let found = r.take(4).map_err(|_| Diagnostic::new("bytecode: input shorter than magic"))?;
    if found != magic {
        return Err(Diagnostic::new(format!(
            "bytecode: bad magic {found:?} (expected {magic:?}; not a {kind})"
        )));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(Diagnostic::new(format!(
            "bytecode: unsupported version {version} (this reader supports {VERSION})"
        )));
    }
    // The number of known sections read so far.
    let mut done = 0;
    while !r.is_empty() {
        let tag = r.u8()?;
        let mut section = r.sub_reader()?;
        let Some(index) = sections.iter().position(|&(known, _)| known == tag) else {
            continue;
        };
        let name = sections[index].1;
        if index < done {
            return Err(section.error(format!("repeated {name} section")));
        }
        if index > done {
            let before = sections[index - 1].1;
            return Err(section.error(format!("{name} section precedes {before} section")));
        }
        read(tag, &mut section)?;
        done += 1;
    }
    match sections.last() {
        Some(&(_, last)) if done < sections.len() => {
            Err(Diagnostic::new(format!("bytecode: no {last} section")))
        }
        _ => Ok(()),
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

/// The wire tag of a float kind.
pub fn float_kind_tag(kind: FloatKind) -> u8 {
    match kind {
        FloatKind::BF16 => 0,
        FloatKind::F16 => 1,
        FloatKind::F32 => 2,
        FloatKind::F64 => 3,
    }
}

/// The float kind a wire tag names, if any.
pub fn float_kind_from(tag: u8) -> Option<FloatKind> {
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
/// The string table copies each distinct string once into one text
/// buffer and finds it again by a hash of its content, so the pool
/// borrows nothing: [`Pool::clear`] readies it for the next module with
/// every buffer's capacity kept.
#[derive(Default)]
pub struct Pool {
    /// Every distinct string, back to back.
    text: String,
    /// Each string's byte range in `text`, by string id.
    spans: Vec<(usize, usize)>,
    /// String ids by content hash.
    string_ids: HashIndex,
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

impl Pool {
    /// An empty pool.
    pub fn new() -> Pool {
        Pool::default()
    }

    /// Empties the pool, keeping its buffers for the next module.
    pub fn clear(&mut self) {
        self.text.clear();
        self.spans.clear();
        self.string_ids.clear();
        self.symbol_order.clear();
        self.entries.buf.clear();
        self.entry_count = 0;
        self.child_ids.clear();
        self.type_ids.clear();
        self.attr_ids.clear();
    }

    /// The string with table id `id`.
    fn string(&self, id: u32) -> &str {
        let (start, end) = self.spans[id as usize];
        &self.text[start..end]
    }

    /// Interns `s` into the string table.
    pub fn str_id(&mut self, s: &str) -> u32 {
        let (text, spans) = (&self.text, &self.spans);
        let next = spans.len() as u32;
        let is = |id: u32| {
            let (start, end) = spans[id as usize];
            text[start..end] == *s
        };
        if let Some(id) = self.string_ids.find_or_insert(content_hash(s), next, is) {
            return id;
        }
        let start = self.text.len();
        self.text.push_str(s);
        self.spans.push((start, self.text.len()));
        next
    }

    /// Interns the string behind `sym`, recording its intern order.
    pub fn symbol_id(&mut self, ctx: &Context, sym: Symbol) -> u32 {
        let next = self.spans.len() as u32;
        let id = self.str_id(ctx.symbol_str(sym));
        if id == next {
            self.symbol_order.push((sym.index() as u32, id));
        }
        id
    }

    /// Interns both halves of an operation name.
    pub fn op_name_ids(&mut self, ctx: &Context, name: OpName) -> (u32, u32) {
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
    pub fn type_id(&mut self, ctx: &Context, ty: Type) -> u32 {
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
    pub fn attr_id(&mut self, ctx: &Context, attr: Attribute) -> u32 {
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
        let strings = varint_len(self.spans.len() as u64)
            + self.spans.iter().map(|&(start, end)| varint_len((end - start) as u64)).sum::<usize>()
            + self.text.len()
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
        out.varint(self.spans.len() as u64);
        for id in 0..self.spans.len() as u32 {
            out.str(self.string(id));
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
///
/// The table copies each string, once it is checked to be UTF-8, into
/// one text buffer, so the pool borrows nothing from its input. An
/// entry's child lists are read into buffers the pool keeps and interned
/// through borrowed keys, so an entry the context already holds costs no
/// allocation. A module decoder parks the pool in the [`Context`]
/// between files.
#[derive(Default)]
pub struct DecodedPool {
    /// Every string of the strings section, back to back.
    text: String,
    /// Each string's byte range in `text`, by string id.
    strings: Vec<(usize, usize)>,
    symbols: Vec<Option<Symbol>>,
    values: Vec<PoolValue>,
    /// The child lists of the entry being read.
    types: Vec<Type>,
    attrs: Vec<Attribute>,
    dims: Vec<u64>,
    signed_dims: Vec<i64>,
}

impl DecodedPool {
    /// An empty pool (for files without pool sections).
    pub fn empty() -> DecodedPool {
        DecodedPool::default()
    }

    /// Empties the pool, keeping every buffer.
    fn clear(&mut self) {
        self.text.clear();
        self.strings.clear();
        self.symbols.clear();
        self.values.clear();
        self.types.clear();
        self.attrs.clear();
        self.dims.clear();
        self.signed_dims.clear();
    }

    /// Decodes a strings section payload. Symbol-order entries are
    /// interned into `ctx` immediately, reproducing the encoder's relative
    /// symbol order.
    pub fn read_strings(&mut self, ctx: &mut Context, r: &mut ByteReader<'_>) -> Result<()> {
        let count = r.count(1)?;
        self.text.clear();
        self.strings.clear();
        for _ in 0..count {
            let s = r.str()?;
            let start = self.text.len();
            self.text.push_str(s);
            self.strings.push((start, self.text.len()));
        }
        self.symbols.clear();
        self.symbols.resize(count, None);
        let order = r.count(1)?;
        for _ in 0..order {
            let id = r.varint()? as usize;
            let Some(s) = self.str_at(id) else {
                return Err(r.error(format!("symbol order references string {id} of {count}")));
            };
            self.symbols[id] = Some(ctx.symbol(s));
        }
        Ok(())
    }

    /// The string with table id `id`, if there is one.
    fn str_at(&self, id: usize) -> Option<&str> {
        let &(start, end) = self.strings.get(id)?;
        Some(&self.text[start..end])
    }

    /// Decodes a pool section payload, interning every entry into `ctx`
    /// through its borrowed view over the pool's buffers.
    pub fn read_pool(&mut self, ctx: &mut Context, r: &mut ByteReader<'_>) -> Result<()> {
        let count = r.count(1)?;
        self.values.clear();
        self.values.reserve(count);
        for index in 0..count {
            let tag = r.u8()?;
            let value = match tag {
                T_INTEGER => {
                    let width = r.varint()? as u32;
                    let signedness = signedness_from(r.u8()?)
                        .ok_or_else(|| r.error("invalid signedness tag"))?;
                    PoolValue::Type(ctx.intern_type_ref(TypeRef::Integer { width, signedness }))
                }
                T_FLOAT => {
                    let kind = float_kind_from(r.u8()?)
                        .ok_or_else(|| r.error("invalid float kind tag"))?;
                    PoolValue::Type(ctx.intern_type_ref(TypeRef::Float(kind)))
                }
                T_INDEX => PoolValue::Type(ctx.intern_type_ref(TypeRef::Index)),
                T_FUNCTION => {
                    self.types.clear();
                    let values = &self.values;
                    let n_inputs = read_list(&mut self.types, r, |r| type_at(values, index, r))?;
                    read_list(&mut self.types, r, |r| type_at(values, index, r))?;
                    let (inputs, results) = self.types.split_at(n_inputs);
                    PoolValue::Type(ctx.intern_type_ref(TypeRef::Function { inputs, results }))
                }
                T_VECTOR => {
                    self.dims.clear();
                    read_list(&mut self.dims, r, |r| r.varint())?;
                    let elem = type_at(&self.values, index, r)?;
                    PoolValue::Type(ctx.intern_type_ref(TypeRef::Vector { dims: &self.dims, elem }))
                }
                T_TENSOR | T_MEMREF => {
                    self.signed_dims.clear();
                    read_list(&mut self.signed_dims, r, |r| r.zigzag())?;
                    let elem = type_at(&self.values, index, r)?;
                    let dims = &self.signed_dims[..];
                    let key = if tag == T_TENSOR {
                        TypeRef::Tensor { dims, elem }
                    } else {
                        TypeRef::MemRef { dims, elem }
                    };
                    PoolValue::Type(ctx.intern_type_ref(key))
                }
                T_PARAMETRIC => {
                    let dialect = self.symbol(ctx, r)?;
                    let name = self.symbol(ctx, r)?;
                    self.attrs.clear();
                    read_list(&mut self.attrs, r, |r| attr_at(&self.values, index, r))?;
                    let key = TypeRef::Parametric { dialect, name, params: &self.attrs };
                    PoolValue::Type(ctx.intern_type_ref(key))
                }
                A_UNIT => PoolValue::Attr(ctx.intern_attr_ref(AttrRef::Unit)),
                A_BOOL => PoolValue::Attr(ctx.intern_attr_ref(AttrRef::Bool(r.u8()? != 0))),
                A_INTEGER => {
                    let value = r.zigzag128()?;
                    let ty = type_at(&self.values, index, r)?;
                    PoolValue::Attr(ctx.intern_attr_ref(AttrRef::Integer { value, ty }))
                }
                A_FLOAT => {
                    let bits = r.u64le()?;
                    let kind = float_kind_from(r.u8()?)
                        .ok_or_else(|| r.error("invalid float kind tag"))?;
                    PoolValue::Attr(ctx.intern_attr_ref(AttrRef::Float { bits, kind }))
                }
                A_STRING => {
                    let s = self.string(r)?;
                    PoolValue::Attr(ctx.intern_attr_ref(AttrRef::String(s)))
                }
                A_ARRAY => {
                    self.attrs.clear();
                    read_list(&mut self.attrs, r, |r| attr_at(&self.values, index, r))?;
                    PoolValue::Attr(ctx.intern_attr_ref(AttrRef::Array(&self.attrs)))
                }
                A_TYPE => {
                    let ty = type_at(&self.values, index, r)?;
                    PoolValue::Attr(ctx.intern_attr_ref(AttrRef::TypeAttr(ty)))
                }
                A_SYMBOL_REF => {
                    let sym = self.symbol(ctx, r)?;
                    PoolValue::Attr(ctx.intern_attr_ref(AttrRef::SymbolRef(sym)))
                }
                A_ENUM => {
                    let dialect = self.symbol(ctx, r)?;
                    let enum_name = self.symbol(ctx, r)?;
                    let variant = self.symbol(ctx, r)?;
                    let key = AttrRef::EnumValue { dialect, enum_name, variant };
                    PoolValue::Attr(ctx.intern_attr_ref(key))
                }
                A_LOCATION => {
                    let file = self.string(r)?;
                    let line = r.varint()? as u32;
                    let col = r.varint()? as u32;
                    PoolValue::Attr(ctx.intern_attr_ref(AttrRef::Location { file, line, col }))
                }
                A_TYPE_ID => {
                    let sym = self.symbol(ctx, r)?;
                    PoolValue::Attr(ctx.intern_attr_ref(AttrRef::TypeId(sym)))
                }
                A_NATIVE => {
                    let kind = self.symbol(ctx, r)?;
                    let text = self.string(r)?;
                    PoolValue::Attr(ctx.intern_attr_ref(AttrRef::Native { kind, text }))
                }
                A_PARAMETRIC => {
                    let dialect = self.symbol(ctx, r)?;
                    let name = self.symbol(ctx, r)?;
                    self.attrs.clear();
                    read_list(&mut self.attrs, r, |r| attr_at(&self.values, index, r))?;
                    let key = AttrRef::Parametric { dialect, name, params: &self.attrs };
                    PoolValue::Attr(ctx.intern_attr_ref(key))
                }
                other => return Err(r.error(format!("unknown pool entry tag {other}"))),
            };
            self.values.push(value);
        }
        Ok(())
    }

    /// The string behind table id read from `r`.
    pub fn string(&self, r: &mut ByteReader<'_>) -> Result<&str> {
        let id = r.varint()? as usize;
        self.str_at(id)
            .ok_or_else(|| r.error(format!("string id {id} out of range ({})", self.strings.len())))
    }

    /// The symbol behind a string-table id read from `r`, interning on
    /// first use.
    pub fn symbol(&mut self, ctx: &mut Context, r: &mut ByteReader<'_>) -> Result<Symbol> {
        let id = r.varint()? as usize;
        let Some(&slot) = self.symbols.get(id) else {
            return Err(r.error(format!("string id {id} out of range ({})", self.strings.len())));
        };
        if let Some(sym) = slot {
            return Ok(sym);
        }
        let (start, end) = self.strings[id];
        let sym = ctx.symbol(&self.text[start..end]);
        self.symbols[id] = Some(sym);
        Ok(sym)
    }

    /// Reads a type pool reference from a body section.
    pub fn body_type(&self, r: &mut ByteReader<'_>) -> Result<Type> {
        type_at(&self.values, usize::MAX, r)
    }

    /// Reads an attribute pool reference from a body section.
    pub fn body_attr(&self, r: &mut ByteReader<'_>) -> Result<Attribute> {
        attr_at(&self.values, usize::MAX, r)
    }
}

/// Reads a counted list onto the end of `out`, returning its length.
fn read_list<T>(
    out: &mut Vec<T>,
    r: &mut ByteReader<'_>,
    mut read: impl FnMut(&mut ByteReader<'_>) -> Result<T>,
) -> Result<usize> {
    let n = r.count(1)?;
    for _ in 0..n {
        out.push(read(r)?);
    }
    Ok(n)
}

/// The type behind a pool id read from `r`. `limit` bounds the ids a pool
/// entry under construction may reference (its own index); `usize::MAX`
/// for body readers.
fn type_at(values: &[PoolValue], limit: usize, r: &mut ByteReader<'_>) -> Result<Type> {
    let id = r.varint()? as usize;
    if id >= limit.min(values.len()) {
        return Err(r.error(format!("pool id {id} out of range ({})", values.len())));
    }
    match values[id] {
        PoolValue::Type(ty) => Ok(ty),
        PoolValue::Attr(_) => Err(r.error(format!("pool id {id} is an attribute, expected a type"))),
    }
}

fn attr_at(values: &[PoolValue], limit: usize, r: &mut ByteReader<'_>) -> Result<Attribute> {
    let id = r.varint()? as usize;
    if id >= limit.min(values.len()) {
        return Err(r.error(format!("pool id {id} out of range ({})", values.len())));
    }
    match values[id] {
        PoolValue::Attr(attr) => Ok(attr),
        PoolValue::Type(_) => Err(r.error(format!("pool id {id} is a type, expected an attribute"))),
    }
}

// ---------------------------------------------------------------------------
// Module encoding
// ---------------------------------------------------------------------------

/// The module encoder's tables and body buffer. It is parked in the
/// [`Context`] between encodes, so a warmed encode allocates only its
/// output.
#[derive(Default)]
pub(crate) struct EncodeScratch {
    pool: Pool,
    /// Dense value numbering in definition order.
    value_ids: FastMap<Value, u32>,
    /// Every block entered so far: its region and its index there.
    blocks: FastMap<BlockRef, (RegionRef, u32)>,
    /// The ops section payload.
    body: ByteWriter,
}

impl EncodeScratch {
    /// Encodes `module` into one exactly sized output buffer.
    fn encode(&mut self, ctx: &Context, module: OpRef) -> Result<Vec<u8>> {
        let mut body = std::mem::take(&mut self.body);
        let encoded = self.encode_op(ctx, &mut body, module, None).map(|()| {
            let len = MODULE_MAGIC.len()
                + 1
                + self.pool.sections_len()
                + 1
                + varint_len(body.len() as u64)
                + body.len();
            let mut out = ByteWriter { buf: Vec::with_capacity(len) };
            out.bytes(&MODULE_MAGIC);
            out.u8(VERSION);
            self.pool.emit_sections(&mut out);
            out.section(SECTION_OPS, &body);
            debug_assert_eq!(out.len(), len, "module output is sized exactly");
            out.into_vec()
        });
        self.body = body;
        encoded
    }

    /// Empties every table, keeping its capacity.
    fn clear(&mut self) {
        self.pool.clear();
        self.value_ids.clear();
        self.blocks.clear();
        self.body.buf.clear();
    }

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
        ctx: &Context,
        w: &mut ByteWriter,
        op: OpRef,
        parent: Option<RegionRef>,
    ) -> Result<()> {
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
            self.encode_region(ctx, w, region)?;
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

    fn encode_region(
        &mut self,
        ctx: &Context,
        w: &mut ByteWriter,
        region: RegionRef,
    ) -> Result<()> {
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
                self.encode_op(ctx, w, op, Some(region))?;
            }
        }
        Ok(())
    }
}

/// Encodes `module` (any operation tree) into bytecode.
///
/// The encoder's tables live in `ctx` between calls, so once warmed an
/// encode allocates only the returned `Vec`.
///
/// # Errors
///
/// Returns a diagnostic when the module is not encodable — an operand used
/// before its definition in structural order, or a successor outside its
/// enclosing region (both are un-printable IR as well).
pub fn encode_module(ctx: &Context, module: OpRef) -> Result<Vec<u8>> {
    let mut scratch = ctx.take_encode_scratch();
    let encoded = scratch.encode(ctx, module);
    scratch.clear();
    ctx.put_encode_scratch(scratch);
    encoded
}

// ---------------------------------------------------------------------------
// Module decoding
// ---------------------------------------------------------------------------

/// The module decoder's tables, parked in the [`Context`] between decodes
/// like the text parser's scopes.
#[derive(Default)]
pub(crate) struct DecodeScratch {
    pool: DecodedPool,
    values: Vec<Value>,
    partial: PartialIr,
}

struct ModuleDecoder<'c> {
    ctx: &'c mut Context,
    pool: DecodedPool,
    /// Every value decoded so far, in definition order.
    values: Vec<Value>,
    /// What a failed decode must erase: the root once built, and every
    /// region (blocks are appended to their region as they are made).
    partial: PartialIr,
}

impl ModuleDecoder<'_> {
    /// Decodes a whole module file.
    fn decode(&mut self, bytes: &[u8]) -> Result<OpRef> {
        let mut root = None;
        let kind = "module bytecode file";
        read_sections(bytes, MODULE_MAGIC, kind, &MODULE_SECTIONS, |tag, section| match tag {
            SECTION_STRINGS => self.pool.read_strings(self.ctx, section),
            SECTION_POOL => self.pool.read_pool(self.ctx, section),
            _ => {
                let op = self.decode_op(section, None)?;
                self.partial.ops.push(op);
                root = Some(op);
                if !section.is_empty() {
                    return Err(section.error("trailing bytes after root operation"));
                }
                Ok(())
            }
        })?;
        Ok(root.expect("the ops section was read"))
    }

    /// Decodes one operation, whose enclosing region is `parent` (`None`
    /// for the root). Lists that outgrow the state's inline slots draw
    /// their buffers from the context's pool.
    fn decode_op(&mut self, r: &mut ByteReader<'_>, parent: Option<RegionRef>) -> Result<OpRef> {
        let dialect = self.pool.symbol(self.ctx, r)?;
        let name = self.pool.symbol(self.ctx, r)?;
        let mut state = OperationState::new(OpName { dialect, name });

        let n_operands = r.count(1)?;
        for _ in 0..n_operands {
            let id = r.varint()? as usize;
            let Some(&value) = self.values.get(id) else {
                return Err(r.error(format!(
                    "operand value id {id} out of range ({})",
                    self.values.len()
                )));
            };
            state.operands.push_pooled(value, &mut self.ctx.spill_pool_mut().operands);
        }

        let n_results = r.count(1)?;
        for _ in 0..n_results {
            let ty = self.pool.body_type(r)?;
            state.result_types.push_pooled(ty, &mut self.ctx.spill_pool_mut().types);
        }

        let n_attrs = r.count(1)?;
        for _ in 0..n_attrs {
            let key = self.pool.symbol(self.ctx, r)?;
            let value = self.pool.body_attr(r)?;
            state.attributes.push_pooled((key, value), &mut self.ctx.spill_pool_mut().attrs);
        }

        let n_successors = r.count(1)?;
        for _ in 0..n_successors {
            let index = r.varint()? as usize;
            let blocks = parent.map_or(&[][..], |region| region.blocks(self.ctx));
            let Some(&block) = blocks.get(index) else {
                return Err(r.error(format!(
                    "successor block index {index} out of range ({})",
                    blocks.len()
                )));
            };
            state.successors.push_pooled(block, &mut self.ctx.spill_pool_mut().successors);
        }

        let n_regions = r.count(1)?;
        for _ in 0..n_regions {
            let mut body = r.sub_reader()?;
            let region = self.decode_region(&mut body)?;
            state.regions.push_pooled(region, &mut self.ctx.spill_pool_mut().regions);
            if !body.is_empty() {
                return Err(body.error("trailing bytes after region payload"));
            }
        }

        let op = self.ctx.create_op(state);
        self.values.extend(op.results(self.ctx));
        Ok(op)
    }

    fn decode_region(&mut self, r: &mut ByteReader<'_>) -> Result<RegionRef> {
        let region = self.ctx.create_region();
        self.partial.regions.push(region);
        let n_blocks = r.count(1)?;
        for _ in 0..n_blocks {
            let block = self.ctx.create_block([]);
            self.ctx.append_block(region, block);
            let n_args = r.count(1)?;
            for _ in 0..n_args {
                let ty = self.pool.body_type(r)?;
                let arg = self.ctx.add_block_arg(block, ty);
                self.values.push(arg);
            }
        }
        for index in 0..n_blocks {
            let block = region.blocks(self.ctx)[index];
            let n_ops = r.count(1)?;
            for _ in 0..n_ops {
                let op = self.decode_op(r, Some(region))?;
                self.ctx.append_op(block, op);
            }
        }
        Ok(region)
    }
}

/// Decodes a module encoded by [`encode_module`] into `ctx`, returning the
/// root operation (detached, like [`crate::parse::parse_module`]'s result).
///
/// The decoder's tables live in `ctx` between calls, and the IR draws its
/// lists from the context's pool, so once warmed a decode allocates
/// nothing for IR the context has held before.
///
/// # Errors
///
/// Returns a diagnostic (never panics) on bad magic, an unsupported
/// version, truncated or trailing bytes, unknown tags, a repeated strings,
/// pool or ops section, or out-of-range string / pool / value / block
/// references. A failed decode erases whatever IR it had built.
pub fn decode_module(ctx: &mut Context, bytes: &[u8]) -> Result<OpRef> {
    let DecodeScratch { pool, values, partial } = std::mem::take(ctx.decode_scratch_mut());
    let mut dec = ModuleDecoder { ctx, pool, values, partial };
    let decoded = dec.decode(bytes);
    if decoded.is_err() {
        dec.ctx.erase_partial(&mut dec.partial);
    }
    let ModuleDecoder { ctx, mut pool, mut values, mut partial } = dec;
    pool.clear();
    values.clear();
    partial.clear();
    *ctx.decode_scratch_mut() = DecodeScratch { pool, values, partial };
    decoded
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

    /// A module with a 2-result op, a use of both results, and an op
    /// holding a two-block region: a block argument, a branch to the
    /// second block, and a nested region inside it.
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

        let (body, entry) = ctx.create_region_with_entry([i32]);
        let exit = ctx.create_block([]);
        ctx.append_block(body, exit);
        let br = ctx.op_name("test", "br");
        let arg = entry.arg(ctx, 0);
        let branch =
            ctx.create_op(OperationState::new(br).add_operands([arg]).add_successors([exit]));
        ctx.append_op(entry, branch);
        let (inner, inner_entry) = ctx.create_region_with_entry([]);
        let nested = ctx.create_op(OperationState::new(use_name).add_operands([arg]));
        ctx.append_op(inner_entry, nested);
        let holder_name = ctx.op_name("test", "holder");
        let inner_holder = ctx.create_op(OperationState::new(holder_name).add_regions([inner]));
        ctx.append_op(exit, inner_holder);
        let holder = ctx.create_op(OperationState::new(holder_name).add_regions([body]));
        ctx.append_op(block, holder);
        module
    }

    /// Live ops, blocks and regions in `ctx`.
    fn live(ctx: &Context) -> (usize, usize, usize) {
        (ctx.num_ops(), ctx.num_blocks(), ctx.num_regions())
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

    /// Every rejected file leaves the context as it found it, so a worker
    /// that decodes many files into one context leaks nothing.
    #[test]
    fn bad_magic_version_and_truncation_are_diagnostics() {
        let mut ctx = Context::new();
        let module = sample_module(&mut ctx);
        let bytes = encode_module(&ctx, module).unwrap();
        ctx.erase_op(module);
        let start = live(&ctx);

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        let err = decode_module(&mut ctx, &bad_magic).unwrap_err();
        assert!(err.message().contains("bad magic"), "{err}");
        assert_eq!(live(&ctx), start, "bad magic left IR behind");

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xfe;
        let err = decode_module(&mut ctx, &bad_version).unwrap_err();
        assert!(err.message().contains("unsupported version"), "{err}");
        assert_eq!(live(&ctx), start, "bad version left IR behind");

        // Every truncation must fail cleanly (no panic, no success: a
        // shorter file always loses the ops section or part of it) and
        // erase what it built.
        for len in 0..bytes.len() {
            assert!(
                decode_module(&mut ctx, &bytes[..len]).is_err(),
                "truncation to {len} bytes decoded successfully"
            );
            assert_eq!(live(&ctx), start, "truncation to {len} bytes left IR behind");
        }
        let module = decode_module(&mut ctx, &bytes).unwrap();
        assert_eq!(encode_module(&ctx, module).unwrap(), bytes);
    }

    /// The header and each section of `bytes` as byte ranges.
    fn section_spans(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
        let header = 0..5;
        let mut spans = vec![header];
        let mut r = ByteReader::new(&bytes[5..]);
        while !r.is_empty() {
            let start = 5 + r.offset();
            r.u8().unwrap();
            r.sub_reader().unwrap();
            spans.push(start..5 + r.offset());
        }
        spans
    }

    /// A strings, pool or ops section given twice is an error at the
    /// second one's payload; the second ops section used to be decoded
    /// too, orphaning the first root.
    #[test]
    fn repeated_sections_are_rejected() {
        let mut ctx = Context::new();
        let module = sample_module(&mut ctx);
        let bytes = encode_module(&ctx, module).unwrap();
        ctx.erase_op(module);
        let start = live(&ctx);
        let spans = section_spans(&bytes);
        assert_eq!(spans.len(), 4, "header, strings, pool, ops");
        for (index, name) in [(1, "strings"), (2, "pool"), (3, "ops")] {
            let mut repeated = bytes[..spans[index].end].to_vec();
            repeated.extend_from_slice(&bytes[spans[index].clone()]);
            repeated.extend_from_slice(&bytes[spans[index].end..]);
            let err = decode_module(&mut ctx, &repeated).unwrap_err();
            // The payload of the repeat starts after its tag and length.
            let payload = spans[index].end + 1 + varint_len((spans[index].len() - 2) as u64);
            assert_eq!(
                err.message(),
                format!("bytecode: repeated {name} section (at byte {payload})"),
                "{name}"
            );
            assert_eq!(live(&ctx), start, "a repeated {name} section left IR behind");
        }
        // An unknown section stays skippable.
        let mut unknown = bytes.clone();
        unknown.extend_from_slice(&[0x7f, 1, 0]);
        let module = decode_module(&mut ctx, &unknown).unwrap();
        ctx.erase_op(module);
        assert_eq!(live(&ctx), start);
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
        ctx.erase_op(module);
        let start = live(&ctx);
        for index in 5..bytes.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut corrupt = bytes.clone();
                corrupt[index] ^= flip;
                // Either outcome is fine; panicking is not, and neither is
                // leaving IR behind.
                if let Ok(module) = decode_module(&mut ctx, &corrupt) {
                    ctx.erase_op(module);
                }
                assert_eq!(live(&ctx), start, "flipping byte {index} by {flip:#x} left IR behind");
            }
        }
    }

    /// The encoder's tables are reused from one module to the next: a
    /// second, different module encodes exactly as it does in a context
    /// that never encoded anything.
    #[test]
    fn reused_encoder_tables_start_empty() {
        let mut ctx = Context::new();
        let first = sample_module(&mut ctx);
        encode_module(&ctx, first).unwrap();
        let second = ctx.create_module();
        let block = ctx.module_block(second);
        let name = ctx.op_name("other", "op");
        let key = ctx.symbol("label");
        let label = ctx.string_attr("value");
        let op = ctx.create_op(OperationState::new(name).add_attribute(key, label));
        ctx.append_op(block, op);
        let reused = encode_module(&ctx, second).unwrap();

        let mut fresh = ctx.clone();
        let fresh_bytes = encode_module(&fresh, second).unwrap();
        assert_eq!(reused, fresh_bytes);
        let decoded = decode_module(&mut fresh, &reused).unwrap();
        assert_eq!(op_to_string(&fresh, decoded), op_to_string(&ctx, second));
    }
}
