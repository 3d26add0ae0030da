//! Constraint programs: the one evaluator of IRDL constraints.
//!
//! A [`Constraint`] tree is data — frontend output, bundle recipes,
//! Figure 8 classification. Before anything is checked against it, it is
//! lowered into a [`ConstraintProgram`]: a contiguous instruction vector
//! (`Inst`) whose combinators reference their children through an index
//! pool. Every verdict, rejection message, declarative-format binding and
//! generated witness comes from walking these nodes.
//!
//! Evaluation runs one body in one of two reporting modes:
//!
//! - *silent* returns a bare verdict, allocates nothing, and memoizes pure
//!   verdicts in the owning [`Context`];
//! - *explain* renders why a value was rejected. It runs only after a
//!   silent rejection and bypasses the verdict cache, so its verdict never
//!   rests on a cached one.
//!
//! Constraint variables bind in an [`EvalScratch`] with a trail, so
//! `AnyOf`/`Not` backtracking undoes bindings without cloning an
//! environment: `AnyOf` commits the bindings of the first matching
//! alternative (matching is greedy per value, as in upstream IRDL), `Not`
//! never leaks them, and `And` keeps a failed prefix's bindings.
//!
//! At lowering time every node is classified as *pure* (its verdict depends
//! only on the value, not on constraint-variable bindings or native
//! predicate state). Pure composite nodes get a cache slot; their verdicts
//! are memoized keyed on `(verdict domain, value)`. This is sound because
//! types and attributes are uniqued, immutable indices: a
//! `!cmath.complex<f32>` checked once is checked forever.

use irdl_ir::attrs::AttrData;
use irdl_ir::types::TypeData;
use irdl_ir::{Attribute, Context, Signedness, Symbol, Type};

use crate::ast::IntKind;
use crate::constraint::{CVal, Constraint, NativePred, TypeClass};

/// Sentinel for "this node has no verdict-cache slot".
const NO_SLOT: u32 = u32::MAX;

/// A `(start, len)` range into [`ConstraintProgram::children`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Children {
    start: u32,
    len: u32,
}

/// One flat instruction. Mirrors [`Constraint`] but replaces owned
/// subtrees with index ranges into the shared child pool.
#[derive(Clone)]
pub(crate) enum Inst {
    Any,
    AnyType,
    AnyAttr,
    ExactType(Type),
    BaseType { dialect: Symbol, name: Symbol },
    ParametricType { dialect: Symbol, name: Symbol, children: Children },
    Class(TypeClass),
    ExactAttr(Attribute),
    BaseAttr { dialect: Symbol, name: Symbol },
    ParametricAttr { dialect: Symbol, name: Symbol, children: Children },
    Int(IntKind),
    IntLiteral { value: i128, kind: IntKind },
    FloatAttr(Option<irdl_ir::FloatKind>),
    StringAny,
    StringLiteral(Box<str>),
    BoolAttr,
    UnitAttr,
    SymbolRefAttr,
    LocationAttr,
    TypeIdAttr,
    ArrayAny,
    ArrayOf(u32),
    ArrayExact(Children),
    EnumAny { dialect: Symbol, name: Symbol },
    EnumVariant { dialect: Symbol, name: Symbol, variant: Symbol },
    NativeParam { kind: Symbol },
    AnyOf(Children),
    And(Children),
    Not(u32),
    Var(u32),
    Native { name: Box<str>, pred: NativePred },
}

#[derive(Clone)]
struct Node {
    inst: Inst,
    /// Verdict-cache slot, or [`NO_SLOT`]. Only pure composite nodes are
    /// cached: leaves are cheaper to re-check than to look up.
    cache_slot: u32,
}

// ---------------------------------------------------------------------------
// Reporting modes
// ---------------------------------------------------------------------------

/// How an evaluation reports a rejection. Both modes run the same body;
/// the silent instantiation compiles the rendering away.
pub(crate) trait Mode {
    /// What a rejection carries.
    type Fail;
    /// Whether pure verdicts are read from and written to the cache.
    const CACHED: bool;
    /// A rejection described by `msg`, rendered only when explaining.
    fn fail(msg: impl FnOnce() -> String) -> Self::Fail;
    /// Rewraps a nested rejection's description.
    fn wrap(fail: Self::Fail, f: impl FnOnce(String) -> String) -> Self::Fail;
}

/// Bare verdicts: nothing rendered, nothing allocated, cache in use.
pub(crate) struct Silent;

impl Mode for Silent {
    type Fail = ();
    const CACHED: bool = true;
    fn fail(_: impl FnOnce() -> String) {}
    fn wrap(_: (), _: impl FnOnce(String) -> String) {}
}

/// Rendered rejections, evaluated without the verdict cache.
pub(crate) struct Explain;

impl Mode for Explain {
    type Fail = String;
    const CACHED: bool = false;
    fn fail(msg: impl FnOnce() -> String) -> String {
        msg()
    }
    fn wrap(fail: String, f: impl FnOnce(String) -> String) -> String {
        f(fail)
    }
}

/// `Ok` when `ok`, otherwise a rejection described by `msg`.
fn ensure<M: Mode>(ok: bool, msg: impl FnOnce() -> String) -> Result<(), M::Fail> {
    if ok {
        Ok(())
    } else {
        Err(M::fail(msg))
    }
}

// ---------------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------------

/// A lowered constraint set: all constraints of one op (or one type/attr
/// definition) in a single contiguous instruction vector.
pub struct ConstraintProgram {
    nodes: Vec<Node>,
    /// Child-index pool referenced by [`Children`] ranges.
    children: Vec<u32>,
    /// Root node of each constraint variable's declared constraint.
    var_roots: Vec<u32>,
    /// First verdict-cache domain owned by this program; slot `s` maps to
    /// domain `domain_base + s`. Domains are reserved from the [`Context`]
    /// at build time, so distinct programs can never collide on a key.
    domain_base: u32,
    num_slots: u32,
}

impl ConstraintProgram {
    /// Lowers `constraints` (plus the declared constraint of each variable
    /// in `var_decls`) into one program, reserving verdict-cache domains
    /// from `ctx`. Returns the program and the root node of each
    /// constraint, in order.
    pub fn lower(
        ctx: &mut Context,
        var_decls: &[Constraint],
        constraints: &[Constraint],
    ) -> (ConstraintProgram, Vec<u32>) {
        let mut b = Builder::default();
        let var_roots = var_decls.iter().map(|d| b.lower(d)).collect();
        let roots = constraints.iter().map(|c| b.lower(c)).collect();
        (b.finish(ctx, var_roots), roots)
    }

    pub(crate) fn inst(&self, idx: u32) -> &Inst {
        &self.nodes[idx as usize].inst
    }

    pub(crate) fn children(&self, range: Children) -> &[u32] {
        &self.children[range.start as usize..(range.start + range.len) as usize]
    }

    /// Number of constraint variables the program declares.
    pub(crate) fn num_vars(&self) -> usize {
        self.var_roots.len()
    }

    /// Root node of variable `var`'s declared constraint.
    pub(crate) fn var_root(&self, var: u32) -> Option<u32> {
        self.var_roots.get(var as usize).copied()
    }

    /// Number of memoizable (pure composite) nodes.
    pub fn num_cache_slots(&self) -> u32 {
        self.num_slots
    }

    /// `(dialect, name, parameter nodes)` when node `idx` is a parametric
    /// type pattern.
    pub(crate) fn parametric_type(&self, idx: u32) -> Option<(Symbol, Symbol, &[u32])> {
        match self.inst(idx) {
            Inst::ParametricType { dialect, name, children } => {
                Some((*dialect, *name, self.children(*children)))
            }
            _ => None,
        }
    }

    /// Silent verdict of node `root` on `val`; binds variables in
    /// `scratch` as it goes. Allocation-free.
    pub fn check(&self, ctx: &Context, root: u32, val: CVal, scratch: &mut EvalScratch) -> bool {
        self.eval::<Silent>(ctx, root, val, scratch).is_ok()
    }

    /// Explain-mode evaluation of node `root` on `val`: the rejection
    /// rendered for humans, or `Ok` exactly when [`Self::check`] accepts.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn explain(
        &self,
        ctx: &Context,
        root: u32,
        val: CVal,
        scratch: &mut EvalScratch,
    ) -> Result<(), String> {
        self.eval::<Explain>(ctx, root, val, scratch)
    }

    /// [`Self::check`], falling back to [`Self::explain`] from the same
    /// bindings when the silent verdict rejects.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub(crate) fn check_explained(
        &self,
        ctx: &Context,
        root: u32,
        val: CVal,
        scratch: &mut EvalScratch,
    ) -> Result<(), String> {
        let mark = scratch.mark();
        if self.check(ctx, root, val, scratch) {
            return Ok(());
        }
        scratch.rollback(mark);
        self.explain(ctx, root, val, scratch)
    }

    fn cache_key(&self, slot: u32, val: CVal) -> u64 {
        let (tag, index) = match val {
            CVal::Type(ty) => (0u64, ty.index() as u64),
            CVal::Attr(attr) => (1u64, attr.index() as u64),
        };
        (((self.domain_base + slot) as u64) << 33) | (tag << 32) | index
    }

    /// Evaluates node `idx` against `val` in reporting mode `M`.
    pub(crate) fn eval<M: Mode>(
        &self,
        ctx: &Context,
        idx: u32,
        val: CVal,
        scratch: &mut EvalScratch,
    ) -> Result<(), M::Fail> {
        let node = &self.nodes[idx as usize];
        if M::CACHED && node.cache_slot != NO_SLOT {
            let key = self.cache_key(node.cache_slot, val);
            let verdict = match ctx.cached_verdict(key) {
                Some(verdict) => verdict,
                None => {
                    let verdict = self.eval_inst::<M>(ctx, &node.inst, val, scratch).is_ok();
                    ctx.cache_verdict(key, verdict);
                    verdict
                }
            };
            return ensure::<M>(verdict, String::new);
        }
        self.eval_inst::<M>(ctx, &node.inst, val, scratch)
    }

    /// Evaluates each `(node, value)` pair in order, stopping at the first
    /// rejection.
    fn eval_each<M: Mode>(
        &self,
        ctx: &Context,
        nodes: &[u32],
        values: &[Attribute],
        scratch: &mut EvalScratch,
    ) -> Result<(), M::Fail> {
        for (&node, &value) in nodes.iter().zip(values) {
            self.eval::<M>(ctx, node, CVal::from_attr(ctx, value), scratch)?;
        }
        Ok(())
    }

    fn eval_inst<M: Mode>(
        &self,
        ctx: &Context,
        inst: &Inst,
        val: CVal,
        scratch: &mut EvalScratch,
    ) -> Result<(), M::Fail> {
        let got = || val.display(ctx);
        let sym = |s: &Symbol| ctx.symbol_str(*s);
        let is_attr = |pred: fn(&AttrData) -> bool| attr_data(ctx, val).is_some_and(pred);
        match inst {
            Inst::Any => Ok(()),
            Inst::AnyType => ensure::<M>(matches!(val, CVal::Type(_)), || {
                format!("expected a type, got {}", got())
            }),
            Inst::AnyAttr => ensure::<M>(matches!(val, CVal::Attr(_)), || {
                format!("expected an attribute, got {}", got())
            }),
            Inst::ExactType(expected) => ensure::<M>(val == CVal::Type(*expected), || {
                format!("expected type {}, got {}", expected.display(ctx), got())
            }),
            Inst::BaseType { dialect, name } => ensure::<M>(
                matches!(val, CVal::Type(ty) if ty.parametric_name(ctx) == Some((*dialect, *name))),
                || format!("expected a !{}.{} type, got {}", sym(dialect), sym(name), got()),
            ),
            Inst::ParametricType { dialect, name, children } => {
                let CVal::Type(ty) = val else {
                    return Err(M::fail(|| format!("expected a type, got {}", got())));
                };
                ensure::<M>(ty.parametric_name(ctx) == Some((*dialect, *name)), || {
                    format!("expected a !{}.{} type, got {}", sym(dialect), sym(name), got())
                })?;
                let (actual, params) = (ty.params(ctx), self.children(*children));
                ensure::<M>(actual.len() == params.len(), || {
                    format!(
                        "type {} has {} parameter(s); constraint expects {}",
                        got(),
                        actual.len(),
                        params.len()
                    )
                })?;
                self.eval_each::<M>(ctx, params, actual, scratch)
            }
            Inst::Class(class) => ensure::<M>(
                matches!(val, CVal::Type(ty) if class.matches(ctx, ty)),
                || format!("{} does not belong to {class:?}", got()),
            ),
            Inst::ExactAttr(expected) => ensure::<M>(val == CVal::Attr(*expected), || {
                format!("expected attribute {}, got {}", expected.display(ctx), got())
            }),
            Inst::BaseAttr { dialect, name } => ensure::<M>(
                matches!(val, CVal::Attr(a) if a.parametric_name(ctx) == Some((*dialect, *name))),
                || format!("expected a #{}.{} attribute, got {}", sym(dialect), sym(name), got()),
            ),
            Inst::ParametricAttr { dialect, name, children } => {
                let CVal::Attr(attr) = val else {
                    return Err(M::fail(|| format!("expected an attribute, got {}", got())));
                };
                ensure::<M>(attr.parametric_name(ctx) == Some((*dialect, *name)), || {
                    format!("expected a #{}.{} attribute, got {}", sym(dialect), sym(name), got())
                })?;
                let AttrData::Parametric { params: actual, .. } = ctx.attr_data(attr) else {
                    unreachable!("parametric_name implies parametric data")
                };
                let params = self.children(*children);
                ensure::<M>(actual.len() == params.len(), || {
                    format!(
                        "attribute {} has {} parameter(s); constraint expects {}",
                        got(),
                        actual.len(),
                        params.len()
                    )
                })?;
                self.eval_each::<M>(ctx, params, actual, scratch)
            }
            Inst::Int(kind) => int_matches::<M>(ctx, val, *kind, None),
            Inst::IntLiteral { value, kind } => int_matches::<M>(ctx, val, *kind, Some(*value)),
            Inst::FloatAttr(kind) => match attr_data(ctx, val) {
                Some(AttrData::Float { kind: actual, .. }) => match kind {
                    Some(expected) if actual != expected => Err(M::fail(|| {
                        format!("expected a {} float, got {}", expected.keyword(), got())
                    })),
                    _ => Ok(()),
                },
                _ => Err(M::fail(|| format!("expected a float parameter, got {}", got()))),
            },
            Inst::StringAny => ensure::<M>(is_attr(|d| matches!(d, AttrData::String(_))), || {
                format!("expected a string parameter, got {}", got())
            }),
            Inst::StringLiteral(expected) => ensure::<M>(
                attr_of(val).is_some_and(|a| {
                    matches!(ctx.attr_data(a), AttrData::String(s) if **s == **expected)
                }),
                || format!("expected \"{expected}\", got {}", got()),
            ),
            Inst::BoolAttr => ensure::<M>(is_attr(|d| matches!(d, AttrData::Bool(_))), || {
                format!("expected a boolean parameter, got {}", got())
            }),
            Inst::UnitAttr => ensure::<M>(is_attr(|d| matches!(d, AttrData::Unit)), || {
                format!("expected the unit attribute, got {}", got())
            }),
            Inst::SymbolRefAttr => {
                ensure::<M>(is_attr(|d| matches!(d, AttrData::SymbolRef(_))), || {
                    format!("expected a symbol reference, got {}", got())
                })
            }
            Inst::LocationAttr => {
                ensure::<M>(is_attr(|d| matches!(d, AttrData::Location { .. })), || {
                    format!("expected a location, got {}", got())
                })
            }
            Inst::TypeIdAttr => ensure::<M>(is_attr(|d| matches!(d, AttrData::TypeId(_))), || {
                format!("expected a type id, got {}", got())
            }),
            Inst::ArrayAny => ensure::<M>(is_attr(|d| matches!(d, AttrData::Array(_))), || {
                format!("expected an array parameter, got {}", got())
            }),
            Inst::ArrayOf(inner) => {
                let items = array_items::<M>(ctx, val)?;
                for &item in items {
                    self.eval::<M>(ctx, *inner, CVal::from_attr(ctx, item), scratch)?;
                }
                Ok(())
            }
            Inst::ArrayExact(children) => {
                let items = array_items::<M>(ctx, val)?;
                let constraints = self.children(*children);
                ensure::<M>(items.len() == constraints.len(), || {
                    format!(
                        "expected an array of {} element(s), got {}",
                        constraints.len(),
                        items.len()
                    )
                })?;
                self.eval_each::<M>(ctx, constraints, items, scratch)
            }
            Inst::EnumAny { dialect, name } => match attr_of(val) {
                Some(a) => ensure::<M>(
                    matches!(ctx.attr_data(a),
                        AttrData::EnumValue { dialect: d, enum_name: e, .. }
                            if d == dialect && e == name),
                    || {
                        format!("expected a {}.{} enum value, got {}", sym(dialect), sym(name), got())
                    },
                ),
                None => Err(M::fail(|| format!("expected an enum value, got {}", got()))),
            },
            Inst::EnumVariant { dialect, name, variant } => match attr_of(val) {
                Some(a) => ensure::<M>(
                    matches!(ctx.attr_data(a),
                        AttrData::EnumValue { dialect: d, enum_name: e, variant: v }
                            if d == dialect && e == name && v == variant),
                    || {
                        format!(
                            "expected enum constructor {}.{}, got {}",
                            sym(name),
                            sym(variant),
                            got()
                        )
                    },
                ),
                None => Err(M::fail(|| format!("expected an enum value, got {}", got()))),
            },
            Inst::NativeParam { kind } => match attr_of(val) {
                Some(a) => ensure::<M>(
                    matches!(ctx.attr_data(a), AttrData::Native { kind: k, .. } if k == kind),
                    || format!("expected a native `{}` parameter, got {}", sym(kind), got()),
                ),
                None => Err(M::fail(|| format!("expected a native parameter, got {}", got()))),
            },
            Inst::AnyOf(children) => {
                // Each alternative starts from the bindings as they were at
                // entry; a failed attempt's bindings are undone via the
                // trail, a successful one's are committed.
                let mut last = M::fail(|| "AnyOf<> with no alternatives never matches".into());
                for &choice in self.children(*children) {
                    let mark = scratch.mark();
                    match self.eval::<M>(ctx, choice, val, scratch) {
                        Ok(()) => return Ok(()),
                        Err(e) => last = e,
                    }
                    scratch.rollback(mark);
                }
                Err(M::wrap(last, |last| {
                    format!("{} satisfied no alternative: {last}", got())
                }))
            }
            Inst::And(children) => {
                for &part in self.children(*children) {
                    self.eval::<M>(ctx, part, val, scratch)?;
                }
                Ok(())
            }
            Inst::Not(inner) => {
                // The probe must not leak bindings whether it succeeds or
                // fails.
                let mark = scratch.mark();
                let matched = self.eval::<M>(ctx, *inner, val, scratch).is_ok();
                scratch.rollback(mark);
                ensure::<M>(!matched, || {
                    format!("{} matches a constraint it must not match", got())
                })
            }
            Inst::Var(i) => match scratch.binding(*i) {
                Some(bound) => ensure::<M>(bound == val, || {
                    format!(
                        "constraint variable already bound to {}, got {}",
                        bound.display(ctx),
                        got()
                    )
                }),
                None => {
                    // First use: the value must satisfy the variable's
                    // declared constraint, then it binds.
                    if let Some(root) = self.var_root(*i) {
                        self.eval::<M>(ctx, root, val, scratch)?;
                    }
                    scratch.bind(*i, val);
                    Ok(())
                }
            },
            Inst::Native { name, pred } => pred(ctx, &val)
                .map_err(|e| M::fail(|| format!("native constraint `{name}` failed: {e}"))),
        }
    }

    /// Computes the unique value node `idx` admits under the (possibly
    /// partial) bindings in `scratch`. Used by declarative-format type
    /// inference (paper §4.7).
    ///
    /// Returns `None` when the constraint does not pin down a single value.
    pub(crate) fn concretize(
        &self,
        ctx: &mut Context,
        idx: u32,
        scratch: &mut EvalScratch,
    ) -> Option<CVal> {
        let attrs = |ctx: &mut Context, children: Children, scratch: &mut EvalScratch| {
            let mut out = Vec::with_capacity(children.len as usize);
            for &child in self.children(children) {
                let v = self.concretize(ctx, child, scratch)?;
                out.push(v.into_attr(ctx));
            }
            Some(out)
        };
        match self.inst(idx) {
            Inst::ExactType(ty) => Some(CVal::Type(*ty)),
            Inst::ExactAttr(attr) => Some(CVal::Attr(*attr)),
            Inst::Var(i) => scratch.binding(*i),
            Inst::ParametricType { dialect, name, children } => {
                let args = attrs(ctx, *children, scratch)?;
                ctx.parametric_type_syms(*dialect, *name, args).ok().map(CVal::Type)
            }
            Inst::ParametricAttr { dialect, name, children } => {
                let args = attrs(ctx, *children, scratch)?;
                ctx.parametric_attr_syms(*dialect, *name, args).ok().map(CVal::Attr)
            }
            Inst::IntLiteral { value, kind } => Some(CVal::Attr(int_attr(ctx, *kind, *value))),
            Inst::StringLiteral(s) => Some(CVal::Attr(ctx.string_attr(&**s))),
            Inst::EnumVariant { dialect, name, variant } => {
                Some(CVal::Attr(ctx.intern_attr(AttrData::EnumValue {
                    dialect: *dialect,
                    enum_name: *name,
                    variant: *variant,
                })))
            }
            Inst::ArrayExact(children) => {
                let items = attrs(ctx, *children, scratch)?;
                Some(CVal::Attr(ctx.array_attr(items)))
            }
            Inst::And(children) => {
                // A witness from one conjunct must still satisfy them all,
                // variables included; the check binds nothing.
                let parts = self.children(*children);
                let witness = parts.iter().find_map(|&p| self.concretize(ctx, p, scratch))?;
                let mark = scratch.mark();
                let ok = parts.iter().all(|&p| self.check(ctx, p, witness, scratch));
                scratch.rollback(mark);
                ok.then_some(witness)
            }
            _ => None,
        }
    }
}

/// The integer attribute `value` of `kind`, with the literal's declared
/// signedness (as evaluation and sampling expect).
pub(crate) fn int_attr(ctx: &mut Context, kind: IntKind, value: i128) -> Attribute {
    let signedness = if kind.unsigned { Signedness::Unsigned } else { Signedness::Signless };
    let ty = ctx.int_type_with_signedness(kind.width, signedness);
    ctx.int_attr(value, ty)
}

fn attr_data(ctx: &Context, val: CVal) -> Option<&AttrData> {
    attr_of(val).map(|a| ctx.attr_data(a))
}

fn attr_of(val: CVal) -> Option<Attribute> {
    match val {
        CVal::Attr(attr) => Some(attr),
        CVal::Type(_) => None,
    }
}

fn array_items<M: Mode>(ctx: &Context, val: CVal) -> Result<&[Attribute], M::Fail> {
    match attr_data(ctx, val) {
        Some(AttrData::Array(items)) => Ok(items),
        _ => Err(M::fail(|| format!("expected an array parameter, got {}", val.display(ctx)))),
    }
}

fn int_matches<M: Mode>(
    ctx: &Context,
    val: CVal,
    kind: IntKind,
    literal: Option<i128>,
) -> Result<(), M::Fail> {
    let not_int = || format!("expected an integer parameter, got {}", val.display(ctx));
    let Some(AttrData::Integer { value, ty }) = attr_data(ctx, val) else {
        return Err(M::fail(not_int));
    };
    let (value, ty) = (*value, *ty);
    let TypeData::Integer { width, signedness } = ctx.type_data(ty) else {
        return Err(M::fail(|| format!("{} of type {}", not_int(), ty.display(ctx))));
    };
    ensure::<M>(*width == kind.width, || {
        format!("expected a {}-bit integer, got {width}-bit", kind.width)
    })?;
    let sign_ok = match signedness {
        Signedness::Signless => true,
        Signedness::Signed => !kind.unsigned,
        Signedness::Unsigned => kind.unsigned,
    };
    ensure::<M>(sign_ok, || format!("integer signedness does not match {}", kind.keyword()))?;
    ensure::<M>(kind.fits(value), || {
        format!("value {value} does not fit in {}", kind.keyword())
    })?;
    match literal {
        Some(expected) if value != expected => {
            Err(M::fail(|| format!("expected the literal {expected}, got {value}")))
        }
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// Bottom-up lowering of [`Constraint`] trees into one flat program.
#[derive(Default)]
pub(crate) struct Builder {
    nodes: Vec<Node>,
    children: Vec<u32>,
    /// Purity per node, parallel to `nodes`; build-time only.
    pure: Vec<bool>,
    num_slots: u32,
}

impl Builder {
    fn push(&mut self, inst: Inst, pure: bool, cacheable: bool) -> u32 {
        let cache_slot = if pure && cacheable {
            let slot = self.num_slots;
            self.num_slots += 1;
            slot
        } else {
            NO_SLOT
        };
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node { inst, cache_slot });
        self.pure.push(pure);
        idx
    }

    fn lower_list(&mut self, constraints: &[Constraint]) -> (Children, bool) {
        let indices: Vec<u32> = constraints.iter().map(|c| self.lower(c)).collect();
        let pure = indices.iter().all(|&i| self.pure[i as usize]);
        let start = self.children.len() as u32;
        self.children.extend_from_slice(&indices);
        (Children { start, len: indices.len() as u32 }, pure)
    }

    /// Lowers a many-child combinator: pure exactly when all its children
    /// are, and then worth a cache slot.
    fn composite(&mut self, items: &[Constraint], inst: impl FnOnce(Children) -> Inst) -> u32 {
        let (children, pure) = self.lower_list(items);
        self.push(inst(children), pure, true)
    }

    /// Lowers a one-child combinator, pure exactly when its child is.
    fn unary(&mut self, inner: &Constraint, inst: fn(u32) -> Inst) -> u32 {
        let child = self.lower(inner);
        let pure = self.pure[child as usize];
        self.push(inst(child), pure, true)
    }

    pub(crate) fn lower(&mut self, c: &Constraint) -> u32 {
        let leaf = match c {
            Constraint::Any => Inst::Any,
            Constraint::AnyType => Inst::AnyType,
            Constraint::AnyAttr => Inst::AnyAttr,
            Constraint::ExactType(ty) => Inst::ExactType(*ty),
            Constraint::BaseType { dialect, name } => {
                Inst::BaseType { dialect: *dialect, name: *name }
            }
            Constraint::Class(class) => Inst::Class(*class),
            Constraint::ExactAttr(attr) => Inst::ExactAttr(*attr),
            Constraint::BaseAttr { dialect, name } => {
                Inst::BaseAttr { dialect: *dialect, name: *name }
            }
            Constraint::Int(kind) => Inst::Int(*kind),
            Constraint::IntLiteral { value, kind } => {
                Inst::IntLiteral { value: *value, kind: *kind }
            }
            Constraint::FloatAttr(kind) => Inst::FloatAttr(*kind),
            Constraint::StringAny => Inst::StringAny,
            Constraint::StringLiteral(s) => Inst::StringLiteral(s.as_str().into()),
            Constraint::BoolAttr => Inst::BoolAttr,
            Constraint::UnitAttr => Inst::UnitAttr,
            Constraint::SymbolRefAttr => Inst::SymbolRefAttr,
            Constraint::LocationAttr => Inst::LocationAttr,
            Constraint::TypeIdAttr => Inst::TypeIdAttr,
            Constraint::ArrayAny => Inst::ArrayAny,
            Constraint::EnumAny { dialect, name } => {
                Inst::EnumAny { dialect: *dialect, name: *name }
            }
            Constraint::EnumVariant { dialect, name, variant } => {
                Inst::EnumVariant { dialect: *dialect, name: *name, variant: *variant }
            }
            Constraint::NativeParam { kind } => Inst::NativeParam { kind: *kind },
            Constraint::ParametricType { dialect, name, params } => {
                let (dialect, name) = (*dialect, *name);
                return self.composite(params, |children| Inst::ParametricType {
                    dialect,
                    name,
                    children,
                });
            }
            Constraint::ParametricAttr { dialect, name, params } => {
                let (dialect, name) = (*dialect, *name);
                return self.composite(params, |children| Inst::ParametricAttr {
                    dialect,
                    name,
                    children,
                });
            }
            Constraint::ArrayExact(items) => return self.composite(items, Inst::ArrayExact),
            Constraint::AnyOf(choices) => return self.composite(choices, Inst::AnyOf),
            Constraint::And(parts) => return self.composite(parts, Inst::And),
            Constraint::ArrayOf(inner) => return self.unary(inner, Inst::ArrayOf),
            Constraint::Not(inner) => return self.unary(inner, Inst::Not),
            // A variable's verdict depends on the binding environment;
            // a native predicate's on arbitrary host code. Neither may
            // ever be memoized (nor any ancestor).
            Constraint::Var(i) => return self.push(Inst::Var(*i), false, false),
            Constraint::Native { name, pred } => {
                let inst = Inst::Native { name: name.as_str().into(), pred: pred.clone() };
                return self.push(inst, false, false);
            }
        };
        self.push(leaf, true, false)
    }

    pub(crate) fn finish(self, ctx: &mut Context, var_roots: Vec<u32>) -> ConstraintProgram {
        let domain_base = ctx.reserve_verdict_domains(self.num_slots);
        ConstraintProgram {
            nodes: self.nodes,
            children: self.children,
            var_roots,
            domain_base,
            num_slots: self.num_slots,
        }
    }
}

// ---------------------------------------------------------------------------
// Scratch state
// ---------------------------------------------------------------------------

/// Reusable evaluation scratch: variable bindings with a rollback trail,
/// plus segment-resolution buffers. One instance serves any number of
/// verifications; nothing is reallocated once the buffers have grown to
/// their steady-state sizes.
#[derive(Default)]
pub struct EvalScratch {
    bindings: Vec<Option<CVal>>,
    /// Variables bound since the last mark, for `AnyOf`/`Not` rollback.
    trail: Vec<u32>,
    pub(crate) seg_sizes: Vec<usize>,
    pub(crate) seg_explicit: Vec<i64>,
}

impl EvalScratch {
    /// Creates empty scratch state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Unbinds everything, sized for `num_vars` variables.
    pub fn reset(&mut self, num_vars: usize) {
        self.bindings.clear();
        self.bindings.resize(num_vars, None);
        self.trail.clear();
    }

    /// The current binding of variable `i`, if any.
    pub(crate) fn binding(&self, i: u32) -> Option<CVal> {
        self.bindings.get(i as usize).copied().flatten()
    }

    /// Binds variable `i`, growing the environment as needed.
    pub(crate) fn bind(&mut self, i: u32, val: CVal) {
        if i as usize >= self.bindings.len() {
            self.bindings.resize(i as usize + 1, None);
        }
        self.bindings[i as usize] = Some(val);
        self.trail.push(i);
    }

    pub(crate) fn mark(&self) -> usize {
        self.trail.len()
    }

    pub(crate) fn rollback(&mut self, mark: usize) {
        // Variables only bind while unbound, so undoing is clearing.
        for &i in &self.trail[mark..] {
            self.bindings[i as usize] = None;
        }
        self.trail.truncate(mark);
    }
}

/// Runs `f` with the context's parked [`EvalScratch`], parking it again
/// afterwards so the buffers are reused across runs.
///
/// The scratch lives on the [`Context`] (not the verifier) so verifier
/// objects stay stateless and shared by every context cloned from one
/// bundle. The pool is borrowed only to take and to park, never while `f`
/// runs, so a hook may re-enter evaluation: if the pool is empty — first
/// use, or a run already in flight — a fresh scratch is used.
pub(crate) fn with_ctx_scratch<R>(ctx: &Context, f: impl FnOnce(&mut EvalScratch) -> R) -> R {
    let mut scratch = take_ctx_scratch(ctx);
    let result = f(&mut scratch);
    ctx.put_eval_scratch(scratch);
    result
}

/// Takes the context's parked [`EvalScratch`] (or a fresh one); hand it
/// back with [`Context::put_eval_scratch`].
pub(crate) fn take_ctx_scratch(ctx: &Context) -> Box<EvalScratch> {
    match ctx.take_eval_scratch() {
        Some(parked) => parked.downcast().unwrap_or_default(),
        None => Box::default(),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    /// Lowers `c` alone and checks `val` against it, explaining a
    /// rejection.
    fn ev(ctx: &mut Context, c: &Constraint, val: CVal) -> Result<(), String> {
        let (program, roots) = ConstraintProgram::lower(ctx, &[], std::slice::from_ref(c));
        program.check_explained(ctx, roots[0], val, &mut EvalScratch::new())
    }

    #[test]
    fn exact_type_constraint() {
        let mut ctx = Context::new();
        let f32 = ctx.f32_type();
        let f64 = ctx.f64_type();
        let c = Constraint::ExactType(f32);
        assert!(ev(&mut ctx, &c, CVal::Type(f32)).is_ok());
        assert!(ev(&mut ctx, &c, CVal::Type(f64)).is_err());
    }

    #[test]
    fn anyof_and_not() {
        let mut ctx = Context::new();
        let f32 = ctx.f32_type();
        let f64 = ctx.f64_type();
        let i32 = ctx.i32_type();
        let float_ty = Constraint::AnyOf(vec![
            Constraint::ExactType(f32),
            Constraint::ExactType(f64),
        ]);
        assert!(ev(&mut ctx, &float_ty, CVal::Type(f32)).is_ok());
        assert!(ev(&mut ctx, &float_ty, CVal::Type(i32)).is_err());
        let not_f32 = Constraint::Not(Box::new(Constraint::ExactType(f32)));
        assert!(ev(&mut ctx, &not_f32, CVal::Type(f64)).is_ok());
        assert!(ev(&mut ctx, &not_f32, CVal::Type(f32)).is_err());
    }

    #[test]
    fn nonnull_int_from_paper() {
        // And<int32_t, Not<0 : int32_t>> (paper §4.3).
        let mut ctx = Context::new();
        let kind = IntKind { width: 32, unsigned: false };
        let c = Constraint::And(vec![
            Constraint::Int(kind),
            Constraint::Not(Box::new(Constraint::IntLiteral { value: 0, kind })),
        ]);
        let three = ctx.i32_attr(3);
        let zero = ctx.i32_attr(0);
        assert!(ev(&mut ctx, &c, CVal::Attr(three)).is_ok());
        assert!(ev(&mut ctx, &c, CVal::Attr(zero)).is_err());
    }

    #[test]
    fn parametric_type_constraint_binds_vars() {
        let mut ctx = Context::new();
        let f32 = ctx.f32_type();
        let f32a = ctx.type_attr(f32);
        let complex_f32 = ctx.parametric_type("cmath", "complex", [f32a]).unwrap();
        let dialect = ctx.symbol("cmath");
        let name = ctx.symbol("complex");
        // T bound through !complex<!T>.
        let c = Constraint::ParametricType { dialect, name, params: vec![Constraint::Var(0)] };
        let (program, roots) =
            ConstraintProgram::lower(&mut ctx, &[Constraint::AnyType], &[c, Constraint::Var(0)]);
        let mut scratch = EvalScratch::new();
        scratch.reset(1);
        assert!(program.check(&ctx, roots[0], CVal::Type(complex_f32), &mut scratch));
        assert_eq!(scratch.binding(0), Some(CVal::Type(f32)));
        // A second use must be equal.
        assert!(program.check(&ctx, roots[1], CVal::Type(f32), &mut scratch));
        let f64 = ctx.f64_type();
        assert!(!program.check(&ctx, roots[1], CVal::Type(f64), &mut scratch));
    }

    #[test]
    fn var_binding_rolls_back_in_anyof() {
        let mut ctx = Context::new();
        let f32 = ctx.f32_type();
        let i32 = ctx.i32_type();
        // First alternative binds the var but then fails overall; second
        // alternative succeeds without binding.
        let c = Constraint::AnyOf(vec![
            Constraint::And(vec![Constraint::Var(0), Constraint::ExactType(i32)]),
            Constraint::AnyType,
        ]);
        let (program, roots) = ConstraintProgram::lower(&mut ctx, &[Constraint::AnyType], &[c]);
        let mut scratch = EvalScratch::new();
        scratch.reset(1);
        assert!(program.check(&ctx, roots[0], CVal::Type(f32), &mut scratch));
        assert_eq!(scratch.binding(0), None, "failed alternative must not leak bindings");
    }

    #[test]
    fn array_constraints() {
        let mut ctx = Context::new();
        let one = ctx.i32_attr(1);
        let two = ctx.i32_attr(2);
        let s = ctx.string_attr("x");
        let arr = ctx.array_attr([one, two]);
        let mixed = ctx.array_attr([one, s]);
        let kind = IntKind { width: 32, unsigned: false };
        let all_int = Constraint::ArrayOf(Box::new(Constraint::Int(kind)));
        assert!(ev(&mut ctx, &all_int, CVal::Attr(arr)).is_ok());
        assert!(ev(&mut ctx, &all_int, CVal::Attr(mixed)).is_err());
        let pair = Constraint::ArrayExact(vec![Constraint::Int(kind), Constraint::StringAny]);
        assert!(ev(&mut ctx, &pair, CVal::Attr(mixed)).is_ok());
        assert!(ev(&mut ctx, &pair, CVal::Attr(arr)).is_err());
    }

    #[test]
    fn native_predicate() {
        let mut ctx = Context::new();
        // BoundedInteger from Listing 10: uint32_t and <= 32.
        let c = Constraint::And(vec![
            Constraint::Int(IntKind { width: 32, unsigned: true }),
            Constraint::Native {
                name: "bounded_u32".into(),
                pred: Arc::new(|ctx, val| {
                    let CVal::Attr(attr) = val else { return Err("not an attr".into()) };
                    match attr.as_int(ctx) {
                        Some(v) if v <= 32 => Ok(()),
                        Some(v) => Err(format!("{v} > 32")),
                        None => Err("not an integer".into()),
                    }
                }),
            },
        ]);
        let ui32 = ctx.int_type_with_signedness(32, Signedness::Unsigned);
        let ok = ctx.int_attr(7, ui32);
        let too_big = ctx.int_attr(64, ui32);
        assert!(ev(&mut ctx, &c, CVal::Attr(ok)).is_ok());
        let err = ev(&mut ctx, &c, CVal::Attr(too_big)).unwrap_err();
        assert_eq!(err, "native constraint `bounded_u32` failed: 64 > 32");
    }

    #[test]
    fn concretize_parametric_type() {
        let mut ctx = Context::new();
        let f32 = ctx.f32_type();
        let dialect = ctx.symbol("cmath");
        let name = ctx.symbol("complex");
        let c = Constraint::ParametricType { dialect, name, params: vec![Constraint::Var(0)] };
        let (program, roots) = ConstraintProgram::lower(&mut ctx, &[Constraint::AnyType], &[c]);
        let mut scratch = EvalScratch::new();
        scratch.reset(1);
        scratch.bind(0, CVal::Type(f32));
        let got = program.concretize(&mut ctx, roots[0], &mut scratch).unwrap();
        let CVal::Type(ty) = got else { panic!("expected type") };
        assert_eq!(ty.display(&ctx), "!cmath.complex<f32>");
    }

    #[test]
    fn concretized_and_respects_variable_declarations() {
        // And<!f64, !T> with T unbound and declared !i32: the f64 witness
        // violates T's declaration, so nothing is inferred.
        let mut ctx = Context::new();
        let f64 = ctx.f64_type();
        let i32 = ctx.i32_type();
        let c = Constraint::And(vec![Constraint::ExactType(f64), Constraint::Var(0)]);
        let (program, roots) =
            ConstraintProgram::lower(&mut ctx, &[Constraint::ExactType(i32)], &[c]);
        let mut scratch = EvalScratch::new();
        scratch.reset(1);
        assert_eq!(program.concretize(&mut ctx, roots[0], &mut scratch), None);
        assert_eq!(scratch.binding(0), None, "the witness check binds nothing");
    }

    #[test]
    fn type_classes() {
        let mut ctx = Context::new();
        let i32 = ctx.i32_type();
        let f32 = ctx.f32_type();
        let c = Constraint::Class(TypeClass::AnyInteger);
        assert!(ev(&mut ctx, &c, CVal::Type(i32)).is_ok());
        assert!(ev(&mut ctx, &c, CVal::Type(f32)).is_err());
    }
}
