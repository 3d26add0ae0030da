//! The register machine: straight-line evaluation, structured regions,
//! CFG branching, loop fuel, and deterministic uninterpreted inputs.
//!
//! Execution is a walk over the in-memory IR with a [`Value`]-indexed
//! register file. Ops with registered semantics run their
//! [`OpEvaluator`](crate::OpEvaluator); every other op is treated as a
//! deterministic *uninterpreted function*: its results are derived by
//! hashing the op's name, attributes, and operand values together with the
//! run's input seed. Zero-operand unregistered ops (`fuzz.src` sources)
//! thereby become the module's free inputs — different seeds give
//! different well-typed input assignments, and the derivation depends only
//! on data that semantics-preserving rewrites keep intact, so one input
//! assignment can be replayed before and after a rewrite.
//!
//! Termination is bounded by *fuel charged on control transfers only* —
//! CFG branches and structured-loop iterations — never on straight-line
//! ops. Dead-code elimination therefore cannot move the trap point: a
//! rewrite that erases pure ops leaves the jump count, and hence the
//! fuel-exhaustion behavior, unchanged.

use std::collections::HashMap;

use irdl_ir::types::{FloatKind, TypeData};
use irdl_ir::{BlockRef, Context, InlineVec, OpRef, RegionRef, Type, Value};

use crate::registry::{EvalRegistry, EvalValues};
use crate::trap::{Trap, TrapKind};
use crate::value::{hash_qualified, hash_str, mix, EvalValue};

/// Options for one execution.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Control-transfer budget: each CFG branch and each structured-loop
    /// iteration costs one unit. Straight-line ops are free (a module
    /// without back edges always runs to completion).
    pub fuel: u64,
    /// Seed for input derivation: results of unregistered zero-operand
    /// ops, unbound block arguments, and opaque tokens all derive from it.
    pub input_seed: u64,
    /// Trap with [`TrapKind::MissingSemantics`] on unregistered ops
    /// instead of applying the uninterpreted-function model.
    pub strict: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions { fuel: 4096, input_seed: 0, strict: false }
    }
}

/// The observable outcome of an execution.
///
/// An op is *observed* when it has at least one operand and none of its
/// results are used: such sinks are where values leave the dataflow graph,
/// and they are exactly the ops semantics-preserving rewrites leave in
/// place (folding only touches ops whose results are used; DCE only
/// erases unused zero-operand sources).
#[derive(Debug, Clone, PartialEq)]
pub struct Execution {
    /// `(qualified op name, operand values)` for every sink executed, in
    /// execution order.
    pub observed: Vec<(String, Vec<EvalValue>)>,
    /// The trap that aborted execution, if any.
    pub trap: Option<Trap>,
    /// Ops evaluated (reporting only; never part of a comparison).
    pub steps: u64,
}

impl Execution {
    /// A canonical rendering for differential comparison: the observation
    /// stream plus the trap *kind*. Trap details (op, message) are
    /// excluded — they may legitimately mention rewritten neighbors.
    pub fn digest(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, operands) in &self.observed {
            let rendered: Vec<String> = operands.iter().map(ToString::to_string).collect();
            let _ = writeln!(out, "observe {name}({})", rendered.join(", "));
        }
        match &self.trap {
            Some(trap) => {
                let _ = writeln!(out, "trap {}", trap.kind.keyword());
            }
            None => {
                let _ = writeln!(out, "return");
            }
        }
        out
    }
}

/// The float format of `ty`, if it is a builtin float type.
pub fn float_kind(ctx: &Context, ty: Type) -> Option<FloatKind> {
    match ctx.type_data(ty) {
        TypeData::Float(kind) => Some(*kind),
        _ => None,
    }
}

/// The bit width of `ty`, if it is a builtin integer or index type
/// (`index` is modeled at 64 bits).
pub fn int_width(ctx: &Context, ty: Type) -> Option<u32> {
    match ctx.type_data(ty) {
        TypeData::Integer { width, .. } => Some(*width),
        TypeData::Index => Some(64),
        _ => None,
    }
}

/// Registers held inline before the register file moves to a map: enough
/// for a single-op evaluation (constant folding) of up to four operands.
const INLINE_REGS: usize = 4;

/// The register file: a short inline list of bindings, moved into a map
/// by the first write that does not fit. Folding one op therefore never
/// allocates, while a module run pays one map like before.
#[derive(Default)]
struct Registers {
    /// The bindings while `map` is empty.
    inline: InlineVec<(Value, EvalValue), INLINE_REGS>,
    map: HashMap<Value, EvalValue>,
}

impl Registers {
    fn get(&self, v: Value) -> Option<EvalValue> {
        if self.map.is_empty() {
            self.inline.iter().find(|(key, _)| *key == v).map(|&(_, val)| val)
        } else {
            self.map.get(&v).copied()
        }
    }

    fn set(&mut self, v: Value, val: EvalValue) {
        if self.map.is_empty() {
            if let Some(slot) = self.inline.iter_mut().find(|(key, _)| *key == v) {
                slot.1 = val;
                return;
            }
            if self.inline.len() < INLINE_REGS {
                self.inline.push((v, val));
                return;
            }
            self.map.extend(self.inline.iter().copied());
            self.inline.clear();
        }
        self.map.insert(v, val);
    }
}

/// The register machine. Dialect evaluators receive `&mut Machine` and use
/// it to read operands, run nested regions, charge loop fuel, and derive
/// deterministic inputs.
pub struct Machine<'a> {
    ctx: &'a Context,
    registry: &'a EvalRegistry,
    opts: EvalOptions,
    regs: Registers,
    fuel: u64,
    steps: u64,
    observed: Vec<(String, Vec<EvalValue>)>,
    uninterpreted_hits: u64,
}

impl<'a> Machine<'a> {
    /// A fresh machine over `ctx` with the given semantics.
    pub fn new(ctx: &'a Context, registry: &'a EvalRegistry, opts: EvalOptions) -> Machine<'a> {
        Machine {
            ctx,
            registry,
            opts,
            regs: Registers::default(),
            fuel: opts.fuel,
            steps: 0,
            observed: Vec::new(),
            uninterpreted_hits: 0,
        }
    }

    /// The context being executed.
    pub fn ctx(&self) -> &'a Context {
        self.ctx
    }

    /// The value of `v`. A value that was never defined (use before def in
    /// unverified IR) resolves to a deterministic input derived from its
    /// type, so even malformed modules execute reproducibly.
    pub fn get(&mut self, v: Value) -> EvalValue {
        if let Some(val) = self.regs.get(v) {
            return val;
        }
        let ty = v.ty(self.ctx);
        let val = self.input_value(ty, 0x0bad_def5);
        self.regs.set(v, val);
        val
    }

    /// Writes `v` into the register file.
    pub fn set(&mut self, v: Value, val: EvalValue) {
        self.regs.set(v, val);
    }

    /// The current values of `op`'s operands, in order.
    pub fn operand_values(&mut self, op: OpRef) -> EvalValues {
        let ctx = self.ctx;
        op.operands(ctx).iter().map(|&v| self.get(v)).collect()
    }

    /// Charges one unit of control-transfer fuel on behalf of `op`.
    ///
    /// # Errors
    ///
    /// Traps with [`TrapKind::FuelExhausted`] when the budget is spent.
    pub fn charge_fuel(&mut self, op: OpRef) -> Result<(), Trap> {
        if self.fuel == 0 {
            return Err(Trap::new(
                TrapKind::FuelExhausted,
                op.name(self.ctx).display(self.ctx),
                format!("control-transfer budget of {} exhausted", self.opts.fuel),
            ));
        }
        self.fuel -= 1;
        Ok(())
    }

    /// A deterministic, well-typed input value for `ty`, salted by `salt`.
    ///
    /// Index values are biased small (including negatives and zero) so
    /// counted loops get interesting trip counts; floats are quarter-step
    /// values exact in every format; `i1` naturally covers both branches.
    pub fn input_value(&mut self, ty: Type, salt: u64) -> EvalValue {
        let fp = hash_str(&ty.display(self.ctx));
        let h = mix(mix(self.opts.input_seed, fp), salt);
        value_for_type(self.ctx, ty, h)
    }

    /// The uninterpreted-function model for `op`: executes its regions (for
    /// their observations), then derives one deterministic value per result
    /// from the op's name, attributes, and operand values.
    ///
    /// # Errors
    ///
    /// Propagates traps from region execution.
    pub fn uninterpreted(&mut self, op: OpRef) -> Result<EvalValues, Trap> {
        self.uninterpreted_hits += 1;
        if self.opts.strict {
            return Err(Trap::new(
                TrapKind::MissingSemantics,
                op.name(self.ctx).display(self.ctx),
                "no evaluator registered for this operation",
            ));
        }
        let ctx = self.ctx;
        for &region in op.regions(ctx) {
            self.run_region_to_terminator(region, &[])?;
        }
        let h = self.op_hash(op);
        Ok(op
            .result_types(ctx)
            .iter()
            .enumerate()
            .map(|(i, &ty)| value_for_type(ctx, ty, mix(h, i as u64 + 1)))
            .collect())
    }

    /// A hash of `op`'s identity under the current input assignment: name,
    /// attributes (by printed form), and operand values. Stable across
    /// print/parse round-trips and across semantics-preserving rewrites of
    /// the surrounding module.
    fn op_hash(&mut self, op: OpRef) -> u64 {
        let ctx = self.ctx;
        let name = op.name(ctx);
        let name_fp = hash_qualified(ctx.symbol_str(name.dialect), ctx.symbol_str(name.name));
        let mut h = mix(self.opts.input_seed, name_fp);
        for &(key, attr) in op.attributes(ctx) {
            let key_fp = hash_str(ctx.symbol_str(key));
            let val_fp = hash_str(&attr.display(ctx));
            h = mix(h, mix(key_fp, val_fp));
        }
        for &operand in op.operands(ctx) {
            h = mix(h, self.get(operand).fingerprint());
        }
        h
    }

    /// Evaluates one op: dispatches to its registered evaluator or the
    /// uninterpreted model, writes its results, and records the
    /// observation if the op is a sink.
    ///
    /// # Errors
    ///
    /// Propagates evaluator traps.
    pub fn eval_op(&mut self, op: OpRef) -> Result<(), Trap> {
        self.steps += 1;
        // Observe before evaluating: the observation captures the operand
        // values flowing *into* the sink.
        let num_operands = op.num_operands(self.ctx);
        let is_sink = num_operands > 0
            && (0..op.num_results(self.ctx)).all(|i| op.result(self.ctx, i).is_unused(self.ctx));
        if is_sink {
            let values = self.operand_values(op).to_vec();
            self.observed.push((op.name(self.ctx).display(self.ctx), values));
        }

        let registry = self.registry;
        let values = match registry.evaluator_for(self.ctx, op) {
            Some(evaluator) => evaluator.eval(self, op)?,
            None => self.uninterpreted(op)?,
        };
        let num_results = op.num_results(self.ctx);
        for i in 0..num_results {
            let result = op.result(self.ctx, i);
            let val = match values.get(i) {
                Some(val) => *val,
                // Evaluator returned fewer values than the op has results
                // (e.g. a yield-count mismatch the verifier permits): pad
                // deterministically from the op's identity hash.
                None => {
                    let ty = op.result_types(self.ctx)[i];
                    let h = self.op_hash(op);
                    value_for_type(self.ctx, ty, mix(h, 0x5eed_0000 + i as u64))
                }
            };
            self.set(result, val);
        }
        Ok(())
    }

    /// Runs `region` until a block falls off its end: binds the entry
    /// block's arguments from `args` (padding with derived inputs),
    /// evaluates every op, follows the first successor of branching
    /// terminators (each branch charges fuel), and returns the final
    /// block's last evaluated op — the region's terminator, whose operand
    /// values the caller can read back from the register file.
    ///
    /// # Errors
    ///
    /// Propagates traps; a diverging CFG traps on fuel.
    pub fn run_region_to_terminator(
        &mut self,
        region: RegionRef,
        args: &[EvalValue],
    ) -> Result<Option<OpRef>, Trap> {
        let Some(entry) = region.entry_block(self.ctx) else { return Ok(None) };
        self.bind_block_args(region, entry, args);
        let ctx = self.ctx;
        let mut block = entry;
        loop {
            let Some((&last, body)) = block.ops(ctx).split_last() else { return Ok(None) };
            for &op in body {
                self.eval_op(op)?;
            }
            if let Some(&target) = last.successors(self.ctx).first() {
                self.charge_fuel(last)?;
                self.bind_block_args(region, target, &[]);
                block = target;
                continue;
            }
            self.eval_op(last)?;
            return Ok(Some(last));
        }
    }

    /// Binds `block`'s arguments: from `args` where provided, derived
    /// inputs (salted by the block's position in its region) otherwise.
    fn bind_block_args(&mut self, region: RegionRef, block: BlockRef, args: &[EvalValue]) {
        let block_index =
            region.blocks(self.ctx).iter().position(|&b| b == block).unwrap_or(0) as u64;
        let num_args = block.num_args(self.ctx);
        for i in 0..num_args {
            let arg = block.arg(self.ctx, i);
            let val = match args.get(i) {
                Some(val) => *val,
                None => {
                    let ty = arg.ty(self.ctx);
                    self.input_value(ty, mix(0xb10c, mix(block_index, i as u64)))
                }
            };
            self.set(arg, val);
        }
    }

    /// How many times the uninterpreted-function model has been consulted.
    /// Constant folding uses this to reject evaluations that leaned on
    /// seed-dependent derived values: only fully interpreted computations
    /// are safe to replace by compile-time constants.
    pub fn uninterpreted_hits(&self) -> u64 {
        self.uninterpreted_hits
    }

    /// Finishes the run, consuming the machine.
    fn finish(self, trap: Option<Trap>) -> Execution {
        Execution { observed: self.observed, trap, steps: self.steps }
    }
}

/// A deterministic well-typed value for `ty` derived from hash `h`.
fn value_for_type(ctx: &Context, ty: Type, h: u64) -> EvalValue {
    match ctx.type_data(ty) {
        TypeData::Integer { width, .. } => EvalValue::int(h as i128, *width),
        // Small index values (-3..=9): loops over derived bounds get
        // realistic trip counts, including zero-trip and backwards cases.
        TypeData::Index => EvalValue::int((h % 13) as i128 - 3, 64),
        // Quarter-step floats in [-4, +11.75]: exact in every format, so
        // cross-precision arithmetic stays bit-deterministic.
        TypeData::Float(kind) => EvalValue::float((h % 64) as f64 / 4.0 - 4.0, *kind),
        TypeData::Parametric { name, params, .. } if ctx.symbol_str(*name) == "complex" => {
            let kind = params
                .first()
                .and_then(|p| p.as_type(ctx))
                .and_then(|elem| float_kind(ctx, elem))
                .unwrap_or(FloatKind::F64);
            let re = (h % 64) as f64 / 4.0 - 4.0;
            let im = (mix(h, 0x1111) % 64) as f64 / 4.0 - 4.0;
            EvalValue::complex(re, im, kind)
        }
        _ => EvalValue::Opaque(h | 1),
    }
}

/// Executes `root` (typically a module) under `registry` and returns the
/// observable outcome. Never panics: abnormal outcomes are traps.
pub fn run_module(
    ctx: &Context,
    registry: &EvalRegistry,
    root: OpRef,
    opts: EvalOptions,
) -> Execution {
    let mut machine = Machine::new(ctx, registry, opts);
    let trap = machine.eval_op(root).err();
    machine.finish(trap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use irdl_ir::OperationState;

    fn sink(ctx: &mut Context, block: BlockRef, operands: Vec<Value>) {
        let name = ctx.op_name("t", "sink");
        let op = ctx.create_op(OperationState::new(name).add_operands(operands));
        ctx.append_op(block, op);
    }

    #[test]
    fn uninterpreted_inputs_are_deterministic_and_typed() {
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let i32 = ctx.i32_type();
        let src = ctx.op_name("t", "src");
        let a = ctx.create_op(OperationState::new(src).add_result_types([i32]));
        ctx.append_op(block, a);
        let av = a.result(&ctx, 0);
        sink(&mut ctx, block, vec![av]);

        let registry = EvalRegistry::new();
        let run1 = run_module(&ctx, &registry, module, EvalOptions::default());
        let run2 = run_module(&ctx, &registry, module, EvalOptions::default());
        assert_eq!(run1.digest(), run2.digest());
        assert!(run1.trap.is_none());
        assert_eq!(run1.observed.len(), 1);
        assert!(matches!(run1.observed[0].1[0], EvalValue::Int { width: 32, .. }));

        let other = run_module(
            &ctx,
            &registry,
            module,
            EvalOptions { input_seed: 7, ..EvalOptions::default() },
        );
        assert_ne!(run1.observed, other.observed, "seed must vary the inputs");
    }

    #[test]
    fn diverging_cfg_traps_on_fuel_not_forever() {
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let top = ctx.module_block(module);
        let region = ctx.create_region();
        let block = ctx.create_block([]);
        ctx.append_block(region, block);
        let br = ctx.op_name("t", "br");
        let jump = ctx.create_op(OperationState::new(br).add_successors([block]));
        ctx.append_op(block, jump);
        let holder = ctx.op_name("t", "loop");
        let op = ctx.create_op(OperationState::new(holder).add_regions([region]));
        ctx.append_op(top, op);

        let registry = EvalRegistry::new();
        let run = run_module(
            &ctx,
            &registry,
            module,
            EvalOptions { fuel: 16, ..EvalOptions::default() },
        );
        assert!(run.digest().contains("trap fuel-exhausted"));
        let trap = run.trap.expect("self-loop must exhaust fuel");
        assert_eq!(trap.kind, TrapKind::FuelExhausted);
    }

    #[test]
    fn strict_mode_traps_on_missing_semantics() {
        let mut ctx = Context::new();
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let i32 = ctx.i32_type();
        let src = ctx.op_name("t", "src");
        let a = ctx.create_op(OperationState::new(src).add_result_types([i32]));
        ctx.append_op(block, a);

        let registry = EvalRegistry::new();
        let run = run_module(
            &ctx,
            &registry,
            module,
            EvalOptions { strict: true, ..EvalOptions::default() },
        );
        assert_eq!(run.trap.expect("must trap").kind, TrapKind::MissingSemantics);
    }
}
