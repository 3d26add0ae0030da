//! Correctness checks on the reference outputs, run untimed on every
//! input. Timed passes are then held to byte equality with these outputs.

use std::collections::BTreeMap;

use irdl::DialectBundle;
use irdl_ir::print::op_to_string;
use irdl_ir::verify::ModuleVerifier;
use irdl_ir::{Context, OpRef, Value};

use crate::cmath::Model;
use crate::flow::Output;
use crate::inputs::{Expect, Input, InputSet, Payload};

/// Checks every reference output against its input's known answer.
/// Returns, per input, `None` when it passes and the first failed check
/// otherwise.
pub fn check_all(
    set: &InputSet,
    bundle: &DialectBundle,
    outputs: &[Output],
) -> Vec<Option<String>> {
    let mut ctx = bundle.instantiate();
    set.inputs
        .iter()
        .zip(outputs)
        .map(|(input, out)| check_one(&mut ctx, input, out).err())
        .collect()
}

fn read(ctx: &mut Context, payload: &Payload) -> Result<OpRef, String> {
    match payload {
        Payload::Text(text) => irdl_ir::parse::parse_module(ctx, text).map_err(|d| d.render(text)),
        Payload::Bytecode(bytes) => {
            irdl_ir::bytecode::decode_module(ctx, bytes).map_err(|d| d.to_string())
        }
    }
}

/// Reads `payload`, runs `body` on the module, and erases it again.
fn with_module<T>(
    ctx: &mut Context,
    payload: &Payload,
    body: impl FnOnce(&Context, OpRef) -> Result<T, String>,
) -> Result<T, String> {
    let module = read(ctx, payload)?;
    let result = body(ctx, module);
    ctx.erase_op(module);
    result
}

fn check_one(ctx: &mut Context, input: &Input, out: &Output) -> Result<(), String> {
    let ops = with_module(ctx, &input.payload, |ctx, m| {
        Ok(irdl_ir::walk::collect_ops(ctx, m).len())
    })
    .map_err(|e| format!("input does not read back: {e}"))?;
    if ops != input.ops {
        return Err(format!(
            "input reads as {ops} ops, the generator made {}",
            input.ops
        ));
    }
    if let Expect::Reject { moved_op } = &input.expect {
        return check_rejection(out, moved_op);
    }
    if !out.accepted {
        return Err(format!("valid input rejected: {}", out.text));
    }
    let payload = if out.bytes.is_empty() {
        Payload::Text(out.text.clone())
    } else {
        Payload::Bytecode(out.bytes.clone())
    };
    with_module(ctx, &payload, |ctx, module| {
        ModuleVerifier::new()
            .verify(ctx, module)
            .map_err(|errs| format!("output does not re-verify: {}", errs[0]))?;
        let text = op_to_string(ctx, module);
        match &payload {
            Payload::Text(printed) if &text != printed => {
                return Err("output does not re-print byte-identically".to_string())
            }
            Payload::Bytecode(bytes) => {
                let again = irdl_ir::bytecode::encode_module(ctx, module)
                    .map_err(|d| format!("output does not re-encode: {d}"))?;
                if &again != bytes {
                    return Err("output does not re-encode byte-identically".to_string());
                }
            }
            Payload::Text(_) => {}
        }
        match &input.expect {
            Expect::Accept { text: expected } if &text != expected => {
                Err("output module does not print as the generated module".to_string())
            }
            Expect::Rewrite(model) => check_model(ctx, module, model),
            _ => Ok(()),
        }
    })
}

/// A seeded defect must be rejected by dominance diagnostics alone, each
/// raised in the op that was moved.
fn check_rejection(out: &Output, moved_op: &str) -> Result<(), String> {
    if out.accepted {
        return Err(format!("dominance defect in `{moved_op}` was accepted"));
    }
    let in_moved = format!("in operation `{moved_op}`");
    let all_dominance = out.text.lines().all(|line| {
        line.contains("before its definition dominates the use") && line.contains(&in_moved)
    });
    if out.text.is_empty() || !all_dominance {
        return Err(format!(
            "expected dominance diagnostics {in_moved}, got: {}",
            out.text
        ));
    }
    Ok(())
}

fn def_op(value: Value) -> Option<OpRef> {
    match value {
        Value::OpResult { op, .. } => Some(op),
        Value::BlockArg { .. } => None,
    }
}

fn def_name(ctx: &Context, value: Value) -> String {
    def_op(value).map_or_else(
        || "<block argument>".to_string(),
        |op| op.name(ctx).display(ctx),
    )
}

/// The rewritten function against the benchmark's own model: histogram,
/// folded chain values, and the shape each conorm triple became.
fn check_model(ctx: &Context, module: OpRef, model: &Model) -> Result<(), String> {
    let mut histogram = BTreeMap::new();
    for op in irdl_ir::walk::collect_ops(ctx, module) {
        *histogram.entry(op.name(ctx).display(ctx)).or_insert(0) += 1;
    }
    if histogram != model.histogram {
        return Err(format!(
            "op histogram {histogram:?}, model {:?}",
            model.histogram
        ));
    }
    let func = ctx.module_block(module).ops(ctx)[0];
    let entry = func
        .region(ctx, 0)
        .entry_block(ctx)
        .ok_or("function has no body")?;
    let ret = entry.terminator(ctx).ok_or("function has no terminator")?;
    let returned = ret.operands(ctx);
    for (i, &expected) in model.chains.iter().enumerate() {
        let value = returned[i];
        let folded = def_op(value)
            .filter(|op| op.name(ctx).display(ctx) == "arith.constant")
            .and_then(|op| op.attr(ctx, "value"))
            .and_then(|attr| attr.as_float(ctx));
        if folded.map(f64::to_bits) != Some(f64::from(expected).to_bits()) {
            return Err(format!(
                "chain {i} returns {} = {folded:?}, model {expected}",
                def_name(ctx, value)
            ));
        }
    }
    for (j, &(p, q)) in model.conorms.iter().enumerate() {
        let value = returned[model.chains.len() + j];
        let norm = def_op(value).filter(|op| op.name(ctx).display(ctx) == "cmath.norm");
        let mul = norm
            .and_then(|n| def_op(n.operand(ctx, 0)))
            .filter(|op| op.name(ctx).display(ctx) == "cmath.mul");
        let args = [entry.arg(ctx, p), entry.arg(ctx, q)];
        if mul.map(|m| m.operands(ctx)) != Some(&args[..]) {
            return Err(format!(
                "conorm {j} was not rewritten to norm(mul(%p{p}, %p{q}))"
            ));
        }
    }
    Ok(())
}
