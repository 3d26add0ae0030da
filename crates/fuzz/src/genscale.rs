//! Deterministic giant-module generation for scale benchmarks.
//!
//! Unlike [`crate::genmod`], which samples random shapes from compiled
//! constraints, this generator is purely positional: the same
//! [`ScaleConfig`] always produces the same module, op for op, with no
//! PRNG involved — so benches and determinism tests can regenerate their
//! input instead of storing multi-megabyte fixtures. irdlbench's
//! `scale-wide` workload parses, verifies and prints a wide one.
//!
//! Two shapes:
//!
//! - **Wide**: one flat top-level block of `scale.src`/`scale.fma` ops,
//!   the pure fan-out case.
//! - **Deep**: a chain of nested `scale.wrap` regions, each holding a
//!   slab of ops, up to [`DEEP_MAX_DEPTH`] levels.

use irdl::DialectBundle;
use irdl_ir::{BlockRef, Context, OperationState, OpRef, Value};

/// The `scale` dialect: a source, a 3-ary arithmetic op (so verification
/// touches operands and dominance), and a region-bearing wrapper with a
/// required terminator (so deep modules exercise region rules and hooks).
pub const SCALE_SPEC: &str = r#"
Dialect scale {
  Summary "Synthetic dialect for giant-module scale benchmarks"
  Operation src {
    Results (r: !f32)
    Summary "Produce a value from nothing"
  }
  Operation fma {
    Operands (a: !f32, b: !f32, c: !f32)
    Results (r: !f32)
    Summary "Fused multiply-add over three prior values"
  }
  Operation yield {
    Successors ()
    Summary "Terminate a scale.wrap region"
  }
  Operation wrap {
    Results (r: !f32)
    Region body { Terminator yield }
    Summary "Wrap a nested computation region"
  }
}
"#;

/// Compiles the `scale` dialect into a sealed bundle.
///
/// # Errors
///
/// Propagates frontend diagnostics (a compile failure here is a bug in
/// [`SCALE_SPEC`]).
pub fn scale_bundle() -> Result<DialectBundle, String> {
    let sources = vec![("scale".to_string(), SCALE_SPEC.to_string())];
    DialectBundle::compile(&sources, &irdl::NativeRegistry::new()).map_err(|d| d.to_string())
}

/// Module shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleShape {
    /// One flat top-level block (wide fan-out).
    Wide,
    /// A chain of nested `scale.wrap` regions, each holding a slab of ops.
    Deep,
}

/// Configuration for one deterministic module.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Minimum total op count (the generator may emit slightly more to
    /// round out region slabs and terminators).
    pub ops: usize,
    /// Wide fan-out or deep nesting.
    pub shape: ScaleShape,
}

impl ScaleConfig {
    /// A valid module of at least `ops` operations.
    pub fn valid(ops: usize, shape: ScaleShape) -> ScaleConfig {
        ScaleConfig { ops, shape }
    }
}

/// Ops per nesting level of a [`ScaleShape::Deep`] module.
const DEEP_SLAB: usize = 512;

/// Depth cap for [`ScaleShape::Deep`]: verification, printing, and
/// parsing all recurse per nesting level, so depth stays bounded and the
/// slab widens instead once a module outgrows `DEEP_MAX_DEPTH * DEEP_SLAB`.
pub const DEEP_MAX_DEPTH: usize = 1024;

/// Builds one deterministic module into `ctx` (whose dialects should come
/// from [`scale_bundle`]) and returns it with its exact total op count,
/// the module op included.
pub fn generate_scale_module(ctx: &mut Context, config: &ScaleConfig) -> (OpRef, usize) {
    let module = ctx.create_module();
    let block = ctx.module_block(module);
    let mut emitter = Emitter { ctx, emitted: 0 };
    match config.shape {
        ScaleShape::Wide => emitter.fill_block(block, config.ops),
        ScaleShape::Deep => {
            let depth = config.ops.div_ceil(DEEP_SLAB).clamp(1, DEEP_MAX_DEPTH);
            let slab = config.ops.div_ceil(depth);
            emitter.fill_deep(block, depth, slab);
        }
    }
    let total = emitter.emitted + 1;
    (module, total)
}

struct Emitter<'c> {
    ctx: &'c mut Context,
    emitted: usize,
}

impl Emitter<'_> {
    /// Appends at least `count` ops to `block`: a rolling mix of
    /// `scale.src` and `scale.fma` over the three most recent values.
    fn fill_block(&mut self, block: BlockRef, count: usize) {
        let f32t = self.ctx.f32_type();
        let src = self.ctx.op_name("scale", "src");
        let fma = self.ctx.op_name("scale", "fma");
        let mut recent: Vec<Value> = Vec::with_capacity(64);
        let mut produced = 0;
        while produced < count {
            let state = if recent.len() < 3 || produced % 7 == 0 {
                OperationState::new(src)
            } else {
                let n = recent.len();
                OperationState::new(fma).add_operands([recent[n - 1], recent[n - 2], recent[n - 3]])
            };
            let op = self.ctx.create_op(state.add_result_types([f32t]));
            self.ctx.append_op(block, op);
            recent.push(op.result(self.ctx, 0));
            self.emitted += 1;
            produced += 1;
            if recent.len() == 64 {
                recent.drain(..61);
            }
        }
    }

    /// `depth` nested `scale.wrap` levels, each holding a `slab`-op block
    /// plus the next level and its `scale.yield` terminator.
    fn fill_deep(&mut self, block: BlockRef, depth: usize, slab: usize) {
        self.fill_block(block, slab);
        if depth == 0 {
            return;
        }
        let (region, entry) = self.ctx.create_region_with_entry([]);
        self.fill_deep(entry, depth - 1, slab);
        let yield_name = self.ctx.op_name("scale", "yield");
        let term = self.ctx.create_op(OperationState::new(yield_name));
        self.ctx.append_op(entry, term);
        self.emitted += 1;
        let f32t = self.ctx.f32_type();
        let wrap_name = self.ctx.op_name("scale", "wrap");
        let wrap = self.ctx.create_op(
            OperationState::new(wrap_name).add_result_types([f32t]).add_regions([region]),
        );
        self.ctx.append_op(block, wrap);
        self.emitted += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irdl_ir::print::op_to_string;
    use irdl_ir::verify::ModuleVerifier;

    #[test]
    fn scale_spec_compiles() {
        scale_bundle().unwrap();
    }

    #[test]
    fn valid_modules_verify_under_hooks() {
        let bundle = scale_bundle().unwrap();
        for shape in [ScaleShape::Wide, ScaleShape::Deep] {
            let mut ctx = bundle.instantiate();
            let (module, total) =
                generate_scale_module(&mut ctx, &ScaleConfig::valid(3000, shape));
            assert!(total >= 3000, "{shape:?}: {total}");
            ModuleVerifier::new().verify(&ctx, module).unwrap_or_else(|errs| {
                panic!("{shape:?} module must verify, got {}", errs[0])
            });
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let bundle = scale_bundle().unwrap();
        let config = ScaleConfig::valid(2000, ScaleShape::Deep);
        let render = || {
            let mut ctx = bundle.instantiate();
            let (module, total) = generate_scale_module(&mut ctx, &config);
            (op_to_string(&ctx, module), total)
        };
        assert_eq!(render(), render());
    }
}
