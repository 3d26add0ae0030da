//! `irdl-interp`: a register-based evaluator for the IRDL SSA IR.
//!
//! The interpreter gives the in-memory IR *executable semantics*: a
//! [`Machine`] walks a module with a [`Value`](irdl_ir::Value)-indexed
//! register file, dispatching each op to an [`OpEvaluator`] registered in
//! an [`EvalRegistry`] — the same name-keyed registration model the
//! verifier uses for native hooks, so compiled
//! [`DialectBundle`](irdl::DialectBundle)s carry semantics as a typed
//! artifact ([`Semantics`]) next to their verifier hooks and pattern
//! catalogs.
//!
//! Three properties make the interpreter usable as a *translation
//! validation* oracle over the rewrite engine:
//!
//! - **Total and structured.** Execution never panics; abnormal outcomes
//!   are [`Trap`]s (division by zero, loop fuel exhausted, missing
//!   semantics in strict mode, malformed ops). Fuel is charged on control
//!   transfers only, so erasing straight-line ops cannot move the trap
//!   point.
//! - **Deterministic uninterpreted inputs.** Ops without registered
//!   semantics behave as uninterpreted functions of their name,
//!   attributes, and operand values, seeded by [`EvalOptions::input_seed`]
//!   — random well-typed inputs that replay identically before and after
//!   a rewrite.
//! - **Canonical observables.** An [`Execution`] records the values
//!   flowing into sink ops plus the trap kind, in a bit-canonical form
//!   ([`EvalValue`]) where divergence is a byte comparison.
//!
//! The registry also carries the constant model (which ops denote
//! constants, how to materialize computed values back as constant ops)
//! that the rewrite crate's constant-folding patterns are built from.

mod machine;
mod registry;
mod trap;
mod value;

pub use machine::{float_kind, int_width, run_module, EvalOptions, Execution, Machine};
pub use registry::{
    bundle_semantics, ConstMaterializer, EvalRegistry, EvalValues, OpEvaluator, Semantics,
};
pub use trap::{Trap, TrapKind};
pub use irdl_ir::types::FloatKind;
pub use value::{canon_float_bits, hash_str, mix, wrap_int, EvalValue};
