//! Pattern rewriting for the IRDL SSA IR.
//!
//! The paper motivates IRDL with a peephole optimization on the `cmath`
//! dialect (Listing 1): `norm(p) * norm(q)` → `norm(p * q)`, and notes that
//! dynamic pattern rewriting plus runtime-registered dialects "provides the
//! components needed to define a simple pattern-based compilation flow"
//! without additional C++ (§3). This crate supplies both halves:
//!
//! - [`pattern`] / [`driver`]: a [`RewritePattern`] trait and a greedy
//!   worklist driver, for patterns written in Rust;
//! - [`dsl`]: a small declarative pattern format, so rewrites — like the
//!   dialects they operate on — can be loaded from text at runtime.
//!
//! # Example
//!
//! ```
//! use irdl_ir::{parse::parse_module, print::op_to_string, Context};
//! use irdl_rewrite::dsl::parse_patterns;
//! use irdl_rewrite::driver::rewrite_greedily;
//!
//! let mut ctx = Context::new();
//! // A toy dialect with a double(x) op and an add op.
//! irdl::register_dialects(
//!     &mut ctx,
//!     "Dialect toy {
//!        Operation double { Operands (x: !i32) Results (r: !i32) }
//!        Operation add { Operands (a: !i32, b: !i32) Results (r: !i32) }
//!      }",
//! )?;
//! let patterns = parse_patterns(
//!     &mut ctx,
//!     "Pattern add_to_double {
//!        Match {
//!          %r = toy.add(%x, %x)
//!        }
//!        Rewrite {
//!          %d = toy.double(%x) : typeof(%x)
//!          Replace %r with %d
//!        }
//!      }",
//! )?;
//! let module = parse_module(
//!     &mut ctx,
//!     r#"
//!     %x = "toy.source"() : () -> i32
//!     %r = "toy.add"(%x, %x) : (i32, i32) -> i32
//!     "#,
//! )?;
//! let stats = rewrite_greedily(&mut ctx, module, &patterns);
//! assert_eq!(stats.rewrites, 1);
//! assert!(op_to_string(&ctx, module).contains("toy.double"));
//! # Ok::<(), irdl_ir::Diagnostic>(())
//! ```

pub mod driver;
pub mod dsl;
pub mod fold;
pub mod matcher;
pub mod pattern;
pub mod pipeline;

pub use driver::{
    rewrite_greedily, rewrite_greedily_matched, rewrite_greedily_with,
    CheckLevel, MatcherMode, RewriteStats, RewriteVerifyError,
};
pub use dsl::{parse_patterns, DeclarativePattern};
pub use fold::{fold_patterns, FoldConstants};
pub use matcher::{matcher_compile_count, MatchProgram, PatternMatcher, Pred};
pub use pattern::{PatternSet, RewritePattern, Rewriter};
pub use pipeline::{
    run_batch, run_batch_inputs, InputRef, ModuleResult, PipelineOptions, PipelineReport,
    WorkerReport,
};
