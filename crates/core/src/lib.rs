//! IRDL: an IR definition language for SSA compilers.
//!
//! This crate implements the language presented in *"IRDL: An IR Definition
//! Language for SSA Compilers"* (PLDI 2022): a domain-specific language for
//! defining compiler IR dialects — operations, types, attributes, and their
//! invariants — from a high-level declarative description, plus the
//! *IRDL-Rust* extension (the paper's IRDL-C++ analog) for invariants that
//! need a general-purpose language.
//!
//! A specification is compiled into a dynamically registered dialect on an
//! [`irdl_ir::Context`]: the compiler derives
//!
//! 1. **verifiers** from the constraint language (paper Figure 2),
//! 2. **parsers and printers** from declarative `Format` strings, and
//! 3. **registry metadata** consumed by introspection tooling (the
//!    evaluation statistics of the paper's §6).
//!
//! # Quickstart
//!
//! ```
//! use irdl_ir::Context;
//!
//! let spec = r#"
//! Dialect cmath {
//!   Alias !FloatType = !AnyOf<!f32, !f64>
//!   Type complex {
//!     Parameters (elementType: !FloatType)
//!     Summary "A complex number"
//!   }
//!   Operation norm {
//!     ConstraintVar (!T: !FloatType)
//!     Operands (c: !complex<!T>)
//!     Results (res: !T)
//!     Summary "Compute the norm of a complex number"
//!   }
//! }
//! "#;
//!
//! let mut ctx = Context::new();
//! irdl::register_dialects(&mut ctx, spec)?;
//!
//! // The dialect is now live: building a cmath.complex with a non-float
//! // parameter fails verification.
//! let f32 = ctx.f32_type();
//! let ok = ctx.type_attr(f32);
//! assert!(ctx.parametric_type("cmath", "complex", [ok]).is_ok());
//! let i32 = ctx.i32_type();
//! let bad = ctx.type_attr(i32);
//! assert!(ctx.parametric_type("cmath", "complex", [bad]).is_err());
//! # Ok::<(), irdl_ir::Diagnostic>(())
//! ```

pub mod artifact;
pub mod ast;
pub mod builder;
pub mod bundle;
pub mod compile;
pub mod constraint;
pub mod format;
pub mod genir;
pub mod introspect;
pub mod meta;
pub mod native;
pub mod parser;
pub mod printer;
pub mod program;
pub mod resolve;
pub mod variadic;
pub mod verifier;

pub use artifact::{DialectRecipe, OpRecipe, TypeOrAttrRecipe};
pub use ast::SourceFile;
pub use bundle::DialectBundle;
pub use compile::{
    compile_dialect, dialect_compile_count, register_dialects, register_dialects_with,
    register_recipe,
};
pub use constraint::{CVal, Constraint};
pub use native::NativeRegistry;
pub use parser::parse_irdl;
