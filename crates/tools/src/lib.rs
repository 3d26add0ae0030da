//! IR-design tooling built on IRDL's introspectable definitions.
//!
//! The paper's Figure 1 positions IRDL as the foundation of an ecosystem of
//! productivity tooling — "IR Language Server, IR Statistics, IR
//! Refactoring, More IR Tools". This crate provides these pieces:
//!
//! - [`completion`]: name completion and signature help over a registry,
//!   the core queries an LSP server would serve;
//! - [`cli`]: the front end every binary shares — the dialect flags and
//!   loader, the text-or-bytecode input reader and the stdout writer;
//! - `irdl-opt` (binary): an `mlir-opt`-style parse/verify/rewrite driver,
//!   fully runtime-configured;
//! - [`report`] / `irdl-run` (binary): execute modules on the
//!   `irdl-interp` register machine and report observations and traps;
//! - `irdl-bc` (binary): encode, decode, bundle and inspect bytecode;
//! - `irdl-fmt` (binary): a canonical formatter for IRDL specifications;
//! - [`docgen`] / `irdl-doc` (binary): Markdown reference documentation
//!   generated from the registry;
//! - `irdl-fuzz` (binary): the deterministic differential fuzzer.

pub mod cli;
pub mod completion;
pub mod docgen;
pub mod report;
