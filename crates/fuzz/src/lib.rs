//! Deterministic fuzzing for the IRDL stack.
//!
//! The paper's central claim — dialect definitions as *data* — makes the
//! whole stack fuzzable from one seed: op shapes are introspectable
//! ([`catalog`]), so a structured generator ([`genmod`]) emits well-formed
//! modules against any compiled dialect, a spec generator ([`genspec`])
//! emits random-but-valid definitions through the real frontend, a
//! pattern-catalog generator ([`genpat`]) emits random declarative
//! rewrite catalogs, and a mutation engine ([`mutate`]) covers the reject
//! paths. Every input runs
//! through eight differential oracles ([`oracle`]) that cross-check the
//! repo's fast paths against their reference implementations; failing
//! inputs are shrunk by a ddmin reducer ([`mod@reduce`]) and stored with
//! their seed under `fuzz/corpus-regressions/`.
//!
//! Everything is reproducible: the only randomness source is a
//! [`rng::SplitMix64`] stream derived from the run seed, and generation
//! only enumerates dialect data in declaration order (never registry map
//! order), so two runs with the same seed are byte-identical.

pub mod catalog;
pub mod genmod;
pub mod genpat;
pub mod genscale;
pub mod genspec;
pub mod harness;
pub mod mutate;
pub mod oracle;
pub mod reduce;
pub mod regression;
pub mod rng;

pub use catalog::OpCatalog;
pub use genmod::{generate_module, GenConfig};
pub use genpat::{derive_canon_catalog, pat_dialect_spec, random_catalog, synthetic_catalog};
pub use genscale::{generate_scale_module, scale_bundle, ScaleConfig, ScaleShape};
pub use genspec::generate_spec;
pub use harness::{oracle_fails, run_fuzz, run_fuzz_on, FuzzOptions, FuzzReport, FuzzTarget};
pub use mutate::{mutate_structured, mutate_text, MutationPolicy};
pub use oracle::{
    check_matcher, check_translation_validation, oracle_patterns, replay_all, tv_patterns,
    Oracle, OracleFailure, OraclePatterns, OracleScope, OracleSeeds, TvPatterns, ORACLES,
};
pub use reduce::reduce;
pub use regression::{load_case, write_regression, RegressionCase};
pub use rng::SplitMix64;
