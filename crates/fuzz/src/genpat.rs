//! Pattern-catalog generators: declarative rewrite catalogs at the scale
//! the shared matcher automaton is built for.
//!
//! Three sources of catalogs:
//!
//! - [`pat_dialect_spec`] + [`synthetic_catalog`]: a synthetic `pat`
//!   dialect of `N` distinguishable unary ops and `N` fuse patterns all
//!   rooted at the same `pat.root` symbol — the worst case for a
//!   per-pattern scan (root indexing does not discriminate at all) and
//!   the best case for the automaton's def-switch. This is the
//!   `matcherbench` workload.
//! - [`random_catalog`]: seeded random DSL catalogs over the same `pat`
//!   dialect, for the matcher differential oracle. Termination under
//!   greedy driving holds by construction: every rewrite either replaces
//!   the root with an already-existing value or materializes only
//!   `pat.fuse` ops, and no pattern matches `pat.fuse`, so the number of
//!   matchable ops strictly decreases with every application.
//! - [`derive_canon_catalog`]: auto-derived canonicalizations over an
//!   arbitrary compiled corpus — for every eligible op, an
//!   operand-forwarding pattern `d.op(.., %x, ..) ⇒ %x`. Eligibility is
//!   conservative: the forwarded operand and the result must be
//!   constrained to the *same type* (a shared constraint variable or the
//!   same exact type), so the rewrite can never produce type-invalid IR.
//!
//! All generated catalogs are DSL text: they flow through the same
//! `parse_patterns` path user catalogs do, and only reference op symbols
//! already interned by their dialect's registration — so catalogs parsed
//! in one bundle instance are valid in every sibling instance.

use std::fmt::Write as _;

use irdl::Constraint;

use crate::catalog::OpCatalog;
use crate::rng::SplitMix64;

/// IRDL source of the synthetic `pat` dialect: `unary_ops` distinguishable
/// unary ops `u0..u{n-1}`, a shared binary `root`, a `fuse` sink no
/// pattern matches, and a `src` source.
pub fn pat_dialect_spec(unary_ops: usize) -> String {
    let mut spec = String::from("Dialect pat {\n");
    spec.push_str("  Operation src { Results (r: !i32) }\n");
    spec.push_str("  Operation root { Operands (a: !i32, b: !i32) Results (r: !i32) }\n");
    spec.push_str("  Operation fuse { Operands (a: !i32, b: !i32) Results (r: !i32) }\n");
    for i in 0..unary_ops {
        let _ = writeln!(spec, "  Operation u{i} {{ Operands (x: !i32) Results (r: !i32) }}");
    }
    spec.push('}');
    spec
}

/// The `matcherbench` catalog: `patterns` fuse patterns, all rooted at
/// `pat.root`, discriminated only by the defining op of the root's first
/// operand. Pattern `k` is `root(u{k}(%x), %y) ⇒ fuse(%x, %y)`.
///
/// Requires `patterns <= unary_ops` (each pattern needs its own feeder).
pub fn synthetic_catalog(patterns: usize) -> String {
    let mut text = String::new();
    for k in 0..patterns {
        let _ = writeln!(
            text,
            "Pattern fuse{k} {{\n  Match {{\n    %a = pat.u{k}(%x)\n    %r = pat.root(%a, %y)\n  }}\n  Rewrite {{\n    %f = pat.fuse(%x, %y) : typeof(%r)\n    Replace %r with %f\n  }}\n}}"
        );
    }
    text
}

/// A seeded random catalog over the `pat` dialect with `unary_ops` unary
/// ops: each pattern matches a small random DAG (root at `pat.root` or a
/// `pat.u*`, operands free, repeated, or fed by a random unary producer)
/// and rewrites to `pat.fuse` of bound values or straight to a bound
/// value. See the module docs for why every such catalog terminates.
pub fn random_catalog(unary_ops: usize, patterns: usize, rng: &mut SplitMix64) -> String {
    let mut text = String::new();
    for k in 0..patterns {
        let benefit = rng.range(1, 4);
        let _ = writeln!(text, "Pattern rand{k} benefit {benefit} {{");
        text.push_str("  Match {\n");
        // Optional producer chain feeding the root's first operand,
        // emitted innermost-first: %p0 = u(%x); %p1 = u(%p0); ...
        let producers = rng.below(3); // 0, 1, or 2 deep
        let mut first_operand = "%x".to_string();
        for depth in 0..producers {
            let u = rng.below(unary_ops);
            let _ = writeln!(text, "    %p{depth} = pat.u{u}({first_operand})");
            first_operand = format!("%p{depth}");
        }
        let rooted_at_root = rng.chance(1, 2);
        if rooted_at_root {
            // Second operand: fresh var, or repeat of the first (forcing a
            // ValueEq predicate).
            let second =
                if producers == 0 && rng.chance(1, 3) { first_operand.as_str() } else { "%y" };
            let _ = writeln!(text, "    %r = pat.root({first_operand}, {second})");
        } else {
            let u = rng.below(unary_ops);
            let _ = writeln!(text, "    %r = pat.u{u}({first_operand})");
        }
        text.push_str("  }\n  Rewrite {\n");
        // Replacement: a fuse of two bound values, or a bound value
        // directly. Every bound value is an i32, so both are type-sound.
        let bound = if producers > 0 { "%x" } else { first_operand.as_str() };
        if rng.chance(2, 3) {
            let _ = writeln!(text, "    %f = pat.fuse({bound}, {bound}) : typeof(%r)");
            text.push_str("    Replace %r with %f\n");
        } else {
            let _ = writeln!(text, "    Replace %r with {bound}");
        }
        text.push_str("  }\n}\n");
    }
    text
}

/// Returns whether `a` and `b` pin the same runtime type: the same
/// constraint variable (one binding per verification, so both sides see
/// one type) or the same exact type. Anything looser (e.g. two `!AnyFloat`
/// occurrences) may admit *different* types on each side, so forwarding
/// would not be type-preserving.
fn same_pinned_type(a: &Constraint, b: &Constraint) -> bool {
    match (a, b) {
        (Constraint::Var(x), Constraint::Var(y)) => x == y,
        (Constraint::ExactType(x), Constraint::ExactType(y)) => x == y,
        _ => false,
    }
}

/// Auto-derives an operand-forwarding canonicalization catalog from a
/// compiled op corpus: for every op with one result, no regions,
/// successors, required attributes, or native verifier, and some operand
/// whose constraint pins the same type as the result, emit
/// `Pattern canon_<d>_<op> { Match { %r = d.op(..) } Rewrite { Replace %r with %that_operand } }`.
///
/// Returns the DSL text and the number of patterns derived.
pub fn derive_canon_catalog(ctx: &irdl_ir::Context, catalog: &OpCatalog) -> (String, usize) {
    let mut text = String::new();
    let mut derived = 0usize;
    for op in &catalog.ops {
        if op.results.len() != 1
            || op.operands.is_empty()
            || !op.regions.is_empty()
            || op.successors.is_some()
            || !op.attributes.is_empty()
            || op.native_verifier.is_some()
        {
            continue;
        }
        let all_single = op
            .operands
            .iter()
            .chain(op.results.iter())
            .all(|arg| matches!(arg.variadicity, irdl::ast::Variadicity::Single));
        if !all_single {
            continue;
        }
        let result = &op.results[0].constraint;
        let Some(forward) =
            op.operands.iter().position(|o| same_pinned_type(&o.constraint, result))
        else {
            continue;
        };
        let dialect = ctx.symbol_str(op.op_name().dialect);
        let opname = &op.name;
        let operands: Vec<String> = (0..op.operands.len()).map(|i| format!("%x{i}")).collect();
        let _ = writeln!(
            text,
            "Pattern canon_{dialect}_{opname} {{\n  Match {{\n    %r = {dialect}.{opname}({})\n  }}\n  Rewrite {{\n    Replace %r with %x{forward}\n  }}\n}}",
            operands.join(", "),
        );
        derived += 1;
    }
    (text, derived)
}

#[cfg(test)]
mod tests {
    use super::*;

    use irdl_rewrite::dsl::parse_patterns;

    use crate::harness::FuzzTarget;

    fn pat_target(unary_ops: usize) -> FuzzTarget {
        FuzzTarget::from_sources(
            &[("pat".to_string(), pat_dialect_spec(unary_ops))],
            &irdl::NativeRegistry::new(),
            irdl_interp::EvalRegistry::new(),
        )
        .expect("pat dialect compiles")
    }

    #[test]
    fn synthetic_catalog_parses_and_every_pattern_fires() {
        let target = pat_target(4);
        let mut ctx = target.bundle.instantiate();
        let patterns = parse_patterns(&mut ctx, &synthetic_catalog(4)).expect("catalog parses");
        assert_eq!(patterns.patterns().len(), 4);

        // One root per feeder: every pattern in the catalog must fire once.
        let mut module = String::new();
        let _ = writeln!(module, "%s = \"pat.src\"() : () -> i32");
        for k in 0..4 {
            let _ = writeln!(module, "%u{k} = \"pat.u{k}\"(%s) : (i32) -> i32");
            let _ = writeln!(module, "%r{k} = \"pat.root\"(%u{k}, %s) : (i32, i32) -> i32");
        }
        let root = irdl_ir::parse::parse_module(&mut ctx, &module).expect("module parses");
        let stats = irdl_rewrite::rewrite_greedily(&mut ctx, root, &patterns);
        assert_eq!(stats.rewrites, 4);
        let out = irdl_ir::print::op_to_string(&ctx, root);
        assert!(out.contains("pat.fuse") && !out.contains("pat.root"), "{out}");
    }

    #[test]
    fn random_catalogs_parse_and_drive_for_many_seeds() {
        let target = pat_target(8);
        for seed in 0..32u64 {
            let mut rng = SplitMix64::new(seed);
            let catalog = random_catalog(8, 1 + rng.below(8), &mut rng);
            let mut ctx = target.bundle.instantiate();
            let patterns = parse_patterns(&mut ctx, &catalog)
                .unwrap_or_else(|e| panic!("seed {seed}: catalog does not parse: {e}\n{catalog}"));
            assert!(!patterns.patterns().is_empty());
            // Drive a small module to a fixpoint: termination by
            // construction means this returns.
            let module = "%s = \"pat.src\"() : () -> i32\n\
                          %a = \"pat.u0\"(%s) : (i32) -> i32\n\
                          %b = \"pat.u1\"(%a) : (i32) -> i32\n\
                          %r = \"pat.root\"(%b, %s) : (i32, i32) -> i32\n";
            let root = irdl_ir::parse::parse_module(&mut ctx, module).expect("module parses");
            irdl_rewrite::rewrite_greedily(&mut ctx, root, &patterns);
        }
    }

    #[test]
    fn corpus_canon_catalog_parses_and_only_forwards_pinned_types() {
        let target = FuzzTarget::corpus().expect("corpus compiles");
        let ctx = target.bundle.instantiate();
        let (catalog, derived) = derive_canon_catalog(&ctx, &target.catalog);
        assert!(derived > 0, "corpus should yield at least one canon pattern");
        assert_eq!(catalog.matches("Pattern canon_").count(), derived);
        let mut ctx = target.bundle.instantiate();
        let patterns = parse_patterns(&mut ctx, &catalog).expect("canon catalog parses");
        assert_eq!(patterns.patterns().len(), derived);
    }
}
