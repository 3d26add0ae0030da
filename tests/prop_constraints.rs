//! Property-based tests on the constraint algebra and variadic segment
//! resolution, driven by the workspace's own seeded PRNG so they run in
//! every offline `cargo test`.

use std::sync::Arc;

use irdl_repro::fuzz::SplitMix64;
use irdl_repro::ir::Context;
use irdl_repro::irdl::ast::{IntKind, Variadicity};
use irdl_repro::irdl::constraint::{CVal, Constraint};
use irdl_repro::irdl::program::{ConstraintProgram, EvalScratch};
use irdl_repro::irdl::variadic::resolve_segments;

/// Builds a small pool of distinct values to evaluate constraints against.
fn value_pool(ctx: &mut Context) -> Vec<CVal> {
    let f32 = ctx.f32_type();
    let f64 = ctx.f64_type();
    let i32 = ctx.i32_type();
    let int = ctx.i32_attr(7);
    let zero = ctx.i32_attr(0);
    let s = ctx.string_attr("s");
    let arr = ctx.array_attr([int, zero]);
    vec![
        CVal::Type(f32),
        CVal::Type(f64),
        CVal::Type(i32),
        CVal::Attr(int),
        CVal::Attr(zero),
        CVal::Attr(s),
        CVal::Attr(arr),
    ]
}

/// A random variable-free constraint over the pool's value space.
fn random_constraint(ctx: &mut Context, rng: &mut SplitMix64, depth: usize) -> Constraint {
    let kind = IntKind { width: 32, unsigned: false };
    if depth == 0 || rng.chance(1, 2) {
        match rng.below(9) {
            0 => Constraint::Any,
            1 => Constraint::AnyType,
            2 => Constraint::AnyAttr,
            3 => Constraint::ExactType(ctx.f32_type()),
            4 => Constraint::ExactType(ctx.i32_type()),
            5 => Constraint::Int(kind),
            6 => Constraint::IntLiteral { value: 0, kind },
            7 => Constraint::StringAny,
            _ => Constraint::ArrayAny,
        }
    } else {
        match rng.below(3) {
            0 => {
                let n = rng.range(1, 3);
                Constraint::AnyOf((0..n).map(|_| random_constraint(ctx, rng, depth - 1)).collect())
            }
            1 => {
                let n = rng.range(1, 3);
                Constraint::And((0..n).map(|_| random_constraint(ctx, rng, depth - 1)).collect())
            }
            _ => Constraint::Not(Box::new(random_constraint(ctx, rng, depth - 1))),
        }
    }
}

/// Lowers `c` alone and returns its silent verdict on `v`.
fn check(ctx: &mut Context, c: &Constraint, v: CVal) -> bool {
    let (program, roots) = ConstraintProgram::lower(ctx, &[], std::slice::from_ref(c));
    program.check(ctx, roots[0], v, &mut EvalScratch::new())
}

/// De Morgan-ish laws of the combinators on variable-free constraints.
#[test]
fn combinator_semantics() {
    let mut base = SplitMix64::new(0xc0_0001);
    for _ in 0..512 {
        let mut rng = base.fork();
        let mut ctx = Context::new();
        let pool = value_pool(&mut ctx);
        let v = pool[rng.below(pool.len())];
        let c = random_constraint(&mut ctx, &mut rng, 3);

        // Not inverts.
        let not_c = Constraint::Not(Box::new(c.clone()));
        assert_eq!(check(&mut ctx, &not_c, v), !check(&mut ctx, &c, v));
        // Double negation is the identity.
        let not_not_c = Constraint::Not(Box::new(not_c.clone()));
        assert_eq!(check(&mut ctx, &not_not_c, v), check(&mut ctx, &c, v));
        // AnyOf of one and And of one are the constraint itself.
        let one_of = Constraint::AnyOf(vec![c.clone()]);
        let all_of = Constraint::And(vec![c.clone()]);
        assert_eq!(check(&mut ctx, &one_of, v), check(&mut ctx, &c, v));
        assert_eq!(check(&mut ctx, &all_of, v), check(&mut ctx, &c, v));
        // c AnyOf Not(c) is a tautology; c And Not(c) is unsatisfiable.
        let tauto = Constraint::AnyOf(vec![c.clone(), not_c.clone()]);
        let contra = Constraint::And(vec![c.clone(), not_c]);
        assert!(check(&mut ctx, &tauto, v));
        assert!(!check(&mut ctx, &contra, v));
    }
}

/// Segment resolution: sizes always sum to the total and respect each
/// definition's variadicity.
#[test]
fn segments_partition_total() {
    let mut base = SplitMix64::new(0xc0_0002);
    for _ in 0..512 {
        let mut rng = base.fork();
        let defs: Vec<Variadicity> = (0..rng.range(1, 5))
            .map(|_| match rng.below(3) {
                0 => Variadicity::Single,
                1 => Variadicity::Variadic,
                _ => Variadicity::Optional,
            })
            .collect();
        let total = rng.below(12);
        match resolve_segments(total, &defs, None) {
            Ok(sizes) => {
                assert_eq!(sizes.len(), defs.len());
                assert_eq!(sizes.iter().sum::<usize>(), total);
                for (size, def) in sizes.iter().zip(&defs) {
                    match def {
                        Variadicity::Single => assert_eq!(*size, 1),
                        Variadicity::Optional => assert!(*size <= 1),
                        Variadicity::Variadic => {}
                    }
                }
            }
            Err(_) => {
                // Failure is legitimate only when the counts cannot work:
                // fewer values than single defs, more values than the defs
                // can absorb, or an ambiguous multi-variadic layout.
                let singles = defs.iter().filter(|d| matches!(d, Variadicity::Single)).count();
                let optionals =
                    defs.iter().filter(|d| matches!(d, Variadicity::Optional)).count();
                let variadics =
                    defs.iter().filter(|d| matches!(d, Variadicity::Variadic)).count();
                let impossible_low = total < singles;
                let impossible_high = variadics == 0 && total > singles + optionals;
                let ambiguous = variadics + optionals > 1;
                assert!(
                    impossible_low || impossible_high || ambiguous,
                    "rejected a satisfiable layout: {defs:?} with {total}"
                );
            }
        }
    }
}

/// Explicit segment-size attributes are accepted exactly when they
/// partition the total and respect variadicities.
#[test]
fn explicit_segments_checked() {
    let mut base = SplitMix64::new(0xc0_0003);
    for _ in 0..512 {
        let mut rng = base.fork();
        let sizes: Vec<i64> = (0..rng.range(1, 4)).map(|_| rng.below(4) as i64).collect();
        let defs: Vec<Variadicity> = vec![Variadicity::Variadic; sizes.len()];
        let total: i64 = sizes.iter().sum();
        let result = resolve_segments(total as usize, &defs, Some(&sizes));
        assert!(result.is_ok(), "{result:?}");
        let off_by_one = resolve_segments(total as usize + 1, &defs, Some(&sizes));
        assert!(off_by_one.is_err());
    }
}

/// Constraint sampling is sound: every witness `genir::sample` produces
/// for a random constraint satisfies that constraint.
#[test]
fn sample_produces_satisfying_witnesses() {
    use irdl_repro::irdl::genir::sample;

    let mut base = SplitMix64::new(0xc0_0004);
    let mut sampled = 0u32;
    for _ in 0..512 {
        let mut rng = base.fork();
        let mut ctx = Context::new();
        let c = random_constraint(&mut ctx, &mut rng, 3);
        let (program, roots) = ConstraintProgram::lower(&mut ctx, &[], std::slice::from_ref(&c));
        if let Some(v) = sample(&mut ctx, &program, roots[0], &mut EvalScratch::new()) {
            sampled += 1;
            assert!(check(&mut ctx, &c, v), "sample violates its constraint: {c:?}");
        }
    }
    // The sampler must succeed often enough to be a useful generator.
    assert!(sampled > 256, "sampler gave up too often: {sampled}/512");
}

/// A random constraint that may also mention the variables `0..2` and a
/// native predicate accepting integer attributes.
fn random_bound_constraint(ctx: &mut Context, rng: &mut SplitMix64, depth: usize) -> Constraint {
    if depth == 0 || rng.chance(1, 2) {
        return match rng.below(4) {
            0 => Constraint::Var(rng.below(2) as u32),
            1 => Constraint::Native {
                name: "is_int".into(),
                pred: Arc::new(|ctx, v| match v {
                    CVal::Attr(a) if a.as_int(ctx).is_some() => Ok(()),
                    _ => Err(format!("{} is not an integer", v.display(ctx))),
                }),
            },
            _ => random_constraint(ctx, rng, 0),
        };
    }
    let mut parts = |rng: &mut SplitMix64| {
        (0..rng.range(1, 3)).map(|_| random_bound_constraint(ctx, rng, depth - 1)).collect()
    };
    match rng.below(3) {
        0 => Constraint::AnyOf(parts(rng)),
        1 => Constraint::And(parts(rng)),
        _ => Constraint::Not(Box::new(random_bound_constraint(ctx, rng, depth - 1))),
    }
}

/// Explain mode reports a rejection exactly when the silent verdict is
/// `false`, step by step through a sequence of values that share one
/// binding environment — whether the silent pass ran on a cold verdict
/// cache or was served from a warm one.
#[test]
fn explain_fails_exactly_when_silent_rejects() {
    let mut base = SplitMix64::new(0xc0_0005);
    let mut rejections = 0u32;
    for _ in 0..512 {
        let mut rng = base.fork();
        let mut ctx = Context::new();
        let pool = value_pool(&mut ctx);
        let decls =
            [random_constraint(&mut ctx, &mut rng, 2), random_constraint(&mut ctx, &mut rng, 2)];
        let c = random_bound_constraint(&mut ctx, &mut rng, 3);
        let (program, roots) =
            ConstraintProgram::lower(&mut ctx, &decls, std::slice::from_ref(&c));
        let values: Vec<CVal> = (0..3).map(|_| pool[rng.below(pool.len())]).collect();

        let mut scratch = EvalScratch::new();
        let silent = |scratch: &mut EvalScratch| -> Vec<bool> {
            scratch.reset(decls.len());
            values.iter().map(|&v| program.check(&ctx, roots[0], v, scratch)).collect()
        };
        ctx.clear_verdict_cache();
        let cold = silent(&mut scratch);
        let warm = silent(&mut scratch);
        assert_eq!(cold, warm, "{c:?}: the verdict cache changed a verdict");

        scratch.reset(decls.len());
        for (&v, &verdict) in values.iter().zip(&cold) {
            let explained = program.explain(&ctx, roots[0], v, &mut scratch);
            assert_eq!(explained.is_ok(), verdict, "{c:?} on {}: {explained:?}", v.display(&ctx));
            rejections += u32::from(!verdict);
        }
    }
    assert!(rejections > 256, "too few rejections to exercise explain mode: {rejections}");
}
