//! Exact deltas of the process-wide `dialect_compile_count`.
//!
//! The counter is global, so any test compiling a dialect on a parallel
//! thread would move it between a reading and its check. This binary holds
//! a single test, which makes its readings exact.

use irdl::{dialect_compile_count, DialectBundle, NativeRegistry};

const SPEC: &str = r#"
Dialect cmath {
  Alias !FloatType = !AnyOf<!f32, !f64>
  Type complex {
    Parameters (elementType: !FloatType)
  }
  Operation mul {
    ConstraintVar (!T: !FloatType)
    Operands (lhs: !complex<!T>, rhs: !complex<!T>)
    Results (res: !complex<!T>)
  }
}
"#;

#[test]
fn bundles_compile_once_and_never_again() {
    let natives = NativeRegistry::with_std();
    let sources = vec![("cmath.irdl".to_string(), SPEC.to_string())];
    let before = dialect_compile_count();
    let bundle = DialectBundle::compile(&sources, &natives).expect("spec compiles");
    let compiled = dialect_compile_count();
    assert_eq!(compiled - before, 1, "one dialect compiles exactly once");

    for _ in 0..8 {
        let ctx = bundle.instantiate();
        assert!(ctx.symbol_lookup("cmath").is_some());
    }
    // Loading registers from recipes: no frontend compilation happens.
    let bytes = bundle.save().expect("bundle saves");
    let loaded = DialectBundle::load(&bytes, &natives).expect("bundle loads");
    assert_eq!(loaded.names(), ["cmath"]);
    loaded.instantiate();
    assert_eq!(
        dialect_compile_count(),
        compiled,
        "instantiating or loading a bundle must never recompile a dialect"
    );
}
