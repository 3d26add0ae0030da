//! The `cmath-opt` input generator and its f32 model.
//!
//! Each module is one `func.func_op` over the paper's showcase dialects,
//! written as generic-form text directly (not through the IR printer) and
//! built from three kinds of segment in seeded order:
//!
//! - a `conorm` triple `norm(p) * norm(q)`, which Listing 1's pattern
//!   turns into `norm(p * q)`;
//! - an `arith.constant` chain `((c0 op c1) op c2) ...`, which the
//!   interpreter-backed folder collapses step by step;
//! - opaque arithmetic on block arguments, which nothing rewrites.
//!
//! The generator also returns the expected result of rewriting: the op
//! histogram and every folded chain value computed in f32 here. Folding
//! leaves its operand constants in place (there is no dead-code pass), so
//! a chain of `n` ops ends as `2n + 1` constants. The function returns
//! every chain end and every conorm product, so each stays used and its
//! folded value or rewritten form is visible at the return.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use irdl_fuzz_lib::SplitMix64;

/// Complex (`%p`) and f32 (`%x`) block arguments of each function.
const COMPLEX_ARGS: usize = 4;
const FLOAT_ARGS: usize = 4;

/// What rewriting one generated module must produce.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Ops in the input, the implicit `builtin.module` included.
    pub ops: usize,
    /// Op-name histogram after rewriting.
    pub histogram: BTreeMap<String, usize>,
    /// Folded value of each chain, as returned at its position.
    pub chains: Vec<f32>,
    /// Block-argument pair of each conorm triple, returned after the chains.
    pub conorms: Vec<(usize, usize)>,
}

struct Writer {
    body: String,
    next: usize,
    ops: usize,
    histogram: BTreeMap<String, usize>,
}

impl Writer {
    fn value(&mut self) -> String {
        self.next += 1;
        format!("%v{}", self.next - 1)
    }

    fn constant(&mut self, value: f32) -> String {
        let v = self.value();
        let _ = writeln!(
            self.body,
            "  {v} = \"arith.constant\"() {{value = {:?} : f32}} : () -> f32",
            f64::from(value)
        );
        self.ops += 1;
        v
    }

    fn binary(&mut self, op: &str, lhs: &str, rhs: &str) -> String {
        let v = self.value();
        let _ = writeln!(
            self.body,
            "  {v} = \"{op}\"({lhs}, {rhs}) : (f32, f32) -> f32"
        );
        self.ops += 1;
        v
    }

    fn norm(&mut self, arg: usize) -> String {
        let v = self.value();
        let _ = writeln!(
            self.body,
            "  {v} = \"cmath.norm\"(%p{arg}) : (!cmath.complex<f32>) -> f32"
        );
        self.ops += 1;
        v
    }

    fn expect(&mut self, name: &str, count: usize) {
        *self.histogram.entry(name.to_string()).or_default() += count;
    }
}

/// A leaf constant: a multiple of 1/8 in [0.5, 2], exact in f32.
fn leaf(rng: &mut SplitMix64) -> f32 {
    rng.range(4, 17) as f32 / 8.0
}

/// Generates one function of at least `min_ops` ops named `@f{index}`.
pub fn generate(rng: &mut SplitMix64, min_ops: usize, index: usize) -> (String, Model) {
    let mut w = Writer {
        body: String::new(),
        next: 0,
        ops: 0,
        histogram: BTreeMap::new(),
    };
    let mut chains: Vec<(String, f32)> = Vec::new();
    let mut conorms: Vec<(String, (usize, usize))> = Vec::new();
    let mut opaque: Vec<String> = (0..FLOAT_ARGS).map(|i| format!("%x{i}")).collect();
    // builtin.module, func.func_op and func.return_op.
    let frame_ops = 3;
    while w.ops + frame_ops < min_ops {
        match rng.below(3) {
            0 => {
                let (p, q) = (rng.below(COMPLEX_ARGS), rng.below(COMPLEX_ARGS));
                let (np, nq) = (w.norm(p), w.norm(q));
                let r = w.binary("arith.mulf", &np, &nq);
                conorms.push((r, (p, q)));
                w.expect("cmath.mul", 1);
                w.expect("cmath.norm", 1);
            }
            1 => {
                let mut value = leaf(rng);
                let mut acc = w.constant(value);
                let len = rng.range(2, 7);
                for _ in 0..len {
                    let c = leaf(rng);
                    let rhs = w.constant(c);
                    let op = if rng.chance(1, 2) {
                        "arith.mulf"
                    } else {
                        "arith.addf"
                    };
                    value = if op == "arith.mulf" {
                        value * c
                    } else {
                        value + c
                    };
                    acc = w.binary(op, &acc, &rhs);
                }
                chains.push((acc, value));
                w.expect("arith.constant", 2 * len + 1);
            }
            _ => {
                for _ in 0..rng.range(2, 6) {
                    // The left operand is never constant, so nothing folds.
                    let lhs = opaque[rng.below(opaque.len())].clone();
                    let rhs = if rng.chance(1, 3) {
                        w.expect("arith.constant", 1);
                        w.constant(leaf(rng))
                    } else {
                        opaque[rng.below(opaque.len())].clone()
                    };
                    let op = if rng.chance(1, 2) {
                        "arith.mulf"
                    } else {
                        "arith.addf"
                    };
                    let v = w.binary(op, &lhs, &rhs);
                    w.expect(op, 1);
                    opaque.push(v);
                }
            }
        }
    }
    let mut returned: Vec<&str> = chains.iter().map(|(v, _)| v.as_str()).collect();
    returned.extend(conorms.iter().map(|(v, _)| v.as_str()));
    if opaque.len() > FLOAT_ARGS {
        returned.push(opaque.last().expect("opaque values exist"));
    }
    let results = vec!["f32"; returned.len()].join(", ");
    let mut text = String::with_capacity(w.body.len() + 512);
    let args: Vec<String> = (0..COMPLEX_ARGS)
        .map(|i| format!("%p{i}: !cmath.complex<f32>"))
        .chain((0..FLOAT_ARGS).map(|i| format!("%x{i}: f32")))
        .collect();
    let arg_types: Vec<&str> = (0..COMPLEX_ARGS)
        .map(|_| "!cmath.complex<f32>")
        .chain((0..FLOAT_ARGS).map(|_| "f32"))
        .collect();
    let _ = writeln!(text, "\"func.func_op\"() ({{\n^bb0({}):", args.join(", "));
    text.push_str(&w.body);
    let _ = writeln!(
        text,
        "  \"func.return_op\"({}) : ({results}) -> ()",
        returned.join(", ")
    );
    let _ = writeln!(
        text,
        "}}) {{sym_name = \"f{index}\", function_type = ({}) -> ({results})}} : () -> ()",
        arg_types.join(", ")
    );
    w.expect("builtin.module", 1);
    w.expect("func.func_op", 1);
    w.expect("func.return_op", 1);
    let model = Model {
        ops: w.ops + frame_ops,
        histogram: w.histogram,
        chains: chains.into_iter().map(|(_, v)| v).collect(),
        conorms: conorms.into_iter().map(|(_, pq)| pq).collect(),
    };
    (text, model)
}
