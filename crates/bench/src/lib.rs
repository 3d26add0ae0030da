//! The bench binaries' shared code: workload builders here, the
//! measurement harness in [`measure`].

use std::hint::black_box;

use irdl::genir::{instantiate_op, Instantiation};
use irdl_ir::bytecode::{decode_module, encode_module};
use irdl_ir::parse::parse_module;
use irdl_ir::print::op_to_string;
use irdl_ir::{Context, OpRef, OperationState};

pub mod measure;

/// A fresh context with the 28-dialect corpus registered; returns the
/// corpus dialect names alongside.
pub fn corpus_context() -> (Context, Vec<String>) {
    let mut ctx = Context::new();
    let names = irdl_dialects::register_corpus(&mut ctx).expect("corpus compiles");
    (ctx, names)
}

/// A fresh context with the showcase dialects (`cmath`/`arith`/`func`).
pub fn showcase_context() -> Context {
    let mut ctx = Context::new();
    irdl_dialects::showcase::register_showcase(&mut ctx).expect("showcase compiles");
    ctx
}

/// Builds a module of `n` verifiable `cmath.mul` operations.
pub fn mul_chain_module(ctx: &mut Context, n: usize) -> OpRef {
    let f32 = ctx.f32_type();
    let f32a = ctx.type_attr(f32);
    let complex = ctx
        .parametric_type("cmath", "complex", [f32a])
        .expect("cmath registered");
    let module = ctx.create_module();
    let block = ctx.module_block(module);
    let src = ctx.op_name("test", "source");
    let first = ctx.create_op(OperationState::new(src).add_result_types([complex]));
    ctx.append_op(block, first);
    let mut value = first.result(ctx, 0);
    let mul = ctx.op_name("cmath", "mul");
    for _ in 0..n {
        let op = ctx.create_op(
            OperationState::new(mul)
                .add_operands([value, value])
                .add_result_types([complex]),
        );
        ctx.append_op(block, op);
        value = op.result(ctx, 0);
    }
    module
}

/// The textual source of a straight-line module with `n` cmath operations
/// in custom syntax, for parse benchmarks.
pub fn mul_chain_source(n: usize) -> String {
    let mut out = String::from("%v0 = \"test.source\"() : () -> !cmath.complex<f32>\n");
    for i in 0..n {
        out.push_str(&format!("%v{} = cmath.mul %v{i}, %v{i} : f32\n", i + 1));
    }
    out
}

/// One module text per instantiable operation of the 28-dialect corpus,
/// each built from the op's compiled constraints via `genir`, followed by
/// one combined module holding every instance (the "big file" shape).
/// CFG terminators need successor context and are skipped, as the corpus
/// generation test does.
pub fn corpus_texts() -> Vec<String> {
    let bundle = irdl::DialectBundle::compile(
        &irdl_dialects::corpus_sources(),
        &irdl_dialects::corpus_natives(),
    )
    .expect("corpus compiles");
    let mut ctx = bundle.instantiate();
    let mut texts = Vec::new();

    let big_module = ctx.create_module();
    let big_block = ctx.module_block(big_module);

    for op in bundle.ops() {
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        match instantiate_op(&mut ctx, op, block) {
            Instantiation::Built(_) => {
                texts.push(op_to_string(&ctx, module));
                ctx.erase_op(module);
                let again = instantiate_op(&mut ctx, op, big_block);
                assert!(matches!(again, Instantiation::Built(_)));
            }
            Instantiation::Skipped(_) => ctx.erase_op(module),
        }
    }
    texts.push(op_to_string(&ctx, big_module));
    texts
}

/// Module texts, and their `IRBC` encodings, loaded again and again into
/// one long-lived context. Every load is erased at once, so arenas and
/// pools reach a steady state.
pub struct ModuleSet {
    /// The context every pass loads into.
    pub ctx: Context,
    /// The module texts.
    pub texts: Vec<String>,
    /// Each text's module encoded as bytecode.
    pub encoded: Vec<Vec<u8>>,
    /// Operations across all texts, counted on a probe parse.
    pub ops: usize,
}

impl ModuleSet {
    /// Probe-parses every text into `ctx` to count its ops and encode it.
    pub fn new(mut ctx: Context, texts: Vec<String>) -> ModuleSet {
        let mut encoded = Vec::with_capacity(texts.len());
        let mut ops = 0;
        for text in &texts {
            let before = ctx.num_ops();
            let module = parse_module(&mut ctx, text)
                .unwrap_or_else(|e| panic!("workload text parses: {e}\n{text}"));
            ops += ctx.num_ops() - before;
            encoded.push(encode_module(&ctx, module).expect("workload module encodes"));
            ctx.erase_op(module);
        }
        ModuleSet { ctx, texts, encoded, ops }
    }

    /// Total text bytes.
    pub fn text_bytes(&self) -> usize {
        self.texts.iter().map(String::len).sum()
    }

    /// Total bytecode bytes.
    pub fn bytecode_bytes(&self) -> usize {
        self.encoded.iter().map(Vec::len).sum()
    }

    /// Parses and erases every text; returns the module count.
    pub fn parse_pass(&mut self) -> usize {
        for text in &self.texts {
            let module = parse_module(&mut self.ctx, text).expect("parses");
            self.ctx.erase_op(module);
        }
        self.texts.len()
    }

    /// Decodes and erases every encoding; returns the module count.
    pub fn decode_pass(&mut self) -> usize {
        for bytes in &self.encoded {
            let module = decode_module(&mut self.ctx, bytes).expect("decodes");
            self.ctx.erase_op(module);
        }
        self.encoded.len()
    }

    /// Encodes every module of `modules`, live in the set's context (say,
    /// one [`decode_module`] of each encoding); returns the module count.
    pub fn encode_pass(&self, modules: &[OpRef]) -> usize {
        for &module in modules {
            black_box(encode_module(&self.ctx, module).expect("encodes"));
        }
        modules.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irdl_ir::verify::verify_op;

    #[test]
    fn workloads_build_and_verify() {
        let mut ctx = showcase_context();
        let module = mul_chain_module(&mut ctx, 10);
        verify_op(&ctx, module).unwrap();
        let src = mul_chain_source(5);
        let parsed = irdl_ir::parse::parse_module(&mut ctx, &src).unwrap();
        verify_op(&ctx, parsed).unwrap();
    }

    #[test]
    fn corpus_context_builds() {
        let (_ctx, names) = corpus_context();
        assert_eq!(names.len(), 28);
    }

    /// FNV-1a (64-bit) over every item, each followed by a NUL byte.
    fn digest<T: AsRef<[u8]>>(items: &[T]) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for item in items {
            for &byte in item.as_ref().iter().chain(&[0]) {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// The corpus workload bytebench loads: 904 per-op modules plus the
    /// combined module, which parsebench parses. The digest pins the exact
    /// texts; any change to it changes every corpus bench number.
    #[test]
    fn corpus_texts_are_pinned() {
        let texts = corpus_texts();
        assert_eq!(texts.len(), 905);
        assert_eq!(digest(&texts), 0xa624_3c0c_0f49_2efd);
    }

    /// The `IRBC` encodings of the same corpus texts. The digest pins
    /// every encoder output byte: string and pool ids, region lengths and
    /// section framing.
    #[test]
    fn corpus_bytecode_is_pinned() {
        let set = ModuleSet::new(corpus_context().0, corpus_texts());
        assert_eq!(set.encoded.len(), 905);
        assert_eq!(set.bytecode_bytes(), 132_953);
        assert_eq!(digest(&set.encoded), 0x6e45_c174_f7ed_c171);
    }

    /// The `IRDB` artifact of the 28-dialect corpus bundle, which shares
    /// the encoder's string table and constant pool.
    #[test]
    fn corpus_bundle_is_pinned() {
        let sources = irdl_dialects::corpus_sources();
        let bundle = irdl::DialectBundle::compile(&sources, &irdl_dialects::corpus_natives())
            .expect("corpus compiles");
        let bytes = bundle.save().expect("corpus bundle saves");
        assert_eq!(bytes.len(), 54_552);
        assert_eq!(digest(&[bytes]), 0x6972_fb5c_e731_4ec0);
    }

    #[test]
    #[should_panic(expected = "benchmark pass must process every unit")]
    fn measure_rejects_a_wrong_unit_count() {
        measure::measure(|| 2, 3, 3, 0.001);
    }
}
