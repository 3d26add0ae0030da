//! Seeded workload inputs and their known answers.
//!
//! Everything here runs before any timing starts. The program under test
//! later receives only the input payloads; the expectations stay with the
//! benchmark's checks.

use std::sync::Arc;

use irdl::{DialectBundle, NativeRegistry};
use irdl_fuzz_lib::{generate_module, FuzzTarget, GenConfig, ScaleConfig, ScaleShape, SplitMix64};
use irdl_ir::print::{op_to_string, op_to_string_generic};
use irdl_ir::{Context, OpRef, OperationState};

use crate::cmath::{self, Model};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CorpusText,
    CorpusBytecode,
    ScaleWide,
    CmathOpt,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CorpusText,
        Workload::CorpusBytecode,
        Workload::ScaleWide,
        Workload::CmathOpt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusText => "corpus-text",
            Workload::CorpusBytecode => "corpus-bytecode",
            Workload::ScaleWide => "scale-wide",
            Workload::CmathOpt => "cmath-opt",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the full benchmark, or a smoke run of about a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Quick,
}

/// Corpus modules per set, and the op budget of each module's top block.
const CORPUS_MODULES: usize = 2000;
const CORPUS_TOP_OPS: usize = 24;
/// Every `DEFECT_EVERY`-th corpus module carries a dominance defect.
const DEFECT_EVERY: usize = 16;
/// `scale-wide` op count; the seed moves it by up to `SCALE_JITTER`.
const SCALE_OPS: usize = 100_000;
const SCALE_JITTER: usize = 1_000;
/// `cmath-opt` functions per set and ops per function.
const CMATH_MODULES: usize = 1000;
const CMATH_OPS: usize = 200;

/// What the flow receives for one input: text or `IRBC` bytecode. Output
/// takes the same form, as `irdl-opt --emit` would be set for it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Payload {
    Text(String),
    Bytecode(Vec<u8>),
}

/// The known answer for one input.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Accepted, and the output module prints as `text`.
    Accept { text: String },
    /// Rejected by the verifier with dominance diagnostics, each naming
    /// the op that was moved away from its operand's definition.
    Reject { moved_op: String },
    /// Accepted, and rewriting matches the f32 model.
    Rewrite(Model),
}

pub struct Input {
    pub payload: Payload,
    /// Ops in the input as generated, the module op included.
    pub ops: usize,
    pub expect: Expect,
}

/// How set-up gets its dialects.
pub enum Dialects {
    /// Compile IRDL sources with these native hooks.
    Irdl(Vec<(String, String)>, Arc<NativeRegistry>),
    /// Load a saved `IRDB` bundle with these native hooks.
    Irdb(Vec<u8>, Arc<NativeRegistry>),
}

pub struct InputSet {
    pub workload: Workload,
    pub dialects: Dialects,
    /// Pattern DSL source set-up parses; `None` when no patterns run.
    pub patterns: Option<&'static str>,
    pub inputs: Vec<Input>,
}

impl InputSet {
    pub fn ops(&self) -> usize {
        self.inputs.iter().map(|i| i.ops).sum()
    }
}

/// Generates the inputs of `workload` from `seed`.
pub fn generate(workload: Workload, seed: u64, size: Size) -> InputSet {
    let quick = size == Size::Quick;
    match workload {
        Workload::CorpusText | Workload::CorpusBytecode => {
            let count = if quick { 96 } else { CORPUS_MODULES };
            corpus(workload, seed, count)
        }
        Workload::ScaleWide => {
            let ops = if quick { SCALE_OPS / 25 } else { SCALE_OPS };
            scale_wide(seed, ops)
        }
        Workload::CmathOpt => {
            let count = if quick { 24 } else { CMATH_MODULES };
            cmath_opt(seed, count)
        }
    }
}

fn corpus(workload: Workload, seed: u64, count: usize) -> InputSet {
    let target = FuzzTarget::corpus().expect("the corpus compiles");
    let mut ctx = target.bundle.instantiate();
    let config = GenConfig {
        max_top_ops: CORPUS_TOP_OPS,
        ..GenConfig::default()
    };
    let mut base = SplitMix64::new(seed);
    let natives = Arc::new(irdl_dialects::corpus_natives());
    let sources = irdl_dialects::corpus_sources();
    let mut inputs = Vec::with_capacity(count);
    for index in 0..count {
        let mut rng = base.fork();
        let module = generate_module(&mut ctx, &target.catalog, &config, &mut rng);
        let moved_op = (index % DEFECT_EVERY == DEFECT_EVERY - 1)
            .then(|| seed_dominance_defect(&mut ctx, module, &mut rng));
        let ops = irdl_ir::walk::collect_ops(&ctx, module).len();
        let text = op_to_string(&ctx, module);
        ctx.erase_op(module);
        let expect = match moved_op {
            Some(moved_op) => Expect::Reject { moved_op },
            None => Expect::Accept { text: text.clone() },
        };
        inputs.push(Input {
            payload: Payload::Text(text),
            ops,
            expect,
        });
    }
    let dialects = match workload {
        Workload::CorpusBytecode => {
            let bundle = DialectBundle::compile(&sources, &natives).expect("the corpus compiles");
            let mut ctx = bundle.instantiate();
            for input in &mut inputs {
                let Payload::Text(text) = &input.payload else {
                    unreachable!("corpus is text")
                };
                let module = irdl_ir::parse::parse_module(&mut ctx, text)
                    .expect("generated corpus text parses");
                let bytes = irdl_ir::bytecode::encode_module(&ctx, module)
                    .expect("generated corpus module encodes");
                ctx.erase_op(module);
                input.payload = Payload::Bytecode(bytes);
            }
            Dialects::Irdb(bundle.save().expect("a compiled bundle saves"), natives)
        }
        _ => Dialects::Irdl(sources, natives),
    };
    InputSet {
        workload,
        dialects,
        patterns: None,
        inputs,
    }
}

/// Appends a `fuzz.cfg` op whose entry block branches to both `^bb1` and
/// `^bb2`, defines a value in `^bb1`, and then moves that value's user
/// from `^bb1` into `^bb2`, which `^bb1` does not dominate. Unlike a
/// use-before-def in one block, this survives the text parser (values
/// are scoped per region), so the verifier has to find it. Returns the
/// moved op's name.
fn seed_dominance_defect(ctx: &mut Context, module: OpRef, rng: &mut SplitMix64) -> String {
    const USERS: [&str; 4] = ["use", "mix", "sink", "pass"];
    let f32t = ctx.f32_type();
    let region = ctx.create_region();
    let blocks: Vec<_> = (0..3).map(|_| ctx.create_block([])).collect();
    for &b in &blocks {
        ctx.append_block(region, b);
    }
    let br = ctx.op_name("fuzz", "br");
    let src = ctx.op_name("fuzz", "src");
    let user_name = USERS[rng.below(USERS.len())];
    let user = ctx.op_name("fuzz", user_name);
    let entry_br = ctx.create_op(OperationState::new(br).add_successors([blocks[1], blocks[2]]));
    ctx.append_op(blocks[0], entry_br);
    let def = ctx.create_op(OperationState::new(src).add_result_types([f32t]));
    ctx.append_op(blocks[1], def);
    let value = def.result(ctx, 0);
    let use_op = ctx.create_op(OperationState::new(user).add_operands([value]));
    ctx.append_op(blocks[1], use_op);
    let br1 = ctx.create_op(OperationState::new(br).add_successors([blocks[2]]));
    ctx.append_op(blocks[1], br1);
    let br2 = ctx.create_op(OperationState::new(br).add_successors([blocks[2]]));
    ctx.append_op(blocks[2], br2);
    let holder = ctx.op_name("fuzz", "cfg");
    let cfg = ctx.create_op(OperationState::new(holder).add_regions([region]));
    ctx.append_op(ctx.module_block(module), cfg);
    ctx.detach_op(use_op);
    ctx.insert_op_before(br2, use_op);
    format!("fuzz.{user_name}")
}

fn scale_wide(seed: u64, ops: usize) -> InputSet {
    let spec = irdl_fuzz_lib::genscale::SCALE_SPEC;
    let sources = vec![("scale".to_string(), spec.to_string())];
    let natives = Arc::new(NativeRegistry::new());
    let bundle = DialectBundle::compile(&sources, &natives).expect("the scale dialect compiles");
    let mut ctx = bundle.instantiate();
    let jitter = ops / (SCALE_OPS / SCALE_JITTER);
    let ops = ops - jitter + SplitMix64::new(seed).below(2 * jitter + 1);
    let (module, total) =
        irdl_fuzz_lib::generate_scale_module(&mut ctx, &ScaleConfig::valid(ops, ScaleShape::Wide));
    let text = op_to_string_generic(&ctx, module);
    let input = Input {
        payload: Payload::Text(text.clone()),
        ops: total,
        expect: Expect::Accept { text },
    };
    InputSet {
        workload: Workload::ScaleWide,
        dialects: Dialects::Irdl(sources, natives),
        patterns: None,
        inputs: vec![input],
    }
}

fn cmath_opt(seed: u64, count: usize) -> InputSet {
    let mut base = SplitMix64::new(seed);
    let inputs = (0..count)
        .map(|index| {
            let (text, model) = cmath::generate(&mut base.fork(), CMATH_OPS, index);
            Input {
                payload: Payload::Text(text),
                ops: model.ops,
                expect: Expect::Rewrite(model),
            }
        })
        .collect();
    let spec = irdl_dialects::showcase::SHOWCASE_SPEC;
    InputSet {
        workload: Workload::CmathOpt,
        dialects: Dialects::Irdl(
            vec![("showcase".to_string(), spec.to_string())],
            Arc::new(NativeRegistry::new()),
        ),
        patterns: Some(irdl_dialects::showcase::CONORM_PATTERN),
        inputs,
    }
}
