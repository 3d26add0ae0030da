//! Concurrency smoke test: the full 28-dialect evaluation corpus through
//! the batch pipeline at `--jobs 4`, checked byte-for-byte against the
//! sequential run.
//!
//! This is the integration-level counterpart to the unit tests in
//! `crates/rewrite/src/pipeline.rs`: real corpus dialects (with native
//! hooks and parametric types) instead of a toy spec, the shared
//! artifacts pinned `Send + Sync` across every crate in the workspace, and
//! a module nested as deep as genscale's deepest on worker threads.

use irdl::genir::{instantiate_op, Instantiation};
use irdl::DialectBundle;
use irdl_ir::print::op_to_string;
use irdl_rewrite::pipeline::{run_batch, PipelineOptions};
use irdl_rewrite::PatternSet;

/// One module text per instantiable corpus operation (one instance each —
/// this test is about ordering and identity, not throughput).
fn corpus_module_texts(bundle: &DialectBundle) -> Vec<String> {
    let mut ctx = bundle.instantiate();
    let mut texts = Vec::new();
    for op in bundle.ops() {
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        if let Instantiation::Built(_) = instantiate_op(&mut ctx, op, block) {
            texts.push(op_to_string(&ctx, module));
        }
        ctx.erase_op(module);
    }
    texts
}

#[test]
fn corpus_at_four_jobs_matches_sequential() {
    let natives = irdl_dialects::corpus_natives();
    let sources = irdl_dialects::corpus_sources();
    let bundle = DialectBundle::compile(&sources, &natives).expect("corpus compiles");
    assert_eq!(bundle.names().len(), 28, "evaluation corpus holds 28 dialects");

    let candidates = corpus_module_texts(&bundle);
    let patterns = PatternSet::new();

    // A few generated ops carry nested regions whose synthesized
    // terminators do not satisfy the recursive verifier (a genir
    // limitation); probe sequentially and keep the clean ones.
    let probe = run_batch(
        &bundle,
        &patterns,
        &candidates,
        &PipelineOptions { jobs: 1, ..Default::default() },
    );
    let inputs: Vec<String> = candidates
        .into_iter()
        .zip(&probe.results)
        .filter_map(|(text, result)| result.is_ok().then_some(text))
        .collect();
    assert!(
        inputs.len() >= 100,
        "corpus should yield a real batch of modules, got {}",
        inputs.len()
    );

    let compiles_before = irdl::dialect_compile_count();
    let sequential = run_batch(
        &bundle,
        &patterns,
        &inputs,
        &PipelineOptions { jobs: 1, ..Default::default() },
    );
    let parallel = run_batch(
        &bundle,
        &patterns,
        &inputs,
        &PipelineOptions { jobs: 4, ..Default::default() },
    );
    assert_eq!(
        irdl::dialect_compile_count(),
        compiles_before,
        "running batches must never recompile a dialect"
    );

    assert_eq!(sequential.results.len(), inputs.len());
    assert_eq!(parallel.results.len(), inputs.len());
    assert_eq!(sequential.workers.len(), 1);
    assert_eq!(parallel.workers.len(), 4);
    assert_eq!(
        parallel.workers.iter().map(|w| w.modules).sum::<usize>(),
        inputs.len(),
        "every module is processed exactly once"
    );
    assert_eq!(parallel.errors(), 0);

    for (i, (s, p)) in sequential.results.iter().zip(&parallel.results).enumerate() {
        let s = s.as_ref().expect("sequential module failed");
        let p = p.as_ref().expect("parallel module failed");
        assert_eq!(s.output, p.output, "parallel output diverged for input {i}");
    }
}

/// A `scale.wrap` chain `depth` levels deep, each region closed by its
/// `scale.yield` terminator.
fn nested_wrap_module(depth: usize) -> String {
    let mut text = String::new();
    for level in 0..depth {
        text.push_str(&format!("%w{level} = \"scale.wrap\"() ({{\n"));
    }
    for _ in 0..depth {
        text.push_str("\"scale.yield\"() : () -> ()\n}) : () -> f32\n");
    }
    text
}

/// Batch workers run on their own threads, so their stack, not the
/// caller's, bounds how deep a module they can parse, verify and print.
#[test]
fn deepest_scale_module_survives_on_workers() {
    let bundle = irdl_fuzz_lib::scale_bundle().expect("scale dialect compiles");
    let module = nested_wrap_module(irdl_fuzz_lib::genscale::DEEP_MAX_DEPTH);
    let inputs = [module.clone(), module];
    let opts = PipelineOptions { jobs: 2, ..Default::default() };
    let report = run_batch(&bundle, &PatternSet::new(), &inputs, &opts);
    assert_eq!(report.workers.len(), 2, "both inputs run on worker threads");
    let first = report.results[0].as_ref().expect("first copy processes");
    let second = report.results[1].as_ref().expect("second copy processes");
    assert_eq!(first.output, second.output);
}

#[test]
fn shared_pipeline_artifacts_are_send_sync() {
    fn _assert_send_sync<T: Send + Sync>() {}
    _assert_send_sync::<DialectBundle>();
    _assert_send_sync::<PatternSet>();
    _assert_send_sync::<irdl::verifier::CompiledOp>();
    _assert_send_sync::<irdl::verifier::CompiledParams>();
    _assert_send_sync::<irdl::program::ConstraintProgram>();
    _assert_send_sync::<irdl::format::FormatSpec>();
    _assert_send_sync::<irdl::NativeRegistry>();
}
