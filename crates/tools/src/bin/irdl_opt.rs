//! `irdl-opt`: an `mlir-opt`-style driver, fully runtime-configured.
//!
//! Dialects, rewrite patterns, and the IR all come from files (or stdin):
//!
//! ```text
//! irdl-opt --irdl cmath.irdl --patterns conorm.pat input.ir
//! irdl-opt --irdl cmath.irdl --verify --generic input.ir
//! echo '...ir...' | irdl-opt --irdl cmath.irdl
//! ```
//!
//! Options:
//! - `--irdl <file>`     register dialects from an IRDL file (repeatable)
//! - `--patterns <file>` apply declarative patterns from a file (repeatable)
//! - `--showcase`        preregister the cmath/arith/func showcase dialects
//! - `--corpus`          preregister the 28-dialect evaluation corpus
//! - `--verify`          verify after parsing (and after rewriting)
//! - `--verify-each=L`   verify every intermediate rewrite state at level
//!   `L`: `incr` (journal-driven incremental, the default when the flag
//!   is given bare), `full` (whole-module after every rewrite — the slow
//!   differential oracle), or `off`
//! - `--matcher=M`       pattern dispatch mode: `auto` (the compiled
//!   shared matcher automaton, the default) or `scan` (the per-pattern
//!   scan — the slow differential oracle)
//! - `--fold`            add the constant-folding catalog (over the
//!   showcase/corpus evaluation semantics) to the pattern set
//! - `--interp`          after rewriting, execute the module on the
//!   `irdl-interp` register machine and print its observations instead
//!   of the IR (single input; `--seed` picks the input seed)
//! - `--seed <n>`        input seed for `--interp` (default 0)
//! - `--generic`         print in the generic form only
//! - `--emit=F`          output format: `text` (the default) or
//!   `bytecode` (the `IRBC` binary module format, single input only)
//! - `--jobs <n>`        process inputs on `n` worker threads
//! - `--timings`         report per-stage wall-clock times
//!   (parse/verify/rewrite/print) on stderr, per input
//! - `<file>...`         the IR inputs (defaults to stdin)
//!
//! Inputs are sniffed: a file (or stdin) starting with the `IRBC` magic is
//! decoded as module bytecode, anything else is parsed as text. Text and
//! bytecode inputs can be mixed freely in one batch.
//!
//! With several input files (or `--jobs > 1`, which batches a lone file or
//! stdin too), dialects and patterns are compiled once into a shared
//! bundle and the inputs are fanned out across the workers; outputs are
//! printed in input order, separated by the `// -----` split marker.

use std::sync::Arc;

use irdl::DialectBundle;
use irdl_ir::bytecode::encode_module;
use irdl_ir::print::Printer;
use irdl_ir::verify::ModuleVerifier;
use irdl_rewrite::pipeline::{
    run_batch_inputs, run_module, LiveModule, PipelineOptions, StageNanos,
};
use irdl_rewrite::{parse_patterns, CheckLevel, FoldConstants, MatcherMode, PatternSet};
use irdl_tools::cli::{self, DialectArgs, Dialects};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Emit {
    Text,
    Bytecode,
}

struct Options {
    dialects: DialectArgs,
    pattern_files: Vec<String>,
    inputs: Vec<String>,
    verify: bool,
    check: CheckLevel,
    matcher: MatcherMode,
    generic: bool,
    emit: Emit,
    jobs: usize,
    timings: bool,
    fold: bool,
    interp: bool,
    seed: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        dialects: DialectArgs::default(),
        pattern_files: Vec::new(),
        inputs: Vec::new(),
        verify: false,
        check: CheckLevel::Off,
        matcher: MatcherMode::Auto,
        generic: false,
        emit: Emit::Text,
        jobs: 1,
        timings: false,
        fold: false,
        interp: false,
        seed: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if opts.dialects.parse_flag(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--patterns" => {
                let file = args.next().ok_or("--patterns needs a file argument")?;
                opts.pattern_files.push(file);
            }
            "--jobs" | "-j" => {
                let n = args.next().ok_or("--jobs needs a number argument")?;
                opts.jobs = n
                    .parse::<usize>()
                    .map_err(|_| format!("invalid --jobs value `{n}`"))?
                    .max(1);
            }
            "--timings" => opts.timings = true,
            "--fold" => opts.fold = true,
            "--interp" => opts.interp = true,
            "--seed" => {
                let n = args.next().ok_or("--seed needs a number argument")?;
                opts.seed =
                    n.parse::<u64>().map_err(|_| format!("invalid --seed value `{n}`"))?;
            }
            "--verify" => opts.verify = true,
            "--verify-each" => opts.check = CheckLevel::Incremental,
            other if other.starts_with("--verify-each=") => {
                opts.check = match &other["--verify-each=".len()..] {
                    "full" => CheckLevel::Full,
                    "incr" | "incremental" => CheckLevel::Incremental,
                    "off" => CheckLevel::Off,
                    bad => {
                        return Err(format!(
                            "invalid --verify-each level `{bad}` (expected full, incr, or off)"
                        ))
                    }
                };
            }
            other if other.starts_with("--matcher=") => {
                opts.matcher = match &other["--matcher=".len()..] {
                    "auto" => MatcherMode::Auto,
                    "scan" => MatcherMode::Scan,
                    bad => {
                        return Err(format!(
                            "invalid --matcher mode `{bad}` (expected auto or scan)"
                        ))
                    }
                };
            }
            other if other.starts_with("--emit=") => {
                opts.emit = match &other["--emit=".len()..] {
                    "text" => Emit::Text,
                    "bytecode" | "bc" => Emit::Bytecode,
                    bad => {
                        return Err(format!(
                            "invalid --emit format `{bad}` (expected text or bytecode)"
                        ))
                    }
                };
            }
            "--generic" => opts.generic = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: irdl-opt [--irdl FILE]... [--patterns FILE]... \
                     [--showcase] [--corpus] [--verify] \
                     [--verify-each={{full,incr,off}}] [--matcher={{auto,scan}}] \
                     [--fold] [--interp] [--seed N] \
                     [--generic] [--emit={{text,bytecode}}] [--jobs N] \
                     [--timings] [IR-FILE]..."
                );
                std::process::exit(0);
            }
            other if !other.starts_with('-') => {
                opts.inputs.push(other.to_string());
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn run(opts: Options) -> Result<(), String> {
    let Dialects { mut ctx, semantics, .. } = opts.dialects.load()?;
    let semantics = Arc::new(semantics);

    let mut patterns = PatternSet::new();
    for file in &opts.pattern_files {
        let source = cli::read_text(Some(file))?;
        let set = parse_patterns(&mut ctx, &source)
            .map_err(|d| format!("{file}:\n{}", d.render(&source)))?;
        for pattern in set.patterns() {
            patterns.add(pattern.clone());
        }
    }

    if opts.fold {
        // Fold over whichever evaluation semantics are registered (with
        // none, it folds nothing and is still a valid drive).
        patterns.add(Arc::new(FoldConstants::new(semantics.clone())));
    }

    let pipeline_opts = PipelineOptions {
        jobs: opts.jobs,
        verify: opts.verify,
        check: opts.check,
        generic: opts.generic,
        matcher: opts.matcher,
    };

    // The named files, or stdin.
    let paths: Vec<Option<&str>> = if opts.inputs.is_empty() {
        vec![None]
    } else {
        opts.inputs.iter().map(|file| Some(file.as_str())).collect()
    };
    let names: Vec<&str> = paths.iter().map(|path| path.unwrap_or(cli::STDIN)).collect();

    // Batch mode: several inputs, or an explicit worker count. Dialects
    // and patterns were compiled once above; seal them into a shared
    // bundle and fan the inputs out.
    if paths.len() > 1 || opts.jobs > 1 {
        if opts.emit == Emit::Bytecode {
            return Err("--emit=bytecode supports a single input (got a batch)".to_string());
        }
        if opts.interp {
            return Err("--interp supports a single input (got a batch)".to_string());
        }
        let inputs =
            paths.iter().map(|&path| cli::read_input(path)).collect::<Result<Vec<_>, _>>()?;
        let refs: Vec<_> = inputs.iter().map(cli::Input::as_ref).collect();
        let bundle = DialectBundle::capture(ctx, Vec::new());
        let report = run_batch_inputs(&bundle, &patterns, &refs, &pipeline_opts);
        if opts.timings {
            for (name, result) in names.iter().zip(&report.results) {
                if let Ok(module) = result {
                    eprintln!("timings: {name}: {}", format_timings(&module.timings));
                }
            }
        }
        let total_rewrites: usize = report
            .results
            .iter()
            .filter_map(|r| r.as_ref().ok().map(|m| m.rewrites))
            .sum();
        if !patterns.is_empty() {
            eprintln!("applied {total_rewrites} rewrite(s)");
        }
        for (name, result) in names.iter().zip(&report.results) {
            match result {
                Ok(module) => cli::write_stdout(format!("// ----- {name}\n{}\n", module.output)),
                Err(message) => eprintln!("error: {name}:\n{message}"),
            }
        }
        if report.errors() > 0 {
            return Err(format!("{} input(s) failed", report.errors()));
        }
        return Ok(());
    }

    let input = cli::read_input(paths[0])?;
    let LiveModule { module, rewrites, mut timings } = run_module(
        &mut ctx,
        &mut ModuleVerifier::new(),
        &patterns,
        input.as_ref(),
        &pipeline_opts,
    )?;
    if !patterns.is_empty() {
        eprintln!("applied {rewrites} rewrite(s)");
    }

    if opts.interp {
        let eval_opts =
            irdl_interp::EvalOptions { input_seed: opts.seed, ..Default::default() };
        let exec = irdl_interp::run_module(&ctx, &semantics, module, eval_opts);
        cli::write_stdout(irdl_tools::report::render_execution(&exec));
        if exec.trap.is_some() {
            std::process::exit(1);
        }
        return Ok(());
    }

    let start = std::time::Instant::now();
    match opts.emit {
        Emit::Text => {
            let mut out = String::new();
            let mut printer = Printer::new(&mut out);
            printer.set_generic(opts.generic);
            printer.print_op(&ctx, module);
            drop(printer);
            timings.print = start.elapsed().as_nanos() as u64;
            out.push('\n');
            cli::write_stdout(out);
        }
        Emit::Bytecode => {
            let bytes = encode_module(&ctx, module).map_err(|d| d.to_string())?;
            timings.print = start.elapsed().as_nanos() as u64;
            cli::write_stdout(bytes);
        }
    }
    if opts.timings {
        eprintln!("timings: {}: {}", names[0], format_timings(&timings));
    }
    Ok(())
}

/// Renders one module's per-stage timings in milliseconds.
fn format_timings(timings: &StageNanos) -> String {
    let ms = |nanos: u64| nanos as f64 / 1.0e6;
    format!(
        "parse {:.3} ms, verify {:.3} ms, rewrite {:.3} ms, print {:.3} ms",
        ms(timings.parse),
        ms(timings.verify),
        ms(timings.rewrite),
        ms(timings.print)
    )
}

fn main() {
    let opts = parse_args().unwrap_or_else(|message| cli::fail(2, &message));
    if let Err(message) = cli::on_worker_stack(|| run(opts)) {
        cli::fail(1, &message);
    }
}
