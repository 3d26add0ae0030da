//! `irdl-fuzz`: the deterministic fuzzing driver.
//!
//! ```text
//! irdl-fuzz run --seed 0xC0FFEE --iters 500
//! irdl-fuzz run --time-budget 60s --out fuzz/corpus-regressions
//! irdl-fuzz replay fuzz/corpus-regressions/case.mlir
//! irdl-fuzz reduce fuzz/corpus-regressions/case.mlir
//! ```
//!
//! Commands:
//! - `run`     fuzz the 28-dialect corpus; on the first oracle divergence,
//!   minimize the input with the ddmin reducer, write the reproducer (with
//!   its seed) under `--out`, and exit 1.
//! - `replay <case>` re-run every oracle on a stored case; exit 1 if any
//!   still diverges.
//! - `reduce <case>` shrink a stored case further (after an oracle or
//!   verifier change made more reduction possible) and write `<name>.min`.
//!
//! Run options:
//! - `--seed N`          base seed (decimal or 0x hex; default 0)
//! - `--iters N`         iteration budget (default 100)
//! - `--time-budget D`   wall-clock budget, e.g. `60s`, `2m`, `500ms`
//! - `--batch N`         modules per batch-pipeline oracle call (default 8)
//! - `--out DIR`         regression directory (default fuzz/corpus-regressions)
//!
//! Determinism contract: without `--time-budget`, two runs with the same
//! options produce byte-identical logs and corpora.

use std::path::{Path, PathBuf};
use std::time::Duration;

use irdl_fuzz_lib::{
    load_case, oracle_fails, reduce, replay_all, run_fuzz_on, write_regression, FuzzOptions,
    FuzzTarget,
};

enum Command {
    Run(FuzzOptions, PathBuf),
    Replay(PathBuf),
    Reduce(PathBuf, Option<PathBuf>),
}

fn parse_seed(value: &str) -> Result<u64, String> {
    let parsed = match value.strip_prefix("0x").or_else(|| value.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    };
    parsed.map_err(|_| format!("invalid seed `{value}`"))
}

fn parse_duration(value: &str) -> Result<Duration, String> {
    let (digits, scale) = if let Some(rest) = value.strip_suffix("ms") {
        (rest, 1u64)
    } else if let Some(rest) = value.strip_suffix('s') {
        (rest, 1_000)
    } else if let Some(rest) = value.strip_suffix('m') {
        (rest, 60_000)
    } else {
        (value, 1_000)
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("invalid time budget `{value}` (expected e.g. 60s, 2m, 500ms)"))?;
    Ok(Duration::from_millis(n * scale))
}

fn parse_args() -> Result<Command, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    match command.as_str() {
        "run" => {
            let mut opts = FuzzOptions::default();
            let mut out = PathBuf::from("fuzz/corpus-regressions");
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--seed" => {
                        let v = args.next().ok_or("--seed needs a value")?;
                        opts.seed = parse_seed(&v)?;
                    }
                    "--iters" => {
                        let v = args.next().ok_or("--iters needs a value")?;
                        opts.iters =
                            v.parse().map_err(|_| format!("invalid --iters value `{v}`"))?;
                    }
                    "--time-budget" => {
                        let v = args.next().ok_or("--time-budget needs a value")?;
                        opts.time_budget = Some(parse_duration(&v)?);
                    }
                    "--batch" => {
                        let v = args.next().ok_or("--batch needs a value")?;
                        opts.batch =
                            v.parse().map_err(|_| format!("invalid --batch value `{v}`"))?;
                    }
                    "--out" => {
                        out = PathBuf::from(args.next().ok_or("--out needs a directory")?);
                    }
                    other => return Err(format!("unknown run option `{other}`")),
                }
            }
            Ok(Command::Run(opts, out))
        }
        "replay" => {
            let case = args.next().ok_or("replay needs a case file")?;
            Ok(Command::Replay(PathBuf::from(case)))
        }
        "reduce" => {
            let case = args.next().ok_or("reduce needs a case file")?;
            let mut out = None;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--out" => out = Some(PathBuf::from(args.next().ok_or("--out needs a directory")?)),
                    other => return Err(format!("unknown reduce option `{other}`")),
                }
            }
            Ok(Command::Reduce(PathBuf::from(case), out))
        }
        "--help" | "-h" => {
            eprintln!("{}", usage());
            std::process::exit(0);
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: irdl-fuzz run [--seed N] [--iters N] [--time-budget D] [--batch N] [--out DIR]\n\
     \x20      irdl-fuzz replay <case.mlir>\n\
     \x20      irdl-fuzz reduce <case.mlir> [--out DIR]"
        .to_string()
}

fn cmd_run(opts: FuzzOptions, out: &Path) -> i32 {
    let target = match FuzzTarget::corpus() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("irdl-fuzz: corpus does not compile: {e}");
            return 2;
        }
    };
    let report = match run_fuzz_on(&target, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("irdl-fuzz: {e}");
            return 2;
        }
    };
    print!("{}", report.log);
    let Some(failure) = report.failures.first() else { return 0 };

    eprintln!("irdl-fuzz: oracle `{}` diverged:\n{}", failure.oracle, failure.detail);
    let case_seed = if failure.seed != 0 { failure.seed } else { opts.seed };
    let mut predicate =
        |text: &str| oracle_fails(&target, failure.oracle, case_seed, text);
    let reduced = if predicate(&failure.input) {
        reduce(&target.bundle, &failure.input, &mut predicate)
    } else {
        // Inputs over a generated (non-corpus) dialect cannot be re-driven
        // through the corpus bundle; store them unreduced.
        failure.input.clone()
    };
    let name = format!("{}-{:016x}", failure.oracle, opts.seed);
    match write_regression(out, &name, case_seed, failure.oracle, &reduced) {
        Ok(path) => eprintln!("irdl-fuzz: minimized reproducer written to {}", path.display()),
        Err(e) => eprintln!("irdl-fuzz: could not write reproducer: {e}"),
    }
    1
}

fn cmd_replay(path: &Path) -> i32 {
    let case = match load_case(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("irdl-fuzz: cannot read {}: {e}", path.display());
            return 2;
        }
    };
    let target = match FuzzTarget::corpus() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("irdl-fuzz: corpus does not compile: {e}");
            return 2;
        }
    };
    let failures = replay_all(&target, &case.text, case.seed);
    if failures.is_empty() {
        println!("{}: all oracles green", path.display());
        0
    } else {
        for f in &failures {
            println!("{}: oracle `{}` diverged:\n{}", path.display(), f.oracle, f.detail);
        }
        1
    }
}

fn cmd_reduce(path: &Path, out: Option<&Path>) -> i32 {
    let case = match load_case(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("irdl-fuzz: cannot read {}: {e}", path.display());
            return 2;
        }
    };
    let target = match FuzzTarget::corpus() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("irdl-fuzz: corpus does not compile: {e}");
            return 2;
        }
    };
    let mut predicate =
        |text: &str| oracle_fails(&target, &case.oracle, case.seed, text);
    if !predicate(&case.text) {
        eprintln!(
            "irdl-fuzz: {} no longer reproduces oracle `{}`; nothing to reduce",
            path.display(),
            case.oracle
        );
        return 1;
    }
    let reduced = reduce(&target.bundle, &case.text, &mut predicate);
    let dir = out
        .map(Path::to_path_buf)
        .or_else(|| path.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("case");
    let name = format!("{stem}.min");
    match write_regression(&dir, &name, case.seed, &case.oracle, &reduced) {
        Ok(written) => {
            println!("irdl-fuzz: reduced case written to {}", written.display());
            0
        }
        Err(e) => {
            eprintln!("irdl-fuzz: could not write reduced case: {e}");
            2
        }
    }
}

fn main() {
    let code = match parse_args() {
        Ok(Command::Run(opts, out)) => cmd_run(opts, &out),
        Ok(Command::Replay(path)) => cmd_replay(&path),
        Ok(Command::Reduce(path, out)) => cmd_reduce(&path, out.as_deref()),
        Err(e) => {
            eprintln!("irdl-fuzz: {e}");
            2
        }
    };
    std::process::exit(code);
}
