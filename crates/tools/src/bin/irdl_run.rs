//! `irdl-run`: execute a module on the register-based interpreter.
//!
//! ```text
//! irdl-run --corpus input.ir
//! irdl-run --showcase --seed 7 input.ir
//! echo '...ir...' | irdl-run --corpus --strict
//! ```
//!
//! Options:
//! - `--irdl <file>`  register dialects from an IRDL file (repeatable;
//!   their ops execute as deterministic uninterpreted functions)
//! - `--showcase`     preregister the cmath/arith/func showcase dialects
//!   with their evaluation semantics
//! - `--corpus`       preregister the evaluation corpus with the
//!   builtin/scf/complex/fuzz evaluation semantics
//! - `--seed <n>`     seed for derived inputs and uninterpreted ops
//!   (default 0)
//! - `--fuel <n>`     control-transfer budget before the machine traps
//!   with fuel exhaustion (default 4096)
//! - `--strict`       trap on the first op without registered semantics
//!   instead of modelling it as an uninterpreted function
//! - `--digest`       print the canonical execution digest (the exact
//!   form the translation-validation oracle compares) instead of the
//!   human-oriented report
//! - `<file>`         the IR input (defaults to stdin): text, or module
//!   bytecode (`IRBC`, e.g. from `irdl-opt --emit=bytecode`)
//!
//! Prints one line per observed sink (`name(values...)`) followed by a
//! status line; exits 1 on a trap so scripts can branch on the outcome.

use irdl_interp::{run_module, EvalOptions};
use irdl_tools::cli::{self, DialectArgs, Dialects};
use irdl_tools::report::render_execution;

struct Options {
    dialects: DialectArgs,
    input: Option<String>,
    seed: u64,
    fuel: u64,
    strict: bool,
    digest: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        dialects: DialectArgs::default(),
        input: None,
        seed: 0,
        fuel: EvalOptions::default().fuel,
        strict: false,
        digest: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if opts.dialects.parse_flag(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--seed" => {
                let n = args.next().ok_or("--seed needs a number argument")?;
                opts.seed =
                    n.parse::<u64>().map_err(|_| format!("invalid --seed value `{n}`"))?;
            }
            "--fuel" => {
                let n = args.next().ok_or("--fuel needs a number argument")?;
                opts.fuel =
                    n.parse::<u64>().map_err(|_| format!("invalid --fuel value `{n}`"))?;
            }
            "--strict" => opts.strict = true,
            "--digest" => opts.digest = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: irdl-run [--irdl FILE]... [--showcase] [--corpus] \
                     [--seed N] [--fuel N] [--strict] [--digest] [IR-FILE]"
                );
                std::process::exit(0);
            }
            other if !other.starts_with('-') => {
                if opts.input.is_some() {
                    return Err("irdl-run takes a single IR input".to_string());
                }
                opts.input = Some(other.to_string());
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn run(opts: Options) -> Result<bool, String> {
    let Dialects { mut ctx, semantics, .. } = opts.dialects.load()?;
    let input = cli::read_input(opts.input.as_deref())?;
    let module = input.as_ref().load(&mut ctx)?;

    let eval_opts = EvalOptions {
        fuel: opts.fuel,
        input_seed: opts.seed,
        strict: opts.strict,
    };
    let exec = run_module(&ctx, &semantics, module, eval_opts);
    if opts.digest {
        cli::write_stdout(exec.digest());
    } else {
        cli::write_stdout(render_execution(&exec));
    }
    Ok(exec.trap.is_none())
}

fn main() {
    let opts = parse_args().unwrap_or_else(|message| cli::fail(2, &message));
    match cli::on_worker_stack(|| run(opts)) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => cli::fail(1, &message),
    }
}
