//! `irdl-bc`: the bytecode toolbox.
//!
//! Converts between the textual and binary forms of the stack's two
//! bytecode file kinds — `IRBC` modules and `IRDB` dialect bundles — and
//! inspects their section structure:
//!
//! ```text
//! irdl-bc encode --corpus input.ir -o input.mlirbc
//! irdl-bc decode input.mlirbc
//! irdl-bc bundle cmath.irdl arith.irdl -o dialects.irdlbc
//! irdl-bc inspect input.mlirbc
//! ```
//!
//! Subcommands:
//! - `encode`  parse a text module (file or stdin) and emit `IRBC` bytes
//! - `decode`  decode `IRBC` bytes back to text
//! - `bundle`  compile IRDL specs into an `IRDB` dialect artifact that
//!   [`irdl::DialectBundle::load`] rehydrates without the frontend
//! - `inspect` print the magic, version, and per-section byte counts of
//!   any bytecode file (no dialects needed — purely structural)
//!
//! Shared options: `--irdl FILE` (repeatable), `--corpus`, `--showcase`
//! register dialects (needed by `encode`/`decode` when modules use custom
//! op syntax); for `bundle`, `--corpus` selects the corpus native-hook
//! registry so corpus specs compile; `-o FILE` writes output to a file
//! instead of stdout; `--generic` makes `decode` print the generic form.

use irdl::artifact::{BUNDLE_MAGIC, SECTION_RECIPES};
use irdl::{DialectBundle, NativeRegistry};
use irdl_ir::bytecode::{
    decode_module, encode_module, ByteReader, MODULE_MAGIC, SECTION_OPS, SECTION_POOL,
    SECTION_STRINGS,
};
use irdl_ir::print::Printer;
use irdl_tools::cli::{self, DialectArgs, Input};

struct Options {
    command: String,
    dialects: DialectArgs,
    inputs: Vec<String>,
    output: Option<String>,
    generic: bool,
}

const USAGE: &str = "usage: irdl-bc {encode,decode,bundle,inspect} \
                     [--irdl FILE]... [--corpus] [--showcase] [--generic] \
                     [-o FILE] [INPUT]...";

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let command = match args.next() {
        Some(cmd) if ["encode", "decode", "bundle", "inspect"].contains(&cmd.as_str()) => cmd,
        Some(flag) if flag == "--help" || flag == "-h" => {
            eprintln!("{USAGE}");
            std::process::exit(0);
        }
        Some(other) => return Err(format!("unknown command `{other}`\n{USAGE}")),
        None => return Err(format!("missing command\n{USAGE}")),
    };
    let mut opts = Options {
        command,
        dialects: DialectArgs::default(),
        inputs: Vec::new(),
        output: None,
        generic: false,
    };
    while let Some(arg) = args.next() {
        if opts.dialects.parse_flag(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "-o" | "--output" => {
                let file = args.next().ok_or("-o needs a file argument")?;
                opts.output = Some(file);
            }
            "--generic" => opts.generic = true,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other if !other.starts_with('-') => opts.inputs.push(other.to_string()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

/// The single input: a file, or stdin.
fn input_path(opts: &Options) -> Option<&str> {
    opts.inputs.first().map(String::as_str)
}

/// Writes `bytes` to `-o FILE`, or to stdout.
fn write_output(opts: &Options, bytes: &[u8]) -> Result<(), String> {
    match &opts.output {
        Some(file) => {
            std::fs::write(file, bytes).map_err(|e| format!("cannot write `{file}`: {e}"))
        }
        None => {
            cli::write_stdout(bytes);
            Ok(())
        }
    }
}

fn cmd_encode(opts: &Options) -> Result<(), String> {
    let mut ctx = opts.dialects.load()?.ctx;
    let ir = match cli::read_input(input_path(opts))? {
        // Already bytecode: pass it through.
        Input::Bytecode(bytes) => return write_output(opts, &bytes),
        Input::Text(ir) => ir,
    };
    let module = irdl_ir::parse::parse_module(&mut ctx, &ir).map_err(|d| d.render(&ir))?;
    let bytes = encode_module(&ctx, module).map_err(|d| d.to_string())?;
    write_output(opts, &bytes)
}

fn cmd_decode(opts: &Options) -> Result<(), String> {
    let mut ctx = opts.dialects.load()?.ctx;
    let raw = cli::read_bytes(input_path(opts))?;
    let is_bundle = raw.starts_with(&BUNDLE_MAGIC);
    let Ok(Input::Bytecode(raw)) = Input::sniff(raw) else {
        return Err(if is_bundle {
            "input is not a module file (try `irdl-bc inspect`)".to_string()
        } else {
            "input does not start with the IRBC module magic".to_string()
        });
    };
    let module = decode_module(&mut ctx, &raw).map_err(|d| d.to_string())?;
    let mut out = String::new();
    let mut printer = Printer::new(&mut out);
    printer.set_generic(opts.generic);
    printer.print_op(&ctx, module);
    out.push('\n');
    write_output(opts, out.as_bytes())
}

fn cmd_bundle(opts: &Options) -> Result<(), String> {
    if opts.dialects.irdl_files.is_empty() && opts.inputs.is_empty() {
        return Err("bundle needs at least one IRDL file".to_string());
    }
    // `--corpus` selects the corpus native-hook registry (a superset of
    // the std hooks) so corpus specs like builtin.irdl bundle directly.
    let natives = if opts.dialects.corpus {
        irdl_dialects::corpus_natives()
    } else {
        NativeRegistry::with_std()
    };
    // Positional arguments to `bundle` are IRDL specs, same as --irdl.
    let mut sources = Vec::new();
    for file in opts.dialects.irdl_files.iter().chain(&opts.inputs) {
        sources.push((file.clone(), cli::read_text(Some(file))?));
    }
    let bundle = DialectBundle::compile(&sources, &natives).map_err(|d| d.to_string())?;
    let bytes = bundle.save().map_err(|d| d.to_string())?;
    // Round-trip what we just wrote: a bundle that cannot be loaded back
    // must never be shipped.
    DialectBundle::load(&bytes, &natives)
        .map_err(|d| format!("self-check failed to reload the artifact: {d}"))?;
    write_output(opts, &bytes)
}

fn section_name(magic: &[u8; 4], tag: u8) -> &'static str {
    match tag {
        SECTION_STRINGS => "strings",
        SECTION_POOL => "pool",
        SECTION_OPS if *magic == MODULE_MAGIC => "ops",
        SECTION_RECIPES if *magic == BUNDLE_MAGIC => "recipes",
        _ => "unknown",
    }
}

fn cmd_inspect(opts: &Options) -> Result<(), String> {
    let raw = cli::read_bytes(input_path(opts))?;
    let mut r = ByteReader::new(&raw);
    let magic: [u8; 4] = r
        .take(4)
        .map_err(|_| "input shorter than a bytecode magic".to_string())?
        .try_into()
        .expect("take(4) returns 4 bytes");
    let kind = match magic {
        MODULE_MAGIC => "module",
        BUNDLE_MAGIC => "dialect bundle",
        other => {
            return Err(format!("unrecognized magic {other:?} (not an IRDL bytecode file)"))
        }
    };
    let version = r.u8().map_err(|d| d.to_string())?;
    let mut out = String::new();
    out.push_str(&format!(
        "magic:    {} ({kind})\nversion:  {version}\nfile:     {} bytes\n",
        String::from_utf8_lossy(&magic),
        raw.len(),
    ));
    while !r.is_empty() {
        let tag = r.u8().map_err(|d| d.to_string())?;
        let section = r.sub_reader().map_err(|d| d.to_string())?;
        out.push_str(&format!(
            "section:  {:<8} (tag {tag}) {} bytes\n",
            section_name(&magic, tag),
            section.remaining(),
        ));
    }
    write_output(opts, out.as_bytes())
}

fn main() {
    let opts = parse_args().unwrap_or_else(|message| cli::fail(2, &message));
    let result = match opts.command.as_str() {
        "encode" => cmd_encode(&opts),
        "decode" => cmd_decode(&opts),
        "bundle" => cmd_bundle(&opts),
        "inspect" => cmd_inspect(&opts),
        _ => unreachable!("parse_args validated the command"),
    };
    if let Err(message) = result {
        cli::fail(1, &message);
    }
}
