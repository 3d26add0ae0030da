//! The command-line front end the `irdl-*` binaries share.
//!
//! One dialect loader ([`DialectArgs`]), one input reader ([`read_input`]
//! and the raw [`read_bytes`]/[`read_text`] below it) and one stdout
//! writer ([`write_stdout`]), so every tool registers dialects in the same
//! order, sniffs bytecode the same way and exits quietly on a closed pipe.

use std::io::{Read, Write};

use irdl_interp::EvalRegistry;
use irdl_ir::bytecode::is_module_bytecode;
use irdl_ir::Context;
use irdl_rewrite::pipeline::InputRef;

/// The name an input read from stdin goes by in messages and output.
pub const STDIN: &str = "<stdin>";

/// The `--irdl FILE`, `--showcase` and `--corpus` flags.
#[derive(Debug, Default)]
pub struct DialectArgs {
    /// IRDL spec files, registered in order after the preloaded dialects.
    pub irdl_files: Vec<String>,
    /// Preregister the cmath/arith/func showcase dialects.
    pub showcase: bool,
    /// Preregister the 28-dialect evaluation corpus.
    pub corpus: bool,
}

/// The dialects a tool runs against, as [`DialectArgs::load`] built them.
pub struct Dialects {
    /// The context every dialect is registered in.
    pub ctx: Context,
    /// The dialects registered from the corpus and the IRDL files, in
    /// registration order.
    pub names: Vec<String>,
    /// The evaluation semantics: the corpus's when it is loaded, else the
    /// showcase's, else none.
    pub semantics: EvalRegistry,
}

impl DialectArgs {
    /// Consumes `arg` if it is one of the dialect flags, taking the file
    /// after `--irdl` from `rest`. Returns whether `arg` was consumed.
    pub fn parse_flag(
        &mut self,
        arg: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match arg {
            "--irdl" => self.irdl_files.push(rest.next().ok_or("--irdl needs a file argument")?),
            "--showcase" => self.showcase = true,
            "--corpus" => self.corpus = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Registers the showcase, then the corpus, then each IRDL file (with
    /// the corpus native hooks, a superset of the stock ones) in a fresh
    /// context.
    pub fn load(&self) -> Result<Dialects, String> {
        let mut ctx = Context::new();
        let mut names = Vec::new();
        if self.showcase {
            irdl_dialects::showcase::register_showcase(&mut ctx).map_err(|d| d.to_string())?;
        }
        if self.corpus {
            names = irdl_dialects::register_corpus(&mut ctx).map_err(|d| d.to_string())?;
        }
        let natives = irdl_dialects::corpus_natives();
        for file in &self.irdl_files {
            let source = read_text(Some(file))?;
            let registered = irdl::register_dialects_with(&mut ctx, &source, &natives)
                .map_err(|d| format!("{file}:\n{}", d.render(&source)))?;
            names.extend(registered);
        }
        let semantics = if self.corpus {
            irdl_dialects::corpus_semantics()
        } else if self.showcase {
            irdl_dialects::showcase_semantics()
        } else {
            EvalRegistry::new()
        };
        Ok(Dialects { ctx, names, semantics })
    }
}

/// One whole input, sniffed.
#[derive(Debug)]
pub enum Input {
    /// Textual IR.
    Text(String),
    /// Module bytecode (magic `IRBC`).
    Bytecode(Vec<u8>),
}

impl Input {
    /// Sniffs `bytes`: the `IRBC` magic marks module bytecode, anything
    /// else must be UTF-8 text. Hands the bytes back when they are
    /// neither.
    pub fn sniff(bytes: Vec<u8>) -> Result<Input, Vec<u8>> {
        if is_module_bytecode(&bytes) {
            return Ok(Input::Bytecode(bytes));
        }
        String::from_utf8(bytes).map(Input::Text).map_err(|e| e.into_bytes())
    }

    /// The borrowed view the pipeline reads.
    pub fn as_ref(&self) -> InputRef<'_> {
        match self {
            Input::Text(text) => InputRef::Text(text),
            Input::Bytecode(bytes) => InputRef::Bytecode(bytes),
        }
    }
}

/// Reads the file at `path`, or stdin when `path` is `None`, to bytes.
pub fn read_bytes(path: Option<&str>) -> Result<Vec<u8>, String> {
    match path {
        Some(file) => std::fs::read(file).map_err(|e| format!("cannot read `{file}`: {e}")),
        None => {
            let mut bytes = Vec::new();
            std::io::stdin()
                .read_to_end(&mut bytes)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            Ok(bytes)
        }
    }
}

/// [`read_bytes`], which must be UTF-8 text.
pub fn read_text(path: Option<&str>) -> Result<String, String> {
    String::from_utf8(read_bytes(path)?)
        .map_err(|_| format!("`{}` is not UTF-8 text", path.unwrap_or(STDIN)))
}

/// [`read_bytes`], sniffed into text or module bytecode.
pub fn read_input(path: Option<&str>) -> Result<Input, String> {
    Input::sniff(read_bytes(path)?).map_err(|_| {
        format!("`{}` is neither module bytecode nor UTF-8 text", path.unwrap_or(STDIN))
    })
}

/// Writes `bytes` to stdout, exiting quietly (status 0) if the reader
/// closed the pipe, as in `irdl-doc --corpus | head`.
pub fn write_stdout(bytes: impl AsRef<[u8]>) {
    if std::io::stdout().lock().write_all(bytes.as_ref()).is_err() {
        std::process::exit(0);
    }
}

/// Prints `error: {message}` to stderr and exits with `code`: 2 for a
/// usage error, 1 for a failed run.
pub fn fail(code: i32, message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(code)
}
