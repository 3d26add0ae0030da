//! `irdl-doc`: generate Markdown reference documentation from IRDL files.
//!
//! ```text
//! irdl-doc spec.irdl [more.irdl ...]    # docs for the given specs
//! irdl-doc --corpus                     # docs for the 28-dialect corpus
//! ```

use irdl_tools::cli::{self, DialectArgs};

fn main() {
    // Positional specs register like `--irdl` files, with the corpus
    // natives, so corpus spec files document out of the box.
    let mut dialects = DialectArgs::default();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--corpus" => dialects.corpus = true,
            "--help" | "-h" => {
                eprintln!("usage: irdl-doc [--corpus] [FILE]...");
                std::process::exit(0);
            }
            other if !other.starts_with('-') => dialects.irdl_files.push(other.to_string()),
            other => cli::fail(2, &format!("unknown option `{other}`")),
        }
    }

    let loaded = dialects.load().unwrap_or_else(|message| cli::fail(1, &message));
    if loaded.names.is_empty() {
        cli::fail(2, "nothing to document (pass IRDL files or --corpus)");
    }
    cli::write_stdout(irdl_tools::docgen::render_markdown(&loaded.ctx, &loaded.names));
}
