//! `irdl-fmt`: canonical formatter for IRDL specification files.
//!
//! ```text
//! irdl-fmt spec.irdl            # print the formatted spec to stdout
//! irdl-fmt --check spec.irdl    # exit 1 if the file is not canonical
//! irdl-fmt --write spec.irdl    # reformat in place
//! echo '...' | irdl-fmt         # format stdin
//! ```

use irdl::printer::print_source;
use irdl_tools::cli;

fn main() {
    let mut check = false;
    let mut write = false;
    let mut files = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            "--write" => write = true,
            "--help" | "-h" => {
                eprintln!("usage: irdl-fmt [--check|--write] [FILE]...");
                std::process::exit(0);
            }
            other if !other.starts_with('-') => files.push(other.to_string()),
            other => cli::fail(2, &format!("unknown option `{other}`")),
        }
    }

    if files.is_empty() {
        let source = cli::read_text(None).unwrap_or_else(|message| cli::fail(1, &message));
        cli::write_stdout(format_one(cli::STDIN, &source));
        return;
    }

    let mut dirty = false;
    for file in &files {
        let source = cli::read_text(Some(file)).unwrap_or_else(|message| cli::fail(1, &message));
        let formatted = format_one(file, &source);
        if check {
            if formatted != source {
                eprintln!("{file}: not canonically formatted");
                dirty = true;
            }
        } else if write {
            if formatted != source {
                if let Err(e) = std::fs::write(file, &formatted) {
                    cli::fail(1, &format!("cannot write `{file}`: {e}"));
                }
                eprintln!("reformatted {file}");
            }
        } else {
            cli::write_stdout(formatted);
        }
    }
    if dirty {
        std::process::exit(1);
    }
}

/// Formats `source`, or prints its diagnostic under `name` and exits 1.
fn format_one(name: &str, source: &str) -> String {
    match irdl::parse_irdl(source) {
        Ok(ast) => print_source(&ast),
        Err(d) => {
            eprintln!("{name}:\n{}", d.render(source));
            std::process::exit(1)
        }
    }
}
