//! `irdl-stats`: render the paper's evaluation tables and figures from the
//! compiled 28-dialect corpus.
//!
//! Usage: `irdl-stats [table1|fig3|fig4|fig5a|fig5b|fig6a|fig6b|fig7a|fig7b|fig8|fig9|fig10|fig11|fig12|all]...`

use irdl_analysis::{figures, CorpusStats};

fn main() {
    let mut ctx = irdl_ir::Context::new();
    let names = match irdl_dialects::register_corpus(&mut ctx) {
        Ok(names) => names,
        Err(diag) => {
            eprintln!("error: failed to compile the corpus: {diag}");
            std::process::exit(1);
        }
    };
    let stats = CorpusStats::collect(&ctx, &names);

    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<&str> = if args.is_empty() {
        vec!["all"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    for name in wanted {
        let Some(text) = figures::render(name, &stats) else {
            eprintln!("unknown figure `{name}`; see --help in the README");
            std::process::exit(2);
        };
        write_stdout(&text);
        write_stdout("\n");
    }
}
/// Writes `text` to stdout, exiting quietly if the reader closed the pipe
/// (e.g. `irdl-doc --corpus | head`).
fn write_stdout(text: &str) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    if out.write_all(text.as_bytes()).is_err() {
        std::process::exit(0);
    }
}

