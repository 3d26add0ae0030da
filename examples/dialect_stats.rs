//! Reproduce the paper's evaluation (§6) from the compiled corpus.
//!
//! Registers all 28 MLIR dialects (expressed in IRDL) on one context and
//! renders the requested tables/figures — the same computation as the
//! `irdl-stats` binary, exposed as an example of the introspection API.
//!
//! Run with: `cargo run --example dialect_stats -- table1 fig4 fig11`
//! (defaults to `fig4 fig11 fig12` when no argument is given).

use irdl_repro::analysis::{figures, CorpusStats};
use irdl_repro::ir::Context;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut ctx = Context::new();
    let names = irdl_repro::dialects::register_corpus(&mut ctx)?;
    println!(
        "compiled {} dialects, {} operations, {} interned types\n",
        names.len(),
        ctx.registry()
            .dialects()
            .filter(|d| {
                d.name
                    .map(|s| names.contains(&ctx.symbol_str(s).to_string()))
                    .unwrap_or(false)
            })
            .map(|d| d.num_ops())
            .sum::<usize>(),
        ctx.num_types(),
    );
    let stats = CorpusStats::collect(&ctx, &names);

    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<&str> = if args.is_empty() {
        vec!["fig4", "fig11", "fig12"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    for figure in wanted {
        let Some(text) = figures::render(figure, &stats) else {
            eprintln!("unknown figure `{figure}`");
            std::process::exit(2);
        };
        println!("{text}");
    }
    Ok(())
}
