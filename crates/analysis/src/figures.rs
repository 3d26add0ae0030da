//! Regeneration of every table and figure of the paper's evaluation (§6).
//!
//! Each function renders one artifact as text and is backed by the
//! structured accessors in [`crate::stats`]. [`render`] picks one by name
//! for the `irdl-stats` CLI and the `dialect_stats` example.

use irdl::introspect::OpReport;

use crate::render::{bar, pct, stacked_bar, two_column_table};
use crate::stats::CorpusStats;

const STACK_GLYPHS: [char; 4] = ['░', '▒', '▓', '█'];
const BAR_WIDTH: usize = 28;

/// Table 1: the 28 dialects and their descriptions.
pub fn table1() -> String {
    let rows: Vec<(String, String)> = irdl_dialects::dialects()
        .iter()
        .map(|d| (d.name.to_string(), d.description.to_string()))
        .collect();
    format!(
        "Table 1: MLIR's 28 dialects\n{}",
        two_column_table(&rows)
    )
}

/// Figure 3: operations defined in MLIR over time (05/2020 - 01/2022).
pub fn fig3() -> String {
    let series = irdl_dialects::snapshots();
    let max = f64::from(series.iter().map(|s| s.ops).max().unwrap_or(1));
    let mut out = String::from("Figure 3: operations defined in MLIR over time\n");
    for s in &series {
        out.push_str(&format!(
            "{:04}-{:02}  {:>4} ops  {:>2} dialects  {}\n",
            s.year,
            s.month,
            s.ops,
            s.dialects,
            bar(f64::from(s.ops), max, 40)
        ));
    }
    let factor = irdl_dialects::timeline::growth_factor();
    out.push_str(&format!("growth over 20 months: {factor:.1}x\n"));
    out
}

/// Figure 4: operations per dialect (ascending, as in the paper).
pub fn fig4(stats: &CorpusStats) -> String {
    let mut rows: Vec<(&str, usize)> =
        stats.dialects.iter().map(|d| (d.name.as_str(), d.ops.len())).collect();
    rows.sort_by_key(|(_, n)| *n);
    let max = rows.iter().map(|(_, n)| *n).max().unwrap_or(1) as f64;
    let mut out = String::from("Figure 4: operations per dialect\n");
    for (name, n) in rows {
        // Log-scaled bars, as the paper's axis is logarithmic.
        let log = (n as f64).ln().max(0.0);
        out.push_str(&format!("{name:>14}  {n:>3}  {}\n", bar(log, max.ln(), 40)));
    }
    out
}

/// Shared renderer for the per-dialect stacked-percentage figures.
fn stacked_figure(
    title: &str,
    legend: &str,
    stats: &CorpusStats,
    buckets: impl Fn(&[&OpReport]) -> Vec<usize>,
) -> String {
    let mut rows: Vec<(String, Vec<usize>, usize)> = stats
        .dialects
        .iter()
        .map(|d| {
            let ops: Vec<&OpReport> = d.ops.iter().collect();
            let hist = buckets(&ops);
            (d.name.clone(), hist, ops.len())
        })
        .collect();
    // Sort by weight of the higher buckets, descending — the paper's
    // ordering (dialects dominated by large counts at the top).
    rows.sort_by(|a, b| {
        let weight = |hist: &[usize], n: usize| -> f64 {
            if n == 0 {
                return 0.0;
            }
            hist.iter()
                .enumerate()
                .map(|(i, &c)| i as f64 * c as f64)
                .sum::<f64>()
                / n as f64
        };
        weight(&b.1, b.2)
            .partial_cmp(&weight(&a.1, a.2))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut out = format!("{title}\n{legend}\n");
    for (name, hist, _n) in &rows {
        out.push_str(&format!(
            "{name:>14}  {}\n",
            stacked_bar(hist, &STACK_GLYPHS, BAR_WIDTH)
        ));
    }
    let all: Vec<&OpReport> = stats.all_ops().collect();
    let overall = buckets(&all);
    let total: usize = overall.iter().sum();
    out.push_str(&format!(
        "{:>14}  {}   ({})\n",
        "overall",
        stacked_bar(&overall, &STACK_GLYPHS, BAR_WIDTH),
        overall.iter().map(|c| pct(*c, total)).collect::<Vec<_>>().join(" / ")
    ));
    out
}

/// Figure 5a: operand-count distribution per dialect.
pub fn fig5a(stats: &CorpusStats) -> String {
    stacked_figure(
        "Figure 5a: operands per operation",
        "legend: ░ 0  ▒ 1  ▓ 2  █ 3+",
        stats,
        |ops| CorpusStats::operand_hist(ops).to_vec(),
    )
}

/// Figure 5b: variadic-operand usage per dialect.
pub fn fig5b(stats: &CorpusStats) -> String {
    stacked_figure(
        "Figure 5b: operations with variadic operands",
        "legend: ░ none  ▒ has variadic operand",
        stats,
        |ops| {
            let (variadic, _) = CorpusStats::variadic_counts(ops);
            vec![ops.len() - variadic, variadic]
        },
    )
}

/// Figure 6a: result-count distribution per dialect.
pub fn fig6a(stats: &CorpusStats) -> String {
    stacked_figure(
        "Figure 6a: results per operation",
        "legend: ░ 0  ▒ 1  ▓ 2",
        stats,
        |ops| CorpusStats::result_hist(ops).to_vec(),
    )
}

/// Figure 6b: variadic-result usage per dialect.
pub fn fig6b(stats: &CorpusStats) -> String {
    stacked_figure(
        "Figure 6b: operations with variadic results",
        "legend: ░ none  ▒ has variadic result",
        stats,
        |ops| {
            let (_, variadic) = CorpusStats::variadic_counts(ops);
            vec![ops.len() - variadic, variadic]
        },
    )
}

/// Figure 7a: attribute-count distribution per dialect.
pub fn fig7a(stats: &CorpusStats) -> String {
    stacked_figure(
        "Figure 7a: attributes per operation",
        "legend: ░ 0  ▒ 1  ▓ 2+",
        stats,
        |ops| CorpusStats::attr_hist(ops).to_vec(),
    )
}

/// Figure 7b: region-count distribution per dialect.
pub fn fig7b(stats: &CorpusStats) -> String {
    stacked_figure(
        "Figure 7b: regions per operation",
        "legend: ░ 0  ▒ 1  ▓ 2",
        stats,
        |ops| CorpusStats::region_hist(ops).to_vec(),
    )
}

/// Figure 8: parameter kinds of type (8a) and attribute (8b) definitions.
pub fn fig8(stats: &CorpusStats) -> String {
    let mut out = String::from("Figure 8: type and attribute parameter kinds\n");
    for (label, defs) in [
        ("(a) types", stats.all_types().collect::<Vec<_>>()),
        ("(b) attributes", stats.all_attrs().collect::<Vec<_>>()),
    ] {
        out.push_str(&format!("{label}\n"));
        let census = CorpusStats::param_kind_census(&defs);
        let max = census.iter().map(|(_, c, _)| *c).max().unwrap_or(1) as f64;
        for (kind, count, native) in &census {
            let marker = if *native { " (domain-specific)" } else { "" };
            out.push_str(&format!(
                "{kind:>18}  {count:>3}  {}{marker}\n",
                bar(*count as f64, max, 30)
            ));
        }
    }
    out
}

/// Figures 9 and 10: expressiveness of type (9) / attribute (10)
/// definitions and verifiers, per dialect.
fn type_attr_expressiveness(stats: &CorpusStats, attrs: bool) -> String {
    let (number, noun) = if attrs { (10, "attribute") } else { (9, "type") };
    let mut out = format!(
        "Figure {number}: {noun} definitions and verifiers (IRDL vs IRDL-Rust)\n"
    );
    out.push_str("  dialect       defs  native-params  native-verifiers\n");
    let mut total = 0usize;
    let mut native_params = 0usize;
    let mut native_verifiers = 0usize;
    for d in &stats.dialects {
        let defs = if attrs { &d.attrs } else { &d.types };
        if defs.is_empty() {
            continue;
        }
        let np = defs.iter().filter(|t| !t.params_in_irdl()).count();
        let nv = defs.iter().filter(|t| t.has_native_verifier).count();
        total += defs.len();
        native_params += np;
        native_verifiers += nv;
        out.push_str(&format!(
            "{:>14}  {:>3}   {:>3}            {:>3}\n",
            d.name,
            defs.len(),
            np,
            nv
        ));
    }
    out.push_str(&format!(
        "overall: {} of {} ({}) use only IRDL parameters; {} ({}) have a native verifier\n",
        total - native_params,
        total,
        pct(total - native_params, total),
        native_verifiers,
        pct(native_verifiers, total),
    ));
    out
}

/// Figure 9: expressiveness of type definitions.
pub fn fig9(stats: &CorpusStats) -> String {
    type_attr_expressiveness(stats, false)
}

/// Figure 10: expressiveness of attribute definitions.
pub fn fig10(stats: &CorpusStats) -> String {
    type_attr_expressiveness(stats, true)
}

/// Figure 11: operation local constraints (a) and verifiers (b), IRDL vs
/// IRDL-Rust, per dialect.
pub fn fig11(stats: &CorpusStats) -> String {
    let mut out = String::from(
        "Figure 11: operation constraints in IRDL vs IRDL-Rust\n\
         (a) local constraints     (b) global verifiers\n",
    );
    let mut rows: Vec<(String, usize, usize, usize)> = stats
        .dialects
        .iter()
        .map(|d| {
            let ops: Vec<&OpReport> = d.ops.iter().collect();
            let (_, native_local) = CorpusStats::local_constraint_counts(&ops);
            let (_, native_verifier) = CorpusStats::verifier_counts(&ops);
            (d.name.clone(), ops.len(), native_local, native_verifier)
        })
        .collect();
    rows.sort_by(|a, b| {
        let fa = a.2 as f64 / a.1.max(1) as f64;
        let fb = b.2 as f64 / b.1.max(1) as f64;
        fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal)
    });
    for (name, n, local, verifier) in &rows {
        out.push_str(&format!(
            "{name:>14}  local: {}  verifier: {}\n",
            stacked_bar(&[n - local, *local], &STACK_GLYPHS, 20),
            stacked_bar(&[n - verifier, *verifier], &STACK_GLYPHS, 20),
        ));
    }
    let all: Vec<&OpReport> = stats.all_ops().collect();
    let (pure_local, _) = CorpusStats::local_constraint_counts(&all);
    let (_, native_verifier) = CorpusStats::verifier_counts(&all);
    out.push_str(&format!(
        "overall: {} of {} ops ({}) express local constraints in IRDL; \
         {} ({}) need a native verifier\n",
        pure_local,
        all.len(),
        pct(pure_local, all.len()),
        native_verifier,
        pct(native_verifier, all.len()),
    ));
    out
}

/// Figure 12: the kinds of local constraints that require IRDL-Rust.
pub fn fig12(stats: &CorpusStats) -> String {
    let census = stats.native_constraint_census();
    let max = census.iter().map(|(_, c)| *c).max().unwrap_or(1) as f64;
    let mut out = String::from("Figure 12: native-only local constraint kinds\n");
    for (name, count) in &census {
        let label = match name.as_str() {
            "integer_inequality" => "integer inequality",
            "stride_check" => "stride check",
            "struct_opacity" => "struct opacity",
            other => other,
        };
        out.push_str(&format!("{label:>20}  {count:>3}  {}\n", bar(*count as f64, max, 30)));
    }
    out
}

/// Renders every table and figure in order.
pub fn render_all(stats: &CorpusStats) -> String {
    let mut out = String::new();
    for section in [
        table1(),
        fig3(),
        fig4(stats),
        fig5a(stats),
        fig5b(stats),
        fig6a(stats),
        fig6b(stats),
        fig7a(stats),
        fig7b(stats),
        fig8(stats),
        fig9(stats),
        fig10(stats),
        fig11(stats),
        fig12(stats),
    ] {
        out.push_str(&section);
        out.push('\n');
    }
    out
}

/// Renders the artifact called `name` — `table1`, `fig3` … `fig12` (with
/// the `a`/`b` panels of figures 5–7), or `all` — or `None` for any other
/// name.
pub fn render(name: &str, stats: &CorpusStats) -> Option<String> {
    Some(match name {
        "table1" => table1(),
        "fig3" => fig3(),
        "fig4" => fig4(stats),
        "fig5a" => fig5a(stats),
        "fig5b" => fig5b(stats),
        "fig6a" => fig6a(stats),
        "fig6b" => fig6b(stats),
        "fig7a" => fig7a(stats),
        "fig7b" => fig7b(stats),
        "fig8" => fig8(stats),
        "fig9" => fig9(stats),
        "fig10" => fig10(stats),
        "fig11" => fig11(stats),
        "fig12" => fig12(stats),
        "all" => render_all(stats),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use irdl_ir::Context;

    fn stats() -> CorpusStats {
        let mut ctx = Context::new();
        let names = irdl_dialects::register_corpus(&mut ctx).unwrap();
        CorpusStats::collect(&ctx, &names)
    }

    #[test]
    fn table1_lists_28_dialects() {
        let text = table1();
        assert_eq!(text.lines().count(), 29, "{text}");
        assert!(text.contains("spv"));
        assert!(text.contains("Graphics shaders and compute kernels"));
    }

    #[test]
    fn fig3_shows_growth() {
        let text = fig3();
        assert!(text.contains("444 ops"), "{text}");
        assert!(text.contains("942 ops"), "{text}");
        assert!(text.contains("2.1x"), "{text}");
    }

    #[test]
    fn fig4_orders_by_size() {
        let s = stats();
        let text = fig4(&s);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].contains("arm_neon") || lines[1].contains("builtin"), "{text}");
        assert!(lines.last().unwrap().contains("spv"), "{text}");
    }

    #[test]
    fn fig5a_overall_matches_paper() {
        let s = stats();
        let text = fig5a(&s);
        assert!(text.contains("overall"), "{text}");
        // 12% / 41% / 32% / 16% within rendering rounding.
        let overall = text.lines().last().unwrap();
        assert!(overall.contains('%'), "{overall}");
    }

    #[test]
    fn fig11_reports_30_percent() {
        let s = stats();
        let text = fig11(&s);
        assert!(text.contains("30%") || text.contains("29%") || text.contains("31%"), "{text}");
        assert!(text.contains("97%"), "{text}");
    }

    #[test]
    fn fig12_has_three_bars() {
        let s = stats();
        let text = fig12(&s);
        assert!(text.contains("integer inequality"), "{text}");
        assert!(text.contains("stride check"), "{text}");
        assert!(text.contains("struct opacity"), "{text}");
    }

    #[test]
    fn render_all_is_stable() {
        let s = stats();
        assert_eq!(render_all(&s), render_all(&s));
    }

    #[test]
    fn render_dispatches_by_name() {
        let s = stats();
        assert_eq!(render("fig4", &s), Some(fig4(&s)));
        assert_eq!(render("all", &s), Some(render_all(&s)));
        assert_eq!(render("fig13", &s), None);
    }
}
