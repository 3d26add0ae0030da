//! Differential test of the parser's two ways of resolving SSA names.
//!
//! A decimal name such as `%3` or `%3#1` resolves through a dense table
//! indexed by its number; any other name, such as `%v3`, through per-scope
//! maps of interned symbols. The printer only ever writes decimal names,
//! so every printed module is re-spelled with `%vN` names and both
//! spellings are parsed. They must build the same IR: the same printed
//! text and the same verifier diagnostics, on valid modules and on modules
//! with seeded defects alike.

use irdl_repro::fuzz::SplitMix64;
use irdl_repro::fuzz::{generate_module, mutate_structured, FuzzTarget, GenConfig, MutationPolicy};
use irdl_repro::ir::lexer::{lex, Token};
use irdl_repro::ir::parse::parse_module;
use irdl_repro::ir::print::op_to_string;
use irdl_repro::ir::verify::verify_op;
use irdl_repro::ir::{ChangeJournal, Context};

/// `text` with every decimal value name `%N` (also in `%N#k` and `%N:k`)
/// spelled `%vN`, and the offsets in `text` where a `v` went in.
fn spell_with_prefix(text: &str) -> (String, Vec<usize>) {
    let mut out = String::with_capacity(text.len() + text.len() / 8);
    let mut inserted = Vec::new();
    for spanned in lex(text).expect("printed text lexes") {
        if let Token::ValueId(name) = spanned.token {
            if name.starts_with(|c: char| c.is_ascii_digit()) {
                let after_sigil = spanned.span.start + 1;
                out.push_str(&text[inserted.last().copied().unwrap_or(0)..after_sigil]);
                out.push('v');
                inserted.push(after_sigil);
            }
        }
    }
    out.push_str(&text[inserted.last().copied().unwrap_or(0)..]);
    (out, inserted)
}

/// A parse diagnostic (offset and message), or the re-printed module and
/// its verifier diagnostics (message and notes).
type Outcome = Result<(String, Vec<(String, Vec<String>)>), (Option<usize>, String)>;

fn outcome(ctx: &mut Context, text: &str) -> Outcome {
    let module =
        parse_module(ctx, text).map_err(|diag| (diag.offset(), diag.message().to_string()))?;
    let diags = match verify_op(ctx, module) {
        Ok(()) => Vec::new(),
        Err(diags) => diags
            .iter()
            .map(|d| (d.message().to_string(), d.notes().to_vec()))
            .collect(),
    };
    Ok((op_to_string(ctx, module), diags))
}

#[test]
fn prefixed_names_parse_like_decimal_names() {
    let target = FuzzTarget::corpus().expect("corpus compiles");
    let config = GenConfig {
        max_top_ops: 16,
        max_depth: 3,
        ..GenConfig::default()
    };
    let mut base = SplitMix64::new(0x5eed_0018);
    let [mut groups, mut block_args, mut nested, mut parse_errors, mut verify_errors] = [0; 5];
    for case in 0..96 {
        let mut rng = base.fork();
        let mut ctx = target.bundle.instantiate();
        let module = generate_module(&mut ctx, &target.catalog, &config, &mut rng);
        // Every fourth module carries seeded defects (broken dominance,
        // typing or required attributes) for the parser or the verifier
        // to report.
        if case % 4 == 3 {
            let mut journal = ChangeJournal::new();
            for _ in 0..8 {
                mutate_structured(
                    &mut ctx,
                    module,
                    &mut journal,
                    MutationPolicy::AllowInvalid,
                    &mut rng,
                );
            }
        }
        let text = op_to_string(&ctx, module);
        let (prefixed, inserted) = spell_with_prefix(&text);
        assert!(
            !prefixed.contains("%0") && prefixed.contains("%v0"),
            "{prefixed}"
        );

        let decimal = outcome(&mut target.bundle.instantiate(), &text);
        // Map the prefixed spelling's diagnostic back onto `text`.
        let named =
            outcome(&mut target.bundle.instantiate(), &prefixed).map_err(|(at, message)| {
                // The `i`-th inserted `v` sits at `inserted[i] + i` in `prefixed`.
                let shift = |at: usize| {
                    inserted
                        .iter()
                        .enumerate()
                        .take_while(|&(i, &p)| p + i <= at)
                        .count()
                };
                let at = at.map(|at| at - shift(at));
                (at, message.replace("%v", "%"))
            });
        assert_eq!(decimal, named, "case {case}:\n{text}");
        match decimal {
            Ok((printed, diags)) => {
                assert_eq!(printed, text, "case {case}");
                verify_errors += usize::from(!diags.is_empty());
            }
            Err(_) => parse_errors += 1,
        }
        groups += usize::from(text.contains("#1"));
        block_args += usize::from(
            text.lines()
                .any(|l| l.trim_start().starts_with("^bb") && l.contains("(%")),
        );
        nested += usize::from(text.matches("({").count() > 1);
    }
    // The cases cover what the two paths must agree on.
    for (what, count) in [
        ("result groups", groups),
        ("block arguments", block_args),
        ("nested regions", nested),
        ("parse errors", parse_errors),
        ("verifier errors", verify_errors),
    ] {
        assert!(count > 0, "no generated module had {what}");
    }
}

/// Names the two paths must keep apart or reject alike: a leading zero is
/// part of the name, and a decimal name past the source length takes the
/// symbol path without changing its meaning.
#[test]
fn decimal_edge_names_resolve_by_text() {
    let src = "%0 = \"t.a\"() : () -> i32
%00 = \"t.b\"() : () -> f32
%4294967296:2 = \"t.p\"() : () -> (index, i64)
%99999999999999999999 = \"t.c\"() : () -> i1
\"t.use\"(%00, %0, %4294967296#1, %99999999999999999999) : (f32, i32, i64, i1) -> ()
";
    let mut ctx = Context::new();
    let module = parse_module(&mut ctx, src).expect("edge names parse");
    let ops = ctx.module_block(module).ops(&ctx).to_vec();
    let expected = [
        ops[1].result(&ctx, 0),
        ops[0].result(&ctx, 0),
        ops[2].result(&ctx, 1),
        ops[3].result(&ctx, 0),
    ];
    assert_eq!(ops[4].operands(&ctx), &expected);
    for (src, message) in [
        (
            "%4294967296 = \"t.a\"() : () -> i32\n%4294967296 = \"t.a\"() : () -> i32\n",
            "redefinition of value `%4294967296`",
        ),
        (
            "\"t.use\"(%99999999999999999999) : (i32) -> ()\n",
            "use of undefined value `%99999999999999999999`",
        ),
        (
            "%5 = \"t.a\"() : () -> i32\n\"t.use\"(%5#1) : (i32) -> ()\n",
            "result index out of range in `%5#1`",
        ),
    ] {
        let err = parse_module(&mut Context::new(), src).unwrap_err();
        assert_eq!(err.message(), message, "{src}");
    }
}
