//! `irdl-opt` end to end: the single-input path and the batch path
//! (`--jobs 2`) must print the same module text and the same error text.
//!
//! The batch path frames each result (`// ----- FILE` before a module,
//! `error: FILE:` before a message, a rewrite total and a failure count
//! around them); the tests strip that framing and compare what remains.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use irdl_dialects::showcase::CONORM_PATTERN;

/// `conorm` from the paper's Listing 1a, in the showcase custom syntax.
const CONORM_INPUT: &str = r#"func.func_op @conorm : (!cmath.complex<f32>, !cmath.complex<f32>) -> f32 {
^bb0(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>):
  %np = cmath.norm %p : f32
  %nq = cmath.norm %q : f32
  %pq = arith.mulf %np, %nq : f32
  "func.return_op"(%pq) : (f32) -> ()
}
"#;

/// A `cmath.mul` whose operands disagree on the element type: the parser
/// accepts the generic form, the verifier rejects it.
const VIOLATION_INPUT: &str = r#"%a = "test.source"() : () -> !cmath.complex<f32>
%b = "test.source"() : () -> !cmath.complex<f64>
%m = "cmath.mul"(%a, %b) : (!cmath.complex<f32>, !cmath.complex<f64>) -> !cmath.complex<f32>
"#;

/// An unterminated operation name.
const PARSE_ERROR_INPUT: &str = "%broken = \"cmath.mul\n";

/// A scratch directory private to one test, so parallel tests never share
/// a file.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("irdl-opt-cli-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn write(dir: &Path, name: &str, text: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write scratch file");
    path.to_str().expect("utf-8 temp path").to_string()
}

fn irdl_opt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_irdl-opt")).args(args).output().expect("irdl-opt runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("utf-8 output")
}

/// Runs `args` + `input` once on the single-input path and once with
/// `--jobs 2`. Both runs must agree on the exit status. Returns the
/// single-input run and the text both runs printed (the module on success,
/// the error otherwise), with the framing removed.
fn single_and_batch(args: &[&str], input: &str) -> (Output, String, String) {
    let mut single_args = args.to_vec();
    single_args.push(input);
    let single = irdl_opt(&single_args);

    let mut batch_args = args.to_vec();
    batch_args.extend(["--jobs", "2", input]);
    let batch = irdl_opt(&batch_args);
    assert_eq!(single.status.code(), batch.status.code(), "exit status differs for {args:?}");

    let (single_text, batch_text) = if single.status.success() {
        let out = text(&batch.stdout);
        let body = out
            .strip_prefix(&format!("// ----- {input}\n"))
            .expect("batch output starts with the split marker");
        (text(&single.stdout), body.to_string())
    } else {
        let err = text(&batch.stderr);
        // With patterns, the batch prints its rewrite total before the
        // per-input results.
        let err = match err.split_once('\n') {
            Some((first, rest)) if first.starts_with("applied ") => rest.to_string(),
            _ => err,
        };
        let body = err
            .strip_prefix(&format!("error: {input}:\n"))
            .and_then(|rest| rest.strip_suffix("error: 1 input(s) failed\n"))
            .expect("batch error is framed by the file name and the failure count");
        let single_err = text(&single.stderr);
        let single_body =
            single_err.strip_prefix("error: ").expect("single-input error is prefixed");
        (single_body.to_string(), body.to_string())
    };
    (single, single_text, batch_text)
}

#[test]
fn conorm_rewrite_prints_the_same_module() {
    let dir = scratch("conorm");
    let patterns = write(&dir, "conorm.pat", CONORM_PATTERN);
    let input = write(&dir, "conorm.ir", CONORM_INPUT);
    for verify in [&["--verify"][..], &["--verify-each=full"], &["--verify-each=incr"], &[]] {
        let mut args = vec!["--showcase", "--patterns", patterns.as_str()];
        args.extend_from_slice(verify);
        let (single, single_text, batch_text) = single_and_batch(&args, &input);
        assert!(single.status.success(), "{args:?}: {}", text(&single.stderr));
        assert_eq!(text(&single.stderr), "applied 1 rewrite(s)\n");
        assert!(single_text.contains("cmath.mul"), "{single_text}");
        assert!(!single_text.contains("arith.mulf"), "{single_text}");
        assert_eq!(single_text, batch_text, "{args:?}");
    }
    std::fs::remove_dir_all(dir).expect("remove scratch dir");
}

#[test]
fn constraint_violation_reports_the_same_error() {
    let dir = scratch("violation");
    let patterns = write(&dir, "conorm.pat", CONORM_PATTERN);
    let input = write(&dir, "violation.ir", VIOLATION_INPUT);
    for args in [
        vec!["--showcase", "--verify"],
        vec!["--showcase", "--patterns", patterns.as_str(), "--verify-each=full"],
        vec!["--showcase", "--patterns", patterns.as_str(), "--verify-each=incr"],
    ] {
        let (single, single_text, batch_text) = single_and_batch(&args, &input);
        assert_eq!(single.status.code(), Some(1), "{args:?}");
        assert!(single_text.contains("cmath.mul"), "{args:?}: {single_text}");
        assert_eq!(single_text, batch_text, "{args:?}");
    }
    std::fs::remove_dir_all(dir).expect("remove scratch dir");
}

#[test]
fn parse_error_reports_the_same_error() {
    let dir = scratch("parse");
    let input = write(&dir, "broken.ir", PARSE_ERROR_INPUT);
    let (single, single_text, batch_text) = single_and_batch(&["--showcase"], &input);
    assert_eq!(single.status.code(), Some(1));
    assert!(single_text.contains("error at 1:"), "{single_text}");
    assert_eq!(single_text, batch_text);
    std::fs::remove_dir_all(dir).expect("remove scratch dir");
}
