//! The command-line tools end to end: `irdl-run`, `irdl-bc`, `irdl-doc`
//! and `irdl-fmt`, plus the input handling `irdl-opt` shares with them.
//! Each case pins the exact stdout, the exit status and, for the failures,
//! the exact stderr.
//!
//! Every case runs inside its own scratch directory and names its files
//! relative to it, so diagnostics that quote a file name are
//! machine-independent.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// A showcase module whose one sink observes `norm(3 + 4i) * 2.5`.
const SHOWCASE_INPUT: &str = r#""builtin.module"() ({
  %z = "cmath.create_constant"() {re = 3.0 : f32, im = 4.0 : f32} : () -> !cmath.complex<f32>
  %n = "cmath.norm"(%z) : (!cmath.complex<f32>) -> f32
  %k = "arith.constant"() {value = 2.5 : f32} : () -> f32
  %r = "arith.mulf"(%n, %k) : (f32, f32) -> f32
  "func.return_op"(%r) : (f32) -> ()
}) : () -> ()
"#;

/// What `irdl-run --showcase` prints for [`SHOWCASE_INPUT`].
const SHOWCASE_REPORT: &str = "func.return_op(12.5 : f32)\n// return (6 step(s))\n";

/// [`SHOWCASE_INPUT`] as the showcase printer writes it.
const SHOWCASE_PRINTED: &str = r#""builtin.module"() ({
  %0 = "cmath.create_constant"() {re = 3.0 : f32, im = 4.0 : f32} : () -> !cmath.complex<f32>
  %1 = cmath.norm %0 : f32
  %2 = "arith.constant"() {value = 2.5 : f32} : () -> f32
  %3 = arith.mulf %1, %2 : f32
  "func.return_op"(%3) : (f32) -> ()
}) : () -> ()
"#;

/// An unterminated operation name.
const PARSE_ERROR_INPUT: &str = "%broken = \"cmath.mul\n";

/// A one-op spec in canonical form.
const CANONICAL_SPEC: &str = "Dialect toy {
  Operation double {
    Operands (x: !i32)
    Results (r: !i32)
  }
}
";

/// [`CANONICAL_SPEC`] squeezed onto fewer lines.
const SQUEEZED_SPEC: &str = "Dialect toy {
  Operation double { Operands (x: !i32) Results (r: !i32) }
}
";

/// A spec naming a type no dialect defines.
const BAD_SPEC: &str = "Dialect bad {
  Operation x { Operands (a: !nosuch) }
}
";

/// A scratch directory private to one test.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("irdl-cli-golden-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn write(&self, name: &str, contents: &str) {
        std::fs::write(self.0.join(name), contents).expect("write scratch file");
    }

    fn read(&self, name: &str) -> Vec<u8> {
        std::fs::read(self.0.join(name)).expect("read scratch file")
    }

    /// Runs `bin` with `args` in this directory, feeding `stdin` when given
    /// (an empty stdin otherwise).
    fn run(&self, bin: &str, args: &[&str], stdin: Option<&[u8]>) -> Output {
        let mut child = Command::new(bin)
            .args(args)
            .current_dir(&self.0)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("tool starts");
        let mut pipe = child.stdin.take().expect("stdin is piped");
        if let Some(bytes) = stdin {
            pipe.write_all(bytes).expect("write stdin");
        }
        drop(pipe);
        child.wait_with_output().expect("tool runs")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const IRDL_OPT: &str = env!("CARGO_BIN_EXE_irdl-opt");
const IRDL_RUN: &str = env!("CARGO_BIN_EXE_irdl-run");
const IRDL_BC: &str = env!("CARGO_BIN_EXE_irdl-bc");
const IRDL_DOC: &str = env!("CARGO_BIN_EXE_irdl-doc");
const IRDL_FMT: &str = env!("CARGO_BIN_EXE_irdl-fmt");

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("utf-8 output")
}

/// Asserts a successful run printed exactly `stdout` and nothing on stderr.
fn assert_ok(out: &Output, stdout: &str) {
    assert_eq!(text(&out.stderr), "");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(text(&out.stdout), stdout);
}

/// Asserts a run exited with `code`, printed nothing on stdout and exactly
/// `stderr` on stderr.
fn assert_fails(out: &Output, code: i32, stderr: &str) {
    assert_eq!(text(&out.stdout), "");
    assert_eq!(text(&out.stderr), stderr);
    assert_eq!(out.status.code(), Some(code));
}

#[test]
fn irdl_run_prints_the_showcase_observations() {
    let dir = Scratch::new("run-showcase");
    dir.write("m.ir", SHOWCASE_INPUT);
    assert_ok(&dir.run(IRDL_RUN, &["--showcase", "m.ir"], None), SHOWCASE_REPORT);
    assert_ok(
        &dir.run(IRDL_RUN, &["--showcase", "--digest", "m.ir"], None),
        "observe func.return_op(12.5 : f32)\nreturn\n",
    );
    assert_ok(
        &dir.run(IRDL_RUN, &["--showcase"], Some(SHOWCASE_INPUT.as_bytes())),
        SHOWCASE_REPORT,
    );
}

#[test]
fn irdl_run_decodes_module_bytecode() {
    let dir = Scratch::new("run-bytecode");
    dir.write("m.ir", SHOWCASE_INPUT);
    let encoded = dir.run(IRDL_OPT, &["--showcase", "--emit=bytecode", "m.ir"], None);
    assert_eq!(encoded.status.code(), Some(0));
    std::fs::write(dir.0.join("m.irbc"), &encoded.stdout).expect("write bytecode");
    assert_ok(&dir.run(IRDL_RUN, &["--showcase", "m.irbc"], None), SHOWCASE_REPORT);
    assert_ok(
        &dir.run(IRDL_RUN, &["--showcase", "--digest", "m.irbc"], None),
        "observe func.return_op(12.5 : f32)\nreturn\n",
    );
    assert_ok(&dir.run(IRDL_RUN, &["--showcase"], Some(&encoded.stdout)), SHOWCASE_REPORT);
}

#[test]
fn irdl_opt_batch_reads_stdin_as_the_one_input() {
    let dir = Scratch::new("opt-jobs-stdin");
    let stdin = Some(SHOWCASE_INPUT.as_bytes());
    assert_ok(&dir.run(IRDL_OPT, &["--showcase"], stdin), SHOWCASE_PRINTED);
    assert_ok(
        &dir.run(IRDL_OPT, &["--showcase", "--jobs", "2"], stdin),
        &format!("// ----- <stdin>\n{SHOWCASE_PRINTED}"),
    );
}

#[test]
fn irdl_run_reports_a_parse_error() {
    let dir = Scratch::new("run-parse-error");
    dir.write("bad.ir", PARSE_ERROR_INPUT);
    assert_fails(
        &dir.run(IRDL_RUN, &["--showcase", "bad.ir"], None),
        1,
        "error: error at 1:11: unterminated string literal\n  | %broken = \"cmath.mul\n  |           ^\n",
    );
}

#[test]
fn irdl_bc_encode_decode_round_trips() {
    let dir = Scratch::new("bc-round-trip");
    dir.write("m.ir", SHOWCASE_INPUT);
    assert_ok(&dir.run(IRDL_BC, &["encode", "--showcase", "m.ir", "-o", "m.irbc"], None), "");
    assert!(dir.read("m.irbc").starts_with(b"IRBC"));
    assert_ok(&dir.run(IRDL_BC, &["decode", "--showcase", "m.irbc"], None), SHOWCASE_PRINTED);

    // Without -o the bytes go to stdout; encoding bytecode passes it through.
    let encoded = dir.run(IRDL_BC, &["encode", "--showcase", "m.ir"], None);
    assert_eq!(encoded.status.code(), Some(0));
    assert_eq!(encoded.stdout, dir.read("m.irbc"));
    let again = dir.run(IRDL_BC, &["encode", "--showcase"], Some(&encoded.stdout));
    assert_eq!(again.status.code(), Some(0));
    assert_eq!(again.stdout, encoded.stdout);
}

#[test]
fn irdl_bc_inspects_a_module_and_a_bundle() {
    let dir = Scratch::new("bc-inspect");
    dir.write("m.ir", SHOWCASE_INPUT);
    dir.write("toy.irdl", CANONICAL_SPEC);
    assert_ok(&dir.run(IRDL_BC, &["encode", "--showcase", "m.ir", "-o", "m.irbc"], None), "");
    assert_ok(
        &dir.run(IRDL_BC, &["inspect", "m.irbc"], None),
        "magic:    IRBC (module)\n\
         version:  1\n\
         file:     224 bytes\n\
         section:  strings  (tag 1) 113 bytes\n\
         section:  pool     (tag 2) 40 bytes\n\
         section:  ops      (tag 3) 60 bytes\n",
    );
    assert_ok(&dir.run(IRDL_BC, &["bundle", "toy.irdl", "-o", "toy.irdb"], None), "");
    assert_ok(
        &dir.run(IRDL_BC, &["inspect", "toy.irdb"], None),
        "magic:    IRDB (dialect bundle)\n\
         version:  1\n\
         file:     59 bytes\n\
         section:  strings  (tag 1) 18 bytes\n\
         section:  pool     (tag 2) 4 bytes\n\
         section:  recipes  (tag 4) 26 bytes\n",
    );
}

#[test]
fn irdl_bc_refuses_to_decode_a_bundle() {
    let dir = Scratch::new("bc-decode-bundle");
    dir.write("toy.irdl", CANONICAL_SPEC);
    assert_ok(&dir.run(IRDL_BC, &["bundle", "toy.irdl", "-o", "toy.irdb"], None), "");
    assert_fails(
        &dir.run(IRDL_BC, &["decode", "toy.irdb"], None),
        1,
        "error: input is not a module file (try `irdl-bc inspect`)\n",
    );
}

#[test]
fn irdl_doc_documents_one_spec() {
    let dir = Scratch::new("doc-spec");
    dir.write("toy.irdl", CANONICAL_SPEC);
    assert_ok(
        &dir.run(IRDL_DOC, &["toy.irdl"], None),
        "# Dialect reference\n\
         \n\
         ## `toy`\n\
         \n\
         1 operation(s), 0 type(s), 0 attribute(s), 0 enum(s).\n\
         \n\
         ### Operations\n\
         \n\
         | name | operands | results | attrs | regions | summary |\n\
         |---|---|---|---|---|---|\n\
         | `toy.double` | 1 | 1 | 0 | 0 |  |\n",
    );
}

#[test]
fn irdl_doc_reports_a_spec_that_does_not_compile() {
    let dir = Scratch::new("doc-bad-spec");
    dir.write("bad.irdl", BAD_SPEC);
    assert_fails(
        &dir.run(IRDL_DOC, &["bad.irdl"], None),
        1,
        "error: bad.irdl:\n\
         error at 2:30: unknown name `nosuch` in dialect `bad`\n  \
         |   Operation x { Operands (a: !nosuch) }\n  \
         |                              ^\n  \
         note: in definition `a`\n  \
         note: in operation `bad.x`\n",
    );
}

#[test]
fn irdl_fmt_formats_stdin() {
    let dir = Scratch::new("fmt-stdin");
    assert_ok(&dir.run(IRDL_FMT, &[], Some(SQUEEZED_SPEC.as_bytes())), CANONICAL_SPEC);
}

#[test]
fn irdl_fmt_checks_canonical_form() {
    let dir = Scratch::new("fmt-check");
    dir.write("canonical.irdl", CANONICAL_SPEC);
    dir.write("squeezed.irdl", SQUEEZED_SPEC);
    assert_ok(&dir.run(IRDL_FMT, &["--check", "canonical.irdl"], None), "");
    assert_fails(
        &dir.run(IRDL_FMT, &["--check", "squeezed.irdl"], None),
        1,
        "squeezed.irdl: not canonically formatted\n",
    );
}
