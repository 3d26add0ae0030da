//! Corruption robustness: malformed bytecode must always produce a
//! diagnostic, never a panic, an out-of-bounds read, or a runaway
//! allocation.
//!
//! Two layers of coverage:
//! - pinned hand-corrupted fixtures under `tests/fixtures/bytecode/`, so
//!   the exact bytes that once exercised each reject path stay in the
//!   repository and keep failing the same way, and
//! - programmatic sweeps (every truncation length, single-byte
//!   overwrites at every offset) over a known-good file, so new decoder
//!   code is immediately exposed to the whole corruption surface.

use irdl_repro::ir::bytecode::{decode_module, ByteReader};
use irdl_repro::ir::print::op_to_string;
use irdl_repro::ir::Context;
use irdl_repro::irdl::DialectBundle;

fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/fixtures/bytecode/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The valid control fixture decodes and prints exactly the pinned text.
#[test]
fn valid_fixture_decodes_to_pinned_text() {
    let bytes = fixture("valid.irbc");
    let expected = String::from_utf8(fixture("valid.mlir")).unwrap();
    let mut ctx = Context::new();
    let module = decode_module(&mut ctx, &bytes).expect("valid fixture decodes");
    assert_eq!(format!("{}\n", op_to_string(&ctx, module)), expected);
}

#[test]
fn corrupted_fixtures_fail_with_diagnostics() {
    // (fixture, required diagnostic fragment)
    let cases = [
        ("bad_magic.irbc", "bad magic"),
        ("bad_version.irbc", "unsupported version"),
        ("truncated.irbc", "truncated"),
        ("oob_index.irbc", "out of range"),
    ];
    for (name, fragment) in cases {
        let bytes = fixture(name);
        let mut ctx = Context::new();
        let err = decode_module(&mut ctx, &bytes)
            .expect_err(&format!("{name} must not decode"))
            .to_string();
        assert!(
            err.contains(fragment),
            "{name}: diagnostic `{err}` does not mention `{fragment}`"
        );
    }
}

/// Every strict prefix of a valid file is rejected with a diagnostic.
#[test]
fn every_truncation_is_rejected() {
    let bytes = fixture("valid.irbc");
    let mut ctx = Context::new();
    for len in 0..bytes.len() {
        let err = decode_module(&mut ctx, &bytes[..len]);
        assert!(err.is_err(), "prefix of {len} bytes unexpectedly decoded");
    }
}

/// Overwriting any single byte with adversarial values never panics: the
/// decoder either rejects the bytes with a diagnostic or produces some
/// well-formed module (flips inside literal payloads are semantically
/// visible but structurally harmless).
#[test]
fn single_byte_overwrites_never_panic() {
    let bytes = fixture("valid.irbc");
    let mut ctx = Context::new();
    for pos in 0..bytes.len() {
        for value in [0x00, 0x7F, 0xFF, bytes[pos] ^ 0x01] {
            let mut corrupt = bytes.clone();
            corrupt[pos] = value;
            if let Ok(module) = decode_module(&mut ctx, &corrupt) {
                // A benign flip: the module must still print.
                let _ = op_to_string(&ctx, module);
                ctx.erase_op(module);
            }
        }
    }
}

/// Module and artifact magics are not interchangeable, and artifact
/// corruption is diagnosed, not fatal.
#[test]
fn artifact_corruption_is_diagnosed() {
    let natives = irdl_repro::dialects::corpus_natives();
    let sources = irdl_repro::dialects::corpus_sources();
    let bundle = DialectBundle::compile(&sources, &natives).expect("corpus compiles");
    let artifact = bundle.save().expect("corpus saves");

    // A bundle artifact is not a module.
    let mut ctx = Context::new();
    let err = decode_module(&mut ctx, &artifact).expect_err("IRDB bytes are not IRBC");
    assert!(err.to_string().contains("magic"), "unexpected diagnostic: {err}");

    // Truncated artifacts are rejected at every length.
    for len in (0..artifact.len()).step_by(7) {
        assert!(
            DialectBundle::load(&artifact[..len], &natives).is_err(),
            "artifact prefix of {len} bytes unexpectedly loaded"
        );
    }

    // A strings, pool or recipes section given twice is rejected at the
    // repeat's payload; a second strings section would otherwise swap the
    // table under later entries, and a second recipes section replace the
    // first one's recipes.
    let mut r = ByteReader::new(&artifact);
    r.take(5).expect("header");
    let mut sections = Vec::new();
    while !r.is_empty() {
        let start = r.offset();
        r.u8().expect("tag");
        let payload = r.sub_reader().expect("section").offset();
        sections.push((start, payload, r.offset()));
    }
    assert_eq!(sections.len(), 3, "strings, pool, recipes");
    for ((start, payload, end), name) in sections.into_iter().zip(["strings", "pool", "recipes"]) {
        let mut repeated = artifact[..end].to_vec();
        repeated.extend_from_slice(&artifact[start..]);
        let err = DialectBundle::load(&repeated, &natives)
            .err()
            .unwrap_or_else(|| panic!("a repeated {name} section loaded"));
        let at = payload + (end - start);
        assert_eq!(
            err.message(),
            format!("bytecode: repeated {name} section (at byte {at})"),
            "{name}"
        );
    }
}
