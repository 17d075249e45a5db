//! The "byte-identical `repro`" contract as a test: stdout of `repro all`
//! and of each beyond-the-paper artifact at the tiny scale, compared byte
//! for byte with the transcripts committed under `tests/golden/`.
//!
//! The goldens were captured from the tree *before* the harness refactor
//! they guard and are not edited by it. A diff here means a simulated
//! (virtual-time) number or a rendered byte moved: either revert, or say
//! in CHANGES.md which table moved and why and regenerate with
//!
//! ```text
//! repro <artifact> --docs 60 --doc-bytes 1536 --repeats 2 > crates/bench/tests/golden/<artifact>.txt
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `repro <artifact>` at the tiny scale in its own scratch directory
/// (the binary writes `BENCH_*.json` / `TRACE_repro.json` to the working
/// directory) and returns stdout.
fn repro_stdout(artifact: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("golden-{artifact}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg(artifact)
        .args(["--docs", "60", "--doc-bytes", "1536", "--repeats", "2"])
        .env_remove("AMADA_FAULT_SEED")
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro {artifact} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("repro prints UTF-8")
}

fn assert_matches_golden(artifact: &str) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{artifact}.txt"));
    let expected = std::fs::read_to_string(&golden).expect("golden transcript is committed");
    let actual = repro_stdout(artifact);
    if actual != expected {
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "repro {artifact} differs from {} at line {}:\n  got:      {:?}\n  expected: {:?}",
            golden.display(),
            line + 1,
            actual.lines().nth(line),
            expected.lines().nth(line),
        );
    }
}

#[test]
fn all_is_byte_identical() {
    assert_matches_golden("all");
}

#[test]
fn churn_is_byte_identical() {
    assert_matches_golden("churn");
}

#[test]
fn shard_is_byte_identical() {
    assert_matches_golden("shard");
}

#[test]
fn scale_is_byte_identical() {
    assert_matches_golden("scale");
}

#[test]
fn pushdown_is_byte_identical() {
    assert_matches_golden("pushdown");
}

#[test]
fn advise_is_byte_identical() {
    assert_matches_golden("advise");
}

/// The one artifact whose numbers depend on the order of jitter draws, at
/// the default fault seed (the harness removes `AMADA_FAULT_SEED`).
#[test]
fn fault_is_byte_identical() {
    assert_matches_golden("fault");
}
