//! `repro` leaves one `BENCH_<artifact>.json` per selected artifact:
//! repeats run once, every file validates and carries its artifact's
//! headline numbers, and a later invocation overwrites nothing but its own.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repro(dir: &Path, artifacts: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(artifacts)
        .args(["--docs", "60", "--doc-bytes", "1536", "--repeats", "2"])
        .current_dir(dir)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro {artifacts:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("repro prints UTF-8")
}

fn report(dir: &Path, artifact: &str) -> String {
    let json = std::fs::read_to_string(dir.join(format!("BENCH_{artifact}.json")))
        .unwrap_or_else(|e| panic!("BENCH_{artifact}.json: {e}"));
    amada_obs::validate_json(&json).expect("report validates");
    assert!(json.contains(&format!("\"artifact\": \"{artifact}\"")));
    json
}

#[test]
fn one_report_per_artifact_in_one_process_or_two() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bench-json");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");

    // A repeated artifact used to panic; it runs, and prints, once.
    let stdout = repro(&dir, &["table4", "table4", "churn"]);
    assert_eq!(stdout.matches("== Table 4 - ").count(), 1);
    assert_eq!(stdout.matches("== Churn - ").count(), 1);
    let table4 = report(&dir, "table4");
    let churn = report(&dir, "churn");
    for number in [
        "\"sweep_points\": 6",
        "\"strategy_flips\": 4",
        "\"retracted_items\": ",
        "\"advisor_flip_pct\": 25",
    ] {
        assert!(churn.contains(number), "{number} missing from {churn}");
    }

    // A second process adds its own files and touches no other.
    repro(&dir, &["trace"]);
    assert!(report(&dir, "trace").contains("\"spans\": "));
    assert_eq!(report(&dir, "table4"), table4);
    assert_eq!(report(&dir, "churn"), churn);
}
