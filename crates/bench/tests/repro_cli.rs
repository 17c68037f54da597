//! End-to-end tests of the `repro` command line: artifact-name validation and the
//! Section III-B `model-selection` table.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("the repro binary runs")
}

#[test]
fn unknown_artifact_is_a_usage_error() {
    // a typo, and the retired perf-measurement artifacts
    let retired = ["enumeration", "annealing", "prediction", "observability"]
        .map(|measurement| format!("bench-{measurement}"));
    for name in std::iter::once("tabel6").chain(retired.iter().map(String::as_str)) {
        let output = repro(&["--quick", name]);
        assert_eq!(output.status.code(), Some(2), "{name}");
        assert!(output.stdout.is_empty(), "{name}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("unknown artifact `{name}`")),
            "{stderr}"
        );
        assert!(
            stderr.contains("all model-selection\n"),
            "model-selection is the only extra artifact: {stderr}"
        );
    }
}

#[test]
fn quick_model_selection_prints_every_family() {
    let output = repro(&["--quick", "model-selection"]);
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    for family in [
        "boosted decision trees",
        "linear regression",
        "poisson regression",
    ] {
        assert!(stdout.contains(family), "missing {family} in:\n{stdout}");
    }
}
