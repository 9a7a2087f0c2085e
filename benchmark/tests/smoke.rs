//! Keeps the harness from rotting: `--smoke` runs all four workloads
//! at tiny sizes, untraced and traced, with every correctness check,
//! and holds the emitted metric names and units against
//! `BENCHMARK.json`.

use std::process::Command;

#[test]
fn smoke_run_passes_every_check() {
    let output = Command::new(env!("CARGO_BIN_EXE_suj-benchmark"))
        .arg("--smoke")
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "--smoke failed\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}"
    );
    // Four workloads, two runs each, one result line per run.
    let results = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\": true"))
        .count();
    assert_eq!(results, 8, "expected 8 result lines\n{stdout}");
}
