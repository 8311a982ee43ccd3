//! Runs the benchmark binary's `--self-test`: every workload at smoke size
//! in both modes, every declared metric emitted with its unit, and every
//! histogram matching the reference. It goes through the binary because
//! `peak_rss_mb` is measured in child processes of that binary.

use std::process::Command;

#[test]
fn self_test_smoke() {
    let out = Command::new(env!("CARGO_BIN_EXE_sb-bench-e2e"))
        .arg("--self-test")
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "self-test failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
