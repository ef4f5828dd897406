//! Exit-code and recoverability contracts of the `suite` binary — what
//! CI scripts and operators key on.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("awake-lab-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn suite(args: &[&str], cwd: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_suite"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn suite")
}

#[test]
fn suite_checkpoint_run_and_resume_produce_identical_reports() {
    let dir = scratch_dir("suite-resume");
    let filter = "mis/"; // a handful of quick-preset scenarios
    let base = [
        "--preset",
        "quick",
        "--filter",
        filter,
        "--seed",
        "4",
        "--canonical",
    ];

    // uninterrupted reference run
    let out = suite(&[&base[..], &["--out", "full.json"]].concat(), &dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let full = std::fs::read(dir.join("full.json")).unwrap();

    // checkpointed run, then a resume over its artifacts (the ledger is
    // complete, so the resume only reloads rows — the report must still
    // come out byte-identical)
    let out = suite(
        &[
            &base[..],
            &[
                "--out",
                "resumed.json",
                "--checkpoint-dir",
                "ckpts",
                "--checkpoint-every",
                "2",
            ],
        ]
        .concat(),
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read(dir.join("resumed.json")).unwrap(), full);
    std::fs::remove_file(dir.join("resumed.json")).unwrap();

    // drop the ledger to force the scenarios through their snapshots
    std::fs::remove_file(dir.join("ckpts/progress.json")).unwrap();
    let out = suite(
        &[
            &base[..],
            &["--out", "resumed.json", "--checkpoint-dir", "ckpts"],
        ]
        .concat(),
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(dir.join("resumed.json")).unwrap(),
        full,
        "resumed report differs from the uninterrupted run"
    );
    // atomic writes leave no temp residue
    assert!(!dir.join("resumed.json.tmp").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn suite_faults_preset_passes_validation_and_degraded_audit_gates() {
    // Fault-injected scenarios recover to valid outputs and gate against
    // their closed-form *degraded* budgets — no exemption from either gate.
    let dir = scratch_dir("suite-faults");
    let out = suite(
        &["--preset", "faults", "--audit", "--out", "faults.json"],
        &dir,
    );
    assert!(
        out.status.success(),
        "faults preset must pass both gates: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("gate against their degraded budgets"),
        "degraded gating must be stated: {text}"
    );
    assert!(
        !text.contains("exempt"),
        "the audit exemption is gone — no row may claim it: {text}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn suite_list_shows_scenario_counts_and_gate_flags() {
    let dir = scratch_dir("suite-list");
    let out = suite(&["--list"], &dir);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // every preset row carries its scenario count; the gated presets
    // advertise which gate treats them specially
    assert!(text.contains("scenarios]"), "counts missing: {text}");
    assert!(
        text.contains("  regime ") && text.contains("[44 scenarios]"),
        "the regime preset must be registered: {text}"
    );
    assert!(
        text.contains("(degraded-audit"),
        "fault presets must advertise degraded-budget gating: {text}"
    );
    assert!(
        text.contains("(budget-bounded)"),
        "scaling presets must advertise the wall-clock budget gate: {text}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn suite_budget_gate_fails_naming_the_slowest_scenario() {
    let dir = scratch_dir("suite-budget");
    let base = [
        "--preset",
        "quick",
        "--filter",
        "mis/",
        "--canonical",
        "--out",
        "r.json",
    ];

    // a zero-second budget always trips; the artifacts must still land
    let out = suite(&[&base[..], &["--budget-secs", "0"]].concat(), &dir);
    assert_eq!(out.status.code(), Some(1), "blown budget is a gate failure");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("budget FAILED") && err.contains("slowest scenario"),
        "failure must name the slowest scenario: {err}"
    );
    assert!(
        dir.join("r.json").exists(),
        "report must be written before the budget gate fires"
    );

    // a generous budget passes and reports the headroom
    let out = suite(&[&base[..], &["--budget-secs", "86400"]].concat(), &dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("budget ok"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn suite_rejects_contradictory_checkpoint_flags() {
    let dir = scratch_dir("suite-flags");
    let out = suite(&["--checkpoint-every", "5"], &dir);
    assert_eq!(out.status.code(), Some(2));
    // A zero interval is a bad flag value, not a panic (exit 101).
    let ckpt = dir.join("ckpt");
    let out = suite(
        &[
            "--preset",
            "faults",
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "0",
        ],
        &dir,
    );
    assert_eq!(out.status.code(), Some(2), "zero interval is a usage error");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: suite"));
    std::fs::remove_dir_all(&dir).unwrap();
}
