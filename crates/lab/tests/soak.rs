//! The adversarial fault soak: every scenario recovers to a valid output
//! within its closed-form degraded budget, and the executor matrix
//! (serial plus 1/2/4/8 workers) is bit-for-bit equivalent on the shared
//! crash stream.

use awake_lab::runner::Runner;
use awake_lab::scenario::presets;

const SOAK_SEED: u64 = 1;

#[test]
fn soak_preset_recovers_validly_within_degraded_budgets() {
    let suite = presets::by_name("soak").expect("soak preset registered");
    let report = Runner::serial()
        .run("soak", &suite, SOAK_SEED)
        .expect("soak suite runs");
    assert_eq!(report.scenarios.len(), suite.len());
    for s in &report.scenarios {
        assert!(s.valid, "{}: output invalid after the fault soak", s.name);
        assert!(
            s.bound_ok,
            "{}: awake {} / rounds {} exceed degraded bounds {} / {}",
            s.name, s.metrics.max_awake, s.metrics.rounds, s.awake_bound, s.round_bound
        );
        let injected = s.metrics.counters.faults_dropped
            + s.metrics.counters.faults_duplicated
            + s.metrics.counters.faults_delayed
            + s.metrics.counters.faults_crashed;
        assert!(injected > 0, "{}: the adversary never fired", s.name);
    }
}

#[test]
fn soak_crash_matrix_is_bit_for_bit_across_worker_counts() {
    let suite = presets::by_name("soak").expect("soak preset registered");
    let report = Runner::serial()
        .run("soak", &suite, SOAK_SEED)
        .expect("soak suite runs");

    // The decision-crash rows run serial, then 1/2/4/8 workers, over one
    // graph and one fault stream; every metric column must agree.
    let crash_rows: Vec<_> = report
        .scenarios
        .iter()
        .filter(|s| s.name.starts_with("mis/gnp-64"))
        .collect();
    assert_eq!(crash_rows.len(), 5, "serial + 4 worker counts");
    let reference = crash_rows[0];
    assert!(
        reference.metrics.counters.faults_crashed > 0,
        "crash storm must land"
    );
    for row in &crash_rows[1..] {
        assert_eq!(
            row.metrics, reference.metrics,
            "{} diverged from {}",
            row.name, reference.name
        );
        assert_eq!((row.n, row.m), (reference.n, reference.m));
        assert_eq!(row.seed, reference.seed, "shared family must share seed");
    }

    // The tree-drop pair (serial vs. 4 workers) agrees the same way.
    let tree_rows: Vec<_> = report
        .scenarios
        .iter()
        .filter(|s| s.name.starts_with("coloring/tree-72"))
        .collect();
    assert_eq!(tree_rows.len(), 2);
    assert!(
        tree_rows[0].metrics.counters.faults_dropped > 0,
        "drops must land"
    );
    assert_eq!(tree_rows[0].metrics, tree_rows[1].metrics);
}
