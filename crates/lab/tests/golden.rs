//! Golden-snapshot and determinism tests for the suite report.
//!
//! The canonical JSON form of a suite report is a compatibility surface:
//! the committed snapshots pin it byte for byte at a fixed seed. If a
//! change legitimately alters the report (new metric, new preset member,
//! changed RNG derivation — all semver-relevant events), regenerate with
//!
//! ```sh
//! BLESS=1 cargo test -p awake-lab --test golden
//! ```

use awake_lab::report::Report;
use awake_lab::runner::Runner;
use awake_lab::scenario::presets;

/// The seed the snapshots were blessed at (also the suite binary's default).
const GOLDEN_SEED: u64 = 1;

fn report(preset: &str, runner: Runner) -> Report {
    let suite = presets::by_name(preset).expect("preset exists");
    runner
        .run(preset, &suite, GOLDEN_SEED)
        .unwrap_or_else(|e| panic!("{preset} suite runs: {e:?}"))
}

/// Checks `preset` against its committed snapshot at
/// `tests/golden_<preset>.json`, and byte-identical at shard counts
/// 1, 2, 4 and 7 (the runner's determinism contract, fault-injected rows
/// included).
fn assert_matches_golden_at_any_shard_count(preset: &str) {
    let serial = report(preset, Runner::serial());
    assert!(
        serial.scenarios.iter().all(|s| s.valid),
        "{preset}: validators must accept every scenario"
    );
    let canon = serial.canonical_json();
    for shards in [1usize, 2, 4, 7] {
        let sharded = report(preset, Runner::sharded(shards));
        assert_eq!(
            canon,
            sharded.canonical_json(),
            "{preset}: shards = {shards}"
        );
    }
    let path = format!("{}/tests/golden_{preset}.json", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &canon).expect("write blessed snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("committed snapshot exists");
    assert_eq!(
        canon, expected,
        "canonical {preset} JSON drifted from {path} — if the change is \
         intentional, regenerate with BLESS=1"
    );
}

// `quick` and `edges` are fault-free; `faults` and `soak` carry nonzero
// fault and recovery columns, so every counter column is pinned with a
// nonzero value somewhere.

#[test]
fn quick_canonical_json_matches_golden_snapshot() {
    assert_matches_golden_at_any_shard_count("quick");
}

#[test]
fn edges_canonical_json_matches_golden_snapshot_at_any_shard_count() {
    assert_matches_golden_at_any_shard_count("edges");
}

#[test]
fn faults_canonical_json_matches_golden_snapshot_at_any_shard_count() {
    assert_matches_golden_at_any_shard_count("faults");
}

#[test]
fn soak_canonical_json_matches_golden_snapshot_at_any_shard_count() {
    assert_matches_golden_at_any_shard_count("soak");
}

#[test]
fn serial_and_sharded_runners_produce_identical_reports() {
    let serial = report("quick", Runner::serial());
    let sharded = report("quick", Runner::sharded(4));

    // Everything deterministic must agree, scenario by scenario…
    assert_eq!(serial.scenarios.len(), sharded.scenarios.len());
    for (a, b) in serial.scenarios.iter().zip(&sharded.scenarios) {
        assert_eq!(a.name, b.name, "suite order must be preserved");
        assert_eq!(a.seed, b.seed);
        assert_eq!((a.n, a.m), (b.n, b.m));
        assert_eq!(a.valid, b.valid);
        assert_eq!(a.metrics, b.metrics, "metrics differ for {}", a.name);
    }
    // …and so must the canonical serialization, byte for byte.
    assert_eq!(serial.canonical_json(), sharded.canonical_json());
}
