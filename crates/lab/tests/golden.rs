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
//!
//! The `regime` and `scaling` goldens carry the paper's numbers. Their
//! full runs take minutes in the test profile, so `BLESS=1` leaves them
//! alone: they are written by a release run of the suite,
//!
//! ```sh
//! cargo run --release -p awake-lab --bin suite -- \
//!     --preset scaling --canonical --out crates/lab/tests/golden_scaling.json
//! ```
//!
//! and CI diffs a fresh release run of each against its golden.

use awake_lab::json::{self, Value};
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

/// A `regime` or `scaling` row is cheap enough to re-run in the test
/// profile when its pinned `messages_sent` is at most this: the Theorem
/// 1 rows up to `n = 2^11` on sparse graphs and up to `m ≈ 2^11` in the
/// regime, with the baselines' rows of like size, about 5 s of a debug
/// build over both goldens.
const CHEAP_MESSAGES: f64 = 200_000.0;

/// The row lines of a canonical report (one scenario per line), each
/// without its trailing comma.
fn row_lines(canonical: &str) -> impl Iterator<Item = &str> {
    canonical
        .lines()
        .filter(|l| l.starts_with("    {"))
        .map(|l| l.trim_end_matches(','))
}

/// Checks `preset`'s release-blessed golden: its rows name the preset's
/// scenarios in suite order, and every cheap row (see
/// [`CHEAP_MESSAGES`]), run once serially, reproduces its golden line
/// byte for byte. A failure names the row.
fn assert_cheap_rows_match_release_golden(preset: &str) {
    let path = format!("{}/tests/golden_{preset}.json", env!("CARGO_MANIFEST_DIR"));
    let bless = format!(
        "if the change is intentional, regenerate it with `cargo run --release -p awake-lab \
         --bin suite -- --preset {preset} --canonical --out crates/lab/tests/golden_{preset}.json`"
    );
    let golden = std::fs::read_to_string(&path).expect("committed snapshot exists");
    let pinned: Vec<(String, f64, &str)> = row_lines(&golden)
        .map(|line| {
            let row = json::parse(line).expect("one JSON row per line");
            let name = row.get("name").and_then(Value::as_str).expect("named row");
            let messages = row.get("messages_sent").and_then(Value::as_f64);
            (name.to_string(), messages.expect("messages column"), line)
        })
        .collect();
    let suite = presets::by_name(preset).expect("preset exists");
    let names: Vec<&str> = pinned.iter().map(|(name, ..)| name.as_str()).collect();
    let want: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names, want,
        "{path} must list {preset}'s scenarios in order; {bless}"
    );

    let (cheap, pinned): (Vec<_>, Vec<_>) = suite
        .into_iter()
        .zip(pinned)
        .filter(|(_, (_, messages, _))| *messages <= CHEAP_MESSAGES)
        .unzip();
    assert!(
        !cheap.is_empty(),
        "{preset}: no row is cheap enough to re-run"
    );
    let fresh = Runner::serial()
        .run(preset, &cheap, GOLDEN_SEED)
        .unwrap_or_else(|e| panic!("{preset} rows run: {e:?}"))
        .canonical_json();
    let frame = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| !l.starts_with("    {"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(
        frame(&fresh),
        frame(&golden),
        "{preset}: report frame; {bless}"
    );
    for (line, (name, _, want)) in row_lines(&fresh).zip(&pinned) {
        assert_eq!(
            line, *want,
            "{preset}: row {name} drifted from {path}; {bless}"
        );
    }
}

#[test]
fn regime_golden_pins_the_paper_regime() {
    assert_cheap_rows_match_release_golden("regime");
}

#[test]
fn scaling_golden_pins_the_scaling_sweep() {
    assert_cheap_rows_match_release_golden("scaling");
}
