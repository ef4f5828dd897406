//! Diff a fresh `BENCH_energy.json` against the committed one — CI's
//! compression-regression gate.
//!
//! ```sh
//! cargo run --release -p awake-lab --bin baseline-diff -- \
//!     BENCH_energy.json energy_current.json
//! ```
//!
//! Prints the per-point diff table and exits non-zero when a point's
//! `wall_ms / awake_events` rises more than [`COST_TOLERANCE`] above the
//! baseline's (see `awake_lab::baselines`).
//!
//! Exit codes: `0` gate passed, `1` gate failed (a point regressed),
//! `2` usage or malformed JSON, `3` an input file is missing or
//! unreadable (the error names the file and how to produce it).

use awake_lab::baselines::{self, COST_TOLERANCE};
use awake_lab::json;
use std::process::ExitCode;

/// Exit code for a missing/unreadable input file, distinct from parse
/// and usage errors (`2`) so CI can tell "you forgot to run the sweep"
/// from "the sweep emitted garbage".
const EXIT_NO_INPUT: u8 = 3;

/// Read and parse one input report. I/O failures (missing or unreadable
/// file) come back as `(EXIT_NO_INPUT, message-with-production-hint)`;
/// malformed JSON keeps the generic error code `2`.
fn load(path: &str, role: &str, hint: &str) -> Result<json::Value, (u8, String)> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        (
            EXIT_NO_INPUT,
            format!("cannot read the {role} report `{path}`: {e}\n  produce it with: {hint}"),
        )
    })?;
    json::parse(&text).map_err(|e| (2, format!("{path}: {e}")))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path] = argv.as_slice() else {
        eprintln!("usage: baseline-diff <baseline BENCH_energy.json> <current energy.json>");
        return ExitCode::from(2);
    };
    let result = (|| {
        let baseline = load(
            baseline_path,
            "baseline",
            "git restore the committed BENCH_energy.json, or bless a fresh sweep as the new baseline",
        )?;
        let current = load(
            current_path,
            "current",
            "cargo run --release -p awake-lab --bin suite -- --preset scaling --energy-out PATH",
        )?;
        baselines::diff_energy(&baseline, &current).map_err(|e| (2u8, e))
    })();
    let rows = match result {
        Ok(rows) => rows,
        Err((code, e)) => {
            eprintln!("baseline-diff: {e}");
            return ExitCode::from(code);
        }
    };

    println!(
        "compression regression gate: {baseline_path} vs {current_path} (tolerance {:.0}%)\n",
        COST_TOLERANCE * 100.0
    );
    print!("{}", baselines::render_table(&rows));

    let failed = baselines::failures(&rows);
    if failed.is_empty() {
        println!("\ngate PASSED");
        ExitCode::SUCCESS
    } else {
        println!("\ngate FAILED ({} point(s) regressed):", failed.len());
        for r in &failed {
            println!(
                "  {}: {:.4} -> {:.4} ({:+.1}%)",
                r.metric, r.baseline, r.current, r.change_pct
            );
        }
        ExitCode::FAILURE
    }
}
