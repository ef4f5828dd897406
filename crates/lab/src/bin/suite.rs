//! Run a named scenario suite and write its JSON report.
//!
//! ```sh
//! cargo run --release -p awake-lab --bin suite -- --preset quick --audit
//! suite [--preset NAME] [--seed N] [--shards K] [--out PATH] [--audit]
//!       [--canonical] [--filter SUBSTR] [--list] [--budget-secs N]
//!       [--checkpoint-dir DIR] [--checkpoint-every N] [--resume DIR]
//! ```
//!
//! Exits non-zero if any scenario fails to run or fails validation; with
//! `--audit`, also if any scenario's measured awake/round complexity
//! exceeds its closed-form budget (`bound_ok = false` in the report).
//! Fault-injected scenarios are **not** exempt from either gate: they must
//! recover to a valid output and stay within the closed-form *degraded*
//! budget (`awake_core::bounds::degraded_budget_for`) their fault plan
//! implies.
//! Every preset writes one report format (`awake-lab/report/v5`): the
//! full form with wall time and allocations, or with `--canonical` the
//! deterministic form the goldens under `crates/lab/tests/` pin. CI
//! checks the `regime` and `scaling` sweeps, the paper's numbers, with
//! `diff -u` against their goldens.
//!
//! `--budget-secs N` is CI's hard wall-clock gate: if the whole suite
//! takes longer than `N` seconds, the run fails *after completing*,
//! naming the slowest scenario (the first candidate to shrink or move to
//! the weekly deep sweep).
//!
//! All report files are written atomically (same-directory temp file +
//! rename), so a killed run never leaves a torn document under a final
//! name. With `--checkpoint-dir DIR` the run is *recoverable*: completed
//! scenarios persist to `DIR/progress.json` and in-flight engine state
//! snapshots to `DIR/<scenario>.ckpt` every `--checkpoint-every` rounds;
//! after a kill, `--resume DIR` continues from the persisted state to a
//! report that is byte-for-byte identical (in `--canonical` form) to the
//! uninterrupted run's.

use awake_lab::fsio::write_atomic;
use awake_lab::runner::Runner;
use awake_lab::scenario::presets;
use std::alloc::{GlobalAlloc, Layout, System};
use std::num::NonZeroU64;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts heap allocations so the suite can report per-scenario deltas.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

struct Args {
    preset: String,
    seed: u64,
    shards: usize,
    out: String,
    list: bool,
    filter: Option<String>,
    audit: bool,
    canonical: bool,
    budget_secs: Option<u64>,
    checkpoint_dir: Option<String>,
    checkpoint_every: Option<NonZeroU64>,
    resume: Option<String>,
}

/// `--checkpoint-every` when only `--checkpoint-dir` is given.
const DEFAULT_EVERY: NonZeroU64 = NonZeroU64::new(100_000).unwrap();

fn usage() -> ! {
    eprintln!(
        "usage: suite [--preset NAME] [--seed N] [--shards K] [--out PATH] [--audit] [--canonical] [--filter SUBSTR] [--list] [--budget-secs N] [--checkpoint-dir DIR] [--checkpoint-every N] [--resume DIR]\n\
         \n  --preset NAME        suite preset to run (default: quick)\
         \n  --seed N             suite seed; scenario seeds derive from it (default: 1)\
         \n  --shards K           run up to K scenarios concurrently (default: 1)\
         \n  --out PATH           where to write the JSON report (default: suite_report.json)\
         \n  --audit              fail if any measured awake/round complexity exceeds its closed-form budget\
         \n  --canonical          write the byte-stable canonical JSON form (no timing/alloc noise)\
         \n  --filter SUBSTR      run only scenarios whose name contains SUBSTR\
         \n  --list               list presets with scenario counts and gate flags, then exit\
         \n  --budget-secs N      fail if the suite's wall time exceeds N seconds, naming the slowest scenario\
         \n  --checkpoint-dir DIR make the run recoverable: persist progress and engine snapshots under DIR\
         \n  --checkpoint-every N snapshot in-flight engine state every N >= 1 rounds (default: 100000; needs --checkpoint-dir)\
         \n  --resume DIR         continue a killed recoverable run from DIR's progress and snapshots"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        preset: "quick".into(),
        seed: 1,
        shards: 1,
        out: "suite_report.json".into(),
        list: false,
        filter: None,
        audit: false,
        canonical: false,
        budget_secs: None,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| usage_missing(name));
        match flag.as_str() {
            "--preset" => args.preset = value("--preset"),
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--shards" => args.shards = value("--shards").parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = value("--out"),
            "--filter" => args.filter = Some(value("--filter")),
            "--audit" => args.audit = true,
            "--canonical" => args.canonical = true,
            "--budget-secs" => {
                args.budget_secs = Some(value("--budget-secs").parse().unwrap_or_else(|_| usage()))
            }
            "--checkpoint-dir" => args.checkpoint_dir = Some(value("--checkpoint-dir")),
            "--checkpoint-every" => {
                args.checkpoint_every = Some(
                    value("--checkpoint-every")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--resume" => args.resume = Some(value("--resume")),
            "--list" => args.list = true,
            _ => usage(),
        }
    }
    args
}

fn usage_missing(name: &str) -> ! {
    eprintln!("missing value for {name}");
    usage()
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.list {
        println!("available presets:");
        for p in presets::registry() {
            let flags = if p.flags.is_empty() {
                String::new()
            } else {
                format!(" ({})", p.flags.join(", "))
            };
            println!(
                "  {:<10} {} [{} scenarios]{flags}",
                p.name,
                p.desc,
                p.scenarios.len()
            );
        }
        return ExitCode::SUCCESS;
    }

    let Some(mut scenarios) = presets::by_name(&args.preset) else {
        eprintln!(
            "unknown preset `{}` — try --list for the registry",
            args.preset
        );
        return ExitCode::from(2);
    };
    if let Some(filter) = &args.filter {
        scenarios.retain(|s| s.name.contains(filter.as_str()));
        if scenarios.is_empty() {
            eprintln!(
                "filter `{filter}` matches no scenario of preset `{}`",
                args.preset
            );
            return ExitCode::from(2);
        }
    }

    // --checkpoint-dir starts (or continues) a recoverable run under DIR;
    // --resume is the same mode but defaults to consuming snapshots only.
    // Either way scenarios run serially, so the shard count is ignored.
    let recovery: Option<(&str, Option<NonZeroU64>)> = match (&args.checkpoint_dir, &args.resume) {
        (Some(_), Some(_)) => {
            eprintln!("--checkpoint-dir and --resume are mutually exclusive (both name DIR)");
            return ExitCode::from(2);
        }
        (Some(dir), None) => Some((dir, Some(args.checkpoint_every.unwrap_or(DEFAULT_EVERY)))),
        (None, Some(dir)) => Some((dir, args.checkpoint_every)),
        (None, None) => {
            if args.checkpoint_every.is_some() {
                eprintln!("--checkpoint-every needs --checkpoint-dir (or --resume)");
                return ExitCode::from(2);
            }
            None
        }
    };

    println!(
        "suite `{}`: {} scenarios, seed {}, {} shard(s)\n",
        args.preset,
        scenarios.len(),
        args.seed,
        args.shards
    );
    let runner = if args.shards > 1 {
        Runner::sharded(args.shards)
    } else {
        Runner::serial()
    }
    .with_alloc_probe(alloc_count);

    let t0 = Instant::now();
    let run = match recovery {
        Some((dir, every)) => {
            runner.run_recoverable(&args.preset, &scenarios, args.seed, Path::new(dir), every)
        }
        None => runner.run(&args.preset, &scenarios, args.seed),
    };
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("suite failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.text_table());
    let elapsed = t0.elapsed();
    println!("\nsuite wall time: {elapsed:.2?}");

    let body = if args.canonical {
        report.canonical_json()
    } else {
        report.to_json()
    };
    if let Err(e) = write_atomic(Path::new(&args.out), body.as_bytes()) {
        eprintln!("cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out);

    // The hard wall-clock budget gate (CI's per-PR sweep guard). Checked
    // after the report is written so a budget failure still leaves it
    // behind for inspection.
    if let Some(budget) = args.budget_secs {
        if elapsed.as_secs_f64() > budget as f64 {
            let slowest = report
                .scenarios
                .iter()
                .max_by(|a, b| a.timing.wall_ns.total_cmp(&b.timing.wall_ns))
                .expect("non-empty suite");
            eprintln!(
                "budget FAILED: suite took {:.1}s > {budget}s; slowest scenario: {} ({:.1}s)",
                elapsed.as_secs_f64(),
                slowest.name,
                slowest.timing.wall_ns / 1e9
            );
            return ExitCode::FAILURE;
        }
        println!("budget ok: {:.1}s of {budget}s", elapsed.as_secs_f64());
    }

    // Every row faces both exit gates — there is no fault exemption.
    // Fault-injected scenarios recover through the time-redundancy
    // contract, must still validate, and their budget columns carry the
    // closed-form *degraded* budgets, so `bound_ok` is contractual there
    // too (graceful degradation is audited, not waived).
    let faulted = scenarios.iter().filter(|sc| sc.faults.is_some()).count();
    if faulted > 0 {
        println!("note: {faulted} fault-injected scenario(s) gate against their degraded budgets");
    }
    let invalid: Vec<&str> = report
        .scenarios
        .iter()
        .filter(|s| !s.valid)
        .map(|s| s.name.as_str())
        .collect();
    if !invalid.is_empty() {
        eprintln!("validation FAILED for: {}", invalid.join(", "));
        return ExitCode::FAILURE;
    }

    if args.audit {
        let violations: Vec<String> = report
            .scenarios
            .iter()
            .filter(|s| !s.bound_ok)
            .map(|s| {
                format!(
                    "{}: awake {}/{}, rounds {}/{}",
                    s.name, s.metrics.max_awake, s.awake_bound, s.metrics.rounds, s.round_bound
                )
            })
            .collect();
        if !violations.is_empty() {
            eprintln!("budget audit FAILED (measured > bound) for:");
            for v in &violations {
                eprintln!("  {v}");
            }
            return ExitCode::FAILURE;
        }
        println!(
            "budget audit passed: {} scenario(s) within their closed-form bounds",
            report.scenarios.len()
        );
    }
    ExitCode::SUCCESS
}
