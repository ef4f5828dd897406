//! Paired A/B runs of the repository's benchmark: a base revision's
//! `perfbench` against the working tree's.
//!
//! ```sh
//! cargo run --release -p awake-bench --bin ab -- <base-revision>
//! ```
//!
//! The base revision's files are extracted with `git archive REV | tar -x`
//! into `target/ab/base`, so the run leaves `git worktree list` and `git
//! status` as they were. Each tree's `perfbench` is built once
//! (`--offline`, each into its own `CARGO_TARGET_DIR` under `target/ab/`);
//! the extracted tree is removed as soon as its binary is built, and on
//! every exit. Then, for
//! each of [`PAIRS`] pairs and each workload of `BENCHMARK.json`, three
//! runs of [`SECONDS`] seconds at seed [`SEED`]: base, head, and a second
//! head run, the A/A control. The order flips every pair, so no side
//! always runs first.
//!
//! For each workload and end-to-end metric of `BENCHMARK.json`,
//! `BENCH_ab.json` (`awake-lab/ab/v1`, at the workspace root) holds the
//! per-pair ratios head / base, their median and IQR, the number of pairs
//! head won, the distribution-free 95% confidence interval of the median
//! (two order statistics of the ratios, the 10th and 21st of 30, see
//! [`ci_ranks`]), the A/A ratios' (control / head) median and interval,
//! and a verdict. A metric is resolved when its interval excludes 1.0: a
//! timed one then reads `faster` or `slower`, any other `lower` or
//! `higher`; otherwise it reads `unresolved`. The deterministic
//! `max_awake` and `rounds` read `same`, `lower` or `higher` from the
//! values themselves.
//!
//! Exit codes: `0` no regression; `1` a regression, that is a resolved
//! change worse than [`WORSE_BY`] in the metric's direction or any rise of
//! a deterministic metric; `2` usage, or an unreadable `BENCHMARK.json`;
//! `3` a git or build step failed; `4` a run exited non-zero; `5` a run
//! reported failed solves; `6` a run's last line is not the benchmark's
//! JSON object. A run that fails stops the tool with no verdict.

use awake_lab::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Output, Stdio};

/// Pairs of runs per workload.
const PAIRS: usize = 30;
/// `--seconds` of every run.
const SECONDS: u32 = 2;
/// `--seed` of every run.
const SEED: u64 = 1;
/// A resolved change worse than this fraction fails.
const WORSE_BY: f64 = 0.03;
/// Metrics that are a pure function of the code and the seed: any rise
/// fails, and a fall is reported without an interval.
const DETERMINISTIC: [&str; 2] = ["max_awake", "rounds"];
/// Schema tag of `BENCH_ab.json`.
const SCHEMA: &str = "awake-lab/ab/v1";

/// Which binary made a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Base,
    Head,
    /// The head binary again: the A/A control.
    Control,
}

/// Why the tool stopped without a verdict; each has its own exit code.
#[derive(Debug, PartialEq)]
enum Error {
    /// Bad arguments or an unreadable `BENCHMARK.json`.
    Usage(String),
    /// A git or build step failed.
    Setup(String),
    /// A run exited non-zero (`None`: killed by a signal).
    Exit(Side, String, Option<i32>),
    /// A run reported this many failed solves.
    Failed(Side, String, f64),
    /// A run's last line is not the benchmark's JSON object.
    Malformed(Side, String, String),
}

impl Error {
    fn code(&self) -> u8 {
        match self {
            Error::Usage(_) => 2,
            Error::Setup(_) => 3,
            Error::Exit(..) => 4,
            Error::Failed(..) => 5,
            Error::Malformed(..) => 6,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Usage(m) | Error::Setup(m) => f.write_str(m),
            Error::Exit(side, w, code) => write!(f, "{side:?} run of {w} exited with {code:?}"),
            Error::Failed(side, w, n) => write!(f, "{side:?} run of {w} failed {n} solves"),
            Error::Malformed(side, w, why) => write!(f, "{side:?} run of {w}: {why}"),
        }
    }
}

/// An end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    lower_is_better: bool,
    /// Measured in `s` or `1/s`: its verdicts read `faster`/`slower`.
    timed: bool,
}

/// The workloads and end-to-end metrics `BENCHMARK.json` declares.
fn read_benchmark(doc: &Value) -> Result<(Vec<String>, Vec<Metric>), Error> {
    let list = |key: &str| match doc.get(key) {
        Some(Value::Arr(items)) => Ok(items),
        _ => Err(Error::Usage(format!("BENCHMARK.json has no `{key}` list"))),
    };
    let text = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| Error::Usage(format!("BENCHMARK.json: an entry lacks `{key}`")))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| text(w, "name"))
        .collect::<Result<_, _>>()?;
    let metrics = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: text(m, "name")?,
                lower_is_better: text(m, "better")? == "lower",
                timed: matches!(text(m, "unit")?.as_str(), "s" | "1/s"),
            })
        })
        .collect::<Result<_, Error>>()?;
    Ok((workloads, metrics))
}

/// The end-to-end metrics of one run, from its exit code and standard
/// output, whose last line must be the benchmark's JSON object
/// `{"failed": N, "metrics": {name: {"value": x, ..}, ..}, ..}` carrying
/// every metric in `names`.
fn read_run(
    side: Side,
    workload: &str,
    code: Option<i32>,
    stdout: &str,
    names: &[&str],
) -> Result<BTreeMap<String, f64>, Error> {
    let line = stdout.lines().last().unwrap_or("");
    let doc = json::parse(line).ok();
    let failed = doc.as_ref().and_then(|d| d.get("failed")?.as_f64());
    if let Some(n) = failed.filter(|&n| n > 0.0) {
        return Err(Error::Failed(side, workload.into(), n));
    }
    if code != Some(0) {
        return Err(Error::Exit(side, workload.into(), code));
    }
    let malformed = |why: String| Error::Malformed(side, workload.into(), why);
    let metrics = doc
        .as_ref()
        .filter(|_| failed.is_some())
        .and_then(|d| d.get("metrics"))
        .ok_or_else(|| malformed(format!("last line is not the benchmark's object: {line:?}")))?;
    names
        .iter()
        .map(|&name| {
            let v = metrics.path(&[name, "value"]).and_then(Value::as_f64);
            v.map(|v| (name.to_string(), v))
                .ok_or_else(|| malformed(format!("no numeric metric `{name}` in {line:?}")))
        })
        .collect()
}

/// The 1-based ranks `(k, n + 1 − k)` of the sorted sample whose values
/// bound a distribution-free confidence interval of the median of `n`
/// samples with at least 95% coverage: `k` is the largest rank with
/// `P(Bin(n, ½) < k) ≤ 2.5%` (10 at `n` = 30). Below 6 samples no rank
/// qualifies and the interval is the whole sample.
fn ci_ranks(n: usize) -> (usize, usize) {
    let (mut k, mut below, mut p) = (0, 0.0, 0.5f64.powi(n as i32));
    while k < n && below + p <= 0.025 {
        below += p;
        p *= (n - k) as f64 / (k + 1) as f64;
        k += 1;
    }
    let k = k.max(1);
    (k, n + 1 - k)
}

/// Order statistics of a sample of ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    ci: (f64, f64),
}

fn summarize(sample: &[f64]) -> Summary {
    let mut s = sample.to_vec();
    s.sort_by(f64::total_cmp);
    // Linear interpolation between closest ranks.
    let at = |q: f64| {
        let x = q * (s.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
    };
    let (k, l) = ci_ranks(s.len());
    Summary {
        median: at(0.5),
        q1: at(0.25),
        q3: at(0.75),
        ci: (s[k - 1], s[l - 1]),
    }
}

/// `a / b`, and 1 when both are zero (a metric a workload does not use).
fn ratio(a: f64, b: f64) -> f64 {
    if a == b {
        1.0
    } else {
        a / b
    }
}

/// One workload × metric comparison.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    ratios: Vec<f64>,
    diff: Summary,
    aa: Summary,
    wins: usize,
    verdict: &'static str,
    regression: bool,
}

/// Compare a metric's per-pair values of base, head and control.
fn compare(m: &Metric, base: &[f64], head: &[f64], control: &[f64]) -> Row {
    let ratios: Vec<f64> = head.iter().zip(base).map(|(h, b)| ratio(*h, *b)).collect();
    let aa: Vec<f64> = control
        .iter()
        .zip(head)
        .map(|(c, h)| ratio(*c, *h))
        .collect();
    let better = |r: f64| if m.lower_is_better { r < 1.0 } else { r > 1.0 };
    let wins = ratios.iter().filter(|&&r| better(r)).count();
    let diff = summarize(&ratios);
    let (verdict, regression) = if DETERMINISTIC.contains(&m.name.as_str()) {
        let rose = head.iter().zip(base).any(|(h, b)| h > b);
        let fell = head.iter().zip(base).any(|(h, b)| h < b);
        match (rose, fell) {
            (true, _) => ("higher", true),
            (false, true) => ("lower", false),
            (false, false) => ("same", false),
        }
    } else if diff.ci.0 > 1.0 || diff.ci.1 < 1.0 {
        let improved = better(diff.median);
        let word = match (m.timed, improved) {
            (true, true) => "faster",
            (true, false) => "slower",
            (false, _) if diff.median > 1.0 => "higher",
            (false, _) => "lower",
        };
        // How much worse, as a factor above 1.
        let worse = if m.lower_is_better {
            diff.median
        } else {
            1.0 / diff.median
        };
        (word, !improved && worse > 1.0 + WORSE_BY)
    } else {
        ("unresolved", false)
    };
    Row {
        ratios,
        diff,
        aa: summarize(&aa),
        wins,
        verdict,
        regression,
    }
}

/// Run `cmd`, waiting for it; a start failure or non-zero exit is a setup
/// error naming `what`.
fn checked(cmd: &mut Command, what: &str) -> Result<Output, Error> {
    let out = cmd
        .output()
        .map_err(|e| Error::Setup(format!("{what}: {e}")))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        return Err(Error::Setup(format!(
            "{what} failed ({}):\n{err}",
            out.status
        )));
    }
    Ok(out)
}

fn git(root: &Path, args: &[&str]) -> Result<String, Error> {
    let out = checked(
        Command::new("git").arg("-C").arg(root).args(args),
        &format!("git {}", args.join(" ")),
    )?;
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The base revision's files, extracted under `target/ab/` with `git
/// archive REV | tar -x`: a plain directory, so git's worktree list, index
/// and refs never change. Dropping it removes the directory, also when
/// the tool fails or panics.
struct Extracted {
    path: PathBuf,
}

impl Extracted {
    fn new(root: &Path, path: PathBuf, commit: &str) -> Result<Extracted, Error> {
        // A tree a killed run left behind goes first.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| Error::Setup(format!("creating {}: {e}", path.display())))?;
        let tree = Extracted { path };
        let mut archive = Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["archive", "--format=tar", commit])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| Error::Setup(format!("git archive {commit}: {e}")))?;
        let stdout = archive.stdout.take().expect("stdout is piped");
        let untar = checked(
            Command::new("tar")
                .arg("-x")
                .arg("-C")
                .arg(&tree.path)
                .stdin(stdout),
            &format!("extracting {commit} into {}", tree.path.display()),
        );
        let archived = archive
            .wait()
            .map_err(|e| Error::Setup(format!("git archive {commit}: {e}")))?;
        if !archived.success() {
            return Err(Error::Setup(format!(
                "git archive {commit} failed ({archived})"
            )));
        }
        untar?;
        Ok(tree)
    }
}

impl Drop for Extracted {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Build `tree`'s `perfbench` into `target_dir`; returns the binary.
fn build(tree: &Path, target_dir: &Path) -> Result<PathBuf, Error> {
    let manifest = tree.join("perfbench/Cargo.toml");
    checked(
        Command::new("cargo")
            .args([
                "build",
                "--offline",
                "--release",
                "--quiet",
                "--manifest-path",
            ])
            .arg(&manifest)
            .env("CARGO_TARGET_DIR", target_dir),
        &format!("building {}", manifest.display()),
    )?;
    Ok(target_dir.join("release/perfbench"))
}

/// Each workload's per-side runs, in pair order.
type Runs = BTreeMap<String, [Vec<BTreeMap<String, f64>>; 3]>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [base] if !base.starts_with('-') => run(base),
        _ => Err(Error::Usage("usage: ab <base-revision>".into())),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ab: {e}");
            ExitCode::from(e.code())
        }
    }
}

/// Measure and write `BENCH_ab.json`; `Ok(false)` on a regression.
fn run(base: &str) -> Result<bool, Error> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root
        .canonicalize()
        .map_err(|e| Error::Usage(format!("{}: {e}", root.display())))?;
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| Error::Usage(format!("BENCHMARK.json: {e}")))?;
    let spec = json::parse(&spec).map_err(|e| Error::Usage(format!("BENCHMARK.json: {e}")))?;
    let (workloads, metrics) = read_benchmark(&spec)?;
    let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();

    let base_commit = git(
        &root,
        &["rev-parse", "--verify", &format!("{base}^{{commit}}")],
    )?;
    let head_commit = git(&root, &["describe", "--always", "--dirty", "--abbrev=40"])?;
    let dir = root.join("target/ab");
    let base_bin = {
        let tree = Extracted::new(&root, dir.join("base"), &base_commit)?;
        build(&tree.path, &dir.join("base-target"))?
    };
    let bins = [base_bin, build(&root, &dir.join("head-target"))?];

    let (seed, seconds) = (SEED.to_string(), SECONDS.to_string());
    let mut runs = Runs::new();
    for pair in 0..PAIRS {
        let mut order = [Side::Base, Side::Head, Side::Control];
        if pair % 2 == 1 {
            order.reverse();
        }
        for w in &workloads {
            for side in order {
                let bin = &bins[usize::from(side != Side::Base)];
                let out = Command::new(bin)
                    .args(["--workload", w, "--seed", &seed, "--seconds", &seconds])
                    .args(["--trace", "0"])
                    .current_dir(&root)
                    .output()
                    .map_err(|e| Error::Setup(format!("cannot run {}: {e}", bin.display())))?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                let read = read_run(side, w, out.status.code(), &stdout, &names);
                let values = read.inspect_err(|_| {
                    eprint!("{}", String::from_utf8_lossy(&out.stderr));
                })?;
                runs.entry(w.clone()).or_default()[side as usize].push(values);
            }
        }
        eprintln!("ab: pair {}/{PAIRS} done", pair + 1);
    }

    let mut table = BTreeMap::new();
    let mut regressed = Vec::new();
    println!(
        "{:<12} {:<13} {:>7} {:>17} {:>7} {:>17} {:>5}  verdict",
        "workload", "metric", "median", "95% CI", "A/A", "A/A 95% CI", "wins"
    );
    for (w, sides) in &runs {
        let mut rows = BTreeMap::new();
        for m in &metrics {
            let col = |s: &[BTreeMap<String, f64>]| -> Vec<f64> {
                s.iter().map(|v| v[&m.name]).collect()
            };
            let row = compare(m, &col(&sides[0]), &col(&sides[1]), &col(&sides[2]));
            println!(
                "{w:<12} {:<13} {:>7.4} [{:.4}, {:.4}] {:>7.4} [{:.4}, {:.4}] {:>2}/{PAIRS}  {}",
                m.name,
                row.diff.median,
                row.diff.ci.0,
                row.diff.ci.1,
                row.aa.median,
                row.aa.ci.0,
                row.aa.ci.1,
                row.wins,
                row.verdict
            );
            if row.regression {
                regressed.push(format!("{w} {} {}", m.name, row.verdict));
            }
            rows.insert(m.name.clone(), row_json(m, &row));
        }
        table.insert(w.clone(), Value::Obj(rows));
    }
    let num = |x: f64| Value::Num(x);
    let text = |s: &str| Value::Str(s.into());
    let doc = Value::Obj(BTreeMap::from([
        ("schema".into(), text(SCHEMA)),
        ("base".into(), text(&base_commit)),
        ("head".into(), text(&head_commit)),
        ("pairs".into(), num(PAIRS as f64)),
        ("seconds".into(), num(f64::from(SECONDS))),
        ("seed".into(), num(SEED as f64)),
        ("worse_by".into(), num(WORSE_BY)),
        (
            "regressions".into(),
            Value::Arr(regressed.iter().map(|r| text(r)).collect()),
        ),
        ("workloads".into(), Value::Obj(table)),
    ]));
    let out = root.join("BENCH_ab.json");
    awake_lab::fsio::write_atomic(&out, doc.to_json().as_bytes())
        .map_err(|e| Error::Setup(format!("writing {}: {e}", out.display())))?;
    println!("wrote {}", out.display());
    for r in &regressed {
        println!("REGRESSION: {r}");
    }
    Ok(regressed.is_empty())
}

/// One row of `BENCH_ab.json`, ratios rounded to 4 decimals.
fn row_json(m: &Metric, row: &Row) -> Value {
    let num = |x: f64| Value::Num((x * 1e4).round() / 1e4);
    let pair = |(a, b): (f64, f64)| Value::Arr(vec![num(a), num(b)]);
    Value::Obj(BTreeMap::from([
        (
            "better".into(),
            Value::Str(if m.lower_is_better { "lower" } else { "higher" }.into()),
        ),
        (
            "ratios".into(),
            Value::Arr(row.ratios.iter().map(|&r| num(r)).collect()),
        ),
        ("median".into(), num(row.diff.median)),
        ("iqr".into(), pair((row.diff.q1, row.diff.q3))),
        ("ci95".into(), pair(row.diff.ci)),
        ("wins".into(), Value::Num(row.wins as f64)),
        ("aa_median".into(), num(row.aa.median)),
        ("aa_ci95".into(), pair(row.aa.ci)),
        ("verdict".into(), Value::Str(row.verdict.into())),
        ("regression".into(), Value::Bool(row.regression)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, lower_is_better: bool, timed: bool) -> Metric {
        Metric {
            name: name.into(),
            lower_is_better,
            timed,
        }
    }

    /// 30 values spread like run-to-run noise: a fixed pseudo-random
    /// sequence in `[1 − spread, 1 + spread]`.
    fn noisy(seed: u64, spread: f64) -> Vec<f64> {
        let mut x = seed;
        (0..PAIRS)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (x >> 11) as f64 / (1u64 << 53) as f64;
                1.0 + spread * (2.0 * u - 1.0)
            })
            .collect()
    }

    #[test]
    fn ci_ranks_are_the_binomial_order_statistics() {
        assert_eq!(ci_ranks(30), (10, 21));
        assert_eq!(ci_ranks(10), (2, 9));
        assert_eq!(ci_ranks(3), (1, 3));
        let s = summarize(&(1..=30).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.ci, (10.0, 21.0));
        assert_eq!(s.median, 15.5);
        assert_eq!((s.q1, s.q3), (8.25, 22.75));
    }

    #[test]
    fn an_aa_shaped_sample_is_unresolved() {
        let solve_s = metric("solve_s", true, true);
        let (base, head) = (noisy(1, 0.1), noisy(2, 0.1));
        let row = compare(&solve_s, &base, &head, &noisy(3, 0.1));
        assert_eq!(row.verdict, "unresolved", "{row:?}");
        assert!(!row.regression);
        assert!(row.diff.ci.0 < 1.0 && 1.0 < row.diff.ci.1, "{row:?}");
    }

    #[test]
    fn a_five_percent_shift_reads_slower_and_fails() {
        let base = noisy(1, 0.04);
        let head: Vec<f64> = noisy(2, 0.04).iter().map(|x| x * 1.05).collect();
        let row = compare(
            &metric("solve_s", true, true),
            &base,
            &head,
            &noisy(3, 0.04),
        );
        assert_eq!(row.verdict, "slower", "{row:?}");
        assert!(row.regression);
        assert!(row.wins < PAIRS / 2);
        // The same shift on a higher-is-better rate is an improvement.
        let rate = compare(&metric("events_per_s", false, true), &base, &head, &head);
        assert_eq!((rate.verdict, rate.regression), ("faster", false));
        // A resolved change within WORSE_BY is reported but passes.
        let head: Vec<f64> = base.iter().map(|x| x * 1.02).collect();
        let row = compare(&metric("peak_rss_mib", true, false), &base, &head, &head);
        assert_eq!((row.verdict, row.regression), ("higher", false));
    }

    #[test]
    fn a_changed_max_awake_fails_and_a_fall_passes() {
        let max_awake = metric("max_awake", true, false);
        let base = vec![32.0; PAIRS];
        let mut head = base.clone();
        let row = compare(&max_awake, &base, &head, &head);
        assert_eq!((row.verdict, row.regression), ("same", false));
        head[7] = 33.0;
        let row = compare(&max_awake, &base, &head, &head);
        assert_eq!((row.verdict, row.regression), ("higher", true));
        let row = compare(&max_awake, &vec![33.0; PAIRS], &base, &base);
        assert_eq!((row.verdict, row.regression), ("lower", false));
    }

    #[test]
    fn a_failed_run_is_a_typed_error_never_a_verdict() {
        let names = ["solve_s", "max_awake"];
        let ok = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"solve_s": {"value": 0.5, "unit": "s"}, "max_awake": {"value": 32, "unit": "count"}}}"#;
        let got = read_run(Side::Base, "w", Some(0), &format!("log\n{ok}\n"), &names).unwrap();
        assert_eq!(got["solve_s"], 0.5);
        assert_eq!(got["max_awake"], 32.0);

        let failed = ok.replace("\"failed\": 0", "\"failed\": 2");
        for side in [Side::Base, Side::Head] {
            let err = read_run(side, "w", Some(1), &failed, &names).unwrap_err();
            assert_eq!(err, Error::Failed(side, "w".into(), 2.0));
            let err = read_run(side, "w", Some(101), ok, &names).unwrap_err();
            assert_eq!(err, Error::Exit(side, "w".into(), Some(101)));
            let err = read_run(side, "w", None, "", &names).unwrap_err();
            assert_eq!(err, Error::Exit(side, "w".into(), None));
            for bad in [
                "",
                "perfbench: done",
                "{\"metrics\": {}}",
                &ok.replace("0.5", "\"x\""),
            ] {
                let err = read_run(side, "w", Some(0), bad, &names).unwrap_err();
                assert!(
                    matches!(err, Error::Malformed(s, _, _) if s == side),
                    "{err:?}"
                );
            }
        }
        let codes: Vec<u8> = [
            Error::Usage(String::new()),
            Error::Setup(String::new()),
            Error::Exit(Side::Head, "w".into(), Some(1)),
            Error::Failed(Side::Head, "w".into(), 1.0),
            Error::Malformed(Side::Head, "w".into(), String::new()),
        ]
        .iter()
        .map(Error::code)
        .collect();
        assert_eq!(codes, [2, 3, 4, 5, 6], "distinct, and none is 0 or 1");
    }

    #[test]
    fn benchmark_json_lists_workloads_and_metric_directions() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
                .unwrap();
        let (workloads, metrics) = read_benchmark(&json::parse(&spec).unwrap()).unwrap();
        assert!(
            workloads.iter().any(|w| w == "bm21_sparse"),
            "{workloads:?}"
        );
        let m = |n: &str| metrics.iter().find(|m| m.name == n).unwrap();
        assert!(m("solve_s").lower_is_better && m("solve_s").timed);
        assert!(!m("events_per_s").lower_is_better && m("events_per_s").timed);
        assert!(m("max_awake").lower_is_better && !m("max_awake").timed);
        assert!(matches!(read_benchmark(&Value::Null), Err(Error::Usage(_))));
    }
}
