//! The spec table shared by the executor-equivalence suites: every run
//! family is executed at 1, 2, 4 and 8 workers, fault-free and under a
//! seeded fault plan, traced (uncapped and under a biting cap), and paused
//! halfway and resumed on every worker count. Every row must agree with
//! the one-worker run bit for bit: outputs (or the error), [`Metrics`],
//! trace, drop counter and snapshot bytes.

use awake::sleeping::{
    Config, FaultPlan, Metrics, Paused, ResumeError, Run, RunSpec, SimError, Snapshot, TraceMode,
};
use std::fmt::Debug;

/// The executor rows: worker counts.
pub const EXECUTORS: [usize; 4] = [1, 2, 4, 8];

/// The seeded plan of the faulty rows: every message fate and crashes.
pub fn plan() -> FaultPlan {
    let mut plan = FaultPlan::new(77);
    plan.drop_ppm = 40_000;
    plan.dup_ppm = 40_000;
    plan.delay_ppm = 40_000;
    plan.crash_ppm = 10_000;
    plan.delay_rounds = 2;
    plan
}

/// A completed run's outputs and metrics, or its error.
pub fn finished<O>(r: Result<Paused<O>, ResumeError>) -> Result<Run<O>, SimError> {
    match r {
        Ok(paused) => Ok(paused.finished()),
        Err(ResumeError::Sim(e)) => Err(e),
        Err(e) => panic!("snapshot failed to decode: {e}"),
    }
}

fn assert_same<O: PartialEq + Debug>(
    want: &Result<Run<O>, SimError>,
    got: &Result<Run<O>, SimError>,
    at: &str,
) {
    match (want, got) {
        (Ok(w), Ok(g)) => {
            assert!(w.outputs == g.outputs, "outputs diverge, {at}");
            let (w, g): (&Metrics, &Metrics) = (&w.metrics, &g.metrics);
            assert_eq!(w, g, "metrics diverge, {at}");
        }
        (Err(w), Err(g)) => assert_eq!(w, g, "errors diverge, {at}"),
        _ => panic!("one run failed and the other did not, {at}"),
    }
}

/// Run the spec table over `run`, which executes one fresh instance of
/// the family under the given config and spec.
pub fn assert_spec_table<O, F>(run: F)
where
    O: PartialEq + Debug,
    F: Fn(Config, &RunSpec) -> Result<Paused<O>, ResumeError>,
{
    for faults in [None, Some(plan())] {
        let spec = |workers| RunSpec::on(workers).with_faults(faults);
        let want = finished(run(Config::default(), &spec(1)));
        // Uncapped, then under a cap that bites: the kept prefix and the
        // drop counter must both agree.
        let traced = [usize::MAX, 100].map(|cap| {
            let cfg = Config {
                trace: TraceMode::Capped(cap),
                ..Config::default()
            };
            (cfg, finished(run(cfg, &spec(1))))
        });
        for workers in EXECUTORS {
            let at = format!("workers = {workers}, faults = {faults:?}");
            assert_same(
                &want,
                &finished(run(Config::default(), &spec(workers))),
                &at,
            );
            for (cfg, want) in &traced {
                let got = finished(run(*cfg, &spec(workers)));
                let (Ok(w), Ok(g)) = (want, &got) else {
                    assert_same(want, &got, &at);
                    continue;
                };
                assert!(!w.trace.is_empty(), "traced runs record events");
                assert_eq!(w.trace, g.trace, "trace, {cfg:?}, {at}");
                assert_eq!(w.trace_dropped, g.trace_dropped, "dropped, {cfg:?}, {at}");
            }
        }
        // Pause halfway: every executor takes the same snapshot, and the
        // snapshot resumes on every executor to the uninterrupted run.
        let bound = want.as_ref().map_or(0, |full| full.metrics.rounds / 2);
        if bound == 0 {
            continue;
        }
        let pause = |w| -> Snapshot {
            run(Config::default(), &spec(w).pause_after(bound))
                .unwrap()
                .into_snapshot()
        };
        let snap = pause(1);
        for workers in EXECUTORS {
            let at = format!("pause at {bound}, workers = {workers}, faults = {faults:?}");
            assert_eq!(pause(workers), snap, "snapshot bytes, {at}");
            let resume = spec(workers).resume_from(&snap);
            assert_same(&want, &finished(run(Config::default(), &resume)), &at);
        }
    }
}
