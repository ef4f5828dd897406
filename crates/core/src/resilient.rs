//! The one stage runner every solver in the crate goes through, and the
//! crash-recovery contract it implements.
//!
//! Every solver is a Lemma 8 chain of stage runs, and every stage runs
//! through [`run_stage`]: the worker count and the fault plan come from
//! the caller's [`StageSpec`], so each solver has
//! one body for every executor and every plan. A single-stage run may also
//! checkpoint and resume, through a full [`RunSpec`].
//!
//! A stage is made resilient by wrapping each node's program in
//! [`Redundant`] time redundancy: the stretch factor `S` comes from
//! [`redundancy_for`] applied to the stage's *closed-form* round bound
//! (its entry in the [stage table](crate::bounds::stages_for), the one
//! source [`crate::bounds`] degrades too, so the audit and the execution
//! always agree), and the engine's round cap becomes the degraded stage
//! budget. The contract is:
//!
//! * under any seeded [`FaultPlan`] with a quiet period after the last
//!   fault, the run still produces a valid output;
//! * its awake/round usage stays within
//!   [`crate::bounds::degraded_budget_for`];
//! * the run is bit-for-bit identical on the serial engine and the
//!   worker-pool executor at any worker count.
//!
//! An inactive plan means no plan: nothing is wrapped and the stage
//! executes exactly as a fault-free run — same config, same engine path,
//! same metrics.

use awake_graphs::Graph;
use awake_sleeping::{
    redundancy_for, Codec, Config, Engine, FaultPlan, Paused, Persist, Program, Redundant,
    ResumeError, Run, RunSpec, SimError,
};

/// How a multi-stage solver runs each of its stages: the executor and the
/// fault plan of a [`RunSpec`], without its checkpoint and resume — a
/// snapshot captures one stage, not a solver. The default is one worker,
/// fault-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageSpec {
    /// Executors driving each stage, as [`RunSpec::workers`]: 1 runs every
    /// round in place, `w > 1` adds the worker pool.
    pub workers: usize,
    /// A seeded fault plan. An inactive plan means no plan.
    pub faults: Option<FaultPlan>,
}

impl Default for StageSpec {
    fn default() -> Self {
        StageSpec::on(1)
    }
}

impl StageSpec {
    /// The fault-free spec on `workers` executors.
    pub fn on(workers: usize) -> Self {
        StageSpec {
            workers,
            faults: None,
        }
    }

    /// This spec under `faults`.
    pub fn with_faults(self, faults: Option<FaultPlan>) -> Self {
        StageSpec { faults, ..self }
    }
}

impl From<StageSpec> for RunSpec<'_> {
    fn from(s: StageSpec) -> Self {
        RunSpec::on(s.workers).with_faults(s.faults)
    }
}

/// Execute one stage as `spec` says, under the recovery contract.
///
/// `config` is the stage's fault-free engine configuration, used verbatim
/// when the spec has no active plan. `base_rounds` is the stage's
/// closed-form round bound — the input to [`redundancy_for`] and
/// [`crate::bounds::degraded_stage_rounds`]. A resumed stage must be
/// given the plan it ran under, so the programs are wrapped as they were
/// when the snapshot was taken.
///
/// # Errors
/// Like [`Engine::run_spec`]; a resume under a different plan than the
/// snapshot's fails with a [`ResumeError::Checkpoint`] error, and a
/// degraded round cap past `u64` with [`SimError::RoundOverflow`] at
/// round 0.
pub fn run_stage<P>(
    g: &Graph,
    programs: Vec<P>,
    config: Config,
    base_rounds: u64,
    spec: &RunSpec<'_>,
) -> Result<Paused<P::Output>, ResumeError>
where
    P: Program + Persist + Send,
    P::Msg: Codec,
    P::Output: Codec,
{
    let Some(plan) = spec.active_faults() else {
        return Engine::new(g, config).run_spec(programs, spec);
    };
    let s = redundancy_for(&plan, g.n(), base_rounds);
    let max_rounds = crate::bounds::degraded_stage_rounds(base_rounds, s, &plan)
        .ok_or(SimError::RoundOverflow { round: 0 })?;
    let config = Config {
        max_rounds,
        ..config
    };
    let wrapped: Vec<Redundant<P>> = programs.into_iter().map(|p| Redundant::new(p, s)).collect();
    Engine::new(g, config).run_spec(wrapped, spec)
}

/// One stage of a multi-stage solver: [`run_stage`] from round 0 to the
/// end.
pub(crate) fn solver_stage<P>(
    g: &Graph,
    programs: Vec<P>,
    config: Config,
    base_rounds: u64,
    spec: &StageSpec,
) -> Result<Run<P::Output>, SimError>
where
    P: Program + Persist + Send,
    P::Msg: Codec,
    P::Output: Codec,
{
    match run_stage(g, programs, config, base_rounds, &(*spec).into()) {
        Ok(paused) => Ok(paused.finished()),
        Err(ResumeError::Sim(e)) => Err(e),
        Err(ResumeError::Checkpoint(e)) => unreachable!("no snapshot to decode: {e}"),
    }
}
