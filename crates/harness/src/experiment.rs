//! Prepared applications and per-run measurements: an app's golden
//! build and run, the seeds of run number `RN` (Sec. 3.6), and the
//! reduction of a raw outcome to the measurement components of Table
//! 3.2. Trials themselves run through the executor of [`crate::trial`].

use dpmr_fi::{enumerate_heap_alloc_sites, may_manifest, FaultType, InjectionSite};
use dpmr_ir::module::Module;
use dpmr_recovery::RecoveryOutcome;
use dpmr_vm::prelude::*;
use dpmr_workloads::{AppSpec, WorkloadParams};
use std::rc::Rc;

/// Simulated CPU frequency used to convert virtual cycles to the paper's
/// millisecond units (the testbed's 2 GHz Athlon, Table 3.1).
pub const CYCLES_PER_MSEC: f64 = 2.0e6;

/// Raw per-run measurements (Table 3.2's random variables).
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Successful fault injection: the marker executed at least once.
    pub sf: bool,
    /// Correct output (literal: output bytes equal the golden run's).
    pub co: bool,
    /// Natural detection: crash or self-reported error.
    pub ndet: bool,
    /// DPMR detection.
    pub ddet: bool,
    /// Run timed out.
    pub timeout: bool,
    /// Time to fault detection in virtual cycles (detection time minus
    /// first-successful-injection time), when detected.
    pub t2d: Option<u64>,
    /// Total virtual cycles.
    pub cycles: u64,
    /// Instructions executed.
    pub instrs: u64,
}

/// Raw measurements of one recovery experiment (the Table R.1 random
/// variables).
#[derive(Debug, Clone)]
pub struct RecoveryMeasurement {
    /// Successful fault injection (the marker executed).
    pub sf: bool,
    /// Completed normally after at least one detection, with output equal
    /// to the golden run's — the run *survived* the fault.
    pub recovered_correct: bool,
    /// Completed after detection but with wrong output (a mis-repair:
    /// the replica side was the corrupted one).
    pub survived_wrong: bool,
    /// The policy stopped the run in a controlled way (fail-stop or an
    /// exhausted retry/repair budget).
    pub fail_stopped: bool,
    /// In-place repairs applied.
    pub repairs: u64,
    /// Checkpoint replays performed (attempts - 1).
    pub retries: u64,
    /// Virtual cycles from first detection to completion, when recovered.
    pub t2r: Option<u64>,
}

/// One fully instrumented run: the raw outcome plus everything the
/// telemetry layer collected (an instrumented leg of
/// [`crate::trial::Legs`]).
pub struct InstrumentedRun {
    /// Raw run outcome.
    pub out: RunOutcome,
    /// Collected per-site/per-pc profiles and the event trace.
    pub telemetry: Telemetry,
    /// Simulated region footprint at run end.
    pub mem: MemUsage,
    /// The VM seed the run used (trace-sink key component).
    pub seed: u64,
}

/// A prepared application: golden module, its lowered bytecode, golden
/// run, and injection sites.
pub struct PreparedApp {
    /// Application spec.
    pub app: AppSpec,
    /// Unmodified module.
    pub module: Module,
    /// The golden module's lowered bytecode (the static filter consults
    /// it; stored plain — not `Rc`-wrapped — so prepared apps stay `Send`
    /// for the study scheduler).
    pub code: LoweredCode,
    /// Golden run outcome.
    pub golden: RunOutcome,
    /// Injectable sites that may manifest, per fault type.
    pub sites: Vec<InjectionSite>,
    /// Workload parameters used.
    pub params: WorkloadParams,
}

/// Builds and measures the golden variant of an application.
///
/// # Panics
/// Panics if the golden run is not clean (a workload bug).
pub fn prepare(app: AppSpec, params: &WorkloadParams) -> PreparedApp {
    let module = (app.build)(params);
    let code_rc = Rc::new(dpmr_vm::lower::lower(&module));
    let golden = {
        let rc = RunConfig::default();
        let mut interp = Interp::with_code(
            &module,
            Rc::clone(&code_rc),
            &rc,
            Rc::new(Registry::with_base()),
        );
        interp.run(rc.args.clone())
    };
    // The golden interpreter is gone; reclaim the lowering it shared.
    let code = Rc::try_unwrap(code_rc).expect("golden interpreter dropped");
    assert_eq!(
        golden.status,
        ExitStatus::Normal(0),
        "{}: golden run must be clean",
        app.name
    );
    let sites = enumerate_heap_alloc_sites(&module);
    PreparedApp {
        app,
        module,
        code,
        golden,
        sites,
        params: *params,
    }
}

impl PreparedApp {
    /// Sites where `fault` may manifest (static filter, Sec. 3.4, applied
    /// against the prepared lowering).
    pub fn manifest_sites(&self, fault: FaultType) -> Vec<InjectionSite> {
        self.sites
            .iter()
            .copied()
            .filter(|s| may_manifest(&self.module, &self.code, s, fault))
            .collect()
    }

    /// Run budget: ~20× the golden running time (Sec. 3.6's timeout).
    pub fn budget(&self) -> u64 {
        self.golden.instrs.saturating_mul(20).max(1_000_000)
    }

    /// Run configuration of run number `run`: the budget, plus a VM seed
    /// and garbage-fill seed derived from the run number.
    pub(crate) fn run_config(&self, run: u32) -> RunConfig {
        let mut rc = RunConfig {
            max_instrs: self.budget(),
            seed: u64::from(run) + 1,
            ..RunConfig::default()
        };
        rc.mem.fill_seed = (u64::from(run) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        rc
    }

    /// Reduces a raw run outcome against the golden reference.
    pub fn measure(&self, out: &RunOutcome) -> Measurement {
        let co = matches!(out.status, ExitStatus::Normal(0)) && out.output == self.golden.output;
        let ndet = out.status.is_natural_detection();
        let ddet = out.status.is_dpmr_detection();
        let timeout = matches!(out.status, ExitStatus::Timeout);
        let t2d = match (out.detect_cycle, out.first_fi_cycle) {
            (Some(d), Some(f)) if d >= f => Some(d - f),
            (Some(d), None) => Some(d),
            _ => None,
        };
        Measurement {
            sf: out.first_fi_cycle.is_some(),
            co,
            ndet,
            ddet,
            timeout,
            t2d,
            cycles: out.cycles,
            instrs: out.instrs,
        }
    }

    /// Reduces a raw recovery outcome against the golden reference.
    pub fn measure_recovery(&self, out: RecoveryOutcome) -> RecoveryMeasurement {
        let correct = matches!(out.last.status, ExitStatus::Normal(0))
            && out.last.output == self.golden.output;
        RecoveryMeasurement {
            sf: out.last.first_fi_cycle.is_some(),
            recovered_correct: out.recovered() && correct,
            survived_wrong: out.recovered() && !correct,
            fail_stopped: out.fail_stopped,
            repairs: out.repairs,
            retries: u64::from(out.attempts.saturating_sub(1)),
            t2r: out.time_to_recovery,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpmr_workloads::app_by_name;

    #[test]
    fn prepare_builds_golden_and_sites() {
        let app = app_by_name("bzip2").expect("bzip2");
        let p = prepare(app, &WorkloadParams::quick());
        assert!(!p.sites.is_empty(), "bzip2 has heap allocation sites");
        assert!(p.budget() > p.golden.instrs);
    }
}
