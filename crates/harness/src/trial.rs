//! The trial executor: the one place that prepares apps, builds them,
//! samples their op sites, arms faults, and runs trial legs.
//!
//! Every study in [`crate::metrics`] is a fold over one thing: a run of
//! one build of one app, with or without a fault, under a seed. A study
//! runner is three steps:
//!
//! 1. make a [`Plan`] (prepare the apps, build them) and enumerate its
//!    [`Unit`]s;
//! 2. run them through [`Plan::execute`] on [`crate::sched::run_indexed`];
//! 3. fold each unit's [`TrialRecord`]s, in unit order, into the study's
//!    result type.
//!
//! A unit is the scheduler's grain: the trials that share one build (or,
//! for an allocation-site injection, one injected module). Builds that do
//! not depend on an injection site are made once per (app, configuration)
//! up front and shared; builds of an injected module are made inside the
//! unit, once per (site, configuration), never once per run.

use crate::experiment::{prepare, InstrumentedRun, Measurement, PreparedApp, RecoveryMeasurement};
use crate::metrics::{CampaignConfig, FAULT_SITES_PER_CLASS};
use dpmr_core::prelude::*;
use dpmr_fi::{ArmedFault, FaultModel, FaultType, InjectionSite, MemRegion, OpSite};
use dpmr_ir::module::Module;
use dpmr_recovery::RecoveryDriver;
use dpmr_vm::opt::OptOutcome;
use dpmr_vm::prelude::*;
use dpmr_workloads::AppSpec;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// Repair budget of a detection trial's recovery leg.
const REPAIR_BUDGET: u64 = 4096;

/// Lowers `module` and, for a DPMR build, runs `cfg`'s optimizing passes
/// over the bytecode. With all-off passes (the default) or no DPMR
/// configuration (a stdapp build) the code is exactly
/// [`dpmr_vm::lower::lower`]'s, byte for byte.
fn lower(module: &Module, cfg: Option<&DpmrConfig>) -> OptOutcome {
    let code = dpmr_vm::lower::lower(module);
    match cfg {
        Some(cfg) if !cfg.passes.is_noop() => dpmr_vm::opt::optimize(&code, &cfg.passes),
        _ => OptOutcome {
            code,
            dropped: Vec::new(),
        },
    }
}

/// One shared build: an app's module transformed under a DPMR
/// configuration, and its lowered code.
pub struct Build {
    /// Display name (the study's configuration column).
    pub name: String,
    /// The configuration the module was transformed under.
    pub cfg: DpmrConfig,
    /// The transformed module.
    pub module: Module,
    /// Its lowered code, with the optimizer's account of dropped sites.
    pub lowered: OptOutcome,
}

/// The runtime fault armed in trial `run` at `site`: trial `r` of `runs`
/// arms `r/runs` of the way into the golden running time (trial 0 from
/// the first cycle) under a seed derived from the site and run, so the
/// triple replays exactly.
fn arm(p: &PreparedApp, model: FaultModel, site: OpSite, run: u32, runs: u32) -> ArmedFault {
    ArmedFault {
        site: site.pc,
        fault: model,
        seed: dpmr_fi::trial_seed(site.pc, run),
        arm_cycle: p.golden.cycles * u64::from(run) / u64::from(runs.max(1)),
    }
}

/// What a unit's trials run on.
#[derive(Debug, Clone, Copy)]
pub enum Target {
    /// The plan's shared build with this index.
    Shared(usize),
    /// The app with `fault` injected at allocation `site`, built inside
    /// the unit under each of the plan's variants in turn.
    Injected {
        /// The allocation site.
        site: InjectionSite,
        /// The injected fault type.
        fault: FaultType,
    },
}

/// The legs each trial of a unit runs.
#[derive(Debug, Clone, Copy)]
pub enum Legs {
    /// A detection leg.
    Detect,
    /// A detection leg and, when DPMR detected, a recovery leg under the
    /// best repair policy the build's replication degree admits.
    DetectRecover,
    /// One recovery leg per recovery policy of the plan.
    Recover,
    /// One run with full telemetry.
    Instrumented,
}

/// One scheduler unit: trials of one app on one target.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Index into [`Plan::prepared`].
    pub app: usize,
    /// What the trials run on.
    pub target: Target,
    /// Fault-class display name (`clean` for unfaulted runs).
    pub class: String,
    /// The runtime fault armed at an op site, if any.
    pub armed: Option<(FaultModel, OpSite)>,
    /// Run numbers, each one trial per build and policy.
    pub runs: Range<u32>,
    /// The legs each trial runs.
    pub legs: Legs,
}

/// One trial's record: the legs it ran, as its unit's [`Legs`] say.
pub struct TrialRecord {
    /// The build that ran: the shared build's index for
    /// [`Target::Shared`], the index into the plan's variants for
    /// [`Target::Injected`].
    pub build: usize,
    /// Index into the plan's recovery policies for [`Legs::Recover`] (0
    /// otherwise).
    pub policy: usize,
    /// The detection leg.
    pub detect: Option<Measurement>,
    /// The recovery leg.
    pub recovery: Option<RecoveryMeasurement>,
    /// The instrumented run.
    pub instrumented: Option<InstrumentedRun>,
}

/// A study's prepared apps, shared builds and trial settings.
pub struct Plan {
    /// Study name (the first field of every trial key).
    study: &'static str,
    /// Prepared apps, in the order given.
    pub prepared: Vec<PreparedApp>,
    /// Shared builds, the same number per app, app-major.
    pub builds: Vec<Build>,
    /// Build configurations of [`Target::Injected`] units, display name
    /// first (`None`: the untransformed stdapp build).
    pub(crate) variants: Vec<(String, Option<DpmrConfig>)>,
    /// Recovery configurations of [`Legs::Recover`] trials.
    pub(crate) policies: Vec<RecoveryConfig>,
    cc: CampaignConfig,
}

impl Plan {
    /// Prepares every app (module build and golden run) in parallel.
    pub fn new(study: &'static str, apps: &[AppSpec], cc: &CampaignConfig) -> Plan {
        Plan {
            study,
            prepared: crate::sched::run_indexed(apps, cc.workers, |a| prepare(*a, &cc.params)),
            builds: Vec::new(),
            variants: Vec::new(),
            policies: Vec::new(),
            cc: cc.clone(),
        }
    }

    /// Builds every app under each named configuration `configs` gives
    /// for it (the same number for every app), in parallel.
    #[must_use]
    pub fn with_builds(
        mut self,
        configs: impl Fn(&PreparedApp) -> Vec<(String, DpmrConfig)>,
    ) -> Plan {
        let specs: Vec<(usize, String, DpmrConfig)> = (self.prepared.iter().enumerate())
            .flat_map(|(ai, p)| configs(p).into_iter().map(move |(n, c)| (ai, n, c)))
            .collect();
        let prepared = &self.prepared;
        self.builds = crate::sched::run_indexed(&specs, self.cc.workers, |(ai, name, cfg)| {
            let module = transform(&prepared[*ai].module, cfg).expect("transform");
            Build {
                name: name.clone(),
                cfg: cfg.clone(),
                lowered: lower(&module, Some(cfg)),
                module,
            }
        });
        self
    }

    /// Index of app `app`'s shared build `i`.
    pub(crate) fn build_index(&self, app: usize, i: usize) -> usize {
        app * self.builds.len() / self.prepared.len() + i
    }

    /// The app of shared build `b`.
    fn app_of(&self, b: usize) -> usize {
        b * self.prepared.len() / self.builds.len()
    }

    /// One clean run (run 0, no fault) of shared build `b`.
    pub(crate) fn clean(&self, b: usize, legs: Legs) -> Unit {
        Unit {
            app: self.app_of(b),
            target: Target::Shared(b),
            class: "clean".into(),
            armed: None,
            runs: 0..1,
            legs,
        }
    }

    /// Units arming `model` at an even sample of at most `cap` of shared
    /// build `b`'s eligible op sites (`model: None` arms heap bit-flips at
    /// the build's *replica* accesses), one unit per site running every
    /// run of the campaign.
    pub(crate) fn armed(
        &self,
        b: usize,
        class: &str,
        model: Option<FaultModel>,
        cap: usize,
        legs: Legs,
    ) -> Vec<Unit> {
        let code = &self.builds[b].lowered.code;
        let sites = match model {
            Some(m) => dpmr_fi::enumerate_op_sites(code, m),
            None => dpmr_fi::enumerate_replica_sites(code),
        };
        let fault = model.unwrap_or(FaultModel::BitFlip {
            region: MemRegion::Heap,
        });
        dpmr_fi::sample_sites(&sites, cap)
            .into_iter()
            .map(|site| Unit {
                armed: Some((fault, site)),
                class: class.to_string(),
                runs: 0..self.cc.runs,
                ..self.clean(b, legs)
            })
            .collect()
    }

    /// Cap on armed op sites per (build, class): the campaign's
    /// `max_sites`, or [`FAULT_SITES_PER_CLASS`].
    pub(crate) fn op_cap(&self) -> usize {
        self.cc.max_sites.unwrap_or(FAULT_SITES_PER_CLASS)
    }

    /// Allocation-site injection units: per app and fault type of
    /// [`FaultType::paper_set`], one unit per site where the fault may
    /// manifest (at most `max_sites`), running every run of the campaign.
    pub(crate) fn injected(&self, legs: Legs) -> Vec<Unit> {
        let mut units = Vec::new();
        for (app, p) in self.prepared.iter().enumerate() {
            for fault in FaultType::paper_set() {
                let mut sites = p.manifest_sites(fault);
                if let Some(cap) = self.cc.max_sites {
                    sites.truncate(cap);
                }
                units.extend(sites.into_iter().map(|site| Unit {
                    app,
                    target: Target::Injected { site, fault },
                    class: fault.name(),
                    armed: None,
                    runs: 0..self.cc.runs,
                    legs,
                }));
            }
        }
        units
    }

    /// Runs every unit on the study scheduler and returns each unit's
    /// records in unit order, bit-identical at any worker count. A unit
    /// that panics prints `[harness] trial panicked: <key>` to stderr
    /// (see `Plan::key`) and the panic resumes.
    pub fn execute(&self, units: &[Unit]) -> Vec<Vec<TrialRecord>> {
        crate::sched::run_indexed(units, self.cc.workers, |u| {
            let at = Cell::new((0, None));
            catch_unwind(AssertUnwindSafe(|| self.run_unit(u, &at))).unwrap_or_else(|payload| {
                eprintln!("[harness] trial panicked: {}", self.key(u, at.get()));
                resume_unwind(payload)
            })
        })
    }

    /// The reproducer key of unit `u`'s trial at (build, run) `at`:
    /// `study=… app=… config=… class=… site=… run=…`, where the site is
    /// `alloc<id>` for an allocation site or `pc<pc>` for an op site, and
    /// `-` marks a field that does not apply or is not reached yet (a
    /// panic while building, before the first run).
    fn key(&self, u: &Unit, (build, run): (usize, Option<u32>)) -> String {
        let (config, site) = match u.target {
            Target::Shared(b) => (
                self.builds.get(b).map(|b| &b.name),
                u.armed.map(|(_, s)| format!("pc{}", s.pc)),
            ),
            Target::Injected { site, .. } => (
                self.variants.get(build).map(|v| &v.0),
                Some(format!("alloc{}", site.site_id)),
            ),
        };
        format!(
            "study={} app={} config={} class={} site={} run={}",
            self.study,
            self.prepared[u.app].app.name,
            config.map_or("-", String::as_str),
            u.class,
            site.as_deref().unwrap_or("-"),
            run.map_or_else(|| "-".to_string(), |r| r.to_string()),
        )
    }

    /// Runs unit `u`, keeping `at` on the (build, run) in progress.
    fn run_unit(&self, u: &Unit, at: &Cell<(usize, Option<u32>)>) -> Vec<TrialRecord> {
        let p = &self.prepared[u.app];
        let wrapped = Rc::new(registry_with_wrappers());
        let mut out = Vec::new();
        match u.target {
            Target::Shared(b) => {
                at.set((b, None));
                let build = &self.builds[b];
                let trial = Trial {
                    p,
                    module: &build.module,
                    code: Rc::new(build.lowered.code.clone()),
                    registry: wrapped,
                };
                self.run_trials(u, b, &trial, Some(&build.cfg), at, &mut out);
            }
            Target::Injected { site, fault } => {
                let base = Rc::new(Registry::with_base());
                let faulty = dpmr_fi::inject(&p.module, &site, fault);
                for (v, (_, cfg)) in self.variants.iter().enumerate() {
                    at.set((v, None));
                    let transformed;
                    let module = match cfg {
                        Some(cfg) => {
                            transformed = transform(&faulty, cfg).expect("transform");
                            &transformed
                        }
                        None => &faulty,
                    };
                    let trial = Trial {
                        p,
                        module,
                        code: Rc::new(lower(module, cfg.as_ref()).code),
                        registry: Rc::clone(if cfg.is_some() { &wrapped } else { &base }),
                    };
                    self.run_trials(u, v, &trial, cfg.as_ref(), at, &mut out);
                }
            }
        }
        out
    }

    /// Runs unit `u`'s trials on one build (`cfg: None` is a stdapp
    /// build), appending their records.
    fn run_trials(
        &self,
        u: &Unit,
        build: usize,
        trial: &Trial<'_>,
        cfg: Option<&DpmrConfig>,
        at: &Cell<(usize, Option<u32>)>,
        out: &mut Vec<TrialRecord>,
    ) {
        let repair = cfg.map(best_repair);
        let policies = match u.legs {
            Legs::Recover => self.policies.len(),
            _ => 1,
        };
        for policy in 0..policies {
            for run in u.runs.clone() {
                at.set((build, Some(run)));
                let mut rc = trial.p.run_config(run);
                rc.fault =
                    (u.armed).map(|(model, site)| arm(trial.p, model, site, run, self.cc.runs));
                let mut r = TrialRecord {
                    build,
                    policy,
                    detect: None,
                    recovery: None,
                    instrumented: None,
                };
                match u.legs {
                    Legs::Detect => r.detect = Some(trial.detect(&rc)),
                    Legs::DetectRecover => {
                        let m = trial.detect(&rc);
                        // The recovery leg only makes sense for DPMR
                        // detections: crashes are not resumable and
                        // escapes never trap.
                        r.recovery =
                            (repair.filter(|_| m.sf && m.ddet)).map(|rec| trial.recover(rc, rec));
                        r.detect = Some(m);
                    }
                    Legs::Recover => r.recovery = Some(trial.recover(rc, self.policies[policy])),
                    Legs::Instrumented => r.instrumented = Some(trial.instrumented(rc)),
                }
                out.push(r);
            }
        }
    }
}

/// The best repair policy a build's replication degree admits:
/// single-replica copy-back at K = 1, majority vote above.
fn best_repair(cfg: &DpmrConfig) -> RecoveryConfig {
    let max_repairs = REPAIR_BUDGET;
    let mut rec = cfg.recovery;
    rec.policy = if cfg.replicas >= 2 {
        RecoveryPolicy::VoteAndRepair { max_repairs }
    } else {
        RecoveryPolicy::RepairFromReplica { max_repairs }
    };
    rec
}

/// One build ready to run, and the legs of its trials: the module, its
/// lowered code and the external registry it runs under (the DPMR
/// wrappers, or the base libc set for a stdapp build).
struct Trial<'a> {
    p: &'a PreparedApp,
    module: &'a Module,
    code: Rc<LoweredCode>,
    registry: Rc<Registry>,
}

impl Trial<'_> {
    fn interp(&self, rc: &RunConfig) -> Interp<'_> {
        let (code, registry) = (Rc::clone(&self.code), Rc::clone(&self.registry));
        Interp::with_code(self.module, code, rc, registry)
    }

    /// A detection leg, reduced against the golden run.
    fn detect(&self, rc: &RunConfig) -> Measurement {
        self.p.measure(&self.interp(rc).run(rc.args.clone()))
    }

    /// A recovery leg under `rec`, reduced against the golden run.
    fn recover(&self, rc: RunConfig, rec: RecoveryConfig) -> RecoveryMeasurement {
        let (code, registry) = (Rc::clone(&self.code), Rc::clone(&self.registry));
        let driver = RecoveryDriver::with_code(self.module, code, registry, rc, rec);
        self.p.measure_recovery(driver.run())
    }

    /// A run with full telemetry.
    fn instrumented(&self, mut rc: RunConfig) -> InstrumentedRun {
        rc.telemetry = TelemetryConfig::full();
        let mut interp = self.interp(&rc);
        let out = interp.run(rc.args.clone());
        InstrumentedRun {
            out,
            mem: interp.mem.usage(),
            telemetry: interp.take_telemetry(),
            seed: rc.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpmr_workloads::app_by_name;

    fn plan(app: &str) -> Plan {
        let app = app_by_name(app).expect("app");
        Plan::new("test", &[app], &CampaignConfig::tiny())
    }

    #[test]
    fn overhead_is_above_one_under_dpmr() {
        let cfg = DpmrConfig::sds().with_diversity(Diversity::None);
        let plan = plan("art").with_builds(|_| vec![("no-diversity".into(), cfg.clone())]);
        let records = plan.execute(&[plan.clean(0, Legs::Detect)]).remove(0);
        let m = records[0].detect.as_ref().expect("a detection leg");
        let o = m.cycles as f64 / plan.prepared[0].golden.cycles as f64;
        assert!(o > 1.2, "DPMR must cost something, got {o}");
        assert!(o < 20.0, "DPMR overhead out of range, got {o}");
    }

    /// A unit of `legs` on `target` for the plan's only app.
    fn unit(target: Target, armed: Option<(FaultModel, OpSite)>, legs: Legs) -> Unit {
        let class = armed.map_or_else(|| "clean".into(), |(m, _)| m.name());
        let (app, runs) = (0, 0..1);
        Unit {
            app,
            target,
            class,
            armed,
            runs,
            legs,
        }
    }

    #[test]
    fn fault_injection_experiment_measures() {
        let mut plan = plan("mcf");
        plan.variants = vec![("stdapp".into(), None)];
        let fault = FaultType::ImmediateFree;
        let sites = plan.prepared[0].manifest_sites(fault);
        assert!(!sites.is_empty());
        let site = sites[0];
        let u = unit(Target::Injected { site, fault }, None, Legs::Detect);
        let records = plan.execute(&[u]).remove(0);
        let m = records[0].detect.as_ref().expect("a detection leg");
        assert!(m.sf, "the first mcf allocation site always executes");
    }

    #[test]
    fn a_panicking_unit_still_aborts_the_campaign() {
        // A unit naming a build the plan does not have panics inside the
        // executor; the original panic must reach the caller at any
        // worker count.
        let mut plan = plan("pchase");
        let u = unit(Target::Shared(7), None, Legs::Detect);
        for workers in [1, 2] {
            plan.cc.workers = workers;
            let units = [u.clone(), u.clone()];
            let Err(payload) = catch_unwind(AssertUnwindSafe(|| plan.execute(&units))) else {
                panic!("workers={workers}: the panic must propagate");
            };
            let msg = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(
                msg.contains("index out of bounds"),
                "workers={workers}: {msg}"
            );
        }
    }

    #[test]
    fn the_panic_key_names_all_six_fields() {
        let plan = plan("pchase");
        let model = FaultModel::WildWrite;
        let access = dpmr_fi::AccessKind::Store;
        let site = OpSite { pc: 42, access };
        let u = unit(Target::Shared(3), Some((model, site)), Legs::DetectRecover);
        let key = |run| {
            format!(
                "study=test app=pchase config=- class={} site=pc42 run={run}",
                model.name()
            )
        };
        assert_eq!(plan.key(&u, (3, Some(1))), key("1"));
        assert_eq!(plan.key(&u, (3, None)), key("-"));
    }
}
