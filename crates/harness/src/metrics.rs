//! Metric aggregation (Sec. 3.6): coverage, conditional coverage,
//! overhead, and detection latency, computed from fault-injection
//! campaigns across variant builds.

use crate::experiment::{Measurement, RecoveryMeasurement, CYCLES_PER_MSEC};
use crate::trial::{Legs, Plan, Target, TrialRecord, Unit};
use dpmr_core::prelude::*;
use dpmr_fi::FaultModel;
use dpmr_workloads::{AppSpec, WorkloadParams};
use std::collections::BTreeMap;

/// Coverage accumulator for one (variant, app, fault) population.
#[derive(Debug, Clone, Copy, Default)]
pub struct CovAgg {
    /// Successful-injection experiments observed.
    pub n: u32,
    /// Correct output.
    pub co: u32,
    /// Natural detection without correct output.
    pub ndet: u32,
    /// DPMR detection without correct output.
    pub ddet: u32,
    /// Sum of detection latencies (cycles) over detected experiments.
    pub t2d_cycles: u64,
    /// Number of detected experiments contributing to `t2d_cycles`.
    pub t2d_n: u32,
}

impl CovAgg {
    /// Adds one measurement.
    pub fn add(&mut self, m: &Measurement) {
        if !m.sf {
            return;
        }
        self.n += 1;
        if m.co {
            self.co += 1;
        } else if m.ndet {
            self.ndet += 1;
        } else if m.ddet {
            self.ddet += 1;
        }
        if !m.co && (m.ndet || m.ddet) {
            if let Some(t) = m.t2d {
                self.t2d_cycles += t;
                self.t2d_n += 1;
            }
        }
    }

    /// Fraction with correct output.
    pub fn co_frac(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        f64::from(self.co) / f64::from(self.n)
    }
    /// Fraction naturally detected (and not CO).
    pub fn ndet_frac(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        f64::from(self.ndet) / f64::from(self.n)
    }
    /// Fraction DPMR-detected (and not CO/NatDet).
    pub fn ddet_frac(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        f64::from(self.ddet) / f64::from(self.n)
    }
    /// Total coverage (Eq. 3.2): CO ∨ NatDet ∨ DpmrDet.
    pub fn coverage(&self) -> f64 {
        self.co_frac() + self.ndet_frac() + self.ddet_frac()
    }
    /// Mean time to detection in milliseconds (Eq. 3.4), if any.
    pub fn mttd_msec(&self) -> Option<f64> {
        if self.t2d_n == 0 {
            None
        } else {
            Some(self.t2d_cycles as f64 / f64::from(self.t2d_n) / CYCLES_PER_MSEC)
        }
    }
}

/// One study: a list of named variants measured over all apps and both
/// fault types, with conditional aggregates and overheads.
#[derive(Debug, Clone, Default)]
pub struct StudyResults {
    /// Variant display names, in presentation order.
    pub variants: Vec<String>,
    /// App names, in presentation order.
    pub apps: Vec<String>,
    /// Coverage per (variant, app, fault-name).
    pub coverage: BTreeMap<(String, String, String), CovAgg>,
    /// Conditional coverage per (variant, fault-name), combined across
    /// apps (Eq. 3.3: conditioned on `StdNotAllDet`).
    pub conditional: BTreeMap<(String, String), CovAgg>,
    /// Overhead per (variant, app) (Eq. 3.1); absent for stdapp.
    pub overhead: BTreeMap<(String, String), f64>,
    /// Experiments executed.
    pub experiments: u64,
}

/// Campaign sizing.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Workload sizing.
    pub params: WorkloadParams,
    /// Runs per (variant, site, fault) setting (RN values).
    pub runs: u32,
    /// Optional cap on injection sites per (app, fault) to bound time.
    pub max_sites: Option<usize>,
    /// Worker threads for the study scheduler (`1` = run inline). Results
    /// are bit-identical at any worker count (see [`crate::sched`]).
    pub workers: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            params: WorkloadParams::quick(),
            runs: 2,
            max_sites: None,
            workers: 1,
        }
    }
}

impl CampaignConfig {
    /// Small campaign for tests.
    pub fn tiny() -> CampaignConfig {
        CampaignConfig {
            params: WorkloadParams::quick(),
            runs: 1,
            max_sites: Some(3),
            workers: 1,
        }
    }

    /// Replaces the worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> CampaignConfig {
        self.workers = workers.max(1);
        self
    }
}

/// Runs a fault-injection study over `apps` × `variants` × both fault
/// types, fanning trials across `cc.workers` threads. The stdapp variant
/// is always included first (it defines `StdNotAllDet` and the
/// natural-detection baseline). Results are merged in deterministic unit
/// order: the artifacts are bit-identical at any worker count.
pub fn run_study(
    apps: &[AppSpec],
    variants: &[(String, DpmrConfig)],
    cc: &CampaignConfig,
) -> StudyResults {
    let mut res = StudyResults {
        variants: std::iter::once("stdapp".to_string())
            .chain(variants.iter().map(|(n, _)| n.clone()))
            .collect(),
        apps: apps.iter().map(|a| a.name.to_string()).collect(),
        ..StudyResults::default()
    };
    let mut plan = Plan::new("coverage", apps, cc).with_builds(|_| variants.to_vec());

    res.experiments += record_overheads(&plan, &mut res.overhead);

    // Fault-injection trials: one unit per allocation site, running
    // stdapp and then every variant on the injected module.
    plan.variants = std::iter::once(("stdapp".to_string(), None))
        .chain(variants.iter().map(|(n, c)| (n.clone(), Some(c.clone()))))
        .collect();
    let units = plan.injected(Legs::Detect);
    for (u, records) in units.iter().zip(plan.execute(&units)) {
        res.experiments += records.len() as u64;
        let of = |v: usize| -> Vec<&Measurement> {
            (records.iter().filter(|r| r.build == v))
                .filter_map(|r| r.detect.as_ref())
                .collect()
        };
        // StdNotAllDet (Eq. 3.3) is a property of the site's stdapp
        // runs — some successful injection ended in neither correct
        // output nor a natural detection — and conditions every
        // variant's aggregate at the site.
        let std_not_all_det = of(0).iter().any(|m| m.sf && !m.co && !m.ndet);
        for (v, (name, _)) in plan.variants.iter().enumerate() {
            let app = apps[u.app].name;
            record(&mut res, name, app, &u.class, &of(v), std_not_all_det);
        }
    }
    res
}

/// Runs one clean trial of every shared build of `plan` and records its
/// overhead (Eq. 3.1: transformed cycles over golden cycles) per (build
/// name, app) in `overhead`. Returns the trials run.
fn record_overheads(plan: &Plan, overhead: &mut BTreeMap<(String, String), f64>) -> u64 {
    let units: Vec<Unit> = (0..plan.builds.len())
        .map(|b| plan.clean(b, Legs::Detect))
        .collect();
    let mut n = 0;
    for (u, records) in units.iter().zip(plan.execute(&units)) {
        let p = &plan.prepared[u.app];
        for r in &records {
            let m = r.detect.as_ref().expect("a detection leg");
            let key = (plan.builds[r.build].name.clone(), p.app.name.to_string());
            overhead.insert(key, m.cycles as f64 / p.golden.cycles as f64);
            n += 1;
        }
    }
    n
}

/// The diversity study (Figs. 3.6–3.10 / 4.5, 4.7–4.10): all seven
/// diversity transformations under the all-loads policy, over the four
/// SPEC analogues.
pub fn run_diversity_study(scheme: Scheme, cc: &CampaignConfig) -> StudyResults {
    run_study(&dpmr_workloads::all_apps(), &diversity_variants(scheme), cc)
}

/// The comparison-policy study (Figs. 3.11–3.15 / 4.6, 4.11–4.14): all
/// seven policies under rearrange-heap, over the four SPEC analogues.
pub fn run_policy_study(scheme: Scheme, cc: &CampaignConfig) -> StudyResults {
    run_study(&dpmr_workloads::all_apps(), &policy_variants(scheme), cc)
}

fn record(
    res: &mut StudyResults,
    variant: &str,
    app: &str,
    fault: &str,
    ms: &[&Measurement],
    std_not_all_det: bool,
) {
    let key = (variant.to_string(), app.to_string(), fault.to_string());
    let agg = res.coverage.entry(key).or_default();
    for m in ms {
        agg.add(m);
    }
    if std_not_all_det {
        let ckey = (variant.to_string(), fault.to_string());
        let cagg = res.conditional.entry(ckey).or_default();
        for m in ms {
            cagg.add(m);
        }
    }
}

/// Recovery accumulator for one (policy, app, fault) population
/// (Table R.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryAgg {
    /// Successful-injection experiments observed.
    pub n: u32,
    /// Runs that completed with correct output after >= 1 detection.
    pub recovered: u32,
    /// Runs that survived detection but produced wrong output
    /// (mis-repairs).
    pub survived_wrong: u32,
    /// Controlled stops (fail-stop policy or exhausted budgets).
    pub fail_stops: u32,
    /// Total in-place repairs applied.
    pub repairs: u64,
    /// Total checkpoint replays performed.
    pub retries: u64,
    /// Sum of time-to-recovery over recovered runs (virtual cycles).
    pub t2r_cycles: u64,
    /// Recovered runs contributing to `t2r_cycles`.
    pub t2r_n: u32,
}

impl RecoveryAgg {
    /// Adds one measurement (unsuccessful injections are excluded, as in
    /// the coverage metrics).
    pub fn add(&mut self, m: &RecoveryMeasurement) {
        if !m.sf {
            return;
        }
        self.n += 1;
        if m.recovered_correct {
            self.recovered += 1;
        }
        if m.survived_wrong {
            self.survived_wrong += 1;
        }
        if m.fail_stopped {
            self.fail_stops += 1;
        }
        self.repairs += m.repairs;
        self.retries += m.retries;
        if m.recovered_correct {
            if let Some(t) = m.t2r {
                self.t2r_cycles += t;
                self.t2r_n += 1;
            }
        }
    }

    /// Recovery success rate: fraction of successfully injected runs that
    /// completed with correct output after detecting.
    pub fn success_rate(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        f64::from(self.recovered) / f64::from(self.n)
    }

    /// Mean repairs per successfully injected run.
    pub fn repairs_per_run(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.repairs as f64 / f64::from(self.n)
    }

    /// Mean checkpoint replays per successfully injected run.
    pub fn retries_per_run(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.retries as f64 / f64::from(self.n)
    }

    /// Mean time to recovery in virtual cycles, over recovered runs.
    pub fn mean_t2r_cycles(&self) -> Option<f64> {
        if self.t2r_n == 0 {
            None
        } else {
            Some(self.t2r_cycles as f64 / f64::from(self.t2r_n))
        }
    }
}

/// A recovery study: policies x apps x both fault types under one DPMR
/// base configuration.
#[derive(Debug, Default)]
pub struct RecoveryStudyResults {
    /// Policy display names, in presentation order.
    pub policies: Vec<String>,
    /// App names, in presentation order.
    pub apps: Vec<String>,
    /// Aggregates per (policy, app, fault-name).
    pub agg: BTreeMap<(String, String, String), RecoveryAgg>,
    /// Experiments executed.
    pub experiments: u64,
}

/// Runs the detection-to-recovery study (Table R.1): every recovery
/// configuration in [`RecoveryConfig::paper_set`] (the three policies
/// plus retry under the mid-run checkpoint cadence) over `apps` x both
/// fault types, under the given DPMR base configuration.
pub fn run_recovery_study(
    apps: &[AppSpec],
    base: &DpmrConfig,
    cc: &CampaignConfig,
) -> RecoveryStudyResults {
    let mut plan = Plan::new("recovery", apps, cc);
    plan.variants = vec![(base.name(), Some(base.clone()))];
    plan.policies = RecoveryConfig::paper_set();
    let mut res = RecoveryStudyResults {
        policies: plan.policies.iter().map(RecoveryConfig::name).collect(),
        apps: apps.iter().map(|a| a.name.to_string()).collect(),
        ..RecoveryStudyResults::default()
    };
    let units = plan.injected(Legs::Recover);
    for (u, records) in units.iter().zip(plan.execute(&units)) {
        for r in &records {
            res.experiments += 1;
            let key = (
                res.policies[r.policy].clone(),
                apps[u.app].name.to_string(),
                u.class.clone(),
            );
            let m = r.recovery.as_ref().expect("a recovery leg");
            res.agg.entry(key).or_default().add(m);
        }
    }
    res
}

/// Default cap on armed sites per (app, fault class) when the campaign
/// configuration sets no explicit `max_sites`: the op-stream enumeration
/// yields *every* load/store pc — hundreds per app — so, unlike the
/// allocation-site studies, an uncapped sweep is never the intent.
/// Sampling is even-strided across the stream (see
/// [`dpmr_fi::sample_sites`]).
pub const FAULT_SITES_PER_CLASS: usize = 6;

/// Accumulator for one (fault class, app) population of the runtime
/// fault campaign (Table F.1). All rate denominators are *fired* trials
/// (the armed fault actually mutated an access), mirroring how the
/// coverage metrics exclude unsuccessful injections.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultClassAgg {
    /// Trials executed (fired or not).
    pub trials: u32,
    /// Trials whose armed fault fired at least once.
    pub fired: u32,
    /// Fired trials ending in a `dpmr.check` detection.
    pub ddet: u32,
    /// Fired trials ending in natural detection (crash / self-report).
    pub ndet: u32,
    /// Fired trials that completed normally with **wrong** output —
    /// silent corruptions that escaped every detector.
    pub escaped: u32,
    /// Fired trials that completed normally with correct output.
    pub benign: u32,
    /// Fired trials that exhausted the instruction budget.
    pub timeouts: u32,
    /// Sum of detection latencies (first fire → detection, in virtual
    /// cycles) over detected fired trials.
    pub latency_cycles: u64,
    /// Detected fired trials contributing to `latency_cycles`.
    pub latency_n: u32,
    /// Fired trials whose recovery leg completed with correct output.
    pub recovered: u32,
    /// Fired trials whose recovery leg *survived with wrong output* — a
    /// mis-repair, e.g. single-replica repair writing a corrupted replica
    /// value over correct application state.
    pub wrong_repairs: u32,
}

impl FaultClassAgg {
    /// Adds one trial: the detection-leg measurement plus the recovery
    /// leg's verdict (survived with correct output / survived with wrong
    /// output).
    pub fn add(&mut self, m: &Measurement, recovered: bool, wrong_repair: bool) {
        self.trials += 1;
        if !m.sf {
            return;
        }
        self.fired += 1;
        if m.co {
            self.benign += 1;
        } else if m.ndet {
            self.ndet += 1;
        } else if m.ddet {
            self.ddet += 1;
        } else if m.timeout {
            self.timeouts += 1;
        } else {
            self.escaped += 1;
        }
        if !m.co && (m.ndet || m.ddet) {
            if let Some(t) = m.t2d {
                self.latency_cycles += t;
                self.latency_n += 1;
            }
        }
        if recovered {
            self.recovered += 1;
        }
        if wrong_repair {
            self.wrong_repairs += 1;
        }
    }

    /// Adds a trial of [`Legs::DetectRecover`] and returns the legs it
    /// ran.
    fn add_trial(&mut self, r: &TrialRecord) -> u64 {
        let rec = r.recovery.as_ref();
        self.add(
            r.detect.as_ref().expect("a detection leg"),
            rec.is_some_and(|x| x.recovered_correct),
            rec.is_some_and(|x| x.survived_wrong),
        );
        1 + u64::from(rec.is_some())
    }

    fn frac(&self, num: u32) -> f64 {
        if self.fired == 0 {
            0.0
        } else {
            f64::from(num) / f64::from(self.fired)
        }
    }

    /// Fraction of fired trials detected at all (DPMR or natural).
    pub fn detection_rate(&self) -> f64 {
        self.frac(self.ddet + self.ndet)
    }
    /// Fraction of fired trials detected by a `dpmr.check`.
    pub fn dpmr_rate(&self) -> f64 {
        self.frac(self.ddet)
    }
    /// Fraction of fired trials detected naturally.
    pub fn natural_rate(&self) -> f64 {
        self.frac(self.ndet)
    }
    /// Fraction of fired trials that escaped silently (wrong output,
    /// no detection).
    pub fn escape_rate(&self) -> f64 {
        self.frac(self.escaped)
    }
    /// Fraction of fired trials whose corruption was benign.
    pub fn benign_rate(&self) -> f64 {
        self.frac(self.benign)
    }
    /// Fraction of fired trials that exhausted the instruction budget
    /// (with the other four outcome rates, accounts for every fired
    /// trial).
    pub fn timeout_rate(&self) -> f64 {
        self.frac(self.timeouts)
    }
    /// Fraction of fired trials whose recovery leg survived correctly.
    pub fn recovery_rate(&self) -> f64 {
        self.frac(self.recovered)
    }
    /// Fraction of fired trials whose recovery leg survived with *wrong*
    /// output (silent mis-repair).
    pub fn wrong_repair_rate(&self) -> f64 {
        self.frac(self.wrong_repairs)
    }
    /// Fraction of fired trials with an *unrecoverable or silently wrong*
    /// end state: silent escapes of the detection leg plus mis-repairs of
    /// the recovery leg. The replication-degree study's headline number —
    /// votes with K >= 2 shrink it by turning mis-repairs into replica
    /// repairs.
    pub fn unrecoverable_rate(&self) -> f64 {
        self.frac(self.escaped + self.wrong_repairs)
    }
    /// Mean detection latency in virtual cycles over detected trials.
    pub fn mean_latency_cycles(&self) -> Option<f64> {
        if self.latency_n == 0 {
            None
        } else {
            Some(self.latency_cycles as f64 / f64::from(self.latency_n))
        }
    }
}

/// Display name of the replica-region pseudo-class: heap bit-flips armed
/// specifically at *replica* accesses ([`dpmr_fi::enumerate_replica_sites`]).
pub const REPLICA_CLASS: &str = "bit-flip replica";

/// The runtime fault campaign: fault classes x apps under one DPMR base
/// configuration (Table F.1).
#[derive(Debug, Default)]
pub struct FaultCampaignResults {
    /// Fault-class display names, in taxonomy order (the replica-region
    /// pseudo-class [`REPLICA_CLASS`] last).
    pub classes: Vec<String>,
    /// App names, in presentation order.
    pub apps: Vec<String>,
    /// Aggregates per (class-name, app).
    pub agg: BTreeMap<(String, String), FaultClassAgg>,
    /// The replication-degree differential on replica-region bit-flips:
    /// per app, the K = 1 aggregate (repair-from-replica recovery leg)
    /// against the K = 2 aggregate (vote-and-repair recovery leg). The
    /// single-replica side mis-repairs — it must trust the corrupted
    /// copy — where the vote identifies and rewrites it.
    pub replica_differential: BTreeMap<String, (FaultClassAgg, FaultClassAgg)>,
    /// Trial executions performed (detection + recovery legs).
    pub experiments: u64,
}

/// Runs the runtime fault-injection campaign: every class of
/// [`FaultModel::paper_set`] armed across an even sample of its eligible
/// load/store sites in each app's DPMR-transformed build, with
/// `cc.runs` trials per site (trial `r` arms at `r/runs` of the golden
/// running time under a trial-derived seed). Each trial runs a detection
/// leg and — when DPMR detected — a repair-from-replica recovery leg.
/// Units fan across the study scheduler and merge in unit order, so the
/// artifact is bit-identical at any worker count.
pub fn run_fault_campaign(
    apps: &[AppSpec],
    base: &DpmrConfig,
    cc: &CampaignConfig,
) -> FaultCampaignResults {
    let classes = FaultModel::paper_set();
    let mut res = FaultCampaignResults {
        classes: classes
            .iter()
            .map(|c| c.name())
            .chain(std::iter::once(REPLICA_CLASS.to_string()))
            .collect(),
        apps: apps.iter().map(|a| a.name.to_string()).collect(),
        ..FaultCampaignResults::default()
    };
    // The K = 2 builds back the replica-region differential.
    let base_k2 = base.clone().with_replicas(2);
    let plan = Plan::new("fault", apps, cc).with_builds(|_| {
        vec![
            (base.name(), base.clone()),
            (base_k2.name(), base_k2.clone()),
        ]
    });
    let cap = plan.op_cap();
    let mut units = Vec::new();
    for ai in 0..apps.len() {
        for class in &classes {
            let b = plan.build_index(ai, 0);
            units.extend(plan.armed(b, &class.name(), Some(*class), cap, Legs::DetectRecover));
        }
    }
    for (u, records) in units.iter().zip(plan.execute(&units)) {
        let key = (u.class.clone(), apps[u.app].name.to_string());
        let agg = res.agg.entry(key).or_default();
        for r in &records {
            res.experiments += agg.add_trial(r);
        }
    }
    // Replica-region bit-flips: arm each build's own replica-access
    // sites (the replica surface differs between K = 1 and K = 2 builds)
    // and compare the recovery verdicts — K = 1 repair-from-replica vs
    // K = 2 vote-and-repair.
    let mut rep_units = Vec::new();
    for ai in 0..apps.len() {
        for k in 0..2 {
            let b = plan.build_index(ai, k);
            rep_units.extend(plan.armed(b, REPLICA_CLASS, None, cap, Legs::DetectRecover));
        }
    }
    for (u, records) in rep_units.iter().zip(plan.execute(&rep_units)) {
        let app = apps[u.app].name.to_string();
        let single = matches!(u.target, Target::Shared(b) if b == plan.build_index(u.app, 0));
        let pair = res.replica_differential.entry(app.clone()).or_default();
        let diff_agg = if single { &mut pair.0 } else { &mut pair.1 };
        for r in &records {
            res.experiments += diff_agg.add_trial(r);
            if single {
                // The K = 1 replica-region rows also feed the main table
                // as the REPLICA_CLASS pseudo-class.
                res.agg
                    .entry((REPLICA_CLASS.to_string(), app.clone()))
                    .or_default()
                    .add_trial(r);
            }
        }
    }
    res
}

/// The replication degrees the Table V.1 sweep covers.
pub const REPLICATION_DEGREES: &[usize] = &[1, 2, 3];

/// The replication-degree study: per (K x diversity) variant and app,
/// overhead plus fault-class aggregates (Table V.1).
#[derive(Debug, Default)]
pub struct ReplicationStudyResults {
    /// Variant display names (`K=1/no-diversity` ... `K=3/rearrange-heap`),
    /// in sweep order.
    pub variants: Vec<String>,
    /// App names, in presentation order.
    pub apps: Vec<String>,
    /// Fault-class display names covered by the sweep.
    pub classes: Vec<String>,
    /// Overhead (transformed cycles / golden cycles) per (variant, app).
    pub overhead: BTreeMap<(String, String), f64>,
    /// Aggregates per (variant, app, class-name).
    pub agg: BTreeMap<(String, String, String), FaultClassAgg>,
    /// Trial executions performed.
    pub experiments: u64,
}

/// The Table V.1 variant grid: K in [`REPLICATION_DEGREES`] crossed with
/// the diversity poles (none vs rearrange-heap) over `base`.
pub fn replication_variants(base: &DpmrConfig) -> Vec<(String, DpmrConfig)> {
    let mut v = Vec::new();
    for &k in REPLICATION_DEGREES {
        for d in [Diversity::None, Diversity::RearrangeHeap] {
            v.push((
                format!("K={k}/{}", d.name()),
                base.clone().with_replicas(k).with_diversity(d),
            ));
        }
    }
    v
}

/// Runs the replication-degree study (Table V.1): the variant grid of
/// [`replication_variants`] over `apps`, measuring overhead scaling and —
/// for the classes the vote story is about (heap bit-flips at arbitrary
/// and at *replica* sites, plus wild writes) — detection coverage,
/// silent-escape rate, and repair success under the best repair policy
/// the degree admits (repair-from-replica at K = 1, vote-and-repair at
/// K >= 2). Units fan across the study scheduler and merge in unit
/// order, so the artifact is bit-identical at any worker count.
pub fn run_replication_degree_study(
    apps: &[AppSpec],
    base: &DpmrConfig,
    cc: &CampaignConfig,
) -> ReplicationStudyResults {
    let variants = replication_variants(base);
    let heap_flip = FaultModel::BitFlip {
        region: dpmr_fi::MemRegion::Heap,
    };
    let classes: Vec<(String, Option<FaultModel>)> = vec![
        (heap_flip.name(), Some(heap_flip)),
        (REPLICA_CLASS.to_string(), None), // replica sites, heap flips
        (FaultModel::WildWrite.name(), Some(FaultModel::WildWrite)),
    ];
    let mut res = ReplicationStudyResults {
        variants: variants.iter().map(|(n, _)| n.clone()).collect(),
        apps: apps.iter().map(|a| a.name.to_string()).collect(),
        classes: classes.iter().map(|(n, _)| n.clone()).collect(),
        ..ReplicationStudyResults::default()
    };
    let plan = Plan::new("replication", apps, cc).with_builds(|_| variants.clone());
    res.experiments += record_overheads(&plan, &mut res.overhead);
    // Fault trials: per (app, variant, class), an even sample of the
    // class's sites in *that build* (replica surfaces differ per K).
    let cap = plan.op_cap();
    let mut units = Vec::new();
    for b in 0..plan.builds.len() {
        for (cname, model) in &classes {
            units.extend(plan.armed(b, cname, *model, cap, Legs::DetectRecover));
        }
    }
    for (u, records) in units.iter().zip(plan.execute(&units)) {
        let Target::Shared(b) = u.target else {
            unreachable!("armed units run shared builds")
        };
        let key = (
            plan.builds[b].name.clone(),
            apps[u.app].name.to_string(),
            u.class.clone(),
        );
        let agg = res.agg.entry(key).or_default();
        for r in &records {
            res.experiments += agg.add_trial(r);
        }
    }
    res
}

/// The diversity-study variant list (Sections 3.7 / 4.5): all seven
/// diversity transformations under the all-loads policy.
pub fn diversity_variants(scheme: Scheme) -> Vec<(String, DpmrConfig)> {
    Diversity::paper_set()
        .into_iter()
        .map(|d| {
            let base = match scheme {
                Scheme::Sds => DpmrConfig::sds(),
                Scheme::Mds => DpmrConfig::mds(),
            };
            (
                d.name(),
                base.with_diversity(d).with_policy(Policy::AllLoads),
            )
        })
        .collect()
}

/// One app's aggregated check-site profile (the `profS.1` rows).
#[derive(Debug, Clone, Default)]
pub struct AppSiteProfile {
    /// pc of every check site in the transformed build's lowered code,
    /// indexed by site id.
    pub site_pcs: Vec<u32>,
    /// Display name of the function owning each site.
    pub site_funcs: Vec<String>,
    /// Clean-run per-site counters (executions and check cycles).
    pub clean: Vec<dpmr_vm::telemetry::SiteStats>,
    /// Per-site counters accumulated over every armed-fault trial
    /// (detections, repair outcomes — the detection-usefulness signal).
    pub armed: Vec<dpmr_vm::telemetry::SiteStats>,
    /// Armed trials aggregated into `armed`.
    pub trials: u64,
    /// Clean-run virtual cycles (per-site cost shares are relative to
    /// this).
    pub clean_cycles: u64,
    /// Per-function executed-op totals from the clean run's pc profile,
    /// in `FuncId` order, paired with function names.
    pub funcs: Vec<(String, u64)>,
    /// Simulated region footprint after the clean run.
    pub mem: dpmr_vm::mem::MemUsage,
}

/// The site-profile study results (`profS.1`): per app, hot/cold check
/// sites and their detection usefulness under the runtime fault sweep.
#[derive(Debug, Default)]
pub struct SiteProfileResults {
    /// App names, in presentation order.
    pub apps: Vec<String>,
    /// Profiles per app.
    pub profiles: BTreeMap<String, AppSiteProfile>,
    /// Instrumented executions performed.
    pub experiments: u64,
}

/// Runs the site-profile study: each app's DPMR-transformed build is
/// executed once cleanly with full telemetry (per-site execution counts,
/// per-function pc profile, region footprint), then re-executed under
/// the runtime fault sweep of [`FaultModel::paper_set`] — `cc.runs`
/// armed trials per sampled site — accumulating per-site *detection*
/// counters. The split answers the two questions check elimination and
/// `Partial(n)` selection need: which sites are hot (clean columns) and
/// which sites ever detect (armed columns). Units fan across the study
/// scheduler and merge in unit order: bit-identical at any worker count.
pub fn run_site_profile_study(
    apps: &[AppSpec],
    base: &DpmrConfig,
    cc: &CampaignConfig,
) -> SiteProfileResults {
    let mut res = SiteProfileResults {
        apps: apps.iter().map(|a| a.name.to_string()).collect(),
        ..SiteProfileResults::default()
    };
    let plan =
        Plan::new("site_profile", apps, cc).with_builds(|_| vec![(base.name(), base.clone())]);
    let cap = plan.op_cap();
    let mut units = Vec::new();
    for b in 0..plan.builds.len() {
        units.push(plan.clean(b, Legs::Instrumented));
        for class in FaultModel::paper_set() {
            units.extend(plan.armed(b, &class.name(), Some(class), cap, Legs::Instrumented));
        }
    }
    for (u, records) in units.iter().zip(plan.execute(&units)) {
        let app = apps[u.app].name.to_string();
        let build = &plan.builds[plan.build_index(u.app, 0)];
        let (transformed, code) = (&build.module, &build.lowered.code);
        let prof = res.profiles.entry(app).or_insert_with(|| {
            let site_pcs = code.check_site_pcs();
            let site_funcs = site_pcs
                .iter()
                .map(|&pc| transformed.func(code.func_of_pc(pc)).name.clone())
                .collect();
            AppSiteProfile {
                site_pcs,
                site_funcs,
                armed: vec![Default::default(); code.check_sites as usize],
                ..AppSiteProfile::default()
            }
        });
        for r in records.iter().filter_map(|r| r.instrumented.as_ref()) {
            res.experiments += 1;
            match u.armed {
                None => {
                    prof.clean = r.telemetry.site_stats.clone();
                    prof.clean_cycles = r.out.cycles;
                    prof.mem = r.mem;
                    prof.funcs = r
                        .telemetry
                        .func_totals(code)
                        .unwrap_or_else(|e| {
                            eprintln!("[harness] func attribution skipped: {e}");
                            Vec::new()
                        })
                        .into_iter()
                        .enumerate()
                        .map(|(f, n)| {
                            (
                                transformed
                                    .func(dpmr_ir::module::FuncId(f as u32))
                                    .name
                                    .clone(),
                                n,
                            )
                        })
                        .collect();
                }
                Some(_) => {
                    prof.trials += 1;
                    for (agg, s) in prof.armed.iter_mut().zip(&r.telemetry.site_stats) {
                        agg.executions += s.executions;
                        agg.detections += s.detections;
                        agg.repairs += s.repairs;
                        agg.replica_repairs += s.replica_repairs;
                        agg.terminations += s.terminations;
                        agg.cycles += s.cycles;
                    }
                }
            }
        }
    }
    res
}

/// One keyed trace of the trace study: the JSONL block for a single
/// `(app, seed, config)` run.
#[derive(Debug, Clone)]
pub struct KeyedTrace {
    /// Application name.
    pub app: String,
    /// VM seed the traced run used.
    pub seed: u64,
    /// Configuration tag (`clean`, or the armed fault-class name).
    pub config: String,
    /// The event trace, one JSON object per line, each carrying the
    /// `(app, seed, config)` key.
    pub jsonl: String,
}

/// The trace-study results (`traceE.1`): structured event traces of each
/// app's DPMR build, clean and under one armed fault per class.
#[derive(Debug, Default)]
pub struct TraceStudyResults {
    /// Keyed traces, in deterministic (app, config) unit order.
    pub traces: Vec<KeyedTrace>,
    /// Traced executions performed.
    pub experiments: u64,
}

/// Prefixes every event line of `telemetry`'s trace with the
/// `(app, seed, config)` key, yielding self-describing JSONL.
fn keyed_jsonl(app: &str, seed: u64, config: &str, tele: &dpmr_vm::telemetry::Telemetry) -> String {
    let key = format!("{{\"app\":\"{app}\",\"seed\":{seed},\"config\":\"{config}\",");
    tele.trace_jsonl()
        .lines()
        .map(|line| {
            // Splice the key into each event object (every line is one
            // `{...}` object by construction).
            format!("{}{}\n", key, &line[1..])
        })
        .collect()
}

/// Runs the trace study: per app, a clean traced run of the
/// DPMR-transformed build plus one traced armed run per fault class of
/// [`FaultModel::paper_set`] (first sampled site, run 0 — a
/// representative corruption timeline per class, not a sweep). Units fan
/// across the study scheduler and merge in unit order, so the sink is
/// bit-identical at any worker count.
pub fn run_trace_study(
    apps: &[AppSpec],
    base: &DpmrConfig,
    cc: &CampaignConfig,
) -> TraceStudyResults {
    let plan = Plan::new("trace", apps, cc).with_builds(|_| vec![(base.name(), base.clone())]);
    let mut units = Vec::new();
    for b in 0..plan.builds.len() {
        units.push(plan.clean(b, Legs::Instrumented));
        for class in FaultModel::paper_set() {
            // The first sampled site at run 0: one representative
            // timeline per class. A class with no eligible site in the
            // app gets no unit.
            let first = plan.armed(b, &class.name(), Some(class), 1, Legs::Instrumented);
            units.extend(first.into_iter().map(|u| Unit { runs: 0..1, ..u }));
        }
    }
    let mut res = TraceStudyResults::default();
    for (u, records) in units.iter().zip(plan.execute(&units)) {
        for run in records.iter().filter_map(|r| r.instrumented.as_ref()) {
            let app = apps[u.app].name;
            res.experiments += 1;
            res.traces.push(KeyedTrace {
                app: app.to_string(),
                seed: run.seed,
                config: u.class.clone(),
                jsonl: keyed_jsonl(app, run.seed, &u.class, &run.telemetry),
            });
        }
    }
    res
}

/// One (app, pass-combination) row of the optimizer study (`optP.1`).
#[derive(Debug, Clone, Default)]
pub struct OptComboRow {
    /// Check sites still comparing after the optimizer.
    pub live_checks: u64,
    /// Sites dropped by profile-guided selection.
    pub dropped: u64,
    /// Dynamic check executions of the clean instrumented run.
    pub check_execs: u64,
    /// Virtual cycles of the clean run.
    pub cycles: u64,
    /// Instructions retired by the clean run (invariant across the
    /// combinations by construction: dropped slots still dispatch).
    pub instrs: u64,
    /// The run completed cleanly with the golden output.
    pub output_ok: bool,
}

/// The optimizer study results (`optP.1`): per app, the check-count,
/// virtual-cycle, and virtual-MIPS deltas of the optimizer off and on,
/// plus the machine-readable dropped-site report of the profile-guided
/// combination. Virtual (not wall-clock) figures keep the artifact
/// bit-identical at any worker count; host-time deltas live in the
/// bench suite's `BENCH_INTERP.json`.
#[derive(Debug, Default)]
pub struct OptStudyResults {
    /// App names, in presentation order.
    pub apps: Vec<String>,
    /// Optimizer-configuration tags (`off`, `pgo`), in presentation order.
    pub combos: Vec<String>,
    /// Rows per (app, combo tag).
    pub rows: BTreeMap<(String, String), OptComboRow>,
    /// Dropped-site JSONL report per app (profile-guided combination).
    pub dropped_reports: BTreeMap<String, String>,
    /// Instrumented executions performed.
    pub experiments: u64,
}

/// The optimizer configuration run at `combo_idx` for `app`: off, or
/// profile-guided selection resolved against that app's usefulness
/// weights (sites that never detected during the armed sweep drop at
/// threshold 0; an app with no profile keeps every site).
fn opt_combo(
    combo_idx: usize,
    app: &str,
    usefulness: &BTreeMap<String, Vec<f64>>,
) -> dpmr_vm::opt::PassConfig {
    use dpmr_vm::opt::{PassConfig, ProfileGuided};
    match combo_idx {
        0 => PassConfig::none(),
        _ => PassConfig::none().with_profile(ProfileGuided {
            usefulness: usefulness.get(app).cloned().unwrap_or_default(),
            threshold: 0.0,
        }),
    }
}

/// Runs the optimizer study (`optP.1`): each app's DPMR-transformed
/// build is run with the optimizer off and with profile-guided
/// selection fed by the profS.1 armed-sweep detection counts, each
/// executed once cleanly with full telemetry. Rows report static
/// (live/dropped check counts) and dynamic (check executions, virtual
/// cycles, instructions) effects per configuration.
/// Units fan across the study scheduler and merge in unit order:
/// bit-identical at any worker count.
pub fn run_opt_study(
    apps: &[AppSpec],
    base: &DpmrConfig,
    usefulness: &BTreeMap<String, Vec<f64>>,
    cc: &CampaignConfig,
) -> OptStudyResults {
    const COMBOS: usize = 2;
    let plan = Plan::new("opt", apps, cc).with_builds(|p| {
        (0..COMBOS)
            .map(|ci| {
                let passes = opt_combo(ci, p.app.name, usefulness);
                (passes.tag().to_string(), base.clone().with_passes(passes))
            })
            .collect()
    });
    let units: Vec<Unit> = (0..plan.builds.len())
        .map(|b| plan.clean(b, Legs::Instrumented))
        .collect();
    let mut res = OptStudyResults {
        apps: apps.iter().map(|a| a.name.to_string()).collect(),
        combos: (0..COMBOS)
            .map(|ci| opt_combo(ci, "", &BTreeMap::new()).tag().to_string())
            .collect(),
        ..OptStudyResults::default()
    };
    for (u, records) in units.iter().zip(plan.execute(&units)) {
        let app = apps[u.app].name.to_string();
        let p = &plan.prepared[u.app];
        for r in &records {
            let build = &plan.builds[r.build];
            let run = r.instrumented.as_ref().expect("an instrumented run");
            let opt = &build.lowered;
            res.experiments += 1;
            if !opt.dropped.is_empty() {
                res.dropped_reports
                    .insert(app.clone(), opt.dropped_report_jsonl());
            }
            let row = OptComboRow {
                live_checks: opt.live_checks(),
                dropped: opt.dropped.len() as u64,
                check_execs: run.telemetry.site_stats.iter().map(|s| s.executions).sum(),
                cycles: run.out.cycles,
                instrs: run.out.instrs,
                output_ok: matches!(run.out.status, dpmr_vm::interp::ExitStatus::Normal(0))
                    && run.out.output == p.golden.output,
            };
            res.rows.insert((app.clone(), build.name.clone()), row);
        }
    }
    res
}

/// The policy-study variant list (Sections 3.8 / 4.5): all seven
/// comparison policies under rearrange-heap (the best diversity).
pub fn policy_variants(scheme: Scheme) -> Vec<(String, DpmrConfig)> {
    Policy::paper_set()
        .into_iter()
        .map(|pol| {
            let base = match scheme {
                Scheme::Sds => DpmrConfig::sds(),
                Scheme::Mds => DpmrConfig::mds(),
            };
            (
                pol.name(),
                base.with_diversity(Diversity::RearrangeHeap)
                    .with_policy(pol),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpmr_workloads::app_by_name;

    #[test]
    fn cov_agg_accumulates_components() {
        let mut a = CovAgg::default();
        a.add(&Measurement {
            sf: true,
            co: true,
            ndet: false,
            ddet: false,
            timeout: false,
            t2d: None,
            cycles: 10,
            instrs: 10,
        });
        a.add(&Measurement {
            sf: true,
            co: false,
            ndet: false,
            ddet: true,
            timeout: false,
            t2d: Some(500),
            cycles: 10,
            instrs: 10,
        });
        a.add(&Measurement {
            sf: false,
            co: false,
            ndet: false,
            ddet: false,
            timeout: false,
            t2d: None,
            cycles: 1,
            instrs: 1,
        });
        assert_eq!(a.n, 2, "unsuccessful injections are excluded");
        assert!((a.coverage() - 1.0).abs() < 1e-9);
        assert!((a.co_frac() - 0.5).abs() < 1e-9);
        assert!((a.ddet_frac() - 0.5).abs() < 1e-9);
        assert!(a.mttd_msec().is_some());
    }

    #[test]
    fn variant_lists_have_paper_sizes() {
        assert_eq!(diversity_variants(Scheme::Sds).len(), 7);
        assert_eq!(policy_variants(Scheme::Mds).len(), 7);
    }

    #[test]
    fn fault_class_agg_rates_are_fired_denominated() {
        let mut a = FaultClassAgg::default();
        let m = |sf, co, ndet, ddet, t2d| Measurement {
            sf,
            co,
            ndet,
            ddet,
            timeout: false,
            t2d,
            cycles: 1,
            instrs: 1,
        };
        a.add(&m(false, false, false, false, None), false, false); // unfired
        a.add(&m(true, false, false, true, Some(100)), true, false); // dpmr, recovered
        a.add(&m(true, false, true, false, Some(300)), false, false); // natural
        a.add(&m(true, false, false, false, None), false, false); // escape
        a.add(&m(true, true, false, false, None), false, false); // benign
        assert_eq!(a.trials, 5);
        assert_eq!(a.fired, 4);
        assert!((a.detection_rate() - 0.5).abs() < 1e-9);
        assert!((a.dpmr_rate() - 0.25).abs() < 1e-9);
        assert!((a.escape_rate() - 0.25).abs() < 1e-9);
        assert!((a.benign_rate() - 0.25).abs() < 1e-9);
        assert!((a.recovery_rate() - 0.25).abs() < 1e-9);
        assert_eq!(a.mean_latency_cycles(), Some(200.0));
        // A detected-but-mis-repaired trial counts toward the
        // unrecoverable tally alongside silent escapes.
        a.add(&m(true, false, false, true, Some(100)), false, true);
        assert_eq!(a.wrong_repairs, 1);
        assert!((a.wrong_repair_rate() - 0.2).abs() < 1e-9);
        assert!((a.unrecoverable_rate() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn tiny_fault_campaign_runs_end_to_end() {
        let app = app_by_name("pchase").expect("pchase");
        let cc = CampaignConfig {
            max_sites: Some(2),
            ..CampaignConfig::tiny()
        };
        let res = run_fault_campaign(&[app], &DpmrConfig::sds(), &cc);
        // The taxonomy classes plus the replica-region pseudo-class.
        assert_eq!(res.classes.len(), FaultModel::paper_set().len() + 1);
        assert!(res.experiments > 0);
        assert!(
            res.agg.values().any(|a| a.fired > 0),
            "some class must fire on pchase"
        );
        // Every (class, app) population the campaign armed is present.
        for class in &res.classes {
            assert!(
                res.agg.contains_key(&(class.clone(), "pchase".to_string())),
                "{class} missing from the aggregate"
            );
        }
    }

    #[test]
    fn tiny_opt_study_without_a_profile_keeps_every_site() {
        let app = app_by_name("bzip2").expect("bzip2");
        let res = run_opt_study(
            &[app],
            &DpmrConfig::sds(),
            &BTreeMap::new(),
            &CampaignConfig::tiny(),
        );
        assert_eq!(res.experiments, 2);
        let row = |combo: &str| &res.rows[&("bzip2".to_string(), combo.to_string())];
        let (off, pgo) = (row("off"), row("pgo"));
        assert!(off.output_ok && pgo.output_ok);
        // With no usefulness weights the profile-guided leg
        // conservatively keeps every site, so the run is unchanged.
        assert_eq!(pgo.dropped, 0);
        assert_eq!(
            (off.live_checks, off.check_execs, off.cycles, off.instrs),
            (pgo.live_checks, pgo.check_execs, pgo.cycles, pgo.instrs)
        );
        assert!(res.dropped_reports.is_empty());
    }

    #[test]
    fn tiny_study_runs_end_to_end() {
        let app = app_by_name("bzip2").expect("bzip2");
        let variants = vec![(
            "no-diversity".to_string(),
            DpmrConfig::sds().with_diversity(Diversity::None),
        )];
        let res = run_study(&[app], &variants, &CampaignConfig::tiny());
        assert!(res.experiments > 0);
        assert!(!res.coverage.is_empty());
        let o = res.overhead[&("no-diversity".to_string(), "bzip2".to_string())];
        assert!(o > 1.0);
    }
}
