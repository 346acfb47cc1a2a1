//! `fault_campaign`: the armed trials of the default-sized Table F.1 and
//! Table V.1 campaigns, one trial per op, fanned over the harness
//! scheduler with two workers. Builds and site sampling are set-up.

use crate::bench::{guarded, metric, Metric, OpRecord, RecoveryCounts, Round, Verdict, Workload};
use crate::stats::Fnv;
use crate::trace::{now_ns, OpTrace, Span};
use dpmr_core::prelude::*;
use dpmr_fi::{FaultModel, MemRegion, OpSite};
use dpmr_harness::experiment::{prepare, PreparedApp};
use dpmr_harness::metrics::{
    replication_variants, run_fault_campaign, CampaignConfig, FaultClassAgg, FAULT_SITES_PER_CLASS,
    REPLICA_CLASS,
};
use dpmr_ir::module::Module;
use dpmr_recovery::RecoveryDriver;
use dpmr_vm::prelude::*;
use dpmr_workloads::{fault_campaign_apps, WorkloadParams};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Trials per site (the harness's default `CampaignConfig::runs`).
const RUNS: u32 = 2;

/// Repair budget of a trial's recovery leg (the harness campaign's).
const REPAIR_BUDGET: u64 = 4096;

/// Which table a trial belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Table {
    /// Table F.1, a fault class armed in the base build.
    F,
    /// Table F.1's replica-region differential at degree K.
    FReplica(usize),
    /// Table V.1.
    V,
}

/// One armed trial.
struct Trial {
    table: Table,
    app: usize,
    build: usize,
    class: String,
    model: FaultModel,
    site: OpSite,
    run: u32,
}

/// The harness's per-run configuration: budget, VM seed and garbage
/// fill derived from the run number.
pub fn run_config(p: &PreparedApp, run: u32) -> RunConfig {
    let mut rc = RunConfig {
        max_instrs: p.budget(),
        seed: u64::from(run) + 1,
        ..RunConfig::default()
    };
    rc.mem.fill_seed = (u64::from(run) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    rc
}

/// Mixes a run outcome into `h`.
pub fn digest_outcome(h: &mut Fnv, out: &RunOutcome) {
    h.bytes(format!("{:?}", out.status).as_bytes())
        .u64(out.instrs)
        .u64(out.cycles);
    for &w in &out.output {
        h.u64(w);
    }
}

/// The built campaign.
pub struct FaultCampaign {
    seed: u64,
    base: DpmrConfig,
    prepared: Vec<PreparedApp>,
    /// Distinct (name, configuration) builds.
    configs: Vec<(String, DpmrConfig)>,
    /// Per (app, config): transformed module and its lowering.
    builds: Vec<Vec<(Module, LoweredCode)>>,
    trials: Vec<Trial>,
    sites_enumerated: u64,
    fingerprint: u64,
}

impl FaultCampaign {
    fn params(seed: u64) -> WorkloadParams {
        WorkloadParams {
            seed,
            ..WorkloadParams::quick()
        }
    }

    fn trial(&self, t: &Trial, tr: &mut OpTrace, rec: &mut OpRecord) {
        let p = &self.prepared[t.app];
        let (module, code) = &self.builds[t.app][t.build];
        let cfg = &self.configs[t.build].1;
        let armed = ArmedFault {
            site: t.site.pc,
            fault: t.model,
            seed: dpmr_fi::trial_seed(t.site.pc, t.run),
            arm_cycle: p.golden.cycles * u64::from(t.run) / u64::from(RUNS),
        };
        let mut rc = run_config(p, t.run);
        rc.fault = Some(armed);
        let code = Rc::new(code.clone());
        let registry = Rc::new(registry_with_wrappers());
        let mut interp = tr.span("vm.new", |_| {
            Interp::with_code(module, Rc::clone(&code), &rc, Rc::clone(&registry))
        });
        let out = tr.span("vm.run", |_| interp.run(rc.args.clone()));
        drop(interp);
        let mut h = Fnv::default();
        digest_outcome(&mut h, &out);
        rec.instrs = out.instrs;
        rec.vcycles = out.cycles;
        let m = p.measure(&out);
        let (mut recovered, mut wrong_repair) = (false, false);
        // The recovery leg runs only on a DPMR detection, with the best
        // repair policy the build's replication degree admits.
        if m.sf && m.ddet {
            let mut rcfg = self.base.recovery;
            rcfg.policy = if cfg.replicas >= 2 {
                RecoveryPolicy::VoteAndRepair {
                    max_repairs: REPAIR_BUDGET,
                }
            } else {
                RecoveryPolicy::RepairFromReplica {
                    max_repairs: REPAIR_BUDGET,
                }
            };
            let driver = RecoveryDriver::with_code(module, code, registry, rc, rcfg);
            let ro = tr.span("recovery.run", |_| driver.run());
            digest_outcome(&mut h, &ro.last);
            rec.recovery = RecoveryCounts {
                legs: 1,
                attempts: u64::from(ro.attempts),
                repairs: ro.repairs,
                useful: 0,
            };
            let rm = p.measure_recovery(ro);
            recovered = rm.recovered_correct;
            wrong_repair = rm.survived_wrong;
            rec.recovery.useful = u64::from(recovered);
        }
        h.u64(u64::from(recovered)).u64(u64::from(wrong_repair));
        rec.digest = h.finish();
        rec.verdict = Some(Verdict {
            m,
            recovered,
            wrong_repair,
        });
    }
}

impl Workload for FaultCampaign {
    fn setup(seed: u64, tr: &mut OpTrace) -> Self {
        let params = Self::params(seed);
        let apps = fault_campaign_apps();
        let base = DpmrConfig::sds();
        // The Table V.1 grid holds Table F.1's base build and its K = 2
        // twin; each distinct configuration is built once.
        let mut configs = replication_variants(&base);
        let grid = configs.len();
        let mut index_of = |cfg: DpmrConfig| {
            let key = format!("{cfg:?}");
            configs
                .iter()
                .position(|(_, c)| format!("{c:?}") == key)
                .unwrap_or_else(|| {
                    configs.push((cfg.name(), cfg));
                    configs.len() - 1
                })
        };
        let base_k1 = index_of(base.clone());
        let base_k2 = index_of(base.clone().with_replicas(2));
        let mut fp = Fnv::default();
        let mut prepared = Vec::new();
        for app in &apps {
            let built = tr.span("workloads.build", |_| (app.build)(&params));
            let p = tr.span("harness.prepare", |_| prepare(*app, &params));
            fp.u64(ModuleStats::of(&built).instructions as u64);
            digest_outcome(&mut fp, &p.golden);
            prepared.push(p);
        }
        let mut builds = Vec::new();
        for p in &prepared {
            let mut per_app = Vec::new();
            for (_, cfg) in &configs {
                let t = tr.span("core.transform", |_| {
                    transform(&p.module, cfg).expect("transform")
                });
                let code = tr.span("vm.lower", |_| dpmr_vm::lower::lower(&t));
                assert!(cfg.passes.is_noop(), "campaign builds run no passes");
                fp.u64(code.ops.len() as u64);
                per_app.push((t, code));
            }
            builds.push(per_app);
        }
        let heap_flip = FaultModel::BitFlip {
            region: MemRegion::Heap,
        };
        let mut sites_enumerated = 0u64;
        let mut trials = Vec::new();
        let mut push = |table, app, build, class: String, model, sites: Vec<OpSite>| {
            sites_enumerated += sites.len() as u64;
            for site in dpmr_fi::sample_sites(&sites, FAULT_SITES_PER_CLASS) {
                for run in 0..RUNS {
                    trials.push(Trial {
                        table,
                        app,
                        build,
                        class: class.clone(),
                        model,
                        site,
                        run,
                    });
                }
            }
        };
        // Table F.1: every paper-set class in the base build, then the
        // replica-region differential at K = 1 and K = 2.
        for (ai, per_app) in builds.iter().enumerate() {
            for class in FaultModel::paper_set() {
                let sites = tr.span("fi.sites", |_| {
                    dpmr_fi::enumerate_op_sites(&per_app[base_k1].1, class)
                });
                push(Table::F, ai, base_k1, class.name(), class, sites);
            }
        }
        for (ai, per_app) in builds.iter().enumerate() {
            for (degree, bi) in [(1usize, base_k1), (2, base_k2)] {
                let sites = tr.span("fi.sites", |_| {
                    dpmr_fi::enumerate_replica_sites(&per_app[bi].1)
                });
                push(
                    Table::FReplica(degree),
                    ai,
                    bi,
                    REPLICA_CLASS.to_string(),
                    heap_flip,
                    sites,
                );
            }
        }
        // Table V.1: per variant, heap flips, replica-site heap flips and
        // wild writes.
        for (ai, per_app) in builds.iter().enumerate() {
            for (bi, (_, code)) in per_app.iter().enumerate().take(grid) {
                for (class, model) in [
                    (heap_flip.name(), Some(heap_flip)),
                    (REPLICA_CLASS.to_string(), None),
                    (FaultModel::WildWrite.name(), Some(FaultModel::WildWrite)),
                ] {
                    let sites = tr.span("fi.sites", |_| match model {
                        Some(m) => dpmr_fi::enumerate_op_sites(code, m),
                        None => dpmr_fi::enumerate_replica_sites(code),
                    });
                    push(Table::V, ai, bi, class, model.unwrap_or(heap_flip), sites);
                }
            }
        }
        for t in &trials {
            fp.u64(t.site.pc.into())
                .u64(t.app as u64)
                .u64(t.build as u64);
        }
        FaultCampaign {
            seed,
            base,
            prepared,
            configs,
            builds,
            trials,
            sites_enumerated,
            fingerprint: fp.finish(),
        }
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn workers(&self) -> usize {
        crate::workers()
    }

    fn round(&self, traced: bool, epoch: Instant) -> Round {
        let idx: Vec<usize> = (0..self.trials.len()).collect();
        let start = now_ns(epoch);
        let ops = dpmr_harness::sched::run_indexed(&idx, self.workers(), |&i| {
            guarded(i, traced, epoch, |tr, rec| {
                self.trial(&self.trials[i], tr, rec);
            })
        });
        let end = now_ns(epoch);
        let spans = if traced {
            vec![Span {
                name: "sched.run_indexed",
                op: u64::MAX,
                id: 0,
                parent: None,
                start,
                end,
            }]
        } else {
            Vec::new()
        };
        Round {
            traced,
            start,
            end,
            ops,
            spans,
        }
    }

    fn op_key(&self, op: usize) -> String {
        let t = &self.trials[op];
        let table = match t.table {
            Table::F | Table::FReplica(_) => "tabF.1",
            Table::V => "tabV.1",
        };
        format!(
            "table={table} app={} build={} class={} pc={} run={}",
            self.prepared[t.app].app.name, self.configs[t.build].0, t.class, t.site.pc, t.run
        )
    }

    fn op_labels(&self, op: usize) -> (&str, &str) {
        let t = &self.trials[op];
        (self.prepared[t.app].app.name, &self.configs[t.build].0)
    }

    fn setup_counts(&self) -> Vec<Metric> {
        let instrs: usize = self
            .builds
            .iter()
            .flatten()
            .map(|(m, _)| ModuleStats::of(m).instructions)
            .sum();
        let ops: usize = self.builds.iter().flatten().map(|(_, c)| c.ops.len()).sum();
        vec![
            metric("fi.sites", self.sites_enumerated as f64, "count"),
            metric("core.transform.instrs", instrs as f64, "count"),
            metric("vm.lower.ops", ops as f64, "count"),
        ]
    }

    fn pass_metrics(&self, pass: &[OpRecord]) -> Vec<Metric> {
        // Over fired trials; a failed trial counts as fired and as the
        // worst outcome (undetected, unrecoverable, not recovered).
        let (mut fired, mut ddet, mut unrec, mut recov) = (0u64, 0u64, 0u64, 0u64);
        for rec in pass {
            match &rec.verdict {
                Some(v) if !rec.failed() => {
                    if !v.m.sf {
                        continue;
                    }
                    fired += 1;
                    let escaped = !v.m.co && !v.m.ndet && !v.m.ddet && !v.m.timeout;
                    ddet += u64::from(!v.m.co && !v.m.ndet && v.m.ddet);
                    unrec += u64::from(escaped || v.wrong_repair);
                    recov += u64::from(v.recovered);
                }
                _ => {
                    fired += 1;
                    unrec += 1;
                }
            }
        }
        let frac = |n: u64| {
            if fired == 0 {
                0.0
            } else {
                n as f64 / fired as f64
            }
        };
        vec![
            metric("dpmr_detect_frac", frac(ddet), "frac"),
            metric("unrecoverable_frac", frac(unrec), "frac"),
            metric("recover_frac", frac(recov), "frac"),
        ]
    }

    fn post_check(&self, reference: &[OpRecord]) -> Result<Vec<String>, String> {
        // Parity with the harness: the Table F.1 trials, aggregated as it
        // aggregates them, must equal `run_fault_campaign` at the default
        // campaign configuration.
        let mut agg: BTreeMap<(String, String), FaultClassAgg> = BTreeMap::new();
        let mut diff: BTreeMap<String, (FaultClassAgg, FaultClassAgg)> = BTreeMap::new();
        let mut failed_f = 0;
        for (t, rec) in self.trials.iter().zip(reference) {
            if t.table == Table::V {
                continue;
            }
            let Some(v) = rec.verdict.as_ref().filter(|_| !rec.failed()) else {
                failed_f += 1;
                continue;
            };
            let app = self.prepared[t.app].app.name.to_string();
            if t.table == Table::F || t.table == Table::FReplica(1) {
                agg.entry((t.class.clone(), app.clone())).or_default().add(
                    &v.m,
                    v.recovered,
                    v.wrong_repair,
                );
            }
            if let Table::FReplica(k) = t.table {
                let pair = diff.entry(app).or_default();
                let side = if k == 1 { &mut pair.0 } else { &mut pair.1 };
                side.add(&v.m, v.recovered, v.wrong_repair);
            }
        }
        let cc = CampaignConfig {
            params: Self::params(self.seed),
            workers: self.workers(),
            ..CampaignConfig::default()
        };
        let harness = std::panic::catch_unwind(|| {
            run_fault_campaign(&fault_campaign_apps(), &DpmrConfig::sds(), &cc)
        });
        match harness {
            Err(_) if failed_f > 0 => Ok(vec![format!(
                "parity tabF.1: not comparable, {failed_f} trial(s) of tabF.1 failed"
            )]),
            Err(_) => Err("parity tabF.1: run_fault_campaign panicked where no trial did".into()),
            Ok(h) => {
                let same = format!("{agg:?}") == format!("{:?}", h.agg)
                    && format!("{diff:?}") == format!("{:?}", h.replica_differential);
                if same {
                    Ok(vec![format!(
                        "parity tabF.1: {} (class, app) aggregates equal run_fault_campaign",
                        agg.len()
                    )])
                } else {
                    Err("parity tabF.1: aggregates differ from run_fault_campaign".into())
                }
            }
        }
    }
}
