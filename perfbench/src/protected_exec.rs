//! `protected_exec`: clean runs to completion of seven apps at scale 8
//! under four DPMR builds, on pre-lowered code, single-threaded. Each
//! op is one `Interp::with_code` + `run`, checked against the
//! untransformed golden output.

use crate::bench::{guarded, metric, Metric, OpRecord, Round, Workload};
use crate::fault_campaign::{digest_outcome, run_config};
use crate::stats::{geomean, Fnv};
use crate::trace::{now_ns, OpTrace};
use dpmr_core::prelude::*;
use dpmr_harness::experiment::{prepare, PreparedApp};
use dpmr_ir::module::Module;
use dpmr_vm::prelude::*;
use dpmr_workloads::{app_by_name, micro, AppSpec, WorkloadParams};
use std::rc::Rc;
use std::time::Instant;

/// Workload scale of every app build.
const SCALE: i64 = 8;

/// The apps, in op order.
pub const APPS: [&str; 7] = [
    "art", "bzip2", "equake", "mcf", "pchase", "rvictim", "scrub",
];

/// The builds, in op order.
pub const BUILDS: [&str; 4] = ["sds_k1", "sds_k2", "mds_k1", "sds_k2_opt"];

fn app_spec(name: &str) -> AppSpec {
    if name == "scrub" {
        return AppSpec {
            name: "scrub",
            build: |p| micro::table_scrub(64 * p.scale, 32 * p.scale),
        };
    }
    app_by_name(name).expect("known app")
}

/// One prepared (app, build) pair.
struct Build {
    app: usize,
    build: usize,
    module: Rc<Module>,
    code: Rc<LoweredCode>,
}

/// The built workload.
pub struct ProtectedExec {
    prepared: Vec<PreparedApp>,
    ops: Vec<Build>,
    registry: Rc<Registry>,
    instrs: usize,
    lowered_ops: usize,
    live_checks: u64,
    fingerprint: u64,
}

impl Workload for ProtectedExec {
    fn setup(seed: u64, tr: &mut OpTrace) -> Self {
        let params = WorkloadParams { scale: SCALE, seed };
        let sds_k2 = DpmrConfig::sds().with_replicas(2);
        let configs = [DpmrConfig::sds(), sds_k2, DpmrConfig::mds()];
        let mut fp = Fnv::default();
        let (mut instrs, mut lowered_ops, mut live_checks) = (0, 0, 0);
        let mut prepared = Vec::new();
        let mut ops = Vec::new();
        for (ai, name) in APPS.iter().enumerate() {
            let spec = app_spec(name);
            let built = tr.span("workloads.build", |_| (spec.build)(&params));
            let p = tr.span("harness.prepare", |_| prepare(spec, &params));
            fp.u64(ModuleStats::of(&built).instructions as u64);
            digest_outcome(&mut fp, &p.golden);
            for (bi, cfg) in configs.iter().enumerate() {
                let t = Rc::new(tr.span("core.transform", |_| {
                    transform(&p.module, cfg).expect("transform")
                }));
                let code = tr.span("vm.lower", |_| dpmr_vm::lower::lower(&t));
                instrs += ModuleStats::of(&t).instructions;
                lowered_ops += code.ops.len();
                fp.u64(code.ops.len() as u64);
                if bi == 1 {
                    // sds_k2_opt: the same transformed build through every
                    // optimizing pass.
                    let opt = tr.span("vm.opt", |_| optimize(&code, &PassConfig::all()));
                    live_checks += opt.live_checks();
                    fp.u64(opt.code.ops.len() as u64);
                    ops.push(Build {
                        app: ai,
                        build: 3,
                        module: Rc::clone(&t),
                        code: Rc::new(opt.code),
                    });
                }
                ops.push(Build {
                    app: ai,
                    build: bi,
                    module: t,
                    code: Rc::new(code),
                });
            }
            prepared.push(p);
        }
        ops.sort_by_key(|b| (b.app, b.build));
        ProtectedExec {
            prepared,
            ops,
            registry: Rc::new(registry_with_wrappers()),
            instrs,
            lowered_ops,
            live_checks,
            fingerprint: fp.finish(),
        }
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn workers(&self) -> usize {
        1
    }

    fn round(&self, traced: bool, epoch: Instant) -> Round {
        let start = now_ns(epoch);
        let ops = self
            .ops
            .iter()
            .enumerate()
            .map(|(i, b)| {
                guarded(i, traced, epoch, |tr, rec| {
                    let p = &self.prepared[b.app];
                    let rc = run_config(p, 0);
                    let mut interp = tr.span("vm.new", |_| {
                        Interp::with_code(
                            &b.module,
                            Rc::clone(&b.code),
                            &rc,
                            Rc::clone(&self.registry),
                        )
                    });
                    let out = tr.span("vm.run", |_| interp.run(rc.args.clone()));
                    let mut h = Fnv::default();
                    digest_outcome(&mut h, &out);
                    rec.digest = h.finish();
                    rec.instrs = out.instrs;
                    rec.vcycles = out.cycles;
                    rec.wrong =
                        out.status != ExitStatus::Normal(0) || out.output != p.golden.output;
                })
            })
            .collect();
        Round {
            traced,
            start,
            end: now_ns(epoch),
            ops,
            spans: Vec::new(),
        }
    }

    fn op_key(&self, op: usize) -> String {
        let b = &self.ops[op];
        format!("app={} build={}", APPS[b.app], BUILDS[b.build])
    }

    fn op_labels(&self, op: usize) -> (&str, &str) {
        let b = &self.ops[op];
        (APPS[b.app], BUILDS[b.build])
    }

    fn setup_counts(&self) -> Vec<Metric> {
        vec![
            metric("core.transform.instrs", self.instrs as f64, "count"),
            metric("vm.lower.ops", self.lowered_ops as f64, "count"),
            metric("vm.opt.live_checks", self.live_checks as f64, "count"),
        ]
    }

    fn pass_metrics(&self, pass: &[OpRecord]) -> Vec<Metric> {
        // Eq. 3.1 per (app, build), geometric mean over the pass.
        let ratios: Vec<f64> = pass
            .iter()
            .filter(|o| !o.failed())
            .map(|o| o.vcycles as f64 / self.prepared[self.ops[o.op].app].golden.cycles as f64)
            .collect();
        vec![metric(
            "vcycle_overhead",
            geomean(&ratios).unwrap_or(0.0),
            "ratio",
        )]
    }
}
