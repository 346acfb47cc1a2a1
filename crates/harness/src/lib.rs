//! # dpmr-harness
//!
//! The experimental framework of Chapter 3: variant builds (Sec. 3.5),
//! fault-injection campaigns (Sec. 3.4), evaluation metrics (Sec. 3.6),
//! and emitters that regenerate **every table and figure** of the
//! dissertation's evaluation (Chapters 3 and 4, plus a Chapter 5 DSA
//! demonstration). See `DESIGN.md` for the experiment index.
//!
//! Run everything with:
//!
//! ```bash
//! cargo run -p dpmr-harness --release -- all
//! ```
//!
//! or a single artifact (`fig3.6`, `tab4.5`, ...):
//!
//! ```bash
//! cargo run -p dpmr-harness --release -- fig3.10 tab3.3
//! ```

pub mod bench_report;
pub mod experiment;
pub mod figures;
pub mod metrics;
pub mod sched;
pub mod trial;

use dpmr_core::prelude::*;
use metrics::{
    run_diversity_study, run_fault_campaign, run_opt_study, run_policy_study, run_recovery_study,
    run_replication_degree_study, run_site_profile_study, run_trace_study, CampaignConfig,
    FaultCampaignResults, OptStudyResults, RecoveryStudyResults, ReplicationStudyResults,
    SiteProfileResults, StudyResults, TraceStudyResults,
};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// All reproducible artifacts with one-line descriptions, in paper order
/// (the `list` subcommand's table; ids come from [`all_ids`]).
pub fn artifact_descriptions() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "fig3.6",
            "mean heap-array-resize coverage of diversity transformations (SDS)",
        ),
        (
            "fig3.7",
            "mean immediate-free coverage of diversity transformations (SDS)",
        ),
        (
            "fig3.8",
            "heap-array-resize conditional coverage of diversity transformations (SDS)",
        ),
        (
            "fig3.9",
            "immediate-free conditional coverage of diversity transformations (SDS)",
        ),
        (
            "fig3.10",
            "overhead of diversity transformations (SDS, all loads)",
        ),
        (
            "tab3.3",
            "mean time to detection of diversity transformations (SDS)",
        ),
        (
            "fig3.11",
            "heap-array-resize coverage of comparison policies (SDS, rearrange-heap)",
        ),
        (
            "fig3.12",
            "immediate-free coverage of comparison policies (SDS, rearrange-heap)",
        ),
        (
            "fig3.13",
            "heap-array-resize conditional coverage of comparison policies (SDS)",
        ),
        (
            "fig3.14",
            "immediate-free conditional coverage of comparison policies (SDS)",
        ),
        (
            "fig3.15",
            "overhead of comparison policies (SDS, rearrange-heap)",
        ),
        (
            "tab3.4",
            "mean time to detection of comparison policies (SDS)",
        ),
        (
            "fig4.3",
            "side-by-side diversity-transformation overheads of SDS and MDS",
        ),
        (
            "fig4.4",
            "side-by-side comparison-policy overheads of SDS and MDS",
        ),
        ("fig4.5", "MDS overhead of diversity transformations"),
        ("fig4.6", "MDS overhead of comparison policies"),
        (
            "fig4.7",
            "MDS heap-array-resize coverage of diversity transformations",
        ),
        (
            "fig4.8",
            "MDS immediate-free coverage of diversity transformations",
        ),
        (
            "fig4.9",
            "MDS heap-array-resize conditional coverage of diversity transformations",
        ),
        (
            "fig4.10",
            "MDS immediate-free conditional coverage of diversity transformations",
        ),
        (
            "fig4.11",
            "MDS heap-array-resize coverage of comparison policies",
        ),
        (
            "fig4.12",
            "MDS immediate-free coverage of comparison policies",
        ),
        (
            "fig4.13",
            "MDS heap-array-resize conditional coverage of comparison policies",
        ),
        (
            "fig4.14",
            "MDS immediate-free conditional coverage of comparison policies",
        ),
        (
            "tab4.5",
            "mean time to detection of diversity transformations under MDS",
        ),
        (
            "tab4.6",
            "mean time to detection of comparison policies under MDS",
        ),
        (
            "ch5",
            "DSA scope-expansion demonstration (DS graph, markX, refined transform)",
        ),
        (
            "tabR.1",
            "detection-to-recovery study (fail-stop / retry / repair / mid-run cadence)",
        ),
        (
            "tabF.1",
            "runtime fault campaign: per-class detection, escape, latency, recovery (SDS)",
        ),
        (
            "tabV.1",
            "replication-degree sweep: K in {1,2,3} x diversity — overhead scaling, escape, vote-repair success",
        ),
        (
            "profS.1",
            "check-site profile: per-app hot/cold site execution counts x armed-sweep detection usefulness",
        ),
        (
            "traceE.1",
            "structured event-trace sink: keyed JSONL of clean + per-class armed runs (virtual-cycle timestamps)",
        ),
        (
            "optP.1",
            "optimizer study: per-app check-count and virtual-MIPS deltas of profile-guided site dropping, with its dropped-site report",
        ),
    ]
}

/// All reproducible artifact ids, in paper order.
pub fn all_ids() -> Vec<&'static str> {
    artifact_descriptions()
        .into_iter()
        .map(|(id, _)| id)
        .collect()
}

const HEAP_RESIZE: &str = "heap array resize 50%";
const IMM_FREE: &str = "immediate free";

struct Studies {
    sds_div: Option<StudyResults>,
    sds_pol: Option<StudyResults>,
    mds_div: Option<StudyResults>,
    mds_pol: Option<StudyResults>,
    recovery: Option<RecoveryStudyResults>,
    fault: Option<FaultCampaignResults>,
    replication: Option<ReplicationStudyResults>,
    site_profile: Option<SiteProfileResults>,
    trace: Option<TraceStudyResults>,
    opt: Option<OptStudyResults>,
}

impl Studies {
    fn new() -> Studies {
        Studies {
            sds_div: None,
            sds_pol: None,
            mds_div: None,
            mds_pol: None,
            recovery: None,
            fault: None,
            replication: None,
            site_profile: None,
            trace: None,
            opt: None,
        }
    }

    fn sds_div(&mut self, cc: &CampaignConfig) -> &StudyResults {
        if self.sds_div.is_none() {
            eprintln!("[harness] running SDS diversity study...");
            self.sds_div = Some(run_diversity_study(Scheme::Sds, cc));
        }
        self.sds_div.as_ref().expect("just set")
    }
    fn sds_pol(&mut self, cc: &CampaignConfig) -> &StudyResults {
        if self.sds_pol.is_none() {
            eprintln!("[harness] running SDS comparison-policy study...");
            self.sds_pol = Some(run_policy_study(Scheme::Sds, cc));
        }
        self.sds_pol.as_ref().expect("just set")
    }
    fn mds_div(&mut self, cc: &CampaignConfig) -> &StudyResults {
        if self.mds_div.is_none() {
            eprintln!("[harness] running MDS diversity study...");
            self.mds_div = Some(run_diversity_study(Scheme::Mds, cc));
        }
        self.mds_div.as_ref().expect("just set")
    }
    fn mds_pol(&mut self, cc: &CampaignConfig) -> &StudyResults {
        if self.mds_pol.is_none() {
            eprintln!("[harness] running MDS comparison-policy study...");
            self.mds_pol = Some(run_policy_study(Scheme::Mds, cc));
        }
        self.mds_pol.as_ref().expect("just set")
    }
    fn recovery(&mut self, cc: &CampaignConfig) -> &RecoveryStudyResults {
        if self.recovery.is_none() {
            eprintln!("[harness] running detection-to-recovery study...");
            self.recovery = Some(run_recovery_study(
                &dpmr_workloads::recovery_apps(),
                &DpmrConfig::sds(),
                cc,
            ));
        }
        self.recovery.as_ref().expect("just set")
    }
    fn fault(&mut self, cc: &CampaignConfig) -> &FaultCampaignResults {
        if self.fault.is_none() {
            eprintln!("[harness] running runtime fault campaign...");
            self.fault = Some(run_fault_campaign(
                &dpmr_workloads::fault_campaign_apps(),
                &DpmrConfig::sds(),
                cc,
            ));
        }
        self.fault.as_ref().expect("just set")
    }
    fn replication(&mut self, cc: &CampaignConfig) -> &ReplicationStudyResults {
        if self.replication.is_none() {
            eprintln!("[harness] running replication-degree study...");
            self.replication = Some(run_replication_degree_study(
                &dpmr_workloads::fault_campaign_apps(),
                &DpmrConfig::sds(),
                cc,
            ));
        }
        self.replication.as_ref().expect("just set")
    }
    fn site_profile(&mut self, cc: &CampaignConfig) -> &SiteProfileResults {
        if self.site_profile.is_none() {
            eprintln!("[harness] running check-site profile study...");
            self.site_profile = Some(run_site_profile_study(
                &dpmr_workloads::fault_campaign_apps(),
                &DpmrConfig::sds(),
                cc,
            ));
        }
        self.site_profile.as_ref().expect("just set")
    }
    fn opt(&mut self, cc: &CampaignConfig) -> &OptStudyResults {
        if self.opt.is_none() {
            // The profile-guided leg consumes profS.1's armed-sweep
            // detection counts as per-site usefulness weights.
            let usefulness: std::collections::BTreeMap<String, Vec<f64>> = self
                .site_profile(cc)
                .profiles
                .iter()
                .map(|(app, p)| {
                    (
                        app.clone(),
                        p.armed.iter().map(|s| s.detections as f64).collect(),
                    )
                })
                .collect();
            eprintln!("[harness] running optimizer study...");
            self.opt = Some(run_opt_study(
                &dpmr_workloads::fault_campaign_apps(),
                &DpmrConfig::sds(),
                &usefulness,
                cc,
            ));
        }
        self.opt.as_ref().expect("just set")
    }
    fn trace(&mut self, cc: &CampaignConfig) -> &TraceStudyResults {
        if self.trace.is_none() {
            eprintln!("[harness] running event-trace study...");
            self.trace = Some(run_trace_study(
                &dpmr_workloads::fault_campaign_apps(),
                &DpmrConfig::sds(),
                cc,
            ));
        }
        self.trace.as_ref().expect("just set")
    }
}

/// Reproduces the requested artifacts (see [`all_ids`]) and returns the
/// rendered report.
#[allow(clippy::too_many_lines)]
pub fn reproduce(ids: &BTreeSet<String>, cc: &CampaignConfig) -> String {
    let mut studies = Studies::new();
    let mut out = String::new();
    let want = |id: &str| ids.contains(id);

    for id in all_ids() {
        if !want(id) {
            continue;
        }
        let text = match id {
            "fig3.6" => figures::coverage_figure(
                "Figure 3.6: Mean heap array resize coverage of diversity transformations (SDS)",
                studies.sds_div(cc),
                HEAP_RESIZE,
            ),
            "fig3.7" => figures::coverage_figure(
                "Figure 3.7: Mean immediate free coverage of diversity transformations (SDS)",
                studies.sds_div(cc),
                IMM_FREE,
            ),
            "fig3.8" => figures::conditional_figure(
                "Figure 3.8: Mean heap array resize conditional coverage of diversity transformations (SDS)",
                studies.sds_div(cc),
                HEAP_RESIZE,
            ),
            "fig3.9" => figures::conditional_figure(
                "Figure 3.9: Mean immediate free conditional coverage of diversity transformations (SDS)",
                studies.sds_div(cc),
                IMM_FREE,
            ),
            "fig3.10" => figures::overhead_figure(
                "Figure 3.10: Overhead of diversity transformations (SDS, all loads)",
                studies.sds_div(cc),
            ),
            "tab3.3" => figures::mttd_table(
                "Table 3.3: Mean time to detection of diversity transformations (SDS)",
                studies.sds_div(cc),
            ),
            "fig3.11" => figures::coverage_figure(
                "Figure 3.11: Mean heap array resize coverage of state comparison policies (SDS, rearrange-heap)",
                studies.sds_pol(cc),
                HEAP_RESIZE,
            ),
            "fig3.12" => figures::coverage_figure(
                "Figure 3.12: Mean immediate free coverage of state comparison policies (SDS, rearrange-heap)",
                studies.sds_pol(cc),
                IMM_FREE,
            ),
            "fig3.13" => figures::conditional_figure(
                "Figure 3.13: Mean heap array resize conditional coverage of state comparison policies (SDS)",
                studies.sds_pol(cc),
                HEAP_RESIZE,
            ),
            "fig3.14" => figures::conditional_figure(
                "Figure 3.14: Mean immediate free conditional coverage of state comparison policies (SDS)",
                studies.sds_pol(cc),
                IMM_FREE,
            ),
            "fig3.15" => figures::overhead_figure(
                "Figure 3.15: Overhead of state comparison policies (SDS, rearrange-heap)",
                studies.sds_pol(cc),
            ),
            "tab3.4" => figures::mttd_table(
                "Table 3.4: Mean time to detection of state comparison policies (SDS)",
                studies.sds_pol(cc),
            ),
            "fig4.3" => {
                let variants: Vec<String> = vec![
                    "no-diversity".into(),
                    "zero-before-free".into(),
                    "rearrange-heap".into(),
                    "pad-malloc 32".into(),
                ];
                let sds_snapshot = studies.sds_div(cc).clone();
                let mds = studies.mds_div(cc);
                figures::side_by_side_overhead(
                    "Figure 4.3: Side-by-side diversity transformation overheads of SDS and MDS",
                    &sds_snapshot,
                    mds,
                    &variants,
                )
            }
            "fig4.4" => {
                let variants: Vec<String> = vec![
                    "static 10%".into(),
                    "static 50%".into(),
                    "static 90%".into(),
                    "all loads".into(),
                ];
                let sds_snapshot = studies.sds_pol(cc).clone();
                let mds = studies.mds_pol(cc);
                figures::side_by_side_overhead(
                    "Figure 4.4: Side-by-side comparison policy overheads of SDS and MDS",
                    &sds_snapshot,
                    mds,
                    &variants,
                )
            }
            "fig4.5" => figures::overhead_figure(
                "Figure 4.5: MDS overhead of diversity transformations",
                studies.mds_div(cc),
            ),
            "fig4.6" => figures::overhead_figure(
                "Figure 4.6: MDS overhead of state comparison policies",
                studies.mds_pol(cc),
            ),
            "fig4.7" => figures::coverage_figure(
                "Figure 4.7: Mean MDS heap array resize coverage of diversity transformations",
                studies.mds_div(cc),
                HEAP_RESIZE,
            ),
            "fig4.8" => figures::coverage_figure(
                "Figure 4.8: Mean MDS immediate free coverage of diversity transformations",
                studies.mds_div(cc),
                IMM_FREE,
            ),
            "fig4.9" => figures::conditional_figure(
                "Figure 4.9: Mean MDS heap array resize conditional coverage of diversity transformations",
                studies.mds_div(cc),
                HEAP_RESIZE,
            ),
            "fig4.10" => figures::conditional_figure(
                "Figure 4.10: Mean MDS immediate free conditional coverage of diversity transformations",
                studies.mds_div(cc),
                IMM_FREE,
            ),
            "fig4.11" => figures::coverage_figure(
                "Figure 4.11: Mean MDS heap array resize coverage of state comparison policies",
                studies.mds_pol(cc),
                HEAP_RESIZE,
            ),
            "fig4.12" => figures::coverage_figure(
                "Figure 4.12: Mean MDS immediate free coverage of state comparison policies",
                studies.mds_pol(cc),
                IMM_FREE,
            ),
            "fig4.13" => figures::conditional_figure(
                "Figure 4.13: Mean MDS heap array resize conditional coverage of state comparison policies",
                studies.mds_pol(cc),
                HEAP_RESIZE,
            ),
            "fig4.14" => figures::conditional_figure(
                "Figure 4.14: Mean MDS immediate free conditional coverage of state comparison policies",
                studies.mds_pol(cc),
                IMM_FREE,
            ),
            "tab4.5" => figures::mttd_table(
                "Table 4.5: Mean time to detection of diversity transformations under MDS",
                studies.mds_div(cc),
            ),
            "tab4.6" => figures::mttd_table(
                "Table 4.6: Mean time to detection of state comparison policies under MDS",
                studies.mds_pol(cc),
            ),
            "tabR.1" => figures::recovery_table(
                "Table R.1: Detection-to-recovery of injected faults (SDS, rearrange-heap, all loads)",
                studies.recovery(cc),
            ),
            "tabF.1" => figures::fault_campaign_table(
                "Table F.1: Runtime fault campaign across the expanded fault model (SDS, rearrange-heap, all loads)",
                studies.fault(cc),
            ),
            "tabV.1" => figures::replication_table(
                "Table V.1: Replication-degree sweep (SDS, all loads): K in {1,2,3} x diversity",
                studies.replication(cc),
            ),
            "profS.1" => figures::site_profile_table(
                "Table S.1: Check-site profile (SDS, rearrange-heap): clean hot/cold x armed detection usefulness",
                studies.site_profile(cc),
            ),
            "traceE.1" => figures::trace_sink(
                "traceE.1 event-trace sink (SDS, rearrange-heap)",
                studies.trace(cc),
            ),
            "optP.1" => figures::opt_table(
                "Table P.1: Optimizer study (SDS, rearrange-heap): check-count and virtual-MIPS deltas of profile-guided site dropping",
                studies.opt(cc),
            ),
            "ch5" => chapter5_demo(),
            _ => continue,
        };
        let _ = writeln!(out, "{text}");
    }
    out
}

/// Chapter 5 demonstration: DS graphs and `markX` over a program with
/// int-to-pointer behaviour, and the resulting replication-plan
/// refinement.
pub fn chapter5_demo() -> String {
    use dpmr_ir::prelude::*;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Chapter 5: scope expansion through Data Structure Analysis"
    );

    // A program mixing clean memory with an int-to-pointer-reconstructed
    // pointer (Fig. 5.1(a) style).
    let mut m = Module::new();
    let i64t = m.types.int(64);
    let mut b = FunctionBuilder::new(&mut m, "main", i64t, &[]);
    let clean = b.malloc(i64t, Const::i64(4).into(), "clean");
    b.store(clean.into(), Const::i64(11).into());
    let dirty = b.malloc(i64t, Const::i64(4).into(), "dirty");
    b.store(dirty.into(), Const::i64(22).into());
    let as_int = b.cast(CastOp::PtrToInt, i64t, dirty.into(), "asInt");
    let pty = b.operand_ty(dirty.into());
    let back = b.cast(CastOp::IntToPtr, pty, as_int.into(), "back");
    let v1 = b.load(i64t, clean.into(), "v1");
    let v2 = b.load(i64t, back.into(), "v2");
    b.output(v1.into());
    b.output(v2.into());
    b.ret(Some(Const::i64(0).into()));
    let f = b.finish();
    m.entry = Some(f);

    let dsa = dpmr_dsa::analyze(&m);
    let _ = writeln!(out, "\nDS graph for main():");
    let _ = writeln!(out, "{}", dsa.graph(f).render());
    let report = dsa.mark_x();
    let _ = writeln!(
        out,
        "markX: {} of {} nodes excluded; {} alloc site(s) unreplicated, {} load site(s) unchecked",
        report.x_nodes,
        report.total_nodes,
        report.exclude_allocs.len(),
        report.uncheck_loads.len()
    );

    // Apply the refinement and run under SDS: the program (illegal under
    // plain SDS) now transforms and detects nothing spurious.
    let plan = plan_from_report(&report);
    let mut cfg = DpmrConfig::sds();
    cfg.plan = plan;
    let t = dpmr_core::transform::transform(&m, &cfg).expect("refined transform");
    let reg = std::rc::Rc::new(registry_with_wrappers());
    let o = dpmr_vm::interp::run_with_registry(&t, &dpmr_vm::interp::RunConfig::default(), reg);
    let _ = writeln!(
        out,
        "refined SDS run: status {:?}, output {:?} (expected Normal(0), [11, 22])",
        o.status, o.output
    );
    out
}

/// Converts a DSA [`dpmr_dsa::ExclusionReport`] into a transform
/// [`ReplicationPlan`] (the Chapter 5 glue).
pub fn plan_from_report(r: &dpmr_dsa::ExclusionReport) -> ReplicationPlan {
    ReplicationPlan {
        exclude_allocs: r.exclude_allocs.iter().copied().collect(),
        uncheck_loads: r.uncheck_loads.iter().copied().collect(),
        allow_int_to_ptr: true,
        allow_raw_ptr_arith: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_complete() {
        let ids = all_ids();
        assert_eq!(ids.len(), 33);
        assert!(ids.contains(&"fig3.6"));
        assert!(ids.contains(&"tab4.6"));
        assert!(ids.contains(&"ch5"));
        assert!(ids.contains(&"tabR.1"));
        assert!(ids.contains(&"tabF.1"));
        assert!(ids.contains(&"tabV.1"));
        assert!(ids.contains(&"profS.1"));
        assert!(ids.contains(&"traceE.1"));
        assert!(ids.contains(&"optP.1"));
    }

    #[test]
    fn every_artifact_has_a_nonempty_description() {
        let descr = artifact_descriptions();
        assert_eq!(descr.len(), all_ids().len());
        for (id, d) in descr {
            assert!(!d.is_empty(), "{id} needs a description");
        }
    }

    #[test]
    fn chapter5_demo_runs_refined_program() {
        let txt = chapter5_demo();
        assert!(txt.contains("markX"));
        assert!(txt.contains("Normal(0)"));
        assert!(txt.contains("[11, 22]"));
    }

    #[test]
    fn reproduce_single_figure() {
        let ids: BTreeSet<String> = ["ch5".to_string()].into_iter().collect();
        let txt = reproduce(&ids, &CampaignConfig::tiny());
        assert!(txt.contains("Chapter 5"));
    }
}
