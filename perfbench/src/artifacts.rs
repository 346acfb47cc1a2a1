//! `artifacts`: `dpmr_harness::reproduce` over every artifact id at the
//! sizing of `dpmr-harness quick`, with two workers. Each op is one full
//! reproduction, checked byte-identical to a one-worker rendering made
//! in set-up. A traced round instead calls the study runners behind
//! `reproduce` one by one, each in its own span.
//!
//! Some seeds reach a known defect of the program, and a study runner
//! panics inside `reproduce`. At such a seed every op fails, and set-up
//! and each op call the study runners one by one too, going on past the
//! one that panics; each op's results must match set-up's. Set-up and
//! ops still do nearly the work of a full reproduction, so the run's
//! timings stay comparable with those of other seeds instead of timing
//! work that stopped a tenth of the way in.

use crate::bench::{guarded, panic_message, OpRecord, Round, Workload};
use crate::stats::Fnv;
use crate::trace::{now_ns, OpTrace};
use dpmr_core::prelude::*;
use dpmr_harness::metrics::{
    run_diversity_study, run_fault_campaign, run_opt_study, run_policy_study, run_recovery_study,
    run_replication_degree_study, run_site_profile_study, run_trace_study, CampaignConfig,
};
use dpmr_workloads::{fault_campaign_apps, recovery_apps, WorkloadParams};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The study runners a traced round times, as `harness.study.<name>`.
pub const STUDIES: [&str; 10] = [
    "sds_div",
    "sds_pol",
    "mds_div",
    "mds_pol",
    "recovery",
    "fault",
    "replication",
    "site_profile",
    "trace",
    "opt",
];

/// The campaign sizing of `dpmr-harness quick`.
fn quick(seed: u64, workers: usize) -> CampaignConfig {
    CampaignConfig {
        params: WorkloadParams {
            seed,
            ..WorkloadParams::quick()
        },
        runs: 1,
        max_sites: Some(4),
        workers,
    }
}

/// What set-up made with one worker.
enum Reference {
    /// The rendering of every artifact.
    Text(String),
    /// `reproduce` panicked with this message; the study runners called
    /// one by one gave this digest.
    Panicked(String, u64),
}

/// The set-up reference.
pub struct Artifacts {
    seed: u64,
    ids: BTreeSet<String>,
    reference: Reference,
}

/// The study runners of one op: their results' digest, and the message
/// of the first one that panicked.
#[derive(Default)]
struct Studies {
    h: Fnv,
    failure: Option<String>,
}

impl Studies {
    /// Runs one study runner in a span named `name` and mixes its result
    /// (or its panic message) into the digest.
    fn run<R: std::fmt::Debug>(
        &mut self,
        tr: &mut OpTrace,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> Option<R> {
        match tr.span(name, |_| catch_unwind(AssertUnwindSafe(f))) {
            Ok(r) => {
                self.h.bytes(format!("{r:?}").as_bytes());
                Some(r)
            }
            Err(payload) => {
                let msg = format!("{name}: {}", panic_message(&*payload));
                self.h.bytes(msg.as_bytes());
                self.failure.get_or_insert(msg);
                None
            }
        }
    }
}

/// Calls each study runner as `reproduce` calls them, going on past one
/// that panics.
fn studies(seed: u64, workers: usize, tr: &mut OpTrace) -> Studies {
    let cc = quick(seed, workers);
    let sds = DpmrConfig::sds();
    let fapps = fault_campaign_apps();
    let mut s = Studies::default();
    s.run(tr, "harness.study.sds_div", || {
        run_diversity_study(Scheme::Sds, &cc)
    });
    s.run(tr, "harness.study.sds_pol", || {
        run_policy_study(Scheme::Sds, &cc)
    });
    s.run(tr, "harness.study.mds_div", || {
        run_diversity_study(Scheme::Mds, &cc)
    });
    s.run(tr, "harness.study.mds_pol", || {
        run_policy_study(Scheme::Mds, &cc)
    });
    s.run(tr, "harness.study.recovery", || {
        run_recovery_study(&recovery_apps(), &sds, &cc)
    });
    s.run(tr, "harness.study.fault", || {
        run_fault_campaign(&fapps, &sds, &cc)
    });
    s.run(tr, "harness.study.replication", || {
        run_replication_degree_study(&fapps, &sds, &cc)
    });
    let profile = s.run(tr, "harness.study.site_profile", || {
        run_site_profile_study(&fapps, &sds, &cc)
    });
    s.run(tr, "harness.study.trace", || {
        run_trace_study(&fapps, &sds, &cc)
    });
    if let Some(profile) = profile {
        let usefulness: BTreeMap<String, Vec<f64>> = profile
            .profiles
            .iter()
            .map(|(app, p)| {
                (
                    app.clone(),
                    p.armed.iter().map(|s| s.detections as f64).collect(),
                )
            })
            .collect();
        s.run(tr, "harness.study.opt", || {
            run_opt_study(&fapps, &sds, &usefulness, &cc)
        });
    }
    s
}

impl Workload for Artifacts {
    fn setup(seed: u64, tr: &mut OpTrace) -> Self {
        let ids: BTreeSet<String> = dpmr_harness::all_ids()
            .into_iter()
            .map(String::from)
            .collect();
        let reference = match crate::quiet_panics(|| {
            catch_unwind(|| dpmr_harness::reproduce(&ids, &quick(seed, 1)))
        }) {
            Ok(text) => Reference::Text(text),
            Err(p) => {
                let s = crate::quiet_panics(|| studies(seed, 1, tr));
                Reference::Panicked(panic_message(&*p), s.h.finish())
            }
        };
        Artifacts {
            seed,
            ids,
            reference,
        }
    }

    fn fingerprint(&self) -> u64 {
        match &self.reference {
            Reference::Text(text) => Fnv::default().bytes(text.as_bytes()).finish(),
            Reference::Panicked(_, digest) => *digest,
        }
    }

    fn workers(&self) -> usize {
        crate::workers()
    }

    fn round(&self, traced: bool, epoch: Instant) -> Round {
        let start = now_ns(epoch);
        let op = guarded(0, traced, epoch, |tr, rec| match &self.reference {
            Reference::Text(want) if !traced => {
                let text = dpmr_harness::reproduce(&self.ids, &quick(self.seed, self.workers()));
                rec.digest = Fnv::default().bytes(text.as_bytes()).finish();
                rec.wrong = &text != want;
            }
            reference => {
                let s = studies(self.seed, self.workers(), tr);
                rec.digest = s.h.finish();
                rec.failure = s.failure;
                if let Reference::Panicked(_, want) = reference {
                    rec.wrong = rec.digest != *want;
                }
            }
        });
        Round {
            traced,
            start,
            end: now_ns(epoch),
            ops: vec![op],
            spans: Vec::new(),
        }
    }

    fn traced_round_differs(&self) -> bool {
        true
    }

    fn op_key(&self, _op: usize) -> String {
        format!("ids=all runs=1 max_sites=4 workers={}", self.workers())
    }

    fn post_check(&self, _reference: &[OpRecord]) -> Result<Vec<String>, String> {
        Ok(vec![match &self.reference {
            Reference::Text(text) => format!(
                "reference rendering: {} bytes, {} artifact ids",
                text.len(),
                self.ids.len()
            ),
            Reference::Panicked(e, digest) => format!(
                "reference rendering panicked: {e:?}; study runners one by one: digest {digest:016x}"
            ),
        }])
    }
}
