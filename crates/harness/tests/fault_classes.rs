//! Per-class acceptance for the expanded fault model: every class of
//! [`FaultModel::paper_set`] must be enumerable on the pointer-chasing
//! victim, actually fire when armed, perturb the run observably, and
//! replay bit-identically — the deterministic-injection contract the
//! campaign engine is built on.

use dpmr_core::prelude::*;
use dpmr_fi::{enumerate_op_sites, trial_seed, ArmedFault, FaultModel};
use dpmr_vm::prelude::*;
use std::rc::Rc;

/// The victim build shared by every class: `pchase` transformed under
/// SDS, so `dpmr.check` sites are live and all three memory regions are
/// accessed.
fn victim() -> (dpmr_ir::module::Module, Rc<LoweredCode>, RunOutcome) {
    let m = dpmr_workloads::micro::pointer_chase(12, 3);
    let t = transform(&m, &DpmrConfig::sds()).expect("transform");
    let code = Rc::new(dpmr_vm::lower::lower(&t));
    let clean = run_with_registry(&t, &RunConfig::default(), Rc::new(registry_with_wrappers()));
    assert!(
        matches!(clean.status, ExitStatus::Normal(0)),
        "victim must be golden-clean under SDS: {:?}",
        clean.status
    );
    (t, code, clean)
}

fn run_with_fault(
    t: &dpmr_ir::module::Module,
    code: &Rc<LoweredCode>,
    armed: ArmedFault,
) -> RunOutcome {
    let rc = RunConfig {
        fault: Some(armed),
        ..RunConfig::default()
    };
    let mut it = Interp::with_code(t, Rc::clone(code), &rc, Rc::new(registry_with_wrappers()));
    it.run(vec![])
}

/// Scans the class's sites (and a few arm points) until a trial fires,
/// then asserts the deterministic-injection contract on it.
fn assert_class_fires_deterministically(class: FaultModel) {
    let (t, code, clean) = victim();
    let sites = enumerate_op_sites(&code, class);
    assert!(
        !sites.is_empty(),
        "{}: no enumerable sites on the victim",
        class.name()
    );
    for run in 0..2u32 {
        for site in &sites {
            let armed = ArmedFault {
                site: site.pc,
                fault: class,
                seed: trial_seed(site.pc, run),
                arm_cycle: clean.cycles * u64::from(run) / 2,
            };
            let a = run_with_fault(&t, &code, armed);
            if a.fault_fired_cycle.is_none() {
                continue;
            }
            // Fired: the fire cycle is surfaced through the FI
            // accounting and respects the arm point.
            assert_eq!(a.first_fi_cycle, a.fault_fired_cycle, "{}", class.name());
            assert!(
                a.fault_fired_cycle.expect("fired") >= armed.arm_cycle,
                "{}: fired before its arm cycle",
                class.name()
            );
            assert!(a.fault_hits >= 1);
            if class.one_shot() {
                assert_eq!(a.fault_hits, 1, "{}: one-shot fired twice", class.name());
            }
            // The corruption is observable: the run diverged from the
            // clean build in status, output, or accounting.
            assert!(
                a.status != clean.status || a.output != clean.output || a.cycles != clean.cycles,
                "{}: fired but left the run untouched",
                class.name()
            );
            // Replayable: the same armed triple reproduces the run
            // bit-for-bit.
            let b = run_with_fault(&t, &code, armed);
            assert_eq!(a.status, b.status, "{}", class.name());
            assert_eq!(a.output, b.output, "{}", class.name());
            assert_eq!(a.cycles, b.cycles, "{}", class.name());
            assert_eq!(a.instrs, b.instrs, "{}", class.name());
            assert_eq!(a.fault_fired_cycle, b.fault_fired_cycle, "{}", class.name());
            assert_eq!(a.fault_hits, b.fault_hits, "{}", class.name());
            return;
        }
    }
    panic!("{}: no armed trial fired on the victim", class.name());
}

#[test]
fn bit_flip_heap_fires_deterministically() {
    assert_class_fires_deterministically(FaultModel::BitFlip {
        region: MemRegion::Heap,
    });
}

#[test]
fn bit_flip_stack_fires_deterministically() {
    assert_class_fires_deterministically(FaultModel::BitFlip {
        region: MemRegion::Stack,
    });
}

#[test]
fn bit_flip_globals_fires_deterministically() {
    assert_class_fires_deterministically(FaultModel::BitFlip {
        region: MemRegion::Globals,
    });
}

#[test]
fn dangling_reuse_fires_deterministically() {
    assert_class_fires_deterministically(FaultModel::DanglingReuse);
}

#[test]
fn off_by_one_fires_deterministically() {
    assert_class_fires_deterministically(FaultModel::OffByN { n: 1 });
}

#[test]
fn uninit_read_fires_deterministically() {
    assert_class_fires_deterministically(FaultModel::UninitRead);
}

#[test]
fn wild_write_fires_deterministically() {
    assert_class_fires_deterministically(FaultModel::WildWrite);
}

#[test]
fn dpmr_detects_faults_of_every_recurring_class() {
    // The detection machinery end-to-end: for each software-bug-like
    // class (recurring; guaranteed address/value corruption), some armed
    // site on the SDS build must end in a DPMR or natural detection.
    let (t, code, clean) = victim();
    for class in [
        FaultModel::DanglingReuse,
        FaultModel::OffByN { n: 1 },
        FaultModel::UninitRead,
    ] {
        let detected = enumerate_op_sites(&code, class).iter().any(|site| {
            let armed = ArmedFault {
                site: site.pc,
                fault: class,
                seed: trial_seed(site.pc, 0),
                arm_cycle: 0,
            };
            let out = run_with_fault(&t, &code, armed);
            out.fault_fired_cycle.is_some()
                && (out.status.is_dpmr_detection() || out.status.is_natural_detection())
        });
        assert!(
            detected,
            "{}: no armed site was detected on the SDS build",
            class.name()
        );
    }
    drop(clean);
}
