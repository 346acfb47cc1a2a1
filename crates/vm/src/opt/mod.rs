//! The optimizer: profile-guided check-site dropping over [`LoweredCode`].
//!
//! Partial replication means not paying for check sites that are not
//! worth their cost. [`optimize`] takes a profS.1-style site profile
//! ([`ProfileGuided`]) and keeps only the check sites whose usefulness
//! exceeds a threshold. Each dropped site becomes [`Op::CheckElided`],
//! which costs nothing, and the replica loads whose only consumer was
//! the dropped comparison become no-op [`Op::LoadElided`] slots, so the
//! site sheds its whole access group. The pass intentionally changes
//! semantics: it trades coverage for overhead, the paper's
//! partial-replication tradeoff. Every dropped site is reported, with
//! its elided replica loads, machine-readably.
//!
//! With no profile, [`optimize`] is the identity: the engine-parity
//! golden and every existing artifact are byte-identical to the
//! unoptimized engine.
//!
//! # Pc stability
//!
//! The pass rewrites ops **in place** and never inserts or removes
//! slots, so absolute pcs keep their meaning in optimized code: armed
//! faults, check-site ids, and pc profiles all stay comparable with and
//! without it. Snapshots restore only into interpreters sharing
//! *(module, `PassConfig`)*, not just the module.

use crate::code::{LoweredCode, Op, Opnd};
use std::collections::HashMap;

/// The optimizer's configuration. The default is off: `optimize`
/// returns the input unchanged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassConfig {
    /// Profile-guided site selection, when a profile is supplied.
    pub profile_guided: Option<ProfileGuided>,
}

impl PassConfig {
    /// No pass (the default; `optimize` is the identity).
    pub fn none() -> PassConfig {
        PassConfig::default()
    }

    /// Every pass that needs no profile (none since fusion and elision
    /// were removed), so this equals [`PassConfig::none`].
    pub fn all() -> PassConfig {
        PassConfig::none()
    }

    /// Adds profile-guided selection with the given per-site usefulness
    /// weights and threshold.
    pub fn with_profile(mut self, profile: ProfileGuided) -> PassConfig {
        self.profile_guided = Some(profile);
        self
    }

    /// True when no pass is enabled ([`optimize`] is the identity).
    pub fn is_noop(&self) -> bool {
        self.profile_guided.is_none()
    }

    /// Short display tag: `off` or `pgo`.
    pub fn tag(&self) -> &'static str {
        if self.profile_guided.is_some() {
            "pgo"
        } else {
            "off"
        }
    }
}

/// Input to the profile-guided pass: a usefulness weight per check site
/// (indexed by check-site id) and the keep threshold. The canonical
/// weight is the site's detection count from a profS.1 armed sweep;
/// sites *beyond* the vector (a profile from a smaller module, or no
/// data) are conservatively kept.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileGuided {
    /// Usefulness per check-site id.
    pub usefulness: Vec<f64>,
    /// Sites are kept when `usefulness > threshold` (strictly above).
    pub threshold: f64,
}

/// One check site dropped by profile-guided selection.
#[derive(Debug, Clone, PartialEq)]
pub struct DroppedSite {
    /// Check-site id.
    pub site: u32,
    /// Pc of the dropped check.
    pub pc: u32,
    /// Function (FuncId index) containing the site.
    pub func: u32,
    /// The site's usefulness weight from the supplied profile.
    pub usefulness: f64,
    /// The threshold it failed to exceed.
    pub threshold: f64,
    /// Pcs of replica loads elided along with the check because the
    /// dropped comparison was their only consumer: the whole access
    /// group's cost disappears, not just the comparison's.
    pub elided_load_pcs: Vec<u32>,
}

/// Everything [`optimize`] produced: the rewritten code plus a
/// machine-readable account of the dropped sites.
#[derive(Debug, Clone, PartialEq)]
pub struct OptOutcome {
    /// The optimized bytecode (same length as the input).
    pub code: LoweredCode,
    /// Sites dropped by profile-guided selection.
    pub dropped: Vec<DroppedSite>,
}

impl OptOutcome {
    /// The dropped-sites report as JSON lines (one object per dropped
    /// site), the machine-readable artifact of the profile-guided pass.
    pub fn dropped_report_jsonl(&self) -> String {
        let mut s = String::new();
        for d in &self.dropped {
            let loads = d
                .elided_load_pcs
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(",");
            s.push_str(&format!(
                "{{\"site\":{},\"pc\":{},\"func\":{},\"usefulness\":{},\"threshold\":{},\
                 \"elided_load_pcs\":[{loads}]}}\n",
                d.site, d.pc, d.func, d.usefulness, d.threshold
            ));
        }
        s
    }

    /// Number of live (non-dropped) check comparisons in the optimized
    /// code.
    pub fn live_checks(&self) -> u64 {
        self.code
            .ops
            .iter()
            .filter(|op| matches!(op, Op::DpmrCheck { .. }))
            .count() as u64
    }
}

/// Runs profile-guided selection over `code` when a profile is
/// configured. Without one this is the identity (a clone of the input).
pub fn optimize(code: &LoweredCode, cfg: &PassConfig) -> OptOutcome {
    let mut out = OptOutcome {
        code: code.clone(),
        dropped: Vec::new(),
    };
    let Some(p) = &cfg.profile_guided else {
        return out;
    };
    out.dropped = profile_guided_select(&mut out.code, p);
    // The pass rewrites ops in place; refresh the dense discriminants the
    // threaded dispatcher indexes by.
    out.code.rebuild_opcodes();
    out
}

/// Convenience: lowers `module` and optimizes the result in one step.
pub fn optimize_module(module: &dpmr_ir::module::Module, cfg: &PassConfig) -> OptOutcome {
    optimize(&crate::lower::lower(module), cfg)
}

/// Profile-guided site selection. Keeps a check only when its
/// usefulness weight is strictly above the threshold; dropped sites lose
/// their virtual cost. Sites without a weight are conservatively kept.
///
/// A dropped check also sheds its replica loads: any `Op::Load` in the
/// same function whose destination register has no remaining reader
/// (the dropped comparisons were its only consumers) becomes
/// [`Op::LoadElided`] — the whole replica access group's cost
/// disappears, which is the paper's partial-replication tradeoff applied
/// site by site.
fn profile_guided_select(code: &mut LoweredCode, p: &ProfileGuided) -> Vec<DroppedSite> {
    let mut dropped: Vec<DroppedSite> = Vec::new();
    // Replica value registers of each dropped live check, per function
    // (register numbers are function-scoped).
    let mut candidates: HashMap<u32, Vec<(usize, u32)>> = HashMap::new();
    for pc in 0..code.ops.len() {
        let Op::DpmrCheck { site, reps, .. } = &code.ops[pc] else {
            continue;
        };
        let site = *site;
        let rep_regs: Vec<u32> = reps
            .iter()
            .filter_map(|o| match o {
                Opnd::Reg(r) => Some(*r),
                _ => None,
            })
            .collect();
        let Some(&u) = p.usefulness.get(site as usize) else {
            continue;
        };
        if u > p.threshold {
            continue;
        }
        let func = code.func_of_pc(pc as u32).0;
        for r in rep_regs {
            candidates.entry(func).or_default().push((dropped.len(), r));
        }
        dropped.push(DroppedSite {
            site,
            pc: pc as u32,
            func,
            usefulness: u,
            threshold: p.threshold,
            elided_load_pcs: Vec::new(),
        });
        code.ops[pc] = Op::CheckElided { site };
    }
    // With the dropped comparisons already rewritten away, a candidate
    // register with zero remaining uses in its function is provably
    // dead: no surviving op can observe the loaded value, so every load
    // defining it can be elided. Iterate functions in index order for a
    // deterministic report.
    let mut funcs: Vec<u32> = candidates.keys().copied().collect();
    funcs.sort_unstable();
    for func in funcs {
        let start = code.func_entry[func as usize] as usize;
        let end = code
            .func_entry
            .get(func as usize + 1)
            .map_or(code.ops.len(), |&e| e as usize);
        let mut used: HashMap<u32, u32> = HashMap::new();
        for op in &code.ops[start..end] {
            for_each_use(op, &mut |r| *used.entry(r).or_insert(0) += 1);
        }
        for &(di, r) in &candidates[&func] {
            if used.get(&r).copied().unwrap_or(0) > 0 {
                continue;
            }
            for pc in start..end {
                if let Op::Load { dst, .. } = code.ops[pc] {
                    if dst == r {
                        code.ops[pc] = Op::LoadElided {
                            dst: r,
                            site: dropped[di].site,
                        };
                        dropped[di].elided_load_pcs.push(pc as u32);
                    }
                }
            }
        }
        for d in &mut dropped {
            d.elided_load_pcs.sort_unstable();
            d.elided_load_pcs.dedup();
        }
    }
    dropped
}

/// Calls `f` with every register an op *reads* (operand uses only —
/// destinations and repair write-back slots are defs, not uses).
fn for_each_use(op: &Op, f: &mut impl FnMut(u32)) {
    let mut o = |o: &Opnd| {
        if let Opnd::Reg(r) = o {
            f(*r);
        }
    };
    match op {
        Op::Alloca { count, .. } => {
            if let Some(c) = count {
                o(c);
            }
        }
        Op::Malloc { count, .. } => o(count),
        Op::Free { ptr } => o(ptr),
        Op::Load { ptr, .. } => o(ptr),
        Op::Store { ptr, value, .. } => {
            o(ptr);
            o(value);
        }
        Op::FieldAddr { base, .. } => o(base),
        Op::IndexAddr { base, index, .. } => {
            o(base);
            o(index);
        }
        Op::Cast { src, .. } => o(src),
        Op::Bin { lhs, rhs, .. } => {
            o(lhs);
            o(rhs);
        }
        Op::Cmp { lhs, rhs, .. } => {
            o(lhs);
            o(rhs);
        }
        Op::Copy { src, .. } => o(src),
        Op::CallDirect { args, .. } | Op::CallExternal { args, .. } => {
            args.iter().for_each(o);
        }
        Op::CallIndirect { target, args, .. } => {
            o(target);
            args.iter().for_each(o);
        }
        Op::DpmrCheck { a, reps, ptrs, .. } => {
            o(a);
            reps.iter().for_each(&mut o);
            if let Some((ap, rps)) = ptrs {
                o(ap);
                rps.iter().for_each(o);
            }
        }
        Op::RandInt { lo, hi, .. } => {
            o(lo);
            o(hi);
        }
        Op::HeapBufSize { ptr, .. } => o(ptr),
        Op::Output { value } => o(value),
        Op::CondJump { cond, .. } => o(cond),
        Op::Ret { value } => {
            if let Some(v) = value {
                o(v);
            }
        }
        Op::Invalid { args, .. } => args.iter().for_each(o),
        Op::FiMarker { .. }
        | Op::Abort { .. }
        | Op::Jump { .. }
        | Op::Unreachable
        | Op::BadBlock { .. }
        | Op::CheckElided { .. }
        | Op::LoadElided { .. } => {}
    }
}

#[cfg(test)]
mod tests;
