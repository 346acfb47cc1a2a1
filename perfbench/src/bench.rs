//! The closed-loop measuring core shared by every workload: repeated
//! set-up, a reference pass, interleaved measuring rounds, per-op panic
//! capture, exact-repeat checks, and the reduction of rounds and spans
//! to metrics.

use crate::stats::{self, median, Fnv};
use crate::trace::{self, now_ns, OpTrace, Span};
use dpmr_harness::experiment::Measurement;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Fewest set-up repetitions per run.
const MIN_SETUP_REPS: usize = 3;

/// Most set-up repetitions per run.
const MAX_SETUP_REPS: usize = 64;

/// Share of the measuring time that repeated set-up may take.
const SETUP_SHARE: f64 = 0.25;

/// Fewest untraced rounds a run measures, however long they take.
const MIN_ROUNDS: usize = 3;

/// Recovery-leg counts of one op.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryCounts {
    /// Recovery legs run (0 or 1).
    pub legs: u64,
    /// Executions the legs made (first run plus replays).
    pub attempts: u64,
    /// In-place repairs the legs applied.
    pub repairs: u64,
    /// Legs that ended with correct output.
    pub useful: u64,
}

/// What a fault trial reduces to, as the harness tables aggregate it.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The detection leg's measurement.
    pub m: Measurement,
    /// The recovery leg ended with correct output.
    pub recovered: bool,
    /// The recovery leg survived with wrong output.
    pub wrong_repair: bool,
}

/// What one op did and how long it took.
#[derive(Debug, Clone, Default)]
pub struct OpRecord {
    /// Index into the workload's op list.
    pub op: usize,
    /// Start and end, in nanoseconds since the run's epoch.
    pub start: u64,
    /// See `start`.
    pub end: u64,
    /// The worker thread that ran the op.
    pub thread: usize,
    /// Panic message, when the op panicked.
    pub failure: Option<String>,
    /// The op completed with an output that failed its check.
    pub wrong: bool,
    /// Hash over the op's (status, instructions, virtual cycles, output).
    pub digest: u64,
    /// Instructions executed by the op's own `Interp::run` calls.
    pub instrs: u64,
    /// Virtual cycles of those runs.
    pub vcycles: u64,
    /// Recovery-leg counts.
    pub recovery: RecoveryCounts,
    /// A fault trial's verdict.
    pub verdict: Option<Verdict>,
    /// The op's spans (traced rounds only).
    pub spans: Vec<Span>,
}

impl OpRecord {
    /// Whether the op failed (panicked or gave a wrong output).
    pub fn failed(&self) -> bool {
        self.failure.is_some() || self.wrong
    }
}

/// One measuring round: every op of the workload once.
pub struct Round {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Start and end (ns since epoch).
    pub start: u64,
    /// See `start`.
    pub end: u64,
    /// Per-op records, in op order.
    pub ops: Vec<OpRecord>,
    /// Round-level spans (e.g. the scheduler call).
    pub spans: Vec<Span>,
}

impl Round {
    /// Ops completed per second of the round.
    pub fn ops_per_s(&self) -> f64 {
        self.ops.len() as f64 / ((self.end - self.start) as f64 / 1e9)
    }

    /// Marks every op whose (digest, panicked) differs from `want` as
    /// wrong; returns how many ops of the round are wrong.
    fn check(&mut self, want: &[(u64, bool)]) -> usize {
        for (op, &(digest, failed)) in self.ops.iter_mut().zip(want) {
            op.wrong |= op.digest != digest || op.failure.is_some() != failed;
        }
        self.ops.iter().filter(|o| o.wrong).count()
    }
}

/// What a run keeps of an untraced measuring round once it is checked:
/// its timings and failures, so the memory the benchmark holds hardly
/// grows with the number of rounds a run fits and `peak_rss_mb` stays
/// the program's, whatever its speed.
pub struct Timed {
    /// The round's wall time (ns).
    pub dur_ns: u64,
    /// Each op's latency (ns), in op order.
    pub lat_ns: Vec<u64>,
    /// Failed ops: index, and the panic message (`None` for a wrong or
    /// non-repeating output).
    pub failed: Vec<(usize, Option<String>)>,
    /// The round's [`pass_digest`].
    pub digest: u64,
}

impl Timed {
    fn of(r: &Round) -> Timed {
        Timed {
            dur_ns: r.end - r.start,
            lat_ns: r.ops.iter().map(|o| o.end - o.start).collect(),
            digest: pass_digest(&r.ops),
            // Collected from a borrowing iterator: collecting from
            // `into_iter` would keep the whole round's allocation.
            failed: r
                .ops
                .iter()
                .filter(|o| o.failed())
                .map(|o| (o.op, o.failure.clone()))
                .collect(),
        }
    }
}

/// A named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// A benchmark workload. `setup` is timed as set-up; `round` runs every
/// op once.
pub trait Workload: Sized {
    /// Builds the workload's inputs from `seed`, recording set-up spans.
    fn setup(seed: u64, tr: &mut OpTrace) -> Self;
    /// A fingerprint of the set-up result; every repetition must match.
    fn fingerprint(&self) -> u64;
    /// Worker threads the ops fan over.
    fn workers(&self) -> usize;
    /// Runs every op once.
    fn round(&self, traced: bool, epoch: Instant) -> Round;
    /// True when a traced round runs different calls than an untraced
    /// one, so its digests are checked against the first traced round.
    fn traced_round_differs(&self) -> bool {
        false
    }
    /// The reproducer key of op `op` (without workload and seed).
    fn op_key(&self, op: usize) -> String;
    /// (app, build) labels of op `op`, for per-app and per-build splits.
    fn op_labels(&self, _op: usize) -> (&str, &str) {
        ("", "")
    }
    /// Set-up counts (IR size, ops lowered, sites, live checks).
    fn setup_counts(&self) -> Vec<Metric> {
        Vec::new()
    }
    /// Deterministic outcome metrics of one full pass.
    fn pass_metrics(&self, _pass: &[OpRecord]) -> Vec<Metric> {
        Vec::new()
    }
    /// Checks made once after measuring; returns report lines, or the
    /// reason the check failed.
    fn post_check(&self, _reference: &[OpRecord]) -> Result<Vec<String>, String> {
        Ok(Vec::new())
    }
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static THREAD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// A small stable index for the calling thread.
fn thread_index() -> usize {
    THREAD.with(|t| {
        if t.get() == usize::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// The message a panic carried.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs op `op` under a root `op` span, catching a panic as the op's
/// failure. `f` fills in the record's outcome fields.
pub fn guarded(
    op: usize,
    traced: bool,
    epoch: Instant,
    f: impl FnOnce(&mut OpTrace, &mut OpRecord),
) -> OpRecord {
    let mut rec = OpRecord {
        op,
        thread: thread_index(),
        ..OpRecord::default()
    };
    let mut tr = OpTrace::new(traced, op as u64, epoch);
    rec.start = now_ns(epoch);
    let r = crate::quiet_panics(|| {
        catch_unwind(AssertUnwindSafe(|| tr.span("op", |tr| f(tr, &mut rec))))
    });
    rec.end = now_ns(epoch);
    if let Err(payload) = r {
        rec.failure = Some(panic_message(&*payload));
        tr.spans.clear();
    }
    rec.spans = tr.spans;
    rec
}

/// A fixed, branchy bytecode loop whose time shows how fast the host
/// runs interpretive code right now (a pure arithmetic chain misses the
/// slow phases that sharing a core or cache causes). Reported only; never
/// used to rescale a metric.
fn calibrate() -> f64 {
    const LEN: usize = 1 << 14;
    let mut code = vec![0u8; LEN];
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for b in &mut code {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *b = (x >> 56) as u8;
    }
    let t = Instant::now();
    let mut regs = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut pc = 0usize;
    for _ in 0..2_000_000u32 {
        let op = code[pc];
        let (d, s) = (usize::from(op & 7), usize::from((op >> 3) & 7));
        match op >> 6 {
            0 => regs[d] = regs[d].wrapping_add(regs[s]),
            1 => regs[d] ^= regs[s].rotate_left(9),
            2 => regs[d] = regs[d].wrapping_mul(regs[s] | 1),
            _ => pc = (pc + (regs[s] as usize & 15)) % LEN,
        }
        pc = (pc + 1) % LEN;
    }
    std::hint::black_box(regs);
    t.elapsed().as_secs_f64() * 1e3
}

/// Everything a run measured.
pub struct RunData {
    /// Set-up wall times (s), one per repetition.
    pub setup_s: Vec<f64>,
    /// Set-up spans, one list per repetition.
    pub setup_spans: Vec<Vec<Span>>,
    /// The reference pass (untimed).
    pub reference: Round,
    /// Untraced measuring rounds, in order.
    pub timed: Vec<Timed>,
    /// Traced measuring rounds, in order, whole.
    pub traced: Vec<Round>,
    /// Each measuring round's (traced, ops per second, calibration time
    /// in ms just before it), in the order run.
    pub log: Vec<(bool, f64, f64)>,
    /// Peak resident set size (MB) at the end of the measuring rounds,
    /// before the checks that follow them.
    pub peak_rss_mb: f64,
    /// Report lines from the checks.
    pub notes: Vec<String>,
    /// Reasons the run's outputs are not correct (empty when correct).
    pub errors: Vec<String>,
}

/// Whether another set-up repetition is due after `reps` repetitions
/// that took `spent` seconds, `elapsed` seconds into a run of `budget`
/// seconds: set-up may take [`SETUP_SHARE`] of the time so far, and the
/// count grows with the time so far towards [`MAX_SETUP_REPS`], so the
/// repetitions spread over the whole run.
fn setup_due(reps: usize, spent: f64, elapsed: f64, budget: f64) -> bool {
    let paced = 1.0 + (MAX_SETUP_REPS - 1) as f64 * elapsed / budget;
    spent < SETUP_SHARE * elapsed && (reps as f64) < paced.min(MAX_SETUP_REPS as f64)
}

/// Sets up `W`, runs a reference pass, then measures rounds for
/// `seconds` (alternating untraced and traced rounds when `traced`), and
/// checks every round against the reference. Further set-up repetitions
/// are spread between the rounds, so a slow host phase cannot cover all
/// of them; each replaces the live workload (dropped first, so two never
/// coexist) and must build the same inputs.
pub fn run<W: Workload>(seed: u64, seconds: u64, traced: bool) -> (W, RunData) {
    let epoch = Instant::now();
    let mut setup_s = Vec::new();
    let mut setup_spans = Vec::new();
    let mut errors = Vec::new();
    let mut setup_rep = |setup_s: &mut Vec<f64>| {
        let rep = setup_s.len();
        let mut tr = OpTrace::new(traced, rep as u64, epoch);
        let t0 = Instant::now();
        let w = W::setup(seed, &mut tr);
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_spans.push(tr.spans);
        w
    };
    let mut w = setup_rep(&mut setup_s);
    let fingerprint = w.fingerprint();
    let mut rebuild = |w: W, setup_s: &mut Vec<f64>, errors: &mut Vec<String>| -> W {
        drop(w);
        let w = setup_rep(setup_s);
        if w.fingerprint() != fingerprint {
            errors.push(format!(
                "set-up repetition {} built different inputs",
                setup_s.len() - 1
            ));
        }
        w
    };
    let reference = w.round(false, epoch);
    // Every round must repeat the reference pass op for op; a traced
    // round that runs different calls repeats the first traced round.
    let expect = |ops: &[OpRecord]| -> Vec<(u64, bool)> {
        ops.iter()
            .map(|o| (o.digest, o.failure.is_some()))
            .collect()
    };
    let want = expect(&reference.ops);
    let mut wrong = reference.ops.iter().filter(|o| o.wrong).count();
    let mut timed: Vec<Timed> = Vec::new();
    let mut traced_rounds: Vec<Round> = Vec::new();
    let mut log = Vec::new();
    let budget = Duration::from_secs(seconds);
    let t0 = Instant::now();
    loop {
        if t0.elapsed() >= budget
            && timed.len() >= MIN_ROUNDS
            && (!traced || !traced_rounds.is_empty())
        {
            break;
        }
        while setup_due(
            setup_s.len(),
            setup_s.iter().sum(),
            t0.elapsed().as_secs_f64(),
            budget.as_secs_f64().max(1.0),
        ) {
            w = rebuild(w, &mut setup_s, &mut errors);
        }
        let calib_ms = calibrate();
        let mut r = w.round(traced && log.len() % 2 == 1, epoch);
        log.push((r.traced, r.ops_per_s(), calib_ms));
        if r.traced {
            traced_rounds.push(r);
        } else {
            wrong += r.check(&want);
            timed.push(Timed::of(&r));
        }
    }
    while setup_s.len() < MIN_SETUP_REPS {
        w = rebuild(w, &mut setup_s, &mut errors);
    }
    let peak_rss_mb = peak_rss_mb();
    let traced_want = match traced_rounds.first() {
        Some(r) if w.traced_round_differs() => expect(&r.ops),
        _ => want,
    };
    for r in &mut traced_rounds {
        wrong += r.check(&traced_want);
    }
    if wrong > 0 {
        errors.push(format!(
            "{wrong} op(s) gave a wrong or non-repeating output"
        ));
    }
    let notes = match w.post_check(&reference.ops) {
        Ok(lines) => lines,
        Err(e) => {
            errors.push(e.clone());
            vec![format!("check failed: {e}")]
        }
    };
    let data = RunData {
        setup_s,
        setup_spans,
        reference,
        timed,
        traced: traced_rounds,
        log,
        peak_rss_mb,
        notes,
        errors,
    };
    (w, data)
}

/// Digest over a pass: the per-op digests in op order (a failed op
/// contributes its failure flag instead).
pub fn pass_digest(ops: &[OpRecord]) -> u64 {
    let mut h = Fnv::default();
    for o in ops {
        h.u64(o.op as u64)
            .u64(u64::from(o.failure.is_some()))
            .u64(o.digest);
    }
    h.finish()
}

/// Median set-up time (s) over the set-up repetitions, by
/// Harrell–Davis: host phases split the repetitions into a fast and a
/// slow cluster, and the sample median jumps between them.
pub fn setup_s(d: &RunData) -> f64 {
    stats::hd_median(&d.setup_s).unwrap_or(0.0)
}

fn med(xs: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.into_iter().filter(|x| x.is_finite()).collect();
    median(&v).unwrap_or(0.0)
}

/// Ops completed per second over all untraced rounds: their ops over
/// their summed wall time. The host runs in fast and slow phases of
/// seconds each, so the rounds' own rates fall in two clusters and a
/// median over rounds jumps to whichever cluster holds more rounds of a
/// run; the whole-run rate weighs each phase by the time it lasted.
pub fn ops_per_s(d: &RunData) -> f64 {
    let (ops, ns) = d.timed.iter().fold((0usize, 0u64), |(n, t), r| {
        (n + r.lat_ns.len(), t + r.dur_ns)
    });
    rate(ops, ns)
}

fn rate(ops: usize, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        ops as f64 / (ns as f64 / 1e9)
    }
}

/// Median op latency (ms): each op's mean latency over the untraced
/// rounds, then the Harrell–Davis median over the ops. Each op's mean
/// weighs the host's phases by the time they lasted, as [`ops_per_s`]
/// does (its median over rounds jumps between them). The ops of a
/// workload differ in length and the host slows some programs more than
/// others, so the sample median over ops would rest on the one or two
/// middle ops; the Harrell–Davis median does not.
pub fn op_ms_p50(d: &RunData) -> f64 {
    let per_op: Vec<f64> = (0..d.reference.ops.len())
        .map(|op| mean(d.timed.iter().map(|t| t.lat_ns[op] as f64 / 1e6)))
        .collect();
    stats::hd_median(&per_op).unwrap_or(0.0)
}

fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn untraced_latencies(d: &RunData) -> Vec<f64> {
    d.timed
        .iter()
        .flat_map(|t| &t.lat_ns)
        .map(|&ns| ns as f64 / 1e6)
        .collect()
}

/// p99 op latency (ms) pooled over untraced rounds, when at least ten
/// samples lie beyond it.
pub fn op_ms_p99(d: &RunData) -> Option<f64> {
    stats::percentile(&untraced_latencies(d), 99.0)
}

/// Untraced ops attempted and failed over the measuring rounds.
pub fn attempted_failed(d: &RunData) -> (usize, usize) {
    d.timed
        .iter()
        .fold((0, 0), |(a, f), t| (a + t.lat_ns.len(), f + t.failed.len()))
}

/// Every failed op of the run's passes (reference, untraced and traced
/// rounds): its index and panic message (`None` for a wrong output).
pub fn failures(d: &RunData) -> Vec<(usize, Option<&str>)> {
    let whole = std::iter::once(&d.reference)
        .chain(&d.traced)
        .flat_map(|r| &r.ops)
        .filter(|o| o.failed())
        .map(|o| (o.op, o.failure.as_deref()));
    let timed = d
        .timed
        .iter()
        .flat_map(|t| &t.failed)
        .map(|(op, why)| (*op, why.as_deref()));
    whole.chain(timed).collect()
}

/// Peak resident set size of this process (MB), from `/proc`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer metrics from the traced rounds and the set-up spans.
pub fn layer_metrics<W: Workload>(w: &W, d: &RunData) -> Vec<Metric> {
    let mut out = Vec::new();
    // Set-up spans: per-repetition layer totals, median over the
    // repetitions.
    for (name, metric_name) in [
        ("workloads.build", "workloads.build_us"),
        ("harness.prepare", "harness.prepare_us"),
        ("fi.sites", "fi.sites_us"),
        ("core.transform", "core.transform_us"),
        ("vm.lower", "vm.lower_us"),
        ("vm.opt", "vm.opt_us"),
    ] {
        let v = med(d
            .setup_spans
            .iter()
            .map(|spans| trace::total(spans, name).0 as f64 / 1e3));
        out.push(metric(metric_name, v, "us"));
    }
    out.extend(w.setup_counts());

    let traced = &d.traced;
    let ok_spans = |r: &Round| -> Vec<Span> {
        r.ops
            .iter()
            .filter(|o| !o.failed())
            .flat_map(|o| o.spans.iter().cloned())
            .collect()
    };
    let per_round = |f: &dyn Fn(&Round, &[Span]) -> f64| -> f64 {
        med(traced.iter().map(|r| f(r, &ok_spans(r))))
    };
    out.push(metric(
        "vm.new_us",
        per_round(&|_, s| {
            let (t, n) = trace::total(s, "vm.new");
            if n == 0 {
                0.0
            } else {
                t as f64 / 1e3 / n as f64
            }
        }),
        "us",
    ));
    let op_time = |s: &[Span]| trace::total(s, "op").0 as f64;
    // Self time summed per op (span ids are per op).
    let self_ns = |r: &Round, layer: &str| -> f64 {
        r.ops
            .iter()
            .filter(|o| !o.failed())
            .map(|o| trace::self_total(&o.spans, layer) as f64)
            .sum()
    };
    for layer in ["vm.run", "recovery.run"] {
        out.push(metric(
            format!("{layer}.self_ms"),
            per_round(&|r, _| self_ns(r, layer) / 1e6),
            "ms",
        ));
        out.push(metric(
            format!("{layer}.share"),
            per_round(&|r, s| {
                let t = op_time(s);
                if t == 0.0 {
                    0.0
                } else {
                    self_ns(r, layer) / t
                }
            }),
            "frac",
        ));
    }
    // Interpreter throughput: instructions over `vm.run` time, overall
    // and split by build and by app.
    let mips = |r: &Round, keep: &dyn Fn(&str, &str) -> bool| -> f64 {
        let (mut instrs, mut ns) = (0u64, 0u64);
        for o in r.ops.iter().filter(|o| !o.failed()) {
            let (app, build) = w.op_labels(o.op);
            if keep(app, build) {
                let (t, n) = trace::total(&o.spans, "vm.run");
                if n > 0 {
                    instrs += o.instrs;
                    ns += t;
                }
            }
        }
        if ns == 0 {
            0.0
        } else {
            instrs as f64 / (ns as f64 / 1e3)
        }
    };
    let med_mips = |keep: &dyn Fn(&str, &str) -> bool| med(traced.iter().map(|r| mips(r, keep)));
    out.push(metric("vm.run.mips", med_mips(&|_, _| true), "MIPS"));
    for b in crate::protected_exec::BUILDS {
        out.push(metric(
            format!("vm.run.mips.{b}"),
            med_mips(&|_, build| build == b),
            "MIPS",
        ));
    }
    for a in crate::protected_exec::APPS {
        out.push(metric(
            format!("vm.run.mips.{a}"),
            med_mips(&|app, _| app == a),
            "MIPS",
        ));
    }
    let refops = &d.reference.ops;
    out.push(metric(
        "vm.run.instrs",
        refops.iter().map(|o| o.instrs as f64).sum(),
        "count",
    ));
    out.push(metric(
        "vm.run.vcycles",
        refops.iter().map(|o| o.vcycles as f64).sum(),
        "count",
    ));
    // Recovery counts over one pass.
    let rc = refops
        .iter()
        .fold(RecoveryCounts::default(), |a, o| RecoveryCounts {
            legs: a.legs + o.recovery.legs,
            attempts: a.attempts + o.recovery.attempts,
            repairs: a.repairs + o.recovery.repairs,
            useful: a.useful + o.recovery.useful,
        });
    out.push(metric("recovery.legs", rc.legs as f64, "count"));
    out.push(metric("recovery.attempts", rc.attempts as f64, "count"));
    out.push(metric("recovery.repairs", rc.repairs as f64, "count"));
    out.push(metric(
        "recovery.useful_frac",
        if rc.legs == 0 {
            0.0
        } else {
            rc.useful as f64 / rc.legs as f64
        },
        "frac",
    ));
    // Scheduler: busy share of the worker-time a `run_indexed` call
    // holds, and how long the first idle worker waits for the last.
    let sched = |r: &Round| {
        r.spans
            .iter()
            .find(|s| s.name == "sched.run_indexed")
            .cloned()
    };
    out.push(metric(
        "sched.busy_frac",
        med(traced.iter().filter_map(|r| {
            let s = sched(r)?;
            let busy: u64 = r.ops.iter().map(|o| o.end - o.start).sum();
            Some(busy as f64 / (s.dur() as f64 * w.workers() as f64))
        })),
        "frac",
    ));
    out.push(metric(
        "sched.tail_idle_ms",
        med(traced.iter().filter_map(|r| {
            let s = sched(r)?;
            let mut last: BTreeMap<usize, u64> = BTreeMap::new();
            for o in &r.ops {
                let e = last.entry(o.thread).or_insert(0);
                *e = (*e).max(o.end);
            }
            let first_idle = last.values().min().copied()?;
            Some(s.end.saturating_sub(first_idle) as f64 / 1e6)
        })),
        "ms",
    ));
    out.push(metric(
        "sched.units",
        if traced.iter().any(|r| sched(r).is_some()) {
            refops.len() as f64
        } else {
            0.0
        },
        "count",
    ));
    for study in crate::artifacts::STUDIES {
        let name = format!("harness.study.{study}");
        out.push(metric(
            format!("{name}_ms"),
            med(traced.iter().filter_map(|r| {
                let (t, n) = trace::total(&ok_spans(r), &name);
                (n > 0).then_some(t as f64 / 1e6)
            })),
            "ms",
        ));
    }
    let traced_ops_s = rate(
        traced.iter().map(|r| r.ops.len()).sum(),
        traced.iter().map(|r| r.end - r.start).sum(),
    );
    out.push(metric(
        "trace.overhead_frac",
        if traced_ops_s > 0.0 {
            ops_per_s(d) / traced_ops_s - 1.0
        } else {
            0.0
        },
        "frac",
    ));
    out.push(metric(
        "host.calib_ms",
        med(d.log.iter().map(|l| l.2)),
        "ms",
    ));
    out
}

/// Writes every span of the run as JSON lines to `path`.
pub fn write_spans(d: &RunData, path: &std::path::Path) -> std::io::Result<()> {
    let mut s = String::new();
    for (rep, spans) in d.setup_spans.iter().enumerate() {
        trace::jsonl(&mut s, usize::MAX - rep, spans);
    }
    for (i, r) in d.traced.iter().enumerate() {
        trace::jsonl(&mut s, i, &r.spans);
        for o in &r.ops {
            trace::jsonl(&mut s, i, &o.spans);
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(lat_ms: &[u64]) -> Round {
        let mut t = 0;
        let ops = lat_ms
            .iter()
            .enumerate()
            .map(|(op, &ms)| {
                let start = t;
                t += ms * 1_000_000;
                OpRecord {
                    op,
                    start,
                    end: t,
                    ..OpRecord::default()
                }
            })
            .collect();
        Round {
            traced: false,
            start: 0,
            end: t,
            ops,
            spans: Vec::new(),
        }
    }

    fn data(rounds: Vec<Round>) -> RunData {
        RunData {
            setup_s: vec![0.3, 0.1, 0.2],
            setup_spans: Vec::new(),
            reference: round(&[1, 1, 1]),
            timed: rounds.iter().map(Timed::of).collect(),
            traced: Vec::new(),
            log: Vec::new(),
            peak_rss_mb: 0.0,
            notes: Vec::new(),
            errors: Vec::new(),
        }
    }

    #[test]
    fn op_p50_is_the_median_op_of_per_op_means() {
        // Ops of 10, 20 and 40 ms; a slow phase doubles a different op
        // in each round, which moves every round's middle op.
        let d = data(vec![
            round(&[20, 20, 40]),
            round(&[10, 40, 40]),
            round(&[10, 20, 80]),
        ]);
        let p50 = stats::hd_median(&[40.0 / 3.0, 80.0 / 3.0, 160.0 / 3.0]).unwrap();
        assert!((op_ms_p50(&d) - p50).abs() < 1e-9);
        assert!((setup_s(&d) - 0.2).abs() < 1e-9);
        // Nine ops in rounds of 80, 90 and 110 ms: the whole-run rate,
        // not the middle round's 3 / 0.09.
        let want = 9.0 / 0.28;
        assert!((ops_per_s(&d) - want).abs() < 1e-9);
    }

    #[test]
    fn ops_per_s_weighs_phases_by_their_time() {
        // Three fast rounds and two at half speed: the median round
        // reads the fast phase alone, the whole-run rate both.
        let d = data(vec![
            round(&[10, 10, 10]),
            round(&[20, 20, 20]),
            round(&[10, 10, 10]),
            round(&[20, 20, 20]),
            round(&[10, 10, 10]),
        ]);
        assert!((ops_per_s(&d) - 15.0 / 0.21).abs() < 1e-9);
    }

    #[test]
    fn setup_repetitions_follow_the_time_share_and_the_pace() {
        // Nothing is due before the first round.
        assert!(!setup_due(1, 0.01, 0.0, 30.0));
        // A quarter of the time so far may go to set-up.
        assert!(setup_due(1, 0.2, 1.0, 30.0));
        assert!(!setup_due(1, 0.3, 1.0, 30.0));
        // Cheap set-ups are paced over the run and capped.
        assert!(setup_due(3, 0.03, 1.0, 30.0));
        assert!(!setup_due(4, 0.04, 1.0, 30.0));
        assert!(setup_due(MAX_SETUP_REPS - 1, 0.1, 30.0, 30.0));
        assert!(!setup_due(MAX_SETUP_REPS, 0.1, 60.0, 30.0));
    }
}
