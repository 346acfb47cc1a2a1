//! The repository benchmark: one command that runs a workload
//! closed-loop for a fixed time, checks every op, and prints every
//! metric by name and unit. The last line of standard output is a JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics of `BENCHMARK.json` when untraced, its per-layer
//! metrics when traced.
//!
//! ```bash
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fault_campaign --seed 42 --seconds 20 --trace 0
//! ```

mod artifacts;
mod bench;
mod fault_campaign;
mod protected_exec;
mod stats;
mod trace;

use bench::{metric, Metric, RunData, Workload};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

/// End-to-end metrics (`--trace 0`), as listed in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), as listed in `BENCHMARK.json`. A
/// metric whose layer a workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 54] = [
    ("workloads.build_us", "us"),
    ("harness.prepare_us", "us"),
    ("fi.sites_us", "us"),
    ("core.transform_us", "us"),
    ("vm.lower_us", "us"),
    ("vm.opt_us", "us"),
    ("fi.sites", "count"),
    ("core.transform.instrs", "count"),
    ("vm.lower.ops", "count"),
    ("vm.opt.live_checks", "count"),
    ("vm.new_us", "us"),
    ("vm.run.self_ms", "ms"),
    ("vm.run.share", "frac"),
    ("vm.run.mips", "MIPS"),
    ("vm.run.mips.sds_k1", "MIPS"),
    ("vm.run.mips.sds_k2", "MIPS"),
    ("vm.run.mips.mds_k1", "MIPS"),
    ("vm.run.mips.sds_k2_opt", "MIPS"),
    ("vm.run.mips.art", "MIPS"),
    ("vm.run.mips.bzip2", "MIPS"),
    ("vm.run.mips.equake", "MIPS"),
    ("vm.run.mips.mcf", "MIPS"),
    ("vm.run.mips.pchase", "MIPS"),
    ("vm.run.mips.rvictim", "MIPS"),
    ("vm.run.mips.scrub", "MIPS"),
    ("vm.run.instrs", "count"),
    ("vm.run.vcycles", "count"),
    ("recovery.run.self_ms", "ms"),
    ("recovery.run.share", "frac"),
    ("recovery.legs", "count"),
    ("recovery.attempts", "count"),
    ("recovery.repairs", "count"),
    ("recovery.useful_frac", "frac"),
    ("sched.busy_frac", "frac"),
    ("sched.tail_idle_ms", "ms"),
    ("sched.units", "count"),
    ("harness.study.sds_div_ms", "ms"),
    ("harness.study.sds_pol_ms", "ms"),
    ("harness.study.mds_div_ms", "ms"),
    ("harness.study.mds_pol_ms", "ms"),
    ("harness.study.recovery_ms", "ms"),
    ("harness.study.fault_ms", "ms"),
    ("harness.study.replication_ms", "ms"),
    ("harness.study.site_profile_ms", "ms"),
    ("harness.study.trace_ms", "ms"),
    ("harness.study.opt_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("host.calib_ms", "ms"),
    ("fail_frac", "frac"),
    ("op_ms_p99", "ms"),
    ("vcycle_overhead", "ratio"),
    ("dpmr_detect_frac", "frac"),
    ("unrecoverable_frac", "frac"),
    ("recover_frac", "frac"),
];

const WORKLOADS: [&str; 3] = ["fault_campaign", "protected_exec", "artifacts"];

const USAGE: &str = "usage: perfbench --workload <fault_campaign|protected_exec|artifacts> --seed <n> --seconds <n> --trace <0|1>";

/// Worker threads of the parallel workloads: two, or fewer on a smaller
/// host.
pub fn workers() -> usize {
    nproc().min(2)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

thread_local! {
    /// Set while an op runs: its panic is captured and reported as the
    /// op's failure, so the panic hook stays quiet.
    static IN_OP: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the panic hook silenced on this thread.
pub fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    IN_OP.with(|c| c.set(true));
    let r = f();
    IN_OP.with(|c| c.set(false));
    r
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    if flags
        .keys()
        .any(|k| !["--workload", "--seed", "--seconds", "--trace"].contains(k))
    {
        return Err("unknown flag".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace,
    })
}

/// `git` in the current directory only (never a parent's repository).
fn git(args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let out = Command::new("git")
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", cwd.parent()?)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn provenance(a: &Args) -> String {
    let rev = git(&["rev-parse", "--short=12", "HEAD"]);
    let dirty = rev
        .as_ref()
        .and_then(|_| git(&["status", "--porcelain", "--untracked-files=no"]))
        .map_or("unknown", |s| if s.is_empty() { "false" } else { "true" });
    format!(
        "provenance rev={} dirty={dirty} seed={} workload={} nproc={} workers={} trace={}",
        rev.as_deref().unwrap_or("unknown"),
        a.seed,
        a.workload,
        nproc(),
        workers(),
        u8::from(a.trace)
    )
}

fn json_number(x: f64) -> String {
    if x.is_finite() && x != 0.0 {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// Runs workload `W` and prints its report; the last line is the JSON
/// result.
fn measure<W: Workload>(a: &Args) {
    let (w, d) = bench::run::<W>(a.seed, a.seconds, a.trace);
    let (attempted, failed) = bench::attempted_failed(&d);
    let mut all: Vec<Metric> = vec![
        metric("ops_per_s", bench::ops_per_s(&d), "1/s"),
        metric("op_ms_p50", bench::op_ms_p50(&d), "ms"),
        metric("setup_s", bench::setup_s(&d), "s"),
        metric("peak_rss_mb", d.peak_rss_mb, "MB"),
        metric("fail_frac", failed as f64 / attempted.max(1) as f64, "frac"),
    ];
    let p99 = bench::op_ms_p99(&d);
    all.push(metric("op_ms_p99", p99.unwrap_or(0.0), "ms"));
    all.extend(w.pass_metrics(&d.reference.ops));
    if a.trace {
        all.extend(bench::layer_metrics(&w, &d));
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", a.workload, a.seed));
        match bench::write_spans(&d, &path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
        }
    }
    print_report(a, &w, &d, &all, p99.is_some());
    let by_name: BTreeMap<&str, f64> = all.iter().map(|m| (m.name.as_str(), m.value)).collect();
    let wanted: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        d.errors.is_empty()
    );
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let v = by_name.get(name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        );
    }
    json.push_str("}}");
    println!("{json}");
}

fn print_report<W: Workload>(a: &Args, w: &W, d: &RunData, all: &[Metric], has_p99: bool) {
    println!("{}", provenance(a));
    println!(
        "rounds untraced={} traced={} setup_reps={} ops_per_round={}",
        d.timed.len(),
        d.traced.len(),
        d.setup_s.len(),
        d.reference.ops.len()
    );
    for m in all {
        if m.name == "op_ms_p99" && !has_p99 {
            println!("metric op_ms_p99 n/a (fewer than 1000 untraced ops)");
            continue;
        }
        println!("metric {} {} {}", m.name, json_number(m.value), m.unit);
    }
    // Each round's throughput beside the calibration loop timed just
    // before it, so a slow host phase shows in the run's own output.
    let per_round: Vec<String> = d
        .log
        .iter()
        .map(|&(traced, ops_per_s, c)| {
            let t = if traced { "t" } else { "" };
            format!("{t}{ops_per_s:.3}/{c:.2}")
        })
        .collect();
    println!(
        "rounds ops_per_s/host.calib_ms (t = traced): {}",
        per_round.join(" ")
    );
    let instrs: u64 = d.reference.ops.iter().map(|o| o.instrs).sum();
    let vcycles: u64 = d.reference.ops.iter().map(|o| o.vcycles).sum();
    let traced = d.traced.iter().filter(|_| !w.traced_round_differs());
    let digests: Vec<u64> = std::iter::once(&d.reference)
        .chain(traced)
        .map(|r| bench::pass_digest(&r.ops))
        .chain(d.timed.iter().map(|t| t.digest))
        .collect();
    let repeat = digests.windows(2).all(|p| p[0] == p[1]);
    println!(
        "exact vm.run.instrs={instrs} vm.run.vcycles={vcycles} digest={:016x} repeated={repeat}",
        digests[0]
    );
    let mut failures: BTreeMap<String, (usize, String)> = BTreeMap::new();
    for (op, why) in bench::failures(d) {
        let key = format!("workload={} {} seed={}", a.workload, w.op_key(op), a.seed);
        let why = why.unwrap_or("wrong output").to_string();
        failures.entry(key).or_insert((0, why)).0 += 1;
    }
    for (key, (n, why)) in &failures {
        println!("failure {key} count={n} reason={why:?}");
    }
    for note in &d.notes {
        println!("check {note}");
    }
    for e in &d.errors {
        println!("error {e}");
    }
}

/// Makes every thread allocate from glibc's one main arena. By default
/// each worker thread gets an arena of its own, and how the ops of a
/// round happen to fall on the workers then decides how far the heaps
/// fragment: `peak_rss_mb` of one seed varied by a quarter from run to
/// run on `fault_campaign`, and by 3% with one arena. Must run before any
/// other thread starts.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    /// glibc's `M_ARENA_MAX`.
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: mallopt only sets an allocator parameter, and no other
    // thread is allocating yet.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() {
    single_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !IN_OP.with(Cell::get) {
            default_hook(info);
        }
    }));
    match args.workload.as_str() {
        "fault_campaign" => measure::<fault_campaign::FaultCampaign>(&args),
        "protected_exec" => measure::<protected_exec::ProtectedExec>(&args),
        _ => measure::<artifacts::Artifacts>(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload and metric the program prints is listed, with the
    /// same unit, in `BENCHMARK.json`, and nothing else is.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
                "{w}"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} [{unit}]"
            );
        }
        let listed = json.matches("{\"name\": ").count();
        assert_eq!(listed, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }
}
