//! Repository benchmark for the MCD-DVFS simulator and its campaign engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kernel-mix|paper-cells|cache-replay \
//!     [--seed 5] [--seconds 30] [--trace 0|1] [--size full|smoke]
//! ```
//!
//! Each workload is a closed loop on one driving thread: the next pass
//! starts only after the previous one returned and its outputs were
//! checked. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it reruns the same passes with spans around every call into
//! a layer and prints the per-layer metrics instead. The last stdout line
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `perfbench/METRICS.md` says what each metric means and which end-to-end
//! metric each layer metric should move.

mod cache_replay;
mod kernel_mix;
mod paper_cells;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use serde_json::{Map, Number, Value};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A layer
/// a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("pipeline.baseline.ns_per_instr", "ns"),
    ("pipeline.baseline.ns_per_edge", "ns"),
    ("pipeline.baseline.edges_per_instr", "edge/instr"),
    ("pipeline.global.ns_per_instr", "ns"),
    ("pipeline.global.ns_per_edge", "ns"),
    ("pipeline.global.edges_per_instr", "edge/instr"),
    ("pipeline.mcd.ns_per_instr", "ns"),
    ("pipeline.mcd.ns_per_edge", "ns"),
    ("pipeline.mcd.edges_per_instr", "edge/instr"),
    ("pipeline.scheduled.ns_per_instr", "ns"),
    ("pipeline.scheduled.ns_per_edge", "ns"),
    ("pipeline.scheduled.edges_per_instr", "edge/instr"),
    ("pipeline.governed.ns_per_instr", "ns"),
    ("pipeline.governed.ns_per_edge", "ns"),
    ("pipeline.governed.edges_per_instr", "edge/instr"),
    ("pipeline.warmup_ms", "ms"),
    ("workload.generate.ns_per_instr", "ns"),
    ("power.energy_of_us", "us"),
    ("core.cell.baseline_s", "s"),
    ("core.cell.baseline-mcd_s", "s"),
    ("core.cell.dynamic-1_s", "s"),
    ("core.cell.dynamic-5_s", "s"),
    ("core.cell.global_s", "s"),
    ("core.phase.trace_run_s", "s"),
    ("core.phase.slack_s", "s"),
    ("core.phase.cluster_s", "s"),
    ("core.phase.simulate_s", "s"),
    ("offline.prepare_slack_s", "s"),
    ("offline.cluster_schedule_s", "s"),
    ("harness.cell_elapsed_s", "s"),
    ("harness.max_cell_s", "s"),
    ("harness.overhead_s", "s"),
    ("harness.spec_expand_us", "us"),
    ("harness.cache_probe_us", "us"),
    ("harness.cache_load_us", "us"),
    ("harness.spot_check_ms", "ms"),
    ("harness.rollup_ms", "ms"),
    ("harness.report_json_ms", "ms"),
    ("harness.local_replay_ms", "ms"),
    ("grid.replay_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The benchmarks every workload runs: memory-bound (em3d, art) and
/// compute-bound (gcc, bzip2) code, as in the paper's evaluation.
pub const BENCHMARKS: [&str; 4] = ["gcc", "art", "em3d", "bzip2"];

/// How many times a run performs its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Input sizes. `Smoke` shrinks every run so the benchmark's own test
/// finishes in seconds; reported numbers always come from `Full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    fn parse(s: &str) -> Result<Size, String> {
        match s {
            "full" => Ok(Size::Full),
            "smoke" => Ok(Size::Smoke),
            _ => Err(format!("unknown size {s:?} (want full or smoke)")),
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }
}

/// Settings shared by every workload of one run.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured part.
    pub seconds: Duration,
    pub size: Size,
    /// Scratch directory of this run, removed at exit.
    pub work: PathBuf,
}

impl Ctx {
    /// Arguments of a `kind` child process running this run's inputs.
    pub fn child_args(&self, kind: &str) -> Vec<String> {
        let seed = self.seed.to_string();
        [kind, "--seed", &seed, "--size", self.size.as_str()]
            .map(String::from)
            .to_vec()
    }

    /// Campaign worker count: at most two, and no more than the cores.
    pub fn workers(&self) -> usize {
        std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(2)
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Problems found by the output checks (empty = correct).
    pub problems: Vec<String>,
    /// `name -> (value, samples)`.
    pub metrics: BTreeMap<String, (f64, usize)>,
    /// Reported beside the metrics, never gated.
    pub info: Vec<String>,
    /// Digest of every simulated result the run checked.
    pub digest: String,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.insert(name.to_string(), (value, samples));
    }

    /// Counts one checked operation, failed when `problems` is non-empty.
    pub fn check(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems.into_iter().take(3) {
                self.problems.push(format!("{what}: {p}"));
            }
        }
    }

    pub fn ok_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear-interpolated percentile `p` in `[0, 1]` of `v`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// FNV-1a over `bytes`, continuing from `state` (start with [`FNV_START`]).
pub fn fnv(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn num(v: f64) -> Value {
    Value::Number(Number::F64(v))
}

/// Reads a number field of a child's reply.
pub fn field(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_number)
        .map(Number::as_f64)
        .ok_or_else(|| format!("child reply lacks `{key}`"))
}

/// Value of `--key` in a child's argument list.
pub fn child_arg(rest: &[String], key: &str) -> Result<String, String> {
    rest.iter()
        .position(|a| a == key)
        .and_then(|i| rest.get(i + 1))
        .cloned()
        .ok_or_else(|| format!("child needs {key}"))
}

/// The `--seed` and `--size` a child was given.
pub fn child_seed_size(rest: &[String]) -> Result<(u64, Size), String> {
    let seed = child_arg(rest, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    Ok((seed, Size::parse(&child_arg(rest, "--size")?)?))
}

/// A finished child process: its reply (the last stdout line, parsed) and
/// the wall time the parent observed.
pub struct ChildRun {
    pub reply: Value,
    pub wall: Duration,
}

/// Runs this executable as a child (`perfbench child <args>`) and waits
/// for it. Children give each cold measurement a fresh process: the
/// pipeline keeps warm-up state for the life of a process and has no
/// public way to drop it.
pub fn run_child(args: &[String]) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let started = Instant::now();
    let out = Command::new(exe)
        .arg("child")
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning child {args:?}: {e}"))?;
    let wall = started.elapsed();
    if !out.status.success() {
        return Err(format!("child {args:?} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let reply = serde_json::from_str::<Value>(line)
        .map_err(|e| format!("child {args:?} reply {line:?}: {e}"))?;
    Ok(ChildRun { reply, wall })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 5,
        seconds: 30,
        trace: false,
        size: Size::Full,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--size" => args.size = Size::parse(&value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["kernel-mix", "paper-cells", "cache-replay"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be kernel-mix, paper-cells or cache-replay (got {:?})",
            args.workload
        ));
    }
    Ok(args)
}

/// Scratch space beside the build output, inside the checkout.
fn work_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().and_then(Path::parent).map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from(".bench_build"))
        .join("perfbench-work")
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("child") {
        argv.next();
        let kind = argv.next().unwrap_or_default();
        let rest: Vec<String> = argv.collect();
        let reply = match kind.as_str() {
            "kernel-mix-setup" => kernel_mix::child_setup(&rest),
            "paper-cells-campaign" => paper_cells::child_campaign(&rest),
            "paper-cells-session" => paper_cells::child_session(&rest),
            "cache-replay-setup" => cache_replay::child_setup(&rest),
            _ => Err(format!("unknown child kind {kind:?}")),
        };
        match reply {
            Ok(v) => println!(
                "{}",
                serde_json::to_string(&v).expect("JSON writing is infallible")
            ),
            Err(e) => {
                eprintln!("perfbench child {kind}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = work_root();
    let work = root.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: creating {}: {e}", work.display());
        std::process::exit(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        size: args.size,
        work,
    };
    let mut tracer = args.trace.then(trace::Tracer::new);
    let result = match args.workload.as_str() {
        "kernel-mix" => kernel_mix::run(&ctx, tracer.as_mut()),
        "paper-cells" => paper_cells::run(&ctx, tracer.as_mut()),
        _ => cache_replay::run(&ctx, tracer.as_mut()),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let table: &[(&str, &str)] = if let Some(tracer) = &tracer {
        let path = root.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        if let Err(e) = tracer.write(&path) {
            report
                .problems
                .push(format!("writing {}: {e}", path.display()));
        }
        println!("span                                   calls     total_ms      self_ms");
        for (name, calls, total, own) in tracer.summary() {
            println!(
                "{name:<38} {calls:>6} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        println!(
            "trace: wall_s={:.6} top_level_self_s={:.6} file={}",
            tracer.wall_ns() as f64 / 1e9,
            tracer.top_level_self_ns() as f64 / 1e9,
            path.display()
        );
        &PER_LAYER
    } else {
        report.metric("ok_frac", report.ok_frac(), report.attempted as usize);
        &END_TO_END
    };

    for p in &report.problems {
        println!("CHECK FAILED {p}");
    }
    for line in &report.info {
        println!("{line}");
    }
    println!("digest: {}", report.digest);
    let mut metrics = Map::new();
    for (name, unit) in table {
        let (value, samples) = report.metrics.get(*name).copied().unwrap_or((0.0, 0));
        println!("{name:<38} {value:>16.6} {unit:<10} (n={samples})");
        let mut m = Map::new();
        m.insert("value".into(), num(value));
        m.insert("unit".into(), Value::String(unit.to_string()));
        metrics.insert(name.to_string(), Value::Object(m));
    }
    let mut out = Map::new();
    out.insert(
        "correct".into(),
        Value::Bool(report.problems.is_empty() && report.failed == 0),
    );
    out.insert(
        "attempted".into(),
        Value::Number(Number::U64(report.attempted)),
    );
    out.insert("failed".into(), Value::Number(Number::U64(report.failed)));
    out.insert("metrics".into(), Value::Object(metrics));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(out)).expect("JSON writing is infallible")
    );
}
