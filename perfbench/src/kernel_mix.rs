//! `kernel-mix`: direct `simulate` / `simulate_governed` calls on one
//! thread, covering the five machine classes a paper cell simulates.
//!
//! Nearly all of the measured time is in `mcd-pipeline`. Set-up derives
//! each benchmark's θ = 5 % schedule (a traced MCD run plus the off-line
//! analysis), which also primes the process-wide warm-up state that a real
//! cell reuses about twenty times; the measured passes never touch the
//! off-line or harness code.
//!
//! `wall_s` is a pass rebuilt from each call's fastest repeat in the run.
//! On a shared host the same deterministic call swings between about 1.0×
//! and 1.8× its fastest time within a second, as neighbours contend for
//! the memory hierarchy, and whole 20-second stretches can sit in the slow
//! state; a median pass tracks those stretches, while every call meets a
//! quiet moment at least once in a run. The median pass is printed beside
//! it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mcd_offline::{derive_schedule, OfflineConfig};
use mcd_pipeline::{
    simulate, simulate_governed, FrequencySchedule, MachineConfig, PolicySpec, RunResult,
};
use mcd_power::PowerModel;
use mcd_time::{DvfsModel, FrequencyGrid};
use mcd_workload::{suites, BenchmarkProfile, WorkloadGenerator};
use serde_json::{Map, Value};

use crate::trace::Tracer;
use crate::{
    child_seed_size, field, fnv, median, num, peak_rss_mib, run_child, Ctx, Report, Size,
    BENCHMARKS, FNV_START, SETUP_REPEATS,
};

/// Machine classes, in the order a pass runs them.
const CLASSES: [&str; 5] = ["baseline", "global", "mcd", "scheduled", "governed"];

/// Index into the paper's 32-point grid of the `global` class's single
/// clock (about 830 MHz): a lower grid frequency, as the global search
/// settles on.
const GLOBAL_GRID_INDEX: usize = 24;

fn instructions(size: Size) -> u64 {
    match size {
        Size::Full => 50_000,
        Size::Smoke => 2_000,
    }
}

struct Bench {
    profile: BenchmarkProfile,
    schedule: FrequencySchedule,
}

/// Derives every benchmark's schedule (and so primes its warm-up state).
fn setup(seed: u64, n: u64) -> Vec<Bench> {
    let cfg = OfflineConfig::paper(0.05, DvfsModel::XScale);
    BENCHMARKS
        .iter()
        .map(|name| {
            let profile = suites::by_name(name).expect("known benchmark");
            let (analysis, _) = derive_schedule(seed, &profile, n, &cfg);
            Bench {
                profile,
                schedule: analysis.schedule,
            }
        })
        .collect()
}

fn run_class(class: usize, bench: &Bench, seed: u64, n: u64) -> RunResult {
    let profile = &bench.profile;
    match CLASSES[class] {
        "baseline" => simulate(&MachineConfig::baseline(seed), profile, n),
        "global" => {
            let f = FrequencyGrid::paper32().point(GLOBAL_GRID_INDEX).frequency;
            simulate(&MachineConfig::global(seed, f), profile, n)
        }
        "mcd" => simulate(&MachineConfig::baseline_mcd(seed), profile, n),
        "scheduled" => {
            let machine = MachineConfig::dynamic(seed, DvfsModel::XScale, bench.schedule.clone());
            simulate(&machine, profile, n)
        }
        _ => {
            let governor = PolicySpec::parse("attack-decay")
                .and_then(|p| p.build())
                .expect("attack-decay is a registered policy");
            simulate_governed(&MachineConfig::baseline_mcd(seed), profile, n, governor)
        }
    }
}

/// Set-up in a fresh process, so it starts from empty warm-up state.
pub fn child_setup(rest: &[String]) -> Result<Value, String> {
    let (seed, size) = child_seed_size(rest)?;
    let started = Instant::now();
    black_box(setup(seed, instructions(size)));
    let mut m = Map::new();
    m.insert("setup_s".into(), num(started.elapsed().as_secs_f64()));
    m.insert("rss_mib".into(), num(peak_rss_mib()));
    Ok(Value::Object(m))
}

/// One pass's timings: per call (class, bench) in run order.
struct Pass {
    calls: Vec<Duration>,
}

impl Pass {
    fn wall(&self) -> f64 {
        self.calls.iter().map(Duration::as_secs_f64).sum()
    }
}

/// Σ over a pass's calls of each call's fastest repeat across `passes`.
fn best_of_calls(passes: &[Pass]) -> f64 {
    (0..passes[0].calls.len())
        .map(|i| {
            passes
                .iter()
                .map(|p| p.calls[i].as_secs_f64())
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

struct Mix {
    benches: Vec<Bench>,
    seed: u64,
    n: u64,
    power: PowerModel,
    /// Canonical JSON of every result of the first pass, in run order.
    reference: Vec<String>,
}

impl Mix {
    /// Runs every class on every benchmark and checks each result:
    /// `committed` is the requested count, the energy audit is clean, and
    /// the bytes equal the first pass's.
    fn pass(&mut self, report: &mut Report, mut tracer: Option<&mut Tracer>) -> Pass {
        let mut calls = Vec::with_capacity(self.benches.len() * CLASSES.len());
        let mut i = 0;
        for bench in &self.benches {
            for (class, class_name) in CLASSES.iter().enumerate() {
                let open = tracer
                    .as_deref_mut()
                    .map(|t| t.enter(&format!("pipeline.{class_name}")));
                let t0 = Instant::now();
                let run = black_box(run_class(class, bench, self.seed, self.n));
                let took = t0.elapsed();
                calls.push(took);
                if let (Some(t), Some(open)) = (tracer.as_deref_mut(), open) {
                    t.exit(open);
                    let edges: u64 = run.domain_cycles.iter().sum();
                    t.count(&format!("pipeline.{class_name}.instr"), run.committed);
                    t.count(&format!("pipeline.{class_name}.edges"), edges);
                    let power = &self.power;
                    black_box(t.span("power.energy_of", || power.energy_of(&run)));
                    t.count("power.energy_of.calls", 1);
                }

                let mut problems = Vec::new();
                if run.committed != self.n {
                    problems.push(format!("committed {} != {}", run.committed, self.n));
                }
                problems.extend(mcd_check::check_energy(&run));
                let bytes = serde_json::to_string(&run).expect("JSON writing is infallible");
                match self.reference.get(i) {
                    Some(r) if *r != bytes => {
                        problems.push("result bytes changed on repeat".into())
                    }
                    Some(_) => {}
                    None => self.reference.push(bytes),
                }
                report.check(&format!("{}/{class_name}", bench.profile.name), problems);
                i += 1;
            }
        }
        Pass { calls }
    }

    /// Runs passes until `budget` has elapsed (at least one).
    fn passes(&mut self, report: &mut Report, budget: Duration) -> Vec<Pass> {
        let started = Instant::now();
        let mut out = Vec::new();
        while out.is_empty() || started.elapsed() < budget {
            out.push(self.pass(report, None));
        }
        out
    }

    fn digest(&self) -> String {
        let h = self
            .reference
            .iter()
            .fold(FNV_START, |h, r| fnv(h, r.as_bytes()));
        format!("{h:016x}")
    }
}

pub fn run(ctx: &Ctx, tracer: Option<&mut Tracer>) -> Result<Report, String> {
    let n = instructions(ctx.size);
    let mut report = Report::default();
    match tracer {
        None => {
            let mut setup_s = Vec::new();
            let mut rss = Vec::new();
            let child_args = ctx.child_args("kernel-mix-setup");
            for _ in 1..SETUP_REPEATS {
                let child = run_child(&child_args)?;
                setup_s.push(field(&child.reply, "setup_s")?);
                rss.push(field(&child.reply, "rss_mib")?);
            }
            let t0 = Instant::now();
            let benches = setup(ctx.seed, n);
            setup_s.push(t0.elapsed().as_secs_f64());

            let mut mix = Mix {
                benches,
                seed: ctx.seed,
                n,
                power: PowerModel::paper_calibrated(),
                reference: Vec::new(),
            };
            let passes = mix.passes(&mut report, ctx.seconds);
            let walls: Vec<f64> = passes.iter().map(Pass::wall).collect();
            rss.push(peak_rss_mib());

            let wall = best_of_calls(&passes);
            report.metric("wall_s", wall, walls.len());
            report.metric("setup_s", median(&setup_s), setup_s.len());
            report.metric(
                "peak_rss_mib",
                rss.iter().copied().fold(0.0, f64::max),
                rss.len(),
            );
            let instr = (mix.benches.len() * CLASSES.len()) as f64 * n as f64;
            report.info.push(format!(
                "sim_minstr_per_s {:.4} Minstr/s (committed simulated instructions per host second of wall_s, fastest of {} repeats per call)",
                instr / wall / 1e6,
                walls.len()
            ));
            report.info.push(format!(
                "median_pass_s {:.6} s (median of {} passes)",
                median(&walls),
                walls.len()
            ));
            report.digest = mix.digest();
        }
        Some(t) => {
            // Warm-up cost: first call in a fresh process minus a steady
            // call, same benchmark and seed.
            t.next_op();
            let mut warmup_ns = 0i64;
            for name in BENCHMARKS {
                let profile = suites::by_name(name).expect("known benchmark");
                let machine = MachineConfig::baseline(ctx.seed);
                let first = t.enter("pipeline.warmup.first");
                black_box(simulate(&machine, &profile, n));
                let first = t.exit(first);
                let steady = t.enter("pipeline.warmup.steady");
                black_box(simulate(&machine, &profile, n));
                let steady = t.exit(steady);
                warmup_ns += first.as_nanos() as i64 - steady.as_nanos() as i64;
            }
            let benches = t.span("kernel-mix.setup", || setup(ctx.seed, n));
            let mut mix = Mix {
                benches,
                seed: ctx.seed,
                n,
                power: PowerModel::paper_calibrated(),
                reference: Vec::new(),
            };

            // Untraced passes first, then as many traced ones: the
            // difference is the tracing overhead.
            let untraced = mix.passes(&mut report, ctx.seconds / 2);
            let untraced_wall = median(&untraced.iter().map(Pass::wall).collect::<Vec<_>>());
            for _ in 0..untraced.len() {
                t.next_op();
                let open = t.enter("kernel-mix.pass");
                mix.pass(&mut report, Some(t));
                t.exit(open);
            }
            let class_spans = CLASSES.map(|c| format!("pipeline.{c}"));
            let class_spans: Vec<&str> = class_spans.iter().map(String::as_str).collect();
            let traced_wall = median(
                &t.per_op_ns(&class_spans)
                    .iter()
                    .map(|ns| *ns as f64 / 1e9)
                    .collect::<Vec<_>>(),
            );

            // The workload generator on its own, as the pipeline drives it.
            for bench in &mix.benches {
                t.next_op();
                let open = t.enter("workload.generate");
                let mut generator = WorkloadGenerator::new(bench.profile.clone(), ctx.seed);
                for _ in 0..n {
                    black_box(generator.next_instruction());
                }
                t.exit(open);
                t.count("workload.generate.instr", n);
            }

            let passes = untraced.len();
            for class in CLASSES {
                let ns = t.total_ns(&format!("pipeline.{class}")) as f64;
                let instr = t.counter(&format!("pipeline.{class}.instr")) as f64;
                let edges = t.counter(&format!("pipeline.{class}.edges")) as f64;
                report.metric(
                    &format!("pipeline.{class}.ns_per_instr"),
                    ns / instr,
                    passes,
                );
                report.metric(&format!("pipeline.{class}.ns_per_edge"), ns / edges, passes);
                report.metric(
                    &format!("pipeline.{class}.edges_per_instr"),
                    edges / instr,
                    passes,
                );
            }
            report.metric(
                "pipeline.warmup_ms",
                warmup_ns as f64 / 1e6,
                BENCHMARKS.len(),
            );
            report.metric(
                "workload.generate.ns_per_instr",
                t.total_ns("workload.generate") as f64
                    / t.counter("workload.generate.instr") as f64,
                BENCHMARKS.len(),
            );
            report.metric(
                "power.energy_of_us",
                t.total_ns("power.energy_of") as f64
                    / 1e3
                    / t.counter("power.energy_of.calls") as f64,
                t.counter("power.energy_of.calls") as usize,
            );
            report.metric(
                "trace.overhead_pct",
                (traced_wall / untraced_wall - 1.0) * 100.0,
                passes,
            );
            report.info.push(format!(
                "tracing overhead: untraced pass {untraced_wall:.6} s, traced pass {traced_wall:.6} s (medians of {passes})"
            ));
            report.digest = mix.digest();
        }
    }
    Ok(report)
}
