//! `paper-cells`: one cold `Campaign::run` of the five paper scenarios
//! over the mix's benchmarks, the operation users actually run.
//!
//! Every measured campaign runs in a fresh child process with fresh, empty
//! result and slack caches, so it also starts with empty process-wide
//! warm-up state, as a real `campaign run` does. The traced run adds one
//! more child that drives the same cells through `BenchmarkSession::cell`
//! in scenario order and calls the off-line analysis on the traced MCD run.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mcd_core::{BenchmarkSession, ScenarioSpec};
use mcd_harness::{Campaign, CampaignSpec, CellOutcome, ResultCache, Telemetry};
use mcd_offline::{cluster_schedule, prepare_slack};
use mcd_pipeline::MachineConfig;
use mcd_time::DvfsModel;
use serde_json::{Map, Number, Value};

use crate::trace::Tracer;
use crate::{
    child_arg, child_seed_size, field, fnv, median, num, peak_rss_mib, run_child, Ctx, Report,
    Size, BENCHMARKS, FNV_START,
};

/// The five paper scenarios in the order a campaign cell computes them,
/// with the names the per-layer metrics use.
const SCENARIOS: [&str; 5] = [
    "baseline",
    "baseline-mcd",
    "dynamic-1",
    "dynamic-5",
    "global",
];

fn scenario(name: &str) -> ScenarioSpec {
    match name {
        "baseline" => ScenarioSpec::baseline(),
        "baseline-mcd" => ScenarioSpec::baseline_mcd(),
        "dynamic-1" => ScenarioSpec::dynamic(0.01),
        "dynamic-5" => ScenarioSpec::dynamic(0.05),
        _ => ScenarioSpec::global_matched(),
    }
}

fn spec(seed: u64, size: Size) -> CampaignSpec {
    let instructions = match size {
        Size::Full => 20_000,
        Size::Smoke => 2_000,
    };
    let mut spec = CampaignSpec::paper(seed, instructions, DvfsModel::XScale);
    spec.benchmarks = BENCHMARKS.iter().map(|b| b.to_string()).collect();
    spec
}

/// One cold campaign in this (fresh) process. Checks that every cell was
/// computed and has a well-defined energy-delay improvement.
pub fn child_campaign(rest: &[String]) -> Result<Value, String> {
    let (seed, size) = child_seed_size(rest)?;
    let dir = PathBuf::from(child_arg(rest, "--dir")?);
    let workers: usize = child_arg(rest, "--workers")?
        .parse()
        .map_err(|e| format!("--workers: {e}"))?;
    let traced = child_arg(rest, "--trace")? == "1";
    let mut tracer = Tracer::new();

    let spec = spec(seed, size);
    let cache = ResultCache::open(&dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let campaign = Campaign::new(spec).workers(workers);
    let open = traced.then(|| tracer.enter("harness.campaign"));
    let t0 = Instant::now();
    let report = campaign
        .run(&cache, &Telemetry::disabled())
        .map_err(|e| format!("campaign: {e}"))?;
    let wall = t0.elapsed();
    if let Some(open) = open {
        tracer.exit(open);
    }

    // Per cell: computed this run, with a well-defined ED improvement.
    let problems: Vec<Value> = report
        .cells
        .iter()
        .map(|c| {
            let problem = match &c.outcome {
                CellOutcome::Computed { result, .. } => result
                    .try_energy_delay_improvement()
                    .err()
                    .map(|e| e.to_string()),
                other => Some(format!("not computed ({other:?})")),
            };
            problem.map_or(Value::Null, |p| {
                Value::String(format!("{}: {p}", c.cell.label()))
            })
        })
        .collect();
    let json = report.to_json().unwrap_or_default();
    let mut m = Map::new();
    m.insert("wall_s".into(), num(wall.as_secs_f64()));
    m.insert(
        "cells_s".into(),
        Value::Array(
            report
                .cells
                .iter()
                .map(|c| num(c.elapsed.as_secs_f64()))
                .collect(),
        ),
    );
    m.insert("problems".into(), Value::Array(problems));
    m.insert(
        "digest".into(),
        Value::String(format!("{:016x}", fnv(FNV_START, json.as_bytes()))),
    );
    m.insert("rss_mib".into(), num(peak_rss_mib()));
    if traced {
        m.insert("trace".into(), tracer.to_value());
    }
    Ok(Value::Object(m))
}

/// The traced run's layer probe: the campaign's cells through
/// `BenchmarkSession::cell` in scenario order, then `prepare_slack` and
/// `cluster_schedule` on each traced MCD run, in a fresh process.
pub fn child_session(rest: &[String]) -> Result<Value, String> {
    let (seed, size) = child_seed_size(rest)?;
    let mut t = Tracer::new();
    let cells = spec(seed, size)
        .expand()
        .map_err(|e| format!("expanding spec: {e}"))?;
    let mut phases = [Duration::ZERO; 4];
    for cell in &cells {
        t.next_op();
        let profile = cell.profile();
        let cfg = cell.experiment_config();
        let mut session = BenchmarkSession::new(&profile, &cfg);
        for name in SCENARIOS {
            let s = scenario(name);
            black_box(t.span(&format!("core.cell.{name}"), || session.cell(&s)));
        }
        let p = session.phases();
        for (acc, d) in phases
            .iter_mut()
            .zip([p.trace_run, p.slack, p.cluster, p.simulate])
        {
            *acc += d;
        }

        let trace = session
            .mcd_run()
            .trace
            .clone()
            .ok_or("the session's MCD run carries no trace")?;
        let pipeline = MachineConfig::baseline_mcd(cfg.seed).pipeline;
        let slack = t.span("offline.prepare_slack", || {
            prepare_slack(&trace, &pipeline, &cfg.offline)
        });
        black_box(t.span("offline.cluster_schedule", || {
            cluster_schedule(&slack, &cfg.offline)
        }));
    }
    let mut m = Map::new();
    for (name, d) in ["trace_run", "slack", "cluster", "simulate"]
        .iter()
        .zip(phases)
    {
        m.insert(format!("core.phase.{name}_s"), num(d.as_secs_f64()));
    }
    m.insert("rss_mib".into(), num(peak_rss_mib()));
    m.insert("trace".into(), t.to_value());
    Ok(Value::Object(m))
}

/// A campaign child's results, as the parent keeps them.
struct Cold {
    wall: f64,
    cells: Vec<f64>,
    /// Parent-observed process time outside `Campaign::run`: start-up,
    /// cache open, exit.
    process_overhead: f64,
    rss: f64,
}

impl Cold {
    /// Wall time of the campaign's slowest cell.
    fn max_cell(&self) -> f64 {
        self.cells.iter().copied().fold(0.0, f64::max)
    }
}

fn cold_campaign(
    ctx: &Ctx,
    i: usize,
    traced: bool,
    report: &mut Report,
    digest: &mut Option<String>,
) -> Result<(Cold, Option<Value>), String> {
    let dir = ctx.work.join(format!("campaign-{i}"));
    let mut args = ctx.child_args("paper-cells-campaign");
    args.extend([
        "--dir".into(),
        dir.to_string_lossy().into_owned(),
        "--workers".into(),
        ctx.workers().to_string(),
        "--trace".into(),
        if traced { "1" } else { "0" }.into(),
    ]);
    let child = run_child(&args);
    let _ = std::fs::remove_dir_all(&dir);
    let child = child?;
    let r = &child.reply;
    let cells: Vec<f64> = r
        .get("cells_s")
        .and_then(Value::as_array)
        .ok_or("child reply lacks cells_s")?
        .iter()
        .filter_map(|v| v.as_number().map(Number::as_f64))
        .collect();
    let problems = r
        .get("problems")
        .and_then(Value::as_array)
        .filter(|p| p.len() == cells.len())
        .ok_or("child reply lacks one problem slot per cell")?;
    // Every campaign of a run must produce the same bytes.
    let d = r
        .get("digest")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_string();
    let same_bytes = digest.get_or_insert_with(|| d.clone()) == &d;
    // One checked operation per cell.
    for (k, p) in problems.iter().enumerate() {
        let mut mine: Vec<String> = p.as_str().map(String::from).into_iter().collect();
        if !same_bytes {
            mine.push("campaign bytes differ from the run's first campaign".into());
        }
        report.check(&format!("campaign {i} cell {k}"), mine);
    }
    let wall = field(r, "wall_s")?;
    let cold = Cold {
        wall,
        cells,
        process_overhead: child.wall.as_secs_f64() - wall,
        rss: field(r, "rss_mib")?,
    };
    Ok((cold, r.get("trace").cloned()))
}

pub fn run(ctx: &Ctx, tracer: Option<&mut Tracer>) -> Result<Report, String> {
    let mut report = Report::default();
    let mut digest = None;
    let since = Instant::now();
    let budget = match tracer {
        None => ctx.seconds,
        Some(_) => ctx.seconds / 2,
    };
    let mut cold = Vec::new();
    while cold.is_empty() || since.elapsed() < budget {
        let (c, _) = cold_campaign(ctx, cold.len(), false, &mut report, &mut digest)?;
        cold.push(c);
    }
    let walls: Vec<f64> = cold.iter().map(|c| c.wall).collect();
    let Some(t) = tracer else {
        let overheads: Vec<f64> = cold.iter().map(|c| c.process_overhead).collect();
        let rss = cold.iter().map(|c| c.rss).fold(peak_rss_mib(), f64::max);
        report.metric("wall_s", median(&walls), walls.len());
        report.metric("setup_s", median(&overheads), overheads.len());
        report.metric("peak_rss_mib", rss, cold.len() + 1);
        report.info.push(format!(
            "max_cell_s {:.6} s (slowest cell of a campaign, median of {} campaigns)",
            median(&cold.iter().map(Cold::max_cell).collect::<Vec<_>>()),
            cold.len()
        ));
        report.digest = digest.unwrap_or_default();
        return Ok(report);
    };

    // Traced campaigns, as many as untraced ones.
    let workers = ctx.workers().min(BENCHMARKS.len()) as f64;
    let mut elapsed = Vec::new();
    let mut overhead = Vec::new();
    let mut traced_walls = Vec::new();
    let mut max_cells = Vec::new();
    for i in 0..cold.len() {
        t.next_op();
        let open = t.enter("paper-cells.campaign-process");
        let spawned = t.wall_ns();
        let (c, trace) = cold_campaign(ctx, cold.len() + i, true, &mut report, &mut digest)?;
        t.absorb(&trace.ok_or("traced child returned no spans")?, spawned)?;
        t.exit(open);
        let cell_sum: f64 = c.cells.iter().sum();
        elapsed.push(cell_sum);
        overhead.push(c.wall - cell_sum / workers);
        traced_walls.push(c.wall);
        max_cells.push(c.max_cell());
    }

    t.next_op();
    let open = t.enter("paper-cells.session-process");
    let spawned = t.wall_ns();
    let child = run_child(&ctx.child_args("paper-cells-session"))?;
    let trace = child
        .reply
        .get("trace")
        .ok_or("session child returned no spans")?;
    t.absorb(trace, spawned)?;
    t.exit(open);

    let n = cold.len();
    let cells = BENCHMARKS.len();
    for name in SCENARIOS {
        let ns = t.total_ns(&format!("core.cell.{name}"));
        report.metric(&format!("core.cell.{name}_s"), ns as f64 / 1e9, cells);
    }
    for name in ["trace_run", "slack", "cluster", "simulate"] {
        let key = format!("core.phase.{name}_s");
        report.metric(&key, field(&child.reply, &key)?, cells);
    }
    for name in ["prepare_slack", "cluster_schedule"] {
        let ns = t.total_ns(&format!("offline.{name}"));
        report.metric(&format!("offline.{name}_s"), ns as f64 / 1e9, cells);
    }
    report.metric("harness.cell_elapsed_s", median(&elapsed), n);
    report.metric("harness.max_cell_s", median(&max_cells), n);
    report.metric("harness.overhead_s", median(&overhead), n);
    let (untraced, traced) = (median(&walls), median(&traced_walls));
    report.metric("trace.overhead_pct", (traced / untraced - 1.0) * 100.0, n);
    report.info.push(format!(
        "tracing overhead: untraced campaign {untraced:.6} s, traced campaign {traced:.6} s (medians of {n})"
    ));
    report.digest = digest.unwrap_or_default();
    Ok(report)
}
