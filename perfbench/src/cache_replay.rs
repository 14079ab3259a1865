//! `cache-replay`: repeated replays of a fully cached campaign on one
//! thread. Each replay is one local `Campaign::run` followed by one
//! zero-worker `GridServer::run` on the same spec.
//!
//! Nothing is simulated: all of the time is in the `mcd-harness` and
//! `mcd-grid` coordinator spines (spec expansion, cache probe, verify and
//! load, spot check, rollup, report). Set-up fills the cache with
//! small-instruction cells, because replay cost does not depend on run
//! length.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mcd_grid::GridCampaign;
use mcd_harness::cache::SPOT_CHECK_LIMIT;
use mcd_harness::{
    CacheKey, Campaign, CampaignReport, CampaignRollup, CampaignSpec, ResultCache, Telemetry,
};
use mcd_time::DvfsModel;
use serde_json::{Map, Value};

use crate::trace::Tracer;
use crate::{
    child_arg, child_seed_size, field, fnv, median, num, peak_rss_mib, percentile, run_child, Ctx,
    Report, Size, BENCHMARKS, FNV_START, SETUP_REPEATS,
};

/// Cap on the passes that call the spine's steps one by one: enough for
/// steady medians, short enough to keep the traced run near `--seconds`.
const SPINE_STEP_PASSES: usize = 1_000;

fn spec(seed: u64, size: Size) -> CampaignSpec {
    let instructions = match size {
        Size::Full => 2_000,
        Size::Smoke => 1_000,
    };
    let mut spec = CampaignSpec::paper(seed, instructions, DvfsModel::XScale);
    spec.benchmarks = BENCHMARKS.iter().map(|b| b.to_string()).collect();
    spec
}

/// Fills an empty cache at `dir` with a cold campaign and returns the
/// report bytes it computed.
fn setup(spec: &CampaignSpec, dir: &Path, workers: usize) -> Result<String, String> {
    let cache = ResultCache::open(dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let report = Campaign::new(spec.clone())
        .workers(workers)
        .run(&cache, &Telemetry::disabled())
        .map_err(|e| format!("filling the cache: {e}"))?;
    if report.computed() != report.cells.len() {
        return Err(format!(
            "set-up computed {} of {} cells",
            report.computed(),
            report.cells.len()
        ));
    }
    report
        .to_json()
        .ok_or_else(|| "set-up left cells unfinished".into())
}

fn digest(json: &str) -> String {
    format!("{:016x}", fnv(FNV_START, json.as_bytes()))
}

/// Set-up in a fresh process, so it starts from empty warm-up state.
pub fn child_setup(rest: &[String]) -> Result<Value, String> {
    let (seed, size) = child_seed_size(rest)?;
    let dir = PathBuf::from(child_arg(rest, "--dir")?);
    let workers = child_arg(rest, "--workers")?
        .parse()
        .map_err(|e| format!("--workers: {e}"))?;
    let started = Instant::now();
    let json = setup(&spec(seed, size), &dir, workers)?;
    let mut m = Map::new();
    m.insert("setup_s".into(), num(started.elapsed().as_secs_f64()));
    m.insert("digest".into(), Value::String(digest(&json)));
    m.insert("rss_mib".into(), num(peak_rss_mib()));
    Ok(Value::Object(m))
}

struct Replay {
    local: Duration,
    grid: Duration,
}

/// One replay; checks zero recomputes and that both reports carry exactly
/// the bytes computed during set-up.
fn replay(
    spec: &CampaignSpec,
    cache: &ResultCache,
    reference: &str,
    report: &mut Report,
    mut tracer: Option<&mut Tracer>,
) -> Replay {
    let mut timed = |name: &str, f: &mut dyn FnMut() -> Result<CampaignReport, String>| {
        let open = tracer.as_deref_mut().map(|t| t.enter(name));
        let t0 = Instant::now();
        let out = f();
        let took = t0.elapsed();
        if let (Some(t), Some(open)) = (tracer.as_deref_mut(), open) {
            t.exit(open);
        }
        (out, took)
    };
    let (local, local_t) = timed("harness.local_replay", &mut || {
        Campaign::new(spec.clone())
            .workers(1)
            .run(cache, &Telemetry::disabled())
            .map_err(|e| e.to_string())
    });
    let (grid, grid_t) = timed("grid.replay", &mut || {
        GridCampaign::new(spec.clone())
            .bind("127.0.0.1:0")
            .map_err(|e| format!("bind: {e}"))?
            .run(cache, &Telemetry::disabled())
            .map_err(|e| e.to_string())
    });

    for (side, r) in [("local", local), ("grid", grid)] {
        let mut problems = Vec::new();
        match r {
            Err(e) => problems.push(e),
            Ok(r) => {
                if r.computed() != 0 || r.cached() != r.cells.len() {
                    problems.push(format!(
                        "{} computed, {} cached of {}",
                        r.computed(),
                        r.cached(),
                        r.cells.len()
                    ));
                }
                if r.to_json().as_deref() != Some(reference) {
                    problems.push("report bytes differ from set-up's".into());
                }
            }
        }
        report.check(&format!("{side} replay"), problems);
    }
    Replay {
        local: local_t,
        grid: grid_t,
    }
}

/// The spine's steps called one by one on the cached campaign, each in its
/// own span.
fn layer_probe(
    spec: &CampaignSpec,
    cache: &ResultCache,
    report: &CampaignReport,
    t: &mut Tracer,
    rollup: &Path,
) {
    let cells = t.span("harness.spec_expand", || {
        spec.expand().expect("spec expands")
    });
    t.span("harness.cache_probe", || {
        for cell in &cells {
            black_box(cache.probe(&CacheKey::of(cell)));
        }
    });
    t.span("harness.cache_load", || {
        for cell in &cells {
            black_box(cache.load(&CacheKey::of(cell)));
        }
    });
    black_box(t.span("harness.spot_check", || cache.spot_check(SPOT_CHECK_LIMIT)));
    t.span("harness.rollup", || {
        let _ = CampaignRollup::from_report(report).save(rollup);
    });
    black_box(t.span("harness.report_json", || report.to_json()));
}

pub fn run(ctx: &Ctx, tracer: Option<&mut Tracer>) -> Result<Report, String> {
    let spec = spec(ctx.seed, ctx.size);
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut rss = Vec::new();
    let mut child_digests = Vec::new();
    if tracer.is_none() {
        for i in 1..SETUP_REPEATS {
            let dir = ctx.work.join(format!("setup-{i}"));
            let mut args = ctx.child_args("cache-replay-setup");
            args.extend([
                "--dir".into(),
                dir.to_string_lossy().into_owned(),
                "--workers".into(),
                ctx.workers().to_string(),
            ]);
            let child = run_child(&args);
            let _ = std::fs::remove_dir_all(&dir);
            let child = child?;
            setup_s.push(field(&child.reply, "setup_s")?);
            rss.push(field(&child.reply, "rss_mib")?);
            let d = child.reply.get("digest").and_then(Value::as_str);
            child_digests.push(d.unwrap_or_default().to_string());
        }
    }
    let dir = ctx.work.join("cache");
    let t0 = Instant::now();
    let reference = setup(&spec, &dir, ctx.workers())?;
    setup_s.push(t0.elapsed().as_secs_f64());
    report.digest = digest(&reference);
    if child_digests.iter().any(|d| *d != report.digest) {
        report
            .problems
            .push("set-up computed different bytes in a fresh process".into());
    }
    let cache = ResultCache::open(&dir).map_err(|e| format!("reopening the cache: {e}"))?;

    let budget = match tracer {
        None => ctx.seconds,
        Some(_) => ctx.seconds / 2,
    };
    let started = Instant::now();
    let mut replays = Vec::new();
    while replays.is_empty() || started.elapsed() < budget {
        replays.push(replay(&spec, &cache, &reference, &mut report, None));
    }
    let walls: Vec<f64> = replays
        .iter()
        .map(|r| (r.local + r.grid).as_secs_f64())
        .collect();
    let n = replays.len();

    let Some(t) = tracer else {
        rss.push(peak_rss_mib());
        report.metric("wall_s", median(&walls), n);
        report.metric("setup_s", median(&setup_s), setup_s.len());
        report.metric(
            "peak_rss_mib",
            rss.iter().copied().fold(0.0, f64::max),
            rss.len(),
        );
        let local: Vec<f64> = replays
            .iter()
            .map(|r| r.local.as_secs_f64() * 1e3)
            .collect();
        let grid: Vec<f64> = replays.iter().map(|r| r.grid.as_secs_f64() * 1e3).collect();
        report.info.push(format!(
            "replay_ms_p50 {:.6} ms, replay_ms_p90 {:.6} ms (local + grid replay, {n} replays; local p50 {:.6} ms, grid p50 {:.6} ms)",
            median(&walls) * 1e3,
            percentile(&walls, 0.9) * 1e3,
            median(&local),
            median(&grid),
        ));
        return Ok(report);
    };

    // As many traced replays as untraced ones, then the spine's steps.
    let last = Campaign::new(spec.clone())
        .workers(1)
        .run(&cache, &Telemetry::disabled())
        .map_err(|e| e.to_string())?;
    let rollup = ctx.work.join("probe-rollup.json");
    for _ in 0..n {
        t.next_op();
        let open = t.enter("cache-replay.replay");
        replay(&spec, &cache, &reference, &mut report, Some(t));
        t.exit(open);
    }
    let steps = n.min(SPINE_STEP_PASSES);
    for _ in 0..steps {
        t.next_op();
        let open = t.enter("cache-replay.spine-steps");
        layer_probe(&spec, &cache, &last, t, &rollup);
        t.exit(open);
    }
    let med = |name: &str, scale: f64| {
        median(
            &t.per_op_ns(&[name])
                .iter()
                .map(|ns| *ns as f64 / scale)
                .collect::<Vec<_>>(),
        )
    };
    report.metric(
        "harness.spec_expand_us",
        med("harness.spec_expand", 1e3),
        steps,
    );
    report.metric(
        "harness.cache_probe_us",
        med("harness.cache_probe", 1e3),
        steps,
    );
    report.metric(
        "harness.cache_load_us",
        med("harness.cache_load", 1e3),
        steps,
    );
    report.metric(
        "harness.spot_check_ms",
        med("harness.spot_check", 1e6),
        steps,
    );
    report.metric("harness.rollup_ms", med("harness.rollup", 1e6), steps);
    report.metric(
        "harness.report_json_ms",
        med("harness.report_json", 1e6),
        steps,
    );
    report.metric(
        "harness.local_replay_ms",
        med("harness.local_replay", 1e6),
        n,
    );
    report.metric("grid.replay_ms", med("grid.replay", 1e6), n);
    let traced: Vec<f64> = t
        .per_op_ns(&["harness.local_replay", "grid.replay"])
        .iter()
        .map(|ns| *ns as f64 / 1e9)
        .collect();
    let (untraced, traced) = (median(&walls), median(&traced));
    report.metric("trace.overhead_pct", (traced / untraced - 1.0) * 100.0, n);
    report.info.push(format!(
        "tracing overhead: untraced replay {untraced:.6} s, traced replay {traced:.6} s (medians of {n})"
    ));
    Ok(report)
}
