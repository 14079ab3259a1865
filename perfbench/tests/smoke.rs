//! Tiny-size run of every workload, untraced and traced.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```
//!
//! Checks that each run prints every metric `BENCHMARK.json` declares, with
//! its unit, that all outputs pass their checks (`ok_frac` = 1), that the
//! traced run's top-level self times fit in its wall time, and that each
//! workload records no time in the layers it is meant to bypass.

use std::path::Path;
use std::process::Command;

use serde_json::{Number, Value};

fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside perfbench/");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--size", "smoke"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("last line is JSON");
    (stdout, result)
}

/// Every declared metric, with its declared unit and a finite value.
fn metrics(result: &Value, list: &str) -> Vec<(String, f64)> {
    let printed = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    let declared = declared(list);
    assert_eq!(printed.len(), declared.len(), "{list}: {printed:?}");
    declared
        .into_iter()
        .map(|(name, unit)| {
            let m = printed
                .get(&name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(unit.as_str()),
                "{name}"
            );
            let value = m
                .get("value")
                .and_then(Value::as_number)
                .map(Number::as_f64)
                .unwrap_or_else(|| panic!("{name} has no value"));
            assert!(value.is_finite(), "{name} = {value}");
            (name, value)
        })
        .collect()
}

fn check(workload: &str, bypassed: &[&str]) {
    let (_, result) = run(workload, "0");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(
        result
            .get("failed")
            .and_then(Value::as_number)
            .and_then(Number::as_u64),
        Some(0)
    );
    for (name, value) in metrics(&result, "end_to_end") {
        assert!(value > 0.0, "{workload}: {name} = {value}");
        if name == "ok_frac" {
            assert_eq!(value, 1.0, "{workload}: some output failed its check");
        }
    }

    let (stdout, result) = run(workload, "1");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    for (name, value) in metrics(&result, "per_layer") {
        if bypassed.iter().any(|p| name.starts_with(p)) {
            assert_eq!(value, 0.0, "{workload} should not reach {name}");
        }
    }
    let trace = stdout
        .lines()
        .find_map(|l| l.strip_prefix("trace: "))
        .expect("trace summary line");
    let field = |key: &str| -> f64 {
        trace
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{key} in {trace:?}"))
    };
    let (wall, top_self) = (field("wall_s="), field("top_level_self_s="));
    assert!(
        top_self <= wall,
        "{workload}: top-level self {top_self} > wall {wall}"
    );
}

#[test]
fn kernel_mix() {
    check("kernel-mix", &["core.", "offline.", "harness.", "grid."]);
}

#[test]
fn paper_cells() {
    check(
        "paper-cells",
        &[
            "pipeline.",
            "workload.",
            "power.",
            "harness.spec",
            "harness.cache",
            "grid.",
        ],
    );
}

#[test]
fn cache_replay() {
    check(
        "cache-replay",
        &["pipeline.", "workload.", "power.", "core.", "offline."],
    );
}
