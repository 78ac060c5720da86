//! The benchmark's own tests: at tiny size every workload prints every
//! metric `BENCHMARK.json` names, with its unit, and a corrupted
//! expectation makes the correctness gate report failed operations.

use koika_server::json::Json;
use std::process::Command;

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = spec.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one tiny workload; returns the exit status and the result line.
fn run(workload: &str, trace: bool, corrupt: bool) -> (bool, Json) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_layerbench"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0",
        "--tiny",
    ])
    .args(["--trace", if trace { "1" } else { "0" }])
    .current_dir(env!("CARGO_MANIFEST_DIR"));
    if corrupt {
        cmd.arg("--corrupt");
    }
    let out = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "{workload}: no output; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (
        out.status.success(),
        Json::parse(last).expect("the last line is JSON"),
    )
}

fn check_metrics(workload: &str, trace: bool) {
    let (ok, result) = run(workload, trace, false);
    assert!(ok, "{workload}: run failed: {result:?}");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                matches!(m.get("value"), Some(Json::Int(_) | Json::Num(_))),
                "{workload}: {name} has no numeric value"
            );
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(got, want, "{workload}: metrics differ from BENCHMARK.json");
    if !trace {
        for (name, m) in metrics {
            let v = match m.get("value") {
                Some(Json::Num(f)) => *f,
                Some(Json::Int(i)) => *i as f64,
                _ => 0.0,
            };
            assert!(v > 0.0, "{workload}: end-to-end metric {name} is {v}");
        }
    }
}

fn check_corruption_fails(workload: &str) {
    let (ok, result) = run(workload, false, true);
    assert!(!ok, "{workload}: a corrupted expectation must fail the run");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
    assert!(
        result.get("failed").and_then(Json::as_u64) > Some(0),
        "{workload}: error rate must rise above 0: {result:?}"
    );
}

#[test]
fn core_native_emits_every_metric() {
    check_metrics("core-native", false);
    check_metrics("core-native", true);
}

#[test]
fn campaign_tac_emits_every_metric() {
    check_metrics("campaign-tac", false);
    check_metrics("campaign-tac", true);
}

#[test]
fn server_durable_emits_every_metric() {
    check_metrics("server-durable", false);
    check_metrics("server-durable", true);
}

#[test]
fn wrong_prime_count_is_an_error() {
    check_corruption_fails("core-native");
}

#[test]
fn flipped_campaign_outcome_is_an_error() {
    check_corruption_fails("campaign-tac");
}

#[test]
fn altered_snapshot_is_an_error() {
    check_corruption_fails("server-durable");
}
