//! Measures the batched lock-step SoA engine against the strongest scalar
//! Cuttlesim engine and writes a machine-readable record.
//!
//! For each of `collatz`, `fir`, and `rv32i-primes`, one scalar VM at the
//! top optimization level is timed under every dispatch (`match`, `tac`,
//! and `native` when a `rustc` toolchain is available — without one the
//! native rows are skipped with a note on stderr). The batched engine, the
//! micro-op lock-step interpreter, is then timed at lane widths 16 and 32
//! with identical per-lane stimulus (identical lanes never diverge, so
//! this is its pure lock-step throughput, the best case for batching).
//! Batched rows report *instance*-cycles per second — `cycles * lanes /
//! wall` — which is the number comparable to a scalar cycles/sec, and
//! every row carries its speedup over the fastest scalar row of its
//! design, so a batched row above 1.0x beats every scalar engine.
//!
//! ```text
//! Usage: batch_bench [--quick] [--out FILE] [--only NAMES]
//!   --quick      tiny cycle budgets (CI smoke: validates the JSON shape,
//!                asserts nothing about performance)
//!   --out FILE   where to write the JSON record (default batch_bench.json)
//!   --only NAMES comma-separated design filter (e.g. `--only collatz`)
//! ```
//!
//! Cycle budgets also honor `CUTTLE_BENCH_SCALE`.

use cuttlesim::{toolchain_available, Dispatch, OptLevel};
use cuttlesim_bench::{all_benches, run_bench, run_bench_batched, scaled, BackendKind, RunStats};
use std::fmt::Write as _;
use std::process::ExitCode;

/// The designs this baseline tracks.
const DESIGNS: [&str; 3] = ["collatz", "fir", "rv32i-primes"];

/// Batch widths measured per design.
const WIDTHS: [usize; 2] = [16, 32];

struct Row {
    design: &'static str,
    lanes: usize,
    dispatch: Dispatch,
    stats: RunStats,
    /// Instance-cycles per second (== `stats.cps()` for scalar rows).
    ips: f64,
    /// `ips` over the fastest scalar row's of the same design.
    speedup: f64,
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut out = "batch_bench.json".to_string();
    let mut only: Option<Vec<String>> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--out" => match argv.next() {
                Some(v) => out = v,
                None => {
                    eprintln!("missing value for --out");
                    return ExitCode::from(2);
                }
            },
            "--only" => match argv.next() {
                Some(v) => only = Some(v.split(',').map(|s| s.to_string()).collect()),
                None => {
                    eprintln!("missing value for --only");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!(
                    "unknown option {other} (batch_bench takes --quick, --out FILE, --only NAMES)"
                );
                return ExitCode::from(2);
            }
        }
    }

    let level = OptLevel::max();
    let mut scalar_dispatches = vec![Dispatch::Match, Dispatch::Tac];
    if toolchain_available() {
        scalar_dispatches.push(Dispatch::Native);
    } else {
        eprintln!("note: no rustc toolchain found; skipping the scalar native rows");
    }
    let mut rows: Vec<Row> = Vec::new();
    println!(
        "{:<14} {:>8} {:>6} {:>12} {:>10} {:>16} {:>8}",
        "design", "dispatch", "lanes", "cycles", "wall ms", "inst-cycles/s", "vs best"
    );
    for bench in all_benches() {
        if !DESIGNS.contains(&bench.name) {
            continue;
        }
        if let Some(f) = &only {
            if !f.iter().any(|n| n == bench.name) {
                continue;
            }
        }
        let cycles = if quick {
            5_000
        } else {
            scaled(bench.default_cycles)
        };
        let first = rows.len();
        for &dispatch in &scalar_dispatches {
            let stats = run_bench(&bench, BackendKind::Vm(level, dispatch), cycles);
            rows.push(Row {
                design: bench.name,
                lanes: 1,
                dispatch,
                stats,
                ips: stats.cps(),
                speedup: 0.0,
            });
        }
        for lanes in WIDTHS {
            let stats = run_bench_batched(&bench, level, cycles, lanes);
            rows.push(Row {
                design: bench.name,
                lanes,
                dispatch: Dispatch::Tac,
                stats,
                ips: stats.cps() * lanes as f64,
                speedup: 0.0,
            });
        }
        let best = rows[first..first + scalar_dispatches.len()]
            .iter()
            .map(|r| r.ips)
            .fold(0.0, f64::max);
        for r in &mut rows[first..] {
            r.speedup = r.ips / best;
            print_row(r);
        }
    }

    let json = render_json(&rows, quick);
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    ExitCode::SUCCESS
}

fn print_row(r: &Row) {
    println!(
        "{:<14} {:>8} {:>6} {:>12} {:>10.1} {:>16.0} {:>7.2}x",
        r.design,
        r.dispatch.short_name(),
        r.lanes,
        r.stats.cycles,
        r.stats.secs * 1e3,
        r.ips,
        r.speedup,
    );
}

fn render_json(rows: &[Row], quick: bool) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"batch_bench\",");
    let _ = writeln!(s, "  \"git_rev\": \"{}\",", git_rev());
    let _ = writeln!(s, "  \"level\": \"{}\",", OptLevel::max().short_name());
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"design\": \"{}\", \"backend\": \"{}\", \"dispatch\": \"{}\", \
             \"batch\": {}, \"cycles\": {}, \
             \"wall_ms\": {:.3}, \"cycles_per_sec\": {:.1}, \
             \"speedup_vs_best_scalar\": {:.3}}}{}",
            r.design,
            if r.lanes == 1 {
                "cuttlesim-scalar"
            } else {
                "cuttlesim-batch"
            },
            r.dispatch.short_name(),
            r.lanes,
            r.stats.cycles,
            r.stats.secs * 1e3,
            r.ips,
            r.speedup,
            if i + 1 == rows.len() { "" } else { "," },
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}
