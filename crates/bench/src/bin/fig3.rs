//! Regenerates Figure 3: sensitivity to compiler choice. The paper compiles
//! its C++ models with GCC and with Clang: absolute runtimes shift, but
//! Cuttlesim's advantage over the RTL simulator is stable. Our stand-in for
//! the compiler is the VM's dispatcher — `match`, `tac` and `native` are
//! three different ways to generate code from the same bytecode.
//!
//! For every Table-1 design this times each dispatcher at the top
//! optimization level, plus the RTL simulator under the Kôika scheme
//! (`rtl-koika`), and prints each dispatcher's speedup over RTL and over
//! `match`. The native rows need a rustc at run time; without one they are
//! skipped with a message on stderr.
//!
//! ```text
//! Usage: fig3 [--quick] [--out FILE]
//!   --quick    tiny cycle budgets (CI smoke: validates the JSON shape,
//!              asserts nothing about performance)
//!   --out FILE also write the measurements as JSON to FILE
//! ```
//!
//! Cycle budgets also honor `CUTTLE_BENCH_SCALE`.

use cuttlesim::{Dispatch, OptLevel};
use cuttlesim_bench::{all_benches, run_bench, scaled, BackendKind, RunStats};
use koika_rtl::Scheme;
use std::fmt::Write as _;
use std::process::ExitCode;

/// One dispatcher timed on one design.
struct Row {
    design: &'static str,
    dispatch: Dispatch,
    stats: RunStats,
    /// Speedup over the `match` dispatcher on the same design.
    vs_match: f64,
    /// Speedup over `rtl-koika` on the same design.
    vs_rtl: f64,
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
    let mut out = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--out" => match argv.next() {
                Some(v) => out = Some(v),
                None => {
                    eprintln!("missing value for --out");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown option {other} (fig3 takes --quick and --out FILE)");
                return ExitCode::from(2);
            }
        }
    }

    let level = OptLevel::max();
    let mut rows: Vec<Row> = Vec::new();
    let mut rtl_rows: Vec<(&'static str, RunStats)> = Vec::new();
    println!(
        "Figure 3: dispatch (compiler stand-in) sensitivity at {}",
        level.short_name()
    );
    println!(
        "{:<16} {:>9} {:>10} {:>10} {:>14} {:>9} {:>9}",
        "design", "backend", "cycles", "wall ms", "cycles/s", "vs match", "vs rtl"
    );
    for bench in all_benches() {
        let cycles = if quick {
            5_000
        } else {
            scaled(bench.default_cycles / 2)
        };
        let rtl = run_bench(&bench, BackendKind::Rtl(Scheme::Dynamic), cycles);
        println!(
            "{:<16} {:>9} {:>10} {:>10.1} {:>14.0} {:>9} {:>9}",
            bench.name,
            "rtl-koika",
            rtl.cycles,
            rtl.secs * 1e3,
            rtl.cps(),
            "-",
            "1.00x",
        );
        rtl_rows.push((bench.name, rtl));
        let mut match_cps = 0.0;
        for dispatch in Dispatch::ALL {
            if dispatch == Dispatch::Native && !cuttlesim::toolchain_available() {
                eprintln!(
                    "SKIP {}/native: no rustc toolchain (install rustc or set KOIKA_RUSTC)",
                    bench.name
                );
                continue;
            }
            let stats = run_bench(&bench, BackendKind::Vm(level, dispatch), cycles);
            if dispatch == Dispatch::Match {
                match_cps = stats.cps();
            }
            let row = Row {
                design: bench.name,
                dispatch,
                stats,
                vs_match: stats.cps() / match_cps,
                vs_rtl: stats.cps() / rtl.cps(),
            };
            println!(
                "{:<16} {:>9} {:>10} {:>10.1} {:>14.0} {:>8.2}x {:>8.2}x",
                row.design,
                dispatch.short_name(),
                stats.cycles,
                stats.secs * 1e3,
                stats.cps(),
                row.vs_match,
                row.vs_rtl,
            );
            rows.push(row);
        }
    }

    if let Some(out) = out {
        let json = render_json(&rows, &rtl_rows, quick);
        if let Err(e) = std::fs::write(&out, &json) {
            eprintln!("failed to write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {out}");
    }
    ExitCode::SUCCESS
}

fn render_json(rows: &[Row], rtl_rows: &[(&str, RunStats)], quick: bool) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"fig3\",");
    let _ = writeln!(s, "  \"git_rev\": \"{}\",", git_rev());
    let _ = writeln!(s, "  \"level\": \"{}\",", OptLevel::max().short_name());
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"design\": \"{}\", \"dispatch\": \"{}\", \"cycles\": {}, \
             \"wall_ms\": {:.3}, \"cycles_per_sec\": {:.1}, \"speedup_vs_match\": {:.3}, \
             \"speedup_vs_rtl\": {:.3}}}{}",
            r.design,
            r.dispatch.short_name(),
            r.stats.cycles,
            r.stats.secs * 1e3,
            r.stats.cps(),
            r.vs_match,
            r.vs_rtl,
            if i + 1 == rows.len() { "" } else { "," },
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"rtl\": [");
    for (i, (design, stats)) in rtl_rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"design\": \"{design}\", \"backend\": \"rtl-koika\", \"cycles\": {}, \
             \"wall_ms\": {:.3}, \"cycles_per_sec\": {:.1}}}{}",
            stats.cycles,
            stats.secs * 1e3,
            stats.cps(),
            if i + 1 == rtl_rows.len() { "" } else { "," },
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}
