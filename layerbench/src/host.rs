//! Host facts recorded with every result: provenance, peak memory, and a
//! fixed integer kernel timed at the start and end of each run so a slow
//! host shows up next to the numbers it slowed.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `(key, value)` provenance pairs: git revision, rustc version, logical
/// CPU count and CPU model.
pub fn provenance() -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        (
            "git_rev".into(),
            command_line("git", &["rev-parse", "HEAD"]),
        ),
        ("rustc".into(), command_line("rustc", &["--version"])),
        ("nproc".into(), nproc.to_string()),
        ("cpu".into(), cpu),
    ]
}

/// Milliseconds one fixed integer kernel takes on this host right now.
pub fn probe_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x2545_f491_4f6c_dd1du64);
    let mut acc = 0u64;
    for i in 0..black_box(20_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x ^ i);
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
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
