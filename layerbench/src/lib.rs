//! A layered end-to-end benchmark for the Kôika/Cuttlesim workspace.
//!
//! Three workloads drive the workspace crates through their public APIs:
//!
//! * `core-native` — one `rv32i` core on the compiled native dispatch runs
//!   the primes program to its halt, repeated from reset;
//! * `campaign-tac` — a seeded single-bit-flip campaign on `rv32i`, packed
//!   into one 32-lane lock-step batch on the tac dispatch;
//! * `server-durable` — the session server with journaling on, driven
//!   closed-loop over two connections, then killed and recovered.
//!
//! Every workload times a fixed number of identical units of work and
//! reports their slow tail (see [`SLOW_TAIL`]), checks each unit's output,
//! and fails a run whose units disagree on a simulated statistic. With
//! tracing on, spans recorded around each call into a layer give the
//! per-layer metrics (see `README.md` in this directory for the layer →
//! metric → workload map).

#![warn(missing_docs)]

pub mod campaign;
pub mod core_native;
pub mod host;
pub mod server;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("throughput", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("koika.design_s", "s"),
    ("koika.check_s", "s"),
    ("cuttlesim.compile_s", "s"),
    ("cuttlesim.tac.lower_s", "s"),
    ("cuttlesim.native.build_s", "s"),
    ("cuttlesim.native.emit_s", "s"),
    ("cuttlesim.native.load_s", "s"),
    ("cuttlesim.native.so_bytes", "bytes"),
    ("cuttlesim.vm.cycle_s", "s"),
    ("koika_designs.memdev.tick_s", "s"),
    ("cuttlesim.rules_fired", "count"),
    ("cuttlesim.rules_failed", "count"),
    ("cuttlesim.commit_ratio", "ratio"),
    ("cuttlesim.batch.cycle_s", "s"),
    ("cuttlesim.batch.lockstep_ratio", "ratio"),
    ("koika.fault.golden_s", "s"),
    ("koika.fault.harness_s", "s"),
    ("koika_server.create_p50_ms", "ms"),
    ("koika_server.create_p99_ms", "ms"),
    ("koika_server.step_p50_ms", "ms"),
    ("koika_server.step_p99_ms", "ms"),
    ("koika_server.step_after_evict_p50_ms", "ms"),
    ("koika_server.step_after_evict_p99_ms", "ms"),
    ("koika_server.inject_p50_ms", "ms"),
    ("koika_server.inject_p99_ms", "ms"),
    ("koika_server.snapshot_p50_ms", "ms"),
    ("koika_server.snapshot_p99_ms", "ms"),
    ("koika_server.evict_p50_ms", "ms"),
    ("koika_server.evict_p99_ms", "ms"),
    ("koika_server.close_p50_ms", "ms"),
    ("koika_server.close_p99_ms", "ms"),
    ("koika_server.packed_ratio", "ratio"),
    ("koika_server.state_bytes_per_op", "bytes"),
    ("koika_server.recovery_s", "s"),
    ("koika_server.recovered_sessions", "count"),
    ("sim.cycles_to_halt", "count"),
    ("sim.retired", "count"),
    ("sim.ipc", "ratio"),
    ("sim.campaign.masked", "count"),
    ("sim.campaign.sdc", "count"),
    ("sim.campaign.divergence", "count"),
    ("sim.campaign.hang", "count"),
    ("sim.campaign.panic", "count"),
    ("sim.campaign.flaky", "count"),
    ("sim.server_cycles", "count"),
    ("latency.p50_ms", "ms"),
    ("latency.p99_ms", "ms"),
    ("trace.throughput", "1/s"),
    ("trace.overhead_ratio", "ratio"),
];

/// The workloads, by their command-line names.
pub const WORKLOADS: [&str; 3] = ["core-native", "campaign-tac", "server-durable"];

/// How large a run's units of work are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// A few milliseconds of work per unit, for the benchmark's own tests.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Measurement time. It sets the number of units a run times (see
    /// [`unit_count`]); a run of a slower build takes longer.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Unit size.
    pub size: Size,
    /// Corrupt one expected output, so the correctness gate must fail
    /// (used by the benchmark's tests).
    pub corrupt: bool,
    /// This benchmark's executable, re-run as a child for cold builds.
    pub exe: PathBuf,
    /// Scratch directory for native caches and server state; removed by
    /// the caller.
    pub work: PathBuf,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Checked operations (repetitions, campaign members, requests).
    pub attempted: u64,
    /// Operations whose output was wrong or that returned an error.
    pub failed: u64,
    /// Whether every unit reported identical simulated statistics.
    pub consistent: bool,
    /// Metric values by name (end-to-end and per-layer).
    pub metrics: BTreeMap<String, f64>,
    /// Extra diagnostics, as `"key": value` JSON fragments.
    pub diag: Vec<(String, String)>,
}

impl RunResult {
    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a diagnostic (`value` must already be JSON).
    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        self.diag.push((key.to_string(), value.into()));
    }

    /// Failed operations divided by attempted ones.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// True when every output checked out and the units agreed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.consistent
    }

    /// The result line: exactly the end-to-end metrics, or exactly the
    /// per-layer metrics when `trace` is set (a layer not measured reads 0).
    pub fn result_line(&self, trace: bool) -> String {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = self.metrics.get(*name).copied().unwrap_or(0.0);
            let _ = write!(
                s,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " },
                json_num(v)
            );
        }
        s.push_str("}}");
        s
    }

    /// The diagnostics line printed before the result line.
    pub fn diag_line(&self) -> String {
        let mut s = String::from("{\"diagnostics\": {");
        let _ = write!(s, "\"error_rate\": {}", json_num(self.error_rate()));
        for (k, v) in &self.diag {
            let _ = write!(s, ", \"{k}\": {v}");
        }
        s.push_str("}}");
        s
    }
}

/// A finite number as JSON (non-finite values, which JSON cannot hold,
/// become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload name, or a set-up step that could not run at all
/// (a missing toolchain, an unbindable socket).
pub fn run(opts: &Options) -> Result<RunResult, String> {
    let probe_start = host::probe_ms();
    let mut r = match opts.workload.as_str() {
        "core-native" => core_native::run(opts)?,
        "campaign-tac" => campaign::run(opts)?,
        "server-durable" => server::run(opts)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {WORKLOADS:?})"
            ))
        }
    };
    let probe_end = host::probe_ms();
    r.set("peak_rss_mb", host::peak_rss_mb());
    r.note("workload", format!("\"{}\"", opts.workload));
    r.note("seed", opts.seed.to_string());
    r.note(
        "host_probe_ms",
        format!("[{}, {}]", json_num(probe_start), json_num(probe_end)),
    );
    for (k, v) in host::provenance() {
        r.note(
            &k,
            format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")),
        );
    }
    Ok(r)
}

/// The share of repeated samples reported from the slow tail. On a shared
/// 2-vCPU KVM guest (Xeon, family 6 model 143), fast and slow speed
/// regimes last seconds to minutes, and a run often sees only one of them.
/// The slow regime shows up in nearly every run, while the fast one does
/// not. So a timing is reported at the tail every run shares: rates at
/// their 2nd percentile and times at their 98th, taken as observed values
/// (never interpolated toward the other regime). Every run of a workload
/// takes the same number of samples (see [`unit_count`]), so the sample
/// this picks does not depend on the speed of the build under test.
pub const SLOW_TAIL: f64 = 0.02;

/// The rate 98% of samples reached.
pub fn sustained_rate(rates: &[f64]) -> f64 {
    sorted_at(rates, |n| (SLOW_TAIL * (n - 1) as f64).floor() as usize)
}

/// The time 98% of samples stayed within.
pub fn sustained_time(times: &[f64]) -> f64 {
    sorted_at(times, |n| {
        ((1.0 - SLOW_TAIL) * (n - 1) as f64).ceil() as usize
    })
}

/// The element at `index(len)` of `v` sorted ascending (0 when empty).
fn sorted_at(v: &[f64], index: impl Fn(usize) -> usize) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[index(s.len()).min(s.len() - 1)]
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated quantile `q` in `[0, 1]` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// SplitMix64 finalizer: spreads a seed into independent-looking words.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How many units a run times: `--seconds` over the workload's nominal
/// time per unit (at least 2). The count depends on `--seconds` only, never
/// on how fast the build under test runs, so every run of a workload
/// reports the same tail sample of the same number of units.
pub fn unit_count(opts: &Options, nominal_unit_s: f64) -> usize {
    match opts.size {
        Size::Full => ((opts.seconds / nominal_unit_s).round() as usize).max(2),
        Size::Tiny => 2,
    }
}

/// Whether unit `i` is traced. A traced run alternates untraced and traced
/// units, so both halves see the same host regimes and each traced unit
/// has an untraced neighbour to be compared with.
pub fn traced_unit(opts: &Options, i: usize) -> bool {
    opts.trace && i % 2 == 1
}

/// The tracing overhead: the median over adjacent (untraced, traced) unit
/// pairs of `1 - traced rate / untraced rate`.
pub fn trace_overhead(untraced: &[f64], traced: &[f64]) -> f64 {
    let ratios: Vec<f64> = untraced
        .iter()
        .zip(traced)
        .map(|(u, t)| 1.0 - t / u)
        .collect();
    median(&ratios)
}
