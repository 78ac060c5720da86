//! Benchmark harness regenerating the tables and figures of the Cuttlesim
//! paper's evaluation (§4.1).
//!
//! The benchmark set mirrors Table 1: `collatz`, `fir`, `fft`,
//! `rv32e-primes`, `rv32i-primes`, `rv32i-bp-primes`, and `rv32i-mc-primes`.
//! Each can be run on any engine an [`EngineSpec`] names: the reference
//! interpreter (the naive O0 model), the Cuttlesim VM at any optimization
//! level and with any dispatch strategy, or the RTL netlist simulator
//! under either compilation scheme. Printed tables and records name the
//! engine by [`column_name`].
//!
//! Two binaries use it. `figures [SECTION…] [--quick] [--out FILE]` prints
//! Table 1, Figs 1–3, the ablation, CS4 and the batch section (see
//! [`figures`]: every table is a view over one timing matrix, measured
//! once per repeat). `server_bench` drives the session server.
//!
//! See EXPERIMENTS.md at the workspace root for the paper-vs-measured
//! record.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use cuttlesim::{BatchSim, CompileOptions, OptLevel};
use cuttlesim_repro::engine::EngineSpec;
use koika::check::check;
use koika::design::Design;
use koika::device::{Device, LaneAccess, RegAccess};
use koika::testgen::SplitMix64;
use koika::tir::TDesign;
use koika_designs::memdev::MagicMemory;
use koika_designs::{rv32, small};
use koika_riscv::programs;
use koika_rtl::Scheme;
use std::time::Instant;

pub mod figures;

/// The name printed tables and records give an engine, the paper's
/// column names: the dispatch at O6 (`match`, `tac`, `native`), suffixed
/// with the level below it (`match-O1`), `interp`, `rtl-koika` or
/// `rtl-bluespec-style`. Records are keyed by these names, and nothing
/// parses them back.
pub fn column_name(spec: EngineSpec) -> String {
    match spec {
        EngineSpec::Interp => "interp".to_string(),
        EngineSpec::Vm { level, dispatch } if level == OptLevel::max() => {
            dispatch.short_name().to_string()
        }
        EngineSpec::Vm { level, dispatch } => {
            format!("{}-{}", dispatch.short_name(), level.short_name())
        }
        EngineSpec::Rtl(Scheme::Dynamic) => "rtl-koika".to_string(),
        EngineSpec::Rtl(Scheme::Static) => "rtl-bluespec-style".to_string(),
    }
}

/// A Table-1 benchmark: a design plus its standard stimulus.
pub struct Bench {
    /// Row name (Table 1 spelling).
    pub name: &'static str,
    /// Builds the design.
    pub design: fn() -> Design,
    /// Builds the cycle-boundary devices for a checked design.
    pub devices: fn(&TDesign) -> Vec<Box<dyn Device>>,
    /// Default cycle budget at scale 1.0.
    pub default_cycles: u64,
}

/// A closure-backed device, for simple stimulus generators.
pub struct FnDevice<F>(pub F);

impl<F: FnMut(u64, &mut dyn RegAccess)> Device for FnDevice<F> {
    fn tick(&mut self, cycle: u64, regs: &mut dyn RegAccess) {
        (self.0)(cycle, regs)
    }
}

fn collatz_devices(_td: &TDesign) -> Vec<Box<dyn Device>> {
    Vec::new() // self-restarting
}

fn fir_devices(td: &TDesign) -> Vec<Box<dyn Device>> {
    let input = td.reg_id("input");
    let mut rng = SplitMix64::new(1);
    vec![Box::new(FnDevice(move |_c, regs: &mut dyn RegAccess| {
        regs.set64(input, rng.next_u64() & 0xffff);
    }))]
}

fn fft_devices(td: &TDesign) -> Vec<Box<dyn Device>> {
    let ins: Vec<_> = (0..small::FFT_POINTS)
        .map(|i| td.reg_id(&format!("in{i}")))
        .collect();
    let mut rng = SplitMix64::new(2);
    vec![Box::new(FnDevice(move |_c, regs: &mut dyn RegAccess| {
        for &r in &ins {
            regs.set64(r, rng.next_u64() & 0x0fff_0fff);
        }
    }))]
}

/// The prime-counting limit used by the core benchmarks.
pub const PRIMES_LIMIT: u32 = 400;

fn core_devices(td: &TDesign) -> Vec<Box<dyn Device>> {
    vec![Box::new(MagicMemory::new(
        td,
        &["imem", "dmem"],
        &programs::primes(PRIMES_LIMIT),
        koika_designs::harness::MEM_WORDS,
    ))]
}

fn mc_devices(td: &TDesign) -> Vec<Box<dyn Device>> {
    let mut mem = MagicMemory::new(
        td,
        &["c0_imem", "c0_dmem", "c1_imem", "c1_dmem"],
        &programs::primes_at(PRIMES_LIMIT, 0x1800),
        koika_designs::harness::MEM_WORDS,
    );
    mem.load(rv32::MC_CORE1_PC, &programs::primes_at(PRIMES_LIMIT, 0x1900));
    vec![Box::new(mem)]
}

/// The seven benchmarks of Table 1.
pub fn all_benches() -> Vec<Bench> {
    vec![
        Bench {
            name: "collatz",
            design: small::collatz,
            devices: collatz_devices,
            default_cycles: 2_000_000,
        },
        Bench {
            name: "fir",
            design: small::fir,
            devices: fir_devices,
            default_cycles: 1_000_000,
        },
        Bench {
            name: "fft",
            design: small::fft,
            devices: fft_devices,
            default_cycles: 300_000,
        },
        Bench {
            name: "rv32e-primes",
            design: rv32::rv32e,
            devices: core_devices,
            default_cycles: 1_000_000,
        },
        Bench {
            name: "rv32i-primes",
            design: rv32::rv32i,
            devices: core_devices,
            default_cycles: 1_000_000,
        },
        Bench {
            name: "rv32i-bp-primes",
            design: rv32::rv32i_bp,
            devices: core_devices,
            default_cycles: 1_000_000,
        },
        Bench {
            name: "rv32i-mc-primes",
            design: rv32::rv32i_mc,
            devices: mc_devices,
            default_cycles: 600_000,
        },
    ]
}

/// One measured run.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Simulated rule commits.
    pub rules_fired: u64,
}

impl RunStats {
    /// Simulation speed in cycles per second.
    pub fn cps(&self) -> f64 {
        self.cycles as f64 / self.secs
    }
}

/// Runs a benchmark for `cycles` cycles on the given engine and measures
/// wall-clock time.
///
/// # Panics
///
/// Panics if the design cannot be built for the engine (every Table-1
/// design can, given a rustc for native dispatch).
pub fn run_bench(bench: &Bench, spec: EngineSpec, cycles: u64) -> RunStats {
    let td = check(&(bench.design)()).expect("benchmark designs typecheck");
    let mut devices = (bench.devices)(&td);
    let engine = spec
        .prepare(&td)
        .expect("benchmark designs build on every engine");
    let mut sim = engine.make();
    let start = Instant::now();
    for cycle in 0..cycles {
        for d in devices.iter_mut() {
            d.tick(cycle, sim.as_reg_access());
        }
        sim.cycle();
    }
    RunStats {
        cycles,
        secs: start.elapsed().as_secs_f64(),
        rules_fired: sim.rules_fired(),
    }
}

/// Runs a benchmark as `lanes` identical instances of the batched
/// lock-step SoA engine (the micro-op interpreter, the only batched
/// engine), each lane with its own copy of the standard
/// stimulus devices. Identical lanes never diverge, so this measures the
/// engine's pure lock-step throughput; `rules_fired` sums over all lanes,
/// and the interesting figure is *instance*-cycles per second:
/// `stats.cps() * lanes as f64`.
///
/// # Panics
///
/// Panics if the design cannot be compiled or a cycle reports an engine
/// error (no Table-1 design does).
pub fn run_bench_batched(bench: &Bench, level: OptLevel, cycles: u64, lanes: usize) -> RunStats {
    let td = check(&(bench.design)()).expect("benchmark designs typecheck");
    let mut lane_devices: Vec<Vec<Box<dyn Device>>> =
        (0..lanes).map(|_| (bench.devices)(&td)).collect();
    let mut sim = BatchSim::compile_with(
        &td,
        &CompileOptions {
            level,
            ..CompileOptions::default()
        },
        lanes,
    )
    .expect("benchmark designs fit the fast path");
    // Device-free designs (collatz is self-restarting) skip the whole
    // stimulus walk: at tight per-cycle budgets the empty LaneAccess loop
    // is measurable harness overhead, not engine time.
    let has_devices = lane_devices.iter().any(|d| !d.is_empty());
    let start = Instant::now();
    for cycle in 0..cycles {
        if has_devices {
            for (l, devices) in lane_devices.iter_mut().enumerate() {
                let mut access = LaneAccess::new(&mut sim, l);
                for d in devices.iter_mut() {
                    d.tick(cycle, &mut access);
                }
            }
        }
        sim.cycle().expect("benchmark designs execute cleanly");
    }
    RunStats {
        cycles,
        secs: start.elapsed().as_secs_f64(),
        rules_fired: (0..lanes).map(|l| sim.lane_fired(l)).sum(),
    }
}

/// The scale factor from the `CUTTLE_BENCH_SCALE` environment variable
/// (default 1.0) — lets CI and quick runs shrink every cycle budget.
pub fn scale() -> f64 {
    std::env::var("CUTTLE_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Applies [`scale`] to a cycle budget (keeping at least 1000 cycles).
pub fn scaled(cycles: u64) -> u64 {
    ((cycles as f64 * scale()) as u64).max(1000)
}

/// The commit the bench runs from: `git rev-parse HEAD` in the working
/// directory, suffixed `-dirty` when tracked files differ from it, or
/// `unknown` outside a checkout.
pub fn git_rev() -> String {
    let git = |args: &[&str]| std::process::Command::new("git").args(args).output().ok();
    let rev = git(&["rev-parse", "HEAD"])
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok());
    let dirty = git(&["diff", "--quiet", "HEAD"]).is_some_and(|o| o.status.code() == Some(1));
    match rev {
        Some(rev) if dirty => format!("{}-dirty", rev.trim()),
        Some(rev) => rev.trim().to_string(),
        None => "unknown".to_string(),
    }
}

/// The provenance members every bench record starts with, as one line of
/// JSON object members: [`git_rev`], `host_cpus` (logical CPUs) and
/// `rustc`, the `--version` of the toolchain native dispatch builds with
/// (`KOIKA_RUSTC` or `rustc`; `null` without one).
pub fn record_fingerprint() -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = cuttlesim::native::rustc_version().map_or("null".to_string(), |v| format!("{v:?}"));
    let rev = git_rev();
    format!("\"git_rev\": \"{rev}\", \"host_cpus\": {cpus}, \"rustc\": {rustc}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuttlesim::Dispatch;

    fn o6(dispatch: Dispatch) -> EngineSpec {
        EngineSpec::Vm {
            level: OptLevel::max(),
            dispatch,
        }
    }

    #[test]
    fn all_benches_run_everywhere_briefly() {
        for bench in all_benches() {
            for spec in [
                EngineSpec::Interp,
                o6(Dispatch::Match),
                EngineSpec::Rtl(Scheme::Dynamic),
            ] {
                let stats = run_bench(&bench, spec, 500);
                assert_eq!(stats.cycles, 500, "{} on {spec}", bench.name);
                assert!(
                    stats.rules_fired > 0,
                    "{} on {spec}: no rules fired",
                    bench.name
                );
            }
        }
    }

    #[test]
    fn batched_fired_counts_match_scalar_times_lanes() {
        for bench in all_benches() {
            let scalar = run_bench(&bench, o6(Dispatch::Match), 300);
            let batched = run_bench_batched(&bench, OptLevel::max(), 300, 4);
            assert_eq!(
                batched.rules_fired,
                scalar.rules_fired * 4,
                "{}: identical lanes must fire identically",
                bench.name
            );
        }
    }

    #[test]
    fn fired_counts_agree_across_backends() {
        for bench in all_benches() {
            let mut counts = Vec::new();
            for spec in [
                EngineSpec::Interp,
                EngineSpec::Vm {
                    level: OptLevel::SplitRwSets,
                    dispatch: Dispatch::Match,
                },
                o6(Dispatch::Tac),
                EngineSpec::Rtl(Scheme::Dynamic),
            ] {
                counts.push(run_bench(&bench, spec, 300).rules_fired);
            }
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "{}: fired counts diverge across backends: {counts:?}",
                bench.name
            );
        }
    }
}
