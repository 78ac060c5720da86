//! `core-native`: one `rv32i` core at the top optimization level on the
//! compiled native dispatch runs `primes(L)` to its halt, repeated from
//! reset. Set-up is a cold native build, timed in child processes because
//! the native module caches loaded engines per process: a second build in
//! the same process would be a no-op.

use crate::trace::{Sampler, Tracer};
use crate::{
    median, mix, quantile, sustained_rate, sustained_time, trace_overhead, traced_unit, unit_count,
    Options, RunResult, Size,
};
use cuttlesim::{CompileOptions, Dispatch, OptLevel, Sim};
use koika::check::check;
use koika::device::{Device, RegAccess, SimBackend};
use koika_designs::harness::{assert_matches_golden, golden_run, run_until_retired, MEM_WORDS};
use koika_designs::memdev::MagicMemory;
use koika_designs::rv32;
use koika_riscv::programs;
use koika_server::json::Json;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// The primes limit for a seed: large enough that one run to the halt
/// takes a few hundred milliseconds natively, and varied little enough
/// that the time per run stays comparable across seeds.
pub fn limit_for(seed: u64, size: Size) -> u32 {
    let base = match size {
        Size::Full => 1200,
        Size::Tiny => 40,
    };
    base + (mix(seed, 1) % 8) as u32
}

fn compile_opts() -> CompileOptions {
    CompileOptions {
        level: OptLevel::max(),
        ..CompileOptions::default()
    }
}

/// The child side of a cold build: builds the design, checks and compiles
/// it, and selects the native dispatch on the cache directory named by
/// `KOIKA_NATIVE_CACHE`. Returns one JSON line of phase times in seconds.
///
/// # Errors
///
/// Any phase failing (no toolchain, a rustc error).
pub fn child_build(trace: bool) -> Result<String, String> {
    let t0 = Instant::now();
    let design = rv32::rv32i();
    let t1 = Instant::now();
    let td = check(&design).map_err(|e| format!("rv32i does not check: {e:?}"))?;
    let t2 = Instant::now();
    let mut sim = Sim::compile_with(&td, &compile_opts()).map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    // The emit probe runs outside the set-up total: it lowers and emits
    // without building, so the build below still starts cold.
    let emit_s = if trace {
        let t = Instant::now();
        cuttlesim::native::cache_path_for(sim.program()).map_err(|e| e.to_string())?;
        t.elapsed().as_secs_f64()
    } else {
        0.0
    };
    let t4 = Instant::now();
    sim.try_set_dispatch(Dispatch::Native)
        .map_err(|e| e.to_string())?;
    let t5 = Instant::now();
    let s = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    Ok(format!(
        "{{\"design_s\": {}, \"check_s\": {}, \"compile_s\": {}, \"emit_s\": {emit_s}, \
         \"build_s\": {}, \"setup_s\": {}}}",
        s(t0, t1),
        s(t1, t2),
        s(t2, t3),
        s(t4, t5),
        s(t0, t3) + s(t4, t5),
    ))
}

/// Runs one child build on `cache`; returns its phase times by name.
fn spawn_build(opts: &Options, cache: &Path) -> Result<BTreeMap<String, f64>, String> {
    let out = Command::new(&opts.exe)
        .args([
            "--child-native-build",
            "--trace",
            if opts.trace { "1" } else { "0" },
        ])
        .env("KOIKA_NATIVE_CACHE", cache)
        .output()
        .map_err(|e| format!("cannot start build child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "build child failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    let Json::Obj(fields) =
        Json::parse(line).map_err(|e| format!("build child said {line:?}: {e}"))?
    else {
        return Err(format!("build child said {line:?}"));
    };
    Ok(fields
        .into_iter()
        .filter_map(|(k, v)| match v {
            Json::Int(i) => Some((k, i as f64)),
            Json::Num(f) => Some((k, f)),
            _ => None,
        })
        .collect())
}

/// The simulated statistics of one run to the halt; identical for every
/// repetition of one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RepStats {
    cycles: u64,
    retired: u64,
    fired: u64,
    failed: u64,
}

/// Runs the workload.
///
/// # Errors
///
/// No toolchain, or a build child failing.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    if !cuttlesim::toolchain_available() {
        return Err("core-native needs rustc on PATH (or KOIKA_RUSTC)".into());
    }
    let mut r = RunResult::default();
    let cold_builds = match opts.size {
        Size::Full => 7,
        Size::Tiny => 1,
    };

    // Set-up: cold builds, each in a fresh process on an empty cache. The
    // last one builds into the cache this process then loads from.
    let main_cache = opts.work.join("native");
    let mut build_times: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for k in 0..cold_builds {
        let dir = if k + 1 == cold_builds {
            main_cache.clone()
        } else {
            opts.work.join(format!("native-cold-{k}"))
        };
        let times = spawn_build(opts, &dir)?;
        for (name, v) in times {
            build_times.entry(name).or_default().push(v);
        }
        if dir != main_cache {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let phase = |name: &str| build_times.get(name).map_or(0.0, |v| median(v));
    r.set(
        "setup_s",
        build_times
            .get("setup_s")
            .map_or(0.0, |v| sustained_time(v)),
    );
    r.note(
        "setup_samples",
        build_times.get("setup_s").map_or(0, Vec::len).to_string(),
    );
    if opts.trace {
        r.set("koika.design_s", phase("design_s"));
        r.set("koika.check_s", phase("check_s"));
        r.set("cuttlesim.compile_s", phase("compile_s"));
        r.set("cuttlesim.native.emit_s", phase("emit_s"));
        r.set("cuttlesim.native.build_s", phase("build_s"));
        // The same call on a warm cache: emit, cache hit, dlopen.
        let mut loads = Vec::new();
        for _ in 0..3 {
            loads.push(
                spawn_build(opts, &main_cache)?
                    .get("build_s")
                    .copied()
                    .unwrap_or(0.0),
            );
        }
        r.set("cuttlesim.native.load_s", median(&loads));
    }

    // The measured engine, loaded from the warm cache (the binary points
    // this process's `KOIKA_NATIVE_CACHE` at `main_cache`).
    let td = check(&rv32::rv32i()).map_err(|e| format!("rv32i does not check: {e:?}"))?;
    let mut sim = Sim::compile_with(&td, &compile_opts()).map_err(|e| e.to_string())?;
    sim.try_set_dispatch(Dispatch::Native)
        .map_err(|e| e.to_string())?;
    if opts.trace {
        let so = cuttlesim::native::cache_path_for(sim.program()).map_err(|e| e.to_string())?;
        let bytes = std::fs::metadata(&so).map_or(0, |m| m.len());
        r.set("cuttlesim.native.so_bytes", bytes as f64);
    }

    let limit = limit_for(opts.seed, opts.size);
    let program = programs::primes(limit);
    let golden = golden_run(&program, 200_000_000);
    let expected = programs::primes_expected(limit) + u32::from(opts.corrupt);
    let max_cycles = golden.retired * 50 + 10_000;
    let retired_reg = td.reg_id("retired");
    let reset = sim.save_state();
    r.note("primes_limit", limit.to_string());

    // A unit is one run to the halt, about 0.09 s in the fast host regime
    // and 0.15 s in the slow one.
    let reps = unit_count(opts, 0.125);
    let mut vm = Sampler::new(64);
    let mut memdev = Sampler::new(64);
    let mut stats: Vec<RepStats> = Vec::new();
    let mut rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut rep_ms = Vec::new();
    let (mut vm_s, mut memdev_s) = (Vec::new(), Vec::new());
    let tracer = Tracer::new(opts.trace);
    for rep in 0..reps {
        let traced = traced_unit(opts, rep);
        sim.restore_state(&reset);
        let mut mem = MagicMemory::new(&td, &["imem", "dmem"], &program, MEM_WORDS);
        let t = Instant::now();
        let cycles = if traced {
            vm.reset();
            memdev.reset();
            let mut cycles = 0;
            tracer.span("core.rep", || {
                while cycles < max_cycles && sim.get64(retired_reg) < golden.retired {
                    if memdev.due() {
                        let t = Instant::now();
                        mem.tick(cycles, &mut sim);
                        memdev.add(t);
                    } else {
                        mem.tick(cycles, &mut sim);
                    }
                    if vm.due() {
                        let t = Instant::now();
                        sim.cycle();
                        vm.add(t);
                    } else {
                        sim.cycle();
                    }
                    cycles += 1;
                }
            });
            vm_s.push(vm.estimate_s());
            memdev_s.push(memdev.estimate_s());
            cycles
        } else {
            run_until_retired(&mut sim, &mut mem, &td, "", golden.retired, max_cycles).cycles
        };
        let secs = t.elapsed().as_secs_f64();
        if traced {
            traced_rates.push(cycles as f64 / secs);
        } else {
            rates.push(cycles as f64 / secs);
            rep_ms.push(secs * 1e3);
        }

        r.attempted += 1;
        let retired = sim.get64(retired_reg);
        let golden_ok = catch_unwind(AssertUnwindSafe(|| {
            assert_matches_golden(&mut sim, &mem, &td, "", 32, &golden)
        }))
        .is_ok();
        let word_ok = mem.word(programs::RESULT_ADDR) == expected;
        if retired < golden.retired || !golden_ok || !word_ok {
            r.failed += 1;
        }
        stats.push(RepStats {
            cycles,
            retired,
            fired: sim.fired_per_rule().iter().sum(),
            failed: sim.fails_per_rule().iter().sum(),
        });
    }

    r.consistent = stats.windows(2).all(|w| w[0] == w[1]);
    r.set("throughput", sustained_rate(&rates));
    r.note("unit_rates", format!("{rates:.0?}"));
    r.set("latency.p50_ms", median(&rep_ms));
    r.set("latency.p99_ms", quantile(&rep_ms, 0.99));
    r.note("latency_samples", rep_ms.len().to_string());
    let s = stats[0];
    r.set("sim.cycles_to_halt", s.cycles as f64);
    r.set("sim.retired", s.retired as f64);
    r.set("sim.ipc", s.retired as f64 / s.cycles.max(1) as f64);
    r.set("cuttlesim.rules_fired", s.fired as f64);
    r.set("cuttlesim.rules_failed", s.failed as f64);
    r.set(
        "cuttlesim.commit_ratio",
        s.fired as f64 / (s.fired + s.failed).max(1) as f64,
    );
    if opts.trace {
        r.set("cuttlesim.vm.cycle_s", median(&vm_s));
        r.set("koika_designs.memdev.tick_s", median(&memdev_s));
        r.set("trace.throughput", sustained_rate(&traced_rates));
        r.set(
            "trace.overhead_ratio",
            trace_overhead(&rates, &traced_rates),
        );
        r.note("spans", tracer.summary_json());
    }
    Ok(r)
}
