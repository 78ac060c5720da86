//! `campaign-tac`: a seeded single-bit-flip campaign on `rv32i` running
//! primes, through `koika::fault::run_campaign_batched` with every member
//! a lane of one lock-step `BatchSim` on the tac dispatch and one worker
//! job. Lanes run in lock-step until their injection and then diverge, so
//! both the lock-step kernels and the divergence fallback run.

use crate::trace::{Sampler, Tracer};
use crate::{
    median, mix, quantile, sustained_rate, sustained_time, trace_overhead, traced_unit, unit_count,
    Options, RunResult, Size,
};
use cuttlesim::{BatchSim, CompileOptions, Dispatch, OptLevel, Program, Sim};
use koika::check::check;
use koika::device::{BatchBackend, Device, RegAccess, SimBackend};
use koika::fault::{
    draw_schedule, run_campaign_batched, CampaignConfig, FaultEngine, Outcome, ParallelFactories,
    ParallelOptions,
};
use koika::runner::RunnerConfig;
use koika::tir::{RegId, TDesign};
use koika_designs::harness::MEM_WORDS;
use koika_designs::memdev::MagicMemory;
use koika_designs::rv32;
use koika_riscv::programs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The injection schedules' seed. It is fixed: lanes leave lock-step at
/// their first non-masked injection, so a seeded schedule would make the
/// lock-step share (and with it the speed) vary from seed to seed by up to
/// 2x. The workload seed picks the program instead.
const SCHEDULE_SEED: u64 = 0xC0FFEE;

/// Consecutive commit-free cycles before a member counts as hung.
const STALL_CYCLES: u64 = 256;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("no thread panics while holding benchmark counters")
}

/// One timed memory tick in this many.
const TICK_SAMPLE: u32 = 16;

/// Counters the timing wrappers hand back when they are dropped.
struct Shared {
    /// When the current campaign first asked for a scalar engine (its
    /// golden run) and for a batch (its member chunk).
    golden_start: Option<Instant>,
    batch_start: Option<Instant>,
    memdev_golden: Sampler,
    memdev_chunk: Sampler,
    lockstep: u64,
    fallback: u64,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            golden_start: None,
            batch_start: None,
            memdev_golden: Sampler::new(TICK_SAMPLE),
            memdev_chunk: Sampler::new(TICK_SAMPLE),
            lockstep: 0,
            fallback: 0,
        }
    }
}

/// The magic memory with one tick in [`TICK_SAMPLE`] timed.
struct TimedMemory {
    mem: MagicMemory,
    sampler: Sampler,
    golden: bool,
    shared: Arc<Mutex<Shared>>,
}

impl Device for TimedMemory {
    fn tick(&mut self, cycle: u64, regs: &mut dyn RegAccess) {
        if self.sampler.due() {
            let t = Instant::now();
            self.mem.tick(cycle, regs);
            self.sampler.add(t);
        } else {
            self.mem.tick(cycle, regs);
        }
    }
}

impl Drop for TimedMemory {
    fn drop(&mut self) {
        if let Ok(mut s) = self.shared.lock() {
            let slot = if self.golden {
                &mut s.memdev_golden
            } else {
                &mut s.memdev_chunk
            };
            slot.merge(&self.sampler);
        }
    }
}

/// The batch the benchmark's factory returns when tracing: every `cycle`
/// is recorded as a `cuttlesim.batch.cycle` span.
struct TimedBatch {
    inner: BatchSim,
    tracer: Arc<Tracer>,
    shared: Arc<Mutex<Shared>>,
}

impl BatchBackend for TimedBatch {
    fn lanes(&self) -> usize {
        self.inner.lanes()
    }
    fn cycle_count(&self) -> u64 {
        BatchBackend::cycle_count(&self.inner)
    }
    fn cycle(&mut self) -> Result<(), String> {
        let t = Instant::now();
        let out = BatchBackend::cycle(&mut self.inner);
        self.tracer
            .record("cuttlesim.batch.cycle", t, Instant::now());
        out
    }
    fn lane_commits(&self, lane: usize) -> &[u32] {
        self.inner.lane_commits(lane)
    }
    fn lane_get64(&self, lane: usize, reg: RegId) -> u64 {
        self.inner.lane_get64(lane, reg)
    }
    fn lane_set64(&mut self, lane: usize, reg: RegId, value: u64) {
        self.inner.lane_set64(lane, reg, value)
    }
}

impl Drop for TimedBatch {
    fn drop(&mut self) {
        if let Ok(mut s) = self.shared.lock() {
            s.lockstep += self.inner.lockstep_rules();
            s.fallback += self.inner.fallback_rules();
        }
    }
}

fn compile_opts() -> CompileOptions {
    CompileOptions {
        level: OptLevel::max(),
        ..CompileOptions::default()
    }
}

/// One set-up: check, then compile the scalar and the batch engine and
/// select tac on both.
fn setup(tracer: &Tracer, lanes: usize) -> Result<(TDesign, Program), String> {
    let design = tracer.span("koika.design", rv32::rv32i);
    tracer.span("campaign.setup", || {
        let td = tracer
            .span("koika.check", || check(&design))
            .map_err(|e| format!("rv32i does not check: {e:?}"))?;
        let prog = tracer
            .span("cuttlesim.compile", || {
                cuttlesim::compile(&td, &compile_opts())
            })
            .map_err(|e| e.to_string())?;
        let mut sim = Sim::new(prog.clone());
        tracer.span("cuttlesim.tac.lower", || sim.set_dispatch(Dispatch::Tac));
        let mut batch = tracer
            .span("cuttlesim.compile", || {
                BatchSim::compile_with(&td, &compile_opts(), lanes)
            })
            .map_err(|e| e.to_string())?;
        tracer.span("cuttlesim.tac.lower", || batch.set_dispatch(Dispatch::Tac));
        Ok((td, prog))
    })
}

/// Runs the workload.
///
/// # Errors
///
/// The design failing to compile or the campaign failing to set up.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    let mut r = RunResult {
        consistent: true,
        ..RunResult::default()
    };
    let tracer = Arc::new(Tracer::new(opts.trace));
    let (members, cycles, setups_per_unit, samples) = match opts.size {
        Size::Full => (32, 2_000, 3, 2),
        Size::Tiny => (4, 300, 1, 1),
    };

    // Set-up is a few milliseconds, so it is timed many times: once here,
    // and `setups_per_unit` more times before each campaign, so that the
    // samples spread over the whole run and its host regimes.
    let mut setup_s = Vec::new();
    let mut timed_setup = || -> Result<(TDesign, Program), String> {
        let t = Instant::now();
        let out = setup(&tracer, members)?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok(out)
    };
    let (td, prog) = timed_setup()?;

    let limit = 300 + (mix(opts.seed, 4) % 200) as u32;
    let program = programs::primes(limit);
    let cfg = CampaignConfig {
        seed: SCHEDULE_SEED,
        members,
        cycles,
        max_injections: 1,
        stall_cycles: STALL_CYCLES,
    };
    let popts = ParallelOptions {
        runner: RunnerConfig {
            jobs: 1,
            ..RunnerConfig::default()
        },
        wall_budget: None,
    };
    let shared = Arc::new(Mutex::new(Shared::new()));
    let traced_now = AtomicBool::new(false);

    let make_sim = || -> Result<Box<dyn SimBackend>, String> {
        lock(&shared).golden_start.get_or_insert_with(Instant::now);
        let mut sim = Sim::new(prog.clone());
        sim.set_dispatch(Dispatch::Tac);
        Ok(Box::new(sim))
    };
    let make_devices = || -> Vec<Box<dyn Device>> {
        let mem = MagicMemory::new(&td, &["imem", "dmem"], &program, MEM_WORDS);
        if !traced_now.load(Ordering::Relaxed) {
            return vec![Box::new(mem)];
        }
        let golden = lock(&shared).batch_start.is_none();
        vec![Box::new(TimedMemory {
            mem,
            sampler: Sampler::new(TICK_SAMPLE),
            golden,
            shared: Arc::clone(&shared),
        })]
    };
    let make_batch = |lanes: usize| -> Result<Box<dyn BatchBackend>, String> {
        lock(&shared).batch_start.get_or_insert_with(Instant::now);
        let mut batch = BatchSim::new(prog.clone(), lanes);
        batch.set_dispatch(Dispatch::Tac);
        if !traced_now.load(Ordering::Relaxed) {
            return Ok(Box::new(batch));
        }
        Ok(Box::new(TimedBatch {
            inner: batch,
            tracer: Arc::clone(&tracer),
            shared: Arc::clone(&shared),
        }))
    };
    let env = ParallelFactories {
        td: &td,
        make_sim: &make_sim,
        make_devices: &make_devices,
    };

    // A unit is one campaign, about 0.35 s in the fast host regime and
    // 0.55 s in the slow one.
    let units = unit_count(opts, 0.45);
    let mut first: Option<Vec<Outcome>> = None;
    let mut counts = [0usize; 6];
    let mut rates = Vec::new();
    let mut unit_ms = Vec::new();
    let mut traced_rates = Vec::new();
    // Per traced campaign: wall time, golden run, and device ticks.
    let (mut campaign_s, mut golden_s) = (Vec::new(), Vec::new());
    let (mut memdev_s, mut memdev_chunk_s) = (Vec::new(), Vec::new());
    let (mut lockstep, mut fallback) = (0u64, 0u64);
    for unit in 0..units {
        for _ in 0..setups_per_unit {
            timed_setup()?;
        }
        let traced = traced_unit(opts, unit);
        traced_now.store(traced, Ordering::Relaxed);
        *lock(&shared) = Shared::new();
        let t = Instant::now();
        let run = || run_campaign_batched(&env, &make_batch, members, &cfg, &popts, None);
        let (report, _) = if traced {
            tracer.span("campaign", run)
        } else {
            run()
        }
        .map_err(|e| format!("campaign did not set up: {e}"))?;
        let secs = t.elapsed().as_secs_f64();
        let rate = (members as u64 * cycles) as f64 / secs;
        if traced {
            traced_rates.push(rate);
            let s = lock(&shared);
            let golden = match (s.golden_start, s.batch_start) {
                (Some(g), Some(b)) => b.duration_since(g).as_secs_f64(),
                _ => 0.0,
            };
            campaign_s.push(secs);
            golden_s.push(golden);
            memdev_s.push(s.memdev_golden.estimate_s() + s.memdev_chunk.estimate_s());
            memdev_chunk_s.push(s.memdev_chunk.estimate_s());
            lockstep += s.lockstep;
            fallback += s.fallback;
        } else {
            rates.push(rate);
            unit_ms.push(secs * 1e3);
        }

        let outcomes: Vec<Outcome> = report.members.iter().map(|m| m.outcome).collect();
        r.attempted += members as u64;
        r.failed += outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Panic | Outcome::Flaky))
            .count() as u64;
        counts = report.counts();
        match &first {
            None => first = Some(outcomes),
            Some(f) => r.consistent &= *f == outcomes,
        }
    }
    let outcomes = first.expect("at least one campaign ran");

    // Re-classify a seeded sample of members on the scalar path.
    let mut scalar_sim = || -> Box<dyn SimBackend> {
        let mut sim = Sim::new(prog.clone());
        sim.set_dispatch(Dispatch::Tac);
        Box::new(sim)
    };
    let mut scalar_devices = || -> Vec<Box<dyn Device>> {
        vec![Box::new(MagicMemory::new(
            &td,
            &["imem", "dmem"],
            &program,
            MEM_WORDS,
        ))]
    };
    let mut engine = FaultEngine {
        td: &td,
        make_sim: &mut scalar_sim,
        make_devices: &mut scalar_devices,
    };
    let golden = engine
        .golden(cycles, STALL_CYCLES)
        .map_err(|e| format!("scalar golden run failed: {e}"))?;
    for i in 0..samples {
        let index = (mix(opts.seed, 10 + i) % members as u64) as usize;
        let scalar = engine.classify_injections(
            &draw_schedule(&td, &cfg, index),
            cycles,
            STALL_CYCLES,
            &golden,
        );
        let mut batched = outcomes[index];
        if opts.corrupt && i == 0 {
            batched = if batched == Outcome::Masked {
                Outcome::Sdc
            } else {
                Outcome::Masked
            };
        }
        r.attempted += 1;
        if scalar != batched {
            r.failed += 1;
        }
    }

    r.set("throughput", sustained_rate(&rates));
    r.set("setup_s", sustained_time(&setup_s));
    r.note("setup_samples", setup_s.len().to_string());
    r.note("unit_rates", format!("{rates:.0?}"));
    r.set("latency.p50_ms", median(&unit_ms));
    r.set("latency.p99_ms", quantile(&unit_ms, 0.99));
    r.note("latency_samples", unit_ms.len().to_string());
    r.note("primes_limit", limit.to_string());
    r.note("members", members.to_string());
    r.note("cycles_per_member", cycles.to_string());
    for (name, n) in [
        "sim.campaign.masked",
        "sim.campaign.sdc",
        "sim.campaign.divergence",
        "sim.campaign.hang",
        "sim.campaign.panic",
        "sim.campaign.flaky",
    ]
    .into_iter()
    .zip(counts)
    {
        r.set(name, n as f64);
    }
    if opts.trace {
        r.set("koika.design_s", median(&tracer.self_times("koika.design")));
        r.set("koika.check_s", median(&tracer.self_times("koika.check")));
        r.set(
            "cuttlesim.compile_s",
            median(&tracer.self_per_unit("campaign.setup", "cuttlesim.compile")),
        );
        r.set(
            "cuttlesim.tac.lower_s",
            median(&tracer.self_per_unit("campaign.setup", "cuttlesim.tac.lower")),
        );
        r.set("koika.fault.golden_s", median(&golden_s));
        let batch_s = tracer.self_per_unit("campaign", "cuttlesim.batch.cycle");
        r.set("cuttlesim.batch.cycle_s", median(&batch_s));
        r.set("koika_designs.memdev.tick_s", median(&memdev_s));
        // The campaign's own work: its wall time less the golden run, the
        // batch engine and the members' device ticks.
        let harness: Vec<f64> = (0..campaign_s.len())
            .map(|i| (campaign_s[i] - golden_s[i] - batch_s[i] - memdev_chunk_s[i]).max(0.0))
            .collect();
        r.set("koika.fault.harness_s", median(&harness));
        r.set(
            "cuttlesim.batch.lockstep_ratio",
            lockstep as f64 / (lockstep + fallback).max(1) as f64,
        );
        r.set("trace.throughput", sustained_rate(&traced_rates));
        r.set(
            "trace.overhead_ratio",
            trace_overhead(&rates, &traced_rates),
        );
        r.note("spans", tracer.summary_json());
    }
    Ok(r)
}
