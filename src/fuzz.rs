//! Differential fuzzing as a first-class mode: random designs run through
//! every backend, with mismatches, panics, and hangs triaged into
//! deduplicated crash buckets and shrunk to minimal reproducers.
//!
//! Each fuzz *case* is a pure function of `(master seed, case index)`:
//! a [`koika::testgen::random_design`] is generated, type-checked, and run
//! for a fixed cycle budget on the reference interpreter; the per-cycle
//! register-state digests form the reference trace. Every other backend —
//! the Cuttlesim VM at all six optimization levels and the RTL pipeline
//! under both schemes — is then run over the same design; all except
//! `rtl-static` are compared cycle-by-cycle (the static-conflict scheme
//! intentionally schedules more conservatively than the reference
//! semantics, so it is exercised for crashes and compile errors only).
//! Any divergence, compile error, or panic becomes a [`Finding`].
//!
//! Findings dedup into [`Bucket`]s keyed by the *normalized* failure
//! message (digit runs collapsed, so two out-of-bounds panics at different
//! indices coincide) plus the design's [`shape_fingerprint`] — two seeds
//! whose designs share a register/rule shape and fail the same way are
//! almost certainly the same root cause. Each bucket's first reproducer is
//! shrunk by binary search to the smallest cycle budget that still
//! exhibits the finding, and can be persisted to a corpus directory in the
//! `koika-fuzz v1` text format; [`replay_corpus_dir`] re-runs checked-in
//! reproducers as a regression suite.
//!
//! Cases are executed through [`koika::runner`], so a backend that panics
//! mid-cycle poisons only its own case, and `--jobs N` fans cases over a
//! worker pool while keeping the report byte-identical to a sequential
//! run (outcomes are pure functions of the seed; wall-clock never enters
//! classification unless a wall budget is explicitly configured).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cuttlesim::{BatchSim, CompileOptions, Dispatch, OptLevel};
use koika::check::check;
use koika::device::{RegAccess, SimBackend};
use koika::runner::{self, contain, JobError, JobUpdate, RunnerConfig, RunnerStats};
use koika::testgen::{random_design, shape_fingerprint, SplitMix64};
use koika::tir::{RegId, TDesign};
use koika_rtl::Scheme;

use crate::engine::{EngineError, EngineSpec};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Configuration for a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; case `i` derives its own seed from `(seed, i)`.
    pub seed: u64,
    /// Number of cases to run.
    pub cases: usize,
    /// Cycle budget per case per backend.
    pub cycles: u64,
    /// Worker pool / retry configuration.
    pub runner: RunnerConfig,
    /// Optional wall-clock budget per case. `None` (the default) keeps
    /// classification machine-independent; when set, a case that exceeds
    /// it is retried and, if it keeps tripping, triaged as a hang.
    pub wall_budget: Option<Duration>,
    /// Batched-engine lanes for the tac VM rows: `0` runs them as scalar
    /// [`Sim`](cuttlesim::Sim)s (the historical path), `n >= 1` runs each
    /// tac row as one [`BatchSim`] (the micro-op lock-step engine) whose
    /// lane 0 uses the declared initial values (so its findings are
    /// labeled identically to the scalar path) and whose lanes `1..n` use
    /// seed-derived perturbed initial register values, each compared
    /// against its own reference-interpreter run — deliberately forcing
    /// control-flow divergence inside the batch. Match and native rows
    /// have no batched engine of their own and run as scalar
    /// [`Sim`](cuttlesim::Sim)s at any `n`, exactly like the RTL rows, so
    /// a batched run still exercises every dispatcher.
    pub batch: usize,
    /// Which VM dispatch engines to include in the matrix: `None` (the
    /// default) compares every level under *all* dispatchers — direct
    /// bytecode match, the register-form micro-op engine, and the
    /// compiled-native backend — while `Some(d)` restricts
    /// the VM axis to dispatcher `d` (labels stay distinct, so buckets
    /// never alias across dispatchers). The native dispatcher needs a
    /// `rustc` at run time; when none is available it is excluded from the
    /// matrix (callers should report the exclusion loudly — see
    /// [`cuttlesim::toolchain_available`]).
    pub dispatch: Option<Dispatch>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            cases: 16,
            cycles: 96,
            runner: RunnerConfig::default(),
            wall_budget: None,
            batch: 0,
            dispatch: None,
        }
    }
}

/// The per-case seed: a pure function of the master seed and case index.
pub fn case_seed(master: u64, index: usize) -> u64 {
    SplitMix64::new(master.wrapping_add(index as u64)).next_u64()
}

/// What went wrong on one backend of one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FindingKind {
    /// The backend's trace diverged from the reference interpreter at
    /// this cycle (0-based).
    Mismatch {
        /// First divergent cycle.
        cycle: u64,
    },
    /// The backend panicked (compile or run).
    Panic {
        /// The contained panic message.
        message: String,
    },
    /// The backend refused the design with a (non-panic) compile error.
    Build {
        /// The error rendering.
        message: String,
    },
    /// The whole case exceeded its wall budget even after retries.
    Hang {
        /// The last watchdog/retry message.
        message: String,
    },
}

impl FindingKind {
    fn class(&self) -> &'static str {
        match self {
            FindingKind::Mismatch { .. } => "mismatch",
            FindingKind::Panic { .. } => "panic",
            FindingKind::Build { .. } => "build",
            FindingKind::Hang { .. } => "hang",
        }
    }

    fn message(&self) -> String {
        match self {
            FindingKind::Mismatch { cycle } => format!("first divergence at cycle {cycle}"),
            FindingKind::Panic { message }
            | FindingKind::Build { message }
            | FindingKind::Hang { message } => message.clone(),
        }
    }
}

/// One triaged failure on one backend of one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The engine's [`EngineSpec`] label (`interp`, `O4`, `O4-tac`,
    /// `rtl-static`, ...), suffixed `/laneN` on a perturbed batched lane;
    /// or `check`, `testgen` or `case` for a failure outside any engine.
    pub backend: String,
    /// Failure class and payload.
    pub kind: FindingKind,
}

impl Finding {
    /// The deduplication key: class, backend, and normalized message
    /// (digit runs collapsed to `#` so unstable indices/addresses don't
    /// split buckets).
    pub fn key(&self) -> String {
        let norm = match &self.kind {
            // The divergence cycle is part of the *reproducer*, not the
            // root cause; mismatches on the same backend bucket together.
            FindingKind::Mismatch { .. } => String::new(),
            k => normalize_message(&k.message()),
        };
        format!("{}:{}:{}", self.kind.class(), self.backend, norm)
    }
}

/// Collapses digit runs to `#` and truncates, so panic messages that
/// differ only in indices, widths, or addresses share a bucket key.
fn normalize_message(msg: &str) -> String {
    let mut out = String::with_capacity(msg.len().min(120));
    let mut in_digits = false;
    for c in msg.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('#');
                in_digits = true;
            }
        } else {
            in_digits = false;
            out.push(if c == '\n' { ' ' } else { c });
        }
        if out.len() >= 120 {
            break;
        }
    }
    out
}

/// The outcome of running one case on every backend.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The derived per-case seed.
    pub seed: u64,
    /// Shape fingerprint of the generated design (0 if generation or
    /// checking itself failed).
    pub shape: u64,
    /// All findings; empty means every backend agreed for every cycle.
    pub findings: Vec<Finding>,
}

/// A deduplicated group of equivalent findings, with a shrunk reproducer.
#[derive(Debug, Clone)]
pub struct Bucket {
    /// The dedup key (see [`Finding::key`], suffixed with the shape
    /// fingerprint).
    pub key: String,
    /// Backend the finding occurred on.
    pub backend: String,
    /// Failure class (`mismatch`/`panic`/`build`/`hang`).
    pub class: String,
    /// Shape fingerprint shared by the bucketed designs.
    pub shape: u64,
    /// Seeds of every case that hit this bucket, in case order.
    pub seeds: Vec<u64>,
    /// Representative message from the first occurrence.
    pub message: String,
    /// Minimal reproducer: seed of the first occurrence plus the
    /// smallest cycle budget that still exhibits the finding.
    pub repro_seed: u64,
    /// Shrunk cycle budget for the reproducer.
    pub repro_cycles: u64,
}

/// The full result of a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The configuration's master seed.
    pub seed: u64,
    /// Cases executed.
    pub cases: usize,
    /// Cycle budget per case.
    pub cycles: u64,
    /// Cases with no findings at all.
    pub clean: usize,
    /// Deduplicated buckets, ordered by key.
    pub buckets: Vec<Bucket>,
}

impl FuzzReport {
    /// A stable, human- and machine-readable summary. Byte-identical for
    /// a given `(seed, cases, cycles)` regardless of worker count.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fuzz seed 0x{:x} cases {} cycles {}",
            self.seed, self.cases, self.cycles
        );
        let _ = writeln!(s, "clean   {:>6}", self.clean);
        let _ = writeln!(s, "buckets {:>6}", self.buckets.len());
        for b in &self.buckets {
            let _ = writeln!(s, "bucket {}", b.key);
            let _ = writeln!(s, "  class   {}", b.class);
            let _ = writeln!(s, "  backend {}", b.backend);
            let _ = writeln!(s, "  shape   0x{:016x}", b.shape);
            let _ = writeln!(s, "  hits    {}", b.seeds.len());
            let _ = writeln!(s, "  message {}", b.message);
            let _ = writeln!(
                s,
                "  repro   seed 0x{:x} cycles {}",
                b.repro_seed, b.repro_cycles
            );
        }
        s
    }
}

/// The comparison matrix: every engine a case is compared on, beyond the
/// reference interpreter, in [`EngineSpec::all`] order. The VM rows are
/// restricted to the requested dispatcher (`None` = all three). Native
/// dispatch is included only when `native` says a `rustc` toolchain is
/// available: every case would otherwise triage as a spurious native
/// finding. Callers that were explicitly asked for native check the
/// toolchain themselves and skip loudly.
pub(crate) fn matrix(dispatch: Option<Dispatch>, native: bool) -> Vec<EngineSpec> {
    let compared = |spec: &EngineSpec| match *spec {
        EngineSpec::Interp => false,
        EngineSpec::Vm { dispatch: d, .. } => {
            (d != Dispatch::Native || native) && dispatch.is_none_or(|want| want == d)
        }
        EngineSpec::Rtl(_) => true,
    };
    EngineSpec::all().filter(compared).collect()
}

/// Whether an engine's trace is compared against the reference
/// interpreter. The Bluespec-style static-conflict scheme does not
/// promise cycle-exact agreement — its conservative conflict matrix may
/// block rules the dynamic semantics would fire — so it is run (panics
/// and compile errors still triage) but its trace is not compared.
fn compares_traces(spec: EngineSpec) -> bool {
    spec != EngineSpec::Rtl(Scheme::Static)
}

/// Builds `spec` for `td` and runs it for `cycles` cycles under panic
/// containment, comparing its trace against `reference`. A dispatch that
/// cannot be selected triages as a panic, the class it has always had.
fn scalar_finding(td: &TDesign, spec: EngineSpec, cycles: u64, reference: &[u64]) -> Option<Finding> {
    let run = contain(|| spec.prepare(td).map(|e| state_trace(td, e.make().as_mut(), cycles)));
    let kind = match run {
        Ok(Ok(_)) if !compares_traces(spec) => return None,
        Ok(Ok(trace)) => FindingKind::Mismatch {
            cycle: reference.iter().zip(&trace).position(|(a, b)| a != b)? as u64,
        },
        Ok(Err(e @ EngineError::Dispatch(..))) => FindingKind::Panic {
            message: e.to_string(),
        },
        Ok(Err(e)) => FindingKind::Build {
            message: e.to_string(),
        },
        Err(message) => FindingKind::Panic { message },
    };
    Some(Finding {
        backend: spec.to_string(),
        kind,
    })
}

/// Runs a simulator for `cycles` cycles, digesting the full register file
/// after each cycle. The digest stream is what backends are compared on.
fn state_trace(td: &TDesign, sim: &mut dyn SimBackend, cycles: u64) -> Vec<u64> {
    let mut trace = Vec::with_capacity(cycles as usize);
    for _ in 0..cycles {
        sim.cycle();
        let mut h = FNV_OFFSET;
        for i in 0..td.regs.len() {
            let v = sim.as_reg_access().get64(RegId(i as u32));
            h = (h ^ v).wrapping_mul(FNV_PRIME);
        }
        trace.push(h);
    }
    trace
}

/// Runs one case: generates the design for `seed`, takes the reference
/// trace on the interpreter, and compares every other backend against it.
/// All backend work runs under panic containment, so a poisoned design
/// that makes one backend panic mid-cycle produces a [`Finding`], not an
/// abort.
pub fn run_case(seed: u64, cycles: u64) -> CaseResult {
    run_case_with(seed, cycles, 0, None)
}

/// [`run_case`] with the VM axis restricted to one dispatcher
/// (`None` = all three; see [`FuzzConfig::dispatch`]).
pub fn run_case_dispatch(seed: u64, cycles: u64, dispatch: Option<Dispatch>) -> CaseResult {
    run_case_with(seed, cycles, 0, dispatch)
}

/// Generates and type-checks the design for one case, recording a finding
/// and returning `None` when generation or checking itself fails.
fn case_design(seed: u64, findings: &mut Vec<Finding>) -> Option<(TDesign, u64)> {
    match contain(|| check(&random_design(seed)).map_err(|e| e.to_string())) {
        Ok(Ok(td)) => {
            let shape = shape_fingerprint(&td);
            Some((td, shape))
        }
        Ok(Err(e)) => {
            findings.push(Finding {
                backend: "check".to_string(),
                kind: FindingKind::Build { message: e },
            });
            None
        }
        Err(msg) => {
            findings.push(Finding {
                backend: "testgen".to_string(),
                kind: FindingKind::Panic { message: msg },
            });
            None
        }
    }
}

/// Overwrites every register of lane `lane` with a seed-derived random
/// value (lane 0 keeps the declared reset values). The same derivation
/// seeds both the batched lanes and their reference-interpreter runs, so
/// the two always start from identical state.
fn perturb_regs(td: &TDesign, seed: u64, lane: usize, set: &mut dyn FnMut(RegId, u64)) {
    if lane == 0 {
        return;
    }
    let mut rng = SplitMix64::new(seed ^ (lane as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    for r in 0..td.regs.len() {
        set(RegId(r as u32), rng.next_u64());
    }
}

/// Backend label for a batched-lane finding: lane 0 keeps the scalar
/// label so `batch == 1` reports are byte-identical to scalar reports;
/// perturbed lanes get a `/laneN` suffix (no `@`, which would collide
/// with the bucket-key shape separator).
pub(crate) fn lane_label(spec: EngineSpec, lane: usize) -> String {
    if lane == 0 {
        spec.to_string()
    } else {
        format!("{spec}/lane{lane}")
    }
}

/// Compiles one VM level as a batched engine and returns one state-digest
/// trace per lane. `Err((true, _))` is a compile refusal, `Err((false, _))`
/// a runtime engine error (miscompiled bytecode trap).
fn batched_traces(
    td: &TDesign,
    level: OptLevel,
    seed: u64,
    cycles: u64,
    lanes: usize,
) -> Result<Vec<Vec<u64>>, (bool, String)> {
    let mut sim = BatchSim::compile_with(
        td,
        &CompileOptions {
            level,
            ..CompileOptions::default()
        },
        lanes,
    )
    .map_err(|e| (true, e.to_string()))?;
    for l in 1..lanes {
        perturb_regs(td, seed, l, &mut |r, v| sim.lane_set64(l, r, v));
    }
    let mut traces = vec![Vec::with_capacity(cycles as usize); lanes];
    for _ in 0..cycles {
        sim.cycle().map_err(|e| (false, e.to_string()))?;
        for (l, t) in traces.iter_mut().enumerate() {
            let mut h = FNV_OFFSET;
            for r in 0..td.regs.len() {
                h = (h ^ sim.lane_get64(l, RegId(r as u32))).wrapping_mul(FNV_PRIME);
            }
            t.push(h);
        }
    }
    Ok(traces)
}

/// Runs one case with the tac VM rows executed as *batched* lock-step
/// engines over `lanes` instances (see [`FuzzConfig::batch`]): lane 0
/// replays the scalar comparison against the declared reset state, lanes
/// `1..` start from perturbed register values, and every lane is compared
/// cycle-by-cycle against its own reference-interpreter run. The match,
/// native and RTL backends run exactly as in [`run_case`].
pub fn run_case_batched(
    seed: u64,
    cycles: u64,
    lanes: usize,
    dispatch: Option<Dispatch>,
) -> CaseResult {
    run_case_with(seed, cycles, lanes.max(1), dispatch)
}

/// Runs one case with the engine the configuration selects: the tac VM
/// rows as scalar simulators when `batch == 0`, as `batch`-lane lock-step
/// engines otherwise ([`run_case_batched`]).
pub fn run_case_with(
    seed: u64,
    cycles: u64,
    batch: usize,
    dispatch: Option<Dispatch>,
) -> CaseResult {
    let mut findings = Vec::new();

    let Some((td, shape)) = case_design(seed, &mut findings) else {
        return CaseResult {
            seed,
            shape: 0,
            findings,
        };
    };

    // One reference trace per lane; a scalar case has one lane.
    let refs = match contain(|| {
        (0..batch.max(1))
            .map(|l| {
                let mut sim = koika::Interp::new(&td);
                perturb_regs(&td, seed, l, &mut |r, v| sim.set64(r, v));
                state_trace(&td, &mut sim, cycles)
            })
            .collect::<Vec<_>>()
    }) {
        Ok(r) => r,
        Err(msg) => {
            findings.push(Finding {
                backend: "interp".to_string(),
                kind: FindingKind::Panic { message: msg },
            });
            return CaseResult {
                seed,
                shape,
                findings,
            };
        }
    };

    for spec in matrix(dispatch, cuttlesim::toolchain_available()) {
        let level = match spec {
            EngineSpec::Vm {
                level,
                dispatch: Dispatch::Tac,
            } if batch > 0 => level,
            _ => {
                findings.extend(scalar_finding(&td, spec, cycles, &refs[0]));
                continue;
            }
        };
        match contain(|| batched_traces(&td, level, seed, cycles, batch)) {
            Ok(Ok(traces)) => {
                for (l, trace) in traces.iter().enumerate() {
                    if let Some(cycle) = refs[l].iter().zip(trace).position(|(a, b)| a != b) {
                        findings.push(Finding {
                            backend: lane_label(spec, l),
                            kind: FindingKind::Mismatch {
                                cycle: cycle as u64,
                            },
                        });
                    }
                }
            }
            Ok(Err((is_build, message))) => findings.push(Finding {
                backend: spec.to_string(),
                kind: if is_build {
                    FindingKind::Build { message }
                } else {
                    FindingKind::Panic { message }
                },
            }),
            Err(message) => findings.push(Finding {
                backend: spec.to_string(),
                kind: FindingKind::Panic { message },
            }),
        }
    }

    CaseResult {
        seed,
        shape,
        findings,
    }
}

/// A concrete first point of disagreement between the reference
/// interpreter and one backend on a fuzz case — the raw material for
/// `--debug-on-divergence`, which drops a debugger exactly here.
pub struct Divergence {
    /// The case seed.
    pub seed: u64,
    /// The diverging engine's [`EngineSpec`] label (`O4-tac`,
    /// `rtl-static`, ...), which parses back to the spec that rebuilds it.
    pub backend: String,
    /// 0-based index of the first cycle whose post-cycle register state
    /// differs (the state at cycle boundary `cycle + 1`).
    pub cycle: u64,
    /// The interpreter's full register file after that cycle.
    pub interp_regs: Vec<u64>,
    /// The diverging backend's full register file after that cycle.
    pub backend_regs: Vec<u64>,
    /// The generated design, so callers can attach a debugger without
    /// re-deriving it from the seed.
    pub td: TDesign,
}

/// Re-runs the case for `seed`, comparing every backend's full register
/// file against the reference interpreter cycle by cycle — including
/// `rtl-static`, whose conservative static-conflict scheduling the
/// normal fuzz loop deliberately exempts from trace comparison. Returns
/// the first divergence of the first diverging backend (backends in
/// the fuzz matrix's order), or `None` when every backend agrees for the
/// whole budget.
///
/// # Errors
///
/// Design generation/type-check failures and backend compile errors.
pub fn scan_divergence(seed: u64, cycles: u64) -> Result<Option<Divergence>, String> {
    let td = check(&random_design(seed)).map_err(|e| e.to_string())?;
    let nregs = td.regs.len();
    let regs_of = |sim: &mut dyn SimBackend| -> Vec<u64> {
        (0..nregs)
            .map(|i| sim.as_reg_access().get64(RegId(i as u32)))
            .collect()
    };
    let mut interp = koika::Interp::new(&td);
    let mut reference = Vec::with_capacity(cycles as usize);
    for _ in 0..cycles {
        interp.cycle();
        reference.push(regs_of(&mut interp));
    }
    for spec in matrix(None, cuttlesim::toolchain_available()) {
        let mut sim = spec.prepare(&td).map_err(|e| e.to_string())?.make();
        for (c, want) in reference.iter().enumerate() {
            sim.cycle();
            let got = regs_of(sim.as_mut());
            if &got != want {
                return Ok(Some(Divergence {
                    seed,
                    backend: spec.to_string(),
                    cycle: c as u64,
                    interp_regs: want.clone(),
                    backend_regs: got,
                    td,
                }));
            }
        }
    }
    Ok(None)
}

/// Shrinks a reproducer: the smallest cycle budget in `[1, cycles]` at
/// which `run_case(seed, n)` still yields a finding with the same key.
/// Findings are monotone in the cycle budget (traces are prefixes of each
/// other and panics happen at a fixed cycle), so binary search applies.
fn shrink_cycles(seed: u64, cycles: u64, key: &str, batch: usize, dispatch: Option<Dispatch>) -> u64 {
    let reproduces = |n: u64| -> bool {
        run_case_with(seed, n, batch, dispatch)
            .findings
            .iter()
            .any(|f| f.key() == key)
    };
    // Compile-time findings reproduce with zero cycles.
    if reproduces(0) {
        return 0;
    }
    let (mut lo, mut hi) = (1u64, cycles);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reproduces(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Runs the whole fuzz campaign through the parallel runner and triages
/// the results. `progress` (if any) receives per-job updates, suitable
/// for stderr reporting.
pub fn run_fuzz(
    cfg: &FuzzConfig,
    progress: Option<&mut dyn FnMut(JobUpdate)>,
) -> (FuzzReport, RunnerStats) {
    let (reports, stats) = runner::run_jobs(
        cfg.cases,
        &cfg.runner,
        |i| {
            let seed = case_seed(cfg.seed, i);
            let started = Instant::now();
            let result = run_case_with(seed, cfg.cycles, cfg.batch, cfg.dispatch);
            if let Some(budget) = cfg.wall_budget {
                let spent = started.elapsed();
                if spent > budget {
                    return Err(JobError::Transient(format!(
                        "case 0x{seed:x} exceeded wall budget ({spent:?} > {budget:?})"
                    )));
                }
            }
            Ok(result)
        },
        progress,
    );

    // Triage. Reports come back in case order, so bucket contents (and
    // therefore the summary) are independent of the worker count.
    let mut clean = 0usize;
    let mut buckets: BTreeMap<String, Bucket> = BTreeMap::new();
    for (i, report) in reports.iter().enumerate() {
        let case = match &report.result {
            Ok(case) => case.clone(),
            Err(err) => {
                // The runner gave up on the whole case: a wall-budget
                // trip that survived retries (hang) or a panic in the
                // harness itself outside `contain` (panic).
                let kind = match err {
                    JobError::Transient(m) => FindingKind::Hang { message: m.clone() },
                    JobError::Panic(m) | JobError::Fatal(m) => {
                        FindingKind::Panic { message: m.clone() }
                    }
                };
                CaseResult {
                    seed: case_seed(cfg.seed, i),
                    shape: 0,
                    findings: vec![Finding {
                        backend: "case".to_string(),
                        kind,
                    }],
                }
            }
        };
        if case.findings.is_empty() {
            clean += 1;
            continue;
        }
        for f in &case.findings {
            let key = format!("{}@{:016x}", f.key(), case.shape);
            let entry = buckets.entry(key.clone()).or_insert_with(|| Bucket {
                key,
                backend: f.backend.clone(),
                class: f.kind.class().to_string(),
                shape: case.shape,
                seeds: Vec::new(),
                message: f.kind.message(),
                repro_seed: case.seed,
                repro_cycles: cfg.cycles,
            });
            entry.seeds.push(case.seed);
        }
    }

    // Shrink each bucket's first reproducer. Hang buckets are wall-clock
    // artifacts — re-running them is expensive and non-deterministic, so
    // they keep the full budget.
    for bucket in buckets.values_mut() {
        if bucket.class != "hang" {
            let finding_key = bucket
                .key
                .rsplit_once('@')
                .map(|(k, _)| k.to_string())
                .unwrap_or_else(|| bucket.key.clone());
            bucket.repro_cycles =
                shrink_cycles(bucket.repro_seed, cfg.cycles, &finding_key, cfg.batch, cfg.dispatch);
        }
    }

    let report = FuzzReport {
        seed: cfg.seed,
        cases: cfg.cases,
        cycles: cfg.cycles,
        clean,
        buckets: buckets.into_values().collect(),
    };
    (report, stats)
}

/// What a corpus entry asserts when replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expectation {
    /// All backends must agree for the full cycle budget (a regression
    /// test for a formerly-failing seed, or a pinned known-good seed).
    Agree,
    /// A finding whose key starts with this prefix must still reproduce
    /// (a tracked open bug).
    Finding(String),
}

/// A parsed `koika-fuzz v1` corpus entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// The case seed.
    pub seed: u64,
    /// Cycle budget to replay with.
    pub cycles: u64,
    /// What replay asserts.
    pub expect: Expectation,
}

const CORPUS_MAGIC: &str = "koika-fuzz v1";

impl CorpusEntry {
    /// Renders the entry in the `koika-fuzz v1` text format.
    pub fn to_text(&self, comment: &str) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{CORPUS_MAGIC}");
        if !comment.is_empty() {
            for line in comment.lines() {
                let _ = writeln!(s, "# {line}");
            }
        }
        let _ = writeln!(s, "seed 0x{:x}", self.seed);
        let _ = writeln!(s, "cycles {}", self.cycles);
        match &self.expect {
            Expectation::Agree => {
                let _ = writeln!(s, "expect agree");
            }
            Expectation::Finding(prefix) => {
                let _ = writeln!(s, "expect finding {prefix}");
            }
        }
        s
    }

    /// Parses the `koika-fuzz v1` text format.
    pub fn from_text(text: &str) -> Result<CorpusEntry, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(l) if l.trim() == CORPUS_MAGIC => {}
            other => {
                return Err(format!(
                    "bad corpus header: expected {CORPUS_MAGIC:?}, got {other:?}"
                ))
            }
        }
        let mut seed = None;
        let mut cycles = None;
        let mut expect = None;
        for line in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (kw, rest) = line.split_once(' ').unwrap_or((line, ""));
            match kw {
                "seed" => {
                    let rest = rest.trim();
                    let v = rest
                        .strip_prefix("0x")
                        .map(|h| u64::from_str_radix(h, 16))
                        .unwrap_or_else(|| rest.parse());
                    seed = Some(v.map_err(|e| format!("bad seed {rest:?}: {e}"))?);
                }
                "cycles" => {
                    cycles = Some(
                        rest.trim()
                            .parse()
                            .map_err(|e| format!("bad cycles {rest:?}: {e}"))?,
                    );
                }
                "expect" => {
                    let rest = rest.trim();
                    expect = Some(if rest == "agree" {
                        Expectation::Agree
                    } else if let Some(prefix) = rest.strip_prefix("finding ") {
                        Expectation::Finding(prefix.trim().to_string())
                    } else {
                        return Err(format!("bad expect line: {rest:?}"));
                    });
                }
                other => return Err(format!("unknown corpus keyword {other:?}")),
            }
        }
        Ok(CorpusEntry {
            seed: seed.ok_or("missing seed line")?,
            cycles: cycles.ok_or("missing cycles line")?,
            expect: expect.ok_or("missing expect line")?,
        })
    }

    /// Replays the entry and checks its expectation.
    pub fn replay(&self) -> Result<(), String> {
        let case = run_case(self.seed, self.cycles);
        match &self.expect {
            Expectation::Agree => {
                if case.findings.is_empty() {
                    Ok(())
                } else {
                    let keys: Vec<String> = case.findings.iter().map(|f| f.key()).collect();
                    Err(format!(
                        "expected all backends to agree, found: {}",
                        keys.join(", ")
                    ))
                }
            }
            Expectation::Finding(prefix) => {
                if case.findings.iter().any(|f| f.key().starts_with(prefix)) {
                    Ok(())
                } else if case.findings.is_empty() {
                    Err(format!(
                        "expected a finding with key prefix {prefix:?}, but all backends agree \
                         (bug fixed? flip this entry to `expect agree`)"
                    ))
                } else {
                    let keys: Vec<String> = case.findings.iter().map(|f| f.key()).collect();
                    Err(format!(
                        "expected a finding with key prefix {prefix:?}, found only: {}",
                        keys.join(", ")
                    ))
                }
            }
        }
    }
}

/// Writes one corpus file per bucket into `dir` (created if missing).
/// Returns the written paths, in bucket order.
pub fn write_corpus(dir: &Path, report: &FuzzReport) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::new();
    for bucket in &report.buckets {
        let mut h = FNV_OFFSET;
        for b in bucket.key.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(FNV_PRIME);
        }
        let path = dir.join(format!("bucket-{:08x}.fuzz", h as u32));
        let finding_key = bucket
            .key
            .rsplit_once('@')
            .map(|(k, _)| k.to_string())
            .unwrap_or_else(|| bucket.key.clone());
        let entry = CorpusEntry {
            seed: bucket.repro_seed,
            cycles: bucket.repro_cycles.max(1),
            expect: Expectation::Finding(finding_key),
        };
        let comment = format!(
            "backend {}  class {}  hits {}\n{}",
            bucket.backend,
            bucket.class,
            bucket.seeds.len(),
            bucket.message
        );
        std::fs::write(&path, entry.to_text(&comment))?;
        paths.push(path);
    }
    Ok(paths)
}

/// Replays every `*.fuzz` file in `dir`, in path order. Returns one
/// `(path, result)` pair per entry; unreadable or unparseable files count
/// as failures.
pub fn replay_corpus_dir(dir: &Path) -> io::Result<Vec<(PathBuf, Result<(), String>)>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "fuzz"))
        .collect();
    paths.sort();
    let mut results = Vec::new();
    for path in paths {
        let outcome = std::fs::read_to_string(&path)
            .map_err(|e| format!("read error: {e}"))
            .and_then(|text| CorpusEntry::from_text(&text))
            .and_then(|entry| entry.replay());
        results.push((path, outcome));
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_seeds_produce_no_findings() {
        // Generated designs are contraption-free, so all backends agree.
        for i in 0..4 {
            let case = run_case(case_seed(0xF00D, i), 48);
            let keys: Vec<String> = case.findings.iter().map(|f| f.key()).collect();
            assert!(keys.is_empty(), "case {i}: unexpected findings {keys:?}");
        }
    }

    #[test]
    fn fuzz_report_is_independent_of_worker_count() {
        let mk = |jobs| FuzzConfig {
            seed: 0xBEEF,
            cases: 6,
            cycles: 24,
            runner: RunnerConfig::with_jobs(jobs),
            wall_budget: None,
            batch: 0,
            dispatch: None,
        };
        let (seq, _) = run_fuzz(&mk(1), None);
        let (par, _) = run_fuzz(&mk(4), None);
        assert_eq!(seq.summary(), par.summary());
    }

    #[test]
    fn batched_case_with_one_lane_matches_scalar() {
        for i in 0..3 {
            let seed = case_seed(0xF00D, i);
            let scalar = run_case(seed, 32);
            let batched = run_case_batched(seed, 32, 1, None);
            assert_eq!(scalar.shape, batched.shape, "case {i}");
            assert_eq!(scalar.findings, batched.findings, "case {i}");
        }
    }

    #[test]
    fn batched_lanes_with_perturbed_inits_stay_clean() {
        // Every lane — including the perturbed ones that force divergence
        // fallback inside the batch — must agree with its own
        // reference-interpreter run at every VM level.
        for i in 0..2 {
            let case = run_case_batched(case_seed(0xF00D, i), 32, 4, None);
            let keys: Vec<String> = case.findings.iter().map(|f| f.key()).collect();
            assert!(keys.is_empty(), "case {i}: unexpected findings {keys:?}");
        }
    }

    #[test]
    fn batched_fuzz_report_matches_scalar_at_one_lane() {
        let mk = |batch| FuzzConfig {
            seed: 0xF00D,
            cases: 4,
            cycles: 24,
            runner: RunnerConfig::default(),
            wall_budget: None,
            batch,
            dispatch: None,
        };
        let (scalar, _) = run_fuzz(&mk(0), None);
        let (batched, _) = run_fuzz(&mk(1), None);
        assert_eq!(scalar.summary(), batched.summary());
    }

    #[test]
    fn corpus_entry_round_trips() {
        let entry = CorpusEntry {
            seed: 0xDEAD_BEEF,
            cycles: 17,
            expect: Expectation::Finding("panic:O3:".to_string()),
        };
        let text = entry.to_text("a known bug");
        assert_eq!(CorpusEntry::from_text(&text).unwrap(), entry);

        let agree = CorpusEntry {
            seed: 3,
            cycles: 8,
            expect: Expectation::Agree,
        };
        assert_eq!(
            CorpusEntry::from_text(&agree.to_text("")).unwrap(),
            agree
        );
    }

    #[test]
    fn corpus_parse_rejects_garbage() {
        assert!(CorpusEntry::from_text("not a corpus file").is_err());
        assert!(CorpusEntry::from_text("koika-fuzz v1\nseed 0x1\ncycles 4").is_err());
        assert!(
            CorpusEntry::from_text("koika-fuzz v1\nseed zzz\ncycles 4\nexpect agree").is_err()
        );
    }

    #[test]
    fn message_normalization_collapses_digits() {
        assert_eq!(
            normalize_message("index out of bounds: the len is 12 but the index is 99"),
            "index out of bounds: the len is # but the index is #"
        );
    }

    #[test]
    fn agree_entry_replays_clean() {
        let entry = CorpusEntry {
            seed: case_seed(0xF00D, 0),
            cycles: 32,
            expect: Expectation::Agree,
        };
        entry.replay().expect("pinned seed should stay clean");
    }
}
