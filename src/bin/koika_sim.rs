//! `koika-sim`: command-line driver for the bundled designs — simulate on
//! any backend, dump waveforms, profile, trace, emit C++/Verilog, run
//! fault-injection campaigns (optionally in parallel), differentially fuzz
//! all backends against each other, snapshot/restore simulator state, or
//! debug interactively with time travel (`--debug`).
//!
//! ```text
//! Usage: koika-sim <design> [options]
//!        koika-sim --fuzz <N> [--seed S] [--jobs J] [--corpus-dir DIR]
//!        koika-sim --replay-corpus <DIR>
//!        koika-sim --serve <ADDR> [--jobs J] [--max-sessions N]
//!
//! Designs:
//!   collatz | fir | fft | rv32i | rv32e | rv32i-bp | rv32i-bypass |
//!   rv32i-x0bug | msi | msi-buggy
//!
//! Options:
//!   --backend <interp|cuttlesim|rtl|rtl-static>   (default cuttlesim)
//!   --level <1..6>      Cuttlesim optimization level  (default 6)
//!   --dispatch <match|tac|native>  Cuttlesim dispatch engine
//!                       (default match; native compiles to a cdylib via rustc)
//!   --native-cache <DIR>  cache directory for native-dispatch artifacts
//!   --cycles <N>        cycles to run        (default 10000; 96 under --fuzz)
//!   --program <primes:N|nops:N|branchy:N>  core workload (default primes:100)
//!   --vcd <FILE>        record all registers to a VCD file
//!   --profile           print a per-rule work profile (cuttlesim backend)
//!   --trace <N>         print the last N cycles of rule activity
//!   --emit <cpp|cpp-header|verilog>  print generated code and exit
//!   --metrics-json <FILE>  write a JSON metrics snapshot (per-rule counts)
//!   --perfetto <FILE>   write a Chrome-trace/Perfetto rule timeline
//!   --watch <REG>       print a line when REG changes (repeatable)
//!   --inject <spec|seed>  flip bits: cycle:reg:bit spec, or a PRNG seed
//!   --campaign <N>      run an N-member fault-injection campaign
//!   --fuzz <N>          run N differential-fuzz cases over all backends
//!   --batch <N>         with --campaign/--fuzz: run N members or inits as
//!                       lanes of one lock-step SoA batch on the micro-op
//!                       engine (cuttlesim backend; --dispatch tac only)
//!   --jobs <J>          worker threads for --campaign/--fuzz (default 1)
//!   --retries <K>       retries for wall-budget trips (default 2)
//!   --corpus-dir <DIR>  persist shrunk fuzz reproducers to DIR
//!   --replay-corpus <DIR>  re-run every *.fuzz reproducer in DIR
//!   --seed <N>          campaign / fuzz / seeded-injection PRNG seed
//!   --max-injections <N>  upsets per campaign member (default 3)
//!   --record <FILE>     write failing campaign members to a replay log
//!   --replay <FILE>     re-run a replay log's members; shrink reproducers
//!   --snapshot-every <K>  write a state snapshot every K cycles
//!   --snapshot-prefix <P> snapshot file prefix (default "<design>-")
//!   --restore <FILE>    restore simulator state from a snapshot first
//!   --max-cycles <N>    watchdog: abort after N total cycles (exit 3)
//!   --stall-cycles <N>  watchdog: abort after N commit-free cycles (exit 3)
//!   --max-wall-ms <N>   watchdog: abort after N ms of wall-clock (exit 3)
//!   --debug             attach the interactive time-travel debugger (kdb)
//!   --debug-script <FILE>  run a kdb command script, print the transcript
//!   --debug-on-divergence  with --fuzz/--replay-corpus: attach kdb at the
//!                       first divergent cycle of the first diverging case
//!   --serve <ADDR>      run the multi-tenant simulation session server
//!   --max-sessions <N>  with --serve: admission-control bound (default 16384)
//!   --help              print this help and exit
//! ```
//!
//! Campaign and fuzz progress goes to **stderr**; stdout carries only the
//! machine-parseable report, which is byte-identical for a given seed
//! regardless of `--jobs`.

use cuttlesim::{codegen_cpp, BatchSim, CompileOptions, Dispatch, OptLevel, ProfileReport, RuleTrace, Sim};
use cuttlesim_repro::fuzz;
use koika::check::check;
use koika::debug::{DebugOptions, ScalarTarget};
use koika::design::Design;
use koika::device::{BatchBackend, Device, SimBackend};
use koika::fault::{
    classify, draw_schedule, replay_campaign, run_campaign_batched, run_campaign_parallel,
    run_watchdogged, CampaignConfig, CommitFingerprint, FaultEngine, Injection, ParallelFactories,
    ParallelOptions, ReplayLog, Watchdog, WatchdogTrip,
};
use koika::obs::{Fanout, Metrics, Observer, PerfettoTrace, RegWatch};
use koika::runner::{JobUpdate, RunnerConfig, RunnerStats};
use koika::snapshot::Snapshot;
use koika::tir::{RegId, TDesign};
use koika::vcd::VcdRecorder;
use koika_designs::harness::MEM_WORDS;
use koika_designs::memdev::MagicMemory;
use koika_designs::{msi, rv32, small};
use koika_riscv::programs;
use koika_rtl::{compile as rtl_compile, verilog, RtlSim, Scheme};
use koika_server::{DesignProvider, ServerConfig};
use std::io::{BufRead, Read};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    design: String,
    backend: String,
    level: u32,
    dispatch: Option<String>,
    native_cache: Option<String>,
    cycles: Option<u64>,
    program: String,
    vcd: Option<String>,
    profile: bool,
    trace: Option<u64>,
    emit: Option<String>,
    metrics_json: Option<String>,
    perfetto: Option<String>,
    watch: Vec<String>,
    inject: Option<String>,
    campaign: Option<usize>,
    fuzz: Option<usize>,
    batch: Option<usize>,
    jobs: usize,
    retries: u32,
    corpus_dir: Option<String>,
    replay_corpus: Option<String>,
    seed: u64,
    max_injections: u32,
    record: Option<String>,
    replay: Option<String>,
    snapshot_every: Option<u64>,
    snapshot_prefix: Option<String>,
    restore: Option<String>,
    max_cycles: Option<u64>,
    stall_cycles: Option<u64>,
    max_wall_ms: Option<u64>,
    debug: bool,
    debug_script: Option<String>,
    debug_on_divergence: bool,
    serve: Option<String>,
    max_sessions: Option<usize>,
    state_dir: Option<String>,
}

impl Args {
    /// The effective cycle budget for design runs (fuzz has its own,
    /// smaller default — see `run_fuzz_mode`).
    fn run_cycles(&self) -> u64 {
        self.cycles.unwrap_or(10_000)
    }

    /// Whether either debugger entry point (`--debug` / `--debug-script`)
    /// was requested.
    fn debug_requested(&self) -> bool {
        self.debug || self.debug_script.is_some()
    }

    /// The `--dispatch` request, if one was given.
    fn requested_dispatch(&self) -> Result<Option<Dispatch>, CliError> {
        self.dispatch
            .as_deref()
            .map(|name| {
                Dispatch::from_name(name).ok_or_else(|| {
                    CliError::usage(format!(
                        "bad --dispatch {name:?}: expected match, tac, or native"
                    ))
                })
            })
            .transpose()
    }

    /// Worker-pool shape shared by `--campaign` and `--fuzz`.
    fn runner_config(&self) -> RunnerConfig {
        RunnerConfig {
            jobs: self.jobs,
            max_retries: self.retries,
            seed: self.seed,
            ..RunnerConfig::default()
        }
    }
}

const HELP: &str = "\
Usage: koika-sim <design> [options]
       koika-sim --fuzz <N> [--seed S] [--jobs J] [--corpus-dir DIR]
       koika-sim --replay-corpus <DIR>
       koika-sim --serve <ADDR> [--jobs J] [--max-sessions N]

Designs:
  collatz | fir | fft | rv32i | rv32e | rv32i-bp | rv32i-bypass |
  rv32i-x0bug | msi | msi-buggy

Options:
  --backend <interp|cuttlesim|rtl|rtl-static>   (default cuttlesim)
  --level <1..6>      Cuttlesim optimization level  (default 6)
  --dispatch <match|tac|native>  Cuttlesim instruction dispatch:
                      direct bytecode match, the register-form micro-op
                      engine, or ahead-of-time compiled Rust loaded as a
                      shared library (requires a rustc toolchain; see
                      --native-cache)  (default match). --batch runs
                      the micro-op lock-step engine only, so any other
                      --dispatch with --batch is a usage error
  --native-cache <DIR>  cache directory for native-dispatch generated
                      sources and shared libraries (default
                      $KOIKA_NATIVE_CACHE or <tmp>/koika-native-cache);
                      artifacts are keyed by design fingerprint, so a
                      changed design never reuses a stale library
  --cycles <N>        cycles to run       (default 10000; 96 under --fuzz)
  --program <primes:N|nops:N|branchy:N>  core workload (default primes:100)
  --vcd <FILE>        record all registers to a VCD file
  --profile           print a per-rule work profile (cuttlesim backend)
  --trace <N>         print the last N cycles of rule activity
  --emit <cpp|cpp-header|verilog>  print generated code and exit
  --metrics-json <FILE>  write a JSON metrics snapshot (per-rule fired/failed
                         counts, histograms, cycles/sec)
  --perfetto <FILE>   write a Chrome-trace/Perfetto timeline (one track per
                      rule; open in chrome://tracing or ui.perfetto.dev)
  --watch <REG>       print a line whenever REG changes (repeatable)

Time-travel debugging:
  --debug             attach the interactive debugger (kdb): breakpoints on
                      rule commit/abort and cycle numbers, watchpoints on
                      register change or value, step / continue / run-to,
                      reverse-step / reverse-continue (checkpoints plus
                      deterministic re-execution), dump-vcd and snapshot at
                      the paused cycle; identical on every backend
  --debug-script <FILE>  run a kdb command script non-interactively and
                      print the echoed transcript (byte-identical across
                      backends for the same design and script)
  --debug-on-divergence  with --fuzz or --replay-corpus: re-run the first
                      diverging case, print both register files side by
                      side, and attach kdb to the diverging backend at the
                      first cycle whose post-state differs from the
                      reference interpreter

Fault injection, snapshots & replay:
  --inject <spec|seed>  single-run injection: a cycle:reg:bit spec (e.g.
                        12:pc:3, repeatable), or a bare integer treated as a
                        PRNG seed drawing a schedule; the run is classified
                        against a fault-free golden run
  --campaign <N>      run an N-member seeded SEU campaign and print the
                      masked/sdc/divergence/hang/panic/flaky classification
  --seed <N>          campaign / fuzz / seeded-injection PRNG seed
                      (default 0xC0FFEE)

Parallel execution & differential fuzzing:
  --fuzz <N>          run N differential-fuzz cases: random designs compared
                      cycle-by-cycle across the reference interpreter, all
                      six VM levels, and both RTL schemes; mismatches,
                      panics, and hangs are triaged into deduplicated
                      buckets with shrunk reproducers (exit 1 on findings)
  --batch <N>         with --campaign or --fuzz only: run N design
                      instances as lanes of one lock-step SoA batch
                      (cuttlesim backend only). With --campaign: members
                      run as lanes, one batch per worker job; with --fuzz:
                      each VM level's tac row runs batched, lane 0 on
                      declared inits and lanes 1..N on perturbed inits
                      (match and native rows stay scalar). Reports stay
                      byte-identical to the scalar path at any N. The
                      batch always runs the micro-op lock-step engine;
                      --dispatch match or native is rejected
  --jobs <J>          worker threads for --campaign/--fuzz (default 1);
                      the report is byte-identical at any J
  --retries <K>       retries granted to wall-budget trips before they are
                      classified flaky (default 2)
  --corpus-dir <DIR>  with --fuzz: persist one koika-fuzz v1 reproducer
                      file per bucket into DIR
  --replay-corpus <DIR>  re-run every *.fuzz reproducer in DIR and check
                      its recorded expectation (exit 1 on failure)
  --max-injections <N>  upsets per campaign member (default 3)
  --record <FILE>     with --campaign: write failing members to a replay log
  --replay <FILE>     re-run a replay log's members, verify each outcome
                      reproduces, and shrink to single-injection reproducers
  --snapshot-every <K>  write <prefix><cycle>.ksnap every K cycles
  --snapshot-prefix <P> snapshot file prefix (default \"<design>-\")
  --restore <FILE>    restore simulator state from a .ksnap snapshot first
  --max-cycles <N>    watchdog: abort after N total cycles (exit 3)
  --stall-cycles <N>  watchdog: abort after N consecutive commit-free
                      cycles with a JSON state dump (exit 3)
  --max-wall-ms <N>   watchdog: abort after N ms of wall-clock (exit 3)

Simulation server:
  --serve <ADDR>      serve the bundled designs as a multi-tenant session
                      server on ADDR (use port 0 to pick a free port; the
                      bound address is printed as \"serving on HOST:PORT\").
                      Clients speak line-oriented JSON: create / step /
                      inject / snapshot / restore / query-regs /
                      stream-trace / evict / close / metrics / ping /
                      shutdown. Composes with --jobs, --retries, --seed,
                      --max-sessions, --state-dir, and the watchdog budget
                      flags (which
                      become the default per-session budgets); one-shot
                      run flags are rejected
  --max-sessions <N>  with --serve: admission-control bound on resident
                      sessions (default 16384); `create` beyond it gets a
                      busy reply
  --state-dir <DIR>   with --serve: durable crash recovery. Every
                      state-mutating op is write-ahead journaled into DIR
                      before it executes; restarting with the same DIR
                      (even after kill -9) rebuilds the session table
                      byte-identically by replaying the journals. Clients
                      may tag mutating ops with \"req_id\" for idempotent
                      re-submission
  --help              print this help and exit
";

/// All user-facing failures funnel through this one error type: `Usage`
/// exits 2, `Runtime` exits 1, `Watchdog` exits 3. Nothing on a
/// user-reachable path panics.
enum CliError {
    Usage(String),
    Runtime(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }

    fn runtime(msg: impl Into<String>) -> CliError {
        CliError::Runtime(msg.into())
    }
}

fn usage_hint() -> &'static str {
    "try: koika-sim --help"
}

fn parse_args() -> Result<Args, Result<ExitCode, CliError>> {
    let mut argv = std::env::args().skip(1).peekable();
    // The design positional is optional: `--fuzz` and `--replay-corpus`
    // generate or load their own designs.
    let design = match argv.peek() {
        Some(first) if !first.starts_with('-') => argv.next().unwrap_or_default(),
        _ => String::new(),
    };
    let mut args = Args {
        design,
        backend: "cuttlesim".into(),
        level: 6,
        dispatch: None,
        native_cache: None,
        cycles: None,
        program: "primes:100".into(),
        vcd: None,
        profile: false,
        trace: None,
        emit: None,
        metrics_json: None,
        perfetto: None,
        watch: Vec::new(),
        inject: None,
        campaign: None,
        fuzz: None,
        batch: None,
        jobs: 1,
        retries: 2,
        corpus_dir: None,
        replay_corpus: None,
        seed: 0xC0FFEE,
        max_injections: 3,
        record: None,
        replay: None,
        snapshot_every: None,
        snapshot_prefix: None,
        restore: None,
        max_cycles: None,
        stall_cycles: None,
        max_wall_ms: None,
        debug: false,
        debug_script: None,
        debug_on_divergence: false,
        serve: None,
        max_sessions: None,
        state_dir: None,
    };
    fn parsed<T: std::str::FromStr>(name: &str, v: String) -> Result<T, Result<ExitCode, CliError>> {
        v.parse()
            .map_err(|_| Err(CliError::usage(format!("bad value {v:?} for {name}"))))
    }
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| Err(CliError::usage(format!("missing value for {name}"))))
        };
        match flag.as_str() {
            "--backend" => args.backend = value("--backend")?,
            "--level" => args.level = parsed("--level", value("--level")?)?,
            "--dispatch" => args.dispatch = Some(value("--dispatch")?),
            "--native-cache" => args.native_cache = Some(value("--native-cache")?),
            "--cycles" => args.cycles = Some(parsed("--cycles", value("--cycles")?)?),
            "--program" => args.program = value("--program")?,
            "--vcd" => args.vcd = Some(value("--vcd")?),
            "--profile" => args.profile = true,
            "--trace" => args.trace = Some(parsed("--trace", value("--trace")?)?),
            "--emit" => args.emit = Some(value("--emit")?),
            "--metrics-json" => args.metrics_json = Some(value("--metrics-json")?),
            "--perfetto" => args.perfetto = Some(value("--perfetto")?),
            "--watch" => args.watch.push(value("--watch")?),
            "--inject" => args.inject = Some(value("--inject")?),
            "--campaign" => args.campaign = Some(parsed("--campaign", value("--campaign")?)?),
            "--fuzz" => args.fuzz = Some(parsed("--fuzz", value("--fuzz")?)?),
            "--batch" => args.batch = Some(parsed("--batch", value("--batch")?)?),
            "--jobs" => args.jobs = parsed("--jobs", value("--jobs")?)?,
            "--retries" => args.retries = parsed("--retries", value("--retries")?)?,
            "--corpus-dir" => args.corpus_dir = Some(value("--corpus-dir")?),
            "--replay-corpus" => args.replay_corpus = Some(value("--replay-corpus")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16)
                        .map_err(|_| Err(CliError::usage(format!("bad value {v:?} for --seed"))))?,
                    None => parsed("--seed", v)?,
                };
            }
            "--max-injections" => {
                args.max_injections = parsed("--max-injections", value("--max-injections")?)?;
            }
            "--record" => args.record = Some(value("--record")?),
            "--replay" => args.replay = Some(value("--replay")?),
            "--snapshot-every" => {
                args.snapshot_every = Some(parsed("--snapshot-every", value("--snapshot-every")?)?);
            }
            "--snapshot-prefix" => args.snapshot_prefix = Some(value("--snapshot-prefix")?),
            "--restore" => args.restore = Some(value("--restore")?),
            "--max-cycles" => args.max_cycles = Some(parsed("--max-cycles", value("--max-cycles")?)?),
            "--stall-cycles" => {
                args.stall_cycles = Some(parsed("--stall-cycles", value("--stall-cycles")?)?);
            }
            "--max-wall-ms" => {
                args.max_wall_ms = Some(parsed("--max-wall-ms", value("--max-wall-ms")?)?);
            }
            "--debug" => args.debug = true,
            "--debug-script" => args.debug_script = Some(value("--debug-script")?),
            "--debug-on-divergence" => args.debug_on_divergence = true,
            "--serve" => args.serve = Some(value("--serve")?),
            "--max-sessions" => {
                args.max_sessions = Some(parsed("--max-sessions", value("--max-sessions")?)?);
            }
            "--state-dir" => args.state_dir = Some(value("--state-dir")?),
            "--help" | "-h" => {
                print!("{HELP}");
                return Err(Ok(ExitCode::SUCCESS));
            }
            other => return Err(Err(CliError::usage(format!("unknown option {other}")))),
        }
    }
    Ok(args)
}

fn design_by_name(name: &str) -> Option<Design> {
    Some(match name {
        "collatz" => small::collatz(),
        "fir" => small::fir(),
        "fft" => small::fft(),
        "rv32i" => rv32::rv32i(),
        "rv32e" => rv32::rv32e(),
        "rv32i-bp" => rv32::rv32i_bp(),
        "rv32i-bypass" => rv32::rv32i_bypass(),
        "rv32i-x0bug" => rv32::rv32i_x0bug(),
        "msi" => msi::msi_system(),
        "msi-buggy" => msi::msi_system_buggy(),
        _ => return None,
    })
}

fn workload(spec: &str) -> Option<Vec<u32>> {
    let (kind, n) = spec.split_once(':')?;
    let n: u32 = n.parse().ok()?;
    Some(match kind {
        "primes" => programs::primes(n),
        "nops" => programs::nops(n as usize),
        "branchy" => programs::branchy(n),
        _ => return None,
    })
}

/// Everything `validate` resolves up front so the run phases can't hit a
/// bad-input error (or a panic) halfway through.
struct Plan {
    td: TDesign,
    level: OptLevel,
    dispatch: Dispatch,
    program: Option<Vec<u32>>,
    injections: Vec<Injection>,
    watch: Vec<(koika::RegId, String)>,
    snapshot_prefix: String,
    stall_cycles: u64,
}

/// `--batch` runs the micro-op lock-step engine only, so an explicit
/// `--dispatch` other than `tac` would be silently ignored. Checked before
/// the toolchain probe, so the combination is a usage error on every host.
fn reject_batched_dispatch(args: &Args) -> Result<(), CliError> {
    match args.requested_dispatch()? {
        Some(d) if args.batch.is_some() && d != Dispatch::Tac => {
            let name = d.short_name();
            Err(CliError::usage(format!(
                "--batch cannot be combined with --dispatch {name}: a batch runs the \
                 micro-op lock-step engine (--dispatch tac) only; drop --batch to run \
                 scalar {name} (with --jobs for campaigns and fuzz)"
            )))
        }
        _ => Ok(()),
    }
}

/// Validates flag *combinations* and cross-references against the design —
/// the single place a bad invocation is rejected, before any simulator is
/// built.
fn validate(args: &Args) -> Result<Plan, CliError> {
    let design = design_by_name(&args.design)
        .ok_or_else(|| CliError::usage(format!("unknown design {:?}", args.design)))?;
    let td = check(&design).map_err(|e| CliError::runtime(format!("design error: {e}")))?;

    match args.backend.as_str() {
        "interp" | "cuttlesim" | "rtl" | "rtl-static" => {}
        other => return Err(CliError::usage(format!("unknown backend {other:?}"))),
    }
    let level = OptLevel::from_number(args.level)
        .ok_or_else(|| CliError::usage(format!("bad --level {}: expected 1..6", args.level)))?;
    reject_batched_dispatch(args)?;
    let dispatch = args.requested_dispatch()?.unwrap_or_default();
    if dispatch == Dispatch::Native && !cuttlesim::toolchain_available() {
        return Err(CliError::usage(
            "--dispatch native requires a rustc toolchain, and none was found \
             (install rustc or point KOIKA_RUSTC at one); the match and tac \
             dispatchers work without a toolchain",
        ));
    }
    if dispatch != Dispatch::Match && args.backend != "cuttlesim" {
        return Err(CliError::usage(format!(
            "--dispatch {} requires the cuttlesim backend (got {:?})",
            dispatch.short_name(),
            args.backend
        )));
    }
    if let Some(what) = &args.emit {
        if !matches!(what.as_str(), "cpp" | "cpp-header" | "verilog") {
            return Err(CliError::usage(format!(
                "bad --emit {what:?}: expected cpp, cpp-header, or verilog"
            )));
        }
    }

    // Mutually exclusive run modes, rejected together so the user sees the
    // conflict rather than one mode silently winning.
    let modes: Vec<&str> = [
        args.emit.as_ref().map(|_| "--emit"),
        args.campaign.map(|_| "--campaign"),
        args.replay.as_ref().map(|_| "--replay"),
    ]
    .into_iter()
    .flatten()
    .collect();
    if modes.len() > 1 {
        return Err(CliError::usage(format!(
            "conflicting modes: {} cannot be combined",
            modes.join(" and ")
        )));
    }
    if args.record.is_some() && args.campaign.is_none() {
        return Err(CliError::usage("--record requires --campaign"));
    }
    if args.jobs == 0 {
        return Err(CliError::usage("--jobs must be at least 1"));
    }
    if args.batch.is_some() {
        // Identical lanes would each repeat the scalar run, so a batch is
        // only ever built from lanes that differ: campaign members or
        // perturbed fuzz inits.
        if args.campaign.is_none() {
            return Err(CliError::usage("--batch requires --campaign or --fuzz"));
        }
        if args.backend != "cuttlesim" {
            return Err(CliError::usage(format!(
                "--batch requires the cuttlesim backend (got {:?})",
                args.backend
            )));
        }
    }
    if args.debug_requested() {
        if args.debug && args.debug_script.is_some() {
            return Err(CliError::usage(
                "--debug and --debug-script cannot be combined",
            ));
        }
        // The debugger owns the run loop: observability sinks, injections,
        // and the snapshot/waveform writers of a normal run would either
        // see nothing or fight the time-travel replays. The debugger's own
        // `dump-vcd` / `snapshot` / `info rules` commands replace them.
        let conflicts: Vec<&str> = [
            args.emit.as_ref().map(|_| "--emit"),
            args.campaign.map(|_| "--campaign"),
            args.replay.as_ref().map(|_| "--replay"),
            args.inject.as_ref().map(|_| "--inject"),
            args.trace.map(|_| "--trace"),
            args.profile.then_some("--profile"),
            args.vcd.as_ref().map(|_| "--vcd"),
            args.snapshot_every.map(|_| "--snapshot-every"),
            args.metrics_json.as_ref().map(|_| "--metrics-json"),
            args.perfetto.as_ref().map(|_| "--perfetto"),
            (!args.watch.is_empty()).then_some("--watch"),
        ]
        .into_iter()
        .flatten()
        .collect();
        if !conflicts.is_empty() {
            return Err(CliError::usage(format!(
                "--debug cannot be combined with {} (use the debugger's own \
                 commands instead)",
                conflicts.join(", ")
            )));
        }
    }
    if args.inject.is_some() && (args.campaign.is_some() || args.replay.is_some()) {
        return Err(CliError::usage(
            "--inject cannot be combined with --campaign or --replay (they draw \
             their own schedules)",
        ));
    }
    // Trace and profile replay the run without injections or restored
    // state, so combining them would silently show a different execution.
    for (on, flag) in [(args.trace.is_some(), "--trace"), (args.profile, "--profile")] {
        if !on {
            continue;
        }
        if args.inject.is_some() || args.restore.is_some() {
            return Err(CliError::usage(format!(
                "{flag} replays the run from reset and cannot be combined with \
                 --inject or --restore"
            )));
        }
    }
    if args.max_injections == 0 {
        return Err(CliError::usage("--max-injections must be at least 1"));
    }
    if args.snapshot_every == Some(0) {
        return Err(CliError::usage("--snapshot-every must be at least 1"));
    }
    if args.stall_cycles == Some(0) {
        return Err(CliError::usage("--stall-cycles must be at least 1"));
    }

    // Fault classification compares 64-bit register values.
    if args.inject.is_some() || args.campaign.is_some() || args.replay.is_some() {
        if let Some(r) = td.regs.iter().find(|r| r.width > 64) {
            return Err(CliError::usage(format!(
                "fault injection requires <=64-bit registers; design {} has {} ({} bits)",
                td.name, r.name, r.width
            )));
        }
    }

    // Core workloads parse up front (only rv32 designs take one).
    let program = if args.design.starts_with("rv32") {
        Some(
            workload(&args.program)
                .ok_or_else(|| CliError::usage(format!("bad --program spec {:?}", args.program)))?,
        )
    } else {
        None
    };

    // --inject: either one-or-more explicit specs, or a bare seed.
    let mut injections = Vec::new();
    if let Some(spec) = &args.inject {
        if let Ok(seed) = spec.parse::<u64>() {
            let cfg = CampaignConfig {
                seed,
                cycles: args.run_cycles(),
                max_injections: args.max_injections,
                ..CampaignConfig::default()
            };
            injections = draw_schedule(&td, &cfg, 0);
        } else {
            injections.push(Injection::parse(spec, &td).map_err(CliError::Usage)?);
        }
    }

    let mut watch = Vec::new();
    for name in &args.watch {
        let i = td
            .regs
            .iter()
            .position(|r| &r.name == name)
            .ok_or_else(|| CliError::usage(format!("unknown register {name:?} in --watch")))?;
        watch.push((koika::RegId(i as u32), name.clone()));
    }

    let snapshot_prefix = args
        .snapshot_prefix
        .clone()
        .unwrap_or_else(|| format!("{}-", args.design));
    let stall_cycles = args.stall_cycles.unwrap_or(256);

    Ok(Plan {
        td,
        level,
        dispatch,
        program,
        injections,
        watch,
        snapshot_prefix,
        stall_cycles,
    })
}

fn build_sim(
    td: &TDesign,
    backend: &str,
    level: OptLevel,
    dispatch: Dispatch,
) -> Result<Box<dyn SimBackend>, CliError> {
    Ok(match backend {
        "interp" => Box::new(koika::Interp::new(td)),
        "cuttlesim" => {
            let mut sim = Sim::compile_with(
                td,
                &CompileOptions {
                    level,
                    ..CompileOptions::default()
                },
            )
            .map_err(|e| CliError::runtime(format!("cuttlesim compile error: {e}")))?;
            sim.try_set_dispatch(dispatch).map_err(|e| {
                CliError::usage(format!(
                    "cannot select {} dispatch: {e} (install rustc or point \
                     KOIKA_RUSTC at one)",
                    dispatch.short_name()
                ))
            })?;
            Box::new(sim)
        }
        "rtl" => Box::new(RtlSim::new(
            rtl_compile(td, Scheme::Dynamic)
                .map_err(|e| CliError::runtime(format!("rtl error: {e}")))?,
        )),
        "rtl-static" => Box::new(RtlSim::new(
            rtl_compile(td, Scheme::Static)
                .map_err(|e| CliError::runtime(format!("rtl error: {e}")))?,
        )),
        other => return Err(CliError::usage(format!("unknown backend {other:?}"))),
    })
}

/// Prints each injected SEU as it fires, just before its cycle runs.
struct SeuPrinter<'a> {
    td: &'a TDesign,
}

impl Observer for SeuPrinter<'_> {
    fn fault_injected(&mut self, cycle: u64, reg: RegId, bit: u32, old: u64, new: u64) {
        let spec = Injection { cycle, reg, bit }.display_with(self.td);
        println!("injected SEU {spec} (value {old:#x} -> {new:#x})");
    }
}

fn build_devices(td: &TDesign, program: &Option<Vec<u32>>) -> Vec<Box<dyn Device>> {
    match program {
        Some(words) => vec![Box::new(MagicMemory::new(
            td,
            &["imem", "dmem"],
            words,
            MEM_WORDS,
        ))],
        None => Vec::new(),
    }
}

/// Serves the bundled designs to `--serve` sessions. A session's design
/// name is either a bare design (`"msi"`, `"rv32i"`) or
/// `design+workload` (`"rv32i+primes:8"`), where the workload seeds the
/// magic memories exactly as `--program` does for a one-shot run; a bare
/// rv32 design gets the CLI's default workload. Typed designs and decoded
/// workloads are cached because [`DesignProvider::devices`] runs on every
/// step of every session.
#[derive(Default)]
struct BundledDesigns {
    designs: std::sync::Mutex<std::collections::HashMap<String, Arc<TDesign>>>,
    programs: std::sync::Mutex<std::collections::HashMap<String, Arc<Vec<u32>>>>,
}

/// Splits `rv32i+primes:8` into the design and the workload spec.
fn split_served_name(name: &str) -> (&str, Option<&str>) {
    match name.split_once('+') {
        Some((base, spec)) => (base, Some(spec)),
        None => (name, None),
    }
}

impl BundledDesigns {
    fn program_words(&self, spec: &str) -> Option<Arc<Vec<u32>>> {
        let mut cache = self
            .programs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(words) = cache.get(spec) {
            return Some(Arc::clone(words));
        }
        let words = Arc::new(workload(spec)?);
        cache.insert(spec.to_string(), Arc::clone(&words));
        Some(words)
    }
}

impl DesignProvider for BundledDesigns {
    fn design(&self, name: &str) -> Option<Arc<TDesign>> {
        let (base, spec) = split_served_name(name);
        if let Some(spec) = spec {
            // Only the rv32 cores take a workload, and it must parse, so
            // `create` rejects bad names up front instead of a session
            // stalling on empty memories later.
            if !base.starts_with("rv32") || self.program_words(spec).is_none() {
                return None;
            }
        }
        let mut cache = self
            .designs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(td) = cache.get(base) {
            return Some(Arc::clone(td));
        }
        let td = Arc::new(check(&design_by_name(base)?).ok()?);
        cache.insert(base.to_string(), Arc::clone(&td));
        Some(td)
    }

    fn devices(&self, name: &str, td: &TDesign) -> Vec<Box<dyn Device + Send>> {
        let (base, spec) = split_served_name(name);
        if !base.starts_with("rv32") {
            return Vec::new();
        }
        let words = spec
            .and_then(|s| self.program_words(s))
            .or_else(|| self.program_words("primes:100"))
            .unwrap_or_default();
        vec![Box::new(MagicMemory::new(td, &["imem", "dmem"], &words, MEM_WORDS))]
    }
}

/// `--serve`: run the session server until a client sends `shutdown`.
fn run_serve_mode(args: &Args, addr: &str) -> Result<ExitCode, CliError> {
    // The server multiplexes many sessions that each pick their own
    // design, program, backend, and budgets in `create`, so every
    // one-shot run or sink flag is rejected rather than silently
    // observing nothing. Only the pool/watchdog tuning flags compose.
    let conflicts: Vec<&str> = [
        args.campaign.map(|_| "--campaign"),
        args.fuzz.map(|_| "--fuzz"),
        args.replay_corpus.as_ref().map(|_| "--replay-corpus"),
        args.replay.as_ref().map(|_| "--replay"),
        args.emit.as_ref().map(|_| "--emit"),
        args.batch.map(|_| "--batch"),
        args.debug.then_some("--debug"),
        args.debug_script.as_ref().map(|_| "--debug-script"),
        args.debug_on_divergence.then_some("--debug-on-divergence"),
        args.inject.as_ref().map(|_| "--inject"),
        args.trace.map(|_| "--trace"),
        args.profile.then_some("--profile"),
        args.vcd.as_ref().map(|_| "--vcd"),
        args.record.as_ref().map(|_| "--record"),
        args.snapshot_every.map(|_| "--snapshot-every"),
        args.snapshot_prefix.as_ref().map(|_| "--snapshot-prefix"),
        args.restore.as_ref().map(|_| "--restore"),
        args.corpus_dir.as_ref().map(|_| "--corpus-dir"),
        (!args.watch.is_empty()).then_some("--watch"),
        args.metrics_json.as_ref().map(|_| "--metrics-json"),
        args.perfetto.as_ref().map(|_| "--perfetto"),
        args.cycles.map(|_| "--cycles"),
    ]
    .into_iter()
    .flatten()
    .collect();
    if !conflicts.is_empty() {
        return Err(CliError::usage(format!(
            "--serve cannot be combined with {} (sessions pick their own \
             designs, programs, and budgets in `create`)",
            conflicts.join(", ")
        )));
    }
    if !args.design.is_empty() {
        return Err(CliError::usage(format!(
            "--serve does not take a <design> argument (got {:?}; clients \
             name designs in `create`)",
            args.design
        )));
    }
    if args.jobs == 0 {
        return Err(CliError::usage("--jobs must be at least 1"));
    }
    if args.max_sessions == Some(0) {
        return Err(CliError::usage("--max-sessions must be at least 1"));
    }
    if args.stall_cycles == Some(0) {
        return Err(CliError::usage("--stall-cycles must be at least 1"));
    }

    let mut cfg = ServerConfig {
        runner: args.runner_config(),
        default_watchdog: Watchdog {
            max_cycles: args.max_cycles,
            stall_cycles: args.stall_cycles,
            wall_budget: args.max_wall_ms.map(Duration::from_millis),
        },
        ..ServerConfig::default()
    };
    if let Some(n) = args.max_sessions {
        cfg.max_sessions = n;
    }
    if let Some(dir) = &args.state_dir {
        cfg.state_dir = Some(std::path::PathBuf::from(dir));
    }
    let handle = koika_server::spawn(cfg, Arc::new(BundledDesigns::default()), addr)
        .map_err(|e| CliError::runtime(format!("cannot serve on {addr}: {e}")))?;
    if args.state_dir.is_some() {
        // Scripts (and the CI kill -9 soak) parse this line.
        println!(
            "recovered {} sessions ({} lost)",
            handle.recovered_sessions(),
            handle.lost_sessions()
        );
    }
    // Scripts parse this line to learn the bound port (`--serve 127.0.0.1:0`).
    println!("serving on {}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let stats = handle.wait();
    eprintln!(
        "drained: {} requests, {} protocol errors, {} sessions spilled, {} panics contained",
        stats.requests, stats.protocol_errors, stats.sessions_spilled, stats.panics_contained
    );
    Ok(ExitCode::SUCCESS)
}

fn write_file(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    std::fs::write(path, bytes).map_err(|e| CliError::runtime(format!("failed to write {path}: {e}")))
}

/// The stderr progress reporter shared by `--campaign` and `--fuzz`: one
/// carriage-return-free line per finished job (cheap enough at campaign
/// scale, and CI logs stay readable), plus retry notices. Also feeds the
/// runner counters of an optional [`Metrics`] sink.
fn report_progress<'a>(
    what: &'a str,
    metrics: Option<&'a mut Metrics>,
) -> impl FnMut(JobUpdate) + 'a {
    let mut metrics = metrics;
    move |u| match u {
        JobUpdate::Finished {
            index,
            attempts,
            panicked,
            done,
            total,
        } => {
            if let Some(m) = metrics.as_deref_mut() {
                m.job_finished(index, attempts, panicked);
            }
            eprintln!("{what}: {done}/{total} done");
        }
        JobUpdate::Retrying {
            index,
            attempt,
            reason,
        } => {
            eprintln!("{what}: member {index} retry {attempt}: {reason}");
        }
    }
}

fn print_runner_stats(what: &str, stats: &RunnerStats) {
    eprintln!(
        "{what}: {} jobs, {} panics contained, {} retries",
        stats.total, stats.panics_contained, stats.retries
    );
}

fn run_campaign_mode(args: &Args, plan: &Plan, members: usize) -> Result<ExitCode, CliError> {
    let td = &plan.td;
    let cfg = CampaignConfig {
        seed: args.seed,
        members,
        cycles: args.run_cycles(),
        max_injections: args.max_injections,
        stall_cycles: plan.stall_cycles,
    };
    let backend = args.backend.clone();
    let level = plan.level;
    let dispatch = plan.dispatch;
    let make_sim = move |td: &TDesign| {
        build_sim(td, &backend, level, dispatch).map_err(|e| match e {
            CliError::Usage(m) | CliError::Runtime(m) => m,
        })
    };
    let td2 = td.clone();
    let make_sim = move || make_sim(&td2);
    let program = plan.program.clone();
    let td3 = td.clone();
    let make_devices = move || build_devices(&td3, &program);
    let env = ParallelFactories {
        td,
        make_sim: &make_sim,
        make_devices: &make_devices,
    };
    let opts = ParallelOptions {
        runner: args.runner_config(),
        wall_budget: args.max_wall_ms.map(Duration::from_millis),
    };
    let mut metrics = args.metrics_json.as_ref().map(|_| Metrics::for_design(td));
    let mut progress = report_progress("campaign", metrics.as_mut());
    let (report, stats) = match args.batch {
        // Batched mode: each worker job drives one SoA batch whose lanes
        // are consecutive campaign members. The report is byte-identical
        // to the scalar path (validate() pinned the cuttlesim backend).
        Some(width) => {
            let level = plan.level;
            let td4 = td.clone();
            let make_batch = move |lanes: usize| {
                BatchSim::compile_with(
                    &td4,
                    &CompileOptions {
                        level,
                        ..CompileOptions::default()
                    },
                    lanes,
                )
                .map(|s| Box::new(s) as Box<dyn BatchBackend>)
                .map_err(|e| e.to_string())
            };
            run_campaign_batched(&env, &make_batch, width, &cfg, &opts, Some(&mut progress))
                .map_err(|e| CliError::runtime(e.to_string()))?
        }
        None => run_campaign_parallel(&env, &cfg, &opts, Some(&mut progress))
            .map_err(|e| CliError::runtime(e.to_string()))?,
    };
    drop(progress);
    print_runner_stats("campaign", &stats);
    print!("{}", report.summary());
    if let Some(path) = &args.record {
        // Only designs that take a workload record one (others replay with
        // no devices).
        let program = if plan.program.is_some() { args.program.as_str() } else { "" };
        let log = report.to_replay_log(&args.backend, args.level, program);
        write_file(path, log.to_text().as_bytes())?;
        eprintln!(
            "wrote replay log ({} failing members) to {path}",
            log.members.len()
        );
    }
    if let (Some(path), Some(m)) = (&args.metrics_json, &metrics) {
        write_file(path, m.to_json(true).as_bytes())?;
        eprintln!("wrote metrics snapshot to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// The debugger's command stream: an optional synthetic preamble, then
/// the `--debug-script` file (script mode) or stdin (interactive).
fn open_debug_input(args: &Args, preamble: Option<String>) -> Result<Box<dyn BufRead>, CliError> {
    let inner: Box<dyn BufRead> = match &args.debug_script {
        Some(path) => Box::new(std::io::BufReader::new(
            std::fs::File::open(path).map_err(|e| {
                CliError::runtime(format!("failed to open --debug-script {path}: {e}"))
            })?,
        )),
        None => Box::new(std::io::BufReader::new(std::io::stdin())),
    };
    Ok(match preamble {
        Some(text) => Box::new(std::io::Cursor::new(text.into_bytes()).chain(inner)),
        None => inner,
    })
}

/// `--debug` / `--debug-script`: build the requested engine, attach the
/// time-travel debugger, and hand it the run loop.
/// Watchdog trips are reported in-band at the paused prompt instead of
/// exiting 3 — a run paused under a debugger is not a hang.
fn run_debug_mode(args: &Args, plan: &Plan) -> Result<ExitCode, CliError> {
    let td = &plan.td;
    let opts = DebugOptions {
        limit: args.run_cycles(),
        echo: args.debug_script.is_some(),
        prompt: args.debug_script.is_none(),
    };
    let watchdog = Watchdog {
        max_cycles: args.max_cycles,
        stall_cycles: args.stall_cycles,
        wall_budget: args.max_wall_ms.map(Duration::from_millis),
    };
    let wd_wanted =
        args.max_cycles.is_some() || args.stall_cycles.is_some() || args.max_wall_ms.is_some();
    let mut armed = watchdog.arm();
    let mut input = open_debug_input(args, None)?;
    let mut out = std::io::stdout().lock();
    let mut sim = build_sim(td, &args.backend, plan.level, plan.dispatch)?;
    if let Some(path) = &args.restore {
        let bytes = std::fs::read(path)
            .map_err(|e| CliError::runtime(format!("failed to read {path}: {e}")))?;
        let snap = Snapshot::from_bytes(&bytes)
            .map_err(|e| CliError::runtime(format!("bad snapshot {path}: {e}")))?;
        sim.restore(&snap)
            .map_err(|e| CliError::runtime(format!("cannot restore {path}: {e}")))?;
        println!("restored {} at cycle {} from {path}", snap.design, snap.cycles);
    }
    let devices = build_devices(td, &plan.program);
    let mut target = ScalarTarget::new(sim, devices);
    koika::debug::run_session(
        td,
        &mut target,
        &mut *input,
        &mut out,
        wd_wanted.then_some(&mut armed),
        &opts,
    )
    .map_err(|e| CliError::runtime(format!("debugger I/O error: {e}")))?;
    Ok(ExitCode::SUCCESS)
}

/// `--debug-on-divergence`, shared tail: print both register files side by
/// side, then attach the debugger to the diverging backend with an
/// automatic `run-to` at the first divergent cycle boundary.
fn debug_divergence(args: &Args, div: &fuzz::Divergence, cycles: u64) -> Result<(), CliError> {
    let td = &div.td;
    println!(
        "divergence: seed {:#x}, backend {} first differs from interp after cycle {}",
        div.seed, div.backend, div.cycle
    );
    println!("  {:<16} {:>18} {:>18}", "reg", "interp", div.backend);
    for (i, r) in td.regs.iter().enumerate() {
        let a = div.interp_regs[i];
        let b = div.backend_regs[i];
        let marker = if a == b { "" } else { "  <-- differs" };
        println!(
            "  {:<16} {:>18} {:>18}{marker}",
            r.name,
            format!("{a:#x}"),
            format!("{b:#x}")
        );
    }
    let sim = fuzz::build_backend_by_label(td, &div.backend).map_err(CliError::runtime)?;
    let mut target = ScalarTarget::new(sim, Vec::new());
    let mut input = open_debug_input(args, Some(format!("run-to {}\n", div.cycle + 1)))?;
    let mut out = std::io::stdout().lock();
    let opts = DebugOptions {
        limit: cycles,
        echo: args.debug_script.is_some(),
        prompt: args.debug_script.is_none(),
    };
    koika::debug::run_session(td, &mut target, &mut *input, &mut out, None, &opts)
        .map_err(|e| CliError::runtime(format!("debugger I/O error: {e}")))
}

/// `--debug-on-divergence` for `--fuzz`: scan the report's (shrunk) bucket
/// reproducers first, then fall back to the raw per-case seeds — the
/// fallback catches `rtl-static` divergences, which the fuzz matrix
/// deliberately never trace-compares.
fn debug_first_fuzz_divergence(args: &Args, report: &fuzz::FuzzReport) -> Result<(), CliError> {
    for b in report.buckets.iter().filter(|b| b.class == "mismatch") {
        if let Some(div) =
            fuzz::scan_divergence(b.repro_seed, b.repro_cycles).map_err(CliError::runtime)?
        {
            return debug_divergence(args, &div, b.repro_cycles);
        }
    }
    let cycles = args.cycles.unwrap_or(96);
    for i in 0..args.fuzz.unwrap_or(0) {
        let seed = fuzz::case_seed(args.seed, i);
        if let Some(div) = fuzz::scan_divergence(seed, cycles).map_err(CliError::runtime)? {
            return debug_divergence(args, &div, cycles);
        }
    }
    eprintln!("debug-on-divergence: no register-state divergence found");
    Ok(())
}

fn run_fuzz_mode(args: &Args) -> Result<ExitCode, CliError> {
    let cases = args.fuzz.unwrap_or(0);
    reject_batched_dispatch(args)?;
    // No --dispatch under --fuzz means the full matrix (all three
    // dispatchers per VM level), not the scalar default of Match.
    let dispatch = args.requested_dispatch()?;
    if !cuttlesim::toolchain_available() {
        // An explicit `--dispatch native` request with no toolchain is a
        // loud no-op (exit 0, nothing silently substituted) so CI can run
        // the native smoke unconditionally; a default-matrix run proceeds
        // with native excluded, but says so.
        if dispatch == Some(Dispatch::Native) {
            eprintln!(
                "SKIP: --fuzz --dispatch native requires a rustc toolchain, and none \
                 was found (install rustc or point KOIKA_RUSTC at one); no cases run"
            );
            return Ok(ExitCode::SUCCESS);
        }
        if dispatch.is_none() {
            eprintln!(
                "note: no rustc toolchain found; the native dispatcher is excluded \
                 from the fuzz comparison matrix (12 backends instead of 18)"
            );
        }
    }
    let cfg = cuttlesim_repro::fuzz::FuzzConfig {
        seed: args.seed,
        cases,
        cycles: args.cycles.unwrap_or(96),
        runner: args.runner_config(),
        wall_budget: args.max_wall_ms.map(Duration::from_millis),
        batch: args.batch.unwrap_or(0),
        dispatch,
    };
    let mut metrics = args
        .metrics_json
        .as_ref()
        .map(|_| Metrics::new("fuzz", Vec::new(), Vec::new()));
    let mut progress = report_progress("fuzz", metrics.as_mut());
    let (report, stats) = cuttlesim_repro::fuzz::run_fuzz(&cfg, Some(&mut progress));
    drop(progress);
    print_runner_stats("fuzz", &stats);
    print!("{}", report.summary());
    if let Some(dir) = &args.corpus_dir {
        if report.buckets.is_empty() {
            eprintln!("no buckets; corpus dir {dir} left untouched");
        } else {
            let paths = cuttlesim_repro::fuzz::write_corpus(std::path::Path::new(dir), &report)
                .map_err(|e| CliError::runtime(format!("failed to write corpus: {e}")))?;
            for p in &paths {
                eprintln!("wrote reproducer {}", p.display());
            }
        }
    }
    if let (Some(path), Some(m)) = (&args.metrics_json, &metrics) {
        write_file(path, m.to_json(true).as_bytes())?;
        eprintln!("wrote metrics snapshot to {path}");
    }
    if args.debug_on_divergence {
        debug_first_fuzz_divergence(args, &report)?;
    }
    if report.buckets.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn run_replay_corpus_mode(args: &Args, dir: &str) -> Result<ExitCode, CliError> {
    if !cuttlesim::toolchain_available() {
        eprintln!(
            "note: no rustc toolchain found; the native dispatcher is excluded \
             from the replay comparison matrix"
        );
    }
    let results = cuttlesim_repro::fuzz::replay_corpus_dir(std::path::Path::new(dir))
        .map_err(|e| CliError::runtime(format!("cannot read corpus dir {dir}: {e}")))?;
    if results.is_empty() {
        eprintln!("no *.fuzz entries in {dir}");
    }
    let mut failed = 0usize;
    for (path, outcome) in &results {
        match outcome {
            Ok(()) => println!("corpus {}: ok", path.display()),
            Err(msg) => {
                println!("corpus {}: FAILED — {msg}", path.display());
                failed += 1;
            }
        }
    }
    println!("corpus replay: {}/{} ok", results.len() - failed, results.len());
    if args.debug_on_divergence {
        // Re-scan the entries in path order with the *full* comparison
        // matrix (including rtl-static, which replay never trace-compares)
        // and attach the debugger at the first divergence found.
        let mut attached = false;
        for (path, _) in &results {
            let Ok(text) = std::fs::read_to_string(path) else {
                continue;
            };
            let Ok(entry) = fuzz::CorpusEntry::from_text(&text) else {
                continue;
            };
            if let Some(div) =
                fuzz::scan_divergence(entry.seed, entry.cycles).map_err(CliError::runtime)?
            {
                println!("divergence in {}:", path.display());
                debug_divergence(args, &div, entry.cycles)?;
                attached = true;
                break;
            }
        }
        if !attached {
            eprintln!("debug-on-divergence: no register-state divergence found in {dir}");
        }
    }
    if failed == 0 {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn run_replay_mode(args: &Args, plan: &Plan, path: &str) -> Result<ExitCode, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("failed to read {path}: {e}")))?;
    let log = ReplayLog::from_text(&text).map_err(CliError::Runtime)?;
    if log.design != args.design {
        return Err(CliError::usage(format!(
            "replay log {path} records design {:?}, but {:?} was requested",
            log.design, args.design
        )));
    }
    // The log's recorded environment wins over CLI defaults: backend,
    // level, workload, and cycle count all come from the recording.
    let level = OptLevel::from_number(log.level).unwrap_or_else(OptLevel::max);
    let program = if log.program.is_empty() || !args.design.starts_with("rv32") {
        None
    } else {
        Some(
            workload(&log.program)
                .ok_or_else(|| CliError::runtime(format!("bad program {:?} in replay log", log.program)))?,
        )
    };
    let td = &plan.td;
    let backend = log.backend.clone();
    let dispatch = plan.dispatch;
    let td2 = td.clone();
    let mut make_sim = move || {
        build_sim(&td2, &backend, level, dispatch).unwrap_or_else(|e| {
            match e {
                CliError::Usage(m) | CliError::Runtime(m) => eprintln!("{m}"),
            }
            std::process::exit(1);
        })
    };
    let td3 = td.clone();
    let mut make_devices = move || build_devices(&td3, &program);
    let mut engine = FaultEngine {
        td,
        make_sim: &mut make_sim,
        make_devices: &mut make_devices,
    };
    println!(
        "replaying {} members from {path} (design {}, backend {}, {} cycles)",
        log.members.len(),
        log.design,
        log.backend,
        log.cycles
    );
    let results = replay_campaign(&mut engine, &log).map_err(|e| CliError::runtime(e.to_string()))?;
    let mut reproduced = 0usize;
    for r in &results {
        let minimal = match &r.minimal {
            Some(inj) => format!("; minimal reproducer {}", inj.display_with(td)),
            None => String::new(),
        };
        println!(
            "  member {:>3}: recorded {}, observed {} — {}{}",
            r.member.index,
            r.member.outcome,
            r.observed,
            if r.reproduced { "reproduced" } else { "NOT reproduced" },
            minimal
        );
        reproduced += r.reproduced as usize;
    }
    println!("replay: {reproduced}/{} reproduced", results.len());
    if reproduced != results.len() {
        return Err(CliError::runtime("some members did not reproduce"));
    }
    Ok(ExitCode::SUCCESS)
}

fn run(args: &Args) -> Result<ExitCode, CliError> {
    // The native-dispatch artifact cache is configured through the
    // environment so every layer (scalar sims, batch engines, fuzz
    // workers) sees the same directory without threading a path through.
    if let Some(dir) = &args.native_cache {
        std::env::set_var("KOIKA_NATIVE_CACHE", dir);
    }
    // --batch 0 is rejected up front: it applies to every mode, including
    // the design-free ones dispatched below.
    if args.batch == Some(0) {
        return Err(CliError::usage("--batch must be at least 1"));
    }
    if args.batch.is_some() && args.replay_corpus.is_some() {
        return Err(CliError::usage(
            "--batch cannot be combined with --replay-corpus (corpus replay is scalar)",
        ));
    }
    if args.debug_on_divergence && args.fuzz.is_none() && args.replay_corpus.is_none() {
        return Err(CliError::usage(
            "--debug-on-divergence requires --fuzz or --replay-corpus",
        ));
    }
    // The server is its own design-free mode: sessions name designs over
    // the wire, so it dispatches before design validation like --fuzz.
    if let Some(addr) = &args.serve {
        return run_serve_mode(args, addr);
    }
    if args.state_dir.is_some() {
        return Err(CliError::usage("--state-dir requires --serve"));
    }
    if args.max_sessions.is_some() {
        return Err(CliError::usage("--max-sessions requires --serve"));
    }
    // Design-free modes dispatch before design validation. Their flag
    // conflicts are checked here; everything design-bound stays in
    // `validate`.
    if args.fuzz.is_some() || args.replay_corpus.is_some() {
        let conflicts: Vec<&str> = [
            args.fuzz.map(|_| "--fuzz"),
            args.replay_corpus.as_ref().map(|_| "--replay-corpus"),
            args.emit.as_ref().map(|_| "--emit"),
            args.campaign.map(|_| "--campaign"),
            args.replay.as_ref().map(|_| "--replay"),
            args.inject.as_ref().map(|_| "--inject"),
        ]
        .into_iter()
        .flatten()
        .collect();
        if conflicts.len() > 1 {
            return Err(CliError::usage(format!(
                "conflicting modes: {} cannot be combined",
                conflicts.join(" and ")
            )));
        }
        if !args.design.is_empty() {
            return Err(CliError::usage(format!(
                "{} does not take a <design> argument (got {:?})",
                conflicts[0], args.design
            )));
        }
        if args.jobs == 0 {
            return Err(CliError::usage("--jobs must be at least 1"));
        }
        if args.debug {
            return Err(CliError::usage(
                "--debug requires a <design>; with --fuzz/--replay-corpus use \
                 --debug-on-divergence",
            ));
        }
        if args.debug_script.is_some() && !args.debug_on_divergence {
            return Err(CliError::usage(
                "--debug-script with --fuzz/--replay-corpus requires \
                 --debug-on-divergence",
            ));
        }
        if args.fuzz.is_some() {
            return run_fuzz_mode(args);
        }
        if let Some(dir) = &args.replay_corpus {
            return run_replay_corpus_mode(args, dir);
        }
    }
    if args.design.is_empty() {
        return Err(CliError::usage(
            "missing <design> argument (or use --fuzz / --replay-corpus)",
        ));
    }
    if args.corpus_dir.is_some() && args.fuzz.is_none() {
        return Err(CliError::usage("--corpus-dir requires --fuzz"));
    }

    let plan = validate(args)?;
    let td = &plan.td;

    if let Some(what) = &args.emit {
        match what.as_str() {
            "cpp" => print!("{}", codegen_cpp::emit(td)),
            "cpp-header" => print!("{}", codegen_cpp::emit_runtime_header()),
            "verilog" => {
                let model = rtl_compile(td, Scheme::Dynamic)
                    .map_err(|e| CliError::runtime(format!("rtl error: {e}")))?;
                print!("{}", verilog::emit(&model));
            }
            _ => unreachable!("validated"),
        }
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(n) = args.campaign {
        return run_campaign_mode(args, &plan, n);
    }
    if let Some(path) = &args.replay {
        return run_replay_mode(args, &plan, path);
    }
    if args.debug_requested() {
        return run_debug_mode(args, &plan);
    }

    // Normal run (possibly with injections, snapshots, and a watchdog).
    let mut devices = build_devices(td, &plan.program);
    let mut vcd = args.vcd.as_ref().map(|_| VcdRecorder::all_registers(td));
    let mut sim = build_sim(td, &args.backend, plan.level, plan.dispatch)?;

    if let Some(path) = &args.restore {
        let bytes = std::fs::read(path)
            .map_err(|e| CliError::runtime(format!("failed to read {path}: {e}")))?;
        let snap = Snapshot::from_bytes(&bytes)
            .map_err(|e| CliError::runtime(format!("bad snapshot {path}: {e}")))?;
        sim.restore(&snap)
            .map_err(|e| CliError::runtime(format!("cannot restore {path}: {e}")))?;
        println!("restored {} at cycle {} from {path}", snap.design, snap.cycles);
    }

    // Observability sinks, attached only when asked for — unobserved runs
    // take the plain `cycle()` path below.
    let mut metrics = args.metrics_json.as_ref().map(|_| Metrics::for_design(td));
    let mut perfetto = args.perfetto.as_ref().map(|_| PerfettoTrace::for_design(td));
    let mut watch = if plan.watch.is_empty() {
        None
    } else {
        Some(RegWatch::printing(plan.watch.clone()))
    };
    // Injected runs also record commit fingerprints so the run can be
    // classified against a golden run afterwards.
    let mut fingerprint = (!plan.injections.is_empty()).then(CommitFingerprint::default);
    let mut seu_printer = (!plan.injections.is_empty()).then_some(SeuPrinter { td });

    let watchdog = Watchdog {
        max_cycles: args.max_cycles,
        stall_cycles: args.stall_cycles,
        wall_budget: args.max_wall_ms.map(Duration::from_millis),
    };

    let start = std::time::Instant::now();
    let start_cycle = sim.cycle_count();
    let main_cycles = args.run_cycles().saturating_sub(args.trace.unwrap_or(0));
    let mut trip: Option<WatchdogTrip> = None;
    {
        let mut sinks: Vec<&mut dyn Observer> = Vec::new();
        if let Some(m) = &mut metrics {
            sinks.push(m);
        }
        if let Some(p) = &mut perfetto {
            sinks.push(p);
        }
        if let Some(w) = &mut watch {
            sinks.push(w);
        }
        if let Some(f) = &mut fingerprint {
            sinks.push(f);
        }
        if let Some(p) = &mut seu_printer {
            sinks.push(p);
        }
        let mut fan = if sinks.is_empty() {
            None
        } else {
            Some(Fanout::new(sinks))
        };
        // The VCD recorder samples last, after the devices have ticked.
        let mut devs: Vec<&mut dyn Device> = devices.iter_mut().map(|d| &mut **d as _).collect();
        if let Some(v) = &mut vcd {
            devs.push(v);
        }
        let mut armed = watchdog.arm();
        let mut left = main_cycles;
        // Runs in chunks that end on `--snapshot-every` boundaries; a
        // snapshot due on the tripping cycle is written before the trip
        // is reported.
        while left > 0 {
            let chunk = args.snapshot_every.map_or(left, |k| left.min(k - sim.cycle_count() % k));
            let obs = fan.as_mut().map(|f| f as &mut dyn Observer);
            let run = run_watchdogged(&mut *sim, &mut devs, chunk, &plan.injections, &mut armed, obs);
            left -= chunk;
            if let Some(k) = args.snapshot_every {
                let now = sim.cycle_count();
                if now % k == 0 {
                    let path = format!("{}{now:08}.ksnap", plan.snapshot_prefix);
                    write_file(&path, &sim.snapshot().to_bytes())?;
                    println!("wrote snapshot {path}");
                }
            }
            if let Err(t) = run {
                trip = Some(t);
                break;
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let cycles_run = sim.cycle_count() - start_cycle;

    println!(
        "{}: {} cycles on {} in {:.3}s ({:.0} cycles/s), {} rule commits",
        td.name,
        sim.cycle_count(),
        args.backend,
        elapsed,
        cycles_run as f64 / elapsed.max(1e-9),
        sim.rules_fired()
    );

    // Design-specific summary lines.
    if args.design.starts_with("rv32") {
        let retired = sim.as_reg_access().get64(td.reg_id("retired"));
        println!(
            "  retired {} instructions (IPC {:.3}), pc = {:#x}",
            retired,
            retired as f64 / sim.cycle_count().max(1) as f64,
            sim.as_reg_access().get64(td.reg_id("pc"))
        );
    }

    // Classify an injected run against a fresh golden run.
    if let Some(fp) = &fingerprint {
        let backend = args.backend.clone();
        let level = plan.level;
        let dispatch = plan.dispatch;
        let td2 = td.clone();
        let mut make_sim = move || {
            build_sim(&td2, &backend, level, dispatch).unwrap_or_else(|e| {
                match e {
                    CliError::Usage(m) | CliError::Runtime(m) => eprintln!("{m}"),
                }
                std::process::exit(1);
            })
        };
        let program = plan.program.clone();
        let td3 = td.clone();
        let mut make_devices = move || build_devices(&td3, &program);
        let mut engine = FaultEngine {
            td,
            make_sim: &mut make_sim,
            make_devices: &mut make_devices,
        };
        let golden = engine
            .golden(main_cycles, plan.stall_cycles)
            .map_err(|e| CliError::runtime(e.to_string()))?;
        let final_regs: Vec<u64> = (0..td.regs.len())
            .map(|i| sim.as_reg_access().get64(koika::RegId(i as u32)))
            .collect();
        let outcome = classify(
            &golden,
            &fp.per_cycle,
            &final_regs,
            trip.as_ref().map(|t| t.cycle),
        );
        println!("injection outcome: {outcome}");
    }

    if let (Some(n), "cuttlesim") = (args.trace, args.backend.as_str()) {
        // Tracing uses the VM's stepping API: rebuild a fresh Sim with the
        // same (deterministic) devices, fast-forward, then record the tail.
        let mut traced = Sim::compile_with(
            td,
            &CompileOptions {
                level: plan.level,
                ..CompileOptions::default()
            },
        )
        .map_err(|e| CliError::runtime(format!("cuttlesim compile error: {e}")))?;
        traced.set_dispatch(plan.dispatch);
        let mut devices2 = build_devices(td, &plan.program);
        let mut dev_refs: Vec<&mut dyn Device> = devices2.iter_mut().map(|d| &mut **d as _).collect();
        traced.run(main_cycles, &mut dev_refs);
        let trace = RuleTrace::record(&mut traced, &mut dev_refs, n);
        println!("\nRule activity (last {n} cycles):\n{trace}");
    }

    if args.profile && args.backend == "cuttlesim" {
        // Profiling turns off native whole-cycle dispatch, so the main run
        // stays unprofiled and a fresh profiled Sim re-runs its cycles.
        let mut profiled = Sim::compile_with(
            td,
            &CompileOptions {
                level: plan.level,
                ..CompileOptions::default()
            },
        )
        .map_err(|e| CliError::runtime(format!("cuttlesim compile error: {e}")))?;
        profiled.set_dispatch(plan.dispatch);
        profiled.enable_profiling();
        let mut devices3 = build_devices(td, &plan.program);
        let mut dev_refs: Vec<&mut dyn Device> = devices3.iter_mut().map(|d| &mut **d as _).collect();
        profiled.run(main_cycles, &mut dev_refs);
        println!("\n{}", ProfileReport::collect(&profiled));
    }

    if let (Some(path), Some(m)) = (&args.metrics_json, &metrics) {
        let json = m.to_json(true);
        write_file(path, json.as_bytes())?;
        println!("wrote metrics snapshot to {path}");
    }

    if let (Some(path), Some(p)) = (&args.perfetto, &perfetto) {
        let json = p.to_json();
        write_file(path, json.as_bytes())?;
        println!("wrote {} trace events to {path}", p.len());
    }

    if let (Some(path), Some(v)) = (&args.vcd, &vcd) {
        let dump = v.finish(cycles_run);
        write_file(path, dump.as_bytes())?;
        println!("wrote {} bytes of VCD to {path}", dump.len());
    }

    if let Some(t) = trip {
        // Abort with a state dump: registers, cycle, and commit counters in
        // the snapshot's JSON debug form, so the hung state is inspectable.
        eprintln!("{t}");
        eprintln!("{}", sim.snapshot().to_json(Some(td)));
        return Ok(ExitCode::from(3));
    }

    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(Ok(code)) => return code,
        Err(Err(e)) => {
            return match e {
                CliError::Usage(msg) => {
                    eprintln!("{msg}\n{}", usage_hint());
                    ExitCode::from(2)
                }
                CliError::Runtime(msg) => {
                    eprintln!("{msg}");
                    ExitCode::FAILURE
                }
            }
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(CliError::Usage(msg)) => {
            eprintln!("{msg}\n{}", usage_hint());
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
