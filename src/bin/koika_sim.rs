//! `koika-sim`: command-line driver for the bundled designs. `koika-sim
//! --help` prints every flag (the `HELP` text below is its only copy).
//!
//! An invocation is resolved once, before anything runs: [`validate`]
//! picks the run mode and admits every given flag through the [`FLAGS`]
//! table, [`Target::resolve`] checks the flags that name parts of the
//! design, and a [`SimFactory`] compiles the design once for every
//! simulator the mode then runs.
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
use koika::snapshot::StateImage;
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

/// What an invocation does. [`validate`] picks the first mode whose flag
/// was given, in declaration order; the [`FLAGS`] table then refuses every
/// other mode's flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Serve,
    Fuzz,
    ReplayCorpus,
    Emit,
    Campaign,
    Replay,
    Debug,
    Run,
}

impl Mode {
    const ALL: [Mode; 8] = [
        Mode::Serve,
        Mode::Fuzz,
        Mode::ReplayCorpus,
        Mode::Emit,
        Mode::Campaign,
        Mode::Replay,
        Mode::Debug,
        Mode::Run,
    ];

    /// This mode's bit in the [`FLAGS`] admission masks.
    const fn bit(self) -> u8 {
        1 << self as u8
    }

    /// How error messages name the mode.
    fn flag(self) -> &'static str {
        match self {
            Mode::Serve => "--serve",
            Mode::Fuzz => "--fuzz",
            Mode::ReplayCorpus => "--replay-corpus",
            Mode::Emit => "--emit",
            Mode::Campaign => "--campaign",
            Mode::Replay => "--replay",
            Mode::Debug => "--debug or --debug-script",
            Mode::Run => "a plain run",
        }
    }

    /// Why the mode refuses flags other modes take, for error messages.
    fn refusal_hint(self) -> &'static str {
        match self {
            Mode::Serve => " (sessions pick their own designs, programs, and budgets in `create`)",
            Mode::Debug => " (use the debugger's own commands instead)",
            Mode::Replay => " (the replay log records its own run)",
            _ => "",
        }
    }

    /// Whether the mode runs the `<design>` named on the command line.
    fn takes_design(self) -> bool {
        !matches!(self, Mode::Serve | Mode::Fuzz | Mode::ReplayCorpus)
    }
}

const SERVE: u8 = Mode::Serve.bit();
const FUZZ: u8 = Mode::Fuzz.bit();
const CORPUS: u8 = Mode::ReplayCorpus.bit();
const EMIT: u8 = Mode::Emit.bit();
const CAMPAIGN: u8 = Mode::Campaign.bit();
const REPLAY: u8 = Mode::Replay.bit();
const DEBUG: u8 = Mode::Debug.bit();
const RUN: u8 = Mode::Run.bit();
/// The modes whose engine comes from the command line. `--emit` builds
/// no simulator but takes the engine flags, so it composes with any run
/// line.
const ENGINE: u8 = EMIT | CAMPAIGN | DEBUG | RUN;
/// The modes that may build a native engine.
const NATIVE: u8 = ENGINE | REPLAY | FUZZ | CORPUS;
/// The modes that arm a watchdog from the budget flags.
const WATCHED: u8 = SERVE | DEBUG | RUN;

/// Every flag [`parse_args`] accepts, with the modes that accept it. A
/// flag given in any other mode is a usage error, so no mode silently
/// ignores one.
static FLAGS: [(&str, u8); 38] = [
    ("--backend", ENGINE),
    ("--level", ENGINE),
    ("--dispatch", ENGINE | REPLAY | FUZZ),
    ("--native-cache", NATIVE),
    ("--cycles", FUZZ | CAMPAIGN | DEBUG | RUN),
    ("--program", CAMPAIGN | DEBUG | RUN),
    ("--vcd", RUN),
    ("--profile", RUN),
    ("--trace", RUN),
    ("--emit", EMIT),
    ("--metrics-json", FUZZ | CAMPAIGN | RUN),
    ("--perfetto", RUN),
    ("--watch", RUN),
    ("--inject", RUN),
    ("--campaign", CAMPAIGN),
    ("--fuzz", FUZZ),
    ("--batch", FUZZ | CAMPAIGN),
    ("--jobs", SERVE | FUZZ | CAMPAIGN),
    ("--retries", SERVE | FUZZ | CAMPAIGN),
    ("--corpus-dir", FUZZ),
    ("--replay-corpus", CORPUS),
    ("--seed", SERVE | FUZZ | CAMPAIGN),
    ("--max-injections", CAMPAIGN | RUN),
    ("--record", CAMPAIGN),
    ("--replay", REPLAY),
    ("--snapshot-every", RUN),
    ("--snapshot-prefix", RUN),
    ("--restore", DEBUG | RUN),
    ("--max-cycles", WATCHED),
    ("--stall-cycles", WATCHED | CAMPAIGN),
    ("--max-wall-ms", WATCHED | CAMPAIGN | FUZZ),
    ("--debug", DEBUG),
    ("--debug-script", DEBUG | FUZZ | CORPUS),
    ("--debug-on-divergence", FUZZ | CORPUS),
    ("--serve", SERVE),
    ("--max-sessions", SERVE),
    ("--state-dir", SERVE),
    ("--help", u8::MAX),
];

#[derive(Default)]
struct Args {
    design: String,
    /// The flags given, in order, as their [`FLAGS`] entries.
    given: Vec<&'static (&'static str, u8)>,
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
    /// The cycle budget of a design run (fuzz has its own default, see
    /// `run_fuzz_mode`).
    fn run_cycles(&self) -> u64 {
        self.cycles.unwrap_or(10_000)
    }

    /// The budget flags as one watchdog.
    fn watchdog(&self) -> Watchdog {
        Watchdog {
            max_cycles: self.max_cycles,
            stall_cycles: self.stall_cycles,
            wall_budget: self.max_wall_ms.map(Duration::from_millis),
        }
    }

    /// Worker-pool shape shared by `--campaign`, `--fuzz` and `--serve`.
    fn runner_config(&self) -> RunnerConfig {
        RunnerConfig {
            jobs: self.jobs,
            max_retries: self.retries,
            seed: self.seed,
            ..RunnerConfig::default()
        }
    }

    /// Debugger options: a script echoes its commands, stdin gets a prompt.
    fn debug_options(&self, limit: u64) -> DebugOptions {
        DebugOptions {
            limit,
            echo: self.debug_script.is_some(),
            prompt: self.debug_script.is_none(),
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

Each flag below belongs to the modes that read it (a plain run, --emit,
--campaign, --replay, --debug, --fuzz, --replay-corpus, or --serve); a
flag given in any other mode is a usage error (exit 2).

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
  --program <primes:N|nops:N|branchy:N|memwalk:N>  core workload (default primes:100)
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
  --seed <N>          campaign / fuzz / server worker-pool PRNG seed
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
  --restore <FILE>    restore simulator and device state from a .ksnap first
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

/// Parses the command line (without the program name); `None` means
/// `--help` was asked for. Only the [`FLAGS`] table's flags parse.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Option<Args>, CliError> {
    let mut argv = argv.into_iter().peekable();
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
        program: "primes:100".into(),
        jobs: 1,
        retries: 2,
        seed: 0xC0FFEE,
        max_injections: 3,
        ..Args::default()
    };
    fn parsed<T: std::str::FromStr>(name: &str, v: String) -> Result<T, CliError> {
        v.parse()
            .map_err(|_| CliError::usage(format!("bad value {v:?} for {name}")))
    }
    while let Some(arg) = argv.next() {
        let wanted = if arg == "-h" { "--help" } else { arg.as_str() };
        let flag = FLAGS
            .iter()
            .find(|(name, _)| *name == wanted)
            .ok_or_else(|| CliError::usage(format!("unknown option {arg}")))?;
        args.given.push(flag);
        let name = flag.0;
        let mut value = || {
            argv.next()
                .ok_or_else(|| CliError::usage(format!("missing value for {name}")))
        };
        match name {
            "--backend" => args.backend = value()?,
            "--level" => args.level = parsed(name, value()?)?,
            "--dispatch" => args.dispatch = Some(value()?),
            "--native-cache" => args.native_cache = Some(value()?),
            "--cycles" => args.cycles = Some(parsed(name, value()?)?),
            "--program" => args.program = value()?,
            "--vcd" => args.vcd = Some(value()?),
            "--profile" => args.profile = true,
            "--trace" => args.trace = Some(parsed(name, value()?)?),
            "--emit" => args.emit = Some(value()?),
            "--metrics-json" => args.metrics_json = Some(value()?),
            "--perfetto" => args.perfetto = Some(value()?),
            "--watch" => args.watch.push(value()?),
            "--inject" => args.inject = Some(value()?),
            "--campaign" => args.campaign = Some(parsed(name, value()?)?),
            "--fuzz" => args.fuzz = Some(parsed(name, value()?)?),
            "--batch" => args.batch = Some(parsed(name, value()?)?),
            "--jobs" => args.jobs = parsed(name, value()?)?,
            "--retries" => args.retries = parsed(name, value()?)?,
            "--corpus-dir" => args.corpus_dir = Some(value()?),
            "--replay-corpus" => args.replay_corpus = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16)
                        .map_err(|_| CliError::usage(format!("bad value {v:?} for --seed")))?,
                    None => parsed(name, v)?,
                };
            }
            "--max-injections" => args.max_injections = parsed(name, value()?)?,
            "--record" => args.record = Some(value()?),
            "--replay" => args.replay = Some(value()?),
            "--snapshot-every" => args.snapshot_every = Some(parsed(name, value()?)?),
            "--snapshot-prefix" => args.snapshot_prefix = Some(value()?),
            "--restore" => args.restore = Some(value()?),
            "--max-cycles" => args.max_cycles = Some(parsed(name, value()?)?),
            "--stall-cycles" => args.stall_cycles = Some(parsed(name, value()?)?),
            "--max-wall-ms" => args.max_wall_ms = Some(parsed(name, value()?)?),
            "--debug" => args.debug = true,
            "--debug-script" => args.debug_script = Some(value()?),
            "--debug-on-divergence" => args.debug_on_divergence = true,
            "--serve" => args.serve = Some(value()?),
            "--max-sessions" => args.max_sessions = Some(parsed(name, value()?)?),
            "--state-dir" => args.state_dir = Some(value()?),
            "--help" => return Ok(None),
            _ => return Err(CliError::usage(format!("option {name} has no parser"))),
        }
    }
    Ok(Some(args))
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
        "memwalk" => programs::memwalk(n),
        _ => return None,
    })
}

/// What [`validate`] settles for every invocation.
struct Plan {
    mode: Mode,
    level: OptLevel,
    /// `--dispatch`, if given: design modes default to match, and `--fuzz`
    /// then compares every dispatcher.
    dispatch: Option<Dispatch>,
}

/// Decides the run mode and rejects every bad flag and flag combination
/// that needs no design — the one place an invocation is admitted.
fn validate(args: &Args) -> Result<Plan, CliError> {
    let mode = [
        (args.serve.is_some(), Mode::Serve),
        (args.fuzz.is_some(), Mode::Fuzz),
        (args.replay_corpus.is_some(), Mode::ReplayCorpus),
        (args.emit.is_some(), Mode::Emit),
        (args.campaign.is_some(), Mode::Campaign),
        (args.replay.is_some(), Mode::Replay),
        (args.debug || args.debug_script.is_some(), Mode::Debug),
    ]
    .into_iter()
    .find_map(|(given, mode)| given.then_some(mode))
    .unwrap_or(Mode::Run);

    match (mode.takes_design(), args.design.is_empty()) {
        (true, true) => {
            return Err(CliError::usage(
                "missing <design> argument (or use --fuzz, --replay-corpus, or --serve)",
            ))
        }
        (false, false) => {
            return Err(CliError::usage(format!(
                "{} does not take a <design> argument (got {:?})",
                mode.flag(),
                args.design
            )))
        }
        _ => {}
    }
    if let Some(&&(flag, modes)) = args.given.iter().find(|(_, modes)| modes & mode.bit() == 0) {
        return Err(CliError::usage(if mode == Mode::Run {
            let wanted: Vec<&str> = Mode::ALL
                .iter()
                .filter(|m| modes & m.bit() != 0)
                .map(|m| m.flag())
                .collect();
            format!("{flag} requires {}", wanted.join(" or "))
        } else {
            format!(
                "{flag} cannot be combined with {}{}",
                mode.flag(),
                mode.refusal_hint()
            )
        }));
    }
    let counts = [
        ("--jobs", Some(args.jobs as u64)),
        ("--batch", args.batch.map(|n| n as u64)),
        ("--max-sessions", args.max_sessions.map(|n| n as u64)),
        ("--max-injections", Some(u64::from(args.max_injections))),
        ("--snapshot-every", args.snapshot_every),
        ("--stall-cycles", args.stall_cycles),
    ];
    if let Some((flag, _)) = counts.iter().find(|(_, n)| *n == Some(0)) {
        return Err(CliError::usage(format!("{flag} must be at least 1")));
    }

    if args.debug && args.debug_script.is_some() {
        return Err(CliError::usage("--debug and --debug-script cannot be combined"));
    }
    if args.debug_script.is_some() && !mode.takes_design() && !args.debug_on_divergence {
        return Err(CliError::usage(format!(
            "--debug-script with {} requires --debug-on-divergence",
            mode.flag()
        )));
    }
    // Trace and profile replay the run without injections or restored
    // state, so combining them would silently show a different execution.
    if (args.trace.is_some() || args.profile) && (args.inject.is_some() || args.restore.is_some()) {
        return Err(CliError::usage(
            "--trace and --profile replay the run from reset and cannot be combined \
             with --inject or --restore",
        ));
    }

    match args.backend.as_str() {
        "interp" | "cuttlesim" | "rtl" | "rtl-static" => {}
        other => return Err(CliError::usage(format!("unknown backend {other:?}"))),
    }
    let level = OptLevel::from_number(args.level)
        .ok_or_else(|| CliError::usage(format!("bad --level {}: expected 1..6", args.level)))?;
    let dispatch = args
        .dispatch
        .as_deref()
        .map(|name| {
            Dispatch::from_name(name).ok_or_else(|| {
                CliError::usage(format!("bad --dispatch {name:?}: expected match, tac, or native"))
            })
        })
        .transpose()?;
    if args.batch.is_some() {
        // A batch runs the micro-op lock-step engine only, so any other
        // dispatch would be silently ignored: refused on every host.
        if let Some(d) = dispatch.filter(|&d| d != Dispatch::Tac) {
            let name = d.short_name();
            return Err(CliError::usage(format!(
                "--batch cannot be combined with --dispatch {name}: a batch runs the \
                 micro-op lock-step engine (--dispatch tac) only; drop --batch to run \
                 scalar {name} (with --jobs for campaigns and fuzz)"
            )));
        }
        if args.backend != "cuttlesim" {
            return Err(CliError::usage(format!(
                "--batch requires the cuttlesim backend (got {:?})",
                args.backend
            )));
        }
    }
    if let Some(d) = dispatch.filter(|&d| d != Dispatch::Match && args.backend != "cuttlesim") {
        return Err(CliError::usage(format!(
            "--dispatch {} requires the cuttlesim backend (got {:?})",
            d.short_name(),
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
    Ok(Plan { mode, level, dispatch })
}

/// What a design mode resolves against its design, before any simulator
/// is built.
struct Target {
    td: TDesign,
    program: Option<Vec<u32>>,
    injections: Vec<Injection>,
    watch: Vec<(RegId, String)>,
    snapshot_prefix: String,
    stall_cycles: u64,
}

impl Target {
    fn resolve(args: &Args, mode: Mode) -> Result<Target, CliError> {
        let design = design_by_name(&args.design)
            .ok_or_else(|| CliError::usage(format!("unknown design {:?}", args.design)))?;
        let td = check(&design).map_err(|e| CliError::runtime(format!("design error: {e}")))?;

        // Fault classification compares 64-bit register values.
        if args.inject.is_some() || matches!(mode, Mode::Campaign | Mode::Replay) {
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

        // --inject: either an explicit cycle:reg:bit spec, or a bare seed.
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
            watch.push((RegId(i as u32), name.clone()));
        }

        Ok(Target {
            snapshot_prefix: args
                .snapshot_prefix
                .clone()
                .unwrap_or_else(|| format!("{}-", args.design)),
            stall_cycles: args.stall_cycles.unwrap_or(256),
            td,
            program,
            injections,
            watch,
        })
    }
}

/// The one compiled simulator of an invocation. The design is compiled,
/// and its dispatch selected, once, so a missing toolchain is reported
/// here (exit 2) and no simulator can fail to build later. Every simulator
/// the mode runs is a copy of this reset-state prototype.
enum SimFactory {
    Interp(TDesign),
    Vm(Box<Sim>),
    Rtl(Box<RtlSim>),
}

impl SimFactory {
    fn new(td: &TDesign, backend: &str, level: OptLevel, dispatch: Dispatch) -> Result<SimFactory, CliError> {
        let rtl = |scheme| {
            rtl_compile(td, scheme)
                .map(|model| SimFactory::Rtl(Box::new(RtlSim::new(model))))
                .map_err(|e| CliError::runtime(format!("rtl error: {e}")))
        };
        match backend {
            "interp" => Ok(SimFactory::Interp(td.clone())),
            "rtl" => rtl(Scheme::Dynamic),
            "rtl-static" => rtl(Scheme::Static),
            "cuttlesim" => {
                let opts = CompileOptions {
                    level,
                    ..CompileOptions::default()
                };
                let mut sim = Sim::compile_with(td, &opts)
                    .map_err(|e| CliError::runtime(format!("cuttlesim compile error: {e}")))?;
                sim.try_set_dispatch(dispatch).map_err(|e| {
                    CliError::usage(format!("cannot select {} dispatch: {e}", dispatch.short_name()))
                })?;
                Ok(SimFactory::Vm(Box::new(sim)))
            }
            other => Err(CliError::usage(format!("unknown backend {other:?}"))),
        }
    }

    /// A fresh simulator at reset state.
    fn make(&self) -> Box<dyn SimBackend> {
        match self {
            SimFactory::Interp(td) => Box::new(koika::Interp::new(td)),
            SimFactory::Vm(sim) => sim.clone(),
            SimFactory::Rtl(sim) => sim.clone(),
        }
    }

    /// A fresh simulator; it and `devs` are restored from `--restore` if given.
    fn make_restored(&self, args: &Args, devs: &mut [Box<dyn Device>]) -> Result<Box<dyn SimBackend>, CliError> {
        let mut sim = self.make();
        if let Some(path) = &args.restore {
            let bytes = std::fs::read(path)
                .map_err(|e| CliError::runtime(format!("failed to read {path}: {e}")))?;
            let image = StateImage::from_bytes(&bytes)
                .map_err(|e| CliError::runtime(format!("bad snapshot {path}: {e}")))?;
            image
                .apply(&mut *sim, devs)
                .map_err(|e| CliError::runtime(format!("cannot restore {path}: {e}")))?;
            println!("restored {} at cycle {} from {path}", image.snap.design, image.snap.cycles);
        }
        Ok(sim)
    }

    /// The prototype VM, for the stepping and profiling APIs only the
    /// cuttlesim backend has.
    fn vm(&self) -> Option<&Sim> {
        match self {
            SimFactory::Vm(sim) => Some(sim.as_ref()),
            _ => None,
        }
    }

    /// A `lanes`-wide lock-step batch of the prototype's program.
    fn batch(&self, lanes: usize) -> Result<Box<dyn BatchBackend>, String> {
        let sim = self.vm().ok_or("a batch needs the cuttlesim backend")?;
        Ok(Box::new(BatchSim::new(sim.program().clone(), lanes)))
    }
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

    fn reads_reg_writes(&self) -> bool {
        false
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
    let opts = args.debug_options(cycles);
    koika::debug::run_session(td, &mut target, &mut *input, &mut out, None, &opts)
        .map_err(|e| CliError::runtime(format!("debugger I/O error: {e}")))
}

/// `--debug-on-divergence` for `--fuzz`: scan the report's (shrunk) bucket
/// reproducers first, then fall back to the raw per-case seeds — the
/// fallback catches `rtl-static` divergences, which the fuzz matrix
/// deliberately never trace-compares.
fn debug_first_fuzz_divergence(
    args: &Args,
    report: &fuzz::FuzzReport,
    cfg: &fuzz::FuzzConfig,
) -> Result<(), CliError> {
    for b in report.buckets.iter().filter(|b| b.class == "mismatch") {
        if let Some(div) =
            fuzz::scan_divergence(b.repro_seed, b.repro_cycles).map_err(CliError::runtime)?
        {
            return debug_divergence(args, &div, b.repro_cycles);
        }
    }
    for i in 0..cfg.cases {
        let seed = fuzz::case_seed(cfg.seed, i);
        if let Some(div) = fuzz::scan_divergence(seed, cfg.cycles).map_err(CliError::runtime)? {
            return debug_divergence(args, &div, cfg.cycles);
        }
    }
    eprintln!("debug-on-divergence: no register-state divergence found");
    Ok(())
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

/// `--serve`: run the session server until a client sends `shutdown`.
fn run_serve_mode(args: &Args, addr: &str) -> Result<ExitCode, CliError> {
    let mut cfg = ServerConfig {
        runner: args.runner_config(),
        default_watchdog: args.watchdog(),
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

fn run_campaign_mode(
    args: &Args,
    target: &Target,
    sims: &SimFactory,
    members: usize,
) -> Result<ExitCode, CliError> {
    let td = &target.td;
    let cfg = CampaignConfig {
        seed: args.seed,
        members,
        cycles: args.run_cycles(),
        max_injections: args.max_injections,
        stall_cycles: target.stall_cycles,
    };
    let make_sim = || Ok(sims.make());
    let make_devices = || build_devices(td, &target.program);
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
        // to the scalar path.
        Some(width) => run_campaign_batched(
            &env,
            &|lanes| sims.batch(lanes),
            width,
            &cfg,
            &opts,
            Some(&mut progress),
        ),
        None => run_campaign_parallel(&env, &cfg, &opts, Some(&mut progress)),
    }
    .map_err(|e| CliError::runtime(e.to_string()))?;
    drop(progress);
    print_runner_stats("campaign", &stats);
    print!("{}", report.summary());
    if let Some(path) = &args.record {
        // Only designs that take a workload record one (others replay with
        // no devices).
        let program = if target.program.is_some() { args.program.as_str() } else { "" };
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

/// `--debug` / `--debug-script`: attach the time-travel debugger to a
/// fresh simulator and hand it the run loop.
/// Watchdog trips are reported in-band at the paused prompt instead of
/// exiting 3 — a run paused under a debugger is not a hang.
fn run_debug_mode(args: &Args, target: &Target, sims: &SimFactory) -> Result<ExitCode, CliError> {
    let td = &target.td;
    let wd_wanted =
        args.max_cycles.is_some() || args.stall_cycles.is_some() || args.max_wall_ms.is_some();
    let mut armed = args.watchdog().arm();
    let mut input = open_debug_input(args, None)?;
    let mut out = std::io::stdout().lock();
    let mut devices = build_devices(td, &target.program);
    let sim = sims.make_restored(args, &mut devices)?;
    let mut target = ScalarTarget::new(sim, devices);
    koika::debug::run_session(
        td,
        &mut target,
        &mut *input,
        &mut out,
        wd_wanted.then_some(&mut armed),
        &args.debug_options(args.run_cycles()),
    )
    .map_err(|e| CliError::runtime(format!("debugger I/O error: {e}")))?;
    Ok(ExitCode::SUCCESS)
}

fn run_fuzz_mode(args: &Args, dispatch: Option<Dispatch>) -> Result<ExitCode, CliError> {
    // No --dispatch under --fuzz means the full matrix (all three
    // dispatchers per VM level), not the scalar default of Match.
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
    let cfg = fuzz::FuzzConfig {
        seed: args.seed,
        cases: args.fuzz.unwrap_or(0),
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
    let (report, stats) = fuzz::run_fuzz(&cfg, Some(&mut progress));
    drop(progress);
    print_runner_stats("fuzz", &stats);
    print!("{}", report.summary());
    if let Some(dir) = &args.corpus_dir {
        if report.buckets.is_empty() {
            eprintln!("no buckets; corpus dir {dir} left untouched");
        } else {
            let paths = fuzz::write_corpus(std::path::Path::new(dir), &report)
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
        debug_first_fuzz_divergence(args, &report, &cfg)?;
    }
    if report.buckets.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn run_replay_mode(args: &Args, plan: &Plan, target: &Target, path: &str) -> Result<ExitCode, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("failed to read {path}: {e}")))?;
    let log = ReplayLog::from_text(&text).map_err(CliError::Runtime)?;
    if log.design != args.design {
        return Err(CliError::usage(format!(
            "replay log {path} records design {:?}, but {:?} was requested",
            log.design, args.design
        )));
    }
    // The log's recorded environment decides the run: backend, level,
    // workload, and cycle count all come from the recording.
    let level = OptLevel::from_number(log.level).unwrap_or_else(OptLevel::max);
    let program = if log.program.is_empty() || !args.design.starts_with("rv32") {
        None
    } else {
        Some(
            workload(&log.program)
                .ok_or_else(|| CliError::runtime(format!("bad program {:?} in replay log", log.program)))?,
        )
    };
    let td = &target.td;
    let sims = SimFactory::new(td, &log.backend, level, plan.dispatch.unwrap_or_default())?;
    let mut engine = FaultEngine {
        td,
        make_sim: &mut || sims.make(),
        make_devices: &mut || build_devices(td, &program),
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

/// A plain run, possibly with injections, snapshots, observers, and a
/// watchdog.
fn run_plain(args: &Args, target: &Target, sims: &SimFactory) -> Result<ExitCode, CliError> {
    let td = &target.td;
    let mut devices = build_devices(td, &target.program);
    let mut vcd = args.vcd.as_ref().map(|_| VcdRecorder::all_registers(td));
    let mut sim = sims.make_restored(args, &mut devices)?;

    // Observability sinks, attached only when asked for — unobserved runs
    // take the plain `cycle()` path below.
    let mut metrics = args.metrics_json.as_ref().map(|_| Metrics::for_design(td));
    let mut perfetto = args.perfetto.as_ref().map(|_| PerfettoTrace::for_design(td));
    let mut watch = if target.watch.is_empty() {
        None
    } else {
        Some(RegWatch::printing(target.watch.clone()))
    };
    // Injected runs also record commit fingerprints so the run can be
    // classified against a golden run afterwards.
    let mut fingerprint = (!target.injections.is_empty()).then(CommitFingerprint::default);
    let mut seu_printer = (!target.injections.is_empty()).then_some(SeuPrinter { td });

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
        // The VCD recorder samples last, after the devices have ticked;
        // snapshots hold the devices before it.
        let ndev = devices.len();
        let mut devs: Vec<&mut dyn Device> = devices.iter_mut().map(|d| &mut **d as _).collect();
        if let Some(v) = &mut vcd {
            devs.push(v);
        }
        let mut armed = args.watchdog().arm();
        let mut left = main_cycles;
        // Runs in chunks that end on `--snapshot-every` boundaries; a
        // snapshot due on the tripping cycle is written before the trip
        // is reported.
        while left > 0 {
            let chunk = args.snapshot_every.map_or(left, |k| left.min(k - sim.cycle_count() % k));
            let obs = fan.as_mut().map(|f| f as &mut dyn Observer);
            let run = run_watchdogged(&mut *sim, &mut devs, chunk, &target.injections, &mut armed, obs);
            left -= chunk;
            if let Some(k) = args.snapshot_every {
                let now = sim.cycle_count();
                if now % k == 0 {
                    let path = format!("{}{now:08}.ksnap", target.snapshot_prefix);
                    write_file(&path, &StateImage::capture(&*sim, &devs[..ndev], None).to_bytes())?;
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
        let mut engine = FaultEngine {
            td,
            make_sim: &mut || sims.make(),
            make_devices: &mut || build_devices(td, &target.program),
        };
        let golden = engine
            .golden(main_cycles, target.stall_cycles)
            .map_err(|e| CliError::runtime(e.to_string()))?;
        let final_regs: Vec<u64> = (0..td.regs.len())
            .map(|i| sim.as_reg_access().get64(RegId(i as u32)))
            .collect();
        let outcome = classify(
            &golden,
            &fp.per_cycle,
            &final_regs,
            trip.as_ref().map(|t| t.cycle),
        );
        println!("injection outcome: {outcome}");
    }

    if let (Some(n), Some(vm)) = (args.trace, sims.vm()) {
        // Tracing uses the VM's stepping API: a fresh Sim with the same
        // (deterministic) devices fast-forwards, then records the tail.
        let mut traced = vm.clone();
        let mut devices = build_devices(td, &target.program);
        let mut devs: Vec<&mut dyn Device> = devices.iter_mut().map(|d| &mut **d as _).collect();
        traced.run(main_cycles, &mut devs);
        let trace = RuleTrace::record(&mut traced, &mut devs, n);
        println!("\nRule activity (last {n} cycles):\n{trace}");
    }

    if let (true, Some(vm)) = (args.profile, sims.vm()) {
        // A profiled native Sim runs the micro-op bodies instead of
        // `koika_cycle`, so the main run stays unprofiled and a fresh
        // profiled Sim re-runs its cycles.
        let mut profiled = vm.clone();
        profiled.enable_profiling();
        let mut devices = build_devices(td, &target.program);
        let mut devs: Vec<&mut dyn Device> = devices.iter_mut().map(|d| &mut **d as _).collect();
        profiled.run(main_cycles, &mut devs);
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

fn run(args: &Args) -> Result<ExitCode, CliError> {
    let plan = validate(args)?;
    // The native-dispatch artifact cache is configured through the
    // environment so every layer (scalar sims, batch engines, fuzz
    // workers) sees the same directory without threading a path through.
    if let Some(dir) = &args.native_cache {
        std::env::set_var("KOIKA_NATIVE_CACHE", dir);
    }
    match (plan.mode, &args.serve, &args.replay_corpus) {
        (Mode::Serve, Some(addr), _) => return run_serve_mode(args, addr),
        (Mode::Fuzz, ..) => return run_fuzz_mode(args, plan.dispatch),
        (Mode::ReplayCorpus, _, Some(dir)) => return run_replay_corpus_mode(args, dir),
        _ => {}
    }
    let target = Target::resolve(args, plan.mode)?;
    let td = &target.td;
    match (&args.emit, &args.replay) {
        (Some(what), _) => {
            match what.as_str() {
                "cpp" => print!("{}", codegen_cpp::emit(td)),
                "cpp-header" => print!("{}", codegen_cpp::emit_runtime_header()),
                _ => {
                    let model = rtl_compile(td, Scheme::Dynamic)
                        .map_err(|e| CliError::runtime(format!("rtl error: {e}")))?;
                    print!("{}", verilog::emit(&model));
                }
            }
            return Ok(ExitCode::SUCCESS);
        }
        (None, Some(path)) => return run_replay_mode(args, &plan, &target, path),
        (None, None) => {}
    }
    let sims = SimFactory::new(td, &args.backend, plan.level, plan.dispatch.unwrap_or_default())?;
    match (plan.mode, args.campaign) {
        (Mode::Campaign, Some(n)) => run_campaign_mode(args, &target, &sims, n),
        (Mode::Debug, _) => run_debug_mode(args, &target, &sims),
        _ => run_plain(args, &target, &sims),
    }
}

fn main() -> ExitCode {
    let result = parse_args(std::env::args().skip(1)).and_then(|args| match args {
        Some(args) => run(&args),
        None => {
            print!("{HELP}");
            Ok(ExitCode::SUCCESS)
        }
    });
    match result {
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

#[cfg(test)]
mod tests {
    use super::{parse_args, CliError, FLAGS, HELP};

    fn parses(argv: &[&str]) -> Result<(), String> {
        match parse_args(argv.iter().map(|a| a.to_string())) {
            Ok(_) => Ok(()),
            Err(CliError::Usage(msg) | CliError::Runtime(msg)) => Err(msg),
        }
    }

    #[test]
    fn help_and_parser_name_the_same_flags() {
        for (flag, _) in &FLAGS {
            assert!(HELP.contains(&format!("  {flag} ")), "--help does not document {flag}");
            // Flags that take a value get one every parser accepts.
            if let Err(msg) = parses(&[flag]).or_else(|_| parses(&[flag, "1"])) {
                panic!("{flag} is in the admission table but does not parse: {msg}");
            }
        }
        let named = HELP.split(|c: char| !(c.is_ascii_lowercase() || c == '-'));
        for word in named.filter(|w| w.starts_with("--") && w.len() > 2) {
            assert!(
                FLAGS.iter().any(|(flag, _)| *flag == word),
                "--help names {word}, which the parser does not accept"
            );
        }
    }
}
