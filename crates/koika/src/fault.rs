//! The resilience-testing harness: seeded SEU fault-injection campaigns,
//! watchdog budgets, and deterministic replay with shrinking.
//!
//! The paper's case studies (§4) demonstrate that compiling Kôika designs
//! to software makes them *debuggable* — state can be inspected, perturbed,
//! and replayed with ordinary software tooling. This module packages that
//! capability as a harness: flip a single bit of architectural state (a
//! single-event upset, the canonical soft-error model) at a chosen cycle,
//! run the design to completion under a [`Watchdog`], and classify what the
//! perturbation did by comparing against an unperturbed *golden run*:
//!
//! * **masked** — the final architectural state is identical to golden: the
//!   design absorbed the upset;
//! * **SDC** (silent data corruption) — the rule-commit stream is identical
//!   to golden, but the final state differs: the design "ran the same" yet
//!   produced wrong data, silently;
//! * **divergence** — the commit stream itself diverged (control flow
//!   changed), and the final state differs;
//! * **hang** — the watchdog tripped: no rule committed for the configured
//!   number of consecutive cycles, or a budget was exhausted.
//!
//! Campaigns are **deterministic**: every member's injection schedule is
//! derived from the campaign seed alone, so a campaign report is
//! byte-for-byte reproducible across invocations, any failing member can be
//! replayed in isolation from its recorded schedule ([`ReplayLog`]), and a
//! multi-injection failure shrinks to a minimal single-injection reproducer
//! ([`FaultEngine::shrink`]).
//!
//! Up to its first injection a member repeats the golden run exactly, so
//! no runner simulates that prefix again: the golden run keeps a
//! checkpoint (simulator snapshot, device states, stall count) at each
//! member's first injection and the member starts there, comparing its
//! commit fingerprints with the golden ones from there on. A device state
//! equal to the previous checkpoint's shares its allocation, so
//! checkpoints of a device that did not change cost nothing more. The
//! report is the one a from-reset run gives.
//!
//! The engine is backend-agnostic: it drives any [`SimBackend`] through
//! factory closures, so campaigns run on the reference interpreter, the
//! Cuttlesim VM, or the RTL simulator — and injections and watchdog trips
//! surface as [`Observer`] events, so they appear in metrics and Perfetto
//! timelines alongside ordinary rule activity.

use crate::bits::Bits;
use crate::device::{BatchBackend, Device, LaneAccess, RegAccess, SimBackend};
use crate::obs::Observer;
use crate::runner::{self, contain, JobError, JobUpdate, RunnerConfig, RunnerStats};
use crate::snapshot::Snapshot;
use crate::testgen::SplitMix64;
use crate::tir::{RegId, TDesign};
use std::fmt;
use std::fmt::Write as _;
use std::ops::DerefMut;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One SEU: flip bit `bit` of register `reg` just before cycle `cycle`
/// executes (after devices have ticked, so the injected value wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Injection {
    /// Cycle before which the flip is applied.
    pub cycle: u64,
    /// Target register (flattened space).
    pub reg: RegId,
    /// Bit to flip (0 = least significant; must be below the register
    /// width).
    pub bit: u32,
}

impl fmt::Display for Injection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.cycle, self.reg.0, self.bit)
    }
}

impl Injection {
    /// Parses a `cycle:reg:bit` spec. The register may be a name from the
    /// design or a flat index; the bit must be inside the register width.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed specs.
    pub fn parse(spec: &str, td: &TDesign) -> Result<Injection, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        let [cycle, reg, bit] = parts.as_slice() else {
            return Err(format!(
                "bad injection spec {spec:?}: expected cycle:reg:bit (e.g. 12:x:3)"
            ));
        };
        let cycle: u64 = cycle
            .parse()
            .map_err(|_| format!("bad injection cycle {cycle:?}"))?;
        let reg_idx = match td.regs.iter().position(|r| r.name == *reg) {
            Some(i) => i,
            None => reg
                .parse::<usize>()
                .ok()
                .filter(|&i| i < td.regs.len())
                .ok_or_else(|| format!("unknown register {reg:?} in injection spec"))?,
        };
        let bit: u32 = bit
            .parse()
            .map_err(|_| format!("bad injection bit {bit:?}"))?;
        let width = td.regs[reg_idx].width;
        if bit >= width {
            return Err(format!(
                "injection bit {bit} out of range for {} ({width} bits)",
                td.regs[reg_idx].name
            ));
        }
        Ok(Injection {
            cycle,
            reg: RegId(reg_idx as u32),
            bit,
        })
    }

    /// Renders the spec with the register's name, for user-facing output.
    pub fn display_with(&self, td: &TDesign) -> String {
        let name = td
            .regs
            .get(self.reg.0 as usize)
            .map(|r| r.name.as_str())
            .unwrap_or("?");
        format!("{}:{}:{}", self.cycle, name, self.bit)
    }
}

/// How an injected run ended relative to the golden run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Final state identical to golden — the upset was absorbed.
    Masked,
    /// Commit stream identical, final state differs: silent data
    /// corruption.
    Sdc,
    /// The commit stream diverged first at the given cycle.
    Divergence {
        /// First cycle whose commit set differed from golden.
        first_cycle: u64,
    },
    /// The watchdog aborted the run before the given cycle on a
    /// **deterministic** budget (stall or cycle count).
    Hang {
        /// Cycle count when the watchdog tripped.
        cycle: u64,
    },
    /// The member panicked; the panic was contained by the runner and the
    /// message recorded in [`MemberReport::detail`].
    Panic,
    /// Only the wall-clock budget tripped, and kept tripping after every
    /// retry. Unlike `Hang`, this is a statement about the *machine* (load,
    /// scheduling), not the design — which is why wall-only trips get their
    /// own class and never pollute the deterministic `hang` counts.
    Flaky,
}

impl Outcome {
    /// The outcome class, ignoring detection cycles — what campaign
    /// counters and shrinking compare.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Masked => "masked",
            Outcome::Sdc => "sdc",
            Outcome::Divergence { .. } => "divergence",
            Outcome::Hang { .. } => "hang",
            Outcome::Panic => "panic",
            Outcome::Flaky => "flaky",
        }
    }

    /// True for every class except [`Outcome::Masked`].
    pub fn is_failure(&self) -> bool {
        !matches!(self, Outcome::Masked)
    }

    fn to_token(self) -> String {
        match self {
            Outcome::Masked => "masked".into(),
            Outcome::Sdc => "sdc".into(),
            Outcome::Divergence { first_cycle } => format!("divergence@{first_cycle}"),
            Outcome::Hang { cycle } => format!("hang@{cycle}"),
            Outcome::Panic => "panic".into(),
            Outcome::Flaky => "flaky".into(),
        }
    }

    fn from_token(tok: &str) -> Result<Outcome, String> {
        let (kind, at) = match tok.split_once('@') {
            Some((k, c)) => (
                k,
                Some(c.parse::<u64>().map_err(|_| format!("bad outcome cycle in {tok:?}"))?),
            ),
            None => (tok, None),
        };
        match (kind, at) {
            ("masked", None) => Ok(Outcome::Masked),
            ("sdc", None) => Ok(Outcome::Sdc),
            ("divergence", Some(c)) => Ok(Outcome::Divergence { first_cycle: c }),
            ("hang", Some(c)) => Ok(Outcome::Hang { cycle: c }),
            ("panic", None) => Ok(Outcome::Panic),
            ("flaky", None) => Ok(Outcome::Flaky),
            _ => Err(format!("bad outcome token {tok:?}")),
        }
    }
}

/// All outcome class labels, in the order [`CampaignReport::counts`] uses.
pub const OUTCOME_CLASSES: [&str; 6] = ["masked", "sdc", "divergence", "hang", "panic", "flaky"];

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_token())
    }
}

/// Per-run execution budgets. A tripped watchdog aborts the run with a
/// classifiable reason instead of spinning forever.
///
/// Stall detection (`stall_cycles`) is the deterministic trigger —
/// campaigns rely on it exclusively, so classification never depends on
/// wall-clock time. The wall-clock budget is a backstop for interactive
/// use.
#[derive(Debug, Clone, Default)]
pub struct Watchdog {
    /// Abort once this many cycles have executed in total.
    pub max_cycles: Option<u64>,
    /// Abort after this many consecutive cycles with zero rule commits.
    pub stall_cycles: Option<u64>,
    /// Abort after this much wall-clock time.
    pub wall_budget: Option<Duration>,
}

impl Watchdog {
    /// A watchdog with only deterministic stall detection enabled.
    pub fn stall_only(stall_cycles: u64) -> Watchdog {
        Watchdog {
            stall_cycles: Some(stall_cycles),
            ..Watchdog::default()
        }
    }

    /// Arms the watchdog for one run. The armed watchdog owns a copy of the
    /// budget configuration so long-lived holders (e.g. server session
    /// tables) need no borrow of the original.
    pub fn arm(&self) -> ArmedWatchdog {
        ArmedWatchdog {
            cfg: self.clone(),
            start: Instant::now(),
            stalled: 0,
            paused_at: None,
        }
    }
}

/// Which budget a watchdog trip exhausted.
///
/// Stall and cycle budgets are pure functions of the simulation, so their
/// trips reproduce on any machine; a wall-clock trip depends on load and
/// scheduling, which is why campaign classification treats it as
/// retry-then-`flaky` rather than `hang`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripKind {
    /// Deterministic: too many consecutive commit-free cycles.
    Stall,
    /// Deterministic: total cycle budget exhausted.
    CycleBudget,
    /// Machine-dependent: wall-clock budget exhausted.
    Wall,
}

impl TripKind {
    /// True for budgets that are pure functions of the simulation.
    pub fn is_deterministic(self) -> bool {
        !matches!(self, TripKind::Wall)
    }
}

/// Why a watchdog aborted a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogTrip {
    /// Cycle count when the trip happened.
    pub cycle: u64,
    /// Which budget tripped.
    pub kind: TripKind,
    /// Human-readable trigger.
    pub reason: String,
}

impl fmt::Display for WatchdogTrip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "watchdog trip at cycle {}: {}", self.cycle, self.reason)
    }
}

/// A [`Watchdog`] armed for one run; see [`ArmedWatchdog::observe`].
#[derive(Debug)]
pub struct ArmedWatchdog {
    cfg: Watchdog,
    start: Instant,
    stalled: u64,
    paused_at: Option<Instant>,
}

impl ArmedWatchdog {
    /// Stops the wall clock, e.g. while an interactive debugger is sitting
    /// at its prompt or replaying history. Time spent paused never counts
    /// toward the wall budget, so a long pause cannot be misclassified as a
    /// hang. Stall and cycle budgets are unaffected (they count simulated
    /// cycles, which do not advance while paused). Idempotent.
    pub fn pause(&mut self) {
        if self.paused_at.is_none() {
            self.paused_at = Some(Instant::now());
        }
    }

    /// Restarts the wall clock after [`ArmedWatchdog::pause`], shifting the
    /// arm time forward by the paused duration. Idempotent.
    pub fn resume(&mut self) {
        if let Some(p) = self.paused_at.take() {
            self.start += p.elapsed();
        }
    }

    /// Wall-clock time elapsed since arming, excluding paused intervals.
    pub fn wall_elapsed(&self) -> Duration {
        match self.paused_at {
            // While paused, the clock is frozen at the pause instant.
            Some(p) => p.duration_since(self.start),
            None => self.start.elapsed(),
        }
    }

    /// Rewinds the wall clock so [`ArmedWatchdog::wall_elapsed`] reads
    /// `mark` again. Used when a machine-dependent wall trip is retried:
    /// the retry should restart from the budget position recorded before
    /// the failed attempt rather than instantly re-tripping. Marks in the
    /// future of the current reading are ignored (the clock never moves
    /// forward under a rewind).
    pub fn wall_rewind_to(&mut self, mark: Duration) {
        let now_mark = self.wall_elapsed();
        if mark >= now_mark {
            return;
        }
        // Shift the arm time forward by the amount being forgiven.
        self.start += now_mark - mark;
    }

    /// Number of consecutive zero-commit cycles observed so far. The stall
    /// counter is part of a session's durable state: a checkpoint taken
    /// mid-stall must record it so that deterministic replay after a crash
    /// trips the stall budget on exactly the same cycle as the original run.
    pub fn stall_count(&self) -> u64 {
        self.stalled
    }

    /// Restores the consecutive-stall counter, e.g. when re-arming a
    /// watchdog from a recovery checkpoint. See [`ArmedWatchdog::stall_count`].
    pub fn set_stall_count(&mut self, stalled: u64) {
        self.stalled = stalled;
    }

    /// Reports one completed cycle (with the number of rule commits it
    /// made); returns a trip if any budget is now exhausted.
    pub fn observe(&mut self, cycles_done: u64, commits: u64) -> Option<WatchdogTrip> {
        if commits == 0 {
            self.stalled += 1;
        } else {
            self.stalled = 0;
        }
        if let Some(k) = self.cfg.stall_cycles {
            if self.stalled >= k {
                return Some(WatchdogTrip {
                    cycle: cycles_done,
                    kind: TripKind::Stall,
                    reason: format!("no rule committed for {k} consecutive cycles"),
                });
            }
        }
        if let Some(max) = self.cfg.max_cycles {
            if cycles_done >= max {
                return Some(WatchdogTrip {
                    cycle: cycles_done,
                    kind: TripKind::CycleBudget,
                    reason: format!("cycle budget of {max} exhausted"),
                });
            }
        }
        if let Some(budget) = self.cfg.wall_budget {
            if self.wall_elapsed() > budget {
                return Some(WatchdogTrip {
                    cycle: cycles_done,
                    kind: TripKind::Wall,
                    reason: format!("wall-clock budget of {budget:?} exhausted"),
                });
            }
        }
        None
    }
}

/// An [`Observer`] that folds each cycle's committed-rule sequence into one
/// 64-bit fingerprint (FNV-1a over schedule-ordered rule indices). Two runs
/// whose per-cycle fingerprints agree committed exactly the same rules in
/// the same order.
#[derive(Debug, Clone, Default)]
pub struct CommitFingerprint {
    /// One fingerprint per completed cycle.
    pub per_cycle: Vec<u64>,
    /// The current cycle's fingerprint so far.
    cur: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl CommitFingerprint {
    /// A digest of the whole commit stream (order-sensitive).
    pub fn digest(&self) -> u64 {
        digest_fps(&self.per_cycle)
    }

    /// The fingerprint of one cycle that committed `rules`, in schedule
    /// order. Scalar runs and batched lanes both fold through here.
    fn fold(rules: impl IntoIterator<Item = usize>) -> u64 {
        rules.into_iter().fold(FNV_OFFSET, Self::step)
    }

    /// Folds one more committed rule into fingerprint `h`.
    fn step(h: u64, rule: usize) -> u64 {
        (h ^ (rule as u64 + 1)).wrapping_mul(FNV_PRIME)
    }
}

fn digest_fps(fps: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for &fp in fps {
        h = (h ^ fp).wrapping_mul(FNV_PRIME);
    }
    h
}

impl Observer for CommitFingerprint {
    fn cycle_start(&mut self, _cycle: u64) {
        self.cur = FNV_OFFSET;
    }

    fn rule_commit(&mut self, rule: usize) {
        self.cur = Self::step(self.cur, rule);
    }

    fn cycle_end(&mut self, _cycle: u64) {
        self.per_cycle.push(self.cur);
    }

    fn reads_reg_writes(&self) -> bool {
        false
    }
}

/// The one scalar cycle loop: runs `ncycles` cycles, each one ticking the
/// devices, flipping the injections due, executing the cycle and letting
/// the armed watchdog observe it (so a budget can span calls); events go
/// to `obs` when one is attached.
///
/// Injections fire after the cycle's device ticks (so the flipped value is
/// what the cycle sees) and are matched by **absolute** cycle number, which
/// makes them stable across snapshot/restore.
///
/// # Errors
///
/// Returns the [`WatchdogTrip`] if a budget was exhausted; the simulator is
/// left at the cycle boundary where the trip fired.
pub fn run_watchdogged<D: DerefMut<Target: Device>>(
    sim: &mut dyn SimBackend,
    devices: &mut [D],
    ncycles: u64,
    injections: &[Injection],
    armed: &mut ArmedWatchdog,
    mut obs: Option<&mut dyn Observer>,
) -> Result<(), WatchdogTrip> {
    for _ in 0..ncycles {
        let cycle = sim.cycle_count();
        for d in devices.iter_mut() {
            d.tick(cycle, sim.as_reg_access());
        }
        for inj in injections.iter().filter(|i| i.cycle == cycle) {
            let regs = sim.as_reg_access();
            let old = regs.get64(inj.reg);
            let new = old ^ (1u64 << inj.bit);
            regs.set64(inj.reg, new);
            if let Some(o) = obs.as_deref_mut() {
                o.fault_injected(cycle, inj.reg, inj.bit, old, new);
            }
        }
        let before = sim.rules_fired();
        match obs.as_deref_mut() {
            Some(o) => sim.cycle_obs(o),
            None => sim.cycle(),
        }
        let commits = sim.rules_fired().wrapping_sub(before);
        if let Some(trip) = armed.observe(sim.cycle_count(), commits) {
            if let Some(o) = obs.as_deref_mut() {
                o.watchdog_trip(trip.cycle, &trip.reason);
            }
            return Err(trip);
        }
    }
    Ok(())
}

/// The golden run's complete state at one cycle boundary, where a member
/// whose first injection falls on that cycle can start instead of
/// repeating the golden prefix from reset.
#[derive(Debug, Clone)]
struct Checkpoint {
    /// The simulator state ([`SimBackend::snapshot`]); its `cycles` is the
    /// checkpoint's cycle.
    snapshot: Snapshot,
    /// Every device's [`Device::save_state`], in device order; a state
    /// byte-equal to the previous checkpoint's shares its allocation.
    devices: Vec<Arc<[u8]>>,
    /// The golden stall watchdog's consecutive commit-free cycles.
    stall_count: u64,
}

impl Checkpoint {
    /// The cycle boundary the checkpoint was taken at.
    fn cycle(&self) -> u64 {
        self.snapshot.cycles
    }
}

/// The recorded golden (fault-free) run a campaign classifies against.
///
/// Up to its first injection a member repeats the golden run exactly, so
/// a campaign's golden run also keeps checkpoints (simulator snapshot,
/// device states, stall count) at the cycles its members first inject
/// at, and every runner starts a member at the latest one at or before
/// its first injection and compares its fingerprints with the golden ones
/// from there on. With no checkpoint there (or none at all, as when a device
/// cannot save its state, or for [`FaultEngine::golden`]) the member
/// starts at reset: reset is the cycle-0 checkpoint.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// Per-cycle commit fingerprints.
    pub fps: Vec<u64>,
    /// Final register values (low 64 bits, flattened-register-space order).
    pub final_regs: Vec<u64>,
    /// Checkpoints in cycle order; empty when none was asked for or a
    /// device's [`Device::save_state`] returned `None`.
    checkpoints: Vec<Checkpoint>,
}

impl GoldenRun {
    /// Order-sensitive digest of the whole golden commit stream — recorded
    /// in replay logs to guard against replaying into a different
    /// design/backend/workload configuration.
    pub fn digest(&self) -> u64 {
        digest_fps(&self.fps)
    }

    /// The latest checkpoint at or before `cycle`; `None` means reset.
    fn checkpoint_before(&self, cycle: u64) -> Option<&Checkpoint> {
        let after = self.checkpoints.partition_point(|c| c.cycle() <= cycle);
        after.checked_sub(1).map(|i| &self.checkpoints[i])
    }
}

/// Classifies an injected run against the golden run — a pure function of
/// the two runs' fingerprints, final states, and whether the watchdog
/// tripped.
pub fn classify(
    golden: &GoldenRun,
    fps: &[u64],
    final_regs: &[u64],
    hang: Option<u64>,
) -> Outcome {
    let diverged = golden
        .fps
        .iter()
        .zip(fps)
        .position(|(a, b)| a != b)
        .map(|i| i as u64);
    decide(golden, diverged, final_regs, hang)
}

/// [`classify`] given the first cycle whose commit fingerprint differs
/// from the golden run's (`None`: none does), which is all it reads of a
/// run's fingerprints.
fn decide(
    golden: &GoldenRun,
    diverged: Option<u64>,
    final_regs: &[u64],
    hang: Option<u64>,
) -> Outcome {
    if let Some(cycle) = hang {
        return Outcome::Hang { cycle };
    }
    if final_regs == golden.final_regs.as_slice() {
        return Outcome::Masked;
    }
    match diverged {
        Some(first_cycle) => Outcome::Divergence { first_cycle },
        None => Outcome::Sdc,
    }
}

/// Configuration of a fault-injection campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// PRNG seed every member's injection schedule derives from.
    pub seed: u64,
    /// Number of campaign members (injected runs).
    pub members: usize,
    /// Cycles per run.
    pub cycles: u64,
    /// Each member draws between 1 and this many injections.
    pub max_injections: u32,
    /// Hang detection: consecutive commit-free cycles before the watchdog
    /// trips.
    pub stall_cycles: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0xC0FFEE,
            members: 100,
            cycles: 1000,
            max_injections: 3,
            stall_cycles: 256,
        }
    }
}

/// One campaign member's schedule and result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberReport {
    /// Member index within the campaign.
    pub index: usize,
    /// The injections applied, in cycle order.
    pub injections: Vec<Injection>,
    /// How the run ended.
    pub outcome: Outcome,
    /// Supporting evidence for `panic` (the contained panic message) and
    /// `flaky` (the wall trip reason) outcomes; `None` for the classes
    /// derived from golden-run comparison.
    pub detail: Option<String>,
}

/// Errors from campaign setup (never from individual members — those
/// always classify).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// A register is wider than 64 bits; the engine compares `u64` state.
    WideDesign(String),
    /// The design has no registers to inject into.
    NoRegisters,
    /// The *golden* run tripped the watchdog — the configuration itself
    /// never makes progress, so no member can be classified against it.
    GoldenHang(WatchdogTrip),
    /// The *golden* run panicked; the string is the contained panic
    /// message. No member can be classified without a golden run.
    GoldenPanic(String),
    /// A simulator could not be built (factory reported an error).
    Setup(String),
    /// A replay log's recorded golden digest does not match the golden run
    /// observed in this environment.
    DigestMismatch {
        /// Digest recorded in the log.
        recorded: u64,
        /// Digest observed on replay.
        observed: u64,
    },
    /// A replayed injection does not fit the design (register index or bit
    /// out of range).
    BadInjection(String),
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::WideDesign(reg) => {
                write!(f, "fault injection requires <=64-bit registers; {reg} is wider")
            }
            FaultError::NoRegisters => write!(f, "design has no registers to inject into"),
            FaultError::GoldenHang(trip) => {
                write!(f, "golden run made no progress ({trip}); nothing to classify against")
            }
            FaultError::GoldenPanic(msg) => {
                write!(f, "golden run panicked ({msg}); nothing to classify against")
            }
            FaultError::Setup(msg) => write!(f, "simulator setup failed: {msg}"),
            FaultError::DigestMismatch { recorded, observed } => write!(
                f,
                "golden digest {observed:#018x} does not match recorded {recorded:#018x} — \
                 different design/backend/workload than the recording"
            ),
            FaultError::BadInjection(msg) => write!(f, "bad injection in replay log: {msg}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// The backend-agnostic campaign driver: owns factories that produce fresh
/// simulator instances and their (deterministic) devices.
pub struct FaultEngine<'a> {
    /// The design under test.
    pub td: &'a TDesign,
    /// Produces a fresh simulator at reset state.
    pub make_sim: &'a mut dyn FnMut() -> Box<dyn SimBackend>,
    /// Produces the matching device set (must be deterministic — campaign
    /// reproducibility depends on it).
    pub make_devices: &'a mut dyn FnMut() -> Vec<Box<dyn Device>>,
}

/// Checks that every register of the design fits the engine's `u64`-based
/// state comparison.
fn check_design_regs(td: &TDesign) -> Result<(), FaultError> {
    if td.regs.is_empty() {
        return Err(FaultError::NoRegisters);
    }
    match td.regs.iter().find(|r| r.width > 64) {
        Some(r) => Err(FaultError::WideDesign(r.name.clone())),
        None => Ok(()),
    }
}

/// Reads the first `nregs` registers of the flattened register file (low
/// 64 bits each).
fn read_final_regs(nregs: usize, sim: &mut dyn SimBackend) -> Vec<u64> {
    (0..nregs)
        .map(|i| sim.as_reg_access().get64(RegId(i as u32)))
        .collect()
}

/// Checks that injections (typically parsed from a replay log) actually fit
/// the design: register index in range, bit inside the register's width.
///
/// # Errors
///
/// [`FaultError::BadInjection`] naming the first offending spec. Without
/// this check a hand-edited log could drive the simulator into an
/// out-of-bounds register access or an oversized shift — a panic on a
/// user-reachable path.
pub fn validate_injections(td: &TDesign, injections: &[Injection]) -> Result<(), FaultError> {
    for inj in injections {
        let Some(reg) = td.regs.get(inj.reg.0 as usize) else {
            return Err(FaultError::BadInjection(format!(
                "register index {} out of range ({} registers)",
                inj.reg.0,
                td.regs.len()
            )));
        };
        if inj.bit >= reg.width {
            return Err(FaultError::BadInjection(format!(
                "bit {} out of range for {} ({} bits)",
                inj.bit, reg.name, reg.width
            )));
        }
    }
    Ok(())
}

impl FaultEngine<'_> {
    /// Executes the fault-free golden run, with no checkpoints: members
    /// classified against it start at reset.
    ///
    /// # Errors
    ///
    /// [`FaultError::GoldenHang`] if even the unperturbed design stalls.
    pub fn golden(&mut self, cycles: u64, stall_cycles: u64) -> Result<GoldenRun, FaultError> {
        self.golden_with_checkpoints(cycles, stall_cycles, &[])
    }

    /// Executes the fault-free golden run and keeps a checkpoint at each
    /// cycle of `at` below `cycles` (the members' first injections),
    /// unless a device cannot save its state.
    fn golden_with_checkpoints(
        &mut self,
        cycles: u64,
        stall_cycles: u64,
        at: &[u64],
    ) -> Result<GoldenRun, FaultError> {
        check_design_regs(self.td)?;
        let (sim, devices) = ((self.make_sim)(), (self.make_devices)());
        golden_run(self.td, Ok(sim), devices, cycles, stall_cycles, at)
    }

    /// Runs one injection schedule and classifies it against `golden`,
    /// starting at `golden`'s latest checkpoint at or before the first
    /// injection.
    ///
    /// # Panics
    ///
    /// Panics if a checkpoint does not restore onto a fresh simulator and
    /// devices from the engine's factories (a factory or device bug).
    pub fn classify_injections(
        &mut self,
        injections: &[Injection],
        cycles: u64,
        stall_cycles: u64,
        golden: &GoldenRun,
    ) -> Outcome {
        let (mut sim, mut devices) = ((self.make_sim)(), (self.make_devices)());
        let mut armed = Watchdog::stall_only(stall_cycles).arm();
        let start = golden.checkpoint_before(first_injection(injections, cycles));
        start_member(start, &mut *sim, &mut devices, &mut armed)
            .unwrap_or_else(|e| panic!("cannot start a member at its golden checkpoint: {e}"));
        member_run(golden, sim, devices, cycles, injections, armed, None)
            .unwrap_or_else(|trip| unreachable!("stall-only watchdog tripped on wall time: {trip}"))
    }

    /// Runs a full campaign: golden run, then every member, classified.
    ///
    /// # Errors
    ///
    /// Only from setup ([`FaultError`]); members always classify (hangs are
    /// caught by the watchdog, never escape).
    pub fn run_campaign(&mut self, cfg: &CampaignConfig) -> Result<CampaignReport, FaultError> {
        let at = first_injections(self.td, cfg);
        let golden = self.golden_with_checkpoints(cfg.cycles, cfg.stall_cycles, &at)?;
        let mut members = Vec::with_capacity(cfg.members);
        for index in 0..cfg.members {
            let injections = draw_schedule(self.td, cfg, index);
            let outcome =
                self.classify_injections(&injections, cfg.cycles, cfg.stall_cycles, &golden);
            members.push(MemberReport {
                index,
                injections,
                outcome,
                detail: None,
            });
        }
        Ok(CampaignReport {
            design: self.td.name.clone(),
            reg_names: self.td.regs.iter().map(|r| r.name.clone()).collect(),
            config: cfg.clone(),
            golden_digest: golden.digest(),
            members,
        })
    }

    /// Shrinks a failing member to a minimal reproducer: the first single
    /// injection from its schedule that alone reproduces the same outcome
    /// class. Returns `None` if no single injection does (the failure
    /// needs the combination) or the member was masked.
    pub fn shrink(
        &mut self,
        member: &MemberReport,
        cycles: u64,
        stall_cycles: u64,
        golden: &GoldenRun,
    ) -> Option<Injection> {
        if !member.outcome.is_failure() {
            return None;
        }
        if let [only] = member.injections.as_slice() {
            return Some(*only);
        }
        member.injections.iter().copied().find(|&inj| {
            self.classify_injections(&[inj], cycles, stall_cycles, golden)
                .label()
                == member.outcome.label()
        })
    }
}

/// The cycle of the earliest injection, or `cycles` for none: a member
/// repeats the golden run up to there.
fn first_injection(injections: &[Injection], cycles: u64) -> u64 {
    injections.iter().map(|i| i.cycle).min().unwrap_or(cycles)
}

/// Every campaign member's first-injection cycle, in member order: where
/// the golden run keeps its checkpoints.
fn first_injections(td: &TDesign, cfg: &CampaignConfig) -> Vec<u64> {
    (0..cfg.members)
        .map(|index| first_injection(&draw_schedule(td, cfg, index), cfg.cycles))
        .collect()
}

/// Draws member `index`'s injection schedule from the campaign seed — a
/// pure function of `(cfg.seed, index)` and the design's register shapes,
/// which is what lets any member be reproduced in isolation.
pub fn draw_schedule(td: &TDesign, cfg: &CampaignConfig, index: usize) -> Vec<Injection> {
    let mut rng =
        SplitMix64::new(cfg.seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1));
    let count = 1 + rng.below(cfg.max_injections.max(1) as u64) as usize;
    let mut injections: Vec<Injection> = (0..count)
        .map(|_| {
            let reg = rng.below(td.regs.len() as u64) as usize;
            let width = td.regs[reg].width;
            Injection {
                cycle: rng.below(cfg.cycles.max(1)),
                reg: RegId(reg as u32),
                bit: rng.below(width as u64) as u32,
            }
        })
        .collect();
    injections.sort();
    injections.dedup();
    injections
}

/// Thread-safe simulator/device factories, for campaigns whose members run
/// on a worker pool. Unlike [`FaultEngine`]'s `FnMut` factories these are
/// `Fn + Sync` — invoked concurrently from every worker — and the simulator
/// factory is fallible so a build error becomes a classified result
/// instead of a `panic!`/`exit` somewhere inside a worker.
pub struct ParallelFactories<'a> {
    /// The design under test.
    pub td: &'a TDesign,
    /// Produces a fresh simulator at reset state.
    pub make_sim: &'a (dyn Fn() -> Result<Box<dyn SimBackend>, String> + Sync),
    /// Produces the matching device set (must be deterministic — campaign
    /// reproducibility depends on it).
    pub make_devices: &'a (dyn Fn() -> Vec<Box<dyn Device>> + Sync),
}

/// Execution policy for [`run_campaign_parallel`]: worker-pool shape plus
/// the per-member wall-clock deadline.
#[derive(Debug, Clone, Default)]
pub struct ParallelOptions {
    /// Worker count, retry budget, and backoff.
    pub runner: RunnerConfig,
    /// Per-member wall-clock deadline. Trips are treated as *transient*
    /// (the machine was slow, not the design): retried per
    /// [`RunnerConfig::max_retries`], and classified [`Outcome::Flaky`]
    /// only once retries are exhausted. `None` (the default) keeps
    /// classification fully machine-independent.
    pub wall_budget: Option<Duration>,
}

/// The watchdog every member of a worker-pool campaign runs under: the
/// campaign's stall budget and the per-member wall deadline.
fn member_watchdog(cfg: &CampaignConfig, opts: &ParallelOptions) -> Watchdog {
    Watchdog {
        max_cycles: None,
        stall_cycles: Some(cfg.stall_cycles),
        wall_budget: opts.wall_budget,
    }
}

/// Executes the fault-free golden run on a freshly built simulator (or
/// reports why it could not be built) and fresh devices, keeping a
/// checkpoint at each distinct cycle of `at` below `cycles`. A device
/// state that did not change since the previous checkpoint shares that
/// checkpoint's allocation. The first device whose
/// [`Device::save_state`] returns `None` drops every checkpoint: members
/// then start at reset.
fn golden_run(
    td: &TDesign,
    sim: Result<Box<dyn SimBackend>, String>,
    mut devices: Vec<Box<dyn Device>>,
    cycles: u64,
    stall_cycles: u64,
    at: &[u64],
) -> Result<GoldenRun, FaultError> {
    let mut sim = sim.map_err(FaultError::Setup)?;
    let mut at: Vec<u64> = at.iter().copied().filter(|&c| c < cycles).collect();
    at.sort_unstable();
    at.dedup();
    let mut fp = CommitFingerprint::default();
    let mut armed = Watchdog::stall_only(stall_cycles).arm();
    let mut checkpoints: Vec<Checkpoint> = Vec::with_capacity(at.len());
    for c in at {
        let ncycles = c - sim.cycle_count();
        run_watchdogged(&mut *sim, &mut devices, ncycles, &[], &mut armed, Some(&mut fp))
            .map_err(FaultError::GoldenHang)?;
        let Some(states): Option<Vec<_>> = devices.iter().map(|d| d.save_state()).collect() else {
            checkpoints.clear();
            break;
        };
        let prev = checkpoints.last().map(|c| c.devices.as_slice()).unwrap_or_default();
        let devices = states
            .iter()
            .enumerate()
            .map(|(i, state)| match prev.get(i) {
                Some(old) if **old == **state => Arc::clone(old),
                _ => Arc::from(state.as_slice()),
            })
            .collect();
        checkpoints.push(Checkpoint {
            snapshot: sim.snapshot(),
            devices,
            stall_count: armed.stall_count(),
        });
    }
    let remaining = cycles - sim.cycle_count();
    run_watchdogged(&mut *sim, &mut devices, remaining, &[], &mut armed, Some(&mut fp))
        .map_err(FaultError::GoldenHang)?;
    Ok(GoldenRun {
        fps: fp.per_cycle,
        final_regs: read_final_regs(td.regs.len(), &mut *sim),
        checkpoints,
    })
}

/// Puts a fresh member's simulator, devices and stall watchdog at `start`;
/// `None` is reset, where nothing needs restoring.
///
/// # Errors
///
/// A message when the snapshot or a device state does not load.
fn start_member(
    start: Option<&Checkpoint>,
    sim: &mut dyn SimBackend,
    devices: &mut [Box<dyn Device>],
    armed: &mut ArmedWatchdog,
) -> Result<(), String> {
    let Some(cp) = start else {
        return Ok(());
    };
    sim.restore(&cp.snapshot).map_err(|e| e.to_string())?;
    load_devices(cp, devices)?;
    armed.set_stall_count(cp.stall_count);
    Ok(())
}

/// Loads a checkpoint's device states into fresh devices.
fn load_devices(cp: &Checkpoint, devices: &mut [Box<dyn Device>]) -> Result<(), String> {
    if devices.len() != cp.devices.len() {
        return Err(format!(
            "{} devices, but the checkpoint saved {}",
            devices.len(),
            cp.devices.len()
        ));
    }
    for (d, state) in devices.iter_mut().zip(&cp.devices) {
        d.load_state(state)?;
    }
    Ok(())
}

/// The one scalar member loop: runs a campaign member on `sim` from the
/// cycle it is at to `cycles` and classifies it against `golden`.
///
/// A member starts here at its golden checkpoint ([`start_member`]): a
/// fresh simulator, devices and watchdog restored to it (at reset:
/// nothing restored), with `diverged` `None`, since up to there it
/// committed what the golden run did. It also starts here mid-run when a
/// batch hands one of its lanes over: then `sim` holds the lane's
/// restored state, `devices` the lane's devices, `armed` the lane's stall
/// count and the chunk's wall clock, and `diverged` the cycle the lane's
/// fingerprint first differed from the golden run's. A member's wall
/// budget runs from its start, that is from its first injection. A
/// wall-clock trip depends on the machine, not the design, so it is
/// returned for the caller to retry instead of being classified.
fn member_run(
    golden: &GoldenRun,
    mut sim: Box<dyn SimBackend>,
    mut devices: Vec<Box<dyn Device>>,
    cycles: u64,
    injections: &[Injection],
    mut armed: ArmedWatchdog,
    mut diverged: Option<u64>,
) -> Result<Outcome, WatchdogTrip> {
    // Classification reads only the first cycle whose fingerprint differs
    // from the golden run's, so each cycle is observed until then (and
    // only while the golden run has a fingerprint to compare), and the
    // rest runs unobserved, which is cheaper on every dispatch.
    let observed = cycles.min(golden.fps.len() as u64);
    let mut fp = CommitFingerprint::default();
    let mut run = Ok(());
    while run.is_ok() && diverged.is_none() && sim.cycle_count() < observed {
        let cycle = sim.cycle_count();
        run = run_watchdogged(&mut *sim, &mut devices, 1, injections, &mut armed, Some(&mut fp));
        if fp.per_cycle.pop().is_some_and(|f| f != golden.fps[cycle as usize]) {
            diverged = Some(cycle);
        }
    }
    if run.is_ok() {
        let remaining = cycles - sim.cycle_count();
        run = run_watchdogged(&mut *sim, &mut devices, remaining, injections, &mut armed, None);
    }
    let hang = match run {
        Ok(()) => None,
        Err(trip) if trip.kind == TripKind::Wall => return Err(trip),
        Err(trip) => Some(trip.cycle),
    };
    let final_regs = read_final_regs(golden.final_regs.len(), &mut *sim);
    Ok(decide(golden, diverged, &final_regs, hang))
}

/// The worker-pool campaigns' golden run, contained, with a checkpoint
/// at every member's first injection.
fn campaign_golden(env: &ParallelFactories<'_>, cfg: &CampaignConfig) -> Result<GoldenRun, FaultError> {
    check_design_regs(env.td)?;
    let at = first_injections(env.td, cfg);
    contain(|| {
        golden_run(env.td, (env.make_sim)(), (env.make_devices)(), cfg.cycles, cfg.stall_cycles, &at)
    })
    .map_err(FaultError::GoldenPanic)?
}

/// Runs a campaign with members fanned out over a crash-isolated worker
/// pool ([`crate::runner`]). Returns the report plus the runner's aggregate
/// stats (panics contained, retries spent).
///
/// Guarantees, regardless of `opts.runner.jobs`:
///
/// * every member is reported, in index order — a member that panics is
///   contained and classified [`Outcome::Panic`] (message in
///   [`MemberReport::detail`]) instead of taking down the run;
/// * a member whose wall deadline trips is retried with backoff and
///   classified [`Outcome::Flaky`] only if it keeps tripping —
///   deterministic stall/cycle trips classify [`Outcome::Hang`] as always
///   and are never retried;
/// * the report (and [`CampaignReport::summary`]) is **byte-identical**
///   across worker counts: outcomes are pure functions of `(seed, index)`
///   and ordering is restored after the fan-out.
///
/// Each member starts at the golden run's checkpoint at its first
/// injection (see [`GoldenRun`]), so its wall deadline runs from there.
///
/// # Errors
///
/// Only from setup: the golden run hanging ([`FaultError::GoldenHang`]),
/// panicking ([`FaultError::GoldenPanic`]), or a simulator build failure
/// ([`FaultError::Setup`]).
pub fn run_campaign_parallel(
    env: &ParallelFactories<'_>,
    cfg: &CampaignConfig,
    opts: &ParallelOptions,
    progress: Option<&mut dyn FnMut(JobUpdate)>,
) -> Result<(CampaignReport, RunnerStats), FaultError> {
    let golden = campaign_golden(env, cfg)?;
    let watchdog = member_watchdog(cfg, opts);
    let job = |index: usize| -> Result<Outcome, JobError> {
        let mut sim = (env.make_sim)().map_err(JobError::Fatal)?;
        let mut devices = (env.make_devices)();
        let injections = draw_schedule(env.td, cfg, index);
        let mut armed = watchdog.arm();
        let start = golden.checkpoint_before(first_injection(&injections, cfg.cycles));
        start_member(start, &mut *sim, &mut devices, &mut armed).map_err(JobError::Fatal)?;
        member_run(&golden, sim, devices, cfg.cycles, &injections, armed, None)
            .map_err(|trip| JobError::Transient(trip.to_string()))
    };

    let (reports, stats) = runner::run_jobs(cfg.members, &opts.runner, job, progress);
    let members = reports
        .into_iter()
        .map(|r| {
            let injections = draw_schedule(env.td, cfg, r.index);
            let (outcome, detail) = match r.result {
                Ok(outcome) => (outcome, None),
                Err(JobError::Panic(msg)) => (Outcome::Panic, Some(msg)),
                Err(JobError::Transient(msg)) => (Outcome::Flaky, Some(msg)),
                Err(JobError::Fatal(msg)) => (Outcome::Panic, Some(msg)),
            };
            MemberReport {
                index: r.index,
                injections,
                outcome,
                detail,
            }
        })
        .collect();
    let report = CampaignReport {
        design: env.td.name.clone(),
        reg_names: env.td.regs.iter().map(|r| r.name.clone()).collect(),
        config: cfg.clone(),
        golden_digest: golden.digest(),
        members,
    };
    Ok((report, stats))
}

/// A thread-safe factory producing batched backends for
/// [`run_campaign_batched`]: called with the lane count and expected to
/// return a fresh batch at reset state.
pub type BatchFactory<'a> = &'a (dyn Fn(usize) -> Result<Box<dyn BatchBackend>, String> + Sync);

/// A scalar simulator from `env.make_sim`, restored to one batch lane's
/// registers and the batch's cycle count.
fn lane_sim(
    env: &ParallelFactories<'_>,
    batch: &dyn BatchBackend,
    lane: usize,
) -> Result<Box<dyn SimBackend>, JobError> {
    let mut sim = (env.make_sim)().map_err(JobError::Fatal)?;
    let mut snap = sim.snapshot();
    snap.cycles = batch.cycle_count();
    for (i, r) in snap.regs.iter_mut().enumerate() {
        *r = Bits::new(r.width(), batch.lane_get64(lane, RegId(i as u32)));
    }
    sim.restore(&snap).map_err(|e| JobError::Fatal(e.to_string()))?;
    Ok(sim)
}

/// Runs one chunk of consecutive campaign members as lanes of a single
/// batched backend, replicating [`run_watchdogged`]'s per-cycle ordering
/// per lane (device ticks, then injections, then the cycle) so each lane's
/// observables match a scalar member run exactly. Returns the outcomes in
/// member order.
///
/// Lanes go to the members in order of their start, the golden
/// checkpoint at or before their first injection (reset without one),
/// so the lanes
/// in the batch stay packed at its low end. A lane starts *dormant*:
/// retired ([`BatchBackend::retire_lane`]) before cycle 0, with no devices
/// ticked and nothing recorded. At its start cycle, before that cycle's
/// device ticks, it is filled: its registers from the checkpoint through
/// [`BatchBackend::lane_set64`], its devices built and loaded with the
/// checkpoint's states, its stall count from the checkpoint. It then
/// rejoins the batch ([`BatchBackend::admit_lane`]).
///
/// A lane stays in the batch only while it commits what the golden run
/// committed, cycle for cycle: those lanes share control flow, so
/// lock-step runs them cheaply, and a lane's fingerprint prefix is the
/// golden one. A lane leaves the batch, and is retired from it, when
///
/// * its stall watchdog trips: it classifies `hang` at once;
/// * its commit fingerprint first differs from the golden run's: a scalar
///   simulator from `env.make_sim`, restored to the lane's registers and
///   cycle count, finishes the run through [`member_run`] with the lane's
///   devices and stall count, this cycle as its first divergence, on the
///   chunk's wall clock, so a wall trip there still fails the whole
///   chunk.
///
/// The chunk ends when every lane has left or the cycles run out; the
/// lanes still in the batch then classify from their final registers.
fn run_batched_chunk(
    env: &ParallelFactories<'_>,
    make_batch: BatchFactory<'_>,
    cfg: &CampaignConfig,
    watchdog: &Watchdog,
    golden: &GoldenRun,
    first: usize,
    lanes: usize,
) -> Result<Vec<Outcome>, JobError> {
    let mut batch = make_batch(lanes).map_err(JobError::Fatal)?;
    let schedules: Vec<Vec<Injection>> =
        (0..lanes).map(|m| draw_schedule(env.td, cfg, first + m)).collect();
    // Lane `l` runs member `first + order[l].0`, starting at `order[l].1`.
    let mut order: Vec<(usize, Option<&Checkpoint>)> = (0..lanes)
        .map(|m| (m, golden.checkpoint_before(first_injection(&schedules[m], cfg.cycles))))
        .collect();
    order.sort_by_key(|&(_, start)| start.map_or(0, Checkpoint::cycle));
    let mut devices: Vec<Vec<Box<dyn Device>>> = (0..lanes).map(|_| Vec::new()).collect();
    let mut stalls: Vec<ArmedWatchdog> =
        (0..lanes).map(|_| Watchdog::stall_only(cfg.stall_cycles).arm()).collect();
    let mut outcomes: Vec<Option<Outcome>> = vec![None; lanes];
    // Lanes `[0, admitted)` have started; those without an outcome are live.
    let mut admitted = 0;
    for l in 0..lanes {
        batch.retire_lane(l);
    }
    let clock = watchdog.arm();
    for _ in 0..cfg.cycles {
        if outcomes.iter().all(Option::is_some) {
            break;
        }
        let cycle = batch.cycle_count();
        while admitted < lanes && order[admitted].1.map_or(0, Checkpoint::cycle) == cycle {
            let l = admitted;
            devices[l] = (env.make_devices)();
            if let Some(cp) = order[l].1 {
                for (i, r) in cp.snapshot.regs.iter().enumerate() {
                    batch.lane_set64(l, RegId(i as u32), r.low_u64());
                }
                load_devices(cp, &mut devices[l]).map_err(JobError::Fatal)?;
                stalls[l].set_stall_count(cp.stall_count);
            }
            batch.admit_lane(l);
            admitted += 1;
        }
        for l in (0..admitted).filter(|&l| outcomes[l].is_none()) {
            let mut access = LaneAccess::new(&mut *batch, l);
            for d in devices[l].iter_mut() {
                d.tick(cycle, &mut access);
            }
            for inj in schedules[order[l].0].iter().filter(|i| i.cycle == cycle) {
                let old = access.get64(inj.reg);
                access.set64(inj.reg, old ^ (1u64 << inj.bit));
            }
        }
        batch.cycle().map_err(JobError::Fatal)?;
        let done = batch.cycle_count();
        for l in 0..admitted {
            if outcomes[l].is_some() {
                continue;
            }
            let commits = batch.lane_commits(l);
            let fp = CommitFingerprint::fold(commits.iter().map(|&r| r as usize));
            let outcome = if let Some(trip) = stalls[l].observe(done, commits.len() as u64) {
                Outcome::Hang { cycle: trip.cycle }
            } else if fp != golden.fps[cycle as usize] {
                let sim = lane_sim(env, &*batch, l)?;
                let mut armed = watchdog.arm();
                armed.start = clock.start;
                armed.set_stall_count(stalls[l].stall_count());
                let lane_devices = std::mem::take(&mut devices[l]);
                let injections = &schedules[order[l].0];
                member_run(golden, sim, lane_devices, cfg.cycles, injections, armed, Some(cycle))
                    .map_err(|trip| JobError::Transient(trip.to_string()))?
            } else {
                continue;
            };
            outcomes[l] = Some(outcome);
            batch.retire_lane(l);
        }
        if let Some(budget) = watchdog.wall_budget {
            if clock.wall_elapsed() > budget {
                return Err(JobError::Transient(format!(
                    "watchdog trip at cycle {done}: wall-clock budget of {budget:?} exhausted"
                )));
            }
        }
    }
    let mut by_member = vec![Outcome::Masked; lanes];
    for (l, &(m, _)) in order.iter().enumerate() {
        by_member[m] = match outcomes[l] {
            Some(outcome) => outcome,
            None => {
                let regs: Vec<u64> =
                    (0..env.td.regs.len()).map(|i| batch.lane_get64(l, RegId(i as u32))).collect();
                decide(golden, None, &regs, None)
            }
        };
    }
    Ok(by_member)
}

/// Runs a campaign with members packed into lock-step batches, one batch
/// per worker job. The golden run stays scalar (it is one run; batching
/// buys nothing) and keeps a checkpoint at every member's first
/// injection (see [`GoldenRun`]). Each chunk of `width` consecutive
/// members becomes the lanes of one batched backend with per-lane
/// devices, injections and stall watchdogs.
///
/// A member joins the batch at its first injection, filled from its
/// checkpoint (its lane is dormant until then), and stays a lane only
/// while the batch can run it cheaply, that is while its commit stream
/// follows the golden run's. A member whose stall watchdog trips is
/// retired at once; a member whose commit fingerprint first differs from
/// the golden run's is retired and finished on a scalar simulator from
/// `env.make_sim`, restored from its lane (see `run_batched_chunk`). So
/// lock-step carries the masked and SDC members from their first
/// injection on, nobody runs the golden prefix again, and the diverging
/// rest runs scalar.
///
/// The report is **byte-identical** to [`run_campaign_parallel`]'s (and the
/// sequential [`FaultEngine::run_campaign`]'s) for the same configuration:
/// batching is an execution strategy, not an observable. The only caveats
/// are the machine-dependent classes: a wall-budget trip or a contained
/// panic applies to the whole chunk (all of its members retry together or
/// report [`Outcome::Panic`] together), because the chunk shares one
/// backend and one wall clock, also for the members it hands to a scalar
/// simulator.
///
/// # Errors
///
/// Only from setup — the same conditions as [`run_campaign_parallel`].
pub fn run_campaign_batched(
    env: &ParallelFactories<'_>,
    make_batch: BatchFactory<'_>,
    width: usize,
    cfg: &CampaignConfig,
    opts: &ParallelOptions,
    progress: Option<&mut dyn FnMut(JobUpdate)>,
) -> Result<(CampaignReport, RunnerStats), FaultError> {
    let width = width.max(1);
    let golden = campaign_golden(env, cfg)?;
    let watchdog = member_watchdog(cfg, opts);
    let nchunks = cfg.members.div_ceil(width);
    let job = |chunk: usize| -> Result<Vec<Outcome>, JobError> {
        let first = chunk * width;
        let lanes = width.min(cfg.members - first);
        run_batched_chunk(env, make_batch, cfg, &watchdog, &golden, first, lanes)
    };
    let (reports, stats) = runner::run_jobs(nchunks, &opts.runner, job, progress);

    let mut members = Vec::with_capacity(cfg.members);
    for r in reports {
        let first = r.index * width;
        let lanes = width.min(cfg.members - first);
        match r.result {
            Ok(outcomes) => {
                for (l, outcome) in outcomes.into_iter().enumerate().take(lanes) {
                    members.push(MemberReport {
                        index: first + l,
                        injections: draw_schedule(env.td, cfg, first + l),
                        outcome,
                        detail: None,
                    });
                }
            }
            Err(e) => {
                let (outcome, msg) = match e {
                    JobError::Panic(m) => (Outcome::Panic, m),
                    JobError::Transient(m) => (Outcome::Flaky, m),
                    JobError::Fatal(m) => (Outcome::Panic, m),
                };
                for l in 0..lanes {
                    members.push(MemberReport {
                        index: first + l,
                        injections: draw_schedule(env.td, cfg, first + l),
                        outcome,
                        detail: Some(msg.clone()),
                    });
                }
            }
        }
    }
    let report = CampaignReport {
        design: env.td.name.clone(),
        reg_names: env.td.regs.iter().map(|r| r.name.clone()).collect(),
        config: cfg.clone(),
        golden_digest: golden.digest(),
        members,
    };
    Ok((report, stats))
}

/// A finished campaign: configuration, golden digest, and every member's
/// schedule and outcome. Fully deterministic for a given seed and
/// configuration.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Design name.
    pub design: String,
    /// Register names (flattened space), for display.
    pub reg_names: Vec<String>,
    /// The configuration the campaign ran under.
    pub config: CampaignConfig,
    /// Digest of the golden commit stream.
    pub golden_digest: u64,
    /// Every member, in index order.
    pub members: Vec<MemberReport>,
}

impl CampaignReport {
    /// `[masked, sdc, divergence, hang, panic, flaky]` counts, in
    /// [`OUTCOME_CLASSES`] order.
    pub fn counts(&self) -> [usize; 6] {
        let mut counts = [0usize; 6];
        for m in &self.members {
            let i = match m.outcome {
                Outcome::Masked => 0,
                Outcome::Sdc => 1,
                Outcome::Divergence { .. } => 2,
                Outcome::Hang { .. } => 3,
                Outcome::Panic => 4,
                Outcome::Flaky => 5,
            };
            counts[i] += 1;
        }
        counts
    }

    /// Members whose outcome was not masked.
    pub fn failing(&self) -> impl Iterator<Item = &MemberReport> {
        self.members.iter().filter(|m| m.outcome.is_failure())
    }

    fn spec_with_names(&self, inj: &Injection) -> String {
        let name = self
            .reg_names
            .get(inj.reg.0 as usize)
            .map(String::as_str)
            .unwrap_or("?");
        format!("{}:{}:{}", inj.cycle, name, inj.bit)
    }

    /// Renders the deterministic human-readable summary the CLI prints.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fault campaign: design={} seed={:#x} members={} cycles={} max_injections={} stall={}",
            self.design,
            self.config.seed,
            self.config.members,
            self.config.cycles,
            self.config.max_injections,
            self.config.stall_cycles,
        );
        let _ = writeln!(s, "golden commit digest: {:#018x}", self.golden_digest);
        let counts = self.counts();
        let total = self.members.len().max(1);
        for (label, n) in OUTCOME_CLASSES.iter().zip(counts) {
            let _ = writeln!(
                s,
                "  {label:<10} {n:>4}  ({:.1}%)",
                n as f64 * 100.0 / total as f64
            );
        }
        let failing: Vec<&MemberReport> = self.failing().collect();
        let _ = writeln!(s, "failing members: {}", failing.len());
        for m in failing {
            let specs: Vec<String> = m.injections.iter().map(|i| self.spec_with_names(i)).collect();
            let detail = match &m.detail {
                Some(d) => format!("  ({d})"),
                None => String::new(),
            };
            let _ = writeln!(
                s,
                "  member {:>3}: {:<14} inject {}{detail}",
                m.index,
                m.outcome.to_token(),
                specs.join(" ")
            );
        }
        s
    }

    /// Converts the campaign into a replay log carrying only the failing
    /// members (the ones worth reproducing), plus the run configuration
    /// needed to rebuild the environment.
    pub fn to_replay_log(&self, backend: &str, level: u32, program: &str) -> ReplayLog {
        ReplayLog {
            design: self.design.clone(),
            backend: backend.to_string(),
            level,
            program: program.to_string(),
            cycles: self.config.cycles,
            seed: self.config.seed,
            stall_cycles: self.config.stall_cycles,
            golden_digest: self.golden_digest,
            // The line-based log format carries only what a replay needs to
            // re-derive the member; free-text detail stays out of it.
            members: self
                .failing()
                .cloned()
                .map(|mut m| {
                    m.detail = None;
                    m
                })
                .collect(),
        }
    }
}

/// A recorded set of failing campaign members plus everything needed to
/// re-create their runs: design, backend, workload, cycle count, seed, and
/// the golden commit digest (verified on replay, so a log is never
/// silently replayed against a different configuration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayLog {
    /// Design name.
    pub design: String,
    /// Backend the campaign ran on.
    pub backend: String,
    /// Cuttlesim optimization level (ignored by other backends).
    pub level: u32,
    /// Workload spec (empty when the design takes none).
    pub program: String,
    /// Cycles per run.
    pub cycles: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Hang-detection threshold.
    pub stall_cycles: u64,
    /// Digest of the golden commit stream.
    pub golden_digest: u64,
    /// The failing members.
    pub members: Vec<MemberReport>,
}

impl ReplayLog {
    /// Serializes to the line-based `koika-replay v1` text format.
    pub fn to_text(&self) -> String {
        let mut s = String::from("koika-replay v1\n");
        let _ = writeln!(s, "design {}", self.design);
        let _ = writeln!(s, "backend {}", self.backend);
        let _ = writeln!(s, "level {}", self.level);
        let _ = writeln!(s, "program {}", self.program);
        let _ = writeln!(s, "cycles {}", self.cycles);
        let _ = writeln!(s, "seed {:#x}", self.seed);
        let _ = writeln!(s, "stall {}", self.stall_cycles);
        let _ = writeln!(s, "golden-digest {:#018x}", self.golden_digest);
        for m in &self.members {
            let specs: Vec<String> = m.injections.iter().map(|i| i.to_string()).collect();
            let _ = writeln!(
                s,
                "member {} {} {}",
                m.index,
                m.outcome.to_token(),
                specs.join(" ")
            );
        }
        s
    }

    /// Parses the text format produced by [`ReplayLog::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn from_text(text: &str) -> Result<ReplayLog, String> {
        let mut lines = text.lines();
        if lines.next() != Some("koika-replay v1") {
            return Err("not a koika-replay v1 file".into());
        }
        let mut log = ReplayLog {
            design: String::new(),
            backend: String::new(),
            level: 6,
            program: String::new(),
            cycles: 0,
            seed: 0,
            stall_cycles: 256,
            golden_digest: 0,
            members: Vec::new(),
        };
        fn parse_u64(v: &str, what: &str) -> Result<u64, String> {
            let v = v.trim();
            let parsed = match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            };
            parsed.map_err(|_| format!("bad {what} value {v:?}"))
        }
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "design" => log.design = rest.to_string(),
                "backend" => log.backend = rest.to_string(),
                "program" => log.program = rest.to_string(),
                "level" => log.level = parse_u64(rest, "level")? as u32,
                "cycles" => log.cycles = parse_u64(rest, "cycles")?,
                "seed" => log.seed = parse_u64(rest, "seed")?,
                "stall" => log.stall_cycles = parse_u64(rest, "stall")?,
                "golden-digest" => log.golden_digest = parse_u64(rest, "golden-digest")?,
                "member" => {
                    let mut parts = rest.split_whitespace();
                    let index = parse_u64(
                        parts.next().ok_or("member line missing index")?,
                        "member index",
                    )? as usize;
                    let outcome = Outcome::from_token(
                        parts.next().ok_or("member line missing outcome")?,
                    )?;
                    let mut injections = Vec::new();
                    for spec in parts {
                        let fields: Vec<&str> = spec.split(':').collect();
                        let [c, r, b] = fields.as_slice() else {
                            return Err(format!("bad injection {spec:?} in member {index}"));
                        };
                        injections.push(Injection {
                            cycle: parse_u64(c, "injection cycle")?,
                            reg: RegId(parse_u64(r, "injection register")? as u32),
                            bit: parse_u64(b, "injection bit")? as u32,
                        });
                    }
                    if injections.is_empty() {
                        return Err(format!("member {index} has no injections"));
                    }
                    log.members.push(MemberReport {
                        index,
                        injections,
                        outcome,
                        detail: None,
                    });
                }
                other => return Err(format!("unknown replay key {other:?}")),
            }
        }
        if log.design.is_empty() || log.cycles == 0 {
            return Err("replay log missing design or cycles".into());
        }
        Ok(log)
    }
}

/// One member's replay verdict — see [`replay_campaign`].
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// The replayed member (with its recorded outcome).
    pub member: MemberReport,
    /// The outcome observed on replay.
    pub observed: Outcome,
    /// True when the observed class matches the recorded class.
    pub reproduced: bool,
    /// Minimal single-injection reproducer, when one exists.
    pub minimal: Option<Injection>,
}

/// Replays every member of a log: re-runs its recorded injection schedule,
/// verifies the outcome class reproduces, and shrinks it to a minimal
/// single-injection reproducer.
///
/// # Errors
///
/// Fails if the golden run cannot be built, or its commit digest does not
/// match the log (the environment differs from the recording).
pub fn replay_campaign(
    engine: &mut FaultEngine<'_>,
    log: &ReplayLog,
) -> Result<Vec<ReplayResult>, FaultError> {
    for member in &log.members {
        validate_injections(engine.td, &member.injections)?;
    }
    let at: Vec<u64> =
        log.members.iter().map(|m| first_injection(&m.injections, log.cycles)).collect();
    let golden = engine.golden_with_checkpoints(log.cycles, log.stall_cycles, &at)?;
    if golden.digest() != log.golden_digest {
        return Err(FaultError::DigestMismatch {
            recorded: log.golden_digest,
            observed: golden.digest(),
        });
    }
    let mut results = Vec::with_capacity(log.members.len());
    for member in &log.members {
        let observed =
            engine.classify_injections(&member.injections, log.cycles, log.stall_cycles, &golden);
        let reproduced = observed.label() == member.outcome.label();
        let minimal = if reproduced {
            engine.shrink(member, log.cycles, log.stall_cycles, &golden)
        } else {
            None
        };
        results.push(ReplayResult {
            member: member.clone(),
            observed,
            reproduced,
            minimal,
        });
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;
    use crate::check::check;
    use crate::design::DesignBuilder;
    use crate::interp::Interp;

    fn counter_design() -> TDesign {
        let mut b = DesignBuilder::new("cnt");
        b.reg("n", 8, 0u64);
        b.reg("acc", 16, 0u64);
        b.rule("inc", vec![wr0("n", rd0("n").add(k(8, 1)))]);
        b.rule(
            "accum",
            vec![wr0("acc", rd0("acc").add(rd1("n").zext(16)))],
        );
        b.schedule(["inc", "accum"]);
        check(&b.build()).unwrap()
    }

    fn engine_test<R>(td: &TDesign, f: impl FnOnce(&mut FaultEngine<'_>) -> R) -> R {
        let td2 = td.clone();
        let mut make_sim: Box<dyn FnMut() -> Box<dyn SimBackend>> =
            Box::new(move || Box::new(Interp::new(&td2)) as Box<dyn SimBackend>);
        let mut make_devices: Box<dyn FnMut() -> Vec<Box<dyn Device>>> = Box::new(Vec::new);
        let mut engine = FaultEngine {
            td,
            make_sim: &mut *make_sim,
            make_devices: &mut *make_devices,
        };
        f(&mut engine)
    }

    #[test]
    fn golden_run_is_reproducible() {
        let td = counter_design();
        engine_test(&td, |e| {
            let a = e.golden(32, 16).unwrap();
            let b = e.golden(32, 16).unwrap();
            assert_eq!(a.fps, b.fps);
            assert_eq!(a.final_regs, b.final_regs);
            assert_eq!(a.digest(), b.digest());
        });
    }

    #[test]
    fn classification_covers_masked_and_sdc() {
        let td = counter_design();
        engine_test(&td, |e| {
            let golden = e.golden(32, 16).unwrap();
            // Flipping acc changes final data but never the commit stream.
            let sdc = Injection {
                cycle: 5,
                reg: td.reg_id("acc"),
                bit: 0,
            };
            assert_eq!(
                e.classify_injections(&[sdc], 32, 16, &golden),
                Outcome::Sdc
            );
            // Flip the same bit twice: the second flip undoes the first
            // before anything downstream could differ.
            let undo = Injection { cycle: 5, reg: td.reg_id("acc"), bit: 9 };
            let redo = Injection { cycle: 5, reg: td.reg_id("acc"), bit: 9 };
            let _ = (undo, redo); // same-cycle double flip is dedup'd; use distant pair
            let flip = Injection { cycle: 31, reg: td.reg_id("n"), bit: 7 };
            // Flipping n's top bit on the last cycle: the flip happens
            // before cycle 31 executes, so acc (and n) end up different.
            assert!(e
                .classify_injections(&[flip], 32, 16, &golden)
                .is_failure());
        });
    }

    #[test]
    fn watchdog_trips_on_stuck_design() {
        let mut b = DesignBuilder::new("stuck");
        b.reg("go", 1, 0u64);
        b.reg("n", 8, 0u64);
        b.rule(
            "inc",
            vec![guard(rd0("go").eq(k(1, 1))), wr0("n", rd0("n").add(k(8, 1)))],
        );
        let td = check(&b.build()).unwrap();
        let mut sim = Interp::new(&td);
        let mut devices: Vec<Box<dyn Device>> = Vec::new();
        let err = run_watchdogged(
            &mut sim,
            &mut devices,
            1000,
            &[],
            &mut Watchdog::stall_only(8).arm(),
            None,
        )
        .unwrap_err();
        assert_eq!(err.cycle, 8);
        assert!(err.reason.contains("no rule committed"));
        // And a campaign on it refuses to run: the golden run itself hangs.
        engine_test(&td, |e| {
            let err = e.run_campaign(&CampaignConfig {
                cycles: 100,
                members: 2,
                stall_cycles: 8,
                ..CampaignConfig::default()
            });
            assert!(matches!(err, Err(FaultError::GoldenHang(_))));
        });
    }

    #[test]
    fn watchdog_pause_excludes_debugger_time_from_wall_budget() {
        // Regression for the debugger integration: wall-clock time spent
        // paused (sitting at a debugger prompt, replaying history for
        // reverse execution) must never trip the wall budget, or a paused
        // session would be classified as a hang.
        let wd = Watchdog {
            wall_budget: Some(Duration::from_millis(50)),
            ..Watchdog::default()
        };
        let mut armed = wd.arm();
        armed.pause();
        std::thread::sleep(Duration::from_millis(80));
        armed.resume();
        assert!(
            armed.observe(1, 1).is_none(),
            "time spent paused must not count toward the wall budget"
        );
        // While paused, the frozen clock cannot trip either.
        armed.pause();
        std::thread::sleep(Duration::from_millis(80));
        assert!(armed.observe(2, 1).is_none(), "paused clock must be frozen");
        armed.resume();

        // Sanity: the budget still trips on genuine (unpaused) overrun.
        let mut unpaused = wd.arm();
        std::thread::sleep(Duration::from_millis(80));
        let trip = unpaused.observe(1, 1).expect("unpaused overrun must trip");
        assert_eq!(trip.kind, TripKind::Wall);
    }

    #[test]
    fn watchdog_wall_rewind_restores_budget_position() {
        // Wall trips are retried (machine-dependent); the retry must restart
        // from the budget position recorded before the failed attempt, not
        // instantly re-trip on the already-exhausted clock.
        let wd = Watchdog {
            wall_budget: Some(Duration::from_millis(50)),
            ..Watchdog::default()
        };
        let mut armed = wd.arm();
        let mark = armed.wall_elapsed();
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(armed.observe(1, 1).map(|t| t.kind), Some(TripKind::Wall));
        armed.wall_rewind_to(mark);
        assert!(
            armed.wall_elapsed() < Duration::from_millis(50),
            "rewind must restore headroom"
        );
        assert!(armed.observe(2, 1).is_none(), "retry must not re-trip instantly");
        // Rewinding to a future mark is a no-op: the clock never advances
        // under a rewind.
        let before = armed.wall_elapsed();
        armed.wall_rewind_to(Duration::from_secs(100));
        assert!(armed.wall_elapsed() >= before.saturating_sub(Duration::from_millis(1)));
    }

    #[test]
    fn campaigns_are_deterministic_and_fully_classified() {
        let td = counter_design();
        let cfg = CampaignConfig {
            seed: 7,
            members: 20,
            cycles: 48,
            max_injections: 3,
            stall_cycles: 16,
        };
        let (a, b) = engine_test(&td, |e| {
            (e.run_campaign(&cfg).unwrap(), e.run_campaign(&cfg).unwrap())
        });
        assert_eq!(a.summary(), b.summary(), "byte-for-byte reproducible");
        assert_eq!(a.counts().iter().sum::<usize>(), 20);
        assert_eq!(a.counts()[3], 0, "nothing can hang this design");
    }

    /// A deliberately naive BatchBackend — N independent interpreters
    /// stepped one after another, with the default no-op
    /// `retire_lane`/`admit_lane` — so the tests below pin the *chunking
    /// and per-lane harness logic* of `run_campaign_batched` in isolation
    /// from any real lock-step engine.
    struct InterpBatch {
        sims: Vec<Interp>,
        commits: Vec<Vec<u32>>,
    }

    struct CommitRec<'a>(&'a mut Vec<u32>);

    impl Observer for CommitRec<'_> {
        fn rule_commit(&mut self, rule: usize) {
            self.0.push(rule as u32);
        }
    }

    impl InterpBatch {
        fn factory(td: &TDesign) -> impl Fn(usize) -> Result<Box<dyn BatchBackend>, String> + Sync + '_ {
            move |lanes: usize| {
                Ok(Box::new(InterpBatch {
                    sims: (0..lanes).map(|_| Interp::new(td)).collect(),
                    commits: vec![Vec::new(); lanes],
                }) as Box<dyn BatchBackend>)
            }
        }
    }

    impl BatchBackend for InterpBatch {
        fn lanes(&self) -> usize {
            self.sims.len()
        }
        fn cycle_count(&self) -> u64 {
            self.sims[0].cycle_count()
        }
        fn cycle(&mut self) -> Result<(), String> {
            for (sim, commits) in self.sims.iter_mut().zip(&mut self.commits) {
                commits.clear();
                sim.cycle_obs(&mut CommitRec(commits));
            }
            Ok(())
        }
        fn lane_commits(&self, lane: usize) -> &[u32] {
            &self.commits[lane]
        }
        fn lane_get64(&self, lane: usize, reg: RegId) -> u64 {
            self.sims[lane].get64(reg)
        }
        fn lane_set64(&mut self, lane: usize, reg: RegId, value: u64) {
            self.sims[lane].set64(reg, value);
        }
    }

    #[test]
    fn batched_campaign_report_matches_sequential() {
        let td = counter_design();
        let cfg = CampaignConfig {
            seed: 7,
            members: 20,
            cycles: 48,
            max_injections: 3,
            stall_cycles: 16,
        };
        let sequential = engine_test(&td, |e| e.run_campaign(&cfg).unwrap());

        let make_sim = || Ok(Box::new(Interp::new(&td)) as Box<dyn SimBackend>);
        let make_devices = || Vec::new();
        let env = ParallelFactories {
            td: &td,
            make_sim: &make_sim,
            make_devices: &make_devices,
        };
        let make_batch = InterpBatch::factory(&td);
        let opts = ParallelOptions {
            runner: crate::runner::RunnerConfig::default(),
            wall_budget: None,
        };
        // Widths that divide the member count, leave a ragged tail, and
        // exceed it entirely.
        for width in [1usize, 3, 8, 32] {
            let (report, stats) =
                run_campaign_batched(&env, &make_batch, width, &cfg, &opts, None).unwrap();
            assert_eq!(report.members, sequential.members, "width {width}");
            assert_eq!(report.summary(), sequential.summary(), "width {width}");
            assert_eq!(stats.total, cfg.members.div_ceil(width));
        }
    }

    #[test]
    fn replay_log_round_trips_and_members_reproduce() {
        let td = counter_design();
        let cfg = CampaignConfig {
            seed: 11,
            members: 16,
            cycles: 40,
            max_injections: 3,
            stall_cycles: 16,
        };
        engine_test(&td, |e| {
            let report = e.run_campaign(&cfg).unwrap();
            let log = report.to_replay_log("interp", 6, "");
            assert!(!log.members.is_empty(), "seed 11 must produce failures");
            let parsed = ReplayLog::from_text(&log.to_text()).unwrap();
            assert_eq!(parsed, log);
            let results = replay_campaign(e, &parsed).unwrap();
            for r in &results {
                assert!(r.reproduced, "member {} did not reproduce", r.member.index);
                if r.member.injections.len() == 1 {
                    assert_eq!(r.minimal, Some(r.member.injections[0]));
                }
            }
        });
    }

    #[test]
    fn shrink_finds_single_injection_reproducer() {
        let td = counter_design();
        engine_test(&td, |e| {
            let golden = e.golden(32, 16).unwrap();
            // A schedule with one harmless and one harmful injection.
            let harmless = Injection { cycle: 1, reg: td.reg_id("acc"), bit: 3 };
            let harmful = Injection { cycle: 30, reg: td.reg_id("acc"), bit: 4 };
            // harmless alone: flips acc early; acc accumulates, so the
            // flip persists -> actually also SDC. Use an n flip that gets
            // overwritten... n increments every cycle so a flip persists
            // too. Both injections here produce SDC; shrink should pick
            // the first that reproduces the class.
            let member = MemberReport {
                index: 0,
                injections: vec![harmless, harmful],
                outcome: e.classify_injections(&[harmless, harmful], 32, 16, &golden),
                detail: None,
            };
            assert!(member.outcome.is_failure());
            let minimal = e.shrink(&member, 32, 16, &golden);
            assert_eq!(minimal, Some(harmless));
        });
    }

    #[test]
    fn replay_refuses_mismatched_golden_digest() {
        let td = counter_design();
        engine_test(&td, |e| {
            let report = e
                .run_campaign(&CampaignConfig {
                    seed: 3,
                    members: 4,
                    cycles: 24,
                    max_injections: 1,
                    stall_cycles: 16,
                })
                .unwrap();
            let mut log = report.to_replay_log("interp", 6, "");
            log.golden_digest ^= 1;
            assert!(replay_campaign(e, &log).is_err());
        });
    }

    /// `go` pulses high one cycle in eight (driven by [`Pulse`]) and `work`
    /// commits only then, so the golden run is up to seven cycles into a
    /// stall at most checkpoints, and flipping `go` low on a pulse cycle
    /// trips an eight-cycle stall budget one cycle later: only if the
    /// member carries the golden stall count.
    fn pulse_design() -> TDesign {
        let mut b = DesignBuilder::new("pulse");
        b.reg("go", 1, 0u64);
        b.reg("n", 8, 0u64);
        b.reg("acc", 16, 0u64);
        b.rule(
            "work",
            vec![
                guard(rd0("go").eq(k(1, 1))),
                wr0("acc", rd0("acc").add(rd0("n").zext(16))),
                wr0("n", rd0("n").add(k(8, 1))),
            ],
        );
        check(&b.build()).unwrap()
    }

    /// Drives `go` high on every eighth tick of its own counter, so a
    /// member started without the device's state pulses out of phase.
    /// With `saves` off it has no [`Device::save_state`], like
    /// `StreamSource`.
    struct Pulse {
        go: RegId,
        ticks: u64,
        saves: bool,
    }

    impl Device for Pulse {
        fn tick(&mut self, _cycle: u64, regs: &mut dyn RegAccess) {
            regs.set64(self.go, u64::from(self.ticks.is_multiple_of(8)));
            self.ticks += 1;
        }
        fn save_state(&self) -> Option<Vec<u8>> {
            self.saves.then(|| self.ticks.to_le_bytes().to_vec())
        }
        fn load_state(&mut self, state: &[u8]) -> Result<(), String> {
            let bytes = state.try_into().map_err(|_| "pulse state is 8 bytes".to_string())?;
            self.ticks = u64::from_le_bytes(bytes);
            Ok(())
        }
    }

    fn pulse_devices(td: &TDesign, saves: bool) -> Vec<Box<dyn Device>> {
        vec![Box::new(Pulse {
            go: td.reg_id("go"),
            ticks: 0,
            saves,
        })]
    }

    /// The from-reset reference every runner must match: the golden run
    /// and each member run from cycle 0 through the public
    /// `run_watchdogged`, classified by the public `classify`.
    fn from_reset(td: &TDesign, saves: bool, cfg: &CampaignConfig) -> Vec<Outcome> {
        let run = |injections: &[Injection]| {
            let mut sim = Interp::new(td);
            let mut devices = pulse_devices(td, saves);
            let mut fp = CommitFingerprint::default();
            let mut armed = Watchdog::stall_only(cfg.stall_cycles).arm();
            let trip =
                run_watchdogged(&mut sim, &mut devices, cfg.cycles, injections, &mut armed, Some(&mut fp))
                    .err();
            let regs = (0..td.regs.len()).map(|i| sim.get64(RegId(i as u32))).collect();
            (fp.per_cycle, regs, trip.map(|t| t.cycle))
        };
        let (fps, final_regs, trip) = run(&[]);
        assert_eq!(trip, None, "the golden run must not hang");
        let golden = GoldenRun {
            fps,
            final_regs,
            checkpoints: Vec::new(),
        };
        (0..cfg.members)
            .map(|index| {
                let (fps, regs, hang) = run(&draw_schedule(td, cfg, index));
                classify(&golden, &fps, &regs, hang)
            })
            .collect()
    }

    /// The first seed whose campaign holds every checkpoint edge case:
    /// first injections at cycle 0 and at the last cycle, two members that
    /// share a first-injection cycle, a member with three injections, and
    /// a member that hangs before a freshly armed watchdog could trip, so
    /// the carried golden stall count decides it.
    fn edge_case_campaign(td: &TDesign) -> (CampaignConfig, Vec<Outcome>) {
        (0u64..)
            .map(|seed| CampaignConfig {
                seed,
                members: 24,
                cycles: 40,
                max_injections: 3,
                stall_cycles: 8,
            })
            .find_map(|cfg| {
                let schedules: Vec<Vec<Injection>> =
                    (0..cfg.members).map(|i| draw_schedule(td, &cfg, i)).collect();
                let mut firsts: Vec<u64> = schedules.iter().map(|s| s[0].cycle).collect();
                let three = schedules.iter().any(|s| s.len() == 3);
                firsts.sort_unstable();
                let shared = firsts.windows(2).any(|w| w[0] == w[1]);
                if firsts[0] != 0 || firsts[firsts.len() - 1] != cfg.cycles - 1 || !shared || !three {
                    return None;
                }
                let outcomes = from_reset(td, true, &cfg);
                let early_hang = outcomes.iter().zip(&schedules).any(|(o, s)| {
                    matches!(o, Outcome::Hang { cycle } if *cycle < s[0].cycle + cfg.stall_cycles)
                });
                early_hang.then_some((cfg, outcomes))
            })
            .expect("some seed hits every edge case")
    }

    /// Every runner, each against the from-reset reference: sequential
    /// (with replay), parallel at one and two jobs, and batched at widths
    /// that run one lane each, leave a ragged tail, and hold the whole
    /// campaign.
    fn assert_runners_match_reference(td: &TDesign, saves: bool, cfg: &CampaignConfig, want: &[Outcome]) {
        let outcomes = |r: &CampaignReport| r.members.iter().map(|m| m.outcome).collect::<Vec<_>>();
        let mut make_sim = || Box::new(Interp::new(td)) as Box<dyn SimBackend>;
        let mut make_devices = || pulse_devices(td, saves);
        let mut engine = FaultEngine {
            td,
            make_sim: &mut make_sim,
            make_devices: &mut make_devices,
        };
        let report = engine.run_campaign(cfg).unwrap();
        assert_eq!(outcomes(&report), want, "sequential");
        for r in replay_campaign(&mut engine, &report.to_replay_log("interp", 6, "")).unwrap() {
            assert!(r.reproduced, "replayed member {}", r.member.index);
        }

        let make_sim = || Ok(Box::new(Interp::new(td)) as Box<dyn SimBackend>);
        let make_devices = || pulse_devices(td, saves);
        let env = ParallelFactories {
            td,
            make_sim: &make_sim,
            make_devices: &make_devices,
        };
        for jobs in [1, 2] {
            let opts = ParallelOptions {
                runner: RunnerConfig::with_jobs(jobs),
                wall_budget: None,
            };
            let (report, _) = run_campaign_parallel(&env, cfg, &opts, None).unwrap();
            assert_eq!(outcomes(&report), want, "parallel, jobs {jobs}");
        }
        let make_batch = InterpBatch::factory(td);
        for width in [1, 5, 32] {
            let (report, _) =
                run_campaign_batched(&env, &make_batch, width, cfg, &ParallelOptions::default(), None)
                    .unwrap();
            assert_eq!(outcomes(&report), want, "batched, width {width}");
        }
    }

    #[test]
    fn members_start_at_golden_checkpoints_and_match_from_reset_runs() {
        let td = pulse_design();
        let (cfg, want) = edge_case_campaign(&td);
        let mut make_sim = || Box::new(Interp::new(&td)) as Box<dyn SimBackend>;
        let mut make_devices = || pulse_devices(&td, true);
        let mut engine = FaultEngine {
            td: &td,
            make_sim: &mut make_sim,
            make_devices: &mut make_devices,
        };
        let at = first_injections(&td, &cfg);
        let golden = engine.golden_with_checkpoints(cfg.cycles, cfg.stall_cycles, &at).unwrap();
        let mut distinct = at.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let cycles: Vec<u64> = golden.checkpoints.iter().map(Checkpoint::cycle).collect();
        assert_eq!(cycles, distinct, "one checkpoint per distinct first injection");
        assert!(
            golden.checkpoints.iter().any(|c| c.stall_count > 0),
            "some checkpoint must sit mid-stall"
        );
        // A hand-picked member at each edge, each starting at a checkpoint
        // on its own first injection, against the same member from reset.
        let go = td.reg_id("go");
        let single = |cycle, reg, bit| vec![Injection { cycle, reg, bit }];
        let picked = [
            single(0, go, 0),
            single(cfg.cycles - 1, td.reg_id("acc"), 3),
            single(16, go, 0),
            vec![
                Injection { cycle: 3, reg: td.reg_id("n"), bit: 1 },
                Injection { cycle: 8, reg: go, bit: 0 },
                Injection { cycle: 30, reg: td.reg_id("acc"), bit: 15 },
            ],
        ];
        let firsts: Vec<u64> = picked.iter().map(|p| p[0].cycle).collect();
        let starts = engine.golden_with_checkpoints(cfg.cycles, cfg.stall_cycles, &firsts).unwrap();
        let reset = engine.golden(cfg.cycles, cfg.stall_cycles).unwrap();
        assert!(reset.checkpoints.is_empty());
        assert_eq!(starts.checkpoint_before(16).map(|c| (c.cycle(), c.stall_count)), Some((16, 7)));
        for injections in &picked {
            assert_eq!(
                engine.classify_injections(injections, cfg.cycles, cfg.stall_cycles, &starts),
                engine.classify_injections(injections, cfg.cycles, cfg.stall_cycles, &reset),
                "{injections:?}"
            );
        }
        assert_eq!(
            engine.classify_injections(&picked[2], cfg.cycles, cfg.stall_cycles, &starts),
            Outcome::Hang { cycle: 17 },
            "the carried stall count trips the next cycle"
        );
        assert_runners_match_reference(&td, true, &cfg, &want);
    }

    #[test]
    fn a_device_without_saved_state_starts_every_member_at_reset() {
        let td = pulse_design();
        let (cfg, _) = edge_case_campaign(&td);
        let mut make_sim = || Box::new(Interp::new(&td)) as Box<dyn SimBackend>;
        let mut make_devices = || pulse_devices(&td, false);
        let golden = FaultEngine {
            td: &td,
            make_sim: &mut make_sim,
            make_devices: &mut make_devices,
        }
        .golden_with_checkpoints(cfg.cycles, cfg.stall_cycles, &first_injections(&td, &cfg))
        .unwrap();
        assert!(golden.checkpoints.is_empty());
        assert_eq!(golden.checkpoint_before(cfg.cycles).map(Checkpoint::cycle), None);
        assert_runners_match_reference(&td, false, &cfg, &from_reset(&td, false, &cfg));
    }

    /// A device whose whole state is a byte image: before cycle `c` it
    /// adds one to the byte at `offset` for each `(c, offset)` in
    /// `writes`, and it cannot save its state once it has ticked more than
    /// `saves_until` times.
    #[derive(Clone)]
    struct Image {
        bytes: Vec<u8>,
        writes: Vec<(u64, usize)>,
        ticks: u64,
        saves_until: u64,
    }

    impl Image {
        fn new(len: usize, writes: &[(u64, usize)]) -> Image {
            Image {
                bytes: (0..len).map(|i| (i % 251) as u8).collect(),
                writes: writes.to_vec(),
                ticks: 0,
                saves_until: u64::MAX,
            }
        }
    }

    impl Device for Image {
        fn tick(&mut self, cycle: u64, _regs: &mut dyn RegAccess) {
            for &(_, offset) in self.writes.iter().filter(|w| w.0 == cycle) {
                self.bytes[offset] = self.bytes[offset].wrapping_add(1);
            }
            self.ticks += 1;
        }
        fn save_state(&self) -> Option<Vec<u8>> {
            (self.ticks <= self.saves_until).then(|| self.bytes.clone())
        }
        fn load_state(&mut self, state: &[u8]) -> Result<(), String> {
            self.bytes = state.to_vec();
            Ok(())
        }
    }

    fn image_golden(devices: &[Image], at: &[u64]) -> GoldenRun {
        let td = counter_design();
        let boxed = devices.iter().map(|d| Box::new(d.clone()) as Box<dyn Device>).collect();
        golden_run(&td, Ok(Box::new(Interp::new(&td))), boxed, 12, 64, at).unwrap()
    }

    #[test]
    fn checkpoints_share_the_device_states_that_did_not_change() {
        // An odd-length image with one byte changed before cycle 5, an
        // empty image, and an image that never changes.
        let devices = [Image::new(4197, &[(5, 1031)]), Image::new(0, &[]), Image::new(100, &[])];
        let golden = image_golden(&devices, &[2, 4, 6, 8]);
        let cps = &golden.checkpoints;
        let cycles: Vec<u64> = cps.iter().map(Checkpoint::cycle).collect();
        assert_eq!(cycles, [2, 4, 6, 8]);
        let shared = |a: &Checkpoint, b: &Checkpoint| -> Vec<bool> {
            a.devices.iter().zip(&b.devices).map(|(x, y)| Arc::ptr_eq(x, y)).collect()
        };
        for (a, b) in [(0, 1), (2, 3)] {
            assert_eq!(shared(&cps[a], &cps[b]), [true; 3], "unchanged between {a} and {b}");
        }
        assert_eq!(shared(&cps[1], &cps[2]), [false, true, true], "one byte changed");

        let td = counter_design();
        let mut regs = Interp::new(&td);
        for cp in cps {
            let mut reference: Vec<Image> = devices.to_vec();
            for cycle in 0..cp.cycle() {
                for d in &mut reference {
                    d.tick(cycle, &mut regs);
                }
            }
            let mut fresh: Vec<Box<dyn Device>> =
                devices.iter().map(|d| Box::new(d.clone()) as Box<dyn Device>).collect();
            load_devices(cp, &mut fresh).unwrap();
            for (loaded, want) in fresh.iter().zip(&reference) {
                assert_eq!(loaded.save_state(), want.save_state(), "cycle {}", cp.cycle());
            }
        }
    }

    #[test]
    fn a_device_that_stops_saving_drops_every_checkpoint() {
        let mut late = Image::new(2048, &[(1, 3)]);
        late.saves_until = 5;
        let golden = image_golden(&[Image::new(1024, &[]), late], &[2, 4, 6, 8]);
        assert!(golden.checkpoints.is_empty());
        assert_eq!(golden.fps.len(), 12, "the golden run still runs to the end");
    }

    #[test]
    fn injection_specs_parse_names_and_reject_garbage() {
        let td = counter_design();
        let inj = Injection::parse("12:acc:9", &td).unwrap();
        assert_eq!(inj.cycle, 12);
        assert_eq!(inj.reg, td.reg_id("acc"));
        assert_eq!(inj.bit, 9);
        assert_eq!(inj.display_with(&td), "12:acc:9");
        assert!(Injection::parse("12:acc", &td).is_err());
        assert!(Injection::parse("x:acc:0", &td).is_err());
        assert!(Injection::parse("0:nosuch:0", &td).is_err());
        assert!(Injection::parse("0:acc:16", &td).is_err(), "bit out of width");
    }
}
