//! Interactive, backend-invariant time-travel debugger.
//!
//! The source paper's headline debugging workflow is attaching an ordinary
//! software debugger (GDB, rr) to a compiled Cuttlesim simulator:
//! breakpoints on rules, watchpoints on registers, reverse execution back
//! to the cycle where state went wrong. This module reproduces that
//! workflow *above* the execution engines, so one debugger drives every
//! backend in the workspace — the reference interpreter, the Cuttlesim VM
//! at every optimization level and dispatch strategy, and the levelized
//! RTL simulator — and a scripted session produces byte-identical
//! transcripts on all of them.
//!
//! # Architecture
//!
//! * **Observer pause seam.** The debugger never reaches into an engine.
//!   It drives a [`ScalarTarget`] one cycle at a time through
//!   [`run_watchdogged`], the scalar cycle loop every run shares, capturing
//!   rule events and boundary register writes with a [`CycleCapture`]
//!   observer.
//!   When no debugger is attached nothing changes: the unobserved `cycle`
//!   hot paths are untouched.
//!
//! * **Cycle granularity.** The RTL simulator evaluates a whole cycle as
//!   one levelized combinational pass, so no backend-invariant debugger
//!   can pause *inside* a cycle. `step-rule` is therefore a presentation
//!   over the captured event stream: the first `step-rule` of a cycle
//!   executes the full cycle and reveals its first rule event; subsequent
//!   `step-rule`s reveal the remaining events one at a time. Register
//!   state shown at the prompt is always the post-cycle state.
//!
//! * **Checkpoint ring + deterministic re-execution.** Reverse execution
//!   needs no engine-level undo. The session keeps a bounded ring of full
//!   state checkpoints ([`StateImage`]s: registers and device states)
//!   taken every K cycles, K adaptive to state size. `reverse-step`
//!   restores the nearest checkpoint at or before the target cycle and
//!   re-executes forward — simulation is
//!   deterministic, so the replay reproduces the original timeline
//!   exactly, including the event ring and per-rule counters (both are
//!   checkpointed alongside the state). `dump-vcd` is the same trick:
//!   replay from the genesis checkpoint with a [`VcdRecorder`] attached.
//!
//! * **Watchdog integration.** A paused debugger freezes the wall clock
//!   of any armed watchdog ([`ArmedWatchdog::pause`]) and never feeds it
//!   replay cycles, so thinking at the prompt or time-traveling cannot be
//!   misclassified as a hang; only user-driven forward execution is
//!   observed.

use crate::device::{Device, SimBackend};
use crate::fault::{run_watchdogged, ArmedWatchdog, Watchdog, WatchdogTrip};
use crate::obs::{FailureReason, Observer};
use crate::snapshot::StateImage;
use crate::tir::{RegId, TDesign};
use crate::vcd::VcdRecorder;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, Write};

/// How many checkpoints the ring holds (the genesis checkpoint is kept
/// outside the ring and is never evicted).
const CHECKPOINT_SLOTS: usize = 64;

/// How many rule events the recent-event ring holds.
const EVENT_RING: usize = 64;

/// How many ring entries `last` prints by default.
const LAST_DEFAULT: usize = 8;

/// What happened to one scheduled rule during a captured cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The rule committed.
    Commit,
    /// The rule did not commit (guard abort, conflict, or unclassified).
    Fail(FailureReason),
}

/// An [`Observer`] that records one cycle's rule events and boundary
/// register writes for the debugger to present.
#[derive(Debug, Default, Clone)]
pub struct CycleCapture {
    /// Rule events in schedule order (declaration-order rule indices).
    pub events: Vec<(usize, EventKind)>,
    /// Boundary register writes `(reg, old, new)` (low 64 bits).
    pub writes: Vec<(RegId, u64, u64)>,
}

impl Observer for CycleCapture {
    fn rule_commit(&mut self, rule: usize) {
        self.events.push((rule, EventKind::Commit));
    }
    fn rule_fail(&mut self, rule: usize, reason: FailureReason) {
        self.events.push((rule, EventKind::Fail(reason)));
    }
    fn reg_write(&mut self, reg: RegId, old: u64, new: u64) {
        self.writes.push((reg, old, new));
    }
}

/// One debuggable simulation: any [`SimBackend`] plus its devices,
/// steppable one cycle at a time with full state capture/restore.
pub struct ScalarTarget<'a> {
    sim: Box<dyn SimBackend + 'a>,
    devices: Vec<Box<dyn Device + 'a>>,
}

impl<'a> ScalarTarget<'a> {
    /// Wraps an engine and its devices for debugging.
    pub fn new(sim: Box<dyn SimBackend + 'a>, devices: Vec<Box<dyn Device + 'a>>) -> Self {
        ScalarTarget { sim, devices }
    }

    /// Executes one cycle at `cycle`, sampling `vcd` after the device
    /// ticks and before the engine runs (the CLI's `--vcd` ordering).
    fn step_vcd(&mut self, cycle: u64, vcd: &mut VcdRecorder) {
        for d in self.devices.iter_mut() {
            d.tick(cycle, self.sim.as_reg_access());
        }
        vcd.sample(cycle, self.sim.as_reg_access());
        self.sim.cycle();
    }
}

/// Session-level knobs for [`run_session`].
#[derive(Debug, Clone)]
pub struct DebugOptions {
    /// Cycle boundary at which the program ends (the CLI's `--cycles`
    /// budget); `continue` with no hits runs to here.
    pub limit: u64,
    /// Echo each command as `(kdb) <cmd>` (script mode — makes the
    /// output a complete, byte-comparable transcript).
    pub echo: bool,
    /// Print an interactive `(kdb) ` prompt before reading each command.
    pub prompt: bool,
}

#[derive(Debug, Clone, Copy)]
enum RuleBreakKind {
    Any,
    Commit,
    Abort,
}

#[derive(Debug, Clone)]
enum BreakSpec {
    Rule { rule: usize, kind: RuleBreakKind },
    Cycle(u64),
    Watch { reg: RegId, cond: Option<u64> },
}

#[derive(Debug, Clone)]
struct BreakPt {
    id: u32,
    spec: BreakSpec,
}

#[derive(Debug, Clone, Copy)]
struct EventRec {
    cycle: u64,
    rule: usize,
    commit: bool,
}

#[derive(Debug, Clone, Default)]
struct RuleCounter {
    attempts: u64,
    commits: u64,
    aborts: u64,
    conflicts: u64,
    other: u64,
    conflict_regs: BTreeMap<u32, u64>,
}

#[derive(Clone)]
struct DebugCheckpoint {
    cycle: u64,
    state: StateImage,
    ring: VecDeque<EventRec>,
    counters: Vec<RuleCounter>,
    last_writes: Vec<(RegId, u64, u64)>,
}

struct Session<'a, 'w, 't> {
    td: &'a TDesign,
    target: &'a mut ScalarTarget<'t>,
    out: &'a mut dyn Write,
    watchdog: Option<&'w mut ArmedWatchdog>,
    limit: u64,
    /// Cycles executed (the session is paused at this boundary).
    pos: u64,
    ring: VecDeque<EventRec>,
    counters: Vec<RuleCounter>,
    last_writes: Vec<(RegId, u64, u64)>,
    breaks: Vec<BreakPt>,
    next_id: u32,
    /// Genesis checkpoint (never evicted); `None` when a device cannot
    /// save state, which disables time travel.
    genesis: Option<DebugCheckpoint>,
    checkpoints: VecDeque<DebugCheckpoint>,
    interval: u64,
    max_ckpt: u64,
    /// Buffered rule events of a cycle mid-`step-rule` reveal.
    pending: VecDeque<(usize, bool)>,
    pending_cycle: u64,
    pending_commits: usize,
    tt_err: Option<String>,
    done: bool,
}

type CmdResult = std::io::Result<()>;

impl Session<'_, '_, '_> {
    fn reg_name(&self, reg: RegId) -> &str {
        &self.td.regs[reg.0 as usize].name
    }

    fn find_reg(&self, name: &str) -> Option<RegId> {
        self.td
            .regs
            .iter()
            .position(|r| r.name == name)
            .map(|i| RegId(i as u32))
    }

    fn wd_pause(&mut self) {
        if let Some(wd) = self.watchdog.as_deref_mut() {
            wd.pause();
        }
    }

    fn wd_resume(&mut self) {
        if let Some(wd) = self.watchdog.as_deref_mut() {
            wd.resume();
        }
    }

    /// Executes one cycle at `pos`, updating the ring, counters, diff,
    /// and checkpoint ring. `observe_wd` is true only for user-driven
    /// forward execution — replays never feed the watchdog.
    fn exec_one(&mut self, observe_wd: bool) -> (CycleCapture, Option<WatchdogTrip>) {
        let mut cap = CycleCapture::default();
        let mut unobserved = Watchdog::default().arm();
        let wd = match self.watchdog.as_deref_mut() {
            Some(wd) if observe_wd => wd,
            _ => &mut unobserved,
        };
        let (sim, devices) = (&mut *self.target.sim, &mut self.target.devices);
        let trip = run_watchdogged(sim, devices, 1, &[], wd, Some(&mut cap)).err();
        let cycle = self.pos;
        self.pos += 1;
        for &(rule, kind) in &cap.events {
            let commit = matches!(kind, EventKind::Commit);
            if self.ring.len() == EVENT_RING {
                self.ring.pop_front();
            }
            self.ring.push_back(EventRec { cycle, rule, commit });
            let c = &mut self.counters[rule];
            c.attempts += 1;
            match kind {
                EventKind::Commit => c.commits += 1,
                EventKind::Fail(FailureReason::Abort) => c.aborts += 1,
                EventKind::Fail(FailureReason::Conflict(reg)) => {
                    c.conflicts += 1;
                    *c.conflict_regs.entry(reg.0).or_insert(0) += 1;
                }
                EventKind::Fail(FailureReason::Unspecified) => c.other += 1,
            }
        }
        self.last_writes = cap.writes.clone();
        if self.genesis.is_some() && self.pos.is_multiple_of(self.interval) && self.pos > self.max_ckpt {
            match self.make_checkpoint() {
                Ok(ck) => {
                    if self.checkpoints.len() == CHECKPOINT_SLOTS {
                        self.checkpoints.pop_front();
                    }
                    self.max_ckpt = ck.cycle;
                    self.checkpoints.push_back(ck);
                }
                Err(e) => {
                    // A device stopped cooperating mid-run; disable time
                    // travel from here on rather than aborting the session.
                    self.tt_err = Some(e);
                    self.genesis = None;
                    self.checkpoints.clear();
                }
            }
        }
        (cap, trip)
    }

    /// Captures the target's state, sharing the device states that did
    /// not change since the last checkpoint. Fails when a device does not
    /// support state save ([`Device::save_state`] returned `None`) — time
    /// travel is then unavailable.
    fn make_checkpoint(&self) -> Result<DebugCheckpoint, String> {
        let prev = self.checkpoints.back().or(self.genesis.as_ref()).map(|c| &c.state);
        let state = StateImage::capture(&*self.target.sim, &self.target.devices, prev);
        if let Some(i) = state.devices.iter().position(Option::is_none) {
            return Err(format!("device {i} does not support state save/restore"));
        }
        Ok(DebugCheckpoint {
            cycle: self.pos,
            state,
            ring: self.ring.clone(),
            counters: self.counters.clone(),
            last_writes: self.last_writes.clone(),
        })
    }

    fn time_travel_err(&self) -> String {
        self.tt_err
            .clone()
            .unwrap_or_else(|| "no checkpoints available".into())
    }

    /// Moves the session to cycle boundary `c ≤ pos` by restoring the
    /// nearest checkpoint and re-executing forward.
    fn travel_to(&mut self, c: u64) -> Result<(), String> {
        let ck = self
            .checkpoints
            .iter()
            .rev()
            .find(|k| k.cycle <= c)
            .or(self.genesis.as_ref())
            .cloned()
            .ok_or_else(|| self.time_travel_err())?;
        if ck.cycle > c {
            return Err(format!("cannot travel before cycle {}", ck.cycle));
        }
        ck.state.apply(&mut *self.target.sim, &mut self.target.devices).map_err(|e| e.to_string())?;
        self.pos = ck.cycle;
        self.ring = ck.ring;
        self.counters = ck.counters;
        self.last_writes = ck.last_writes;
        while self.pos < c {
            self.exec_one(false);
        }
        Ok(())
    }

    /// Breakpoint/watchpoint hits produced by the cycle that just
    /// executed (events of cycle `pos - 1`, boundary now at `pos`).
    fn eval_breaks(&self, cap: &CycleCapture) -> Vec<String> {
        let cycle = self.pos - 1;
        let mut hits = Vec::new();
        for bp in &self.breaks {
            match &bp.spec {
                BreakSpec::Rule { rule, kind } => {
                    for &(r, k) in &cap.events {
                        if r != *rule {
                            continue;
                        }
                        let commit = matches!(k, EventKind::Commit);
                        let matched = match kind {
                            RuleBreakKind::Any => true,
                            RuleBreakKind::Commit => commit,
                            RuleBreakKind::Abort => !commit,
                        };
                        if matched {
                            hits.push(format!(
                                "breakpoint {}: rule '{}' {} at cycle {cycle}",
                                bp.id,
                                self.td.rules[r].name,
                                if commit { "commit" } else { "abort" },
                            ));
                            break;
                        }
                    }
                }
                BreakSpec::Cycle(c) => {
                    if *c == self.pos {
                        hits.push(format!("breakpoint {}: cycle {c}", bp.id));
                    }
                }
                BreakSpec::Watch { reg, cond } => {
                    for &(r, old, new) in &cap.writes {
                        if r != *reg {
                            continue;
                        }
                        let matched = match cond {
                            None => true,
                            Some(v) => old != *v && new == *v,
                        };
                        if matched {
                            hits.push(format!(
                                "watchpoint {}: reg '{}' 0x{old:x} -> 0x{new:x} at cycle {cycle}",
                                bp.id,
                                self.reg_name(*reg),
                            ));
                            break;
                        }
                    }
                }
            }
        }
        hits
    }

    fn print_ring(&mut self, n: usize) -> CmdResult {
        writeln!(self.out, "recent events:")?;
        if self.ring.is_empty() {
            writeln!(self.out, "  (none)")?;
            return Ok(());
        }
        let start = self.ring.len().saturating_sub(n);
        for i in start..self.ring.len() {
            let e = self.ring[i];
            writeln!(
                self.out,
                "  cycle {}: rule '{}' {}",
                e.cycle,
                self.td.rules[e.rule].name,
                if e.commit { "commit" } else { "abort" },
            )?;
        }
        Ok(())
    }

    fn print_diff(&mut self) -> CmdResult {
        writeln!(self.out, "register changes:")?;
        if self.last_writes.is_empty() {
            writeln!(self.out, "  (none)")?;
            return Ok(());
        }
        for &(reg, old, new) in &self.last_writes.clone() {
            let name = self.reg_name(reg).to_string();
            writeln!(self.out, "  {name}: 0x{old:x} -> 0x{new:x}")?;
        }
        Ok(())
    }

    fn print_stopped(&mut self) -> CmdResult {
        writeln!(self.out, "stopped at cycle {}", self.pos)
    }

    fn print_hit_context(&mut self, hits: &[String]) -> CmdResult {
        for h in hits {
            writeln!(self.out, "{h}")?;
        }
        self.print_ring(LAST_DEFAULT)?;
        self.print_diff()?;
        self.print_stopped()
    }

    fn print_trip(&mut self, trip: &WatchdogTrip) -> CmdResult {
        writeln!(self.out, "watchdog: {} at cycle {}", trip.reason, trip.cycle)?;
        self.print_stopped()
    }

    /// Drops any half-revealed `step-rule` cycle.
    fn clear_pending(&mut self) {
        self.pending.clear();
    }

    fn finished_line(&mut self) -> CmdResult {
        writeln!(self.out, "program finished at cycle {}", self.pos)
    }

    // ---- commands ----------------------------------------------------

    fn cmd_step(&mut self, n: u64) -> CmdResult {
        if self.pos >= self.limit {
            return writeln!(self.out, "already at end of program (cycle {})", self.pos);
        }
        self.wd_resume();
        let mut tripped = false;
        for _ in 0..n {
            if self.pos >= self.limit {
                break;
            }
            if let (_, Some(trip)) = self.exec_one(true) {
                self.wd_pause();
                self.print_trip(&trip)?;
                tripped = true;
                break;
            }
        }
        self.wd_pause();
        if tripped {
            return Ok(());
        }
        if self.pos >= self.limit {
            self.finished_line()
        } else {
            self.print_stopped()
        }
    }

    fn cmd_step_rule(&mut self) -> CmdResult {
        if self.pending.is_empty() {
            if self.pos >= self.limit {
                return writeln!(self.out, "already at end of program (cycle {})", self.pos);
            }
            self.wd_resume();
            let (cap, trip) = self.exec_one(true);
            self.wd_pause();
            self.pending_cycle = self.pos - 1;
            self.pending_commits = cap
                .events
                .iter()
                .filter(|(_, k)| matches!(k, EventKind::Commit))
                .count();
            self.pending = cap
                .events
                .iter()
                .map(|&(r, k)| (r, matches!(k, EventKind::Commit)))
                .collect();
            if let Some(trip) = trip {
                self.print_trip(&trip)?;
            }
        }
        match self.pending.pop_front() {
            Some((rule, commit)) => {
                writeln!(
                    self.out,
                    "cycle {}: rule '{}' {}",
                    self.pending_cycle,
                    self.td.rules[rule].name,
                    if commit { "commit" } else { "abort" },
                )?;
                if self.pending.is_empty() {
                    writeln!(
                        self.out,
                        "cycle {}: done ({} commit{})",
                        self.pending_cycle,
                        self.pending_commits,
                        if self.pending_commits == 1 { "" } else { "s" },
                    )?;
                }
            }
            None => {
                // An empty schedule: the cycle ran but had no rule events.
                writeln!(
                    self.out,
                    "cycle {}: done (0 commits)",
                    self.pending_cycle
                )?;
            }
        }
        Ok(())
    }

    fn cmd_continue(&mut self, until: Option<u64>) -> CmdResult {
        let stop_at = until.unwrap_or(self.limit).min(self.limit);
        if self.pos >= stop_at {
            if until.is_some() {
                return writeln!(
                    self.out,
                    "run-to: cycle {stop_at} is not ahead of cycle {} (use reverse-step)",
                    self.pos
                );
            }
            return writeln!(self.out, "already at end of program (cycle {})", self.pos);
        }
        self.wd_resume();
        loop {
            if self.pos >= stop_at {
                self.wd_pause();
                if stop_at < self.limit {
                    return self.print_stopped();
                }
                return self.finished_line();
            }
            let (cap, trip) = self.exec_one(true);
            if let Some(trip) = trip {
                self.wd_pause();
                return self.print_trip(&trip);
            }
            let hits = self.eval_breaks(&cap);
            if !hits.is_empty() {
                self.wd_pause();
                return self.print_hit_context(&hits);
            }
        }
    }

    fn cmd_reverse_step(&mut self, n: u64) -> CmdResult {
        if self.genesis.is_none() {
            let e = self.time_travel_err();
            return writeln!(self.out, "time travel unavailable: {e}");
        }
        let floor = self.genesis.as_ref().map(|g| g.cycle).unwrap_or(0);
        if self.pos <= floor {
            return writeln!(self.out, "already at cycle {floor}");
        }
        let target = self.pos.saturating_sub(n).max(floor);
        match self.travel_to(target) {
            Ok(()) => self.print_stopped(),
            Err(e) => writeln!(self.out, "error: {e}"),
        }
    }

    fn cmd_reverse_continue(&mut self) -> CmdResult {
        if self.genesis.is_none() {
            let e = self.time_travel_err();
            return writeln!(self.out, "time travel unavailable: {e}");
        }
        if self.breaks.is_empty() {
            return writeln!(self.out, "no breakpoints or watchpoints set");
        }
        let cur = self.pos;
        let floor = self.genesis.as_ref().map(|g| g.cycle).unwrap_or(0);
        if cur <= floor {
            return writeln!(self.out, "already at cycle {floor}");
        }
        // Replay the whole timeline from genesis, remembering the last
        // hit strictly before the current position, then travel there.
        if let Err(e) = self.travel_to(floor) {
            return writeln!(self.out, "error: {e}");
        }
        let mut last_hit: Option<(u64, Vec<String>)> = None;
        while self.pos < cur {
            let (cap, _) = self.exec_one(false);
            let hits = self.eval_breaks(&cap);
            if !hits.is_empty() && self.pos < cur {
                last_hit = Some((self.pos, hits));
            }
        }
        match last_hit {
            Some((at, hits)) => {
                if let Err(e) = self.travel_to(at) {
                    return writeln!(self.out, "error: {e}");
                }
                self.print_hit_context(&hits)
            }
            None => {
                writeln!(self.out, "reverse-continue: no earlier hit")?;
                self.print_stopped()
            }
        }
    }

    fn cmd_print(&mut self, name: &str) -> CmdResult {
        match self.find_reg(name) {
            Some(reg) => {
                if self.td.regs[reg.0 as usize].width > 64 {
                    return writeln!(
                        self.out,
                        "{name} is wider than 64 bits (use 'snapshot' for full values)"
                    );
                }
                let v = self.target.sim.get64(reg);
                writeln!(self.out, "{name} = 0x{v:x}")
            }
            None => writeln!(self.out, "no register named '{name}'"),
        }
    }

    fn cmd_info(&mut self, what: &str) -> CmdResult {
        match what {
            "breaks" => {
                if self.breaks.is_empty() {
                    return writeln!(self.out, "no breakpoints or watchpoints");
                }
                writeln!(self.out, "breakpoints:")?;
                for bp in &self.breaks.clone() {
                    match &bp.spec {
                        BreakSpec::Rule { rule, kind } => {
                            let suffix = match kind {
                                RuleBreakKind::Any => "",
                                RuleBreakKind::Commit => " commit",
                                RuleBreakKind::Abort => " abort",
                            };
                            writeln!(
                                self.out,
                                "  {}: rule '{}'{suffix}",
                                bp.id, self.td.rules[*rule].name
                            )?;
                        }
                        BreakSpec::Cycle(c) => writeln!(self.out, "  {}: cycle {c}", bp.id)?,
                        BreakSpec::Watch { reg, cond } => {
                            let name = self.reg_name(*reg).to_string();
                            match cond {
                                Some(v) => writeln!(
                                    self.out,
                                    "  {}: watch '{name}' == 0x{v:x}",
                                    bp.id
                                )?,
                                None => writeln!(self.out, "  {}: watch '{name}'", bp.id)?,
                            }
                        }
                    }
                }
                Ok(())
            }
            "rules" => {
                writeln!(self.out, "rules:")?;
                for (i, c) in self.counters.clone().iter().enumerate() {
                    let mut line = format!(
                        "  {}: attempts {}, commits {}, aborts {}, conflicts {}",
                        self.td.rules[i].name, c.attempts, c.commits, c.aborts, c.conflicts
                    );
                    if !c.conflict_regs.is_empty() {
                        let parts: Vec<String> = c
                            .conflict_regs
                            .iter()
                            .map(|(r, n)| {
                                format!("{}: {n}", self.td.regs[*r as usize].name)
                            })
                            .collect();
                        line.push_str(&format!(" ({})", parts.join(", ")));
                    }
                    if c.other > 0 {
                        line.push_str(&format!(", unclassified {}", c.other));
                    }
                    writeln!(self.out, "{line}")?;
                }
                Ok(())
            }
            "regs" => {
                writeln!(self.out, "registers:")?;
                for i in 0..self.td.num_regs() {
                    let info = &self.td.regs[i];
                    let name = info.name.clone();
                    let width = info.width;
                    if width > 64 {
                        writeln!(self.out, "  {name} = ({width} bits, not shown)")?;
                    } else {
                        let v = self.target.sim.get64(RegId(i as u32));
                        writeln!(
                            self.out,
                            "  {name} = 0x{v:x} ({width} bit{})",
                            if width == 1 { "" } else { "s" }
                        )?;
                    }
                }
                Ok(())
            }
            "checkpoints" => {
                if self.genesis.is_none() {
                    let e = self.time_travel_err();
                    return writeln!(self.out, "time travel unavailable: {e}");
                }
                let mut cycles: Vec<u64> =
                    self.genesis.iter().map(|g| g.cycle).collect();
                cycles.extend(self.checkpoints.iter().map(|c| c.cycle));
                let list: Vec<String> = cycles.iter().map(u64::to_string).collect();
                writeln!(
                    self.out,
                    "checkpoints at cycles: {} (interval {})",
                    list.join(" "),
                    self.interval
                )
            }
            other => writeln!(
                self.out,
                "unknown info topic '{other}' (try breaks, rules, regs, checkpoints)"
            ),
        }
    }

    fn cmd_dump_vcd(&mut self, path: &str) -> CmdResult {
        let genesis = match &self.genesis {
            Some(g) => g.clone(),
            None => {
                let e = self.time_travel_err();
                return writeln!(self.out, "time travel unavailable: {e}");
            }
        };
        let cur = self.pos;
        let mut vcd = VcdRecorder::all_registers(self.td);
        if let Err(e) = genesis.state.apply(&mut *self.target.sim, &mut self.target.devices) {
            return writeln!(self.out, "error: {e}");
        }
        self.pos = genesis.cycle;
        while self.pos < cur {
            self.target.step_vcd(self.pos, &mut vcd);
            self.pos += 1;
        }
        // The replay left the engine exactly where the session was
        // paused; only the presentation state was untouched, and it
        // still describes cycle `cur`.
        match std::fs::write(path, vcd.finish(cur)) {
            Ok(()) => writeln!(
                self.out,
                "vcd written to {path} ({} cycle{})",
                cur - genesis.cycle,
                if cur - genesis.cycle == 1 { "" } else { "s" }
            ),
            Err(e) => writeln!(self.out, "error: cannot write '{path}': {e}"),
        }
    }

    fn cmd_snapshot(&mut self, path: &str) -> CmdResult {
        let image = StateImage::capture(&*self.target.sim, &self.target.devices, None);
        match std::fs::write(path, image.to_bytes()) {
            Ok(()) => writeln!(self.out, "snapshot written to {path} (cycle {})", self.pos),
            Err(e) => writeln!(self.out, "error: cannot write '{path}': {e}"),
        }
    }

    fn cmd_help(&mut self) -> CmdResult {
        self.out.write_all(HELP.as_bytes())
    }

    fn add_break(&mut self, spec: BreakSpec) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.breaks.push(BreakPt { id, spec });
        id
    }

    /// Parses and runs one command line. Returns false when the session
    /// should end.
    fn dispatch(&mut self, line: &str) -> std::io::Result<bool> {
        let words: Vec<&str> = line.split_whitespace().collect();
        if words.is_empty() {
            return Ok(true);
        }
        if words[0] != "step-rule" {
            self.clear_pending();
        }
        match words[0] {
            "help" => self.cmd_help()?,
            "quit" | "exit" => {
                self.done = true;
                return Ok(false);
            }
            "break" => match words.get(1) {
                Some(&"rule") => match words.get(2) {
                    Some(name) => {
                        let kind = match words.get(3) {
                            None => Some(RuleBreakKind::Any),
                            Some(&"commit") => Some(RuleBreakKind::Commit),
                            Some(&"abort") => Some(RuleBreakKind::Abort),
                            Some(_) => None,
                        };
                        let rule = self.td.rules.iter().position(|r| &r.name == name);
                        match (rule, kind) {
                            (Some(rule), Some(kind)) => {
                                let id = self.add_break(BreakSpec::Rule { rule, kind });
                                let suffix = match kind {
                                    RuleBreakKind::Any => String::new(),
                                    RuleBreakKind::Commit => " commit".into(),
                                    RuleBreakKind::Abort => " abort".into(),
                                };
                                writeln!(self.out, "breakpoint {id}: rule '{name}'{suffix}")?;
                            }
                            (None, _) => writeln!(self.out, "no rule named '{name}'")?,
                            (_, None) => writeln!(
                                self.out,
                                "usage: break rule <name> [commit|abort]"
                            )?,
                        }
                    }
                    None => writeln!(self.out, "usage: break rule <name> [commit|abort]")?,
                },
                Some(&"cycle") => match words.get(2).and_then(|w| parse_u64(w)) {
                    Some(c) => {
                        let id = self.add_break(BreakSpec::Cycle(c));
                        writeln!(self.out, "breakpoint {id}: cycle {c}")?;
                    }
                    None => writeln!(self.out, "usage: break cycle <n>")?,
                },
                _ => writeln!(self.out, "usage: break rule <name> [commit|abort] | break cycle <n>")?,
            },
            "watch" => match words.get(1) {
                Some(name) => match self.find_reg(name) {
                    Some(reg) => {
                        if self.td.regs[reg.0 as usize].width > 64 {
                            writeln!(
                                self.out,
                                "register '{name}' is wider than 64 bits (unsupported)"
                            )?;
                        } else {
                            let cond = match (words.get(2), words.get(3)) {
                                (None, _) => Some(None),
                                (Some(&"=="), Some(v)) => parse_u64(v).map(Some),
                                _ => None,
                            };
                            match cond {
                                Some(cond) => {
                                    let id = self.add_break(BreakSpec::Watch { reg, cond });
                                    match cond {
                                        Some(v) => writeln!(
                                            self.out,
                                            "watchpoint {id}: reg '{name}' == 0x{v:x}"
                                        )?,
                                        None => writeln!(
                                            self.out,
                                            "watchpoint {id}: reg '{name}'"
                                        )?,
                                    }
                                }
                                None => writeln!(
                                    self.out,
                                    "usage: watch <reg> [== <value>]"
                                )?,
                            }
                        }
                    }
                    None => writeln!(self.out, "no register named '{name}'")?,
                },
                None => writeln!(self.out, "usage: watch <reg> [== <value>]")?,
            },
            "delete" => match words.get(1).and_then(|w| parse_u64(w)) {
                Some(id) => {
                    let id = id as u32;
                    let before = self.breaks.len();
                    self.breaks.retain(|b| b.id != id);
                    if self.breaks.len() < before {
                        writeln!(self.out, "deleted {id}")?;
                    } else {
                        writeln!(self.out, "no breakpoint {id}")?;
                    }
                }
                None => writeln!(self.out, "usage: delete <id>")?,
            },
            "info" => {
                let topic = words.get(1).copied().unwrap_or("");
                self.cmd_info(topic)?;
            }
            "print" => match words.get(1) {
                Some(name) => self.cmd_print(name)?,
                None => writeln!(self.out, "usage: print <reg>")?,
            },
            "step" => {
                let n = words.get(1).and_then(|w| parse_u64(w)).unwrap_or(1).max(1);
                self.cmd_step(n)?;
            }
            "step-rule" => self.cmd_step_rule()?,
            "continue" => self.cmd_continue(None)?,
            "run-to" => match words.get(1).and_then(|w| parse_u64(w)) {
                Some(c) => self.cmd_continue(Some(c))?,
                None => writeln!(self.out, "usage: run-to <cycle>")?,
            },
            "reverse-step" => {
                let n = words.get(1).and_then(|w| parse_u64(w)).unwrap_or(1).max(1);
                self.cmd_reverse_step(n)?;
            }
            "reverse-continue" => self.cmd_reverse_continue()?,
            "last" => {
                let n = words
                    .get(1)
                    .and_then(|w| parse_u64(w))
                    .map(|n| n as usize)
                    .unwrap_or(LAST_DEFAULT)
                    .max(1);
                self.print_ring(n)?;
            }
            "diff" => self.print_diff()?,
            "dump-vcd" => match words.get(1) {
                Some(path) => self.cmd_dump_vcd(path)?,
                None => writeln!(self.out, "usage: dump-vcd <file>")?,
            },
            "snapshot" => match words.get(1) {
                Some(path) => self.cmd_snapshot(path)?,
                None => writeln!(self.out, "usage: snapshot <file>")?,
            },
            other => writeln!(self.out, "unknown command: '{other}' (try 'help')")?,
        }
        Ok(true)
    }
}

const HELP: &str = "\
commands:
  break rule <name> [commit|abort]  breakpoint on a rule event
  break cycle <n>                   breakpoint on reaching cycle <n>
  watch <reg> [== <value>]          watchpoint on a register
  delete <id>                       delete a breakpoint/watchpoint
  info breaks|rules|regs|checkpoints
  print <reg>                       print one register
  step [n]                          execute n cycles (default 1)
  step-rule                         reveal the next rule event of a cycle
  continue                          run until a breakpoint/watchpoint hits
  run-to <cycle>                    run until the given cycle boundary
  reverse-step [n]                  go back n cycles (default 1)
  reverse-continue                  go back to the previous hit
  last [n]                          print the recent rule-event ring
  diff                              register changes of the last cycle
  dump-vcd <file>                   write a VCD trace of the run so far
  snapshot <file>                   write a .ksnap of the current state
  quit                              leave the debugger
";

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Picks the checkpoint interval: denser for small designs (cheap
/// checkpoints, snappy reverse-step), sparser for big ones.
fn checkpoint_interval(state_bytes: usize) -> u64 {
    ((state_bytes / 256) as u64).clamp(8, 1024)
}

/// Runs a debug session over `target`, reading commands from `input` and
/// writing the transcript to `out`.
///
/// With [`DebugOptions::echo`] set (script mode) each command is echoed
/// as `(kdb) <cmd>`, making the output a complete transcript suitable
/// for byte-comparison across backends. Lines that are empty or start
/// with `#` are skipped.
///
/// When a watchdog is supplied, its wall clock is paused for the whole
/// session except user-driven forward execution, and trips are reported
/// in-band instead of aborting the process.
///
/// # Errors
///
/// Only I/O errors on `input`/`out` are returned; simulation and command
/// errors are reported in the transcript.
pub fn run_session(
    td: &TDesign,
    target: &mut ScalarTarget<'_>,
    input: &mut dyn BufRead,
    out: &mut dyn Write,
    watchdog: Option<&mut ArmedWatchdog>,
    opts: &DebugOptions,
) -> std::io::Result<()> {
    // The cycle boundary the target sits at (non-zero after `--restore`).
    let pos = target.sim.cycle_count();
    let mut sess = Session {
        td,
        target,
        out,
        watchdog,
        limit: opts.limit,
        pos,
        ring: VecDeque::new(),
        counters: vec![RuleCounter::default(); td.rules.len()],
        last_writes: Vec::new(),
        breaks: Vec::new(),
        next_id: 1,
        genesis: None,
        checkpoints: VecDeque::new(),
        interval: 8,
        max_ckpt: pos,
        pending: VecDeque::new(),
        pending_cycle: 0,
        pending_commits: 0,
        tt_err: None,
        done: false,
    };
    sess.wd_pause();
    writeln!(
        sess.out,
        "kdb: attached to '{}' ({} regs, {} rules), cycle limit {}",
        td.name,
        td.num_regs(),
        td.rules.len(),
        sess.limit
    )?;
    match sess.make_checkpoint() {
        Ok(g) => {
            sess.interval = checkpoint_interval(g.state.state_bytes());
            writeln!(
                sess.out,
                "kdb: checkpoint interval {} cycles ({} slots)",
                sess.interval, CHECKPOINT_SLOTS
            )?;
            sess.genesis = Some(g);
        }
        Err(e) => {
            writeln!(sess.out, "kdb: time travel disabled: {e}")?;
            sess.tt_err = Some(e);
        }
    }
    sess.print_stopped()?;
    let mut line = String::new();
    loop {
        if opts.prompt {
            write!(sess.out, "(kdb) ")?;
            sess.out.flush()?;
        }
        line.clear();
        if input.read_line(&mut line)? == 0 {
            break;
        }
        let cmd = line.trim();
        if cmd.is_empty() || cmd.starts_with('#') {
            continue;
        }
        if opts.echo {
            writeln!(sess.out, "(kdb) {cmd}")?;
        }
        if !sess.dispatch(cmd)? {
            break;
        }
    }
    sess.wd_resume();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;
    use crate::check::check;
    use crate::design::DesignBuilder;
    use crate::interp::Interp;
    use std::io::Cursor;

    /// A counter that ping-pongs a state bit and increments `n` every
    /// other cycle — small, deterministic, and rich enough to break on.
    fn two_rule_design() -> TDesign {
        let mut b = DesignBuilder::new("stm");
        b.reg("st", 1, 0u64);
        b.reg("n", 8, 0u64);
        b.rule(
            "rlA",
            vec![
                guard(rd0("st").eq(k(1, 0))),
                wr0("st", k(1, 1)),
                wr0("n", rd0("n").add(k(8, 1))),
            ],
        );
        b.rule("rlB", vec![guard(rd0("st").eq(k(1, 1))), wr0("st", k(1, 0))]);
        b.schedule(["rlA", "rlB"]);
        check(&b.build()).unwrap()
    }

    fn run_script(td: &TDesign, script: &str, limit: u64) -> String {
        let mut target = ScalarTarget::new(Box::new(Interp::new(td)), Vec::new());
        let mut out = Vec::new();
        let mut input = Cursor::new(script.as_bytes().to_vec());
        run_session(
            td,
            &mut target,
            &mut input,
            &mut out,
            None,
            &DebugOptions {
                limit,
                echo: true,
                prompt: false,
            },
        )
        .unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn breakpoints_and_watchpoints_stop_the_run() {
        let td = two_rule_design();
        let t = run_script(
            &td,
            "break rule rlB commit\ncontinue\ndelete 1\nwatch n == 0x3\ncontinue\nquit\n",
            100,
        );
        // rlB first commits during cycle 1 (st was set during cycle 0).
        assert!(
            t.contains("breakpoint 1: rule 'rlB' commit at cycle 1"),
            "transcript:\n{t}"
        );
        assert!(t.contains("stopped at cycle 2"), "transcript:\n{t}");
        // n reaches 3 during cycle 4 (increments on cycles 0, 2, 4).
        assert!(
            t.contains("watchpoint 2: reg 'n' 0x2 -> 0x3 at cycle 4"),
            "transcript:\n{t}"
        );
        assert!(t.contains("recent events:"), "transcript:\n{t}");
        assert!(t.contains("register changes:"), "transcript:\n{t}");
    }

    #[test]
    fn reverse_step_crosses_checkpoint_boundaries_and_rejoins_the_timeline() {
        let td = two_rule_design();
        // Interval is the 8-cycle floor for this tiny design; going
        // 20 → 7 crosses the cycle-16 and cycle-8 checkpoints.
        let t = run_script(
            &td,
            "run-to 20\nprint n\nreverse-step 13\nprint n\nrun-to 20\nprint n\nquit\n",
            100,
        );
        assert!(t.contains("kdb: checkpoint interval 8 cycles"), "transcript:\n{t}");
        assert!(t.contains("stopped at cycle 7"), "transcript:\n{t}");
        // n after 20 cycles = 10; after 7 cycles = 4.
        let after20 = t.matches("n = 0xa").count();
        assert_eq!(after20, 2, "value must be identical before and after time travel:\n{t}");
        assert!(t.contains("n = 0x4"), "transcript:\n{t}");
    }

    #[test]
    fn step_rule_reveals_one_event_at_a_time() {
        let td = two_rule_design();
        let t = run_script(&td, "step-rule\nstep-rule\nstep-rule\nquit\n", 100);
        assert!(t.contains("cycle 0: rule 'rlA' commit"), "transcript:\n{t}");
        assert!(t.contains("cycle 0: rule 'rlB' abort"), "transcript:\n{t}");
        assert!(t.contains("cycle 0: done (1 commit)"), "transcript:\n{t}");
        assert!(t.contains("cycle 1: rule 'rlA' abort"), "transcript:\n{t}");
    }

    #[test]
    fn sessions_are_deterministic() {
        let td = two_rule_design();
        let script = "break rule rlA\ncontinue\nstep 3\nreverse-step 2\nlast 4\ndiff\ninfo rules\ncontinue\nquit\n";
        let a = run_script(&td, script, 50);
        let b = run_script(&td, script, 50);
        assert_eq!(a, b);
    }

    #[test]
    fn reverse_continue_returns_to_the_previous_hit() {
        let td = two_rule_design();
        let t = run_script(
            &td,
            "watch n == 0x2\ncontinue\nrun-to 10\nreverse-continue\nquit\n",
            100,
        );
        // n becomes 2 during cycle 2; the watchpoint fires there both
        // forward and in reverse.
        let hits = t
            .matches("watchpoint 1: reg 'n' 0x1 -> 0x2 at cycle 2")
            .count();
        assert_eq!(hits, 2, "transcript:\n{t}");
        assert!(t.contains("stopped at cycle 3"), "transcript:\n{t}");
    }

    #[test]
    fn info_rules_reports_abort_breakdown() {
        let mut b = DesignBuilder::new("cfl");
        b.reg("x", 8, 0u64);
        b.rule("w1", vec![wr0("x", k(8, 1))]);
        b.rule("w2", vec![wr0("x", k(8, 2))]);
        b.schedule(["w1", "w2"]);
        let td = check(&b.build()).unwrap();
        let t = run_script(&td, "step 4\ninfo rules\nquit\n", 100);
        assert!(
            t.contains("w2: attempts 4, commits 0, aborts 0, conflicts 4 (x: 4)"),
            "transcript:\n{t}"
        );
    }

    #[test]
    fn run_past_end_reports_finish_and_reverse_still_works() {
        let td = two_rule_design();
        let t = run_script(&td, "continue\nstep\nreverse-step\nprint n\nquit\n", 12);
        assert!(t.contains("program finished at cycle 12"), "transcript:\n{t}");
        assert!(t.contains("already at end of program (cycle 12)"), "transcript:\n{t}");
        assert!(t.contains("stopped at cycle 11"), "transcript:\n{t}");
        assert!(t.contains("n = 0x6"), "transcript:\n{t}");
    }
}
