//! The Cuttlesim virtual machine: a sequential, early-exit executor for
//! compiled rule programs.
//!
//! The VM embodies the paper's key observation (§2.3): Kôika's semantics let
//! a rule *exit early* — on an explicit abort or a read/write conflict — and
//! a sequential model can jump straight to the next rule, paying nothing for
//! the skipped work, whereas RTL simulation computes every rule's full
//! circuit every cycle.
//!
//! The transactional state follows the optimization ladder (see
//! [`crate::OptLevel`]): read-write bitsets live in their own flat arrays,
//! the rule log is (from O2 up) an accumulated `cycle ++ rule` log, failures
//! rather than entries restore it (O3), data fields are merged (O4), the
//! beginning-of-cycle state disappears (O5), and static analysis specializes
//! instructions, commits, and rollbacks (O6).

use crate::compile::{compile, CompileError, CompileOptions, CopyPlan, Program};
use crate::insn::{FusedBin, Insn};
use crate::level::LevelCfg;
use koika::analysis::ScheduleAssumption;
use koika::bits::word;
use koika::bits::Bits;
use koika::device::{run_span_per_cycle, Device, RegAccess, SimBackend, Span, SpanRun, WordMemory};
use koika::obs::{rec_conflict, Metrics, REC_ABORT, REC_COMMIT, REC_CONFLICT, REC_TRAP};
use koika::snapshot::{Snapshot, SnapshotError};
use koika::tir::{RegId, TDesign};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

const R1: u8 = 0b0010;
const W0: u8 = 0b0100;
const W1: u8 = 0b1000;
const R0: u8 = 0b0001;

/// Why a rule stopped executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    Next,
    Jump(u32),
    Fail { clean: bool },
    Done,
    /// A VM-internal invariant was violated (miscompiled bytecode). Never
    /// produced by correctly-compiled programs; surfaced as
    /// [`VmError::CompilerBug`] so embedders (batch workers, campaign
    /// runners) can triage instead of aborting.
    Trap(&'static str),
}

/// A fatal error raised by the VM itself (as opposed to a rule failure,
/// which is normal Kôika semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmError {
    /// The bytecode violated a VM invariant — e.g. an operand-stack
    /// underflow. This indicates a bug in the compiler (or a hand-built
    /// [`Program`]), not in the simulated design.
    CompilerBug {
        /// Index of the rule being executed.
        rule: usize,
        /// Instruction index within the rule.
        pc: usize,
        /// What went wrong.
        what: &'static str,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::CompilerBug { rule, pc, what } => {
                write!(f, "compiler bug in rule {rule} at pc {pc}: {what}")
            }
        }
    }
}

impl std::error::Error for VmError {}

/// Information about the most recent rule failure — the software analogue of
/// breaking on the paper's `FAIL()` macro.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailInfo {
    /// Index of the failing rule.
    pub rule: usize,
    /// Instruction index within the rule.
    pub pc: usize,
    /// The register whose check failed, if the failure was a conflict
    /// (`None` for explicit aborts).
    pub reg: Option<RegId>,
    /// Cycle in which the failure happened.
    pub cycle: u64,
}

/// The VM's mutable simulation state. Cloneable, which is what powers
/// snapshots and reverse debugging. Crate-visible so the batched engine
/// ([`crate::batch`]) can run diverged lanes through the exact scalar rule
/// executor.
#[derive(Debug, Clone)]
pub(crate) struct State {
    pub(crate) boc: Vec<u64>,
    pub(crate) cyc_rw: Vec<u8>,
    pub(crate) log_rw: Vec<u8>,
    pub(crate) cyc_d0: Vec<u64>,
    pub(crate) cyc_d1: Vec<u64>,
    pub(crate) log_d0: Vec<u64>,
    pub(crate) log_d1: Vec<u64>,
    pub(crate) stack: Vec<u64>,
    pub(crate) locals: Vec<u64>,
    pub(crate) cycles: u64,
    pub(crate) fired: u64,
    pub(crate) fired_per_rule: Vec<u64>,
    pub(crate) fail_per_rule: Vec<u64>,
    pub(crate) cov: Vec<u64>,
    pub(crate) last_fail: Option<FailInfo>,
    /// The per-cycle record: one word per rule the current cycle ran, in
    /// run order (for a plain cycle, schedule order). See
    /// [`koika::obs::REC_COMMIT`] for the encoding.
    pub(crate) rec: Vec<u64>,
}

impl State {
    /// A freshly-reset state for `prog` (registers at their declared
    /// initial values).
    pub(crate) fn for_program(prog: &Program) -> State {
        let n = prog.init.len();
        let cfg = prog.cfg;
        let max_locals = prog.rules.iter().fold(0, |m, r| m.max(r.nlocals as usize));
        State {
            boc: if cfg.no_boc { Vec::new() } else { prog.init.clone() },
            cyc_rw: vec![0; n],
            log_rw: vec![0; n],
            cyc_d0: prog.init.clone(),
            cyc_d1: if cfg.merged_data { Vec::new() } else { prog.init.clone() },
            log_d0: prog.init.clone(),
            log_d1: if cfg.merged_data { Vec::new() } else { prog.init.clone() },
            stack: Vec::with_capacity(64),
            locals: vec![0; max_locals],
            cycles: 0,
            fired: 0,
            fired_per_rule: vec![0; prog.rules.len()],
            fail_per_rule: vec![0; prog.rules.len()],
            cov: vec![0; prog.cov.len()],
            last_fail: None,
            rec: Vec::with_capacity(prog.schedule.len()),
        }
    }
}

/// The record word of the failure `f` describes.
fn rec_failure(f: &FailInfo) -> u64 {
    let how = match f.reg {
        Some(r) => rec_conflict(r),
        None => REC_ABORT,
    };
    (f.pc as u64) << 32 | how
}

/// The [`FailInfo`] of record word `w`, a failure of `rule` in `cycle`.
pub(crate) fn rec_fail_info(w: u64, rule: usize, cycle: u64) -> FailInfo {
    FailInfo {
        rule,
        pc: (w >> 32) as usize,
        reg: (w & 3 == REC_CONFLICT).then_some(RegId((w as u32) >> 2)),
        cycle,
    }
}

/// A saved copy of a simulator's complete architectural state.
///
/// Produced by [`Sim::save_state`]; restored with [`Sim::restore_state`].
/// Snapshots power the reverse-debugging workflow of the paper's case
/// study 1 (the role `rr` plays for real Cuttlesim models).
#[derive(Debug, Clone)]
pub struct SimSnapshot {
    state: State,
}

/// How the VM executes the compiled bytecode: three different ways to
/// generate code from the same program, which is what the paper's Fig. 3
/// "GCC vs Clang" compiler-sensitivity axis varies (see DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dispatch {
    /// A tight `match`-based interpreter loop over the stack bytecode.
    #[default]
    Match,
    /// Register-form (three-address) micro-ops: the stack bytecode is
    /// lowered once, at selection time, into a flat pre-decoded array of
    /// micro-ops over a per-rule slot file, with constants folded and
    /// `rd/binop/wr` chains fused into superinstructions (see
    /// [`crate::tac`]). The hot loop does no operand-stack traffic and no
    /// re-decoding.
    Tac,
    /// Compiled native code: the micro-op program is emitted as Rust
    /// source, built with `rustc` into a cdylib (cached by design
    /// fingerprint), and loaded through a hand-rolled `dlopen` shim — the
    /// paper's "compile, don't interpret" thesis applied to our own VM
    /// (see [`crate::native`]). Whole cycles, observed or not, run the
    /// compiled `koika_cycle`; per-rule work (profiling, mid-cycle
    /// stepping, [`Sim::try_cycle`]) runs the same program's micro-ops,
    /// as [`Dispatch::Tac`] would. Requires a Rust toolchain at run time;
    /// selection fails loudly (never a silent fallback) without one.
    Native,
}

impl Dispatch {
    /// Every dispatch backend, in a stable order (used by differential
    /// test matrices).
    pub const ALL: [Dispatch; 3] = [Dispatch::Match, Dispatch::Tac, Dispatch::Native];

    /// The CLI spelling (`--dispatch match|tac|native`).
    pub fn short_name(self) -> &'static str {
        match self {
            Dispatch::Match => "match",
            Dispatch::Tac => "tac",
            Dispatch::Native => "native",
        }
    }

    /// Parses the CLI spelling.
    pub fn from_name(s: &str) -> Option<Dispatch> {
        match s {
            "match" => Some(Dispatch::Match),
            "tac" => Some(Dispatch::Tac),
            "native" => Some(Dispatch::Native),
            _ => None,
        }
    }
}

/// A Cuttlesim simulator instance.
///
/// A clone copies the program and the whole simulation state, and shares
/// a loaded native engine, so cloning a simulator at reset is a cheap way
/// to get another one without compiling again.
///
/// # Examples
///
/// ```
/// use koika::{ast::*, design::DesignBuilder, check};
/// use koika::device::{RegAccess, SimBackend};
/// use cuttlesim::Sim;
///
/// let mut b = DesignBuilder::new("counter");
/// b.reg("count", 8, 0u64);
/// b.rule("incr", vec![wr0("count", rd0("count").add(k(8, 1)))]);
/// let design = check::check(&b.build())?;
///
/// let mut sim = Sim::compile(&design)?;
/// for _ in 0..5 {
///     sim.cycle();
/// }
/// assert_eq!(sim.get64(design.reg_id("count")), 5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct Sim {
    prog: Program,
    st: State,
    engine: Engine,
    history: Option<History>,
    mid_cycle: bool,
    /// Per-rule executed-instruction counters (gprof-style profiling),
    /// `None` unless enabled.
    profile: Option<Vec<u64>>,
    /// The first VM-internal error hit, if any (see [`Sim::take_trap`]).
    trap: Option<VmError>,
}

/// The selected dispatch backend together with everything it runs on, so
/// the selected backend is always the one that runs.
#[derive(Clone)]
enum Engine {
    /// The bytecode interpreter, which runs the program as compiled.
    Match,
    /// The lowered micro-op program.
    Tac(crate::tac::TacProgram),
    /// The loaded native engine (shared through the process-wide cache),
    /// which runs whole cycles, and the micro-op program it was emitted
    /// from, which runs every per-rule step over the same [`State`].
    Native(Arc<crate::native::NativeEngine>, crate::tac::TacProgram),
}

#[derive(Debug, Clone)]
struct History {
    capacity: usize,
    snapshots: VecDeque<State>,
}

impl Sim {
    /// Compiles `design` at the maximum optimization level and instantiates
    /// a simulator.
    ///
    /// # Errors
    ///
    /// Fails if the design uses values wider than 64 bits
    /// ([`CompileError`]).
    pub fn compile(design: &TDesign) -> Result<Sim, CompileError> {
        Ok(Sim::new(compile(design, &CompileOptions::default())?))
    }

    /// Compiles with explicit options.
    ///
    /// # Errors
    ///
    /// Fails if the design uses values wider than 64 bits.
    pub fn compile_with(design: &TDesign, opts: &CompileOptions) -> Result<Sim, CompileError> {
        Ok(Sim::new(compile(design, opts)?))
    }

    /// Instantiates a simulator for a pre-compiled program.
    pub fn new(prog: Program) -> Sim {
        let st = State::for_program(&prog);
        Sim {
            prog,
            st,
            engine: Engine::Match,
            history: None,
            mid_cycle: false,
            profile: None,
            trap: None,
        }
    }

    /// Starts counting executed instructions per rule (see
    /// [`crate::profile::ProfileReport`]). Adds a small per-instruction
    /// overhead while enabled, and a native `Sim` then runs its cycles on
    /// the micro-op bodies, whose weights are the profile's.
    pub fn enable_profiling(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(vec![0; self.prog.rules.len()]);
        }
    }

    /// Per-rule executed-instruction counters, if profiling is enabled.
    pub fn profile_insns(&self) -> Option<&[u64]> {
        self.profile.as_deref()
    }

    /// Selects the instruction-dispatch backend (default: [`Dispatch::Match`]).
    ///
    /// Selection prepares whatever the backend needs (the lowered micro-op
    /// program, the loaded native engine) and replaces the previous
    /// backend's; selecting the current backend again keeps it as is.
    ///
    /// # Panics
    ///
    /// Panics if [`Dispatch::Native`] is requested and the engine cannot
    /// be built (no toolchain, build or load failure). Use
    /// [`Sim::try_set_dispatch`] to handle that case gracefully.
    pub fn set_dispatch(&mut self, dispatch: Dispatch) {
        if let Err(e) = self.try_set_dispatch(dispatch) {
            panic!("cannot select {} dispatch: {e}", dispatch.short_name());
        }
    }

    /// Fallible form of [`Sim::set_dispatch`]: the only backend whose
    /// preparation can actually fail is [`Dispatch::Native`] (it needs a
    /// `rustc` at run time); the others always succeed.
    ///
    /// # Errors
    ///
    /// [`NativeError`] when the native engine cannot be emitted, built, or
    /// loaded. The previously selected dispatch stays in effect.
    pub fn try_set_dispatch(&mut self, dispatch: Dispatch) -> Result<(), crate::NativeError> {
        if dispatch != self.dispatch() {
            self.engine = match dispatch {
                Dispatch::Match => Engine::Match,
                Dispatch::Tac => Engine::Tac(crate::tac::TacProgram::lower(&self.prog)),
                Dispatch::Native => {
                    let native = crate::native::build_engine(&self.prog)?;
                    let tac = native.tac().clone();
                    Engine::Native(native, tac)
                }
            };
        }
        Ok(())
    }

    /// The currently selected dispatch backend.
    pub fn dispatch(&self) -> Dispatch {
        match self.engine {
            Engine::Match => Dispatch::Match,
            Engine::Tac(_) => Dispatch::Tac,
            Engine::Native(..) => Dispatch::Native,
        }
    }

    /// The compiled program backing this simulator.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// Per-rule commit counts (rule-declaration order).
    pub fn fired_per_rule(&self) -> &[u64] {
        &self.st.fired_per_rule
    }

    /// Per-rule failure counts (explicit aborts and conflicts).
    pub fn fails_per_rule(&self) -> &[u64] {
        &self.st.fail_per_rule
    }

    /// The most recent rule failure, if any.
    pub fn last_fail(&self) -> Option<FailInfo> {
        self.st.last_fail
    }

    /// A [`Metrics`] snapshot built from the VM's always-on counters
    /// (commits, failures, cycles) — available without ever attaching an
    /// observer, because the VM keeps these counts on its fast path anyway.
    /// Failures are unclassified here; attach a `Metrics` observer via
    /// [`SimBackend::cycle_obs`] for per-reason breakdowns.
    pub fn metrics_snapshot(&self) -> Metrics {
        let mut m = Metrics::for_design(&self.prog.design);
        m.set_counts(&self.st.fired_per_rule, &self.st.fail_per_rule, self.st.cycles);
        m
    }

    /// Raw coverage counters (parallel to `program().cov`).
    pub fn coverage_counts(&self) -> &[u64] {
        &self.st.cov
    }

    /// Keeps the last `capacity` end-of-cycle snapshots for
    /// [`Sim::step_back`]-style reverse debugging. A capacity of 0 records
    /// nothing.
    pub fn enable_history(&mut self, capacity: usize) {
        self.history = Some(History {
            capacity,
            snapshots: VecDeque::new(),
        });
    }

    /// Saves the complete architectural state.
    pub fn save_state(&self) -> SimSnapshot {
        SimSnapshot {
            state: self.st.clone(),
        }
    }

    /// Restores a previously saved state.
    pub fn restore_state(&mut self, snapshot: &SimSnapshot) {
        self.st = snapshot.state.clone();
    }

    /// Steps back `ncycles` cycles using the recorded history. Returns `true`
    /// on success, `false` if the history does not reach back that far (or
    /// history was never enabled).
    pub fn step_back(&mut self, ncycles: usize) -> bool {
        let Some(h) = &mut self.history else {
            return false;
        };
        if ncycles == 0 || h.snapshots.len() < ncycles {
            return false;
        }
        h.snapshots.truncate(h.snapshots.len() - (ncycles - 1));
        let Some(snap) = h.snapshots.pop_back() else {
            return false;
        };
        self.st = snap;
        true
    }

    /// The current value of every register, as `u64`s.
    pub fn reg_values(&self) -> Vec<u64> {
        self.regs().to_vec()
    }

    /// The registers at the cycle boundary: the beginning-of-cycle state,
    /// or from the level that drops it, the log data.
    #[inline]
    fn regs(&self) -> &[u64] {
        if self.prog.cfg.no_boc {
            &self.st.log_d0
        } else {
            &self.st.boc
        }
    }

    #[inline]
    fn read_reg(&self, i: usize) -> u64 {
        self.regs()[i]
    }

    /// Begins a cycle (for mid-cycle stepping; see the paper's case study 1).
    pub fn begin_cycle(&mut self) {
        let st = &mut self.st;
        st.rec.clear();
        for b in &mut st.cyc_rw {
            *b = 0;
        }
        if self.prog.cfg.reset_on_fail {
            for b in &mut st.log_rw {
                *b = 0;
            }
        }
        self.mid_cycle = true;
    }

    /// Executes one rule transactionally; returns `true` if it committed.
    /// Must be bracketed by [`Sim::begin_cycle`] / [`Sim::end_cycle`].
    /// Native dispatch steps the rule's micro-ops.
    ///
    /// A VM-internal trap (miscompiled bytecode) is recorded — retrieve it
    /// with [`Sim::take_trap`] — and reported as a non-commit.
    pub fn step_rule(&mut self, rule_idx: usize) -> bool {
        let mut executed = 0u64;
        let counting = self.profile.is_some();
        let outcome = match &mut self.engine {
            Engine::Match => {
                step_rule_impl(&self.prog, &mut self.st, rule_idx, &mut executed, counting)
            }
            Engine::Tac(tac) | Engine::Native(_, tac) => crate::tac::step_rule_tac(
                &self.prog,
                &tac.rules[rule_idx],
                &mut tac.slots[rule_idx],
                &mut self.st,
                rule_idx,
                &mut executed,
                counting,
            ),
        };
        if let Some(profile) = &mut self.profile {
            profile[rule_idx] += executed;
        }
        let (committed, word) = match outcome {
            Ok(true) => (true, REC_COMMIT),
            // A failure has just refreshed `last_fail`.
            Ok(false) => (false, self.st.last_fail.as_ref().map_or(REC_TRAP, rec_failure)),
            Err(e) => {
                self.trap.get_or_insert(e);
                (false, REC_TRAP)
            }
        };
        self.st.rec.push(word);
        committed
    }

    /// The first VM-internal error recorded since the last call, if any.
    /// Cleared by the call.
    pub fn take_trap(&mut self) -> Option<VmError> {
        self.trap.take()
    }

    /// Runs one full cycle, propagating VM-internal errors instead of
    /// recording them.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::CompilerBug`] if the bytecode violates a VM
    /// invariant (never for programs produced by [`compile`]); the cycle is
    /// abandoned mid-way.
    pub fn try_cycle(&mut self) -> Result<(), VmError> {
        self.begin_cycle();
        for i in 0..self.prog.schedule.len() {
            let rule = self.prog.schedule[i];
            self.step_rule(rule);
            if let Some(e) = self.trap.take() {
                self.mid_cycle = false;
                return Err(e);
            }
        }
        self.end_cycle();
        Ok(())
    }

    /// Ends a cycle: commits the cycle log into the register state (a no-op
    /// from the no-beginning-of-cycle-state level up).
    pub fn end_cycle(&mut self) {
        let cfg = self.prog.cfg;
        let st = &mut self.st;
        if !cfg.no_boc {
            for i in 0..st.boc.len() {
                let rw = st.cyc_rw[i];
                if rw & W1 != 0 {
                    st.boc[i] = if cfg.merged_data {
                        st.cyc_d0[i]
                    } else {
                        st.cyc_d1[i]
                    };
                } else if rw & W0 != 0 {
                    st.boc[i] = st.cyc_d0[i];
                }
            }
        }
        st.cycles += 1;
        self.mid_cycle = false;
        self.push_history();
    }

    /// Keeps the end-of-cycle state for [`Sim::step_back`], if history is
    /// on.
    #[inline]
    fn push_history(&mut self) {
        if let Some(h) = &mut self.history {
            if h.capacity > 0 {
                if h.snapshots.len() == h.capacity {
                    h.snapshots.pop_front();
                }
                h.snapshots.push_back(self.st.clone());
            }
        }
    }

    /// Runs one cycle with an explicit rule order (the paper's case study 2:
    /// scheduler randomization).
    ///
    /// # Panics
    ///
    /// Panics if the program was compiled at the design-specific level under
    /// the [`ScheduleAssumption::Declared`] assumption — its specialization
    /// would be unsound for arbitrary orders. Compile with
    /// [`ScheduleAssumption::AnyOrder`] instead.
    pub fn cycle_with_order(&mut self, order: &[usize]) {
        assert!(
            !(self.prog.cfg.design_specific
                && self.prog.assumption == ScheduleAssumption::Declared),
            "cycle_with_order on a design-specifically optimized program requires \
             compiling with ScheduleAssumption::AnyOrder"
        );
        self.begin_cycle();
        for &idx in order {
            assert!(idx < self.prog.rules.len(), "rule index out of range");
            self.step_rule(idx);
        }
        self.end_cycle();
    }
}

/// Executes one rule transactionally against `st`: prologue, body, and
/// commit or rollback — the complete scalar per-rule semantics at every
/// level. Returns `Ok(true)` on commit, `Ok(false)` on a rule failure, and
/// `Err` on a VM-internal trap (miscompiled bytecode).
///
/// This is a free function over [`State`] (rather than a `Sim` method) so
/// the batched engine can run a diverged lane through the exact scalar
/// executor.
pub(crate) fn step_rule_impl(
    prog: &Program,
    st: &mut State,
    rule_idx: usize,
    executed: &mut u64,
    counting: bool,
) -> Result<bool, VmError> {
    let cfg = prog.cfg;
    let rule = &prog.rules[rule_idx];
    let n = prog.init.len();

    rule_prologue(cfg, st);
    st.stack.clear();

    let code = &rule.code;
    let mut pc = 0usize;
    let outcome = loop {
        if counting {
            *executed += 1;
        }
        match exec_insn(st, cfg, code[pc]) {
            Flow::Next => pc += 1,
            Flow::Jump(t) => pc = t as usize,
            Flow::Fail { clean } => break Err(clean),
            Flow::Done => break Ok(()),
            Flow::Trap(what) => {
                return Err(VmError::CompilerBug {
                    rule: rule_idx,
                    pc,
                    what,
                })
            }
        }
    };

    match outcome {
        Ok(()) => {
            rule_commit(cfg, st, rule, rule_idx, n);
            Ok(true)
        }
        Err(clean) => {
            rule_failure(cfg, st, rule, rule_idx, pc, clean);
            Ok(false)
        }
    }
}

/// The rule prologue: prepares the rule log for a fresh transaction
/// (level-dependent — plain logs are cleared, accumulated reset-on-entry
/// logs copy the cycle log, reset-on-failure logs are left as-is).
pub(crate) fn rule_prologue(cfg: LevelCfg, st: &mut State) {
    if !cfg.acc_logs {
        // The log is a plain rule log: clear its read-write sets.
        for b in &mut st.log_rw {
            *b = 0;
        }
    } else if !cfg.reset_on_fail {
        // Accumulated log, reset on entry: copy the full cycle log.
        st.log_rw.copy_from_slice(&st.cyc_rw);
        st.log_d0.copy_from_slice(&st.cyc_d0);
        if !cfg.merged_data {
            st.log_d1.copy_from_slice(&st.cyc_d1);
        }
    }
}

/// Commits a successfully completed rule into the cycle log and bumps the
/// fired counters. `n` is the flat register count.
pub(crate) fn rule_commit(
    cfg: LevelCfg,
    st: &mut State,
    rule: &crate::compile::RuleCode,
    rule_idx: usize,
    n: usize,
) {
    if !cfg.acc_logs {
        // Naive merge: or the read-write sets, copy write data.
        for i in 0..n {
            let rl = st.log_rw[i];
            if rl != 0 {
                st.cyc_rw[i] |= rl;
                if rl & W0 != 0 {
                    st.cyc_d0[i] = st.log_d0[i];
                }
                if rl & W1 != 0 {
                    if cfg.merged_data {
                        st.cyc_d0[i] = st.log_d0[i];
                    } else {
                        st.cyc_d1[i] = st.log_d1[i];
                    }
                }
            }
        }
    } else {
        match &rule.commit {
            CopyPlan::Full => {
                st.cyc_rw.copy_from_slice(&st.log_rw);
                st.cyc_d0.copy_from_slice(&st.log_d0);
                if !cfg.merged_data {
                    st.cyc_d1.copy_from_slice(&st.log_d1);
                }
            }
            CopyPlan::Footprint { rw, data } => {
                for &i in rw {
                    st.cyc_rw[i as usize] = st.log_rw[i as usize];
                }
                for &i in data {
                    st.cyc_d0[i as usize] = st.log_d0[i as usize];
                    if !cfg.merged_data {
                        st.cyc_d1[i as usize] = st.log_d1[i as usize];
                    }
                }
            }
        }
    }
    st.fired += 1;
    st.fired_per_rule[rule_idx] += 1;
}

/// Records a rule failure at bytecode location `pc` and rolls the log back
/// where the level demands it. The executor already recorded the failing
/// register (if any) in `last_fail`; this fills in the location.
pub(crate) fn rule_failure(
    cfg: LevelCfg,
    st: &mut State,
    rule: &crate::compile::RuleCode,
    rule_idx: usize,
    pc: usize,
    clean: bool,
) {
    st.fail_per_rule[rule_idx] += 1;
    if let Some(f) = &mut st.last_fail {
        f.rule = rule_idx;
        f.pc = pc;
        f.cycle = st.cycles;
    }
    // Rollback (reset-on-failure levels only; earlier levels reset on
    // entry instead).
    if cfg.reset_on_fail && !clean {
        match &rule.rollback {
            CopyPlan::Full => {
                st.log_rw.copy_from_slice(&st.cyc_rw);
                st.log_d0.copy_from_slice(&st.cyc_d0);
                if !cfg.merged_data {
                    st.log_d1.copy_from_slice(&st.cyc_d1);
                }
            }
            CopyPlan::Footprint { rw, data } => {
                for &i in rw {
                    st.log_rw[i as usize] = st.cyc_rw[i as usize];
                }
                for &i in data {
                    st.log_d0[i as usize] = st.cyc_d0[i as usize];
                    if !cfg.merged_data {
                        st.log_d1[i as usize] = st.cyc_d1[i as usize];
                    }
                }
            }
        }
    }
}

#[inline(always)]
pub(crate) fn fail_conflict(st: &mut State, reg: u32, clean: bool) -> Flow {
    st.last_fail = Some(FailInfo {
        rule: usize::MAX,
        pc: usize::MAX,
        reg: Some(RegId(reg)),
        cycle: u64::MAX,
    });
    Flow::Fail { clean }
}

#[inline(always)]
pub(crate) fn rd0_at(st: &mut State, cfg: LevelCfg, i: usize, clean: bool) -> Result<u64, Flow> {
    let check = if cfg.acc_logs {
        st.log_rw[i]
    } else {
        st.cyc_rw[i]
    };
    if check & (W0 | W1) != 0 {
        return Err(fail_conflict(st, i as u32, clean));
    }
    if !cfg.design_specific {
        st.log_rw[i] |= R0;
    }
    Ok(if cfg.no_boc { st.log_d0[i] } else { st.boc[i] })
}

#[inline(always)]
pub(crate) fn rd1_at(st: &mut State, cfg: LevelCfg, i: usize, clean: bool) -> Result<u64, Flow> {
    let check = if cfg.acc_logs {
        st.log_rw[i]
    } else {
        st.cyc_rw[i]
    };
    if check & W1 != 0 {
        return Err(fail_conflict(st, i as u32, clean));
    }
    st.log_rw[i] |= R1;
    // The first two arms read the same field for *different reasons*: with
    // no beginning-of-cycle state the log data IS the value; otherwise it
    // is only valid if a write-0 happened.
    #[allow(clippy::if_same_then_else)]
    let v = if cfg.no_boc {
        st.log_d0[i]
    } else if st.log_rw[i] & W0 != 0 {
        st.log_d0[i]
    } else if !cfg.acc_logs && st.cyc_rw[i] & W0 != 0 {
        st.cyc_d0[i]
    } else {
        st.boc[i]
    };
    Ok(v)
}

#[inline(always)]
pub(crate) fn wr0_at(st: &mut State, cfg: LevelCfg, i: usize, v: u64, clean: bool) -> Result<(), Flow> {
    let check = if cfg.acc_logs {
        st.log_rw[i]
    } else {
        st.log_rw[i] | st.cyc_rw[i]
    };
    if check & (R1 | W0 | W1) != 0 {
        return Err(fail_conflict(st, i as u32, clean));
    }
    st.log_rw[i] |= W0;
    st.log_d0[i] = v;
    Ok(())
}

#[inline(always)]
pub(crate) fn wr1_at(st: &mut State, cfg: LevelCfg, i: usize, v: u64, clean: bool) -> Result<(), Flow> {
    let check = if cfg.acc_logs {
        st.log_rw[i]
    } else {
        st.log_rw[i] | st.cyc_rw[i]
    };
    if check & W1 != 0 {
        return Err(fail_conflict(st, i as u32, clean));
    }
    st.log_rw[i] |= W1;
    if cfg.merged_data {
        st.log_d0[i] = v;
    } else {
        st.log_d1[i] = v;
    }
    Ok(())
}

#[inline(always)]
pub(crate) fn fused(op: FusedBin, a: u64, b: u64, mask: u64) -> u64 {
    match op {
        FusedBin::Add => a.wrapping_add(b) & mask,
        FusedBin::Sub => a.wrapping_sub(b) & mask,
        FusedBin::Mul => a.wrapping_mul(b) & mask,
        FusedBin::And => a & b,
        FusedBin::Or => a | b,
        FusedBin::Xor => a ^ b,
        FusedBin::Shl => {
            if b >= 64 {
                0
            } else {
                (a << b) & mask
            }
        }
        FusedBin::Shr => {
            if b >= 64 {
                0
            } else {
                a >> b
            }
        }
        FusedBin::Sra => word::sra(mask.count_ones(), a, b),
        FusedBin::Eq => (a == b) as u64,
        FusedBin::Ne => (a != b) as u64,
        FusedBin::Ult => (a < b) as u64,
        FusedBin::Ule => (a <= b) as u64,
        FusedBin::Slt => word::slt(mask.count_ones(), a, b),
        FusedBin::Sle => 1 - word::slt(mask.count_ones(), b, a),
        FusedBin::Concat { low } => word::concat(low as u32, a, b) & mask,
    }
}

#[inline(always)]
fn exec_insn(st: &mut State, cfg: LevelCfg, insn: Insn) -> Flow {
    macro_rules! pop {
        () => {
            match st.stack.pop() {
                Some(v) => v,
                None => return Flow::Trap("operand stack underflow"),
            }
        };
    }
    macro_rules! push {
        ($v:expr) => {
            st.stack.push($v)
        };
    }
    macro_rules! binop {
        (|$a:ident, $b:ident| $body:expr) => {{
            let $b = pop!();
            let $a = pop!();
            push!($body);
            Flow::Next
        }};
    }
    macro_rules! try_op {
        ($r:expr) => {
            match $r {
                Ok(v) => v,
                Err(flow) => return flow,
            }
        };
    }
    match insn {
        Insn::Const(v) => {
            push!(v);
            Flow::Next
        }
        Insn::Local(s) => {
            push!(st.locals[s as usize]);
            Flow::Next
        }
        Insn::SetLocal(s) => {
            st.locals[s as usize] = pop!();
            Flow::Next
        }
        Insn::Add { mask } => binop!(|a, b| a.wrapping_add(b) & mask),
        Insn::Sub { mask } => binop!(|a, b| a.wrapping_sub(b) & mask),
        Insn::Mul { mask } => binop!(|a, b| a.wrapping_mul(b) & mask),
        Insn::And => binop!(|a, b| a & b),
        Insn::Or => binop!(|a, b| a | b),
        Insn::Xor => binop!(|a, b| a ^ b),
        Insn::Shl { mask } => binop!(|a, b| if b >= 64 { 0 } else { (a << b) & mask }),
        Insn::Shr => binop!(|a, b| if b >= 64 { 0 } else { a >> b }),
        Insn::Sra { width } => binop!(|a, b| word::sra(width, a, b)),
        Insn::Eq => binop!(|a, b| (a == b) as u64),
        Insn::Ne => binop!(|a, b| (a != b) as u64),
        Insn::Ult => binop!(|a, b| (a < b) as u64),
        Insn::Ule => binop!(|a, b| (a <= b) as u64),
        Insn::Slt { width } => binop!(|a, b| word::slt(width, a, b)),
        Insn::Sle { width } => binop!(|a, b| 1 - word::slt(width, b, a)),
        Insn::ConcatShift { low_width, mask } => {
            binop!(|a, b| word::concat(low_width, a, b) & mask)
        }
        Insn::Not { mask } => {
            let a = pop!();
            push!(!a & mask);
            Flow::Next
        }
        Insn::Neg { mask } => {
            let a = pop!();
            push!(a.wrapping_neg() & mask);
            Flow::Next
        }
        Insn::Mask { mask } => {
            let a = pop!();
            push!(a & mask);
            Flow::Next
        }
        Insn::Sext { from, mask } => {
            let a = pop!();
            push!(word::sext(from, a) & mask);
            Flow::Next
        }
        Insn::Slice { lo, mask } => {
            let a = pop!();
            push!((a >> lo) & mask);
            Flow::Next
        }
        Insn::Select => {
            let f = pop!();
            let t = pop!();
            let c = pop!();
            push!(if c != 0 { t } else { f });
            Flow::Next
        }
        Insn::Rd0 { reg, clean } => {
            let v = try_op!(rd0_at(st, cfg, reg as usize, clean));
            push!(v);
            Flow::Next
        }
        Insn::Rd1 { reg, clean } => {
            let v = try_op!(rd1_at(st, cfg, reg as usize, clean));
            push!(v);
            Flow::Next
        }
        Insn::Wr0 { reg, clean } => {
            let v = pop!();
            try_op!(wr0_at(st, cfg, reg as usize, v, clean));
            Flow::Next
        }
        Insn::Wr1 { reg, clean } => {
            let v = pop!();
            try_op!(wr1_at(st, cfg, reg as usize, v, clean));
            Flow::Next
        }
        Insn::Rd0Fast { reg } | Insn::Rd1Fast { reg } => {
            // Safe registers: no checks, no recording; with analysis-proven
            // safety the log data field is always the right value.
            push!(st.log_d0[reg as usize]);
            Flow::Next
        }
        Insn::Wr0Fast { reg } | Insn::Wr1Fast { reg } => {
            let v = pop!();
            st.log_d0[reg as usize] = v;
            Flow::Next
        }
        Insn::Rd0Arr { base, mask, clean } => {
            let idx = pop!();
            let i = base as usize + (idx & mask as u64) as usize;
            let v = try_op!(rd0_at(st, cfg, i, clean));
            push!(v);
            Flow::Next
        }
        Insn::Rd1Arr { base, mask, clean } => {
            let idx = pop!();
            let i = base as usize + (idx & mask as u64) as usize;
            let v = try_op!(rd1_at(st, cfg, i, clean));
            push!(v);
            Flow::Next
        }
        Insn::Wr0Arr { base, mask, clean } => {
            let v = pop!();
            let idx = pop!();
            let i = base as usize + (idx & mask as u64) as usize;
            try_op!(wr0_at(st, cfg, i, v, clean));
            Flow::Next
        }
        Insn::Wr1Arr { base, mask, clean } => {
            let v = pop!();
            let idx = pop!();
            let i = base as usize + (idx & mask as u64) as usize;
            try_op!(wr1_at(st, cfg, i, v, clean));
            Flow::Next
        }
        Insn::Rd0ArrFast { base, mask } | Insn::Rd1ArrFast { base, mask } => {
            let idx = pop!();
            let i = base as usize + (idx & mask as u64) as usize;
            push!(st.log_d0[i]);
            Flow::Next
        }
        Insn::Wr0ArrFast { base, mask } | Insn::Wr1ArrFast { base, mask } => {
            let v = pop!();
            let idx = pop!();
            let i = base as usize + (idx & mask as u64) as usize;
            st.log_d0[i] = v;
            Flow::Next
        }
        Insn::BinRC { op, rhs, mask } => {
            let a = pop!();
            push!(fused(op, a, rhs, mask));
            Flow::Next
        }
        Insn::BinRL { op, rhs_slot, mask } => {
            let b = st.locals[rhs_slot as usize];
            let a = pop!();
            push!(fused(op, a, b, mask));
            Flow::Next
        }
        Insn::BinLL {
            op,
            a_slot,
            b_slot,
            mask,
        } => {
            let a = st.locals[a_slot as usize];
            let b = st.locals[b_slot as usize];
            push!(fused(op, a, b, mask));
            Flow::Next
        }
        Insn::BinLC {
            op,
            a_slot,
            rhs,
            mask,
        } => {
            let a = st.locals[a_slot as usize];
            push!(fused(op, a, rhs, mask));
            Flow::Next
        }
        Insn::SliceSext { lo, from, mask } => {
            let a = pop!();
            push!(word::sext(from, (a >> lo) & word::mask(from)) & mask);
            Flow::Next
        }
        Insn::LdFast { reg, slot } => {
            st.locals[slot as usize] = st.log_d0[reg as usize];
            Flow::Next
        }
        Insn::StFast { reg, slot } => {
            st.log_d0[reg as usize] = st.locals[slot as usize];
            Flow::Next
        }
        Insn::SetLocalK { slot, imm } => {
            st.locals[slot as usize] = imm;
            Flow::Next
        }
        Insn::Jmp(t) => Flow::Jump(t),
        Insn::Jz(t) => {
            if pop!() == 0 {
                Flow::Jump(t)
            } else {
                Flow::Next
            }
        }
        Insn::Abort => {
            st.last_fail = Some(FailInfo {
                rule: usize::MAX,
                pc: usize::MAX,
                reg: None,
                cycle: u64::MAX,
            });
            Flow::Fail { clean: false }
        }
        Insn::AbortClean => {
            st.last_fail = Some(FailInfo {
                rule: usize::MAX,
                pc: usize::MAX,
                reg: None,
                cycle: u64::MAX,
            });
            Flow::Fail { clean: true }
        }
        Insn::Cov(id) => {
            st.cov[id as usize] += 1;
            Flow::Next
        }
        Insn::End => Flow::Done,
    }
}

impl RegAccess for Sim {
    #[inline]
    fn get64(&self, reg: RegId) -> u64 {
        self.read_reg(reg.0 as usize)
    }

    #[inline]
    fn set64(&mut self, reg: RegId, value: u64) {
        let i = reg.0 as usize;
        let v = value & word::mask(self.prog.widths[i]);
        if self.prog.cfg.no_boc {
            self.st.log_d0[i] = v;
            self.st.cyc_d0[i] = v;
        } else {
            self.st.boc[i] = v;
        }
    }
}

impl SimBackend for Sim {
    fn cycle(&mut self) {
        debug_assert!(!self.mid_cycle, "cycle() called while stepping mid-cycle");
        // Native runs the whole schedule (prologue, bodies, commit or
        // rollback, record, end-of-cycle merge) in one `koika_cycle` call.
        // A profiled run counts per-rule weights on the micro-op bodies
        // instead. A trap is recorded as `step_rule` records it.
        if let (Engine::Native(native, _), None) = (&self.engine, &self.profile) {
            if let Err(e) = crate::native::run_cycle_native(native, &mut self.st) {
                self.trap.get_or_insert(e);
            }
            self.push_history();
            return;
        }
        self.begin_cycle();
        for i in 0..self.prog.schedule.len() {
            let rule = self.prog.schedule[i];
            self.step_rule(rule);
        }
        self.end_cycle();
    }

    #[inline]
    fn last_record(&self) -> (&[usize], &[u64]) {
        (&self.prog.schedule, &self.st.rec)
    }

    #[inline]
    fn reg_words(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(self.regs());
    }

    /// On native dispatch with no profile and no history, and with every
    /// device a word memory whose ports [`crate::native`] can serve, the
    /// whole span runs inside the generated crate (`koika_run`); it leaves
    /// the same state as the per-cycle loop, devices included. Anything
    /// else runs [`run_span_per_cycle`].
    fn run_span(&mut self, span: Span, devices: &mut [&mut dyn Device]) -> SpanRun {
        debug_assert!(
            !self.mid_cycle,
            "run_span() called while stepping mid-cycle"
        );
        let n = self.prog.init.len();
        let plain = self.profile.is_none() && self.history.is_none();
        if let (Engine::Native(native, _), true) = (&self.engine, plain) {
            if span.cycles > 0 && span.stop.is_none_or(|(r, _)| (r.0 as usize) < n) {
                let mems: Option<Vec<WordMemory<'_>>> =
                    devices.iter_mut().map(|d| d.word_memory()).collect();
                if let Some(mut mems) = mems {
                    if let Some(ports) = crate::native::native_ports(&mut mems, &self.prog.widths) {
                        return crate::native::run_span_native(
                            native,
                            &mut self.st,
                            &ports,
                            span,
                            &mut self.trap,
                        );
                    }
                }
            }
        }
        run_span_per_cycle(self, span, devices)
    }

    #[inline]
    fn cycle_count(&self) -> u64 {
        self.st.cycles
    }

    fn rules_fired(&self) -> u64 {
        self.st.fired
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            design: self.prog.design.name.clone(),
            cycles: self.st.cycles,
            fired: self.st.fired,
            fingerprint: self.prog.design.fingerprint(),
            fired_per_rule: self.st.fired_per_rule.clone(),
            regs: (0..self.prog.init.len())
                .map(|i| Bits::new(self.prog.widths[i], self.read_reg(i)))
                .collect(),
        }
    }

    fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        if self.mid_cycle {
            return Err(SnapshotError::MidCycle);
        }
        snap.check_shape(
            &self.prog.design.name,
            &self.prog.widths,
            self.prog.design.fingerprint(),
        )?;
        for (i, v) in snap.regs.iter().enumerate() {
            self.set64(RegId(i as u32), v.low_u64());
        }
        self.st.cycles = snap.cycles;
        self.st.fired = snap.fired;
        if snap.fired_per_rule.len() == self.st.fired_per_rule.len() {
            self.st.fired_per_rule.copy_from_slice(&snap.fired_per_rule);
        } else {
            self.st.fired_per_rule.fill(0);
        }
        self.st.last_fail = None;
        Ok(())
    }

    fn as_reg_access(&mut self) -> &mut dyn RegAccess {
        self
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("design", &self.prog.design.name)
            .field("level", &self.prog.level)
            .field("cycles", &self.st.cycles)
            .field("fired", &self.st.fired)
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use koika::ast::*;
    use koika::check::check;
    use koika::design::DesignBuilder;

    fn counter_prog() -> Program {
        let mut b = DesignBuilder::new("c");
        b.reg("n", 8, 0u64);
        b.rule("inc", vec![wr0("n", rd0("n").add(k(8, 1)))]);
        let td = check(&b.build()).unwrap();
        compile(&td, &CompileOptions::default()).unwrap()
    }

    #[test]
    fn clones_share_the_design_and_the_bytecode() {
        let prog = counter_prog();
        let shares = |p: &Program| {
            Arc::ptr_eq(&p.rules, &prog.rules)
                && Arc::ptr_eq(&p.analysis, &prog.analysis)
                && Arc::ptr_eq(&p.design.rules, &prog.design.rules)
                && Arc::ptr_eq(&p.design.regs, &prog.design.regs)
                && Arc::ptr_eq(&p.design.syms, &prog.design.syms)
        };
        let td = prog.design.clone();
        assert!(Arc::ptr_eq(&td.rules, &prog.design.rules));
        assert!(Arc::ptr_eq(&td.regs, &prog.design.regs));
        assert!(shares(&prog.clone()));
        let mut sim = Sim::new(prog.clone());
        assert!(shares(sim.program()));
        for dispatch in [Dispatch::Match, Dispatch::Tac] {
            sim.set_dispatch(dispatch);
            sim.cycle();
            let copy = sim.clone();
            assert!(shares(copy.program()), "{dispatch:?}");
            if let (Engine::Tac(a), Engine::Tac(b)) = (&sim.engine, &copy.engine) {
                assert!(Arc::ptr_eq(&a.rules, &b.rules), "a clone shares the micro-ops");
            }
            assert_eq!(copy.reg_values(), sim.reg_values(), "{dispatch:?}");
        }
        // The `Debug` text is the plain vectors'.
        assert!(format!("{prog:?}").contains("rules: [RuleCode { name: \"inc\""));
    }

    #[test]
    fn tampering_copies_on_write() {
        let prog = counter_prog();
        let pristine = prog.rules[0].code.clone();
        let mut honest = Sim::new(prog.clone());
        let mut tampered = prog.clone();
        Arc::make_mut(&mut tampered.rules)[0].code.insert(0, Insn::Add { mask: u64::MAX });
        assert!(!Arc::ptr_eq(&tampered.rules, &prog.rules));
        assert!(Arc::ptr_eq(&tampered.design.rules, &prog.design.rules));
        assert_eq!(prog.rules[0].code, pristine, "the source program is untouched");
        assert_eq!(honest.program().rules[0].code, pristine, "and so is its simulator");
        let mut bad = Sim::new(tampered);
        assert!(bad.try_cycle().is_err());
        for _ in 0..3 {
            honest.try_cycle().unwrap();
        }
        assert_eq!(honest.get64(RegId(0)), 3);
    }

    #[test]
    fn miscompiled_bytecode_traps_instead_of_panicking() {
        let mut prog = counter_prog();
        // Corrupt the rule: a binop with an empty operand stack.
        Arc::make_mut(&mut prog.rules)[0].code.insert(0, Insn::Add { mask: u64::MAX });
        let mut sim = Sim::new(prog);
        let err = sim.try_cycle().unwrap_err();
        assert_eq!(
            err,
            VmError::CompilerBug {
                rule: 0,
                pc: 0,
                what: "operand stack underflow",
            }
        );
        assert!(err.to_string().contains("compiler bug in rule 0"));
    }

    #[test]
    fn step_rule_records_trap_and_reports_non_commit() {
        let mut prog = counter_prog();
        Arc::make_mut(&mut prog.rules)[0].code.insert(0, Insn::Select);
        let mut sim = Sim::new(prog);
        sim.begin_cycle();
        assert!(!sim.step_rule(0));
        sim.end_cycle();
        assert!(matches!(
            sim.take_trap(),
            Some(VmError::CompilerBug { rule: 0, .. })
        ));
        assert_eq!(sim.take_trap(), None, "trap is cleared once taken");
    }

    #[test]
    fn concat_shift_zero_width_high_half_is_guarded() {
        // Regression: `low_width == 64` (a zero-width high half) used to
        // evaluate `a << 64`, a debug-mode panic and a release-mode wrong
        // answer. The guarded lowering returns the low half.
        let mut prog = counter_prog();
        Arc::make_mut(&mut prog.rules)[0].code = vec![
            Insn::Const(0xdead),
            Insn::Const(5),
            Insn::ConcatShift {
                low_width: 64,
                mask: u64::MAX,
            },
            Insn::Wr0 {
                reg: 0,
                clean: false,
            },
            Insn::End,
        ];
        let mut sim = Sim::new(prog);
        sim.try_cycle().unwrap();
        assert_eq!(sim.get64(RegId(0)), 5);
    }

    #[test]
    fn concat_shift_applies_the_result_mask() {
        // Regression: the concat result was never masked, so high-half bits
        // beyond the combined width leaked into the register.
        let mut prog = counter_prog();
        Arc::make_mut(&mut prog.rules)[0].code = vec![
            Insn::Const(0xab),
            Insn::Const(0x5),
            Insn::ConcatShift {
                low_width: 4,
                mask: 0xff,
            },
            Insn::Wr0 {
                reg: 0,
                clean: false,
            },
            Insn::End,
        ];
        let mut sim = Sim::new(prog);
        sim.try_cycle().unwrap();
        assert_eq!(sim.get64(RegId(0)), 0xb5, "(0xab << 4 | 5) & 0xff");
    }

    #[test]
    fn fused_concat_is_guarded_and_masked() {
        // The same two regressions through the peephole-fused form, which
        // routes through `fused()` rather than the ConcatShift arm.
        assert_eq!(fused(FusedBin::Concat { low: 64 }, 0xdead, 5, u64::MAX), 5);
        assert_eq!(fused(FusedBin::Concat { low: 4 }, 0xab, 0x5, 0xff), 0xb5);
        let mut prog = counter_prog();
        Arc::make_mut(&mut prog.rules)[0].code = vec![
            Insn::Const(0xab),
            Insn::BinRC {
                op: FusedBin::Concat { low: 4 },
                rhs: 0x5,
                mask: 0xff,
            },
            Insn::Wr0 {
                reg: 0,
                clean: false,
            },
            Insn::End,
        ];
        let mut sim = Sim::new(prog);
        sim.try_cycle().unwrap();
        assert_eq!(sim.get64(RegId(0)), 0xb5);
    }

    #[test]
    fn dispatch_survives_snapshot_restore() {
        for dispatch in Dispatch::ALL {
            let mut sim = Sim::new(counter_prog());
            sim.set_dispatch(dispatch);
            let snap = sim.save_state();
            sim.cycle();
            sim.restore_state(&snap);
            assert_eq!(
                sim.dispatch(),
                dispatch,
                "restore rewinds architectural state, not backend selection"
            );
            sim.cycle();
            assert_eq!(sim.get64(RegId(0)), 1, "{dispatch:?} runs after restore");
        }
    }

    /// The counter behind an unreachable backward jump: the interpreters
    /// jump over it, but the native emitter rejects the program before any
    /// rustc is needed.
    pub(crate) fn native_rejected_counter_prog() -> Program {
        let mut prog = counter_prog();
        let code = &mut Arc::make_mut(&mut prog.rules)[0].code;
        code.insert(0, Insn::Jmp(0));
        code.insert(0, Insn::Jmp(2));
        prog
    }

    #[test]
    fn failed_native_selection_keeps_the_previous_engine() {
        let mut sim = Sim::new(native_rejected_counter_prog());
        sim.set_dispatch(Dispatch::Tac);
        assert!(matches!(
            sim.try_set_dispatch(Dispatch::Native),
            Err(crate::NativeError::Unsupported(_))
        ));
        assert_eq!(sim.dispatch(), Dispatch::Tac);
        sim.cycle();
        assert_eq!(sim.get64(RegId(0)), 1);
    }

    #[test]
    fn step_back_without_history_is_refused() {
        let mut sim = Sim::new(counter_prog());
        assert!(!sim.step_back(1));
        sim.enable_history(4);
        assert!(!sim.step_back(0), "zero-cycle step-back is refused");
        assert!(!sim.step_back(1), "no snapshots recorded yet");
        sim.cycle();
        sim.cycle();
        assert!(sim.step_back(2), "history reaches back to end of cycle 1");
        assert_eq!(sim.get64(RegId(0)), 1);
        assert!(!sim.step_back(1), "the restore consumed the history");

        let mut sim = Sim::new(counter_prog());
        sim.enable_history(0);
        sim.cycle();
        assert!(!sim.step_back(1), "a zero-capacity history records nothing");
    }
}
