//! Batched lock-step simulation: N instances of one compiled design,
//! structure-of-arrays state, one dispatch per micro-op per cycle.
//!
//! Fault campaigns and fuzz sweeps run *thousands* of near-identical
//! instances of the same design; the scalar VM pays full dispatch and
//! log-bookkeeping cost for each. [`BatchSim`] amortizes those costs by
//! running `lanes` instances in lock-step over structure-of-arrays register
//! state: every flat array of the scalar [`State`](crate::vm) becomes
//! `reg[r * lanes + lane]`. Construction lowers the program once to the
//! register-form micro-ops of [`crate::tac`], and the interpreter decodes
//! each micro-op once *across the whole batch*, over a per-rule SoA slot
//! file (`slot * lanes + lane`). Rule scheduling, micro-op dispatch, and
//! the optimization ladder's log-maintenance memcpys (prologue copies,
//! commit plans, rollbacks) all become single strided or contiguous
//! operations over the batch. There is no compiled batched engine: a
//! design that wants compiled speed runs scalar [`Dispatch::Native`]
//! [`Sim`](crate::Sim)s, which beat this lock-step interpreter on every
//! design of the figures program's batch section. On the 32-member rv32i
//! SEU campaign the batch wins instead (EXPERIMENTS.md).
//!
//! # Divergence fallback
//!
//! Lanes stay in lock-step only while control flow agrees. At every
//! control-flow-relevant point — a checked register access, a conditional
//! jump — the batch tests its *active* lanes (every lane, at rule entry):
//!
//! * **all active lanes agree** → one batched step (the fast path);
//! * **all active lanes fail** a check → one batched rule failure;
//! * **active lanes disagree** → the rule *diverges*: the larger side
//!   stays in lock-step (on a tie, the side holding the lowest active
//!   lane) and the other side is *dropped*. Gates and jumps count only the
//!   active lanes, with the same masked kernels whether or not a lane has
//!   dropped, and after a split the rule-end commit, rollback or merge
//!   blends only them.
//!
//! At rule end each dropped lane is restored to its state at rule entry (a
//! snapshot taken after the rule prologue, which is idempotent at every
//! level) and re-run alone through the *exact scalar bytecode executor*
//! ([`step_rule_impl`](crate::vm)) — only this rule, only this cycle, only
//! the dropped lanes; the next rule starts with every lane in lock-step
//! again. A re-run copies the lane in and out of the scalar scratch state
//! for just the registers the rule can touch (its *lane set*), or whole
//! when a commit or rollback copies whole logs.
//!
//! Because the fallback path *is* the scalar semantics and the lock-step
//! path executes the same checks and side effects lane-wise, per-lane
//! architectural state and commit lists are bit-identical to
//! `lanes` independent scalar [`Sim`](crate::Sim)s at every
//! [`OptLevel`](crate::OptLevel). The differential suite
//! (`tests/batched.rs`) enforces this with per-cycle commit digests.
//!
//! # Retired lanes
//!
//! A lane that keeps diverging costs a scalar re-run at every rule it
//! splits on. A caller that no longer needs a lane retires it
//! ([`BatchSim::retire_lane`]): a `live` plane seeds every rule's `active`
//! plane, so a retired lane is never counted at a gate or jump and never
//! re-run, and its columns become don't-care. The rule-end copies
//! therefore blend only when a *live* lane was dropped. Once no lane is
//! live, a cycle skips the schedule and counts each of its rules as
//! lock-step, so `lockstep_rules + fallback_rules == cycles x schedule`
//! still holds. Fault campaigns retire a member's lane once its commit
//! stream leaves the golden run's and finish the member on a scalar
//! simulator (`koika::fault::run_campaign_batched`).
//!
//! # Dormant lanes and the live span
//!
//! A retired lane can come back: [`BatchSim::admit_lane`] makes it live
//! again at a cycle boundary, running on from the registers the caller
//! wrote through [`BatchSim::lane_set64`] (whatever else its column was
//! left with is never read). Fault campaigns use this to start a member
//! at its first injection: its lane sits retired (*dormant*) from cycle 0,
//! and at that cycle it is filled from a golden checkpoint and admitted.
//!
//! The per-lane work of a cycle runs over the *live span*, lanes
//! `[0, span)` where `span` is one past the highest live lane: the
//! micro-op kernels and gates, the rule-entry snapshot, the rule-end
//! settle on footprint stripes, and the divergence re-runs. The stride
//! stays `lanes`, so no column moves when the span changes. Retiring the
//! top live lane shrinks the span to the next live lane below it;
//! admitting a lane above it grows the span. Retired lanes inside the
//! span are still computed (as garbage nothing reads) but never counted
//! or re-run. Plane-wide passes (the begin-cycle clears, the prologue
//! copies, whole-plane commits and the end-cycle `boc` merge) still cover
//! every lane: one contiguous `memset` or `memcpy` per plane costs less
//! than one per register stripe, which measured slower than the full pass
//! at a span of 24 of 32 lanes on rv32i. A caller that admits lanes in
//! slot order, earliest first, keeps the span short while most lanes are
//! still dormant.
//!
//! # Quick start
//!
//! ```
//! use koika::{ast::*, design::DesignBuilder, check};
//! use cuttlesim::batch::BatchSim;
//! use koika::tir::RegId;
//!
//! let mut b = DesignBuilder::new("counter");
//! b.reg("count", 8, 0u64);
//! b.rule("incr", vec![wr0("count", rd0("count").add(k(8, 1)))]);
//! let design = check::check(&b.build())?;
//!
//! let mut batch = BatchSim::compile(&design, 4)?;
//! batch.lane_set64(2, design.reg_id("count"), 10);
//! batch.cycle()?;
//! assert_eq!(batch.lane_get64(0, design.reg_id("count")), 1);
//! assert_eq!(batch.lane_get64(2, design.reg_id("count")), 11);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::compile::{compile, CompileError, CompileOptions, CopyPlan, Program};
use crate::insn::Insn;
use crate::simd;
use crate::simd::lane_mask;
use crate::tac::{TacRule, Uop};
use crate::vm::{step_rule_impl, Dispatch, State, VmError};
use koika::bits::word;
use koika::device::BatchBackend;
use koika::tir::{RegId, TDesign};

const R0: u8 = 0b0001;
const R1: u8 = 0b0010;
const W0: u8 = 0b0100;
const W1: u8 = 0b1000;

/// Per-rule facts precomputed at construction: which flat register indices
/// the rule can write (bounding the data snapshot needed for divergence
/// restore), which it can touch, and which a scalar re-run can reach.
#[derive(Debug, Default)]
struct RuleMeta {
    /// Sorted, deduplicated flat register indices of every write-class
    /// instruction in the rule (array writes contribute their whole range).
    writes: Vec<u32>,
    /// Sorted, deduplicated union of the rule's checked reads and writes —
    /// the only registers whose read-write-set bytes the lock-step engine
    /// can mutate, bounding the rw-plane snapshot and the O1 commit merge.
    touched: Vec<u32>,
    /// The registers whose columns a scalar re-run of one lane must copy
    /// in and out: `touched`, the unchecked reads (which `touched` omits),
    /// and the commit and rollback footprints. `None` — copy the whole
    /// lane — when `acc_logs` holds and either plan is
    /// [`CopyPlan::Full`]: that commit also copies lingering log bits of
    /// registers the rule never touches.
    lane_set: Option<Vec<u32>>,
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v.dedup();
    v
}

fn rule_metas(prog: &Program) -> Vec<RuleMeta> {
    prog.rules
        .iter()
        .map(|rule| {
            let mut writes: Vec<u32> = Vec::new();
            let mut reads: Vec<u32> = Vec::new();
            let mut fast_reads: Vec<u32> = Vec::new();
            for insn in &rule.code {
                match *insn {
                    Insn::Wr0 { reg, .. }
                    | Insn::Wr1 { reg, .. }
                    | Insn::Wr0Fast { reg }
                    | Insn::Wr1Fast { reg }
                    | Insn::StFast { reg, .. } => writes.push(reg),
                    Insn::Wr0Arr { base, mask, .. }
                    | Insn::Wr1Arr { base, mask, .. }
                    | Insn::Wr0ArrFast { base, mask }
                    | Insn::Wr1ArrFast { base, mask } => writes.extend(base..=base + mask),
                    Insn::Rd0 { reg, .. } | Insn::Rd1 { reg, .. } => reads.push(reg),
                    Insn::Rd0Arr { base, mask, .. } | Insn::Rd1Arr { base, mask, .. } => {
                        reads.extend(base..=base + mask);
                    }
                    Insn::Rd0Fast { reg } | Insn::Rd1Fast { reg } | Insn::LdFast { reg, .. } => {
                        fast_reads.push(reg);
                    }
                    Insn::Rd0ArrFast { base, mask } | Insn::Rd1ArrFast { base, mask } => {
                        fast_reads.extend(base..=base + mask);
                    }
                    _ => {}
                }
            }
            let writes = sorted(writes);
            let touched = sorted([&writes[..], &reads].concat());
            let lane_set = match (&rule.commit, &rule.rollback) {
                (CopyPlan::Full, _) | (_, CopyPlan::Full) if prog.cfg.acc_logs => None,
                (commit, rollback) => {
                    let mut set = [&touched[..], &fast_reads].concat();
                    for plan in [commit, rollback] {
                        if let CopyPlan::Footprint { rw, data } = plan {
                            set.extend(rw.iter().chain(data));
                        }
                    }
                    Some(sorted(set))
                }
            };
            RuleMeta {
                writes,
                touched,
                lane_set,
            }
        })
        .collect()
}

/// Splits the active lanes at a gate or jump they disagree on: the larger
/// side stays in lock-step (on a tie, the side holding the lowest active
/// lane) and the other side is dropped. `npass` counts the active lanes
/// for which `pass` holds. Returns whether the passing side was kept.
fn split_lanes(
    active: &mut [u8],
    nactive: &mut usize,
    npass: usize,
    pass: impl Fn(usize) -> bool,
) -> bool {
    let first = active
        .iter()
        .position(|&a| a != 0)
        .expect("a rule run keeps at least one active lane");
    let keep = 2 * npass > *nactive || (2 * npass == *nactive && pass(first));
    for (l, a) in active.iter_mut().enumerate() {
        if *a != 0 && pass(l) != keep {
            *a = 0;
        }
    }
    *nactive = if keep { npass } else { *nactive - npass };
    keep
}

/// A lane word the rule-end blends can select per lane.
trait LaneWord: Copy {
    /// `new` on an active lane (`active == 0xFF`), else `old`, branchlessly.
    fn blend(new: Self, old: Self, active: u8) -> Self;
}

impl LaneWord for u8 {
    #[inline(always)]
    fn blend(new: u8, old: u8, active: u8) -> u8 {
        (new & active) | (old & !active)
    }
}

impl LaneWord for u64 {
    #[inline(always)]
    fn blend(new: u64, old: u64, active: u8) -> u64 {
        let m = lane_mask(active != 0);
        (new & m) | (old & !m)
    }
}

/// `dst = src` over whole stripes, `active.len()` lanes each: a plain
/// copy when `active` is `None` (every lane in lock-step), else a blend
/// that writes only the lanes `active` selects. The blend costs a third load per word; on
/// lock-step-bound runs it is measurably slower than the copy (see
/// EXPERIMENTS.md), so the rule-end copies take it only after a split.
#[inline(always)]
fn copy_lanes<T: LaneWord>(dst: &mut [T], src: &[T], active: Option<&[u8]>) {
    match active {
        None => dst.copy_from_slice(src),
        Some(act) => {
            for (d, s) in dst.chunks_exact_mut(act.len()).zip(src.chunks_exact(act.len())) {
                for ((d, &s), &a) in d.iter_mut().zip(s).zip(act) {
                    *d = T::blend(s, *d, a);
                }
            }
        }
    }
}

/// A batched simulator: `lanes` instances of one compiled design executing
/// in lock-step over structure-of-arrays state.
///
/// All per-register arrays are laid out `reg * lanes + lane`, so one
/// register's values across the batch are contiguous — the lock-step
/// interpreter touches them as stripes, and the ladder's log-maintenance
/// copies become whole-array `memcpy`s regardless of batch width.
pub struct BatchSim {
    prog: Program,
    lanes: usize,
    // SoA architectural and log state (reg-major, `reg * lanes + lane`).
    boc: Vec<u64>,
    cyc_rw: Vec<u8>,
    log_rw: Vec<u8>,
    cyc_d0: Vec<u64>,
    cyc_d1: Vec<u64>,
    log_d0: Vec<u64>,
    log_d1: Vec<u64>,
    /// One scratch stripe (`lanes` wide) for fused micro-op intermediates.
    tmp: Vec<u64>,
    cycles: u64,
    // Per-lane bookkeeping (bit-identical to the scalar VM's).
    fired: Vec<u64>,
    /// Rules committed this cycle, per lane, in schedule order — the raw
    /// material for commit digests (the batched/scalar equivalence oracle).
    commits: Vec<Vec<u32>>,
    // Lock-step bookkeeping base. A lock-step outcome is identical across
    // lanes by construction, so a lock-step commit bumps one base counter
    // instead of `lanes` overlay slots; a lane's observable count is
    // always `base + overlay`, and the divergence fallback keeps bumping
    // the per-lane overlays above.
    fired_base: u64,
    /// This cycle's commits while every lane still agrees; the first
    /// divergence of the cycle copies it into the per-lane vectors and
    /// flips `commits_split`.
    commits_uniform: Vec<u32>,
    commits_split: bool,
    // Divergence-fallback machinery.
    rule_meta: Vec<RuleMeta>,
    /// Scalar scratch state for running diverged lanes through the exact
    /// scalar rule executor.
    scratch: State,
    // Rule-entry snapshot buffer (post-prologue). Only the rw byte plane
    // is ever saved — data stripes and slot files are recoverable without
    // a snapshot (see `step_rule_batch_inner`).
    snap_rw: Vec<u8>,
    /// Per-lane batch membership: `0xFF` while the lane is in the batch,
    /// `0` from [`BatchSim::retire_lane`] until [`BatchSim::admit_lane`].
    live: Vec<u8>,
    /// Number of live lanes.
    nlive: usize,
    /// One past the highest live lane: the per-lane work of a cycle runs
    /// over lanes `[0, span)`.
    span: usize,
    /// Per-lane lock-step membership during one rule run: `0xFF` while
    /// the lane follows the batch, `0` once a split dropped it (or it was
    /// retired). Every live lane is active again at the next rule.
    active: Vec<u8>,
    /// Number of active lanes; `nlive` until a rule run drops one.
    nactive: usize,
    // Lock-step effectiveness counters.
    lockstep_rules: u64,
    fallback_rules: u64,
    fallback_lanes: u64,
    /// Every rule lowered to micro-ops, once, at construction.
    tac: Vec<TacRule>,
    /// Per-rule SoA slot files, slot-major (`slot * lanes + lane`), with
    /// constant slots pre-broadcast across all lanes.
    slots: Vec<Vec<u64>>,
}

/// Builds one SoA slot file per rule (`slot * lanes + lane`), constant
/// slots pre-broadcast across all lanes. Non-constant slots start at zero
/// and are def-before-use by construction, so the files can persist across
/// rules and cycles untouched.
fn soa_slot_files(tac: &[TacRule], lanes: usize) -> Vec<Vec<u64>> {
    tac.iter()
        .map(|r| {
            let mut soa = vec![0u64; r.slot_init.len() * lanes];
            for (s, &v) in r.slot_init.iter().enumerate() {
                soa[s * lanes..(s + 1) * lanes].fill(v);
            }
            soa
        })
        .collect()
}

impl BatchSim {
    /// Compiles `design` at the maximum optimization level and instantiates
    /// a `lanes`-wide batch.
    ///
    /// # Errors
    ///
    /// Fails if the design uses values wider than 64 bits.
    pub fn compile(design: &TDesign, lanes: usize) -> Result<BatchSim, CompileError> {
        Ok(BatchSim::new(
            compile(design, &CompileOptions::default())?,
            lanes,
        ))
    }

    /// Compiles with explicit options.
    ///
    /// # Errors
    ///
    /// Fails if the design uses values wider than 64 bits.
    pub fn compile_with(
        design: &TDesign,
        opts: &CompileOptions,
        lanes: usize,
    ) -> Result<BatchSim, CompileError> {
        Ok(BatchSim::new(compile(design, opts)?, lanes))
    }

    /// Instantiates a batch of `lanes` instances of a pre-compiled program,
    /// every lane starting from the declared initial register values.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(prog: Program, lanes: usize) -> BatchSim {
        assert!(lanes >= 1, "a batch needs at least one lane");
        let n = prog.init.len();
        let cfg = prog.cfg;
        let mut init_soa = vec![0u64; n * lanes];
        for r in 0..n {
            init_soa[r * lanes..(r + 1) * lanes].fill(prog.init[r]);
        }
        let scratch = State::for_program(&prog);
        let rule_meta = rule_metas(&prog);
        let tac: Vec<TacRule> = prog.rules.iter().map(TacRule::lower).collect();
        let slots = soa_slot_files(&tac, lanes);
        BatchSim {
            lanes,
            boc: if cfg.no_boc {
                Vec::new()
            } else {
                init_soa.clone()
            },
            cyc_rw: vec![0; n * lanes],
            log_rw: vec![0; n * lanes],
            cyc_d0: init_soa.clone(),
            cyc_d1: if cfg.merged_data {
                Vec::new()
            } else {
                init_soa.clone()
            },
            log_d0: init_soa.clone(),
            log_d1: if cfg.merged_data { Vec::new() } else { init_soa },
            tmp: vec![0; lanes],
            cycles: 0,
            fired: vec![0; lanes],
            commits: vec![Vec::new(); lanes],
            fired_base: 0,
            commits_uniform: Vec::new(),
            commits_split: false,
            rule_meta,
            scratch,
            snap_rw: vec![0; n * lanes],
            live: vec![0xFF; lanes],
            nlive: lanes,
            span: lanes,
            active: vec![0xFF; lanes],
            nactive: lanes,
            lockstep_rules: 0,
            fallback_rules: 0,
            fallback_lanes: 0,
            tac,
            slots,
            prog,
        }
    }

    /// Requests a dispatch for the lock-step engine. There is one engine,
    /// the micro-op interpreter, which decodes each micro-op once per
    /// cycle for all lanes: [`Dispatch::Match`] and [`Dispatch::Tac`]
    /// select it (a no-op), and [`BatchSim::dispatch`] always reports
    /// [`Dispatch::Tac`].
    ///
    /// # Panics
    ///
    /// Panics on [`Dispatch::Native`]: batched native lanes do not exist;
    /// run scalar native [`Sim`](crate::Sim)s instead. Use
    /// [`BatchSim::try_set_dispatch`] to handle that.
    pub fn set_dispatch(&mut self, dispatch: Dispatch) {
        if let Err(e) = self.try_set_dispatch(dispatch) {
            panic!("cannot select {} dispatch: {e}", dispatch.short_name());
        }
    }

    /// Fallible form of [`BatchSim::set_dispatch`].
    ///
    /// # Errors
    ///
    /// [`crate::NativeError::Unsupported`] for [`Dispatch::Native`], for
    /// any program; the micro-op engine stays selected.
    pub fn try_set_dispatch(&mut self, dispatch: Dispatch) -> Result<(), crate::NativeError> {
        match dispatch {
            Dispatch::Match | Dispatch::Tac => Ok(()),
            Dispatch::Native => Err(crate::NativeError::Unsupported(
                "a batch has no native engine; run scalar native sims instead".to_string(),
            )),
        }
    }

    /// The lock-step engine: always [`Dispatch::Tac`].
    pub fn dispatch(&self) -> Dispatch {
        Dispatch::Tac
    }

    /// Number of lanes in the batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The compiled program shared by every lane.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// Cycles executed so far (identical across lanes, by construction).
    pub fn cycle_count(&self) -> u64 {
        self.cycles
    }

    /// Rules that executed fully in lock-step (all lanes together).
    pub fn lockstep_rules(&self) -> u64 {
        self.lockstep_rules
    }

    /// Rule runs that diverged: at least one lane left lock-step and was
    /// re-run by the scalar executor. Every rule run counts once in either
    /// this or [`BatchSim::lockstep_rules`].
    pub fn fallback_rules(&self) -> u64 {
        self.fallback_rules
    }

    /// Lane re-runs through the scalar executor: each diverging rule run
    /// adds the number of lanes it dropped, so `fallback_rules <=
    /// fallback_lanes <= fallback_rules * lanes`.
    pub fn fallback_lanes(&self) -> u64 {
        self.fallback_lanes
    }

    /// Takes `lane` out of the batch for good (see
    /// [`BatchBackend::retire_lane`]): from the next rule on it is never
    /// counted at a gate or jump and never re-run, its columns, commits and
    /// counters stop being meaningful, and the rule-end copies stop
    /// blending around it. Retiring the highest live lane shrinks the live
    /// span to the next live lane below it. Once no lane is live a cycle
    /// skips the schedule and only advances the cycle count. Retiring a
    /// lane twice is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn retire_lane(&mut self, lane: usize) {
        assert!(lane < self.lanes, "lane out of range");
        if self.live[lane] != 0 {
            self.live[lane] = 0;
            self.nlive -= 1;
            // Between rules `active == live`.
            self.active[lane] = 0;
            self.nactive = self.nlive;
            while self.span > 0 && self.live[self.span - 1] == 0 {
                self.span -= 1;
            }
        }
    }

    /// Brings a retired lane back into the batch at this cycle boundary
    /// (see [`BatchBackend::admit_lane`]): it runs on from the registers
    /// [`BatchSim::lane_set64`] wrote since it was retired, its
    /// [`BatchSim::lane_fired`] restarts at zero, and
    /// [`BatchSim::lane_commits`] is meaningful again after the next
    /// cycle. Admitting a lane above the live span grows the span to it.
    /// Admitting a live lane is a no-op.
    ///
    /// Nothing else of the column needs resetting: the begin-cycle clears
    /// cover every lane, so no stale read-write bit survives into the next
    /// cycle, and the data planes are read only under those bits or, at
    /// `no_boc` levels, are the registers `lane_set64` wrote.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn admit_lane(&mut self, lane: usize) {
        assert!(lane < self.lanes, "lane out of range");
        if self.live[lane] != 0 {
            return;
        }
        self.fired[lane] = self.fired_base.wrapping_neg();
        self.live[lane] = 0xFF;
        self.nlive += 1;
        self.active[lane] = 0xFF;
        self.nactive = self.nlive;
        self.span = self.span.max(lane + 1);
    }

    /// One past the highest live lane: the per-lane work of a cycle runs
    /// over lanes `[0, live_span)` (see the module docs, "Dormant lanes
    /// and the live span").
    pub fn live_span(&self) -> usize {
        self.span
    }

    /// One lane's current value of `reg` (the same observable as the scalar
    /// VM's `get64`).
    pub fn lane_get64(&self, lane: usize, reg: RegId) -> u64 {
        assert!(lane < self.lanes, "lane out of range");
        let i = reg.0 as usize * self.lanes + lane;
        if self.prog.cfg.no_boc {
            self.log_d0[i]
        } else {
            self.boc[i]
        }
    }

    /// Sets `reg` in one lane, masked to the register's width (the same
    /// observable as the scalar VM's `set64`). Lanes seeded with different
    /// values are exactly what exercises the divergence fallback.
    pub fn lane_set64(&mut self, lane: usize, reg: RegId, value: u64) {
        assert!(lane < self.lanes, "lane out of range");
        let r = reg.0 as usize;
        let i = r * self.lanes + lane;
        let v = value & word::mask(self.prog.widths[r]);
        if self.prog.cfg.no_boc {
            self.log_d0[i] = v;
            self.cyc_d0[i] = v;
        } else {
            self.boc[i] = v;
        }
    }

    /// One lane's current value of every register.
    pub fn lane_reg_values(&self, lane: usize) -> Vec<u64> {
        (0..self.prog.init.len())
            .map(|r| self.lane_get64(lane, RegId(r as u32)))
            .collect()
    }

    /// Total rules committed by one lane (lock-step base plus the lane's
    /// divergence-fallback overlay), since construction or since the lane
    /// was last admitted.
    pub fn lane_fired(&self, lane: usize) -> u64 {
        assert!(lane < self.lanes, "lane out of range");
        self.fired_base.wrapping_add(self.fired[lane])
    }

    /// The rules one lane committed during the most recent cycle, as rule
    /// indices in schedule order — feed these to a commit-fingerprint to
    /// compare against a scalar run.
    pub fn lane_commits(&self, lane: usize) -> &[u32] {
        assert!(lane < self.lanes, "lane out of range");
        if self.commits_split {
            &self.commits[lane]
        } else {
            &self.commits_uniform
        }
    }

    /// Runs one full cycle across every lane.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::CompilerBug`] if the bytecode violates a VM
    /// invariant (never for programs produced by
    /// [`compile`](crate::compile::compile)); the cycle is abandoned
    /// mid-way and the batch state is unspecified (but memory-safe).
    pub fn cycle(&mut self) -> Result<(), VmError> {
        // begin_cycle, vectorized. Plane-wide clears and copies (here, in
        // the rule prologue and in the `boc` merge) cover every lane: one
        // contiguous pass costs less than one per live-span stripe, and a
        // clear over every lane is what lets `admit_lane` reset nothing.
        self.cyc_rw.fill(0);
        if self.prog.cfg.reset_on_fail {
            self.log_rw.fill(0);
        }
        // While every lane agrees the cycle's commits live in the shared
        // `commits_uniform`; the per-lane vectors (possibly stale from an
        // earlier split cycle) only become visible again after a divergence
        // re-materializes them.
        self.commits_uniform.clear();
        self.commits_split = false;
        if self.nlive == 0 {
            // Nothing left to simulate: every rule run counts as lock-step
            // over zero lanes, so the counters still sum to cycles x schedule.
            self.lockstep_rules += self.prog.schedule.len() as u64;
            self.cycles += 1;
            return Ok(());
        }
        for i in 0..self.prog.schedule.len() {
            let rule = self.prog.schedule[i];
            self.step_rule_batch(rule)?;
        }
        // end_cycle, vectorized and branchless: expand each lane's W0/W1
        // bits into full-word masks and blend — no per-element branches.
        let cfg = self.prog.cfg;
        if !cfg.no_boc {
            let d1 = if cfg.merged_data {
                &self.cyc_d0
            } else {
                &self.cyc_d1
            };
            for (((b, &rw), &v0), &v1) in self
                .boc
                .iter_mut()
                .zip(&self.cyc_rw)
                .zip(&self.cyc_d0)
                .zip(d1)
            {
                let m1 = lane_mask(rw & W1 != 0);
                let m0 = lane_mask(rw & W0 != 0) & !m1;
                *b = (v1 & m1) | (v0 & m0) | (*b & !(m0 | m1));
            }
        }
        self.cycles += 1;
        Ok(())
    }

    fn step_rule_batch(&mut self, rule_idx: usize) -> Result<(), VmError> {
        // Take the meta out so the inner method can borrow `self` freely.
        let meta = std::mem::take(&mut self.rule_meta[rule_idx]);
        let res = self.step_rule_batch_inner(rule_idx, &meta);
        self.rule_meta[rule_idx] = meta;
        // Every live lane starts the next rule in lock-step.
        if self.nactive < self.nlive {
            self.active.copy_from_slice(&self.live);
            self.nactive = self.nlive;
        }
        res
    }

    fn step_rule_batch_inner(&mut self, rule_idx: usize, meta: &RuleMeta) -> Result<(), VmError> {
        let cfg = self.prog.cfg;
        let (lanes, span) = (self.lanes, self.span);

        // Rule prologue, vectorized — this is the SoA payoff: the ladder's
        // per-rule log maintenance is a fixed number of whole-array copies
        // regardless of batch width.
        if !cfg.acc_logs {
            self.log_rw.fill(0);
        } else if !cfg.reset_on_fail {
            self.log_rw.copy_from_slice(&self.cyc_rw);
            self.log_d0.copy_from_slice(&self.cyc_d0);
            if !cfg.merged_data {
                self.log_d1.copy_from_slice(&self.cyc_d1);
            }
        }

        // Rule-entry snapshot. Almost everything the rule can clobber is
        // recoverable without one, so only one narrow save remains, at
        // `reset_on_fail` levels only: stale R bits from earlier
        // cleanly-failed rules legitimately linger in the accumulated log
        // (they are not in `cyc_rw`), so the touched stripes of `log_rw`
        // must be saved — a u8 plane, 1/8th the width of a data save. At
        // lower levels the scalar fallback's own prologue rebuilds
        // rule-entry log state (zero-fill below `acc_logs`, a `cyc → log`
        // copy above it), so nothing needs saving at all.
        //
        // Data stripes need no snapshot: at `reset_on_fail` levels
        // `log_d0/log_d1 == cyc_d0/cyc_d1` at every rule boundary (commits
        // copy log → cyc on the footprint, unclean failures roll back
        // cyc → log, clean failures touch no data), so the divergence path
        // restores from `cyc_*` directly. Slot files and locals are not
        // snapshotted either: every non-constant slot is written before it
        // is read within one rule invocation (Kôika `let` scoping compiles
        // the binding's store before any use, including across `Jz` joins,
        // and temporaries are produced before they are consumed), so values
        // clobbered by an aborted lock-step run are never observed — not by
        // the scalar re-run, whose locals persist across lanes for the same
        // reason, and not by the next lock-step run.
        if cfg.reset_on_fail {
            for &r in &meta.touched {
                let s = r as usize * lanes;
                self.snap_rw[s..s + span].copy_from_slice(&self.log_rw[s..s + span]);
            }
        }

        let outcome = self.run_uops_batch(rule_idx)?;
        self.settle_active(rule_idx, meta, outcome);
        if self.nactive == self.nlive {
            self.lockstep_rules += 1;
            if outcome.is_ok() {
                self.fired_base += 1;
                if self.commits_split {
                    for c in &mut self.commits[..span] {
                        c.push(rule_idx as u32);
                    }
                } else {
                    self.commits_uniform.push(rule_idx as u32);
                }
            }
            return Ok(());
        }

        // Divergence: the lanes still active have settled above; re-run
        // each dropped lane, restored to rule entry, through the exact
        // scalar executor. Below `reset_on_fail` the scalar prologue
        // rebuilds rule-entry log state itself, so only the
        // `reset_on_fail` levels restore anything (see `restore_lane`).
        self.fallback_rules += 1;
        // The lanes' commit outcomes differ from here on: the shared
        // commit list becomes per-lane vectors.
        if !self.commits_split {
            let BatchSim {
                commits,
                commits_uniform,
                ..
            } = self;
            for c in &mut commits[..span] {
                c.clear();
                c.extend_from_slice(commits_uniform);
            }
            self.commits_split = true;
        }
        let mut executed = 0u64;
        for l in 0..span {
            let committed = if self.active[l] != 0 {
                outcome.is_ok()
            } else if self.live[l] == 0 {
                continue;
            } else {
                self.fallback_lanes += 1;
                if cfg.reset_on_fail {
                    self.restore_lane(l, meta);
                }
                self.gather_lane(l, meta.lane_set.as_deref());
                let committed = step_rule_impl(
                    &self.prog,
                    &mut self.scratch,
                    rule_idx,
                    &mut executed,
                    false,
                )?;
                self.scatter_lane(l, meta.lane_set.as_deref());
                committed
            };
            if committed {
                self.fired[l] = self.fired[l].wrapping_add(1);
                self.commits[l].push(rule_idx as u32);
            }
        }
        Ok(())
    }

    /// Applies the active lanes' rule outcome: the commit merge, or the
    /// rollback of an unclean failure at `reset_on_fail` levels. After a
    /// split the commit and rollback copies become blends over the `active`
    /// plane (see [`copy_lanes`]) and the O0/O1 merge ANDs with it, so
    /// lanes dropped from lock-step are left to the scalar re-run.
    fn settle_active(&mut self, rule_idx: usize, meta: &RuleMeta, outcome: Result<(), bool>) {
        let cfg = self.prog.cfg;
        let (lanes, span) = (self.lanes, self.span);
        let BatchSim {
            prog,
            cyc_rw,
            log_rw,
            cyc_d0,
            log_d0,
            cyc_d1,
            log_d1,
            active,
            nactive,
            nlive,
            ..
        } = self;
        // A retired lane's columns are don't-care, so the copies blend
        // only when a live lane was dropped: over whole planes with the
        // whole `active` plane, over live-span stripes with its span.
        let split = *nactive < *nlive;
        let act_all = split.then_some(&active[..]);
        let active = &active[..span];
        let act = split.then_some(active);
        // One copy plan, `dst = src` on the plan's registers: a commit
        // copies log → cycle, a rollback cycle → log.
        macro_rules! apply_plan {
            (
                $plan:expr,
                [$drw:ident, $dd0:ident, $dd1:ident] <- [$srw:ident, $sd0:ident, $sd1:ident]
            ) => {
                match $plan {
                    CopyPlan::Full => {
                        copy_lanes($drw, $srw, act_all);
                        copy_lanes($dd0, $sd0, act_all);
                        if !cfg.merged_data {
                            copy_lanes($dd1, $sd1, act_all);
                        }
                    }
                    CopyPlan::Footprint { rw, data } => {
                        for &r in rw {
                            let s = r as usize * lanes;
                            copy_lanes(&mut $drw[s..s + span], &$srw[s..s + span], act);
                        }
                        for &r in data {
                            let s = r as usize * lanes;
                            copy_lanes(&mut $dd0[s..s + span], &$sd0[s..s + span], act);
                            if !cfg.merged_data {
                                copy_lanes(&mut $dd1[s..s + span], &$sd1[s..s + span], act);
                            }
                        }
                    }
                }
            };
        }
        match outcome {
            Ok(()) if !cfg.acc_logs => {
                // The prologue zeroed `log_rw`, so only the rule's own
                // touched registers can carry bits — merge just those
                // stripes, branchlessly. ANDing with the `active` plane
                // (all-ones until a split) leaves dropped lanes alone.
                for &r in &meta.touched {
                    let s = r as usize * lanes;
                    let lrw = &log_rw[s..s + span];
                    for ((c, &rl), &a) in cyc_rw[s..s + span].iter_mut().zip(lrw).zip(active) {
                        *c |= rl & a;
                    }
                    if cfg.merged_data {
                        for (((c, &d), &rl), &a) in cyc_d0[s..s + span]
                            .iter_mut()
                            .zip(&log_d0[s..s + span])
                            .zip(lrw)
                            .zip(active)
                        {
                            let m = lane_mask(rl & a & (W0 | W1) != 0);
                            *c = (d & m) | (*c & !m);
                        }
                    } else {
                        for (((c, &d), &rl), &a) in cyc_d0[s..s + span]
                            .iter_mut()
                            .zip(&log_d0[s..s + span])
                            .zip(lrw)
                            .zip(active)
                        {
                            let m = lane_mask(rl & a & W0 != 0);
                            *c = (d & m) | (*c & !m);
                        }
                        for (((c, &d), &rl), &a) in cyc_d1[s..s + span]
                            .iter_mut()
                            .zip(&log_d1[s..s + span])
                            .zip(lrw)
                            .zip(active)
                        {
                            let m = lane_mask(rl & a & W1 != 0);
                            *c = (d & m) | (*c & !m);
                        }
                    }
                }
            }
            Ok(()) => {
                let plan = &prog.rules[rule_idx].commit;
                apply_plan!(plan, [cyc_rw, cyc_d0, cyc_d1] <- [log_rw, log_d0, log_d1]);
            }
            Err(clean) if cfg.reset_on_fail && !clean => {
                let plan = &prog.rules[rule_idx].rollback;
                apply_plan!(plan, [log_rw, log_d0, log_d1] <- [cyc_rw, cyc_d0, cyc_d1]);
            }
            Err(_) => {}
        }
    }

    /// Restores one dropped lane's rule-entry log columns at
    /// `reset_on_fail` levels: the saved rw bytes on the touched registers
    /// and, on the written ones, the data from `cyc_*` (equal to the log at
    /// rule entry — see the snapshot comment in `step_rule_batch_inner`).
    fn restore_lane(&mut self, l: usize, meta: &RuleMeta) {
        let lanes = self.lanes;
        for &r in &meta.touched {
            let i = r as usize * lanes + l;
            self.log_rw[i] = self.snap_rw[i];
        }
        for &r in &meta.writes {
            let i = r as usize * lanes + l;
            self.log_d0[i] = self.cyc_d0[i];
            if !self.prog.cfg.merged_data {
                self.log_d1[i] = self.cyc_d1[i];
            }
        }
    }

    /// Copies one lane's column of every array into the scalar scratch
    /// state: on the registers of `set` only, or whole when `set` is
    /// `None`.
    ///
    /// Kept out of line, like [`BatchSim::scatter_lane`]: each has one
    /// call site, in the divergence fallback, and inlined there they grow
    /// [`BatchSim::cycle`] by about 40% and slow the rv32i campaign
    /// by about 3% (median unit rate over 16 alternating rounds on a
    /// 2-vCPU Xeon).
    #[inline(never)]
    fn gather_lane(&mut self, l: usize, set: Option<&[u32]>) {
        let lanes = self.lanes;
        let BatchSim {
            boc,
            cyc_rw,
            log_rw,
            cyc_d0,
            cyc_d1,
            log_d0,
            log_d1,
            scratch,
            cycles,
            ..
        } = self;
        // Whole columns are strided reads via `step_by` zips: no bounds
        // checks, no per-element index arithmetic. `get(l..)` and the
        // emptiness test keep the arrays that a level leaves empty (`boc`,
        // `cyc_d1`) safe at any lane.
        macro_rules! gather {
            ($dst:expr, $src:expr) => {
                match set {
                    None => {
                        for (dst, &src) in $dst
                            .iter_mut()
                            .zip($src.get(l..).unwrap_or(&[]).iter().step_by(lanes))
                        {
                            *dst = src;
                        }
                    }
                    Some(set) if !$src.is_empty() => {
                        for &r in set {
                            $dst[r as usize] = $src[r as usize * lanes + l];
                        }
                    }
                    Some(_) => {}
                }
            };
        }
        gather!(scratch.boc, boc);
        gather!(scratch.cyc_rw, cyc_rw);
        gather!(scratch.log_rw, log_rw);
        gather!(scratch.cyc_d0, cyc_d0);
        gather!(scratch.cyc_d1, cyc_d1);
        gather!(scratch.log_d0, log_d0);
        gather!(scratch.log_d1, log_d1);
        scratch.stack.clear();
        scratch.cycles = *cycles;
    }

    /// Copies the scalar scratch state back into one lane's column: on the
    /// registers of `set`, or whole when `set` is `None`.
    #[inline(never)]
    fn scatter_lane(&mut self, l: usize, set: Option<&[u32]>) {
        let lanes = self.lanes;
        let BatchSim {
            cyc_rw,
            log_rw,
            cyc_d0,
            cyc_d1,
            log_d0,
            log_d1,
            scratch,
            ..
        } = self;
        // `boc` is read-only during a rule: no need to scatter it back.
        macro_rules! scatter {
            ($src:expr, $dst:expr) => {
                match set {
                    None => {
                        for (&src, dst) in $src.iter().zip(
                            $dst.get_mut(l..).unwrap_or(&mut []).iter_mut().step_by(lanes),
                        ) {
                            *dst = src;
                        }
                    }
                    Some(set) if !$dst.is_empty() => {
                        for &r in set {
                            $dst[r as usize * lanes + l] = $src[r as usize];
                        }
                    }
                    Some(_) => {}
                }
            };
        }
        scatter!(scratch.cyc_rw, cyc_rw);
        scatter!(scratch.log_rw, log_rw);
        scatter!(scratch.cyc_d0, cyc_d0);
        scatter!(scratch.cyc_d1, cyc_d1);
        scatter!(scratch.log_d0, log_d0);
        scatter!(scratch.log_d1, log_d1);
    }

    /// Lock-step executor for one rule's micro-op program: each micro-op
    /// is decoded once and applied across every lane. At every checked
    /// register access and conditional jump the active lanes either all
    /// pass, all fail, or split: the larger side stays active, the other
    /// is dropped (`active[l] = 0`) and runs on as garbage that the caller
    /// restores.
    ///
    /// Returns the active lanes' outcome: `Ok(Ok(()))` on a commit and
    /// `Ok(Err(clean))` on a failure. The caller settles them and re-runs
    /// each dropped lane through the scalar bytecode executor, which is
    /// bit-identical to the micro-op form.
    #[allow(clippy::too_many_lines)]
    fn run_uops_batch(&mut self, rule_idx: usize) -> Result<Result<(), bool>, VmError> {
        let cfg = self.prog.cfg;
        let BatchSim {
            lanes,
            span,
            tmp,
            tac,
            slots,
            boc,
            cyc_rw,
            log_rw,
            cyc_d0,
            log_d0,
            log_d1,
            active,
            nactive,
            ..
        } = self;
        let lanes = *lanes;
        // Stripes are `lanes` apart and `n` long: only the live span runs.
        let n = *span;
        let active = &mut active[..n];
        let tmp = &mut tmp[..n];
        let tac = &tac[rule_idx];
        let slots = &mut slots[rule_idx][..];
        let uops = &tac.uops;
        let mut pc = 0usize;

        macro_rules! sl {
            ($s:expr, $l:expr) => {
                slots[$s as usize * lanes + $l]
            };
        }
        // Checked-access gates: count the active lanes that pass with the
        // bit-sliced SWAR kernels (eight lanes per word), then fail / split
        // / proceed. A lane passes when its rw-set byte has none of `$bits`
        // set. Reads check one log (the accumulated one at `acc_logs`
        // levels, else the cycle's); writes check the rule log and, below
        // `acc_logs`, the cycle log. The counts skip lanes the `active`
        // plane has dropped (none at rule entry). `|$l| $pass` is the
        // per-lane test a split needs.
        macro_rules! gate {
            ($clean:expr, $npass:expr, |$l:ident| $pass:expr) => {{
                let npass = $npass;
                if npass == 0
                    || (npass < *nactive && !split_lanes(active, nactive, npass, |$l| $pass))
                {
                    return Ok(Err($clean));
                }
            }};
        }
        macro_rules! rd_gate {
            ($r:expr, $clean:expr, $bits:expr) => {{
                let s = $r * lanes;
                let chk = if cfg.acc_logs {
                    &log_rw[s..s + n]
                } else {
                    &cyc_rw[s..s + n]
                };
                let npass = simd::count_clear_active(chk, $bits, active);
                gate!($clean, npass, |l| chk[l] & $bits == 0);
            }};
        }
        macro_rules! wr_gate {
            ($r:expr, $clean:expr, $bits:expr) => {{
                let s = $r * lanes;
                let lrw = &log_rw[s..s + n];
                let crw = if cfg.acc_logs { lrw } else { &cyc_rw[s..s + n] };
                let npass = simd::count_clear2_active(lrw, crw, $bits, active);
                gate!($clean, npass, |l| (lrw[l] | crw[l]) & $bits == 0);
            }};
        }
        // Indexed accesses: lane `l` targets register
        // `base + (slots[idx][l] & amask)`, so the gate counts per lane
        // (`$pass` tests flat index `$i`).
        macro_rules! arr_reg {
            ($idx:expr, $base:expr, $amask:expr, $l:expr) => {
                $base as usize + (sl!($idx, $l) & $amask as u64) as usize
            };
        }
        macro_rules! arr_gate {
            ($idx:expr, $base:expr, $amask:expr, $clean:expr, |$i:ident| $pass:expr) => {{
                let pass = |l: usize| {
                    let $i = arr_reg!($idx, $base, $amask, l) * lanes + l;
                    $pass
                };
                let npass = (0..n).filter(|&l| active[l] != 0 && pass(l)).count();
                gate!($clean, npass, |l| pass(l));
            }};
        }
        // Conditional jumps: the active lanes whose condition is zero take
        // the jump; a disagreement splits the lanes as at a gate.
        macro_rules! jz_taken {
            ($cond:expr) => {{
                let cond: &[u64] = $cond;
                let nz = simd::count_zero_active(cond, active);
                nz == *nactive || (nz != 0 && split_lanes(active, nactive, nz, |l| cond[l] == 0))
            }};
        }
        // Whole-stripe read application: record the read in the rw plane,
        // then blend the forwarded value branchlessly (the stripe forms of
        // `rd0_val!` / `rd1_val!`, used by the non-indexed register ops).
        macro_rules! rd0_stripe {
            ($r:expr, $out:expr) => {{
                let s = $r * lanes;
                if !cfg.design_specific {
                    simd::or_bytes(&mut log_rw[s..s + n], R0);
                }
                let src = if cfg.no_boc {
                    &log_d0[s..s + n]
                } else {
                    &boc[s..s + n]
                };
                $out.copy_from_slice(src);
            }};
        }
        macro_rules! rd1_stripe {
            ($r:expr, $out:expr) => {{
                let s = $r * lanes;
                simd::or_bytes(&mut log_rw[s..s + n], R1);
                let out = $out;
                let ld0 = &log_d0[s..s + n];
                if cfg.no_boc {
                    out.copy_from_slice(ld0);
                } else {
                    let lrw = &log_rw[s..s + n];
                    let bo = &boc[s..s + n];
                    if cfg.acc_logs {
                        for (((o, &w), &d), &b) in out.iter_mut().zip(lrw).zip(ld0).zip(bo) {
                            let m = lane_mask(w & W0 != 0);
                            *o = (d & m) | (b & !m);
                        }
                    } else {
                        let crw = &cyc_rw[s..s + n];
                        let cd0 = &cyc_d0[s..s + n];
                        for (((((o, &w), &d), &b), &cw), &cd) in
                            out.iter_mut().zip(lrw).zip(ld0).zip(bo).zip(crw).zip(cd0)
                        {
                            let m0 = lane_mask(w & W0 != 0);
                            let m1 = lane_mask(cw & W0 != 0);
                            *o = (d & m0) | (((cd & m1) | (b & !m1)) & !m0);
                        }
                    }
                }
            }};
        }
        // Post-gate read applications (record + fetch), per the bytecode
        // semantics of Rd0/Rd1.
        macro_rules! rd0_val {
            ($i:expr) => {{
                let i = $i;
                if !cfg.design_specific {
                    log_rw[i] |= R0;
                }
                if cfg.no_boc {
                    log_d0[i]
                } else {
                    boc[i]
                }
            }};
        }
        macro_rules! rd1_val {
            ($i:expr) => {{
                let i = $i;
                log_rw[i] |= R1;
                if cfg.no_boc || log_rw[i] & W0 != 0 {
                    log_d0[i]
                } else if !cfg.acc_logs && cyc_rw[i] & W0 != 0 {
                    cyc_d0[i]
                } else {
                    boc[i]
                }
            }};
        }

        loop {
            match uops[pc] {
                Uop::Bin { op, dst, a, b, mask } => {
                    simd::fused_zip2_at(
                        op,
                        mask,
                        slots,
                        dst as usize * lanes,
                        a as usize * lanes,
                        b as usize * lanes,
                        n,
                    );
                }
                Uop::Not { dst, src, mask } => {
                    simd::map1_at(slots, dst as usize * lanes, src as usize * lanes, n, |a| {
                        !a & mask
                    });
                }
                Uop::Neg { dst, src, mask } => {
                    simd::map1_at(slots, dst as usize * lanes, src as usize * lanes, n, |a| {
                        a.wrapping_neg() & mask
                    });
                }
                Uop::Mask { dst, src, mask } => {
                    simd::map1_at(slots, dst as usize * lanes, src as usize * lanes, n, |a| {
                        a & mask
                    });
                }
                Uop::Sext { dst, src, from, mask } => {
                    let (d, s) = (dst as usize * lanes, src as usize * lanes);
                    if from == 0 {
                        slots[d..d + n].fill(0);
                    } else if from >= 64 {
                        simd::map1_at(slots, d, s, n, move |a| a & mask);
                    } else {
                        let sh = 64 - from;
                        simd::map1_at(slots, d, s, n, move |a| {
                            ((((a << sh) as i64) >> sh) as u64) & mask
                        });
                    }
                }
                Uop::Slice { dst, src, lo, mask } => {
                    simd::map1_at(slots, dst as usize * lanes, src as usize * lanes, n, |a| {
                        (a >> lo) & mask
                    });
                }
                Uop::SliceSext { dst, src, lo, from, mask } => {
                    let (d, s) = (dst as usize * lanes, src as usize * lanes);
                    if from == 0 {
                        slots[d..d + n].fill(0);
                    } else {
                        let from_mask = u64::MAX >> (64 - from.min(64));
                        let sh = 64 - from.min(64);
                        simd::map1_at(slots, d, s, n, move |a| {
                            let v = (a >> lo) & from_mask;
                            ((((v << sh) as i64) >> sh) as u64) & mask
                        });
                    }
                }
                Uop::Select { dst, c, t, f } => {
                    simd::select_at(
                        slots,
                        dst as usize * lanes,
                        c as usize * lanes,
                        t as usize * lanes,
                        f as usize * lanes,
                        n,
                    );
                }
                Uop::Const { dst, imm } => {
                    let d = dst as usize * lanes;
                    slots[d..d + n].fill(imm);
                }
                Uop::Mov { dst, src } => {
                    let (d, s) = (dst as usize * lanes, src as usize * lanes);
                    slots.copy_within(s..s + n, d);
                }
                Uop::Rd0 { dst, reg, clean } => {
                    let r = reg as usize;
                    rd_gate!(r, clean, W0 | W1);
                    let d = dst as usize * lanes;
                    rd0_stripe!(r, &mut slots[d..d + n]);
                }
                Uop::Rd1 { dst, reg, clean } => {
                    let r = reg as usize;
                    rd_gate!(r, clean, W1);
                    let d = dst as usize * lanes;
                    rd1_stripe!(r, &mut slots[d..d + n]);
                }
                Uop::Wr0 { src, reg, clean } => {
                    let r = reg as usize;
                    wr_gate!(r, clean, R1 | W0 | W1);
                    let (s, d) = (src as usize * lanes, r * lanes);
                    simd::or_bytes(&mut log_rw[d..d + n], W0);
                    log_d0[d..d + n].copy_from_slice(&slots[s..s + n]);
                }
                Uop::Wr1 { src, reg, clean } => {
                    let r = reg as usize;
                    wr_gate!(r, clean, W1);
                    let (s, d) = (src as usize * lanes, r * lanes);
                    simd::or_bytes(&mut log_rw[d..d + n], W1);
                    let dst = if cfg.merged_data {
                        &mut log_d0[d..d + n]
                    } else {
                        &mut log_d1[d..d + n]
                    };
                    dst.copy_from_slice(&slots[s..s + n]);
                }
                Uop::RdFast { dst, reg } => {
                    let (s, d) = (reg as usize * lanes, dst as usize * lanes);
                    slots[d..d + n].copy_from_slice(&log_d0[s..s + n]);
                }
                Uop::WrFast { src, reg } => {
                    let (s, d) = (src as usize * lanes, reg as usize * lanes);
                    log_d0[d..d + n].copy_from_slice(&slots[s..s + n]);
                }
                Uop::Rd0Arr { dst, idx, base, amask, clean } => {
                    let chk = if cfg.acc_logs { &*log_rw } else { &*cyc_rw };
                    arr_gate!(idx, base, amask, clean, |i| chk[i] & (W0 | W1) == 0);
                    for l in 0..n {
                        sl!(dst, l) = rd0_val!(arr_reg!(idx, base, amask, l) * lanes + l);
                    }
                }
                Uop::Rd1Arr { dst, idx, base, amask, clean } => {
                    let chk = if cfg.acc_logs { &*log_rw } else { &*cyc_rw };
                    arr_gate!(idx, base, amask, clean, |i| chk[i] & W1 == 0);
                    for l in 0..n {
                        sl!(dst, l) = rd1_val!(arr_reg!(idx, base, amask, l) * lanes + l);
                    }
                }
                Uop::Wr0Arr { src, idx, base, amask, clean } => {
                    let cyc_mask = lane_mask(!cfg.acc_logs) as u8;
                    arr_gate!(idx, base, amask, clean, |i| {
                        (log_rw[i] | (cyc_rw[i] & cyc_mask)) & (R1 | W0 | W1) == 0
                    });
                    for l in 0..n {
                        let i = arr_reg!(idx, base, amask, l) * lanes + l;
                        log_rw[i] |= W0;
                        log_d0[i] = sl!(src, l);
                    }
                }
                Uop::Wr1Arr { src, idx, base, amask, clean } => {
                    let cyc_mask = lane_mask(!cfg.acc_logs) as u8;
                    arr_gate!(idx, base, amask, clean, |i| {
                        (log_rw[i] | (cyc_rw[i] & cyc_mask)) & W1 == 0
                    });
                    for l in 0..n {
                        let i = arr_reg!(idx, base, amask, l) * lanes + l;
                        log_rw[i] |= W1;
                        if cfg.merged_data {
                            log_d0[i] = sl!(src, l);
                        } else {
                            log_d1[i] = sl!(src, l);
                        }
                    }
                }
                Uop::RdArrFast { dst, idx, base, amask } => {
                    for l in 0..n {
                        sl!(dst, l) = log_d0[arr_reg!(idx, base, amask, l) * lanes + l];
                    }
                }
                Uop::WrArrFast { src, idx, base, amask } => {
                    for l in 0..n {
                        log_d0[arr_reg!(idx, base, amask, l) * lanes + l] = sl!(src, l);
                    }
                }
                Uop::Jmp(t) => {
                    pc = t as usize;
                    continue;
                }
                Uop::Jz { cond, target } => {
                    let c = cond as usize * lanes;
                    if jz_taken!(&slots[c..c + n]) {
                        pc = target as usize;
                        continue;
                    }
                }
                Uop::Abort { clean } => return Ok(Err(clean)),
                // Nothing reads a batch's coverage, so the counter is not
                // kept; the micro-op stays in the stream as a fusion barrier.
                Uop::Cov(_) => {}
                Uop::End => return Ok(Ok(())),
                Uop::Trap(what) => {
                    return Err(VmError::CompilerBug {
                        rule: rule_idx,
                        pc: tac.pcs[pc] as usize,
                        what,
                    })
                }
                Uop::RdBin { op, dst, reg, b, mask, clean } => {
                    let r = reg as usize;
                    rd_gate!(r, clean, W0 | W1);
                    let s = r * lanes;
                    if !cfg.design_specific {
                        simd::or_bytes(&mut log_rw[s..s + n], R0);
                    }
                    let vals = if cfg.no_boc {
                        &log_d0[s..s + n]
                    } else {
                        &boc[s..s + n]
                    };
                    simd::fused_ext_buf_at(
                        op,
                        mask,
                        slots,
                        dst as usize * lanes,
                        vals,
                        b as usize * lanes,
                        n,
                    );
                }
                Uop::BinWr { op, a, b, mask, reg, clean } => {
                    let r = reg as usize;
                    wr_gate!(r, clean, R1 | W0 | W1);
                    let d = r * lanes;
                    simd::or_bytes(&mut log_rw[d..d + n], W0);
                    simd::fused_zip2_to(
                        op,
                        mask,
                        &mut log_d0[d..d + n],
                        &slots[a as usize * lanes..][..n],
                        &slots[b as usize * lanes..][..n],
                    );
                }
                Uop::RdBinWr { op, rreg, b, mask, wreg, rclean, wclean } => {
                    let r = rreg as usize;
                    rd_gate!(r, rclean, W0 | W1);
                    // The read's effects (recording, value fetch) land
                    // before the write gate, exactly like the unfused pair.
                    let s = r * lanes;
                    if !cfg.design_specific {
                        simd::or_bytes(&mut log_rw[s..s + n], R0);
                    }
                    {
                        let vals = if cfg.no_boc {
                            &log_d0[s..s + n]
                        } else {
                            &boc[s..s + n]
                        };
                        simd::fused_zip2_to(
                            op,
                            mask,
                            tmp,
                            vals,
                            &slots[b as usize * lanes..][..n],
                        );
                    }
                    let w = wreg as usize;
                    wr_gate!(w, wclean, R1 | W0 | W1);
                    let d = w * lanes;
                    simd::or_bytes(&mut log_rw[d..d + n], W0);
                    log_d0[d..d + n].copy_from_slice(tmp);
                }
                Uop::BinJz { op, a, b, mask, target } => {
                    let (a, b) = (a as usize * lanes, b as usize * lanes);
                    let nz = simd::fused_count_zero_at(op, mask, slots, a, b, active);
                    // Only a split needs the condition stripe itself.
                    let taken = nz == *nactive
                        || (nz != 0 && {
                            let (sa, sb) = (&slots[a..][..n], &slots[b..][..n]);
                            simd::fused_zip2_to(op, mask, tmp, sa, sb);
                            split_lanes(active, nactive, nz, |l| tmp[l] == 0)
                        });
                    if taken {
                        pc = target as usize;
                        continue;
                    }
                }
                Uop::RdBinFast { op, dst, reg, b, mask } => {
                    let r = reg as usize * lanes;
                    simd::fused_ext_buf_at(
                        op,
                        mask,
                        slots,
                        dst as usize * lanes,
                        &log_d0[r..r + n],
                        b as usize * lanes,
                        n,
                    );
                }
                Uop::BinWrFast { op, a, b, mask, reg } => {
                    let r = reg as usize * lanes;
                    simd::fused_zip2_to(
                        op,
                        mask,
                        &mut log_d0[r..r + n],
                        &slots[a as usize * lanes..][..n],
                        &slots[b as usize * lanes..][..n],
                    );
                }
                Uop::RdBinWrFast { op, rreg, b, mask, wreg } => {
                    simd::fused_buf_ext_at(
                        op,
                        mask,
                        log_d0,
                        wreg as usize * lanes,
                        rreg as usize * lanes,
                        &slots[b as usize * lanes..][..n],
                        n,
                    );
                }
            }
            pc += 1;
        }
    }
}

impl BatchBackend for BatchSim {
    fn lanes(&self) -> usize {
        self.lanes
    }

    fn cycle_count(&self) -> u64 {
        self.cycles
    }

    fn cycle(&mut self) -> Result<(), String> {
        BatchSim::cycle(self).map_err(|e| e.to_string())
    }

    fn lane_commits(&self, lane: usize) -> &[u32] {
        BatchSim::lane_commits(self, lane)
    }

    fn lane_get64(&self, lane: usize, reg: RegId) -> u64 {
        BatchSim::lane_get64(self, lane, reg)
    }

    fn lane_set64(&mut self, lane: usize, reg: RegId, value: u64) {
        BatchSim::lane_set64(self, lane, reg, value);
    }

    fn retire_lane(&mut self, lane: usize) {
        BatchSim::retire_lane(self, lane);
    }

    fn admit_lane(&mut self, lane: usize) {
        BatchSim::admit_lane(self, lane);
    }
}

impl std::fmt::Debug for BatchSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchSim")
            .field("design", &self.prog.design.name)
            .field("level", &self.prog.level)
            .field("lanes", &self.lanes)
            .field("cycles", &self.cycles)
            .field("lockstep_rules", &self.lockstep_rules)
            .field("fallback_rules", &self.fallback_rules)
            .field("fallback_lanes", &self.fallback_lanes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::Sim;
    use crate::OptLevel;
    use koika::ast::*;
    use koika::check::check;
    use koika::design::DesignBuilder;
    use koika::device::{LaneAccess, RegAccess, SimBackend};

    fn collatz() -> koika::tir::TDesign {
        let mut b = DesignBuilder::new("collatz");
        b.reg("x", 16, 7u64);
        b.rule(
            "even",
            vec![iff(
                rd0("x").and(k(16, 1)).eq(k(16, 0)),
                vec![wr0("x", rd0("x").shr(k(16, 1)))],
                vec![],
            )],
        );
        b.rule(
            "odd",
            vec![iff(
                rd1("x").and(k(16, 1)).eq(k(16, 1)),
                vec![wr1("x", rd1("x").mul(k(16, 3)).add(k(16, 1)))],
                vec![],
            )],
        );
        check(&b.build()).unwrap()
    }

    #[test]
    fn lanes_match_scalar_sims_same_inits() {
        let td = collatz();
        for level in OptLevel::ALL {
            let opts = CompileOptions {
                level,
                ..CompileOptions::default()
            };
            let mut batch = BatchSim::compile_with(&td, &opts, 4).unwrap();
            let mut scalars: Vec<Sim> =
                (0..4).map(|_| Sim::compile_with(&td, &opts).unwrap()).collect();
            for _ in 0..64 {
                batch.cycle().unwrap();
                for (l, s) in scalars.iter_mut().enumerate() {
                    s.cycle();
                    assert_eq!(batch.lane_reg_values(l), s.reg_values(), "{level} lane {l}");
                }
            }
        }
    }

    #[test]
    fn divergent_lanes_match_scalar_sims() {
        let td = collatz();
        let x = td.reg_id("x");
        for level in OptLevel::ALL {
            let opts = CompileOptions {
                level,
                ..CompileOptions::default()
            };
            let mut batch = BatchSim::compile_with(&td, &opts, 4).unwrap();
            assert_eq!(batch.dispatch(), Dispatch::Tac);
            let mut scalars: Vec<Sim> =
                (0..4).map(|_| Sim::compile_with(&td, &opts).unwrap()).collect();
            // Different seeds per lane force the divergence fallback (odd
            // vs even parity takes different branches): the micro-op engine
            // must take the same fall-back decisions, and the fallback
            // (scalar bytecode) must agree with the micro-op lanes.
            for (l, seed) in [7u64, 6, 27, 1].into_iter().enumerate() {
                batch.lane_set64(l, x, seed);
                scalars[l].set64(x, seed);
            }
            for cyc in 0..128 {
                batch.cycle().unwrap();
                for (l, s) in scalars.iter_mut().enumerate() {
                    s.cycle();
                    assert_eq!(
                        batch.lane_reg_values(l),
                        s.reg_values(),
                        "{level} lane {l} cycle {cyc}"
                    );
                    assert_eq!(batch.lane_fired(l), s.rules_fired(), "{level} lane {l}");
                }
            }
            assert!(
                batch.fallback_rules() > 0,
                "{level}: divergent seeds must exercise the fallback"
            );
        }
    }

    #[test]
    fn concat_shift_boundary_is_guarded_in_lanes() {
        // Regression: a zero-width high half (`low_width == 64`) used to
        // overflow the batched `(a << low_width) | b` lowering; the result
        // must also be masked.
        let mut b = DesignBuilder::new("c");
        b.reg("n", 8, 0u64);
        b.rule("inc", vec![wr0("n", rd0("n").add(k(8, 1)))]);
        let td = check(&b.build()).unwrap();
        let mut prog = compile(&td, &CompileOptions::default()).unwrap();
        std::sync::Arc::make_mut(&mut prog.rules)[0].code = vec![
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
        let mut batch = BatchSim::new(prog, 3);
        batch.cycle().unwrap();
        for l in 0..3 {
            assert_eq!(batch.lane_get64(l, RegId(0)), 5, "lane {l}");
        }
    }

    #[test]
    fn single_lane_never_diverges() {
        let td = collatz();
        let mut batch = BatchSim::compile(&td, 1).unwrap();
        for _ in 0..64 {
            batch.cycle().unwrap();
        }
        assert_eq!(batch.fallback_rules(), 0);
    }

    #[test]
    fn miscompiled_bytecode_traps() {
        let mut b = DesignBuilder::new("c");
        b.reg("n", 8, 0u64);
        b.rule("inc", vec![wr0("n", rd0("n").add(k(8, 1)))]);
        let td = check(&b.build()).unwrap();
        let mut prog = compile(&td, &CompileOptions::default()).unwrap();
        std::sync::Arc::make_mut(&mut prog.rules)[0].code.insert(0, Insn::Add { mask: u64::MAX });
        let mut batch = BatchSim::new(prog, 3);
        let err = batch.cycle().unwrap_err();
        assert_eq!(
            err,
            VmError::CompilerBug {
                rule: 0,
                pc: 0,
                what: "operand stack underflow",
            }
        );
    }

    #[test]
    fn failed_native_selection_keeps_the_micro_op_engine() {
        // Refused for every program: one the native emitter would compile
        // and one it rejects before rustc runs.
        let td = collatz();
        let progs = [
            (compile(&td, &CompileOptions::default()).unwrap(), td.reg_id("x")),
            (crate::vm::tests::native_rejected_counter_prog(), RegId(0)),
        ];
        for (prog, seeded) in progs {
            let mut batch = BatchSim::new(prog.clone(), 3);
            let mut scalars: Vec<Sim> = (0..3).map(|_| Sim::new(prog.clone())).collect();
            for (l, s) in scalars.iter_mut().enumerate() {
                batch.lane_set64(l, seeded, 5 + l as u64);
                s.set64(seeded, 5 + l as u64);
            }
            assert!(matches!(
                batch.try_set_dispatch(Dispatch::Native),
                Err(crate::NativeError::Unsupported(_))
            ));
            assert_eq!(batch.dispatch(), Dispatch::Tac);
            for cyc in 0..32 {
                batch.cycle().unwrap();
                for (l, s) in scalars.iter_mut().enumerate() {
                    s.cycle();
                    assert_eq!(batch.lane_reg_values(l), s.reg_values(), "lane {l} cycle {cyc}");
                    assert_eq!(batch.lane_fired(l), s.rules_fired(), "lane {l} cycle {cyc}");
                }
            }
        }
    }

    #[test]
    fn interpreted_dispatches_all_select_the_micro_op_engine() {
        let mut batch = BatchSim::compile(&collatz(), 2).unwrap();
        for d in [Dispatch::Match, Dispatch::Tac] {
            batch.set_dispatch(d);
            assert_eq!(batch.dispatch(), Dispatch::Tac, "{}", d.short_name());
        }
    }

    /// Two registers and two rules, so an unchecked lane index past the
    /// end would silently alias lane 0 of the next register or rule.
    fn two_counters() -> koika::tir::TDesign {
        let mut b = DesignBuilder::new("two_counters");
        b.reg("a", 8, 0u64);
        b.reg("b", 8, 0u64);
        b.rule("inc_a", vec![wr0("a", rd0("a").add(k(8, 1)))]);
        b.rule("inc_b", vec![wr0("b", rd0("b").add(k(8, 1)))]);
        check(&b.build()).unwrap()
    }

    #[test]
    fn lane_accessors_reject_out_of_range_lanes() {
        type Access = fn(&mut BatchSim, usize);
        let cases: [(&str, Access); 7] = [
            ("admit_lane", |b, l| b.admit_lane(l)),
            ("lane_get64", |b, l| {
                let _ = b.lane_get64(l, RegId(0));
            }),
            ("lane_set64", |b, l| b.lane_set64(l, RegId(0), 1)),
            ("lane_reg_values", |b, l| {
                let _ = b.lane_reg_values(l);
            }),
            ("lane_fired", |b, l| {
                let _ = b.lane_fired(l);
            }),
            ("lane_commits", |b, l| {
                let _ = b.lane_commits(l);
            }),
            ("LaneAccess::new", |b, l| {
                let _ = LaneAccess::new(b, l).get64(RegId(0));
            }),
        ];
        let td = two_counters();
        for (name, access) in cases {
            let mut batch = BatchSim::compile(&td, 4).unwrap();
            batch.cycle().unwrap();
            access(&mut batch, 3);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                access(&mut batch, 4);
            }))
            .expect_err(name);
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned());
            assert_eq!(msg.as_deref(), Some("lane out of range"), "{name}");
            // The rejected access must not have touched any lane.
            for l in 0..4 {
                assert_eq!(batch.lane_reg_values(l), vec![1, 1], "{name} lane {l}");
            }
        }
    }
}
