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
//! operations over the batch. [`Dispatch::Native`] swaps the interpreter
//! for compiled lane loops emitted from the same micro-ops, over the same
//! slot files.
//!
//! # Divergence fallback
//!
//! Lanes stay in lock-step only while control flow agrees. At every
//! control-flow-relevant point — a checked register access, a conditional
//! jump — the batch tests all lanes:
//!
//! * **all lanes agree** → one batched step (the fast path);
//! * **all lanes fail** a check → one batched rule failure, with per-lane
//!   [`FailInfo`] recorded exactly as the scalar VM would;
//! * **lanes disagree** → the rule *diverges*: the engine restores the
//!   batch to its state at rule entry (a snapshot taken after the rule
//!   prologue, which is idempotent at every level) and re-runs the rule
//!   per-lane through the *exact scalar bytecode executor*
//!   ([`step_rule_impl`](crate::vm); the compiled scalar rule functions
//!   under [`Dispatch::Native`]) — only this rule, only this cycle; the
//!   next rule starts in lock-step again.
//!
//! Because the fallback path *is* the scalar semantics and the lock-step
//! path executes the same checks and side effects lane-wise, per-lane
//! architectural state and commit/failure bookkeeping are bit-identical to
//! `lanes` independent scalar [`Sim`](crate::Sim)s at every
//! [`OptLevel`](crate::OptLevel). The differential suite
//! (`tests/batched.rs`) enforces this with per-cycle commit digests.
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
use crate::vm::{step_rule_impl, Dispatch, FailInfo, State, VmError};
use koika::bits::word;
use koika::device::{BatchBackend, RegAccess};
use koika::tir::{RegId, TDesign};

const R0: u8 = 0b0001;
const R1: u8 = 0b0010;
const W0: u8 = 0b0100;
const W1: u8 = 0b1000;

/// Per-rule facts precomputed at construction: which flat register indices
/// the rule can write (bounding the data snapshot needed for divergence
/// restore) and the rule's coverage-counter range.
#[derive(Debug, Default)]
struct RuleMeta {
    /// Sorted, deduplicated flat register indices of every write-class
    /// instruction in the rule (array writes contribute their whole range).
    writes: Vec<u32>,
    /// Sorted, deduplicated union of the rule's checked reads and writes —
    /// the only registers whose read-write-set bytes the lock-step engine
    /// can mutate, bounding the rw-plane snapshot and the O1 commit merge.
    touched: Vec<u32>,
    /// First coverage counter id owned by this rule.
    cov_start: u32,
    /// Number of coverage counters owned by this rule.
    cov_len: u32,
}

fn rule_metas(prog: &Program) -> Vec<RuleMeta> {
    prog.rules
        .iter()
        .map(|rule| {
            let mut writes: Vec<u32> = Vec::new();
            let mut reads: Vec<u32> = Vec::new();
            let mut cov_min = u32::MAX;
            let mut cov_max = 0u32;
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
                    Insn::Cov(id) => {
                        cov_min = cov_min.min(id);
                        cov_max = cov_max.max(id);
                    }
                    _ => {}
                }
            }
            writes.sort_unstable();
            writes.dedup();
            let mut touched = writes.clone();
            touched.extend(reads);
            touched.sort_unstable();
            touched.dedup();
            let (cov_start, cov_len) = if cov_min == u32::MAX {
                (0, 0)
            } else {
                (cov_min, cov_max - cov_min + 1)
            };
            RuleMeta {
                writes,
                touched,
                cov_start,
                cov_len,
            }
        })
        .collect()
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
    /// Coverage counters, id-major.
    cov: Vec<u64>,
    cycles: u64,
    // Per-lane bookkeeping (bit-identical to the scalar VM's).
    fired: Vec<u64>,
    fired_per_rule: Vec<u64>,
    fail_per_rule: Vec<u64>,
    last_fail: Vec<Option<FailInfo>>,
    /// Rules committed this cycle, per lane, in schedule order — the raw
    /// material for commit digests (the batched/scalar equivalence oracle).
    commits: Vec<Vec<u32>>,
    // Lock-step bookkeeping bases. A lock-step outcome is identical across
    // lanes by construction, so the hot arms bump one base counter instead
    // of `lanes` overlay slots; a lane's observable count is always
    // `base + overlay`, and the divergence fallback keeps bumping the
    // per-lane overlays above.
    fired_base: u64,
    fired_per_rule_base: Vec<u64>,
    fail_per_rule_base: Vec<u64>,
    /// Most recent lock-step failure (identical for every lane). Shadows
    /// the per-lane `last_fail` entries until a divergence (or a dispatch
    /// switch) materializes it into them.
    last_fail_uniform: Option<FailInfo>,
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
    // Rule-entry snapshot buffers (post-prologue). Only the rw byte plane
    // and coverage counters are ever saved — data stripes and slot files
    // are recoverable without a snapshot (see `step_rule_batch_inner`).
    snap_rw: Vec<u8>,
    snap_cov: Vec<u64>,
    // Lock-step effectiveness counters.
    lockstep_rules: u64,
    fallback_rules: u64,
    /// The lock-step engine: [`Dispatch::Tac`] (the micro-op interpreter)
    /// or [`Dispatch::Native`].
    dispatch: Dispatch,
    /// Every rule lowered to micro-ops, once, at construction.
    tac: Vec<TacRule>,
    /// Per-rule SoA slot files, slot-major (`slot * lanes + lane`), with
    /// constant slots pre-broadcast across all lanes. Both lock-step
    /// engines run over them: the native lane loops are emitted from the
    /// same (deterministic) lowering and index `slot * lanes + lane`
    /// exactly like the interpreter.
    slots: Vec<Vec<u64>>,
    /// Loaded native engine for `Dispatch::Native` (built by
    /// `set_dispatch`; shared with scalar sims via the process-wide cache).
    native: Option<std::sync::Arc<crate::native::NativeEngine>>,
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
        let nrules = prog.rules.len();
        let mut init_soa = vec![0u64; n * lanes];
        for r in 0..n {
            init_soa[r * lanes..(r + 1) * lanes].fill(prog.init[r]);
        }
        let scratch = State::for_program(&prog);
        let rule_meta = rule_metas(&prog);
        let ncov = prog.cov.len();
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
            cov: vec![0; ncov * lanes],
            cycles: 0,
            fired: vec![0; lanes],
            fired_per_rule: vec![0; nrules * lanes],
            fail_per_rule: vec![0; nrules * lanes],
            last_fail: vec![None; lanes],
            commits: vec![Vec::new(); lanes],
            fired_base: 0,
            fired_per_rule_base: vec![0; nrules],
            fail_per_rule_base: vec![0; nrules],
            last_fail_uniform: None,
            commits_uniform: Vec::new(),
            commits_split: false,
            rule_meta,
            scratch,
            snap_rw: vec![0; n * lanes],
            snap_cov: vec![0; ncov * lanes],
            lockstep_rules: 0,
            fallback_rules: 0,
            dispatch: Dispatch::Tac,
            tac,
            slots,
            native: None,
            prog,
        }
    }

    /// Selects the lock-step engine.
    ///
    /// Every interpreted dispatch ([`Dispatch::Match`], [`Dispatch::Closure`]
    /// and [`Dispatch::Tac`]) selects the micro-op interpreter, which
    /// decodes each micro-op once per cycle for all lanes; the batch then
    /// reports [`Dispatch::Tac`] from [`BatchSim::dispatch`].
    /// [`Dispatch::Native`] runs each rule through its compiled batched
    /// entry point: straight-line lane loops with no interpreter dispatch
    /// at all. On divergence the native dispatch re-runs lanes through the
    /// compiled *scalar* rule functions (never a silent interpreter
    /// fallback); the interpreter re-runs them through the exact scalar
    /// bytecode executor. All of these are bit-identical by construction.
    ///
    /// # Panics
    ///
    /// Panics if [`Dispatch::Native`] is requested and the engine cannot
    /// be built; use [`BatchSim::try_set_dispatch`] to handle that.
    pub fn set_dispatch(&mut self, dispatch: Dispatch) {
        if let Err(e) = self.try_set_dispatch(dispatch) {
            panic!("cannot select {} dispatch: {e}", dispatch.short_name());
        }
    }

    /// Fallible form of [`BatchSim::set_dispatch`]; only
    /// [`Dispatch::Native`] preparation can fail.
    ///
    /// # Errors
    ///
    /// [`crate::NativeError`] when the native engine cannot be emitted,
    /// built, or loaded. The previous dispatch stays selected.
    pub fn try_set_dispatch(&mut self, dispatch: Dispatch) -> Result<(), crate::NativeError> {
        let dispatch = if dispatch == Dispatch::Native {
            Dispatch::Native
        } else {
            Dispatch::Tac
        };
        if dispatch == Dispatch::Native && self.native.is_none() {
            self.native = Some(crate::native::build_engine_batched(&self.prog, self.lanes)?);
        }
        if dispatch != self.dispatch {
            // The interpreter records per-lane failure info directly, so a
            // pending lock-step uniform from the native arm must be
            // materialized before it could be shadowed by stale per-lane
            // entries.
            if let Some(fi) = self.last_fail_uniform.take() {
                self.last_fail.fill(Some(fi));
            }
        }
        self.dispatch = dispatch;
        Ok(())
    }

    /// The selected lock-step engine: [`Dispatch::Tac`] or
    /// [`Dispatch::Native`].
    pub fn dispatch(&self) -> Dispatch {
        self.dispatch
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

    /// Rules that diverged and were re-run per-lane by the scalar executor.
    pub fn fallback_rules(&self) -> u64 {
        self.fallback_rules
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
    /// divergence-fallback overlay).
    pub fn lane_fired(&self, lane: usize) -> u64 {
        assert!(lane < self.lanes, "lane out of range");
        self.fired_base + self.fired[lane]
    }

    /// One lane's per-rule commit counts (rule-declaration order).
    pub fn lane_fired_per_rule(&self, lane: usize) -> Vec<u64> {
        assert!(lane < self.lanes, "lane out of range");
        (0..self.prog.rules.len())
            .map(|r| self.fired_per_rule_base[r] + self.fired_per_rule[r * self.lanes + lane])
            .collect()
    }

    /// One lane's per-rule failure counts.
    pub fn lane_fails_per_rule(&self, lane: usize) -> Vec<u64> {
        assert!(lane < self.lanes, "lane out of range");
        (0..self.prog.rules.len())
            .map(|r| self.fail_per_rule_base[r] + self.fail_per_rule[r * self.lanes + lane])
            .collect()
    }

    /// One lane's most recent rule failure, if any.
    pub fn lane_last_fail(&self, lane: usize) -> Option<FailInfo> {
        assert!(lane < self.lanes, "lane out of range");
        self.last_fail_uniform.or(self.last_fail[lane])
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

    /// A [`RegAccess`] view of one lane, for devices that tick against a
    /// single instance.
    pub fn lane(&mut self, lane: usize) -> BatchLane<'_> {
        assert!(lane < self.lanes, "lane out of range");
        BatchLane { sim: self, lane }
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
        // begin_cycle, vectorized.
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
        res
    }

    fn step_rule_batch_inner(&mut self, rule_idx: usize, meta: &RuleMeta) -> Result<(), VmError> {
        let cfg = self.prog.cfg;
        let lanes = self.lanes;
        // The ABI v4 batched entry points are self-merging: on a unanimous
        // outcome the compiled shell already performed the commit (or
        // rollback) plane merge, so the lock-step arms below skip theirs.
        let kernel_merged = self.dispatch == Dispatch::Native;

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
        // recoverable without one, so only two narrow saves remain:
        //
        // * `log_rw`, `reset_on_fail` levels only: stale R bits from earlier
        //   cleanly-failed rules legitimately linger in the accumulated log
        //   (they are not in `cyc_rw`), so the touched stripes must be saved
        //   — a u8 plane, 1/8th the width of a data save. At lower levels
        //   the scalar fallback's own prologue rebuilds rule-entry log state
        //   (zero-fill below `acc_logs`, a `cyc → log` copy above it), so
        //   nothing needs saving at all.
        // * `cov`: coverage counters bumped by an aborted lock-step run
        //   would double-count after the scalar re-run.
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
        // reason, and not by the next lock-step run of either engine.
        if cfg.reset_on_fail {
            for &r in &meta.touched {
                let s = r as usize * lanes;
                self.snap_rw[s..s + lanes].copy_from_slice(&self.log_rw[s..s + lanes]);
            }
        }
        for c in 0..meta.cov_len as usize {
            let s = (meta.cov_start as usize + c) * lanes;
            self.snap_cov[s..s + lanes].copy_from_slice(&self.cov[s..s + lanes]);
        }

        // Lock-step execution: compiled-native or micro-op form, per
        // dispatch.
        let outcome = if self.dispatch == Dispatch::Native {
            // The compiled batched entry point: straight-line lane loops,
            // no interpreter dispatch. It returns the scalar outcome
            // protocol extended with 6 = divergence; unanimous outcomes
            // feed the shared commit/failure arms below, divergence the
            // shared per-lane fallback. Only the bare function pointer is
            // copied out — the hot path never touches the `Arc` refcount.
            let f = self
                .native
                .as_ref()
                .expect("set_dispatch built the native engine")
                .batch_fn(rule_idx);
            let mut ctx = crate::native::NativeBatchCtx {
                boc: self.boc.as_mut_ptr(),
                cyc_rw: self.cyc_rw.as_mut_ptr(),
                log_rw: self.log_rw.as_mut_ptr(),
                cyc_d0: self.cyc_d0.as_mut_ptr(),
                cyc_d1: self.cyc_d1.as_mut_ptr(),
                log_d0: self.log_d0.as_mut_ptr(),
                log_d1: self.log_d1.as_mut_ptr(),
                cov: self.cov.as_mut_ptr(),
                slots: self.slots[rule_idx].as_mut_ptr(),
                lanes,
                fail_reg: 0,
                pad: 0,
            };
            // Every plane pointer covers the full `reg * lanes` SoA array
            // of the program the engine was built from (planes the level
            // leaves empty are never dereferenced — the emitter baked the
            // level in), `slots` was sized by the same lowering, and the
            // engine was built for exactly `self.lanes` lanes.
            let ret = crate::native::run_rule_batch_native(f, &mut ctx);
            let fail_reg = ctx.fail_reg;
            let code = ret & 0xff;
            let payload = (ret >> 8) as usize;
            let cycle = self.cycles;
            match code {
                0 => Some(Ok(())),
                1 | 2 => {
                    self.last_fail_uniform = Some(FailInfo {
                        rule: rule_idx,
                        pc: payload,
                        reg: Some(RegId(fail_reg)),
                        cycle,
                    });
                    Some(Err(code == 2))
                }
                3 | 4 => {
                    self.last_fail_uniform = Some(FailInfo {
                        rule: rule_idx,
                        pc: payload,
                        reg: None,
                        cycle,
                    });
                    Some(Err(code == 4))
                }
                6 => None,
                5 => {
                    let engine = self.native.as_ref().expect("checked above");
                    let (pc, what) = engine.trap(payload);
                    return Err(VmError::CompilerBug { rule: rule_idx, pc: pc as usize, what });
                }
                7 => {
                    return Err(VmError::CompilerBug {
                        rule: rule_idx,
                        pc: 0,
                        what: "batched entry point rejected the lane count",
                    })
                }
                _ => {
                    return Err(VmError::CompilerBug {
                        rule: rule_idx,
                        pc: 0,
                        what: "native batch rule returned an invalid status code",
                    })
                }
            }
        } else {
            self.run_uops_batch(rule_idx)?
        };

        match outcome {
            Some(Ok(())) => {
                // Batched commit.
                self.lockstep_rules += 1;
                let BatchSim {
                    prog,
                    cyc_rw,
                    log_rw,
                    cyc_d0,
                    log_d0,
                    cyc_d1,
                    log_d1,
                    ..
                } = self;
                if kernel_merged {
                    // Plane merge already done by the compiled shell.
                } else if !cfg.acc_logs {
                    // The prologue zeroed `log_rw`, so only the rule's own
                    // touched registers can carry bits — merge just those
                    // stripes, branchlessly.
                    for &r in &meta.touched {
                        let s = r as usize * lanes;
                        let lrw = &log_rw[s..s + lanes];
                        for (c, &rl) in cyc_rw[s..s + lanes].iter_mut().zip(lrw) {
                            *c |= rl;
                        }
                        if cfg.merged_data {
                            for ((c, &d), &rl) in cyc_d0[s..s + lanes]
                                .iter_mut()
                                .zip(&log_d0[s..s + lanes])
                                .zip(lrw)
                            {
                                let m = lane_mask(rl & (W0 | W1) != 0);
                                *c = (d & m) | (*c & !m);
                            }
                        } else {
                            for ((c, &d), &rl) in cyc_d0[s..s + lanes]
                                .iter_mut()
                                .zip(&log_d0[s..s + lanes])
                                .zip(lrw)
                            {
                                let m = lane_mask(rl & W0 != 0);
                                *c = (d & m) | (*c & !m);
                            }
                            for ((c, &d), &rl) in cyc_d1[s..s + lanes]
                                .iter_mut()
                                .zip(&log_d1[s..s + lanes])
                                .zip(lrw)
                            {
                                let m = lane_mask(rl & W1 != 0);
                                *c = (d & m) | (*c & !m);
                            }
                        }
                    }
                } else {
                    match &prog.rules[rule_idx].commit {
                        CopyPlan::Full => {
                            cyc_rw.copy_from_slice(log_rw);
                            cyc_d0.copy_from_slice(log_d0);
                            if !cfg.merged_data {
                                cyc_d1.copy_from_slice(log_d1);
                            }
                        }
                        CopyPlan::Footprint { rw, data } => {
                            for &r in rw {
                                let s = r as usize * lanes;
                                cyc_rw[s..s + lanes].copy_from_slice(&log_rw[s..s + lanes]);
                            }
                            for &r in data {
                                let s = r as usize * lanes;
                                cyc_d0[s..s + lanes].copy_from_slice(&log_d0[s..s + lanes]);
                                if !cfg.merged_data {
                                    cyc_d1[s..s + lanes].copy_from_slice(&log_d1[s..s + lanes]);
                                }
                            }
                        }
                    }
                }
                self.fired_base += 1;
                self.fired_per_rule_base[rule_idx] += 1;
                if self.commits_split {
                    for c in &mut self.commits {
                        c.push(rule_idx as u32);
                    }
                } else {
                    self.commits_uniform.push(rule_idx as u32);
                }
                Ok(())
            }
            Some(Err(clean)) => {
                // Batched failure: every lane failed the same check.
                // `run_uops_batch` already recorded per-lane FailInfo
                // (the native arm set the lock-step uniform instead).
                self.lockstep_rules += 1;
                self.fail_per_rule_base[rule_idx] += 1;
                if cfg.reset_on_fail && !clean && !kernel_merged {
                    let BatchSim {
                        prog,
                        cyc_rw,
                        log_rw,
                        cyc_d0,
                        log_d0,
                        cyc_d1,
                        log_d1,
                        ..
                    } = self;
                    match &prog.rules[rule_idx].rollback {
                        CopyPlan::Full => {
                            log_rw.copy_from_slice(cyc_rw);
                            log_d0.copy_from_slice(cyc_d0);
                            if !cfg.merged_data {
                                log_d1.copy_from_slice(cyc_d1);
                            }
                        }
                        CopyPlan::Footprint { rw, data } => {
                            for &r in rw {
                                let s = r as usize * lanes;
                                log_rw[s..s + lanes].copy_from_slice(&cyc_rw[s..s + lanes]);
                            }
                            for &r in data {
                                let s = r as usize * lanes;
                                log_d0[s..s + lanes].copy_from_slice(&cyc_d0[s..s + lanes]);
                                if !cfg.merged_data {
                                    log_d1[s..s + lanes].copy_from_slice(&cyc_d1[s..s + lanes]);
                                }
                            }
                        }
                    }
                }
                Ok(())
            }
            None => {
                // Divergence: restore to rule entry and re-run every lane
                // through the exact scalar executor. Below `reset_on_fail`
                // the scalar prologue rebuilds rule-entry log state itself,
                // so only the `reset_on_fail` levels restore anything: the
                // saved rw stripes, and data stripes straight from `cyc_*`
                // (equal to the log at rule entry — see the snapshot
                // comment above).
                self.fallback_rules += 1;
                // Materialize the lock-step bookkeeping the per-lane
                // executors are about to diverge from: the shared commit
                // list becomes per-lane vectors, and a pending uniform
                // failure is written through so `scatter_lane` can overlay
                // fresher per-lane failures on top of it.
                if !self.commits_split {
                    let BatchSim {
                        commits,
                        commits_uniform,
                        ..
                    } = self;
                    for c in commits.iter_mut() {
                        c.clear();
                        c.extend_from_slice(commits_uniform);
                    }
                    self.commits_split = true;
                }
                if let Some(fi) = self.last_fail_uniform.take() {
                    self.last_fail.fill(Some(fi));
                }
                if cfg.reset_on_fail {
                    for &r in &meta.touched {
                        let s = r as usize * lanes;
                        self.log_rw[s..s + lanes].copy_from_slice(&self.snap_rw[s..s + lanes]);
                    }
                    for &r in &meta.writes {
                        let s = r as usize * lanes;
                        self.log_d0[s..s + lanes].copy_from_slice(&self.cyc_d0[s..s + lanes]);
                        if !cfg.merged_data {
                            self.log_d1[s..s + lanes]
                                .copy_from_slice(&self.cyc_d1[s..s + lanes]);
                        }
                    }
                }
                for c in 0..meta.cov_len as usize {
                    let s = (meta.cov_start as usize + c) * lanes;
                    self.cov[s..s + lanes].copy_from_slice(&self.snap_cov[s..s + lanes]);
                }
                let mut executed = 0u64;
                if self.dispatch == Dispatch::Native {
                    // Native stays native: diverged lanes re-run through
                    // the compiled scalar rule functions (the scalar
                    // re-prologue inside is idempotent at every level).
                    let engine = std::sync::Arc::clone(
                        self.native.as_ref().expect("set_dispatch built the native engine"),
                    );
                    for l in 0..lanes {
                        self.gather_lane(l);
                        let committed = crate::native::step_rule_native(
                            &self.prog,
                            &engine,
                            &mut self.scratch,
                            rule_idx,
                            &mut executed,
                            false,
                        )?;
                        self.scatter_lane(l, rule_idx, committed);
                    }
                } else {
                    for l in 0..lanes {
                        self.gather_lane(l);
                        let committed = step_rule_impl(
                            &self.prog,
                            &mut self.scratch,
                            rule_idx,
                            None,
                            &mut executed,
                            false,
                        )?;
                        self.scatter_lane(l, rule_idx, committed);
                    }
                }
                Ok(())
            }
        }
    }

    /// Copies one lane's column of every array into the scalar scratch
    /// state.
    fn gather_lane(&mut self, l: usize) {
        let lanes = self.lanes;
        let BatchSim {
            boc,
            cyc_rw,
            log_rw,
            cyc_d0,
            cyc_d1,
            log_d0,
            log_d1,
            cov,
            scratch,
            last_fail,
            cycles,
            ..
        } = self;
        // Strided column reads via `step_by` zips: no bounds checks, no
        // per-element index arithmetic. `get(l..)` keeps the arrays that a
        // level leaves empty (`boc`, `cyc_d1`) safe to slice at any lane.
        macro_rules! gather {
            ($dst:expr, $src:expr) => {
                for (dst, &src) in $dst
                    .iter_mut()
                    .zip($src.get(l..).unwrap_or(&[]).iter().step_by(lanes))
                {
                    *dst = src;
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
        gather!(scratch.cov, cov);
        scratch.stack.clear();
        scratch.cycles = *cycles;
        scratch.last_fail = last_fail[l];
    }

    /// Copies the scalar scratch state back into one lane's column and
    /// updates the lane's commit/failure bookkeeping.
    fn scatter_lane(&mut self, l: usize, rule_idx: usize, committed: bool) {
        let lanes = self.lanes;
        {
            let BatchSim {
                cyc_rw,
                log_rw,
                cyc_d0,
                cyc_d1,
                log_d0,
                log_d1,
                cov,
                scratch,
                last_fail,
                ..
            } = self;
            // `boc` is read-only during a rule: no need to scatter it back.
            macro_rules! scatter {
                ($src:expr, $dst:expr) => {
                    for (&src, dst) in $src
                        .iter()
                        .zip($dst.get_mut(l..).unwrap_or(&mut []).iter_mut().step_by(lanes))
                    {
                        *dst = src;
                    }
                };
            }
            scatter!(scratch.cyc_rw, cyc_rw);
            scatter!(scratch.log_rw, log_rw);
            scatter!(scratch.cyc_d0, cyc_d0);
            scatter!(scratch.cyc_d1, cyc_d1);
            scatter!(scratch.log_d0, log_d0);
            scatter!(scratch.log_d1, log_d1);
            scatter!(scratch.cov, cov);
            last_fail[l] = scratch.last_fail;
        }
        if committed {
            self.fired[l] += 1;
            self.fired_per_rule[rule_idx * lanes + l] += 1;
            self.commits[l].push(rule_idx as u32);
        } else {
            self.fail_per_rule[rule_idx * lanes + l] += 1;
        }
    }

    /// Lock-step executor for one rule's micro-op program: each micro-op
    /// is decoded once and applied across every lane. At every checked
    /// register access and conditional jump the lanes either all pass, all
    /// fail, or diverge.
    ///
    /// Returns `Ok(Some(Ok(())))` on a batched commit, `Ok(Some(Err(clean)))`
    /// on a batched failure, and `Ok(None)` on divergence (the caller
    /// restores the rule-entry snapshot and falls back to the scalar
    /// bytecode executor, which is bit-identical to the micro-op form).
    #[allow(clippy::too_many_lines)]
    fn run_uops_batch(&mut self, rule_idx: usize) -> Result<Option<Result<(), bool>>, VmError> {
        let cfg = self.prog.cfg;
        let cycle = self.cycles;
        let BatchSim {
            lanes,
            tmp,
            tac,
            slots,
            boc,
            cyc_rw,
            log_rw,
            cyc_d0,
            log_d0,
            log_d1,
            cov,
            last_fail,
            ..
        } = self;
        let lanes = *lanes;
        let tac = &tac[rule_idx];
        let slots = &mut slots[rule_idx][..];
        let uops = &tac.uops;
        let mut pc = 0usize;

        macro_rules! sl {
            ($s:expr, $l:expr) => {
                slots[$s as usize * lanes + $l]
            };
        }
        // All-lanes conflict failure on one register.
        macro_rules! fail_all {
            ($reg:expr, $clean:expr, $src_pc:expr) => {{
                last_fail.fill(Some(FailInfo {
                    rule: rule_idx,
                    pc: $src_pc as usize,
                    reg: $reg,
                    cycle,
                }));
                return Ok(Some(Err($clean)));
            }};
        }
        // Checked-access gates: count the lanes whose rw-set byte has none
        // of `$bits` set with the bit-sliced SWAR kernels (eight lanes per
        // word), then fail-all / diverge / proceed. Reads check one log
        // (the accumulated one at `acc_logs` levels, else the cycle's);
        // writes check the rule log and, below `acc_logs`, the cycle log.
        macro_rules! gate {
            ($r:expr, $clean:expr, $src_pc:expr, $npass:expr) => {{
                let npass = $npass;
                if npass == 0 {
                    fail_all!(Some(RegId($r as u32)), $clean, $src_pc);
                }
                if npass < lanes {
                    return Ok(None);
                }
            }};
        }
        macro_rules! rd_gate {
            ($r:expr, $clean:expr, $bits:expr) => {{
                let s = $r * lanes;
                let chk = if cfg.acc_logs {
                    &log_rw[s..s + lanes]
                } else {
                    &cyc_rw[s..s + lanes]
                };
                gate!($r, $clean, tac.pcs[pc], simd::count_clear(chk, $bits));
            }};
        }
        macro_rules! wr_gate {
            ($r:expr, $clean:expr, $src_pc:expr, $bits:expr) => {{
                let s = $r * lanes;
                let npass = if cfg.acc_logs {
                    simd::count_clear(&log_rw[s..s + lanes], $bits)
                } else {
                    simd::count_clear2(&log_rw[s..s + lanes], &cyc_rw[s..s + lanes], $bits)
                };
                gate!($r, $clean, $src_pc, npass);
            }};
        }
        // Indexed accesses: lane `l` targets register
        // `base + (slots[idx][l] & amask)`, so the gate counts per lane
        // (`$pass` tests flat index `$i`) and a unanimous failure records
        // each lane's own register.
        macro_rules! arr_reg {
            ($idx:expr, $base:expr, $amask:expr, $l:expr) => {
                $base as usize + (sl!($idx, $l) & $amask as u64) as usize
            };
        }
        macro_rules! arr_gate {
            ($idx:expr, $base:expr, $amask:expr, $clean:expr, |$i:ident| $pass:expr) => {{
                let mut npass = 0usize;
                for l in 0..lanes {
                    let $i = arr_reg!($idx, $base, $amask, l) * lanes + l;
                    npass += ($pass) as usize;
                }
                if npass == 0 {
                    for (l, lf) in last_fail.iter_mut().enumerate() {
                        *lf = Some(FailInfo {
                            rule: rule_idx,
                            pc: tac.pcs[pc] as usize,
                            reg: Some(RegId(arr_reg!($idx, $base, $amask, l) as u32)),
                            cycle,
                        });
                    }
                    return Ok(Some(Err($clean)));
                }
                if npass < lanes {
                    return Ok(None);
                }
            }};
        }
        // Whole-stripe read application: record the read in the rw plane,
        // then blend the forwarded value branchlessly (the stripe forms of
        // `rd0_val!` / `rd1_val!`, used by the non-indexed register ops).
        macro_rules! rd0_stripe {
            ($r:expr, $out:expr) => {{
                let s = $r * lanes;
                if !cfg.design_specific {
                    simd::or_bytes(&mut log_rw[s..s + lanes], R0);
                }
                let src = if cfg.no_boc {
                    &log_d0[s..s + lanes]
                } else {
                    &boc[s..s + lanes]
                };
                $out.copy_from_slice(src);
            }};
        }
        macro_rules! rd1_stripe {
            ($r:expr, $out:expr) => {{
                let s = $r * lanes;
                simd::or_bytes(&mut log_rw[s..s + lanes], R1);
                let out = $out;
                let ld0 = &log_d0[s..s + lanes];
                if cfg.no_boc {
                    out.copy_from_slice(ld0);
                } else {
                    let lrw = &log_rw[s..s + lanes];
                    let bo = &boc[s..s + lanes];
                    if cfg.acc_logs {
                        for (((o, &w), &d), &b) in out.iter_mut().zip(lrw).zip(ld0).zip(bo) {
                            let m = lane_mask(w & W0 != 0);
                            *o = (d & m) | (b & !m);
                        }
                    } else {
                        let crw = &cyc_rw[s..s + lanes];
                        let cd0 = &cyc_d0[s..s + lanes];
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
                        lanes,
                    );
                }
                Uop::Not { dst, src, mask } => {
                    simd::map1_at(slots, dst as usize * lanes, src as usize * lanes, lanes, |a| {
                        !a & mask
                    });
                }
                Uop::Neg { dst, src, mask } => {
                    simd::map1_at(slots, dst as usize * lanes, src as usize * lanes, lanes, |a| {
                        a.wrapping_neg() & mask
                    });
                }
                Uop::Mask { dst, src, mask } => {
                    simd::map1_at(slots, dst as usize * lanes, src as usize * lanes, lanes, |a| {
                        a & mask
                    });
                }
                Uop::Sext { dst, src, from, mask } => {
                    let (d, s) = (dst as usize * lanes, src as usize * lanes);
                    if from == 0 {
                        slots[d..d + lanes].fill(0);
                    } else if from >= 64 {
                        simd::map1_at(slots, d, s, lanes, move |a| a & mask);
                    } else {
                        let sh = 64 - from;
                        simd::map1_at(slots, d, s, lanes, move |a| {
                            ((((a << sh) as i64) >> sh) as u64) & mask
                        });
                    }
                }
                Uop::Slice { dst, src, lo, mask } => {
                    simd::map1_at(slots, dst as usize * lanes, src as usize * lanes, lanes, |a| {
                        (a >> lo) & mask
                    });
                }
                Uop::SliceSext { dst, src, lo, from, mask } => {
                    let (d, s) = (dst as usize * lanes, src as usize * lanes);
                    if from == 0 {
                        slots[d..d + lanes].fill(0);
                    } else {
                        let from_mask = u64::MAX >> (64 - from.min(64));
                        let sh = 64 - from.min(64);
                        simd::map1_at(slots, d, s, lanes, move |a| {
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
                        lanes,
                    );
                }
                Uop::Const { dst, imm } => {
                    let d = dst as usize * lanes;
                    slots[d..d + lanes].fill(imm);
                }
                Uop::Mov { dst, src } => {
                    let (d, s) = (dst as usize * lanes, src as usize * lanes);
                    slots.copy_within(s..s + lanes, d);
                }
                Uop::Rd0 { dst, reg, clean } => {
                    let r = reg as usize;
                    rd_gate!(r, clean, W0 | W1);
                    let d = dst as usize * lanes;
                    rd0_stripe!(r, &mut slots[d..d + lanes]);
                }
                Uop::Rd1 { dst, reg, clean } => {
                    let r = reg as usize;
                    rd_gate!(r, clean, W1);
                    let d = dst as usize * lanes;
                    rd1_stripe!(r, &mut slots[d..d + lanes]);
                }
                Uop::Wr0 { src, reg, clean } => {
                    let r = reg as usize;
                    wr_gate!(r, clean, tac.pcs[pc], R1 | W0 | W1);
                    let (s, d) = (src as usize * lanes, r * lanes);
                    simd::or_bytes(&mut log_rw[d..d + lanes], W0);
                    log_d0[d..d + lanes].copy_from_slice(&slots[s..s + lanes]);
                }
                Uop::Wr1 { src, reg, clean } => {
                    let r = reg as usize;
                    wr_gate!(r, clean, tac.pcs[pc], W1);
                    let (s, d) = (src as usize * lanes, r * lanes);
                    simd::or_bytes(&mut log_rw[d..d + lanes], W1);
                    let dst = if cfg.merged_data {
                        &mut log_d0[d..d + lanes]
                    } else {
                        &mut log_d1[d..d + lanes]
                    };
                    dst.copy_from_slice(&slots[s..s + lanes]);
                }
                Uop::RdFast { dst, reg } => {
                    let (s, d) = (reg as usize * lanes, dst as usize * lanes);
                    slots[d..d + lanes].copy_from_slice(&log_d0[s..s + lanes]);
                }
                Uop::WrFast { src, reg } => {
                    let (s, d) = (src as usize * lanes, reg as usize * lanes);
                    log_d0[d..d + lanes].copy_from_slice(&slots[s..s + lanes]);
                }
                Uop::Rd0Arr { dst, idx, base, amask, clean } => {
                    let chk = if cfg.acc_logs { &*log_rw } else { &*cyc_rw };
                    arr_gate!(idx, base, amask, clean, |i| chk[i] & (W0 | W1) == 0);
                    for l in 0..lanes {
                        sl!(dst, l) = rd0_val!(arr_reg!(idx, base, amask, l) * lanes + l);
                    }
                }
                Uop::Rd1Arr { dst, idx, base, amask, clean } => {
                    let chk = if cfg.acc_logs { &*log_rw } else { &*cyc_rw };
                    arr_gate!(idx, base, amask, clean, |i| chk[i] & W1 == 0);
                    for l in 0..lanes {
                        sl!(dst, l) = rd1_val!(arr_reg!(idx, base, amask, l) * lanes + l);
                    }
                }
                Uop::Wr0Arr { src, idx, base, amask, clean } => {
                    let cyc_mask = lane_mask(!cfg.acc_logs) as u8;
                    arr_gate!(idx, base, amask, clean, |i| {
                        (log_rw[i] | (cyc_rw[i] & cyc_mask)) & (R1 | W0 | W1) == 0
                    });
                    for l in 0..lanes {
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
                    for l in 0..lanes {
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
                    for l in 0..lanes {
                        sl!(dst, l) = log_d0[arr_reg!(idx, base, amask, l) * lanes + l];
                    }
                }
                Uop::WrArrFast { src, idx, base, amask } => {
                    for l in 0..lanes {
                        log_d0[arr_reg!(idx, base, amask, l) * lanes + l] = sl!(src, l);
                    }
                }
                Uop::Jmp(t) => {
                    pc = t as usize;
                    continue;
                }
                Uop::Jz { cond, target } => {
                    let c = cond as usize * lanes;
                    let nz = simd::count_zero(&slots[c..c + lanes]);
                    if nz == lanes {
                        pc = target as usize;
                        continue;
                    }
                    if nz != 0 {
                        return Ok(None);
                    }
                }
                Uop::Abort { clean } => {
                    fail_all!(None, clean, tac.pcs[pc]);
                }
                Uop::Cov(id) => {
                    let base = id as usize * lanes;
                    for c in &mut cov[base..base + lanes] {
                        *c += 1;
                    }
                }
                Uop::End => return Ok(Some(Ok(()))),
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
                        simd::or_bytes(&mut log_rw[s..s + lanes], R0);
                    }
                    let vals = if cfg.no_boc {
                        &log_d0[s..s + lanes]
                    } else {
                        &boc[s..s + lanes]
                    };
                    simd::fused_ext_buf_at(
                        op,
                        mask,
                        slots,
                        dst as usize * lanes,
                        vals,
                        b as usize * lanes,
                        lanes,
                    );
                }
                Uop::BinWr { op, a, b, mask, reg, clean } => {
                    let r = reg as usize;
                    wr_gate!(r, clean, tac.pcs[pc], R1 | W0 | W1);
                    let d = r * lanes;
                    simd::or_bytes(&mut log_rw[d..d + lanes], W0);
                    simd::fused_zip2_to(
                        op,
                        mask,
                        &mut log_d0[d..d + lanes],
                        &slots[a as usize * lanes..][..lanes],
                        &slots[b as usize * lanes..][..lanes],
                    );
                }
                Uop::RdBinWr { op, rreg, b, mask, wreg, rclean, wclean } => {
                    let r = rreg as usize;
                    rd_gate!(r, rclean, W0 | W1);
                    // The read's effects (recording, value fetch) land
                    // before the write gate, exactly like the unfused pair.
                    let s = r * lanes;
                    if !cfg.design_specific {
                        simd::or_bytes(&mut log_rw[s..s + lanes], R0);
                    }
                    {
                        let vals = if cfg.no_boc {
                            &log_d0[s..s + lanes]
                        } else {
                            &boc[s..s + lanes]
                        };
                        simd::fused_zip2_to(
                            op,
                            mask,
                            tmp,
                            vals,
                            &slots[b as usize * lanes..][..lanes],
                        );
                    }
                    let w = wreg as usize;
                    wr_gate!(w, wclean, tac.pcs2[pc], R1 | W0 | W1);
                    let d = w * lanes;
                    simd::or_bytes(&mut log_rw[d..d + lanes], W0);
                    log_d0[d..d + lanes].copy_from_slice(tmp);
                }
                Uop::BinJz { op, a, b, mask, target } => {
                    let nz = simd::fused_count_zero_at(
                        op,
                        mask,
                        slots,
                        a as usize * lanes,
                        b as usize * lanes,
                        lanes,
                    );
                    if nz == lanes {
                        pc = target as usize;
                        continue;
                    }
                    if nz != 0 {
                        return Ok(None);
                    }
                }
                Uop::RdBinFast { op, dst, reg, b, mask } => {
                    let r = reg as usize * lanes;
                    simd::fused_ext_buf_at(
                        op,
                        mask,
                        slots,
                        dst as usize * lanes,
                        &log_d0[r..r + lanes],
                        b as usize * lanes,
                        lanes,
                    );
                }
                Uop::BinWrFast { op, a, b, mask, reg } => {
                    let r = reg as usize * lanes;
                    simd::fused_zip2_to(
                        op,
                        mask,
                        &mut log_d0[r..r + lanes],
                        &slots[a as usize * lanes..][..lanes],
                        &slots[b as usize * lanes..][..lanes],
                    );
                }
                Uop::RdBinWrFast { op, rreg, b, mask, wreg } => {
                    simd::fused_buf_ext_at(
                        op,
                        mask,
                        log_d0,
                        wreg as usize * lanes,
                        rreg as usize * lanes,
                        &slots[b as usize * lanes..][..lanes],
                        lanes,
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
            .finish()
    }
}

/// A [`RegAccess`] view of one lane of a [`BatchSim`], so devices and
/// injectors written against the scalar interface can drive a single
/// batched instance.
pub struct BatchLane<'a> {
    sim: &'a mut BatchSim,
    lane: usize,
}

impl RegAccess for BatchLane<'_> {
    fn get64(&self, reg: RegId) -> u64 {
        self.sim.lane_get64(self.lane, reg)
    }

    fn set64(&mut self, reg: RegId, value: u64) {
        self.sim.lane_set64(self.lane, reg, value);
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
    use koika::device::SimBackend;

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
    fn native_dispatch_matches_scalar_sims() {
        if !crate::native::toolchain_available() {
            eprintln!("SKIP native_dispatch_matches_scalar_sims: no rustc toolchain");
            return;
        }
        let td = collatz();
        let x = td.reg_id("x");
        for level in OptLevel::ALL {
            let opts = CompileOptions {
                level,
                ..CompileOptions::default()
            };
            let mut batch = BatchSim::compile_with(&td, &opts, 4).unwrap();
            batch.set_dispatch(Dispatch::Native);
            let mut scalars: Vec<Sim> =
                (0..4).map(|_| Sim::compile_with(&td, &opts).unwrap()).collect();
            // Divergent seeds: the per-lane compiled-native path must agree
            // with the scalar bytecode interpreter bit-for-bit even when
            // lanes take different control paths.
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
        prog.rules[0].code = vec![
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
        prog.rules[0].code.insert(0, Insn::Add { mask: u64::MAX });
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
    fn interpreted_dispatches_all_select_the_micro_op_engine() {
        let mut batch = BatchSim::compile(&collatz(), 2).unwrap();
        for d in [Dispatch::Match, Dispatch::Closure, Dispatch::Tac] {
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
        let cases: [(&str, Access); 9] = [
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
            ("lane_fired_per_rule", |b, l| {
                let _ = b.lane_fired_per_rule(l);
            }),
            ("lane_fails_per_rule", |b, l| {
                let _ = b.lane_fails_per_rule(l);
            }),
            ("lane_last_fail", |b, l| {
                let _ = b.lane_last_fail(l);
            }),
            ("lane_commits", |b, l| {
                let _ = b.lane_commits(l);
            }),
            ("lane", |b, l| {
                let _ = b.lane(l).get64(RegId(0));
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
