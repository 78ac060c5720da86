//! Register-form (three-address) micro-op lowering for the Cuttlesim VM —
//! the [`crate::Dispatch::Tac`] backend.
//!
//! The stack bytecode ([`crate::insn::Insn`]) is convenient to emit but pays
//! for itself at run time: every operand crosses the operand stack, and every
//! instruction is re-decoded on every execution. Compiled simulators win by
//! lowering toward machine-shaped code, so this module lowers each rule
//! *once*, when the backend is selected, into a flat pre-decoded array of
//! micro-ops over a per-rule **slot file**:
//!
//! * **Stack elimination.** The lowering abstract-interprets the rule's stack
//!   effects: each push becomes a virtual value slot, each pop becomes a slot
//!   operand. Compiler-produced bytecode keeps the operand stack empty at
//!   every jump target (branching is statement-level), which makes the
//!   abstract stack exact; hand-built bytecode that violates this discipline
//!   lowers to a `Uop::Trap` and surfaces as [`VmError::CompilerBug`] at
//!   run time, never a panic.
//! * **Constant pre-folding.** `Const` pushes never execute: constants are
//!   folded into operands at lowering time (constant × constant operations
//!   fold completely) and materialized into read-only slots that are filled
//!   once, when the slot file is built.
//! * **Superinstruction fusion.** The dominant `rd0 → binop → wr0` and
//!   `binop → guard` chains fuse into single micro-ops (`Uop::RdBin`,
//!   `Uop::BinWr`, `Uop::RdBinWr`, `Uop::BinJz`), extending the
//!   peephole [`FusedBin`] machinery one level further.
//!
//! Observability is preserved: every micro-op carries the source bytecode pc
//! it came from (so [`crate::FailInfo`] keeps pointing into the bytecode) and
//! a weight equal to the number of bytecode instructions it absorbed (so
//! profiling counts stay on the bytecode scale that
//! [`crate::ProfileReport`] expects). Coverage micro-ops bump the same
//! counters as their bytecode counterparts, keeping
//! [`crate::CoverageReport`] exact.
//!
//! Profile counts equal match dispatch's, failures included. A micro-op's
//! whole weight is charged before it runs, so each fallible access also
//! carries the weight match has run by the time it fails (`fail_ws` next
//! to `pcs`, `fail_ws2` next to `pcs2`): a fused micro-op absorbs
//! instructions after its first access, and an operand stacked before an
//! access is charged to a later micro-op. A failure charges that weight in
//! place of the whole one, only when profiling. A profiled native `Sim`
//! runs these micro-op bodies, so native, tac and match agree, which
//! `tests/cross_backend.rs::native_per_rule_work_runs_the_micro_op_bodies`
//! checks.

use crate::compile::{fusable, Program, RuleCode};
use crate::insn::{FusedBin, Insn};
use crate::vm::{
    fused, rd0_at, rd1_at, rule_commit, rule_failure, rule_prologue, wr0_at, wr1_at, FailInfo,
    Flow, State, VmError,
};
use koika::bits::word;

/// A register-form micro-op. `u16` operands index the rule's slot file;
/// `u32` register fields index the flat register arrays, exactly like the
/// bytecode's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Uop {
    /// `slots[dst] = op(slots[a], slots[b])` under `mask`.
    Bin {
        /// Operator.
        op: FusedBin,
        /// Destination slot.
        dst: u16,
        /// Left operand slot.
        a: u16,
        /// Right operand slot.
        b: u16,
        /// Result mask.
        mask: u64,
    },
    /// `slots[dst] = !slots[src] & mask`.
    Not { dst: u16, src: u16, mask: u64 },
    /// `slots[dst] = (-slots[src]) & mask`.
    Neg { dst: u16, src: u16, mask: u64 },
    /// `slots[dst] = slots[src] & mask`.
    Mask { dst: u16, src: u16, mask: u64 },
    /// `slots[dst] = sext(from, slots[src]) & mask`.
    Sext { dst: u16, src: u16, from: u32, mask: u64 },
    /// `slots[dst] = (slots[src] >> lo) & mask` (`lo < 64`, guarded at
    /// lowering time).
    Slice { dst: u16, src: u16, lo: u32, mask: u64 },
    /// `slots[dst] = sext(from, (slots[src] >> lo) & mask(from)) & mask`.
    SliceSext { dst: u16, src: u16, lo: u32, from: u32, mask: u64 },
    /// `slots[dst] = if slots[c] != 0 { slots[t] } else { slots[f] }`.
    Select { dst: u16, c: u16, t: u16, f: u16 },
    /// `slots[dst] = imm`.
    Const { dst: u16, imm: u64 },
    /// `slots[dst] = slots[src]`.
    Mov { dst: u16, src: u16 },
    /// Checked port-0 read into a slot.
    Rd0 { dst: u16, reg: u32, clean: bool },
    /// Checked port-1 read into a slot.
    Rd1 { dst: u16, reg: u32, clean: bool },
    /// Checked port-0 write from a slot.
    Wr0 { src: u16, reg: u32, clean: bool },
    /// Checked port-1 write from a slot.
    Wr1 { src: u16, reg: u32, clean: bool },
    /// Unchecked safe-register read (either port — same semantics).
    RdFast { dst: u16, reg: u32 },
    /// Unchecked safe-register write (either port).
    WrFast { src: u16, reg: u32 },
    /// Checked array-element read at port 0, index from a slot.
    Rd0Arr { dst: u16, idx: u16, base: u32, amask: u32, clean: bool },
    /// Checked array-element read at port 1.
    Rd1Arr { dst: u16, idx: u16, base: u32, amask: u32, clean: bool },
    /// Checked array-element write at port 0.
    Wr0Arr { src: u16, idx: u16, base: u32, amask: u32, clean: bool },
    /// Checked array-element write at port 1.
    Wr1Arr { src: u16, idx: u16, base: u32, amask: u32, clean: bool },
    /// Unchecked safe array read.
    RdArrFast { dst: u16, idx: u16, base: u32, amask: u32 },
    /// Unchecked safe array write.
    WrArrFast { src: u16, idx: u16, base: u32, amask: u32 },
    /// Unconditional jump to a micro-op index.
    Jmp(u32),
    /// Jump if the slot is zero.
    Jz { cond: u16, target: u32 },
    /// Explicit rule abort.
    Abort { clean: bool },
    /// Bump a coverage counter (same ids as the bytecode's `Cov`).
    Cov(u32),
    /// Successful end of the rule.
    End,
    /// Lowering failed (stack-discipline violation in hand-built bytecode);
    /// surfaces as [`VmError::CompilerBug`].
    Trap(&'static str),

    /// Superinstruction: `slots[dst] = op(rd0(reg), slots[b])`.
    RdBin { op: FusedBin, dst: u16, reg: u32, b: u16, mask: u64, clean: bool },
    /// Superinstruction: `wr0(reg, op(slots[a], slots[b]))`.
    BinWr { op: FusedBin, a: u16, b: u16, mask: u64, reg: u32, clean: bool },
    /// Superinstruction: `wr0(wreg, op(rd0(rreg), slots[b]))` — a complete
    /// read-modify-write rule body in one micro-op.
    RdBinWr {
        op: FusedBin,
        rreg: u32,
        b: u16,
        mask: u64,
        wreg: u32,
        rclean: bool,
        wclean: bool,
    },
    /// Superinstruction: compute `op(slots[a], slots[b])` and jump if zero
    /// (a fused guard).
    BinJz { op: FusedBin, a: u16, b: u16, mask: u64, target: u32 },
    /// Superinstruction: `slots[dst] = op(fast_rd(reg), slots[b])` — the
    /// unchecked safe-register flavour of [`Uop::RdBin`].
    RdBinFast { op: FusedBin, dst: u16, reg: u32, b: u16, mask: u64 },
    /// Superinstruction: `fast_wr(reg, op(slots[a], slots[b]))`.
    BinWrFast { op: FusedBin, a: u16, b: u16, mask: u64, reg: u32 },
    /// Superinstruction: a complete safe-register read-modify-write — the
    /// whole body of a hot counter-style rule in one micro-op.
    RdBinWrFast { op: FusedBin, rreg: u32, b: u16, mask: u64, wreg: u32 },
}

impl Uop {
    /// The destination slot this micro-op writes, if any (used by the
    /// lowering's store-forwarding rewrite).
    fn dst_slot(&self) -> Option<u16> {
        match *self {
            Uop::Bin { dst, .. }
            | Uop::Not { dst, .. }
            | Uop::Neg { dst, .. }
            | Uop::Mask { dst, .. }
            | Uop::Sext { dst, .. }
            | Uop::Slice { dst, .. }
            | Uop::SliceSext { dst, .. }
            | Uop::Select { dst, .. }
            | Uop::Const { dst, .. }
            | Uop::Mov { dst, .. }
            | Uop::Rd0 { dst, .. }
            | Uop::Rd1 { dst, .. }
            | Uop::RdFast { dst, .. }
            | Uop::Rd0Arr { dst, .. }
            | Uop::Rd1Arr { dst, .. }
            | Uop::RdArrFast { dst, .. }
            | Uop::RdBin { dst, .. }
            | Uop::RdBinFast { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Redirects the destination slot (store forwarding: `expr; SetLocal`
    /// writes the expression straight into the local).
    fn set_dst_slot(&mut self, new: u16) {
        match self {
            Uop::Bin { dst, .. }
            | Uop::Not { dst, .. }
            | Uop::Neg { dst, .. }
            | Uop::Mask { dst, .. }
            | Uop::Sext { dst, .. }
            | Uop::Slice { dst, .. }
            | Uop::SliceSext { dst, .. }
            | Uop::Select { dst, .. }
            | Uop::Const { dst, .. }
            | Uop::Mov { dst, .. }
            | Uop::Rd0 { dst, .. }
            | Uop::Rd1 { dst, .. }
            | Uop::RdFast { dst, .. }
            | Uop::Rd0Arr { dst, .. }
            | Uop::Rd1Arr { dst, .. }
            | Uop::RdArrFast { dst, .. }
            | Uop::RdBin { dst, .. }
            | Uop::RdBinFast { dst, .. } => *dst = new,
            _ => unreachable!("set_dst_slot on a storeless micro-op"),
        }
    }
}

/// One rule lowered to micro-ops.
#[derive(Debug, Clone)]
pub(crate) struct TacRule {
    /// The flat, pre-decoded micro-op array.
    pub(crate) uops: Vec<Uop>,
    /// Source bytecode pc of each micro-op — the pc of the component whose
    /// failure is reported (`FailInfo.pc` stays a bytecode location).
    pub(crate) pcs: Vec<u32>,
    /// For [`Uop::RdBinWr`], the bytecode pc of the *write* component
    /// (everywhere else equal to `pcs`).
    pub(crate) pcs2: Vec<u32>,
    /// How many bytecode instructions each micro-op accounts for, keeping
    /// profiling counts on the bytecode scale.
    pub(crate) weights: Vec<u32>,
    /// What a profile charges instead of `weights` when the access at `pcs`
    /// fails: the bytecode instructions match dispatch has run by then (see
    /// the module docs).
    pub(crate) fail_ws: Vec<u32>,
    /// The same for a failure at the access at `pcs2`.
    pub(crate) fail_ws2: Vec<u32>,
    /// Slot-file template: `[0, nlocals)` locals, then read-only constant
    /// slots (pre-filled), then temporaries.
    pub(crate) slot_init: Vec<u64>,
}

/// A whole program lowered to micro-ops, plus the mutable per-rule slot
/// files the scalar executor runs on. A clone shares the lowered rules.
#[derive(Debug, Clone)]
pub(crate) struct TacProgram {
    /// Lowered rules, in rule order.
    pub(crate) rules: std::sync::Arc<[TacRule]>,
    /// Working slot files (clones of each rule's `slot_init`).
    pub(crate) slots: Vec<Vec<u64>>,
}

impl TacProgram {
    /// Lowers every rule of `prog`. Infallible: rules whose bytecode defies
    /// stack discipline lower to a trap body.
    pub(crate) fn lower(prog: &Program) -> TacProgram {
        let rules: std::sync::Arc<[TacRule]> = prog.rules.iter().map(TacRule::lower).collect();
        let slots = rules.iter().map(|r| r.slot_init.clone()).collect();
        TacProgram { rules, slots }
    }
}

/// What a slot holds, tracked during lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    /// A bytecode local: live across the whole rule.
    Local,
    /// A pre-folded constant: read-only, filled when the slot file is built.
    Const,
    /// A stack temporary: produced once, consumed once.
    Temp,
}

/// An abstract operand: what a bytecode stack entry lowered to.
#[derive(Debug, Clone, Copy)]
enum Opnd {
    /// The value lives in a slot.
    Slot(u16),
    /// The value is a compile-time constant (not yet materialized).
    Imm(u64),
}

/// A virtual stack entry: an operand plus the number of bytecode
/// instructions absorbed producing it without emitting a micro-op.
#[derive(Debug, Clone, Copy)]
struct VOp {
    k: Opnd,
    w: u32,
}

struct Lowerer<'a> {
    rule: &'a RuleCode,
    uops: Vec<Uop>,
    pcs: Vec<u32>,
    pcs2: Vec<u32>,
    weights: Vec<u32>,
    /// Per micro-op, the bytecode instructions run up to and including it
    /// that are not charged to an earlier micro-op: its own weight when
    /// emitted (before a later store is forwarded into it), plus the
    /// operands still stacked for later micro-ops.
    fail_ws: Vec<u32>,
    vstack: Vec<VOp>,
    kinds: Vec<SlotKind>,
    consts: Vec<(u64, u16)>,
    free_temps: Vec<u16>,
    /// Weight from instructions folded away entirely (e.g. a constant
    /// branch), attached to the next emitted micro-op.
    pending_w: u32,
    cur_pc: u32,
}

type Lower<T> = Result<T, &'static str>;

impl<'a> Lowerer<'a> {
    fn new(rule: &'a RuleCode) -> Lowerer<'a> {
        let n = rule.code.len();
        Lowerer {
            rule,
            uops: Vec::with_capacity(n),
            pcs: Vec::with_capacity(n),
            pcs2: Vec::with_capacity(n),
            weights: Vec::with_capacity(n),
            fail_ws: Vec::with_capacity(n),
            vstack: Vec::new(),
            kinds: vec![SlotKind::Local; rule.nlocals as usize],
            consts: Vec::new(),
            free_temps: Vec::new(),
            pending_w: 0,
            cur_pc: 0,
        }
    }

    fn alloc_slot(&mut self, kind: SlotKind) -> Lower<u16> {
        if kind == SlotKind::Temp {
            if let Some(t) = self.free_temps.pop() {
                return Ok(t);
            }
        }
        let s = self.kinds.len();
        if s >= u16::MAX as usize {
            return Err("slot file overflow");
        }
        self.kinds.push(kind);
        Ok(s as u16)
    }

    fn const_slot(&mut self, v: u64) -> Lower<u16> {
        if let Some(&(_, s)) = self.consts.iter().find(|&&(c, _)| c == v) {
            return Ok(s);
        }
        let s = self.alloc_slot(SlotKind::Const)?;
        self.consts.push((v, s));
        Ok(s)
    }

    fn emit(&mut self, u: Uop, w: u32) {
        self.emit2(u, w, self.cur_pc);
    }

    /// Emits with an explicit secondary pc (for micro-ops with two fallible
    /// components).
    fn emit2(&mut self, u: Uop, w: u32, pc2: u32) {
        self.uops.push(u);
        self.pcs.push(self.cur_pc);
        self.pcs2.push(pc2);
        let w = w + self.pending_w;
        self.weights.push(w);
        self.fail_ws.push(w + self.vstack.iter().map(|v| v.w).sum::<u32>());
        self.pending_w = 0;
    }

    fn pop(&mut self) -> Lower<VOp> {
        self.vstack.pop().ok_or("operand stack underflow")
    }

    /// Returns the operand as a slot, materializing constants into the
    /// read-only constant region.
    fn slot_of(&mut self, v: VOp) -> Lower<(u16, u32)> {
        match v.k {
            Opnd::Slot(s) => Ok((s, v.w)),
            Opnd::Imm(imm) => Ok((self.const_slot(imm)?, v.w)),
        }
    }

    /// Returns a consumed temporary to the free list.
    fn release(&mut self, v: VOp) {
        if let Opnd::Slot(s) = v.k {
            if self.kinds[s as usize] == SlotKind::Temp {
                self.free_temps.push(s);
            }
        }
    }

    /// Materializes any stacked reads of `slot` before it is overwritten
    /// (compiler output never needs this; hand-built bytecode might).
    fn flush_stale(&mut self, slot: u16) -> Lower<()> {
        for i in 0..self.vstack.len() {
            if let Opnd::Slot(s) = self.vstack[i].k {
                if s == slot {
                    let t = self.alloc_slot(SlotKind::Temp)?;
                    let w = self.vstack[i].w;
                    self.emit(Uop::Mov { dst: t, src: slot }, w);
                    self.vstack[i] = VOp { k: Opnd::Slot(t), w: 0 };
                }
            }
        }
        Ok(())
    }

    /// Pops the stack top into `slot` (a local), forwarding the store into
    /// the producing micro-op when it was the last one emitted.
    fn store_to(&mut self, slot: u16, w: u32) -> Lower<()> {
        let v = self.pop()?;
        self.flush_stale(slot)?;
        match v.k {
            Opnd::Imm(imm) => self.emit(Uop::Const { dst: slot, imm }, v.w + w),
            Opnd::Slot(s) => {
                let fwd = self.kinds[s as usize] == SlotKind::Temp
                    && self.uops.last().and_then(|u| u.dst_slot()) == Some(s);
                if fwd {
                    let last = self.uops.len() - 1;
                    self.uops[last].set_dst_slot(slot);
                    *self.weights.last_mut().expect("just indexed") += v.w + w + self.pending_w;
                    self.pending_w = 0;
                    self.free_temps.push(s);
                } else {
                    self.emit(Uop::Mov { dst: slot, src: s }, v.w + w);
                    self.release(v);
                }
            }
        }
        Ok(())
    }

    /// Lowers one binary stack operation through the shared fused-op
    /// evaluator (constant × constant folds completely).
    fn binop(&mut self, op: FusedBin, mask: u64) -> Lower<()> {
        let b = self.pop()?;
        let a = self.pop()?;
        if let (Opnd::Imm(x), Opnd::Imm(y)) = (a.k, b.k) {
            self.vstack.push(VOp {
                k: Opnd::Imm(fused(op, x, y, mask)),
                w: a.w + b.w + 1,
            });
            return Ok(());
        }
        let (bs, bw) = self.slot_of(b)?;
        let (as_, aw) = self.slot_of(a)?;
        let dst = self.alloc_slot(SlotKind::Temp)?;
        self.emit(Uop::Bin { op, dst, a: as_, b: bs, mask }, aw + bw + 1);
        self.release(a);
        self.release(b);
        self.vstack.push(VOp { k: Opnd::Slot(dst), w: 0 });
        Ok(())
    }

    /// Lowers a unary op, folding constants with `f`.
    fn unop(&mut self, f: impl FnOnce(u64) -> u64, mk: impl FnOnce(u16, u16) -> Uop) -> Lower<()> {
        let a = self.pop()?;
        if let Opnd::Imm(x) = a.k {
            self.vstack.push(VOp { k: Opnd::Imm(f(x)), w: a.w + 1 });
            return Ok(());
        }
        let (src, w) = self.slot_of(a)?;
        let dst = self.alloc_slot(SlotKind::Temp)?;
        self.emit(mk(dst, src), w + 1);
        self.release(a);
        self.vstack.push(VOp { k: Opnd::Slot(dst), w: 0 });
        Ok(())
    }

    /// Emits a checked/unchecked register read producing a fresh temp.
    fn read(&mut self, mk: impl FnOnce(u16) -> Uop) -> Lower<()> {
        let dst = self.alloc_slot(SlotKind::Temp)?;
        self.emit(mk(dst), 1);
        self.vstack.push(VOp { k: Opnd::Slot(dst), w: 0 });
        Ok(())
    }

    /// Pops the write value and emits the write micro-op.
    fn write(&mut self, mk: impl FnOnce(u16) -> Uop) -> Lower<()> {
        let v = self.pop()?;
        let (src, w) = self.slot_of(v)?;
        self.emit(mk(src), w + 1);
        self.release(v);
        Ok(())
    }

    fn lower_insn(&mut self, insn: Insn) -> Lower<()> {
        // Every plain binop routes through the shared fused evaluator.
        if let Some((op, mask)) = fusable(insn) {
            return self.binop(op, mask);
        }
        match insn {
            Insn::Const(v) => self.vstack.push(VOp { k: Opnd::Imm(v), w: 1 }),
            Insn::Local(s) => self.vstack.push(VOp { k: Opnd::Slot(s), w: 1 }),
            Insn::SetLocal(s) => self.store_to(s, 1)?,
            Insn::SetLocalK { slot, imm } => {
                self.flush_stale(slot)?;
                self.emit(Uop::Const { dst: slot, imm }, 1);
            }
            Insn::Not { mask } => {
                self.unop(|a| !a & mask, |dst, src| Uop::Not { dst, src, mask })?
            }
            Insn::Neg { mask } => self.unop(
                |a| a.wrapping_neg() & mask,
                |dst, src| Uop::Neg { dst, src, mask },
            )?,
            Insn::Mask { mask } => {
                self.unop(|a| a & mask, |dst, src| Uop::Mask { dst, src, mask })?
            }
            Insn::Sext { from, mask } => self.unop(
                |a| word::sext(from, a) & mask,
                |dst, src| Uop::Sext { dst, src, from, mask },
            )?,
            Insn::Slice { lo, mask } => {
                if lo >= 64 {
                    // Mirror the compiler's guard: everything shifted out.
                    self.unop(|_| 0, |dst, src| Uop::Mask { dst, src, mask: 0 })?
                } else {
                    self.unop(
                        |a| (a >> lo) & mask,
                        |dst, src| Uop::Slice { dst, src, lo, mask },
                    )?
                }
            }
            Insn::SliceSext { lo, from, mask } => {
                if lo >= 64 {
                    self.unop(|_| 0, |dst, src| Uop::Mask { dst, src, mask: 0 })?
                } else {
                    self.unop(
                        |a| word::sext(from, (a >> lo) & word::mask(from)) & mask,
                        |dst, src| Uop::SliceSext { dst, src, lo, from, mask },
                    )?
                }
            }
            Insn::Select => {
                let f = self.pop()?;
                let t = self.pop()?;
                let c = self.pop()?;
                if let Opnd::Imm(cv) = c.k {
                    // The branch not taken was still *evaluated* (its reads
                    // and their side effects already lowered); only its
                    // value is dropped.
                    let (taken, dropped) = if cv != 0 { (t, f) } else { (f, t) };
                    self.release(dropped);
                    self.vstack.push(VOp {
                        k: taken.k,
                        w: taken.w + c.w + dropped.w + 1,
                    });
                } else {
                    let (fs, fw) = self.slot_of(f)?;
                    let (ts, tw) = self.slot_of(t)?;
                    let (cs, cw) = self.slot_of(c)?;
                    let dst = self.alloc_slot(SlotKind::Temp)?;
                    self.emit(
                        Uop::Select { dst, c: cs, t: ts, f: fs },
                        fw + tw + cw + 1,
                    );
                    self.release(f);
                    self.release(t);
                    self.release(c);
                    self.vstack.push(VOp { k: Opnd::Slot(dst), w: 0 });
                }
            }
            Insn::Rd0 { reg, clean } => self.read(|dst| Uop::Rd0 { dst, reg, clean })?,
            Insn::Rd1 { reg, clean } => self.read(|dst| Uop::Rd1 { dst, reg, clean })?,
            Insn::Rd0Fast { reg } | Insn::Rd1Fast { reg } => {
                self.read(|dst| Uop::RdFast { dst, reg })?
            }
            Insn::Wr0 { reg, clean } => self.write(|src| Uop::Wr0 { src, reg, clean })?,
            Insn::Wr1 { reg, clean } => self.write(|src| Uop::Wr1 { src, reg, clean })?,
            Insn::Wr0Fast { reg } | Insn::Wr1Fast { reg } => {
                self.write(|src| Uop::WrFast { src, reg })?
            }
            Insn::LdFast { reg, slot } => {
                self.flush_stale(slot)?;
                self.emit(Uop::RdFast { dst: slot, reg }, 1);
            }
            Insn::StFast { reg, slot } => self.emit(Uop::WrFast { src: slot, reg }, 1),
            Insn::Rd0Arr { base, mask, clean } => self.arr_read(base, mask, |dst, idx| {
                Uop::Rd0Arr { dst, idx, base, amask: mask, clean }
            }, |reg| Uop::Rd0 { dst: 0, reg, clean })?,
            Insn::Rd1Arr { base, mask, clean } => self.arr_read(base, mask, |dst, idx| {
                Uop::Rd1Arr { dst, idx, base, amask: mask, clean }
            }, |reg| Uop::Rd1 { dst: 0, reg, clean })?,
            Insn::Rd0ArrFast { base, mask } | Insn::Rd1ArrFast { base, mask } => {
                self.arr_read(base, mask, |dst, idx| {
                    Uop::RdArrFast { dst, idx, base, amask: mask }
                }, |reg| Uop::RdFast { dst: 0, reg })?
            }
            Insn::Wr0Arr { base, mask, clean } => self.arr_write(base, mask, |src, idx| {
                Uop::Wr0Arr { src, idx, base, amask: mask, clean }
            }, |reg| Uop::Wr0 { src: 0, reg, clean })?,
            Insn::Wr1Arr { base, mask, clean } => self.arr_write(base, mask, |src, idx| {
                Uop::Wr1Arr { src, idx, base, amask: mask, clean }
            }, |reg| Uop::Wr1 { src: 0, reg, clean })?,
            Insn::Wr0ArrFast { base, mask } | Insn::Wr1ArrFast { base, mask } => {
                self.arr_write(base, mask, |src, idx| {
                    Uop::WrArrFast { src, idx, base, amask: mask }
                }, |reg| Uop::WrFast { src: 0, reg })?
            }
            Insn::Jmp(t) => {
                if !self.vstack.is_empty() {
                    return Err("operand stack not empty at a branch");
                }
                self.emit(Uop::Jmp(t), 1);
            }
            Insn::Jz(t) => {
                let c = self.pop()?;
                if !self.vstack.is_empty() {
                    return Err("operand stack not empty at a branch");
                }
                match c.k {
                    Opnd::Imm(0) => self.emit(Uop::Jmp(t), c.w + 1),
                    Opnd::Imm(_) => self.pending_w += c.w + 1,
                    Opnd::Slot(s) => {
                        self.emit(Uop::Jz { cond: s, target: t }, c.w + 1);
                        self.release(c);
                    }
                }
            }
            // The bytecode peephole's pre-fused forms: operands come from
            // immediates/locals instead of the stack, so these lower to a
            // plain `Bin` without touching the virtual stack (except BinRC,
            // whose left operand is stacked).
            Insn::BinRC { op, rhs, mask } => {
                let a = self.pop()?;
                if let Opnd::Imm(x) = a.k {
                    self.vstack.push(VOp { k: Opnd::Imm(fused(op, x, rhs, mask)), w: a.w + 1 });
                } else {
                    let (as_, aw) = self.slot_of(a)?;
                    let b = self.const_slot(rhs)?;
                    let dst = self.alloc_slot(SlotKind::Temp)?;
                    self.emit(Uop::Bin { op, dst, a: as_, b, mask }, aw + 1);
                    self.release(a);
                    self.vstack.push(VOp { k: Opnd::Slot(dst), w: 0 });
                }
            }
            Insn::BinRL { op, rhs_slot, mask } => {
                let a = self.pop()?;
                let (as_, aw) = self.slot_of(a)?;
                let dst = self.alloc_slot(SlotKind::Temp)?;
                self.emit(Uop::Bin { op, dst, a: as_, b: rhs_slot, mask }, aw + 1);
                self.release(a);
                self.vstack.push(VOp { k: Opnd::Slot(dst), w: 0 });
            }
            Insn::BinLL { op, a_slot, b_slot, mask } => {
                let dst = self.alloc_slot(SlotKind::Temp)?;
                self.emit(Uop::Bin { op, dst, a: a_slot, b: b_slot, mask }, 1);
                self.vstack.push(VOp { k: Opnd::Slot(dst), w: 0 });
            }
            Insn::BinLC { op, a_slot, rhs, mask } => {
                let b = self.const_slot(rhs)?;
                let dst = self.alloc_slot(SlotKind::Temp)?;
                self.emit(Uop::Bin { op, dst, a: a_slot, b, mask }, 1);
                self.vstack.push(VOp { k: Opnd::Slot(dst), w: 0 });
            }
            Insn::Abort => self.emit(Uop::Abort { clean: false }, 1),
            Insn::AbortClean => self.emit(Uop::Abort { clean: true }, 1),
            Insn::Cov(id) => self.emit(Uop::Cov(id), 1),
            Insn::End => self.emit(Uop::End, 1),
            // Every remaining opcode is a binop already handled by
            // `fusable` above.
            _ => return Err("unlowerable instruction"),
        }
        Ok(())
    }

    /// Array read with a constant-index fold to a plain register access.
    fn arr_read(
        &mut self,
        base: u32,
        amask: u32,
        mk: impl FnOnce(u16, u16) -> Uop,
        mk_direct: impl FnOnce(u32) -> Uop,
    ) -> Lower<()> {
        let idx = self.pop()?;
        if let Opnd::Imm(i) = idx.k {
            let reg = base + (i & amask as u64) as u32;
            let dst = self.alloc_slot(SlotKind::Temp)?;
            let mut u = mk_direct(reg);
            u.set_dst_slot(dst);
            self.emit(u, idx.w + 1);
            self.vstack.push(VOp { k: Opnd::Slot(dst), w: 0 });
            return Ok(());
        }
        let (is, iw) = self.slot_of(idx)?;
        let dst = self.alloc_slot(SlotKind::Temp)?;
        self.emit(mk(dst, is), iw + 1);
        self.release(idx);
        self.vstack.push(VOp { k: Opnd::Slot(dst), w: 0 });
        Ok(())
    }

    /// Array write with the same constant-index fold.
    fn arr_write(
        &mut self,
        base: u32,
        amask: u32,
        mk: impl FnOnce(u16, u16) -> Uop,
        mk_direct: impl FnOnce(u32) -> Uop,
    ) -> Lower<()> {
        let v = self.pop()?;
        let idx = self.pop()?;
        let (vs, vw) = self.slot_of(v)?;
        if let Opnd::Imm(i) = idx.k {
            let reg = base + (i & amask as u64) as u32;
            let u = match mk_direct(reg) {
                Uop::Wr0 { reg, clean, .. } => Uop::Wr0 { src: vs, reg, clean },
                Uop::Wr1 { reg, clean, .. } => Uop::Wr1 { src: vs, reg, clean },
                Uop::WrFast { reg, .. } => Uop::WrFast { src: vs, reg },
                _ => unreachable!("arr_write direct form is always a write"),
            };
            self.emit(u, idx.w + vw + 1);
            self.release(v);
            return Ok(());
        }
        let (is, iw) = self.slot_of(idx)?;
        self.emit(mk(vs, is), iw + vw + 1);
        self.release(v);
        self.release(idx);
        Ok(())
    }

    fn run(mut self) -> Lower<TacRule> {
        let code = &self.rule.code;
        let n = code.len();
        let mut is_target = vec![false; n + 1];
        for insn in code {
            match insn {
                Insn::Jmp(t) | Insn::Jz(t) => is_target[*t as usize] = true,
                _ => {}
            }
        }
        let mut bc2uop = vec![0u32; n + 1];
        for (pc, &insn) in code.iter().enumerate() {
            if is_target[pc] && !self.vstack.is_empty() {
                return Err("operand stack not empty at jump target");
            }
            bc2uop[pc] = self.uops.len() as u32;
            self.cur_pc = pc as u32;
            self.lower_insn(insn)?;
        }
        bc2uop[n] = self.uops.len() as u32;
        // Backstop for bytecode without a terminator: trap instead of
        // running off the end of the micro-op array.
        if !matches!(self.uops.last(), Some(Uop::End | Uop::Jmp(_) | Uop::Abort { .. })) {
            self.cur_pc = n as u32;
            self.emit(Uop::Trap("bytecode has no terminator"), 0);
        }
        // Patch branch targets from bytecode pcs to micro-op indices.
        for u in &mut self.uops {
            match u {
                Uop::Jmp(t) | Uop::Jz { target: t, .. } | Uop::BinJz { target: t, .. } => {
                    *t = bc2uop[*t as usize];
                }
                _ => {}
            }
        }
        let mut slot_init = vec![0u64; self.kinds.len()];
        for &(v, s) in &self.consts {
            slot_init[s as usize] = v;
        }
        let Fused { uops, pcs, pcs2, weights, fail_ws, fail_ws2 } = fuse_superinstructions(
            self.uops,
            self.pcs,
            self.pcs2,
            self.weights,
            self.fail_ws,
            &self.kinds,
        );
        Ok(TacRule { uops, pcs, pcs2, weights, fail_ws, fail_ws2, slot_init })
    }
}

impl TacRule {
    /// Lowers one rule; stack-discipline violations produce a trap body
    /// instead of an error (they surface as [`VmError::CompilerBug`] only
    /// if the rule actually runs).
    pub(crate) fn lower(rule: &RuleCode) -> TacRule {
        Lowerer::new(rule).run().unwrap_or_else(|what| TacRule {
            uops: vec![Uop::Trap(what)],
            pcs: vec![0],
            pcs2: vec![0],
            weights: vec![1],
            fail_ws: vec![1],
            fail_ws2: vec![1],
            slot_init: Vec::new(),
        })
    }
}

/// Whether `op(a, b) == op(b, a)` for all masked inputs.
fn commutes(op: FusedBin) -> bool {
    matches!(
        op,
        FusedBin::Add
            | FusedBin::Mul
            | FusedBin::And
            | FusedBin::Or
            | FusedBin::Xor
            | FusedBin::Eq
            | FusedBin::Ne
    )
}

/// The fused micro-op array with its parallel per-micro-op arrays (see
/// [`TacRule`]).
struct Fused {
    uops: Vec<Uop>,
    pcs: Vec<u32>,
    pcs2: Vec<u32>,
    weights: Vec<u32>,
    fail_ws: Vec<u32>,
    fail_ws2: Vec<u32>,
}

impl Fused {
    fn with_capacity(n: usize) -> Fused {
        Fused {
            uops: Vec::with_capacity(n),
            pcs: Vec::with_capacity(n),
            pcs2: Vec::with_capacity(n),
            weights: Vec::with_capacity(n),
            fail_ws: Vec::with_capacity(n),
            fail_ws2: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, u: Uop, (pc, pc2): (u32, u32), w: u32, (fw, fw2): (u32, u32)) {
        self.uops.push(u);
        self.pcs.push(pc);
        self.pcs2.push(pc2);
        self.weights.push(w);
        self.fail_ws.push(fw);
        self.fail_ws2.push(fw2);
    }
}

/// The post-lowering peephole: fuses `rd0 → binop → wr0` chains (and the
/// `binop → guard` pattern) into single micro-ops, remapping branch targets
/// exactly like the bytecode peephole does. A pattern is only fused when no
/// branch lands inside it and the intermediate slots are single-use
/// temporaries.
fn fuse_superinstructions(
    uops: Vec<Uop>,
    pcs: Vec<u32>,
    pcs2: Vec<u32>,
    weights: Vec<u32>,
    fail_ws: Vec<u32>,
    kinds: &[SlotKind],
) -> Fused {
    let n = uops.len();
    let mut is_target = vec![false; n + 1];
    for u in &uops {
        match u {
            Uop::Jmp(t) | Uop::Jz { target: t, .. } | Uop::BinJz { target: t, .. } => {
                is_target[*t as usize] = true
            }
            _ => {}
        }
    }
    let is_temp = |s: u16| kinds[s as usize] == SlotKind::Temp;

    // Pushes micro-ops `i..i + len` as `u`, whose accesses at micro-ops
    // `j` and `j2` report `pcs[j]` and `pcs2[j2]`. An access fails after
    // the group's micro-ops before it have run in full.
    let fuse = |out: &mut Fused, u: Uop, i: usize, len: usize, j: usize, j2: usize| {
        let site = |j: usize| weights[i..j].iter().sum::<u32>() + fail_ws[j];
        let w = weights[i..i + len].iter().sum();
        out.push(u, (pcs[j], pcs2[j2]), w, (site(j), site(j2)));
    };
    let mut out = Fused::with_capacity(n);
    let mut remap = vec![0u32; n + 1];
    let mut i = 0;
    while i < n {
        remap[i] = out.uops.len() as u32;
        // Orient a Bin so its temp input `t` sits in the `a` position.
        let oriented = |u: Uop, t: u16| -> Option<Uop> {
            if let Uop::Bin { op, dst, a, b, mask } = u {
                if a == t && b != t {
                    return Some(Uop::Bin { op, dst, a, b, mask });
                }
                if b == t && a != t && commutes(op) {
                    return Some(Uop::Bin { op, dst, a: b, b: a, mask });
                }
            }
            None
        };
        // Three micro-ops: read → binop → write (checked or fast flavour).
        if i + 2 < n && !is_target[i + 1] && !is_target[i + 2] {
            let rd = match uops[i] {
                Uop::Rd0 { dst, reg, clean } => Some((dst, reg, clean, false)),
                Uop::RdFast { dst, reg } => Some((dst, reg, false, true)),
                _ => None,
            };
            let wr = match uops[i + 2] {
                Uop::Wr0 { src, reg, clean } => Some((src, reg, clean, false)),
                Uop::WrFast { src, reg } => Some((src, reg, false, true)),
                _ => None,
            };
            // Only fuse when both ends share a flavour — a mixed pair would
            // give one side conflict checks it never had (or drop the ones
            // it did).
            if let (Some((t1, rreg, rclean, rfast)), Some((src, wreg, wclean, wfast))) = (rd, wr) {
                if rfast == wfast && is_temp(t1) {
                    if let Some(Uop::Bin { op, dst: t2, a: _, b, mask }) = oriented(uops[i + 1], t1)
                    {
                        if is_temp(t2) && t2 == src && b != t2 {
                            remap[i + 1] = out.uops.len() as u32;
                            remap[i + 2] = out.uops.len() as u32;
                            let u = if rfast {
                                Uop::RdBinWrFast { op, rreg, b, mask, wreg }
                            } else {
                                Uop::RdBinWr { op, rreg, b, mask, wreg, rclean, wclean }
                            };
                            fuse(&mut out, u, i, 3, i, i + 2);
                            i += 3;
                            continue;
                        }
                    }
                }
            }
        }
        // Two micro-ops.
        if i + 1 < n && !is_target[i + 1] {
            match (uops[i], uops[i + 1]) {
                // rd0 → binop.
                (Uop::Rd0 { dst: t, reg, clean }, second) if is_temp(t) => {
                    if let Some(Uop::Bin { op, dst, a: _, b, mask }) = oriented(second, t) {
                        remap[i + 1] = out.uops.len() as u32;
                        fuse(&mut out, Uop::RdBin { op, dst, reg, b, mask, clean }, i, 2, i, i);
                        i += 2;
                        continue;
                    }
                }
                // fast read → binop.
                (Uop::RdFast { dst: t, reg }, second) if is_temp(t) => {
                    if let Some(Uop::Bin { op, dst, a: _, b, mask }) = oriented(second, t) {
                        remap[i + 1] = out.uops.len() as u32;
                        fuse(&mut out, Uop::RdBinFast { op, dst, reg, b, mask }, i, 2, i, i);
                        i += 2;
                        continue;
                    }
                }
                // binop → wr0.
                (Uop::Bin { op, dst: t, a, b, mask }, Uop::Wr0 { src, reg, clean })
                    if is_temp(t) && t == src =>
                {
                    remap[i + 1] = out.uops.len() as u32;
                    fuse(&mut out, Uop::BinWr { op, a, b, mask, reg, clean }, i, 2, i + 1, i + 1);
                    i += 2;
                    continue;
                }
                // binop → fast write.
                (Uop::Bin { op, dst: t, a, b, mask }, Uop::WrFast { src, reg })
                    if is_temp(t) && t == src =>
                {
                    remap[i + 1] = out.uops.len() as u32;
                    fuse(&mut out, Uop::BinWrFast { op, a, b, mask, reg }, i, 2, i + 1, i + 1);
                    i += 2;
                    continue;
                }
                // binop → guard.
                (Uop::Bin { op, dst: t, a, b, mask }, Uop::Jz { cond, target })
                    if is_temp(t) && t == cond =>
                {
                    remap[i + 1] = out.uops.len() as u32;
                    fuse(&mut out, Uop::BinJz { op, a, b, mask, target }, i, 2, i, i);
                    i += 2;
                    continue;
                }
                _ => {}
            }
        }
        fuse(&mut out, uops[i], i, 1, i, i);
        i += 1;
    }
    remap[n] = out.uops.len() as u32;
    for u in &mut out.uops {
        match u {
            Uop::Jmp(t) | Uop::Jz { target: t, .. } | Uop::BinJz { target: t, .. } => {
                *t = remap[*t as usize];
            }
            _ => {}
        }
    }
    out
}

/// Extracts the `clean` flag from a failure [`Flow`].
#[inline(always)]
fn flow_clean(f: Flow) -> bool {
    match f {
        Flow::Fail { clean } => clean,
        // The checked accessors only ever fail with `Flow::Fail`.
        _ => unreachable!("register accessors fail only with Flow::Fail"),
    }
}

/// Executes one rule through its micro-op form: the Tac counterpart of
/// [`crate::vm::step_rule_impl`], sharing the prologue/commit/rollback
/// helpers so the transactional semantics are identical at every level.
pub(crate) fn step_rule_tac(
    prog: &Program,
    tac: &TacRule,
    slots: &mut [u64],
    st: &mut State,
    rule_idx: usize,
    executed: &mut u64,
    counting: bool,
) -> Result<bool, VmError> {
    let cfg = prog.cfg;
    let rule = &prog.rules[rule_idx];
    let n = prog.init.len();
    rule_prologue(cfg, st);

    let uops = &tac.uops;
    let mut pc = 0usize;
    // `Err((clean, bytecode_pc))` on rule failure.
    let outcome: Result<(), (bool, u32)> = loop {
        if counting {
            *executed += tac.weights[pc] as u64;
        }
        match uops[pc] {
            Uop::Bin { op, dst, a, b, mask } => {
                slots[dst as usize] = fused(op, slots[a as usize], slots[b as usize], mask);
            }
            Uop::Not { dst, src, mask } => slots[dst as usize] = !slots[src as usize] & mask,
            Uop::Neg { dst, src, mask } => {
                slots[dst as usize] = slots[src as usize].wrapping_neg() & mask
            }
            Uop::Mask { dst, src, mask } => slots[dst as usize] = slots[src as usize] & mask,
            Uop::Sext { dst, src, from, mask } => {
                slots[dst as usize] = word::sext(from, slots[src as usize]) & mask
            }
            Uop::Slice { dst, src, lo, mask } => {
                slots[dst as usize] = (slots[src as usize] >> lo) & mask
            }
            Uop::SliceSext { dst, src, lo, from, mask } => {
                slots[dst as usize] =
                    word::sext(from, (slots[src as usize] >> lo) & word::mask(from)) & mask
            }
            Uop::Select { dst, c, t, f } => {
                slots[dst as usize] = if slots[c as usize] != 0 {
                    slots[t as usize]
                } else {
                    slots[f as usize]
                }
            }
            Uop::Const { dst, imm } => slots[dst as usize] = imm,
            Uop::Mov { dst, src } => slots[dst as usize] = slots[src as usize],
            Uop::Rd0 { dst, reg, clean } => match rd0_at(st, cfg, reg as usize, clean) {
                Ok(v) => slots[dst as usize] = v,
                Err(f) => break Err((flow_clean(f), tac.pcs[pc])),
            },
            Uop::Rd1 { dst, reg, clean } => match rd1_at(st, cfg, reg as usize, clean) {
                Ok(v) => slots[dst as usize] = v,
                Err(f) => break Err((flow_clean(f), tac.pcs[pc])),
            },
            Uop::Wr0 { src, reg, clean } => {
                if let Err(f) = wr0_at(st, cfg, reg as usize, slots[src as usize], clean) {
                    break Err((flow_clean(f), tac.pcs[pc]));
                }
            }
            Uop::Wr1 { src, reg, clean } => {
                if let Err(f) = wr1_at(st, cfg, reg as usize, slots[src as usize], clean) {
                    break Err((flow_clean(f), tac.pcs[pc]));
                }
            }
            Uop::RdFast { dst, reg } => slots[dst as usize] = st.log_d0[reg as usize],
            Uop::WrFast { src, reg } => st.log_d0[reg as usize] = slots[src as usize],
            Uop::Rd0Arr { dst, idx, base, amask, clean } => {
                let i = base as usize + (slots[idx as usize] & amask as u64) as usize;
                match rd0_at(st, cfg, i, clean) {
                    Ok(v) => slots[dst as usize] = v,
                    Err(f) => break Err((flow_clean(f), tac.pcs[pc])),
                }
            }
            Uop::Rd1Arr { dst, idx, base, amask, clean } => {
                let i = base as usize + (slots[idx as usize] & amask as u64) as usize;
                match rd1_at(st, cfg, i, clean) {
                    Ok(v) => slots[dst as usize] = v,
                    Err(f) => break Err((flow_clean(f), tac.pcs[pc])),
                }
            }
            Uop::Wr0Arr { src, idx, base, amask, clean } => {
                let i = base as usize + (slots[idx as usize] & amask as u64) as usize;
                if let Err(f) = wr0_at(st, cfg, i, slots[src as usize], clean) {
                    break Err((flow_clean(f), tac.pcs[pc]));
                }
            }
            Uop::Wr1Arr { src, idx, base, amask, clean } => {
                let i = base as usize + (slots[idx as usize] & amask as u64) as usize;
                if let Err(f) = wr1_at(st, cfg, i, slots[src as usize], clean) {
                    break Err((flow_clean(f), tac.pcs[pc]));
                }
            }
            Uop::RdArrFast { dst, idx, base, amask } => {
                let i = base as usize + (slots[idx as usize] & amask as u64) as usize;
                slots[dst as usize] = st.log_d0[i];
            }
            Uop::WrArrFast { src, idx, base, amask } => {
                let i = base as usize + (slots[idx as usize] & amask as u64) as usize;
                st.log_d0[i] = slots[src as usize];
            }
            Uop::Jmp(t) => {
                pc = t as usize;
                continue;
            }
            Uop::Jz { cond, target } => {
                if slots[cond as usize] == 0 {
                    pc = target as usize;
                    continue;
                }
            }
            Uop::Abort { clean } => {
                st.last_fail = Some(FailInfo {
                    rule: usize::MAX,
                    pc: usize::MAX,
                    reg: None,
                    cycle: u64::MAX,
                });
                break Err((clean, tac.pcs[pc]));
            }
            Uop::Cov(id) => st.cov[id as usize] += 1,
            Uop::End => break Ok(()),
            Uop::Trap(what) => {
                return Err(VmError::CompilerBug {
                    rule: rule_idx,
                    pc: tac.pcs[pc] as usize,
                    what,
                })
            }
            Uop::RdBin { op, dst, reg, b, mask, clean } => {
                match rd0_at(st, cfg, reg as usize, clean) {
                    Ok(v) => slots[dst as usize] = fused(op, v, slots[b as usize], mask),
                    Err(f) => break Err((flow_clean(f), tac.pcs[pc])),
                }
            }
            Uop::BinWr { op, a, b, mask, reg, clean } => {
                let v = fused(op, slots[a as usize], slots[b as usize], mask);
                if let Err(f) = wr0_at(st, cfg, reg as usize, v, clean) {
                    break Err((flow_clean(f), tac.pcs[pc]));
                }
            }
            Uop::RdBinWr { op, rreg, b, mask, wreg, rclean, wclean } => {
                match rd0_at(st, cfg, rreg as usize, rclean) {
                    Ok(v) => {
                        let r = fused(op, v, slots[b as usize], mask);
                        if let Err(f) = wr0_at(st, cfg, wreg as usize, r, wclean) {
                            break Err((flow_clean(f), tac.pcs2[pc]));
                        }
                    }
                    Err(f) => break Err((flow_clean(f), tac.pcs[pc])),
                }
            }
            Uop::BinJz { op, a, b, mask, target } => {
                if fused(op, slots[a as usize], slots[b as usize], mask) == 0 {
                    pc = target as usize;
                    continue;
                }
            }
            Uop::RdBinFast { op, dst, reg, b, mask } => {
                slots[dst as usize] = fused(op, st.log_d0[reg as usize], slots[b as usize], mask);
            }
            Uop::BinWrFast { op, a, b, mask, reg } => {
                st.log_d0[reg as usize] = fused(op, slots[a as usize], slots[b as usize], mask);
            }
            Uop::RdBinWrFast { op, rreg, b, mask, wreg } => {
                st.log_d0[wreg as usize] =
                    fused(op, st.log_d0[rreg as usize], slots[b as usize], mask);
            }
        }
        pc += 1;
    };

    match outcome {
        Ok(()) => {
            rule_commit(cfg, st, rule, rule_idx, n);
            Ok(true)
        }
        Err((clean, src_pc)) => {
            if counting {
                // The failing micro-op was charged its whole weight before
                // it ran; the profile counts what match dispatch ran.
                let ran = if src_pc == tac.pcs[pc] { tac.fail_ws[pc] } else { tac.fail_ws2[pc] };
                *executed = *executed - tac.weights[pc] as u64 + ran as u64;
            }
            rule_failure(cfg, st, rule, rule_idx, src_pc as usize, clean);
            Ok(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use crate::level::OptLevel;
    use crate::vm::{Dispatch, Sim};
    use koika::ast::*;
    use koika::check::check;
    use koika::design::DesignBuilder;
    use koika::device::{RegAccess, SimBackend};
    use koika::tir::RegId;

    #[test]
    fn uop_is_small() {
        // The hot loop streams these from a flat array; keep them at most
        // 24 bytes like the bytecode's `Insn`.
        assert!(std::mem::size_of::<Uop>() <= 24);
    }

    fn counter_design() -> koika::tir::TDesign {
        let mut b = DesignBuilder::new("c");
        b.reg("n", 8, 0u64);
        b.rule("inc", vec![wr0("n", rd0("n").add(k(8, 1)))]);
        check(&b.build()).unwrap()
    }

    #[test]
    fn lowering_shrinks_the_counter_rule() {
        for level in OptLevel::ALL {
            let prog = compile(
                &counter_design(),
                &CompileOptions { level, ..CompileOptions::default() },
            )
            .unwrap();
            let tac = TacProgram::lower(&prog);
            let bytecode_len = prog.rules[0].code.len();
            let uop_len = tac.rules[0].uops.len();
            assert!(
                uop_len < bytecode_len,
                "{level:?}: {uop_len} uops vs {bytecode_len} insns"
            );
            // The profiling weights account for every bytecode instruction
            // on the path actually taken; the straight-line counter rule
            // has a single path, so the totals must match exactly.
            let total_w: u32 = tac.rules[0].weights.iter().sum();
            assert_eq!(total_w as usize, bytecode_len, "{level:?}");
        }
    }

    #[test]
    fn tac_matches_match_dispatch_on_counter() {
        for level in OptLevel::ALL {
            let opts = CompileOptions { level, ..CompileOptions::default() };
            let mut a = Sim::compile_with(&counter_design(), &opts).unwrap();
            let mut b = Sim::compile_with(&counter_design(), &opts).unwrap();
            b.set_dispatch(Dispatch::Tac);
            for _ in 0..300 {
                a.cycle();
                b.cycle();
                assert_eq!(a.reg_values(), b.reg_values(), "{level:?}");
            }
            assert_eq!(a.rules_fired(), b.rules_fired());
        }
    }

    #[test]
    fn tac_profile_counts_match_match_dispatch() {
        // Rules `b` and `c` fail at their read after `a` wrote `n`, at the
        // levels that check conflicts: `b` inside a fused `rd0 → add → wr0`,
        // `c` with its constant operand already stacked.
        let mut clash = DesignBuilder::new("clash");
        clash.reg("n", 8, 0u64);
        clash.rule("a", vec![wr0("n", rd0("n").add(k(8, 1)))]);
        clash.rule("b", vec![wr0("n", rd0("n").add(k(8, 2)))]);
        clash.rule("c", vec![wr0("n", k(8, 3).add(rd0("n")))]);
        let clash = check(&clash.build()).unwrap();
        for td in [counter_design(), clash] {
            for level in OptLevel::ALL {
                let opts = CompileOptions { level, ..CompileOptions::default() };
                let mut a = Sim::compile_with(&td, &opts).unwrap();
                let mut b = Sim::compile_with(&td, &opts).unwrap();
                a.enable_profiling();
                b.set_dispatch(Dispatch::Tac);
                b.enable_profiling();
                for _ in 0..10 {
                    a.cycle();
                    b.cycle();
                }
                assert_eq!(
                    a.profile_insns().unwrap(),
                    b.profile_insns().unwrap(),
                    "{} {level:?}: weights must keep Tac profiling on the bytecode scale",
                    td.name
                );
            }
        }
    }

    #[test]
    fn tac_coverage_counts_match_match_dispatch() {
        let opts = CompileOptions {
            coverage: true,
            ..CompileOptions::default()
        };
        let mut a = Sim::compile_with(&counter_design(), &opts).unwrap();
        let mut b = Sim::compile_with(&counter_design(), &opts).unwrap();
        b.set_dispatch(Dispatch::Tac);
        for _ in 0..10 {
            a.cycle();
            b.cycle();
        }
        assert!(!a.coverage_counts().is_empty());
        assert_eq!(
            a.coverage_counts(),
            b.coverage_counts(),
            "coverage points are fusion barriers; counts must be dispatch-invariant"
        );
    }

    #[test]
    fn stack_discipline_violation_traps() {
        let mut prog = compile(&counter_design(), &CompileOptions::default()).unwrap();
        std::sync::Arc::make_mut(&mut prog.rules)[0].code.insert(0, Insn::Add { mask: u64::MAX });
        let mut sim = Sim::new(prog);
        sim.set_dispatch(Dispatch::Tac);
        let err = sim.try_cycle().unwrap_err();
        assert!(matches!(
            err,
            VmError::CompilerBug { rule: 0, what: "operand stack underflow", .. }
        ));
    }

    #[test]
    fn concat_boundary_does_not_reappear_in_tac() {
        // A hand-built zero-width-high-half concat: the lowering folds the
        // constants through the same guarded evaluator as the VM.
        let mut prog = compile(&counter_design(), &CompileOptions::default()).unwrap();
        std::sync::Arc::make_mut(&mut prog.rules)[0].code = vec![
            Insn::Const(0xdead),
            Insn::Const(5),
            Insn::ConcatShift { low_width: 64, mask: u64::MAX },
            Insn::Wr0 { reg: 0, clean: false },
            Insn::End,
        ];
        let mut sim = Sim::new(prog);
        sim.set_dispatch(Dispatch::Tac);
        sim.try_cycle().unwrap();
        assert_eq!(sim.get64(RegId(0)), 5);
    }

    #[test]
    fn counter_rule_fuses_to_a_handful_of_uops() {
        // At the default (max) level the counter body is essentially one
        // read-modify-write; after fusion it must fit in very few micro-ops
        // (the commit/coverage scaffolding is all that may remain).
        let prog = compile(&counter_design(), &CompileOptions::default()).unwrap();
        let tac = TacProgram::lower(&prog);
        assert!(
            tac.rules[0].uops.len() <= 4,
            "expected a fused body, got {:?}",
            tac.rules[0].uops
        );
    }
}

