//! The reference interpreter: a direct implementation of Kôika's
//! one-rule-at-a-time log semantics (§3.1 of the paper).
//!
//! This is the "naive model": it keeps the beginning-of-cycle register
//! values, a cycle log, and a per-rule log, each log entry holding full
//! read-write sets (all four port flags) and both `data0` and `data1`
//! fields. It is deliberately unoptimized — it exists to be *obviously
//! correct*, serving as the ground truth that every optimized backend is
//! differentially tested against, and as the `O0` rung of the ablation
//! ladder.
//!
//! The exact check sets (documented here once; every backend follows them):
//!
//! | operation | fails if                                  | value returned            |
//! |-----------|-------------------------------------------|---------------------------|
//! | `rd0`     | `w0 \| w1` in the **cycle log**           | beginning-of-cycle value  |
//! | `rd1`     | `w1` in the **cycle log**                 | rule `d0`, else cycle `d0`, else beginning-of-cycle |
//! | `wr0`     | `r1 \| w0 \| w1` in **either log**        | —                         |
//! | `wr1`     | `w1` in **either log**                    | —                         |
//!
//! Reads check only the cycle log so that a rule may legally read back its
//! own writes' *pre-state* — the "Goldbergian contraption" of §3.2, which
//! this interpreter supports exactly and the optimized VM (like Cuttlesim)
//! intentionally rejects after warning.

use crate::bits::Bits;
use crate::device::{RegAccess, SimBackend};
use crate::obs::{rec_conflict, REC_ABORT, REC_COMMIT};
use crate::snapshot::{Snapshot, SnapshotError};
use crate::tir::{RegId, TAction, TDesign, TExpr};
use crate::ast::{BinOp, Port, UnOp};
use std::sync::Arc;

/// Rule execution aborted: an explicit `abort` (or failed guard), or a
/// read/write check failing on a specific register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Aborted {
    Explicit,
    Conflict(RegId),
}

#[derive(Debug, Clone, Default)]
struct LogEntry {
    r0: bool,
    r1: bool,
    w0: bool,
    w1: bool,
    d0: Option<Bits>,
    d1: Option<Bits>,
}

impl LogEntry {
    fn clear(&mut self) {
        *self = LogEntry::default();
    }
}

/// The reference simulator. See the module documentation.
pub struct Interp {
    design: TDesign,
    regs: Vec<Bits>,
    cycle_log: Vec<LogEntry>,
    rule_log: Vec<LogEntry>,
    locals: Vec<Option<Bits>>,
    cycles: u64,
    fired: u64,
    /// Per-rule commit counts (same order as `design.rules`).
    fired_per_rule: Vec<u64>,
    /// The last cycle's record word per scheduled rule.
    rec: Vec<u64>,
    mid_cycle: bool,
}

impl Interp {
    /// Creates an interpreter with all registers at their initial values.
    pub fn new(design: &TDesign) -> Self {
        let n = design.num_regs();
        Interp {
            regs: design.initial_values(),
            cycle_log: (0..n).map(|_| LogEntry::default()).collect(),
            rule_log: (0..n).map(|_| LogEntry::default()).collect(),
            locals: Vec::new(),
            cycles: 0,
            fired: 0,
            fired_per_rule: vec![0; design.rules.len()],
            rec: Vec::with_capacity(design.schedule.len()),
            design: design.clone(),
        mid_cycle: false,
        }
    }

    /// The design being simulated.
    pub fn design(&self) -> &TDesign {
        &self.design
    }

    /// The current value of a register (between cycles), at full width.
    pub fn reg_bits(&self, reg: RegId) -> &Bits {
        &self.regs[reg.0 as usize]
    }

    /// Sets a register's value (between cycles).
    pub fn set_reg_bits(&mut self, reg: RegId, v: Bits) {
        assert_eq!(
            v.width(),
            self.design.regs[reg.0 as usize].width,
            "width mismatch poking {}",
            self.design.regs[reg.0 as usize].name
        );
        self.regs[reg.0 as usize] = v;
    }

    /// How many times each rule has committed, in rule-declaration order.
    pub fn fired_per_rule(&self) -> &[u64] {
        &self.fired_per_rule
    }

    fn resolve_idx(&self, idx: &Bits, len: u32) -> usize {
        (idx.low_u64() & (len as u64 - 1)) as usize
    }

    fn read(&mut self, port: Port, reg: RegId) -> Result<Bits, Aborted> {
        let i = reg.0 as usize;
        let cyc = &self.cycle_log[i];
        match port {
            Port::P0 => {
                if cyc.w0 || cyc.w1 {
                    return Err(Aborted::Conflict(reg));
                }
                self.rule_log[i].r0 = true;
                Ok(self.regs[i].clone())
            }
            Port::P1 => {
                if cyc.w1 {
                    return Err(Aborted::Conflict(reg));
                }
                let value = if let Some(d0) = &self.rule_log[i].d0 {
                    d0.clone()
                } else if let Some(d0) = &cyc.d0 {
                    d0.clone()
                } else {
                    self.regs[i].clone()
                };
                self.rule_log[i].r1 = true;
                Ok(value)
            }
        }
    }

    fn write(&mut self, port: Port, reg: RegId, v: Bits) -> Result<(), Aborted> {
        let i = reg.0 as usize;
        let (cyc, rl) = (&self.cycle_log[i], &self.rule_log[i]);
        match port {
            Port::P0 => {
                if cyc.r1 || cyc.w0 || cyc.w1 || rl.r1 || rl.w0 || rl.w1 {
                    return Err(Aborted::Conflict(reg));
                }
                let e = &mut self.rule_log[i];
                e.w0 = true;
                e.d0 = Some(v);
            }
            Port::P1 => {
                if cyc.w1 || rl.w1 {
                    return Err(Aborted::Conflict(reg));
                }
                let e = &mut self.rule_log[i];
                e.w1 = true;
                e.d1 = Some(v);
            }
        }
        Ok(())
    }

    fn eval(&mut self, e: &TExpr) -> Result<Bits, Aborted> {
        match e {
            TExpr::Const { v, .. } => Ok(v.clone()),
            TExpr::Var { slot, .. } => Ok(self.locals[*slot as usize]
                .clone()
                .expect("checker guarantees definite assignment")),
            TExpr::Read { port, reg, .. } => self.read(*port, *reg),
            TExpr::ReadArr {
                port,
                base,
                len,
                idx,
                ..
            } => {
                let i = self.eval(idx)?;
                let elem = RegId(base.0 + self.resolve_idx(&i, *len) as u32);
                self.read(*port, elem)
            }
            TExpr::Un { op, a, w } => {
                let va = self.eval(a)?;
                Ok(match op {
                    UnOp::Not => va.not(),
                    UnOp::Neg => va.neg(),
                    UnOp::Zext(_) => va.zext(*w),
                    UnOp::Sext(_) => va.sext(*w),
                    UnOp::Slice { lo, width } => va.slice(*lo, *width),
                })
            }
            TExpr::Bin { op, a, b, .. } => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                Ok(match op {
                    BinOp::Add => va.add(&vb),
                    BinOp::Sub => va.sub(&vb),
                    BinOp::Mul => va.mul(&vb),
                    BinOp::And => va.and(&vb),
                    BinOp::Or => va.or(&vb),
                    BinOp::Xor => va.xor(&vb),
                    BinOp::Shl => va.shl(vb.low_u64()),
                    BinOp::Shr => va.shr(vb.low_u64()),
                    BinOp::Sra => va.sra(vb.low_u64()),
                    BinOp::Eq => va.eq_bits(&vb),
                    BinOp::Ne => va.eq_bits(&vb).not(),
                    BinOp::Ult => va.ult(&vb),
                    BinOp::Ule => vb.ult(&va).not(),
                    BinOp::Slt => va.slt(&vb),
                    BinOp::Sle => vb.slt(&va).not(),
                    BinOp::Concat => va.concat(&vb),
                })
            }
            TExpr::Select { c, t, f, .. } => {
                let vc = self.eval(c)?;
                if vc.is_zero() {
                    self.eval(f)
                } else {
                    self.eval(t)
                }
            }
        }
    }

    fn exec(&mut self, actions: &[TAction]) -> Result<(), Aborted> {
        for a in actions {
            match a {
                TAction::Let { slot, e } => {
                    let v = self.eval(e)?;
                    let slot = *slot as usize;
                    if slot >= self.locals.len() {
                        self.locals.resize(slot + 1, None);
                    }
                    self.locals[slot] = Some(v);
                }
                TAction::Write { port, reg, e } => {
                    let v = self.eval(e)?;
                    self.write(*port, *reg, v)?;
                }
                TAction::WriteArr {
                    port,
                    base,
                    len,
                    idx,
                    e,
                } => {
                    let i = self.eval(idx)?;
                    let v = self.eval(e)?;
                    let elem = RegId(base.0 + self.resolve_idx(&i, *len) as u32);
                    self.write(*port, elem, v)?;
                }
                TAction::If { c, t, f } => {
                    let vc = self.eval(c)?;
                    if vc.is_zero() {
                        self.exec(f)?;
                    } else {
                        self.exec(t)?;
                    }
                }
                TAction::Abort => return Err(Aborted::Explicit),
                TAction::Named { body, .. } => self.exec(body)?,
            }
        }
        Ok(())
    }

    /// Starts a new cycle: clears the cycle log. Exposed (with
    /// [`Interp::step_rule`] and [`Interp::end_cycle`]) so debugger-style
    /// harnesses can stop mid-cycle, as in the paper's case study 1.
    pub fn begin_cycle(&mut self) {
        for e in &mut self.cycle_log {
            e.clear();
        }
        self.mid_cycle = true;
    }

    /// Executes one rule transactionally; returns `true` if it committed.
    ///
    /// Must be bracketed by [`Interp::begin_cycle`] / [`Interp::end_cycle`].
    pub fn step_rule(&mut self, rule_idx: usize) -> bool {
        self.try_rule(rule_idx).is_ok()
    }

    /// [`Interp::step_rule`], but reporting *why* a failed rule failed.
    fn try_rule(&mut self, rule_idx: usize) -> Result<(), Aborted> {
        for e in &mut self.rule_log {
            e.clear();
        }
        self.locals.clear();
        let rules = Arc::clone(&self.design.rules);
        let result = self.exec(&rules[rule_idx].body);
        if result.is_ok() {
            // Commit: or the read-write sets, move write data.
            for (cyc, rl) in self.cycle_log.iter_mut().zip(self.rule_log.iter_mut()) {
                cyc.r0 |= rl.r0;
                cyc.r1 |= rl.r1;
                cyc.w0 |= rl.w0;
                cyc.w1 |= rl.w1;
                if rl.w0 {
                    cyc.d0 = rl.d0.take();
                }
                if rl.w1 {
                    cyc.d1 = rl.d1.take();
                }
            }
            self.fired += 1;
            self.fired_per_rule[rule_idx] += 1;
        }
        result
    }

    /// Ends the cycle: commits the cycle log into the register state.
    pub fn end_cycle(&mut self) {
        for (i, e) in self.cycle_log.iter_mut().enumerate() {
            if e.w1 {
                self.regs[i] = e.d1.take().expect("w1 implies d1");
            } else if e.w0 {
                self.regs[i] = e.d0.take().expect("w0 implies d0");
            }
        }
        self.cycles += 1;
        self.mid_cycle = false;
    }

    /// Runs one cycle with an explicit rule order — the paper's case study 2
    /// (functional verification with scheduler randomization).
    ///
    /// # Panics
    ///
    /// Panics if `order` mentions an out-of-range rule index.
    pub fn cycle_with_order(&mut self, order: &[usize]) {
        self.begin_cycle();
        for &idx in order {
            assert!(idx < self.design.rules.len(), "rule index out of range");
            self.step_rule(idx);
        }
        self.end_cycle();
    }
}

impl RegAccess for Interp {
    fn get64(&self, reg: RegId) -> u64 {
        self.regs[reg.0 as usize].to_u64()
    }

    fn set64(&mut self, reg: RegId, value: u64) {
        let w = self.design.regs[reg.0 as usize].width;
        assert!(w <= 64, "register wider than 64 bits");
        self.regs[reg.0 as usize] = Bits::new(w, value);
    }
}

impl SimBackend for Interp {
    fn cycle(&mut self) {
        debug_assert!(!self.mid_cycle, "cycle() called while stepping mid-cycle");
        self.begin_cycle();
        self.rec.clear();
        for i in 0..self.design.schedule.len() {
            let word = match self.try_rule(self.design.schedule[i]) {
                Ok(()) => REC_COMMIT,
                Err(Aborted::Explicit) => REC_ABORT,
                Err(Aborted::Conflict(reg)) => rec_conflict(reg),
            };
            self.rec.push(word);
        }
        self.end_cycle();
    }

    fn last_record(&self) -> (&[usize], &[u64]) {
        (&self.design.schedule, &self.rec)
    }

    fn reg_words(&self, out: &mut Vec<u64>) {
        out.extend(self.regs.iter().map(Bits::low_u64));
    }

    fn cycle_count(&self) -> u64 {
        self.cycles
    }

    fn rules_fired(&self) -> u64 {
        self.fired
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            design: self.design.name.clone(),
            cycles: self.cycles,
            fired: self.fired,
            fingerprint: self.design.fingerprint(),
            fired_per_rule: self.fired_per_rule.clone(),
            regs: self.regs.clone(),
        }
    }

    fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        if self.mid_cycle {
            return Err(SnapshotError::MidCycle);
        }
        let widths: Vec<u32> = self.design.regs.iter().map(|r| r.width).collect();
        snap.check_shape(&self.design.name, &widths, self.design.fingerprint())?;
        self.regs = snap.regs.clone();
        self.cycles = snap.cycles;
        self.fired = snap.fired;
        if snap.fired_per_rule.len() == self.fired_per_rule.len() {
            self.fired_per_rule.copy_from_slice(&snap.fired_per_rule);
        } else {
            self.fired_per_rule.fill(0);
        }
        Ok(())
    }

    fn as_reg_access(&mut self) -> &mut dyn RegAccess {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;
    use crate::check::check;
    use crate::design::DesignBuilder;

    fn interp_of(b: DesignBuilder) -> Interp {
        Interp::new(&check(&b.build()).unwrap())
    }

    #[test]
    fn counter_counts() {
        let mut b = DesignBuilder::new("c");
        b.reg("n", 8, 0u64);
        b.rule("inc", vec![wr0("n", rd0("n").add(k(8, 1)))]);
        let mut sim = interp_of(b);
        for _ in 0..300 {
            sim.cycle();
        }
        assert_eq!(sim.get64(RegId(0)), 300 % 256);
        assert_eq!(sim.rules_fired(), 300);
    }

    #[test]
    fn write0_then_later_rule_read1_forwards() {
        let mut b = DesignBuilder::new("fwd");
        b.reg("a", 8, 5u64);
        b.reg("b", 8, 0u64);
        b.rule("produce", vec![wr0("a", k(8, 42))]);
        b.rule("consume", vec![wr0("b", rd1("a"))]);
        b.schedule(["produce", "consume"]);
        let mut sim = interp_of(b);
        sim.cycle();
        assert_eq!(sim.get64(RegId(1)), 42, "rd1 must see same-cycle wr0");
    }

    #[test]
    fn read0_after_other_rules_write_conflicts() {
        let mut b = DesignBuilder::new("cf");
        b.reg("a", 8, 5u64);
        b.reg("b", 8, 0u64);
        b.rule("w", vec![wr0("a", k(8, 42))]);
        b.rule("r", vec![wr0("b", rd0("a"))]); // rd0 after a cycle-log write: fails
        b.schedule(["w", "r"]);
        let mut sim = interp_of(b);
        sim.cycle();
        assert_eq!(sim.get64(RegId(0)), 42);
        assert_eq!(sim.get64(RegId(1)), 0, "rule r must have aborted");
        assert_eq!(sim.rules_fired(), 1);
    }

    #[test]
    fn double_write0_conflicts() {
        let mut b = DesignBuilder::new("dw");
        b.reg("a", 8, 0u64);
        b.rule("w1", vec![wr0("a", k(8, 1))]);
        b.rule("w2", vec![wr0("a", k(8, 2))]);
        b.schedule(["w1", "w2"]);
        let mut sim = interp_of(b);
        sim.cycle();
        assert_eq!(sim.get64(RegId(0)), 1, "second wr0 must fail");
    }

    #[test]
    fn write1_overrides_write0_at_commit() {
        let mut b = DesignBuilder::new("ov");
        b.reg("a", 8, 0u64);
        b.rule("w0rule", vec![wr0("a", k(8, 1))]);
        b.rule("w1rule", vec![wr1("a", k(8, 2))]);
        b.schedule(["w0rule", "w1rule"]);
        let mut sim = interp_of(b);
        sim.cycle();
        assert_eq!(sim.get64(RegId(0)), 2, "w1 wins at commit");
    }

    #[test]
    fn goldbergian_contraption_reference_semantics() {
        // rule rl = r.wr0(1); r.wr1(2); r.rd0(); r.rd1()  -- §3.2
        let mut b = DesignBuilder::new("gb");
        b.reg("r", 8, 0u64);
        b.reg("seen0", 8, 99u64);
        b.reg("seen1", 8, 99u64);
        b.rule(
            "rl",
            vec![
                wr0("r", k(8, 1)),
                wr1("r", k(8, 2)),
                wr0("seen0", rd0("r")),
                wr0("seen1", rd1("r")),
            ],
        );
        let mut sim = interp_of(b);
        sim.cycle();
        assert_eq!(sim.get64(RegId(1)), 0, "rd0 reads the beginning-of-cycle 0");
        assert_eq!(sim.get64(RegId(2)), 1, "rd1 reads the port-0 write");
        assert_eq!(sim.get64(RegId(0)), 2, "w1 value commits");
    }

    #[test]
    fn abort_discards_rule_effects() {
        let mut b = DesignBuilder::new("ab");
        b.reg("a", 8, 0u64);
        b.rule("try", vec![wr0("a", k(8, 7)), abort()]);
        let mut sim = interp_of(b);
        sim.cycle();
        assert_eq!(sim.get64(RegId(0)), 0);
        assert_eq!(sim.rules_fired(), 0);
    }

    #[test]
    fn guard_aborts_until_condition() {
        let mut b = DesignBuilder::new("g");
        b.reg("n", 8, 0u64);
        b.reg("go", 1, 0u64);
        b.rule(
            "inc",
            vec![guard(rd0("go").eq(k(1, 1))), wr0("n", rd0("n").add(k(8, 1)))],
        );
        let mut sim = interp_of(b);
        sim.cycle();
        assert_eq!(sim.get64(RegId(0)), 0);
        sim.set64(RegId(1), 1);
        sim.cycle();
        assert_eq!(sim.get64(RegId(0)), 1);
    }

    #[test]
    fn paper_two_state_machine() {
        // The paper's §2.1 example: rules rlA / rlB alternate on `st`.
        let mut b = DesignBuilder::new("stm");
        b.reg("st", 1, 0u64);
        b.reg("x", 32, 3u64);
        b.reg("input", 32, 10u64);
        b.reg("output", 32, 0u64);
        b.rule(
            "rlA",
            vec![
                guard(rd0("st").eq(k(1, 0))),
                wr0("st", k(1, 1)),
                let_("new_x", rd0("x").add(rd0("input"))),
                wr0("x", var("new_x")),
                wr0("output", var("new_x")),
            ],
        );
        b.rule(
            "rlB",
            vec![
                guard(rd0("st").eq(k(1, 1))),
                wr0("st", k(1, 0)),
                let_("new_x", rd0("x").mul(k(32, 2))),
                wr0("x", var("new_x")),
                wr0("output", var("new_x")),
            ],
        );
        b.schedule(["rlA", "rlB"]);
        let td = check(&b.build()).unwrap();
        let mut sim = Interp::new(&td);
        sim.cycle(); // A: x = 3 + 10 = 13
        assert_eq!(sim.get64(td.reg_id("x")), 13);
        sim.cycle(); // B: x = 26
        assert_eq!(sim.get64(td.reg_id("x")), 26);
        assert_eq!(sim.fired_per_rule(), &[1, 1]);
    }

    #[test]
    fn array_rw_dynamic_index() {
        let mut b = DesignBuilder::new("arr");
        b.array("t", 8, 4, 0u64);
        b.reg("i", 2, 0u64);
        b.rule(
            "w",
            vec![
                wr0a("t", rd0("i"), rd0a("t", rd0("i")).add(k(8, 1))),
                wr0("i", rd0("i").add(k(2, 1))),
            ],
        );
        let mut sim = interp_of(b);
        for _ in 0..6 {
            sim.cycle();
        }
        // Elements 0 and 1 incremented twice, 2 and 3 once.
        assert_eq!(sim.get64(RegId(0)), 2);
        assert_eq!(sim.get64(RegId(1)), 2);
        assert_eq!(sim.get64(RegId(2)), 1);
        assert_eq!(sim.get64(RegId(3)), 1);
    }

    #[test]
    fn scheduler_order_changes_winner() {
        let mut b = DesignBuilder::new("ord");
        b.reg("a", 8, 0u64);
        b.rule("w1", vec![wr0("a", k(8, 1))]);
        b.rule("w2", vec![wr0("a", k(8, 2))]);
        b.schedule(["w1", "w2"]);
        let td = check(&b.build()).unwrap();
        let mut sim = Interp::new(&td);
        sim.cycle_with_order(&[1, 0]);
        assert_eq!(sim.get64(RegId(0)), 2);
    }

    #[test]
    fn mid_cycle_stepping() {
        let mut b = DesignBuilder::new("step");
        b.reg("a", 8, 0u64);
        b.reg("b", 8, 0u64);
        b.rule("ra", vec![wr0("a", k(8, 1))]);
        b.rule("rb", vec![wr0("b", rd1("a"))]);
        let td = check(&b.build()).unwrap();
        let mut sim = Interp::new(&td);
        sim.begin_cycle();
        assert!(sim.step_rule(0));
        // Mid-cycle: register state is still the beginning-of-cycle state.
        assert_eq!(sim.get64(RegId(0)), 0);
        assert!(sim.step_rule(1));
        sim.end_cycle();
        assert_eq!(sim.get64(RegId(0)), 1);
        assert_eq!(sim.get64(RegId(1)), 1);
    }

    #[test]
    fn interpreters_over_one_shared_design_step_in_lock_step() {
        // rlA and rlB alternate on `st`; rlC conflicts with whichever of
        // them wrote `x`, so every cycle has a commit and a failure.
        let mut b = DesignBuilder::new("shared");
        b.reg("st", 1, 0u64);
        b.reg("x", 32, 3u64);
        for (name, st, next) in [("rlA", 0, 1), ("rlB", 1, 0)] {
            let step = if st == 0 { rd0("x").add(k(32, 7)) } else { rd0("x").mul(k(32, 3)) };
            let body = vec![guard(rd0("st").eq(k(1, st))), wr0("st", k(1, next)), wr0("x", step)];
            b.rule(name, body);
        }
        b.rule("rlC", vec![wr0("x", rd0("x").add(k(32, 1)))]);
        let design = b.build();
        let td = check(&design).unwrap();
        let (da, db) = (td.clone(), td.clone());
        assert!(Arc::ptr_eq(&da.rules, &db.rules) && Arc::ptr_eq(&da.regs, &td.regs));
        let mut a = Interp::new(&da);
        let mut c = Interp::new(&db);
        assert!(Arc::ptr_eq(&a.design().rules, &c.design().rules));
        for cycle in 0..50 {
            // Interleave the two rule by rule, each borrowing its bodies
            // from the one shared rule list.
            a.begin_cycle();
            c.begin_cycle();
            for &idx in &td.schedule {
                assert_eq!(a.step_rule(idx), c.step_rule(idx), "cycle {cycle} rule {idx}");
            }
            a.end_cycle();
            c.end_cycle();
            assert_eq!(a.snapshot(), c.snapshot(), "cycle {cycle}");
        }
        assert_eq!(a.fired_per_rule(), &[25, 25, 0]);
        assert_eq!(td.rules, check(&design).unwrap().rules, "the shared rules are untouched");
    }
}
