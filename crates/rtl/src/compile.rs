//! The Kôika hardware compilation scheme (§2.2 of the paper): one circuit
//! per rule, wired together in schedule order, with a-posteriori conflict
//! reconciliation.
//!
//! Each rule is compiled *in isolation* into combinational logic that
//! computes, for every register, candidate write values and write-enable
//! wires, plus an `abort` wire. Scheduling logic then threads a *wire log*
//! (per-register `r1`/`w0`/`w1` flags and data wires) from rule to rule:
//! a rule's effects are muxed in only if it did not abort. Finally each
//! register's next value muxes `d1`/`d0`/hold.
//!
//! Crucially — and this is the overhead the paper measures — **every rule's
//! circuit exists and is evaluated every cycle**; losers are discarded by
//! muxes. The [`crate::sim`] module evaluates this netlist the way Verilator
//! evaluates Verilog: all gates, every cycle.
//!
//! Two schemes are provided:
//!
//! * [`Scheme::Dynamic`] — faithful to Kôika: per-register read/write-set
//!   wires, conflicts detected dynamically in hardware;
//! * [`Scheme::Static`] — a "Bluespec-style" stand-in for the paper's Fig. 2
//!   baseline: conflicts between rules are resolved at compile time from the
//!   static analysis (a conservative conflict matrix gates `will_fire`), so
//!   no per-register tracking wires exist. Leaner circuits, possibly more
//!   conservative scheduling.

use crate::netlist::{mask, Netlist, NlBin, NlUn, NodeId};
use koika::analysis::{analyze, ScheduleAssumption};
use koika::ast::{BinOp, Port, UnOp};
use koika::tir::{TAction, TDesign, TExpr};
use std::error::Error;
use std::fmt;

/// Which conflict-resolution scheme to compile with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheme {
    /// Kôika-style dynamic per-register conflict detection.
    #[default]
    Dynamic,
    /// Bluespec-style static conflict resolution (Fig. 2 baseline).
    Static,
}

/// An error preventing RTL compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtlError {
    /// A register is wider than the netlist simulator's 64-bit datapath.
    RegTooWide {
        /// Register name.
        reg: String,
        /// Its width.
        width: u32,
    },
    /// An intermediate value is wider than 64 bits.
    ExprTooWide {
        /// The rule containing it.
        rule: String,
        /// Its width.
        width: u32,
    },
}

impl fmt::Display for RtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtlError::RegTooWide { reg, width } => {
                write!(f, "register {reg:?} is {width} bits; RTL datapath is 64")
            }
            RtlError::ExprTooWide { rule, width } => {
                write!(f, "rule {rule:?} has a {width}-bit value; RTL datapath is 64")
            }
        }
    }
}

impl Error for RtlError {}

/// A compiled RTL model: the netlist plus scheduling metadata.
#[derive(Debug, Clone)]
pub struct RtlModel {
    /// Design name.
    pub name: String,
    /// The netlist.
    pub netlist: Netlist,
    /// Per scheduled rule, the 1-bit wire that is true when the rule
    /// commits this cycle (for telemetry and differential testing).
    pub fires: Vec<NodeId>,
    /// Names of the scheduled rules, parallel to `fires`.
    pub fire_names: Vec<String>,
    /// Declaration-order rule index of each scheduled rule, parallel to
    /// `fires` — maps schedule positions back to `TDesign::rules` so
    /// observers report the same rule indices as the other backends.
    pub sched_rules: Vec<usize>,
    /// The compilation scheme used.
    pub scheme: Scheme,
}

#[derive(Clone, Copy)]
struct WireLog {
    r1: NodeId,
    w0: NodeId,
    w1: NodeId,
    d0: NodeId,
    d1: NodeId,
}

struct RuleCtx<'a> {
    nl: &'a mut Netlist,
    design: &'a TDesign,
    rule_name: &'a str,
    scheme: Scheme,
    log: Vec<WireLog>,
    /// Rule-local (r1, w0, w1) flags, used for the static scheme's
    /// intra-rule conflict checks.
    rflags: Vec<(NodeId, NodeId, NodeId)>,
    locals: Vec<Option<NodeId>>,
    guard: NodeId,
    abort: NodeId,
    error: Option<RtlError>,
}

impl RuleCtx<'_> {
    fn fail_width(&mut self, w: u32) -> bool {
        if w > 64 {
            if self.error.is_none() {
                self.error = Some(RtlError::ExprTooWide {
                    rule: self.rule_name.to_string(),
                    width: w,
                });
            }
            false
        } else {
            true
        }
    }

    fn add_abort(&mut self, cond: NodeId) {
        let gated = self.nl.and1(self.guard, cond);
        self.abort = self.nl.or1(self.abort, gated);
    }

    /// The flags consulted by conflict checks: the accumulated log for the
    /// dynamic scheme, the rule-local flags for the static scheme (whose
    /// inter-rule conflicts are handled by the compile-time matrix).
    fn check_flags(&self, i: usize) -> (NodeId, NodeId, NodeId) {
        match self.scheme {
            Scheme::Dynamic => (self.log[i].r1, self.log[i].w0, self.log[i].w1),
            Scheme::Static => self.rflags[i],
        }
    }

    fn record_r1(&mut self, i: usize) {
        let g = self.guard;
        match self.scheme {
            Scheme::Dynamic => self.log[i].r1 = self.nl.or1(self.log[i].r1, g),
            Scheme::Static => self.rflags[i].0 = self.nl.or1(self.rflags[i].0, g),
        }
    }

    fn record_w(&mut self, i: usize, port: Port, enable: NodeId) {
        match port {
            Port::P0 => {
                self.log[i].w0 = self.nl.or1(self.log[i].w0, enable);
                if self.scheme == Scheme::Static {
                    self.rflags[i].1 = self.nl.or1(self.rflags[i].1, enable);
                }
            }
            Port::P1 => {
                self.log[i].w1 = self.nl.or1(self.log[i].w1, enable);
                if self.scheme == Scheme::Static {
                    self.rflags[i].2 = self.nl.or1(self.rflags[i].2, enable);
                }
            }
        }
    }

    fn add_explicit_abort(&mut self) {
        let g = self.guard;
        self.abort = self.nl.or1(self.abort, g);
    }

    fn idx_bits(len: u32) -> u32 {
        len.trailing_zeros().max(1)
    }

    /// Selects, by index wire, one of the per-element wires.
    fn mux_tree(&mut self, w: u32, idx: NodeId, bit: u32, base: usize, len: usize, f: &mut impl FnMut(&mut Netlist, usize) -> NodeId) -> NodeId {
        if len == 1 {
            return f(self.nl, base);
        }
        let half = len / 2;
        let lo = self.mux_tree(w, idx, bit - 1, base, half, f);
        let hi = self.mux_tree(w, idx, bit - 1, base + half, half, f);
        let sel = self.nl.un(1, NlUn::Slice { lo: bit - 1 }, idx);
        let sel = self.nl.un(1, NlUn::Mask, sel);
        self.nl.mux(w, sel, hi, lo)
    }

    fn read(&mut self, port: Port, reg: u32) -> NodeId {
        let i = reg as usize;
        let entry = self.log[i];
        let (_, cw0, cw1) = self.check_flags(i);
        let q = self.nl.reg_q(reg);
        match port {
            Port::P0 => {
                let conflict = self.nl.or1(cw0, cw1);
                self.add_abort(conflict);
                q
            }
            Port::P1 => {
                self.add_abort(cw1);
                let w = self.design.regs[i].width;
                let value = self.nl.mux(w, entry.w0, entry.d0, q);
                // Record the read at port 1 (used by later write-0 checks).
                self.record_r1(i);
                value
            }
        }
    }

    fn write(&mut self, port: Port, reg: u32, v: NodeId) {
        let i = reg as usize;
        let entry = self.log[i];
        let (cr1, cw0, cw1) = self.check_flags(i);
        let w = self.design.regs[i].width;
        let g = self.guard;
        match port {
            Port::P0 => {
                let c1 = self.nl.or1(cr1, cw0);
                let conflict = self.nl.or1(c1, cw1);
                self.add_abort(conflict);
                self.record_w(i, Port::P0, g);
                self.log[i].d0 = self.nl.mux(w, g, v, entry.d0);
            }
            Port::P1 => {
                self.add_abort(cw1);
                self.record_w(i, Port::P1, g);
                self.log[i].d1 = self.nl.mux(w, g, v, entry.d1);
            }
        }
    }

    fn expr(&mut self, e: &TExpr) -> NodeId {
        if !self.fail_width(e.width()) {
            return self.nl.constant(1, 0);
        }
        match e {
            TExpr::Const { w, v } => self.nl.constant(*w, v.to_u64()),
            TExpr::Var { slot, .. } => self.locals[*slot as usize]
                .expect("checker guarantees definite assignment"),
            TExpr::Read { port, reg, .. } => self.read(*port, reg.0),
            TExpr::ReadArr {
                w,
                port,
                base,
                len,
                idx,
            } => {
                let idxn = self.expr(idx);
                let bits = Self::idx_bits(*len);
                let idxn = {
                    let m = self.nl.constant(idx.width().min(64), mask(bits.min(idx.width())));
                    self.nl.bin(bits, NlBin::And, idxn, m)
                };
                // Selected-element conflict check.
                match port {
                    Port::P0 => {
                        let flags: Vec<_> = (0..self.log.len()).map(|i| self.check_flags(i)).collect();
                        let conflict = self.mux_tree(1, idxn, bits, base.0 as usize, *len as usize, &mut |nl, i| {
                            nl.bin(1, NlBin::Or, flags[i].1, flags[i].2)
                        });
                        self.add_abort(conflict);
                        self.mux_tree(*w, idxn, bits, base.0 as usize, *len as usize, &mut |nl, i| {
                            nl.reg_q(i as u32)
                        })
                    }
                    Port::P1 => {
                        let flags: Vec<_> = (0..self.log.len()).map(|i| self.check_flags(i)).collect();
                        let conflict = self.mux_tree(1, idxn, bits, base.0 as usize, *len as usize, &mut |_nl, i| flags[i].2);
                        self.add_abort(conflict);
                        // Record r1 on the selected element.
                        let g = self.guard;
                        for e in 0..*len {
                            let i = base.0 as usize + e as usize;
                            let sel = {
                                let en = self.nl.constant(bits, e as u64);
                                self.nl.bin(1, NlBin::Eq, idxn, en)
                            };
                            let gsel = self.nl.and1(g, sel);
                            match self.scheme {
                                Scheme::Dynamic => {
                                    self.log[i].r1 = self.nl.or1(self.log[i].r1, gsel)
                                }
                                Scheme::Static => {
                                    self.rflags[i].0 = self.nl.or1(self.rflags[i].0, gsel)
                                }
                            }
                        }
                        let log = self.log.clone();
                        self.mux_tree(*w, idxn, bits, base.0 as usize, *len as usize, &mut |nl, i| {
                            let q = nl.reg_q(i as u32);
                            nl.mux(*w, log[i].w0, log[i].d0, q)
                        })
                    }
                }
            }
            TExpr::Un { w, op, a } => {
                let an = self.expr(a);
                match op {
                    UnOp::Not => self.nl.un(*w, NlUn::Not, an),
                    UnOp::Neg => {
                        let n = self.nl.un(*w, NlUn::Neg, an);
                        let m = self.nl.constant(*w, mask(*w));
                        self.nl.bin(*w, NlBin::And, n, m)
                    }
                    UnOp::Zext(_) => self.nl.un(*w, NlUn::Mask, an),
                    UnOp::Sext(_) => {
                        if *w > a.width() {
                            let s = self.nl.un(*w, NlUn::Sext, an);
                            let m = self.nl.constant(*w, mask(*w));
                            self.nl.bin(*w, NlBin::And, s, m)
                        } else {
                            an
                        }
                    }
                    UnOp::Slice { lo, width } => {
                        if *lo >= 64 {
                            self.nl.constant(*width, 0)
                        } else {
                            let s = self.nl.un(*width, NlUn::Slice { lo: *lo }, an);
                            self.nl.un(*width, NlUn::Mask, s)
                        }
                    }
                }
            }
            TExpr::Bin { w, op, a, b } => {
                let an = self.expr(a);
                let bn = self.expr(b);
                let raw = |op| -> NlBin { op };
                let masked = |this: &mut Self, n: NodeId| {
                    let m = this.nl.constant(*w, mask(*w));
                    this.nl.bin(*w, NlBin::And, n, m)
                };
                match op {
                    BinOp::Add => {
                        let n = self.nl.bin(*w, raw(NlBin::Add), an, bn);
                        masked(self, n)
                    }
                    BinOp::Sub => {
                        let n = self.nl.bin(*w, NlBin::Sub, an, bn);
                        masked(self, n)
                    }
                    BinOp::Mul => {
                        let n = self.nl.bin(*w, NlBin::Mul, an, bn);
                        masked(self, n)
                    }
                    BinOp::And => self.nl.bin(*w, NlBin::And, an, bn),
                    BinOp::Or => self.nl.bin(*w, NlBin::Or, an, bn),
                    BinOp::Xor => self.nl.bin(*w, NlBin::Xor, an, bn),
                    BinOp::Shl => {
                        let n = self.nl.bin(*w, NlBin::Shl, an, bn);
                        masked(self, n)
                    }
                    BinOp::Shr => self.nl.bin(*w, NlBin::Shr, an, bn),
                    BinOp::Sra => {
                        let n = self.nl.bin(*w, NlBin::Sra, an, bn);
                        masked(self, n)
                    }
                    BinOp::Eq => self.nl.bin(1, NlBin::Eq, an, bn),
                    BinOp::Ne => {
                        let e = self.nl.bin(1, NlBin::Eq, an, bn);
                        self.nl.not1(e)
                    }
                    BinOp::Ult => self.nl.bin(1, NlBin::Ult, an, bn),
                    BinOp::Ule => {
                        let gt = self.nl.bin(1, NlBin::Ult, bn, an);
                        self.nl.not1(gt)
                    }
                    BinOp::Slt => self.nl.bin(1, NlBin::Slt, an, bn),
                    BinOp::Sle => {
                        let gt = self.nl.bin(1, NlBin::Slt, bn, an);
                        self.nl.not1(gt)
                    }
                    BinOp::Concat => self.nl.bin(*w, NlBin::Concat, an, bn),
                }
            }
            TExpr::Select { w, c, t, f } => {
                let cn = self.expr(c);
                let tn = self.expr(t);
                let fn_ = self.expr(f);
                self.nl.mux(*w, cn, tn, fn_)
            }
        }
    }

    fn actions(&mut self, actions: &[TAction]) {
        for a in actions {
            if self.error.is_some() {
                return;
            }
            match a {
                TAction::Let { slot, e } => {
                    let v = self.expr(e);
                    let slot = *slot as usize;
                    if slot >= self.locals.len() {
                        self.locals.resize(slot + 1, None);
                    }
                    self.locals[slot] = Some(v);
                }
                TAction::Write { port, reg, e } => {
                    let v = self.expr(e);
                    self.write(*port, reg.0, v);
                }
                TAction::WriteArr {
                    port,
                    base,
                    len,
                    idx,
                    e,
                } => {
                    let idxn = self.expr(idx);
                    let bits = Self::idx_bits(*len);
                    let idxn = {
                        let m = self.nl.constant(idx.width().min(64), mask(bits.min(idx.width())));
                        self.nl.bin(bits, NlBin::And, idxn, m)
                    };
                    let v = self.expr(e);
                    // Selected-element conflict check.
                    let flags: Vec<_> = (0..self.log.len()).map(|i| self.check_flags(i)).collect();
                    let conflict = match port {
                        Port::P0 => self.mux_tree(1, idxn, bits, base.0 as usize, *len as usize, &mut |nl, i| {
                            let c = nl.bin(1, NlBin::Or, flags[i].0, flags[i].1);
                            nl.bin(1, NlBin::Or, c, flags[i].2)
                        }),
                        Port::P1 => self.mux_tree(1, idxn, bits, base.0 as usize, *len as usize, &mut |_nl, i| flags[i].2),
                    };
                    self.add_abort(conflict);
                    // Decoded per-element write enables.
                    let g = self.guard;
                    for el in 0..*len {
                        let i = base.0 as usize + el as usize;
                        let w = self.design.regs[i].width;
                        let sel = {
                            let en = self.nl.constant(bits, el as u64);
                            self.nl.bin(1, NlBin::Eq, idxn, en)
                        };
                        let gsel = self.nl.and1(g, sel);
                        let entry = self.log[i];
                        self.record_w(i, *port, gsel);
                        match port {
                            Port::P0 => {
                                self.log[i].d0 = self.nl.mux(w, gsel, v, entry.d0);
                            }
                            Port::P1 => {
                                self.log[i].d1 = self.nl.mux(w, gsel, v, entry.d1);
                            }
                        }
                    }
                }
                TAction::If { c, t, f } => {
                    let cn = self.expr(c);
                    let saved_guard = self.guard;
                    let saved_log = self.log.clone();
                    let saved_rflags = self.rflags.clone();
                    let saved_locals = self.locals.clone();

                    self.guard = self.nl.and1(saved_guard, cn);
                    self.actions(t);
                    let log_t = std::mem::replace(&mut self.log, saved_log);
                    let rflags_t = std::mem::replace(&mut self.rflags, saved_rflags);
                    let locals_t = std::mem::replace(&mut self.locals, saved_locals);

                    let ncn = self.nl.not1(cn);
                    self.guard = self.nl.and1(saved_guard, ncn);
                    self.actions(f);
                    self.guard = saved_guard;

                    // Merge the logs and locals of the two branches.
                    for (i, &a) in rflags_t.iter().enumerate() {
                        let b = self.rflags[i];
                        self.rflags[i] = (
                            self.nl.mux(1, cn, a.0, b.0),
                            self.nl.mux(1, cn, a.1, b.1),
                            self.nl.mux(1, cn, a.2, b.2),
                        );
                    }
                    for (i, &a) in log_t.iter().enumerate() {
                        let w = self.design.regs[i].width;
                        let b = self.log[i];
                        self.log[i] = WireLog {
                            r1: self.nl.mux(1, cn, a.r1, b.r1),
                            w0: self.nl.mux(1, cn, a.w0, b.w0),
                            w1: self.nl.mux(1, cn, a.w1, b.w1),
                            d0: self.nl.mux(w, cn, a.d0, b.d0),
                            d1: self.nl.mux(w, cn, a.d1, b.d1),
                        };
                    }
                    for (slot, tv) in locals_t.iter().enumerate() {
                        let cur = self.locals.get(slot).copied().flatten();
                        let merged = match (tv, cur) {
                            (Some(a), Some(b)) => {
                                let w = self.nl.nodes()[a.0 as usize].width();
                                Some(self.nl.mux(w, cn, *a, b))
                            }
                            (Some(a), None) => Some(*a),
                            (None, b) => b,
                        };
                        if slot >= self.locals.len() {
                            self.locals.resize(slot + 1, None);
                        }
                        self.locals[slot] = merged;
                    }
                }
                TAction::Abort => self.add_explicit_abort(),
                TAction::Named { body, .. } => self.actions(body),
            }
        }
    }
}

/// Statically-known conflict between two rules (for [`Scheme::Static`]).
fn static_conflict(a: &koika::analysis::RuleSummary, b: &koika::analysis::RuleSummary) -> bool {
    a.flags.iter().zip(&b.flags).any(|(fa, fb)| {
        let (aw, ar1) = (fa.may_write(), fa.r1.possible());
        let a_w0 = fa.w0.possible();
        let a_w1 = fa.w1.possible();
        let b_r0 = fb.r0.possible();
        let b_r1 = fb.r1.possible();
        let b_w0 = fb.w0.possible();
        let b_w1 = fb.w1.possible();
        (aw && b_r0)
            || (a_w1 && b_r1)
            || ((ar1 || a_w0 || a_w1) && b_w0)
            || (a_w1 && b_w1)
    })
}

/// Compiles a checked design into an RTL model.
///
/// # Errors
///
/// Returns [`RtlError`] if the design uses values wider than 64 bits.
pub fn compile(design: &TDesign, scheme: Scheme) -> Result<RtlModel, RtlError> {
    for r in design.regs.iter() {
        if r.width > 64 {
            return Err(RtlError::RegTooWide {
                reg: r.name.clone(),
                width: r.width,
            });
        }
    }
    let analysis = analyze(design, ScheduleAssumption::Declared);

    let mut nl = Netlist::new();
    for r in design.regs.iter() {
        nl.add_reg(r.name.clone(), r.width, r.init.to_u64());
    }

    // The initial cycle log: nothing read or written; data wires default to
    // the registers' current values (don't-care until a write enables them).
    let zero1 = nl.constant(1, 0);
    let mut cycle_log: Vec<WireLog> = (0..design.num_regs())
        .map(|i| {
            let q = nl.reg_q(i as u32);
            WireLog {
                r1: zero1,
                w0: zero1,
                w1: zero1,
                d0: q,
                d1: q,
            }
        })
        .collect();

    let mut fires = Vec::new();
    let mut fire_names = Vec::new();
    for (pos, &ri) in design.schedule.iter().enumerate() {
        let rule = &design.rules[ri];
        let true1 = nl.constant(1, 1);
        let rflags = vec![(zero1, zero1, zero1); design.num_regs()];
        let mut ctx = RuleCtx {
            nl: &mut nl,
            design,
            rule_name: &rule.name,
            scheme,
            log: cycle_log.clone(),
            rflags,
            locals: vec![None; rule.slot_widths.len()],
            guard: true1,
            abort: zero1,
            error: None,
        };
        ctx.actions(&rule.body);
        let abort = ctx.abort;
        let rule_log = ctx.log;
        if let Some(e) = ctx.error {
            return Err(e);
        }

        // will_fire: no abort, and (static scheme) no earlier conflicting
        // rule fired.
        let mut fire = nl.not1(abort);
        if scheme == Scheme::Static {
            for (j, &rj) in design.schedule[..pos].iter().enumerate() {
                if static_conflict(&analysis.rules[rj], &analysis.rules[ri]) {
                    let njf = nl.not1(fires[j]);
                    fire = nl.and1(fire, njf);
                }
            }
        }

        // Reconcile: the rule's log takes effect only if it fires.
        for i in 0..cycle_log.len() {
            let w = design.regs[i].width;
            let (old, new) = (cycle_log[i], rule_log[i]);
            cycle_log[i] = WireLog {
                r1: nl.mux(1, fire, new.r1, old.r1),
                w0: nl.mux(1, fire, new.w0, old.w0),
                w1: nl.mux(1, fire, new.w1, old.w1),
                d0: nl.mux(w, fire, new.d0, old.d0),
                d1: nl.mux(w, fire, new.d1, old.d1),
            };
        }
        fires.push(fire);
        fire_names.push(rule.name.clone());
    }

    // Register update: next = w1 ? d1 : w0 ? d0 : hold.
    for (i, &entry) in cycle_log.iter().enumerate() {
        let w = design.regs[i].width;
        let q = nl.reg_q(i as u32);
        let on_w0 = nl.mux(w, entry.w0, entry.d0, q);
        let next = nl.mux(w, entry.w1, entry.d1, on_w0);
        nl.set_next(i as u32, next);
    }

    // Dead-node elimination (as a real RTL toolchain would do), keeping the
    // fire wires alive for telemetry.
    let remap = nl.prune(&fires);
    let fires = fires
        .into_iter()
        .map(|f| remap[f.0 as usize].expect("fire wires are roots"))
        .collect();

    Ok(RtlModel {
        name: design.name.clone(),
        netlist: nl,
        fires,
        fire_names,
        sched_rules: design.schedule.clone(),
        scheme,
    })
}
