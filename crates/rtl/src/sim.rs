//! The cycle-based netlist simulator — our Verilator stand-in.
//!
//! Like Verilator on the structural Verilog that Kôika emits, this simulator
//! levelizes the circuit once (netlist creation order is already
//! topological) and then, **every cycle, evaluates every gate**: all rules'
//! circuits are computed and a-posteriori muxing discards the losers. This
//! is precisely the simulation overhead §2.3 of the paper attributes to
//! compiling for hardware and simulating sequentially, and the baseline
//! Cuttlesim is measured against in Fig. 1.
//!
//! The per-node dispatch cost is the same class as the Cuttlesim VM's
//! (a `match` over a flat instruction/node array), so the measured gap
//! between the two isolates the *algorithmic* difference — all-gates-every-
//! cycle versus sequential early-exit — rather than interpreter quality.

use crate::compile::RtlModel;
use crate::netlist::{NlBin, NlUn, Node};
use koika::bits::{word, Bits};
use koika::device::{RegAccess, SimBackend};
use koika::obs::{REC_COMMIT, REC_TRAP};
use koika::snapshot::{Snapshot, SnapshotError};
use koika::tir::RegId;
use std::sync::Arc;

/// A running RTL simulation. Clones share the compiled model and copy
/// only the register and wire state.
#[derive(Debug, Clone)]
pub struct RtlSim {
    model: Arc<RtlModel>,
    /// Current register values.
    regs: Vec<u64>,
    /// Per-node wire values, recomputed every cycle.
    vals: Vec<u64>,
    cycles: u64,
    fired: u64,
    fired_per_rule: Vec<u64>,
    /// The declaration-order index of each scheduled rule (a hand-built
    /// model without scheduling metadata falls back to the position).
    rules: Arc<[usize]>,
    /// The last cycle's record word per scheduled rule: committed, or
    /// failed for an unspecified reason.
    rec: Vec<u64>,
}

impl RtlSim {
    /// Creates a simulation with registers at their reset values.
    pub fn new(model: RtlModel) -> RtlSim {
        let regs: Vec<u64> = model.netlist.regs.iter().map(|r| r.init).collect();
        let vals = vec![0; model.netlist.len()];
        let nrules = model.fires.len();
        let rules = (0..nrules)
            .map(|i| model.sched_rules.get(i).copied().unwrap_or(i))
            .collect();
        RtlSim {
            model: Arc::new(model),
            regs,
            vals,
            cycles: 0,
            fired: 0,
            fired_per_rule: vec![0; nrules],
            rules,
            rec: vec![REC_COMMIT; nrules],
        }
    }

    /// The compiled model.
    pub fn model(&self) -> &RtlModel {
        &self.model
    }

    /// The design fingerprint stamped into (and checked against) snapshots.
    fn fingerprint(&self) -> u64 {
        koika::snapshot::design_fingerprint(
            &self.model.name,
            self.model.netlist.regs.iter().map(|r| (r.name.as_str(), r.width)),
        )
    }

    /// Per-scheduled-rule commit counts (schedule order; see
    /// [`RtlModel::fire_names`]).
    pub fn fired_per_rule(&self) -> &[u64] {
        &self.fired_per_rule
    }

    /// Evaluates the combinational fabric against the current register
    /// values (without latching) — the equivalent of settling the wires
    /// mid-cycle.
    pub fn settle(&mut self) {
        let nodes = self.model.netlist.nodes();
        for (i, node) in nodes.iter().enumerate() {
            self.vals[i] = match *node {
                Node::Const { v, .. } => v,
                Node::RegQ { reg, .. } => self.regs[reg as usize],
                Node::Un { w, op, a } => {
                    let va = self.vals[a.0 as usize];
                    let aw = nodes[a.0 as usize].width();
                    let raw = match op {
                        NlUn::Not => !va,
                        NlUn::Neg => va.wrapping_neg(),
                        NlUn::Sext => word::sext(aw, va),
                        NlUn::Slice { lo } => {
                            if lo >= 64 {
                                0
                            } else {
                                va >> lo
                            }
                        }
                        NlUn::Mask => va,
                    };
                    raw & word::mask(w)
                }
                Node::Bin { w, op, a, b } => {
                    let va = self.vals[a.0 as usize];
                    let vb = self.vals[b.0 as usize];
                    let aw = nodes[a.0 as usize].width();
                    let raw = match op {
                        NlBin::Add => va.wrapping_add(vb),
                        NlBin::Sub => va.wrapping_sub(vb),
                        NlBin::Mul => va.wrapping_mul(vb),
                        NlBin::And => va & vb,
                        NlBin::Or => va | vb,
                        NlBin::Xor => va ^ vb,
                        NlBin::Shl => {
                            if vb >= 64 {
                                0
                            } else {
                                va << vb
                            }
                        }
                        NlBin::Shr => {
                            if vb >= 64 {
                                0
                            } else {
                                va >> vb
                            }
                        }
                        NlBin::Sra => word::sra(aw, va, vb),
                        NlBin::Eq => (va == vb) as u64,
                        NlBin::Ult => (va < vb) as u64,
                        NlBin::Slt => word::slt(aw, va, vb),
                        NlBin::Concat => {
                            let bw = nodes[b.0 as usize].width();
                            (va << bw) | vb
                        }
                    };
                    raw & word::mask(w)
                }
                Node::Mux { c, t, f, .. } => {
                    if self.vals[c.0 as usize] != 0 {
                        self.vals[t.0 as usize]
                    } else {
                        self.vals[f.0 as usize]
                    }
                }
            };
        }
    }
}

impl RegAccess for RtlSim {
    fn get64(&self, reg: RegId) -> u64 {
        self.regs[reg.0 as usize]
    }

    fn set64(&mut self, reg: RegId, value: u64) {
        let w = self.model.netlist.regs[reg.0 as usize].width;
        self.regs[reg.0 as usize] = value & word::mask(w);
    }
}

impl SimBackend for RtlSim {
    fn cycle(&mut self) {
        self.settle();
        for (i, &fire) in self.model.fires.iter().enumerate() {
            // The netlist only exposes the final will-fire wire: abort and
            // conflict are indistinguishable here.
            self.rec[i] = if self.vals[fire.0 as usize] != 0 {
                self.fired += 1;
                self.fired_per_rule[i] += 1;
                REC_COMMIT
            } else {
                REC_TRAP
            };
        }
        for i in 0..self.regs.len() {
            if let Some(next) = self.model.netlist.regs[i].next {
                self.regs[i] = self.vals[next.0 as usize];
            }
        }
        self.cycles += 1;
    }

    fn last_record(&self) -> (&[usize], &[u64]) {
        (&self.rules, &self.rec)
    }

    fn reg_words(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(&self.regs);
    }

    fn cycle_count(&self) -> u64 {
        self.cycles
    }

    fn rules_fired(&self) -> u64 {
        self.fired
    }

    fn snapshot(&self) -> Snapshot {
        // Commit counters live in schedule order here; export them in
        // declaration order like the other backends so snapshots are
        // portable.
        let nrules = self.rules.iter().map(|&r| r + 1).max().unwrap_or(0);
        let mut decl = vec![0u64; nrules];
        for (&rule, &count) in self.rules.iter().zip(&self.fired_per_rule) {
            decl[rule] += count;
        }
        Snapshot {
            design: self.model.name.clone(),
            cycles: self.cycles,
            fired: self.fired,
            fingerprint: self.fingerprint(),
            fired_per_rule: decl,
            regs: self
                .model
                .netlist
                .regs
                .iter()
                .zip(&self.regs)
                .map(|(r, &v)| Bits::new(r.width, v))
                .collect(),
        }
    }

    fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        let widths: Vec<u32> = self.model.netlist.regs.iter().map(|r| r.width).collect();
        snap.check_shape(&self.model.name, &widths, self.fingerprint())?;
        for (i, v) in snap.regs.iter().enumerate() {
            self.regs[i] = v.low_u64();
        }
        self.cycles = snap.cycles;
        self.fired = snap.fired;
        for (slot, &rule) in self.fired_per_rule.iter_mut().zip(self.rules.iter()) {
            *slot = snap.fired_per_rule.get(rule).copied().unwrap_or(0);
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
    use crate::netlist::{NlBin, NlUn, Netlist};

    /// Evaluates a single-gate netlist and compares against `word` helpers.
    fn eval_bin(w: u32, op: NlBin, a: u64, b: u64) -> u64 {
        let mut nl = Netlist::new();
        let ra = nl.add_reg("a", w.min(64), a);
        let rb = nl.add_reg("b", w.min(64), b);
        let qa = nl.reg_q(ra);
        let qb = nl.reg_q(rb);
        let out = nl.bin(w, op, qa, qb);
        let r = nl.add_reg("out", w, 0);
        nl.set_next(r, out);
        let model = RtlModel {
            name: "t".into(),
            netlist: nl,
            fires: Vec::new(),
            fire_names: Vec::new(),
            sched_rules: Vec::new(),
            scheme: crate::Scheme::Dynamic,
        };
        let mut sim = RtlSim::new(model);
        sim.cycle();
        sim.get64(RegId(2))
    }

    #[test]
    fn gate_evaluation_matches_word_arithmetic() {
        for (a, b) in [(0u64, 0u64), (5, 3), (0xffff, 1), (0xdead_beef, 0x1234)] {
            let w = 32;
            let m = word::mask(w);
            let (a, b) = (a & m, b & m);
            assert_eq!(eval_bin(w, NlBin::Add, a, b), a.wrapping_add(b) & m);
            assert_eq!(eval_bin(w, NlBin::Sub, a, b), a.wrapping_sub(b) & m);
            assert_eq!(eval_bin(w, NlBin::Mul, a, b), a.wrapping_mul(b) & m);
            assert_eq!(eval_bin(w, NlBin::And, a, b), a & b);
            assert_eq!(eval_bin(w, NlBin::Or, a, b), a | b);
            assert_eq!(eval_bin(w, NlBin::Xor, a, b), a ^ b);
            assert_eq!(eval_bin(1, NlBin::Eq, a & 1, b & 1), ((a & 1) == (b & 1)) as u64);
            assert_eq!(eval_bin(1, NlBin::Ult, a & 1, b & 1), ((a & 1) < (b & 1)) as u64);
            assert_eq!(
                eval_bin(w, NlBin::Sra, a, b % 32),
                word::sra(w, a, b % 32)
            );
        }
    }

    #[test]
    fn unary_gates_match_word_arithmetic() {
        let mut nl = Netlist::new();
        let r = nl.add_reg("a", 8, 0x90);
        let q = nl.reg_q(r);
        let not = nl.un(8, NlUn::Not, q);
        let sext = nl.un(16, NlUn::Sext, q);
        let sext = nl.un(16, NlUn::Mask, sext);
        let slice = nl.un(4, NlUn::Slice { lo: 4 }, q);
        let slice = nl.un(4, NlUn::Mask, slice);
        for (i, node) in [not, sext, slice].into_iter().enumerate() {
            let out = nl.add_reg(format!("o{i}"), nl.nodes()[node.0 as usize].width(), 0);
            nl.set_next(out, node);
        }
        let model = RtlModel {
            name: "u".into(),
            netlist: nl,
            fires: Vec::new(),
            fire_names: Vec::new(),
            sched_rules: Vec::new(),
            scheme: crate::Scheme::Dynamic,
        };
        let mut sim = RtlSim::new(model);
        sim.cycle();
        assert_eq!(sim.get64(RegId(1)), 0x6f); // !0x90 & 0xff
        assert_eq!(sim.get64(RegId(2)), 0xff90); // sext8->16 of 0x90
        assert_eq!(sim.get64(RegId(3)), 0x9); // bits [7:4]
    }

    #[test]
    fn settle_does_not_latch() {
        let mut nl = Netlist::new();
        let r = nl.add_reg("n", 8, 7);
        let q = nl.reg_q(r);
        let one = nl.constant(8, 1);
        let next = nl.bin(8, NlBin::Add, q, one);
        nl.set_next(r, next);
        let model = RtlModel {
            name: "s".into(),
            netlist: nl,
            fires: Vec::new(),
            fire_names: Vec::new(),
            sched_rules: Vec::new(),
            scheme: crate::Scheme::Dynamic,
        };
        let mut sim = RtlSim::new(model);
        sim.settle();
        sim.settle();
        assert_eq!(sim.get64(RegId(0)), 7, "settling must not advance state");
        sim.cycle();
        assert_eq!(sim.get64(RegId(0)), 8);
    }

    #[test]
    fn clones_share_the_model_and_step_alike() {
        let mut nl = Netlist::new();
        let n = nl.add_reg("n", 8, 250);
        let acc = nl.add_reg("acc", 16, 0);
        let (qn, qacc) = (nl.reg_q(n), nl.reg_q(acc));
        let one = nl.constant(8, 1);
        let next_n = nl.bin(8, NlBin::Add, qn, one);
        let wide = nl.un(16, NlUn::Mask, qn);
        let next_acc = nl.bin(16, NlBin::Add, qacc, wide);
        nl.set_next(n, next_n);
        nl.set_next(acc, next_acc);
        let model = RtlModel {
            name: "c".into(),
            netlist: nl,
            fires: Vec::new(),
            fire_names: Vec::new(),
            sched_rules: Vec::new(),
            scheme: crate::Scheme::Dynamic,
        };
        let mut a = RtlSim::new(model);
        a.cycle();
        let mut b = a.clone();
        assert!(std::ptr::eq(a.model(), b.model()), "a clone shares the model");
        for _ in 0..10 {
            a.cycle();
            b.cycle();
            assert_eq!(a.get64(RegId(0)), b.get64(RegId(0)));
            assert_eq!(a.get64(RegId(1)), b.get64(RegId(1)));
        }
        assert_eq!(a.cycle_count(), 11);
        assert_eq!(a.get64(RegId(0)), 5, "n wraps at 8 bits");
    }
}
