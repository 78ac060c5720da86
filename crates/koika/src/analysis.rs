//! The static-analysis pass powering Cuttlesim's design-specific
//! optimizations (§3.3 of the paper).
//!
//! A straightforward abstract interpretation annotates each rule with a
//! conservative approximation of its rule log — per register, a tristate for
//! each of the four port operations — plus one boolean per register
//! indicating whether any operation on it might fail (cause a conflict)
//! within that rule. Combining per-rule logs in schedule order yields the
//! whole-cycle approximation (the "tribool version of Figure 5 from the
//! original Kôika paper" mentioned in the paper's footnote 1).
//!
//! Downstream consumers use the results to:
//!
//! * classify registers as *plain registers*, *wires*, or *EHRs*
//!   ([`RegClass`]);
//! * find *safe* registers, whose reads and writes can never fail, and for
//!   which Cuttlesim discards read-write sets entirely;
//! * restrict commits and rollbacks to each rule's *footprint*;
//! * detect same-rule read-after-write "Goldbergian contraptions" (§3.2),
//!   which the optimized simulator rejects (with a warning here).
//!
//! Register arrays are approximated per-symbol: an operation on any element
//! counts as an operation on all of them.

use crate::ast::Port;
use crate::tir::{SymId, TAction, TDesign, TExpr};
use std::fmt;

/// A three-valued "may/must" flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tri {
    /// The operation never happens on any path.
    No,
    /// The operation happens on some paths.
    Maybe,
    /// The operation happens on every path.
    Yes,
}

impl Tri {
    /// Join of two control-flow branches.
    pub fn join(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::No, Tri::No) => Tri::No,
            (Tri::Yes, Tri::Yes) => Tri::Yes,
            _ => Tri::Maybe,
        }
    }

    /// Sequencing: the flag after another occurrence with certainty `other`.
    pub fn or_seq(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::Yes, _) | (_, Tri::Yes) => Tri::Yes,
            (Tri::No, Tri::No) => Tri::No,
            _ => Tri::Maybe,
        }
    }

    /// True unless the flag is [`Tri::No`].
    pub fn possible(self) -> bool {
        self != Tri::No
    }

    /// Weakens a must-flag to a may-flag (used when a whole rule may abort).
    pub fn weaken(self) -> Tri {
        match self {
            Tri::Yes => Tri::Maybe,
            t => t,
        }
    }
}

/// Abstract per-register log entry: one [`Tri`] per port operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsFlags {
    /// Read at port 0.
    pub r0: Tri,
    /// Read at port 1.
    pub r1: Tri,
    /// Write at port 0.
    pub w0: Tri,
    /// Write at port 1.
    pub w1: Tri,
}

impl AbsFlags {
    /// The empty log entry.
    pub const EMPTY: AbsFlags = AbsFlags {
        r0: Tri::No,
        r1: Tri::No,
        w0: Tri::No,
        w1: Tri::No,
    };

    fn join(self, o: AbsFlags) -> AbsFlags {
        AbsFlags {
            r0: self.r0.join(o.r0),
            r1: self.r1.join(o.r1),
            w0: self.w0.join(o.w0),
            w1: self.w1.join(o.w1),
        }
    }

    fn union(self, o: AbsFlags) -> AbsFlags {
        AbsFlags {
            r0: self.r0.or_seq(o.r0),
            r1: self.r1.or_seq(o.r1),
            w0: self.w0.or_seq(o.w0),
            w1: self.w1.or_seq(o.w1),
        }
    }

    fn weaken(self) -> AbsFlags {
        AbsFlags {
            r0: self.r0.weaken(),
            r1: self.r1.weaken(),
            w0: self.w0.weaken(),
            w1: self.w1.weaken(),
        }
    }

    /// Any write possible.
    pub fn may_write(self) -> bool {
        self.w0.possible() || self.w1.possible()
    }

    /// Any operation that participates in commit/rollback bookkeeping
    /// (read at port 1, or either write).
    pub fn in_rw_footprint(self) -> bool {
        self.r1.possible() || self.may_write()
    }
}

/// How a register is used across the whole design (§3.3 "Minimize read-write
/// sets").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegClass {
    /// No rule touches the register (devices may still).
    Unused,
    /// Read and written only at port 0.
    Plain,
    /// Written at port 0 and read at port 1 (intra-cycle communication).
    Wire,
    /// Anything more complex ("ephemeral history register").
    Ehr,
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Unused => write!(f, "unused"),
            RegClass::Plain => write!(f, "plain register"),
            RegClass::Wire => write!(f, "wire"),
            RegClass::Ehr => write!(f, "EHR"),
        }
    }
}

/// Whether the analysis may assume the declared schedule order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleAssumption {
    /// Rules run in the declared schedule order (the normal case).
    #[default]
    Declared,
    /// Rules may run in any order and any subset may precede any rule —
    /// required when using `cycle_with_order` for scheduler randomization
    /// (paper case study 2).
    AnyOrder,
}

/// Per-rule analysis summary.
#[derive(Debug, Clone)]
pub struct RuleSummary {
    /// Abstract rule log, per symbol.
    pub flags: Vec<AbsFlags>,
    /// Per symbol: may an operation on it fail (conflict) inside this rule?
    pub may_fail_sym: Vec<bool>,
    /// Does the rule contain a reachable explicit abort?
    pub may_abort_explicit: bool,
    /// Symbols whose read-write sets must be committed / rolled back.
    pub footprint_rw: Vec<SymId>,
    /// Symbols whose data fields must be committed / rolled back.
    pub footprint_data: Vec<SymId>,
}

impl RuleSummary {
    /// May this rule fail at all (explicitly or through a conflict)?
    pub fn may_fail(&self) -> bool {
        self.may_abort_explicit || self.may_fail_sym.iter().any(|b| *b)
    }
}

/// The result of analyzing a design.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Per-rule summaries, indexed like `TDesign::rules`.
    pub rules: Vec<RuleSummary>,
    /// Whole-cycle abstract log, per symbol.
    pub cycle_flags: Vec<AbsFlags>,
    /// Per symbol: no operation on it anywhere can ever fail.
    pub safe_sym: Vec<bool>,
    /// Per-symbol usage classification.
    pub class: Vec<RegClass>,
    /// Human-readable warnings (Goldbergian contraptions etc.).
    pub warnings: Vec<String>,
    /// The assumption the analysis was run under.
    pub assumption: ScheduleAssumption,
}

struct RuleCtx<'a> {
    design: &'a TDesign,
    cycle: &'a [AbsFlags],
    rule: Vec<AbsFlags>,
    may_fail: Vec<bool>,
    may_abort: bool,
    warnings: Vec<String>,
    rule_name: &'a str,
}

impl RuleCtx<'_> {
    fn sym_of(&self, reg: crate::tir::RegId) -> usize {
        self.design.regs[reg.0 as usize].sym.0 as usize
    }

    fn op(&mut self, port: Port, is_write: bool, sym: usize) {
        let cyc = self.cycle[sym];
        let rl = self.rule[sym];
        let acc = cyc.union(rl);
        match (is_write, port) {
            (false, Port::P0) => {
                if acc.w0.possible() || acc.w1.possible() {
                    self.may_fail[sym] = true;
                }
                if rl.w0.possible() || rl.w1.possible() {
                    self.warnings.push(format!(
                        "rule {:?}: read0 of {:?} after a same-rule write (Goldbergian \
                         contraption); the optimized simulator treats this as a conflict",
                        self.rule_name, self.design.syms[sym].name
                    ));
                }
                self.rule[sym].r0 = self.rule[sym].r0.or_seq(Tri::Yes);
            }
            (false, Port::P1) => {
                if acc.w1.possible() {
                    self.may_fail[sym] = true;
                }
                if rl.w1.possible() {
                    self.warnings.push(format!(
                        "rule {:?}: read1 of {:?} after a same-rule write1 (Goldbergian \
                         contraption); the optimized simulator treats this as a conflict",
                        self.rule_name, self.design.syms[sym].name
                    ));
                }
                self.rule[sym].r1 = self.rule[sym].r1.or_seq(Tri::Yes);
            }
            (true, Port::P0) => {
                if acc.r1.possible() || acc.w0.possible() || acc.w1.possible() {
                    self.may_fail[sym] = true;
                }
                self.rule[sym].w0 = self.rule[sym].w0.or_seq(Tri::Yes);
            }
            (true, Port::P1) => {
                if acc.w1.possible() {
                    self.may_fail[sym] = true;
                }
                self.rule[sym].w1 = self.rule[sym].w1.or_seq(Tri::Yes);
            }
        }
    }

    fn expr(&mut self, e: &TExpr) {
        match e {
            TExpr::Const { .. } | TExpr::Var { .. } => {}
            TExpr::Read { port, reg, .. } => {
                let s = self.sym_of(*reg);
                self.op(*port, false, s);
            }
            TExpr::ReadArr {
                port, base, idx, ..
            } => {
                self.expr(idx);
                let s = self.sym_of(*base);
                self.op(*port, false, s);
            }
            TExpr::Un { a, .. } => self.expr(a),
            TExpr::Bin { a, b, .. } => {
                self.expr(a);
                self.expr(b);
            }
            TExpr::Select { c, t, f, .. } => {
                // Arms are read-free (checker-enforced), so order is moot.
                self.expr(c);
                self.expr(t);
                self.expr(f);
            }
        }
    }

    fn actions(&mut self, actions: &[TAction]) {
        for a in actions {
            match a {
                TAction::Let { e, .. } => self.expr(e),
                TAction::Write { port, reg, e } => {
                    self.expr(e);
                    let s = self.sym_of(*reg);
                    self.op(*port, true, s);
                }
                TAction::WriteArr {
                    port, base, idx, e, ..
                } => {
                    self.expr(idx);
                    self.expr(e);
                    let s = self.sym_of(*base);
                    self.op(*port, true, s);
                }
                TAction::If { c, t, f } => {
                    self.expr(c);
                    let saved_rule = self.rule.clone();
                    let saved_fail = self.may_fail.clone();
                    let saved_abort = self.may_abort;
                    self.actions(t);
                    let (rule_t, fail_t, abort_t) = (
                        std::mem::replace(&mut self.rule, saved_rule),
                        std::mem::replace(&mut self.may_fail, saved_fail),
                        std::mem::replace(&mut self.may_abort, saved_abort),
                    );
                    self.actions(f);
                    for (s, t) in self.rule.iter_mut().zip(rule_t) {
                        *s = s.join(t);
                    }
                    for (s, t) in self.may_fail.iter_mut().zip(fail_t) {
                        *s |= t;
                    }
                    self.may_abort |= abort_t;
                }
                TAction::Abort => self.may_abort = true,
                TAction::Named { body, .. } => self.actions(body),
            }
        }
    }
}

/// The join, over every rule run in isolation against an empty cycle log,
/// of the weakened flags it leaves: the cycle log a rule may see when any
/// subset of the rules may precede it.
fn any_order_cycle_log(design: &TDesign) -> Vec<AbsFlags> {
    let nsyms = design.syms.len();
    let isolated: Vec<Vec<AbsFlags>> = design
        .rules
        .iter()
        .map(|r| {
            let mut ctx = RuleCtx {
                design,
                cycle: &vec![AbsFlags::EMPTY; nsyms],
                rule: vec![AbsFlags::EMPTY; nsyms],
                may_fail: vec![false; nsyms],
                may_abort: false,
                warnings: Vec::new(),
                rule_name: &r.name,
            };
            ctx.actions(&r.body);
            ctx.rule
        })
        .collect();
    (0..nsyms)
        .map(|s| {
            let mut f = AbsFlags::EMPTY;
            for rf in &isolated {
                f = f.union(rf[s].weaken());
            }
            f
        })
        .collect()
}

/// Analyzes a design under the given schedule assumption.
pub fn analyze(design: &TDesign, assumption: ScheduleAssumption) -> Analysis {
    let nsyms = design.syms.len();
    let mut warnings = Vec::new();

    // Under AnyOrder, the abstract cycle log seen by every rule is the join
    // of "nothing ran before" and "anything may have run before". It is
    // needed only under AnyOrder or for a rule missing from the schedule,
    // so it is computed on first use.
    let mut any_order_cycle: Option<Vec<AbsFlags>> = None;

    let mut cycle = vec![AbsFlags::EMPTY; nsyms];
    let mut summaries: Vec<Option<RuleSummary>> = vec![None; design.rules.len()];

    let order: Vec<usize> = match assumption {
        ScheduleAssumption::Declared => design.schedule.clone(),
        ScheduleAssumption::AnyOrder => (0..design.rules.len()).collect(),
    };

    for &idx in &order {
        let rule = &design.rules[idx];
        let input = match assumption {
            ScheduleAssumption::Declared => cycle.clone(),
            ScheduleAssumption::AnyOrder => {
                any_order_cycle.get_or_insert_with(|| any_order_cycle_log(design)).clone()
            }
        };
        let mut ctx = RuleCtx {
            design,
            cycle: &input,
            rule: vec![AbsFlags::EMPTY; nsyms],
            may_fail: vec![false; nsyms],
            may_abort: false,
            warnings: Vec::new(),
            rule_name: &rule.name,
        };
        ctx.actions(&rule.body);
        warnings.append(&mut ctx.warnings);

        let may_fail_rule = ctx.may_abort || ctx.may_fail.iter().any(|b| *b);
        let commit_flags: Vec<AbsFlags> = ctx
            .rule
            .iter()
            .map(|f| if may_fail_rule { f.weaken() } else { *f })
            .collect();
        for (c, f) in cycle.iter_mut().zip(&commit_flags) {
            *c = c.union(*f);
        }

        let footprint_rw: Vec<SymId> = (0..nsyms)
            .filter(|&s| ctx.rule[s].in_rw_footprint())
            .map(|s| SymId(s as u32))
            .collect();
        let footprint_data: Vec<SymId> = (0..nsyms)
            .filter(|&s| ctx.rule[s].may_write())
            .map(|s| SymId(s as u32))
            .collect();

        summaries[idx] = Some(RuleSummary {
            flags: ctx.rule,
            may_fail_sym: ctx.may_fail,
            may_abort_explicit: ctx.may_abort,
            footprint_rw,
            footprint_data,
        });
    }

    // Rules absent from the schedule still get a summary (for
    // `cycle_with_order`), computed against the any-order cycle log.
    for (idx, slot) in summaries.iter_mut().enumerate() {
        if slot.is_none() {
            let rule = &design.rules[idx];
            let mut ctx = RuleCtx {
                design,
                cycle: any_order_cycle.get_or_insert_with(|| any_order_cycle_log(design)),
                rule: vec![AbsFlags::EMPTY; nsyms],
                may_fail: vec![false; nsyms],
                may_abort: false,
                warnings: Vec::new(),
                rule_name: &rule.name,
            };
            ctx.actions(&rule.body);
            warnings.append(&mut ctx.warnings);
            let footprint_rw = (0..nsyms)
                .filter(|&s| ctx.rule[s].in_rw_footprint())
                .map(|s| SymId(s as u32))
                .collect();
            let footprint_data = (0..nsyms)
                .filter(|&s| ctx.rule[s].may_write())
                .map(|s| SymId(s as u32))
                .collect();
            *slot = Some(RuleSummary {
                flags: ctx.rule,
                may_fail_sym: ctx.may_fail,
                may_abort_explicit: ctx.may_abort,
                footprint_rw,
                footprint_data,
            });
        }
    }
    let rules: Vec<RuleSummary> = summaries.into_iter().map(Option::unwrap).collect();

    let safe_sym: Vec<bool> = (0..nsyms)
        .map(|s| rules.iter().all(|r| !r.may_fail_sym[s]))
        .collect();

    let class: Vec<RegClass> = (0..nsyms)
        .map(|s| {
            let mut all = AbsFlags::EMPTY;
            for r in &rules {
                all = all.union(r.flags[s]);
            }
            let (r0, r1, w0, w1) = (
                all.r0.possible(),
                all.r1.possible(),
                all.w0.possible(),
                all.w1.possible(),
            );
            if !(r0 || r1 || w0 || w1) {
                RegClass::Unused
            } else if !r1 && !w1 {
                RegClass::Plain
            } else if !r0 && !w1 {
                RegClass::Wire
            } else {
                RegClass::Ehr
            }
        })
        .collect();

    Analysis {
        rules,
        cycle_flags: cycle,
        safe_sym,
        class,
        warnings,
        assumption,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;
    use crate::check::check;
    use crate::design::DesignBuilder;

    fn analyze_design(b: DesignBuilder) -> (crate::tir::TDesign, Analysis) {
        let td = check(&b.build()).unwrap();
        let a = analyze(&td, ScheduleAssumption::Declared);
        (td, a)
    }

    #[test]
    fn counter_register_is_safe_and_plain() {
        let mut b = DesignBuilder::new("c");
        b.reg("n", 8, 0u64);
        b.rule("inc", vec![wr0("n", rd0("n").add(k(8, 1)))]);
        let (_, a) = analyze_design(b);
        assert_eq!(a.class, vec![RegClass::Plain]);
        assert_eq!(a.safe_sym, vec![true]);
        assert!(!a.rules[0].may_fail());
        assert!(a.warnings.is_empty());
    }

    #[test]
    fn forwarding_wire_classification() {
        let mut b = DesignBuilder::new("f");
        b.reg("w", 8, 0u64);
        b.reg("sink", 8, 0u64);
        b.rule("produce", vec![wr0("w", k(8, 1))]);
        b.rule("consume", vec![wr0("sink", rd1("w"))]);
        b.schedule(["produce", "consume"]);
        let (td, a) = analyze_design(b);
        let w = td.regs[td.reg_id("w").0 as usize].sym.0 as usize;
        assert_eq!(a.class[w], RegClass::Wire);
        // produce never fails; consume's rd1 can't fail (no w1 anywhere).
        assert!(a.safe_sym[w]);
    }

    #[test]
    fn conflicting_writes_unsafe() {
        let mut b = DesignBuilder::new("cf");
        b.reg("r", 8, 0u64);
        b.rule("w1", vec![wr0("r", k(8, 1))]);
        b.rule("w2", vec![wr0("r", k(8, 2))]);
        b.schedule(["w1", "w2"]);
        let (_, a) = analyze_design(b);
        assert!(!a.safe_sym[0]);
        assert!(!a.rules[0].may_fail(), "first writer cannot fail");
        assert!(a.rules[1].may_fail(), "second writer conflicts");
    }

    #[test]
    fn goldbergian_contraption_warns() {
        let mut b = DesignBuilder::new("g");
        b.reg("r", 8, 0u64);
        b.reg("o", 8, 0u64);
        b.rule("rl", vec![wr0("r", k(8, 1)), wr0("o", rd0("r"))]);
        let (_, a) = analyze_design(b);
        assert_eq!(a.warnings.len(), 1);
        assert!(a.warnings[0].contains("Goldbergian"));
    }

    #[test]
    fn footprints_are_minimal() {
        let mut b = DesignBuilder::new("fp");
        b.reg("a", 8, 0u64);
        b.reg("b", 8, 0u64);
        b.reg("c", 8, 0u64);
        b.rule("r", vec![wr0("a", rd0("b"))]);
        let (_, a) = analyze_design(b);
        assert_eq!(a.rules[0].footprint_rw, vec![SymId(0)]);
        assert_eq!(a.rules[0].footprint_data, vec![SymId(0)]);
    }

    #[test]
    fn branch_join_produces_maybe() {
        let mut b = DesignBuilder::new("br");
        b.reg("cond", 1, 0u64);
        b.reg("r", 8, 0u64);
        b.rule(
            "rl",
            vec![when(rd0("cond").eq(k(1, 1)), vec![wr0("r", k(8, 1))])],
        );
        let (td, a) = analyze_design(b);
        let r = td.regs[td.reg_id("r").0 as usize].sym.0 as usize;
        assert_eq!(a.rules[0].flags[r].w0, Tri::Maybe);
        assert_eq!(a.cycle_flags[r].w0, Tri::Maybe);
    }

    #[test]
    fn guarded_rule_weakens_commit_flags() {
        let mut b = DesignBuilder::new("gw");
        b.reg("go", 1, 0u64);
        b.reg("r", 8, 0u64);
        b.rule("rl", vec![guard(rd0("go").eq(k(1, 1))), wr0("r", k(8, 1))]);
        let (td, a) = analyze_design(b);
        let r = td.regs[td.reg_id("r").0 as usize].sym.0 as usize;
        assert_eq!(
            a.rules[0].flags[r].w0,
            Tri::Yes,
            "relative to a completing execution of the rule, the write is unconditional"
        );
        assert_eq!(
            a.cycle_flags[r].w0,
            Tri::Maybe,
            "but the rule may abort, so the cycle-level flag is weakened"
        );
        assert!(a.rules[0].may_abort_explicit);
    }

    #[test]
    fn any_order_is_more_conservative() {
        // Under the declared schedule "produce; consume", producing wr0 before
        // consuming rd1 can never fail. Under AnyOrder, consume might run
        // first and a *subsequent* produce-write0 would conflict with its r1.
        let mut b = DesignBuilder::new("ao");
        b.reg("w", 8, 0u64);
        b.reg("sink", 8, 0u64);
        b.rule("produce", vec![wr0("w", k(8, 1))]);
        b.rule("consume", vec![wr0("sink", rd1("w"))]);
        b.schedule(["produce", "consume"]);
        let td = check(&{
            let mut bb = DesignBuilder::new("ao");
            bb.reg("w", 8, 0u64);
            bb.reg("sink", 8, 0u64);
            bb.rule("produce", vec![wr0("w", k(8, 1))]);
            bb.rule("consume", vec![wr0("sink", rd1("w"))]);
            bb.schedule(["produce", "consume"]);
            bb.build()
        })
        .unwrap();
        let decl = analyze(&td, ScheduleAssumption::Declared);
        let any = analyze(&td, ScheduleAssumption::AnyOrder);
        let w = 0usize;
        assert!(decl.safe_sym[w]);
        assert!(!any.safe_sym[w]);
    }

    #[test]
    fn array_ops_touch_whole_symbol() {
        let mut b = DesignBuilder::new("arr");
        b.array("t", 8, 4, 0u64);
        b.reg("i", 2, 0u64);
        b.rule("rl", vec![wr0a("t", rd0("i"), k(8, 1))]);
        let (_, a) = analyze_design(b);
        assert_eq!(a.rules[0].footprint_data, vec![SymId(0)]);
        assert_eq!(a.class[0], RegClass::Plain);
    }
}
