//! The Cuttlesim compiler: typed Kôika rules → VM bytecode.
//!
//! This is where the paper's optimization ladder becomes concrete:
//!
//! * the chosen [`OptLevel`] selects the transactional
//!   behavior baked into each read/write instruction and each rule's commit
//!   and rollback plans;
//! * at [`OptLevel::DesignSpecific`], the
//!   static analysis of [`koika::analysis`] drives instruction selection:
//!   accesses to *safe* registers compile to unchecked `*Fast` instructions,
//!   commits and rollbacks are restricted to each rule's footprint (falling
//!   back to whole-log copies for rules that touch most registers), aborts
//!   that cannot follow a write compile to rollback-free
//!   [`Insn::AbortClean`], and port-0 reads are no longer recorded in
//!   read-write sets;
//! * with [`CompileOptions::coverage`] enabled, a counter-bump instruction is
//!   inserted before every statement, giving Gcov-style line counts on the
//!   running model (the paper's case studies 3 and 4).

use crate::insn::{FusedBin, Insn};
use crate::level::{LevelCfg, OptLevel};
use crate::pretty;
use koika::analysis::{analyze, Analysis, ScheduleAssumption};
use koika::ast::{BinOp, Port, UnOp};
use koika::bits::word;
use koika::tir::{TAction, TDesign, TExpr};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// How much of the logs a rule's commit (and rollback) must copy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CopyPlan {
    /// Copy whole log arrays (a pair of `memcpy`s).
    Full,
    /// Copy only the rule's footprint (§3.3).
    Footprint {
        /// Flat register indices whose read-write sets to copy.
        rw: Vec<u32>,
        /// Flat register indices whose data fields to copy.
        data: Vec<u32>,
    },
}

/// A compiled rule.
#[derive(Debug, Clone, Hash)]
pub struct RuleCode {
    /// Rule name (diagnostics, coverage).
    pub name: String,
    /// The instruction stream.
    pub code: Vec<Insn>,
    /// Number of local-variable slots.
    pub nlocals: u16,
    /// Commit plan (successful rules).
    pub commit: CopyPlan,
    /// Rollback plan (failing rules, at reset-on-failure levels).
    pub rollback: CopyPlan,
}

/// One coverage counter's identity: which rule and which statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CovPoint {
    /// Rule name.
    pub rule: String,
    /// Nesting depth of the statement (for indented reports).
    pub depth: u32,
    /// Statement text (paper-style C++ rendering) or a user label.
    pub label: String,
}

/// Options controlling compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Optimization level (defaults to the maximum).
    pub level: OptLevel,
    /// Schedule assumption for the static analysis. Use
    /// [`ScheduleAssumption::AnyOrder`] if you intend to run rules in
    /// non-schedule order (scheduler randomization, case study 2).
    pub assumption: ScheduleAssumption,
    /// Insert per-statement coverage counters (Gcov-style).
    pub coverage: bool,
    /// Run the expression-level optimizer (common-subexpression elimination
    /// and peephole operand fusion). On by default; turning it off is
    /// useful for debugging and for differential testing of the optimizer
    /// itself.
    pub optimize: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            level: OptLevel::max(),
            assumption: ScheduleAssumption::Declared,
            coverage: false,
            optimize: true,
        }
    }
}

/// An error preventing compilation to the fast VM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A register is wider than the VM's 64-bit fast path.
    RegTooWide {
        /// Register name.
        reg: String,
        /// Its width.
        width: u32,
    },
    /// An intermediate expression is wider than 64 bits.
    ExprTooWide {
        /// The rule containing the expression.
        rule: String,
        /// The expression's width.
        width: u32,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::RegTooWide { reg, width } => write!(
                f,
                "register {reg:?} is {width} bits wide; the Cuttlesim VM supports at most 64 \
                 (use the reference interpreter for wider designs)"
            ),
            CompileError::ExprTooWide { rule, width } => write!(
                f,
                "rule {rule:?} contains a {width}-bit intermediate value; the Cuttlesim VM \
                 supports at most 64 bits"
            ),
        }
    }
}

impl Error for CompileError {}

/// A compiled design, ready to instantiate [`crate::Sim`]s.
#[derive(Debug, Clone)]
pub struct Program {
    /// The source design.
    pub design: TDesign,
    /// Level the program was compiled at.
    pub level: OptLevel,
    /// The level's feature flags.
    pub cfg: LevelCfg,
    /// The schedule assumption used by the analysis.
    pub assumption: ScheduleAssumption,
    /// Compiled rules (same order as `design.rules`).
    pub rules: Arc<Vec<RuleCode>>,
    /// Schedule as rule indices.
    pub schedule: Vec<usize>,
    /// Initial register values (u64 fast path).
    pub init: Vec<u64>,
    /// Register widths.
    pub widths: Vec<u32>,
    /// Coverage counter map (empty unless compiled with coverage).
    pub cov: Vec<CovPoint>,
    /// Analysis warnings (e.g. Goldbergian contraptions, whose behavior
    /// differs from the reference semantics at accumulated-log levels).
    pub warnings: Vec<String>,
    /// The analysis results (register classes, safe registers, ...).
    pub analysis: Arc<Analysis>,
}

/// Fraction of the register file above which footprint copies degrade to
/// whole-log `memcpy`s (the paper: "if a rule touches most of the registers
/// in a design, Cuttlesim reverts to copying whole logs"). Native rule
/// bodies at the design-specific level no longer consult the resulting
/// [`CopyPlan`]s: they copy each rule's exact footprint, dynamic array
/// indices included (see `native::emit_rule_fn`).
const FOOTPRINT_MEMCPY_THRESHOLD: f64 = 0.5;

struct RuleCompiler<'a> {
    design: &'a TDesign,
    analysis: &'a Analysis,
    cfg: LevelCfg,
    coverage: bool,
    rule_name: &'a str,
    code: Vec<Insn>,
    cov: Vec<CovPoint>,
    cov_base: u32,
    log_dirty: bool,
    error: Option<CompileError>,
    /// The rule's CSE candidates and the temps currently holding them.
    cse: Cse,
    /// Next free local slot (source locals first, then CSE temps).
    next_slot: u16,
    /// Slots assigned so far (for branch-join cache invalidation).
    assigned: Vec<u16>,
}

/// A multiplicative hasher for the compiler's small integer keys (the
/// default SipHash dominates the cost of hashing a `Key` or an address).
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(b as u64));
    }
    fn write_u32(&mut self, x: u32) {
        self.add(x as u64);
    }
    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }
    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }
    fn finish(&self) -> u64 {
        // The product's entropy sits in its high bits; rotate it down to
        // where the table takes its bucket index.
        self.0.rotate_left(26)
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A read-free expression node, with its children replaced by their ids:
/// two nodes get the same id exactly when they are structurally equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Const { w: u32, v: u64 },
    Var { w: u32, slot: u16 },
    Un { w: u32, op: UnOp, a: u32 },
    Bin { w: u32, op: BinOp, a: u32, b: u32 },
    Select { w: u32, c: u32, t: u32, f: u32 },
}

/// One bottom-up pass over a rule body that interns every read-free
/// subexpression, counts the occurrences of each, and records the local
/// slots each one reads (as a sorted range of the shared `slots` arena).
#[derive(Default)]
struct Interner<'e> {
    ids: FxMap<Key, u32>,
    /// Per id: occurrences in the rule body (constants and variables are
    /// never counted, as they cost nothing to recompute).
    count: Vec<u32>,
    /// Per id: the `(start, len)` range of `slots` it reads.
    reads: Vec<(u32, u32)>,
    slots: Vec<u16>,
    /// Every counted node and its id.
    nodes: Vec<(&'e TExpr, u32)>,
}

impl<'e> Interner<'e> {
    fn actions(&mut self, actions: &'e [TAction]) {
        for a in actions {
            match a {
                TAction::Let { e, .. } | TAction::Write { e, .. } => {
                    self.expr(e);
                }
                TAction::WriteArr { idx, e, .. } => {
                    self.expr(idx);
                    self.expr(e);
                }
                TAction::If { c, t, f } => {
                    self.expr(c);
                    self.actions(t);
                    self.actions(f);
                }
                TAction::Abort => {}
                TAction::Named { body, .. } => self.actions(body),
            }
        }
    }

    /// Interns `e` and its subexpressions; `None` if `e` reads a register.
    fn expr(&mut self, e: &'e TExpr) -> Option<u32> {
        let key = match e {
            // A wider constant fails compilation as soon as it is emitted,
            // so no expression containing one is ever reused.
            TExpr::Const { w, v } if *w <= 64 => Key::Const {
                w: *w,
                v: v.to_u64(),
            },
            TExpr::Const { .. } | TExpr::Read { .. } => return None,
            TExpr::Var { w, slot } => Key::Var { w: *w, slot: *slot },
            TExpr::ReadArr { idx, .. } => {
                self.expr(idx);
                return None;
            }
            TExpr::Un { w, op, a } => Key::Un {
                w: *w,
                op: *op,
                a: self.expr(a)?,
            },
            TExpr::Bin { w, op, a, b } => {
                let (a, b) = (self.expr(a), self.expr(b));
                Key::Bin {
                    w: *w,
                    op: *op,
                    a: a?,
                    b: b?,
                }
            }
            TExpr::Select { w, c, t, f } => {
                let (c, t, f) = (self.expr(c), self.expr(t), self.expr(f));
                Key::Select {
                    w: *w,
                    c: c?,
                    t: t?,
                    f: f?,
                }
            }
        };
        let counted = !matches!(key, Key::Const { .. } | Key::Var { .. });
        let Interner {
            ids,
            count,
            reads,
            slots,
            nodes,
        } = self;
        let id = *ids.entry(key).or_insert_with_key(|key| {
            let r = |id: u32| reads[id as usize];
            let read = match *key {
                Key::Const { .. } => (0, 0),
                Key::Var { slot, .. } => {
                    slots.push(slot);
                    (slots.len() as u32 - 1, 1)
                }
                Key::Un { a, .. } => r(a),
                Key::Bin { a, b, .. } => union(slots, r(a), r(b)),
                Key::Select { c, t, f, .. } => {
                    let ct = union(slots, r(c), r(t));
                    union(slots, ct, r(f))
                }
            };
            count.push(0);
            reads.push(read);
            count.len() as u32 - 1
        });
        if counted {
            count[id as usize] += 1;
            nodes.push((e, id));
        }
        Some(id)
    }
}

/// The union of two sorted ranges of the `slots` arena, as a range.
fn union(slots: &mut Vec<u16>, ra: (u32, u32), rb: (u32, u32)) -> (u32, u32) {
    if rb.1 == 0 || ra == rb {
        return ra;
    }
    if ra.1 == 0 {
        return rb;
    }
    let start = slots.len();
    let (mut i, mut j) = (ra.0 as usize, rb.0 as usize);
    let (ie, je) = (i + ra.1 as usize, j + rb.1 as usize);
    while i < ie && j < je {
        let (x, y) = (slots[i], slots[j]);
        slots.push(x.min(y));
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
    slots.extend_from_within(i..ie);
    slots.extend_from_within(j..je);
    (start as u32, (slots.len() - start) as u32)
}

/// Common-subexpression elimination state for one rule: the read-free
/// subexpressions that occur at least twice (the candidates, numbered
/// densely), and which CSE temp currently holds each one's value.
#[derive(Default)]
struct Cse {
    /// Candidate index of each candidate node, by address.
    at: FxMap<*const TExpr, u32>,
    /// Per candidate: the temp holding its value, if any.
    temp: Vec<Option<u16>>,
    /// Undo log of `temp` changes, `(candidate, previous temp)`: a branch's
    /// temps are forgotten at the join by unwinding it.
    trail: Vec<(u32, Option<u16>)>,
    /// Candidates reading each local slot.
    readers: Vec<Vec<u32>>,
}

impl Cse {
    /// Finds the candidates of a rule with `nslots` local slots.
    fn new(body: &[TAction], nslots: usize) -> Cse {
        let mut int = Interner::default();
        int.actions(body);
        let mut cand = vec![None; int.count.len()];
        let mut ncand = 0;
        let mut readers = vec![Vec::new(); nslots];
        for (id, &n) in int.count.iter().enumerate() {
            if n >= 2 {
                let (s, len) = int.reads[id];
                for &slot in &int.slots[s as usize..(s + len) as usize] {
                    readers[slot as usize].push(ncand);
                }
                cand[id] = Some(ncand);
                ncand += 1;
            }
        }
        let at = int
            .nodes
            .iter()
            .filter_map(|&(e, id)| Some((e as *const TExpr, cand[id as usize]?)))
            .collect();
        Cse {
            at,
            temp: vec![None; ncand as usize],
            trail: Vec::new(),
            readers,
        }
    }

    fn set_temp(&mut self, c: u32, t: u16) {
        self.trail.push((c, self.temp[c as usize]));
        self.temp[c as usize] = Some(t);
    }

    /// Forgets every temp whose expression reads `slot`.
    fn invalidate(&mut self, slot: u16) {
        for &c in self.readers.get(slot as usize).into_iter().flatten() {
            if let Some(t) = self.temp[c as usize].take() {
                self.trail.push((c, Some(t)));
            }
        }
    }

    /// Restores the temps as they were when the trail was `mark` long.
    fn undo(&mut self, mark: usize) {
        for (c, t) in self.trail.drain(mark..).rev() {
            self.temp[c as usize] = t;
        }
    }
}

impl RuleCompiler<'_> {
    fn fail(&mut self, e: CompileError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    fn check_width(&mut self, w: u32) -> bool {
        if w > 64 {
            self.fail(CompileError::ExprTooWide {
                rule: self.rule_name.to_string(),
                width: w,
            });
            false
        } else {
            true
        }
    }

    fn sym_of(&self, reg: koika::tir::RegId) -> usize {
        self.design.regs[reg.0 as usize].sym.0 as usize
    }

    fn is_fast(&self, sym: usize) -> bool {
        self.cfg.design_specific && self.analysis.safe_sym[sym]
    }

    fn clean(&self) -> bool {
        self.cfg.design_specific && !self.log_dirty
    }

    /// Emits a coverage counter; `label` is only built under coverage.
    fn emit_cov(&mut self, depth: u32, label: impl FnOnce() -> String) {
        if self.coverage {
            let id = self.cov_base + self.cov.len() as u32;
            self.cov.push(CovPoint {
                rule: self.rule_name.to_string(),
                depth,
                label: label(),
            });
            self.code.push(Insn::Cov(id));
        }
    }

    /// Emits `e`, reusing or creating a CSE temp when profitable.
    fn emit_expr(&mut self, e: &TExpr) {
        let cand = self.cse.at.get(&(e as *const TExpr)).copied();
        if let Some(t) = cand.and_then(|c| self.cse.temp[c as usize]) {
            self.code.push(Insn::Local(t));
            return;
        }
        self.emit_expr_raw(e);
        if let (Some(c), None) = (cand, &self.error) {
            let t = self.next_slot;
            self.next_slot += 1;
            self.code.push(Insn::SetLocal(t));
            self.code.push(Insn::Local(t));
            self.cse.set_temp(c, t);
        }
    }

    fn emit_expr_raw(&mut self, e: &TExpr) {
        if !self.check_width(e.width()) {
            return;
        }
        match e {
            TExpr::Const { v, .. } => self.code.push(Insn::Const(v.to_u64())),
            TExpr::Var { slot, .. } => self.code.push(Insn::Local(*slot)),
            TExpr::Read { port, reg, .. } => {
                let (sym, reg) = (self.sym_of(*reg), reg.0);
                let insn = match (port, self.is_fast(sym)) {
                    (Port::P0, true) => Insn::Rd0Fast { reg },
                    (Port::P1, true) => Insn::Rd1Fast { reg },
                    (Port::P0, false) => Insn::Rd0 {
                        reg,
                        clean: self.clean(),
                    },
                    (Port::P1, false) => {
                        let insn = Insn::Rd1 {
                            reg,
                            clean: self.clean(),
                        };
                        // A checked port-1 read records `r1` in the
                        // accumulated log, so later failures must roll back.
                        self.log_dirty = true;
                        insn
                    }
                };
                self.code.push(insn);
            }
            TExpr::ReadArr {
                port,
                base,
                len,
                idx,
                ..
            } => {
                self.emit_expr(idx);
                let (sym, base, mask) = (self.sym_of(*base), base.0, len - 1);
                let insn = match (port, self.is_fast(sym)) {
                    (Port::P0, true) => Insn::Rd0ArrFast { base, mask },
                    (Port::P1, true) => Insn::Rd1ArrFast { base, mask },
                    (Port::P0, false) => Insn::Rd0Arr {
                        base,
                        mask,
                        clean: self.clean(),
                    },
                    (Port::P1, false) => {
                        let insn = Insn::Rd1Arr {
                            base,
                            mask,
                            clean: self.clean(),
                        };
                        // Records `r1`: see the scalar case.
                        self.log_dirty = true;
                        insn
                    }
                };
                self.code.push(insn);
            }
            TExpr::Un { op, a, w } => {
                self.emit_expr(a);
                let mask = word::mask(*w);
                match op {
                    UnOp::Not => self.code.push(Insn::Not { mask }),
                    UnOp::Neg => self.code.push(Insn::Neg { mask }),
                    UnOp::Zext(_) => {
                        if *w < a.width() {
                            self.code.push(Insn::Mask { mask });
                        }
                        // Widening zero-extension of an already-masked value
                        // is a no-op.
                    }
                    UnOp::Sext(_) => {
                        if *w > a.width() {
                            self.code.push(Insn::Sext {
                                from: a.width(),
                                mask,
                            });
                        }
                    }
                    UnOp::Slice { lo, width } => {
                        let mask = word::mask(*width);
                        if *lo >= 64 {
                            self.code.push(Insn::Mask { mask: 0 });
                        } else if *lo == 0 && *width >= a.width() {
                            // Whole-value slice: no-op.
                        } else {
                            self.code.push(Insn::Slice { lo: *lo, mask });
                        }
                    }
                }
            }
            TExpr::Bin { op, a, b, w } => {
                self.emit_expr(a);
                self.emit_expr(b);
                let mask = word::mask(*w);
                let insn = match op {
                    BinOp::Add => Insn::Add { mask },
                    BinOp::Sub => Insn::Sub { mask },
                    BinOp::Mul => Insn::Mul { mask },
                    BinOp::And => Insn::And,
                    BinOp::Or => Insn::Or,
                    BinOp::Xor => Insn::Xor,
                    BinOp::Shl => Insn::Shl { mask },
                    BinOp::Shr => Insn::Shr,
                    BinOp::Sra => Insn::Sra { width: a.width() },
                    BinOp::Eq => Insn::Eq,
                    BinOp::Ne => Insn::Ne,
                    BinOp::Ult => Insn::Ult,
                    BinOp::Ule => Insn::Ule,
                    BinOp::Slt => Insn::Slt { width: a.width() },
                    BinOp::Sle => Insn::Sle { width: a.width() },
                    BinOp::Concat => Insn::ConcatShift {
                        low_width: b.width(),
                        mask,
                    },
                };
                self.code.push(insn);
            }
            TExpr::Select { c, t, f, .. } => {
                self.emit_expr(c);
                self.emit_expr(t);
                self.emit_expr(f);
                self.code.push(Insn::Select);
            }
        }
    }

    fn emit_write(&mut self, port: Port, reg: koika::tir::RegId) {
        let (sym, reg) = (self.sym_of(reg), reg.0);
        let insn = match (port, self.is_fast(sym)) {
            (Port::P0, true) => Insn::Wr0Fast { reg },
            (Port::P1, true) => Insn::Wr1Fast { reg },
            (Port::P0, false) => Insn::Wr0 {
                reg,
                clean: self.clean(),
            },
            (Port::P1, false) => Insn::Wr1 {
                reg,
                clean: self.clean(),
            },
        };
        self.code.push(insn);
        self.log_dirty = true;
    }

    fn emit_actions(&mut self, actions: &[TAction], depth: u32) {
        for a in actions {
            if self.error.is_some() {
                return;
            }
            match a {
                TAction::Named { label, body } => {
                    self.emit_cov(depth, || label.clone());
                    self.emit_actions(body, depth + 1);
                    continue;
                }
                _ => {
                    let design = self.design;
                    self.emit_cov(depth, || pretty::stmt_head(design, a));
                }
            }
            match a {
                TAction::Let { slot, e } => {
                    self.emit_expr(e);
                    self.code.push(Insn::SetLocal(*slot));
                    // Cached expressions mentioning this slot are now stale.
                    self.cse.invalidate(*slot);
                    self.assigned.push(*slot);
                }
                TAction::Write { port, reg, e } => {
                    self.emit_expr(e);
                    self.emit_write(*port, *reg);
                }
                TAction::WriteArr {
                    port,
                    base,
                    len,
                    idx,
                    e,
                } => {
                    self.emit_expr(idx);
                    self.emit_expr(e);
                    let (sym, base, mask) = (self.sym_of(*base), base.0, len - 1);
                    let insn = match (port, self.is_fast(sym)) {
                        (Port::P0, true) => Insn::Wr0ArrFast { base, mask },
                        (Port::P1, true) => Insn::Wr1ArrFast { base, mask },
                        (Port::P0, false) => Insn::Wr0Arr {
                            base,
                            mask,
                            clean: self.clean(),
                        },
                        (Port::P1, false) => Insn::Wr1Arr {
                            base,
                            mask,
                            clean: self.clean(),
                        },
                    };
                    self.code.push(insn);
                    self.log_dirty = true;
                }
                TAction::If { c, t, f } => {
                    self.emit_expr(c);
                    let jz_at = self.code.len();
                    self.code.push(Insn::Jz(u32::MAX));
                    // CSE temps created inside a branch are only valid on
                    // that path: restore the cache at each join. Entries
                    // from enclosing scopes stay valid (their temps were
                    // computed before the branch).
                    let cse_mark = self.cse.trail.len();
                    let assigned_mark = self.assigned.len();
                    let dirty_before = self.log_dirty;
                    self.emit_actions(t, depth + 1);
                    self.cse.undo(cse_mark);
                    let dirty_then = self.log_dirty;
                    self.log_dirty = dirty_before;
                    if f.is_empty() {
                        let target = self.code.len() as u32;
                        self.code[jz_at] = Insn::Jz(target);
                    } else {
                        let jmp_at = self.code.len();
                        self.code.push(Insn::Jmp(u32::MAX));
                        let else_target = self.code.len() as u32;
                        self.code[jz_at] = Insn::Jz(else_target);
                        self.emit_actions(f, depth + 1);
                        let end_target = self.code.len() as u32;
                        self.code[jmp_at] = Insn::Jmp(end_target);
                    }
                    self.cse.undo(cse_mark);
                    // Slots assigned in either branch invalidate any cached
                    // expression mentioning them.
                    for idx in assigned_mark..self.assigned.len() {
                        self.cse.invalidate(self.assigned[idx]);
                    }
                    self.log_dirty |= dirty_then;
                }
                TAction::Abort => {
                    if self.clean() {
                        self.code.push(Insn::AbortClean);
                    } else {
                        self.code.push(Insn::Abort);
                    }
                }
                TAction::Named { .. } => unreachable!("handled above"),
            }
        }
    }
}

/// Compiles a checked design into a VM [`Program`].
///
/// # Errors
///
/// Returns [`CompileError`] if the design uses values wider than the VM's
/// 64-bit fast path.
pub fn compile(design: &TDesign, opts: &CompileOptions) -> Result<Program, CompileError> {
    for r in design.regs.iter() {
        if r.width > 64 {
            return Err(CompileError::RegTooWide {
                reg: r.name.clone(),
                width: r.width,
            });
        }
    }

    let cfg = LevelCfg::from(opts.level);
    let analysis = analyze(design, opts.assumption);
    let nregs = design.num_regs();

    let mut rules = Vec::with_capacity(design.rules.len());
    let mut cov = Vec::new();
    for rule in design.rules.iter() {
        let rule_idx = rules.len();
        let summary = &analysis.rules[rule_idx];
        let mut rc = RuleCompiler {
            design,
            analysis: &analysis,
            cfg,
            coverage: opts.coverage,
            rule_name: &rule.name,
            code: Vec::new(),
            cov: Vec::new(),
            cov_base: cov.len() as u32,
            log_dirty: false,
            error: None,
            cse: if opts.optimize {
                Cse::new(&rule.body, rule.slot_widths.len())
            } else {
                Cse::default()
            },
            next_slot: rule.slot_widths.len() as u16,
            assigned: Vec::new(),
        };
        rc.emit_cov(0, || format!("DEF_RULE({})", rule.name));
        rc.emit_actions(&rule.body, 1);
        rc.emit_cov(0, || "COMMIT()".to_string());
        rc.code.push(Insn::End);
        if let Some(e) = rc.error {
            return Err(e);
        }

        let (commit, rollback) = if cfg.design_specific {
            let rw: Vec<u32> = summary
                .footprint_rw
                .iter()
                .flat_map(|s| design.syms[s.0 as usize].elems().map(|r| r.0))
                .collect();
            let data: Vec<u32> = summary
                .footprint_data
                .iter()
                .flat_map(|s| design.syms[s.0 as usize].elems().map(|r| r.0))
                .collect();
            let frac = (rw.len().max(data.len())) as f64 / nregs.max(1) as f64;
            if frac > FOOTPRINT_MEMCPY_THRESHOLD {
                (CopyPlan::Full, CopyPlan::Full)
            } else {
                (
                    CopyPlan::Footprint {
                        rw: rw.clone(),
                        data: data.clone(),
                    },
                    CopyPlan::Footprint { rw, data },
                )
            }
        } else {
            (CopyPlan::Full, CopyPlan::Full)
        };

        let code = if opts.optimize {
            peephole(rc.code)
        } else {
            rc.code
        };
        rules.push(RuleCode {
            name: rule.name.clone(),
            code,
            nlocals: rc.next_slot,
            commit,
            rollback,
        });
        cov.extend(rc.cov);
    }

    Ok(Program {
        design: design.clone(),
        level: opts.level,
        cfg,
        assumption: opts.assumption,
        rules: Arc::new(rules),
        schedule: design.schedule.clone(),
        init: design.regs.iter().map(|r| r.init.to_u64()).collect(),
        widths: design.regs.iter().map(|r| r.width).collect(),
        cov,
        warnings: analysis.warnings.clone(),
        analysis: Arc::new(analysis),
    })
}

/// Maps a stack binop instruction to its fused form, if it has one. Also
/// used by the register-form lowering ([`crate::tac`]), which routes every
/// stack binop through the shared [`crate::vm::fused`] evaluator.
pub(crate) fn fusable(insn: Insn) -> Option<(FusedBin, u64)> {
    Some(match insn {
        Insn::Add { mask } => (FusedBin::Add, mask),
        Insn::Sub { mask } => (FusedBin::Sub, mask),
        Insn::Mul { mask } => (FusedBin::Mul, mask),
        Insn::And => (FusedBin::And, u64::MAX),
        Insn::Or => (FusedBin::Or, u64::MAX),
        Insn::Xor => (FusedBin::Xor, u64::MAX),
        Insn::Shl { mask } => (FusedBin::Shl, mask),
        Insn::Shr => (FusedBin::Shr, u64::MAX),
        Insn::Sra { width } => (FusedBin::Sra, word::mask(width)),
        Insn::Eq => (FusedBin::Eq, u64::MAX),
        Insn::Ne => (FusedBin::Ne, u64::MAX),
        Insn::Ult => (FusedBin::Ult, u64::MAX),
        Insn::Ule => (FusedBin::Ule, u64::MAX),
        Insn::Slt { width } => (FusedBin::Slt, word::mask(width)),
        Insn::Sle { width } => (FusedBin::Sle, word::mask(width)),
        Insn::ConcatShift { low_width, mask } => (
            // Low widths of 64 and up all behave as "zero-width high half";
            // clamp so the width always fits the u8 payload.
            FusedBin::Concat {
                low: low_width.min(64) as u8,
            },
            mask,
        ),
        _ => return None,
    })
}

/// Peephole pass: fuses operand loads (`Const`/`Local`) into the following
/// binary operation, cutting dispatch and stack traffic — the VM-level
/// counterpart of what gcc/clang do to the paper's generated C++. Jump
/// targets are preserved: a pattern is only fused if no jump lands inside
/// it, and all targets are remapped afterwards.
fn peephole(code: Vec<Insn>) -> Vec<Insn> {
    let n = code.len();
    let mut is_target = vec![false; n + 1];
    for insn in &code {
        match insn {
            Insn::Jmp(t) | Insn::Jz(t) => is_target[*t as usize] = true,
            _ => {}
        }
    }

    let mut out: Vec<Insn> = Vec::with_capacity(n);
    let mut remap = vec![0u32; n + 1];
    let mut i = 0;
    while i < n {
        remap[i] = out.len() as u32;
        // Three-instruction patterns: two operand loads + binop.
        if i + 2 < n && !is_target[i + 1] && !is_target[i + 2] {
            if let Some((op, mask)) = fusable(code[i + 2]) {
                match (code[i], code[i + 1]) {
                    (Insn::Local(a), Insn::Local(b)) => {
                        remap[i + 1] = out.len() as u32;
                        remap[i + 2] = out.len() as u32;
                        out.push(Insn::BinLL {
                            op,
                            a_slot: a,
                            b_slot: b,
                            mask,
                        });
                        i += 3;
                        continue;
                    }
                    (Insn::Local(a), Insn::Const(c)) => {
                        remap[i + 1] = out.len() as u32;
                        remap[i + 2] = out.len() as u32;
                        out.push(Insn::BinLC {
                            op,
                            a_slot: a,
                            rhs: c,
                            mask,
                        });
                        i += 3;
                        continue;
                    }
                    _ => {}
                }
            }
        }
        // Two-instruction patterns.
        if i + 1 < n && !is_target[i + 1] {
            if let Some((op, mask)) = fusable(code[i + 1]) {
                match code[i] {
                    Insn::Const(c) => {
                        remap[i + 1] = out.len() as u32;
                        out.push(Insn::BinRC { op, rhs: c, mask });
                        i += 2;
                        continue;
                    }
                    Insn::Local(slot) => {
                        remap[i + 1] = out.len() as u32;
                        out.push(Insn::BinRL {
                            op,
                            rhs_slot: slot,
                            mask,
                        });
                        i += 2;
                        continue;
                    }
                    _ => {}
                }
            }
            // Slice followed by sign extension (hot in packed-arithmetic
            // designs like the FFT butterflies).
            if let (Insn::Slice { lo, mask: smask }, Insn::Sext { from, mask }) =
                (code[i], code[i + 1])
            {
                if smask == word::mask(from) {
                    remap[i + 1] = out.len() as u32;
                    out.push(Insn::SliceSext { lo, from, mask });
                    i += 2;
                    continue;
                }
            }
            // Register-to-local and local-to-register moves on safe
            // registers, and constant local initialization.
            let fused_move = match (code[i], code[i + 1]) {
                (Insn::Rd0Fast { reg }, Insn::SetLocal(slot))
                | (Insn::Rd1Fast { reg }, Insn::SetLocal(slot)) => {
                    Some(Insn::LdFast { reg, slot })
                }
                (Insn::Local(slot), Insn::Wr0Fast { reg })
                | (Insn::Local(slot), Insn::Wr1Fast { reg }) => {
                    Some(Insn::StFast { reg, slot })
                }
                (Insn::Const(imm), Insn::SetLocal(slot)) => {
                    Some(Insn::SetLocalK { slot, imm })
                }
                _ => None,
            };
            if let Some(m) = fused_move {
                remap[i + 1] = out.len() as u32;
                out.push(m);
                i += 2;
                continue;
            }
        }
        out.push(code[i]);
        i += 1;
    }
    remap[n] = out.len() as u32;

    for insn in &mut out {
        match insn {
            Insn::Jmp(t) | Insn::Jz(t) => *t = remap[*t as usize],
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use koika::ast::*;
    use koika::check::check;
    use koika::design::DesignBuilder;

    fn compile_level(b: DesignBuilder, level: OptLevel) -> Program {
        let td = check(&b.build()).unwrap();
        compile(
            &td,
            &CompileOptions {
                level,
                ..CompileOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn safe_registers_compile_to_fast_ops() {
        let mut b = DesignBuilder::new("c");
        b.reg("n", 8, 0u64);
        b.rule("inc", vec![wr0("n", rd0("n").add(k(8, 1)))]);
        let p = compile_level(b, OptLevel::DesignSpecific);
        let code = &p.rules[0].code;
        assert!(code.contains(&Insn::Rd0Fast { reg: 0 }));
        assert!(code.contains(&Insn::Wr0Fast { reg: 0 }));
        assert!(!code
            .iter()
            .any(|i| matches!(i, Insn::Rd0 { .. } | Insn::Wr0 { .. })));
    }

    #[test]
    fn unsafe_registers_stay_checked() {
        let mut b = DesignBuilder::new("c");
        b.reg("n", 8, 0u64);
        b.rule("w1", vec![wr0("n", k(8, 1))]);
        b.rule("w2", vec![wr0("n", k(8, 2))]);
        b.schedule(["w1", "w2"]);
        let p = compile_level(b, OptLevel::DesignSpecific);
        assert!(p.rules[1]
            .code
            .iter()
            .any(|i| matches!(i, Insn::Wr0 { .. })));
    }

    #[test]
    fn early_aborts_are_clean() {
        let mut b = DesignBuilder::new("g");
        b.reg("go", 1, 0u64);
        b.reg("n", 8, 0u64);
        b.rule(
            "inc",
            vec![
                guard(rd0("go").eq(k(1, 1))),
                wr0("n", k(8, 1)),
                when(rd0("go").eq(k(1, 0)), vec![abort()]),
            ],
        );
        let p = compile_level(b, OptLevel::DesignSpecific);
        let code = &p.rules[0].code;
        assert!(
            code.contains(&Insn::AbortClean),
            "the guard abort precedes any write"
        );
        assert!(
            code.contains(&Insn::Abort),
            "the late abort follows a write and needs rollback"
        );
    }

    #[test]
    fn lower_levels_have_no_fast_ops_or_footprints() {
        let mut b = DesignBuilder::new("c");
        b.reg("n", 8, 0u64);
        b.rule("inc", vec![wr0("n", rd0("n").add(k(8, 1)))]);
        let p = compile_level(b, OptLevel::NoBocState);
        assert!(matches!(p.rules[0].commit, CopyPlan::Full));
        assert!(!p.rules[0]
            .code
            .iter()
            .any(|i| matches!(i, Insn::Rd0Fast { .. } | Insn::AbortClean)));
    }

    #[test]
    fn footprints_expand_arrays_and_apply_threshold() {
        // The 8-element array is well under half of the 24-element design,
        // so commits stay footprint-restricted.
        let mut b = DesignBuilder::new("fp");
        b.array("t", 4, 8, 0u64);
        b.array("pad", 4, 16, 0u64);
        // Give the array a second (conflicting) writer so it is unsafe but
        // still footprint-copied.
        b.rule("w", vec![wr0a("t", k(3, 0), k(4, 1))]);
        b.rule("w2", vec![wr0a("t", k(3, 1), k(4, 2))]);
        b.schedule(["w", "w2"]);
        let p = compile_level(b, OptLevel::DesignSpecific);
        match &p.rules[0].commit {
            CopyPlan::Footprint { rw, data } => {
                assert_eq!(rw.len(), 8, "whole array in the rw footprint");
                assert_eq!(data.len(), 8);
            }
            CopyPlan::Full => panic!("expected footprint commit"),
        }
    }

    #[test]
    fn big_footprint_degrades_to_memcpy() {
        let mut b = DesignBuilder::new("big");
        b.reg("a", 8, 0u64);
        b.reg("bb", 8, 0u64);
        // Rule writes both registers = 100% of the design; conflicting
        // double-write keeps them unsafe.
        b.rule("w", vec![wr0("a", k(8, 1)), wr0("bb", k(8, 1))]);
        b.rule("w2", vec![wr0("a", k(8, 2)), wr0("bb", k(8, 2))]);
        b.schedule(["w", "w2"]);
        let p = compile_level(b, OptLevel::DesignSpecific);
        assert!(matches!(p.rules[0].commit, CopyPlan::Full));
    }

    #[test]
    fn coverage_points_follow_statements() {
        let mut b = DesignBuilder::new("cov");
        b.reg("n", 8, 0u64);
        b.rule(
            "inc",
            vec![named("bump", vec![wr0("n", rd0("n").add(k(8, 1)))])],
        );
        let td = check(&b.build()).unwrap();
        let p = compile(
            &td,
            &CompileOptions {
                coverage: true,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let labels: Vec<&str> = p.cov.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            vec!["DEF_RULE(inc)", "bump", "WRITE0(n, (READ0(n) + 8'h1))", "COMMIT()"]
        );
        let n_cov = p.rules[0]
            .code
            .iter()
            .filter(|i| matches!(i, Insn::Cov(_)))
            .count();
        assert_eq!(n_cov, 4);
    }

    #[test]
    fn rejects_wide_registers() {
        let mut b = DesignBuilder::new("wide");
        b.reg("w", 100, 0u64);
        b.rule("r", vec![wr0("w", rd0("w"))]);
        let td = check(&b.build()).unwrap();
        assert!(matches!(
            compile(&td, &CompileOptions::default()),
            Err(CompileError::RegTooWide { .. })
        ));
    }

    #[test]
    fn rejects_wide_intermediates() {
        let too_wide = |body: Vec<Action>| {
            let mut b = DesignBuilder::new("wide");
            b.reg("a", 60, 0u64);
            b.reg("bb", 8, 0u64);
            b.rule("r", body);
            let td = check(&b.build()).unwrap();
            matches!(
                compile(&td, &CompileOptions::default()),
                Err(CompileError::ExprTooWide { .. })
            )
        };
        assert!(too_wide(vec![wr0("bb", rd0("a").concat(rd0("a")).slice(0, 8))]));
        // A wide constant in a repeated read-free expression, which CSE
        // interns.
        let low = || kbits(koika::bits::Bits::new(100, 1u128 << 90)).slice(0, 8);
        assert!(too_wide(vec![let_("x", low()), wr0("bb", low())]));
    }

    /// Compiles one rule over 8-bit registers `a`, `o1` and `o2` at O6 with
    /// the expression optimizer on, and returns its bytecode.
    fn cse_code(body: Vec<Action>) -> Vec<Insn> {
        let mut b = DesignBuilder::new("cse");
        b.reg("a", 8, 0u64);
        b.reg("o1", 8, 0u64);
        b.reg("o2", 8, 0u64);
        b.rule("r", body);
        compile_level(b, OptLevel::DesignSpecific).rules[0].code.clone()
    }

    #[test]
    fn cse_temp_dies_when_a_let_reassigns_a_slot_it_reads() {
        use Insn::*;
        let code = cse_code(vec![
            let_("x", rd0("a")),
            wr0("o1", var("x").add(k(8, 1))),
            set("x", k(8, 5)),
            wr0("o2", var("x").add(k(8, 1))),
        ]);
        // `x + 1` is cached in slot 1, then recomputed into a fresh temp
        // (slot 2) once `x` changes: reusing slot 1 would write `a + 1`, not 6.
        let add1 = BinLC { op: FusedBin::Add, a_slot: 0, rhs: 1, mask: 255 };
        assert_eq!(
            code,
            vec![
                LdFast { reg: 0, slot: 0 },
                add1,
                SetLocal(1),
                StFast { reg: 1, slot: 1 },
                SetLocalK { slot: 0, imm: 5 },
                add1,
                SetLocal(2),
                StFast { reg: 2, slot: 2 },
                End,
            ]
        );
        // The same when the reassignment sits in a branch: slot 1 is
        // stale after the join.
        let code = cse_code(vec![
            let_("x", rd0("a")),
            wr0("o1", var("x").add(k(8, 1))),
            when(var("x").eq(k(8, 0)), vec![set("x", k(8, 5))]),
            wr0("o2", var("x").add(k(8, 1))),
        ]);
        assert_eq!(
            code,
            vec![
                LdFast { reg: 0, slot: 0 },
                add1,
                SetLocal(1),
                StFast { reg: 1, slot: 1 },
                BinLC { op: FusedBin::Eq, a_slot: 0, rhs: 0, mask: u64::MAX },
                Jz(7),
                SetLocalK { slot: 0, imm: 5 },
                add1,
                SetLocal(2),
                StFast { reg: 2, slot: 2 },
                End,
            ]
        );
    }

    #[test]
    fn cse_temp_made_in_a_branch_is_not_reused_after_the_join() {
        use Insn::*;
        let code = cse_code(vec![
            let_("x", rd0("a")),
            iff(
                var("x").eq(k(8, 0)),
                vec![wr0("o1", var("x").add(k(8, 1)))],
                vec![wr0("o2", var("x").add(k(8, 1)))],
            ),
            set("x", var("x").add(k(8, 1))),
        ]);
        // Slot 1 is set only on the then-path and slot 2 only on the
        // else-path, so neither is reused past its branch.
        let add1 = BinLC { op: FusedBin::Add, a_slot: 0, rhs: 1, mask: 255 };
        assert_eq!(
            code,
            vec![
                LdFast { reg: 0, slot: 0 },
                BinLC { op: FusedBin::Eq, a_slot: 0, rhs: 0, mask: u64::MAX },
                Jz(7),
                add1,
                SetLocal(1),
                StFast { reg: 1, slot: 1 },
                Jmp(10),
                add1,
                SetLocal(2),
                StFast { reg: 2, slot: 2 },
                add1,
                SetLocal(3),
                Local(3),
                SetLocal(0),
                End,
            ]
        );
    }

    #[test]
    fn cse_counts_a_subexpression_inside_a_repeated_parent_twice() {
        use Insn::*;
        let code = cse_code(vec![
            let_("x", rd0("a")),
            wr0("o1", var("x").add(k(8, 1)).mul(k(8, 3))),
            wr0("o2", var("x").add(k(8, 1)).mul(k(8, 3))),
        ]);
        // `x + 1` occurs twice in the tree (once per copy of its parent),
        // so it gets a temp (slot 1) even though only the parent's temp
        // (slot 2) is ever reread.
        assert_eq!(
            code,
            vec![
                LdFast { reg: 0, slot: 0 },
                BinLC { op: FusedBin::Add, a_slot: 0, rhs: 1, mask: 255 },
                SetLocal(1),
                BinLC { op: FusedBin::Mul, a_slot: 1, rhs: 3, mask: 255 },
                SetLocal(2),
                StFast { reg: 1, slot: 2 },
                StFast { reg: 2, slot: 2 },
                End,
            ]
        );
    }

    #[test]
    fn cse_never_caches_an_expression_that_reads_a_register() {
        use Insn::*;
        let code = cse_code(vec![
            wr0("o1", rd0("a").add(k(8, 1))),
            wr0("o2", rd0("a").add(k(8, 1))),
        ]);
        let add1 = BinRC { op: FusedBin::Add, rhs: 1, mask: 255 };
        assert_eq!(
            code,
            vec![
                Rd0Fast { reg: 0 },
                add1,
                Wr0Fast { reg: 1 },
                Rd0Fast { reg: 0 },
                add1,
                Wr0Fast { reg: 2 },
                End,
            ]
        );
    }

    #[test]
    fn jump_targets_are_patched() {
        let mut b = DesignBuilder::new("ifs");
        b.reg("c", 1, 0u64);
        b.reg("n", 8, 0u64);
        b.rule(
            "r",
            vec![iff(
                rd0("c").eq(k(1, 1)),
                vec![wr0("n", k(8, 1))],
                vec![wr0("n", k(8, 2))],
            )],
        );
        let p = compile_level(b, OptLevel::SplitRwSets);
        for insn in &p.rules[0].code {
            match insn {
                Insn::Jz(t) | Insn::Jmp(t) => {
                    assert!((*t as usize) < p.rules[0].code.len(), "unpatched jump")
                }
                _ => {}
            }
        }
    }
}
