//! Type checking and lowering from the surface AST to the typed IR.
//!
//! The checker resolves register and variable names, infers and verifies all
//! widths, flattens register arrays, and enforces the structural restrictions
//! the simulators rely on:
//!
//! * dynamically-indexed arrays have power-of-two lengths (indices are taken
//!   modulo the length);
//! * [`crate::ast::Expr::Select`] arms are read-free (so muxes are pure);
//! * schedules mention each rule at most once, and only declared rules.
//!
//! # Examples
//!
//! ```
//! use koika::{ast::*, design::DesignBuilder, check};
//!
//! let mut b = DesignBuilder::new("d");
//! b.reg("x", 8, 0u64);
//! b.rule("bump", vec![wr0("x", rd0("x").add(k(8, 1)))]);
//! let td = check::check(&b.build())?;
//! assert_eq!(td.num_regs(), 1);
//! # Ok::<(), check::CheckError>(())
//! ```

use crate::ast::{Action, BinOp, Expr, UnOp};
use crate::design::Design;
use crate::tir::*;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// An error found while checking a design.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// Two registers share a name.
    DuplicateReg(String),
    /// Two rules share a name.
    DuplicateRule(String),
    /// A rule body or schedule references an undeclared register.
    UnknownReg(String),
    /// An expression references an unbound local variable.
    UnknownVar(String),
    /// The schedule references an undeclared rule.
    UnknownRule(String),
    /// The schedule mentions a rule twice.
    RescheduledRule(String),
    /// A register was declared with width 0, or a slice of width 0 was taken.
    ZeroWidth(String),
    /// Scalar access to an array register or vice versa.
    WrongShape {
        /// The register name.
        reg: String,
        /// What the design expected at the use site.
        expected: &'static str,
    },
    /// A dynamically-indexed array has a non-power-of-two length.
    ArrayLenNotPow2(String),
    /// An array register is wider than 64 bits (arrays live in the u64 fast
    /// path of every backend).
    ArrayTooWide(String),
    /// Operand widths disagree.
    WidthMismatch {
        /// Where the mismatch happened.
        context: String,
        /// Expected width.
        expected: u32,
        /// Actual width.
        found: u32,
    },
    /// A condition (`if`/`select`) is not 1 bit wide.
    CondWidth(u32),
    /// Sign extension to a narrower width.
    SextNarrows {
        /// Source width.
        from: u32,
        /// Requested width.
        to: u32,
    },
    /// A register read inside a `Select` arm (arms must be pure).
    ReadInSelectArm,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::DuplicateReg(n) => write!(f, "duplicate register {n:?}"),
            CheckError::DuplicateRule(n) => write!(f, "duplicate rule {n:?}"),
            CheckError::UnknownReg(n) => write!(f, "unknown register {n:?}"),
            CheckError::UnknownVar(n) => write!(f, "unknown variable {n:?}"),
            CheckError::UnknownRule(n) => write!(f, "schedule references unknown rule {n:?}"),
            CheckError::RescheduledRule(n) => write!(f, "rule {n:?} scheduled more than once"),
            CheckError::ZeroWidth(n) => write!(f, "zero width in {n:?}"),
            CheckError::WrongShape { reg, expected } => {
                write!(f, "register {reg:?} used as {expected}")
            }
            CheckError::ArrayLenNotPow2(n) => {
                write!(f, "array {n:?} must have a power-of-two length")
            }
            CheckError::ArrayTooWide(n) => {
                write!(f, "array {n:?} elements must be at most 64 bits wide")
            }
            CheckError::WidthMismatch {
                context,
                expected,
                found,
            } => write!(
                f,
                "width mismatch in {context}: expected {expected}, found {found}"
            ),
            CheckError::CondWidth(w) => write!(f, "condition must be 1 bit wide, found {w}"),
            CheckError::SextNarrows { from, to } => {
                write!(f, "sign extension from {from} to narrower width {to}")
            }
            CheckError::ReadInSelectArm => {
                write!(f, "register reads are not allowed inside select arms")
            }
        }
    }
}

impl Error for CheckError {}

struct Ctx<'a> {
    syms: &'a [SymInfo],
    sym_by_name: &'a HashMap<&'a str, SymId>,
    // Per-rule state:
    /// The variables in scope, innermost last. A lookup scans from the end,
    /// so a later binding shadows an earlier one, and leaving a block
    /// truncates its bindings away.
    vars: Vec<(&'a str, u16)>,
    slot_widths: Vec<u32>,
}

impl<'a> Ctx<'a> {
    fn sym(&self, name: &str) -> Result<&'a SymInfo, CheckError> {
        self.sym_by_name
            .get(name)
            .map(|id| &self.syms[id.0 as usize])
            .ok_or_else(|| CheckError::UnknownReg(name.to_string()))
    }

    fn lookup_var(&self, name: &str) -> Result<u16, CheckError> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, slot)| slot)
            .ok_or_else(|| CheckError::UnknownVar(name.to_string()))
    }

    fn bind_var(&mut self, name: &'a str, width: u32) -> u16 {
        let slot = self.slot_widths.len() as u16;
        self.slot_widths.push(width);
        self.vars.push((name, slot));
        slot
    }

    fn check_expr(&mut self, e: &Expr, in_select_arm: bool) -> Result<TExpr, CheckError> {
        match e {
            Expr::Const(b) => Ok(TExpr::Const {
                w: b.width(),
                v: b.clone(),
            }),
            Expr::Var(name) => {
                let slot = self.lookup_var(name)?;
                Ok(TExpr::Var {
                    w: self.slot_widths[slot as usize],
                    slot,
                })
            }
            Expr::Read(port, name) => {
                if in_select_arm {
                    return Err(CheckError::ReadInSelectArm);
                }
                let sym = self.sym(name)?;
                if !sym.is_scalar() {
                    return Err(CheckError::WrongShape {
                        reg: name.clone(),
                        expected: "a scalar register, but it is an array",
                    });
                }
                Ok(TExpr::Read {
                    w: sym.width,
                    port: *port,
                    reg: sym.base,
                })
            }
            Expr::ReadArr(port, name, idx) => {
                if in_select_arm {
                    return Err(CheckError::ReadInSelectArm);
                }
                let sym = self.sym(name)?;
                if sym.is_scalar() {
                    return Err(CheckError::WrongShape {
                        reg: name.clone(),
                        expected: "an array, but it is a scalar register",
                    });
                }
                let idx = self.check_expr(idx, in_select_arm)?;
                Ok(TExpr::ReadArr {
                    w: sym.width,
                    port: *port,
                    base: sym.base,
                    len: sym.len,
                    idx: Box::new(idx),
                })
            }
            Expr::Un(op, a) => {
                let ta = self.check_expr(a, in_select_arm)?;
                let aw = ta.width();
                let w = match *op {
                    UnOp::Not | UnOp::Neg => aw,
                    UnOp::Zext(w) => w,
                    UnOp::Sext(w) => {
                        if w < aw {
                            return Err(CheckError::SextNarrows { from: aw, to: w });
                        }
                        w
                    }
                    UnOp::Slice { width, .. } => width,
                };
                if w == 0 {
                    return Err(CheckError::ZeroWidth(format!("{op:?}")));
                }
                Ok(TExpr::Un {
                    w,
                    op: *op,
                    a: Box::new(ta),
                })
            }
            Expr::Bin(op, a, b) => {
                let ta = self.check_expr(a, in_select_arm)?;
                let tb = self.check_expr(b, in_select_arm)?;
                let (aw, bw) = (ta.width(), tb.width());
                let w = match op {
                    BinOp::Add
                    | BinOp::Sub
                    | BinOp::Mul
                    | BinOp::And
                    | BinOp::Or
                    | BinOp::Xor => {
                        if aw != bw {
                            return Err(CheckError::WidthMismatch {
                                context: format!("{op:?}"),
                                expected: aw,
                                found: bw,
                            });
                        }
                        aw
                    }
                    BinOp::Shl | BinOp::Shr | BinOp::Sra => aw,
                    BinOp::Eq | BinOp::Ne | BinOp::Ult | BinOp::Ule | BinOp::Slt | BinOp::Sle => {
                        if aw != bw {
                            return Err(CheckError::WidthMismatch {
                                context: format!("{op:?}"),
                                expected: aw,
                                found: bw,
                            });
                        }
                        1
                    }
                    BinOp::Concat => aw + bw,
                };
                Ok(TExpr::Bin {
                    w,
                    op: *op,
                    a: Box::new(ta),
                    b: Box::new(tb),
                })
            }
            Expr::Select(c, t, f) => {
                let tc = self.check_expr(c, in_select_arm)?;
                if tc.width() != 1 {
                    return Err(CheckError::CondWidth(tc.width()));
                }
                let tt = self.check_expr(t, true)?;
                let tf = self.check_expr(f, true)?;
                if tt.width() != tf.width() {
                    return Err(CheckError::WidthMismatch {
                        context: "select arms".to_string(),
                        expected: tt.width(),
                        found: tf.width(),
                    });
                }
                Ok(TExpr::Select {
                    w: tt.width(),
                    c: Box::new(tc),
                    t: Box::new(tt),
                    f: Box::new(tf),
                })
            }
        }
    }

    fn check_write_value(
        &mut self,
        reg: &str,
        width: u32,
        e: &Expr,
    ) -> Result<TExpr, CheckError> {
        let te = self.check_expr(e, false)?;
        if te.width() != width {
            return Err(CheckError::WidthMismatch {
                context: format!("write to {reg:?}"),
                expected: width,
                found: te.width(),
            });
        }
        Ok(te)
    }

    fn check_actions(&mut self, actions: &'a [Action]) -> Result<Vec<TAction>, CheckError> {
        let mark = self.vars.len();
        let result = actions
            .iter()
            .map(|a| self.check_action(a))
            .collect::<Result<Vec<_>, _>>();
        self.vars.truncate(mark);
        result
    }

    fn check_action(&mut self, a: &'a Action) -> Result<TAction, CheckError> {
        match a {
            Action::Let(name, e) => {
                let te = self.check_expr(e, false)?;
                let slot = self.bind_var(name, te.width());
                Ok(TAction::Let { slot, e: te })
            }
            Action::Assign(name, e) => {
                let slot = self.lookup_var(name)?;
                let te = self.check_expr(e, false)?;
                let expected = self.slot_widths[slot as usize];
                if te.width() != expected {
                    return Err(CheckError::WidthMismatch {
                        context: format!("assignment to {name:?}"),
                        expected,
                        found: te.width(),
                    });
                }
                Ok(TAction::Let { slot, e: te })
            }
            Action::Write(port, name, e) => {
                let sym = self.sym(name)?;
                if !sym.is_scalar() {
                    return Err(CheckError::WrongShape {
                        reg: name.clone(),
                        expected: "a scalar register, but it is an array",
                    });
                }
                let te = self.check_write_value(name, sym.width, e)?;
                Ok(TAction::Write {
                    port: *port,
                    reg: sym.base,
                    e: te,
                })
            }
            Action::WriteArr(port, name, idx, e) => {
                let sym = self.sym(name)?;
                if sym.is_scalar() {
                    return Err(CheckError::WrongShape {
                        reg: name.clone(),
                        expected: "an array, but it is a scalar register",
                    });
                }
                let tidx = self.check_expr(idx, false)?;
                let te = self.check_write_value(name, sym.width, e)?;
                Ok(TAction::WriteArr {
                    port: *port,
                    base: sym.base,
                    len: sym.len,
                    idx: tidx,
                    e: te,
                })
            }
            Action::If(c, t, f) => {
                let tc = self.check_expr(c, false)?;
                if tc.width() != 1 {
                    return Err(CheckError::CondWidth(tc.width()));
                }
                let tt = self.check_actions(t)?;
                let tf = self.check_actions(f)?;
                Ok(TAction::If {
                    c: tc,
                    t: tt,
                    f: tf,
                })
            }
            Action::Abort => Ok(TAction::Abort),
            Action::Named(label, body) => {
                let tbody = self.check_actions(body)?;
                Ok(TAction::Named {
                    label: label.clone(),
                    body: tbody,
                })
            }
        }
    }
}

/// Checks a design and lowers it to the typed IR.
///
/// # Errors
///
/// Returns the first [`CheckError`] encountered (name resolution, width
/// inference, or structural restrictions).
pub fn check(design: &Design) -> Result<TDesign, CheckError> {
    // Flatten the register space.
    let mut syms = Vec::new();
    let mut sym_by_name = HashMap::new();
    let mut regs = Vec::new();
    for decl in &design.regs {
        if decl.width == 0 {
            return Err(CheckError::ZeroWidth(decl.name.clone()));
        }
        if decl.len > 1 {
            if !decl.len.is_power_of_two() {
                return Err(CheckError::ArrayLenNotPow2(decl.name.clone()));
            }
            if decl.width > 64 {
                return Err(CheckError::ArrayTooWide(decl.name.clone()));
            }
        }
        let sym_id = SymId(syms.len() as u32);
        if sym_by_name.insert(decl.name.as_str(), sym_id).is_some() {
            return Err(CheckError::DuplicateReg(decl.name.clone()));
        }
        let base = RegId(regs.len() as u32);
        for i in 0..decl.len {
            let name = if decl.len == 1 {
                decl.name.clone()
            } else {
                format!("{}[{}]", decl.name, i)
            };
            regs.push(RegInfo {
                name,
                width: decl.width,
                init: decl.init[i as usize].clone(),
                sym: sym_id,
            });
        }
        syms.push(SymInfo {
            name: decl.name.clone(),
            width: decl.width,
            base,
            len: decl.len,
        });
    }

    // Check the rules.
    let mut rules = Vec::new();
    let mut rule_by_name = HashMap::new();
    for rule in &design.rules {
        if rule_by_name.insert(rule.name.as_str(), rules.len()).is_some() {
            return Err(CheckError::DuplicateRule(rule.name.clone()));
        }
        let mut ctx = Ctx {
            syms: &syms,
            sym_by_name: &sym_by_name,
            vars: Vec::new(),
            slot_widths: Vec::new(),
        };
        let body = ctx.check_actions(&rule.body)?;
        rules.push(TRule {
            name: rule.name.clone(),
            body,
            slot_widths: ctx.slot_widths,
        });
    }

    // Check the schedule.
    let mut schedule = Vec::new();
    let mut seen = vec![false; rules.len()];
    for name in &design.schedule {
        let idx = *rule_by_name
            .get(name.as_str())
            .ok_or_else(|| CheckError::UnknownRule(name.clone()))?;
        if seen[idx] {
            return Err(CheckError::RescheduledRule(name.clone()));
        }
        seen[idx] = true;
        schedule.push(idx);
    }

    Ok(TDesign {
        name: design.name.clone(),
        syms: Arc::new(syms),
        regs: Arc::new(regs),
        rules: Arc::new(rules),
        schedule,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;
    use crate::design::DesignBuilder;

    fn base() -> DesignBuilder {
        let mut b = DesignBuilder::new("t");
        b.reg("x", 8, 0u64);
        b.reg("y", 8, 0u64);
        b.array("arr", 4, 8, 0u64);
        b
    }

    #[test]
    fn accepts_well_typed_rule() {
        let mut b = base();
        b.rule(
            "r",
            vec![
                let_("t", rd0("x").add(rd0("y"))),
                wr0("x", var("t")),
                wr0a("arr", k(3, 2), rd0a("arr", k(3, 1)).add(k(4, 1))),
            ],
        );
        let td = check(&b.build()).unwrap();
        assert_eq!(td.num_regs(), 2 + 8);
        assert_eq!(td.reg_elem("arr", 3), RegId(5));
        assert_eq!(td.rules[0].slot_widths, vec![8]);
    }

    #[test]
    fn rejects_width_mismatch() {
        let mut b = base();
        b.rule("r", vec![wr0("x", rd0("x").add(k(4, 1)))]);
        assert!(matches!(
            check(&b.build()),
            Err(CheckError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn rejects_write_width_mismatch() {
        let mut b = base();
        b.rule("r", vec![wr0("x", k(4, 1))]);
        assert!(matches!(
            check(&b.build()),
            Err(CheckError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn rejects_unknown_names() {
        let mut b = base();
        b.rule("r", vec![wr0("nope", k(8, 1))]);
        assert!(matches!(check(&b.build()), Err(CheckError::UnknownReg(_))));

        let mut b = base();
        b.rule("r", vec![wr0("x", var("ghost"))]);
        assert!(matches!(check(&b.build()), Err(CheckError::UnknownVar(_))));
    }

    #[test]
    fn rejects_read_in_select_arm() {
        let mut b = base();
        b.rule("r", vec![wr0("x", select(kb(true), rd0("x"), k(8, 0)))]);
        assert!(matches!(
            check(&b.build()),
            Err(CheckError::ReadInSelectArm)
        ));
    }

    #[test]
    fn rejects_non_pow2_array() {
        let mut b = DesignBuilder::new("t");
        b.array("a", 4, 3, 0u64);
        b.rule("r", vec![wr0a("a", k(2, 0), k(4, 0))]);
        assert!(matches!(
            check(&b.build()),
            Err(CheckError::ArrayLenNotPow2(_))
        ));
    }

    #[test]
    fn rejects_shape_confusion() {
        let mut b = base();
        b.rule("r", vec![wr0("arr", k(4, 0))]);
        assert!(matches!(
            check(&b.build()),
            Err(CheckError::WrongShape { .. })
        ));

        let mut b = base();
        b.rule("r", vec![wr0a("x", k(1, 0), k(8, 0))]);
        assert!(matches!(
            check(&b.build()),
            Err(CheckError::WrongShape { .. })
        ));
    }

    #[test]
    fn rejects_bad_schedule() {
        let mut b = base();
        b.rule("r", vec![]);
        b.schedule(["r", "r"]);
        assert!(matches!(
            check(&b.build()),
            Err(CheckError::RescheduledRule(_))
        ));

        let mut b = base();
        b.rule("r", vec![]);
        b.schedule(["ghost"]);
        assert!(matches!(check(&b.build()), Err(CheckError::UnknownRule(_))));
    }

    #[test]
    fn shadowing_creates_new_slot() {
        let mut b = base();
        b.rule(
            "r",
            vec![
                let_("t", k(8, 1)),
                let_("t", k(4, 2)), // shadows with a different width
                wr0a("arr", k(3, 0), var("t")),
            ],
        );
        let td = check(&b.build()).unwrap();
        assert_eq!(td.rules[0].slot_widths, vec![8, 4]);
    }

    #[test]
    fn if_scopes_do_not_leak() {
        let mut b = base();
        b.rule(
            "r",
            vec![
                when(kb(true), vec![let_("inner", k(8, 1))]),
                wr0("x", var("inner")),
            ],
        );
        assert!(matches!(check(&b.build()), Err(CheckError::UnknownVar(_))));
    }

    #[test]
    fn cond_must_be_one_bit() {
        let mut b = base();
        b.rule("r", vec![when(k(8, 1), vec![])]);
        assert!(matches!(check(&b.build()), Err(CheckError::CondWidth(8))));
    }
}
