//! The surface abstract syntax of Kôika rules, plus ergonomic builders.
//!
//! Rules are written in a small imperative language with three special
//! primitives — `read`, `write` and `abort` — each read/write annotated with a
//! port (0 or 1) defining intra-cycle visibility (§2.1 of the paper):
//!
//! * reads at port 0 observe register values from the beginning of the cycle;
//! * reads at port 1 observe the latest port-0 write of the cycle, if any;
//! * writes at port 1 only become visible in the next cycle;
//! * `abort` cancels the executing rule, discarding its effects.
//!
//! Names are plain strings at this level; the [`crate::check`](mod@crate::check) pass resolves
//! them, infers widths, and produces the typed IR ([`crate::tir`]) that all
//! simulators consume.
//!
//! # Examples
//!
//! The paper's two-state machine rule `rlA`:
//!
//! ```
//! use koika::ast::*;
//!
//! let rl_a: Vec<Action> = vec![
//!     guard(rd0("st").eq(k(1, 0))),        // if (st.rd0 != `A) abort
//!     wr0("st", k(1, 1)),                  // st.wr0(`B)
//!     let_("new_x", rd0("x").add(rd0("input"))),
//!     wr0("x", var("new_x")),
//!     wr0("output", var("new_x")),
//! ];
//! assert_eq!(rl_a.len(), 5);
//! ```

use crate::bits::Bits;
use std::fmt;

/// A read/write port (§2.1). Port 0 sees beginning-of-cycle state; port 1
/// sees same-cycle port-0 writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Port {
    /// Port 0.
    P0,
    /// Port 1.
    P1,
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Port::P0 => write!(f, "0"),
            Port::P1 => write!(f, "1"),
        }
    }
}

/// Unary (and width-changing) combinational operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Bitwise complement.
    Not,
    /// Two's-complement negation.
    Neg,
    /// Zero-extend **or truncate** to the given width.
    Zext(u32),
    /// Sign-extend to the given width (must not narrow).
    Sext(u32),
    /// Extract `width` bits starting at bit `lo`; out-of-range bits read 0.
    Slice {
        /// First (least-significant) extracted bit.
        lo: u32,
        /// Number of extracted bits.
        width: u32,
    },
}

/// Binary combinational operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition (same widths).
    Add,
    /// Wrapping subtraction (same widths).
    Sub,
    /// Wrapping multiplication truncated to the operand width.
    Mul,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (shift amount may have any width).
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sra,
    /// Equality, producing 1 bit.
    Eq,
    /// Disequality, producing 1 bit.
    Ne,
    /// Unsigned `<`, producing 1 bit.
    Ult,
    /// Unsigned `<=`, producing 1 bit.
    Ule,
    /// Signed `<`, producing 1 bit.
    Slt,
    /// Signed `<=`, producing 1 bit.
    Sle,
    /// Concatenation `{a, b}` (left operand is the high part).
    Concat,
}

impl BinOp {
    /// True for comparison operators whose result is 1 bit wide.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Ult | BinOp::Ule | BinOp::Slt | BinOp::Sle
        )
    }
}

/// A combinational expression, possibly containing register reads.
///
/// Reads have log-recording side effects and may abort the rule, so
/// expression evaluation order is defined: depth-first, left-to-right.
/// [`Expr::Select`] arms must be read-free (enforced by the checker), making
/// `Select` a pure mux.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A constant.
    Const(Bits),
    /// A local variable introduced by [`Action::Let`].
    Var(String),
    /// A register read at the given port.
    Read(Port, String),
    /// A dynamically-indexed read of a register array.
    ReadArr(Port, String, Box<Expr>),
    /// Unary operator application.
    Un(UnOp, Box<Expr>),
    /// Binary operator application.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Pure 2-way mux: `Select(cond, if_true, if_false)`; arms are read-free.
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
}

/// A statement in a rule body. Statements execute in sequence; any failing
/// read/write check or explicit [`Action::Abort`] cancels the whole rule.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Bind a new local variable (shadowing allowed).
    Let(String, Expr),
    /// Re-assign an existing local variable.
    Assign(String, Expr),
    /// Write a register at the given port.
    Write(Port, String, Expr),
    /// Write a register-array element at a dynamic index.
    WriteArr(Port, String, Expr, Expr),
    /// Conditional: `If(cond, then, else)`; only the taken branch executes.
    If(Expr, Vec<Action>, Vec<Action>),
    /// Abort the rule, discarding its log.
    Abort,
    /// A labeled block: behaves like its body; the label names a coverage
    /// counter and survives into generated C++ models.
    Named(String, Vec<Action>),
}

// ---------------------------------------------------------------------------
// Expression builders
// ---------------------------------------------------------------------------

/// A `width`-bit constant.
pub fn k(width: u32, value: u64) -> Expr {
    Expr::Const(Bits::new(width, value))
}

/// A 1-bit constant from a boolean.
pub fn kb(value: bool) -> Expr {
    Expr::Const(Bits::from(value))
}

/// A constant from a pre-built [`Bits`] value.
pub fn kbits(value: Bits) -> Expr {
    Expr::Const(value)
}

/// Reference a local variable.
pub fn var(name: impl Into<String>) -> Expr {
    Expr::Var(name.into())
}

/// Read a register at port 0 (beginning-of-cycle value).
pub fn rd0(reg: impl Into<String>) -> Expr {
    Expr::Read(Port::P0, reg.into())
}

/// Read a register at port 1 (sees same-cycle port-0 writes).
pub fn rd1(reg: impl Into<String>) -> Expr {
    Expr::Read(Port::P1, reg.into())
}

/// Read a register-array element at port 0.
pub fn rd0a(arr: impl Into<String>, idx: Expr) -> Expr {
    Expr::ReadArr(Port::P0, arr.into(), Box::new(idx))
}

/// Read a register-array element at port 1.
pub fn rd1a(arr: impl Into<String>, idx: Expr) -> Expr {
    Expr::ReadArr(Port::P1, arr.into(), Box::new(idx))
}

/// Pure 2-way mux; `t` and `f` must be read-free.
pub fn select(c: Expr, t: Expr, f: Expr) -> Expr {
    Expr::Select(Box::new(c), Box::new(t), Box::new(f))
}

// The builder methods deliberately mirror operator names (`add`, `not`,
// `shl`, ...) without implementing the `std::ops` traits: Kôika operators
// are width-checked at design-check time, not at Rust type-check time, and
// consuming builders read better in rule bodies.
#[allow(clippy::should_implement_trait)]
impl Expr {
    fn bin(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Bin(op, Box::new(self), Box::new(rhs))
    }

    /// Wrapping addition.
    pub fn add(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Add, rhs)
    }
    /// Wrapping subtraction.
    pub fn sub(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Sub, rhs)
    }
    /// Wrapping multiplication.
    pub fn mul(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Mul, rhs)
    }
    /// Bitwise AND.
    pub fn and(self, rhs: Expr) -> Expr {
        self.bin(BinOp::And, rhs)
    }
    /// Bitwise OR.
    pub fn or(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Or, rhs)
    }
    /// Bitwise XOR.
    pub fn xor(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Xor, rhs)
    }
    /// Logical shift left.
    pub fn shl(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Shl, rhs)
    }
    /// Logical shift right.
    pub fn shr(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Shr, rhs)
    }
    /// Arithmetic shift right.
    pub fn sra(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Sra, rhs)
    }
    /// Equality (1-bit result).
    pub fn eq(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Eq, rhs)
    }
    /// Disequality (1-bit result).
    pub fn ne(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ne, rhs)
    }
    /// Unsigned less-than (1-bit result).
    pub fn ult(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ult, rhs)
    }
    /// Unsigned less-or-equal (1-bit result).
    pub fn ule(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ule, rhs)
    }
    /// Unsigned greater-than (1-bit result).
    pub fn ugt(self, rhs: Expr) -> Expr {
        rhs.bin(BinOp::Ult, self)
    }
    /// Unsigned greater-or-equal (1-bit result).
    pub fn uge(self, rhs: Expr) -> Expr {
        rhs.bin(BinOp::Ule, self)
    }
    /// Signed less-than (1-bit result).
    pub fn slt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Slt, rhs)
    }
    /// Signed less-or-equal (1-bit result).
    pub fn sle(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Sle, rhs)
    }
    /// Signed greater-or-equal (1-bit result).
    pub fn sge(self, rhs: Expr) -> Expr {
        rhs.bin(BinOp::Sle, self)
    }
    /// Concatenation: `self` becomes the high bits.
    pub fn concat(self, low: Expr) -> Expr {
        self.bin(BinOp::Concat, low)
    }
    /// Bitwise complement.
    pub fn not(self) -> Expr {
        Expr::Un(UnOp::Not, Box::new(self))
    }
    /// Two's-complement negation.
    pub fn neg(self) -> Expr {
        Expr::Un(UnOp::Neg, Box::new(self))
    }
    /// Zero-extend or truncate to `width`.
    pub fn zext(self, width: u32) -> Expr {
        Expr::Un(UnOp::Zext(width), Box::new(self))
    }
    /// Sign-extend to `width`.
    pub fn sext(self, width: u32) -> Expr {
        Expr::Un(UnOp::Sext(width), Box::new(self))
    }
    /// Extract `width` bits starting at `lo`.
    pub fn slice(self, lo: u32, width: u32) -> Expr {
        Expr::Un(UnOp::Slice { lo, width }, Box::new(self))
    }
    /// Extract a single bit as a 1-bit value.
    pub fn bit(self, i: u32) -> Expr {
        self.slice(i, 1)
    }
}

// ---------------------------------------------------------------------------
// Action builders
// ---------------------------------------------------------------------------

/// Bind a new local variable.
pub fn let_(name: impl Into<String>, e: Expr) -> Action {
    Action::Let(name.into(), e)
}

/// Re-assign an existing local variable.
pub fn set(name: impl Into<String>, e: Expr) -> Action {
    Action::Assign(name.into(), e)
}

/// Write a register at port 0.
pub fn wr0(reg: impl Into<String>, e: Expr) -> Action {
    Action::Write(Port::P0, reg.into(), e)
}

/// Write a register at port 1.
pub fn wr1(reg: impl Into<String>, e: Expr) -> Action {
    Action::Write(Port::P1, reg.into(), e)
}

/// Write a register-array element at port 0.
pub fn wr0a(arr: impl Into<String>, idx: Expr, e: Expr) -> Action {
    Action::WriteArr(Port::P0, arr.into(), idx, e)
}

/// Write a register-array element at port 1.
pub fn wr1a(arr: impl Into<String>, idx: Expr, e: Expr) -> Action {
    Action::WriteArr(Port::P1, arr.into(), idx, e)
}

/// Two-armed conditional.
pub fn iff(c: Expr, t: Vec<Action>, f: Vec<Action>) -> Action {
    Action::If(c, t, f)
}

/// One-armed conditional.
pub fn when(c: Expr, t: Vec<Action>) -> Action {
    Action::If(c, t, Vec::new())
}

/// Abort the rule unconditionally.
pub fn abort() -> Action {
    Action::Abort
}

/// Abort the rule unless `c` holds — the idiomatic rule guard.
pub fn guard(c: Expr) -> Action {
    Action::If(c, Vec::new(), vec![Action::Abort])
}

/// A labeled block, visible to coverage reports and generated C++ models.
pub fn named(label: impl Into<String>, body: Vec<Action>) -> Action {
    Action::Named(label.into(), body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_expected_shapes() {
        let e = rd0("x").add(k(32, 1));
        match e {
            Expr::Bin(BinOp::Add, a, b) => {
                assert_eq!(*a, Expr::Read(Port::P0, "x".into()));
                assert_eq!(*b, Expr::Const(Bits::new(32, 1u64)));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn guard_desugars_to_if_abort() {
        match guard(kb(true)) {
            Action::If(_, t, f) => {
                assert!(t.is_empty());
                assert_eq!(f, vec![Action::Abort]);
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn ugt_swaps_operands() {
        match k(8, 1).ugt(k(8, 2)) {
            Expr::Bin(BinOp::Ult, a, _) => assert_eq!(*a, k(8, 2)),
            other => panic!("unexpected shape: {other:?}"),
        }
    }
}
