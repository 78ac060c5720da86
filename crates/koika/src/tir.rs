//! The typed intermediate representation produced by [`crate::check()`].
//!
//! Names are resolved (registers to dense [`RegId`]s, locals to frame slots),
//! every expression carries its width, and register arrays are flattened into
//! a contiguous element space so simulators can store all state in flat
//! arenas. This is the representation consumed by the reference interpreter,
//! the Cuttlesim compiler, and the RTL compiler.

use crate::ast::{BinOp, Port, UnOp};
use crate::bits::Bits;
use std::fmt;
use std::sync::Arc;

/// Identifier of a single state element (a scalar register or one array
/// element) in the flattened register space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegId(pub u32);

/// Identifier of a declared symbol (a scalar register or a whole array).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymId(pub u32);

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A declared symbol after flattening.
#[derive(Debug, Clone, PartialEq)]
pub struct SymInfo {
    /// Source name.
    pub name: String,
    /// Element width in bits.
    pub width: u32,
    /// First element in the flattened register space.
    pub base: RegId,
    /// Number of elements (1 for scalars).
    pub len: u32,
}

impl SymInfo {
    /// True if this symbol is a scalar register.
    pub fn is_scalar(&self) -> bool {
        self.len == 1
    }

    /// The flattened ids of all elements of this symbol.
    pub fn elems(&self) -> impl Iterator<Item = RegId> + '_ {
        (self.base.0..self.base.0 + self.len).map(RegId)
    }
}

/// One element of the flattened register space.
#[derive(Debug, Clone, PartialEq)]
pub struct RegInfo {
    /// Diagnostic name (`rf[3]` style for array elements).
    pub name: String,
    /// Width in bits.
    pub width: u32,
    /// Initial (reset) value.
    pub init: Bits,
    /// The symbol this element belongs to.
    pub sym: SymId,
}

/// A typed expression. The `w` field of every variant is the result width.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TExpr {
    /// Constant.
    Const {
        /// Result width.
        w: u32,
        /// Value.
        v: Bits,
    },
    /// Local variable (frame slot).
    Var {
        /// Result width.
        w: u32,
        /// Frame slot index.
        slot: u16,
    },
    /// Scalar register read.
    Read {
        /// Result width.
        w: u32,
        /// Port.
        port: Port,
        /// Register element.
        reg: RegId,
    },
    /// Dynamically-indexed array read. `len` is a power of two and the index
    /// is taken modulo `len`.
    ReadArr {
        /// Result width.
        w: u32,
        /// Port.
        port: Port,
        /// First element of the array.
        base: RegId,
        /// Array length (power of two).
        len: u32,
        /// Index expression.
        idx: Box<TExpr>,
    },
    /// Unary operator application.
    Un {
        /// Result width.
        w: u32,
        /// Operator.
        op: UnOp,
        /// Operand.
        a: Box<TExpr>,
    },
    /// Binary operator application.
    Bin {
        /// Result width.
        w: u32,
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: Box<TExpr>,
        /// Right operand.
        b: Box<TExpr>,
    },
    /// Pure mux (arms verified read-free by the checker).
    Select {
        /// Result width.
        w: u32,
        /// 1-bit condition.
        c: Box<TExpr>,
        /// Value when the condition is 1.
        t: Box<TExpr>,
        /// Value when the condition is 0.
        f: Box<TExpr>,
    },
}

impl TExpr {
    /// The width of the value this expression produces.
    pub fn width(&self) -> u32 {
        match self {
            TExpr::Const { w, .. }
            | TExpr::Var { w, .. }
            | TExpr::Read { w, .. }
            | TExpr::ReadArr { w, .. }
            | TExpr::Un { w, .. }
            | TExpr::Bin { w, .. }
            | TExpr::Select { w, .. } => *w,
        }
    }
}

/// A typed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum TAction {
    /// Evaluate and store into a frame slot (covers both `Let` and `Assign`).
    Let {
        /// Destination slot.
        slot: u16,
        /// Value.
        e: TExpr,
    },
    /// Scalar register write.
    Write {
        /// Port.
        port: Port,
        /// Register element.
        reg: RegId,
        /// Value written.
        e: TExpr,
    },
    /// Dynamically-indexed array write.
    WriteArr {
        /// Port.
        port: Port,
        /// First element of the array.
        base: RegId,
        /// Array length (power of two).
        len: u32,
        /// Index expression.
        idx: TExpr,
        /// Value written.
        e: TExpr,
    },
    /// Conditional.
    If {
        /// 1-bit condition.
        c: TExpr,
        /// Taken when the condition is 1.
        t: Vec<TAction>,
        /// Taken when the condition is 0.
        f: Vec<TAction>,
    },
    /// Explicit rule abort.
    Abort,
    /// Labeled block (coverage / codegen anchor).
    Named {
        /// Label.
        label: String,
        /// Body.
        body: Vec<TAction>,
    },
}

/// A typed rule.
#[derive(Debug, Clone, PartialEq)]
pub struct TRule {
    /// Rule name.
    pub name: String,
    /// Body.
    pub body: Vec<TAction>,
    /// Widths of the rule's local-variable frame slots.
    pub slot_widths: Vec<u32>,
}

/// A fully-checked design: the input to every backend.
///
/// The symbol table, register space and rules are shared handles: a clone
/// (one per compiled program, interpreter or simulator factory) bumps three
/// reference counts instead of copying every expression tree. Code that
/// edits a design goes through [`Arc::make_mut`], which copies only a
/// handle that is still shared. An `Arc<Vec<T>>` prints like a `Vec<T>`, so
/// the `Debug` text is that of the plain vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct TDesign {
    /// Design name.
    pub name: String,
    /// Declared symbols.
    pub syms: Arc<Vec<SymInfo>>,
    /// Flattened register space (array elements expanded).
    pub regs: Arc<Vec<RegInfo>>,
    /// Typed rules, in declaration order.
    pub rules: Arc<Vec<TRule>>,
    /// Scheduler: indices into `rules` in execution order.
    pub schedule: Vec<usize>,
}

impl TDesign {
    /// Looks up a scalar register's flattened id by name.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown — a harness bug worth failing loudly on.
    pub fn reg_id(&self, name: &str) -> RegId {
        let sym = self
            .syms
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no register named {name:?}"));
        sym.base
    }

    /// Looks up an array element's flattened id.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown or the index is out of range.
    pub fn reg_elem(&self, name: &str, idx: u32) -> RegId {
        let sym = self
            .syms
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no register named {name:?}"));
        assert!(idx < sym.len, "index {idx} out of range for {name}");
        RegId(sym.base.0 + idx)
    }

    /// Looks up a rule index by name.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn rule_index(&self, name: &str) -> usize {
        self.rules
            .iter()
            .position(|r| r.name == name)
            .unwrap_or_else(|| panic!("no rule named {name:?}"))
    }

    /// Number of elements in the flattened register space.
    pub fn num_regs(&self) -> usize {
        self.regs.len()
    }

    /// The initial values of all flattened registers.
    pub fn initial_values(&self) -> Vec<Bits> {
        self.regs.iter().map(|r| r.init.clone()).collect()
    }

    /// True if every register fits in a 64-bit word — a precondition of the
    /// optimized Cuttlesim VM and the RTL netlist simulator.
    pub fn fits_u64(&self) -> bool {
        self.regs.iter().all(|r| r.width <= 64)
    }

    /// The design's [`crate::snapshot::design_fingerprint`]: a 64-bit hash
    /// of the design name plus every register's name and width, stamped
    /// into snapshots and checked on restore.
    pub fn fingerprint(&self) -> u64 {
        crate::snapshot::design_fingerprint(
            &self.name,
            self.regs.iter().map(|r| (r.name.as_str(), r.width)),
        )
    }
}
