//! The bytecode instruction set of the Cuttlesim VM.
//!
//! The paper's Cuttlesim emits C++ and leans on gcc/clang for final code
//! generation. Offline Rust has no practical compile-and-load path, so our
//! Cuttlesim lowers typed rules to this dense bytecode instead; the
//! *instruction selection* is where the optimization ladder lives (checked
//! vs. unchecked register accesses, rollback-free aborts). A stack machine
//! over `u64` words keeps the interpreter loop small and branch-predictable.
//!
//! All values are kept masked to their widths; instructions carry the masks
//! they need.

/// Operator kinds usable in the fused operand-load instructions
/// ([`Insn::BinRC`] and friends), produced by the peephole pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusedBin {
    /// Wrapping addition (masked).
    Add,
    /// Wrapping subtraction (masked).
    Sub,
    /// Wrapping multiplication (masked).
    Mul,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (masked).
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right at width `mask.count_ones()`.
    Sra,
    /// Equality.
    Eq,
    /// Disequality.
    Ne,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Signed less-than at width `mask.count_ones()`.
    Slt,
    /// Signed less-or-equal at width `mask.count_ones()`.
    Sle,
    /// Concatenation: `a` shifted above the `low`-bit value `b`, masked.
    /// The low width is carried here (not in the `mask` field, which is the
    /// result mask like for every other operator) so a zero-width high half
    /// (`low == 64`) can be guarded instead of overflowing the shift.
    Concat {
        /// Width of the low operand; values `>= 64` all mean "result is `b`".
        low: u8,
    },
}

/// A single VM instruction. Kept `Copy` and small — the interpreter loop
/// reads these from a flat array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Insn {
    /// Push a constant.
    Const(u64),
    /// Push a local-variable slot.
    Local(u16),
    /// Pop into a local-variable slot.
    SetLocal(u16),

    /// Pop `b`, `a`; push `(a + b) & mask`.
    Add { /// Result mask.
        mask: u64 },
    /// Pop `b`, `a`; push `(a - b) & mask`.
    Sub { /// Result mask.
        mask: u64 },
    /// Pop `b`, `a`; push `(a * b) & mask`.
    Mul { /// Result mask.
        mask: u64 },
    /// Pop `b`, `a`; push `a & b`.
    And,
    /// Pop `b`, `a`; push `a | b`.
    Or,
    /// Pop `b`, `a`; push `a ^ b`.
    Xor,
    /// Pop `sh`, `a`; push `(a << sh) & mask` (0 for `sh >= 64`).
    Shl { /// Result mask.
        mask: u64 },
    /// Pop `sh`, `a`; push `a >> sh` (0 for `sh >= 64`).
    Shr,
    /// Pop `sh`, `a`; push the arithmetic shift of the `width`-bit value.
    Sra { /// Operand width.
        width: u32 },
    /// Pop `b`, `a`; push `a == b`.
    Eq,
    /// Pop `b`, `a`; push `a != b`.
    Ne,
    /// Pop `b`, `a`; push unsigned `a < b`.
    Ult,
    /// Pop `b`, `a`; push unsigned `a <= b`.
    Ule,
    /// Pop `b`, `a`; push signed `a < b` at `width` bits.
    Slt { /// Operand width.
        width: u32 },
    /// Pop `b`, `a`; push signed `a <= b` at `width` bits.
    Sle { /// Operand width.
        width: u32 },
    /// Pop `b`, `a`; push the concatenation `{a, b}` masked to the combined
    /// width: `((a << low_width) | b) & mask`, with `low_width >= 64`
    /// (zero-width high half) yielding `b & mask` instead of an overflowing
    /// shift.
    ConcatShift { /// Width of the low operand.
        low_width: u32, /// Result mask (combined width).
        mask: u64 },

    /// Pop `a`; push `!a & mask`.
    Not { /// Result mask.
        mask: u64 },
    /// Pop `a`; push two's-complement negation masked to `mask`.
    Neg { /// Result mask.
        mask: u64 },
    /// Pop `a`; push `a & mask` (zero-extension/truncation).
    Mask { /// Result mask.
        mask: u64 },
    /// Pop `a`; push the sign extension of the `from`-bit value, masked to
    /// `mask`.
    Sext { /// Source width.
        from: u32, /// Result mask.
        mask: u64 },
    /// Pop `a`; push `(a >> lo) & mask`.
    Slice { /// First extracted bit.
        lo: u32, /// Result mask.
        mask: u64 },
    /// Pop `f`, `t`, `c`; push `if c != 0 { t } else { f }`.
    Select,

    /// Checked read at port 0 (level-dependent check; may abort the rule).
    Rd0 { /// Flat register index.
        reg: u32, /// True if no write can precede this op (rollback-free failure).
        clean: bool },
    /// Checked read at port 1.
    Rd1 { /// Flat register index.
        reg: u32, /// Rollback-free failure?
        clean: bool },
    /// Checked write at port 0 (pops the value).
    Wr0 { /// Flat register index.
        reg: u32, /// Rollback-free failure?
        clean: bool },
    /// Checked write at port 1 (pops the value).
    Wr1 { /// Flat register index.
        reg: u32, /// Rollback-free failure?
        clean: bool },
    /// Unchecked read at port 0 of a *safe* register (§3.3).
    Rd0Fast { /// Flat register index.
        reg: u32 },
    /// Unchecked read at port 1 of a *safe* register.
    Rd1Fast { /// Flat register index.
        reg: u32 },
    /// Unchecked write at port 0 of a *safe* register (pops the value).
    Wr0Fast { /// Flat register index.
        reg: u32 },
    /// Unchecked write at port 1 of a *safe* register (pops the value).
    Wr1Fast { /// Flat register index.
        reg: u32 },

    /// Pop the index; perform a checked array-element read at port 0.
    Rd0Arr { /// First element.
        base: u32, /// Index mask (`len - 1`).
        mask: u32, /// Rollback-free failure?
        clean: bool },
    /// Pop the index; checked array read at port 1.
    Rd1Arr { /// First element.
        base: u32, /// Index mask.
        mask: u32, /// Rollback-free failure?
        clean: bool },
    /// Pop the value then the index; checked array write at port 0.
    Wr0Arr { /// First element.
        base: u32, /// Index mask.
        mask: u32, /// Rollback-free failure?
        clean: bool },
    /// Pop the value then the index; checked array write at port 1.
    Wr1Arr { /// First element.
        base: u32, /// Index mask.
        mask: u32, /// Rollback-free failure?
        clean: bool },
    /// Pop the index; unchecked safe array read at port 0.
    Rd0ArrFast { /// First element.
        base: u32, /// Index mask.
        mask: u32 },
    /// Pop the index; unchecked safe array read at port 1.
    Rd1ArrFast { /// First element.
        base: u32, /// Index mask.
        mask: u32 },
    /// Pop the value then index; unchecked safe array write at port 0.
    Wr0ArrFast { /// First element.
        base: u32, /// Index mask.
        mask: u32 },
    /// Pop the value then index; unchecked safe array write at port 1.
    Wr1ArrFast { /// First element.
        base: u32, /// Index mask.
        mask: u32 },

    /// Fused: push `op(pop(), rhs)` for a constant right operand
    /// (peephole-combined `Const`+binop).
    BinRC {
        /// Operator.
        op: FusedBin,
        /// Constant right operand.
        rhs: u64,
        /// Result mask (for width-sensitive ops the width is
        /// `mask.count_ones()`).
        mask: u64,
    },
    /// Fused: push `op(pop(), locals[rhs_slot])`.
    BinRL {
        /// Operator.
        op: FusedBin,
        /// Right operand's local slot.
        rhs_slot: u16,
        /// Result mask.
        mask: u64,
    },
    /// Fused: push `op(locals[a_slot], locals[b_slot])` — no pops at all.
    BinLL {
        /// Operator.
        op: FusedBin,
        /// Left operand's local slot.
        a_slot: u16,
        /// Right operand's local slot.
        b_slot: u16,
        /// Result mask.
        mask: u64,
    },
    /// Fused: push `op(locals[a_slot], rhs)`.
    BinLC {
        /// Operator.
        op: FusedBin,
        /// Left operand's local slot.
        a_slot: u16,
        /// Constant right operand.
        rhs: u64,
        /// Result mask.
        mask: u64,
    },

    /// Fused: extract `[lo, lo+from)` then sign-extend from `from` bits,
    /// masked to `mask` (a peephole-combined `Slice`+`Sext`).
    SliceSext {
        /// First extracted bit.
        lo: u32,
        /// Width of the extracted (pre-extension) value.
        from: u32,
        /// Result mask.
        mask: u64,
    },

    /// Fused: `locals[slot] = log_data[reg]` (a safe-register read bound
    /// directly to a local, bypassing the stack).
    LdFast {
        /// Flat register index.
        reg: u32,
        /// Destination slot.
        slot: u16,
    },
    /// Fused: `log_data[reg] = locals[slot]` (a safe-register write fed
    /// directly from a local).
    StFast {
        /// Flat register index.
        reg: u32,
        /// Source slot.
        slot: u16,
    },
    /// Fused: `locals[slot] = imm`.
    SetLocalK {
        /// Destination slot.
        slot: u16,
        /// Constant.
        imm: u64,
    },

    /// Unconditional jump to an instruction index.
    Jmp(u32),
    /// Pop a condition; jump if it is zero.
    Jz(u32),
    /// Abort the rule with a rollback.
    Abort,
    /// Abort the rule without a rollback (no writes can have happened).
    AbortClean,
    /// Bump a coverage counter (present only in coverage builds).
    Cov(u32),
    /// Successful end of the rule (commit).
    End,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insn_is_small() {
        // The interpreter loop streams these; keep them at most 24 bytes
        // (the fused variants carry an operand constant plus a mask).
        assert!(std::mem::size_of::<Insn>() <= 24);
    }
}
