//! Benchmark programs for the RV32 cores, matching the character of the
//! paper's workloads: "a simple integer arithmetic benchmark" (trial-
//! division prime counting) for the performance figures, 100 NOPs for the
//! performance-debugging case study, and a branch-heavy kernel for the
//! branch-prediction case study; plus a kernel that keeps its working
//! state in data memory, for checking that saved states carry it.
//!
//! Every program halts with `jal x0, 0` and leaves its result in `a0`
//! (x10), which the harness also mirrors to memory word
//! [`RESULT_ADDR`] so it can be observed through the memory device.

use crate::asm::assemble;

/// Memory address (bytes) where programs store their final result.
pub const RESULT_ADDR: u32 = 0x400;

/// Counts primes below `limit` by trial division — the "primes" benchmark
/// the paper runs on every core variant. The result lands in `a0` and in
/// memory at `result_addr`.
///
/// Only registers `x0`..`x15` are used, so the program runs unmodified on
/// the RV32E core.
pub fn primes_at(limit: u32, result_addr: u32) -> Vec<u32> {
    assemble(&format!(
        "
        li   s0, {limit}      # limit
        li   s1, 2            # candidate n
        li   a1, 0            # prime count
    next_candidate:
        bge  s1, s0, done
        li   t0, 2            # divisor d
    try_divisor:
        # no MUL in RV32I: test d*d > n with a shift-add multiply
        mv   t1, t0           # multiplicand
        mv   t2, t0           # multiplier
        li   a2, 0            # product
    mul_loop:
        andi a3, t2, 1
        beqz a3, mul_skip
        add  a2, a2, t1
    mul_skip:
        slli t1, t1, 1
        srli t2, t2, 1
        bnez t2, mul_loop
        bgt  a2, s1, is_prime # d*d > n: prime
        # compute n mod d by repeated subtraction of shifted divisor
        mv   t1, s1           # remainder
    mod_outer:
        blt  t1, t0, mod_done
        mv   t2, t0           # shifted divisor
    mod_shift:
        slli a3, t2, 1
        bgt  a3, t1, mod_sub
        mv   t2, a3
        j    mod_shift
    mod_sub:
        sub  t1, t1, t2
        j    mod_outer
    mod_done:
        beqz t1, not_prime    # divides evenly: composite
        addi t0, t0, 1
        j    try_divisor
    is_prime:
        addi a1, a1, 1
    not_prime:
        addi s1, s1, 1
        j    next_candidate
    done:
        mv   a0, a1
        li   t0, {result_addr}
        sw   a0, 0(t0)
        halt
        "
    ))
    .expect("primes program assembles")
}

/// [`primes_at`] with the default [`RESULT_ADDR`].
pub fn primes(limit: u32) -> Vec<u32> {
    primes_at(limit, RESULT_ADDR)
}

/// The number of primes below `limit`, computed in Rust — the expected
/// result of [`primes`].
pub fn primes_expected(limit: u32) -> u32 {
    let mut count = 0;
    for n in 2..limit {
        let mut d = 2;
        let mut prime = true;
        while d * d <= n {
            if n % d == 0 {
                prime = false;
                break;
            }
            d += 1;
        }
        if prime {
            count += 1;
        }
    }
    count
}

/// `count` NOPs followed by a halt — the paper's case-study-3 workload
/// ("retiring 100 NOP instructions took 203 cycles").
pub fn nops(count: usize) -> Vec<u32> {
    let mut src = String::new();
    for _ in 0..count {
        src.push_str("nop\n");
    }
    src.push_str("halt\n");
    assemble(&src).expect("nop program assembles")
}

/// A branch-heavy kernel: iterates `iters` times over a loop whose body
/// takes data-dependent branches (Collatz-style parity tests), stressing
/// the branch predictor — the case-study-4 workload.
pub fn branchy(iters: u32) -> Vec<u32> {
    assemble(&format!(
        "
        li   s0, {iters}
        li   s1, 0            # accumulator
        li   a1, 27           # working value
    loop:
        andi t0, a1, 1
        beqz t0, even
        # odd: x = x + (x << 1) + 1  (3x + 1)
        slli t1, a1, 1
        add  a1, a1, t1
        addi a1, a1, 1
        addi s1, s1, 3
        j    cont
    even:
        srli a1, a1, 1
        addi s1, s1, 1
    cont:
        li   t2, 1
        bgt  a1, t2, no_reset
        li   a1, 27
    no_reset:
        addi s0, s0, -1
        bnez s0, loop
        mv   a0, s1
        li   t0, {RESULT_ADDR}
        sw   a0, 0(t0)
        halt
        "
    ))
    .expect("branchy program assembles")
}

/// `passes` passes over a 16-word array at byte address `0x800` (zero at
/// reset), each loading every word the previous pass stored and storing
/// `mem[i] * 3 + i + pass` (wrapping) back, folded into a checksum
/// (`sum * 31 + value`) left in `a0` and at [`RESULT_ADDR`]: a run restored
/// with stale memory ends with a different one. Uses only `x0`..`x15`.
pub fn memwalk(passes: u32) -> Vec<u32> {
    assemble(&format!(
        "
        li   s0, {passes}
        li   s1, 0            # pass
        li   a0, 0            # checksum
    next_pass:
        bge  s1, s0, done
        li   t0, 0x800        # &mem[i]
        li   t1, 0            # i
    next_word:
        lw   t2, 0(t0)
        slli a1, t2, 1
        add  t2, t2, a1       # mem[i] * 3
        add  t2, t2, t1
        add  t2, t2, s1
        sw   t2, 0(t0)
        slli a1, a0, 5
        sub  a0, a1, a0       # checksum * 31
        add  a0, a0, t2
        addi t0, t0, 4
        addi t1, t1, 1
        li   a2, 16
        blt  t1, a2, next_word
        addi s1, s1, 1
        j    next_pass
    done:
        li   t0, {RESULT_ADDR}
        sw   a0, 0(t0)
        halt
        "
    ))
    .expect("memwalk program assembles")
}

/// [`memwalk`]'s checksum, computed in Rust.
pub fn memwalk_expected(passes: u32) -> u32 {
    let (mut mem, mut sum) = ([0u32; 16], 0u32);
    for pass in 0..passes {
        for (i, w) in (0u32..).zip(&mut mem) {
            *w = w.wrapping_mul(3).wrapping_add(i).wrapping_add(pass);
            sum = sum.wrapping_mul(31).wrapping_add(*w);
        }
    }
    sum
}

/// Back-to-back dependent arithmetic (read-after-write hazards on every
/// instruction) — exposes missing bypass paths, the secondary finding in
/// the paper's case study 4.
pub fn dependent_chain(length: u32) -> Vec<u32> {
    let mut src = String::from("li a0, 1\n");
    for _ in 0..length {
        src.push_str("addi a0, a0, 1\n");
        src.push_str("slli t0, a0, 1\n");
        src.push_str("add  a0, a0, t0\n");
    }
    src.push_str(&format!("li t0, {RESULT_ADDR}\nsw a0, 0(t0)\nhalt\n"));
    assemble(&src).expect("dependent chain assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::{Exit, Golden};

    #[test]
    fn primes_program_counts_correctly() {
        for limit in [10u32, 30, 100] {
            let prog = primes(limit);
            let mut m = Golden::new(&prog, 1024);
            assert_eq!(m.run(2_000_000), Exit::Halted, "limit {limit}");
            assert_eq!(m.regs[10], primes_expected(limit), "limit {limit}");
            assert_eq!(m.load_word(RESULT_ADDR), primes_expected(limit));
        }
    }

    #[test]
    fn expected_primes_spot_checks() {
        assert_eq!(primes_expected(10), 4); // 2 3 5 7
        assert_eq!(primes_expected(100), 25);
    }

    #[test]
    fn nops_retire_exactly() {
        let prog = nops(100);
        let mut m = Golden::new(&prog, 256);
        assert_eq!(m.run(1000), Exit::Halted);
        assert_eq!(m.retired, 100);
    }

    #[test]
    fn branchy_halts_and_produces_result() {
        let prog = branchy(500);
        let mut m = Golden::new(&prog, 1024);
        assert_eq!(m.run(100_000), Exit::Halted);
        assert!(m.regs[10] > 0);
    }

    #[test]
    fn memwalk_matches_its_expected_checksum() {
        for passes in [0u32, 1, 5, 40] {
            let prog = memwalk(passes);
            let mut m = Golden::new(&prog, 1024);
            assert_eq!(m.run(1_000_000), Exit::Halted, "passes {passes}");
            assert_eq!(m.regs[10], memwalk_expected(passes), "passes {passes}");
            assert_eq!(m.load_word(RESULT_ADDR), memwalk_expected(passes));
        }
        // The first pass stores `i`; values wrap.
        assert_eq!(memwalk_expected(1), (0..16).fold(0u32, |s, i| s.wrapping_mul(31).wrapping_add(i)));
    }

    #[test]
    fn dependent_chain_halts() {
        let prog = dependent_chain(50);
        let mut m = Golden::new(&prog, 1024);
        assert_eq!(m.run(10_000), Exit::Halted);
    }
}
