//! Width-boundary differential suite: directed designs whose operand
//! widths sit at the edges of the 64-bit host word (1, 63, and 64 bits,
//! extreme concatenation splits, shift counts at and past the operand
//! width) are run cycle-by-cycle against the reference interpreter on
//! every VM optimization level, under every dispatch engine, and through
//! the batched lock-step engine.
//!
//! These are the widths where the PR-5 bugfix sweep found real bugs
//! (`ConcatShift` shifting by >= 64 without a guard or result mask,
//! `word::sra` underflowing at width 0), so the suite pins the whole
//! family of boundary cases rather than just the two that failed.

use cuttlesim::{BatchSim, CompileOptions, Dispatch, OptLevel, Sim};
use koika::ast::*;
use koika::check::check;
use koika::design::DesignBuilder;
use koika::device::{RegAccess, SimBackend};
use koika::tir::{RegId, TDesign};
use koika::Interp;

/// Cycle budget: long enough for the 8-bit shift counters to sweep well
/// past every operand width.
const CYCLES: usize = 96;

/// The batched lock-step engine: every interpreted dispatch selects the
/// micro-op interpreter, and a batch has no native engine.
const BATCH_ENGINES: [Dispatch; 1] = [Dispatch::Tac];

/// Per-cycle full-register-file trace on the reference interpreter.
fn interp_trace(td: &TDesign, cycles: usize) -> Vec<Vec<u64>> {
    let mut sim = Interp::new(td);
    let mut trace = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        sim.cycle();
        trace.push(
            (0..td.num_regs())
                .map(|r| sim.as_reg_access().get64(RegId(r as u32)))
                .collect(),
        );
    }
    trace
}

/// Checks one backend's register file against the reference trace row.
fn assert_regs(td: &TDesign, expected: &[u64], got: &mut dyn RegAccess, what: &str, cycle: usize) {
    for (r, &want) in expected.iter().enumerate() {
        assert_eq!(
            got.get64(RegId(r as u32)),
            want,
            "design {:?}, {what}, cycle {cycle}, register {} ({})",
            td.name,
            r,
            td.regs[r].name,
        );
    }
}

/// Runs a design on every `(OptLevel, Dispatch)` pair — scalar, and
/// batched on each lock-step engine — and demands bit-identical register
/// state against the reference interpreter after every cycle.
fn assert_all_backends_agree(design: &koika::Design) {
    let td = check(design).expect("boundary designs typecheck");
    let reference = interp_trace(&td, CYCLES);
    for level in OptLevel::ALL {
        let opts = CompileOptions {
            level,
            ..CompileOptions::default()
        };
        for dispatch in Dispatch::ALL {
            let mut sim = Sim::compile_with(&td, &opts).expect("boundary designs compile");
            sim.set_dispatch(dispatch);
            for (cycle, row) in reference.iter().enumerate() {
                sim.cycle();
                let what = format!("{level}/{}", dispatch.short_name());
                assert_regs(&td, row, sim.as_reg_access(), &what, cycle);
            }
        }
        for dispatch in BATCH_ENGINES {
            let lanes = 3;
            let mut batch =
                BatchSim::compile_with(&td, &opts, lanes).expect("boundary designs compile");
            batch.set_dispatch(dispatch);
            for (cycle, row) in reference.iter().enumerate() {
                batch.cycle().expect("boundary designs execute cleanly");
                for lane in 0..lanes {
                    for (r, &want) in row.iter().enumerate() {
                        assert_eq!(
                            batch.lane_get64(lane, RegId(r as u32)),
                            want,
                            "design {:?}, {level}/{}/batch lane {lane}, cycle {cycle}, \
                             register {} ({})",
                            td.name,
                            dispatch.short_name(),
                            r,
                            td.regs[r].name,
                        );
                    }
                }
            }
        }
    }

    // Batch-width sweep: the lane dimension has boundaries of its own — a
    // single lane, a width that straddles the fixed SIMD chunks, one and
    // two full 64-lane chunks. Swept at the top optimization level (the
    // level dimension is already covered at a fixed width above).
    let opts = CompileOptions {
        level: OptLevel::max(),
        ..CompileOptions::default()
    };
    for dispatch in BATCH_ENGINES {
        for lanes in [1usize, 7, 32, 64] {
            let mut batch =
                BatchSim::compile_with(&td, &opts, lanes).expect("boundary designs compile");
            batch.set_dispatch(dispatch);
            for (cycle, row) in reference.iter().enumerate() {
                batch.cycle().expect("boundary designs execute cleanly");
                for lane in 0..lanes {
                    for (r, &want) in row.iter().enumerate() {
                        assert_eq!(
                            batch.lane_get64(lane, RegId(r as u32)),
                            want,
                            "design {:?}, max/{}/batch {lanes} lanes, lane {lane}, \
                             cycle {cycle}, register {} ({})",
                            td.name,
                            dispatch.short_name(),
                            r,
                            td.regs[r].name,
                        );
                    }
                }
            }
        }
    }
}

/// Shift mill at width `w`: an 8-bit counter drives logical-right,
/// arithmetic-right, and left shifts whose counts sweep from 0 well past
/// the operand width, exercising the shift-by->=width boundary on every
/// cycle. The sra operand keeps its top bit hot half the time so sign
/// fill is actually observable.
fn shift_mill(w: u32) -> koika::Design {
    let mut b = DesignBuilder::new(format!("shift_mill_{w}"));
    b.reg("x", w, word_pattern(w));
    b.reg("s", 8, 0u64);
    b.rule(
        "mill",
        vec![
            let_("x0", rd0("x")),
            let_("s0", rd0("s")),
            wr0(
                "x",
                var("x0")
                    .shr(var("s0"))
                    .xor(var("x0").sra(var("s0")))
                    .xor(var("x0").shl(k(8, 1)))
                    .add(k(w, 1)),
            ),
            wr0("s", var("s0").add(k(8, 1))),
        ],
    );
    b.schedule(vec!["mill".to_string()]);
    b.build()
}

/// Signed-comparison mill at width `w`: two counters walk toward and past
/// each other so `slt`/`sle` cross the sign boundary repeatedly; at
/// widths 63/64 the sign bit sits at the edge of the host word.
fn signed_cmp_mill(w: u32) -> koika::Design {
    let mut b = DesignBuilder::new(format!("signed_cmp_{w}"));
    b.reg("a", w, 0u64);
    b.reg("b", w, word_pattern(w));
    b.reg("acc", w, 0u64);
    let step = if w >= 4 { 5u64 } else { 1u64 };
    b.rule(
        "cmp",
        vec![
            let_("a0", rd0("a")),
            let_("b0", rd0("b")),
            let_("acc0", rd0("acc")),
            wr0("a", var("a0").add(k(w, step))),
            wr0("b", var("b0").sub(k(w, step))),
            wr0(
                "acc",
                var("acc0")
                    .add(var("a0").slt(var("b0")).zext(w))
                    .add(var("a0").sle(var("b0")).zext(w))
                    .add(var("a0").ult(var("b0")).zext(w))
                    .add(var("a0").ule(var("b0")).zext(w)),
            ),
        ],
    );
    b.schedule(vec!["cmp".to_string()]);
    b.build()
}

/// Concatenation with an extreme split: a `high`-bit register over a
/// `low`-bit register, both mutating every cycle. `low` of 63 puts the
/// lowered `ConcatShift` one bit from the 64-bit guard; 1 puts it at the
/// other end.
fn concat_split(high: u32, low: u32) -> koika::Design {
    let w = high + low;
    let mut b = DesignBuilder::new(format!("concat_{high}_{low}"));
    b.reg("h", high, word_pattern(high));
    b.reg("l", low, word_pattern(low));
    b.reg("out", w, 0u64);
    b.rule(
        "cat",
        vec![
            let_("h0", rd0("h")),
            let_("l0", rd0("l")),
            wr0("out", var("h0").concat(var("l0"))),
            wr0("h", var("h0").add(k(high, 1))),
            wr0("l", var("l0").sub(k(low, 1))),
        ],
    );
    b.schedule(vec!["cat".to_string()]);
    b.build()
}

/// Slice/sign-extension boundaries on a churning 64-bit value: the top
/// bit alone, a 1-bit slice sign-extended to 64, and a 63-bit slice.
fn slice_sext_mill() -> koika::Design {
    let mut b = DesignBuilder::new("slice_sext_64");
    b.reg("x", 64, 0x8421_8421_8421_8421u64);
    b.reg("top", 1, 0u64);
    b.reg("wide", 64, 0u64);
    b.reg("low63", 63, 0u64);
    b.rule(
        "mill",
        vec![
            let_("x0", rd0("x")),
            wr0("top", var("x0").slice(63, 1)),
            wr0("wide", var("x0").slice(63, 1).sext(64)),
            wr0("low63", var("x0").slice(0, 63)),
            wr0("x", var("x0").mul(k(64, 0x9e37_79b9)).add(k(64, 0x7f4a_7c15))),
        ],
    );
    b.schedule(vec!["mill".to_string()]);
    b.build()
}

/// A dense init pattern for any width (alternating bits, top bit set).
fn word_pattern(w: u32) -> u64 {
    let base = 0xAAAA_AAAA_AAAA_AAAAu64 | 1;
    if w >= 64 {
        base
    } else {
        (base | (1 << (w - 1))) & ((1u64 << w) - 1)
    }
}

#[test]
fn shift_mills_agree_at_boundary_widths() {
    for w in [1, 63, 64] {
        assert_all_backends_agree(&shift_mill(w));
    }
}

#[test]
fn signed_comparison_agrees_at_boundary_widths() {
    for w in [1, 63, 64] {
        assert_all_backends_agree(&signed_cmp_mill(w));
    }
}

#[test]
fn extreme_concat_splits_agree() {
    for (high, low) in [(1, 63), (63, 1), (1, 1), (32, 32), (13, 51)] {
        assert_all_backends_agree(&concat_split(high, low));
    }
}

#[test]
fn slice_and_sext_boundaries_agree() {
    assert_all_backends_agree(&slice_sext_mill());
}
