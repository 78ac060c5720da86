//! Shared run harnesses: load a program, tick the memory device, run a
//! backend until the program completes, and extract architectural state for
//! golden-model comparison.

use crate::memdev::MagicMemory;
use koika::device::{SimBackend, Span, SpanEnd};
use koika::tir::TDesign;
use koika_riscv::golden::{Exit, Golden};

/// Outcome of running a program on a core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreRun {
    /// Cycles executed until the retire target was reached (or the budget).
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Whether the retire target was reached within the cycle budget.
    pub completed: bool,
}

/// Default memory size for core runs, in 32-bit words.
pub const MEM_WORDS: usize = 4096;

/// Runs `sim` (with `mem` as its memory device) until the core with name
/// prefix `prefix` has retired `target_retired` instructions, up to
/// `max_cycles`: one [`SimBackend::run_span`] whose stop is the retire
/// counter reaching the target. The span checks the counter before each
/// cycle, so a run that reaches the target on its last budgeted cycle
/// counts as not completed.
///
/// On the native Cuttlesim dispatch the whole run stays inside the
/// compiled crate, which serves `mem`'s ports itself; on any other backend
/// it ticks `mem` and steps one cycle at a time.
pub fn run_until_retired<S: SimBackend + ?Sized>(
    sim: &mut S,
    mem: &mut MagicMemory,
    td: &TDesign,
    prefix: &str,
    target_retired: u64,
    max_cycles: u64,
) -> CoreRun {
    let retired = td.reg_id(&format!("{prefix}retired"));
    let span = Span {
        cycles: max_cycles,
        stop: Some((retired, target_retired)),
        ..Span::default()
    };
    let run = sim.run_span(span, &mut [mem]);
    CoreRun {
        cycles: run.cycles,
        retired: sim.get64(retired),
        completed: run.end == SpanEnd::Stop,
    }
}

/// Runs the golden model to completion and returns it (for its
/// architectural state and retire count).
///
/// # Panics
///
/// Panics if the program does not halt within `max_steps`.
pub fn golden_run(program: &[u32], max_steps: u64) -> Golden {
    let mut g = Golden::new(program, MEM_WORDS);
    let exit = g.run(max_steps);
    assert_eq!(exit, Exit::Halted, "golden model did not halt: {exit:?}");
    g
}

/// Extracts the core's architectural register file.
pub fn reg_file(sim: &mut dyn SimBackend, td: &TDesign, prefix: &str, nregs: u32) -> Vec<u32> {
    (0..nregs)
        .map(|i| {
            sim.as_reg_access()
                .get64(td.reg_elem(&format!("{prefix}rf"), i)) as u32
        })
        .collect()
}

/// Asserts that a finished core run matches the golden model's
/// architectural state: the register file and every memory word.
///
/// # Panics
///
/// Panics (with context) on the first divergence.
pub fn assert_matches_golden(
    sim: &mut dyn SimBackend,
    mem: &MagicMemory,
    td: &TDesign,
    prefix: &str,
    nregs: u32,
    golden: &Golden,
) {
    let rf = reg_file(sim, td, prefix, nregs);
    for (i, &v) in rf.iter().enumerate() {
        assert_eq!(
            v, golden.regs[i],
            "architectural register x{i} diverges from the golden model"
        );
    }
    for (i, &w) in mem.words().iter().enumerate() {
        assert_eq!(
            w,
            golden.load_word((i * 4) as u32),
            "memory word {i} diverges from the golden model"
        );
    }
}
