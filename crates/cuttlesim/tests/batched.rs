//! Differential tests for the batched lock-step engine: N lanes of one
//! [`BatchSim`] must be indistinguishable from N independent scalar
//! [`Sim`] runs — the same rules committing in the same order every cycle
//! (checked both as raw commit sequences and as the FNV-1a digest the
//! fault-injection campaigns fingerprint with), the same value in every
//! register, and the same per-rule commit/failure counters and
//! [`FailInfo`] — at every optimization level, on the micro-op lock-step
//! engine, even when the lanes start from divergent initial states and
//! stop sharing control flow.
//!
//! This is the oracle that licenses the batched campaign and fuzz paths:
//! if a lane is bit-identical to a scalar run, any report built from lane
//! observations is byte-identical to the sequential report.
//!
//! Every run also pins the lock-step accounting invariant: each scheduled
//! rule of each cycle increments exactly one of `lockstep_rules` or
//! `fallback_rules`, so their sum always equals `cycles x schedule`.

use cuttlesim::{toolchain_available, BatchSim, CompileOptions, Dispatch, OptLevel, Sim};
use koika::ast::*;
use koika::check::check;
use koika::design::DesignBuilder;
use koika::device::{LaneAccess, RegAccess, SimBackend};
use koika::obs::Observer;
use koika::testgen::{random_design, SplitMix64};
use koika::tir::{RegId, TDesign};
use koika::vcd::VcdRecorder;
use proptest::prelude::*;

/// Records the committed-rule sequence of one cycle.
struct CommitRec<'a>(&'a mut Vec<u32>);

impl Observer for CommitRec<'_> {
    fn rule_commit(&mut self, rule: usize) {
        self.0.push(rule as u32);
    }
}

/// The same per-cycle commit fingerprint the campaign engine uses
/// (FNV-1a over `rule + 1`).
fn commit_digest(commits: &[u32]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    commits.iter().fold(FNV_OFFSET, |cur, &rule| {
        (cur ^ u64::from(rule + 1)).wrapping_mul(FNV_PRIME)
    })
}

/// The lock-step engine, always available (every interpreted dispatch
/// selects it; a batch has no native engine).
const INTERPRETED: [Dispatch; 1] = [Dispatch::Tac];

/// Runs `lanes` lanes of the batched engine against `lanes` independent
/// scalar VMs at the given level and dispatch. Lane 0 keeps the declared
/// initial values; lanes 1.. are perturbed (identically on both sides) so
/// the lanes diverge and the per-rule fallback path is exercised.
///
/// Returns `(lockstep_rules, fallback_rules)` so callers can additionally
/// assert that a scenario really exercised the path it targets.
fn assert_lanes_match_scalar(
    td: &TDesign,
    level: OptLevel,
    dispatch: Dispatch,
    lanes: usize,
    cycles: usize,
    seed: u64,
) -> (u64, u64) {
    let opts = CompileOptions {
        level,
        ..CompileOptions::default()
    };
    let mut batch =
        BatchSim::compile_with(td, &opts, lanes).expect("test designs fit the fast path");
    batch.set_dispatch(dispatch);
    let mut scalars: Vec<Sim> = (0..lanes)
        .map(|_| {
            let mut s = Sim::compile_with(td, &opts).expect("test designs fit the fast path");
            s.set_dispatch(dispatch);
            s
        })
        .collect();
    for (lane, scalar) in scalars.iter_mut().enumerate().skip(1) {
        let mut rng = SplitMix64::new(seed ^ (lane as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for r in 0..td.num_regs() {
            let reg = RegId(r as u32);
            let v = rng.next_u64();
            batch.lane_set64(lane, reg, v);
            scalar.set64(reg, v);
        }
    }

    let what = format!("{level}/{}", dispatch.short_name());
    for cycle in 0..cycles {
        batch.cycle().expect("test designs execute cleanly");
        for (lane, scalar) in scalars.iter_mut().enumerate() {
            let mut commits = Vec::new();
            scalar.cycle_obs(&mut CommitRec(&mut commits));
            assert_eq!(
                batch.lane_commits(lane),
                commits.as_slice(),
                "design {:?}, {what}, cycle {cycle}, lane {lane}: commit sequence diverged",
                td.name,
            );
            assert_eq!(
                commit_digest(batch.lane_commits(lane)),
                commit_digest(&commits),
                "design {:?}, {what}, cycle {cycle}, lane {lane}: commit digest diverged",
                td.name,
            );
            for r in 0..td.num_regs() {
                let reg = RegId(r as u32);
                assert_eq!(
                    batch.lane_get64(lane, reg),
                    scalar.get64(reg),
                    "design {:?}, {what}, cycle {cycle}, lane {lane}, register {} ({})",
                    td.name,
                    r,
                    td.regs[r].name,
                );
            }
            assert_eq!(
                batch.lane_fired(lane),
                scalar.rules_fired(),
                "design {:?}, {what}, cycle {cycle}, lane {lane}: commit count diverged",
                td.name,
            );
        }
    }

    // The lock-step accounting invariant: every scheduled rule of every
    // cycle is accounted to exactly one of the two counters, under every
    // dispatch, diverged or not.
    let (lockstep, fallback) = (batch.lockstep_rules(), batch.fallback_rules());
    assert_eq!(
        lockstep + fallback,
        cycles as u64 * batch.program().schedule.len() as u64,
        "design {:?}, {what}: lockstep + fallback must count every rule executed",
        td.name,
    );
    (lockstep, fallback)
}

/// Every optimization level on the interpreted lock-step engine.
fn assert_all_levels(td: &TDesign, lanes: usize, cycles: usize, seed: u64) {
    for level in OptLevel::ALL {
        for dispatch in INTERPRETED {
            assert_lanes_match_scalar(td, level, dispatch, lanes, cycles, seed);
        }
    }
}

// ---------------------------------------------------------------------------
// Directed cases
// ---------------------------------------------------------------------------

/// A counter with a data-dependent branch: perturbed lanes take different
/// branches on different cycles, so lock-step execution must fall back.
fn collatz_like() -> TDesign {
    let mut b = DesignBuilder::new("lanes_diverge");
    b.reg("n", 16, 1u64);
    b.reg("odd_steps", 16, 0u64);
    b.rule(
        "step",
        vec![
            let_("n0", rd0("n")),
            iff(
                var("n0").bit(0).eq(k(1, 1)),
                vec![
                    wr0("n", var("n0").mul(k(16, 3)).add(k(16, 1))),
                    wr0("odd_steps", rd0("odd_steps").add(k(16, 1))),
                ],
                vec![wr0("n", var("n0").shr(k(4, 1)))],
            ),
        ],
    );
    b.rule(
        "restart",
        vec![
            guard(rd1("n").eq(k(16, 1))),
            wr1("n", rd0("odd_steps").add(k(16, 27))),
        ],
    );
    b.schedule(["step", "restart"]);
    check(&b.build()).expect("well-typed")
}

#[test]
fn divergent_branches_across_lanes() {
    let td = collatz_like();
    assert_all_levels(&td, 8, 64, 0xD1CE);
}

/// Guard-failure asymmetry: some lanes' rules abort while others commit,
/// the mixed outcome that forces the per-lane fallback path.
#[test]
fn mixed_guard_failures() {
    let mut b = DesignBuilder::new("mixed_guards");
    b.reg("x", 8, 0u64);
    b.reg("y", 8, 0u64);
    b.rule(
        "gated",
        vec![guard(rd0("x").bit(0).eq(k(1, 0))), wr0("y", rd0("x"))],
    );
    b.rule("bump", vec![wr0("x", rd0("x").add(k(8, 1)))]);
    b.schedule(["gated", "bump"]);
    let td = check(&b.build()).expect("well-typed");
    assert_all_levels(&td, 5, 48, 0xBEEF);
}

/// Identical lanes must stay in pure lock-step and still match scalar.
#[test]
fn identical_lanes_lockstep() {
    let mut b = DesignBuilder::new("lockstep");
    b.reg("acc", 32, 3u64);
    b.rule(
        "mix",
        vec![wr0("acc", rd0("acc").mul(k(32, 1664525)).add(k(32, 1013904223)))],
    );
    let td = check(&b.build()).expect("well-typed");
    for level in OptLevel::ALL {
        for dispatch in INTERPRETED {
            let opts = CompileOptions {
                level,
                ..CompileOptions::default()
            };
            let mut batch = BatchSim::compile_with(&td, &opts, 16).unwrap();
            batch.set_dispatch(dispatch);
            let mut scalar = Sim::compile_with(&td, &opts).unwrap();
            scalar.set_dispatch(dispatch);
            for _ in 0..32 {
                batch.cycle().unwrap();
                let mut commits = Vec::new();
                scalar.cycle_obs(&mut CommitRec(&mut commits));
                for lane in 0..16 {
                    assert_eq!(batch.lane_commits(lane), commits.as_slice());
                    assert_eq!(
                        batch.lane_get64(lane, RegId(0)),
                        scalar.get64(RegId(0)),
                        "{level}/{}: lane {lane} register 0",
                        dispatch.short_name(),
                    );
                }
            }
            assert!(
                batch.fallback_rules() == 0,
                "{level}/{}: identical lanes must never leave lock-step \
                 ({} fallbacks)",
                dispatch.short_name(),
                batch.fallback_rules()
            );
            assert_eq!(
                batch.lockstep_rules(),
                32,
                "{level}/{}: every scheduled rule must be counted as lock-step",
                dispatch.short_name(),
            );
        }
    }
}

/// A single lane is just the scalar VM with extra indexing.
#[test]
fn one_lane_degenerates_to_scalar() {
    let td = check(&random_design(42)).expect("well-typed");
    assert_all_levels(&td, 1, 32, 7);
}

/// `--batch 1` byte-identity: a single-lane batch and a scalar VM started
/// from the same state must agree on *every* observable — the commit
/// stream and the rendered VCD waveform of all registers, byte for byte —
/// against a scalar VM under every dispatch (the batch always runs its
/// one lock-step engine).
#[test]
fn batch_of_one_is_byte_identical_to_scalar() {
    let td = collatz_like();
    let dispatches = Dispatch::ALL
        .into_iter()
        .filter(|&d| d != Dispatch::Native || toolchain_available());
    for dispatch in dispatches {
        let opts = CompileOptions::default();
        let mut batch = BatchSim::compile_with(&td, &opts, 1).unwrap();
        let mut scalar = Sim::compile_with(&td, &opts).unwrap();
        scalar.set_dispatch(dispatch);
        let mut batch_vcd = VcdRecorder::all_registers(&td);
        let mut scalar_vcd = VcdRecorder::all_registers(&td);
        let cycles = 128u64;
        for cycle in 0..cycles {
            batch.cycle().unwrap();
            let mut commits = Vec::new();
            scalar.cycle_obs(&mut CommitRec(&mut commits));
            assert_eq!(
                batch.lane_commits(0),
                commits.as_slice(),
                "{}: commit stream diverged at cycle {cycle}",
                dispatch.short_name(),
            );
            scalar_vcd.sample(cycle, &scalar);
            batch_vcd.sample(cycle, &LaneAccess::new(&mut batch, 0));
        }
        assert_eq!(
            batch_vcd.finish(cycles),
            scalar_vcd.finish(cycles),
            "{}: VCD waveforms must be byte-identical",
            dispatch.short_name(),
        );
    }
}

/// The lock-step accounting invariant, pinned on its own against a design
/// that mixes all three outcomes (commit, clean failure, divergence):
/// every scheduled rule lands in exactly one counter, and this scenario
/// genuinely exercises both paths.
#[test]
fn lockstep_fallback_counters_account_for_every_rule() {
    let td = collatz_like();
    for dispatch in INTERPRETED {
        let (lockstep, fallback) =
            assert_lanes_match_scalar(&td, OptLevel::max(), dispatch, 8, 64, 0xD1CE);
        assert!(
            lockstep > 0 && fallback > 0,
            "{}: the divergence scenario must exercise both counters \
             (lockstep {lockstep}, fallback {fallback})",
            dispatch.short_name(),
        );
    }
}

// ---------------------------------------------------------------------------
// Random-design differential matrix (generator shared via koika::testgen)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// The batched matrix: random design x divergent lane inits x every
    /// optimization level on the interpreted engine, lanes bit-compared
    /// to scalar runs each cycle.
    #[test]
    fn random_designs_batched_vs_scalar(seed in any::<u64>(), lanes in 2usize..6) {
        let design = random_design(seed);
        let td = check(&design).expect("generator produces well-typed designs");
        assert_all_levels(&td, lanes, 16, seed);
    }
}

/// The checked-in corpus: seeds whose generated designs exercise rich
/// divergence patterns, replayed deterministically on every run at the
/// lowest and highest optimization levels.
#[test]
fn corpus_replays_through_the_lock_step_engine() {
    const CORPUS: [(u64, usize); 4] = [(42, 4), (0xC0FFEE, 5), (0xFEED_5EED, 3), (7, 2)];
    for (seed, lanes) in CORPUS {
        let td = check(&random_design(seed)).expect("well-typed");
        for level in [OptLevel::ALL[0], OptLevel::max()] {
            for dispatch in INTERPRETED {
                assert_lanes_match_scalar(&td, level, dispatch, lanes, 24, seed);
            }
        }
    }
}
