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
//! `fallback_rules`, so their sum always equals `cycles x schedule`; and a
//! diverging rule run re-runs between one and `lanes` lanes, so
//! `fallback_rules <= fallback_lanes <= fallback_rules x lanes`.

use cuttlesim::{toolchain_available, BatchSim, CompileOptions, Dispatch, OptLevel, Sim};
use koika::ast::*;
use koika::check::check;
use koika::design::DesignBuilder;
use koika::device::{BatchBackend, LaneAccess, RegAccess, SimBackend};
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

/// A batch's lock-step accounting after a differential run.
#[derive(Debug)]
struct Counters {
    lockstep: u64,
    fallback: u64,
    fallback_lanes: u64,
}

/// Runs `lanes` lanes of the batched engine against `lanes` independent
/// scalar VMs at the given level and dispatch. Lane 0 keeps the declared
/// initial values; lanes 1.. are perturbed (identically on both sides) so
/// the lanes diverge and the per-rule fallback path is exercised.
///
/// Returns the lock-step counters so callers can additionally assert that
/// a scenario really exercised the path it targets.
fn assert_lanes_match_scalar(
    td: &TDesign,
    level: OptLevel,
    dispatch: Dispatch,
    lanes: usize,
    cycles: usize,
    seed: u64,
) -> Counters {
    let inits: Vec<Vec<(RegId, u64)>> = (0..lanes)
        .map(|lane| {
            if lane == 0 {
                return Vec::new();
            }
            let mut rng = SplitMix64::new(seed ^ (lane as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            (0..td.num_regs())
                .map(|r| (RegId(r as u32), rng.next_u64()))
                .collect()
        })
        .collect();
    assert_seeded_lanes_match_scalar(td, level, dispatch, &inits, cycles)
}

/// [`assert_lanes_match_scalar`] with explicit per-lane register seeds:
/// lane `l` starts from the declared initial values overwritten by
/// `inits[l]`, on both sides.
fn assert_seeded_lanes_match_scalar(
    td: &TDesign,
    level: OptLevel,
    dispatch: Dispatch,
    inits: &[Vec<(RegId, u64)>],
    cycles: usize,
) -> Counters {
    let lanes = inits.len();
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
    for (lane, (scalar, init)) in scalars.iter_mut().zip(inits).enumerate() {
        for &(reg, v) in init {
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
    // dispatch, diverged or not; and each diverging rule run re-ran
    // between one and every lane.
    let counters = Counters {
        lockstep: batch.lockstep_rules(),
        fallback: batch.fallback_rules(),
        fallback_lanes: batch.fallback_lanes(),
    };
    assert_eq!(
        counters.lockstep + counters.fallback,
        cycles as u64 * batch.program().schedule.len() as u64,
        "design {:?}, {what}: lockstep + fallback must count every rule executed",
        td.name,
    );
    assert!(
        counters.fallback <= counters.fallback_lanes
            && counters.fallback_lanes <= counters.fallback * lanes as u64,
        "design {:?}, {what}: fallback lanes out of bounds: {counters:?}",
        td.name,
    );
    counters
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

/// `gated` commits when `x` is even and aborts when it is odd; `bump`
/// increments `x` every cycle, so each lane's outcome flips every cycle.
fn mixed_guards() -> TDesign {
    let mut b = DesignBuilder::new("mixed_guards");
    b.reg("x", 8, 0u64);
    b.reg("y", 8, 0u64);
    b.rule(
        "gated",
        vec![guard(rd0("x").bit(0).eq(k(1, 0))), wr0("y", rd0("x"))],
    );
    b.rule("bump", vec![wr0("x", rd0("x").add(k(8, 1)))]);
    b.schedule(["gated", "bump"]);
    check(&b.build()).expect("well-typed")
}

/// Guard-failure asymmetry: some lanes' rules abort while others commit,
/// the mixed outcome that forces the per-lane fallback path.
#[test]
fn mixed_guard_failures() {
    assert_all_levels(&mixed_guards(), 5, 48, 0xBEEF);
}

/// Lanes `0..lanes` of [`mixed_guards`], lane `l` starting with `x` odd
/// when `odd(l)`: `gated` splits the lanes by parity on every cycle.
fn parity_seeds(lanes: usize, odd: impl Fn(usize) -> bool) -> Vec<Vec<(RegId, u64)>> {
    (0..lanes)
        .map(|l| vec![(RegId(0), 2 * l as u64 + u64::from(odd(l)))])
        .collect()
}

/// One lane out of 17 dissents: the sixteen others stay in lock-step, so
/// every diverging rule run re-runs exactly the one dissenting lane.
#[test]
fn one_dissenting_lane_reruns_alone() {
    let td = collatz_like();
    let n = td.reg_id("n");
    let mut inits = vec![Vec::new(); 17];
    inits[5] = vec![(n, 27)];
    for level in OptLevel::ALL {
        let c = assert_seeded_lanes_match_scalar(&td, level, Dispatch::Tac, &inits, 64);
        assert!(c.fallback > 0, "{level}: the dissenter must diverge: {c:?}");
        assert_eq!(
            c.fallback_lanes, c.fallback,
            "{level}: only the dissenter re-runs"
        );
    }
}

/// Twelve lanes fail `gated` while five commit, then the reverse: on the
/// cycles where the kept majority fails, the dropped minority commits
/// through the scalar re-run. Either way the five re-run.
#[test]
fn failing_majority_keeps_lock_step_while_minority_commits() {
    let td = mixed_guards();
    let inits = parity_seeds(17, |l| l % 4 != 0);
    for level in OptLevel::ALL {
        let c = assert_seeded_lanes_match_scalar(&td, level, Dispatch::Tac, &inits, 32);
        assert_eq!(
            c.fallback, 32,
            "{level}: `gated` diverges every cycle: {c:?}"
        );
        assert_eq!(
            c.fallback_lanes,
            5 * c.fallback,
            "{level}: the minority re-runs"
        );
    }
}

/// An exact tie, four lanes a side, with the lowest lane on the failing
/// side: one side keeps lock-step and the other four lanes re-run.
#[test]
fn tied_split_reruns_one_side() {
    let td = mixed_guards();
    let inits = parity_seeds(8, |l| l % 2 == 0);
    for level in OptLevel::ALL {
        let c = assert_seeded_lanes_match_scalar(&td, level, Dispatch::Tac, &inits, 32);
        assert_eq!(
            c.fallback, 32,
            "{level}: `gated` diverges every cycle: {c:?}"
        );
        assert_eq!(
            c.fallback_lanes,
            4 * c.fallback,
            "{level}: one side re-runs"
        );
    }
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

/// Retiring lanes mid-run: two dissenting lanes are retired after 16
/// cycles while a third dissenter stays live. From then on the live lanes
/// still match scalar VMs, every diverging rule run re-runs only the live
/// dissenter (nothing is charged to the retired lanes), and the counters
/// still sum to `cycles x schedule`, also once every lane is retired and
/// the cycles skip the schedule.
#[test]
fn retired_lanes_leave_the_batch() {
    let td = collatz_like();
    let n = td.reg_id("n");
    let (lanes, retired, dissenter) = (17usize, [3usize, 9], 12usize);
    let mut inits = vec![Vec::new(); lanes];
    inits[retired[0]] = vec![(n, 27)];
    inits[retired[1]] = vec![(n, 7)];
    inits[dissenter] = vec![(n, 6)];
    for level in OptLevel::ALL {
        let opts = CompileOptions {
            level,
            ..CompileOptions::default()
        };
        let mut batch = BatchSim::compile_with(&td, &opts, lanes).unwrap();
        let mut scalars: Vec<Sim> =
            (0..lanes).map(|_| Sim::compile_with(&td, &opts).unwrap()).collect();
        for (lane, init) in inits.iter().enumerate() {
            for &(reg, v) in init {
                batch.lane_set64(lane, reg, v);
                scalars[lane].set64(reg, v);
            }
        }
        let mut live = vec![true; lanes];
        let mut run = |batch: &mut BatchSim, live: &[bool], cycles: usize| {
            for cycle in 0..cycles {
                batch.cycle().unwrap();
                for (lane, scalar) in scalars.iter_mut().enumerate() {
                    if !live[lane] {
                        continue;
                    }
                    let mut commits = Vec::new();
                    scalar.cycle_obs(&mut CommitRec(&mut commits));
                    assert_eq!(
                        commit_digest(batch.lane_commits(lane)),
                        commit_digest(&commits),
                        "{level}, cycle {cycle}, lane {lane}: commit digest diverged",
                    );
                    assert_eq!(
                        batch.lane_reg_values(lane),
                        scalar.reg_values(),
                        "{level}, cycle {cycle}, lane {lane}: registers diverged",
                    );
                }
            }
        };
        let schedule = batch.program().schedule.len() as u64;
        let invariant = |batch: &BatchSim| {
            assert_eq!(
                batch.lockstep_rules() + batch.fallback_rules(),
                batch.cycle_count() * schedule,
                "{level}: lockstep + fallback must count every rule executed",
            );
        };

        run(&mut batch, &live, 16);
        assert!(
            batch.fallback_lanes() > batch.fallback_rules(),
            "{level}: before retirement several dissenters re-run",
        );
        BatchBackend::retire_lane(&mut batch, retired[0]);
        batch.retire_lane(retired[1]);
        batch.retire_lane(retired[1]);
        for lane in retired {
            live[lane] = false;
        }
        let (rules, reruns) = (batch.fallback_rules(), batch.fallback_lanes());
        run(&mut batch, &live, 48);
        invariant(&batch);
        assert!(batch.fallback_rules() > rules, "{level}: the live dissenter must diverge");
        assert_eq!(
            batch.fallback_lanes() - reruns,
            batch.fallback_rules() - rules,
            "{level}: only the live dissenter re-runs",
        );

        for lane in 0..lanes {
            batch.retire_lane(lane);
        }
        let (rules, reruns) = (batch.fallback_rules(), batch.fallback_lanes());
        for _ in 0..8 {
            batch.cycle().unwrap();
        }
        assert_eq!(batch.cycle_count(), 72, "{level}: an empty batch still counts cycles");
        invariant(&batch);
        assert_eq!((batch.fallback_rules(), batch.fallback_lanes()), (rules, reruns));

        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            batch.retire_lane(lanes);
        }))
        .expect_err("retiring a lane past the end must panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"lane out of range"));
    }
}

/// Dormant lanes: every lane is retired before cycle 0 and admitted out of
/// slot order at different cycles, its registers copied from a scalar VM
/// that ran from cycle 0 with the lane's own seed. From its admission on a
/// lane matches its VM (registers, commit digest, and commits counted
/// since admission); retiring the top live lane shrinks the live span,
/// admitting a lane above it grows it, and a lane retired mid-span comes
/// back clean from the garbage its column was left with. The counters sum
/// to `cycles x schedule` after every cycle.
#[test]
fn dormant_lanes_admitted_out_of_order_match_scalar_sims() {
    let td = collatz_like();
    let n = td.reg_id("n");
    let lanes = 9usize;
    // (cycle, action, lane): admissions out of slot order, then a
    // retirement of the top live lane, a mid-span retirement and
    // re-admissions.
    #[derive(Clone, Copy, PartialEq)]
    enum Act {
        Admit,
        Retire,
    }
    let plan: [(u64, Act, usize); 14] = [
        (2, Act::Admit, 5),
        (2, Act::Admit, 2),
        (5, Act::Admit, 7),
        (9, Act::Admit, 0),
        (9, Act::Admit, 3),
        (13, Act::Admit, 8),
        (13, Act::Admit, 1),
        (17, Act::Admit, 6),
        (17, Act::Admit, 4),
        (24, Act::Retire, 8),
        (24, Act::Retire, 4),
        (30, Act::Retire, 7),
        (36, Act::Admit, 4),
        (40, Act::Admit, 8),
    ];
    for level in OptLevel::ALL {
        let opts = CompileOptions {
            level,
            ..CompileOptions::default()
        };
        let mut batch = BatchSim::compile_with(&td, &opts, lanes).unwrap();
        let mut scalars: Vec<Sim> =
            (0..lanes).map(|_| Sim::compile_with(&td, &opts).unwrap()).collect();
        for (lane, s) in scalars.iter_mut().enumerate() {
            s.set64(n, [27, 7, 6, 9, 1, 12, 27, 3, 5][lane]);
        }
        let schedule = batch.program().schedule.len() as u64;
        for lane in 0..lanes {
            BatchBackend::retire_lane(&mut batch, lane);
        }
        assert_eq!(batch.live_span(), 0, "{level}");
        let mut live = vec![false; lanes];
        let mut fired_at = vec![0u64; lanes];
        for cycle in 0..48u64 {
            for &(_, act, lane) in plan.iter().filter(|p| p.0 == cycle) {
                let span = batch.live_span();
                match act {
                    Act::Admit => {
                        for (r, v) in scalars[lane].reg_values().into_iter().enumerate() {
                            batch.lane_set64(lane, RegId(r as u32), v);
                        }
                        BatchBackend::admit_lane(&mut batch, lane);
                        fired_at[lane] = scalars[lane].rules_fired();
                        live[lane] = true;
                        assert_eq!(batch.live_span(), span.max(lane + 1), "{level}: admit {lane}");
                    }
                    Act::Retire => {
                        batch.retire_lane(lane);
                        live[lane] = false;
                        let top = live.iter().rposition(|&l| l).map_or(0, |l| l + 1);
                        assert_eq!(batch.live_span(), top, "{level}: retire {lane}");
                        if lane + 1 == span {
                            assert!(top < span, "{level}: retiring the top lane shrinks the span");
                        }
                    }
                }
            }
            batch.cycle().unwrap();
            assert_eq!(
                batch.lockstep_rules() + batch.fallback_rules(),
                batch.cycle_count() * schedule,
                "{level}, cycle {cycle}: lockstep + fallback must count every rule",
            );
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                let mut commits = Vec::new();
                scalar.cycle_obs(&mut CommitRec(&mut commits));
                if !live[lane] {
                    continue;
                }
                assert_eq!(
                    commit_digest(batch.lane_commits(lane)),
                    commit_digest(&commits),
                    "{level}, cycle {cycle}, lane {lane}: commit digest diverged",
                );
                assert_eq!(
                    batch.lane_reg_values(lane),
                    scalar.reg_values(),
                    "{level}, cycle {cycle}, lane {lane}: registers diverged",
                );
                assert_eq!(
                    batch.lane_fired(lane),
                    scalar.rules_fired() - fired_at[lane],
                    "{level}, cycle {cycle}, lane {lane}: commits since admission",
                );
            }
        }
        assert_eq!(batch.live_span(), lanes, "{level}: lane 8 came back");
        assert!(batch.fallback_rules() > 0, "{level}: the seeds must diverge");
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
        let c = assert_lanes_match_scalar(&td, OptLevel::max(), dispatch, 8, 64, 0xD1CE);
        assert!(
            c.lockstep > 0 && c.fallback > 0,
            "{}: the divergence scenario must exercise both counters ({c:?})",
            dispatch.short_name(),
        );
    }
}

/// Nested branches on bits 0 and 1 of `x`, with 16 lanes holding every
/// residue mod 4 four times: the outer branch ties 8/8 and keeps lane 0's
/// side. When lane 0's `x` is even (even cycles) the inner branch then
/// ties 4/4 among the eight active lanes — a second split that must count
/// only the active lanes — and 8 + 4 lanes re-run; on odd cycles 8 do.
#[test]
fn nested_splits_count_only_active_lanes() {
    let mut b = DesignBuilder::new("nested_splits");
    b.reg("x", 8, 0u64);
    b.reg("y", 8, 0u64);
    b.rule(
        "pick",
        vec![iff(
            rd0("x").bit(0).eq(k(1, 0)),
            vec![iff(
                rd0("x").bit(1).eq(k(1, 0)),
                vec![wr0("y", rd0("x"))],
                vec![wr0("y", rd0("x").add(k(8, 1)))],
            )],
            vec![wr0("y", rd0("x").add(k(8, 2)))],
        )],
    );
    b.rule("bump", vec![wr0("x", rd0("x").add(k(8, 1)))]);
    b.schedule(["pick", "bump"]);
    let td = check(&b.build()).expect("well-typed");
    let inits: Vec<Vec<(RegId, u64)>> = (0..16).map(|l| vec![(RegId(0), l)]).collect();
    for level in OptLevel::ALL {
        let c = assert_seeded_lanes_match_scalar(&td, level, Dispatch::Tac, &inits, 32);
        assert_eq!(
            c.fallback, 32,
            "{level}: `pick` diverges every cycle: {c:?}"
        );
        assert_eq!(
            c.fallback_lanes,
            16 * (8 + 4) + 16 * 8,
            "{level}: tie-breaks: {c:?}"
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
    fn random_designs_batched_vs_scalar(seed in any::<u64>(), lanes in 2usize..20) {
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
