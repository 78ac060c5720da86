//! Integration tests for the resilience layer: snapshot/restore across all
//! three backends, seeded fault-injection campaigns with golden-run
//! classification, watchdog enforcement, and deterministic replay — at the
//! library level and through the `koika-sim` CLI.
//!
//! Golden snapshots live in `tests/golden/`; regenerate with
//! `BLESS=1 cargo test --test fault_injection`.

use cuttlesim::{BatchSim, Dispatch, Sim};
use koika::ast::{guard, k, rd0, wr0};
use koika::check::check;
use koika::design::DesignBuilder;
use koika::device::{BatchBackend, Device, SimBackend};
use koika::fault::{
    replay_campaign, run_campaign_batched, run_campaign_parallel, run_watchdogged, CampaignConfig,
    CampaignReport, FaultEngine, Injection, Outcome, ParallelFactories, ParallelOptions, ReplayLog,
    Watchdog,
};
use koika::runner::RunnerConfig;
use koika::snapshot::{Snapshot, SnapshotError, StateImage};
use koika::tir::TDesign;
use koika_designs::harness::MEM_WORDS;
use koika_designs::memdev::MagicMemory;
use koika_designs::{rv32, small};
use koika_riscv::programs;
use koika_rtl::{compile as rtl_compile, RtlSim, Scheme};
use std::process::Command;

mod common;
use common::{classified_one_by_one, MakeDevices, MakeSim};
mod legacy;
use legacy::{kses_spool, version_2_ksnap};

// ---------------------------------------------------------------------------
// Helpers.

fn collatz() -> TDesign {
    check(&small::collatz()).unwrap()
}

type BackendFactory = Box<dyn Fn(&TDesign) -> Box<dyn SimBackend> + Sync>;

/// One factory per backend, so every test below can sweep all three.
fn backends() -> Vec<(&'static str, BackendFactory)> {
    vec![
        (
            "interp",
            Box::new(|td: &TDesign| Box::new(koika::Interp::new(td)) as Box<dyn SimBackend>),
        ),
        (
            "cuttlesim",
            Box::new(|td: &TDesign| Box::new(Sim::compile(td).unwrap()) as Box<dyn SimBackend>),
        ),
        (
            "rtl",
            Box::new(|td: &TDesign| {
                Box::new(RtlSim::new(rtl_compile(td, Scheme::Dynamic).unwrap()))
                    as Box<dyn SimBackend>
            }),
        ),
    ]
}

/// The state image of a run without devices.
fn image(snap: Snapshot) -> StateImage {
    StateImage {
        snap,
        devices: Vec::new(),
    }
}

fn run_plain(sim: &mut dyn SimBackend, cycles: u64) {
    for _ in 0..cycles {
        sim.cycle();
    }
}

fn golden_check(path: &str, actual: &str) {
    let full = format!("{}/tests/golden/{path}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&full, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&full)
        .unwrap_or_else(|e| panic!("missing golden file {full}: {e} (run with BLESS=1)"));
    assert_eq!(
        actual, expected,
        "{path} drifted from its golden snapshot; run with BLESS=1 to regenerate"
    );
}

fn koika_sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_koika_sim"))
}

// ---------------------------------------------------------------------------
// Snapshot / restore.

#[test]
fn snapshot_restore_round_trips_on_all_three_backends() {
    let td = collatz();
    for (name, make) in backends() {
        // Reference: 64 uninterrupted cycles.
        let mut straight = make(&td);
        run_plain(&mut *straight, 64);
        let want = straight.snapshot();

        // Same run, interrupted at cycle 40 by a snapshot/restore cycle
        // into a *fresh* simulator.
        let mut first = make(&td);
        run_plain(&mut *first, 40);
        let snap = first.snapshot();
        assert_eq!(snap.cycles, 40);
        let mut resumed = make(&td);
        resumed.restore(&snap).unwrap();
        run_plain(&mut *resumed, 24);
        let got = resumed.snapshot();

        assert_eq!(got, want, "snapshot round-trip diverged on {name}");
        assert_eq!(image(got).to_bytes(), image(want).to_bytes(), "binary form differs on {name}");
    }
}

#[test]
fn snapshots_are_portable_across_backends() {
    let td = collatz();
    // Capture interpreter state mid-run...
    let mut interp = koika::Interp::new(&td);
    run_plain(&mut interp, 32);
    let snap = interp.snapshot();
    run_plain(&mut interp, 32);
    let want = interp.snapshot();

    // ...and resume it on every other backend: identical final state and
    // commit counters.
    for (name, make) in backends() {
        let mut sim = make(&td);
        sim.restore(&snap).unwrap();
        run_plain(&mut *sim, 32);
        assert_eq!(
            sim.snapshot(),
            want,
            "interp state resumed on {name} must match interp's own continuation"
        );
    }
}

#[test]
fn restore_rejects_mismatched_designs_and_corrupt_bytes() {
    let td = collatz();
    let other = check(&small::fir()).unwrap();
    let mut sim = koika::Interp::new(&td);
    run_plain(&mut sim, 8);
    let snap = sim.snapshot();

    let mut wrong = koika::Interp::new(&other);
    assert!(matches!(
        wrong.restore(&snap),
        Err(SnapshotError::DesignMismatch { .. })
    ));

    let mut bytes = image(snap).to_bytes();
    bytes.truncate(bytes.len() - 3);
    assert_eq!(StateImage::from_bytes(&bytes), Err(SnapshotError::Truncated));
}

// ---------------------------------------------------------------------------
// Campaigns and classification.

fn compiled_sim(td: &TDesign) -> Box<dyn SimBackend> {
    Box::new(Sim::compile(td).unwrap())
}

/// `cfg` on the worker pool at `jobs` workers.
fn parallel_campaign(
    td: &TDesign,
    make_sim: MakeSim<'_>,
    make_devices: MakeDevices<'_>,
    cfg: &CampaignConfig,
    jobs: usize,
) -> CampaignReport {
    let make_sim = || Ok(make_sim());
    let env = ParallelFactories {
        td,
        make_sim: &make_sim,
        make_devices,
    };
    let opts = ParallelOptions {
        runner: RunnerConfig::with_jobs(jobs),
        wall_budget: None,
    };
    run_campaign_parallel(&env, cfg, &opts, None).unwrap().0
}

fn no_devices() -> Vec<Box<dyn Device>> {
    Vec::new()
}

#[test]
fn collatz_campaign_summary_matches_golden_and_is_reproducible() {
    let td = collatz();
    let make_sim = || compiled_sim(&td);
    let cfg = CampaignConfig {
        seed: 0xC0FFEE,
        members: 40,
        cycles: 64,
        max_injections: 3,
        stall_cycles: 32,
    };
    let a = parallel_campaign(&td, &make_sim, &no_devices, &cfg, 1);
    let b = parallel_campaign(&td, &make_sim, &no_devices, &cfg, 2);
    assert_eq!(a.summary(), b.summary(), "campaign must be deterministic");
    assert_eq!(a.counts().iter().sum::<usize>(), 40, "every member classified");
    golden_check("collatz_campaign.txt", &a.summary());
}

#[test]
fn campaigns_agree_across_backends_on_collatz() {
    // The engine is backend-agnostic and all backends are cycle-accurate,
    // so the same seed must classify identically everywhere.
    let td = collatz();
    let cfg = CampaignConfig {
        seed: 99,
        members: 12,
        cycles: 48,
        max_injections: 2,
        stall_cycles: 24,
    };
    let mut summaries = Vec::new();
    for (name, make) in backends() {
        let make_sim = || make(&td);
        let report = parallel_campaign(&td, &make_sim, &no_devices, &cfg, 2);
        summaries.push((name, report.summary()));
    }
    let (first_name, first) = &summaries[0];
    for (name, summary) in &summaries[1..] {
        assert_eq!(
            summary, first,
            "campaign classification differs between {first_name} and {name}"
        );
    }
}

#[test]
fn watchdog_aborts_non_terminating_design_on_every_backend() {
    // A design whose only rule is guarded on a bit that is never set: it
    // commits nothing, ever. Without a watchdog this "runs" forever.
    let mut b = DesignBuilder::new("stuck");
    b.reg("go", 1, 0u64);
    b.reg("n", 8, 0u64);
    b.rule(
        "inc",
        vec![guard(rd0("go").eq(k(1, 1))), wr0("n", rd0("n").add(k(8, 1)))],
    );
    let td = check(&b.build()).unwrap();
    for (name, make) in backends() {
        let mut sim = make(&td);
        let mut devices: Vec<Box<dyn Device>> = Vec::new();
        let trip = run_watchdogged(
            &mut *sim,
            &mut devices,
            1_000_000,
            &[],
            &mut Watchdog::stall_only(16).arm(),
            None,
        )
        .expect_err("stuck design must trip the watchdog");
        assert_eq!(trip.cycle, 16, "on {name}");
        assert!(trip.reason.contains("no rule committed"), "on {name}");
    }
}

#[test]
fn hang_injections_are_caught_and_classified() {
    // A two-state machine with a 2-bit state register: states 0 and 1
    // alternate, state 2 is unreachable and no rule handles it. An SEU on
    // the state's high bit wedges the design — the watchdog must classify
    // that as a hang rather than letting the run spin.
    let mut b = DesignBuilder::new("twostate");
    b.reg("st", 2, 0u64);
    b.reg("n", 8, 0u64);
    b.rule(
        "a",
        vec![
            guard(rd0("st").eq(k(2, 0))),
            wr0("st", k(2, 1)),
            wr0("n", rd0("n").add(k(8, 1))),
        ],
    );
    b.rule(
        "b",
        vec![guard(rd0("st").eq(k(2, 1))), wr0("st", k(2, 0))],
    );
    b.schedule(["a", "b"]);
    let td = check(&b.build()).unwrap();
    let td2 = td.clone();
    let mut make_sim = move || Box::new(koika::Interp::new(&td2)) as Box<dyn SimBackend>;
    let mut make_devices = Vec::new;
    let mut engine = FaultEngine {
        td: &td,
        make_sim: &mut make_sim,
        make_devices: &mut make_devices,
    };
    let golden = engine.golden(64, 16).unwrap();
    let st = td.reg_id("st");
    let inj = Injection { cycle: 10, reg: st, bit: 1 };
    let outcome = engine.classify_injections(&[inj], 64, 16, &golden);
    assert!(matches!(outcome, Outcome::Hang { cycle: 26 }), "got {outcome}");
}

#[test]
fn replay_log_survives_text_round_trip_and_reproduces() {
    let td = collatz();
    let make_sim = || compiled_sim(&td);
    let cfg = CampaignConfig {
        seed: 5,
        members: 10,
        cycles: 48,
        max_injections: 2,
        stall_cycles: 24,
    };
    let report = parallel_campaign(&td, &make_sim, &no_devices, &cfg, 2);
    let mut engine = FaultEngine {
        td: &td,
        make_sim: &mut || make_sim(),
        make_devices: &mut no_devices,
    };
    let log = report.to_replay_log("cuttlesim", 6, "");
    let parsed = ReplayLog::from_text(&log.to_text()).unwrap();
    assert_eq!(parsed, log);
    let results = replay_campaign(&mut engine, &parsed).unwrap();
    assert_eq!(results.len(), log.members.len());
    for r in &results {
        assert!(r.reproduced, "member {} did not reproduce", r.member.index);
        assert!(
            r.minimal.is_some(),
            "member {} must shrink to a single-injection reproducer or keep \
             its own single injection",
            r.member.index
        );
    }
}

// ---------------------------------------------------------------------------
// CLI.

#[test]
fn cli_campaign_on_rv32_is_byte_for_byte_reproducible() {
    // The ISSUE's acceptance bar: a fixed-seed 100-member campaign on an
    // rv32 core, identical output across two invocations, every member
    // classified, with the watchdog catching every hang.
    let run = || {
        koika_sim()
            .args([
                "rv32i", "--cycles", "600", "--campaign", "100", "--seed", "7",
                "--stall-cycles", "64",
            ])
            .output()
            .unwrap()
    };
    let a = run();
    let b = run();
    assert!(a.status.success(), "stderr: {}", String::from_utf8_lossy(&a.stderr));
    assert_eq!(a.stdout, b.stdout, "campaign output must be reproducible");
    let text = String::from_utf8_lossy(&a.stdout);
    for class in ["masked", "sdc", "divergence", "hang"] {
        assert!(text.contains(class), "summary must report {class} counts");
    }
    // All 100 members land in exactly one class: the four percentages are
    // over the full population (counts sum printed members).
    assert!(text.contains("members=100"));
}

#[test]
fn cli_snapshot_restore_round_trips_across_backends() {
    let dir = std::env::temp_dir().join(format!("koika-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prefix = |p: &str| dir.join(p).to_str().unwrap().to_string();

    // Straight cuttlesim run of 64 cycles, snapshot at the end.
    let out = koika_sim()
        .args(["collatz", "--cycles", "64", "--snapshot-every", "64"])
        .args(["--snapshot-prefix", &prefix("straight-")])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Interp snapshot at cycle 32, resumed on the RTL backend for 32 more.
    let out = koika_sim()
        .args(["collatz", "--cycles", "32", "--backend", "interp"])
        .args(["--snapshot-every", "32", "--snapshot-prefix", &prefix("interp-")])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = koika_sim()
        .args(["collatz", "--cycles", "32", "--backend", "rtl"])
        .args(["--restore", &prefix("interp-00000032.ksnap")])
        .args(["--snapshot-every", "64", "--snapshot-prefix", &prefix("rtl-")])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let straight = std::fs::read(prefix("straight-00000064.ksnap")).unwrap();
    let resumed = std::fs::read(prefix("rtl-00000064.ksnap")).unwrap();
    assert_eq!(
        straight, resumed,
        "interp snapshot resumed on rtl must land byte-identical to a \
         straight cuttlesim run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_record_and_replay_reproduce_every_failing_member() {
    let dir = std::env::temp_dir().join(format!("koika-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("campaign.replay");
    let log = log.to_str().unwrap();

    let out = koika_sim()
        .args(["collatz", "--cycles", "64", "--campaign", "20", "--seed", "42"])
        .args(["--record", log])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let out = koika_sim().args(["collatz", "--replay", log]).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "replay failed\nstdout: {text}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("reproduced"));
    assert!(
        text.contains("minimal reproducer"),
        "replay must shrink failures to single-injection reproducers"
    );
    assert!(!text.contains("NOT reproduced"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_replay_refuses_a_log_with_a_bad_level() {
    let dir = std::env::temp_dir().join(format!("koika-replay-level-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("campaign.replay");
    let out = koika_sim()
        .args(["collatz", "--cycles", "64", "--campaign", "20", "--seed", "42", "--record"])
        .arg(&log)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let recorded = std::fs::read_to_string(&log).unwrap();
    assert!(recorded.contains("\nlevel 6\n"), "{recorded}");

    // A level outside 1..6 is a malformed log: exit 1, naming the level
    // and the file, and nothing replays.
    for level in [9, 0] {
        let edited = dir.join(format!("level-{level}.replay"));
        std::fs::write(&edited, recorded.replace("\nlevel 6\n", &format!("\nlevel {level}\n"))).unwrap();
        let out = koika_sim().arg("collatz").arg("--replay").arg(&edited).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "level {level}: {err}");
        assert!(err.contains(&format!("level {level}")), "{err}");
        assert!(err.contains(edited.to_str().unwrap()), "{err}");
        assert!(out.stdout.is_empty(), "level {level} must not replay");
    }

    let out = koika_sim().arg("collatz").arg("--replay").arg(&log).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "unedited log: {text}");
    assert!(text.contains("reproduced") && !text.contains("NOT reproduced"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_watchdog_trips_with_exit_3_and_state_dump() {
    let out = koika_sim()
        .args(["collatz", "--cycles", "100", "--max-cycles", "50"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "watchdog trip must exit 3");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("watchdog trip at cycle 50"));
    assert!(err.contains("cycle budget of 50 exhausted"));
    // The state dump is the snapshot's JSON debug form.
    assert!(err.contains("\"format\": \"ksnp\""), "stderr: {err}");
    assert!(err.contains("\"cycles\": 50"));
}

#[test]
fn cli_single_injection_is_classified_against_golden() {
    let out = koika_sim()
        .args(["collatz", "--cycles", "64", "--inject", "10:x:3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("injected SEU 10:x:3"));
    assert!(text.contains("injection outcome: sdc"), "stdout: {text}");
}

#[test]
fn cli_run_transcript_and_snapshots_are_identical_on_every_backend() {
    // One injected, watched, watchdogged run that writes snapshots every
    // 32 cycles, the last on the cycle where the budget trips. Its stdout
    // (wall-time line dropped, snapshot prefix normalised) is checked in,
    // and every backend must write the same snapshot bytes.
    let mut matrix = vec![
        vec!["--backend", "interp"],
        vec!["--backend", "rtl"],
        vec!["--backend", "rtl-static"],
        vec!["--dispatch", "match"],
        vec!["--dispatch", "tac"],
    ];
    if cuttlesim::toolchain_available() {
        matrix.push(vec!["--dispatch", "native"]);
    } else {
        eprintln!("SKIP: no rustc toolchain; native dispatch row excluded from the run transcript matrix");
    }
    let dir = std::env::temp_dir().join(format!("koika-run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut reference: Option<Vec<Vec<u8>>> = None;
    for (i, flags) in matrix.iter().enumerate() {
        let prefix = dir.join(format!("{i}-s-")).to_str().unwrap().to_string();
        let out = koika_sim()
            .arg("collatz")
            .args(flags)
            .args(["--cycles", "120", "--inject", "10:x:3", "--watch", "x"])
            .args(["--max-cycles", "96", "--snapshot-every", "32"])
            .args(["--snapshot-prefix", &prefix])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(3), "{flags:?}: the cycle budget must trip");
        let transcript: String = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.contains("cycles/s"))
            .map(|l| l.replace(&prefix, "<prefix>") + "\n")
            .collect();
        golden_check("collatz_run.txt", &transcript);
        let snaps: Vec<Vec<u8>> = [32, 64, 96]
            .iter()
            .map(|c| std::fs::read(format!("{prefix}{c:08}.ksnap")).unwrap())
            .collect();
        match &reference {
            None => reference = Some(snaps),
            Some(want) => assert!(*want == snaps, "{flags:?}: snapshots differ from {:?}", matrix[0]),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_bad_flag_combinations_up_front_without_panicking() {
    // Every bad invocation exits 2 with a message on stderr — never a
    // panic, never exit 101.
    let cases: &[&[&str]] = &[
        &["collatz", "--record", "x.log"],
        &["collatz", "--campaign", "5", "--replay", "x.log"],
        &["collatz", "--inject", "1:x:0", "--campaign", "5"],
        &["collatz", "--inject", "1:x:0", "--trace", "8"],
        &["collatz", "--restore", "x.ksnap", "--profile"],
        &["collatz", "--watch", "nosuch"],
        &["collatz", "--inject", "1:nosuch:0"],
        &["collatz", "--inject", "1:x:99"],
        &["collatz", "--inject", "not-a-spec"],
        &["collatz", "--snapshot-every", "0"],
        &["collatz", "--stall-cycles", "0"],
        &["collatz", "--max-injections", "0"],
        &["collatz", "--cycles", "banana"],
        &["collatz", "--seed"],
        &["rv32i", "--program", "garbage"],
        &["nosuchdesign"],
        // `--dispatch` takes match, tac or native, for a design run and
        // under --fuzz alike.
        &["collatz", "--dispatch", "closure"],
        &["--fuzz", "4", "--dispatch", "closure"],
        // A batch runs the micro-op lock-step engine only, so native with
        // --batch is refused on every host, toolchain or not.
        &["collatz", "--batch", "2", "--dispatch", "native"],
        &["rv32i", "--campaign", "4", "--batch", "4", "--dispatch", "native"],
        &["--fuzz", "2", "--batch", "2", "--dispatch", "native"],
        // --serve is a design-free long-running mode: it composes with
        // pool/watchdog tuning only, and rejects every one-shot flag.
        &["--serve", "127.0.0.1:0", "--campaign", "5"],
        &["--serve", "127.0.0.1:0", "--fuzz", "4"],
        &["--serve", "127.0.0.1:0", "--debug"],
        &["--serve", "127.0.0.1:0", "--debug-script", "s.kdb"],
        &["--serve", "127.0.0.1:0", "--batch", "8"],
        &["--serve", "127.0.0.1:0", "--emit", "cpp"],
        &["--serve", "127.0.0.1:0", "--inject", "1:x:0"],
        &["--serve", "127.0.0.1:0", "--trace", "8"],
        &["--serve", "127.0.0.1:0", "--profile"],
        &["--serve", "127.0.0.1:0", "--vcd", "out.vcd"],
        &["--serve", "127.0.0.1:0", "--record", "x.log"],
        &["--serve", "127.0.0.1:0", "--replay", "x.log"],
        &["--serve", "127.0.0.1:0", "--replay-corpus", "dir"],
        &["--serve", "127.0.0.1:0", "--snapshot-every", "16"],
        &["--serve", "127.0.0.1:0", "--restore", "x.ksnap"],
        &["--serve", "127.0.0.1:0", "--watch", "pc"],
        &["--serve", "127.0.0.1:0", "--cycles", "100"],
        &["collatz", "--serve", "127.0.0.1:0"],
        &["--serve", "127.0.0.1:0", "--max-sessions", "0"],
        &["--serve", "127.0.0.1:0", "--jobs", "0"],
        // Server-only flags are meaningless in one-shot mode.
        &["collatz", "--state-dir", "d"],
        &["collatz", "--max-sessions", "4"],
        // Zero counts are refused in every mode that takes them.
        &["collatz", "--batch", "0"],
        &["collatz", "--jobs", "0"],
        &["--fuzz", "2", "--jobs", "0"],
        // Mode-bound flags outside their mode.
        &["--replay-corpus", "corpus", "--batch", "2"],
        &["collatz", "--corpus-dir", "d"],
        &["collatz", "--fuzz", "2"],
        &["--fuzz", "2", "--debug-script", "s.kdb"],
        &["collatz", "--debug", "--debug-script", "s.kdb"],
        &["collatz", "--emit", "cpp", "--campaign", "2"],
        // Flags the chosen mode never reads.
        &["collatz", "--cycles", "8", "--jobs", "2"],
        &["collatz", "--cycles", "8", "--retries", "1"],
        &["collatz", "--cycles", "8", "--seed", "5"],
        &["collatz", "--emit", "cpp", "--cycles", "8"],
        &["collatz", "--emit", "cpp", "--watch", "x"],
        &["collatz", "--emit", "cpp", "--max-cycles", "8"],
        &["rv32i", "--emit", "cpp", "--program", "nops:4"],
        &["collatz", "--campaign", "2", "--max-cycles", "8"],
        &["collatz", "--campaign", "2", "--watch", "x"],
        &["collatz", "--campaign", "2", "--snapshot-every", "4"],
        &["collatz", "--campaign", "2", "--restore", "x.ksnap"],
        &["collatz", "--campaign", "2", "--vcd", "x.vcd"],
        &["collatz", "--campaign", "2", "--perfetto", "x.json"],
        &["collatz", "--replay", "x.log", "--backend", "rtl"],
        &["collatz", "--replay", "x.log", "--level", "2"],
        &["collatz", "--replay", "x.log", "--cycles", "8"],
        &["collatz", "--replay", "x.log", "--seed", "5"],
        &["collatz", "--replay", "x.log", "--stall-cycles", "8"],
        &["collatz", "--replay", "x.log", "--metrics-json", "m.json"],
        &["collatz", "--debug-script", "s.kdb", "--seed", "5"],
        &["collatz", "--debug-script", "s.kdb", "--jobs", "2"],
        &["collatz", "--debug-script", "s.kdb", "--snapshot-prefix", "y-"],
        &["--fuzz", "1", "--backend", "rtl"],
        &["--fuzz", "1", "--level", "2"],
        &["--fuzz", "1", "--record", "f.log"],
        &["--fuzz", "1", "--max-cycles", "8"],
        &["--fuzz", "1", "--stall-cycles", "8"],
        &["--fuzz", "1", "--vcd", "f.vcd"],
        &["--replay-corpus", "corpus", "--jobs", "2"],
        &["--replay-corpus", "corpus", "--seed", "5"],
        &["--replay-corpus", "corpus", "--cycles", "8"],
        &["--replay-corpus", "corpus", "--dispatch", "tac"],
        &["--replay-corpus", "corpus", "--corpus-dir", "d"],
        &["--replay-corpus", "corpus", "--metrics-json", "m.json"],
        &["--serve", "127.0.0.1:0", "--backend", "interp"],
        &["--serve", "127.0.0.1:0", "--level", "2"],
        &["--serve", "127.0.0.1:0", "--dispatch", "tac"],
        &["--serve", "127.0.0.1:0", "--native-cache", "d"],
        &["--serve", "127.0.0.1:0", "--program", "nops:4"],
        &["--serve", "127.0.0.1:0", "--max-injections", "2"],
    ];
    for case in cases {
        let out = koika_sim().args(*case).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{case:?} must exit 2, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.is_empty(), "{case:?} must print a message");
        assert!(!err.contains("panicked"), "{case:?} panicked: {err}");
    }
}

#[test]
fn cli_accepts_every_mode_with_the_flags_it_uses() {
    // One short invocation per mode, between them passing every flag each
    // mode uses: each must exit 0, so admission never refuses a flag that
    // its mode reads.
    let dir = std::env::temp_dir().join(format!("koika-accept-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    std::fs::write(path("quit.kdb"), "step 2\nquit\n").unwrap();
    let cases: Vec<Vec<String>> = [
        vec!["fir", "--emit", "verilog", "--level", "3"],
        vec!["collatz", "--emit", "cpp", "--backend", "cuttlesim", "--dispatch", "tac"],
        vec!["collatz", "--emit", "cpp-header"],
        vec!["collatz", "--cycles", "16", "--backend", "rtl", "--vcd", &path("c.vcd")],
        vec!["collatz", "--cycles", "16", "--trace", "4", "--profile"],
        vec![
            "collatz", "--cycles", "16", "--dispatch", "tac", "--level", "2",
            "--metrics-json", &path("m.json"), "--perfetto", &path("p.json"), "--watch", "x",
            "--snapshot-every", "8", "--snapshot-prefix", &path("s-"), "--max-cycles", "100",
            "--stall-cycles", "50", "--max-wall-ms", "60000",
        ],
        vec!["collatz", "--cycles", "8", "--restore", &path("s-00000016.ksnap")],
        vec!["collatz", "--cycles", "16", "--inject", "7", "--max-injections", "2"],
        vec!["rv32i", "--cycles", "16", "--program", "nops:4", "--backend", "rtl-static"],
        vec![
            "rv32i", "--cycles", "64", "--campaign", "3", "--record", &path("r.log"),
            "--jobs", "2", "--retries", "0", "--max-wall-ms", "60000", "--max-injections", "2",
        ],
        vec!["rv32i", "--cycles", "64", "--campaign", "3", "--batch", "2", "--dispatch", "tac"],
        vec![
            "collatz", "--cycles", "32", "--campaign", "4", "--seed", "5", "--stall-cycles", "8",
            "--backend", "interp", "--metrics-json", &path("cm.json"),
        ],
        vec!["rv32i", "--replay", &path("r.log"), "--dispatch", "tac"],
        vec!["--fuzz", "2", "--cycles", "8", "--corpus-dir", &path("corpus")],
        vec![
            "--fuzz", "2", "--cycles", "8", "--seed", "3", "--jobs", "2", "--retries", "1",
            "--max-wall-ms", "60000", "--batch", "2", "--dispatch", "tac",
            "--metrics-json", &path("fm.json"),
        ],
        vec!["collatz", "--cycles", "8", "--debug-script", &path("quit.kdb"), "--max-cycles", "8"],
        vec![
            "rv32i", "--cycles", "8", "--debug-script", &path("quit.kdb"), "--dispatch", "tac",
            "--program", "primes:5", "--restore", &path("rv-00000008.ksnap"),
        ],
    ]
    .into_iter()
    .map(|c| c.into_iter().map(String::from).collect())
    .collect();
    // The rv32i debug case restores a snapshot this run writes.
    let out = koika_sim()
        .args(["rv32i", "--cycles", "8", "--program", "primes:5", "--snapshot-every", "8"])
        .args(["--snapshot-prefix", &path("rv-")])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for case in &cases {
        let out = koika_sim().args(case).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(0),
            "{case:?} must exit 0, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_reports_a_missing_toolchain_once_before_running() {
    // A fresh artifact cache and an unrunnable rustc, set on the child
    // only: every mode that builds a native simulator exits 2 with a
    // message before it runs anything (a warm cache would load without
    // rustc). `--fuzz` skips loudly, and `--emit` builds no simulator.
    let dir = std::env::temp_dir().join(format!("koika-no-rustc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    std::fs::write(path("quit.kdb"), "quit\n").unwrap();
    let out = koika_sim()
        .args(["collatz", "--cycles", "32", "--campaign", "4", "--record", &path("c.log")])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let no_rustc = |case: &[&str]| {
        koika_sim()
            .args(case)
            .args(["--dispatch", "native", "--native-cache", &path("cache")])
            .env("KOIKA_RUSTC", "/nonexistent/rustc")
            .output()
            .unwrap()
    };
    let cases: &[&[&str]] = &[
        &["collatz", "--cycles", "8"],
        &["collatz", "--cycles", "8", "--campaign", "2"],
        &["collatz", "--cycles", "8", "--debug-script", &path("quit.kdb")],
        &["collatz", "--replay", &path("c.log")],
    ];
    for case in cases {
        let out = no_rustc(case);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{case:?} must exit 2, stderr: {err}");
        assert!(err.contains("cannot select native dispatch"), "{case:?}: {err}");
        assert!(!err.contains("panicked"), "{case:?} panicked: {err}");
        assert!(out.stdout.is_empty(), "{case:?} ran before failing");
    }
    let out = no_rustc(&["--fuzz", "2"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
    assert!(err.contains("SKIP:"), "the fuzz skip must be loud: {err}");
    // Before the factory, `--emit` refused native here too (exit 2).
    let out = no_rustc(&["collatz", "--emit", "cpp"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("collatz"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_restore_rejects_wrong_design_snapshot() {
    let dir = std::env::temp_dir().join(format!("koika-wrongsnap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prefix = dir.join("c-").to_str().unwrap().to_string();
    let snap = format!("{prefix}00000016.ksnap");

    let out = koika_sim()
        .args(["collatz", "--cycles", "16", "--snapshot-every", "16"])
        .args(["--snapshot-prefix", &prefix])
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = koika_sim().args(["fir", "--restore", &snap]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("collatz"), "error must name the mismatch: {err}");
    assert!(!err.contains("panicked"));
    std::fs::remove_dir_all(&dir).ok();
}

/// The CLI's scalar engines as `(label, flags)`: interp, match and tac,
/// plus native where a rustc toolchain exists (skipped loudly otherwise).
fn cli_engines() -> Vec<(&'static str, Vec<&'static str>)> {
    let mut engines = vec![
        ("interp", vec!["--backend", "interp"]),
        ("match", vec!["--dispatch", "match"]),
        ("tac", vec!["--dispatch", "tac"]),
    ];
    if cuttlesim::toolchain_available() {
        engines.push(("native", vec!["--dispatch", "native"]));
    } else {
        eprintln!("SKIP: no rustc toolchain; the native engine was not checked");
    }
    engines
}

/// `memwalk:4` stores to memory from cycle 52 on, each pass reloading the
/// last one's stores, and halts near cycle 1,600; cycle 500 is mid-pass.
const MEMWALK: [&str; 3] = ["rv32i", "--program", "memwalk:4"];

#[test]
fn cli_restore_carries_memory_on_memwalk() {
    let dir = std::env::temp_dir().join(format!("koika-memwalk-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prefix = |p: &str| dir.join(p).to_str().unwrap().to_string();
    let mut finals = Vec::new();
    for (label, flags) in cli_engines() {
        let straight = prefix(&format!("{label}-a-"));
        let out = koika_sim()
            .args(MEMWALK)
            .args(["--cycles", "2000", "--snapshot-every", "500"])
            .args(["--snapshot-prefix", &straight])
            .args(&flags)
            .output()
            .unwrap();
        assert!(out.status.success(), "{label}: {}", String::from_utf8_lossy(&out.stderr));
        let resumed = prefix(&format!("{label}-b-"));
        let out = koika_sim()
            .args(MEMWALK)
            .args(["--cycles", "1500", "--snapshot-every", "500"])
            .args(["--restore", &format!("{straight}00000500.ksnap")])
            .args(["--snapshot-prefix", &resumed])
            .args(&flags)
            .output()
            .unwrap();
        assert!(out.status.success(), "{label}: {}", String::from_utf8_lossy(&out.stderr));
        for c in [1000, 1500, 2000] {
            let a = std::fs::read(format!("{straight}{c:08}.ksnap")).unwrap();
            let b = std::fs::read(format!("{resumed}{c:08}.ksnap")).unwrap();
            assert!(a == b, "{label}: the image restored at cycle 500 differs at cycle {c}");
        }
        finals.push(std::fs::read(format!("{resumed}00002000.ksnap")).unwrap());
    }
    assert!(finals.windows(2).all(|w| w[0] == w[1]), "engines disagree at cycle 2000");
    // The program finished on the restored memory with the right result.
    let image = StateImage::from_bytes(&finals[0]).unwrap();
    let mem = image.devices[0].as_deref().expect("the memory saves its state");
    let at = programs::RESULT_ADDR as usize;
    let result = u32::from_le_bytes(mem[at..at + 4].try_into().unwrap());
    assert_eq!(result, programs::memwalk_expected(4));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_restore_refuses_older_snapshot_formats() {
    let dir = std::env::temp_dir().join(format!("koika-oldsnap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prefix = dir.join("c-").to_str().unwrap().to_string();
    let out = koika_sim()
        .args(["collatz", "--cycles", "16", "--snapshot-every", "16"])
        .args(["--snapshot-prefix", &prefix])
        .output()
        .unwrap();
    assert!(out.status.success());
    let v3 = std::fs::read(format!("{prefix}00000016.ksnap")).unwrap();
    for (name, bytes, names) in [
        ("v2.ksnap", version_2_ksnap(&v3), "version 2"),
        ("old.kses", kses_spool(&v3), "KSES"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        let out = koika_sim()
            .args(["collatz", "--cycles", "4", "--restore", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{name}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("bad snapshot") && err.contains(names), "{name}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_batched_campaign_is_byte_identical_to_sequential_on_rv32() {
    // The batched-engine conformance bar: a fixed-seed 8-lane batched
    // campaign over the rv32i core must produce a member report that is
    // byte-for-byte the sequential report — same classifications, same
    // divergence cycles, same summary. Lanes are bit-identical to scalar
    // members, so nothing downstream can tell the engines apart.
    let base = [
        "rv32i", "--cycles", "600", "--campaign", "24", "--seed", "7",
        "--stall-cycles", "64",
    ];
    let sequential = koika_sim().args(base).output().unwrap();
    assert!(
        sequential.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&sequential.stderr)
    );
    let batched = koika_sim().args(base).args(["--batch", "8"]).output().unwrap();
    assert!(
        batched.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&batched.stderr)
    );
    assert_eq!(
        sequential.stdout, batched.stdout,
        "8-lane batched campaign must be byte-identical to the sequential run"
    );
    // And batching composes with the parallel runner without changing a byte.
    let parallel = koika_sim()
        .args(base)
        .args(["--batch", "8", "--jobs", "2"])
        .output()
        .unwrap();
    assert!(parallel.status.success());
    assert_eq!(sequential.stdout, parallel.stdout);
}

#[test]
fn cli_campaign_reports_match_pinned_from_reset_reports() {
    // Members start at golden checkpoints (scalar runners) or as dormant
    // lanes (batched), so the sequential and batched runs could share a
    // checkpoint bug and still agree with each other. The pinned
    // `tests/golden/rv32i_campaign*.txt`, the stdout of these two
    // campaigns from a build that ran every member from reset, catch
    // that. The runs go two at a time: the interpreter rows take a few
    // seconds each in a debug build.
    let campaigns: [(&str, &[&str]); 2] = [
        (
            "rv32i_campaign32_seed7.txt",
            &["rv32i", "--cycles", "2000", "--campaign", "32", "--seed", "7"],
        ),
        (
            "rv32i_campaign100_seed3_stall32.txt",
            &[
                "rv32i", "--cycles", "3000", "--campaign", "100", "--seed", "3",
                "--stall-cycles", "32",
            ],
        ),
    ];
    let mut variants: Vec<&[&str]> = vec![
        &[],
        &["--jobs", "2"],
        &["--batch", "32"],
        &["--batch", "7", "--jobs", "2"],
        &["--backend", "interp"],
    ];
    if cuttlesim::toolchain_available() {
        variants.push(&["--dispatch", "native"]);
    } else {
        eprintln!(
            "SKIP: no rustc toolchain; the native campaign reports were not compared \
             with the pinned ones"
        );
    }
    for (file, base) in campaigns {
        let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
        let pinned = std::fs::read(&path).unwrap_or_else(|e| panic!("missing {path}: {e}"));
        for pair in variants.chunks(2) {
            let children: Vec<_> = pair
                .iter()
                .map(|flags| {
                    let child = koika_sim()
                        .args(base)
                        .args(*flags)
                        .stdout(std::process::Stdio::piped())
                        .stderr(std::process::Stdio::piped())
                        .spawn()
                        .unwrap();
                    (flags, child)
                })
                .collect();
            for (flags, child) in children {
                let out = child.wait_with_output().unwrap();
                assert!(
                    out.status.success(),
                    "{file} {flags:?}: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                assert!(
                    out.stdout == pinned,
                    "{file} {flags:?}: the report differs from the pinned from-reset report:\n{}",
                    String::from_utf8_lossy(&out.stdout)
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// rv32: injected workloads behave, memory devices stay deterministic.

#[test]
fn rv32_campaign_reproduces_at_library_level() {
    let td = check(&rv32::rv32i()).unwrap();
    let program = programs::primes(10);
    let cfg = CampaignConfig {
        seed: 21,
        members: 8,
        cycles: 300,
        max_injections: 2,
        stall_cycles: 64,
    };
    let make_sim = || compiled_sim(&td);
    let make_devices = || -> Vec<Box<dyn Device>> {
        let memory = MagicMemory::new(&td, &["imem", "dmem"], &program, MEM_WORDS);
        vec![Box::new(memory)]
    };
    let a = parallel_campaign(&td, &make_sim, &make_devices, &cfg, 1);
    let b = parallel_campaign(&td, &make_sim, &make_devices, &cfg, 2);
    assert_eq!(a.summary(), b.summary());
    assert_eq!(a.counts().iter().sum::<usize>(), 8);
}

#[test]
fn batched_rv32_campaign_with_handed_over_members_matches_sequential() {
    // Lanes leave the lock-step batch once their commit stream departs
    // from the golden run's and finish on a scalar simulator restored from
    // the lane; stall-tripped lanes leave at once. This shape yields both
    // hangs and divergences, and some hand-overs happen mid-stall, so the
    // hand-over of registers, cycle count, fingerprint prefix and stall
    // count is compared member for member against each member classified
    // on its own from reset, at widths that run one lane each, leave a
    // ragged tail, and fit the campaign in one batch.
    let td = check(&rv32::rv32i()).unwrap();
    let program = programs::primes(100);
    let cfg = CampaignConfig {
        seed: 4,
        members: 16,
        cycles: 400,
        max_injections: 3,
        stall_cycles: 32,
    };
    let tac_sim = || {
        let mut sim = Sim::compile(&td).unwrap();
        sim.set_dispatch(Dispatch::Tac);
        Box::new(sim) as Box<dyn SimBackend>
    };
    let devices = || {
        vec![Box::new(MagicMemory::new(&td, &["imem", "dmem"], &program, MEM_WORDS))
            as Box<dyn Device>]
    };
    let sequential = classified_one_by_one(&td, &tac_sim, &devices, &cfg);
    let counts = sequential.counts();
    assert!(counts[2] > 0 && counts[3] > 0, "need divergences and hangs: {counts:?}");

    let make_sim = || Ok(tac_sim());
    let env = ParallelFactories {
        td: &td,
        make_sim: &make_sim,
        make_devices: &devices,
    };
    let make_batch = |lanes: usize| {
        let mut batch = BatchSim::compile(&td, lanes).map_err(|e| e.to_string())?;
        batch.set_dispatch(Dispatch::Tac);
        Ok(Box::new(batch) as Box<dyn BatchBackend>)
    };
    for width in [1usize, 7, 32] {
        for jobs in [1usize, 2] {
            let opts = ParallelOptions {
                runner: RunnerConfig::with_jobs(jobs),
                wall_budget: None,
            };
            let (report, _) =
                run_campaign_batched(&env, &make_batch, width, &cfg, &opts, None).unwrap();
            assert_eq!(report.members, sequential.members, "width {width}, jobs {jobs}");
            assert_eq!(report.summary(), sequential.summary(), "width {width}, jobs {jobs}");
        }
    }
}
