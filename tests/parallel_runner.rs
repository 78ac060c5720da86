//! Integration tests of the crash-isolated parallel campaign runner: panic
//! containment end to end (a poisoned design panicking mid-cycle becomes a
//! triaged `panic` outcome, not a process abort), byte-identical reports
//! at any `--jobs` value, parallel/sequential agreement, and the
//! flaky-vs-hang watchdog split.

use std::process::Command;
use std::time::Duration;

use koika::check::check;
use koika::device::{Device, RegAccess, SimBackend};
use cuttlesim::BatchSim;
use koika::device::BatchBackend;
use koika::fault::{
    run_campaign_batched, run_campaign_parallel, CampaignConfig, Outcome, ParallelFactories,
    ParallelOptions,
};
use koika::runner::{JobUpdate, RunnerConfig};
use koika::snapshot::{Snapshot, SnapshotError};
use koika::tir::{RegId, TDesign};
use koika::Interp;
use koika_designs::small;

mod common;
use common::classified_one_by_one;

fn collatz() -> TDesign {
    check(&small::collatz()).unwrap()
}

fn koika_sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_koika_sim"))
}

// ---------------------------------------------------------------------------
// Panic containment.

/// A simulator that behaves like the interpreter until anything writes a
/// register from outside (an SEU injection), after which the next cycle
/// panics. The golden run never injects, so only campaign members are
/// poisoned — exactly the "design panics mid-cycle under fault" scenario.
struct PoisonedSim {
    inner: Interp,
    poisoned: bool,
}

impl RegAccess for PoisonedSim {
    fn get64(&self, reg: RegId) -> u64 {
        self.inner.get64(reg)
    }

    fn set64(&mut self, reg: RegId, value: u64) {
        self.poisoned = true;
        self.inner.set64(reg, value);
    }
}

impl SimBackend for PoisonedSim {
    fn cycle(&mut self) {
        assert!(!self.poisoned, "poisoned design: refusing to cycle");
        self.inner.cycle();
    }

    fn last_record(&self) -> (&[usize], &[u64]) {
        self.inner.last_record()
    }

    fn reg_words(&self, out: &mut Vec<u64>) {
        self.inner.reg_words(out);
    }

    fn cycle_count(&self) -> u64 {
        self.inner.cycle_count()
    }

    fn rules_fired(&self) -> u64 {
        self.inner.rules_fired()
    }

    fn snapshot(&self) -> Snapshot {
        self.inner.snapshot()
    }

    fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        self.inner.restore(snap)
    }

    fn as_reg_access(&mut self) -> &mut dyn RegAccess {
        self
    }
}

#[test]
fn mid_cycle_panics_are_triaged_not_fatal() {
    let td = collatz();
    let make_sim = || -> Result<Box<dyn SimBackend>, String> {
        Ok(Box::new(PoisonedSim {
            inner: Interp::new(&collatz()),
            poisoned: false,
        }))
    };
    let make_devices = || -> Vec<Box<dyn Device>> { Vec::new() };
    let env = ParallelFactories {
        td: &td,
        make_sim: &make_sim,
        make_devices: &make_devices,
    };
    let cfg = CampaignConfig {
        seed: 0xBAD,
        members: 8,
        cycles: 64,
        max_injections: 2,
        stall_cycles: 32,
    };
    let opts = ParallelOptions {
        runner: RunnerConfig::with_jobs(4),
        wall_budget: None,
    };

    let (report, stats) = run_campaign_parallel(&env, &cfg, &opts, None).unwrap();
    // Every member injects at least once, so every member's sim panics
    // mid-cycle — and every one is contained and classified, none aborts
    // the process or takes down its worker.
    assert_eq!(report.members.len(), 8);
    for m in &report.members {
        assert_eq!(m.outcome, Outcome::Panic, "member {}: {:?}", m.index, m);
        let detail = m.detail.as_deref().unwrap_or("");
        assert!(
            detail.contains("poisoned design"),
            "member {} detail should carry the panic message, got {detail:?}",
            m.index
        );
    }
    assert_eq!(stats.panics_contained, 8);
    assert!(report.summary().contains("panic         8"));
}

// ---------------------------------------------------------------------------
// Determinism across worker counts.

fn run_interp_campaign(
    td: &TDesign,
    cfg: &CampaignConfig,
    opts: &ParallelOptions,
    progress: Option<&mut dyn FnMut(JobUpdate)>,
) -> (koika::fault::CampaignReport, koika::runner::RunnerStats) {
    let td2 = td.clone();
    let make_sim = move || -> Result<Box<dyn SimBackend>, String> { Ok(Box::new(Interp::new(&td2))) };
    let make_devices = || -> Vec<Box<dyn Device>> { Vec::new() };
    let env = ParallelFactories {
        td,
        make_sim: &make_sim,
        make_devices: &make_devices,
    };
    run_campaign_parallel(&env, cfg, opts, progress).unwrap()
}

#[test]
fn reports_are_identical_for_any_worker_count() {
    let td = collatz();
    let cfg = CampaignConfig {
        seed: 0xC0FFEE,
        members: 24,
        cycles: 64,
        max_injections: 3,
        stall_cycles: 32,
    };
    let run = |jobs: usize| {
        let opts = ParallelOptions {
            runner: RunnerConfig::with_jobs(jobs),
            wall_budget: None,
        };
        // The runner counts members: one job, and one progress update,
        // per member.
        let mut updates = 0;
        let mut progress = |u: JobUpdate| {
            assert!(
                matches!(u, JobUpdate::Finished { total, .. } if total == cfg.members),
                "{u:?}"
            );
            updates += 1;
        };
        let (report, stats) = run_interp_campaign(&td, &cfg, &opts, Some(&mut progress));
        assert_eq!(stats.total, cfg.members, "jobs {jobs}");
        assert_eq!(updates, cfg.members, "jobs {jobs}");
        report.summary()
    };
    let seq = run(1);
    assert_eq!(seq, run(8), "--jobs 8 must match --jobs 1 byte for byte");
    assert_eq!(seq, run(3), "--jobs 3 must match --jobs 1 byte for byte");
}

#[test]
fn parallel_campaign_matches_the_sequential_engine() {
    // The sequential engine: each member classified on its own, from
    // reset, on the replay path.
    let td = collatz();
    let cfg = CampaignConfig {
        seed: 0xFEED,
        members: 16,
        cycles: 64,
        max_injections: 3,
        stall_cycles: 32,
    };

    let make_sim = || -> Box<dyn SimBackend> { Box::new(Interp::new(&collatz())) };
    let make_devices = || -> Vec<Box<dyn Device>> { Vec::new() };
    let sequential = classified_one_by_one(&td, &make_sim, &make_devices, &cfg);

    let opts = ParallelOptions {
        runner: RunnerConfig::with_jobs(4),
        wall_budget: None,
    };
    let (parallel, _) = run_interp_campaign(&td, &cfg, &opts, None);

    assert_eq!(sequential.summary(), parallel.summary());
}

// ---------------------------------------------------------------------------
// Flaky vs hang.

#[test]
fn wall_only_trips_classify_flaky_after_retries() {
    let td = collatz();
    let cfg = CampaignConfig {
        seed: 1,
        members: 3,
        cycles: 64,
        max_injections: 1,
        stall_cycles: 32,
    };
    let opts = ParallelOptions {
        runner: RunnerConfig {
            jobs: 2,
            max_retries: 1,
            backoff: Duration::from_millis(1),
            ..RunnerConfig::default()
        },
        // A zero wall budget trips on the very first observation, every
        // attempt: a pure wall-clock (machine-speed) failure.
        wall_budget: Some(Duration::ZERO),
    };
    let (report, stats) = run_interp_campaign(&td, &cfg, &opts, None);
    for m in &report.members {
        assert_eq!(
            m.outcome,
            Outcome::Flaky,
            "wall-only trips must classify flaky, not hang (member {})",
            m.index
        );
    }
    // Each member got its one retry before being declared flaky.
    assert_eq!(stats.retries, 3);

    // The batched runner shares one budget per chunk: a lane handed over
    // to a scalar simulator finishes on the chunk's clock, so it trips
    // with its chunk and nothing escapes as a classified member.
    let make_sim = || -> Result<Box<dyn SimBackend>, String> { Ok(Box::new(Interp::new(&td))) };
    let make_devices = || -> Vec<Box<dyn Device>> { Vec::new() };
    let env = ParallelFactories {
        td: &td,
        make_sim: &make_sim,
        make_devices: &make_devices,
    };
    let make_batch = |lanes: usize| -> Result<Box<dyn BatchBackend>, String> {
        Ok(Box::new(BatchSim::compile(&td, lanes).map_err(|e| e.to_string())?))
    };
    for width in [1usize, 2, 3] {
        let (report, stats) =
            run_campaign_batched(&env, &make_batch, width, &cfg, &opts, None).unwrap();
        for m in &report.members {
            assert_eq!(m.outcome, Outcome::Flaky, "width {width}, member {}", m.index);
        }
        let chunks = cfg.members.div_ceil(width) as u64;
        assert_eq!(stats.retries, chunks, "width {width}: one retry a chunk");
    }
}

// ---------------------------------------------------------------------------
// CLI: stdout byte-identity and stderr routing.

#[test]
fn cli_campaign_stdout_is_byte_identical_across_jobs() {
    let run = |jobs: &str| {
        koika_sim()
            .args([
                "collatz",
                "--campaign",
                "20",
                "--cycles",
                "64",
                "--stall-cycles",
                "32",
                "--jobs",
                jobs,
            ])
            .output()
            .unwrap()
    };
    let one = run("1");
    let eight = run("8");
    assert!(one.status.success());
    assert_eq!(
        one.stdout, eight.stdout,
        "campaign stdout must not depend on --jobs"
    );
    // Progress goes to stderr, leaving stdout machine-parseable.
    let err = String::from_utf8_lossy(&eight.stderr);
    assert!(err.contains("campaign: 20/20 done"), "stderr was: {err}");
    let out = String::from_utf8_lossy(&one.stdout);
    assert!(!out.contains("done"), "progress leaked to stdout: {out}");
}

#[test]
fn cli_fuzz_smoke_is_clean_and_deterministic() {
    let run = |jobs: &str| {
        koika_sim()
            .args(["--fuzz", "6", "--seed", "11", "--cycles", "24", "--jobs", jobs])
            .output()
            .unwrap()
    };
    let one = run("1");
    let four = run("4");
    assert!(
        one.status.success(),
        "fuzz run failed: {}",
        String::from_utf8_lossy(&one.stderr)
    );
    assert_eq!(one.stdout, four.stdout, "fuzz stdout must not depend on --jobs");
    let out = String::from_utf8_lossy(&one.stdout);
    assert!(out.contains("buckets      0"), "expected a clean run, got: {out}");
}

#[test]
fn cli_batch_one_is_byte_identical_to_scalar_everywhere() {
    // `--batch 1` routes through the batched engine but must be
    // undetectable from the outside: same campaign report, same fuzz
    // report, byte for byte.
    let campaign = ["collatz", "--campaign", "20", "--cycles", "64", "--stall-cycles", "32"];
    let scalar = koika_sim().args(campaign).output().unwrap();
    let batch1 = koika_sim().args(campaign).args(["--batch", "1"]).output().unwrap();
    assert!(scalar.status.success());
    assert!(
        batch1.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&batch1.stderr)
    );
    assert_eq!(scalar.stdout, batch1.stdout, "campaign stdout changed under --batch 1");

    let fuzz = ["--fuzz", "6", "--seed", "11", "--cycles", "24"];
    let scalar = koika_sim().args(fuzz).output().unwrap();
    let batch1 = koika_sim().args(fuzz).args(["--batch", "1"]).output().unwrap();
    assert!(scalar.status.success());
    assert!(batch1.status.success());
    assert_eq!(scalar.stdout, batch1.stdout, "fuzz stdout changed under --batch 1");
}

#[test]
fn cli_batch_composes_with_campaign_fuzz_and_jobs() {
    let campaign = ["collatz", "--campaign", "20", "--cycles", "64", "--stall-cycles", "32"];
    let sequential = koika_sim().args(campaign).output().unwrap();
    assert!(sequential.status.success());
    let wide = koika_sim()
        .args(campaign)
        .args(["--batch", "4", "--jobs", "3"])
        .output()
        .unwrap();
    assert!(
        wide.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&wide.stderr)
    );
    assert_eq!(
        sequential.stdout, wide.stdout,
        "campaign stdout must not depend on --batch or --jobs"
    );

    let fuzz = ["--fuzz", "6", "--seed", "11", "--cycles", "24"];
    let batched = koika_sim()
        .args(fuzz)
        .args(["--batch", "3", "--jobs", "2"])
        .output()
        .unwrap();
    assert!(
        batched.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&batched.stderr)
    );
    let out = String::from_utf8_lossy(&batched.stdout);
    assert!(out.contains("buckets      0"), "perturbed lanes found spurious bugs: {out}");
}

#[test]
fn cli_rejects_bad_batch_invocations() {
    // Zero lanes, non-cuttlesim backends, a batch of identical lanes (no
    // --campaign or --fuzz), and a dispatch other than tac are all usage
    // errors (exit 2), never panics.
    let cases: &[&[&str]] = &[
        &["collatz", "--batch", "0"],
        &["collatz", "--batch", "4", "--backend", "interp"],
        &["collatz", "--batch", "4", "--backend", "rtl"],
        &["collatz", "--batch", "4", "--vcd", "out.vcd", "--vcd-lane", "4"],
        &["collatz", "--vcd", "out.vcd", "--vcd-lane", "0"],
        &["collatz", "--batch", "4", "--trace", "8"],
        &["collatz", "--batch", "4", "--profile"],
        &["collatz", "--batch", "4", "--inject", "1:x:0"],
        &["collatz", "--batch", "4", "--replay", "x.log"],
        &["collatz", "--batch", "4"],
        &["collatz", "--batch", "3", "--debug-script", "s.kdb"],
        &["rv32i", "--campaign", "4", "--batch", "4", "--dispatch", "match"],
        &["--fuzz", "2", "--batch", "2", "--dispatch", "match"],
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
        assert!(!err.is_empty() && !err.contains("panicked"), "{case:?}: {err}");
    }
}

#[test]
fn cli_rejects_fuzz_with_a_design_and_zero_jobs() {
    let with_design = koika_sim().args(["collatz", "--fuzz", "4"]).output().unwrap();
    assert_eq!(with_design.status.code(), Some(2));

    let zero_jobs = koika_sim().args(["--fuzz", "4", "--jobs", "0"]).output().unwrap();
    assert_eq!(zero_jobs.status.code(), Some(2));

    let conflicting = koika_sim()
        .args(["--fuzz", "4", "--replay-corpus", "corpus"])
        .output()
        .unwrap();
    assert_eq!(conflicting.status.code(), Some(2));
}
