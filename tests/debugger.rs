//! Time-travel debugger integration suite.
//!
//! The central claim of `koika::debug` is backend invariance: the same
//! scripted session — breakpoints, watchpoints, reverse execution across
//! checkpoint boundaries, waveform dumps — must produce a byte-identical
//! transcript on the reference interpreter, the cuttlesim VM under every
//! dispatch engine, and the levelized RTL simulator. These tests pin that
//! down with `diff`-grade
//! comparisons, plus the `--debug-on-divergence` flow against the
//! checked-in fuzz corpus.

use std::path::{Path, PathBuf};
use std::process::Command;

use cuttlesim_repro::fuzz::{scan_divergence, CorpusEntry};

fn koika_sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_koika_sim"))
}

fn corpus_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"))
}

/// A scratch dir per test so relative `dump-vcd` / `snapshot` paths keep
/// transcripts byte-identical across backends.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("koika-debugger-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs one scripted session; returns (transcript, vcd bytes if dumped).
fn run_session(dir: &Path, design: &str, backend_flags: &[&str], cycles: &str, script: &str) -> (String, Option<Vec<u8>>) {
    let tag = backend_flags.join("_").replace('-', "");
    let script_path = dir.join(format!("script-{tag}.kdb"));
    std::fs::write(&script_path, script).unwrap();
    let out = koika_sim()
        .current_dir(dir)
        .arg(design)
        .args(backend_flags)
        .args(["--cycles", cycles])
        .args(["--debug-script", script_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{design} {backend_flags:?} exited {:?}:\n{}{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let transcript = String::from_utf8(out.stdout).unwrap();
    let vcd = std::fs::read(dir.join("out.vcd")).ok();
    let _ = std::fs::remove_file(dir.join("out.vcd"));
    (transcript, vcd)
}

/// The backend matrix every session is compared across. The native
/// dispatcher joins the matrix only when a rustc toolchain is present —
/// the skip is announced on stderr, never silent.
fn backend_matrix() -> Vec<Vec<&'static str>> {
    let mut m = vec![
        vec!["--backend", "interp"],
        vec!["--backend", "cuttlesim", "--dispatch", "match"],
        vec!["--backend", "cuttlesim", "--dispatch", "tac"],
    ];
    if cuttlesim::toolchain_available() {
        m.push(vec!["--backend", "cuttlesim", "--dispatch", "native"]);
    } else {
        eprintln!("SKIP: no rustc toolchain; native dispatch row excluded from the debugger matrix");
    }
    m.push(vec!["--backend", "rtl"]);
    m
}

fn assert_transcripts_identical(design: &str, script: &str, cycles: &str) -> String {
    let dir = scratch(design);
    let mut reference: Option<(String, Option<Vec<u8>>)> = None;
    for flags in backend_matrix() {
        let (transcript, vcd) = run_session(&dir, design, &flags, cycles, script);
        match &reference {
            None => reference = Some((transcript, vcd)),
            Some((want_t, want_v)) => {
                assert_eq!(
                    want_t, &transcript,
                    "{design}: transcript under {flags:?} differs from interp"
                );
                assert_eq!(
                    want_v, &vcd,
                    "{design}: dumped VCD under {flags:?} differs from interp"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    reference.unwrap().0
}

#[test]
fn collatz_session_is_byte_identical_across_all_backends() {
    // Breakpoint on a rule commit, watchpoints (on-change and on-value),
    // reverse-step far enough to cross two checkpoint boundaries
    // (interval is 8 on collatz), and a waveform dump at the paused
    // cycle — the acceptance-criteria script.
    let script = "\
break rule rlB commit
continue
delete 1
watch x
continue
delete 2
watch st == 0x1
continue
delete 3
run-to 20
reverse-step 13
print x
print steps
diff
last 4
step 2
reverse-continue
dump-vcd out.vcd
snapshot out.ksnap
quit
";
    let transcript = assert_transcripts_identical("collatz", script, "40");
    // Spot-check the session actually exercised what it claims to.
    assert!(transcript.contains("breakpoint 1: rule 'rlB' commit"), "{transcript}");
    assert!(transcript.contains("watchpoint 2: reg 'x'"), "{transcript}");
    assert!(transcript.contains("watchpoint 3: reg 'st'"), "{transcript}");
    assert!(transcript.contains("stopped at cycle 7"), "{transcript}");
    assert!(transcript.contains("vcd written to out.vcd"), "{transcript}");
    assert!(transcript.contains("snapshot written to out.ksnap"), "{transcript}");
}

#[test]
fn rv32i_session_is_byte_identical_across_all_backends() {
    // The rv32i core runs against the magic-memory device, so reverse
    // execution must also checkpoint and restore device state (the
    // instruction/data memory) — a store-then-reverse would otherwise
    // replay divergently. Interval is 67 here; reverse-step 90 from 150
    // crosses two checkpoint boundaries.
    let script = "\
break rule writeback commit
continue
delete 1
watch retired
continue
delete 2
run-to 150
reverse-step 90
print pc
print retired
diff
step 3
last 5
dump-vcd out.vcd
quit
";
    let transcript = assert_transcripts_identical("rv32i", script, "200");
    assert!(transcript.contains("breakpoint 1: rule 'writeback' commit"), "{transcript}");
    assert!(transcript.contains("watchpoint 2: reg 'retired'"), "{transcript}");
    assert!(transcript.contains("stopped at cycle 60"), "{transcript}");
}

#[test]
fn debugger_snapshot_restores_on_the_cli_with_its_memory() {
    // `memwalk:4` stores to memory from cycle 52 on, each pass reloading
    // the last one's stores. The session travels back from 1000 to 500
    // through a checkpoint and writes its state there; the CLI resumes it
    // to cycle 2,000, past the halt.
    let dir = scratch("memwalk");
    let memwalk = ["rv32i", "--program", "memwalk:4"];
    let script = "run-to 1000\nreverse-step 500\nsnapshot at-500.ksnap\nquit\n";
    for flags in backend_matrix() {
        let tag = flags.join("_").replace('-', "");
        let run = |args: &[&str]| {
            let out =
                koika_sim().current_dir(&dir).args(memwalk).args(&flags).args(args).output().unwrap();
            assert!(out.status.success(), "{tag}: {}", String::from_utf8_lossy(&out.stderr));
            String::from_utf8(out.stdout).unwrap()
        };
        std::fs::write(dir.join("walk.kdb"), script).unwrap();
        let transcript = run(&["--cycles", "2000", "--debug-script", "walk.kdb"]);
        assert!(transcript.contains("snapshot written to at-500.ksnap (cycle 500)"), "{transcript}");
        run(&["--cycles", "2000", "--snapshot-every", "2000", "--snapshot-prefix", "straight-"]);
        run(&[
            "--restore",
            "at-500.ksnap",
            "--cycles",
            "1500",
            "--snapshot-every",
            "2000",
            "--snapshot-prefix",
            "resumed-",
        ]);
        let straight = std::fs::read(dir.join("straight-00002000.ksnap")).unwrap();
        let resumed = std::fs::read(dir.join("resumed-00002000.ksnap")).unwrap();
        assert!(straight == resumed, "{tag}: the debugger's cycle-500 image resumes differently");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn vcd_is_byte_identical_across_dispatchers() {
    // `--vcd` under every dispatch engine produces byte-identical
    // waveforms.
    let dir = scratch("vcd");
    let mut matrix: Vec<Vec<&str>> = vec![vec!["--dispatch", "match"], vec!["--dispatch", "tac"]];
    if cuttlesim::toolchain_available() {
        matrix.push(vec!["--dispatch", "native"]);
    } else {
        eprintln!("SKIP: no rustc toolchain; native dispatch row excluded from the VCD matrix");
    }
    let mut reference: Option<Vec<u8>> = None;
    for (i, flags) in matrix.iter().enumerate() {
        let vcd_path = dir.join(format!("wave-{i}.vcd"));
        let out = koika_sim()
            .args(["collatz", "--cycles", "60", "--vcd", vcd_path.to_str().unwrap()])
            .args(flags)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "collatz {flags:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let bytes = std::fs::read(&vcd_path).unwrap();
        match &reference {
            None => reference = Some(bytes),
            Some(want) => assert_eq!(want, &bytes, "VCD under {flags:?} differs"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watchdog_trip_while_debugging_is_not_a_hang() {
    // A cycle-budget trip during user-driven stepping is reported in-band
    // at the prompt; the process still exits 0 (a paused debugger is not
    // a hang), and reverse execution keeps working afterwards.
    let dir = scratch("watchdog");
    let script = "\
run-to 30
step
reverse-step 4
step 2
quit
";
    let script_path = dir.join("script.kdb");
    std::fs::write(&script_path, script).unwrap();
    let out = koika_sim()
        .args(["collatz", "--cycles", "100", "--max-cycles", "25"])
        .args(["--debug-script", script_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "watchdog trip under the debugger must not exit 3: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let t = String::from_utf8(out.stdout).unwrap();
    assert!(t.contains("watchdog: cycle budget of 25 exhausted at cycle 25"), "{t}");
    assert!(t.contains("stopped at cycle 25"), "{t}");
    // Replays during reverse-step never observe the watchdog.
    assert!(t.contains("stopped at cycle 22"), "{t}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn debug_on_divergence_lands_on_the_exact_first_divergent_cycle() {
    // Independently recompute where the checked-in reproducer's first
    // divergence is, then assert the CLI attaches the debugger exactly
    // there with both register files printed side by side.
    let entry_text =
        std::fs::read_to_string(corpus_dir().join("agree-e78a9e9c.fuzz")).unwrap();
    let entry = CorpusEntry::from_text(&entry_text).unwrap();
    let div = scan_divergence(entry.seed, entry.cycles)
        .expect("scan must build all backends")
        .expect("the checked-in reproducer must diverge somewhere");
    assert_eq!(div.backend, "rtl-static");

    let dir = scratch("divergence");
    let script_path = dir.join("script.kdb");
    std::fs::write(&script_path, "print r0\nreverse-step\nprint r0\nquit\n").unwrap();
    let out = koika_sim()
        .args(["--replay-corpus", corpus_dir().to_str().unwrap()])
        .arg("--debug-on-divergence")
        .args(["--debug-script", script_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let t = String::from_utf8(out.stdout).unwrap();
    assert!(
        t.contains(&format!(
            "divergence: seed {:#x}, backend {} first differs from interp after cycle {}",
            div.seed, div.backend, div.cycle
        )),
        "{t}"
    );
    assert!(t.contains("<-- differs"), "side-by-side table missing: {t}");
    // The auto preamble runs to the first divergent cycle boundary.
    assert!(t.contains(&format!("(kdb) run-to {}", div.cycle + 1)), "{t}");
    assert!(t.contains(&format!("stopped at cycle {}", div.cycle + 1)), "{t}");
    // And the session is attached to the *diverging* backend: the focused
    // register holds the diverged value, not the interpreter's.
    let (reg_idx, _) = div
        .interp_regs
        .iter()
        .zip(&div.backend_regs)
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .map(|(i, _)| (i, ()))
        .unwrap();
    assert_eq!(reg_idx, 0, "reproducer diverges on r0");
    assert!(
        t.contains(&format!("r0 = {:#x}", div.backend_regs[0])),
        "debugger not attached to diverging backend: {t}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn debugger_flag_conflicts_are_usage_errors() {
    let cases: &[&[&str]] = &[
        &["collatz", "--debug", "--vcd", "x.vcd"],
        &["collatz", "--debug", "--trace", "8"],
        &["collatz", "--debug", "--campaign", "4"],
        &["collatz", "--debug", "--metrics-json", "m.json"],
        &["--fuzz", "2", "--debug"],
        &["collatz", "--debug-on-divergence"],
    ];
    for case in cases {
        let out = koika_sim().args(*case).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{case:?} must exit 2, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
