//! Integration tests for the unified observability layer: the same
//! [`koika::obs::Observer`] attached to all three backends must see the
//! same per-rule story, the export sinks must emit valid, stable JSON, and
//! the `koika-sim` CLI must expose all of it.
//!
//! Golden snapshots live in `tests/golden/`; regenerate with
//! `BLESS=1 cargo test --test observability`.

use cuttlesim::{CompileOptions, Sim};
use koika::check::check;
use koika::device::{Device, SimBackend};
use koika::obs::Metrics;
use koika::obs::PerfettoTrace;
use koika_designs::harness::MEM_WORDS;
use koika_designs::memdev::MagicMemory;
use koika_designs::{rv32, small};
use koika_riscv::programs;
use koika_rtl::{compile as rtl_compile, RtlSim, Scheme};
use std::process::Command;

// ---------------------------------------------------------------------------
// A minimal JSON validity checker (no serde in this workspace): recursive
// descent over the grammar, accepting any structurally well-formed document.

fn skip_ws(s: &[u8], mut i: usize) -> usize {
    while i < s.len() && matches!(s[i], b' ' | b'\t' | b'\n' | b'\r') {
        i += 1;
    }
    i
}

fn parse_value(s: &[u8], i: usize) -> Result<usize, String> {
    let i = skip_ws(s, i);
    let Some(&c) = s.get(i) else {
        return Err("unexpected end of input".into());
    };
    match c {
        b'{' => {
            let mut i = skip_ws(s, i + 1);
            if s.get(i) == Some(&b'}') {
                return Ok(i + 1);
            }
            loop {
                i = parse_string(s, skip_ws(s, i))?;
                i = skip_ws(s, i);
                if s.get(i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}"));
                }
                i = parse_value(s, i + 1)?;
                i = skip_ws(s, i);
                match s.get(i) {
                    Some(b',') => i += 1,
                    Some(b'}') => return Ok(i + 1),
                    _ => return Err(format!("expected ',' or '}}' at byte {i}")),
                }
            }
        }
        b'[' => {
            let mut i = skip_ws(s, i + 1);
            if s.get(i) == Some(&b']') {
                return Ok(i + 1);
            }
            loop {
                i = parse_value(s, i)?;
                i = skip_ws(s, i);
                match s.get(i) {
                    Some(b',') => i += 1,
                    Some(b']') => return Ok(i + 1),
                    _ => return Err(format!("expected ',' or ']' at byte {i}")),
                }
            }
        }
        b'"' => parse_string(s, i),
        b't' => expect_lit(s, i, b"true"),
        b'f' => expect_lit(s, i, b"false"),
        b'n' => expect_lit(s, i, b"null"),
        b'-' | b'0'..=b'9' => {
            let mut i = i;
            if s[i] == b'-' {
                i += 1;
            }
            let start = i;
            while i < s.len() && matches!(s[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
                i += 1;
            }
            if i == start {
                return Err(format!("bad number at byte {i}"));
            }
            Ok(i)
        }
        c => Err(format!("unexpected byte {:?} at {i}", c as char)),
    }
}

fn parse_string(s: &[u8], i: usize) -> Result<usize, String> {
    if s.get(i) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {i}"));
    }
    let mut i = i + 1;
    while let Some(&c) = s.get(i) {
        match c {
            b'"' => return Ok(i + 1),
            b'\\' => i += 2,
            _ => i += 1,
        }
    }
    Err("unterminated string".into())
}

fn expect_lit(s: &[u8], i: usize, lit: &[u8]) -> Result<usize, String> {
    if s.len() >= i + lit.len() && &s[i..i + lit.len()] == lit {
        Ok(i + lit.len())
    } else {
        Err(format!("bad literal at byte {i}"))
    }
}

fn assert_valid_json(text: &str) {
    let bytes = text.as_bytes();
    let end = parse_value(bytes, 0).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{text}"));
    assert_eq!(
        skip_ws(bytes, end),
        bytes.len(),
        "trailing garbage after JSON document"
    );
}

// ---------------------------------------------------------------------------
// Cross-backend agreement.

fn collatz_metrics_on<S: SimBackend>(sim: &mut S, cycles: u64) -> Metrics {
    let td = check(&small::collatz()).unwrap();
    let mut m = Metrics::for_design(&td);
    for _ in 0..cycles {
        sim.cycle_obs(&mut m);
    }
    m
}

#[test]
fn same_observer_on_all_three_backends_sees_identical_commit_counts() {
    let td = check(&small::collatz()).unwrap();
    const N: u64 = 500;

    let mut interp = koika::Interp::new(&td);
    let m_interp = collatz_metrics_on(&mut interp, N);

    let mut vm = Sim::compile(&td).unwrap();
    let m_vm = collatz_metrics_on(&mut vm, N);

    let mut rtl = RtlSim::new(rtl_compile(&td, Scheme::Dynamic).unwrap());
    let m_rtl = collatz_metrics_on(&mut rtl, N);

    assert_eq!(
        m_interp.commits_per_rule(),
        m_vm.commits_per_rule(),
        "interp vs cuttlesim per-rule commits on collatz"
    );
    assert_eq!(
        m_interp.commits_per_rule(),
        m_rtl.commits_per_rule(),
        "interp vs rtl per-rule commits on collatz"
    );
    assert_eq!(m_interp.cycles(), N);
    assert_eq!(m_vm.cycles(), N);
    assert_eq!(m_rtl.cycles(), N);
    assert!(m_interp.total_fired() > 0, "collatz must make progress");
}

#[test]
fn interp_and_cuttlesim_agree_per_rule_on_rv32i() {
    let td = check(&rv32::rv32i()).unwrap();
    let program = programs::primes(20);
    const N: u64 = 5_000;

    let mut m_interp = Metrics::for_design(&td);
    {
        let mut sim = koika::Interp::new(&td);
        let mut mem = MagicMemory::new(&td, &["imem", "dmem"], &program, MEM_WORDS);
        let mut devs: Vec<&mut dyn Device> = vec![&mut mem];
        sim.run_obs(N, &mut devs, &mut m_interp);
    }

    let mut m_vm = Metrics::for_design(&td);
    {
        let mut sim = Sim::compile_with(&td, &CompileOptions::default()).unwrap();
        let mut mem = MagicMemory::new(&td, &["imem", "dmem"], &program, MEM_WORDS);
        let mut devs: Vec<&mut dyn Device> = vec![&mut mem];
        sim.run_obs(N, &mut devs, &mut m_vm);
    }

    assert_eq!(
        m_interp.commits_per_rule(),
        m_vm.commits_per_rule(),
        "per-rule commit counts must match between interp and cuttlesim on rv32i;\n\
         interp: {:?}\ncuttlesim: {:?}",
        m_interp.commits_per_rule(),
        m_vm.commits_per_rule(),
    );
    assert!(m_interp.total_fired() > N, "core must be doing real work");
}

#[test]
fn observation_does_not_change_simulation_results() {
    // The zero-cost claim's semantic half: cycle_obs computes exactly what
    // cycle computes.
    let td = check(&small::fft()).unwrap();
    let mut plain = Sim::compile(&td).unwrap();
    let mut observed = Sim::compile(&td).unwrap();
    let mut m = Metrics::for_design(&td);
    for _ in 0..300 {
        plain.cycle();
        observed.cycle_obs(&mut m);
    }
    assert_eq!(plain.reg_values(), observed.reg_values());
    assert_eq!(plain.fired_per_rule(), observed.fired_per_rule());
    assert_eq!(m.commits_per_rule(), plain.fired_per_rule().to_vec());
}

/// The sinks an observed VM cycle feeds, and what they export.
struct Sinks {
    metrics: Metrics,
    perfetto: PerfettoTrace,
    fp: koika::fault::CommitFingerprint,
}

impl Sinks {
    fn for_design(td: &koika::tir::TDesign) -> Sinks {
        Sinks {
            metrics: Metrics::for_design(td),
            perfetto: PerfettoTrace::for_design(td),
            fp: Default::default(),
        }
    }

    fn cycle_obs(&mut self, sim: &mut dyn SimBackend) {
        let sinks: Vec<&mut dyn koika::obs::Observer> =
            vec![&mut self.metrics, &mut self.perfetto, &mut self.fp];
        sim.cycle_obs(&mut koika::obs::Fanout::new(sinks));
    }

    fn export(&self) -> (String, String, u64) {
        (self.metrics.to_json(false), self.perfetto.to_json(), self.fp.digest())
    }
}

/// An observed VM cycle is the engine's ordinary cycle plus a replay of
/// the per-cycle record it leaves. On match, tac and native, a design runs
/// unobserved, observed by Metrics, Perfetto and a commit fingerprint, and
/// observed by a fingerprint alone (which skips the register capture). All
/// three runs end in the same state, and the exports are byte-identical
/// across dispatches and, where the interpreter can run the design, equal
/// to the interpreter's. Clash conflicts every cycle; `trapping` is clash
/// with rule `b`'s bytecode broken, so it traps every cycle, which the
/// replay reports as a failure of unspecified reason.
#[test]
fn observed_cycles_replay_the_record_on_every_dispatch() {
    use cuttlesim::insn::Insn;
    use cuttlesim::Dispatch;
    use koika::ast::*;
    use koika::design::DesignBuilder;
    let native = cuttlesim::toolchain_available();
    if !native {
        eprintln!(
            "SKIP native rows of observed_cycles_replay_the_record_on_every_dispatch: \
             no rustc toolchain"
        );
    }
    let mut b = DesignBuilder::new("clash");
    b.reg("n", 8, 0u64);
    b.rule("a", vec![wr0("n", rd0("n").add(k(8, 1)))]);
    b.rule("b", vec![wr0("n", rd0("n").add(k(8, 2)))]);
    let clash = check(&b.build()).unwrap();
    let collatz = check(&small::collatz()).unwrap();
    let rv32i = check(&rv32::rv32i()).unwrap();
    let opts = CompileOptions::default();
    let mut trapping = cuttlesim::compile(&clash, &opts).unwrap();
    trapping.rules[1].code.insert(0, Insn::Add { mask: u64::MAX });
    let program = programs::primes(20);
    let cases = [
        (cuttlesim::compile(&collatz, &opts).unwrap(), true, 200),
        (cuttlesim::compile(&clash, &opts).unwrap(), true, 50),
        (cuttlesim::compile(&rv32i, &opts).unwrap(), true, 1_500),
        (trapping, false, 20),
    ];
    for (prog, interp_runs, cycles) in cases {
        let td = prog.design.clone();
        let name = if interp_runs { td.name.clone() } else { "trapping".to_string() };
        let memory = || {
            (td.name == "rv32i").then(|| MagicMemory::new(&td, &["imem", "dmem"], &program, MEM_WORDS))
        };
        let mut want = None;
        if interp_runs {
            let mut sim = koika::Interp::new(&td);
            let mut mem = memory();
            let mut sinks = Sinks::for_design(&td);
            for cycle in 0..cycles {
                if let Some(m) = &mut mem {
                    m.tick(cycle, &mut sim);
                }
                sinks.cycle_obs(&mut sim);
            }
            want = Some(sinks.export());
        }
        for dispatch in Dispatch::ALL.into_iter().filter(|&d| native || d != Dispatch::Native) {
            let at = |cycle: u64| format!("{name} {dispatch:?} cycle {cycle}");
            let sims: [Sim; 3] = std::array::from_fn(|_| {
                let mut sim = Sim::new(prog.clone());
                sim.set_dispatch(dispatch);
                sim
            });
            let [mut plain, mut observed, mut fingerprinted] = sims;
            let mut mems = [memory(), memory(), memory()];
            let mut sinks = Sinks::for_design(&td);
            let mut fp = koika::fault::CommitFingerprint::default();
            for cycle in 0..cycles {
                let sims = [&mut plain, &mut observed, &mut fingerprinted];
                for (mem, sim) in mems.iter_mut().zip(sims) {
                    if let Some(m) = mem {
                        m.tick(cycle, sim);
                    }
                }
                plain.cycle();
                sinks.cycle_obs(&mut observed);
                fingerprinted.cycle_obs(&mut fp);
                let trap = plain.take_trap();
                assert_eq!(trap.is_some(), !interp_runs, "{}", at(cycle));
                for sim in [&mut observed, &mut fingerprinted] {
                    assert_eq!(sim.reg_values(), plain.reg_values(), "{}", at(cycle));
                    assert_eq!(sim.fired_per_rule(), plain.fired_per_rule(), "{}", at(cycle));
                    assert_eq!(sim.fails_per_rule(), plain.fails_per_rule(), "{}", at(cycle));
                    assert_eq!(sim.last_fail(), plain.last_fail(), "{}", at(cycle));
                    assert_eq!(sim.take_trap(), trap, "{}", at(cycle));
                }
            }
            let got = sinks.export();
            assert_eq!(fp.digest(), got.2, "{name} {dispatch:?}: fingerprint alone");
            let commits = sinks.metrics.commits_per_rule();
            assert_eq!(commits, plain.fired_per_rule(), "{name} {dispatch:?}");
            if !interp_runs {
                assert_eq!(sinks.metrics.rules()[1].failed_other, cycles, "{name} {dispatch:?}");
            }
            match &want {
                None => want = Some(got),
                Some(want) => {
                    assert_eq!(got.0, want.0, "{name} {dispatch:?}: metrics");
                    assert_eq!(got.1, want.1, "{name} {dispatch:?}: perfetto");
                    assert_eq!(got.2, want.2, "{name} {dispatch:?}: fingerprint");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Golden snapshots (deterministic output forms only).

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

#[test]
fn collatz_metrics_json_matches_golden_snapshot() {
    let td = check(&small::collatz()).unwrap();
    let mut sim = Sim::compile(&td).unwrap();
    let m = collatz_metrics_on(&mut sim, 64);
    let json = m.to_json(false);
    assert_valid_json(&json);
    golden_check("collatz_metrics.json", &json);
}

#[test]
fn collatz_perfetto_trace_matches_golden_snapshot() {
    let td = check(&small::collatz()).unwrap();
    let mut sim = Sim::compile(&td).unwrap();
    let mut t = PerfettoTrace::for_design(&td);
    for _ in 0..16 {
        sim.cycle_obs(&mut t);
    }
    let json = t.to_json();
    assert_valid_json(&json);
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"ph\": \"X\""), "commits must appear as slices");
    golden_check("collatz_perfetto.json", &json);
}

#[test]
fn prometheus_dump_has_all_metric_families() {
    let td = check(&small::collatz()).unwrap();
    let mut sim = Sim::compile(&td).unwrap();
    let m = collatz_metrics_on(&mut sim, 32);
    let prom = m.to_prometheus();
    for family in [
        "koika_cycles_total",
        "koika_rule_commits_total",
        "koika_rule_failures_total",
        "koika_reg_writes_total",
        "koika_cycles_per_second",
    ] {
        assert!(prom.contains(&format!("# TYPE {family}")), "missing {family}");
    }
    assert!(prom.contains("koika_cycles_total{design=\"collatz\"} 32"));
}

// ---------------------------------------------------------------------------
// CLI surface.

fn koika_sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_koika_sim"))
}

#[test]
fn cli_help_exits_zero_with_full_usage() {
    let out = koika_sim().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Usage: koika-sim"));
    for flag in ["--metrics-json", "--perfetto", "--watch", "--backend"] {
        assert!(text.contains(flag), "--help must document {flag}");
    }
}

#[test]
fn cli_rejects_unknown_flags_with_nonzero_exit_and_hint() {
    let out = koika_sim().args(["collatz", "--frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option --frobnicate"));
    assert!(err.contains("--help"), "error must point at --help");
}

#[test]
fn cli_metrics_json_emits_valid_json_with_throughput() {
    let dir = std::env::temp_dir().join(format!("koika_obs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rv32i_metrics.json");
    let out = koika_sim()
        .args(["rv32i", "--cycles", "2000", "--metrics-json"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&path).unwrap();
    assert_valid_json(&json);
    assert!(json.contains("\"cycles\": 2000"));
    assert!(json.contains("\"fired\""));
    assert!(json.contains("\"failed\""));
    assert!(json.contains("\"cycles_per_sec\""));
    assert!(json.contains("\"name\": \"execute\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_perfetto_emits_structurally_valid_trace() {
    let dir = std::env::temp_dir().join(format!("koika_perf_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("collatz.perfetto.json");
    let out = koika_sim()
        .args(["collatz", "--cycles", "50", "--perfetto"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&path).unwrap();
    assert_valid_json(&json);
    for needle in ["\"traceEvents\"", "\"ph\": \"M\"", "\"ph\": \"X\"", "\"tid\""] {
        assert!(json.contains(needle), "trace missing {needle}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_watch_prints_register_changes() {
    let out = koika_sim()
        .args(["collatz", "--cycles", "8", "--watch", "x"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // collatz starts at 27; first step is 3*27+1 = 82 = 0x52.
    assert!(text.contains("watch x: cycle 0: 0x1b -> 0x52"), "got:\n{text}");
    assert!(out.status.success());
}
