//! Workspace-level integration tests: every Table-1 design, every backend,
//! shared devices — the "completely separate toolchains that stay
//! cycle-accurate with respect to each other" property, end to end.

use cuttlesim::{CompileOptions, Dispatch, Sim};
use koika::check::check;
use koika::design::Design;
use koika::device::{Device, RegAccess, SimBackend};
use koika::interp::Interp;
use koika::testgen::SplitMix64;
use koika::tir::{RegId, TDesign};
use koika_designs::memdev::MagicMemory;
use koika_designs::{rv32, small};
use koika_riscv::programs;
use koika_rtl::{compile as rtl_compile, RtlSim, Scheme};

/// Drives `in*`/`input` stimulus registers with pseudorandom values.
struct Stimulus {
    regs: Vec<RegId>,
    rng: SplitMix64,
}

impl Device for Stimulus {
    fn tick(&mut self, _cycle: u64, regs: &mut dyn RegAccess) {
        for &r in &self.regs {
            regs.set64(r, self.rng.next_u64() & 0xffff);
        }
    }
}

fn stimulus_for(td: &TDesign) -> Option<Stimulus> {
    let regs: Vec<RegId> = td
        .syms
        .iter()
        .filter(|s| s.name == "input" || s.name.starts_with("in"))
        .filter(|s| s.len == 1 && s.name != "input_ready")
        .map(|s| s.base)
        .collect();
    if regs.is_empty() {
        None
    } else {
        Some(Stimulus {
            regs,
            rng: SplitMix64::new(0xBEEF),
        })
    }
}

fn compare_all_backends(design: &Design, cycles: u64) {
    let td = check(design).expect("typechecks");
    let mut interp = Interp::new(&td);
    let mut interp_dev = stimulus_for(&td);
    let mut vm = Sim::compile(&td).expect("compiles");
    let mut vm_dev = stimulus_for(&td);
    let mut vm_tac = Sim::compile(&td).expect("compiles");
    vm_tac.set_dispatch(Dispatch::Tac);
    let mut vmt_dev = stimulus_for(&td);
    let mut rtl = RtlSim::new(rtl_compile(&td, Scheme::Dynamic).expect("compiles"));
    let mut rtl_dev = stimulus_for(&td);

    for cycle in 0..cycles {
        if let Some(d) = &mut interp_dev {
            d.tick(cycle, interp.as_reg_access());
        }
        interp.cycle();
        if let Some(d) = &mut vm_dev {
            d.tick(cycle, vm.as_reg_access());
        }
        vm.cycle();
        if let Some(d) = &mut vmt_dev {
            d.tick(cycle, vm_tac.as_reg_access());
        }
        vm_tac.cycle();
        if let Some(d) = &mut rtl_dev {
            d.tick(cycle, rtl.as_reg_access());
        }
        rtl.cycle();
        for r in 0..td.num_regs() {
            let reg = RegId(r as u32);
            let expect = interp.get64(reg);
            assert_eq!(vm.get64(reg), expect, "{}: cycle {cycle} reg {} (vm)", td.name, td.regs[r].name);
            assert_eq!(
                vm_tac.get64(reg),
                expect,
                "{}: cycle {cycle} reg {} (vm tac)",
                td.name,
                td.regs[r].name
            );
            assert_eq!(rtl.get64(reg), expect, "{}: cycle {cycle} reg {} (rtl)", td.name, td.regs[r].name);
        }
    }
}

#[test]
fn collatz_agrees_everywhere() {
    compare_all_backends(&small::collatz(), 500);
}

#[test]
fn fir_agrees_everywhere() {
    compare_all_backends(&small::fir(), 300);
}

#[test]
fn fft_agrees_everywhere() {
    compare_all_backends(&small::fft(), 200);
}

#[test]
fn rtl_core_runs_primes_to_completion() {
    // The RTL pipeline, too, runs whole programs correctly (Fig. 1's
    // baseline is a *working* simulator, just a slower one).
    let td = check(&rv32::rv32i()).unwrap();
    let program = programs::primes(30);
    let golden = koika_designs::harness::golden_run(&program, 1_000_000);
    let mut rtl = RtlSim::new(rtl_compile(&td, Scheme::Dynamic).unwrap());
    let mut mem = MagicMemory::new(
        &td,
        &["imem", "dmem"],
        &program,
        koika_designs::harness::MEM_WORDS,
    );
    let run = koika_designs::harness::run_until_retired(
        &mut rtl,
        &mut mem,
        &td,
        "",
        golden.retired,
        2_000_000,
    );
    assert!(run.completed);
    assert_eq!(mem.word(programs::RESULT_ADDR), programs::primes_expected(30));
}

#[test]
fn static_scheme_core_runs_primes_to_completion() {
    // The Bluespec-style scheme may schedule more conservatively, but the
    // core still computes the right answer (Fig. 2's baseline works).
    let td = check(&rv32::rv32i()).unwrap();
    let program = programs::primes(30);
    let golden = koika_designs::harness::golden_run(&program, 1_000_000);
    let mut rtl = RtlSim::new(rtl_compile(&td, Scheme::Static).unwrap());
    let mut mem = MagicMemory::new(
        &td,
        &["imem", "dmem"],
        &program,
        koika_designs::harness::MEM_WORDS,
    );
    let run = koika_designs::harness::run_until_retired(
        &mut rtl,
        &mut mem,
        &td,
        "",
        golden.retired,
        4_000_000,
    );
    assert!(run.completed, "static-scheme core did not finish: {run:?}");
    assert_eq!(mem.word(programs::RESULT_ADDR), programs::primes_expected(30));
}

#[test]
fn coverage_counts_are_dispatch_independent() {
    let td = check(&small::collatz()).unwrap();
    let opts = CompileOptions {
        coverage: true,
        ..CompileOptions::default()
    };
    let mut a = Sim::compile_with(&td, &opts).unwrap();
    let mut b = Sim::compile_with(&td, &opts).unwrap();
    b.set_dispatch(Dispatch::Tac);
    for _ in 0..500 {
        a.cycle();
        b.cycle();
    }
    assert_eq!(a.coverage_counts(), b.coverage_counts());
}

/// The two-rule design whose second rule conflicts every cycle.
fn clash() -> Design {
    use koika::ast::*;
    use koika::design::DesignBuilder;
    let mut clash = DesignBuilder::new("clash");
    clash.reg("n", 8, 0u64);
    clash.rule("a", vec![wr0("n", rd0("n").add(k(8, 1)))]);
    clash.rule("b", vec![wr0("n", rd0("n").add(k(8, 2)))]);
    clash.build()
}

/// Native dispatch runs whole cycles, observed or not, through its
/// compiled `koika_cycle`, and every kind of per-rule work on the micro-op
/// bodies of the same program over the same state. A native `Sim` cycles
/// in turn plainly, observed, stepped rule by rule mid-cycle and through
/// `try_cycle`; history is on from cycle 100 and profiling from cycle 200.
/// After every cycle it must agree with match and tac dispatch on
/// registers, per-rule commit and failure counts, `last_fail`, traps and
/// coverage counts, and with tac on profile weights. Both charge a fused
/// micro-op's whole weight when its first access fails, where match counts
/// only the instructions it ran (collatz's `rlB` at O1 and up).
#[test]
fn native_per_rule_work_runs_the_micro_op_bodies() {
    use cuttlesim::OptLevel;
    use koika::obs::Observer;
    if !cuttlesim::toolchain_available() {
        eprintln!("SKIP native_per_rule_work_runs_the_micro_op_bodies: no rustc toolchain");
        return;
    }
    struct Quiet;
    impl Observer for Quiet {}
    let program = programs::primes(20);
    for design in [small::collatz(), clash(), rv32::rv32i()] {
        let td = check(&design).unwrap();
        let memory = || {
            let words = koika_designs::harness::MEM_WORDS;
            (td.name == "rv32i").then(|| MagicMemory::new(&td, &["imem", "dmem"], &program, words))
        };
        for level in OptLevel::ALL {
            for coverage in [false, true] {
                let opts = CompileOptions { level, coverage, ..CompileOptions::default() };
                let mut want = Sim::compile_with(&td, &opts).unwrap();
                let mut tac = Sim::compile_with(&td, &opts).unwrap();
                tac.set_dispatch(Dispatch::Tac);
                let mut got = Sim::compile_with(&td, &opts).unwrap();
                got.set_dispatch(Dispatch::Native);
                let schedule = got.program().schedule.clone();
                let mut mems = [memory(), memory(), memory()];
                for cycle in 0..300u64 {
                    if cycle == 100 {
                        got.enable_history(4);
                    }
                    if cycle == 200 {
                        want.enable_profiling();
                        tac.enable_profiling();
                        got.enable_profiling();
                    }
                    for (mem, sim) in mems.iter_mut().zip([&mut want, &mut tac, &mut got]) {
                        if let Some(mem) = mem {
                            mem.tick(cycle, sim.as_reg_access());
                        }
                    }
                    want.cycle();
                    tac.cycle();
                    match cycle % 12 / 3 {
                        0 => got.cycle(),
                        1 => got.cycle_obs(&mut Quiet),
                        2 => {
                            got.begin_cycle();
                            for &rule in &schedule {
                                got.step_rule(rule);
                            }
                            got.end_cycle();
                        }
                        _ => got.try_cycle().unwrap(),
                    }
                    let at = format!("{} {level} coverage={coverage} cycle {cycle}", td.name);
                    for other in [&mut want, &mut tac] {
                        assert_eq!(got.reg_values(), other.reg_values(), "{at}");
                        assert_eq!(got.fired_per_rule(), other.fired_per_rule(), "{at}");
                        assert_eq!(got.fails_per_rule(), other.fails_per_rule(), "{at}");
                        assert_eq!(got.last_fail(), other.last_fail(), "{at}");
                        assert_eq!(got.coverage_counts(), other.coverage_counts(), "{at}");
                        assert_eq!(got.take_trap(), other.take_trap(), "{at}");
                        assert_eq!(got.profile_insns(), other.profile_insns(), "{at}");
                    }
                }
                assert!(want.fails_per_rule().iter().any(|&f| f > 0), "{} {level}", td.name);
                assert!(got.step_back(4), "{} {level}: history was kept", td.name);
            }
        }
    }
}

#[test]
fn snapshots_restore_full_determinism() {
    let td = check(&rv32::rv32i()).unwrap();
    let program = programs::primes(20);
    let mut sim = Sim::compile(&td).unwrap();
    let mut mem = MagicMemory::new(
        &td,
        &["imem", "dmem"],
        &program,
        koika_designs::harness::MEM_WORDS,
    );
    for cycle in 0..1000u64 {
        mem.tick(cycle, sim.as_reg_access());
        sim.cycle();
    }
    let snap = sim.save_state();
    let mem_snap = mem.clone();
    let run_on = |sim: &mut Sim, mem: &mut MagicMemory| -> Vec<u64> {
        for cycle in 1000..1500u64 {
            mem.tick(cycle, sim.as_reg_access());
            sim.cycle();
        }
        sim.reg_values()
    };
    let first = run_on(&mut sim, &mut mem);
    sim.restore_state(&snap);
    let mut mem2 = mem_snap;
    let second = run_on(&mut sim, &mut mem2);
    assert_eq!(first, second, "replay from a snapshot must be deterministic");
}

#[test]
fn wide_designs_run_on_the_interpreter_and_are_rejected_by_the_vm() {
    use koika::ast::*;
    use koika::design::DesignBuilder;
    let mut b = DesignBuilder::new("wide");
    b.reg("acc", 100, 1u64);
    b.rule(
        "rot",
        vec![wr0(
            "acc",
            rd0("acc").shl(k(8, 7)).or(rd0("acc").shr(k(8, 93))),
        )],
    );
    let td = check(&b.build()).unwrap();
    // The interpreter supports arbitrary widths...
    let mut interp = Interp::new(&td);
    for _ in 0..200 {
        interp.cycle();
    }
    let acc = interp.reg_bits(td.reg_id("acc"));
    assert_eq!(acc.width(), 100);
    // ... 200 rotations by 7 over a width-100 register: 1400 = 14 full
    // rotations exactly, so we are back at 1.
    assert_eq!(acc.to_u128(), 1);
    // ... while the fast backends report a clean error instead of truncating.
    assert!(Sim::compile(&td).is_err());
    assert!(rtl_compile(&td, Scheme::Dynamic).is_err());
}
