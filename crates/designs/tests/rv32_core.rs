//! Integration tests for the pipelined RV32 cores: golden-model lockstep,
//! cross-backend agreement, branch-predictor effectiveness, and the
//! case-study-3 x0-scoreboard bug.

use cuttlesim::{CompileOptions, OptLevel, Sim};
use koika::check::check;
use koika::device::{Device, RegAccess, SimBackend};
use koika::interp::Interp;
use koika::tir::RegId;
use koika_designs::harness::{
    assert_matches_golden, golden_run, run_until_retired, MEM_WORDS,
};
use koika_designs::memdev::MagicMemory;
use koika_designs::rv32;
use koika_riscv::programs;
use koika_rtl::{compile as rtl_compile, RtlSim, Scheme};

fn mem_for(td: &koika::tir::TDesign, prefix: &str, program: &[u32]) -> MagicMemory {
    MagicMemory::new(
        td,
        &[&format!("{prefix}imem"), &format!("{prefix}dmem")],
        program,
        MEM_WORDS,
    )
}

#[test]
fn cuttlesim_runs_primes_and_matches_golden() {
    let td = check(&rv32::rv32i()).unwrap();
    let program = programs::primes(60);
    let golden = golden_run(&program, 2_000_000);

    let mut sim = Sim::compile(&td).unwrap();
    let mut mem = mem_for(&td, "", &program);
    let run = run_until_retired(&mut sim, &mut mem, &td, "", golden.retired, 5_000_000);
    assert!(run.completed, "core did not finish: {run:?}");
    assert_matches_golden(&mut sim, &mem, &td, "", 32, &golden);
    assert_eq!(
        mem.word(programs::RESULT_ADDR),
        programs::primes_expected(60)
    );
}

#[test]
fn cuttlesim_runs_memwalk_and_matches_golden() {
    let td = check(&rv32::rv32i()).unwrap();
    let program = programs::memwalk(6);
    let golden = golden_run(&program, 2_000_000);

    let mut sim = Sim::compile(&td).unwrap();
    let mut mem = mem_for(&td, "", &program);
    let run = run_until_retired(&mut sim, &mut mem, &td, "", golden.retired, 5_000_000);
    assert!(run.completed, "core did not finish: {run:?}");
    assert_matches_golden(&mut sim, &mem, &td, "", 32, &golden);
    assert_eq!(mem.word(programs::RESULT_ADDR), programs::memwalk_expected(6));
}

#[test]
fn rv32e_runs_primes_and_matches_golden() {
    let td = check(&rv32::rv32e()).unwrap();
    let program = programs::primes(40);
    let golden = golden_run(&program, 2_000_000);

    let mut sim = Sim::compile(&td).unwrap();
    let mut mem = mem_for(&td, "", &program);
    let run = run_until_retired(&mut sim, &mut mem, &td, "", golden.retired, 5_000_000);
    assert!(run.completed, "core did not finish: {run:?}");
    for i in 0..16 {
        let v = sim.get64(td.reg_elem("rf", i)) as u32;
        assert_eq!(v, golden.regs[i as usize], "x{i}");
    }
    assert_eq!(
        mem.word(programs::RESULT_ADDR),
        programs::primes_expected(40)
    );
}

#[test]
fn bp_core_runs_primes_and_matches_golden() {
    let td = check(&rv32::rv32i_bp()).unwrap();
    let program = programs::primes(60);
    let golden = golden_run(&program, 2_000_000);

    let mut sim = Sim::compile(&td).unwrap();
    let mut mem = mem_for(&td, "", &program);
    let run = run_until_retired(&mut sim, &mut mem, &td, "", golden.retired, 5_000_000);
    assert!(run.completed, "core did not finish: {run:?}");
    assert_matches_golden(&mut sim, &mem, &td, "", 32, &golden);
}

/// The heavyweight cross-check: the interpreter, every Cuttlesim level, and
/// the dynamic RTL scheme agree on *every register of the core, every
/// cycle*, with identical memory devices.
#[test]
fn all_backends_agree_on_the_core_cycle_by_cycle() {
    let td = check(&rv32::rv32i()).unwrap();
    let program = programs::primes(10);

    let mut interp = Interp::new(&td);
    let mut interp_mem = mem_for(&td, "", &program);

    let mut sims: Vec<(String, Sim, MagicMemory)> = OptLevel::ALL
        .iter()
        .map(|&level| {
            let sim = Sim::compile_with(
                &td,
                &CompileOptions {
                    level,
                    ..CompileOptions::default()
                },
            )
            .unwrap();
            (level.to_string(), sim, mem_for(&td, "", &program))
        })
        .collect();

    let mut rtl = RtlSim::new(rtl_compile(&td, Scheme::Dynamic).unwrap());
    let mut rtl_mem = mem_for(&td, "", &program);

    for cycle in 0..3000u64 {
        interp_mem.tick(cycle, interp.as_reg_access());
        interp.cycle();
        for (name, sim, mem) in &mut sims {
            mem.tick(cycle, sim.as_reg_access());
            sim.cycle();
            for r in 0..td.num_regs() {
                let reg = RegId(r as u32);
                assert_eq!(
                    sim.get64(reg),
                    interp.get64(reg),
                    "cycle {cycle}, register {} diverged at {name}",
                    td.regs[r].name
                );
            }
        }
        rtl_mem.tick(cycle, rtl.as_reg_access());
        rtl.cycle();
        for r in 0..td.num_regs() {
            let reg = RegId(r as u32);
            assert_eq!(
                rtl.get64(reg),
                interp.get64(reg),
                "cycle {cycle}, register {} diverged at RTL",
                td.regs[r].name
            );
        }
    }
}

#[test]
fn x0_bug_halves_nop_throughput() {
    // Case study 3: 100 NOPs should take ~1 cycle each on the fixed core
    // and ~2 each on the buggy one ("retiring 100 NOP instructions took 203
    // cycles").
    let program = programs::nops(100);

    let run_nops = |design: koika::design::Design| -> u64 {
        let td = check(&design).unwrap();
        let mut sim = Sim::compile(&td).unwrap();
        let mut mem = mem_for(&td, "", &program);
        let run = run_until_retired(&mut sim, &mut mem, &td, "", 100, 10_000);
        assert!(run.completed);
        run.cycles
    };

    let good = run_nops(rv32::rv32i());
    let bad = run_nops(rv32::rv32i_x0bug());
    assert!(
        good < 115,
        "fixed core should retire ~1 NOP/cycle, took {good} cycles"
    );
    assert!(
        bad > 190,
        "buggy core should stall every other cycle, took {bad} cycles"
    );
}

#[test]
fn branch_predictor_reduces_cycles_on_branchy_code() {
    let program = programs::branchy(300);
    let golden = golden_run(&program, 1_000_000);

    let run_core = |design: koika::design::Design| -> (u64, u32) {
        let td = check(&design).unwrap();
        let mut sim = Sim::compile(&td).unwrap();
        let mut mem = mem_for(&td, "", &program);
        let run = run_until_retired(&mut sim, &mut mem, &td, "", golden.retired, 2_000_000);
        assert!(run.completed);
        (run.cycles, mem.word(programs::RESULT_ADDR))
    };

    let (base_cycles, base_result) = run_core(rv32::rv32i());
    let (bp_cycles, bp_result) = run_core(rv32::rv32i_bp());
    assert_eq!(base_result, golden.regs[10]);
    assert_eq!(bp_result, golden.regs[10]);
    assert!(
        bp_cycles < base_cycles,
        "branch prediction should help: baseline {base_cycles}, bp {bp_cycles}"
    );
}

#[test]
fn dual_core_runs_two_programs() {
    let td = check(&rv32::rv32i_mc()).unwrap();
    let prog0 = programs::primes_at(40, 0x1800);
    let prog1 = programs::primes_at(30, 0x1900);
    let golden0 = golden_run(&prog0, 2_000_000);

    let mut sim = Sim::compile(&td).unwrap();
    let mut mem = MagicMemory::new(
        &td,
        &["c0_imem", "c0_dmem", "c1_imem", "c1_dmem"],
        &prog0,
        MEM_WORDS,
    );
    mem.load(rv32::MC_CORE1_PC, &prog1);

    // Run until both cores have retired their programs.
    let c0_retired = td.reg_id("c0_retired");
    let c1_retired = td.reg_id("c1_retired");
    let golden1 = {
        // Golden model for core 1: same program image, shifted entry point.
        let mut words = vec![0u32; MEM_WORDS];
        words[(rv32::MC_CORE1_PC >> 2) as usize..][..prog1.len()].copy_from_slice(&prog1);
        let mut g = koika_riscv::Golden::new(&words, MEM_WORDS);
        g.pc = rv32::MC_CORE1_PC;
        assert_eq!(g.run(2_000_000), koika_riscv::golden::Exit::Halted);
        g
    };

    let mut cycles = 0u64;
    while (sim.get64(c0_retired) < golden0.retired || sim.get64(c1_retired) < golden1.retired)
        && cycles < 5_000_000
    {
        mem.tick(cycles, sim.as_reg_access());
        sim.cycle();
        cycles += 1;
    }
    assert!(cycles < 5_000_000, "dual-core run did not finish");
    assert_eq!(mem.word(0x1800), programs::primes_expected(40));
    assert_eq!(mem.word(0x1900), programs::primes_expected(30));
}

#[test]
fn scheduler_randomization_on_the_core() {
    // Case study 2: the core computes the right answer whatever order the
    // rules (appear to) execute in each cycle.
    use koika::analysis::ScheduleAssumption;
    let td = check(&rv32::rv32i()).unwrap();
    let program = programs::primes(20);
    let golden = golden_run(&program, 1_000_000);

    let mut sim = Sim::compile_with(
        &td,
        &CompileOptions {
            level: OptLevel::max(),
            assumption: ScheduleAssumption::AnyOrder,
            coverage: false,
            optimize: true,
        },
    )
    .unwrap();
    let mut mem = mem_for(&td, "", &program);
    let retired = td.reg_id("retired");

    let mut rng = koika::testgen::SplitMix64::new(0xC0FFEE);
    let nrules = td.rules.len();
    let mut cycles = 0u64;
    while sim.get64(retired) < golden.retired && cycles < 3_000_000 {
        mem.tick(cycles, sim.as_reg_access());
        // A random permutation of the rules each cycle.
        let mut order: Vec<usize> = (0..nrules).collect();
        for i in (1..nrules).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        sim.cycle_with_order(&order);
        cycles += 1;
    }
    assert!(cycles < 3_000_000, "randomized-schedule run did not finish");
    assert_eq!(mem.word(programs::RESULT_ADDR), programs::primes_expected(20));
    for i in 0..32 {
        assert_eq!(
            sim.get64(td.reg_elem("rf", i)) as u32,
            golden.regs[i as usize],
            "x{i}"
        );
    }
}

#[test]
fn bypass_core_removes_dependent_arithmetic_bubbles() {
    // The paper's case study 4 closes by pointing at missing bypass paths:
    // back-to-back dependent arithmetic stalls on the scoreboard. The
    // `bypass` variant forwards execute results into decode; dependent
    // chains should run substantially faster, and architectural state must
    // still match the golden model.
    let program = programs::dependent_chain(200);
    let golden = golden_run(&program, 1_000_000);

    let run_core = |design: koika::design::Design| -> u64 {
        let td = check(&design).unwrap();
        let mut sim = Sim::compile(&td).unwrap();
        let mut mem = mem_for(&td, "", &program);
        let run = run_until_retired(&mut sim, &mut mem, &td, "", golden.retired, 2_000_000);
        assert!(run.completed);
        assert_matches_golden(&mut sim, &mem, &td, "", 32, &golden);
        run.cycles
    };

    let base = run_core(rv32::rv32i());
    let fwd = run_core(rv32::rv32i_bypass());
    assert!(
        fwd * 10 <= base * 8,
        "forwarding should cut dependent-chain cycles by >20%: {base} -> {fwd}"
    );
}

#[test]
fn bypass_core_matches_golden_on_primes_and_all_backends() {
    let td = check(&rv32::rv32i_bypass()).unwrap();
    let program = programs::primes(40);
    let golden = golden_run(&program, 2_000_000);

    // Golden-model check on the Cuttlesim backend.
    let mut sim = Sim::compile(&td).unwrap();
    let mut mem = mem_for(&td, "", &program);
    let run = run_until_retired(&mut sim, &mut mem, &td, "", golden.retired, 5_000_000);
    assert!(run.completed, "bypass core did not finish: {run:?}");
    assert_matches_golden(&mut sim, &mem, &td, "", 32, &golden);

    // Cycle-exact agreement between interpreter, VM, and RTL.
    let mut interp = Interp::new(&td);
    let mut interp_mem = mem_for(&td, "", &program);
    let mut vm = Sim::compile(&td).unwrap();
    let mut vm_mem = mem_for(&td, "", &program);
    let mut rtl = RtlSim::new(rtl_compile(&td, Scheme::Dynamic).unwrap());
    let mut rtl_mem = mem_for(&td, "", &program);
    for cycle in 0..2000u64 {
        interp_mem.tick(cycle, interp.as_reg_access());
        interp.cycle();
        vm_mem.tick(cycle, vm.as_reg_access());
        vm.cycle();
        rtl_mem.tick(cycle, rtl.as_reg_access());
        rtl.cycle();
        for r in 0..td.num_regs() {
            let reg = RegId(r as u32);
            assert_eq!(vm.get64(reg), interp.get64(reg), "cycle {cycle} {} (vm)", td.regs[r].name);
            assert_eq!(rtl.get64(reg), interp.get64(reg), "cycle {cycle} {} (rtl)", td.regs[r].name);
        }
    }
}

#[test]
fn combined_bp_and_bypass_beats_both_single_improvements() {
    // The design-exploration endpoint: branch prediction and bypassing
    // attack independent bottlenecks, so together they dominate either one
    // alone on a workload with both branches and dependent arithmetic.
    let program = programs::branchy(400);
    let golden = golden_run(&program, 1_000_000);

    let run_core = |design: koika::design::Design| -> u64 {
        let td = check(&design).unwrap();
        let mut sim = Sim::compile(&td).unwrap();
        let mut mem = mem_for(&td, "", &program);
        let run = run_until_retired(&mut sim, &mut mem, &td, "", golden.retired, 2_000_000);
        assert!(run.completed);
        assert_matches_golden(&mut sim, &mem, &td, "", 32, &golden);
        run.cycles
    };

    let base = run_core(rv32::rv32i());
    let bp = run_core(rv32::rv32i_bp());
    let byp = run_core(rv32::rv32i_bypass());
    let both = run_core(rv32::rv32i_bp_bypass());
    assert!(both < bp, "combined ({both}) should beat bp alone ({bp})");
    assert!(both < byp, "combined ({both}) should beat bypass alone ({byp})");
    assert!(both < base, "combined ({both}) should beat baseline ({base})");
}
