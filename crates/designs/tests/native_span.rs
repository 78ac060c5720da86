//! Differential pin for native spans: a run that stays inside the
//! generated crate (`koika_run`, which serves the memory ports itself)
//! must leave exactly the state of the per-cycle loop — cycles, every
//! register, every memory word, per-rule fired and failed counts and the
//! last failure. The per-cycle side is the same run on tac dispatch (or
//! the interpreter), which takes the per-cycle path by construction.
//! Every test skips loudly without rustc.

use cuttlesim::{CompileOptions, Dispatch, OptLevel, Sim};
use koika::ast::*;
use koika::check::check;
use koika::design::DesignBuilder;
use koika::device::{Device, RegAccess, SimBackend, Span, SpanEnd};
use koika::fault::{run_watchdogged, Injection, TripKind, Watchdog};
use koika::interp::Interp;
use koika::snapshot::StateImage;
use koika::tir::{RegId, TDesign};
use koika_designs::harness::{golden_run, run_until_retired, CoreRun, MEM_WORDS};
use koika_designs::memdev::{MagicMemory, MemPort};
use koika_designs::rv32;
use koika_riscv::programs;

fn available(test: &str) -> bool {
    if cuttlesim::toolchain_available() {
        true
    } else {
        eprintln!("SKIP {test}: no rustc toolchain");
        false
    }
}

fn sim_on(td: &TDesign, level: OptLevel, dispatch: Dispatch) -> Sim {
    let opts = CompileOptions {
        level,
        ..CompileOptions::default()
    };
    let mut sim = Sim::compile_with(td, &opts).unwrap();
    sim.try_set_dispatch(dispatch).unwrap();
    sim
}

/// Everything a span must leave as the per-cycle loop leaves it.
#[derive(Debug, PartialEq)]
struct End {
    run: CoreRun,
    regs: Vec<u64>,
    mem: Vec<u32>,
    fired: Vec<u64>,
    failed: Vec<u64>,
    last_fail: Option<cuttlesim::FailInfo>,
}

fn end_of(sim: &Sim, mem: &MagicMemory, run: CoreRun) -> End {
    End {
        run,
        regs: sim.reg_values(),
        mem: mem.words().to_vec(),
        fired: sim.fired_per_rule().to_vec(),
        failed: sim.fails_per_rule().to_vec(),
        last_fail: sim.last_fail(),
    }
}

fn cores() -> Vec<(&'static str, TDesign)> {
    [
        ("rv32i", rv32::rv32i()),
        ("rv32e", rv32::rv32e()),
        ("rv32i-bp", rv32::rv32i_bp()),
        ("rv32i-bypass", rv32::rv32i_bypass()),
    ]
    .into_iter()
    .map(|(name, d)| (name, check(&d).unwrap()))
    .collect()
}

fn workloads() -> Vec<(&'static str, Vec<u32>)> {
    vec![
        ("primes", programs::primes(40)),
        ("memwalk", programs::memwalk(3)),
        ("branchy", programs::branchy(20)),
    ]
}

#[test]
fn native_spans_match_per_cycle_tac_on_every_core_and_program() {
    if !available("native_spans_match_per_cycle_tac_on_every_core_and_program") {
        return;
    }
    for (name, td) in cores() {
        let native = sim_on(&td, OptLevel::max(), Dispatch::Native);
        let tac = sim_on(&td, OptLevel::max(), Dispatch::Tac);
        for (prog, program) in workloads() {
            let golden = golden_run(&program, 10_000_000);
            let ends: Vec<End> = [&native, &tac]
                .map(|sim| {
                    let mut sim = sim.clone();
                    let mut mem = MagicMemory::new(&td, &["imem", "dmem"], &program, MEM_WORDS);
                    let run =
                        run_until_retired(&mut sim, &mut mem, &td, "", golden.retired, 5_000_000);
                    assert!(run.completed, "{name}/{prog}: {run:?}");
                    end_of(&sim, &mem, run)
                })
                .into();
            assert_eq!(
                ends[0], ends[1],
                "{name}/{prog}: native span vs per-cycle tac"
            );
        }
    }
}

#[test]
fn unobserved_watchdogged_runs_trip_and_inject_as_per_cycle_tac() {
    if !available("unobserved_watchdogged_runs_trip_and_inject_as_per_cycle_tac") {
        return;
    }
    let td = check(&rv32::rv32i()).unwrap();
    let program = programs::memwalk(4);
    let pc = td.reg_id("pc");
    let injections = [
        Injection {
            cycle: 0,
            reg: pc,
            bit: 9,
        },
        Injection {
            cycle: 700,
            reg: td.reg_id("retired"),
            bit: 3,
        },
        Injection {
            cycle: 701,
            reg: td.reg_elem("rf", 5),
            bit: 0,
        },
        Injection {
            cycle: 1500,
            reg: pc,
            bit: 30,
        },
        // Loses a fetch response: the core stops committing, so the stall
        // budget trips.
        Injection {
            cycle: 1600,
            reg: td.reg_id("imem_resp_valid"),
            bit: 0,
        },
    ];
    let budgets = [
        Watchdog {
            max_cycles: Some(3000),
            ..Watchdog::default()
        },
        Watchdog {
            stall_cycles: Some(5),
            ..Watchdog::default()
        },
        Watchdog {
            stall_cycles: Some(40),
            max_cycles: Some(1700),
            ..Watchdog::default()
        },
        Watchdog {
            stall_cycles: Some(16),
            max_cycles: Some(2600),
            ..Watchdog::default()
        },
    ];
    let mut kinds = Vec::new();
    for (b, budget) in budgets.iter().enumerate() {
        for inj in [&injections[..], &injections[1..3], &injections[4..]] {
            let outs: Vec<_> = [Dispatch::Native, Dispatch::Tac]
                .map(|dispatch| {
                    let mut sim = sim_on(&td, OptLevel::max(), dispatch);
                    let mem = MagicMemory::new(&td, &["imem", "dmem"], &program, MEM_WORDS);
                    let mut devices: Vec<Box<dyn Device>> = vec![Box::new(mem)];
                    let mut armed = budget.arm();
                    // Two calls, so a budget spans them as it does in chunked runs.
                    let mut run =
                        |n| run_watchdogged(&mut sim, &mut devices, n, inj, &mut armed, None);
                    let trip = run(900).and_then(|()| run(2000)).err();
                    let image = StateImage::capture(&sim, &devices, None).to_bytes();
                    let counts = (sim.fired_per_rule().to_vec(), sim.fails_per_rule().to_vec());
                    (trip, armed.stall_count(), image, counts, sim.last_fail())
                })
                .into();
            assert_eq!(outs[0], outs[1], "budget {b}, {} injections", inj.len());
            kinds.extend(outs[0].0.as_ref().map(|t| t.kind));
        }
    }
    let tripped = |kind| kinds.contains(&kind);
    assert!(
        tripped(TripKind::Stall) && tripped(TripKind::CycleBudget),
        "{kinds:?}"
    );
}

/// One word-memory port driven through its corners: partial store
/// strobes, byte addresses far past the end of a 5-word memory (so the
/// wrap is a true modulo), and loads issued while the previous response
/// is still unconsumed (they stay pending until it is). The consuming
/// rule writes the response registers before it may fail, so a serve
/// that left the cycle log stale would show in its rollback.
fn port_design() -> TDesign {
    let mut b = DesignBuilder::new("portmix");
    MemPort::declare(&mut b, "p");
    b.reg("step", 8, 0u64);
    b.reg("cnt", 8, 0u64);
    b.reg("acc", 32, 0x1234_5678u64);
    b.rule(
        "issue",
        vec![
            guard(rd0("p_req_valid").eq(k(1, 0))),
            let_("s", rd0("step").zext(32)),
            let_("far", var("s").mul(k(32, 0x0101_0104))),
            let_("near", var("s").mul(k(32, 4))),
            wr0("p_req_valid", k(1, 1)),
            wr0(
                "p_req_addr",
                select(var("s").bit(2).eq(k(1, 1)), var("far"), var("near")),
            ),
            wr0("p_req_wen", var("s").bit(0)),
            wr0("p_req_wstrb", var("s").slice(1, 4)),
            wr0(
                "p_req_wdata",
                rd0("acc").xor(var("s").mul(k(32, 0x9e37_79b1))),
            ),
            wr0("step", rd0("step").add(k(8, 1))),
        ],
    );
    b.rule(
        "consume",
        vec![
            guard(rd0("p_resp_valid").eq(k(1, 1))),
            wr0("p_resp_valid", k(1, 0)),
            wr0(
                "acc",
                rd0("acc")
                    .shl(k(32, 1))
                    .or(rd0("acc").shr(k(32, 31)))
                    .xor(rd0("p_resp_data")),
            ),
            // Fails after its writes most cycles, so the rollback restores
            // the response registers the memory set between cycles.
            guard(rd0("cnt").slice(0, 2).eq(k(2, 0))),
        ],
    );
    b.rule("count", vec![wr0("cnt", rd0("cnt").add(k(8, 1)))]);
    check(&b.build()).unwrap()
}

fn regs_of(sim: &dyn RegAccess, td: &TDesign) -> Vec<u64> {
    (0..td.regs.len())
        .map(|i| sim.get64(RegId(i as u32)))
        .collect()
}

#[test]
fn native_port_serve_matches_the_interpreter_at_every_level() {
    if !available("native_port_serve_matches_the_interpreter_at_every_level") {
        return;
    }
    let td = port_design();
    let init = [10, 11, 12, 13, 14];
    let stop = Span {
        cycles: 600,
        stop: Some((td.reg_id("step"), 150)),
        ..Span::default()
    };

    let mut interp = Interp::new(&td);
    let mut mem = MagicMemory::new(&td, &["p"], &init, 5);
    let first = interp.run_span(stop, &mut [&mut mem]);
    assert_eq!(first.end, SpanEnd::Stop);
    let at_stop = (first, regs_of(&interp, &td), mem.words().to_vec());
    interp.run(400, &mut [&mut mem]);
    let want = (
        at_stop,
        regs_of(&interp, &td),
        mem.words().to_vec(),
        interp.rules_fired(),
    );
    assert_ne!(mem.words(), &init[..], "the design must store");

    for level in OptLevel::ALL {
        let mut sim = sim_on(&td, level, Dispatch::Native);
        let mut mem = MagicMemory::new(&td, &["p"], &init, 5);
        let first = sim.run_span(stop, &mut [&mut mem]);
        let at_stop = (first, regs_of(&sim, &td), mem.words().to_vec());
        sim.run(400, &mut [&mut mem]);
        let got = (
            at_stop,
            regs_of(&sim, &td),
            mem.words().to_vec(),
            sim.rules_fired(),
        );
        assert_eq!(got, want, "native at {level:?}");
    }
}
