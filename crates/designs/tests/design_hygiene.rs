//! Hygiene checks over every shipped design: they typecheck, contain no
//! Goldbergian contraptions (so all backends agree on them — the compiler
//! would warn otherwise, like the real Cuttlesim), fit the 64-bit fast
//! path, and compile under every backend.

use koika::analysis::{analyze, ScheduleAssumption};
use koika::check::check;
use koika::design::Design;
use koika_designs::{msi, rv32, small};

fn all_designs() -> Vec<Design> {
    vec![
        small::collatz(),
        small::fir(),
        small::fft(),
        rv32::rv32i(),
        rv32::rv32e(),
        rv32::rv32i_bp(),
        rv32::rv32i_x0bug(),
        rv32::rv32i_mc(),
        msi::msi_system(),
        msi::msi_system_buggy(),
    ]
}

#[test]
fn all_designs_typecheck_and_compile_everywhere() {
    for design in all_designs() {
        let td = check(&design).unwrap_or_else(|e| panic!("{}: {e}", design.name));
        assert!(td.fits_u64(), "{}: register wider than 64 bits", td.name);
        cuttlesim::Sim::compile(&td)
            .unwrap_or_else(|e| panic!("{}: cuttlesim: {e}", td.name));
        koika_rtl::compile(&td, koika_rtl::Scheme::Dynamic)
            .unwrap_or_else(|e| panic!("{}: rtl dynamic: {e}", td.name));
        koika_rtl::compile(&td, koika_rtl::Scheme::Static)
            .unwrap_or_else(|e| panic!("{}: rtl static: {e}", td.name));
    }
}

#[test]
fn no_design_contains_goldbergian_contraptions() {
    for design in all_designs() {
        let td = check(&design).unwrap();
        let analysis = analyze(&td, ScheduleAssumption::Declared);
        assert!(
            analysis.warnings.is_empty(),
            "{}: {:?}",
            td.name,
            analysis.warnings
        );
    }
}

#[test]
fn analysis_finds_safe_registers_in_real_designs() {
    // The design-specific pass should find a healthy fraction of safe
    // registers in the cores (the paper's §3.3 relies on this).
    let td = check(&rv32::rv32i()).unwrap();
    let analysis = analyze(&td, ScheduleAssumption::Declared);
    let safe = analysis.safe_sym.iter().filter(|s| **s).count();
    assert!(
        safe * 2 >= td.syms.len(),
        "expected most core registers to be provably safe, got {safe}/{}",
        td.syms.len()
    );
}

#[test]
fn generated_cpp_models_mention_every_rule() {
    for design in all_designs() {
        let td = check(&design).unwrap();
        let cpp = cuttlesim::codegen_cpp::emit(&td);
        for rule in td.rules.iter() {
            assert!(
                cpp.contains(&format!("DEF_RULE({})", rule.name)),
                "{}: rule {} missing from the generated model",
                td.name,
                rule.name
            );
        }
    }
}

#[test]
fn generated_verilog_mentions_every_register() {
    for design in all_designs() {
        let td = check(&design).unwrap();
        let model = koika_rtl::compile(&td, koika_rtl::Scheme::Dynamic).unwrap();
        let v = koika_rtl::verilog::emit(&model);
        assert!(v.contains("module"));
        assert!(v.contains("endmodule"));
        assert_eq!(
            v.matches("  reg [").count(),
            td.num_regs(),
            "{}: register count mismatch in Verilog",
            td.name
        );
    }
}
