//! Property tests of the checker and analysis passes: determinism, width
//! discipline of the typed IR, and soundness relationships of the analysis
//! lattice.

use koika::analysis::{analyze, ScheduleAssumption, Tri};
use koika::check::check;
use koika::testgen::random_design;
use koika::tir::{TAction, TExpr};
use proptest::prelude::*;

/// Every expression in the typed IR respects the width discipline: operands
/// of same-width operators agree, conditions are 1 bit, widths are nonzero.
fn check_expr_widths(e: &TExpr) {
    use koika::ast::BinOp;
    assert!(e.width() >= 1);
    match e {
        TExpr::Bin { op, a, b, w } => {
            check_expr_widths(a);
            check_expr_widths(b);
            match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor => {
                    assert_eq!(a.width(), b.width());
                    assert_eq!(*w, a.width());
                }
                BinOp::Eq | BinOp::Ne | BinOp::Ult | BinOp::Ule | BinOp::Slt | BinOp::Sle => {
                    assert_eq!(a.width(), b.width());
                    assert_eq!(*w, 1);
                }
                BinOp::Concat => assert_eq!(*w, a.width() + b.width()),
                BinOp::Shl | BinOp::Shr | BinOp::Sra => assert_eq!(*w, a.width()),
            }
        }
        TExpr::Select { c, t, f, w } => {
            check_expr_widths(c);
            check_expr_widths(t);
            check_expr_widths(f);
            assert_eq!(c.width(), 1);
            assert_eq!(t.width(), f.width());
            assert_eq!(*w, t.width());
        }
        TExpr::Un { a, .. } => check_expr_widths(a),
        TExpr::ReadArr { idx, .. } => check_expr_widths(idx),
        _ => {}
    }
}

fn check_action_widths(a: &TAction) {
    match a {
        TAction::Let { e, .. } => check_expr_widths(e),
        TAction::Write { e, .. } => check_expr_widths(e),
        TAction::WriteArr { idx, e, .. } => {
            check_expr_widths(idx);
            check_expr_widths(e);
        }
        TAction::If { c, t, f } => {
            check_expr_widths(c);
            assert_eq!(c.width(), 1);
            t.iter().for_each(check_action_widths);
            f.iter().for_each(check_action_widths);
        }
        TAction::Named { body, .. } => body.iter().for_each(check_action_widths),
        TAction::Abort => {}
    }
}

proptest! {
    #[test]
    fn typed_ir_respects_width_discipline(seed in any::<u64>()) {
        let td = check(&random_design(seed)).expect("generator is well-typed");
        for rule in td.rules.iter() {
            rule.body.iter().for_each(check_action_widths);
        }
    }

    #[test]
    fn checking_is_deterministic(seed in any::<u64>()) {
        let d = random_design(seed);
        prop_assert_eq!(check(&d).unwrap(), check(&d).unwrap());
    }

    /// AnyOrder analysis is never less conservative than Declared: a symbol
    /// safe under AnyOrder is safe under the declared schedule too.
    #[test]
    fn any_order_safety_implies_declared_safety(seed in any::<u64>()) {
        let td = check(&random_design(seed)).unwrap();
        let declared = analyze(&td, ScheduleAssumption::Declared);
        let any = analyze(&td, ScheduleAssumption::AnyOrder);
        for (s, (&a, &d)) in any.safe_sym.iter().zip(&declared.safe_sym).enumerate() {
            prop_assert!(
                !a || d,
                "symbol {} safe under AnyOrder but unsafe under Declared",
                td.syms[s].name
            );
        }
    }

    /// Unsafe symbols must actually experience failures somewhere — checked
    /// the contrapositive way: if a symbol is *safe*, no rule's may-fail set
    /// contains it.
    #[test]
    fn safe_symbols_never_appear_in_may_fail_sets(seed in any::<u64>()) {
        let td = check(&random_design(seed)).unwrap();
        let a = analyze(&td, ScheduleAssumption::Declared);
        for (s, &safe) in a.safe_sym.iter().enumerate() {
            if safe {
                for (ri, rule) in a.rules.iter().enumerate() {
                    prop_assert!(
                        !rule.may_fail_sym[s],
                        "safe symbol {} may fail in rule {}",
                        td.syms[s].name,
                        td.rules[ri].name
                    );
                }
            }
        }
    }

    /// The data footprint is always a subset of the read-write footprint
    /// (anything written participates in conflict bookkeeping).
    #[test]
    fn data_footprint_is_subset_of_rw_footprint(seed in any::<u64>()) {
        let td = check(&random_design(seed)).unwrap();
        let a = analyze(&td, ScheduleAssumption::Declared);
        for rule in a.rules.iter() {
            for sym in &rule.footprint_data {
                prop_assert!(
                    rule.footprint_rw.contains(sym),
                    "written symbol missing from the rw footprint"
                );
            }
        }
    }
}

#[test]
fn tri_lattice_laws() {
    use Tri::*;
    let all = [No, Maybe, Yes];
    for a in all {
        // join is idempotent and commutative.
        assert_eq!(a.join(a), a);
        for b in all {
            assert_eq!(a.join(b), b.join(a));
            // or_seq is monotone: never goes from possible to No.
            if a.possible() || b.possible() {
                assert!(a.or_seq(b).possible());
            }
        }
    }
    // weaken caps must-information at Maybe.
    assert_eq!(Yes.weaken(), Maybe);
    assert_eq!(Maybe.weaken(), Maybe);
    assert_eq!(No.weaken(), No);
}
