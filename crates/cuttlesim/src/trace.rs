//! Chronological rule-activity traces.
//!
//! The paper notes that "stepping through interactively makes it very clear
//! which parts of the design execute in a given cycle" — this module makes
//! that view available in batch form: a per-cycle record of which rules
//! committed, which failed (exited early), and which were skipped, rendered
//! as a timeline. A thin view over the unified observability layer
//! ([`koika::obs::Observer`]): recording is just an observer that collects
//! each rule's commit/fail event, so the trace is guaranteed to agree with
//! every other sink attached to the same run.

use crate::vm::Sim;
use koika::device::Device;
use koika::obs::{FailureReason, Observer};
use std::fmt;

/// The outcome of one rule in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleOutcome {
    /// The rule committed.
    Fired,
    /// The rule aborted (guard, conflict, or explicit abort).
    Failed,
}

/// A recorded window of rule activity.
#[derive(Debug, Clone)]
pub struct RuleTrace {
    rule_names: Vec<String>,
    /// Outcomes per recorded cycle, in schedule order.
    cycles: Vec<(u64, Vec<RuleOutcome>)>,
}

/// The observer behind [`RuleTrace::record`]: outcome events arrive in
/// schedule order within each cycle, so collecting them in arrival order
/// reproduces the trace's schedule-order columns.
#[derive(Default)]
struct TraceCollector {
    cycles: Vec<(u64, Vec<RuleOutcome>)>,
    cur: Vec<RuleOutcome>,
}

impl Observer for TraceCollector {
    fn rule_commit(&mut self, _rule: usize) {
        self.cur.push(RuleOutcome::Fired);
    }

    fn rule_fail(&mut self, _rule: usize, _reason: FailureReason) {
        self.cur.push(RuleOutcome::Failed);
    }

    fn cycle_end(&mut self, cycle: u64) {
        self.cycles.push((cycle, std::mem::take(&mut self.cur)));
    }

    fn reads_reg_writes(&self) -> bool {
        false
    }
}

impl RuleTrace {
    /// Runs `ncycles` cycles on `sim` (ticking `devices` at each boundary),
    /// recording every rule's outcome.
    pub fn record(sim: &mut Sim, devices: &mut [&mut dyn Device], ncycles: u64) -> RuleTrace {
        use koika::device::SimBackend;
        let rule_names: Vec<String> = sim
            .program()
            .schedule
            .iter()
            .map(|&i| sim.program().rules[i].name.clone())
            .collect();
        let mut collector = TraceCollector::default();
        sim.run_obs(ncycles, devices, &mut collector);
        RuleTrace {
            rule_names,
            cycles: collector.cycles,
        }
    }

    /// The recorded cycles: `(cycle number, outcome per scheduled rule)`.
    pub fn cycles(&self) -> &[(u64, Vec<RuleOutcome>)] {
        &self.cycles
    }

    /// The scheduled rule names (column order of [`RuleTrace::cycles`]).
    pub fn rule_names(&self) -> &[String] {
        &self.rule_names
    }

    /// How many times the given rule fired within the window.
    pub fn fired_count(&self, rule: &str) -> u64 {
        let Some(col) = self.rule_names.iter().position(|n| n == rule) else {
            return 0;
        };
        self.cycles
            .iter()
            .filter(|(_, o)| o[col] == RuleOutcome::Fired)
            .count() as u64
    }
}

impl fmt::Display for RuleTrace {
    /// Renders a timeline, one row per cycle:
    ///
    /// ```text
    ///  cycle  writeback  execute  decode  fetch
    ///     12          ●        ●       -      ●
    /// ```
    ///
    /// `●` = fired, `-` = failed/stalled.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>7}", "cycle")?;
        for name in &self.rule_names {
            write!(f, "  {name}")?;
        }
        writeln!(f)?;
        for (cycle, outcomes) in &self.cycles {
            write!(f, "{cycle:>7}")?;
            for (name, o) in self.rule_names.iter().zip(outcomes) {
                let mark = match o {
                    RuleOutcome::Fired => '●',
                    RuleOutcome::Failed => '-',
                };
                write!(f, "  {mark:^width$}", width = name.chars().count())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koika::ast::*;
    use koika::check::check;
    use koika::design::DesignBuilder;

    #[test]
    fn trace_shows_alternating_rules() {
        // The §2.1 two-state machine: rlA and rlB strictly alternate.
        let mut b = DesignBuilder::new("stm");
        b.reg("st", 1, 0u64);
        b.rule("rlA", vec![guard(rd0("st").eq(k(1, 0))), wr0("st", k(1, 1))]);
        b.rule("rlB", vec![guard(rd0("st").eq(k(1, 1))), wr0("st", k(1, 0))]);
        b.schedule(["rlA", "rlB"]);
        let td = check(&b.build()).unwrap();
        let mut sim = crate::Sim::compile(&td).unwrap();
        let trace = RuleTrace::record(&mut sim, &mut [], 6);
        assert_eq!(trace.fired_count("rlA"), 3);
        assert_eq!(trace.fired_count("rlB"), 3);
        for (cycle, outcomes) in trace.cycles() {
            let expect_a = cycle % 2 == 0;
            assert_eq!(
                outcomes[0] == RuleOutcome::Fired,
                expect_a,
                "cycle {cycle}"
            );
            assert_eq!(outcomes[1] == RuleOutcome::Fired, !expect_a);
        }
        let text = trace.to_string();
        assert!(text.contains("rlA"));
        assert!(text.contains('●'));
        assert!(text.contains('-'));
    }

    #[test]
    fn tracing_is_cycle_accurate_with_plain_running() {
        use koika::device::{RegAccess, SimBackend};
        let mut b = DesignBuilder::new("c");
        b.reg("n", 8, 0u64);
        b.rule(
            "inc",
            vec![
                guard(rd0("n").bit(2).eq(k(1, 0))),
                wr0("n", rd0("n").add(k(8, 1))),
            ],
        );
        let td = check(&b.build()).unwrap();
        let mut traced = crate::Sim::compile(&td).unwrap();
        let _ = RuleTrace::record(&mut traced, &mut [], 10);
        let mut plain = crate::Sim::compile(&td).unwrap();
        for _ in 0..10 {
            plain.cycle();
        }
        assert_eq!(
            traced.get64(td.reg_id("n")),
            plain.get64(td.reg_id("n")),
            "stepping through rules must not change behavior"
        );
    }
}
