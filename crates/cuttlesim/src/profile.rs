//! Rule-level profiling — the gprof view of a running design.
//!
//! The paper's workflow profiles generated C++ models with gprof and maps
//! the hot functions straight back to rules. Our models are bytecode, so
//! the equivalent is a per-rule work profile: instructions executed,
//! commits, and failures. Because a failing rule stops at its first
//! failing check, the instruction counts directly expose how much of each
//! rule's body actually runs — the early-exit behavior §2.3 is about.
//!
//! The counts are **dispatch-invariant**: the `tac` engine executes fused
//! micro-ops, but each micro-op carries the weight of the bytecode span it
//! replaced, so a profile reads identically under `match` and `tac`
//! dispatch (asserted by `tac::tests`).

use crate::vm::Sim;
use koika::obs::Metrics;
use std::fmt;

/// A per-rule work profile extracted from a [`Sim`].
#[derive(Debug, Clone)]
pub struct ProfileReport {
    rows: Vec<ProfileRow>,
    total_insns: u64,
}

/// One rule's row in the profile.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Rule name.
    pub rule: String,
    /// VM instructions executed inside the rule (all invocations).
    pub insns: u64,
    /// Successful (committed) executions.
    pub fired: u64,
    /// Failed executions (conflicts or explicit aborts).
    pub failed: u64,
    /// Static length of the compiled rule body.
    pub body_len: usize,
}

impl ProfileRow {
    /// Average instructions per invocation — low values mean the rule
    /// usually exits early.
    pub fn avg_insns(&self) -> f64 {
        let inv = self.fired + self.failed;
        if inv == 0 {
            0.0
        } else {
            self.insns as f64 / inv as f64
        }
    }
}

impl ProfileReport {
    /// Extracts the profile accumulated so far.
    ///
    /// # Panics
    ///
    /// Panics if profiling was never enabled on the simulator
    /// ([`Sim::enable_profiling`]).
    pub fn collect(sim: &Sim) -> ProfileReport {
        let insns = sim
            .profile_insns()
            .expect("profiling not enabled; call Sim::enable_profiling() first");
        let body_lens: Vec<usize> = sim.program().rules.iter().map(|r| r.code.len()).collect();
        ProfileReport::from_metrics(&sim.metrics_snapshot(), insns, &body_lens)
    }

    /// Builds a report as a view over a [`Metrics`] snapshot, pairing its
    /// per-rule commit/failure counts with instruction counts and static
    /// body lengths (both indexed in rule-declaration order).
    pub fn from_metrics(metrics: &Metrics, insns: &[u64], body_lens: &[usize]) -> ProfileReport {
        let rows: Vec<ProfileRow> = metrics
            .rules()
            .iter()
            .enumerate()
            .map(|(i, r)| ProfileRow {
                rule: r.name.clone(),
                insns: insns.get(i).copied().unwrap_or(0),
                fired: r.fired,
                failed: r.failed(),
                body_len: body_lens.get(i).copied().unwrap_or(0),
            })
            .collect();
        let total_insns = rows.iter().map(|r| r.insns).sum();
        ProfileReport { rows, total_insns }
    }

    /// Rows, hottest first.
    pub fn rows(&self) -> Vec<&ProfileRow> {
        let mut rows: Vec<&ProfileRow> = self.rows.iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.insns));
        rows
    }

    /// Total instructions executed across all rules.
    pub fn total_insns(&self) -> u64 {
        self.total_insns
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<16} {:>8} {:>12} {:>10} {:>10} {:>10}",
            "rule", "%time", "insns", "fired", "failed", "avg-insns"
        )?;
        for row in self.rows() {
            writeln!(
                f,
                "{:<16} {:>7.1}% {:>12} {:>10} {:>10} {:>10.1}",
                row.rule,
                100.0 * row.insns as f64 / self.total_insns.max(1) as f64,
                row.insns,
                row.fired,
                row.failed,
                row.avg_insns(),
            )?;
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
    use koika::device::SimBackend;

    #[test]
    fn early_exits_show_up_as_low_average_instruction_counts() {
        // A rule that is guarded off 3 cycles out of 4 should execute far
        // fewer instructions per invocation than its body length.
        let mut b = DesignBuilder::new("p");
        b.reg("tick", 4, 0u64);
        b.reg("acc", 32, 0u64);
        b.rule(
            "rare",
            vec![
                guard(rd0("tick").slice(0, 2).eq(k(2, 0))),
                wr0(
                    "acc",
                    rd0("acc")
                        .mul(k(32, 7))
                        .add(k(32, 13))
                        .xor(rd0("acc").shl(k(4, 3)))
                        .add(rd0("acc").shr(k(4, 5))),
                ),
            ],
        );
        b.rule("t", vec![wr0("tick", rd0("tick").add(k(4, 1)))]);
        b.schedule(["rare", "t"]);
        let td = check(&b.build()).unwrap();
        let mut sim = crate::Sim::compile(&td).unwrap();
        sim.enable_profiling();
        for _ in 0..400 {
            sim.cycle();
        }
        let report = ProfileReport::collect(&sim);
        let rows = report.rows.clone();
        let rare = rows.iter().find(|r| r.rule == "rare").unwrap();
        let t = rows.iter().find(|r| r.rule == "t").unwrap();
        assert_eq!(rare.fired, 100);
        assert_eq!(rare.failed, 300);
        // Early exits: average well under the full body length.
        assert!(
            rare.avg_insns() < rare.body_len as f64 * 0.6,
            "avg {} vs body {}",
            rare.avg_insns(),
            rare.body_len
        );
        // The always-firing rule runs its whole (short) body every time.
        assert!(t.avg_insns() >= t.body_len as f64 - 1.0);
        let text = report.to_string();
        assert!(text.contains("rare"));
        assert!(text.contains("%time"));
    }

    #[test]
    #[should_panic(expected = "profiling not enabled")]
    fn collect_requires_profiling() {
        let mut b = DesignBuilder::new("p");
        b.reg("x", 4, 0u64);
        b.rule("r", vec![wr0("x", k(4, 1))]);
        let td = check(&b.build()).unwrap();
        let sim = crate::Sim::compile(&td).unwrap();
        let _ = ProfileReport::collect(&sim);
    }
}
