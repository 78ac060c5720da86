//! The optimization ladder of §3.2/§3.3, reified.
//!
//! The paper derives its fast models through a sequence of refinements of
//! the naive transactional model, each preserving cycle accuracy. Each rung
//! is independently selectable here so that the ablation benchmark can
//! attribute the speedup to individual refinements. The rungs are cumulative:
//! every level includes all previous ones.
//!
//! Level `O0` (the naive model with interleaved read-write sets and data) is
//! the reference interpreter [`koika::interp::Interp`]; the VM ladder starts
//! at [`OptLevel::SplitRwSets`].

use std::fmt;

/// A Cuttlesim optimization level (cumulative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OptLevel {
    /// §3.2 "Separate read-write sets and data": read-write bitsets live in
    /// their own arrays so clearing them is a cache-friendly memset. This is
    /// the VM baseline; it implements the exact two-log reference semantics
    /// (including "Goldbergian contraptions").
    SplitRwSets,
    /// §3.2 "Accumulate logs instead of merging them": the rule log is
    /// replaced by an accumulated `cycle ++ rule` log, making write checks
    /// single-log and rule commit a plain copy. From this level on, same-rule
    /// read-after-write contraptions are treated as conflicts (the compiler
    /// warns about them).
    AccumulatedLogs,
    /// §3.2 "Reset on failure, not on entry": the accumulated log is kept
    /// equal to the cycle log at rule boundaries, so successful rules pay no
    /// reset; failures restore the invariant instead.
    ResetOnFailure,
    /// §3.2 "Merge data0 and data1": one data field per register per log.
    MergedData,
    /// §3.2 "Eliminate beginning-of-cycle state": the logs' data fields hold
    /// the register state; end-of-cycle commits disappear entirely.
    NoBocState,
    /// §3.3 design-specific optimizations, driven by static analysis:
    /// minimized read-write sets (no port-0 read tracking), uncheck-ed
    /// accesses to *safe* registers, footprint-restricted commits and
    /// rollbacks, and rollback-free early failures.
    DesignSpecific,
}

impl OptLevel {
    /// All levels, lowest to highest.
    pub const ALL: [OptLevel; 6] = [
        OptLevel::SplitRwSets,
        OptLevel::AccumulatedLogs,
        OptLevel::ResetOnFailure,
        OptLevel::MergedData,
        OptLevel::NoBocState,
        OptLevel::DesignSpecific,
    ];

    /// The highest level — what `cuttlesim` means by default.
    pub fn max() -> OptLevel {
        OptLevel::DesignSpecific
    }

    /// The level for a user-facing `--level` number (`1..=6`).
    pub fn from_number(n: u32) -> Option<OptLevel> {
        OptLevel::ALL.get(n.checked_sub(1)? as usize).copied()
    }

    /// The user-facing `--level` number (`1..=6`).
    pub fn number(self) -> u32 {
        OptLevel::ALL.iter().position(|&l| l == self).unwrap_or(5) as u32 + 1
    }

    /// Short name used in benchmark output (`O1`..`O6`).
    pub fn short_name(self) -> &'static str {
        match self {
            OptLevel::SplitRwSets => "O1",
            OptLevel::AccumulatedLogs => "O2",
            OptLevel::ResetOnFailure => "O3",
            OptLevel::MergedData => "O4",
            OptLevel::NoBocState => "O5",
            OptLevel::DesignSpecific => "O6",
        }
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OptLevel::SplitRwSets => "split read-write sets",
            OptLevel::AccumulatedLogs => "accumulated logs",
            OptLevel::ResetOnFailure => "reset on failure",
            OptLevel::MergedData => "merged data fields",
            OptLevel::NoBocState => "no beginning-of-cycle state",
            OptLevel::DesignSpecific => "design-specific (static analysis)",
        };
        write!(f, "{} ({name})", self.short_name())
    }
}

/// The level expanded into independent feature flags, as consulted by the VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LevelCfg {
    /// The rule log is accumulated (`cycle ++ rule`).
    pub acc_logs: bool,
    /// Failures (not rule entries) restore the accumulated log.
    pub reset_on_fail: bool,
    /// `data0` and `data1` share one field.
    pub merged_data: bool,
    /// No separate beginning-of-cycle state.
    pub no_boc: bool,
    /// Analysis-driven specialization (fast ops, footprints, clean aborts).
    pub design_specific: bool,
}

impl From<OptLevel> for LevelCfg {
    fn from(level: OptLevel) -> Self {
        LevelCfg {
            acc_logs: level >= OptLevel::AccumulatedLogs,
            reset_on_fail: level >= OptLevel::ResetOnFailure,
            merged_data: level >= OptLevel::MergedData,
            no_boc: level >= OptLevel::NoBocState,
            design_specific: level >= OptLevel::DesignSpecific,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_cumulative() {
        let mut prev: Option<LevelCfg> = None;
        for level in OptLevel::ALL {
            let cfg = LevelCfg::from(level);
            if let Some(p) = prev {
                // Each flag, once on, stays on.
                assert!(!p.acc_logs || cfg.acc_logs);
                assert!(!p.reset_on_fail || cfg.reset_on_fail);
                assert!(!p.merged_data || cfg.merged_data);
                assert!(!p.no_boc || cfg.no_boc);
            }
            prev = Some(cfg);
        }
    }

    #[test]
    fn max_is_design_specific() {
        assert_eq!(OptLevel::max(), OptLevel::DesignSpecific);
        assert!(LevelCfg::from(OptLevel::max()).design_specific);
    }

    #[test]
    fn display_and_short_names() {
        assert_eq!(OptLevel::SplitRwSets.short_name(), "O1");
        assert!(OptLevel::DesignSpecific.to_string().contains("O6"));
    }
}
