//! The unified observability layer: in-simulator probe hooks, cycle
//! metrics, and machine-readable export sinks.
//!
//! The paper's debugging story (§4.2) is that compiling Kôika to software
//! makes a design *observable*: profiles and breakpoints map straight back
//! to rules. This module turns that idea into one uniform interface. An
//! [`Observer`] receives the same rule-level event stream from every
//! backend — the reference interpreter, the Cuttlesim VM at any
//! optimization level, and the RTL netlist simulator — which is what lets
//! differential tests report *where* two backends diverge, not just that
//! they do.
//!
//! Observation is strictly opt-in, and no backend steps rule by rule for
//! an observer. Every backend's ordinary `cycle()` leaves a per-cycle
//! record: one record word per scheduled rule ([`REC_COMMIT`] gives the
//! encoding). The one observed cycle, the provided
//! [`crate::device::SimBackend::cycle_obs`], runs that ordinary cycle
//! and replays its record as events, so an observed cycle executes the
//! same engine code as an unobserved one. The boundary register diff
//! behind `reg_write` is taken only for observers whose
//! [`Observer::reads_reg_writes`] says they read it.
//!
//! Sinks provided here:
//! - [`Metrics`] — per-rule commit/abort counters, commit/abort-per-cycle
//!   histograms, per-register write counts, and cycles/sec throughput, with
//!   a stable JSON snapshot and a Prometheus-style text dump;
//! - [`PerfettoTrace`] — a Chrome-trace/Perfetto JSON timeline, one track
//!   per rule, slices for commits, instant events for aborts;
//! - [`RegWatch`] — prints (and records) a line whenever a watched register
//!   changes;
//! - [`Fanout`] — broadcasts one event stream to several observers.

use crate::tir::{RegId, TDesign};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Why a rule's execution did not commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// An explicit `abort` (or a failed guard, which lowers to one).
    Abort,
    /// A read/write check failed on the given register.
    Conflict(RegId),
    /// The reason is unknown: the RTL simulator only sees the final
    /// `will_fire` wire, and a Cuttlesim VM trap is neither.
    Unspecified,
}

/// Per-cycle record word of a rule that committed. A record word holds
/// the outcome in bits 0–1 (this, [`REC_CONFLICT`], [`REC_ABORT`] or
/// [`REC_TRAP`]), the conflicting register (or a native trap's ordinal)
/// in bits 2–31 and the failing bytecode pc in bits 32–63 (0 where the
/// backend has no bytecode). Every backend's cycle leaves one word per
/// scheduled rule ([`SimBackend::last_record`]); the Cuttlesim host and
/// its generated native crate write the same words.
///
/// [`SimBackend::last_record`]: crate::device::SimBackend::last_record
pub const REC_COMMIT: u64 = 0;
/// Record outcome: a read/write check failed on the recorded register.
pub const REC_CONFLICT: u64 = 1;
/// Record outcome: an explicit abort.
pub const REC_ABORT: u64 = 2;
/// Record outcome: the rule failed for an unspecified reason. A Cuttlesim
/// VM trap (the rule neither committed nor rolled back) writes it, and so
/// does an RTL rule whose will-fire wire is low.
pub const REC_TRAP: u64 = 3;

/// The record word of a conflict on `reg` (pc 0).
#[inline]
pub fn rec_conflict(reg: RegId) -> u64 {
    (reg.0 as u64) << 2 | REC_CONFLICT
}

/// Why the rule behind record word `w` failed; `None` if it committed.
/// [`REC_TRAP`] reads as [`FailureReason::Unspecified`].
#[inline]
pub fn rec_reason(w: u64) -> Option<FailureReason> {
    match w & 3 {
        REC_COMMIT => None,
        REC_CONFLICT => Some(FailureReason::Conflict(RegId((w as u32) >> 2))),
        REC_ABORT => Some(FailureReason::Abort),
        _ => Some(FailureReason::Unspecified),
    }
}

/// A probe attached to a simulation backend.
///
/// All callbacks default to no-ops so implementors override only what they
/// need. Rule indices are **declaration order** indices into
/// `TDesign::rules` on every backend, so per-rule data collected on one
/// backend is directly comparable with another's.
///
/// `reg_write` reports boundary differences: it fires once per register
/// whose value at the end of the cycle differs from its value at the start
/// (low 64 bits). This is the one definition all three backends can
/// implement identically — the interpreter and VM could also report
/// intra-cycle port writes, but the netlist simulator could not, and the
/// point of this trait is that the streams match.
pub trait Observer {
    /// A cycle is about to execute.
    fn cycle_start(&mut self, _cycle: u64) {}
    /// A scheduled rule is about to be tried (schedule order).
    fn rule_attempt(&mut self, _rule: usize) {}
    /// The rule committed.
    fn rule_commit(&mut self, _rule: usize) {}
    /// The rule aborted or hit a conflict.
    fn rule_fail(&mut self, _rule: usize, _reason: FailureReason) {}
    /// A register's value changed across the cycle boundary.
    fn reg_write(&mut self, _reg: RegId, _old: u64, _new: u64) {}
    /// Whether this observer reads [`Observer::reg_write`]. A backend may
    /// skip capturing registers around the cycle, and so send no
    /// `reg_write` events, for an observer that returns `false`.
    fn reads_reg_writes(&self) -> bool {
        true
    }
    /// The cycle finished and registers are latched.
    fn cycle_end(&mut self, _cycle: u64) {}
    /// A fault was injected before the given cycle: bit `bit` of `reg` was
    /// flipped from `old` to `new` (see [`crate::fault`]).
    fn fault_injected(&mut self, _cycle: u64, _reg: RegId, _bit: u32, _old: u64, _new: u64) {}
    /// A watchdog aborted the run before the given cycle (budget exhausted
    /// or progress stalled).
    fn watchdog_trip(&mut self, _cycle: u64, _reason: &str) {}
    /// A parallel-runner job (campaign member, fuzz seed) committed its
    /// final verdict: `attempts` tries were consumed (1 = first try), and
    /// `panicked` is true when the verdict is a contained panic (see
    /// [`crate::runner`]).
    fn job_finished(&mut self, _index: usize, _attempts: u32, _panicked: bool) {}
}

/// Broadcasts every event to several observers, in order.
pub struct Fanout<'a> {
    sinks: Vec<&'a mut dyn Observer>,
}

impl<'a> Fanout<'a> {
    /// Creates a fanout over the given sinks.
    pub fn new(sinks: Vec<&'a mut dyn Observer>) -> Self {
        Fanout { sinks }
    }
}

impl Observer for Fanout<'_> {
    fn cycle_start(&mut self, cycle: u64) {
        for s in &mut self.sinks {
            s.cycle_start(cycle);
        }
    }
    fn rule_attempt(&mut self, rule: usize) {
        for s in &mut self.sinks {
            s.rule_attempt(rule);
        }
    }
    fn rule_commit(&mut self, rule: usize) {
        for s in &mut self.sinks {
            s.rule_commit(rule);
        }
    }
    fn rule_fail(&mut self, rule: usize, reason: FailureReason) {
        for s in &mut self.sinks {
            s.rule_fail(rule, reason);
        }
    }
    fn reg_write(&mut self, reg: RegId, old: u64, new: u64) {
        for s in &mut self.sinks {
            s.reg_write(reg, old, new);
        }
    }
    fn reads_reg_writes(&self) -> bool {
        self.sinks.iter().any(|s| s.reads_reg_writes())
    }
    fn cycle_end(&mut self, cycle: u64) {
        for s in &mut self.sinks {
            s.cycle_end(cycle);
        }
    }
    fn fault_injected(&mut self, cycle: u64, reg: RegId, bit: u32, old: u64, new: u64) {
        for s in &mut self.sinks {
            s.fault_injected(cycle, reg, bit, old, new);
        }
    }
    fn watchdog_trip(&mut self, cycle: u64, reason: &str) {
        for s in &mut self.sinks {
            s.watchdog_trip(cycle, reason);
        }
    }
    fn job_finished(&mut self, index: usize, attempts: u32, panicked: bool) {
        for s in &mut self.sinks {
            s.job_finished(index, attempts, panicked);
        }
    }
}

/// Writes a Prometheus metric family header (`# HELP` + `# TYPE`).
///
/// Shared by [`Metrics::to_prometheus`] and external exporters (the
/// simulation server's per-tenant `koika_server_*` counters) so every
/// exposition in the workspace formats identically.
pub fn prom_family(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Writes one Prometheus sample line with escaped label values.
pub fn prom_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: u64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", json_escape(v));
        }
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

/// Escapes a string for inclusion in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Per-rule counters for one rule, as aggregated by [`Metrics`].
#[derive(Debug, Clone, Default)]
pub struct RuleStats {
    /// Rule name (declaration order).
    pub name: String,
    /// Times the rule was tried.
    pub attempts: u64,
    /// Times it committed.
    pub fired: u64,
    /// Times it failed on an explicit abort/guard.
    pub failed_abort: u64,
    /// Times it failed on a read/write conflict.
    pub failed_conflict: u64,
    /// Failures the backend could not classify.
    pub failed_other: u64,
    /// Conflict failures broken down by the register whose read/write
    /// check failed (flattened register index → count). The values sum to
    /// `failed_conflict` on backends that classify failures; backends that
    /// cannot (the RTL simulator) leave this empty.
    pub conflict_regs: BTreeMap<u32, u64>,
}

impl RuleStats {
    /// Total failures, regardless of classification.
    pub fn failed(&self) -> u64 {
        self.failed_abort + self.failed_conflict + self.failed_other
    }
}

/// The metrics aggregator: an [`Observer`] that folds the event stream into
/// counters, histograms, and throughput.
///
/// The same `Metrics` value can be attached to any backend; two runs over
/// the same design are diffable field by field.
#[derive(Debug, Clone)]
pub struct Metrics {
    design: String,
    rules: Vec<RuleStats>,
    reg_names: Vec<String>,
    reg_writes: Vec<u64>,
    cycles: u64,
    /// Histogram of commits per cycle: `commit_hist[k]` = cycles with
    /// exactly `k` commits.
    commit_hist: Vec<u64>,
    /// Histogram of aborts (all failures) per cycle.
    abort_hist: Vec<u64>,
    cur_commits: usize,
    cur_aborts: usize,
    faults_injected: u64,
    watchdog_trips: u64,
    jobs_completed: u64,
    job_retries: u64,
    panics_contained: u64,
    started: Option<Instant>,
    /// Cycles completed and wall time since the first cycle started, both
    /// as of the last cycle whose end read the clock.
    timed_cycles: u64,
    elapsed_secs: f64,
}

/// After its first `CLOCK_EVERY` cycles, [`Metrics`] reads the clock only
/// at every `CLOCK_EVERY`th cycle end: one read costs about as much as a
/// native cycle.
const CLOCK_EVERY: u64 = 1024;

impl Metrics {
    /// Creates an aggregator with explicit rule and register names.
    pub fn new(design: impl Into<String>, rule_names: Vec<String>, reg_names: Vec<String>) -> Self {
        let nregs = reg_names.len();
        Metrics {
            design: design.into(),
            rules: rule_names
                .into_iter()
                .map(|name| RuleStats {
                    name,
                    ..RuleStats::default()
                })
                .collect(),
            reg_names,
            reg_writes: vec![0; nregs],
            cycles: 0,
            commit_hist: Vec::new(),
            abort_hist: Vec::new(),
            cur_commits: 0,
            cur_aborts: 0,
            faults_injected: 0,
            watchdog_trips: 0,
            jobs_completed: 0,
            job_retries: 0,
            panics_contained: 0,
            started: None,
            timed_cycles: 0,
            elapsed_secs: 0.0,
        }
    }

    /// Creates an aggregator sized and named for a checked design.
    pub fn for_design(td: &TDesign) -> Self {
        Metrics::new(
            td.name.clone(),
            td.rules.iter().map(|r| r.name.clone()).collect(),
            td.regs.iter().map(|r| r.name.clone()).collect(),
        )
    }

    /// Overwrites the aggregate counters from a backend that maintains its
    /// own always-on counts (e.g. the VM's `fired_per_rule`). Failures land
    /// in the unclassified bucket; attempts are reconstructed as
    /// `fired + failed`.
    pub fn set_counts(&mut self, fired: &[u64], failed: &[u64], cycles: u64) {
        for i in 0..fired.len().max(failed.len()) {
            let f = fired.get(i).copied().unwrap_or(0);
            let x = failed.get(i).copied().unwrap_or(0);
            let r = self.rule_mut(i);
            r.fired = f;
            r.failed_abort = 0;
            r.failed_conflict = 0;
            r.failed_other = x;
            r.attempts = f + x;
        }
        self.cycles = cycles;
    }

    fn rule_mut(&mut self, i: usize) -> &mut RuleStats {
        if i >= self.rules.len() {
            self.rules.resize_with(i + 1, || RuleStats {
                name: String::new(),
                ..RuleStats::default()
            });
        }
        let r = &mut self.rules[i];
        if r.name.is_empty() {
            r.name = format!("rule{i}");
        }
        r
    }

    /// The design name.
    pub fn design(&self) -> &str {
        &self.design
    }

    /// Cycles observed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Per-rule statistics, declaration order.
    pub fn rules(&self) -> &[RuleStats] {
        &self.rules
    }

    /// Per-rule commit counts, declaration order — the backend-divergence
    /// fingerprint the differential tests compare.
    pub fn commits_per_rule(&self) -> Vec<u64> {
        self.rules.iter().map(|r| r.fired).collect()
    }

    /// Total commits across all rules.
    pub fn total_fired(&self) -> u64 {
        self.rules.iter().map(|r| r.fired).sum()
    }

    /// Total failures across all rules.
    pub fn total_failed(&self) -> u64 {
        self.rules.iter().map(|r| r.failed()).sum()
    }

    /// Boundary write counts per register (flattened register space).
    pub fn reg_writes(&self) -> &[u64] {
        &self.reg_writes
    }

    /// Histogram of commits per cycle (`[k]` = cycles with `k` commits).
    pub fn commit_histogram(&self) -> &[u64] {
        &self.commit_hist
    }

    /// Histogram of failures per cycle.
    pub fn abort_histogram(&self) -> &[u64] {
        &self.abort_hist
    }

    /// Faults injected into the observed run (see [`crate::fault`]).
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// Watchdog trips observed (budget exhausted or progress stalled).
    pub fn watchdog_trips(&self) -> u64 {
        self.watchdog_trips
    }

    /// Parallel-runner jobs that committed a final verdict.
    pub fn jobs_completed(&self) -> u64 {
        self.jobs_completed
    }

    /// Retry attempts consumed by transiently failing jobs.
    pub fn job_retries(&self) -> u64 {
        self.job_retries
    }

    /// Jobs whose final verdict was a contained panic.
    pub fn panics_contained(&self) -> u64 {
        self.panics_contained
    }

    /// Observed simulation throughput in cycles per wall-clock second
    /// (0.0 before the first cycle completes). Past the first 1,024
    /// cycles, the rate is taken up to the last multiple of 1,024 cycles.
    pub fn cycles_per_sec(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.timed_cycles as f64 / self.elapsed_secs
        }
    }

    fn bump_hist(hist: &mut Vec<u64>, bucket: usize) {
        if bucket >= hist.len() {
            hist.resize(bucket + 1, 0);
        }
        hist[bucket] += 1;
    }

    /// Renders the stable JSON snapshot.
    ///
    /// With `include_throughput` false the output is fully deterministic
    /// for a deterministic run — that is the form golden tests snapshot.
    pub fn to_json(&self, include_throughput: bool) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n  \"design\": \"{}\",\n  \"cycles\": {},\n  \"rules_fired\": {},\n  \"rules_failed\": {},\n",
            json_escape(&self.design),
            self.cycles,
            self.total_fired(),
            self.total_failed(),
        );
        s.push_str("  \"rules\": [\n");
        for (i, r) in self.rules.iter().enumerate() {
            // The per-register conflict breakdown appears only when a
            // conflict was classified, so conflict-free rules (and whole
            // runs driven by unclassifying backends) keep their
            // historical, golden-snapshotted shape.
            let mut conflicts = String::new();
            if !r.conflict_regs.is_empty() {
                conflicts.push_str(", \"conflict_regs\": {");
                for (k, (reg, n)) in r.conflict_regs.iter().enumerate() {
                    let name = self
                        .reg_names
                        .get(*reg as usize)
                        .cloned()
                        .unwrap_or_else(|| format!("reg{reg}"));
                    let _ = write!(
                        conflicts,
                        "{}\"{}\": {}",
                        if k == 0 { "" } else { ", " },
                        json_escape(&name),
                        n
                    );
                }
                conflicts.push('}');
            }
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"attempts\": {}, \"fired\": {}, \"failed\": {}, \
                 \"failed_abort\": {}, \"failed_conflict\": {}{}}}{}",
                json_escape(&r.name),
                r.attempts,
                r.fired,
                r.failed(),
                r.failed_abort,
                r.failed_conflict,
                conflicts,
                if i + 1 == self.rules.len() { "" } else { "," },
            );
        }
        s.push_str("  ],\n  \"registers\": [\n");
        let written: Vec<usize> = (0..self.reg_writes.len())
            .filter(|&i| self.reg_writes[i] > 0)
            .collect();
        for (k, &i) in written.iter().enumerate() {
            let name = self
                .reg_names
                .get(i)
                .cloned()
                .unwrap_or_else(|| format!("reg{i}"));
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"writes\": {}}}{}",
                json_escape(&name),
                self.reg_writes[i],
                if k + 1 == written.len() { "" } else { "," },
            );
        }
        let _ = write!(
            s,
            "  ],\n  \"commits_per_cycle_hist\": {:?},\n  \"aborts_per_cycle_hist\": {:?}",
            self.commit_hist, self.abort_hist,
        );
        // Fault/watchdog counters only appear when something happened, so
        // fault-free runs keep their historical (golden-snapshotted) shape.
        if self.faults_injected > 0 {
            let _ = write!(s, ",\n  \"faults_injected\": {}", self.faults_injected);
        }
        if self.watchdog_trips > 0 {
            let _ = write!(s, ",\n  \"watchdog_trips\": {}", self.watchdog_trips);
        }
        if self.jobs_completed > 0 {
            let _ = write!(
                s,
                ",\n  \"runner\": {{\"jobs_completed\": {}, \"retries\": {}, \"panics_contained\": {}}}",
                self.jobs_completed, self.job_retries, self.panics_contained,
            );
        }
        if include_throughput {
            let _ = write!(s, ",\n  \"cycles_per_sec\": {:.1}", self.cycles_per_sec());
        }
        s.push_str("\n}\n");
        s
    }

    /// Renders a Prometheus-style text exposition of the counters.
    pub fn to_prometheus(&self) -> String {
        let d = json_escape(&self.design);
        let mut s = String::new();
        s.push_str("# HELP koika_cycles_total Cycles simulated.\n# TYPE koika_cycles_total counter\n");
        let _ = writeln!(s, "koika_cycles_total{{design=\"{d}\"}} {}", self.cycles);
        s.push_str(
            "# HELP koika_rule_commits_total Rule commits by rule.\n# TYPE koika_rule_commits_total counter\n",
        );
        for r in &self.rules {
            let _ = writeln!(
                s,
                "koika_rule_commits_total{{design=\"{d}\",rule=\"{}\"}} {}",
                json_escape(&r.name),
                r.fired
            );
        }
        s.push_str(
            "# HELP koika_rule_failures_total Rule failures by rule and reason.\n# TYPE koika_rule_failures_total counter\n",
        );
        for r in &self.rules {
            let name = json_escape(&r.name);
            let _ = writeln!(
                s,
                "koika_rule_failures_total{{design=\"{d}\",rule=\"{name}\",reason=\"abort\"}} {}",
                r.failed_abort
            );
            let _ = writeln!(
                s,
                "koika_rule_failures_total{{design=\"{d}\",rule=\"{name}\",reason=\"conflict\"}} {}",
                r.failed_conflict
            );
            let _ = writeln!(
                s,
                "koika_rule_failures_total{{design=\"{d}\",rule=\"{name}\",reason=\"other\"}} {}",
                r.failed_other
            );
        }
        s.push_str(
            "# HELP koika_rule_abort_reason_total Rule failures broken down by reason; conflict failures carry the blamed register.\n# TYPE koika_rule_abort_reason_total counter\n",
        );
        for r in &self.rules {
            let name = json_escape(&r.name);
            let _ = writeln!(
                s,
                "koika_rule_abort_reason_total{{design=\"{d}\",rule=\"{name}\",reason=\"abort\"}} {}",
                r.failed_abort
            );
            for (reg, n) in &r.conflict_regs {
                let rn = self
                    .reg_names
                    .get(*reg as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("reg{reg}"));
                let _ = writeln!(
                    s,
                    "koika_rule_abort_reason_total{{design=\"{d}\",rule=\"{name}\",reason=\"conflict\",reg=\"{}\"}} {}",
                    json_escape(&rn),
                    n
                );
            }
            let _ = writeln!(
                s,
                "koika_rule_abort_reason_total{{design=\"{d}\",rule=\"{name}\",reason=\"other\"}} {}",
                r.failed_other
            );
        }
        s.push_str(
            "# HELP koika_reg_writes_total Register boundary writes by register.\n# TYPE koika_reg_writes_total counter\n",
        );
        for (i, &w) in self.reg_writes.iter().enumerate() {
            if w == 0 {
                continue;
            }
            let name = self
                .reg_names
                .get(i)
                .cloned()
                .unwrap_or_else(|| format!("reg{i}"));
            let _ = writeln!(
                s,
                "koika_reg_writes_total{{design=\"{d}\",reg=\"{}\"}} {}",
                json_escape(&name),
                w
            );
        }
        if self.faults_injected > 0 || self.watchdog_trips > 0 {
            s.push_str(
                "# HELP koika_faults_injected_total SEU bit flips injected.\n# TYPE koika_faults_injected_total counter\n",
            );
            let _ = writeln!(
                s,
                "koika_faults_injected_total{{design=\"{d}\"}} {}",
                self.faults_injected
            );
            s.push_str(
                "# HELP koika_watchdog_trips_total Watchdog aborts.\n# TYPE koika_watchdog_trips_total counter\n",
            );
            let _ = writeln!(
                s,
                "koika_watchdog_trips_total{{design=\"{d}\"}} {}",
                self.watchdog_trips
            );
        }
        if self.jobs_completed > 0 {
            s.push_str(
                "# HELP koika_runner_jobs_total Parallel-runner jobs by final verdict.\n# TYPE koika_runner_jobs_total counter\n",
            );
            let _ = writeln!(
                s,
                "koika_runner_jobs_total{{design=\"{d}\",verdict=\"panic\"}} {}",
                self.panics_contained
            );
            let _ = writeln!(
                s,
                "koika_runner_jobs_total{{design=\"{d}\",verdict=\"other\"}} {}",
                self.jobs_completed - self.panics_contained
            );
            s.push_str(
                "# HELP koika_runner_retries_total Retry attempts consumed by transient job failures.\n# TYPE koika_runner_retries_total counter\n",
            );
            let _ = writeln!(
                s,
                "koika_runner_retries_total{{design=\"{d}\"}} {}",
                self.job_retries
            );
        }
        s.push_str(
            "# HELP koika_cycles_per_second Observed simulation throughput.\n# TYPE koika_cycles_per_second gauge\n",
        );
        let _ = writeln!(
            s,
            "koika_cycles_per_second{{design=\"{d}\"}} {:.1}",
            self.cycles_per_sec()
        );
        s
    }
}

impl Observer for Metrics {
    fn cycle_start(&mut self, _cycle: u64) {
        if self.started.is_none() {
            self.started = Some(Instant::now());
        }
        self.cur_commits = 0;
        self.cur_aborts = 0;
    }

    fn rule_attempt(&mut self, rule: usize) {
        self.rule_mut(rule).attempts += 1;
    }

    fn rule_commit(&mut self, rule: usize) {
        self.rule_mut(rule).fired += 1;
        self.cur_commits += 1;
    }

    fn rule_fail(&mut self, rule: usize, reason: FailureReason) {
        let r = self.rule_mut(rule);
        match reason {
            FailureReason::Abort => r.failed_abort += 1,
            FailureReason::Conflict(reg) => {
                r.failed_conflict += 1;
                *r.conflict_regs.entry(reg.0).or_insert(0) += 1;
            }
            FailureReason::Unspecified => r.failed_other += 1,
        }
        self.cur_aborts += 1;
    }

    fn reg_write(&mut self, reg: RegId, _old: u64, _new: u64) {
        let i = reg.0 as usize;
        if i >= self.reg_writes.len() {
            self.reg_writes.resize(i + 1, 0);
        }
        self.reg_writes[i] += 1;
    }

    fn cycle_end(&mut self, _cycle: u64) {
        self.cycles += 1;
        Self::bump_hist(&mut self.commit_hist, self.cur_commits);
        Self::bump_hist(&mut self.abort_hist, self.cur_aborts);
        if self.cycles < CLOCK_EVERY || self.cycles.is_multiple_of(CLOCK_EVERY) {
            if let Some(t0) = self.started {
                self.elapsed_secs = t0.elapsed().as_secs_f64();
                self.timed_cycles = self.cycles;
            }
        }
    }

    fn fault_injected(&mut self, _cycle: u64, _reg: RegId, _bit: u32, _old: u64, _new: u64) {
        self.faults_injected += 1;
    }

    fn watchdog_trip(&mut self, _cycle: u64, _reason: &str) {
        self.watchdog_trips += 1;
    }

    fn job_finished(&mut self, _index: usize, attempts: u32, panicked: bool) {
        self.jobs_completed += 1;
        self.job_retries += attempts.saturating_sub(1) as u64;
        self.panics_contained += panicked as u64;
    }
}

/// A Chrome-trace/Perfetto JSON recorder: one track (thread) per rule,
/// a slice per commit, an instant event per failure.
///
/// Load the output in `chrome://tracing` or <https://ui.perfetto.dev>.
/// One simulated cycle maps to one microsecond of trace time.
#[derive(Debug, Clone)]
pub struct PerfettoTrace {
    design: String,
    rule_names: Vec<String>,
    reg_names: Vec<String>,
    events: Vec<String>,
    cycle: u64,
}

impl PerfettoTrace {
    /// Creates a recorder with explicit names.
    pub fn new(design: impl Into<String>, rule_names: Vec<String>, reg_names: Vec<String>) -> Self {
        PerfettoTrace {
            design: design.into(),
            rule_names,
            reg_names,
            events: Vec::new(),
            cycle: 0,
        }
    }

    /// Creates a recorder sized and named for a checked design.
    pub fn for_design(td: &TDesign) -> Self {
        PerfettoTrace::new(
            td.name.clone(),
            td.rules.iter().map(|r| r.name.clone()).collect(),
            td.regs.iter().map(|r| r.name.clone()).collect(),
        )
    }

    fn rule_name(&self, i: usize) -> String {
        self.rule_names
            .get(i)
            .cloned()
            .unwrap_or_else(|| format!("rule{i}"))
    }

    /// Number of events recorded so far (excluding metadata).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the complete trace-event-format JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let mut first = true;
        let mut push = |s: &mut String, ev: &str| {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            s.push_str(ev);
        };
        push(
            &mut s,
            &format!(
                "{{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", \
                 \"args\": {{\"name\": \"{}\"}}}}",
                json_escape(&self.design)
            ),
        );
        for (i, name) in self.rule_names.iter().enumerate() {
            push(
                &mut s,
                &format!(
                    "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {}, \"name\": \"thread_name\", \
                     \"args\": {{\"name\": \"{}\"}}}}",
                    i + 1,
                    json_escape(name)
                ),
            );
        }
        for ev in &self.events {
            push(&mut s, ev);
        }
        s.push_str("\n]}\n");
        s
    }
}

impl Observer for PerfettoTrace {
    fn cycle_start(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    fn reads_reg_writes(&self) -> bool {
        false
    }

    fn rule_commit(&mut self, rule: usize) {
        self.events.push(format!(
            "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": 1, \"name\": \"{}\"}}",
            rule + 1,
            self.cycle,
            json_escape(&self.rule_name(rule)),
        ));
    }

    fn rule_fail(&mut self, rule: usize, reason: FailureReason) {
        let why = match reason {
            FailureReason::Abort => "abort".to_string(),
            FailureReason::Conflict(reg) => {
                let name = self
                    .reg_names
                    .get(reg.0 as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("reg{}", reg.0));
                format!("conflict on {name}")
            }
            FailureReason::Unspecified => "did not fire".to_string(),
        };
        self.events.push(format!(
            "{{\"ph\": \"i\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"s\": \"t\", \
             \"name\": \"{} fail\", \"args\": {{\"reason\": \"{}\"}}}}",
            rule + 1,
            self.cycle,
            json_escape(&self.rule_name(rule)),
            json_escape(&why),
        ));
    }

    fn fault_injected(&mut self, cycle: u64, reg: RegId, bit: u32, old: u64, new: u64) {
        let name = self
            .reg_names
            .get(reg.0 as usize)
            .cloned()
            .unwrap_or_else(|| format!("reg{}", reg.0));
        // Injections and watchdog trips land on a dedicated track (tid 0),
        // global scope so they draw as full-height markers over the rules.
        self.events.push(format!(
            "{{\"ph\": \"i\", \"pid\": 1, \"tid\": 0, \"ts\": {cycle}, \"s\": \"g\", \
             \"name\": \"SEU {} bit {bit}\", \"args\": {{\"old\": \"{old:#x}\", \"new\": \"{new:#x}\"}}}}",
            json_escape(&name),
        ));
    }

    fn watchdog_trip(&mut self, cycle: u64, reason: &str) {
        self.events.push(format!(
            "{{\"ph\": \"i\", \"pid\": 1, \"tid\": 0, \"ts\": {cycle}, \"s\": \"g\", \
             \"name\": \"watchdog trip\", \"args\": {{\"reason\": \"{}\"}}}}",
            json_escape(reason),
        ));
    }
}

/// Watches a set of registers and emits a line whenever one changes across
/// a cycle boundary — the CLI's `--watch` flag.
#[derive(Debug)]
pub struct RegWatch {
    watched: Vec<(RegId, String)>,
    print: bool,
    cycle: u64,
    /// Recorded change lines, in order.
    pub lines: Vec<String>,
}

impl RegWatch {
    /// Creates a silent watcher (changes recorded in `lines` only).
    pub fn new(watched: Vec<(RegId, String)>) -> Self {
        RegWatch {
            watched,
            print: false,
            cycle: 0,
            lines: Vec::new(),
        }
    }

    /// Creates a watcher that also prints each change to stdout.
    pub fn printing(watched: Vec<(RegId, String)>) -> Self {
        RegWatch {
            print: true,
            ..RegWatch::new(watched)
        }
    }
}

impl Observer for RegWatch {
    fn cycle_start(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    fn reg_write(&mut self, reg: RegId, old: u64, new: u64) {
        if let Some((_, name)) = self.watched.iter().find(|(r, _)| *r == reg) {
            let line = format!("watch {name}: cycle {}: {old:#x} -> {new:#x}", self.cycle);
            if self.print {
                println!("{line}");
            }
            self.lines.push(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;
    use crate::check::check;
    use crate::design::DesignBuilder;
    use crate::device::SimBackend;
    use crate::interp::Interp;

    fn two_rule_design() -> TDesign {
        let mut b = DesignBuilder::new("stm");
        b.reg("st", 1, 0u64);
        b.reg("n", 8, 0u64);
        b.rule(
            "rlA",
            vec![
                guard(rd0("st").eq(k(1, 0))),
                wr0("st", k(1, 1)),
                wr0("n", rd0("n").add(k(8, 1))),
            ],
        );
        b.rule("rlB", vec![guard(rd0("st").eq(k(1, 1))), wr0("st", k(1, 0))]);
        b.schedule(["rlA", "rlB"]);
        check(&b.build()).unwrap()
    }

    #[test]
    fn metrics_counts_commits_and_failures() {
        let td = two_rule_design();
        let mut sim = Interp::new(&td);
        let mut m = Metrics::for_design(&td);
        for _ in 0..10 {
            sim.cycle_obs(&mut m);
        }
        assert_eq!(m.cycles(), 10);
        assert_eq!(m.commits_per_rule(), vec![5, 5]);
        assert_eq!(m.rules()[0].attempts, 10);
        assert_eq!(m.rules()[0].failed_abort, 5, "guard failures are aborts");
        // Every cycle commits exactly one rule and fails exactly one.
        assert_eq!(m.commit_histogram(), &[0, 10]);
        assert_eq!(m.abort_histogram(), &[0, 10]);
        // `st` toggles every cycle, `n` changes on rlA cycles only.
        assert_eq!(m.reg_writes()[td.reg_id("st").0 as usize], 10);
        assert_eq!(m.reg_writes()[td.reg_id("n").0 as usize], 5);
    }

    #[test]
    fn metrics_break_down_conflicts_by_register() {
        let mut b = DesignBuilder::new("cfl");
        b.reg("x", 8, 0u64);
        b.reg("y", 8, 0u64);
        b.rule("w1", vec![wr0("x", k(8, 1)), wr0("y", k(8, 1))]);
        b.rule("w2", vec![wr0("x", k(8, 2))]);
        b.schedule(["w1", "w2"]);
        let td = check(&b.build()).unwrap();
        let mut sim = Interp::new(&td);
        let mut m = Metrics::for_design(&td);
        for _ in 0..3 {
            sim.cycle_obs(&mut m);
        }
        let x = td.reg_id("x").0;
        assert_eq!(m.rules()[1].failed_conflict, 3);
        assert_eq!(m.rules()[1].conflict_regs.get(&x), Some(&3));
        assert!(m.rules()[0].conflict_regs.is_empty());
        let json = m.to_json(false);
        assert!(json.contains("\"conflict_regs\": {\"x\": 3}"), "json: {json}");
        // Conflict-free rules keep the historical JSON shape.
        assert!(json.contains("\"name\": \"w1\", \"attempts\": 3, \"fired\": 3, \"failed\": 0, \"failed_abort\": 0, \"failed_conflict\": 0}"));
        let prom = m.to_prometheus();
        assert!(prom.contains(
            "koika_rule_abort_reason_total{design=\"cfl\",rule=\"w2\",reason=\"conflict\",reg=\"x\"} 3"
        ));
        assert!(prom.contains(
            "koika_rule_abort_reason_total{design=\"cfl\",rule=\"w1\",reason=\"abort\"} 0"
        ));
    }

    #[test]
    fn throughput_is_clocked_every_cycle_then_every_1024th() {
        let mut m = Metrics::new("t", vec![], vec![]);
        assert_eq!(m.cycles_per_sec(), 0.0);
        for c in 0..5 {
            m.cycle_start(c);
            m.cycle_end(c);
            assert_eq!(m.timed_cycles, c + 1);
        }
        for c in 5..3000 {
            m.cycle_start(c);
            m.cycle_end(c);
        }
        assert_eq!(m.cycles(), 3000);
        assert_eq!(m.timed_cycles, 2048);
        assert!(m.cycles_per_sec() > 0.0);
    }

    #[test]
    fn metrics_json_is_deterministic_and_marks_throughput_optional() {
        let td = two_rule_design();
        let mut sim = Interp::new(&td);
        let mut m = Metrics::for_design(&td);
        for _ in 0..4 {
            sim.cycle_obs(&mut m);
        }
        let a = m.to_json(false);
        let b = m.to_json(false);
        assert_eq!(a, b);
        assert!(a.contains("\"design\": \"stm\""));
        assert!(a.contains("\"name\": \"rlA\""));
        assert!(!a.contains("cycles_per_sec"));
        assert!(m.to_json(true).contains("cycles_per_sec"));
        let prom = m.to_prometheus();
        assert!(prom.contains("koika_rule_commits_total{design=\"stm\",rule=\"rlA\"} 2"));
    }

    #[test]
    fn perfetto_records_slices_and_instants() {
        let td = two_rule_design();
        let mut sim = Interp::new(&td);
        let mut t = PerfettoTrace::for_design(&td);
        for _ in 0..3 {
            sim.cycle_obs(&mut t);
        }
        // 3 commits + 3 failures.
        assert_eq!(t.len(), 6);
        let json = t.to_json();
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("rlA"));
    }

    #[test]
    fn fanout_and_watch_see_the_same_stream() {
        let td = two_rule_design();
        let mut sim = Interp::new(&td);
        let mut m = Metrics::for_design(&td);
        let mut w = RegWatch::new(vec![(td.reg_id("n"), "n".to_string())]);
        {
            let mut fan = Fanout::new(vec![&mut m, &mut w]);
            for _ in 0..6 {
                sim.cycle_obs(&mut fan);
            }
        }
        assert_eq!(m.cycles(), 6);
        assert_eq!(w.lines.len(), 3, "n changes on rlA cycles only");
        assert!(w.lines[0].starts_with("watch n: cycle 0"));
    }
}
