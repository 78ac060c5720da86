//! The external-device harness shared by every simulation backend.
//!
//! Kôika designs interact with the outside world (memories, stream sources
//! and sinks, traffic generators) exclusively **at cycle boundaries**, through
//! dedicated request/response registers. A [`Device`] is given register-level
//! access between cycles; because all backends expose the same register
//! space and devices run at the same points, every backend remains
//! cycle-accurate with respect to every other one — the property §1 of the
//! paper calls "keeping simulation and synthesis cycle-accurate with respect
//! to each other", which our differential tests check register-by-register.
//!
//! Devices may only touch registers at most 64 bits wide (every design in
//! this repository qualifies).

use crate::obs::{rec_reason, Observer};
use crate::snapshot::{Snapshot, SnapshotError};
use crate::tir::{RegId, TDesign};
use std::cell::Cell;

/// Register-level access to a simulator's architectural state, as visible
/// between cycles.
pub trait RegAccess {
    /// Reads a register's current value (zero-extended into a `u64`).
    ///
    /// # Panics
    ///
    /// Panics if the register is wider than 64 bits.
    fn get64(&self, reg: RegId) -> u64;

    /// Overwrites a register's current value (truncated to its width).
    ///
    /// # Panics
    ///
    /// Panics if the register is wider than 64 bits.
    fn set64(&mut self, reg: RegId, value: u64);
}

/// An external device stepped once per cycle, before the cycle executes.
///
/// `tick(n, ..)` runs before cycle `n`: it observes the architectural state
/// left by cycle `n - 1` and installs the inputs for cycle `n`. A 1-cycle-
/// latency "magic memory" is the canonical example: it reads the request
/// registers written during cycle `n - 1` and fills the response registers
/// read during cycle `n`.
pub trait Device {
    /// Steps the device before the given cycle.
    fn tick(&mut self, cycle: u64, regs: &mut dyn RegAccess);

    /// Serializes the device's internal state, if it has any that evolves
    /// over time. Devices that return `None` cannot participate in
    /// time-travel debugging (the debugger refuses to checkpoint past
    /// them rather than silently replaying from stale device state).
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state previously produced by [`Device::save_state`].
    fn load_state(&mut self, _state: &[u8]) -> Result<(), String> {
        Err("device does not support state save/restore".into())
    }

    /// The device as a word memory, if that is all it is: its ticks then
    /// do exactly what [`WordMemory::serve`] does, so a backend may serve
    /// the ports itself instead of calling [`Device::tick`] (the native
    /// Cuttlesim dispatch does, inside its compiled cycle loop).
    fn word_memory(&mut self) -> Option<WordMemory<'_>> {
        None
    }
}

/// The registers of one port of a word memory. Per cycle boundary:
///
/// * the design asserts `req_valid` with `req_addr` (a byte address) and,
///   for a store, `req_wen`, `req_wstrb` and `req_wdata`;
/// * the device clears `req_valid` and performs the access: a store
///   writes the strobed bytes of the addressed word and completes
///   silently; a load sets `resp_valid` and `resp_data`, but only once
///   the previous response is consumed (until then the request stays
///   pending);
/// * the design consumes a response by clearing `resp_valid`.
///
/// Word addresses past the end of the memory wrap around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordPort {
    /// A request is pending (1 bit).
    pub req_valid: RegId,
    /// The request's byte address (32 bits).
    pub req_addr: RegId,
    /// The request is a store (1 bit).
    pub req_wen: RegId,
    /// Which bytes of the word a store writes (4 bits).
    pub req_wstrb: RegId,
    /// The word a store writes (32 bits).
    pub req_wdata: RegId,
    /// A load's response is waiting (1 bit).
    pub resp_valid: RegId,
    /// The loaded word (32 bits).
    pub resp_data: RegId,
}

impl WordPort {
    /// The port whose registers are `{prefix}_req_valid`, ...,
    /// `{prefix}_resp_data` in `design`.
    ///
    /// # Panics
    ///
    /// Panics if one of them is missing.
    pub fn resolve(design: &TDesign, prefix: &str) -> WordPort {
        let reg = |field: &str| design.reg_id(&format!("{prefix}_{field}"));
        WordPort {
            req_valid: reg("req_valid"),
            req_addr: reg("req_addr"),
            req_wen: reg("req_wen"),
            req_wstrb: reg("req_wstrb"),
            req_wdata: reg("req_wdata"),
            resp_valid: reg("resp_valid"),
            resp_data: reg("resp_data"),
        }
    }
}

/// A word memory as a device offers it ([`Device::word_memory`]): the
/// ports it serves, in serving order, and its words.
#[derive(Debug)]
pub struct WordMemory<'a> {
    /// The ports, served in this order.
    pub ports: &'a [WordPort],
    /// The memory words.
    pub words: &'a mut [u32],
}

/// The word index of `byte_addr` in a memory of `len` words: addresses
/// past the end wrap around. The division is taken only for those, so an
/// in-range access (every access of a program that fits) pays a compare,
/// not a `div`.
///
/// # Panics
///
/// Panics if `len` is 0.
pub fn word_index(byte_addr: u32, len: usize) -> usize {
    let idx = (byte_addr >> 2) as usize;
    if idx < len {
        idx
    } else {
        idx % len
    }
}

impl WordMemory<'_> {
    /// Serves every port once, as [`WordPort`] describes: the body of a
    /// word memory's [`Device::tick`]. Generic, so a caller holding a
    /// concrete simulator gets inlined register access.
    pub fn serve<R: RegAccess + ?Sized>(&mut self, regs: &mut R) {
        for p in self.ports {
            if regs.get64(p.req_valid) == 0 {
                continue;
            }
            let idx = word_index(regs.get64(p.req_addr) as u32, self.words.len());
            if regs.get64(p.req_wen) != 0 {
                let strb = regs.get64(p.req_wstrb) as u32;
                let wdata = regs.get64(p.req_wdata) as u32;
                let mut word = self.words[idx];
                for byte in 0..4 {
                    if strb & (1 << byte) != 0 {
                        let mask = 0xffu32 << (byte * 8);
                        word = (word & !mask) | (wdata & mask);
                    }
                }
                self.words[idx] = word;
                regs.set64(p.req_valid, 0);
            } else if regs.get64(p.resp_valid) == 0 {
                regs.set64(p.resp_data, self.words[idx] as u64);
                regs.set64(p.resp_valid, 1);
                regs.set64(p.req_valid, 0);
            }
        }
    }
}

/// The bounds of one [`SimBackend::run_span`] call. Before each cycle the
/// span checks `stop`, then ticks the devices and runs the cycle, then
/// counts the cycle toward the stall budget; it ends at whichever of these
/// comes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Run at most this many cycles.
    pub cycles: u64,
    /// Stop before the first cycle at which this register reads at least
    /// the given value.
    pub stop: Option<(RegId, u64)>,
    /// Stop after the cycle that makes `stalled` reach this many.
    pub stall_limit: Option<u64>,
    /// Consecutive commit-free cycles before the span (a watchdog's stall
    /// count, carried across spans).
    pub stalled: u64,
}

/// Why a span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanEnd {
    /// It ran [`Span::cycles`] cycles.
    Cycles,
    /// The stop register reached its target.
    Stop,
    /// The stall count reached [`Span::stall_limit`].
    Stall,
}

/// What one [`SimBackend::run_span`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRun {
    /// Cycles executed.
    pub cycles: u64,
    /// Consecutive commit-free cycles at the end of the span.
    pub stalled: u64,
    /// Why the span ended.
    pub end: SpanEnd,
}

/// The per-cycle span loop every backend can run, and the body of the
/// provided [`SimBackend::run_span`]: per cycle, the stop check, the
/// device ticks in order, then the cycle.
pub fn run_span_per_cycle<S: SimBackend + ?Sized>(
    sim: &mut S,
    span: Span,
    devices: &mut [&mut dyn Device],
) -> SpanRun {
    let mut stalled = span.stalled;
    for ran in 0..span.cycles {
        if let Some((reg, target)) = span.stop {
            if sim.get64(reg) >= target {
                return SpanRun {
                    cycles: ran,
                    stalled,
                    end: SpanEnd::Stop,
                };
            }
        }
        let cycle = sim.cycle_count();
        for d in devices.iter_mut() {
            d.tick(cycle, sim.as_reg_access());
        }
        let before = sim.rules_fired();
        sim.cycle();
        stalled = if sim.rules_fired() == before {
            stalled + 1
        } else {
            0
        };
        if span.stall_limit.is_some_and(|k| stalled >= k) {
            return SpanRun {
                cycles: ran + 1,
                stalled,
                end: SpanEnd::Stall,
            };
        }
    }
    SpanRun {
        cycles: span.cycles,
        stalled,
        end: SpanEnd::Cycles,
    }
}

thread_local! {
    /// The register capture of [`SimBackend::cycle_obs`], before the
    /// cycle and after it: one buffer per thread, reused by every
    /// observed cycle on it.
    static CAPTURE: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
}

/// A cycle-accurate simulation backend.
///
/// All simulators in this workspace (the reference interpreter, every
/// Cuttlesim VM optimization level, and both RTL schemes) implement this
/// trait, which is what makes differential testing and shared harnesses
/// possible.
pub trait SimBackend: RegAccess {
    /// Executes one full cycle (all scheduled rules, then the register
    /// update).
    fn cycle(&mut self);

    /// The per-cycle record the last [`SimBackend::cycle`] left: the
    /// rules it ran, in schedule order, as **declaration order** indices,
    /// and one record word per rule ([`crate::obs::REC_COMMIT`] gives the
    /// encoding).
    fn last_record(&self) -> (&[usize], &[u64]);

    /// Appends the low 64 bits of every register to `out`, in index order.
    fn reg_words(&self, out: &mut Vec<u64>);

    /// Executes one full cycle while reporting rule-level events to the
    /// given [`Observer`]: the ordinary [`SimBackend::cycle`], then a
    /// replay of the record it left ([`SimBackend::last_record`]), so an
    /// observed cycle runs the same engine code as an unobserved one and
    /// every backend sends the same event order. That order is
    /// `cycle_start`; per scheduled rule, in schedule order,
    /// `rule_attempt` then `rule_commit` or `rule_fail`; `reg_write` for
    /// each register whose low 64 bits changed across the cycle boundary,
    /// in index order; `cycle_end`. Registers are captured around the
    /// cycle only for an observer whose [`Observer::reads_reg_writes`] is
    /// `true`.
    ///
    /// Rule indices reported to the observer are declaration order
    /// indices on every backend, so event streams from different backends
    /// over the same design are directly comparable.
    fn cycle_obs(&mut self, obs: &mut dyn Observer) {
        let capture = obs.reads_reg_writes();
        let mut regs = Vec::new();
        if capture {
            regs = CAPTURE.take();
            regs.clear();
            self.reg_words(&mut regs);
        }
        let cycle = self.cycle_count();
        obs.cycle_start(cycle);
        self.cycle();
        let (rules, words) = self.last_record();
        debug_assert_eq!(rules.len(), words.len(), "one record word per rule");
        for (&rule, &word) in rules.iter().zip(words) {
            obs.rule_attempt(rule);
            match rec_reason(word) {
                None => obs.rule_commit(rule),
                Some(reason) => obs.rule_fail(rule, reason),
            }
        }
        if capture {
            let n = regs.len();
            self.reg_words(&mut regs);
            let (old, new) = regs.split_at(n);
            for (i, (&old, &new)) in old.iter().zip(new).enumerate() {
                if new != old {
                    obs.reg_write(RegId(i as u32), old, new);
                }
            }
            CAPTURE.set(regs);
        }
        obs.cycle_end(cycle);
    }

    /// The number of cycles executed so far.
    fn cycle_count(&self) -> u64;

    /// The number of rule executions that committed so far.
    fn rules_fired(&self) -> u64;

    /// Captures the complete architectural state (register file, cycle
    /// counter, commit counters) at the current cycle boundary.
    ///
    /// Snapshots are portable across backends: a snapshot taken here
    /// restores onto any other [`SimBackend`] running the same design, and
    /// the subsequent commit streams are identical (the cross-backend
    /// equivalence the differential tests check).
    fn snapshot(&self) -> Snapshot;

    /// Restores a previously captured state.
    ///
    /// # Errors
    ///
    /// Fails without modifying the simulator if the snapshot was taken
    /// from a different design or its register shape does not match
    /// ([`SnapshotError`]).
    fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError>;

    /// Runs `ncycles` cycles, ticking each device before each cycle: a
    /// [`SimBackend::run_span`] with no stop.
    fn run(&mut self, ncycles: u64, devices: &mut [&mut dyn Device]) {
        self.run_span(
            Span {
                cycles: ncycles,
                ..Span::default()
            },
            devices,
        );
    }

    /// Runs unobserved cycles, ticking each device before each cycle,
    /// until the [`Span`] ends. The provided body is
    /// [`run_span_per_cycle`]; a backend may run the span its own way if
    /// it leaves the same state behind, devices included.
    fn run_span(&mut self, span: Span, devices: &mut [&mut dyn Device]) -> SpanRun {
        run_span_per_cycle(self, span, devices)
    }

    /// Upcast helper so `run` can hand devices a `&mut dyn RegAccess`.
    fn as_reg_access(&mut self) -> &mut dyn RegAccess;
}

/// A batched cycle-accurate backend: `lanes` instances of one design
/// advancing in lock-step, one `cycle()` call stepping all of them.
///
/// This is the harness-facing face of SoA batched engines (the Cuttlesim
/// batch VM implements it): campaign runners drive whole batches through
/// this trait, reading each lane's observables — commit stream, register
/// values — exactly as they would a scalar [`SimBackend`]'s. Implementations
/// guarantee per-lane observables bit-identical to `lanes` independent
/// scalar runs.
pub trait BatchBackend {
    /// Number of instances in the batch.
    fn lanes(&self) -> usize;

    /// Cycles executed so far (identical across lanes, by construction).
    fn cycle_count(&self) -> u64;

    /// Executes one full cycle across every lane.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on an internal engine error (e.g.
    /// miscompiled bytecode); the batch is left in an unspecified but
    /// memory-safe state.
    fn cycle(&mut self) -> Result<(), String>;

    /// The rules one lane committed during the most recent cycle, as
    /// declaration-order rule indices in schedule order — the raw material
    /// for per-lane commit fingerprints.
    fn lane_commits(&self, lane: usize) -> &[u32];

    /// Reads a register in one lane (zero-extended into a `u64`).
    fn lane_get64(&self, lane: usize, reg: RegId) -> u64;

    /// Overwrites a register in one lane (truncated to its width).
    fn lane_set64(&mut self, lane: usize, reg: RegId, value: u64);

    /// Takes one lane out of the batch: from the next cycle on, the caller
    /// ignores the lane until it admits it again
    /// ([`BatchBackend::admit_lane`]), so the backend need not keep its
    /// columns, commits or counters meaningful, and may skip the work.
    ///
    /// The default is a no-op: the backend may keep simulating the lane;
    /// the caller ignores it from now on.
    fn retire_lane(&mut self, _lane: usize) {}

    /// Brings a retired lane back at this cycle boundary. The caller has
    /// written every register of the lane through
    /// [`BatchBackend::lane_set64`] since retiring it, so the lane's state
    /// is exactly those registers; from the next cycle on its observables
    /// match a scalar run started from them.
    ///
    /// The default is a no-op, the partner of [`BatchBackend::retire_lane`]'s:
    /// a backend that kept simulating the lane already holds a live
    /// column, and the register writes made it the caller's state.
    fn admit_lane(&mut self, _lane: usize) {}
}

/// [`RegAccess`] over a single lane of a [`BatchBackend`], so devices and
/// fault injectors written against the scalar interface can drive one
/// batched instance.
pub struct LaneAccess<'a> {
    backend: &'a mut dyn BatchBackend,
    lane: usize,
}

impl<'a> LaneAccess<'a> {
    /// A view of `lane` within `backend`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn new(backend: &'a mut dyn BatchBackend, lane: usize) -> Self {
        assert!(lane < backend.lanes(), "lane out of range");
        LaneAccess { backend, lane }
    }
}

impl RegAccess for LaneAccess<'_> {
    fn get64(&self, reg: RegId) -> u64 {
        self.backend.lane_get64(self.lane, reg)
    }

    fn set64(&mut self, reg: RegId, value: u64) {
        self.backend.lane_set64(self.lane, reg, value);
    }
}

/// A device that drives a register with successive values of an iterator,
/// one per cycle — handy for feeding streaming designs like FIR filters.
pub struct StreamSource<I> {
    reg: RegId,
    values: I,
}

impl<I: Iterator<Item = u64>> StreamSource<I> {
    /// Creates a source feeding `reg` from `values`. When the iterator runs
    /// dry the register is left untouched.
    pub fn new(reg: RegId, values: I) -> Self {
        StreamSource { reg, values }
    }
}

impl<I: Iterator<Item = u64>> Device for StreamSource<I> {
    fn tick(&mut self, _cycle: u64, regs: &mut dyn RegAccess) {
        if let Some(v) = self.values.next() {
            regs.set64(self.reg, v);
        }
    }
}

/// A device that records a register's value every cycle — a software "logic
/// analyzer probe" for tests and examples.
#[derive(Debug)]
pub struct Probe {
    reg: RegId,
    /// The recorded samples, one per cycle.
    pub samples: Vec<u64>,
}

impl Probe {
    /// Creates a probe on `reg`.
    pub fn new(reg: RegId) -> Self {
        Probe {
            reg,
            samples: Vec::new(),
        }
    }
}

impl Device for Probe {
    fn tick(&mut self, _cycle: u64, regs: &mut dyn RegAccess) {
        self.samples.push(regs.get64(self.reg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;
    use crate::check::check;
    use crate::design::DesignBuilder;
    use crate::interp::Interp;

    fn passthrough_design() -> crate::tir::TDesign {
        let mut b = DesignBuilder::new("pass");
        b.reg("input", 8, 0u64);
        b.reg("output", 8, 0u64);
        b.rule("copy", vec![wr0("output", rd0("input").add(k(8, 1)))]);
        check(&b.build()).unwrap()
    }

    #[test]
    fn stream_source_feeds_one_value_per_cycle() {
        let td = passthrough_design();
        let mut sim = Interp::new(&td);
        let mut src = StreamSource::new(td.reg_id("input"), [10u64, 20, 30].into_iter());
        sim.run(5, &mut [&mut src]);
        // After the iterator runs dry the register holds its last value.
        assert_eq!(sim.get64(td.reg_id("input")), 30);
        assert_eq!(sim.get64(td.reg_id("output")), 31);
    }

    #[test]
    fn probe_samples_before_each_cycle() {
        let td = passthrough_design();
        let mut sim = Interp::new(&td);
        let mut src = StreamSource::new(td.reg_id("input"), (0u64..).map(|i| i * 2));
        let mut probe = Probe::new(td.reg_id("output"));
        sim.run(4, &mut [&mut src, &mut probe]);
        // The probe sees the output as it stood *before* each cycle: the
        // first sample is the reset value, then input_{n-1} + 1.
        assert_eq!(probe.samples, vec![0, 1, 3, 5]);
    }

    #[test]
    fn run_ticks_devices_with_the_cycle_number() {
        struct CycleCheck {
            seen: Vec<u64>,
        }
        impl Device for CycleCheck {
            fn tick(&mut self, cycle: u64, _regs: &mut dyn RegAccess) {
                self.seen.push(cycle);
            }
        }
        let td = passthrough_design();
        let mut sim = Interp::new(&td);
        sim.cycle(); // advance before attaching, to check offsets
        let mut dev = CycleCheck { seen: Vec::new() };
        sim.run(3, &mut [&mut dev]);
        assert_eq!(dev.seen, vec![1, 2, 3]);
    }
}
