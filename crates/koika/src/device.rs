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

use crate::obs::Observer;
use crate::snapshot::{Snapshot, SnapshotError};
use crate::tir::RegId;

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

    /// Executes one full cycle while reporting rule-level events to the
    /// given [`Observer`].
    ///
    /// This is a separate entry point (rather than an `Option<&mut dyn
    /// Observer>` parameter on [`SimBackend::cycle`]) so that unobserved
    /// simulation pays no dispatch or branching cost at all: the hot
    /// `cycle` loops stay byte-for-byte what they were before observation
    /// existed.
    ///
    /// Rule indices reported to the observer are **declaration order**
    /// indices on every backend, and `reg_write` reports registers whose
    /// low 64 bits changed across the cycle boundary, so event streams
    /// from different backends over the same design are directly
    /// comparable.
    fn cycle_obs(&mut self, obs: &mut dyn Observer);

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

    /// Runs `ncycles` cycles, ticking each device before each cycle.
    fn run(&mut self, ncycles: u64, devices: &mut [&mut dyn Device]) {
        for _ in 0..ncycles {
            let cycle = self.cycle_count();
            for d in devices.iter_mut() {
                d.tick(cycle, self.as_reg_access());
            }
            self.cycle();
        }
    }

    /// Like [`SimBackend::run`], but with an [`Observer`] attached to
    /// every cycle.
    fn run_obs(&mut self, ncycles: u64, devices: &mut [&mut dyn Device], obs: &mut dyn Observer) {
        for _ in 0..ncycles {
            let cycle = self.cycle_count();
            for d in devices.iter_mut() {
                d.tick(cycle, self.as_reg_access());
            }
            self.cycle_obs(obs);
        }
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

    /// Takes one lane out of the batch for good: from the next cycle on,
    /// the caller ignores the lane, so the backend need not keep its
    /// columns, commits or counters meaningful, and may skip the work.
    ///
    /// The default is a no-op: the backend may keep simulating the lane;
    /// the caller ignores it from now on.
    fn retire_lane(&mut self, _lane: usize) {}
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
