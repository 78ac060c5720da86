//! Core of the Kôika rule-based hardware description language (RHDL).
//!
//! This crate is the foundation of a Rust reproduction of *"Effective
//! simulation and debugging for a high-level hardware language using
//! software compilers"* (ASPLOS 2021). It provides:
//!
//! * [`bits`] — fixed-width bit vectors, the value domain of designs;
//! * [`ast`] / [`design`] — the surface language and design builders;
//! * [`check`](mod@check) / [`tir`] — the type checker and the typed IR every backend
//!   consumes;
//! * [`interp`] — the reference one-rule-at-a-time interpreter (the naive
//!   log-based model of the paper's §3.1, used as differential-testing
//!   ground truth);
//! * [`analysis`] — the abstract-interpretation pass behind Cuttlesim's
//!   design-specific optimizations (§3.3);
//! * [`device`] — the external-device harness that keeps every backend
//!   cycle-accurate with respect to every other one;
//! * [`obs`] — the unified observability layer: probe hooks, cycle
//!   metrics, and Perfetto/JSON export shared by all backends (§4.2's
//!   debugging story as a library);
//! * [`snapshot`] — versioned capture/restore of complete simulator state,
//!   portable across all backends;
//! * [`fault`] — the resilience-testing harness: seeded SEU bit-flip
//!   campaigns classified against a golden run, watchdog budgets, and
//!   deterministic replay with shrinking;
//! * [`runner`] — the crash-isolated parallel job runner under campaigns
//!   and differential fuzzing: fixed worker pool, per-job panic
//!   containment, retry with exponential backoff, deterministic result
//!   ordering.
//!
//! The fast simulator lives in the `cuttlesim` crate; the RTL pipeline
//! (the "Verilator baseline") lives in `koika-rtl`.
//!
//! # Quick start
//!
//! ```
//! use koika::{ast::*, design::DesignBuilder, check, interp::Interp};
//! use koika::device::SimBackend;
//!
//! // An 8-bit counter that wraps.
//! let mut b = DesignBuilder::new("counter");
//! b.reg("count", 8, 0u64);
//! b.rule("incr", vec![wr0("count", rd0("count").add(k(8, 1)))]);
//! let design = check::check(&b.build())?;
//!
//! let mut sim = Interp::new(&design);
//! for _ in 0..10 {
//!     sim.cycle();
//! }
//! use koika::device::RegAccess;
//! assert_eq!(sim.get64(design.reg_id("count")), 10);
//! # Ok::<(), koika::check::CheckError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod ast;
pub mod bits;
pub mod check;
pub mod debug;
pub mod design;
pub mod device;
pub mod fault;
pub mod interp;
pub mod obs;
pub mod runner;
pub mod snapshot;
pub mod testgen;
pub mod tir;
pub mod vcd;

pub use bits::Bits;
pub use check::check;
pub use design::{Design, DesignBuilder};
pub use device::{Device, RegAccess, SimBackend};
pub use fault::{CampaignConfig, CampaignReport, Injection, Outcome, Watchdog};
pub use interp::Interp;
pub use obs::{FailureReason, Metrics, Observer, PerfettoTrace};
pub use runner::{JobError, JobReport, JobUpdate, RunnerConfig, RunnerStats};
pub use snapshot::{Snapshot, SnapshotError};
pub use tir::{RegId, TDesign};
