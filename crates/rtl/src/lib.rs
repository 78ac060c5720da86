//! RTL substrate for Kôika: the synthesis-side pipeline that the paper's
//! Cuttlesim is measured against.
//!
//! This crate provides everything the paper's *baseline* needs, built from
//! scratch:
//!
//! * [`netlist`] — a hash-consed synchronous netlist IR with local constant
//!   folding;
//! * [`compile`](mod@compile) — the Kôika hardware compilation scheme (§2.2): one circuit
//!   per rule, dynamic read/write-set wires, a-posteriori conflict
//!   reconciliation — plus a leaner "Bluespec-style" static scheme for the
//!   paper's Fig. 2 comparison;
//! * [`sim`] — a levelized cycle-based netlist simulator that, like
//!   Verilator, evaluates **every gate every cycle** (the overhead §2.3
//!   describes);
//! * [`verilog`] — a structural-Verilog emitter over a deliberately small
//!   subset of the language, as Kôika's verified compiler does.
//!
//! # Examples
//!
//! ```
//! use koika::{ast::*, design::DesignBuilder, check};
//! use koika::device::{RegAccess, SimBackend};
//! use koika_rtl::{compile::{compile, Scheme}, sim::RtlSim};
//!
//! let mut b = DesignBuilder::new("counter");
//! b.reg("count", 8, 0u64);
//! b.rule("incr", vec![wr0("count", rd0("count").add(k(8, 1)))]);
//! let design = check::check(&b.build())?;
//!
//! let model = compile(&design, Scheme::Dynamic)?;
//! let mut sim = RtlSim::new(model);
//! sim.cycle();
//! assert_eq!(sim.get64(design.reg_id("count")), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compile;
pub mod netlist;
pub mod sim;
pub mod verilog;

pub use compile::{compile, RtlError, RtlModel, Scheme};
pub use sim::RtlSim;
