//! **Cuttlesim**: a compiler from Kôika rule-based hardware designs to fast,
//! debuggable, cycle-accurate sequential models — the primary contribution of
//! *"Effective simulation and debugging for a high-level hardware language
//! using software compilers"* (ASPLOS 2021), reproduced in Rust.
//!
//! The paper's Cuttlesim emits readable C++ compiled by gcc/clang; this crate
//! lowers designs to a compact bytecode executed by a sequential VM (see
//! DESIGN.md for why, and [`codegen_cpp`] for the paper-faithful readable
//! C++ emitter). What is preserved exactly is the substance of the paper:
//!
//! * **lightweight transactions** implementing Kôika's one-rule-at-a-time
//!   log semantics, refined through the §3.2 ladder ([`OptLevel`]);
//! * **design-specific specialization** from static analysis (§3.3): safe
//!   registers lose all conflict checking, commits/rollbacks shrink to rule
//!   footprints, early failures skip rollback;
//! * **early exits**: a failing rule stops executing immediately, so — unlike
//!   RTL simulation — no cycle ever pays for work its rules didn't do;
//! * **software debuggability**: mid-cycle stepping, failure breakpoints
//!   ([`FailInfo`]), state snapshots and reverse execution
//!   ([`Sim::save_state`], [`Sim::step_back`]), and Gcov-style per-statement
//!   coverage ([`coverage::CoverageReport`]).
//!
//! # Quick start
//!
//! ```
//! use koika::{ast::*, design::DesignBuilder, check};
//! use koika::device::{RegAccess, SimBackend};
//! use cuttlesim::Sim;
//!
//! let mut b = DesignBuilder::new("counter");
//! b.reg("count", 8, 0u64);
//! b.rule("incr", vec![wr0("count", rd0("count").add(k(8, 1)))]);
//! let design = check::check(&b.build())?;
//!
//! let mut sim = Sim::compile(&design)?;
//! sim.cycle();
//! assert_eq!(sim.get64(design.reg_id("count")), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod codegen_cpp;
pub mod compile;
pub mod coverage;
pub mod insn;
pub mod level;
pub mod native;
pub mod pretty;
pub mod profile;
pub mod simd;
pub mod tac;
pub mod trace;
pub mod vm;

pub use batch::BatchSim;
pub use compile::{compile, CompileError, CompileOptions, Program};
pub use coverage::CoverageReport;
pub use native::{cache_dir as native_cache_dir, toolchain_available, NativeError};
pub use profile::ProfileReport;
pub use trace::{RuleOutcome, RuleTrace};
pub use level::OptLevel;
pub use vm::{Dispatch, FailInfo, Sim, SimSnapshot, VmError};
