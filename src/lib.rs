//! Workspace umbrella crate for the Cuttlesim reproduction.
//!
//! Re-exports the member crates so the runnable examples and cross-crate
//! integration tests in this package can reach everything; the real APIs
//! live in [`koika`], [`cuttlesim`], [`koika_rtl`], [`koika_riscv`], and
//! [`koika_designs`]. The [`engine`] and [`fuzz`] modules live here (not
//! in `koika`) because naming and building every engine, and fuzzing
//! across them, needs all the crates at once.

pub mod engine;
pub mod fuzz;

pub use cuttlesim;
pub use koika;
pub use koika_designs;
pub use koika_riscv;
pub use koika_rtl;
