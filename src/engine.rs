//! One name and one build for every simulator engine.
//!
//! An [`EngineSpec`] names an engine: the reference interpreter, the
//! Cuttlesim VM at an optimization level under a dispatch, or the RTL
//! netlist simulator under a conflict scheme. Its one text form is the
//! label checked-in data pins (fuzz corpus keys, bucket labels, the
//! `--debug-on-divergence` header): `interp`; `O1`…`O6` for the VM under
//! match dispatch, `O1-tac`…`O6-tac` and `O1-native`…`O6-native` under
//! the others; `rtl` and `rtl-static` for the dynamic and static schemes.
//! [`EngineSpec::from_flags`] reads the CLI's `--backend`, `--level` and
//! `--dispatch` instead.
//!
//! [`EngineSpec::prepare`] compiles a design for the engine once, and
//! [`Engine::make`] hands out reset-state copies of that prototype. The
//! CLI, the differential fuzzer, the divergence debugger and the
//! `figures` harness all build their simulators here.

use std::fmt;
use std::str::FromStr;

use cuttlesim::{CompileError, CompileOptions, Dispatch, NativeError, OptLevel, Sim};
use koika::device::SimBackend;
use koika::tir::TDesign;
use koika_rtl::{compile as rtl_compile, RtlError, RtlSim, Scheme};

/// Names one simulator engine; the [module docs](self) give its label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSpec {
    /// The reference interpreter.
    Interp,
    /// The Cuttlesim VM.
    Vm {
        /// The optimization level the design is compiled at.
        level: OptLevel,
        /// The instruction dispatch the compiled program runs under.
        dispatch: Dispatch,
    },
    /// The RTL netlist simulator under a conflict scheme.
    Rtl(Scheme),
}

impl fmt::Display for EngineSpec {
    /// The label. Match dispatch keeps the bare level name (`O4`), as it
    /// was spelled before the dispatch axis existed; the other dispatches
    /// get a suffix (`O4-tac`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match *self {
            EngineSpec::Interp => "interp".to_string(),
            EngineSpec::Vm {
                level,
                dispatch: Dispatch::Match,
            } => level.short_name().to_string(),
            EngineSpec::Vm { level, dispatch } => {
                format!("{}-{}", level.short_name(), dispatch.short_name())
            }
            EngineSpec::Rtl(Scheme::Dynamic) => "rtl".to_string(),
            EngineSpec::Rtl(Scheme::Static) => "rtl-static".to_string(),
        };
        f.pad(&label)
    }
}

impl FromStr for EngineSpec {
    type Err = String;

    /// Parses exactly the labels [`Display`](fmt::Display) writes.
    fn from_str(label: &str) -> Result<EngineSpec, String> {
        EngineSpec::all()
            .find(|spec| spec.to_string() == label)
            .ok_or_else(|| format!("unknown backend label '{label}'"))
    }
}

impl EngineSpec {
    /// Every engine: the interpreter, each VM level under each dispatch
    /// (match first, so a level's bare label comes before its suffixed
    /// ones), then both RTL schemes.
    pub fn all() -> impl Iterator<Item = EngineSpec> {
        let vm = |level| Dispatch::ALL.map(|dispatch| EngineSpec::Vm { level, dispatch });
        let vms = OptLevel::ALL.into_iter().flat_map(vm);
        let rtl = [Scheme::Dynamic, Scheme::Static].map(EngineSpec::Rtl);
        std::iter::once(EngineSpec::Interp).chain(vms).chain(rtl)
    }

    /// Maps the CLI's `--backend <interp|cuttlesim|rtl|rtl-static>`,
    /// `--level <1..6>` and `--dispatch <match|tac|native>` (match when
    /// absent) to a spec. The level is checked on every backend, and only
    /// the cuttlesim backend reads it.
    ///
    /// # Errors
    ///
    /// The CLI's message for an unknown backend, a level outside 1..6, an
    /// unknown dispatch, or a dispatch other than match on a backend other
    /// than cuttlesim, checked in that order.
    pub fn from_flags(
        backend: &str,
        level: u32,
        dispatch: Option<&str>,
    ) -> Result<EngineSpec, String> {
        let fixed = match backend {
            "interp" => Some(EngineSpec::Interp),
            "cuttlesim" => None,
            "rtl" => Some(EngineSpec::Rtl(Scheme::Dynamic)),
            "rtl-static" => Some(EngineSpec::Rtl(Scheme::Static)),
            other => return Err(format!("unknown backend {other:?}")),
        };
        let level = OptLevel::from_number(level)
            .ok_or_else(|| format!("bad --level {level}: expected 1..6"))?;
        let dispatch = match dispatch {
            None => Dispatch::Match,
            Some(name) => Dispatch::from_name(name).ok_or_else(|| {
                format!("bad --dispatch {name:?}: expected match, tac, or native")
            })?,
        };
        match fixed {
            None => Ok(EngineSpec::Vm { level, dispatch }),
            Some(_) if dispatch != Dispatch::Match => Err(format!(
                "--dispatch {} requires the cuttlesim backend (got {backend:?})",
                dispatch.short_name()
            )),
            Some(spec) => Ok(spec),
        }
    }

    /// Compiles `td` for this engine and selects its dispatch, once. Every
    /// simulator [`Engine::make`] then hands out is a copy of the result,
    /// so none can fail to build later.
    ///
    /// # Errors
    ///
    /// The VM or RTL compiler refused the design, or the dispatch could
    /// not be selected: native dispatch without a `rustc` is
    /// [`NativeError::NoToolchain`].
    pub fn prepare(self, td: &TDesign) -> Result<Engine, EngineError> {
        Ok(Engine(match self {
            EngineSpec::Interp => Prototype::Interp(td.clone()),
            EngineSpec::Vm { level, dispatch } => {
                let opts = CompileOptions {
                    level,
                    ..CompileOptions::default()
                };
                let mut sim = Sim::compile_with(td, &opts).map_err(EngineError::Compile)?;
                sim.try_set_dispatch(dispatch)
                    .map_err(|e| EngineError::Dispatch(dispatch, e))?;
                Prototype::Vm(Box::new(sim))
            }
            EngineSpec::Rtl(scheme) => {
                let model = rtl_compile(td, scheme).map_err(EngineError::Rtl)?;
                Prototype::Rtl(Box::new(RtlSim::new(model)))
            }
        }))
    }
}

/// Why [`EngineSpec::prepare`] could not build an engine.
#[derive(Debug)]
pub enum EngineError {
    /// The Cuttlesim compiler refused the design.
    Compile(CompileError),
    /// The design compiled, but this dispatch could not be selected.
    Dispatch(Dispatch, NativeError),
    /// The RTL compiler refused the design.
    Rtl(RtlError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Compile(e) => e.fmt(f),
            EngineError::Dispatch(d, e) => {
                write!(f, "cannot select {} dispatch: {e}", d.short_name())
            }
            EngineError::Rtl(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for EngineError {}

/// A design compiled for one engine: a reset-state prototype that
/// [`Engine::make`] copies.
pub struct Engine(Prototype);

enum Prototype {
    Interp(TDesign),
    Vm(Box<Sim>),
    Rtl(Box<RtlSim>),
}

impl Engine {
    /// A fresh simulator at reset state.
    pub fn make(&self) -> Box<dyn SimBackend> {
        match &self.0 {
            Prototype::Interp(td) => Box::new(koika::Interp::new(td)),
            Prototype::Vm(sim) => sim.clone(),
            Prototype::Rtl(sim) => sim.clone(),
        }
    }

    /// The prototype VM, for the APIs only the Cuttlesim VM has
    /// (stepping, tracing, profiling, its program); `None` on the other
    /// engines.
    pub fn vm(&self) -> Option<&Sim> {
        match &self.0 {
            Prototype::Vm(sim) => Some(sim),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz;

    #[test]
    fn labels_round_trip_and_flags_keep_the_cli_refusals() {
        let vm = |level, dispatch| EngineSpec::Vm { level, dispatch };
        // Every engine the fuzz matrix runs, with and without native,
        // under every dispatch restriction. Their labels are the bucket
        // labels and the `Divergence::backend` strings fuzzing emits.
        let mut specs = vec![EngineSpec::Interp];
        for dispatch in [None].into_iter().chain(Dispatch::ALL.map(Some)) {
            specs.extend(fuzz::matrix(dispatch, false));
            specs.extend(fuzz::matrix(dispatch, true));
        }
        assert_eq!(fuzz::matrix(None, true).len(), 6 * 3 + 2);
        for spec in specs {
            assert_eq!(spec.to_string().parse(), Ok(spec), "{spec}");
            // Batched lanes past 0 suffix the spec's label with `/laneN`.
            for lane in 0..3 {
                let bucket = fuzz::lane_label(spec, lane);
                let label = bucket.split_once("/lane").map_or(&*bucket, |(l, _)| l);
                assert_eq!(label.parse(), Ok(spec), "{bucket}");
            }
        }
        for (label, spec) in [
            ("O4", vm(OptLevel::MergedData, Dispatch::Match)),
            ("O6-tac", vm(OptLevel::max(), Dispatch::Tac)),
            ("O1-native", vm(OptLevel::SplitRwSets, Dispatch::Native)),
            ("rtl-static", EngineSpec::Rtl(Scheme::Static)),
        ] {
            assert_eq!(label.parse(), Ok(spec), "{label}");
            assert_eq!(format!("{spec:>12}"), format!("{label:>12}"), "padding");
        }
        let refused = ["O0", "O7", "O6-closure", "O6-match", "rtl-bogus", "", "-tac", "cuttlesim"];
        for bad in refused {
            let want = Err(format!("unknown backend label '{bad}'"));
            assert_eq!(bad.parse::<EngineSpec>(), want, "{bad:?}");
        }

        // (--backend, --level, --dispatch) as the CLI passes them: the
        // level is checked on every backend, and the dispatch defaults to
        // match. The refusals are the CLI's usage messages.
        let flags = [
            ("cuttlesim", 6, None, Ok(vm(OptLevel::max(), Dispatch::Match))),
            ("cuttlesim", 6, Some("native"), Ok(vm(OptLevel::max(), Dispatch::Native))),
            ("cuttlesim", 2, Some("tac"), Ok(vm(OptLevel::AccumulatedLogs, Dispatch::Tac))),
            ("interp", 6, None, Ok(EngineSpec::Interp)),
            ("rtl-static", 6, Some("match"), Ok(EngineSpec::Rtl(Scheme::Static))),
            ("verilator", 9, Some("closure"), Err("unknown backend \"verilator\"")),
            ("cuttlesim", 0, None, Err("bad --level 0: expected 1..6")),
            ("rtl", 9, None, Err("bad --level 9: expected 1..6")),
            ("cuttlesim", 6, Some("closure"), Err("bad --dispatch \"closure\": expected match, tac, or native")),
            ("rtl", 6, Some("tac"), Err("--dispatch tac requires the cuttlesim backend (got \"rtl\")")),
            ("interp", 6, Some("native"), Err("--dispatch native requires the cuttlesim backend (got \"interp\")")),
        ];
        for (backend, level, dispatch, want) in flags {
            let got = EngineSpec::from_flags(backend, level, dispatch);
            assert_eq!(got, want.map_err(String::from), "{backend} {level} {dispatch:?}");
        }
    }
}
