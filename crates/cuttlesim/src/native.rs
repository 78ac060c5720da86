//! Native compiled-Rust dispatch backend ([`crate::Dispatch::Native`]) —
//! the paper's real endgame, transplanted: Cuttlesim wins by *compiling*
//! designs to straight-line software instead of interpreting them, and this
//! module does the same for our VM. Each compiled design's typed
//! [`crate::tac::Uop`] arrays are lowered once more, into Rust source — one
//! compiled body per rule, as straight-line code over the slot file with
//! the optimization level's log discipline baked in at emit time — then
//! built with `rustc` into a `#![no_std]` cdylib cached by design
//! fingerprint and loaded through a minimal hand-rolled `dlopen` shim.
//!
//! The crate exports two functions. `koika_cycle` clears the cycle log,
//! runs every scheduled rule body in turn and merges the cycle log into
//! the beginning-of-cycle state. Each rule body is the whole transaction:
//! the rule prologue, the rule's micro-ops, then commit and the fired
//! counters, or the failed counter and rollback. Each body is inlined
//! into `koika_cycle` and compiled once. `koika_run` runs a span of
//! unobserved cycles ([`koika::device::Span`]) without returning to the
//! host: per cycle it checks the stop register, serves every word-memory
//! port ([`koika::device::WordPort`]) over the memories the host passed
//! in, calls `koika_cycle` (never inlined, so the body stays one copy)
//! and counts the stall budget. It returns after a trapping cycle, so the
//! host records the trap as it would for one cycle.
//!
//! The emitted code must not panic: `#![no_std]` has no unwinding, and a
//! panicking operation (a bounds-checked runtime index, `%` by a divisor
//! that may be zero) makes the cdylib reference `rust_eh_personality`,
//! which then fails to `dlopen`. Runtime indices are host-validated raw
//! offsets, whole-log copies are raw copies over the length constant, and
//! the memory wrap is a `checked_rem`.
//!
//! Every whole cycle fills the per-cycle record in `State`: one word per
//! scheduled rule, saying whether it committed, conflicted (on which
//! register), aborted or trapped, and at which bytecode pc it failed
//! ([`koika::obs::REC_COMMIT`] documents the encoding). The host maps the
//! last failure to [`crate::FailInfo`], and `SimBackend::cycle_obs`
//! replays the record to an observer, so an observed cycle runs at native
//! speed too. Per-rule work — profiling, stepping mid-cycle,
//! `Sim::try_cycle` — runs the micro-op bodies of the same program over
//! the same `State` (see [`crate::tac`]), so profile weights are tac's by
//! construction.
//!
//! Observability is preserved the same way `tac` preserves it: every
//! emitted failure site carries its *bytecode* pc as an immediate, and
//! coverage counters are bumped through a side table pointer, so
//! [`crate::FailInfo`] and [`crate::CoverageReport`] stay byte-identical
//! to the interpreter.
//!
//! The generated code communicates with the host through a `#[repr(C)]`
//! context of raw pointers into [`State`]'s flat arrays (the slot-file
//! ABI), the per-rule counters and the record. `koika_cycle` returns
//! `j << 1 | t`: `j` is one past the schedule position of the cycle's last
//! failing rule (`0` if none failed) and `t` is `1` if a rule trapped. A
//! trapping rule's record word holds its ordinal into the host-retained
//! trap table.
//!
//! Below the design-specific level commits and rollbacks follow each
//! rule's [`CopyPlan`], exactly as the host helpers
//! ([`crate::vm::rule_commit`], [`crate::vm::rule_failure`]) do. At the
//! design-specific level a rule body copies its *exact footprint* instead:
//! the statically named registers its micro-ops can change, plus, for each
//! dynamic-index site, the one element that site touched (recorded in a
//! local as the site runs). The begin-cycle clear likewise zeroes only the
//! registers whose read-write byte some checked access can flag
//! ([`rw_flag_set`]). Both rest on one invariant of the reset-on-failure
//! levels — the rule log equals the cycle log at every rule entry — so
//! copying an entry a rule did not change is a no-op, and on no engine can
//! a flag appear outside the cleared set; see [`emit_rule_fn`].

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::compile::{CopyPlan, Program, RuleCode};
use crate::insn::{FusedBin, Insn};
use crate::level::LevelCfg;
use crate::tac::{TacProgram, TacRule, Uop};
use crate::vm::{rec_fail_info, State, VmError};
use koika::device::{Span, SpanEnd, SpanRun, WordMemory};
use koika::obs::{REC_ABORT, REC_CONFLICT, REC_TRAP};
use koika::tir::RegId;

/// Bumped whenever the generated-source ABI (the `Ctx` layout, the
/// exported symbol set, or the return-code encoding) changes; part of the
/// cache key via the source header, so stale cached cdylibs can never be
/// loaded. v2–v4 also exported batched lock-step entry points for
/// `BatchSim`, with a second context struct; v5 removed both, so the crate
/// exported only the scalar per-rule and whole-cycle functions. v6 emits
/// each rule body once: the `_prof` twins are gone, rule entry points
/// commit and roll back themselves and report failures through the
/// `last_*` record (`fail_reg` is gone), and the crate is `#![no_std]`.
/// v7 exports only `koika_cycle`, which fills the per-cycle record
/// (`rec`); the per-rule entry points, their weight counters and the
/// `last_*` and `executed` fields are gone. v8 adds `koika_run`, which
/// loops `koika_cycle` over a span and serves word-memory ports itself
/// (the `Port` and `Run` structs).
const ABI_VERSION: u32 = 8;

/// Why the native backend could not be selected. Unlike rule failures
/// (normal Kôika semantics) these are environment or lowering problems:
/// the selected backend never silently falls back, it reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NativeError {
    /// No `rustc` was found (the build could not spawn it; the
    /// `KOIKA_RUSTC` environment variable overrides the binary name).
    NoToolchain(String),
    /// The lowered micro-op program uses a shape the emitter does not
    /// support (e.g. a backward jump) or fails bounds validation.
    Unsupported(String),
    /// `rustc` was found but the generated crate failed to build.
    Build(String),
    /// The built cdylib could not be loaded or a symbol was missing.
    Load(String),
}

impl fmt::Display for NativeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NativeError::NoToolchain(what) => {
                write!(f, "no Rust toolchain for the native backend: {what}")
            }
            NativeError::Unsupported(what) => {
                write!(f, "native backend cannot compile this program: {what}")
            }
            NativeError::Build(what) => write!(f, "native backend build failed: {what}"),
            NativeError::Load(what) => write!(f, "native backend load failed: {what}"),
        }
    }
}

impl std::error::Error for NativeError {}

fn rustc_cmd() -> String {
    std::env::var("KOIKA_RUSTC").unwrap_or_else(|_| "rustc".to_string())
}

/// The `--version` line of the rustc native dispatch builds with (the
/// `KOIKA_RUSTC` override or `rustc`), or `None` without a working one.
/// Probed once per process.
pub fn rustc_version() -> Option<&'static str> {
    static V: OnceLock<Option<String>> = OnceLock::new();
    V.get_or_init(|| {
        std::process::Command::new(rustc_cmd())
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    })
    .as_deref()
}

/// True if a working `rustc` is available for the native backend.
///
/// Probed once per process (`rustc --version`); the `KOIKA_RUSTC`
/// environment variable overrides the binary name. Harnesses use this to
/// *skip loudly* rather than fail when the toolchain is absent.
pub fn toolchain_available() -> bool {
    rustc_version().is_some()
}

/// The directory generated sources and cdylibs are cached under:
/// `KOIKA_NATIVE_CACHE` if set (the CLI's `--native-cache` flag sets it),
/// else `<tmp>/koika-native-cache`.
pub fn cache_dir() -> PathBuf {
    std::env::var_os("KOIKA_NATIVE_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("koika-native-cache"))
}

// ---------------------------------------------------------------------------
// The slot-file ABI: the host side of the generated crate's `Ctx`.
// ---------------------------------------------------------------------------

/// The `#[repr(C)]` context handed to `koika_cycle` — raw pointers into
/// [`State`]'s flat arrays, counters and per-cycle record. Field order
/// must match the `Ctx` struct the emitter writes into every generated
/// crate ([`ABI_VERSION`] guards drift).
#[repr(C)]
pub(crate) struct NativeCtx {
    boc: *mut u64,
    cyc_rw: *mut u8,
    log_rw: *mut u8,
    cyc_d0: *mut u64,
    cyc_d1: *mut u64,
    log_d0: *mut u64,
    log_d1: *mut u64,
    cov: *mut u64,
    fired: *mut u64,
    fired_per_rule: *mut u64,
    fail_per_rule: *mut u64,
    /// The per-cycle record, one word per scheduled rule.
    rec: *mut u64,
}

impl NativeCtx {
    fn for_state(st: &mut State) -> NativeCtx {
        NativeCtx {
            boc: st.boc.as_mut_ptr(),
            cyc_rw: st.cyc_rw.as_mut_ptr(),
            log_rw: st.log_rw.as_mut_ptr(),
            cyc_d0: st.cyc_d0.as_mut_ptr(),
            cyc_d1: st.cyc_d1.as_mut_ptr(),
            log_d0: st.log_d0.as_mut_ptr(),
            log_d1: st.log_d1.as_mut_ptr(),
            cov: st.cov.as_mut_ptr(),
            fired: &mut st.fired,
            fired_per_rule: st.fired_per_rule.as_mut_ptr(),
            fail_per_rule: st.fail_per_rule.as_mut_ptr(),
            rec: st.rec.as_mut_ptr(),
        }
    }
}

/// One word-memory port as `koika_run` serves it: the [`WordPort`]
/// registers in field order and the memory the port accesses. The host
/// validates every field before the call ([`native_ports`]).
#[repr(C)]
pub(crate) struct NativePort {
    regs: [u32; 7],
    words: u64,
    mem: *mut u32,
}

/// The ports of `mems`, in serving order, if `koika_run` can serve them
/// exactly as [`WordMemory::serve`] would on a simulator with these
/// register `widths`: every register exists, the registers a serve writes
/// hold what it writes without masking, and each memory has a word.
/// `None` sends the run down the per-cycle path, which behaves (or
/// panics) as the device always did.
pub(crate) fn native_ports(mems: &mut [WordMemory<'_>], widths: &[u32]) -> Option<Vec<NativePort>> {
    let mut out = Vec::new();
    for m in mems.iter_mut() {
        if m.words.is_empty() {
            return None;
        }
        for p in m.ports {
            let regs = [
                p.req_valid,
                p.req_addr,
                p.req_wen,
                p.req_wstrb,
                p.req_wdata,
                p.resp_valid,
                p.resp_data,
            ];
            let width = |r: RegId| widths.get(r.0 as usize).copied();
            if regs.iter().any(|&r| width(r).is_none())
                || width(p.resp_valid) < Some(1)
                || width(p.resp_data) < Some(32)
            {
                return None;
            }
            out.push(NativePort {
                regs: regs.map(|r| r.0),
                words: m.words.len() as u64,
                mem: m.words.as_mut_ptr(),
            });
        }
    }
    Some(out)
}

/// The `#[repr(C)]` span bounds and results handed to `koika_run`; field
/// order must match the emitted `Run`.
#[repr(C)]
struct NativeRun {
    ports: *const NativePort,
    nports: u64,
    /// Cycles to run at most.
    max: u64,
    /// The stop register (`u64::MAX`: none) and its target.
    stop_reg: u64,
    stop_at: u64,
    /// The stall limit (`u64::MAX`: none).
    stall_limit: u64,
    /// In and out: consecutive commit-free cycles.
    stalled: u64,
    /// Out: cycles run.
    ran: u64,
    /// Out: the latest failure in the span, as `koika_cycle`'s `j` (`0`:
    /// none), its record word and the span cycle it happened in.
    last: u64,
    last_word: u64,
    last_cycle: u64,
}

/// `koika_run`'s return value: why the span ended, in bits 0–1.
const RUN_STOP: u64 = 1;
/// See [`RUN_STOP`].
const RUN_STALL: u64 = 2;
/// `koika_run`'s return value: bit 2 is set if the last cycle trapped.
const RUN_TRAPPED: u64 = 4;

// ---------------------------------------------------------------------------
// Source emission.
// ---------------------------------------------------------------------------

struct Emitted {
    source: String,
    traps: Vec<Trap>,
}

/// One trap site of the generated crate: rule index, bytecode pc and
/// what went wrong. Trap ordinal `t` indexes the engine's table of these.
type Trap = (usize, u32, &'static str);

fn hex(v: u64) -> String {
    format!("0x{v:x}u64")
}

fn bin_expr(op: FusedBin, a: &str, b: &str, mask: u64) -> String {
    let m = hex(mask);
    let w = mask.count_ones();
    match op {
        FusedBin::Add => format!("({a}.wrapping_add({b}) & {m})"),
        FusedBin::Sub => format!("({a}.wrapping_sub({b}) & {m})"),
        FusedBin::Mul => format!("({a}.wrapping_mul({b}) & {m})"),
        FusedBin::And => format!("({a} & {b})"),
        FusedBin::Or => format!("({a} | {b})"),
        FusedBin::Xor => format!("({a} ^ {b})"),
        FusedBin::Shl => format!("(if {b} >= 64 {{ 0u64 }} else {{ ({a} << {b}) & {m} }})"),
        FusedBin::Shr => format!("(if {b} >= 64 {{ 0u64 }} else {{ {a} >> {b} }})"),
        FusedBin::Sra => format!("sra({w}u32, {a}, {b})"),
        FusedBin::Eq => format!("(({a} == {b}) as u64)"),
        FusedBin::Ne => format!("(({a} != {b}) as u64)"),
        FusedBin::Ult => format!("(({a} < {b}) as u64)"),
        FusedBin::Ule => format!("(({a} <= {b}) as u64)"),
        FusedBin::Slt => format!("slt({w}u32, {a}, {b})"),
        FusedBin::Sle => format!("(1u64 - slt({w}u32, {b}, {a}))"),
        FusedBin::Concat { low } => format!("(concat({low}u32, {a}, {b}) & {m})"),
    }
}

/// Emits one rule's body as the value of a `'r` labeled block. The value
/// is the rule's outcome: `0` = done, `1`/`2` = conflict (dirty/clean),
/// `3`/`4` = abort (dirty/clean), `5 + t` = VM trap with ordinal `t` into
/// the host-retained trap table. A failure site first records its bytecode
/// pc in the local `_pc` and, for a conflict, the register in `_reg`.
struct BodyEmitter<'a> {
    cfg: LevelCfg,
    rule_idx: usize,
    tac: &'a TacRule,
    trap_ords: &'a HashMap<(usize, usize), usize>,
    falloff_ord: usize,
    out: &'a mut String,
}

impl BodyEmitter<'_> {
    fn fail_conflict_stmt(&self, idx: &str, pc: u32, clean: bool) -> String {
        let c = if clean { 2 } else { 1 };
        format!("{{ _pc = {pc}u32; _reg = ({idx}) as u32; break 'r {c}u64; }}")
    }

    fn emit_abort(&mut self, pc: u32, clean: bool) {
        let c = if clean { 4 } else { 3 };
        let _ = write!(self.out, "_pc = {pc}u32; break 'r {c}u64;");
    }

    fn emit_trap(&mut self, ord: usize) {
        let _ = write!(self.out, "break 'r {}u64;", ord + 5);
    }

    /// The checked port-0 read: mirror of [`crate::vm::rd0_at`] with the
    /// level configuration baked in.
    fn emit_rd0(&mut self, idx: &str, clean: bool, pc: u32, assign: &str) {
        let fail = self.fail_conflict_stmt(idx, pc, clean);
        let chk = if self.cfg.acc_logs { "log_rw" } else { "cyc_rw" };
        let _ = write!(self.out, "let _c = {chk}[{idx}]; if _c & 0xc != 0 {fail} ");
        if !self.cfg.design_specific {
            let _ = write!(self.out, "log_rw[{idx}] |= 0x1; ");
        }
        let src = if self.cfg.no_boc { "log_d0" } else { "boc" };
        let _ = write!(self.out, "{assign} {src}[{idx}]; ");
    }

    /// The checked port-1 read: mirror of [`crate::vm::rd1_at`].
    fn emit_rd1(&mut self, idx: &str, clean: bool, pc: u32, assign: &str) {
        let fail = self.fail_conflict_stmt(idx, pc, clean);
        let chk = if self.cfg.acc_logs { "log_rw" } else { "cyc_rw" };
        let _ = write!(
            self.out,
            "let _c = {chk}[{idx}]; if _c & 0x8 != 0 {fail} log_rw[{idx}] |= 0x2; "
        );
        let val = if self.cfg.no_boc {
            format!("log_d0[{idx}]")
        } else {
            let tail = if !self.cfg.acc_logs {
                format!("if cyc_rw[{idx}] & 0x4 != 0 {{ cyc_d0[{idx}] }} else {{ boc[{idx}] }}")
            } else {
                format!("{{ boc[{idx}] }}")
            };
            format!("if log_rw[{idx}] & 0x4 != 0 {{ log_d0[{idx}] }} else {tail}")
        };
        let _ = write!(self.out, "{assign} {val}; ");
    }

    /// The checked port-0 write: mirror of [`crate::vm::wr0_at`].
    fn emit_wr0(&mut self, idx: &str, val: &str, clean: bool, pc: u32) {
        let fail = self.fail_conflict_stmt(idx, pc, clean);
        let chk = if self.cfg.acc_logs {
            format!("log_rw[{idx}]")
        } else {
            format!("log_rw[{idx}] | cyc_rw[{idx}]")
        };
        let _ = write!(
            self.out,
            "let _c = {chk}; if _c & 0xe != 0 {fail} log_rw[{idx}] |= 0x4; log_d0[{idx}] = {val}; "
        );
    }

    /// The checked port-1 write: mirror of [`crate::vm::wr1_at`].
    fn emit_wr1(&mut self, idx: &str, val: &str, clean: bool, pc: u32) {
        let fail = self.fail_conflict_stmt(idx, pc, clean);
        let chk = if self.cfg.acc_logs {
            format!("log_rw[{idx}]")
        } else {
            format!("log_rw[{idx}] | cyc_rw[{idx}]")
        };
        let dst = if self.cfg.merged_data { "log_d0" } else { "log_d1" };
        let _ = write!(
            self.out,
            "let _c = {chk}; if _c & 0x8 != 0 {fail} log_rw[{idx}] |= 0x8; {dst}[{idx}] = {val}; "
        );
    }

    /// `let _i = base + (idx & amask);` for array micro-op `i`, plus, at
    /// the design-specific level, the `_x{i} = _i;` site record when `i`
    /// is a dynamic-index log-write site (for the exact-footprint commit).
    fn emit_arr_index(&mut self, i: usize, idx: u16, base: u32, amask: u32) {
        let _ = write!(
            self.out,
            "let _i = {base}usize + ((s{idx} & 0x{amask:x}u64) as usize); "
        );
        if self.cfg.design_specific
            && matches!(log_write(&self.tac.uops[i]), LogWrite::Dynamic { .. })
        {
            let _ = write!(self.out, "_x{i} = _i; ");
        }
    }

    fn emit_uop(&mut self, i: usize) {
        let pc = self.tac.pcs[i];
        self.out.push_str("{ ");
        match self.tac.uops[i] {
            Uop::Bin { op, dst, a, b, mask } => {
                let e = bin_expr(op, &format!("s{a}"), &format!("s{b}"), mask);
                let _ = write!(self.out, "s{dst} = {e};");
            }
            Uop::Not { dst, src, mask } => {
                let _ = write!(self.out, "s{dst} = !s{src} & {};", hex(mask));
            }
            Uop::Neg { dst, src, mask } => {
                let _ = write!(self.out, "s{dst} = s{src}.wrapping_neg() & {};", hex(mask));
            }
            Uop::Mask { dst, src, mask } => {
                let _ = write!(self.out, "s{dst} = s{src} & {};", hex(mask));
            }
            Uop::Sext { dst, src, from, mask } => {
                let _ = write!(self.out, "s{dst} = sext({from}u32, s{src}) & {};", hex(mask));
            }
            Uop::Slice { dst, src, lo, mask } => {
                let _ = write!(self.out, "s{dst} = (s{src} >> {lo}u32) & {};", hex(mask));
            }
            Uop::SliceSext { dst, src, lo, from, mask } => {
                // `word::mask(from)` folded at emit time (`from` is 1..=64,
                // enforced by the lowering just as the Tac executor relies
                // on).
                let mof = if from >= 64 { u64::MAX } else { (1u64 << from) - 1 };
                let _ = write!(
                    self.out,
                    "s{dst} = sext({from}u32, (s{src} >> {lo}u32) & {}) & {};",
                    hex(mof),
                    hex(mask)
                );
            }
            Uop::Select { dst, c, t, f } => {
                let _ = write!(self.out, "s{dst} = if s{c} != 0 {{ s{t} }} else {{ s{f} }};");
            }
            Uop::Const { dst, imm } => {
                let _ = write!(self.out, "s{dst} = {};", hex(imm));
            }
            Uop::Mov { dst, src } => {
                let _ = write!(self.out, "s{dst} = s{src};");
            }
            Uop::Rd0 { dst, reg, clean } => {
                self.emit_rd0(&format!("{reg}usize"), clean, pc, &format!("s{dst} ="));
            }
            Uop::Rd1 { dst, reg, clean } => {
                self.emit_rd1(&format!("{reg}usize"), clean, pc, &format!("s{dst} ="));
            }
            Uop::Wr0 { src, reg, clean } => {
                self.emit_wr0(&format!("{reg}usize"), &format!("s{src}"), clean, pc);
            }
            Uop::Wr1 { src, reg, clean } => {
                self.emit_wr1(&format!("{reg}usize"), &format!("s{src}"), clean, pc);
            }
            Uop::RdFast { dst, reg } => {
                let _ = write!(self.out, "s{dst} = log_d0[{reg}usize];");
            }
            Uop::WrFast { src, reg } => {
                let _ = write!(self.out, "log_d0[{reg}usize] = s{src};");
            }
            Uop::Rd0Arr { dst, idx, base, amask, clean } => {
                self.emit_arr_index(i, idx, base, amask);
                self.emit_rd0("_i", clean, pc, &format!("s{dst} ="));
            }
            Uop::Rd1Arr { dst, idx, base, amask, clean } => {
                self.emit_arr_index(i, idx, base, amask);
                self.emit_rd1("_i", clean, pc, &format!("s{dst} ="));
            }
            Uop::Wr0Arr { src, idx, base, amask, clean } => {
                self.emit_arr_index(i, idx, base, amask);
                self.emit_wr0("_i", &format!("s{src}"), clean, pc);
            }
            Uop::Wr1Arr { src, idx, base, amask, clean } => {
                self.emit_arr_index(i, idx, base, amask);
                self.emit_wr1("_i", &format!("s{src}"), clean, pc);
            }
            Uop::RdArrFast { dst, idx, base, amask } => {
                self.emit_arr_index(i, idx, base, amask);
                let _ = write!(self.out, "s{dst} = log_d0[_i];");
            }
            Uop::WrArrFast { src, idx, base, amask } => {
                self.emit_arr_index(i, idx, base, amask);
                let _ = write!(self.out, "log_d0[_i] = s{src};");
            }
            Uop::Jmp(t) => {
                let _ = write!(self.out, "break 'l{t};");
            }
            Uop::Jz { cond, target } => {
                let _ = write!(self.out, "if s{cond} == 0 {{ break 'l{target}; }}");
            }
            Uop::Abort { clean } => self.emit_abort(pc, clean),
            Uop::Cov(id) => {
                let _ = write!(self.out, "cov[{id}usize] += 1;");
            }
            Uop::End => {
                let _ = write!(self.out, "break 'r 0u64;");
            }
            Uop::Trap(_) => {
                let ord = self.trap_ords[&(self.rule_idx, i)];
                self.emit_trap(ord);
            }
            Uop::RdBin { op, dst, reg, b, mask, clean } => {
                self.emit_rd0(&format!("{reg}usize"), clean, pc, "let _v =");
                let e = bin_expr(op, "_v", &format!("s{b}"), mask);
                let _ = write!(self.out, "s{dst} = {e};");
            }
            Uop::BinWr { op, a, b, mask, reg, clean } => {
                let e = bin_expr(op, &format!("s{a}"), &format!("s{b}"), mask);
                let _ = write!(self.out, "let _v = {e}; ");
                self.emit_wr0(&format!("{reg}usize"), "_v", clean, pc);
            }
            Uop::RdBinWr { op, rreg, b, mask, wreg, rclean, wclean } => {
                self.emit_rd0(&format!("{rreg}usize"), rclean, pc, "let _v =");
                let e = bin_expr(op, "_v", &format!("s{b}"), mask);
                let _ = write!(self.out, "let _r = {e}; ");
                self.emit_wr0(&format!("{wreg}usize"), "_r", wclean, self.tac.pcs2[i]);
            }
            Uop::BinJz { op, a, b, mask, target } => {
                let e = bin_expr(op, &format!("s{a}"), &format!("s{b}"), mask);
                let _ = write!(self.out, "if {e} == 0 {{ break 'l{target}; }}");
            }
            Uop::RdBinFast { op, dst, reg, b, mask } => {
                let e = bin_expr(op, &format!("log_d0[{reg}usize]"), &format!("s{b}"), mask);
                let _ = write!(self.out, "s{dst} = {e};");
            }
            Uop::BinWrFast { op, a, b, mask, reg } => {
                let e = bin_expr(op, &format!("s{a}"), &format!("s{b}"), mask);
                let _ = write!(self.out, "log_d0[{reg}usize] = {e};");
            }
            Uop::RdBinWrFast { op, rreg, b, mask, wreg } => {
                let e = bin_expr(op, &format!("log_d0[{rreg}usize]"), &format!("s{b}"), mask);
                let _ = write!(self.out, "log_d0[{wreg}usize] = {e};");
            }
        }
        let _ = writeln!(self.out, " }}");
    }

    /// Emits slot declarations plus the relooped body. Jumps are forward
    /// only (validated earlier), so every jump target `t` becomes a labeled
    /// block spanning micro-ops `[0, t)`; blocks nest by target and a jump
    /// is a `break` out of the matching block.
    fn emit_body(&mut self) {
        for (j, &v) in self.tac.slot_init.iter().enumerate() {
            let _ = writeln!(self.out, "let mut s{j}: u64 = {};", hex(v));
        }
        let mut targets: Vec<usize> = self
            .tac
            .uops
            .iter()
            .filter_map(|u| match *u {
                Uop::Jmp(t) => Some(t as usize),
                Uop::Jz { target, .. } | Uop::BinJz { target, .. } => Some(target as usize),
                _ => None,
            })
            .collect();
        targets.sort_unstable();
        targets.dedup();
        for &t in targets.iter().rev() {
            let _ = writeln!(self.out, "'l{t}: {{");
        }
        let mut close = targets.into_iter().peekable();
        for i in 0..self.tac.uops.len() {
            while close.peek() == Some(&i) {
                close.next();
                let _ = writeln!(self.out, "}}");
            }
            self.emit_uop(i);
        }
        while close.next().is_some() {
            let _ = writeln!(self.out, "}}");
        }
        // Fall-off backstop: valid lowerings always terminate, but a jump
        // to one-past-the-end lands here and must trap, not fall through.
        self.emit_trap(self.falloff_ord);
    }
}

/// Validates the parts of a lowered rule whose violation would be
/// undefined behavior (raw-slice indices) or unmappable control flow
/// (backward jumps) in generated code. Slot indices need no check: an
/// out-of-range slot becomes an undeclared variable and fails to compile.
fn validate_rule(prog: &Program, tac: &TacRule, rule_idx: usize) -> Result<(), NativeError> {
    let n = prog.init.len();
    let ncov = prog.cov.len();
    let len = tac.uops.len();
    let err = |i: usize, what: String| {
        Err(NativeError::Unsupported(format!(
            "rule {rule_idx} uop {i}: {what}"
        )))
    };
    for (i, u) in tac.uops.iter().enumerate() {
        let reg_ok = |r: u32| (r as usize) < n;
        match *u {
            Uop::Rd0 { reg, .. }
            | Uop::Rd1 { reg, .. }
            | Uop::Wr0 { reg, .. }
            | Uop::Wr1 { reg, .. }
            | Uop::RdFast { reg, .. }
            | Uop::WrFast { reg, .. }
            | Uop::RdBin { reg, .. }
            | Uop::BinWr { reg, .. }
            | Uop::RdBinFast { reg, .. }
            | Uop::BinWrFast { reg, .. }
                if !reg_ok(reg) =>
            {
                return err(i, format!("register {reg} out of range (n = {n})"));
            }
            Uop::RdBinWr { rreg, wreg, .. } | Uop::RdBinWrFast { rreg, wreg, .. }
                if !reg_ok(rreg) || !reg_ok(wreg) =>
            {
                return err(i, format!("register out of range (n = {n})"));
            }
            Uop::Rd0Arr { base, amask, .. }
            | Uop::Rd1Arr { base, amask, .. }
            | Uop::Wr0Arr { base, amask, .. }
            | Uop::Wr1Arr { base, amask, .. }
            | Uop::RdArrFast { base, amask, .. }
            | Uop::WrArrFast { base, amask, .. }
                if base as usize + amask as usize >= n =>
            {
                return err(i, format!("array window {base}+{amask} out of range (n = {n})"));
            }
            Uop::Cov(id) if id as usize >= ncov => {
                return err(i, format!("coverage id {id} out of range ({ncov} points)"));
            }
            Uop::Jmp(t) if (t as usize) <= i || (t as usize) > len => {
                return err(i, format!("non-forward jump to {t}"));
            }
            Uop::Jz { target, .. } | Uop::BinJz { target, .. }
                if (target as usize) <= i || (target as usize) > len =>
            {
                return err(i, format!("non-forward jump to {target}"));
            }
            _ => {}
        }
    }
    Ok(())
}

/// Emits the complete generated crate for `prog`: a `#![no_std]` cdylib
/// holding the `Ctx` mirror, the word-arithmetic helpers (exact duplicates
/// of `koika::bits::word`), one body per rule ([`emit_rule_fn`]), and the
/// exported whole-design `koika_cycle` that inlines them.
fn emit_source(prog: &Program, tac: &TacProgram) -> Result<Emitted, NativeError> {
    let cfg = prog.cfg;
    let n = prog.init.len();
    let nrules = prog.rules.len();

    // Pre-scan: trap ordinals plus one fall-off backstop ordinal per rule.
    let mut traps: Vec<Trap> = Vec::new();
    let mut trap_ords: HashMap<(usize, usize), usize> = HashMap::new();
    let mut falloff_ords: Vec<usize> = Vec::with_capacity(nrules);
    for (k, tr) in tac.rules.iter().enumerate() {
        validate_rule(prog, tr, k)?;
        for (i, u) in tr.uops.iter().enumerate() {
            if let Uop::Trap(what) = *u {
                trap_ords.insert((k, i), traps.len());
                traps.push((k, tr.pcs[i], what));
            }
        }
        falloff_ords.push(traps.len());
        traps.push((k, 0, "micro-op execution fell off the end"));
    }

    let mut out = String::with_capacity(1 << 16);
    let _ = writeln!(out, "// koika-native-abi v{ABI_VERSION}");
    let _ = writeln!(
        out,
        "// design: {} fingerprint: {:016x} level: {} regs: {} cov: {} \
         cfg: acc={} rof={} merged={} noboc={} ds={}",
        prog.design.name,
        prog.design.fingerprint(),
        prog.level.short_name(),
        n,
        prog.cov.len(),
        cfg.acc_logs,
        cfg.reset_on_fail,
        cfg.merged_data,
        cfg.no_boc,
        cfg.design_specific
    );
    out.push_str(
        "#![no_std]\n\
         #![allow(unused_variables, unused_mut, unused_assignments, unreachable_code, \
         unused_labels, unused_parens, unused_braces, dead_code, unused_unsafe)]\n",
    );
    // Without std there is no unwinding runtime to link: an out-of-bounds
    // index aborts the process, as `-C panic=abort` made std do.
    out.push_str(
        "#[panic_handler]\nfn panic(_: &core::panic::PanicInfo) -> ! {\n\
         extern \"C\" { fn abort() -> !; }\nunsafe { abort() }\n}\n",
    );
    out.push_str(
        "#[repr(C)]\npub struct Ctx {\n\
         pub boc: *mut u64,\n\
         pub cyc_rw: *mut u8,\n\
         pub log_rw: *mut u8,\n\
         pub cyc_d0: *mut u64,\n\
         pub cyc_d1: *mut u64,\n\
         pub log_d0: *mut u64,\n\
         pub log_d1: *mut u64,\n\
         pub cov: *mut u64,\n\
         pub fired: *mut u64,\n\
         pub fired_per_rule: *mut u64,\n\
         pub fail_per_rule: *mut u64,\n\
         pub rec: *mut u64,\n\
         }\n\
         #[repr(C)]\npub struct Port {\n\
         pub regs: [u32; 7],\n\
         pub words: u64,\n\
         pub mem: *mut u32,\n\
         }\n\
         #[repr(C)]\npub struct Run {\n\
         pub ports: *const Port,\n\
         pub nports: u64,\n\
         pub max: u64,\n\
         pub stop_reg: u64,\n\
         pub stop_at: u64,\n\
         pub stall_limit: u64,\n\
         pub stalled: u64,\n\
         pub ran: u64,\n\
         pub last: u64,\n\
         pub last_word: u64,\n\
         pub last_cycle: u64,\n\
         }\n",
    );
    let _ = writeln!(out, "const N: usize = {n};");
    let _ = writeln!(out, "const BOC_LEN: usize = {};", if cfg.no_boc { 0 } else { n });
    let _ = writeln!(out, "const D1_LEN: usize = {};", if cfg.merged_data { 0 } else { n });
    let _ = writeln!(out, "const NCOV: usize = {};", prog.cov.len());
    let _ = writeln!(out, "const NSCHED: usize = {};", prog.schedule.len());
    // Word-arithmetic helpers: exact duplicates of `koika::bits::word` so
    // the generated code computes bit-for-bit what every interpreter does.
    out.push_str(
        "#[inline(always)]\nfn mask(w: u32) -> u64 { u64::MAX >> (64 - w) }\n\
         #[inline(always)]\nfn sext(w: u32, a: u64) -> u64 {\n\
         if w == 0 { 0 } else if w >= 64 { a } \
         else { (((a << (64 - w)) as i64) >> (64 - w)) as u64 }\n}\n\
         #[inline(always)]\nfn sra(w: u32, a: u64, sh: u64) -> u64 {\n\
         if w == 0 { return 0; }\n\
         let sh = sh.min(w as u64 - 1);\n\
         (((sext(w, a) as i64) >> sh) as u64) & mask(w)\n}\n\
         #[inline(always)]\nfn slt(w: u32, a: u64, b: u64) -> u64 {\n\
         ((sext(w, a) as i64) < (sext(w, b) as i64)) as u64\n}\n\
         #[inline(always)]\nfn concat(low: u32, a: u64, b: u64) -> u64 {\n\
         if low >= 64 { b } else { (a << low) | b }\n}\n",
    );

    for (k, tr) in tac.rules.iter().enumerate() {
        let be = BodyEmitter {
            cfg,
            rule_idx: k,
            tac: tr,
            trap_ords: &trap_ords,
            falloff_ord: falloff_ords[k],
            out: &mut out,
        };
        emit_rule_fn(be, &prog.rules[k]);
    }
    emit_cycle_fn(&mut out, prog);
    emit_run_fn(&mut out, prog);
    Ok(Emitted { source: out, traps })
}

/// The log arrays generated code views as slices: name, element type and
/// length constant (each also names its `Ctx` pointer field).
const LOG_SLICES: [(&str, &str, &str); 8] = [
    ("boc", "u64", "BOC_LEN"),
    ("cyc_rw", "u8", "N"),
    ("log_rw", "u8", "N"),
    ("cyc_d0", "u64", "N"),
    ("cyc_d1", "u64", "D1_LEN"),
    ("log_d0", "u64", "N"),
    ("log_d1", "u64", "D1_LEN"),
    ("cov", "u64", "NCOV"),
];

/// Declares the `names`d [`LOG_SLICES`] over `ctx`'s pointers.
fn emit_slices(out: &mut String, names: &[&str]) {
    for (name, ty, len) in LOG_SLICES.iter().filter(|s| names.contains(&s.0)) {
        let _ = writeln!(
            out,
            "let {name}: &mut [{ty}] = core::slice::from_raw_parts_mut(ctx.{name}, {len});"
        );
    }
}

/// Emits rule `k`'s one compiled body, `fn rule_{k}(ctx) -> u64`: the
/// whole per-rule transaction, that is the baked
/// [`crate::vm::rule_prologue`], the rule's micro-ops, then commit and the
/// fired counters, or the failed counter and rollback. It returns the
/// rule's per-cycle record word ([`koika::obs::REC_COMMIT`]); a trap
/// commits and rolls back nothing.
///
/// Below the design-specific level commits and rollbacks follow the rule's
/// [`CopyPlan`], exactly as the host helpers do. At the design-specific
/// level they copy the rule's [`ExactFootprint`] instead: every statically
/// named register the rule can change, plus the one entry each
/// dynamic-index site touched, whose index the site records in a `_x{i}`
/// local declared (at the array base) before the rule's `'r` block. This
/// is exact because at that level (reset on failure) the rule log equals
/// the cycle log at every rule entry, so copying an entry the rule never
/// changed is a no-op — and an unexecuted site's local still names such an
/// entry, since forward-only jumps run each site at most once.
///
/// The body is `#[inline(always)]` into `koika_cycle`, its one caller.
fn emit_rule_fn(mut be: BodyEmitter<'_>, rule: &RuleCode) {
    let cfg = be.cfg;
    let k = be.rule_idx;
    let fp = cfg.design_specific.then(|| ExactFootprint::of(be.tac));
    let out = &mut *be.out;
    let _ = writeln!(
        out,
        "// rule {k}: {}\n#[inline(always)]\nunsafe fn rule_{k}(ctx: &mut Ctx) -> u64 {{",
        rule.name
    );
    emit_slices(out, &LOG_SLICES.map(|s| s.0));
    out.push_str("let mut _pc: u32 = 0u32;\nlet mut _reg: u32 = 0u32;\n");
    // rule_prologue, baked.
    if !cfg.acc_logs {
        out.push_str("log_rw.fill(0);\n");
    } else if !cfg.reset_on_fail {
        emit_log_copy(out, cfg, "cyc", "log");
    }
    if let Some(fp) = &fp {
        for &(i, base, ..) in &fp.sites {
            let _ = writeln!(out, "let mut _x{i}: usize = {base}usize;");
        }
    }
    out.push_str("let _res: u64 = 'r: {\n");
    be.emit_body();
    let out = &mut *be.out;
    out.push_str("};\nif _res == 0 {\n");
    match &fp {
        Some(fp) => fp.emit_copy(out, "cyc", "log"),
        None => emit_commit(out, cfg, rule),
    }
    let _ = writeln!(
        out,
        "*ctx.fired += 1; *ctx.fired_per_rule.add({k}) += 1;\nreturn 0u64;\n}}\n\
         if _res >= 5 {{ return (_res - 5) << 2 | {REC_TRAP}u64; }}\n\
         *ctx.fail_per_rule.add({k}) += 1;"
    );
    if cfg.reset_on_fail {
        out.push_str("if _res & 1 == 1 {\n");
        match &fp {
            Some(fp) => fp.emit_copy(out, "log", "cyc"),
            None => emit_rollback(out, cfg, rule),
        }
        out.push_str("}\n");
    }
    let _ = writeln!(
        out,
        "(_pc as u64) << 32 | if _res <= 2 {{ (_reg as u64) << 2 | {REC_CONFLICT}u64 }} \
         else {{ {REC_ABORT}u64 }}\n}}"
    );
}

/// Emits the exported whole-design `koika_cycle` function: the
/// begin-cycle clear, the scheduled rule bodies in turn, each storing its
/// record word, and the end-of-cycle beginning-of-cycle-state merge. A
/// trapping rule does not stop the cycle. Returns `j << 1 | t`, where `j`
/// is one past the schedule position of the last failing rule (`0` if
/// none failed) and `t` is `1` if any rule trapped.
///
/// At the design-specific level the begin-cycle clear only zeroes the
/// registers in [`rw_flag_set`]: no engine can leave a read-write flag
/// anywhere else.
fn emit_cycle_fn(out: &mut String, prog: &Program) {
    let cfg = prog.cfg;
    out.push_str(
        "#[no_mangle]\n#[inline(never)]\npub extern \"C\" fn koika_cycle(ctx: *mut Ctx) -> u64 { unsafe {\n\
         let ctx = &mut *ctx;\n{\n",
    );
    emit_slices(out, &["cyc_rw", "log_rw"]);
    if cfg.design_specific {
        for (a, b) in runs(&rw_flag_set(prog)) {
            let _ = writeln!(out, "cyc_rw[{a}..{b}].fill(0); log_rw[{a}..{b}].fill(0);");
        }
    } else {
        out.push_str("cyc_rw.fill(0);\n");
        if cfg.reset_on_fail {
            out.push_str("log_rw.fill(0);\n");
        }
    }
    out.push_str(
        "}\nlet rec: &mut [u64] = core::slice::from_raw_parts_mut(ctx.rec, NSCHED);\n\
         let mut _last: u64 = 0u64;\nlet mut _trap: u64 = 0u64;\n",
    );
    for (j, &k) in prog.schedule.iter().enumerate() {
        let _ = writeln!(
            out,
            "let _r = rule_{k}(ctx); rec[{j}] = _r; if _r != 0 {{ \
             if _r & 3 == {REC_TRAP}u64 {{ _trap = 1u64; }} else {{ _last = {}u64; }} }}",
            j + 1
        );
    }
    // end_cycle: merge the cycle log into the beginning-of-cycle state.
    if !cfg.no_boc {
        out.push_str("{\n");
        emit_slices(out, &["boc", "cyc_rw", "cyc_d0", "cyc_d1"]);
        let d1 = if cfg.merged_data { "cyc_d0" } else { "cyc_d1" };
        let _ = writeln!(
            out,
            "for _i in 0..BOC_LEN {{ let _rw = cyc_rw[_i]; \
             if _rw & 0x8 != 0 {{ boc[_i] = {d1}[_i]; }} \
             else if _rw & 0x4 != 0 {{ boc[_i] = cyc_d0[_i]; }} }}\n}}"
        );
    }
    out.push_str("_last << 1 | _trap\n} }\n");
}

/// Emits the exported span loop `koika_run(ctx, run)` and the word-memory
/// serve it calls. Register access mirrors `Sim::get64` and `Sim::set64`
/// for this program's level: the beginning-of-cycle state, or from the
/// level that drops it, the log data (a set writes `log_d0` and
/// `cyc_d0`). Per cycle: the stop check, every port served in order, one
/// `koika_cycle`, the stall count, the latest failure; a trap or the
/// stall limit ends the span after its cycle. Returns why the span ended
/// ([`RUN_STOP`], [`RUN_STALL`], else `0`) with [`RUN_TRAPPED`] if the
/// last cycle trapped.
///
/// Every index is host-validated (the stop register is checked against
/// `N` here), and an address past the end wraps by `checked_rem`, so
/// nothing here can panic.
fn emit_run_fn(out: &mut String, prog: &Program) {
    let (get, set) = if prog.cfg.no_boc {
        (
            "*(*ctx).log_d0.add(i as usize)",
            "*(*ctx).log_d0.add(i as usize) = v; *(*ctx).cyc_d0.add(i as usize) = v;",
        )
    } else {
        (
            "*(*ctx).boc.add(i as usize)",
            "*(*ctx).boc.add(i as usize) = v;",
        )
    };
    let _ = writeln!(
        out,
        "#[inline(always)]\nunsafe fn get(ctx: *mut Ctx, i: u32) -> u64 {{ {get} }}\n\
         #[inline(always)]\nunsafe fn set(ctx: *mut Ctx, i: u32, v: u64) {{ {set} }}"
    );
    out.push_str(
        "#[inline(always)]\nunsafe fn serve(ctx: *mut Ctx, p: &Port) {\n\
         let r = p.regs;\n\
         if get(ctx, r[0]) == 0 { return; }\n\
         let mut idx = ((get(ctx, r[1]) as u32) >> 2) as u64;\n\
         if idx >= p.words { idx = idx.checked_rem(p.words).unwrap_or(0); }\n\
         let w = p.mem.add(idx as usize);\n\
         if get(ctx, r[2]) != 0 {\n\
         let strb = get(ctx, r[3]);\n\
         let mut m = 0u32;\n\
         if strb & 1 != 0 { m |= 0xffu32; }\n\
         if strb & 2 != 0 { m |= 0xff00u32; }\n\
         if strb & 4 != 0 { m |= 0xff_0000u32; }\n\
         if strb & 8 != 0 { m |= 0xff00_0000u32; }\n\
         *w = (*w & !m) | ((get(ctx, r[4]) as u32) & m);\n\
         set(ctx, r[0], 0);\n\
         } else if get(ctx, r[5]) == 0 {\n\
         set(ctx, r[6], *w as u64);\n\
         set(ctx, r[5], 1);\n\
         set(ctx, r[0], 0);\n\
         }\n}\n",
    );
    let _ = writeln!(
        out,
        "#[no_mangle]\npub extern \"C\" fn koika_run(ctx: *mut Ctx, run: *mut Run) -> u64 {{ unsafe {{\n\
         let run = &mut *run;\n\
         let mut ran = 0u64;\nlet mut stalled = run.stalled;\nlet mut why = 0u64;\n\
         while ran < run.max {{\n\
         if run.stop_reg < N as u64 && get(ctx, run.stop_reg as u32) >= run.stop_at {{ why = {RUN_STOP}u64; break; }}\n\
         let mut i = 0u64;\n\
         while i < run.nports {{ serve(ctx, &*run.ports.add(i as usize)); i += 1; }}\n\
         let before = *(*ctx).fired;\n\
         let r = koika_cycle(ctx);\n\
         stalled = if *(*ctx).fired == before {{ stalled + 1 }} else {{ 0 }};\n\
         if r >> 1 != 0 {{ run.last = r >> 1; run.last_word = *(*ctx).rec.add((r >> 1) as usize - 1); run.last_cycle = ran; }}\n\
         ran += 1;\n\
         if stalled >= run.stall_limit {{ why = {RUN_STALL}u64; }}\n\
         if r & 1 != 0 {{ why |= {RUN_TRAPPED}u64; }}\n\
         if why != 0 {{ break; }}\n\
         }}\n\
         run.ran = ran;\nrun.stalled = stalled;\nwhy\n}} }}"
    );
}

/// What one micro-op can change in the rule log at the design-specific
/// level (where port-0 reads record nothing): the read-write byte, the
/// data field, or both, of a statically named register or of the element
/// a dynamic index selects.
enum LogWrite {
    None,
    Static { reg: u32, rw: bool, data: bool },
    Dynamic { base: u32, rw: bool, data: bool },
}

fn log_write(u: &Uop) -> LogWrite {
    match *u {
        Uop::Rd1 { reg, .. } => LogWrite::Static { reg, rw: true, data: false },
        Uop::Wr0 { reg, .. } | Uop::Wr1 { reg, .. } | Uop::BinWr { reg, .. } => {
            LogWrite::Static { reg, rw: true, data: true }
        }
        Uop::RdBinWr { wreg, .. } => LogWrite::Static { reg: wreg, rw: true, data: true },
        Uop::WrFast { reg, .. } | Uop::BinWrFast { reg, .. } => {
            LogWrite::Static { reg, rw: false, data: true }
        }
        Uop::RdBinWrFast { wreg, .. } => LogWrite::Static { reg: wreg, rw: false, data: true },
        Uop::Rd1Arr { base, .. } => LogWrite::Dynamic { base, rw: true, data: false },
        Uop::Wr0Arr { base, .. } | Uop::Wr1Arr { base, .. } => {
            LogWrite::Dynamic { base, rw: true, data: true }
        }
        Uop::WrArrFast { base, .. } => LogWrite::Dynamic { base, rw: false, data: true },
        _ => LogWrite::None,
    }
}

/// Every log entry one rule can change at the design-specific level, as
/// the rule body's commit and rollback copy it.
struct ExactFootprint {
    /// Statically named registers: `reg -> (rw byte, data field)`.
    regs: std::collections::BTreeMap<u32, (bool, bool)>,
    /// Dynamic-index sites: `(uop index, array base, rw byte, data field)`.
    sites: Vec<(usize, u32, bool, bool)>,
}

impl ExactFootprint {
    fn of(tr: &TacRule) -> ExactFootprint {
        let mut fp = ExactFootprint { regs: Default::default(), sites: Vec::new() };
        for (i, u) in tr.uops.iter().enumerate() {
            match log_write(u) {
                LogWrite::None => {}
                LogWrite::Static { reg, rw, data } => {
                    let e = fp.regs.entry(reg).or_default();
                    e.0 |= rw;
                    e.1 |= data;
                }
                LogWrite::Dynamic { base, rw, data } => fp.sites.push((i, base, rw, data)),
            }
        }
        fp
    }

    /// Copies the footprint from the `{src}_*` log arrays into `{dst}_*`
    /// (`"cyc", "log"` commits, `"log", "cyc"` rolls back). Data fields
    /// are merged at the design-specific level, so `d0` is the only one.
    fn emit_copy(&self, out: &mut String, dst: &str, src: &str) {
        let statics = self.regs.iter().map(|(r, &(rw, data))| (format!("{r}usize"), rw, data));
        let dynamics = self.sites.iter().map(|&(i, _, rw, data)| (format!("_x{i}"), rw, data));
        for (at, rw, data) in statics.chain(dynamics) {
            let planes = [("rw", rw), ("d0", data)];
            let copies: Vec<String> = planes
                .iter()
                .filter(|&&(_, on)| on)
                .map(|(p, _)| format!("{dst}_{p}[{at}] = {src}_{p}[{at}];"))
                .collect();
            let _ = writeln!(out, "{}", copies.join(" "));
        }
    }
}

/// The registers whose read-write byte some checked access of some rule
/// can flag at the design-specific level (where port-0 reads flag
/// nothing), sorted. Derived from the bytecode every engine runs (the
/// micro-op and native programs are lowered from it), so no engine — the
/// host stepping rules one by one included — can leave a flag outside
/// this set; a checked array access contributes its whole array.
fn rw_flag_set(prog: &Program) -> Vec<u32> {
    let n = prog.init.len() as u32;
    let mut set = Vec::new();
    for insn in prog.rules.iter().flat_map(|r| &r.code) {
        match *insn {
            Insn::Rd1 { reg, .. } | Insn::Wr0 { reg, .. } | Insn::Wr1 { reg, .. } => set.push(reg),
            Insn::Rd1Arr { base, mask, .. }
            | Insn::Wr0Arr { base, mask, .. }
            | Insn::Wr1Arr { base, mask, .. } => set.extend(base..=base + mask),
            _ => {}
        }
    }
    set.retain(|&r| r < n);
    set.sort_unstable();
    set.dedup();
    set
}

/// Sorted, deduplicated indices as half-open runs of consecutive values.
fn runs(xs: &[u32]) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::new();
    for &x in xs {
        match out.last_mut() {
            Some((_, end)) if *end == x => *end = x + 1,
            _ => out.push((x, x + 1)),
        }
    }
    out
}

fn usize_list(xs: &[u32]) -> String {
    let mut s = String::from("[");
    for (j, x) in xs.iter().enumerate() {
        if j > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{x}usize");
    }
    s.push(']');
    s
}

/// Emits a whole-log copy from the `from` log (`cyc` or `log`) to the
/// `to` log: the read-write bytes, `data0` and, unless data is merged,
/// `data1`. Each is a raw copy over the views' length constant, because a
/// slice `copy_from_slice` keeps a length-mismatch panic path that only
/// inlining removes.
fn emit_log_copy(out: &mut String, cfg: LevelCfg, from: &str, to: &str) {
    let mut fields = vec![("rw", "N"), ("d0", "N")];
    if !cfg.merged_data {
        fields.push(("d1", "D1_LEN"));
    }
    for (field, len) in fields {
        let _ = writeln!(
            out,
            "core::ptr::copy_nonoverlapping({from}_{field}.as_ptr(), {to}_{field}.as_mut_ptr(), {len});"
        );
    }
}

/// Baked mirror of [`rule_commit`] (minus the fired counters, emitted by
/// the caller).
fn emit_commit(out: &mut String, cfg: LevelCfg, rule: &RuleCode) {
    if !cfg.acc_logs {
        let w1 = if cfg.merged_data {
            "cyc_d0[_i] = log_d0[_i];"
        } else {
            "cyc_d1[_i] = log_d1[_i];"
        };
        let _ = writeln!(
            out,
            "for _i in 0..N {{ let _rl = log_rw[_i]; if _rl != 0 {{ \
             cyc_rw[_i] |= _rl; \
             if _rl & 0x4 != 0 {{ cyc_d0[_i] = log_d0[_i]; }} \
             if _rl & 0x8 != 0 {{ {w1} }} }} }}"
        );
    } else {
        match &rule.commit {
            CopyPlan::Full => emit_log_copy(out, cfg, "log", "cyc"),
            CopyPlan::Footprint { rw, data } => {
                if !rw.is_empty() {
                    let _ = writeln!(
                        out,
                        "for _i in {} {{ cyc_rw[_i] = log_rw[_i]; }}",
                        usize_list(rw)
                    );
                }
                if !data.is_empty() {
                    let d1 = if cfg.merged_data {
                        ""
                    } else {
                        " cyc_d1[_i] = log_d1[_i];"
                    };
                    let _ = writeln!(
                        out,
                        "for _i in {} {{ cyc_d0[_i] = log_d0[_i];{d1} }}",
                        usize_list(data)
                    );
                }
            }
        }
    }
}

/// Baked mirror of the rollback half of [`rule_failure`].
fn emit_rollback(out: &mut String, cfg: LevelCfg, rule: &RuleCode) {
    match &rule.rollback {
        CopyPlan::Full => emit_log_copy(out, cfg, "cyc", "log"),
        CopyPlan::Footprint { rw, data } => {
            if !rw.is_empty() {
                let _ = writeln!(out, "for _i in {} {{ log_rw[_i] = cyc_rw[_i]; }}", usize_list(rw));
            }
            if !data.is_empty() {
                let d1 = if cfg.merged_data {
                    ""
                } else {
                    " log_d1[_i] = cyc_d1[_i];"
                };
                let _ = writeln!(
                    out,
                    "for _i in {} {{ log_d0[_i] = cyc_d0[_i];{d1} }}",
                    usize_list(data)
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Build cache and loading.
// ---------------------------------------------------------------------------

/// The generated `koika_cycle` inside the loaded cdylib.
type CycleFn = unsafe extern "C" fn(*mut NativeCtx) -> u64;

/// The generated `koika_run` inside the loaded cdylib.
type RunFn = unsafe extern "C" fn(*mut NativeCtx, *mut NativeRun) -> u64;

/// A loaded native engine for one `(design, level, coverage)` compilation:
/// the open cdylib and its `koika_cycle`, the host-retained trap table,
/// the schedule the cycle runs, and the micro-op program the crate was
/// emitted from (which runs per-rule work). Shared via `Arc` through a
/// process-wide cache, so a fuzz matrix instantiating hundreds of `Sim`s
/// compiles each design once.
pub struct NativeEngine {
    _lib: dl::Handle,
    cycle_fn: CycleFn,
    run_fn: RunFn,
    traps: Vec<Trap>,
    schedule: Vec<usize>,
    tac: TacProgram,
    so_path: PathBuf,
}

impl NativeEngine {
    /// Path of the cached cdylib this engine was loaded from.
    pub fn so_path(&self) -> &Path {
        &self.so_path
    }

    /// The micro-op program the engine was emitted from.
    pub(crate) fn tac(&self) -> &TacProgram {
        &self.tac
    }

    /// The [`VmError`] of the first trapping rule in a cycle's record.
    fn first_trap(&self, rec: &[u64]) -> VmError {
        let first = rec.iter().find(|&&w| w & 3 == REC_TRAP).copied().unwrap_or(u64::MAX);
        self.trap(first >> 2)
    }

    /// The [`VmError`] for trap ordinal `t` of the generated code.
    fn trap(&self, t: u64) -> VmError {
        let (rule, pc, what) = usize::try_from(t)
            .ok()
            .and_then(|t| self.traps.get(t).copied())
            .unwrap_or((0, 0, "native code returned an invalid trap ordinal"));
        VmError::CompilerBug { rule, pc: pc as usize, what }
    }
}

impl fmt::Debug for NativeEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeEngine")
            .field("so_path", &self.so_path)
            .field("rules", &self.tac.rules.len())
            .finish()
    }
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The on-disk cache key: FNV-1a over the design fingerprint and the full
/// emitted source (whose header carries the ABI version, level, and cfg
/// flags, so any change to design shape, optimization level, or emitter
/// invalidates).
fn cache_key(prog: &Program, source: &str) -> u64 {
    let h = fnv1a(0xcbf29ce484222325, &prog.design.fingerprint().to_le_bytes());
    fnv1a(h, source.as_bytes())
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect()
}

fn artifact_stem(prog: &Program, key: u64) -> String {
    format!("{}-{key:016x}", sanitize(&prog.design.name))
}

/// The on-disk cdylib path `prog` would build to, without building it.
/// The path embeds the design fingerprint and full source hash, which is
/// what the cache-invalidation guarantee rests on (and what the
/// fingerprint-invalidation test asserts).
///
/// # Errors
///
/// [`NativeError::Unsupported`] if the lowered program cannot be emitted.
pub fn cache_path_for(prog: &Program) -> Result<PathBuf, NativeError> {
    let tac = TacProgram::lower(prog);
    let emitted = emit_source(prog, &tac)?;
    let key = cache_key(prog, &emitted.source);
    Ok(cache_dir().join(format!("{}.so", artifact_stem(prog, key))))
}

/// The in-process engine cache key: a hash of everything emission reads
/// from `prog` (bytecode, copy plans, schedule, level, register widths,
/// coverage table, design identity) and the ABI version. It is taken
/// without lowering or emitting anything, so a warm engine costs a hash.
fn program_key(prog: &Program) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    ABI_VERSION.hash(&mut h);
    prog.design.name.hash(&mut h);
    prog.design.fingerprint().hash(&mut h);
    prog.level.hash(&mut h);
    prog.cfg.hash(&mut h);
    prog.rules.hash(&mut h);
    prog.schedule.hash(&mut h);
    prog.widths.hash(&mut h);
    prog.cov.hash(&mut h);
    h.finish()
}

/// The process-wide engine cache, locked.
fn engine_cache() -> std::sync::MutexGuard<'static, HashMap<u64, Arc<NativeEngine>>> {
    static C: OnceLock<Mutex<HashMap<u64, Arc<NativeEngine>>>> = OnceLock::new();
    C.get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("engine cache holders never panic while holding the lock")
}

/// Returns the native engine for `prog`: from the process cache if an
/// identical program was built before, else emitted, built (or reused from
/// the on-disk cache), loaded and resolved.
pub(crate) fn build_engine(prog: &Program) -> Result<Arc<NativeEngine>, NativeError> {
    let pkey = program_key(prog);
    if let Some(e) = engine_cache().get(&pkey) {
        return Ok(Arc::clone(e));
    }
    let tac = TacProgram::lower(prog);
    let emitted = emit_source(prog, &tac)?;
    let so_path = ensure_built(prog, &emitted.source, cache_key(prog, &emitted.source))?;
    let lib = dl::open(&so_path).map_err(NativeError::Load)?;
    let cycle = dl::sym(&lib, "koika_cycle").map_err(NativeError::Load)?;
    let run = dl::sym(&lib, "koika_run").map_err(NativeError::Load)?;
    let engine = Arc::new(NativeEngine {
        _lib: lib,
        // SAFETY: the symbols were emitted by us with exactly these
        // signatures; the cache key ties the cdylib to the emitter version.
        cycle_fn: unsafe { std::mem::transmute::<*mut std::os::raw::c_void, CycleFn>(cycle) },
        run_fn: unsafe { std::mem::transmute::<*mut std::os::raw::c_void, RunFn>(run) },
        traps: emitted.traps,
        schedule: prog.schedule.clone(),
        tac,
        so_path,
    });
    engine_cache().insert(pkey, Arc::clone(&engine));
    Ok(engine)
}

/// The flags every generated crate is built with (output and source
/// paths follow).
const RUSTC_ARGS: [&str; 14] = [
    "--edition",
    "2021",
    "--crate-type",
    "cdylib",
    "--crate-name",
    "koika_native",
    "-C",
    "opt-level=3",
    "-C",
    "codegen-units=1",
    "-C",
    "panic=abort",
    "-C",
    "debuginfo=0",
];

/// Ensures the cdylib for `source` exists in the on-disk cache, invoking
/// `rustc` only on a miss. Concurrent builders of one design — threads of
/// one process as well as separate processes — may each run `rustc`, but
/// never share a file: each writes its source and cdylib (and so rustc's
/// intermediates, named after the output) under a name unique to the
/// build (pid plus a per-process counter), then renames both into place.
/// Renames are atomic, so a reader sees either no cdylib or a complete one.
fn ensure_built(prog: &Program, source: &str, key: u64) -> Result<PathBuf, NativeError> {
    static BUILDS: AtomicU64 = AtomicU64::new(0);
    let dir = cache_dir();
    let stem = artifact_stem(prog, key);
    let so_path = dir.join(format!("{stem}.so"));
    if so_path.exists() {
        return Ok(so_path);
    }
    std::fs::create_dir_all(&dir)
        .map_err(|e| NativeError::Build(format!("cannot create cache dir {dir:?}: {e}")))?;
    let rs_path = dir.join(format!("{stem}.rs"));
    let tmp = format!(
        "{stem}.{}-{}.tmp",
        std::process::id(),
        BUILDS.fetch_add(1, Ordering::Relaxed)
    );
    let tmp_rs = dir.join(format!("{tmp}.rs"));
    let tmp_so = dir.join(format!("{tmp}.so"));
    std::fs::write(&tmp_rs, source)
        .map_err(|e| NativeError::Build(format!("cannot write {tmp_rs:?}: {e}")))?;
    let output = std::process::Command::new(rustc_cmd())
        .args(RUSTC_ARGS)
        .arg("-o")
        .arg(&tmp_so)
        .arg(&tmp_rs)
        .output();
    // Publish the source either way: it is what a failed build reports.
    let _ = std::fs::rename(&tmp_rs, &rs_path);
    // No probe runs first: a missing toolchain shows as a failed spawn.
    let output = output.map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => NativeError::NoToolchain(format!(
            "cannot run `{}`; install rustc or point KOIKA_RUSTC at one",
            rustc_cmd()
        )),
        _ => NativeError::Build(format!("cannot run {}: {e}", rustc_cmd())),
    })?;
    if !output.status.success() {
        let _ = std::fs::remove_file(&tmp_so);
        return Err(NativeError::Build(format!(
            "rustc failed on {rs_path:?}:\n{}",
            String::from_utf8_lossy(&output.stderr)
        )));
    }
    std::fs::rename(&tmp_so, &so_path)
        .map_err(|e| NativeError::Build(format!("cannot publish {so_path:?}: {e}")))?;
    Ok(so_path)
}

/// Minimal hand-rolled dynamic-loading shim. Unix `dlopen`/`dlsym` only —
/// the symbols come from the libc the standard library already links, so
/// no new dependency is introduced. Handles are intentionally never
/// `dlclose`d: engines are process-lifetime cached and function pointers
/// into them must stay valid.
#[cfg(unix)]
mod dl {
    use std::ffi::CString;
    use std::os::raw::{c_char, c_int, c_void};

    extern "C" {
        fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
        fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
        fn dlerror() -> *mut c_char;
    }

    const RTLD_NOW: c_int = 2;

    /// An open shared-object handle (never closed; see module docs).
    pub struct Handle(#[allow(dead_code)] *mut c_void);

    // SAFETY: the handle is an opaque token; dlopen/dlsym are thread-safe.
    unsafe impl Send for Handle {}
    unsafe impl Sync for Handle {}

    fn take_error(fallback: &str) -> String {
        // SAFETY: dlerror returns a thread-local NUL-terminated string or
        // null; we copy it out immediately.
        unsafe {
            let e = dlerror();
            if e.is_null() {
                fallback.to_string()
            } else {
                std::ffi::CStr::from_ptr(e).to_string_lossy().into_owned()
            }
        }
    }

    pub fn open(path: &std::path::Path) -> Result<Handle, String> {
        let c = CString::new(path.to_string_lossy().as_bytes())
            .map_err(|_| "path contains a NUL byte".to_string())?;
        // SAFETY: valid NUL-terminated path.
        let h = unsafe { dlopen(c.as_ptr(), RTLD_NOW) };
        if h.is_null() {
            Err(take_error("dlopen failed"))
        } else {
            Ok(Handle(h))
        }
    }

    pub fn sym(h: &Handle, name: &str) -> Result<*mut c_void, String> {
        let c = CString::new(name).map_err(|_| "symbol contains a NUL byte".to_string())?;
        // SAFETY: live handle, valid NUL-terminated symbol name.
        let p = unsafe { dlsym(h.0, c.as_ptr()) };
        if p.is_null() {
            Err(format!("missing symbol {name}: {}", take_error("dlsym failed")))
        } else {
            Ok(p)
        }
    }
}

#[cfg(not(unix))]
mod dl {
    use std::os::raw::c_void;

    /// Stub handle for platforms without `dlopen`.
    pub struct Handle;

    pub fn open(_path: &std::path::Path) -> Result<Handle, String> {
        Err("dynamic loading is not supported on this platform".to_string())
    }

    pub fn sym(_h: &Handle, _name: &str) -> Result<*mut c_void, String> {
        Err("dynamic loading is not supported on this platform".to_string())
    }
}

// ---------------------------------------------------------------------------
// Host-side executors.
// ---------------------------------------------------------------------------

/// Runs one full cycle through the generated `koika_cycle`, which fills
/// `st.rec`, and maps the cycle's last failure to `st.last_fail`. Like
/// per-rule stepping, a trapping rule does not stop the cycle; the cycle's
/// first trap is returned. Inlined into `Sim::cycle`: an out-of-line call
/// costs small designs about 10%.
#[inline]
pub(crate) fn run_cycle_native(engine: &NativeEngine, st: &mut State) -> Result<(), VmError> {
    st.rec.resize(engine.schedule.len(), 0);
    let mut ctx = NativeCtx::for_state(st);
    // SAFETY: the context pointers cover exactly the lengths the generated
    // code was emitted with (validated against this program's register,
    // coverage and schedule counts), and `st` is not touched while the
    // call runs.
    let ret = unsafe { (engine.cycle_fn)(&mut ctx) };
    if let Some(j) = ((ret >> 1) as usize).checked_sub(1) {
        st.last_fail = Some(rec_fail_info(st.rec[j], engine.schedule[j], st.cycles));
    }
    st.cycles += 1;
    if ret & 1 == 0 {
        return Ok(());
    }
    Err(engine.first_trap(&st.rec))
}

/// Runs `span` through the generated `koika_run` over the validated
/// `ports`, leaving `st` as the same cycles run one by one through
/// [`run_cycle_native`] would: the cycle count, the record of the last
/// cycle and the latest failure. A trapping cycle ends a `koika_run`
/// call; its trap is recorded in `trap` (if none is yet) and the span goes
/// on, as a per-cycle run would.
pub(crate) fn run_span_native(
    engine: &NativeEngine,
    st: &mut State,
    ports: &[NativePort],
    span: Span,
    trap: &mut Option<VmError>,
) -> SpanRun {
    st.rec.resize(engine.schedule.len(), 0);
    let mut run = NativeRun {
        ports: ports.as_ptr(),
        nports: ports.len() as u64,
        max: 0,
        stop_reg: span.stop.map_or(u64::MAX, |(r, _)| r.0 as u64),
        stop_at: span.stop.map_or(0, |(_, at)| at),
        stall_limit: span.stall_limit.unwrap_or(u64::MAX),
        stalled: span.stalled,
        ran: 0,
        last: 0,
        last_word: 0,
        last_cycle: 0,
    };
    let mut done = 0;
    loop {
        run.max = span.cycles - done;
        run.last = 0;
        let mut ctx = NativeCtx::for_state(st);
        // SAFETY: as in `run_cycle_native`; besides, every port register
        // is below the register count and every port's memory pointer
        // covers `words > 0` words of a device that is not touched while
        // the call runs (`native_ports`).
        let why = unsafe { (engine.run_fn)(&mut ctx, &mut run) };
        if let Some(j) = (run.last as usize).checked_sub(1) {
            let cycle = st.cycles + run.last_cycle;
            st.last_fail = Some(rec_fail_info(run.last_word, engine.schedule[j], cycle));
        }
        st.cycles += run.ran;
        done += run.ran;
        if why & RUN_TRAPPED != 0 {
            trap.get_or_insert(engine.first_trap(&st.rec));
        }
        let end = match why & 3 {
            RUN_STOP => SpanEnd::Stop,
            RUN_STALL => SpanEnd::Stall,
            _ if done == span.cycles => SpanEnd::Cycles,
            _ => continue,
        };
        return SpanRun {
            cycles: done,
            stalled: run.stalled,
            end,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use crate::insn::Insn;
    use crate::level::OptLevel;
    use crate::vm::{Dispatch, Sim};
    use koika::ast::*;
    use koika::check::check;
    use koika::design::DesignBuilder;
    use koika::device::{RegAccess, SimBackend};
    use koika::tir::RegId;

    /// Every native test must skip loudly (not silently, not by failing)
    /// on machines without a toolchain.
    fn available(test: &str) -> bool {
        if toolchain_available() {
            true
        } else {
            eprintln!("SKIP {test}: no rustc toolchain");
            false
        }
    }

    fn collatz() -> koika::tir::TDesign {
        let mut b = DesignBuilder::new("native-collatz");
        b.reg("x", 16, 7u64);
        b.rule(
            "even",
            vec![iff(
                rd0("x").and(k(16, 1)).eq(k(16, 0)),
                vec![wr0("x", rd0("x").shr(k(16, 1)))],
                vec![],
            )],
        );
        b.rule(
            "odd",
            vec![iff(
                rd1("x").and(k(16, 1)).eq(k(16, 1)),
                vec![wr1("x", rd1("x").mul(k(16, 3)).add(k(16, 1)))],
                vec![],
            )],
        );
        check(&b.build()).unwrap()
    }

    /// Two rules racing for the same register: the second write conflicts
    /// every cycle, exercising failure paths and `FailInfo`.
    fn clash() -> koika::tir::TDesign {
        let mut b = DesignBuilder::new("native-clash");
        b.reg("n", 8, 0u64);
        b.rule("a", vec![wr0("n", rd0("n").add(k(8, 1)))]);
        b.rule("b", vec![wr0("n", rd0("n").add(k(8, 2)))]);
        check(&b.build()).unwrap()
    }

    #[test]
    fn native_matches_match_across_levels() {
        if !available("native_matches_match_across_levels") {
            return;
        }
        for td in [collatz(), clash()] {
            for level in OptLevel::ALL {
                for coverage in [false, true] {
                    let opts = CompileOptions { level, coverage, ..CompileOptions::default() };
                    let mut a = Sim::compile_with(&td, &opts).unwrap();
                    let mut b = Sim::compile_with(&td, &opts).unwrap();
                    b.set_dispatch(Dispatch::Native);
                    for cyc in 0..200 {
                        a.cycle();
                        b.cycle();
                        assert_eq!(
                            a.reg_values(),
                            b.reg_values(),
                            "{} {level} cov={coverage} cycle {cyc}",
                            td.name
                        );
                    }
                    assert_eq!(a.rules_fired(), b.rules_fired(), "{} {level}", td.name);
                    assert_eq!(
                        a.coverage_counts(),
                        b.coverage_counts(),
                        "{} {level} cov={coverage}",
                        td.name
                    );
                }
            }
        }
    }

    #[test]
    fn native_failinfo_matches_interpreter() {
        if !available("native_failinfo_matches_interpreter") {
            return;
        }
        for level in OptLevel::ALL {
            let opts = CompileOptions { level, ..CompileOptions::default() };
            let mut a = Sim::compile_with(&clash(), &opts).unwrap();
            let mut b = Sim::compile_with(&clash(), &opts).unwrap();
            b.set_dispatch(Dispatch::Native);
            for _ in 0..5 {
                a.cycle();
                b.cycle();
                assert_eq!(a.last_fail(), b.last_fail(), "{level}");
            }
            assert!(b.last_fail().is_some(), "{level}: the clash design must conflict");
        }
    }

    #[test]
    fn native_profile_weights_are_tac_weights() {
        if !available("native_profile_weights_are_tac_weights") {
            return;
        }
        for td in [collatz(), clash()] {
            for level in OptLevel::ALL {
                let opts = CompileOptions { level, ..CompileOptions::default() };
                let mut want = Sim::compile_with(&td, &opts).unwrap();
                let mut tac = Sim::compile_with(&td, &opts).unwrap();
                let mut native = Sim::compile_with(&td, &opts).unwrap();
                want.enable_profiling();
                tac.set_dispatch(Dispatch::Tac);
                tac.enable_profiling();
                native.set_dispatch(Dispatch::Native);
                native.enable_profiling();
                for cyc in 0..50 {
                    want.cycle();
                    tac.cycle();
                    native.cycle();
                    let at = format!("{} {level} cycle {cyc}", td.name);
                    assert_eq!(native.reg_values(), tac.reg_values(), "{at}");
                    assert_eq!(native.last_fail(), tac.last_fail(), "{at}");
                }
                assert_eq!(native.fails_per_rule(), tac.fails_per_rule(), "{} {level}", td.name);
                assert_eq!(
                    native.profile_insns().unwrap(),
                    tac.profile_insns().unwrap(),
                    "{} {level}: a profiled native run counts tac weights",
                    td.name
                );
                assert_eq!(
                    tac.profile_insns().unwrap(),
                    want.profile_insns().unwrap(),
                    "{} {level}: tac weights are match's, failures included",
                    td.name
                );
            }
        }
    }

    /// History no longer forces per-rule stepping: a native `Sim` with
    /// history on runs whole cycles, keeps one snapshot per cycle and
    /// steps back to the state a `match` run had at that cycle.
    #[test]
    fn history_keeps_whole_native_cycles_and_steps_back() {
        if !available("history_keeps_whole_native_cycles_and_steps_back") {
            return;
        }
        for td in [collatz(), clash()] {
            let opts = CompileOptions::default();
            let mut want = Sim::compile_with(&td, &opts).unwrap();
            let mut got = Sim::compile_with(&td, &opts).unwrap();
            got.set_dispatch(Dispatch::Native);
            got.enable_history(8);
            let mut states = Vec::new();
            for cyc in 0..40 {
                want.cycle();
                got.cycle();
                assert_eq!(got.reg_values(), want.reg_values(), "{} cycle {cyc}", td.name);
                assert_eq!(got.last_fail(), want.last_fail(), "{} cycle {cyc}", td.name);
                states.push((want.reg_values(), want.last_fail()));
            }
            assert_eq!(got.fired_per_rule(), want.fired_per_rule(), "{}", td.name);
            assert!(got.step_back(3), "{}", td.name);
            assert_eq!((got.reg_values(), got.last_fail()), states[37], "{}", td.name);
            assert_eq!(got.cycle_count(), 38, "{}", td.name);
            got.cycle();
            assert_eq!(got.reg_values(), states[38].0, "{}: runs on after step-back", td.name);
        }
    }

    /// A register-indexed array written at every dynamic-index log-write
    /// kind. `scatter` writes `arr[r]`, then on odd `r` conflicts on `c`:
    /// a dirty rollback of a dynamic write. `mover` flags `arr[r]` with a
    /// port-1 read and commits dynamic `wr0a`/`wr1a` writes (it conflicts
    /// when `q == r`). `late` writes `arr[r]` at port 1 and aborts when
    /// bit 1 of `c` is set, so its rollback restores `arr[r]`'s flags from
    /// the cycle log, which `probe`'s write then checks. `tick` writes the
    /// safe array `hist` through an unchecked index. `arr` is over half
    /// the registers, so on the host the rules writing it copy whole logs.
    fn scatter() -> koika::tir::TDesign {
        let mut b = DesignBuilder::new("native-scatter");
        b.reg("r", 3, 0u64);
        b.reg("q", 3, 0u64);
        b.reg("c", 8, 0u64);
        b.array("arr", 8, 8, 0u64);
        b.array("hist", 8, 4, 0u64);
        b.rule("bump", vec![wr0("c", rd0("c").add(k(8, 1)))]);
        b.rule(
            "scatter",
            vec![
                wr0a("arr", rd0("r"), rd1("c")),
                when(rd0("r").and(k(3, 1)).eq(k(3, 1)), vec![wr0("c", k(8, 0))]),
            ],
        );
        b.rule(
            "mover",
            vec![
                let_("v", rd1a("arr", rd0("r"))),
                wr0a("arr", rd0("q"), var("v").add(k(8, 3))),
                wr1a("arr", rd0("q").add(k(3, 4)), var("v").xor(rd0("q").zext(8))),
            ],
        );
        b.rule(
            "late",
            vec![
                wr1a("arr", rd0("r"), k(8, 0x55)),
                guard(rd1("c").and(k(8, 2)).eq(k(8, 0))),
            ],
        );
        b.rule("probe", vec![wr0a("arr", rd0("r"), k(8, 0xaa))]);
        b.rule(
            "tick",
            vec![
                wr0a("hist", rd0("q").slice(0, 2), rd1("c")),
                wr0("r", rd0("r").add(k(3, 1))),
                wr0("q", rd0("q").add(k(3, 3))),
            ],
        );
        check(&b.build()).unwrap()
    }

    #[test]
    fn exact_footprint_cycles_match_reference_on_dynamic_indices() {
        if !available("exact_footprint_cycles_match_reference_on_dynamic_indices") {
            return;
        }
        let td = scatter();
        for level in OptLevel::ALL {
            let opts = CompileOptions { level, ..CompileOptions::default() };
            let prog = compile(&td, &opts).unwrap();
            assert!(prog.warnings.is_empty(), "{level}: {:?}", prog.warnings);
            if level == OptLevel::DesignSpecific {
                // The design must reach every dynamic log-write kind.
                let tac = TacProgram::lower(&prog);
                let has = |f: fn(&Uop) -> bool| tac.rules.iter().any(|r| r.uops.iter().any(f));
                assert!(has(|u| matches!(u, Uop::Rd1Arr { .. })));
                assert!(has(|u| matches!(u, Uop::Wr0Arr { .. })));
                assert!(has(|u| matches!(u, Uop::Wr1Arr { .. })));
                assert!(has(|u| matches!(u, Uop::WrArrFast { .. })));
                assert_eq!(prog.rules[3].rollback, CopyPlan::Full);
            }
            let mut interp = koika::interp::Interp::new(&td);
            let mut reference = Sim::compile_with(&td, &opts).unwrap();
            // `fast` runs whole native cycles with their exact-footprint
            // commits; `stepped` steps the same state rule by rule through
            // the engine's micro-op bodies; the two hand the state back and
            // forth, and both are checked against the interpreter and a
            // `match` reference. So neither path may leave a flag or a log
            // entry that the other's next cycle would misread.
            let mut fast = Sim::compile_with(&td, &opts).unwrap();
            fast.set_dispatch(Dispatch::Native);
            let mut stepped = Sim::compile_with(&td, &opts).unwrap();
            stepped.set_dispatch(Dispatch::Native);
            let n = prog.init.len();
            // Failures per rule inside native whole cycles.
            let mut native_fails = vec![0u64; prog.rules.len()];
            for cyc in 0..200 {
                // Host-step every third cycle, so that native cycles see
                // both parities of `r` and `q`.
                if cyc % 3 == 0 {
                    stepped.restore_state(&fast.save_state());
                    stepped.begin_cycle();
                    for &r in &prog.schedule {
                        stepped.step_rule(r);
                    }
                    stepped.end_cycle();
                    fast.restore_state(&stepped.save_state());
                } else {
                    let before = fast.fails_per_rule().to_vec();
                    fast.cycle();
                    for (k, f) in native_fails.iter_mut().enumerate() {
                        *f += fast.fails_per_rule()[k] - before[k];
                    }
                }
                interp.cycle();
                reference.cycle();
                let want: Vec<u64> = (0..n).map(|i| interp.get64(RegId(i as u32))).collect();
                assert_eq!(reference.reg_values(), want, "{level} cycle {cyc}: reference");
                assert_eq!(fast.reg_values(), want, "{level} cycle {cyc}");
                assert_eq!(fast.last_fail(), reference.last_fail(), "{level} cycle {cyc}");
            }
            assert_eq!(fast.fired_per_rule(), reference.fired_per_rule(), "{level}");
            assert_eq!(fast.fails_per_rule(), reference.fails_per_rule(), "{level}");
            // scatter, mover, late and probe all fail in native cycles.
            assert!(native_fails[1..5].iter().all(|&f| f > 0), "{level}: {native_fails:?}");
        }
    }

    #[test]
    fn stack_discipline_violation_traps_in_native() {
        if !available("stack_discipline_violation_traps_in_native") {
            return;
        }
        let mut prog = compile(&clash(), &CompileOptions::default()).unwrap();
        Arc::make_mut(&mut prog.rules)[0].code.insert(0, Insn::Add { mask: u64::MAX });
        let mut sim = Sim::new(prog.clone());
        sim.set_dispatch(Dispatch::Native);
        let err = sim.try_cycle().unwrap_err();
        assert!(matches!(
            err,
            VmError::CompilerBug { rule: 0, what: "operand stack underflow", .. }
        ));
        // A plain `cycle()` runs `koika_cycle`, which records the same trap
        // and, like the host (`host`) and the micro-op bodies of a profiled
        // native run (`profiled`), finishes the cycle with the remaining
        // rules. Observed, each reports the trapping rule as a failure of
        // unspecified reason.
        let mut host = Sim::new(prog.clone());
        let mut fast = Sim::new(prog.clone());
        fast.set_dispatch(Dispatch::Native);
        let mut profiled = Sim::new(prog);
        profiled.set_dispatch(Dispatch::Native);
        profiled.enable_profiling();
        for cyc in 0..3 {
            let mut want_m = koika::obs::Metrics::for_design(&clash());
            host.cycle_obs(&mut want_m);
            let want = (host.take_trap(), host.reg_values(), host.last_fail());
            assert_eq!(want.0, Some(err), "cycle {cyc}");
            assert_eq!(want_m.rules()[0].failed_other, 1, "cycle {cyc}");
            for sim in [&mut fast, &mut profiled] {
                let mut m = koika::obs::Metrics::for_design(&clash());
                sim.cycle_obs(&mut m);
                assert_eq!((sim.take_trap(), sim.reg_values(), sim.last_fail()), want, "{cyc}");
                assert_eq!(m.to_json(false), want_m.to_json(false), "cycle {cyc}");
            }
        }
        assert_eq!(fast.rules_fired(), host.rules_fired());
    }

    #[test]
    fn cache_path_is_stable_and_fingerprint_sensitive() {
        // Pure emission — no toolchain needed, no skip.
        let prog_a = compile(&collatz(), &CompileOptions::default()).unwrap();
        let prog_a2 = compile(&collatz(), &CompileOptions::default()).unwrap();
        assert_eq!(
            cache_path_for(&prog_a).unwrap(),
            cache_path_for(&prog_a2).unwrap(),
            "same design, same options: the cache must hit"
        );
        // A different design fingerprint (extra register) must invalidate.
        let mut b = DesignBuilder::new("native-collatz");
        b.reg("x", 16, 7u64);
        b.reg("extra", 8, 0u64);
        b.rule(
            "even",
            vec![iff(
                rd0("x").and(k(16, 1)).eq(k(16, 0)),
                vec![wr0("x", rd0("x").shr(k(16, 1)))],
                vec![],
            )],
        );
        b.rule(
            "odd",
            vec![iff(
                rd1("x").and(k(16, 1)).eq(k(16, 1)),
                vec![wr1("x", rd1("x").mul(k(16, 3)).add(k(16, 1)))],
                vec![],
            )],
        );
        let td = check(&b.build()).unwrap();
        let prog_b = compile(&td, &CompileOptions::default()).unwrap();
        assert_ne!(
            cache_path_for(&prog_a).unwrap(),
            cache_path_for(&prog_b).unwrap(),
            "a changed design fingerprint must invalidate the cache"
        );
        // A different optimization level must too (the generated code
        // bakes the log discipline in).
        let prog_o1 = compile(
            &collatz(),
            &CompileOptions { level: OptLevel::SplitRwSets, ..CompileOptions::default() },
        )
        .unwrap();
        assert_ne!(
            cache_path_for(&prog_a).unwrap(),
            cache_path_for(&prog_o1).unwrap()
        );
    }

    #[test]
    fn source_exports_the_cycle_and_span_entries_and_no_std() {
        // Pure emission — no toolchain needed, no skip.
        for level in OptLevel::ALL {
            let prog = compile(&scatter(), &CompileOptions { level, ..CompileOptions::default() })
                .unwrap();
            let src = emit_source(&prog, &TacProgram::lower(&prog)).unwrap().source;
            assert!(src.contains("\n#![no_std]\n"), "{level}");
            let exported: Vec<&str> = src
                .split("pub extern \"C\" fn ")
                .skip(1)
                .map(|f| f.split('(').next().unwrap())
                .collect();
            assert_eq!(exported, ["koika_cycle", "koika_run"], "{level}");
            assert_eq!(src.matches("#[no_mangle]\n").count(), 2, "{level}");
            // The span loop calls the one cycle body, which is never
            // inlined into it: the body is compiled once.
            assert!(
                src.contains("#[inline(never)]\npub extern \"C\" fn koika_cycle("),
                "{level}"
            );
            assert_eq!(src.matches("koika_cycle(ctx)").count(), 1, "{level}");
            // One body per rule, inlined into its one caller, with no
            // weight counter.
            for k in 0..prog.rules.len() {
                assert_eq!(src.matches(&format!("fn rule_{k}(")).count(), 1, "{level}");
                assert_eq!(src.matches(&format!("rule_{k}(ctx)")).count(), 1, "{level}");
            }
            assert!(!src.contains("w +="), "{level}");
            assert!(!src.contains("executed"), "{level}");
        }
    }

    #[test]
    fn generated_crate_builds_without_warnings() {
        if !available("generated_crate_builds_without_warnings") {
            return;
        }
        let dir = std::env::temp_dir().join(format!("koika-native-lint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for level in OptLevel::ALL {
            let opts = CompileOptions { level, coverage: true, ..CompileOptions::default() };
            let prog = compile(&scatter(), &opts).unwrap();
            let src = emit_source(&prog, &TacProgram::lower(&prog)).unwrap().source;
            let rs = dir.join(format!("{}.rs", level.short_name()));
            std::fs::write(&rs, src).unwrap();
            let out = std::process::Command::new(rustc_cmd())
                .args(RUSTC_ARGS)
                .arg("--emit=metadata")
                .arg("-o")
                .arg(rs.with_extension("rmeta"))
                .arg(&rs)
                .output()
                .unwrap();
            assert!(out.status.success(), "{level}");
            assert_eq!(String::from_utf8_lossy(&out.stderr), "", "{level}: rustc printed");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The emitted code is free of panic paths by construction, not
    /// because `koika_cycle` happens to inline every `core` helper: built
    /// in sixteen codegen units, where a helper's instance may stay out of
    /// line, the crate still loads at every level (O2–O5 copy whole logs).
    #[test]
    fn generated_crate_loads_when_split_into_codegen_units() {
        if !available("generated_crate_loads_when_split_into_codegen_units") {
            return;
        }
        let dir = std::env::temp_dir().join(format!("koika-native-cgu-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for level in OptLevel::ALL {
            let prog = compile(&scatter(), &CompileOptions { level, ..CompileOptions::default() })
                .unwrap();
            let src = emit_source(&prog, &TacProgram::lower(&prog)).unwrap().source;
            let rs = dir.join(format!("{}.rs", level.short_name()));
            std::fs::write(&rs, src).unwrap();
            let so = rs.with_extension("so");
            let out = std::process::Command::new(rustc_cmd())
                .args(RUSTC_ARGS)
                .args(["-C", "codegen-units=16"])
                .arg("-o")
                .arg(&so)
                .arg(&rs)
                .output()
                .unwrap();
            assert!(out.status.success(), "{level}: {}", String::from_utf8_lossy(&out.stderr));
            if let Err(e) = dl::open(&so) {
                panic!("{level}: the cdylib does not load: {e}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_is_shared_through_the_process_cache() {
        if !available("engine_is_shared_through_the_process_cache") {
            return;
        }
        let prog = compile(&collatz(), &CompileOptions::default()).unwrap();
        let e1 = build_engine(&prog).unwrap();
        let prog2 = compile(&collatz(), &CompileOptions::default()).unwrap();
        let e2 = build_engine(&prog2).unwrap();
        assert!(Arc::ptr_eq(&e1, &e2), "identical compilations must share one engine");
        assert!(e1.so_path().exists());
    }

    #[test]
    fn concurrent_builds_of_a_fresh_design_all_succeed() {
        if !available("concurrent_builds_of_a_fresh_design_all_succeed") {
            return;
        }
        // A design name no cache holds yet, so every thread misses both the
        // process cache and the on-disk cache and runs rustc at once.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let mut b = DesignBuilder::new(format!("native-race-{}-{nanos}", std::process::id()));
        b.reg("n", 8, 0u64);
        b.rule("inc", vec![wr0("n", rd0("n").add(k(8, 1)))]);
        let prog = compile(&check(&b.build()).unwrap(), &CompileOptions::default()).unwrap();
        let so_path = cache_path_for(&prog).unwrap();
        assert!(!so_path.exists(), "the design must be fresh");
        let start = std::sync::Barrier::new(8);
        let built: Vec<Result<PathBuf, NativeError>> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        build_engine(&prog).map(|e| e.so_path().to_path_buf())
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        for r in &built {
            assert_eq!(r, &Ok(so_path.clone()), "every concurrent build must succeed");
        }
        let _ = std::fs::remove_file(&so_path);
        let _ = std::fs::remove_file(so_path.with_extension("rs"));
    }

    #[test]
    fn snapshot_restore_keeps_native_dispatch_exact() {
        if !available("snapshot_restore_keeps_native_dispatch_exact") {
            return;
        }
        let td = collatz();
        let opts = CompileOptions::default();
        let mut sim = Sim::compile_with(&td, &opts).unwrap();
        sim.set_dispatch(Dispatch::Native);
        for _ in 0..10 {
            sim.cycle();
        }
        let snap = sim.save_state();
        let vals = sim.reg_values();
        for _ in 0..10 {
            sim.cycle();
        }
        sim.restore_state(&snap);
        assert_eq!(sim.reg_values(), vals);
        // And it keeps running natively afterwards, in agreement with a
        // fresh interpreter advanced the same number of cycles.
        let mut reference = Sim::compile_with(&td, &opts).unwrap();
        for _ in 0..15 {
            reference.cycle();
        }
        for _ in 0..5 {
            sim.cycle();
        }
        assert_eq!(sim.reg_values(), reference.reg_values());
    }
}

