//! The "magic" 1-cycle-latency memory device shared by all processor
//! designs and backends.
//!
//! Cores talk to memory through dedicated request/response registers; the
//! device runs at cycle boundaries (see [`koika::device`]), which keeps
//! every backend cycle-accurate with respect to every other one. A request
//! issued during cycle `N` is answered before cycle `N + 1` — the paper's
//! "idealized single-cycle memory" (case study 3).
//!
//! Protocol, per port:
//!
//! * the design asserts `req_valid` with `req_addr` (byte address),
//!   `req_wen`/`req_wstrb`/`req_wdata` for stores;
//! * between cycles, the device clears `req_valid` and performs the access;
//!   loads produce `resp_valid = 1` and `resp_data` (only when the previous
//!   response has been consumed — otherwise the request stays pending);
//!   stores complete silently;
//! * the design consumes a response by clearing `resp_valid`.

use koika::device::{Device, RegAccess};
use koika::design::DesignBuilder;
use koika::tir::{RegId, TDesign};

/// The register names of one memory port (all prefixed with the port name).
#[derive(Debug, Clone)]
pub struct MemPort {
    /// Port name prefix (e.g. `"imem"` or `"c0_dmem"`).
    pub prefix: String,
}

impl MemPort {
    /// Declares the port's registers on a design under construction.
    pub fn declare(b: &mut DesignBuilder, prefix: &str) -> MemPort {
        b.reg(format!("{prefix}_req_valid"), 1, 0u64);
        b.reg(format!("{prefix}_req_addr"), 32, 0u64);
        b.reg(format!("{prefix}_req_wen"), 1, 0u64);
        b.reg(format!("{prefix}_req_wstrb"), 4, 0u64);
        b.reg(format!("{prefix}_req_wdata"), 32, 0u64);
        b.reg(format!("{prefix}_resp_valid"), 1, 0u64);
        b.reg(format!("{prefix}_resp_data"), 32, 0u64);
        MemPort {
            prefix: prefix.to_string(),
        }
    }

    /// The register name `{prefix}_{field}`.
    pub fn reg(&self, field: &str) -> String {
        format!("{}_{field}", self.prefix)
    }
}

/// Resolved register ids of a memory port, for the device's fast path.
#[derive(Debug, Clone, Copy)]
struct PortRegs {
    req_valid: RegId,
    req_addr: RegId,
    req_wen: RegId,
    req_wstrb: RegId,
    req_wdata: RegId,
    resp_valid: RegId,
    resp_data: RegId,
}

impl PortRegs {
    fn resolve(design: &TDesign, prefix: &str) -> PortRegs {
        PortRegs {
            req_valid: design.reg_id(&format!("{prefix}_req_valid")),
            req_addr: design.reg_id(&format!("{prefix}_req_addr")),
            req_wen: design.reg_id(&format!("{prefix}_req_wen")),
            req_wstrb: design.reg_id(&format!("{prefix}_req_wstrb")),
            req_wdata: design.reg_id(&format!("{prefix}_req_wdata")),
            resp_valid: design.reg_id(&format!("{prefix}_resp_valid")),
            resp_data: design.reg_id(&format!("{prefix}_resp_data")),
        }
    }
}

/// A word-addressed magic memory servicing any number of ports.
#[derive(Debug, Clone)]
pub struct MagicMemory {
    mem: Vec<u32>,
    ports: Vec<PortRegs>,
}

impl MagicMemory {
    /// Creates a memory of `words` 32-bit words with `program` loaded at
    /// byte address `0`, serving the named ports of `design`.
    ///
    /// # Panics
    ///
    /// Panics if the program does not fit or a port's registers are missing
    /// from the design.
    pub fn new(design: &TDesign, ports: &[&str], program: &[u32], words: usize) -> MagicMemory {
        let mut m = MagicMemory {
            mem: vec![0; words],
            ports: ports.iter().map(|p| PortRegs::resolve(design, p)).collect(),
        };
        m.load(0, program);
        m
    }

    /// Loads `program` at the given byte address.
    ///
    /// # Panics
    ///
    /// Panics if it does not fit.
    pub fn load(&mut self, byte_addr: u32, program: &[u32]) {
        let base = (byte_addr >> 2) as usize;
        assert!(
            base + program.len() <= self.mem.len(),
            "program does not fit in memory"
        );
        self.mem[base..base + program.len()].copy_from_slice(program);
    }

    /// Reads a memory word (by byte address).
    pub fn word(&self, byte_addr: u32) -> u32 {
        self.mem[(byte_addr >> 2) as usize % self.mem.len()]
    }

    /// The whole memory contents.
    pub fn words(&self) -> &[u32] {
        &self.mem
    }

    /// Services every port once: the body of [`Device::tick`], generic so
    /// a caller holding a concrete simulator gets inlined register access.
    pub fn serve<R: RegAccess + ?Sized>(&mut self, regs: &mut R) {
        for p in &self.ports {
            if regs.get64(p.req_valid) == 0 {
                continue;
            }
            let addr = regs.get64(p.req_addr) as u32;
            let idx = (addr >> 2) as usize % self.mem.len();
            if regs.get64(p.req_wen) != 0 {
                // Stores complete immediately and silently.
                let strb = regs.get64(p.req_wstrb) as u32;
                let wdata = regs.get64(p.req_wdata) as u32;
                let mut word = self.mem[idx];
                for byte in 0..4 {
                    if strb & (1 << byte) != 0 {
                        let mask = 0xffu32 << (byte * 8);
                        word = (word & !mask) | (wdata & mask);
                    }
                }
                self.mem[idx] = word;
                regs.set64(p.req_valid, 0);
            } else {
                // Loads respond only when the response slot is free.
                if regs.get64(p.resp_valid) == 0 {
                    regs.set64(p.resp_data, self.mem[idx] as u64);
                    regs.set64(p.resp_valid, 1);
                    regs.set64(p.req_valid, 0);
                }
            }
        }
    }
}

impl Device for MagicMemory {
    // Stores mutate `mem`, so the debugger must checkpoint it alongside
    // the architectural registers; the port bindings are immutable config
    // and stay out of the blob.
    fn save_state(&self) -> Option<Vec<u8>> {
        // Fault campaigns save one image per golden checkpoint, so the
        // copy is a zip of fixed-size chunks the compiler vectorizes.
        let mut out = vec![0u8; self.mem.len() * 4];
        for (chunk, w) in out.chunks_exact_mut(4).zip(&self.mem) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        Some(out)
    }

    fn load_state(&mut self, state: &[u8]) -> Result<(), String> {
        if state.len() != self.mem.len() * 4 {
            return Err(format!(
                "memory state is {} bytes, expected {}",
                state.len(),
                self.mem.len() * 4
            ));
        }
        for (w, chunk) in self.mem.iter_mut().zip(state.chunks_exact(4)) {
            *w = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        Ok(())
    }

    fn tick(&mut self, _cycle: u64, regs: &mut dyn RegAccess) {
        self.serve(regs);
    }
}
