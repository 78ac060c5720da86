//! The "magic" 1-cycle-latency memory device shared by all processor
//! designs and backends.
//!
//! Cores talk to memory through dedicated request/response registers; the
//! device runs at cycle boundaries (see [`koika::device`]), which keeps
//! every backend cycle-accurate with respect to every other one. A request
//! issued during cycle `N` is answered before cycle `N + 1` — the paper's
//! "idealized single-cycle memory" (case study 3).
//!
//! The port protocol is [`WordPort`]'s. The device offers itself as a
//! [`WordMemory`], so the native Cuttlesim dispatch serves its ports inside
//! the compiled cycle loop instead of ticking it from the host.

use koika::device::{word_index, Device, RegAccess, WordMemory, WordPort};
use koika::design::DesignBuilder;
use koika::tir::TDesign;

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

/// A word-addressed magic memory servicing any number of ports.
#[derive(Debug, Clone)]
pub struct MagicMemory {
    mem: Vec<u32>,
    ports: Vec<WordPort>,
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
            ports: ports.iter().map(|p| WordPort::resolve(design, p)).collect(),
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

    /// Reads a memory word (by byte address); addresses past the end wrap
    /// around.
    pub fn word(&self, byte_addr: u32) -> u32 {
        self.mem[word_index(byte_addr, self.mem.len())]
    }

    /// The whole memory contents.
    pub fn words(&self) -> &[u32] {
        &self.mem
    }

    /// The ports and the words, as the protocol serves them.
    fn memory(&mut self) -> WordMemory<'_> {
        WordMemory {
            ports: &self.ports,
            words: &mut self.mem,
        }
    }

    /// Services every port once: the body of [`Device::tick`], generic so
    /// a caller holding a concrete simulator gets inlined register access.
    pub fn serve<R: RegAccess + ?Sized>(&mut self, regs: &mut R) {
        self.memory().serve(regs);
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

    fn word_memory(&mut self) -> Option<WordMemory<'_>> {
        Some(self.memory())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koika::check::check;
    use koika::Interp;

    #[test]
    fn accesses_past_the_end_wrap_to_the_same_word() {
        let mut b = DesignBuilder::new("mem");
        let port = MemPort::declare(&mut b, "p");
        let td = check(&b.build()).unwrap();
        let reg = |field: &str| td.reg_id(&port.reg(field));
        // Five words, so the wrap is a true modulo, not a mask.
        let mut mem = MagicMemory::new(&td, &["p"], &[10, 11, 12, 13, 14], 5);
        let mut regs = Interp::new(&td);
        let wrapped = |addr: u32| ((addr >> 2) as usize % 5) as u32 * 4;

        // A load at word 7 reads word 7 % 5 = 2.
        regs.set64(reg("req_valid"), 1);
        regs.set64(reg("req_addr"), 28);
        mem.serve(&mut regs);
        assert_eq!(regs.get64(reg("resp_data")), 12);
        assert_eq!(regs.get64(reg("resp_valid")), 1);
        assert_eq!(regs.get64(reg("req_valid")), 0);

        // A store at the top of the address space lands on its wrapped word.
        let top = 0xffff_fffc;
        regs.set64(reg("req_valid"), 1);
        regs.set64(reg("req_addr"), top as u64);
        regs.set64(reg("req_wen"), 1);
        regs.set64(reg("req_wstrb"), 0b0011);
        regs.set64(reg("req_wdata"), 0xdead_beef);
        mem.serve(&mut regs);
        assert_eq!(regs.get64(reg("req_valid")), 0);
        let stored = (wrapped(top) / 4) as usize;
        assert_eq!(stored, 0x3fff_ffff % 5);
        assert_eq!(mem.words()[stored], (10 + stored as u32) & 0xffff_0000 | 0xbeef);

        // `word` wraps the same way, and in-range addresses are unchanged.
        for addr in [0, 4, 16, 20, 28, 4096, top] {
            assert_eq!(mem.word(addr), mem.word(wrapped(addr)), "address {addr:#x}");
            assert_eq!(mem.word(addr), mem.words()[(addr >> 2) as usize % 5]);
        }
    }
}
