//! Pins the compiler's output: one FNV-1a digest of the `Debug` text of
//! every compiled `Program` — the 10 CLI designs and a fixed set of
//! random designs, each at every optimization level, with the expression
//! optimizer on and off, and with coverage on and off — plus the on-disk
//! native artifact name of `rv32i` at O6, which hashes the emitted crate
//! source. A compiler refactor that claims identical output must pass this
//! test without regenerating it.
//!
//! Regenerate with `BLESS=1 cargo test --test program_digests`.

use cuttlesim::{compile, native, CompileOptions, OptLevel};
use koika::check::check;
use koika::design::Design;
use koika::testgen::random_design;
use koika_designs::{msi, rv32, small};
use std::fmt::Write as _;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Random-design seeds pinned alongside the CLI designs.
const SEEDS: std::ops::Range<u64> = 0..40;

/// FNV-1a over formatted text, without materializing the text.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }
}

fn digest(v: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    write!(h, "{v:?}").unwrap();
    h.0
}

fn cli_designs() -> Vec<Design> {
    vec![
        small::collatz(),
        small::fir(),
        small::fft(),
        rv32::rv32i(),
        rv32::rv32e(),
        rv32::rv32i_bp(),
        rv32::rv32i_bypass(),
        rv32::rv32i_x0bug(),
        msi::msi_system(),
        msi::msi_system_buggy(),
    ]
}

fn golden_check(path: &str, actual: &str) {
    let full = format!("{}/tests/golden/{path}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&full, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&full)
        .unwrap_or_else(|e| panic!("missing golden file {full}: {e} (run with BLESS=1)"));
    // Compare line by line so a drift names the program that moved.
    for (a, e) in actual.lines().zip(expected.lines()) {
        assert_eq!(a, e, "{path} drifted; run with BLESS=1 to regenerate");
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "{path} drifted in length; run with BLESS=1 to regenerate"
    );
}

#[test]
fn compiled_programs_match_their_pinned_digests() {
    let designs = cli_designs()
        .into_iter()
        .chain(SEEDS.map(random_design))
        .filter_map(|d| check(&d).ok());
    let mut out = String::new();
    let mut n = 0;
    for td in designs {
        for level in OptLevel::ALL {
            for optimize in [true, false] {
                for coverage in [false, true] {
                    let opts = CompileOptions {
                        level,
                        optimize,
                        coverage,
                        ..CompileOptions::default()
                    };
                    let prog = compile(&td, &opts);
                    writeln!(
                        out,
                        "{} {} opt={} cov={} {:016x}",
                        td.name,
                        level.short_name(),
                        optimize as u8,
                        coverage as u8,
                        digest(&prog)
                    )
                    .unwrap();
                    n += 1;
                }
            }
        }
    }
    assert!(n >= 24 * 40, "too few programs pinned: {n}");

    let rv32i = check(&rv32::rv32i()).unwrap();
    let prog = compile(&rv32i, &CompileOptions::default()).unwrap();
    let path = native::cache_path_for(&prog).unwrap();
    let stem = path.file_stem().unwrap().to_string_lossy();
    writeln!(out, "native rv32i O6 {stem}").unwrap();

    golden_check("program_digests.txt", &out);
}
