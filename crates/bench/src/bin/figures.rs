//! Regenerates the paper's evaluation: Table 1, Figures 1–3, the
//! optimization-ladder ablation, the case-study-4 counts and the batch
//! section, from one timing matrix measured once per repeat (see
//! `cuttlesim_bench::figures`).
//!
//! ```text
//! Usage: figures [SECTION...] [--quick] [--out FILE]
//!   SECTION    table1 | fig1 | fig2 | fig3 | ablation | cs4 | batch
//!              (default: all of them)
//!   --quick    tiny budgets and one repeat (CI smoke: validates the
//!              record's shape and its within-record ratios)
//!   --out FILE also write the record as JSON to FILE
//! ```
//!
//! Budgets, CS4 iterations included, honor `CUTTLE_BENCH_SCALE`. The
//! native cells need a rustc at run time; without one they are skipped
//! with a `SKIP` line on stderr.

use cuttlesim_bench::figures::{Record, Section};
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}\nusage: figures [table1|fig1|fig2|fig3|ablation|cs4|batch ...] [--quick] [--out FILE]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut sections = Vec::new();
    let mut quick = false;
    let mut out = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match argv.next() {
                Some(v) => out = Some(v),
                None => return usage("missing value for --out"),
            },
            name => match Section::from_name(name) {
                Some(section) => sections.push(section),
                None => return usage(&format!("unknown section or option {name}")),
            },
        }
    }
    if sections.is_empty() {
        sections = Section::ALL.to_vec();
    }
    let record = Record::collect(&sections, quick);
    print!("{}", record.text());
    if let Some(out) = out {
        if let Err(e) = std::fs::write(&out, record.json()) {
            eprintln!("failed to write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {out}");
    }
    ExitCode::SUCCESS
}
