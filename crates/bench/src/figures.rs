//! The paper's evaluation as one matrix of timing cells, measured once per
//! repeat, with every table a view over it.
//!
//! A `Cell` is one (design, backend, lanes) triple. `plan` collects the
//! cells the requested [`Section`]s read, each once: Fig 1, Fig 2 and Fig 3
//! all read O6 `match` and `rtl-koika`, and Fig 3 and the batch section
//! read the same scalar `tac` and `native` cells. [`Record::collect`] times
//! every cell once per repeat (`REPEATS` repeats, one under `--quick`)
//! and keeps the median, min and max of each; the views print medians and
//! ratios of medians. Table 1 and CS4 are count sections: they time
//! nothing, and land in the same record.

use crate::{all_benches, record_fingerprint, run_bench, run_bench_batched, scale, scaled};
use crate::{BackendKind, Bench, PRIMES_LIMIT};
use cuttlesim::{codegen_cpp, toolchain_available, CompileOptions, CoverageReport, Dispatch};
use cuttlesim::{OptLevel, Sim};
use koika::check::check;
use koika::device::{RegAccess, SimBackend};
use koika_designs::harness::{golden_run, MEM_WORDS};
use koika_designs::memdev::MagicMemory;
use koika_designs::rv32;
use koika_riscv::programs;
use koika_rtl::{compile as rtl_compile, verilog, Scheme};
use std::iter::once;

/// Timed repeats of every cell in a full run (`--quick` runs one).
const REPEATS: usize = 5;

/// Cycle budget of every cell under `--quick`.
const QUICK_CYCLES: u64 = 5_000;

/// The designs of the batch section, and its lock-step widths.
const BATCH_DESIGNS: [&str; 3] = ["collatz", "fir", "rv32i-primes"];
const BATCH_LANES: [usize; 2] = [16, 32];

/// Iterations of the CS4 branchy kernel at scale 1.0 (500 under `--quick`).
const CS4_ITERS: u32 = 20_000;

const O6_MATCH: BackendKind = BackendKind::Vm(OptLevel::DesignSpecific, Dispatch::Match);
const O6_NATIVE: BackendKind = BackendKind::Vm(OptLevel::DesignSpecific, Dispatch::Native);
const RTL_KOIKA: BackendKind = BackendKind::Rtl(Scheme::Dynamic);
const RTL_BSC: BackendKind = BackendKind::Rtl(Scheme::Static);

fn o6(dispatch: Dispatch) -> BackendKind {
    BackendKind::Vm(OptLevel::max(), dispatch)
}

fn match_at(level: OptLevel) -> BackendKind {
    BackendKind::Vm(level, Dispatch::Match)
}

/// One table of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Table 1: source, model and netlist sizes, and workload lengths.
    Table1,
    /// Figure 1: O6 `match` (and `native`) against `rtl-koika`.
    Fig1,
    /// Figure 2: Fig 1 plus `rtl-bluespec-style`.
    Fig2,
    /// Figure 3: `match`, `tac` and `native` against `rtl-koika` and `match`.
    Fig3,
    /// The O0–O6 ladder: the interpreter plus `match` at every VM level.
    Ablation,
    /// Case study 4: coverage counts on the baseline and predicted cores.
    Cs4,
    /// `tac` lock-step at 16 and 32 identical lanes against the best
    /// scalar cell.
    Batch,
}

impl Section {
    /// Every section, in print order.
    pub const ALL: [Section; 7] = [
        Section::Table1,
        Section::Fig1,
        Section::Fig2,
        Section::Fig3,
        Section::Ablation,
        Section::Cs4,
        Section::Batch,
    ];

    /// The command-line spelling: the variant name in lower case.
    fn name(self) -> String {
        format!("{self:?}").to_lowercase()
    }

    /// Parses the command-line spelling.
    pub fn from_name(name: &str) -> Option<Section> {
        Section::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The (backend, lanes) cells this section reads on `design`.
    fn cells(self, design: &str) -> Vec<(BackendKind, usize)> {
        let backends = match self {
            Section::Table1 | Section::Cs4 => vec![],
            Section::Fig1 => vec![O6_MATCH, RTL_KOIKA, O6_NATIVE],
            Section::Fig2 => vec![O6_MATCH, RTL_KOIKA, RTL_BSC, O6_NATIVE],
            Section::Fig3 => once(RTL_KOIKA).chain(Dispatch::ALL.map(o6)).collect(),
            Section::Ablation => once(BackendKind::Interp)
                .chain(OptLevel::ALL.map(match_at))
                .collect(),
            Section::Batch if BATCH_DESIGNS.contains(&design) => {
                let scalar = Dispatch::ALL.map(|d| (o6(d), 1));
                let lanes = BATCH_LANES.map(|lanes| (o6(Dispatch::Tac), lanes));
                return scalar.into_iter().chain(lanes).collect();
            }
            Section::Batch => vec![],
        };
        backends.into_iter().map(|b| (b, 1)).collect()
    }
}

/// One timing cell of the matrix: a design on a backend, scalar
/// (`lanes == 1`) or as identical `tac` lock-step lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    design: &'static str,
    backend: BackendKind,
    lanes: usize,
}

/// The cells `sections` read, each once, in design order. Native cells
/// are left out when `native` is false (no rustc toolchain).
fn plan(sections: &[Section], native: bool) -> Vec<Cell> {
    let mut cells = Vec::new();
    for bench in all_benches() {
        for section in sections {
            for (backend, lanes) in section.cells(bench.name) {
                let design = bench.name;
                let cell = Cell {
                    design,
                    backend,
                    lanes,
                };
                let skipped = !native && matches!(backend, BackendKind::Vm(_, Dispatch::Native));
                if !skipped && !cells.contains(&cell) {
                    cells.push(cell);
                }
            }
        }
    }
    cells
}

/// Median, min and max of a set of samples (the median of an even count
/// is the mean of the middle two).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    /// Summarizes `samples`; panics if there are none.
    fn of(samples: impl IntoIterator<Item = f64>) -> Spread {
        let mut v: Vec<f64> = samples.into_iter().collect();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = (v[(n - 1) / 2] + v[n / 2]) / 2.0;
        Spread {
            median,
            min: v[0],
            max: v[n - 1],
        }
    }

    fn json(&self, decimals: usize) -> String {
        let (m, lo, hi) = (self.median, self.min, self.max);
        format!(
            "{{\"median\": {m:.decimals$}, \"min\": {lo:.decimals$}, \"max\": {hi:.decimals$}}}"
        )
    }
}

/// One measured cell: cycles per run, and the spreads of wall-clock
/// milliseconds and of cycles per second over the repeats. A batch cell
/// counts instance-cycles (`cycles * lanes / wall`), so its rate compares
/// directly with a scalar cell's.
#[derive(Debug, Clone, Copy)]
struct Timing {
    cell: Cell,
    cycles: u64,
    wall_ms: Spread,
    cps: Spread,
}

/// A table: column names (the JSON keys of a count section) and rows.
type Table = (Vec<String>, Vec<Vec<String>>);

fn table(header: &[&str], rows: Vec<Vec<String>>) -> Table {
    (header.iter().map(|h| h.to_string()).collect(), rows)
}

/// Table 1: source, model and netlist sizes, and the standard workload's
/// length.
fn table1() -> Table {
    let benches = all_benches();
    let rows = benches.iter().map(|bench| {
        let design = (bench.design)();
        let td = check(&design).expect("benchmark designs typecheck");
        let model = rtl_compile(&td, Scheme::Dynamic).expect("benchmark designs compile to RTL");
        let sloc = [design.sloc(), codegen_cpp::sloc(&td), verilog::sloc(&model)];
        let sizes = sloc
            .into_iter()
            .chain([td.num_regs(), td.rules.len(), model.netlist.len()]);
        let cycles = workload_cycles(bench).to_string();
        let cells = sizes.map(|n| n.to_string()).chain([cycles]);
        once(bench.name.to_string()).chain(cells).collect()
    });
    let sizes = [
        "koika_sloc",
        "cuttlesim_sloc",
        "verilog_sloc",
        "regs",
        "rules",
        "gates",
    ];
    let header: Vec<&str> = once("design").chain(sizes).chain(["cycles"]).collect();
    table(&header, rows.collect())
}

/// Cycles until every core's `retired` counter reaches the golden model's
/// count for primes; the default budget on designs without one.
fn workload_cycles(bench: &Bench) -> u64 {
    let td = check(&(bench.design)()).expect("benchmark designs typecheck");
    let retired = td.syms.iter().filter(|s| s.name.ends_with("retired"));
    let counters: Vec<_> = retired.map(|s| s.base).collect();
    if counters.is_empty() {
        return bench.default_cycles;
    }
    let target = golden_run(&programs::primes(PRIMES_LIMIT), 200_000_000).retired;
    let mut devices = (bench.devices)(&td);
    let mut sim = Sim::compile(&td).expect("benchmark designs fit the fast path");
    let mut cycles = 0u64;
    while counters.iter().any(|&r| sim.get64(r) < target) {
        assert!(cycles < 500_000_000, "{} did not finish", bench.name);
        for d in devices.iter_mut() {
            d.tick(cycles, sim.as_reg_access());
        }
        sim.cycle();
        cycles += 1;
    }
    cycles
}

/// Case study 4: Gcov-style coverage counts on the baseline and
/// branch-predicted cores running the branchy kernel for `iters`
/// iterations. Mispredictions count executions of the redirecting `pc`
/// writes, stalls the decode aborts on the scoreboard.
fn cs4(iters: u32) -> Table {
    let program = programs::branchy(iters);
    let golden = golden_run(&program, 2_000_000_000);
    let cores = [("baseline", rv32::rv32i()), ("bp", rv32::rv32i_bp())];
    let rows = cores.into_iter().map(|(name, design)| {
        let td = check(&design).expect("cores typecheck");
        let options = CompileOptions {
            coverage: true,
            ..CompileOptions::default()
        };
        let mut sim = Sim::compile_with(&td, &options).expect("cores fit the fast path");
        let mut mem = MagicMemory::new(&td, &["imem", "dmem"], &program, MEM_WORDS);
        let retired = td.reg_id("retired");
        let mut cycles = 0u64;
        while sim.get64(retired) < golden.retired {
            mem.serve(sim.as_reg_access());
            sim.cycle();
            cycles += 1;
        }
        let report = CoverageReport::collect(&sim);
        // Count executions of the statements *inside* the labeled blocks.
        let redirects = report
            .iter()
            .filter(|(_, _, line)| line.contains("WRITE0(pc,"));
        let mispredicts: u64 = redirects.map(|(count, _, _)| count).sum();
        let stalls = report.count_matching("decode", "FAIL()");
        let ipc = format!("{:.3}", golden.retired as f64 / cycles as f64);
        let counts = [cycles, mispredicts, stalls].map(|n| n.to_string());
        once(name.to_string()).chain(counts).chain([ipc]).collect()
    });
    let header = ["design", "cycles", "mispredicts", "sb_stall_aborts", "ipc"];
    table(&header, rows.collect())
}

/// A column of a one-row-per-design view.
#[derive(Debug, Clone, Copy)]
enum Col {
    /// A scalar cell's median wall-clock seconds.
    Secs(BackendKind),
    /// A scalar cell's median cycles/s.
    Rate(BackendKind),
    /// The ratio of two scalar cells' median cycles/s.
    Ratio(BackendKind, BackendKind),
}

fn ratio(a: f64, b: f64) -> String {
    format!("{:.2}x", a / b)
}

/// Everything one run of the figures program measured and counted.
#[derive(Debug)]
pub struct Record {
    sections: Vec<Section>,
    quick: bool,
    repeats: usize,
    timings: Vec<Timing>,
    table1: Option<Table>,
    /// CS4's kernel iterations and counts.
    cs4: Option<(u32, Table)>,
}

impl Record {
    /// Measures the cells of `sections`, each once per repeat, and computes
    /// their counts. Each repeat walks the whole plan, so a slow phase of
    /// the host lands on every cell alike. Without a rustc toolchain the
    /// native cells are skipped with a `SKIP` line on stderr.
    pub fn collect(sections: &[Section], quick: bool) -> Record {
        let sections: Vec<_> = Section::ALL
            .into_iter()
            .filter(|s| sections.contains(s))
            .collect();
        let cells = plan(&sections, toolchain_available());
        if cells.len() < plan(&sections, true).len() {
            eprintln!("SKIP native cells: no rustc toolchain (install rustc or set KOIKA_RUSTC)");
        }
        let repeats = if quick { 1 } else { REPEATS };
        let benches = all_benches();
        let mut runs = vec![Vec::new(); cells.len()];
        for repeat in 1..=repeats {
            eprintln!("repeat {repeat}/{repeats}: {} cells", cells.len());
            for (cell, runs) in cells.iter().zip(&mut runs) {
                let bench = benches
                    .iter()
                    .find(|b| b.name == cell.design)
                    .expect("cells name Table-1 designs");
                // Half the default budget; 1/32 on the slow O0 interpreter.
                let cycles = match (quick, cell.backend) {
                    (true, _) => QUICK_CYCLES,
                    (false, BackendKind::Interp) => scaled(bench.default_cycles / 32),
                    (false, _) => scaled(bench.default_cycles / 2),
                };
                runs.push(match cell.lanes {
                    1 => run_bench(bench, cell.backend, cycles),
                    lanes => run_bench_batched(bench, OptLevel::max(), cycles, lanes),
                });
            }
        }
        let timings = cells.iter().zip(runs).map(|(&cell, runs)| Timing {
            cell,
            cycles: runs[0].cycles,
            wall_ms: Spread::of(runs.iter().map(|r| r.secs * 1e3)),
            cps: Spread::of(runs.iter().map(|r| r.cps() * cell.lanes as f64)),
        });
        let scaled_iters = ((f64::from(CS4_ITERS) * scale()) as u32).max(100);
        let cs4_iters = if quick { 500 } else { scaled_iters };
        Record {
            quick,
            repeats,
            timings: timings.collect(),
            table1: sections.contains(&Section::Table1).then(table1),
            cs4: sections
                .contains(&Section::Cs4)
                .then(|| (cs4_iters, cs4(cs4_iters))),
            sections,
        }
    }

    fn get(&self, design: &str, backend: BackendKind, lanes: usize) -> Option<&Timing> {
        let key = (design, backend, lanes);
        self.timings
            .iter()
            .find(|t| (t.cell.design, t.cell.backend, t.cell.lanes) == key)
    }

    /// Median cycles/s of a scalar cell.
    fn cps(&self, design: &str, backend: BackendKind) -> Option<f64> {
        self.get(design, backend, 1).map(|t| t.cps.median)
    }

    /// The designs with at least one timing cell, in Table-1 order.
    fn designs(&self) -> Vec<&'static str> {
        let mut designs: Vec<_> = self.timings.iter().map(|t| t.cell.design).collect();
        designs.dedup();
        designs
    }

    /// One row per design: its name, then one cell per column.
    fn per_design(&self, cols: &[(&str, Col)]) -> Table {
        let rows = self.designs().into_iter().map(|d| {
            let cell = |col: Col| match col {
                Col::Secs(b) => self
                    .get(d, b, 1)
                    .map(|t| format!("{:.3}", t.wall_ms.median / 1e3)),
                Col::Rate(b) => self.cps(d, b).map(|cps| format!("{cps:.0}")),
                Col::Ratio(a, b) => Some(ratio(self.cps(d, a)?, self.cps(d, b)?)),
            };
            let cells = cols
                .iter()
                .map(|&(_, col)| cell(col).unwrap_or_else(|| "-".into()));
            once(d.to_string()).chain(cells).collect()
        });
        let header: Vec<&str> = once("design").chain(cols.iter().map(|(h, _)| *h)).collect();
        table(&header, rows.collect())
    }

    /// One row per timed cell of `section`, with its speedup over each
    /// reference: a scalar cell of the same design, or with `None` the
    /// fastest scalar cell.
    fn per_cell(&self, section: Section, refs: &[(&str, Option<BackendKind>)]) -> Table {
        let mut rows = Vec::new();
        for d in self.designs() {
            let cells = section.cells(d).into_iter();
            let timed: Vec<&Timing> = cells.filter_map(|(b, l)| self.get(d, b, l)).collect();
            let scalar = timed.iter().filter(|t| t.cell.lanes == 1);
            let best = scalar.map(|t| t.cps.median).reduce(f64::max);
            for t in &timed {
                let (c, cps) = (t.cell, t.cps.median);
                let base = refs.iter().map(|(_, r)| r.map_or(best, |b| self.cps(d, b)));
                let ratios = base.map(|b| b.map_or("-".to_string(), |b| ratio(cps, b)));
                let wall = format!("{:.1}", t.wall_ms.median);
                let cells = [
                    c.backend.label(),
                    c.lanes.to_string(),
                    t.cycles.to_string(),
                    wall,
                ];
                let cells = cells.into_iter().chain([format!("{cps:.0}")]).chain(ratios);
                rows.push(once(d.to_string()).chain(cells).collect());
            }
        }
        let header = [
            "design", "backend", "lanes", "cycles", "wall ms", "cycles/s",
        ];
        let header: Vec<&str> = header
            .into_iter()
            .chain(refs.iter().map(|(h, _)| *h))
            .collect();
        table(&header, rows)
    }

    /// One section's title and table.
    fn view(&self, section: Section) -> (String, Table) {
        let of = format!("(median of {})", self.repeats);
        let (m, r, n) = (O6_MATCH, RTL_KOIKA, O6_NATIVE);
        match section {
            Section::Table1 => {
                let title = "Table 1: benchmarks (cf. paper Table 1)".to_string();
                (title, self.table1.clone().unwrap_or_default())
            }
            Section::Fig1 => (
                format!("Figure 1: RTL (verilator stand-in) and Cuttlesim models {of}"),
                self.per_design(&[
                    ("cuttlesim(s)", Col::Secs(m)),
                    ("cuttlesim(c/s)", Col::Rate(m)),
                    ("rtl-koika(s)", Col::Secs(r)),
                    ("rtl-koika(c/s)", Col::Rate(r)),
                    ("speedup", Col::Ratio(m, r)),
                    ("native(c/s)", Col::Rate(n)),
                    ("native", Col::Ratio(n, r)),
                ]),
            ),
            Section::Fig2 => (
                format!("Figure 2: both RTL schemes vs Cuttlesim {of}"),
                self.per_design(&[
                    ("cuttlesim(c/s)", Col::Rate(m)),
                    ("rtl-koika(c/s)", Col::Rate(r)),
                    ("rtl-bsc-style(c/s)", Col::Rate(RTL_BSC)),
                    ("native(c/s)", Col::Rate(n)),
                ]),
            ),
            Section::Fig3 => (
                format!("Figure 3: dispatch (compiler stand-in) sensitivity at O6 {of}"),
                self.per_cell(section, &[("vs match", Some(m)), ("vs rtl", Some(r))]),
            ),
            Section::Ablation => {
                let o0 = ("O0", Col::Rate(BackendKind::Interp));
                let ladder = OptLevel::ALL.map(|l| (l.short_name(), Col::Rate(match_at(l))));
                let cols: Vec<_> = once(o0).chain(ladder).collect();
                let title = format!("Ablation: optimization-ladder cycles/second {of}");
                (title, self.per_design(&cols))
            }
            Section::Cs4 => {
                let (iters, counts) = self.cs4.clone().unwrap_or_default();
                let title = format!(
                    "Case study 4: branch-prediction exploration via coverage (branchy \
                     x{iters})\n(per-statement coverage counts on the running model: no \
                     hardware counters were added, exactly as in the paper)"
                );
                (title, counts)
            }
            Section::Batch => (
                format!("Batch: tac lanes (instance-cycles/s) vs the best scalar cell {of}"),
                self.per_cell(section, &[("vs best", None)]),
            ),
        }
    }

    /// Every requested section as printed tables.
    pub fn text(&self) -> String {
        let mut s = String::new();
        for &section in &self.sections {
            let (title, (header, rows)) = self.view(section);
            let width = |c: usize| rows.iter().chain([&header]).map(|r| r[c].len()).max();
            let widths: Vec<usize> = (0..header.len()).filter_map(width).collect();
            s += &format!("{title}\n");
            for row in once(&header).chain(&rows) {
                for (c, (cell, w)) in row.iter().zip(&widths).enumerate() {
                    s += &if c == 0 {
                        format!("{cell:<w$}")
                    } else {
                        format!("  {cell:>w$}")
                    };
                }
                s.push('\n');
            }
            s.push('\n');
        }
        s
    }

    /// The machine-readable record: a provenance header, one row per
    /// timing cell (median, min and max of `wall_ms` and `cycles_per_sec`
    /// over the repeats), and the Table 1 and CS4 counts.
    pub fn json(&self) -> String {
        // One object per row; the first column (the design) is a string.
        let objects = |(keys, rows): &Table, indent: &str| {
            let object = |row: &Vec<String>| {
                let members = keys.iter().zip(row).enumerate().map(|(i, (k, v))| match i {
                    0 => format!("\"{k}\": \"{v}\""),
                    _ => format!("\"{k}\": {v}"),
                });
                format!("{indent}{{{}}}", members.collect::<Vec<_>>().join(", "))
            };
            rows.iter().map(object).collect::<Vec<_>>().join(",\n")
        };
        let rows = self.timings.iter().map(|t| {
            let (c, wall, cps) = (t.cell, t.wall_ms.json(3), t.cps.json(1));
            let (design, backend) = (c.design, c.backend.label());
            format!(
                "    {{\"design\": \"{design}\", \"backend\": \"{backend}\", \"lanes\": {}, \
                 \"cycles\": {}, \"wall_ms\": {wall}, \"cycles_per_sec\": {cps}}}",
                c.lanes, t.cycles
            )
        });
        let sections = self.sections.iter().map(|s| format!("\"{}\"", s.name()));
        let table1 = self
            .table1
            .as_ref()
            .map_or(String::new(), |t| objects(t, "    "));
        let cs4 = self.cs4.as_ref().map_or("null".to_string(), |(iters, t)| {
            let rows = objects(t, "      ");
            format!("{{\n    \"iters\": {iters},\n    \"rows\": [\n{rows}\n    ]\n  }}")
        });
        format!(
            "{{\n  \"bench\": \"figures\",\n  {},\n  \"scale\": {:?}, \"quick\": {}, \
             \"repeats\": {},\n  \"sections\": [{}],\n  \"rows\": [\n{}\n  ],\n  \
             \"table1\": [\n{table1}\n  ],\n  \"cs4\": {cs4}\n}}\n",
            record_fingerprint(),
            scale(),
            self.quick,
            self.repeats,
            sections.collect::<Vec<_>>().join(", "),
            rows.collect::<Vec<_>>().join(",\n"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_plan_measures_each_cell_once() {
        let figs = [Section::Fig1, Section::Fig2, Section::Fig3];
        let cells = plan(&figs, true);
        for bench in all_benches() {
            for shared in [O6_MATCH, RTL_KOIKA, O6_NATIVE] {
                let on = |c: &&Cell| c.design == bench.name && c.backend == shared;
                assert_eq!(cells.iter().filter(on).count(), 1, "{}", bench.name);
            }
        }
        // Fig 1, 2 and 3 read 3 + 4 + 4 cells per design; shared, 5.
        assert_eq!(cells.len(), 5 * 7);
        assert_eq!(plan(&figs, false).len(), 4 * 7);
        // All sections: 7 designs x (interp, O1..O6 match, tac, native, two
        // RTL schemes), plus two tac batch widths on three designs.
        let all = plan(&Section::ALL, true);
        for (i, cell) in all.iter().enumerate() {
            assert!(!all[..i].contains(cell), "{cell:?} is planned twice");
            assert!(
                cell.lanes == 1 || cell.backend == o6(Dispatch::Tac),
                "{cell:?}"
            );
        }
        assert_eq!(all.len(), 7 * 11 + 3 * 2);
    }

    #[test]
    fn spread_takes_median_min_and_max() {
        let spread = |median, min, max| Spread { median, min, max };
        assert_eq!(Spread::of([3.0, 1.0, 2.0]), spread(2.0, 1.0, 3.0));
        assert_eq!(Spread::of([4.0, 1.0, 3.0, 2.0]), spread(2.5, 1.0, 4.0));
        assert_eq!(Spread::of([7.0]), spread(7.0, 7.0, 7.0));
    }
}
