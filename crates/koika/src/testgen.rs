//! Random well-typed design generation, for differential testing of
//! simulation backends (and for users practicing the paper's case-study-2
//! methodology of randomized functional verification).
//!
//! Generated designs are *contraption-free by construction*: within a rule,
//! every register is read (into a local) before any register is written, and
//! write values mention only locals and constants. This matters because the
//! optimized backends (Cuttlesim at accumulated-log levels, and the RTL
//! pipeline) intentionally treat same-rule read-after-write "Goldbergian
//! contraptions" (§3.2 of the paper) as conflicts, diverging from the
//! reference semantics — on contraption-free designs all backends agree
//! exactly, which is what the differential tests assert.
//!
//! The module carries its own tiny SplitMix64 generator so that `koika`
//! stays dependency-free.

use crate::ast::*;
use crate::bits::word;
use crate::design::{Design, DesignBuilder};
use crate::tir::TDesign;

/// A structural fingerprint of a checked design: FNV-1a over the register
/// shapes (names and widths) and rule names, ignoring initial values and
/// rule bodies.
///
/// Fuzz triage keys crash buckets on this: two seeds whose designs share
/// the same register/rule *shape* and fail the same way are almost
/// certainly the same root cause, so they dedup into one bucket even
/// though their constants differ.
pub fn shape_fingerprint(td: &TDesign) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    for r in td.regs.iter() {
        eat(r.name.as_bytes());
        eat(&r.width.to_le_bytes());
    }
    eat(&[0xff]);
    for rule in td.rules.iter() {
        eat(rule.name.as_bytes());
    }
    h
}

/// A small, fast, seedable RNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, bound)`. `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// A uniform value in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

const WIDTHS: [u32; 6] = [1, 4, 8, 13, 32, 64];

/// Generates a random well-typed, contraption-free design from a seed.
/// The same seed always produces the same design.
pub fn random_design(seed: u64) -> Design {
    let mut rng = SplitMix64::new(seed);
    let mut b = DesignBuilder::new(format!("rand_{seed}"));

    let nregs = rng.range(2, 5) as usize;
    let mut widths = Vec::with_capacity(nregs);
    for i in 0..nregs {
        let w = WIDTHS[rng.below(WIDTHS.len() as u64) as usize];
        widths.push(w);
        b.reg(format!("r{i}"), w, rng.next_u64() & word::mask(w));
    }
    // Optionally, one small array.
    let arr = if rng.chance(1, 2) {
        let w = WIDTHS[rng.below(4) as usize];
        let len = 1 << rng.range(1, 3);
        b.array("arr", w, len, rng.next_u64() & word::mask(w));
        Some((w, len))
    } else {
        None
    };

    let nrules = rng.range(1, 4) as usize;
    let mut names = Vec::new();
    for rule_i in 0..nrules {
        let mut body = Vec::new();
        let mut vars: Vec<(String, u32)> = Vec::new();
        // Gather phase.
        for (i, w) in widths.iter().enumerate() {
            if rng.chance(4, 5) {
                let name = format!("g{i}");
                let e = if rng.chance(1, 2) {
                    rd0(format!("r{i}"))
                } else {
                    rd1(format!("r{i}"))
                };
                body.push(let_(&name, e));
                vars.push((name, *w));
            }
        }
        if let Some((w, len)) = arr {
            if rng.chance(1, 2) {
                let idx_w = len.trailing_zeros().max(1);
                let idx = k(idx_w, rng.below(len as u64));
                let e = if rng.chance(1, 2) {
                    rd0a("arr", idx)
                } else {
                    rd1a("arr", idx)
                };
                body.push(let_("ga", e));
                vars.push(("ga".to_string(), w));
            }
        }
        // Optional guard.
        if !vars.is_empty() && rng.chance(1, 2) {
            let (v, w) = vars[rng.below(vars.len() as u64) as usize].clone();
            let bit = rng.below(w as u64) as u32;
            body.push(guard(var(v).bit(bit).eq(k(1, rng.below(2)))));
        }
        // Write phase.
        let nwrites = rng.range(1, 3) as usize;
        for _ in 0..nwrites {
            let (target, w): (String, u32) = match arr {
                Some((aw, _)) if rng.chance(1, 4) => ("arr".to_string(), aw),
                _ => {
                    let t = rng.below(nregs as u64) as usize;
                    (format!("r{t}"), widths[t])
                }
            };
            let e = random_expr(&mut rng, &vars, w, 3);
            let act = if target == "arr" {
                let (_, len) = arr.expect("checked");
                let idx_w = len.trailing_zeros().max(1);
                let idx = k(idx_w, rng.below(len as u64));
                if rng.chance(7, 10) {
                    wr0a("arr", idx, e)
                } else {
                    wr1a("arr", idx, e)
                }
            } else if rng.chance(7, 10) {
                wr0(&target, e)
            } else {
                wr1(&target, e)
            };
            if rng.chance(3, 10) && !vars.is_empty() {
                let (v, vw) = vars[rng.below(vars.len() as u64) as usize].clone();
                let bit = rng.below(vw as u64) as u32;
                body.push(when(var(v).bit(bit).eq(k(1, 1)), vec![act]));
            } else {
                body.push(act);
            }
        }
        let name = format!("rule{rule_i}");
        b.rule(&name, body);
        names.push(name);
    }
    b.schedule(names);
    b.build()
}

/// Generates a random expression of exactly `width` bits over `vars`
/// (pairs of variable name and width).
pub fn random_expr(rng: &mut SplitMix64, vars: &[(String, u32)], width: u32, depth: u32) -> Expr {
    let same_width: Vec<&(String, u32)> = vars.iter().filter(|(_, w)| *w == width).collect();
    if depth == 0 || (vars.is_empty() && rng.chance(1, 2)) {
        return if !same_width.is_empty() && rng.chance(7, 10) {
            var(&same_width[rng.below(same_width.len() as u64) as usize].0)
        } else {
            k(width, rng.next_u64() & word::mask(width))
        };
    }
    match rng.below(9) {
        0 => random_expr(rng, vars, width, depth - 1).add(random_expr(rng, vars, width, depth - 1)),
        1 => random_expr(rng, vars, width, depth - 1).sub(random_expr(rng, vars, width, depth - 1)),
        2 => random_expr(rng, vars, width, depth - 1).xor(random_expr(rng, vars, width, depth - 1)),
        3 => random_expr(rng, vars, width, depth - 1).and(random_expr(rng, vars, width, depth - 1)),
        4 => {
            let w = WIDTHS[rng.below(WIDTHS.len() as u64) as usize];
            random_expr(rng, vars, w, depth - 1)
                .ult(random_expr(rng, vars, w, depth - 1))
                .zext(width)
        }
        5 => {
            let from = (width + rng.below(8) as u32).min(64);
            random_expr(rng, vars, from, depth - 1).slice(rng.below(3) as u32, width)
        }
        6 => {
            let sh = rng.below(width.min(8) as u64);
            random_expr(rng, vars, width, depth - 1).shl(k(8, sh))
        }
        // Concatenation, biased toward width-boundary splits (1 / w-1 and
        // w-1 / 1). Extreme low-half widths drive the lowered ConcatShift
        // shift counts to the edges of the 64-bit word, where masking and
        // shift-overflow bugs hide; an unbiased split almost never lands
        // there for the wide register widths.
        7 if width >= 2 => {
            let lw = match rng.below(4) {
                0 => 1,
                1 => width - 1,
                _ => rng.range(1, (width - 1) as u64) as u32,
            };
            let hw = width - lw;
            random_expr(rng, vars, hw, depth - 1).concat(random_expr(rng, vars, lw, depth - 1))
        }
        _ => select(
            random_expr(rng, &[], 1, 0),
            random_expr(rng, &[], width, 1),
            random_expr(rng, &[], width, 1),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;

    #[test]
    fn generated_designs_typecheck() {
        for seed in 0..200 {
            let d = random_design(seed);
            check(&d).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(random_design(42), random_design(42));
    }

    #[test]
    fn generated_designs_are_contraption_free() {
        use crate::analysis::{analyze, ScheduleAssumption};
        for seed in 0..200 {
            let td = check(&random_design(seed)).unwrap();
            let a = analyze(&td, ScheduleAssumption::Declared);
            assert!(
                a.warnings.is_empty(),
                "seed {seed} produced a contraption: {:?}",
                a.warnings
            );
        }
    }

    #[test]
    fn splitmix_is_uniformish() {
        let mut rng = SplitMix64::new(7);
        let mut buckets = [0u32; 8];
        for _ in 0..8000 {
            buckets[rng.below(8) as usize] += 1;
        }
        for b in buckets {
            assert!((800..1200).contains(&b), "skewed bucket: {b}");
        }
    }
}
