//! Word-parallel kernels for the batched lock-step engine.
//!
//! The batch engine ([`crate::batch`]) holds state as structure-of-arrays
//! stripes (`reg * lanes + lane`). Everything an instruction does to a
//! stripe is data-parallel across lanes, so the kernels here process lanes
//! in fixed-width chunks the optimizer turns into vector code:
//!
//! * **wide data** (`u64` per lane) runs through `[u64; 4]`-shaped chunk
//!   loops over exact slices — no bounds checks inside the loop, no
//!   per-lane branches, so LLVM autovectorizes every kernel;
//! * **narrow bookkeeping** (the 4-bit read-write sets, one `u8` per lane)
//!   is *bit-sliced*: eight lanes share one `u64` word, and conflict gates
//!   are evaluated with SWAR arithmetic — a 64-lane batch answers a
//!   "which lanes pass this check?" query in eight word operations;
//! * **per-lane control divergence** is merged branchlessly: selects and
//!   commit/rollback/end-of-cycle merges expand a condition into an
//!   all-ones/all-zeros lane mask and blend with AND/OR, so the all-agree
//!   fast path never branches per lane.
//!
//! Every kernel is semantically identical to the scalar loop it replaces;
//! the boundary suite (`tests/boundary.rs`) pins the shift/mask edges
//! (widths 1/63/64, shift counts at and past the operand width) across
//! lane counts 1/7/32/64 so non-multiple-of-chunk tails are exercised.

use crate::insn::FusedBin;

/// Lane chunk width for wide (`u64`) kernels: one 256-bit vector register.
pub const CHUNK: usize = 4;

/// Lanes per word for bit-sliced (`u8` read-write-set) kernels.
pub const BYTE_LANES: usize = 8;

const LO_BYTES: u64 = 0x0101_0101_0101_0101;

/// All-ones when `c` is true, all-zeros otherwise — the branchless lane
/// mask every merge kernel blends with.
#[inline(always)]
pub fn lane_mask(c: bool) -> u64 {
    0u64.wrapping_sub(c as u64)
}

/// Branchless `if b >= 64 { 0 } else { (a << b) & mask }`.
#[inline(always)]
pub fn shl64(a: u64, b: u64, mask: u64) -> u64 {
    (a << (b & 63)) & mask & lane_mask(b < 64)
}

/// Branchless `if b >= 64 { 0 } else { a >> b }`.
#[inline(always)]
pub fn shr64(a: u64, b: u64) -> u64 {
    (a >> (b & 63)) & lane_mask(b < 64)
}

/// In-place unary map over a stripe: `dst[l] = f(dst[l])`.
#[inline(always)]
pub fn map1(dst: &mut [u64], f: impl Fn(u64) -> u64 + Copy) {
    let mut chunks = dst.chunks_exact_mut(CHUNK);
    for c in &mut chunks {
        for x in c {
            *x = f(*x);
        }
    }
    for x in chunks.into_remainder() {
        *x = f(*x);
    }
}

/// Unary map into a separate stripe: `dst[l] = f(src[l])`.
#[inline(always)]
pub fn map1_to(dst: &mut [u64], src: &[u64], f: impl Fn(u64) -> u64 + Copy) {
    assert_eq!(dst.len(), src.len());
    let mut d = dst.chunks_exact_mut(CHUNK);
    let mut s = src.chunks_exact(CHUNK);
    for (dc, sc) in (&mut d).zip(&mut s) {
        for i in 0..CHUNK {
            dc[i] = f(sc[i]);
        }
    }
    for (x, &y) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *x = f(y);
    }
}

/// In-place binary map: `dst[l] = f(dst[l], src[l])`.
#[inline(always)]
pub fn zip2(dst: &mut [u64], src: &[u64], f: impl Fn(u64, u64) -> u64 + Copy) {
    assert_eq!(dst.len(), src.len());
    let mut d = dst.chunks_exact_mut(CHUNK);
    let mut s = src.chunks_exact(CHUNK);
    for (dc, sc) in (&mut d).zip(&mut s) {
        for i in 0..CHUNK {
            dc[i] = f(dc[i], sc[i]);
        }
    }
    for (x, &y) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *x = f(*x, y);
    }
}

/// Binary map into a separate stripe: `dst[l] = f(a[l], b[l])`.
#[inline(always)]
pub fn zip2_to(dst: &mut [u64], a: &[u64], b: &[u64], f: impl Fn(u64, u64) -> u64 + Copy) {
    assert_eq!(dst.len(), a.len());
    assert_eq!(dst.len(), b.len());
    let mut d = dst.chunks_exact_mut(CHUNK);
    let mut ac = a.chunks_exact(CHUNK);
    let mut bc = b.chunks_exact(CHUNK);
    for ((dc, av), bv) in (&mut d).zip(&mut ac).zip(&mut bc) {
        for i in 0..CHUNK {
            dc[i] = f(av[i], bv[i]);
        }
    }
    for ((x, &y), &z) in d
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
    {
        *x = f(y, z);
    }
}

/// Branchless select: `c[l] = if c[l] != 0 { t[l] } else { f[l] }`.
#[inline(always)]
pub fn select(c: &mut [u64], t: &[u64], f: &[u64]) {
    assert_eq!(c.len(), t.len());
    assert_eq!(c.len(), f.len());
    let mut cc = c.chunks_exact_mut(CHUNK);
    let mut tc = t.chunks_exact(CHUNK);
    let mut fc = f.chunks_exact(CHUNK);
    for ((cv, tv), fv) in (&mut cc).zip(&mut tc).zip(&mut fc) {
        for i in 0..CHUNK {
            let m = lane_mask(cv[i] != 0);
            cv[i] = (tv[i] & m) | (fv[i] & !m);
        }
    }
    for ((x, &y), &z) in cc
        .into_remainder()
        .iter_mut()
        .zip(tc.remainder())
        .zip(fc.remainder())
    {
        let m = lane_mask(*x != 0);
        *x = (y & m) | (z & !m);
    }
}

/// Number of zero lanes in a stripe among the lanes whose `active` byte is
/// set (`0xFF`; lanes dropped from lock-step are `0`), branchless and
/// chunked.
#[inline(always)]
pub fn count_zero_active(v: &[u64], active: &[u8]) -> usize {
    assert_eq!(v.len(), active.len());
    let mut n = 0usize;
    let mut vc = v.chunks_exact(CHUNK);
    let mut ac = active.chunks_exact(CHUNK);
    for (c, m) in (&mut vc).zip(&mut ac) {
        for i in 0..CHUNK {
            n += (c[i] == 0) as usize & (m[i] & 1) as usize;
        }
    }
    for (&x, &m) in vc.remainder().iter().zip(ac.remainder()) {
        n += (x == 0) as usize & (m & 1) as usize;
    }
    n
}

/// Number of active lanes whose read-write-set byte has none of `bits`
/// set — the conflict gate, bit-sliced eight lanes per word.
///
/// Read-write-set bytes only use the low four bits (`R0..W1`), so the
/// per-byte "any of `bits` set?" answer folds into bit 0 with three shifts;
/// the `active` plane masks those indicators and a multiply-accumulate sums
/// the eight indicator bytes.
#[inline(always)]
pub fn count_clear_active(rw: &[u8], bits: u8, active: &[u8]) -> usize {
    debug_assert!(bits & 0xF0 == 0, "rw sets use only the low nibble");
    assert_eq!(rw.len(), active.len());
    let sel = LO_BYTES * u64::from(bits);
    let word = |w: &[u8]| u64::from_ne_bytes(w.try_into().expect("chunk is 8 bytes"));
    let mut clear = 0usize;
    let mut rwc = rw.chunks_exact(BYTE_LANES);
    let mut mw = active.chunks_exact(BYTE_LANES);
    for (rv, mv) in (&mut rwc).zip(&mut mw) {
        let x = word(rv) & sel;
        let busy = (x | (x >> 1) | (x >> 2) | (x >> 3)) & LO_BYTES;
        let ones = !busy & word(mv) & LO_BYTES;
        clear += (ones.wrapping_mul(LO_BYTES) >> 56) as usize;
    }
    for (&x, &m) in rwc.remainder().iter().zip(mw.remainder()) {
        clear += (x & bits == 0 && m != 0) as usize;
    }
    clear
}

/// [`count_clear_active`] over the union of two read-write sets
/// (`(a | b) & bits`), for write gates at levels that consult both the rule
/// and cycle logs.
#[inline(always)]
pub fn count_clear2_active(a: &[u8], b: &[u8], bits: u8, active: &[u8]) -> usize {
    debug_assert!(bits & 0xF0 == 0, "rw sets use only the low nibble");
    assert!(a.len() == b.len() && a.len() == active.len());
    let sel = LO_BYTES * u64::from(bits);
    let word = |w: &[u8]| u64::from_ne_bytes(w.try_into().expect("chunk is 8 bytes"));
    let mut clear = 0usize;
    let mut aw = a.chunks_exact(BYTE_LANES);
    let mut bw = b.chunks_exact(BYTE_LANES);
    let mut mw = active.chunks_exact(BYTE_LANES);
    for ((av, bv), mv) in (&mut aw).zip(&mut bw).zip(&mut mw) {
        let x = (word(av) | word(bv)) & sel;
        let busy = (x | (x >> 1) | (x >> 2) | (x >> 3)) & LO_BYTES;
        let ones = !busy & word(mv) & LO_BYTES;
        clear += (ones.wrapping_mul(LO_BYTES) >> 56) as usize;
    }
    for ((&x, &y), &m) in aw.remainder().iter().zip(bw.remainder()).zip(mw.remainder()) {
        clear += ((x | y) & bits == 0 && m != 0) as usize;
    }
    clear
}

/// ORs `bit` into every lane's read-write-set byte.
#[inline(always)]
pub fn or_bytes(rw: &mut [u8], bit: u8) {
    for b in rw {
        *b |= bit;
    }
}

/// Arithmetic shift right at `width`: `dst[l] = word::sra(width, dst[l],
/// sh[l])`, with the width-dependent work hoisted out of the lane loop.
#[inline(always)]
pub fn sra_zip2(dst: &mut [u64], sh: &[u64], width: u32) {
    if width == 0 {
        dst.fill(0);
        return;
    }
    let inv = 64 - width.min(64);
    let maxsh = u64::from(width - 1);
    let mask = u64::MAX >> (64 - width.min(64));
    zip2(dst, sh, move |a, s| {
        let s = s.min(maxsh) as u32;
        (((((a << inv) as i64) >> inv) >> s) as u64) & mask
    });
}

/// Signed less-than at `width`: `dst[l] = word::slt(width, dst[l], b[l])`.
#[inline(always)]
pub fn slt_zip2(dst: &mut [u64], b: &[u64], width: u32) {
    if width == 0 {
        dst.fill(0);
        return;
    }
    let inv = 64 - width.min(64);
    zip2(dst, b, move |a, b| {
        (((a << inv) as i64) < ((b << inv) as i64)) as u64
    });
}

/// Signed less-or-equal at `width`: `dst[l] = 1 - word::slt(width, b[l],
/// dst[l])`.
#[inline(always)]
pub fn sle_zip2(dst: &mut [u64], b: &[u64], width: u32) {
    if width == 0 {
        dst.fill(1);
        return;
    }
    let inv = 64 - width.min(64);
    zip2(dst, b, move |a, b| {
        (((b << inv) as i64) >= ((a << inv) as i64)) as u64
    });
}

/// Concatenation `{dst, b}` with `b` the `low`-bit low half, masked:
/// `dst[l] = word::concat(low, dst[l], b[l]) & mask`.
#[inline(always)]
pub fn concat_zip2(dst: &mut [u64], b: &[u64], low: u32, mask: u64) {
    let hi_keep = lane_mask(low < 64);
    let sh = low.min(63);
    zip2(dst, b, move |a, b| (((a << sh) & hi_keep) | b) & mask);
}

/// Sign-extension from `from` bits, masked: `dst[l] = word::sext(from,
/// dst[l]) & mask` with the width cases hoisted.
#[inline(always)]
pub fn sext_map1(dst: &mut [u64], from: u32, mask: u64) {
    if from == 0 {
        dst.fill(0);
    } else if from >= 64 {
        map1(dst, move |a| a & mask);
    } else {
        let sh = 64 - from;
        map1(dst, move |a| ((((a << sh) as i64) >> sh) as u64) & mask);
    }
}

/// `dst[l] = sext(from, (dst[l] >> lo) & mask(from)) & mask` — the fused
/// slice-then-sign-extend kernel.
#[inline(always)]
pub fn slice_sext_map1(dst: &mut [u64], lo: u32, from: u32, mask: u64) {
    if from == 0 {
        dst.fill(0);
        return;
    }
    let from_mask = u64::MAX >> (64 - from.min(64));
    let sh = 64 - from.min(64);
    map1(dst, move |a| {
        let v = (a >> lo) & from_mask;
        ((((v << sh) as i64) >> sh) as u64) & mask
    });
}

/// In-place unary map over an indexed stripe of one buffer:
/// `buf[d+l] = f(buf[s+l])`. The source and destination stripes may be
/// the same stripe (they are lane-aligned, so overlap is all-or-none);
/// the up-front bounds assertions let the optimizer drop per-element
/// checks and emit a runtime-disambiguated vector loop.
#[inline(always)]
pub fn map1_at(buf: &mut [u64], d: usize, s: usize, n: usize, f: impl Fn(u64) -> u64 + Copy) {
    assert!(d + n <= buf.len() && s + n <= buf.len());
    for l in 0..n {
        buf[d + l] = f(buf[s + l]);
    }
}

/// Indexed binary map within one buffer: `buf[d+l] = f(buf[a+l], buf[b+l])`.
/// Any of the three stripes may coincide (lane-aligned, all-or-none).
#[inline(always)]
pub fn zip2_at(
    buf: &mut [u64],
    d: usize,
    a: usize,
    b: usize,
    n: usize,
    f: impl Fn(u64, u64) -> u64 + Copy,
) {
    assert!(d + n <= buf.len() && a + n <= buf.len() && b + n <= buf.len());
    for l in 0..n {
        buf[d + l] = f(buf[a + l], buf[b + l]);
    }
}

/// Indexed branchless select within one buffer:
/// `buf[d+l] = if buf[c+l] != 0 { buf[t+l] } else { buf[f+l] }`.
#[inline(always)]
pub fn select_at(buf: &mut [u64], d: usize, c: usize, t: usize, f: usize, n: usize) {
    assert!(d + n <= buf.len() && c + n <= buf.len() && t + n <= buf.len() && f + n <= buf.len());
    for l in 0..n {
        let m = lane_mask(buf[c + l] != 0);
        buf[d + l] = (buf[t + l] & m) | (buf[f + l] & !m);
    }
}

/// Expands `$body` once per [`FusedBin`] operator with `$f` bound to a
/// monomorphic branchless closure implementing that operator at `mask` —
/// the operator match (and every width-dependent setup: shift guards,
/// sign-extension amounts, concat overflow) is performed once per stripe
/// instead of once per lane.
macro_rules! with_fused {
    ($op:expr, $mask:expr, |$f:ident| $body:expr) => {{
        let mask = $mask;
        match $op {
            FusedBin::Add => {
                let $f = move |a: u64, b: u64| a.wrapping_add(b) & mask;
                $body
            }
            FusedBin::Sub => {
                let $f = move |a: u64, b: u64| a.wrapping_sub(b) & mask;
                $body
            }
            FusedBin::Mul => {
                let $f = move |a: u64, b: u64| a.wrapping_mul(b) & mask;
                $body
            }
            FusedBin::And => {
                let $f = move |a: u64, b: u64| a & b;
                $body
            }
            FusedBin::Or => {
                let $f = move |a: u64, b: u64| a | b;
                $body
            }
            FusedBin::Xor => {
                let $f = move |a: u64, b: u64| a ^ b;
                $body
            }
            FusedBin::Shl => {
                let $f = move |a: u64, b: u64| shl64(a, b, mask);
                $body
            }
            FusedBin::Shr => {
                let $f = move |a: u64, b: u64| shr64(a, b);
                $body
            }
            FusedBin::Sra => {
                let width = mask.count_ones();
                if width == 0 {
                    let $f = move |_a: u64, _b: u64| 0u64;
                    $body
                } else {
                    let inv = 64 - width;
                    let maxsh = u64::from(width - 1);
                    let $f = move |a: u64, b: u64| {
                        let s = b.min(maxsh) as u32;
                        (((((a << inv) as i64) >> inv) >> s) as u64) & mask
                    };
                    $body
                }
            }
            FusedBin::Eq => {
                let $f = move |a: u64, b: u64| (a == b) as u64;
                $body
            }
            FusedBin::Ne => {
                let $f = move |a: u64, b: u64| (a != b) as u64;
                $body
            }
            FusedBin::Ult => {
                let $f = move |a: u64, b: u64| (a < b) as u64;
                $body
            }
            FusedBin::Ule => {
                let $f = move |a: u64, b: u64| (a <= b) as u64;
                $body
            }
            FusedBin::Slt => {
                let width = mask.count_ones();
                if width == 0 {
                    let $f = move |_a: u64, _b: u64| 0u64;
                    $body
                } else {
                    let inv = 64 - width;
                    let $f =
                        move |a: u64, b: u64| (((a << inv) as i64) < ((b << inv) as i64)) as u64;
                    $body
                }
            }
            FusedBin::Sle => {
                let width = mask.count_ones();
                if width == 0 {
                    let $f = move |_a: u64, _b: u64| 1u64;
                    $body
                } else {
                    let inv = 64 - width;
                    let $f =
                        move |a: u64, b: u64| (((b << inv) as i64) >= ((a << inv) as i64)) as u64;
                    $body
                }
            }
            FusedBin::Concat { low } => {
                let low = u32::from(low);
                let hi_keep = lane_mask(low < 64);
                let sh = low.min(63);
                let $f = move |a: u64, b: u64| (((a << sh) & hi_keep) | b) & mask;
                $body
            }
        }
    }};
}

/// `dst[l] = fused(op, dst[l], rhs, mask)` with the operator hoisted.
#[inline(always)]
pub fn fused_map1(op: FusedBin, mask: u64, rhs: u64, dst: &mut [u64]) {
    with_fused!(op, mask, |f| map1(dst, move |a| f(a, rhs)));
}

/// `dst[l] = fused(op, a[l], rhs, mask)`.
#[inline(always)]
pub fn fused_map1_to(op: FusedBin, mask: u64, rhs: u64, dst: &mut [u64], a: &[u64]) {
    with_fused!(op, mask, |f| map1_to(dst, a, move |x| f(x, rhs)));
}

/// `dst[l] = fused(op, dst[l], b[l], mask)`.
#[inline(always)]
pub fn fused_zip2(op: FusedBin, mask: u64, dst: &mut [u64], b: &[u64]) {
    with_fused!(op, mask, |f| zip2(dst, b, f));
}

/// `dst[l] = fused(op, a[l], b[l], mask)`.
#[inline(always)]
pub fn fused_zip2_to(op: FusedBin, mask: u64, dst: &mut [u64], a: &[u64], b: &[u64]) {
    with_fused!(op, mask, |f| zip2_to(dst, a, b, f));
}

/// `buf[d+l] = fused(op, buf[a+l], buf[b+l], mask)` — the tac slot-file
/// form, tolerant of `d` aliasing `a` or `b`.
#[inline(always)]
pub fn fused_zip2_at(op: FusedBin, mask: u64, buf: &mut [u64], d: usize, a: usize, b: usize, n: usize) {
    with_fused!(op, mask, |f| zip2_at(buf, d, a, b, n, f));
}

/// `buf[d+l] = fused(op, ext[l], buf[b+l], mask)` — first operand from an
/// external stripe (a register read), second from the slot file.
#[inline(always)]
pub fn fused_ext_buf_at(op: FusedBin, mask: u64, buf: &mut [u64], d: usize, ext: &[u64], b: usize, n: usize) {
    assert!(d + n <= buf.len() && b + n <= buf.len() && n <= ext.len());
    with_fused!(op, mask, |f| for l in 0..n {
        buf[d + l] = f(ext[l], buf[b + l]);
    });
}

/// `buf[d+l] = fused(op, buf[a+l], ext[l], mask)` — second operand from an
/// external stripe.
#[inline(always)]
pub fn fused_buf_ext_at(op: FusedBin, mask: u64, buf: &mut [u64], d: usize, a: usize, ext: &[u64], n: usize) {
    assert!(d + n <= buf.len() && a + n <= buf.len() && n <= ext.len());
    with_fused!(op, mask, |f| for l in 0..n {
        buf[d + l] = f(buf[a + l], ext[l]);
    });
}

/// Number of active lanes (see [`count_zero_active`]) for which
/// `fused(op, buf[a+l], buf[b+l], mask) == 0`, without materializing the
/// result stripe (the `BinJz` gate).
#[inline(always)]
pub fn fused_count_zero_at(
    op: FusedBin,
    mask: u64,
    buf: &[u64],
    a: usize,
    b: usize,
    active: &[u8],
) -> usize {
    let n = active.len();
    assert!(a + n <= buf.len() && b + n <= buf.len());
    with_fused!(op, mask, |f| {
        let mut nz = 0usize;
        for (l, &m) in active.iter().enumerate() {
            nz += (f(buf[a + l], buf[b + l]) == 0) as usize & (m & 1) as usize;
        }
        nz
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use koika::bits::word;

    #[test]
    fn shift_guards_match_scalar() {
        for b in [0u64, 1, 31, 62, 63, 64, 65, 1000, u64::MAX] {
            for a in [0u64, 1, 0xdead_beef, u64::MAX] {
                let mask = word::mask(17);
                let want_shl = if b >= 64 { 0 } else { (a << b) & mask };
                let want_shr = if b >= 64 { 0 } else { a >> b };
                assert_eq!(shl64(a, b, mask), want_shl, "shl a={a:#x} b={b}");
                assert_eq!(shr64(a, b), want_shr, "shr a={a:#x} b={b}");
            }
        }
    }

    #[test]
    fn sra_slt_sle_match_word_helpers() {
        let vals = [0u64, 1, 2, 0x7fff, 0x8000, u64::MAX >> 1, u64::MAX];
        let shifts = [0u64, 1, 15, 16, 62, 63, 64, 100];
        for width in [1u32, 2, 15, 16, 63, 64] {
            let m = word::mask(width);
            let a: Vec<u64> = vals.iter().map(|v| v & m).collect();
            for &s in &shifts {
                let mut dst = a.clone();
                sra_zip2(&mut dst, &vec![s; a.len()], width);
                for (i, &v) in a.iter().enumerate() {
                    assert_eq!(dst[i], word::sra(width, v, s), "sra w={width} v={v:#x} s={s}");
                }
            }
            for &bv in &vals {
                let b = vec![bv & m; a.len()];
                let mut slt = a.clone();
                slt_zip2(&mut slt, &b, width);
                let mut sle = a.clone();
                sle_zip2(&mut sle, &b, width);
                for (i, &v) in a.iter().enumerate() {
                    assert_eq!(slt[i], word::slt(width, v, b[i]), "slt w={width}");
                    assert_eq!(sle[i], 1 - word::slt(width, b[i], v), "sle w={width}");
                }
            }
        }
    }

    #[test]
    fn concat_and_sext_match_word_helpers() {
        let vals = [0u64, 1, 0xAAAA, u64::MAX];
        for low in [0u32, 1, 31, 63, 64] {
            for w in [1u32, 33, 64] {
                let mask = word::mask(w);
                for &a in &vals {
                    let b = vals;
                    let mut dst = vec![a; b.len()];
                    concat_zip2(&mut dst, &b, low, mask);
                    for (i, &bb) in b.iter().enumerate() {
                        assert_eq!(dst[i], word::concat(low, a, bb) & mask, "low={low} w={w}");
                    }
                }
            }
        }
        for from in [0u32, 1, 17, 63, 64] {
            for w in [1u32, 33, 64] {
                let mask = word::mask(w);
                let mut dst = vals.to_vec();
                sext_map1(&mut dst, from, mask);
                for (i, &v) in vals.iter().enumerate() {
                    assert_eq!(dst[i], word::sext(from, v) & mask, "from={from} w={w}");
                }
            }
        }
    }

    /// Active planes the masked counts are checked under: every lane, every
    /// third lane dropped, and no lane.
    fn active_planes(len: usize) -> [Vec<u8>; 3] {
        [
            vec![0xFF; len],
            (0..len).map(|i| if i % 3 == 1 { 0 } else { 0xFF }).collect(),
            vec![0; len],
        ]
    }

    #[test]
    fn gates_count_exactly_at_every_length() {
        // Sweep lengths through and past the 8-lane word boundary so both
        // the SWAR body and the scalar tail are exercised; compare against
        // the obvious per-lane loop.
        for len in 0..=67usize {
            let rw: Vec<u8> = (0..len).map(|i| (i % 16) as u8).collect();
            let rw2: Vec<u8> = (0..len).map(|i| ((i * 7 + 3) % 16) as u8).collect();
            for active in active_planes(len) {
                let on = |i: usize| active[i] != 0;
                for bits in [0x01u8, 0x02, 0x04, 0x08, 0x0C, 0x0E, 0x0F] {
                    let want = (0..len).filter(|&i| on(i) && rw[i] & bits == 0).count();
                    assert_eq!(
                        count_clear_active(&rw, bits, &active),
                        want,
                        "len={len} bits={bits:#x}"
                    );
                    let want2 = (0..len)
                        .filter(|&i| on(i) && (rw[i] | rw2[i]) & bits == 0)
                        .count();
                    assert_eq!(
                        count_clear2_active(&rw, &rw2, bits, &active),
                        want2,
                        "len={len} bits={bits:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn select_is_branchless_and_exact() {
        let c0: Vec<u64> = (0..13).map(|i| (i % 3 == 0) as u64 * (i + 1)).collect();
        let t: Vec<u64> = (0..13).map(|i| 100 + i).collect();
        let f: Vec<u64> = (0..13).map(|i| 200 + i).collect();
        let mut c = c0.clone();
        select(&mut c, &t, &f);
        for i in 0..13 {
            assert_eq!(c[i], if c0[i] != 0 { t[i] } else { f[i] });
        }
    }

    #[test]
    fn fused_kernels_match_scalar_fused_at_boundary_widths() {
        use crate::insn::FusedBin;
        let ops = [
            FusedBin::Add,
            FusedBin::Sub,
            FusedBin::Mul,
            FusedBin::And,
            FusedBin::Or,
            FusedBin::Xor,
            FusedBin::Shl,
            FusedBin::Shr,
            FusedBin::Sra,
            FusedBin::Eq,
            FusedBin::Ne,
            FusedBin::Ult,
            FusedBin::Ule,
            FusedBin::Slt,
            FusedBin::Sle,
            FusedBin::Concat { low: 0 },
            FusedBin::Concat { low: 1 },
            FusedBin::Concat { low: 63 },
            FusedBin::Concat { low: 64 },
        ];
        let a: Vec<u64> = vec![0, 1, 2, 3, 62, 63, 64, 65, 0x8000, u64::MAX >> 1, u64::MAX];
        let b = {
            let mut v = a.clone();
            v.rotate_left(3);
            v
        };
        for width in [1u32, 2, 17, 63, 64] {
            let mask = word::mask(width);
            for &op in &ops {
                let want: Vec<u64> = a
                    .iter()
                    .zip(&b)
                    .map(|(&x, &y)| crate::vm::fused(op, x & mask, y, mask))
                    .collect();
                let am: Vec<u64> = a.iter().map(|&x| x & mask).collect();

                let mut dst = am.clone();
                fused_zip2(op, mask, &mut dst, &b);
                assert_eq!(dst, want, "zip2 {op:?} w={width}");

                let mut dst = vec![0; am.len()];
                fused_zip2_to(op, mask, &mut dst, &am, &b);
                assert_eq!(dst, want, "zip2_to {op:?} w={width}");

                // Indexed forms over one buffer [a | b | out].
                let n = am.len();
                let mut buf = [am.clone(), b.clone(), vec![0; n]].concat();
                fused_zip2_at(op, mask, &mut buf, 2 * n, 0, n, n);
                assert_eq!(&buf[2 * n..], &want[..], "zip2_at {op:?} w={width}");
                fused_ext_buf_at(op, mask, &mut buf, 2 * n, &am, n, n);
                assert_eq!(&buf[2 * n..], &want[..], "ext_buf_at {op:?} w={width}");
                fused_buf_ext_at(op, mask, &mut buf, 2 * n, 0, &b, n);
                assert_eq!(&buf[2 * n..], &want[..], "buf_ext_at {op:?} w={width}");
                for active in active_planes(n) {
                    assert_eq!(
                        fused_count_zero_at(op, mask, &buf, 0, n, &active),
                        (0..n).filter(|&l| active[l] != 0 && want[l] == 0).count(),
                        "count_zero_at {op:?} w={width}"
                    );
                }

                // Constant-rhs forms, one rhs at a time.
                for (i, &rhs) in b.iter().enumerate() {
                    let mut dst = am.clone();
                    fused_map1(op, mask, rhs, &mut dst);
                    let w: Vec<u64> = am
                        .iter()
                        .map(|&x| crate::vm::fused(op, x, rhs, mask))
                        .collect();
                    assert_eq!(dst, w, "map1 {op:?} w={width} rhs#{i}");
                    let mut dst = vec![0; n];
                    fused_map1_to(op, mask, rhs, &mut dst, &am);
                    assert_eq!(dst, w, "map1_to {op:?} w={width} rhs#{i}");
                }
            }
        }
    }

    #[test]
    fn count_zero_counts_every_tail_shape() {
        for len in 0..=9usize {
            let v: Vec<u64> = (0..len).map(|i| (i % 2) as u64).collect();
            for active in active_planes(len) {
                let want = (0..len).filter(|&i| active[i] != 0 && v[i] == 0).count();
                assert_eq!(count_zero_active(&v, &active), want, "len={len}");
            }
        }
    }
}
