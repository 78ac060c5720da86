//! Snapshot/restore of complete simulator state, shared by every backend.
//!
//! A [`Snapshot`] captures everything a backend needs to resume a run at a
//! cycle boundary: the full register file (at declared widths, so the
//! reference interpreter's wide registers survive), the cycle counter, and
//! the commit counters. Because all backends expose the same flattened
//! register space (see [`crate::tir`]) and agree on cycle boundaries, a
//! snapshot taken on one backend restores onto any other — snapshot on the
//! interpreter, restore on the Cuttlesim VM or the RTL simulator, and the
//! subsequent commit streams are identical. That cross-backend property is
//! what makes snapshots useful for resilience testing: a fault-injection
//! campaign (see [`crate::fault`]) can checkpoint a golden run once and
//! fan members out over whichever backend is fastest.
//!
//! Devices (memories, stream sources) hold state too, so what is saved and
//! restored is a [`StateImage`]: a snapshot plus each device's state, taken
//! by [`StateImage::capture`] and put back by [`StateImage::apply`].
//!
//! Two serializations are provided:
//!
//! * a **versioned binary format** (`KSNP`, version 3; see
//!   [`StateImage::to_bytes`]) — the durable form, written by
//!   `koika-sim --snapshot-every` and read back by `--restore`;
//! * a **JSON debug form** ([`Snapshot::to_json`]) — human-readable, used
//!   for watchdog state dumps and diffing two snapshots in a text editor.
//!
//! Restores are validated: the design name, register count, and every
//! register width must match the target simulator, so a stale snapshot
//! fails loudly ([`SnapshotError`]) instead of silently corrupting state.

use crate::bits::Bits;
use crate::device::{Device, SimBackend};
use crate::tir::TDesign;
use std::fmt;
use std::fmt::Write as _;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Magic bytes opening every binary snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"KSNP";

/// Current binary snapshot format version. Bump on any layout change; old
/// versions are rejected, never reinterpreted. Version 2 added the design
/// fingerprint guard; version 3 added the device section.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Folds a design's identity — its name plus every register's name and
/// declared width, in declaration order — into a 64-bit FNV-1a fingerprint.
///
/// Every backend stamps this into the snapshots it takes and checks it on
/// restore, so a snapshot can never be restored into a *different* design
/// that happens to share a name and register shape (e.g. a register got
/// renamed between builds): the restore fails with a typed
/// [`SnapshotError::FingerprintMismatch`] instead of silently diverging.
pub fn design_fingerprint<'a, I>(design: &str, regs: I) -> u64
where
    I: IntoIterator<Item = (&'a str, u32)>,
{
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(design.as_bytes());
    eat(&[0]);
    for (name, width) in regs {
        eat(name.as_bytes());
        eat(&[0]);
        eat(&width.to_le_bytes());
    }
    h
}

/// A saved copy of a simulator's architectural state at a cycle boundary.
///
/// Produced by [`crate::device::SimBackend::snapshot`]; applied with
/// [`crate::device::SimBackend::restore`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Name of the design the snapshot was taken from.
    pub design: String,
    /// Cycles executed when the snapshot was taken.
    pub cycles: u64,
    /// Total rule commits when the snapshot was taken.
    pub fired: u64,
    /// [`design_fingerprint`] of the design the snapshot was taken from.
    pub fingerprint: u64,
    /// Per-rule commit counts in **declaration order** (empty if the
    /// backend does not track them).
    pub fired_per_rule: Vec<u64>,
    /// Every register's value, flattened-register-space order, at the
    /// declared width.
    pub regs: Vec<Bits>,
}

/// Why a snapshot could not be parsed or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream starts with these bytes, not the `KSNP` magic.
    BadMagic([u8; 4]),
    /// The format version is not one this build understands.
    BadVersion(u32),
    /// The byte stream ended mid-field.
    Truncated,
    /// A length or width field is implausibly large for the stream.
    Corrupt(&'static str),
    /// The snapshot was taken from a different design.
    DesignMismatch {
        /// Design name in the snapshot.
        snapshot: String,
        /// Design name of the simulator being restored.
        simulator: String,
    },
    /// Register count or a register width differs from the target design.
    ShapeMismatch(String),
    /// The design fingerprint (name + register names + widths) differs: the
    /// snapshot came from a structurally different design, even though the
    /// coarse shape checks passed.
    FingerprintMismatch {
        /// Fingerprint recorded in the snapshot.
        snapshot: u64,
        /// Fingerprint of the design being restored into.
        simulator: u64,
    },
    /// The simulator is mid-cycle; snapshots only apply at cycle boundaries.
    MidCycle,
    /// The image's device states do not fit the run's devices.
    Device(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic(magic) => write!(
                f,
                "not a koika snapshot (magic {:?}, expected \"KSNP\")",
                String::from_utf8_lossy(magic)
            ),
            SnapshotError::BadVersion(v) => {
                write!(f, "unsupported snapshot version {v} (this build reads {SNAPSHOT_VERSION})")
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapshotError::DesignMismatch { snapshot, simulator } => write!(
                f,
                "snapshot is of design {snapshot:?} but the simulator runs {simulator:?}"
            ),
            SnapshotError::ShapeMismatch(why) => write!(f, "snapshot shape mismatch: {why}"),
            SnapshotError::FingerprintMismatch { snapshot, simulator } => write!(
                f,
                "snapshot design fingerprint {snapshot:#018x} does not match the \
                 simulator's design fingerprint {simulator:#018x} (same name and \
                 shape, different design)"
            ),
            SnapshotError::MidCycle => {
                write!(f, "cannot snapshot/restore mid-cycle; finish the cycle first")
            }
            SnapshotError::Device(why) => write!(f, "snapshot does not fit the devices: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], SnapshotError> {
    if buf.len() < n {
        return Err(SnapshotError::Truncated);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn read_u32(buf: &mut &[u8]) -> Result<u32, SnapshotError> {
    let b = take(buf, 4)?;
    Ok(u32::from_le_bytes(b.try_into().expect("length checked")))
}

fn read_u64(buf: &mut &[u8]) -> Result<u64, SnapshotError> {
    let b = take(buf, 8)?;
    Ok(u64::from_le_bytes(b.try_into().expect("length checked")))
}

/// Reads `n` words one at a time, so a corrupt count runs out of stream
/// instead of allocating.
fn read_u64s(buf: &mut &[u8], n: u32) -> Result<Vec<u64>, SnapshotError> {
    (0..n).map(|_| read_u64(buf)).collect()
}

impl Snapshot {
    /// Checks that this snapshot fits a simulator of the given design name,
    /// register widths, and [`design_fingerprint`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::DesignMismatch`], [`SnapshotError::ShapeMismatch`],
    /// or [`SnapshotError::FingerprintMismatch`].
    pub fn check_shape(
        &self,
        design: &str,
        widths: &[u32],
        fingerprint: u64,
    ) -> Result<(), SnapshotError> {
        if self.design != design {
            return Err(SnapshotError::DesignMismatch {
                snapshot: self.design.clone(),
                simulator: design.to_string(),
            });
        }
        if self.regs.len() != widths.len() {
            return Err(SnapshotError::ShapeMismatch(format!(
                "snapshot has {} registers, design has {}",
                self.regs.len(),
                widths.len()
            )));
        }
        for (i, (r, &w)) in self.regs.iter().zip(widths).enumerate() {
            if r.width() != w {
                return Err(SnapshotError::ShapeMismatch(format!(
                    "register {i} is {} bits in the snapshot but {w} in the design",
                    r.width()
                )));
            }
        }
        if self.fingerprint != fingerprint {
            return Err(SnapshotError::FingerprintMismatch {
                snapshot: self.fingerprint,
                simulator: fingerprint,
            });
        }
        Ok(())
    }

    /// Renders the JSON debug form. Register names come from the design
    /// when one is supplied; otherwise registers are labeled by index.
    pub fn to_json(&self, design: Option<&TDesign>) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n  \"format\": \"ksnp\",\n  \"version\": {SNAPSHOT_VERSION},\n  \
             \"design\": \"{}\",\n  \"cycles\": {},\n  \"fired\": {},\n  \
             \"fingerprint\": \"{:#018x}\",\n",
            self.design.escape_default(),
            self.cycles,
            self.fired,
            self.fingerprint
        );
        let _ = write!(s, "  \"fired_per_rule\": {:?},\n  \"regs\": [\n", self.fired_per_rule);
        for (i, r) in self.regs.iter().enumerate() {
            let name = design
                .and_then(|td| td.regs.get(i))
                .map(|ri| ri.name.clone())
                .unwrap_or_else(|| format!("reg{i}"));
            let mut hex = String::new();
            for w in r.words().iter().rev() {
                let _ = write!(hex, "{w:016x}");
            }
            let trimmed = hex.trim_start_matches('0');
            let value = if trimmed.is_empty() { "0" } else { trimmed };
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"width\": {}, \"value\": \"0x{value}\"}}{}",
                name.escape_default(),
                r.width(),
                if i + 1 == self.regs.len() { "" } else { "," },
            );
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// A run's complete restorable state at a cycle boundary: the simulator's
/// [`Snapshot`] and each device's [`Device::save_state`]. What a device
/// without state means is the caller's policy.
#[derive(Debug, Clone, PartialEq)]
pub struct StateImage {
    /// The simulator's registers and counters.
    pub snap: Snapshot,
    /// One section per device, in device order; `None` for a device that
    /// saves no state.
    pub devices: Vec<Option<Arc<[u8]>>>,
}

impl StateImage {
    /// Captures `sim` and `devices`. A device state byte-equal to the same
    /// device's in `prev` shares its allocation.
    pub fn capture<D: Deref<Target: Device>>(
        sim: &dyn SimBackend,
        devices: &[D],
        prev: Option<&StateImage>,
    ) -> StateImage {
        let devices = devices.iter().enumerate().map(|(i, d)| {
            let state = d.save_state()?;
            Some(match prev.and_then(|p| p.devices.get(i)) {
                Some(Some(old)) if **old == *state => Arc::clone(old),
                _ => Arc::from(state),
            })
        });
        StateImage {
            snap: sim.snapshot(),
            devices: devices.collect(),
        }
    }

    /// Restores `sim`, then `devices` ([`StateImage::apply_devices`]); what
    /// was restored before a refusal stays restored.
    pub fn apply<D: DerefMut<Target: Device>>(
        &self,
        sim: &mut dyn SimBackend,
        devices: &mut [D],
    ) -> Result<(), SnapshotError> {
        sim.restore(&self.snap)?;
        self.apply_devices(devices)
    }

    /// Loads each device's state (a `None` section leaves its device as it
    /// is), or fails with [`SnapshotError::Device`] when the count differs
    /// or a device refuses its state.
    pub fn apply_devices<D: DerefMut<Target: Device>>(
        &self,
        devices: &mut [D],
    ) -> Result<(), SnapshotError> {
        let (n, run) = (self.devices.len(), devices.len());
        if n != run {
            let why = format!("the image holds {n} device states but the run has {run} devices");
            return Err(SnapshotError::Device(why));
        }
        for (i, (d, state)) in devices.iter_mut().zip(&self.devices).enumerate() {
            if let Some(state) = state {
                let refused = |why| SnapshotError::Device(format!("device {i} refused its state: {why}"));
                d.load_state(state).map_err(refused)?;
            }
        }
        Ok(())
    }

    /// Register words plus device states, in bytes: the same on every
    /// backend.
    pub fn state_bytes(&self) -> usize {
        let regs: usize = self.snap.regs.iter().map(|r| r.words().len() * 8).sum();
        regs + self.devices.iter().flatten().map(|d| d.len()).sum::<usize>()
    }

    /// Serializes to the versioned binary format.
    ///
    /// Layout (all integers little-endian):
    ///
    /// ```text
    /// "KSNP"  version:u32  name_len:u32 name_bytes
    /// cycles:u64  fired:u64  fingerprint:u64
    /// nrules:u32  fired_per_rule:u64 × nrules
    /// nregs:u32   (width:u32 nwords:u32 words:u64 × nwords) × nregs
    /// ndev:u32    (has:u8 [len:u32 bytes × len when has = 1]) × ndev
    /// ```
    pub fn to_bytes(&self) -> Vec<u8> {
        let snap = &self.snap;
        let mut out = Vec::with_capacity(64 + 16 * snap.regs.len());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(snap.design.len() as u32).to_le_bytes());
        out.extend_from_slice(snap.design.as_bytes());
        out.extend_from_slice(&snap.cycles.to_le_bytes());
        out.extend_from_slice(&snap.fired.to_le_bytes());
        out.extend_from_slice(&snap.fingerprint.to_le_bytes());
        out.extend_from_slice(&(snap.fired_per_rule.len() as u32).to_le_bytes());
        for &n in &snap.fired_per_rule {
            out.extend_from_slice(&n.to_le_bytes());
        }
        out.extend_from_slice(&(snap.regs.len() as u32).to_le_bytes());
        for r in &snap.regs {
            let words = r.words();
            out.extend_from_slice(&r.width().to_le_bytes());
            out.extend_from_slice(&(words.len() as u32).to_le_bytes());
            for w in words {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.devices.len() as u32).to_le_bytes());
        for state in &self.devices {
            match state {
                Some(bytes) => {
                    out.push(1);
                    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                    out.extend_from_slice(bytes);
                }
                None => out.push(0),
            }
        }
        out
    }

    /// Parses [`StateImage::to_bytes`]'s format.
    ///
    /// # Errors
    ///
    /// Rejects wrong magic, other versions, truncated streams, implausible
    /// lengths, device flags other than 0 and 1, and bytes past the end of
    /// the image — bad input never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<StateImage, SnapshotError> {
        let mut buf = bytes;
        let magic = take(&mut buf, 4)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic(magic.try_into().expect("length checked")));
        }
        let version = read_u32(&mut buf)?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let name_len = read_u32(&mut buf)? as usize;
        let design = String::from_utf8(take(&mut buf, name_len)?.to_vec())
            .map_err(|_| SnapshotError::Corrupt("design name is not UTF-8"))?;
        let cycles = read_u64(&mut buf)?;
        let fired = read_u64(&mut buf)?;
        let fingerprint = read_u64(&mut buf)?;
        let nrules = read_u32(&mut buf)?;
        let fired_per_rule = read_u64s(&mut buf, nrules)?;
        let nregs = read_u32(&mut buf)?;
        let regs = (0..nregs)
            .map(|_| {
                let width = read_u32(&mut buf)?;
                let nwords = read_u32(&mut buf)?;
                if nwords != width.div_ceil(64).max(1) {
                    return Err(SnapshotError::Corrupt("word count disagrees with width"));
                }
                Ok(Bits::from_words(width, &read_u64s(&mut buf, nwords)?))
            })
            .collect::<Result<_, _>>()?;
        let ndev = read_u32(&mut buf)?;
        let devices = (0..ndev)
            .map(|_| match take(&mut buf, 1)?[0] {
                0 => Ok(None),
                1 => {
                    let len = read_u32(&mut buf)? as usize;
                    Ok(Some(Arc::from(take(&mut buf, len)?)))
                }
                _ => Err(SnapshotError::Corrupt("device flag is neither 0 nor 1")),
            })
            .collect::<Result<_, _>>()?;
        if !buf.is_empty() {
            return Err(SnapshotError::Corrupt("bytes follow the end of the image"));
        }
        let snap = Snapshot { design, cycles, fired, fingerprint, fired_per_rule, regs };
        Ok(StateImage { snap, devices })
    }
}

/// Durably writes `bytes` to `path` with crash-atomic semantics: the data
/// lands in `<path>.tmp` first, is fsynced, and is then renamed over `path`.
/// A reader (or a recovery pass after `kill -9`) therefore observes either
/// the complete previous file or the complete new one — never a torn
/// half-written `.ksnap`. This is the canonical way to persist snapshot and
/// spool files; stray `<path>.tmp` leftovers from a crash mid-write are safe
/// to delete.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            // Leave no orphan if the rename itself failed.
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;
    use crate::check::check;
    use crate::design::DesignBuilder;
    use crate::device::RegAccess;
    use crate::interp::Interp;

    fn sample_fp() -> u64 {
        design_fingerprint("demo", [("a", 8u32), ("b", 96u32)])
    }

    fn sample() -> Snapshot {
        Snapshot {
            design: "demo".into(),
            cycles: 42,
            fired: 77,
            fingerprint: sample_fp(),
            fired_per_rule: vec![40, 37],
            regs: vec![Bits::new(8, 0xabu64), Bits::new(96, 0x1_0000_0000_0000_0000u128)],
        }
    }

    /// An image with a device section, a device without state and an
    /// empty device section.
    fn sample_image() -> StateImage {
        StateImage {
            snap: sample(),
            devices: vec![Some(Arc::from(&[1u8, 2, 3][..])), None, Some(Arc::from(&[][..]))],
        }
    }

    #[test]
    fn binary_round_trip_preserves_everything() {
        for image in [sample_image(), StateImage { snap: sample(), devices: Vec::new() }] {
            let bytes = image.to_bytes();
            assert_eq!(&bytes[..4], b"KSNP");
            assert_eq!(&bytes[4..8], &3u32.to_le_bytes());
            assert_eq!(StateImage::from_bytes(&bytes).unwrap(), image);
        }
    }

    #[test]
    fn bad_inputs_fail_without_panicking() {
        let good = sample_image().to_bytes();
        assert_eq!(StateImage::from_bytes(b"np"), Err(SnapshotError::Truncated));
        assert_eq!(StateImage::from_bytes(b"nope"), Err(SnapshotError::BadMagic(*b"nope")));
        assert_eq!(
            StateImage::from_bytes(b"XXXXmore-bytes-here"),
            Err(SnapshotError::BadMagic(*b"XXXX"))
        );
        let mut bytes = good.clone();
        bytes[4] = 99; // version
        assert_eq!(StateImage::from_bytes(&bytes), Err(SnapshotError::BadVersion(99)));
        for cut in [5, 12, good.len() - 1] {
            assert_eq!(
                StateImage::from_bytes(&good[..cut]),
                Err(SnapshotError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bytes_past_the_end_of_the_image_are_refused() {
        for image in [sample_image(), StateImage { snap: sample(), devices: Vec::new() }] {
            let mut bytes = image.to_bytes();
            bytes.push(0);
            assert_eq!(
                StateImage::from_bytes(&bytes),
                Err(SnapshotError::Corrupt("bytes follow the end of the image"))
            );
        }
    }

    #[test]
    fn device_sections_reject_corruption_without_panicking() {
        let good = sample_image().to_bytes();
        for cut in 0..good.len() {
            assert!(StateImage::from_bytes(&good[..cut]).is_err(), "cut at {cut}");
        }
        // The first device section's flag follows the register section
        // and the device count.
        let flag = StateImage { snap: sample(), devices: Vec::new() }.to_bytes().len();
        assert_eq!(good[flag], 1);
        for bad in [2u8, 0xff] {
            let mut bytes = good.clone();
            bytes[flag] = bad;
            assert_eq!(
                StateImage::from_bytes(&bytes),
                Err(SnapshotError::Corrupt("device flag is neither 0 nor 1")),
                "flag {bad}"
            );
        }
        let mut bytes = good.clone();
        bytes[flag - 4..flag].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(StateImage::from_bytes(&bytes), Err(SnapshotError::Truncated));
    }

    #[test]
    fn older_formats_are_refused_by_name() {
        // A version-2 `.ksnap`: the register section alone, at version 2.
        let image = StateImage { snap: sample(), devices: Vec::new() };
        let mut v2 = image.to_bytes();
        v2.truncate(v2.len() - 4);
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        let err = StateImage::from_bytes(&v2).unwrap_err();
        assert_eq!(err, SnapshotError::BadVersion(2));
        assert!(err.to_string().contains("version 2"), "{err}");
        // A `KSES` spool: magic, the embedded `.ksnap`, device states.
        let mut kses = b"KSES".to_vec();
        kses.extend_from_slice(&(v2.len() as u32).to_le_bytes());
        kses.extend_from_slice(&v2);
        kses.extend_from_slice(&0u32.to_le_bytes());
        let err = StateImage::from_bytes(&kses).unwrap_err();
        assert_eq!(err, SnapshotError::BadMagic(*b"KSES"));
        assert!(err.to_string().contains("KSES"), "{err}");
    }

    /// A device whose state is one byte, counting its ticks; with `saves`
    /// off it has no state.
    struct Ticker {
        ticks: u8,
        saves: bool,
    }

    impl Device for Ticker {
        fn tick(&mut self, _cycle: u64, _regs: &mut dyn RegAccess) {
            self.ticks = self.ticks.wrapping_add(1);
        }
        fn save_state(&self) -> Option<Vec<u8>> {
            self.saves.then(|| vec![self.ticks])
        }
        fn load_state(&mut self, state: &[u8]) -> Result<(), String> {
            match state {
                [t] if self.saves => {
                    self.ticks = *t;
                    Ok(())
                }
                _ => Err(format!("{} bytes", state.len())),
            }
        }
    }

    fn counter() -> TDesign {
        let mut b = DesignBuilder::new("cnt");
        b.reg("n", 8, 0u64);
        b.rule("inc", vec![wr0("n", rd0("n").add(k(8, 1)))]);
        b.schedule(["inc"]);
        check(&b.build()).unwrap()
    }

    #[test]
    fn capture_shares_unchanged_states_and_apply_restores_them() {
        let td = counter();
        let mut sim = Interp::new(&td);
        let mut devices: Vec<Box<dyn Device>> = vec![
            Box::new(Ticker { ticks: 0, saves: true }),
            Box::new(Ticker { ticks: 0, saves: false }),
        ];
        let first = StateImage::capture(&sim, &devices, None);
        assert_eq!(first.devices[1], None);
        let again = StateImage::capture(&sim, &devices, Some(&first));
        let (a, b) = (first.devices[0].as_ref().unwrap(), again.devices[0].as_ref().unwrap());
        assert!(Arc::ptr_eq(a, b), "an unchanged state shares its allocation");
        assert_eq!(again.devices[1], None);
        sim.run(3, &mut devices.iter_mut().map(|d| &mut **d as _).collect::<Vec<_>>());
        let later = StateImage::capture(&sim, &devices, Some(&again));
        assert_eq!(later.devices[0].as_deref(), Some(&[3u8][..]));
        assert_eq!(later.state_bytes(), 8 + 1);

        first.apply(&mut sim, &mut devices).unwrap();
        assert_eq!(StateImage::capture(&sim, &devices, None), first);
        let mut fewer = devices.split_off(1);
        assert_eq!(
            later.apply(&mut sim, &mut fewer),
            Err(SnapshotError::Device(
                "the image holds 2 device states but the run has 1 devices".into()
            ))
        );
        let mut refused = later.clone();
        refused.devices[0] = Some(Arc::from(&[1u8, 2][..]));
        devices.append(&mut fewer);
        assert_eq!(
            refused.apply(&mut sim, &mut devices),
            Err(SnapshotError::Device("device 0 refused its state: 2 bytes".into()))
        );
    }

    #[test]
    fn shape_check_catches_mismatches() {
        let s = sample();
        let fp = sample_fp();
        assert!(s.check_shape("demo", &[8, 96], fp).is_ok());
        assert!(matches!(
            s.check_shape("other", &[8, 96], fp),
            Err(SnapshotError::DesignMismatch { .. })
        ));
        assert!(matches!(
            s.check_shape("demo", &[8], fp),
            Err(SnapshotError::ShapeMismatch(_))
        ));
        assert!(matches!(
            s.check_shape("demo", &[8, 64], fp),
            Err(SnapshotError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn fingerprint_guards_same_shape_different_design() {
        // Same design name, same register count and widths, but one
        // register was renamed: the coarse shape checks pass and only the
        // fingerprint catches the mismatch.
        let s = sample();
        let renamed = design_fingerprint("demo", [("a", 8u32), ("b2", 96u32)]);
        assert_ne!(renamed, sample_fp());
        assert!(matches!(
            s.check_shape("demo", &[8, 96], renamed),
            Err(SnapshotError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn fingerprint_is_order_and_width_sensitive() {
        let base = design_fingerprint("d", [("x", 8u32), ("y", 16u32)]);
        assert_ne!(base, design_fingerprint("d", [("y", 16u32), ("x", 8u32)]));
        assert_ne!(base, design_fingerprint("d", [("x", 9u32), ("y", 16u32)]));
        assert_ne!(base, design_fingerprint("e", [("x", 8u32), ("y", 16u32)]));
        assert_eq!(base, design_fingerprint("d", vec![("x", 8u32), ("y", 16u32)]));
    }

    #[test]
    fn json_debug_form_names_registers() {
        let s = sample();
        let json = s.to_json(None);
        assert!(json.contains("\"design\": \"demo\""));
        assert!(json.contains("\"cycles\": 42"));
        assert!(json.contains("\"reg0\""));
    }

    #[test]
    fn write_atomic_replaces_whole_file_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("ksnap-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.ksnap");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second-longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second-longer");
        assert!(!dir.join("s.ksnap.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
