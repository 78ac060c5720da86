//! Per-session write-ahead journals: the durability half of crash
//! recovery.
//!
//! # Why a journal?
//!
//! A session's canonical state is pure data (registers + device states),
//! and stepping it is **deterministic**: given the design, the backend,
//! the devices, and the pending injections, replaying `step n` commits
//! byte-identical state every time (the differential-fuzz matrix already
//! rests on this). So durability does not
//! require writing megabytes of register state on every request — it is
//! enough to record the *operations*. Recovery is then: load the newest
//! checkpoint spool, deterministically re-execute the journal tail, and
//! the recovered registers and commit fingerprints are byte-identical to
//! an uninterrupted run.
//!
//! # File format (`session-<id>.kjrn`)
//!
//! ```text
//! header  := "KJRN" version:u32 session_id:u64
//! record  := len:u32 payload crc:u32        (crc32/IEEE over payload)
//! payload := seq:u64 flags:u8 [req_id:u64] tag:u8 fields…
//! ```
//!
//! All integers little-endian, like the `.ksnap` images the spools hold.
//! `seq` is strictly monotonic per session. `flags` bit 0 marks a
//! client-supplied `req_id` (the idempotency window is rebuilt from these
//! on recovery). Ops: `1`=create, `2`=step, `3`=inject, `4`=restore,
//! `5`=checkpoint, `6`=rollback, `7`=close.
//!
//! # Write-ahead discipline and torn tails
//!
//! Every state-mutating op is appended (write + fsync) **before** it
//! executes. A crash can therefore leave at most one torn record at the
//! tail; [`read_journal`] stops at the first frame whose length, CRC, or
//! payload does not check out and reports the durable prefix, and
//! recovery truncates the file back to it. A partial op is never
//! replayed. Mutations that turn out to commit nothing (a wall-budget
//! trip after exhausted retries, a deterministic step failure) append a
//! `rollback` record so replay skips them.
//!
//! # Checkpoint protocol
//!
//! A checkpoint bounds the replay tail. It writes the session's heavy
//! state to `session-<id>-<seq>.kses` (crash-atomically, via
//! [`koika::snapshot::write_atomic`]) and then atomically **rewrites**
//! the journal as `header · create · checkpoint{seq}`. The journal
//! rename is the commit point: before it, the old journal plus the old
//! spool are authoritative (the new spool is an ignorable orphan); after
//! it, the new checkpoint is. The checkpoint record carries everything
//! the spool does not: the consecutive-stall counter of the armed
//! watchdog and the still-pending injections.

use crate::chaos::{IoChaos, IoFault};
use crate::session::BackendKind;
use koika::fault::{Injection, Watchdog};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Magic bytes opening a journal file.
pub const JOURNAL_MAGIC: [u8; 4] = *b"KJRN";
/// Current journal format version.
pub const JOURNAL_VERSION: u32 = 1;
/// Sanity bound on a single record's payload (a restore carries a whole
/// `.ksnap`, so this must comfortably exceed the server's 1 MiB request
/// line cap).
pub const MAX_RECORD: usize = 8 << 20;

/// CRC-32 (IEEE 802.3, reflected polynomial) over `bytes`. Implemented
/// bitwise — records are small and this avoids a table or a dependency.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// The watchdog budgets of a `create`, in a serialization-friendly form
/// (`wall_ms` instead of a `Duration`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogSpec {
    pub max_cycles: Option<u64>,
    pub stall_cycles: Option<u64>,
    pub wall_ms: Option<u64>,
}

impl WatchdogSpec {
    /// Captures a [`Watchdog`] (sub-millisecond wall budgets round down).
    pub fn from_watchdog(wd: &Watchdog) -> WatchdogSpec {
        WatchdogSpec {
            max_cycles: wd.max_cycles,
            stall_cycles: wd.stall_cycles,
            wall_ms: wd.wall_budget.map(|d| d.as_millis() as u64),
        }
    }

    /// The [`Watchdog`] this spec describes.
    pub fn to_watchdog(&self) -> Watchdog {
        Watchdog {
            max_cycles: self.max_cycles,
            stall_cycles: self.stall_cycles,
            wall_budget: self.wall_ms.map(Duration::from_millis),
        }
    }

    /// The deterministic budgets only (wall disabled) — what replay arms:
    /// wall trips are machine-dependent and every wall trip that stuck
    /// was journaled as a rollback, so replaying without a wall budget
    /// reproduces the committed state exactly.
    pub fn deterministic_watchdog(&self) -> Watchdog {
        Watchdog {
            max_cycles: self.max_cycles,
            stall_cycles: self.stall_cycles,
            wall_budget: None,
        }
    }
}

/// One journaled operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalOp {
    /// Session birth: everything needed to rebuild the session from
    /// nothing (the design provider re-derives initial device state).
    Create {
        design: String,
        tenant: String,
        backend: BackendKind,
        watchdog: WatchdogSpec,
    },
    /// `step` / `stream-trace` of `n` cycles.
    Step { n: u64 },
    /// A validated injection queued for a future cycle.
    Inject { cycle: u64, reg: u32, bit: u32 },
    /// A `restore` with the raw `.ksnap` bytes that were applied.
    Restore { ksnap: Vec<u8> },
    /// State as of this record lives in `session-<id>-<seq>.kses`;
    /// `stalled` and `pending` carry the in-memory remainder.
    Checkpoint {
        cycles: u64,
        stalled: u64,
        pending: Vec<(u64, u32, u32)>,
    },
    /// The op journaled as `of_seq` committed nothing (a wall trip after
    /// exhausted retries, a deterministic failure, or a step shed from a
    /// full queue); replay skips it, and its reply is not cached.
    Rollback { of_seq: u64 },
    /// The session was closed; recovery deletes its files instead of
    /// resurrecting it.
    Close,
}

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    pub seq: u64,
    pub req_id: Option<u64>,
    pub op: JournalOp,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(x) => {
            out.push(1);
            put_u64(out, x);
        }
        None => out.push(0),
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Encodes a record as a framed `len · payload · crc` byte string.
pub fn encode_frame(rec: &JournalRecord) -> Vec<u8> {
    let mut p = Vec::with_capacity(32);
    put_u64(&mut p, rec.seq);
    match rec.req_id {
        Some(r) => {
            p.push(1);
            put_u64(&mut p, r);
        }
        None => p.push(0),
    }
    match &rec.op {
        JournalOp::Create {
            design,
            tenant,
            backend,
            watchdog,
        } => {
            p.push(1);
            put_str(&mut p, design);
            put_str(&mut p, tenant);
            p.push(match backend {
                BackendKind::Interp => 0,
                BackendKind::Cuttlesim => 1,
            });
            put_opt_u64(&mut p, watchdog.max_cycles);
            put_opt_u64(&mut p, watchdog.stall_cycles);
            put_opt_u64(&mut p, watchdog.wall_ms);
        }
        JournalOp::Step { n } => {
            p.push(2);
            put_u64(&mut p, *n);
        }
        JournalOp::Inject { cycle, reg, bit } => {
            p.push(3);
            put_u64(&mut p, *cycle);
            put_u32(&mut p, *reg);
            put_u32(&mut p, *bit);
        }
        JournalOp::Restore { ksnap } => {
            p.push(4);
            put_u32(&mut p, ksnap.len() as u32);
            p.extend_from_slice(ksnap);
        }
        JournalOp::Checkpoint {
            cycles,
            stalled,
            pending,
        } => {
            p.push(5);
            put_u64(&mut p, *cycles);
            put_u64(&mut p, *stalled);
            put_u32(&mut p, pending.len() as u32);
            for (c, r, b) in pending {
                put_u64(&mut p, *c);
                put_u32(&mut p, *r);
                put_u32(&mut p, *b);
            }
        }
        JournalOp::Rollback { of_seq } => {
            p.push(6);
            put_u64(&mut p, *of_seq);
        }
        JournalOp::Close => p.push(7),
    }
    let mut out = Vec::with_capacity(p.len() + 8);
    put_u32(&mut out, p.len() as u32);
    let crc = crc32(&p);
    out.extend_from_slice(&p);
    put_u32(&mut out, crc);
    out
}

struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.0.len() < n {
            return Err("record payload truncated".into());
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("length checked")))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("length checked")))
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, String> {
        Ok(match self.u8()? {
            0 => None,
            _ => Some(self.u64()?),
        })
    }
    fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        if len > MAX_RECORD {
            return Err("string length out of range".into());
        }
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| "invalid utf-8".into())
    }
}

fn decode_payload(payload: &[u8]) -> Result<JournalRecord, String> {
    let mut c = Cursor(payload);
    let seq = c.u64()?;
    let req_id = match c.u8()? {
        0 => None,
        1 => Some(c.u64()?),
        f => return Err(format!("unknown flags byte {f}")),
    };
    let tag = c.u8()?;
    let op = match tag {
        1 => {
            let design = c.string()?;
            let tenant = c.string()?;
            let backend = match c.u8()? {
                0 => BackendKind::Interp,
                1 => BackendKind::Cuttlesim,
                b => return Err(format!("unknown backend byte {b}")),
            };
            JournalOp::Create {
                design,
                tenant,
                backend,
                watchdog: WatchdogSpec {
                    max_cycles: c.opt_u64()?,
                    stall_cycles: c.opt_u64()?,
                    wall_ms: c.opt_u64()?,
                },
            }
        }
        2 => JournalOp::Step { n: c.u64()? },
        3 => JournalOp::Inject {
            cycle: c.u64()?,
            reg: c.u32()?,
            bit: c.u32()?,
        },
        4 => {
            let len = c.u32()? as usize;
            if len > MAX_RECORD {
                return Err("ksnap length out of range".into());
            }
            JournalOp::Restore {
                ksnap: c.take(len)?.to_vec(),
            }
        }
        5 => {
            let cycles = c.u64()?;
            let stalled = c.u64()?;
            let count = c.u32()? as usize;
            if count > MAX_RECORD / 16 {
                return Err("pending count out of range".into());
            }
            let mut pending = Vec::with_capacity(count);
            for _ in 0..count {
                pending.push((c.u64()?, c.u32()?, c.u32()?));
            }
            JournalOp::Checkpoint {
                cycles,
                stalled,
                pending,
            }
        }
        6 => JournalOp::Rollback { of_seq: c.u64()? },
        7 => JournalOp::Close,
        t => return Err(format!("unknown op tag {t}")),
    };
    if !c.0.is_empty() {
        return Err("trailing bytes after record payload".into());
    }
    Ok(JournalRecord { seq, req_id, op })
}

/// A parsed journal: the durable record prefix plus what (if anything)
/// had to be dropped from the tail.
#[derive(Debug)]
pub struct ParsedJournal {
    /// Session id from the header.
    pub session_id: u64,
    /// Records of the durable prefix, in order.
    pub records: Vec<JournalRecord>,
    /// Byte length of the durable prefix (header + intact records);
    /// recovery truncates the file to this.
    pub durable_len: u64,
    /// True when bytes past `durable_len` existed but did not form an
    /// intact record (a torn tail from a crash mid-append).
    pub truncated: bool,
}

/// Parses journal bytes, tolerating a torn tail.
///
/// The scan stops at the first frame whose length prefix, CRC, payload
/// decoding, or sequence monotonicity fails; everything before it is the
/// durable prefix. This never panics on arbitrary input.
///
/// # Errors
///
/// Only an unusable *header* (wrong magic or version) is a typed error —
/// there is no durable prefix to fall back to.
pub fn parse_journal_bytes(bytes: &[u8]) -> Result<ParsedJournal, String> {
    if bytes.len() < 16 {
        return Err("journal file shorter than its header".into());
    }
    if bytes[..4] != JOURNAL_MAGIC {
        return Err("not a journal file (bad magic)".into());
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("length checked"));
    if version != JOURNAL_VERSION {
        return Err(format!("unsupported journal version {version}"));
    }
    let session_id = u64::from_le_bytes(bytes[8..16].try_into().expect("length checked"));
    let mut records = Vec::new();
    let mut pos = 16usize;
    let mut last_seq: Option<u64> = None;
    loop {
        if pos == bytes.len() {
            return Ok(ParsedJournal {
                session_id,
                records,
                durable_len: pos as u64,
                truncated: false,
            });
        }
        let intact = (|| -> Option<(JournalRecord, usize)> {
            let len_end = pos.checked_add(4)?;
            if len_end > bytes.len() {
                return None;
            }
            let len = u32::from_le_bytes(bytes[pos..len_end].try_into().ok()?) as usize;
            if len > MAX_RECORD {
                return None;
            }
            let crc_end = len_end.checked_add(len)?.checked_add(4)?;
            if crc_end > bytes.len() {
                return None;
            }
            let payload = &bytes[len_end..len_end + len];
            let crc = u32::from_le_bytes(bytes[len_end + len..crc_end].try_into().ok()?);
            if crc32(payload) != crc {
                return None;
            }
            let rec = decode_payload(payload).ok()?;
            if let Some(prev) = last_seq {
                if rec.seq <= prev {
                    return None;
                }
            }
            Some((rec, crc_end))
        })();
        match intact {
            Some((rec, next)) => {
                last_seq = Some(rec.seq);
                records.push(rec);
                pos = next;
            }
            None => {
                return Ok(ParsedJournal {
                    session_id,
                    records,
                    durable_len: pos as u64,
                    truncated: true,
                });
            }
        }
    }
}

/// Reads and parses a journal file. See [`parse_journal_bytes`].
///
/// # Errors
///
/// Unreadable file or unusable header.
pub fn read_journal(path: &Path) -> Result<ParsedJournal, String> {
    let bytes =
        std::fs::read(path).map_err(|e| format!("reading journal {}: {e}", path.display()))?;
    parse_journal_bytes(&bytes)
}

/// The journal file for a session.
pub fn journal_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("session-{id}.kjrn"))
}

/// The checkpoint spool named by a checkpoint record's sequence number.
pub fn spool_path(dir: &Path, id: u64, seq: u64) -> PathBuf {
    dir.join(format!("session-{id}-{seq}.kses"))
}

/// Writes `bytes` to `path` atomically, first consulting the chaos hook.
/// Injected faults mimic the real thing: a short write leaves a partial
/// `*.tmp` (the destination stays intact), ENOSPC writes nothing. Error
/// messages from injected faults start with `"chaos:"`.
pub fn write_checked(chaos: Option<&IoChaos>, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(fault) = chaos.and_then(IoChaos::next_fault) {
        match fault {
            IoFault::TornWrite | IoFault::ShortWrite => {
                let mut tmp = path.as_os_str().to_owned();
                tmp.push(".tmp");
                let cut = bytes.len() / 2;
                let _ = std::fs::write(tmp, &bytes[..cut]);
                return Err(std::io::Error::other(format!(
                    "chaos: {} during atomic write (injected)",
                    fault.label()
                )));
            }
            IoFault::Enospc => {
                return Err(std::io::Error::other(
                    "chaos: enospc during atomic write (injected)",
                ));
            }
        }
    }
    koika::snapshot::write_atomic(path, bytes)
}

/// The append-side handle to one session's journal. No file descriptor is
/// held between operations: appends reopen the file, which keeps the
/// handle valid across the atomic rename a checkpoint performs and keeps
/// a durable server's fd footprint flat regardless of session count.
pub struct Journal {
    path: PathBuf,
    /// Framed bytes of the header + create record, replayed verbatim into
    /// every checkpoint rewrite so a journal is always self-describing.
    base: Vec<u8>,
    next_seq: u64,
    durable_len: u64,
}

impl Journal {
    /// Creates a fresh journal containing the header and the `create`
    /// record, written atomically (the journal's existence *is* the
    /// session's durability).
    ///
    /// # Errors
    ///
    /// Disk failures (or injected chaos faults).
    pub fn create(
        dir: &Path,
        id: u64,
        create: &JournalRecord,
        chaos: Option<&IoChaos>,
    ) -> std::io::Result<Journal> {
        debug_assert!(matches!(create.op, JournalOp::Create { .. }));
        let mut base = Vec::with_capacity(64);
        base.extend_from_slice(&JOURNAL_MAGIC);
        base.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        base.extend_from_slice(&id.to_le_bytes());
        base.extend_from_slice(&encode_frame(create));
        let path = journal_path(dir, id);
        write_checked(chaos, &path, &base)?;
        Ok(Journal {
            path,
            durable_len: base.len() as u64,
            next_seq: create.seq + 1,
            base,
        })
    }

    /// Reattaches to a journal parsed during recovery. `parsed` must hold
    /// at least the create record; the file on disk must already be
    /// truncated to `parsed.durable_len`.
    pub fn reattach(dir: &Path, parsed: &ParsedJournal) -> Journal {
        let mut base = Vec::with_capacity(64);
        base.extend_from_slice(&JOURNAL_MAGIC);
        base.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        base.extend_from_slice(&parsed.session_id.to_le_bytes());
        if let Some(first) = parsed.records.first() {
            base.extend_from_slice(&encode_frame(first));
        }
        Journal {
            path: journal_path(dir, parsed.session_id),
            base,
            next_seq: parsed.records.last().map(|r| r.seq + 1).unwrap_or(1),
            durable_len: parsed.durable_len,
        }
    }

    /// Bytes currently on disk (drives the auto-checkpoint threshold).
    pub fn durable_len(&self) -> u64 {
        self.durable_len
    }

    /// Appends one op (write + fsync) and returns its sequence number.
    /// On failure — real or injected — any partially appended bytes are
    /// truncated back so the on-disk journal stays exactly its previous
    /// durable prefix.
    ///
    /// # Errors
    ///
    /// Disk failures (or injected chaos faults); the journal itself is
    /// left consistent either way.
    pub fn append(
        &mut self,
        op: JournalOp,
        req_id: Option<u64>,
        chaos: Option<&IoChaos>,
    ) -> std::io::Result<u64> {
        let seq = self.next_seq;
        let frame = encode_frame(&JournalRecord { seq, req_id, op });
        let res = (|| -> std::io::Result<()> {
            let mut f = std::fs::OpenOptions::new().append(true).open(&self.path)?;
            if let Some(fault) = chaos.and_then(IoChaos::next_fault) {
                if fault == IoFault::TornWrite {
                    let _ = f.write_all(&frame[..frame.len() / 2]);
                }
                return Err(std::io::Error::other(format!(
                    "chaos: {} during journal append (injected)",
                    fault.label()
                )));
            }
            f.write_all(&frame)?;
            f.sync_data()
        })();
        match res {
            Ok(()) => {
                self.durable_len += frame.len() as u64;
                self.next_seq = seq + 1;
                Ok(seq)
            }
            Err(e) => {
                // Clear any torn bytes so later appends (after the disk
                // recovers) continue from an intact prefix.
                if let Ok(f) = std::fs::OpenOptions::new().write(true).open(&self.path) {
                    let _ = f.set_len(self.durable_len);
                }
                Err(e)
            }
        }
    }

    /// Forcibly truncates the journal back to `len` (a durable prefix
    /// captured earlier via [`Journal::durable_len`]). Last-resort
    /// consistency: when a journaled op could not execute *and* the
    /// rollback record could not be appended (the disk is failing),
    /// physically removing the op record keeps replay honest — shrinking
    /// a file needs no free space, so this works even under ENOSPC.
    /// Sequence numbers keep advancing; replay only requires them to be
    /// monotonic, not dense.
    pub fn truncate_to(&mut self, len: u64) {
        if len >= self.durable_len {
            return;
        }
        if let Ok(f) = std::fs::OpenOptions::new().write(true).open(&self.path) {
            if f.set_len(len).is_ok() {
                self.durable_len = len;
            }
        }
    }

    /// Checkpoints the session: writes `spool` to its seq-named `.kses`
    /// (atomic), then atomically rewrites the journal as
    /// `header · create · checkpoint` — the rename is the commit point —
    /// then deletes superseded spools. Returns the new spool path.
    ///
    /// # Errors
    ///
    /// Disk failures (or injected chaos faults). Failure at any point
    /// leaves the previous journal + spool pair authoritative; a spool
    /// written before a failed journal rewrite is an orphan that recovery
    /// ignores and cleans up.
    pub fn checkpoint(
        &mut self,
        id: u64,
        spool: &[u8],
        cycles: u64,
        stalled: u64,
        pending: &[Injection],
        chaos: Option<&IoChaos>,
    ) -> std::io::Result<PathBuf> {
        let seq = self.next_seq;
        let dir = self.path.parent().unwrap_or(Path::new(".")).to_path_buf();
        let spool_file = spool_path(&dir, id, seq);
        write_checked(chaos, &spool_file, spool)?;
        let rec = JournalRecord {
            seq,
            req_id: None,
            op: JournalOp::Checkpoint {
                cycles,
                stalled,
                pending: pending.iter().map(|i| (i.cycle, i.reg.0, i.bit)).collect(),
            },
        };
        let mut bytes = self.base.clone();
        bytes.extend_from_slice(&encode_frame(&rec));
        if let Err(e) = write_checked(chaos, &self.path, &bytes) {
            let _ = std::fs::remove_file(&spool_file);
            return Err(e);
        }
        self.durable_len = bytes.len() as u64;
        self.next_seq = seq + 1;
        remove_spools_except(&dir, id, Some(seq));
        Ok(spool_file)
    }

    /// Best-effort append of a `close` record followed by deletion of the
    /// journal and every spool. If deletion fails the close record still
    /// keeps recovery from resurrecting the session.
    pub fn delete(mut self, id: u64, chaos: Option<&IoChaos>) {
        let _ = self.append(JournalOp::Close, None, chaos);
        let dir = self.path.parent().unwrap_or(Path::new(".")).to_path_buf();
        let _ = std::fs::remove_file(&self.path);
        remove_spools_except(&dir, id, None);
    }
}

/// Deletes every `session-<id>-*.kses` spool except the one named by
/// `keep` (plus any stale `.tmp` siblings).
pub fn remove_spools_except(dir: &Path, id: u64, keep: Option<u64>) {
    let prefix = format!("session-{id}-");
    let keep_name = keep.map(|seq| format!("session-{id}-{seq}.kses"));
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.starts_with(&prefix) {
            continue;
        }
        let is_spool = name.ends_with(".kses");
        let is_tmp = name.ends_with(".kses.tmp");
        if !is_spool && !is_tmp {
            continue;
        }
        if is_spool && keep_name.as_deref() == Some(name) {
            continue;
        }
        let _ = std::fs::remove_file(entry.path());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koika::tir::RegId;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("kjrn-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn create_rec() -> JournalRecord {
        JournalRecord {
            seq: 0,
            req_id: Some(99),
            op: JournalOp::Create {
                design: "collatz".into(),
                tenant: "t0".into(),
                backend: BackendKind::Cuttlesim,
                watchdog: WatchdogSpec {
                    max_cycles: Some(1000),
                    stall_cycles: None,
                    wall_ms: Some(250),
                },
            },
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip_through_a_journal_file() {
        let dir = tmpdir("roundtrip");
        let mut j = Journal::create(&dir, 7, &create_rec(), None).unwrap();
        j.append(JournalOp::Step { n: 10 }, Some(1), None).unwrap();
        j.append(
            JournalOp::Inject {
                cycle: 12,
                reg: 0,
                bit: 3,
            },
            None,
            None,
        )
        .unwrap();
        j.append(JournalOp::Rollback { of_seq: 1 }, None, None).unwrap();
        let parsed = read_journal(&journal_path(&dir, 7)).unwrap();
        assert_eq!(parsed.session_id, 7);
        assert!(!parsed.truncated);
        assert_eq!(parsed.records.len(), 4);
        assert_eq!(parsed.records[0], create_rec());
        assert_eq!(parsed.records[1].op, JournalOp::Step { n: 10 });
        assert_eq!(parsed.records[1].req_id, Some(1));
        assert_eq!(
            parsed.records[3].op,
            JournalOp::Rollback { of_seq: 1 }
        );
        assert_eq!(parsed.durable_len, std::fs::metadata(journal_path(&dir, 7)).unwrap().len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_without_losing_the_prefix() {
        let dir = tmpdir("torn");
        let mut j = Journal::create(&dir, 1, &create_rec(), None).unwrap();
        j.append(JournalOp::Step { n: 5 }, None, None).unwrap();
        let path = journal_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let durable = bytes.len();
        // Simulate a crash mid-append: half a record's worth of garbage.
        bytes.extend_from_slice(&[0xAB; 7]);
        std::fs::write(&path, &bytes).unwrap();
        let parsed = read_journal(&path).unwrap();
        assert!(parsed.truncated);
        assert_eq!(parsed.durable_len, durable as u64);
        assert_eq!(parsed.records.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_prefix_of_a_journal_parses_to_a_record_prefix() {
        let dir = tmpdir("prefix");
        let mut j = Journal::create(&dir, 3, &create_rec(), None).unwrap();
        j.append(JournalOp::Step { n: 4 }, Some(2), None).unwrap();
        j.append(
            JournalOp::Restore {
                ksnap: vec![9; 33],
            },
            None,
            None,
        )
        .unwrap();
        j.append(JournalOp::Close, None, None).unwrap();
        let bytes = std::fs::read(journal_path(&dir, 3)).unwrap();
        let full = parse_journal_bytes(&bytes).unwrap().records;
        for cut in 0..bytes.len() {
            match parse_journal_bytes(&bytes[..cut]) {
                Err(_) => assert!(cut < 16, "typed error past the header at {cut}"),
                Ok(p) => {
                    assert!(p.records.len() <= full.len());
                    assert_eq!(p.records[..], full[..p.records.len()], "cut at {cut}");
                    assert!(p.durable_len <= cut as u64);
                    // Anything dropped must be flagged.
                    assert_eq!(p.truncated, p.durable_len < cut as u64);
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_append_truncates_back_to_the_durable_prefix() {
        use crate::chaos::{IoChaos, IoFault};
        let dir = tmpdir("failapp");
        let mut j = Journal::create(&dir, 4, &create_rec(), None).unwrap();
        j.append(JournalOp::Step { n: 2 }, None, None).unwrap();
        let before = std::fs::metadata(journal_path(&dir, 4)).unwrap().len();
        let chaos = IoChaos::forced(IoFault::TornWrite);
        let err = j
            .append(JournalOp::Step { n: 3 }, None, Some(&chaos))
            .unwrap_err();
        assert!(err.to_string().starts_with("chaos:"));
        assert_eq!(std::fs::metadata(journal_path(&dir, 4)).unwrap().len(), before);
        chaos.clear_forced();
        // The disk "recovered": the next append lands cleanly.
        j.append(JournalOp::Step { n: 3 }, None, Some(&chaos)).unwrap();
        let parsed = read_journal(&journal_path(&dir, 4)).unwrap();
        assert!(!parsed.truncated);
        assert_eq!(parsed.records.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_rewrites_journal_and_prunes_spools() {
        let dir = tmpdir("ckpt");
        let mut j = Journal::create(&dir, 9, &create_rec(), None).unwrap();
        j.append(JournalOp::Step { n: 10 }, None, None).unwrap();
        let inj = Injection {
            cycle: 40,
            reg: RegId(1),
            bit: 2,
        };
        let p1 = j.checkpoint(9, b"SPOOL-A", 10, 3, &[inj], None).unwrap();
        assert!(p1.exists());
        j.append(JournalOp::Step { n: 7 }, None, None).unwrap();
        let p2 = j.checkpoint(9, b"SPOOL-B", 17, 0, &[], None).unwrap();
        assert!(!p1.exists(), "superseded spool must be pruned");
        assert_eq!(std::fs::read(&p2).unwrap(), b"SPOOL-B");
        let parsed = read_journal(&journal_path(&dir, 9)).unwrap();
        assert_eq!(parsed.records.len(), 2, "create + checkpoint only");
        assert_eq!(parsed.records[0], create_rec());
        match &parsed.records[1].op {
            JournalOp::Checkpoint {
                cycles, pending, ..
            } => {
                assert_eq!(*cycles, 17);
                assert!(pending.is_empty());
                assert_eq!(spool_path(&dir, 9, parsed.records[1].seq), p2);
            }
            other => panic!("expected checkpoint, got {other:?}"),
        }
        // Appends continue with monotonic seqs after the rewrite.
        let seq = j.append(JournalOp::Step { n: 1 }, None, None).unwrap();
        assert!(seq > parsed.records[1].seq);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_checkpoint_leaves_previous_pair_authoritative() {
        use crate::chaos::{IoChaos, IoFault};
        let dir = tmpdir("ckptfail");
        let mut j = Journal::create(&dir, 2, &create_rec(), None).unwrap();
        let p1 = j.checkpoint(2, b"GOOD", 5, 0, &[], None).unwrap();
        j.append(JournalOp::Step { n: 1 }, None, None).unwrap();
        let before = std::fs::read(journal_path(&dir, 2)).unwrap();
        let chaos = IoChaos::forced(IoFault::Enospc);
        assert!(j.checkpoint(2, b"NEW", 6, 0, &[], Some(&chaos)).is_err());
        assert_eq!(std::fs::read(journal_path(&dir, 2)).unwrap(), before);
        assert_eq!(std::fs::read(&p1).unwrap(), b"GOOD");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
