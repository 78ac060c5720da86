//! Sessions as data: the session table, the eviction spool, and the
//! compiled-engine pools.
//!
//! A session is **not** a live simulator. Its canonical state is a
//! [`StateImage`] (registers plus each device's state) — pure data. Each
//! `step` request checks a compiled engine out of a per-design pool,
//! applies the image to it and to freshly built devices, runs, and
//! captures a fresh image back. This is what makes the
//! robustness features cheap:
//!
//! * **eviction** just writes the data to a spool file and drops it from
//!   memory — there is no thread to park or engine to keep warm;
//! * **panic containment** never leaves a half-mutated session behind —
//!   the commit happens only after a step fully succeeds, so a contained
//!   panic (or a retried wall trip) observes the pre-step state intact;
//! * **engine choice** is free per step: any pooled engine of the
//!   session's backend can run it, because all engines restore from and
//!   produce the same portable images.
//!
//! The armed watchdog stays in memory even while a session is evicted —
//! it is a few dozen bytes, and keeping it live (paused) is what makes
//! the wall budget exclude evicted time without any serialization of
//! [`std::time::Instant`]s.

use crate::journal::Journal;
use cuttlesim::{CompileOptions, Sim};
use koika::device::{Device, SimBackend};
use koika::fault::{ArmedWatchdog, Injection};
use koika::interp::Interp;
use koika::snapshot::StateImage;
use koika::tir::TDesign;
use std::collections::{HashMap, VecDeque};
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Resolves design names for `create` requests and builds their devices.
///
/// The server is design-agnostic: the embedder (the CLI with its bundled
/// designs, a test with a deliberately poisoned device) decides what a
/// name means. Names are opaque to the server, so a provider is free to
/// encode a workload in them (the CLI accepts `rv32i+primes:8`).
pub trait DesignProvider: Send + Sync {
    /// The typed design a name refers to, or `None` for unknown names.
    fn design(&self, name: &str) -> Option<Arc<TDesign>>;

    /// Fresh device instances for a new step of a session of this design.
    ///
    /// Called once per step (device state is carried between steps in
    /// the session's [`StateImage`]), so this must be cheap and
    /// deterministic.
    fn devices(&self, name: &str, td: &TDesign) -> Vec<Box<dyn Device + Send>>;
}

/// Which engine a session steps on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The reference interpreter — always available, any register width.
    Interp,
    /// The optimized Cuttlesim VM (requires registers ≤ 64 bits).
    Cuttlesim,
}

impl BackendKind {
    /// Parses the protocol's `backend` field.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "interp" => Some(BackendKind::Interp),
            "cuttlesim" => Some(BackendKind::Cuttlesim),
            _ => None,
        }
    }

    /// The protocol name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Interp => "interp",
            BackendKind::Cuttlesim => "cuttlesim",
        }
    }
}

/// A session's idempotency window: the most recent client-supplied
/// `req_id`s and the reply each one produced. A client that lost its
/// connection mid-request re-submits with the same `req_id` and receives
/// the cached reply instead of applying the op twice (at-most-once).
pub type ReqWindow = VecDeque<(u64, String)>;

/// Bound on entries kept per session in a [`ReqWindow`].
pub const REQ_WINDOW: usize = 32;

/// The cached reply for a previously applied `req_id`, if any.
pub fn req_cached(win: &ReqWindow, req_id: u64) -> Option<String> {
    win.iter()
        .find(|(id, _)| *id == req_id)
        .map(|(_, reply)| reply.clone())
}

/// Caches a reply under `req_id`, evicting the oldest entry past the
/// window bound.
pub fn req_store(win: &mut ReqWindow, req_id: u64, reply: String) {
    req_store_bounded(win, req_id, reply, REQ_WINDOW);
}

/// [`req_store`] with an explicit bound (the server-wide `create` window
/// is larger than a per-session one).
pub fn req_store_bounded(win: &mut ReqWindow, req_id: u64, reply: String, cap: usize) {
    win.retain(|(id, _)| *id != req_id);
    win.push_back((req_id, reply));
    while win.len() > cap {
        win.pop_front();
    }
}

/// The in-memory body of a resident (non-evicted) session.
pub struct SessionBody {
    /// Provider key this session was created from (may encode a workload).
    pub design_name: String,
    /// The checked design.
    pub td: Arc<TDesign>,
    /// Scalar engine choice.
    pub backend: BackendKind,
    /// Canonical state (registers and devices) at the current cycle
    /// boundary.
    pub image: StateImage,
    /// Armed budgets; paused whenever the session is not actively stepping.
    pub watchdog: Option<ArmedWatchdog>,
    /// Injections waiting for their cycle to come up.
    pub pending: Vec<Injection>,
    /// Owning tenant, for metrics attribution.
    pub tenant: String,
    /// Last time any request touched this session (drives idle eviction).
    pub last_touch: Instant,
    /// Write-ahead journal when the server runs durably (`--state-dir`);
    /// `None` otherwise. Travels with the session through eviction,
    /// step checkout, and rehydration.
    pub journal: Option<Journal>,
    /// Recently applied `req_id`s and their replies (idempotent
    /// re-submission after a disconnect).
    pub recent: ReqWindow,
}

/// The spilled remainder of an evicted session: everything that is cheap
/// to keep in memory. The heavy state (the state image) lives in the
/// spool file at `path`.
pub struct EvictedStub {
    /// See [`SessionBody::design_name`].
    pub design_name: String,
    /// See [`SessionBody::td`].
    pub td: Arc<TDesign>,
    /// See [`SessionBody::backend`].
    pub backend: BackendKind,
    /// See [`SessionBody::tenant`].
    pub tenant: String,
    /// The paused watchdog — kept live so evicted time never counts
    /// against the wall budget.
    pub watchdog: Option<ArmedWatchdog>,
    /// See [`SessionBody::pending`].
    pub pending: Vec<Injection>,
    /// Cycle count at eviction time, so `inject` can validate cycles
    /// without rehydrating.
    pub cycles: u64,
    /// Spool file holding the state image.
    pub path: PathBuf,
    /// See [`SessionBody::journal`].
    pub journal: Option<Journal>,
    /// See [`SessionBody::recent`].
    pub recent: ReqWindow,
}

/// One slot in the session table.
pub enum SessionSlot {
    /// Resident in memory.
    Live(Box<SessionBody>),
    /// Spilled to the spool; rehydrated on next touch.
    Evicted(Box<EvictedStub>),
    /// Checked out into the step queue; concurrent requests get a
    /// `session-busy` reply instead of racing.
    Running { tenant: String },
}

/// The bounded session table. All access is behind the server's mutex;
/// operations here are pure data structure manipulation.
#[derive(Default)]
pub struct SessionTable {
    slots: HashMap<u64, SessionSlot>,
}

impl SessionTable {
    /// Number of sessions resident (live, evicted, or running).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no sessions exist.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Inserts a new session; the caller has already enforced the bound.
    pub fn insert(&mut self, id: u64, body: Box<SessionBody>) {
        self.slots.insert(id, SessionSlot::Live(body));
    }

    /// Removes a session in any state, returning it.
    pub fn remove(&mut self, id: u64) -> Option<SessionSlot> {
        self.slots.remove(&id)
    }

    /// Direct access to a slot.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut SessionSlot> {
        self.slots.get_mut(&id)
    }

    /// Replaces a slot wholesale (used to check sessions in and out).
    pub fn put(&mut self, id: u64, slot: SessionSlot) {
        self.slots.insert(id, slot);
    }

    /// Ids of live sessions idle longer than `idle` as of `now`.
    pub fn idle_candidates(&self, now: Instant, idle: std::time::Duration) -> Vec<u64> {
        self.slots
            .iter()
            .filter_map(|(&id, slot)| match slot {
                SessionSlot::Live(b) if now.duration_since(b.last_touch) >= idle => Some(id),
                _ => None,
            })
            .collect()
    }

    /// Ids of every session, in ascending order (deterministic iteration
    /// for drain).
    pub fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.slots.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

/// Writes a session's state image to its spool file, crash-atomically
/// (temp + fsync + rename): a crash mid-evict leaves either no spool or
/// the complete previous one, never a torn image that would poison
/// rehydration.
pub fn spill(body: &SessionBody, path: &Path) -> std::io::Result<()> {
    koika::snapshot::write_atomic(path, &body.image.to_bytes())
}

/// Reads a spool file back. Spools of older builds are refused. When `keep` is false (a plain eviction
/// spool) the file is removed on success; durable servers pass `true`
/// because the file doubles as the journal's checkpoint base and must
/// survive until the next checkpoint supersedes it.
pub fn unspill(path: &Path, keep: bool) -> Result<StateImage, String> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| format!("reading spool file {}: {e}", path.display()))?;
    let parsed = StateImage::from_bytes(&bytes)
        .map_err(|e| format!("spool file {}: {e}", path.display()))?;
    if !keep {
        let _ = std::fs::remove_file(path);
    }
    Ok(parsed)
}

/// One prepared engine per design and backend. Compiling a design is the
/// expensive part of a step; each step instead gets a copy of the
/// reset-state prototype compiled the first time the design ran. Engines
/// carry no session state — each step restores a snapshot before running
/// — so a step that panics drops only its own copy.
#[derive(Default)]
pub struct EnginePool {
    vms: HashMap<String, Sim>,
}

impl EnginePool {
    /// A fresh scalar engine for a design, compiled on first use.
    ///
    /// # Errors
    ///
    /// Compilation errors, e.g. a >64-bit register on the Cuttlesim
    /// backend.
    pub fn scalar(
        &mut self,
        name: &str,
        td: &TDesign,
        kind: BackendKind,
    ) -> Result<Box<dyn SimBackend + Send>, String> {
        match kind {
            BackendKind::Interp => Ok(Box::new(Interp::new(td))),
            BackendKind::Cuttlesim => {
                if !self.vms.contains_key(name) {
                    let sim = Sim::compile_with(td, &CompileOptions::default())
                        .map_err(|e| format!("cuttlesim compile error: {e}"))?;
                    self.vms.insert(name.to_string(), sim);
                }
                Ok(Box::new(self.vms[name].clone()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn req_window_caches_and_evicts_oldest() {
        let mut win = ReqWindow::new();
        req_store(&mut win, 1, "a".into());
        req_store(&mut win, 1, "a2".into());
        assert_eq!(req_cached(&win, 1).as_deref(), Some("a2"));
        for i in 2..=(REQ_WINDOW as u64 + 1) {
            req_store(&mut win, i, format!("r{i}"));
        }
        assert_eq!(win.len(), REQ_WINDOW);
        assert_eq!(req_cached(&win, 1), None, "oldest entry evicted");
        assert!(req_cached(&win, REQ_WINDOW as u64 + 1).is_some());
    }
}
