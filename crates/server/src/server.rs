//! The TCP front end: wire protocol, admission control, the step
//! dispatcher, and graceful drain.
//!
//! # Wire protocol
//!
//! Line-oriented JSON over TCP: the client sends one request object per
//! line, the server answers with exactly one reply object per line, in
//! order. Every reply carries `"ok":true` or `"ok":false` plus an
//! `"error"` kind and human-readable `"detail"`. Requests:
//!
//! | op             | fields                                         | reply extras |
//! |----------------|------------------------------------------------|--------------|
//! | `create`       | `design`, opt `tenant`/`backend`/`watchdog`    | `session`, `backend`, `cycles` |
//! | `step`         | `session`, opt `n` (default 1)                 | `cycles`, `fired` |
//! | `stream-trace` | `session`, opt `n`                             | `cycles`, `fired`, `events`, `truncated` |
//! | `inject`       | `session`, `cycle`, `reg`, `bit`               | `pending` |
//! | `snapshot`     | `session`                                      | `cycles`, `ksnap` (hex state image) |
//! | `restore`      | `session`, `ksnap` (hex)                       | `cycles` |
//! | `query-regs`   | `session`, opt `regs` (names)                  | `cycles`, `regs` |
//! | `evict`        | `session`                                      | `evicted` |
//! | `close`        | `session`                                      | `closed` |
//! | `metrics`      | opt `format` (`json`/`prometheus`)             | `metrics` or `prometheus` |
//! | `ping`         |                                                | `pong` |
//! | `shutdown`     |                                                | `draining` |
//!
//! `watchdog` on `create` is `{"max_cycles":N,"stall_cycles":N,
//! "wall_ms":N}`, all optional. Error kinds: `protocol`, `unknown-op`,
//! `unknown-design`, `unknown-session`, `session-busy`, `busy`,
//! `backend`, `watchdog` (with `kind` and `cycle`), `panic`,
//! `bad-snapshot`, `read-only`, `internal`.
//!
//! Replies contain no wall-clock data, so a scripted client driving a
//! fresh server produces byte-identical transcripts run after run — the
//! CI smoke test relies on this.
//!
//! # Durability (`--state-dir`)
//!
//! With [`ServerConfig::state_dir`] set, every state-mutating op
//! (`create`, `step`, `stream-trace`, `inject`, `restore`) is appended to
//! the session's write-ahead journal ([`crate::journal`]) **before** it
//! executes. A restart with the same directory — graceful or `kill -9` —
//! rebuilds the session table by loading each session's newest checkpoint
//! spool and re-executing its journal tail; recovered registers and
//! commit fingerprints are byte-identical to an uninterrupted run.
//! Replay is trustworthy because it runs the live code: each journaled
//! op has one `apply` function (`apply_step`, `apply_inject`,
//! `apply_restore`) that changes the session and builds the reply, and
//! the live op calls it after its journal append just as recovery calls
//! it per record. A fresh session and its `create` reply are likewise
//! built in one place.
//!
//! The mutating ops additionally accept an optional client-chosen
//! `req_id` (u64): re-submitting a request with a `req_id` seen before
//! returns the cached reply instead of applying the op twice
//! (at-most-once across reconnects and crashes, within a bounded window).
//! A reply is cached if and only if the journal keeps a record with that
//! `req_id` that was not rolled back: committed ops and deterministic
//! watchdog trips are cached, while a wall trip or an internal failure
//! commits nothing, is rolled back, and is safe to retry. One difference
//! survives a crash: the journal does not record tracing, so a
//! `stream-trace` re-submitted after recovery gets the plain `step` reply,
//! without `events` and `truncated`.
//!
//! When the state directory becomes unwritable the server degrades to a
//! typed `read-only` error for mutating ops — reads still work — and
//! heals automatically once a probe write succeeds.

use crate::chaos::IoChaos;
use crate::journal::{self, Journal, JournalOp, JournalRecord, WatchdogSpec};
use crate::json::{self, Json};
use crate::metrics::ServerMetrics;
use crate::session::{
    req_cached, req_store, req_store_bounded, spill, unspill, BackendKind, DesignProvider,
    EnginePool, EvictedStub, ReqWindow, SessionBody, SessionSlot, SessionTable,
};
use koika::fault::{run_watchdogged, ArmedWatchdog, Injection, TripKind, Watchdog, WatchdogTrip};
use koika::obs::Observer;
use koika::runner::{contain, run_jobs, JobError, RunnerConfig};
use koika::interp::Interp;
use koika::snapshot::StateImage;
use koika::tir::{RegId, TDesign};
use std::collections::HashSet;
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Bound on entries in the server-wide `create` idempotency window (it
/// serves every tenant, unlike the per-session windows).
const CREATE_WINDOW: usize = 1024;

/// Tuning knobs for one server instance. `Default` is sized for the
/// `server_bench` load profile (tens of thousands of sessions).
#[derive(Clone)]
pub struct ServerConfig {
    /// Admission bound: `create` beyond this many resident sessions is
    /// shed with a `busy` reply.
    pub max_sessions: usize,
    /// Bound on queued step requests; `step` beyond it is shed with
    /// `busy`.
    pub queue_depth: usize,
    /// Worker pool configuration for step execution (also supplies the
    /// deterministic retry-backoff jitter seed).
    pub runner: RunnerConfig,
    /// Budgets applied to sessions that do not request their own.
    pub default_watchdog: Watchdog,
    /// Directory for eviction spool files.
    pub spool_dir: PathBuf,
    /// Evict sessions idle longer than this (checked by the accept
    /// loop). `None` disables automatic eviction; explicit `evict`
    /// requests always work.
    pub idle_evict: Option<Duration>,
    /// Largest `n` accepted by a single `step`.
    pub max_step: u64,
    /// Cap on events returned by one `stream-trace`.
    pub max_trace: usize,
    /// Durable state directory. `Some` turns on write-ahead journaling,
    /// crash recovery on startup, and read-only degradation; it also
    /// overrides `spool_dir` so journals and checkpoint spools share one
    /// directory. `None` (the default) keeps the server purely in-memory.
    pub state_dir: Option<PathBuf>,
    /// Auto-checkpoint a durable session once its journal exceeds this
    /// many bytes (bounds replay time after a crash).
    pub journal_checkpoint_bytes: u64,
    /// Seeded io fault injector consulted by every durable write; `None`
    /// disables chaos instrumentation entirely.
    pub chaos: Option<Arc<IoChaos>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let jobs = thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8);
        ServerConfig {
            max_sessions: 16384,
            queue_depth: 1024,
            runner: RunnerConfig {
                jobs,
                ..RunnerConfig::default()
            },
            default_watchdog: Watchdog::default(),
            spool_dir: std::env::temp_dir()
                .join(format!("koika-server-spool-{}", std::process::id())),
            idle_evict: None,
            max_step: 1_000_000,
            max_trace: 4096,
            state_dir: None,
            journal_checkpoint_bytes: 64 * 1024,
            chaos: None,
        }
    }
}

/// Final statistics returned by [`ServerHandle::join`] after drain.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Total request lines received.
    pub requests: u64,
    /// Lines that failed to parse or named an unknown op.
    pub protocol_errors: u64,
    /// Live sessions spilled to the spool directory during drain.
    pub sessions_spilled: u64,
    /// Panics contained over the server's lifetime (sum over tenants).
    pub panics_contained: u64,
    /// Sessions rebuilt by journal replay at startup (sum over tenants).
    pub sessions_recovered: u64,
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] / [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: thread::JoinHandle<ServerStats>,
    recovered: u64,
    lost: u64,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sessions recovered from the state directory during startup.
    pub fn recovered_sessions(&self) -> u64 {
        self.recovered
    }

    /// Journals found at startup that were too damaged to recover (each
    /// one was renamed `*.corrupt` and its session dropped).
    pub fn lost_sessions(&self) -> u64 {
        self.lost
    }

    /// Requests a graceful drain, as if a client had sent `shutdown`.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Shuts down (if not already draining) and waits for the drain to
    /// finish.
    pub fn join(self) -> ServerStats {
        self.shutdown();
        self.thread.join().unwrap_or_default()
    }

    /// Stops the server **without** draining: no spilling, no journal
    /// closes — the in-process analog of `kill -9` for recovery tests and
    /// the chaos bench. Durable state is whatever the write-ahead
    /// discipline already put on disk.
    pub fn abort(self) -> ServerStats {
        self.shared.abort.store(true, Ordering::SeqCst);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.thread.join().unwrap_or_default()
    }

    /// Waits for the server to drain without requesting a shutdown —
    /// the drain comes from a client `shutdown` op or a concurrent
    /// [`ServerHandle::shutdown`]. This is what `koika-sim --serve`
    /// blocks on.
    pub fn wait(self) -> ServerStats {
        self.thread.join().unwrap_or_default()
    }
}

/// Binds `addr` and serves on background threads until `shutdown`.
///
/// # Errors
///
/// Socket bind / spool directory creation failures.
pub fn spawn(
    cfg: ServerConfig,
    provider: Arc<dyn DesignProvider>,
    addr: &str,
) -> std::io::Result<ServerHandle> {
    let mut cfg = cfg;
    if let Some(dir) = &cfg.state_dir {
        // Journals and checkpoint spools share the durable directory.
        cfg.spool_dir = dir.clone();
    }
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    std::fs::create_dir_all(&cfg.spool_dir)?;
    let local = listener.local_addr()?;
    let (tx, rx) = mpsc::sync_channel::<StepTask>(cfg.queue_depth.max(1));
    let shared = Arc::new(Shared {
        cfg,
        provider,
        table: Mutex::new(SessionTable::default()),
        pool: Mutex::new(EnginePool::default()),
        metrics: Mutex::new(ServerMetrics::default()),
        shutdown: AtomicBool::new(false),
        abort: AtomicBool::new(false),
        degraded: AtomicBool::new(false),
        next_id: AtomicU64::new(1),
        create_reqs: Mutex::new(ReqWindow::new()),
    });
    // Recovery runs synchronously before any request can arrive, so
    // clients reconnecting after a crash always see the recovered table.
    let (recovered, lost) = recover_state(&shared);
    let orchestrator = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("koika-server".into())
            .spawn(move || orchestrate(shared, listener, tx, rx))?
    };
    Ok(ServerHandle {
        addr: local,
        shared,
        thread: orchestrator,
        recovered,
        lost,
    })
}

/// State shared by every server thread.
struct Shared {
    cfg: ServerConfig,
    provider: Arc<dyn DesignProvider>,
    table: Mutex<SessionTable>,
    pool: Mutex<EnginePool>,
    metrics: Mutex<ServerMetrics>,
    shutdown: AtomicBool,
    /// Hard-stop flag: skip the drain entirely (see [`ServerHandle::abort`]).
    abort: AtomicBool,
    /// Set when a durable write fails; mutating ops answer `read-only`
    /// until a probe write to the state directory succeeds again.
    degraded: AtomicBool,
    next_id: AtomicU64,
    /// Server-wide `create` idempotency window (`create` has no session
    /// to hang a per-session window off).
    create_reqs: Mutex<ReqWindow>,
}

impl Shared {
    fn spool_path(&self, id: u64) -> PathBuf {
        self.cfg.spool_dir.join(format!("session-{id}.kses"))
    }

    /// The durable state directory, when journaling is on.
    fn durable_dir(&self) -> Option<&Path> {
        self.cfg.state_dir.as_deref()
    }

    /// The chaos hook to thread into durable writes.
    fn chaos(&self) -> Option<&IoChaos> {
        self.cfg.chaos.as_deref()
    }

    /// Records a failed durable write: degrade to read-only, and count
    /// injected faults (error messages starting `"chaos:"`) against the
    /// tenant whose write absorbed them.
    fn note_write_failure(&self, tenant: &str, msg: &str) {
        if msg.starts_with("chaos:") {
            lock(&self.metrics).tenant(tenant).chaos_faults += 1;
        }
        self.degraded.store(true, Ordering::SeqCst);
    }
}

/// Gate for mutating ops on a durable server: while degraded, probes the
/// state directory and keeps answering the typed `read-only` error until
/// a probe write lands (the disk "recovered"). `None` means proceed.
fn read_only_guard(shared: &Shared) -> Option<String> {
    let dir = shared.durable_dir()?;
    if !shared.degraded.load(Ordering::SeqCst) {
        return None;
    }
    match journal::write_checked(shared.chaos(), &dir.join(".probe"), b"koika-probe") {
        Ok(()) => {
            shared.degraded.store(false, Ordering::SeqCst);
            None
        }
        Err(e) => Some(err_reply(
            "read-only",
            &format!("state directory unwritable ({e}); mutating ops are rejected until it recovers"),
        )),
    }
}

/// Checkpoints a durable session: spool + journal rewrite (see
/// [`Journal::checkpoint`]). Returns the new spool path, or `Ok(None)`
/// for non-durable sessions.
fn checkpoint_body(
    shared: &Shared,
    id: u64,
    body: &mut SessionBody,
) -> std::io::Result<Option<PathBuf>> {
    let bytes = body.image.to_bytes();
    let cycles = body.image.snap.cycles;
    let stalled = body.watchdog.as_ref().map(ArmedWatchdog::stall_count).unwrap_or(0);
    let pending = body.pending.clone();
    let Some(j) = body.journal.as_mut() else {
        return Ok(None);
    };
    j.checkpoint(id, &bytes, cycles, stalled, &pending, shared.chaos()).map(Some)
}

/// Mutex lock that shrugs off poisoning: a contained panic must never
/// take the whole server down with a poisoned lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Step tasks and reply formats
// ---------------------------------------------------------------------------

/// A checked-out `step` / `stream-trace` request travelling through the
/// dispatcher. The session body rides along; its slot in the table says
/// `Running` until the task is checked back in.
struct StepTask {
    id: u64,
    n: u64,
    trace: bool,
    body: Box<SessionBody>,
    start_cycles: u64,
    reply: Sender<String>,
    verdict: Option<Applied>,
    last_trip: Option<WatchdogTrip>,
    /// `(seq, pre-append durable length)` of the journaled `step` record
    /// (durable sessions only); rolled back — or, if even the rollback
    /// cannot be written, physically truncated — when the step turns out
    /// to commit nothing.
    journal_seq: Option<(u64, u64)>,
    /// Client idempotency token, cached with the reply on commit.
    req_id: Option<u64>,
}

fn trip_kind_label(kind: TripKind) -> &'static str {
    match kind {
        TripKind::Stall => "stall",
        TripKind::CycleBudget => "cycle-budget",
        TripKind::Wall => "wall",
    }
}

fn err_reply(kind: &str, detail: &str) -> String {
    format!(
        "{{\"ok\":false,\"error\":\"{kind}\",\"detail\":\"{}\"}}",
        json::escape(detail)
    )
}

/// The reply to a step that a watchdog budget stopped.
fn trip_reply(trip: &WatchdogTrip) -> String {
    format!(
        "{{\"ok\":false,\"error\":\"watchdog\",\"kind\":\"{}\",\"cycle\":{},\"detail\":\"{}\"}}",
        trip_kind_label(trip.kind),
        trip.cycle,
        json::escape(&trip.reason)
    )
}

/// The reply to a `create`, live or rebuilt by recovery.
fn created_reply(id: u64, design: &str, backend: BackendKind) -> String {
    format!(
        "{{\"ok\":true,\"session\":{id},\"design\":\"{}\",\"backend\":\"{}\",\"cycles\":0}}",
        json::escape(design),
        backend.name()
    )
}

// ---------------------------------------------------------------------------
// Applying journaled ops
// ---------------------------------------------------------------------------

/// What applying one journaled op did to a session.
enum Applied {
    /// The op committed in full; carries its success reply.
    Done(String),
    /// A deterministic watchdog budget tripped; progress up to the trip
    /// boundary committed. The session stays usable.
    Trip(WatchdogTrip),
    /// The wall budget tripped (live steps only: replay runs no wall
    /// budget). Nothing committed.
    Wall(WatchdogTrip),
    /// A deterministic failure (engine compile, state or device restore,
    /// a snapshot that no longer fits the design). Nothing committed.
    Failed(String),
}

impl Applied {
    /// Whether the op changed the session. Exactly then does the journal
    /// keep its record; every other outcome is rolled back.
    fn committed(&self) -> bool {
        matches!(self, Applied::Done(_) | Applied::Trip(_))
    }

    /// The reply line. The one caching rule lives here: a reply is cached
    /// under its `req_id` if and only if the op committed, so a
    /// re-submission is answered from the window exactly when the journal
    /// keeps a record of it, and retried otherwise.
    fn answer(self, recent: &mut ReqWindow, req_id: Option<u64>) -> String {
        let committed = self.committed();
        let reply = match self {
            Applied::Done(reply) => reply,
            Applied::Trip(trip) | Applied::Wall(trip) => trip_reply(&trip),
            Applied::Failed(msg) => err_reply("internal", &msg),
        };
        if let (true, Some(rid)) = (committed, req_id) {
            req_store(recent, rid, reply.clone());
        }
        reply
    }
}

/// Applies one journal record to a session during replay; `None` for
/// records that change no session state (create, checkpoint, rollback,
/// close).
fn apply(shared: &Shared, id: u64, body: &mut SessionBody, op: &JournalOp) -> Option<Applied> {
    match op {
        JournalOp::Step { n } => Some(apply_step(shared, id, body, *n, false)),
        JournalOp::Inject { cycle, reg, bit } => {
            let inj = Injection {
                cycle: *cycle,
                reg: RegId(*reg),
                bit: *bit,
            };
            Some(apply_inject(id, &mut body.pending, inj))
        }
        JournalOp::Restore { ksnap } => Some(apply_restore(id, body, restorable(shared, body, ksnap))),
        JournalOp::Create { .. }
        | JournalOp::Checkpoint { .. }
        | JournalOp::Rollback { .. }
        | JournalOp::Close => None,
    }
}

/// Queues an injection. It takes only the pending queue, which an
/// evicted stub keeps in memory too, so `inject` never rehydrates.
fn apply_inject(id: u64, pending: &mut Vec<Injection>, inj: Injection) -> Applied {
    pending.push(inj);
    let count = pending.len();
    Applied::Done(format!("{{\"ok\":true,\"session\":{id},\"pending\":{count}}}"))
}

/// Restores a session to a `.ksnap` state image. The live op vets the
/// bytes ([`restorable`]) before journaling them; replay vets them again
/// because the design may have changed across the restart.
fn apply_restore(id: u64, body: &mut SessionBody, image: Result<StateImage, String>) -> Applied {
    match image {
        Ok(image) => body.image = image,
        Err(msg) => return Applied::Failed(msg),
    }
    let done = body.image.snap.cycles;
    body.pending.retain(|i| i.cycle >= done);
    Applied::Done(format!("{{\"ok\":true,\"session\":{id},\"cycles\":{done}}}"))
}

/// Parses `.ksnap` bytes into an image that fits the session: it applies
/// to a fresh interpreter of the session's design and to fresh devices.
/// Devices run embedder code, so one that panics on its state refuses it.
fn restorable(shared: &Shared, body: &SessionBody, ksnap: &[u8]) -> Result<StateImage, String> {
    let image = StateImage::from_bytes(ksnap).map_err(|e| e.to_string())?;
    contain(|| {
        let mut devices = shared.provider.devices(&body.design_name, &body.td);
        image.apply(&mut Interp::new(&body.td), &mut devices).map_err(|e| e.to_string())
    })??;
    Ok(image)
}

/// Collects committed rules per cycle for `stream-trace`.
struct TraceObs {
    cur: u64,
    cap: usize,
    events: Vec<(u64, usize)>,
    truncated: bool,
}

impl Observer for TraceObs {
    fn cycle_start(&mut self, cycle: u64) {
        self.cur = cycle;
    }
    fn reads_reg_writes(&self) -> bool {
        false
    }
    fn rule_commit(&mut self, rule: usize) {
        if self.events.len() < self.cap {
            self.events.push((self.cur, rule));
        } else {
            self.truncated = true;
        }
    }
}

/// Steps a session `n` cycles, tracing committed rules when `trace` is
/// set (`stream-trace`; replay never traces).
fn apply_step(shared: &Shared, id: u64, body: &mut SessionBody, n: u64, trace: bool) -> Applied {
    let mut tracer = trace.then(|| TraceObs {
        cur: body.image.snap.cycles,
        cap: shared.cfg.max_trace,
        events: Vec::new(),
        truncated: false,
    });
    let obs = tracer.as_mut().map(|t| t as &mut dyn Observer);
    match run_step(shared, body, n, obs) {
        Ok(None) => Applied::Done(step_reply(id, body, tracer)),
        Ok(Some(trip)) if trip.kind == TripKind::Wall => Applied::Wall(trip),
        Ok(Some(trip)) => Applied::Trip(trip),
        Err(msg) => Applied::Failed(msg),
    }
}

/// The reply to a step that ran to completion; `stream-trace` adds the
/// rules committed in each cycle.
fn step_reply(id: u64, body: &SessionBody, tracer: Option<TraceObs>) -> String {
    let mut reply = format!(
        "{{\"ok\":true,\"session\":{id},\"cycles\":{},\"fired\":{}",
        body.image.snap.cycles, body.image.snap.fired
    );
    if let Some(t) = tracer {
        reply.push_str(",\"events\":[");
        for (i, (cycle, rule)) in t.events.iter().enumerate() {
            if i > 0 {
                reply.push(',');
            }
            let name = body.td.rules.get(*rule).map(|r| r.name.as_str()).unwrap_or("?");
            reply.push_str(&format!(
                "{{\"cycle\":{cycle},\"rule\":\"{}\"}}",
                json::escape(name)
            ));
        }
        reply.push_str(&format!("],\"truncated\":{}", t.truncated));
    }
    reply.push('}');
    reply
}

/// Runs `n` cycles of a session on a pooled scalar engine through
/// [`run_watchdogged`], the one scalar cycle loop, so a server step is
/// the same run a library caller or the CLI would make: check an engine
/// out, apply the session's image to it and to fresh devices, run,
/// capture the new image, check the engine back in. A session without a
/// watchdog steps under an unlimited one.
///
/// Commit discipline: the session body is only mutated after the run
/// finishes (or at a deterministic trip boundary), so a panic, a wall
/// trip or an `Err` always leaves the pre-step state intact. Returns the
/// trip that stopped the run, if any.
fn run_step(
    shared: &Shared,
    body: &mut SessionBody,
    n: u64,
    obs: Option<&mut dyn Observer>,
) -> Result<Option<WatchdogTrip>, String> {
    let mut engine = lock(&shared.pool).checkout_scalar(&body.design_name, &body.td, body.backend)?;
    // Devices are built fresh each step; a provider or device that
    // panics here is contained by the caller and tears down only this
    // session (the checked-out engine unwinds with us and is simply
    // recompiled next time).
    let mut devices = shared.provider.devices(&body.design_name, &body.td);
    let ran = match body.image.apply(&mut *engine, &mut devices) {
        Err(e) => Err(format!("restoring session state: {e}")),
        Ok(()) => {
            let mut unlimited = Watchdog::default().arm();
            let wd = body.watchdog.as_mut().unwrap_or(&mut unlimited);
            wd.resume();
            let tripped = run_watchdogged(&mut *engine, &mut devices, n, &body.pending, wd, obs).err();
            wd.pause();
            // Commit, unless the wall clock tripped: deterministic trips
            // keep the progress made up to the trip boundary; full runs
            // keep everything.
            if tripped.as_ref().is_none_or(|t| t.kind != TripKind::Wall) {
                body.image = StateImage::capture(&*engine, &devices, Some(&body.image));
                let done = body.image.snap.cycles;
                body.pending.retain(|i| i.cycle >= done);
            }
            Ok(tripped)
        }
    };
    lock(&shared.pool).checkin_scalar(&body.design_name, body.backend, engine);
    ran
}

/// Runs one live step task on a worker. A wall trip returns
/// [`JobError::Transient`] after rewinding the wall budget to the step's
/// starting mark — the failed attempt consumes no budget, and the
/// runner's seeded backoff retries it.
fn run_single(task: &mut StepTask, shared: &Shared) -> Result<(), JobError> {
    let mark = task.body.watchdog.as_ref().map(ArmedWatchdog::wall_elapsed);
    match apply_step(shared, task.id, &mut task.body, task.n, task.trace) {
        Applied::Wall(trip) => {
            // Machine-dependent: forgive the wall time this attempt
            // burned and let the runner retry it.
            if let (Some(wd), Some(mark)) = (task.body.watchdog.as_mut(), mark) {
                wd.wall_rewind_to(mark);
            }
            let msg = trip.to_string();
            task.last_trip = Some(trip);
            Err(JobError::Transient(msg))
        }
        applied => {
            task.verdict = Some(applied);
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

fn dispatcher(shared: Arc<Shared>, rx: Receiver<StepTask>) {
    loop {
        let first = match rx.recv() {
            Ok(t) => t,
            Err(_) => break,
        };
        let mut tasks = vec![first];
        while let Ok(t) = rx.try_recv() {
            tasks.push(t);
        }
        execute_round(&shared, tasks);
    }
}

fn execute_round(shared: &Shared, tasks: Vec<StepTask>) {
    let slots: Vec<Mutex<StepTask>> = tasks.into_iter().map(Mutex::new).collect();
    let (reports, _) = run_jobs(
        slots.len(),
        &shared.cfg.runner,
        |i| run_single(&mut lock(&slots[i]), shared),
        None,
    );
    let mut tasks: Vec<Option<StepTask>> = slots
        .into_iter()
        .map(|m| Some(m.into_inner().unwrap_or_else(PoisonError::into_inner)))
        .collect();
    for report in reports {
        let task = tasks[report.index].take().expect("each task finishes once");
        finish_task(shared, task, report.result.err());
    }
}

/// Checks a finished step back into the table (or tears the session
/// down), updates metrics, and sends the reply line.
fn finish_task(shared: &Shared, mut task: StepTask, job_err: Option<JobError>) {
    let id = task.id;
    let tenant = task.body.tenant.clone();
    let applied = match job_err {
        Some(JobError::Panic(msg)) => {
            {
                let mut m = lock(&shared.metrics);
                let t = m.tenant(&tenant);
                t.steps += 1;
                t.panics_contained += 1;
                t.sessions_closed += 1;
            }
            // Torn down: the session's files go with it.
            if let Some(j) = task.body.journal.take() {
                j.delete(id, shared.chaos());
            }
            lock(&shared.table).remove(id);
            let _ = task
                .reply
                .send(err_reply("panic", &format!("session torn down: {msg}")));
            return;
        }
        Some(JobError::Transient(msg)) => match task.last_trip.take() {
            Some(trip) => Applied::Wall(trip),
            None => Applied::Failed(msg),
        },
        Some(JobError::Fatal(msg)) => Applied::Failed(msg),
        None => task
            .verdict
            .take()
            .unwrap_or_else(|| Applied::Failed("step produced no verdict".into())),
    };
    {
        let mut m = lock(&shared.metrics);
        let t = m.tenant(&tenant);
        t.steps += 1;
        t.cycles += task.body.image.snap.cycles.saturating_sub(task.start_cycles);
        if matches!(applied, Applied::Trip(_) | Applied::Wall(_)) {
            t.watchdog_trips += 1;
        }
    }
    // Durable bookkeeping. The journal already holds a `step n` record;
    // reconcile it with what actually committed.
    if let Some((of_seq, pre_len)) = task.journal_seq {
        if applied.committed() {
            // Deterministic replay of `step n` reproduces this state
            // exactly (deterministic trips included). Auto-checkpoint
            // once the journal has grown past the bound.
            let over = task
                .body
                .journal
                .as_ref()
                .is_some_and(|j| j.durable_len() > shared.cfg.journal_checkpoint_bytes);
            if over {
                if let Err(e) = checkpoint_body(shared, id, &mut task.body) {
                    shared.note_write_failure(&tenant, &e.to_string());
                }
            }
        } else {
            // Wall trip or deterministic failure: the journaled `step n`
            // committed nothing, so replay must skip it.
            roll_back(shared, &mut task.body, of_seq, pre_len);
        }
    }
    let reply = applied.answer(&mut task.body.recent, task.req_id);
    task.body.last_touch = Instant::now();
    lock(&shared.table).put(id, SessionSlot::Live(task.body));
    let _ = task.reply.send(reply);
}

/// Journals that the record `of_seq` committed nothing. If even that
/// append fails, truncating back to the pre-append durable length needs
/// no disk space, so the journal never keeps a `step` that did not
/// execute as written.
fn roll_back(shared: &Shared, body: &mut SessionBody, of_seq: u64, pre_len: u64) {
    let Some(j) = body.journal.as_mut() else {
        return;
    };
    if let Err(e) = j.append(JournalOp::Rollback { of_seq }, None, shared.chaos()) {
        j.truncate_to(pre_len);
        shared.note_write_failure(&body.tenant, &e.to_string());
    }
}

// ---------------------------------------------------------------------------
// Connection handling and inline ops
// ---------------------------------------------------------------------------

fn orchestrate(
    shared: Arc<Shared>,
    listener: TcpListener,
    tx: SyncSender<StepTask>,
    rx: Receiver<StepTask>,
) -> ServerStats {
    let dispatcher = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("koika-dispatch".into())
            .spawn(move || dispatcher(shared, rx))
            .expect("spawn dispatcher")
    };
    let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
    let mut last_sweep = Instant::now();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                let tx = tx.clone();
                if let Ok(h) = thread::Builder::new()
                    .name("koika-conn".into())
                    .spawn(move || handle_conn(shared, stream, tx))
                {
                    conns.push(h);
                }
                conns.retain(|h| !h.is_finished());
            }
            Err(ref e) if e.kind() == ErrorKind::WouldBlock => {
                if let Some(idle) = shared.cfg.idle_evict {
                    if last_sweep.elapsed() >= Duration::from_millis(100) {
                        last_sweep = Instant::now();
                        sweep_idle(&shared, idle);
                    }
                }
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
    drop(tx);
    for h in conns {
        let _ = h.join();
    }
    let _ = dispatcher.join();
    if shared.abort.load(Ordering::SeqCst) {
        // Hard stop: leave the table as-is — no spilling, no journal
        // closes. Recovery must work from the write-ahead state alone.
        let m = lock(&shared.metrics);
        return ServerStats {
            requests: m.requests,
            protocol_errors: m.protocol_errors,
            sessions_spilled: 0,
            panics_contained: m.tenants().map(|(_, t)| t.panics_contained).sum(),
            sessions_recovered: m.tenants().map(|(_, t)| t.recovered_sessions).sum(),
        };
    }
    drain(&shared)
}

/// Evicts every live session idle past the threshold.
fn sweep_idle(shared: &Shared, idle: Duration) {
    let ids = lock(&shared.table).idle_candidates(Instant::now(), idle);
    for id in ids {
        let _ = evict_session(shared, id);
    }
}

/// Spills remaining live sessions and collects final statistics. Durable
/// sessions checkpoint (spool + journal rewrite) so the next startup
/// recovers them without replaying a tail.
fn drain(shared: &Shared) -> ServerStats {
    let mut spilled = 0;
    {
        let mut table = lock(&shared.table);
        for id in table.ids() {
            if let Some(SessionSlot::Live(mut body)) = table.remove(id) {
                let ok = if body.journal.is_some() {
                    checkpoint_body(shared, id, &mut body).is_ok()
                } else {
                    spill(&body, &shared.spool_path(id)).is_ok()
                };
                if ok {
                    spilled += 1;
                }
            }
        }
    }
    let m = lock(&shared.metrics);
    ServerStats {
        requests: m.requests,
        protocol_errors: m.protocol_errors,
        sessions_spilled: spilled,
        panics_contained: m.tenants().map(|(_, t)| t.panics_contained).sum(),
        sessions_recovered: m.tenants().map(|(_, t)| t.recovered_sessions).sum(),
    }
}

fn handle_conn(shared: Arc<Shared>, mut stream: TcpStream, tx: SyncSender<StepTask>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => {
                buf.extend_from_slice(&chunk[..k]);
                while let Some(nl) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=nl).collect();
                    let line = String::from_utf8_lossy(&line[..nl]).into_owned();
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    let reply = handle_line(&shared, &tx, line);
                    if stream
                        .write_all(format!("{reply}\n").as_bytes())
                        .and_then(|()| stream.flush())
                        .is_err()
                    {
                        return;
                    }
                }
                if buf.len() > (1 << 20) {
                    let _ = stream.write_all(
                        format!("{}\n", err_reply("protocol", "request line exceeds 1 MiB")).as_bytes(),
                    );
                    return;
                }
            }
            Err(ref e)
                if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Parses and executes one request line, returning the reply line.
fn handle_line(shared: &Shared, tx: &SyncSender<StepTask>, line: &str) -> String {
    lock(&shared.metrics).requests += 1;
    let v = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            lock(&shared.metrics).protocol_errors += 1;
            return err_reply("protocol", &e);
        }
    };
    let Some(op) = v.get("op").and_then(Json::as_str) else {
        lock(&shared.metrics).protocol_errors += 1;
        return err_reply("protocol", "missing \"op\" field");
    };
    match op {
        "create" => op_create(shared, &v),
        "step" => op_step(shared, tx, &v, false),
        "stream-trace" => op_step(shared, tx, &v, true),
        "inject" => op_inject(shared, &v),
        "snapshot" => op_snapshot(shared, &v),
        "restore" => op_restore(shared, &v),
        "query-regs" => op_query_regs(shared, &v),
        "evict" => op_evict(shared, &v),
        "close" => op_close(shared, &v),
        "metrics" => op_metrics(shared, &v),
        "ping" => "{\"ok\":true,\"pong\":true}".into(),
        "shutdown" => {
            shared.shutdown.store(true, Ordering::SeqCst);
            "{\"ok\":true,\"draining\":true}".into()
        }
        other => {
            lock(&shared.metrics).protocol_errors += 1;
            err_reply("unknown-op", &format!("unknown op {other:?}"))
        }
    }
}

fn tenant_of(v: &Json) -> String {
    v.get("tenant")
        .and_then(Json::as_str)
        .unwrap_or("default")
        .to_string()
}

fn parse_watchdog(v: &Json) -> Option<Watchdog> {
    let w = v.get("watchdog")?;
    Some(Watchdog {
        max_cycles: w.get("max_cycles").and_then(Json::as_u64),
        stall_cycles: w.get("stall_cycles").and_then(Json::as_u64),
        wall_budget: w
            .get("wall_ms")
            .and_then(Json::as_u64)
            .map(Duration::from_millis),
    })
}

/// Arms a watchdog (paused) if any budget is configured.
fn arm_paused(cfg: &Watchdog) -> Option<ArmedWatchdog> {
    if cfg.max_cycles.is_none() && cfg.stall_cycles.is_none() && cfg.wall_budget.is_none() {
        return None;
    }
    let mut armed = cfg.arm();
    armed.pause();
    Some(armed)
}

fn op_create(shared: &Shared, v: &Json) -> String {
    let Some(design) = v.get("design").and_then(Json::as_str) else {
        return err_reply("protocol", "create requires \"design\"");
    };
    let req_id = v.get("req_id").and_then(Json::as_u64);
    if let Some(rid) = req_id {
        if let Some(cached) = req_cached(&lock(&shared.create_reqs), rid) {
            return cached;
        }
    }
    if let Some(reply) = read_only_guard(shared) {
        return reply;
    }
    let tenant = tenant_of(v);
    let Some(td) = shared.provider.design(design) else {
        return err_reply("unknown-design", &format!("unknown design {design:?}"));
    };
    let backend = match v.get("backend").and_then(Json::as_str) {
        Some(s) => match BackendKind::parse(s) {
            Some(b) => b,
            None => return err_reply("protocol", &format!("unknown backend {s:?}")),
        },
        None => {
            if td.fits_u64() {
                BackendKind::Cuttlesim
            } else {
                BackendKind::Interp
            }
        }
    };
    if backend == BackendKind::Cuttlesim && !td.fits_u64() {
        return err_reply(
            "backend",
            "the cuttlesim backend requires all registers \u{2264} 64 bits; use \"interp\"",
        );
    }
    let wd_cfg = parse_watchdog(v).unwrap_or_else(|| shared.cfg.default_watchdog.clone());
    let image = match fresh_state(shared, design, &td) {
        Ok(state) => state,
        Err(msg) => {
            let mut m = lock(&shared.metrics);
            m.tenant(&tenant).panics_contained += 1;
            return err_reply("panic", &msg);
        }
    };
    let mut body = Box::new(SessionBody {
        design_name: design.to_string(),
        td,
        backend,
        image,
        watchdog: arm_paused(&wd_cfg),
        pending: Vec::new(),
        tenant: tenant.clone(),
        last_touch: Instant::now(),
        journal: None,
        recent: ReqWindow::new(),
    });
    let id = {
        let mut table = lock(&shared.table);
        if table.len() >= shared.cfg.max_sessions {
            drop(table);
            let mut m = lock(&shared.metrics);
            m.tenant(&tenant).busy_rejections += 1;
            return err_reply("busy", "session table full");
        }
        let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
        if let Some(dir) = shared.durable_dir() {
            // Write-ahead: the journal (holding the create record) must
            // be durable before the session exists. Held under the table
            // lock so admission stays exact.
            let rec = JournalRecord {
                seq: 0,
                req_id,
                op: JournalOp::Create {
                    design: design.to_string(),
                    tenant: tenant.clone(),
                    backend,
                    watchdog: WatchdogSpec::from_watchdog(&wd_cfg),
                },
            };
            match Journal::create(dir, id, &rec, shared.chaos()) {
                Ok(j) => body.journal = Some(j),
                Err(e) => {
                    drop(table);
                    shared.note_write_failure(&tenant, &e.to_string());
                    return err_reply(
                        "read-only",
                        &format!("journaling create: {e}; the session was not created"),
                    );
                }
            }
        }
        table.insert(id, body);
        id
    };
    lock(&shared.metrics).tenant(&tenant).sessions_created += 1;
    let reply = created_reply(id, design, backend);
    if let Some(rid) = req_id {
        req_store_bounded(&mut lock(&shared.create_reqs), rid, reply.clone(), CREATE_WINDOW);
    }
    reply
}

/// A fresh session's state: a fresh interpreter's registers and the
/// devices as the provider builds them. Building devices runs embedder
/// code; it is contained so a provider that panics at construction
/// poisons nothing.
fn fresh_state(shared: &Shared, design: &str, td: &TDesign) -> Result<StateImage, String> {
    contain(|| {
        let devices = shared.provider.devices(design, td);
        StateImage::capture(&Interp::new(td), &devices, None)
    })
    .map_err(|msg| format!("device construction panicked: {msg}"))
}

fn session_id(v: &Json) -> Result<u64, String> {
    v.get("session")
        .and_then(Json::as_u64)
        .ok_or_else(|| err_reply("protocol", "missing or invalid \"session\" id"))
}

/// Rehydrates an evicted session in place. The caller holds the table
/// lock; on success the slot is `Live`.
fn rehydrate_locked(shared: &Shared, table: &mut SessionTable, id: u64) -> Result<(), String> {
    let is_evicted = matches!(table.get_mut(id), Some(SessionSlot::Evicted(_)));
    if !is_evicted {
        return Ok(());
    }
    let Some(SessionSlot::Evicted(stub)) = table.remove(id) else {
        unreachable!("checked above");
    };
    // A durable stub's spool is the journal's checkpoint base: it must
    // survive rehydration (only the next checkpoint supersedes it).
    match unspill(&stub.path, stub.journal.is_some()) {
        Ok(image) => {
            let tenant = stub.tenant.clone();
            table.put(
                id,
                SessionSlot::Live(Box::new(SessionBody {
                    design_name: stub.design_name,
                    td: stub.td,
                    backend: stub.backend,
                    image,
                    watchdog: stub.watchdog,
                    pending: stub.pending,
                    tenant: stub.tenant,
                    last_touch: Instant::now(),
                    journal: stub.journal,
                    recent: stub.recent,
                })),
            );
            lock(&shared.metrics).tenant(&tenant).rehydrations += 1;
            Ok(())
        }
        Err(e) => {
            // The spool file is gone or corrupt: the session is lost.
            lock(&shared.metrics).tenant(&stub.tenant).sessions_closed += 1;
            Err(err_reply("internal", &format!("rehydrating session {id}: {e}")))
        }
    }
}

fn op_step(shared: &Shared, tx: &SyncSender<StepTask>, v: &Json, trace: bool) -> String {
    let id = match session_id(v) {
        Ok(id) => id,
        Err(reply) => return reply,
    };
    let n = v.get("n").and_then(Json::as_u64).unwrap_or(1);
    if n > shared.cfg.max_step {
        return err_reply(
            "protocol",
            &format!("n={n} exceeds max_step={}", shared.cfg.max_step),
        );
    }
    let req_id = v.get("req_id").and_then(Json::as_u64);
    if let Some(reply) = read_only_guard(shared) {
        return reply;
    }
    // Check the session out: slot becomes Running until the dispatcher
    // checks it back in.
    let mut body = {
        let mut table = lock(&shared.table);
        // Idempotent re-submission: answer from the window without
        // touching (or even rehydrating) the session.
        if let Some(rid) = req_id {
            let cached = match table.get_mut(id) {
                Some(SessionSlot::Live(b)) => req_cached(&b.recent, rid),
                Some(SessionSlot::Evicted(s)) => req_cached(&s.recent, rid),
                _ => None,
            };
            if let Some(reply) = cached {
                return reply;
            }
        }
        if let Err(reply) = rehydrate_locked(shared, &mut table, id) {
            return reply;
        }
        match table.remove(id) {
            None => return err_reply("unknown-session", &format!("no session {id}")),
            Some(SessionSlot::Running { tenant }) => {
                table.put(id, SessionSlot::Running { tenant: tenant.clone() });
                let mut m = lock(&shared.metrics);
                m.tenant(&tenant).busy_rejections += 1;
                return err_reply("session-busy", "a step for this session is already in flight");
            }
            Some(SessionSlot::Evicted(_)) => unreachable!("rehydrated above"),
            Some(SessionSlot::Live(body)) => {
                table.put(
                    id,
                    SessionSlot::Running {
                        tenant: body.tenant.clone(),
                    },
                );
                body
            }
        }
    };
    let tenant = body.tenant.clone();
    // Write-ahead: journal the step before executing it. The slot says
    // Running, so nothing else touches the body meanwhile.
    let mut journal_seq = None;
    let mut journal_err = None;
    if let Some(j) = body.journal.as_mut() {
        let chaos = shared.cfg.chaos.as_deref();
        let pre_len = j.durable_len();
        match j.append(JournalOp::Step { n }, req_id, chaos) {
            Ok(seq) => journal_seq = Some((seq, pre_len)),
            Err(e) => journal_err = Some(e),
        }
    }
    if let Some(e) = journal_err {
        shared.note_write_failure(&tenant, &e.to_string());
        lock(&shared.table).put(id, SessionSlot::Live(body));
        return err_reply(
            "read-only",
            &format!("journaling step: {e}; the step was not applied"),
        );
    }
    let start_cycles = body.image.snap.cycles;
    let (reply_tx, reply_rx) = mpsc::channel();
    let task = StepTask {
        id,
        n,
        trace,
        body,
        start_cycles,
        reply: reply_tx,
        verdict: None,
        last_trip: None,
        journal_seq,
        req_id,
    };
    match tx.try_send(task) {
        Ok(()) => match reply_rx.recv() {
            Ok(reply) => reply,
            Err(_) => err_reply("internal", "dispatcher exited before replying"),
        },
        Err(TrySendError::Full(task)) | Err(TrySendError::Disconnected(task)) => {
            // Shed: restore the slot and tell the client to back off.
            // The journaled step never ran — roll it back so recovery
            // does not replay it.
            let mut task = task;
            if let Some((of_seq, pre_len)) = task.journal_seq {
                roll_back(shared, &mut task.body, of_seq, pre_len);
            }
            let mut table = lock(&shared.table);
            table.put(id, SessionSlot::Live(task.body));
            drop(table);
            let mut m = lock(&shared.metrics);
            m.tenant(&tenant).busy_rejections += 1;
            err_reply("busy", "step queue full")
        }
    }
}

fn op_inject(shared: &Shared, v: &Json) -> String {
    let id = match session_id(v) {
        Ok(id) => id,
        Err(reply) => return reply,
    };
    let Some(cycle) = v.get("cycle").and_then(Json::as_u64) else {
        return err_reply("protocol", "inject requires \"cycle\"");
    };
    let reg = match v.get("reg") {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Int(i)) if *i >= 0 => i.to_string(),
        _ => return err_reply("protocol", "inject requires \"reg\" (name or index)"),
    };
    let Some(bit) = v.get("bit").and_then(Json::as_u64) else {
        return err_reply("protocol", "inject requires \"bit\"");
    };
    let req_id = v.get("req_id").and_then(Json::as_u64);
    if let Some(reply) = read_only_guard(shared) {
        return reply;
    }
    let mut table = lock(&shared.table);
    let (td, cycles_now, pending, journal, recent, tenant) = match table.get_mut(id) {
        None => return err_reply("unknown-session", &format!("no session {id}")),
        Some(SessionSlot::Running { .. }) => {
            return err_reply("session-busy", "a step for this session is in flight")
        }
        Some(SessionSlot::Live(b)) => (
            Arc::clone(&b.td),
            b.image.snap.cycles,
            &mut b.pending,
            b.journal.as_mut(),
            &mut b.recent,
            b.tenant.clone(),
        ),
        Some(SessionSlot::Evicted(stub)) => (
            Arc::clone(&stub.td),
            stub.cycles,
            &mut stub.pending,
            stub.journal.as_mut(),
            &mut stub.recent,
            stub.tenant.clone(),
        ),
    };
    if let Some(rid) = req_id {
        if let Some(reply) = req_cached(recent, rid) {
            return reply;
        }
    }
    let spec = format!("{cycle}:{reg}:{bit}");
    let inj = match Injection::parse(&spec, &td) {
        Ok(inj) => inj,
        Err(e) => return err_reply("protocol", &e),
    };
    if td.regs[inj.reg.0 as usize].width > 64 {
        return err_reply("protocol", "cannot inject into a register wider than 64 bits");
    }
    if inj.cycle < cycles_now {
        return err_reply(
            "protocol",
            &format!("cycle {cycle} is already in the past (session is at {cycles_now})"),
        );
    }
    // Write-ahead: the injection must be durable before it is pending,
    // or a crash between the reply and the next checkpoint would lose it.
    if let Some(j) = journal {
        let op = JournalOp::Inject {
            cycle: inj.cycle,
            reg: inj.reg.0,
            bit: inj.bit,
        };
        if let Err(e) = j.append(op, req_id, shared.chaos()) {
            // Locking metrics under the table lock follows the
            // established table -> metrics order.
            shared.note_write_failure(&tenant, &e.to_string());
            return err_reply(
                "read-only",
                &format!("journaling injection: {e}; the injection was not queued"),
            );
        }
    }
    let reply = apply_inject(id, pending, inj).answer(recent, req_id);
    drop(table);
    lock(&shared.metrics).tenant(&tenant).injections += 1;
    reply
}

/// Runs `f` on the live (rehydrating if needed) body of a session.
fn with_live_session<R>(
    shared: &Shared,
    id: u64,
    f: impl FnOnce(&mut SessionBody) -> R,
) -> Result<R, String> {
    let mut table = lock(&shared.table);
    rehydrate_locked(shared, &mut table, id)?;
    match table.get_mut(id) {
        None => Err(err_reply("unknown-session", &format!("no session {id}"))),
        Some(SessionSlot::Running { .. }) => Err(err_reply(
            "session-busy",
            "a step for this session is in flight",
        )),
        Some(SessionSlot::Evicted(_)) => unreachable!("rehydrated above"),
        Some(SessionSlot::Live(body)) => {
            body.last_touch = Instant::now();
            Ok(f(body))
        }
    }
}

fn op_snapshot(shared: &Shared, v: &Json) -> String {
    let id = match session_id(v) {
        Ok(id) => id,
        Err(reply) => return reply,
    };
    match with_live_session(shared, id, |body| {
        (body.image.snap.cycles, json::hex_encode(&body.image.to_bytes()))
    }) {
        Ok((cycles, hex)) => {
            format!("{{\"ok\":true,\"session\":{id},\"cycles\":{cycles},\"ksnap\":\"{hex}\"}}")
        }
        Err(reply) => reply,
    }
}

fn op_restore(shared: &Shared, v: &Json) -> String {
    let id = match session_id(v) {
        Ok(id) => id,
        Err(reply) => return reply,
    };
    let Some(hex) = v.get("ksnap").and_then(Json::as_str) else {
        return err_reply("protocol", "restore requires \"ksnap\" (hex)");
    };
    let Some(bytes) = json::hex_decode(hex) else {
        return err_reply("protocol", "\"ksnap\" is not valid hex");
    };
    let req_id = v.get("req_id").and_then(Json::as_u64);
    if let Some(reply) = read_only_guard(shared) {
        return reply;
    }
    let mut table = lock(&shared.table);
    if let Err(reply) = rehydrate_locked(shared, &mut table, id) {
        return reply;
    }
    let body = match table.get_mut(id) {
        None => return err_reply("unknown-session", &format!("no session {id}")),
        Some(SessionSlot::Running { .. }) => {
            return err_reply("session-busy", "a step for this session is in flight")
        }
        Some(SessionSlot::Evicted(_)) => unreachable!("rehydrated above"),
        Some(SessionSlot::Live(body)) => body,
    };
    if let Some(rid) = req_id {
        if let Some(reply) = req_cached(&body.recent, rid) {
            return reply;
        }
    }
    // A corrupt or mismatched snapshot is the client's problem, not the
    // server's: typed `bad-snapshot`, session state untouched.
    let image = match restorable(shared, body, &bytes) {
        Ok(image) => image,
        Err(e) => return err_reply("bad-snapshot", &e),
    };
    // Write-ahead: replay applies the same bytes, so the restored state
    // survives a crash without waiting for a checkpoint.
    let tenant = body.tenant.clone();
    if let Some(j) = body.journal.as_mut() {
        let op = JournalOp::Restore {
            ksnap: bytes.clone(),
        };
        if let Err(e) = j.append(op, req_id, shared.chaos()) {
            shared.note_write_failure(&tenant, &e.to_string());
            return err_reply(
                "read-only",
                &format!("journaling restore: {e}; the snapshot was not applied"),
            );
        }
    }
    body.last_touch = Instant::now();
    apply_restore(id, body, Ok(image)).answer(&mut body.recent, req_id)
}

fn op_query_regs(shared: &Shared, v: &Json) -> String {
    let id = match session_id(v) {
        Ok(id) => id,
        Err(reply) => return reply,
    };
    let wanted: Option<Vec<String>> = match v.get("regs") {
        None => None,
        Some(Json::Arr(items)) => {
            let mut names = Vec::with_capacity(items.len());
            for it in items {
                match it.as_str() {
                    Some(s) => names.push(s.to_string()),
                    None => return err_reply("protocol", "\"regs\" must be an array of names"),
                }
            }
            Some(names)
        }
        Some(_) => return err_reply("protocol", "\"regs\" must be an array of names"),
    };
    match with_live_session(shared, id, |body| {
        let td = &body.td;
        let indices: Result<Vec<usize>, String> = match &wanted {
            None => Ok((0..td.num_regs()).collect()),
            Some(names) => names
                .iter()
                .map(|n| {
                    td.regs
                        .iter()
                        .position(|r| &r.name == n)
                        .ok_or_else(|| format!("unknown register {n:?}"))
                })
                .collect(),
        };
        indices.map(|idx| {
            let mut out = format!("{{\"ok\":true,\"session\":{id},\"cycles\":{},\"regs\":{{", body.image.snap.cycles);
            for (i, &r) in idx.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let bits = &body.image.snap.regs[r];
                if bits.width() <= 64 {
                    out.push_str(&format!(
                        "\"{}\":{}",
                        json::escape(&td.regs[r].name),
                        bits.low_u64()
                    ));
                } else {
                    let words = bits.words();
                    let mut hex = String::from("0x");
                    for w in words.iter().rev() {
                        hex.push_str(&format!("{w:016x}"));
                    }
                    out.push_str(&format!(
                        "\"{}\":\"{hex}\"",
                        json::escape(&td.regs[r].name)
                    ));
                }
            }
            out.push_str("}}");
            out
        })
    }) {
        Ok(Ok(reply)) => reply,
        Ok(Err(e)) => err_reply("protocol", &e),
        Err(reply) => reply,
    }
}

/// Spills one live session to its spool file, leaving an evicted stub.
fn evict_session(shared: &Shared, id: u64) -> Result<bool, String> {
    let mut table = lock(&shared.table);
    // Peek the state without keeping a borrow across the remove below.
    enum State {
        Missing,
        Evicted,
        Running,
        Live,
    }
    let state = match table.get_mut(id) {
        None => State::Missing,
        Some(SessionSlot::Evicted(_)) => State::Evicted,
        Some(SessionSlot::Running { .. }) => State::Running,
        Some(SessionSlot::Live(_)) => State::Live,
    };
    match state {
        State::Missing => Err(err_reply("unknown-session", &format!("no session {id}"))),
        State::Evicted => Ok(false),
        State::Running => Err(err_reply(
            "session-busy",
            "a step for this session is in flight",
        )),
        State::Live => {
            let Some(SessionSlot::Live(mut body)) = table.remove(id) else {
                unreachable!("checked above");
            };
            // Durable sessions spool via the checkpoint protocol (spool +
            // journal rewrite), so the eviction itself is crash-safe and
            // the journal tail resets. Non-durable sessions spill to the
            // spool directory as before.
            let spooled = if body.journal.is_some() {
                match checkpoint_body(shared, id, &mut body) {
                    Ok(Some(path)) => Ok(path),
                    Ok(None) => unreachable!("journal checked above"),
                    Err(e) => Err((e.to_string(), true)),
                }
            } else {
                let path = shared.spool_path(id);
                match spill(&body, &path) {
                    Ok(()) => Ok(path),
                    Err(e) => Err((e.to_string(), false)),
                }
            };
            match spooled {
                Ok(path) => {
                    let tenant = body.tenant.clone();
                    table.put(
                        id,
                        SessionSlot::Evicted(Box::new(EvictedStub {
                            design_name: body.design_name,
                            td: body.td,
                            backend: body.backend,
                            tenant: body.tenant,
                            watchdog: body.watchdog,
                            pending: body.pending,
                            cycles: body.image.snap.cycles,
                            path,
                            journal: body.journal,
                            recent: body.recent,
                        })),
                    );
                    drop(table);
                    lock(&shared.metrics).tenant(&tenant).evictions += 1;
                    Ok(true)
                }
                Err((e, durable)) => {
                    // Spill failed: keep the session live. A durable
                    // failure also degrades the server to read-only.
                    let tenant = body.tenant.clone();
                    table.put(id, SessionSlot::Live(body));
                    if durable {
                        shared.note_write_failure(&tenant, &e);
                        Err(err_reply(
                            "read-only",
                            &format!("checkpointing session {id}: {e}"),
                        ))
                    } else {
                        Err(err_reply("internal", &format!("spilling session {id}: {e}")))
                    }
                }
            }
        }
    }
}

fn op_evict(shared: &Shared, v: &Json) -> String {
    let id = match session_id(v) {
        Ok(id) => id,
        Err(reply) => return reply,
    };
    match evict_session(shared, id) {
        Ok(evicted) => format!("{{\"ok\":true,\"session\":{id},\"evicted\":{evicted}}}"),
        Err(reply) => reply,
    }
}

fn op_close(shared: &Shared, v: &Json) -> String {
    let id = match session_id(v) {
        Ok(id) => id,
        Err(reply) => return reply,
    };
    let mut table = lock(&shared.table);
    match table.remove(id) {
        None => err_reply("unknown-session", &format!("no session {id}")),
        Some(SessionSlot::Running { tenant }) => {
            // The in-flight step holds the body; refuse rather than
            // leave it to check into a deleted slot.
            table.put(id, SessionSlot::Running { tenant });
            err_reply("session-busy", "a step for this session is in flight")
        }
        Some(SessionSlot::Evicted(stub)) => {
            // A durable close removes the journal and every spool; the
            // non-durable spool file is just unlinked.
            if let Some(j) = stub.journal {
                j.delete(id, shared.chaos());
            } else {
                let _ = std::fs::remove_file(&stub.path);
            }
            drop(table);
            lock(&shared.metrics).tenant(&stub.tenant).sessions_closed += 1;
            format!("{{\"ok\":true,\"session\":{id},\"closed\":true}}")
        }
        Some(SessionSlot::Live(body)) => {
            if let Some(j) = body.journal {
                j.delete(id, shared.chaos());
            }
            drop(table);
            lock(&shared.metrics).tenant(&body.tenant).sessions_closed += 1;
            format!("{{\"ok\":true,\"session\":{id},\"closed\":true}}")
        }
    }
}

fn op_metrics(shared: &Shared, v: &Json) -> String {
    let format = v.get("format").and_then(Json::as_str).unwrap_or("json");
    let active = lock(&shared.table).len() as u64;
    let m = lock(&shared.metrics);
    match format {
        "json" => format!("{{\"ok\":true,\"metrics\":{}}}", m.to_json(active)),
        "prometheus" => format!(
            "{{\"ok\":true,\"prometheus\":\"{}\"}}",
            json::escape(&m.to_prometheus(active))
        ),
        other => err_reply("protocol", &format!("unknown metrics format {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

/// Rebuilds the session table from the state directory: one recovery
/// attempt per `session-<id>.kjrn` journal, in session-id order. Runs
/// synchronously inside [`spawn`], before the listener thread exists, so
/// no locks are contended. Returns `(recovered, lost)` session counts.
fn recover_state(shared: &Shared) -> (u64, u64) {
    let Some(dir) = shared.durable_dir().map(Path::to_path_buf) else {
        return (0, 0);
    };
    // Sweep droppings from interrupted atomic writes; they were never
    // renamed into place, so they are dead weight by construction.
    let mut journals: Vec<(u64, PathBuf)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") {
                let _ = std::fs::remove_file(entry.path());
                continue;
            }
            let id = name
                .strip_prefix("session-")
                .and_then(|s| s.strip_suffix(".kjrn"))
                .and_then(|s| s.parse::<u64>().ok());
            if let Some(id) = id {
                journals.push((id, entry.path()));
            }
        }
    }
    journals.sort_by_key(|(id, _)| *id);
    let (mut recovered, mut lost, mut max_id) = (0u64, 0u64, 0u64);
    for (id, path) in journals {
        max_id = max_id.max(id);
        match recover_one(shared, &dir, id, &path) {
            Ok(true) => recovered += 1,
            Ok(false) => {}
            Err(e) => {
                // Quarantine rather than delete: the bytes may still be
                // useful forensically, but the session is gone.
                let mut corrupt = path.clone().into_os_string();
                corrupt.push(".corrupt");
                let _ = std::fs::rename(&path, &corrupt);
                journal::remove_spools_except(&dir, id, None);
                lost += 1;
                eprintln!("koika-server: session {id} unrecoverable: {e}");
            }
        }
    }
    // Ids must never be reused across a crash, or a stale client could
    // talk to a stranger's session.
    shared.next_id.fetch_max(max_id + 1, Ordering::SeqCst);
    (recovered, lost)
}

/// Recovers one session from its journal (and checkpoint spool, if any):
/// builds its body from the newest checkpoint, or fresh, then hands every
/// record that was not rolled back to [`apply`], the code the live ops
/// run, and caches each reply under its record's `req_id`.
///
/// `Ok(true)` means the session was resurrected into the table;
/// `Ok(false)` means the journal described a session that no longer
/// exists (closed, or torn down by a replayed panic) and its files were
/// cleaned up. `Err` means the journal was unusable — the caller
/// quarantines it.
fn recover_one(shared: &Shared, dir: &Path, id: u64, path: &Path) -> Result<bool, String> {
    let parsed = journal::read_journal(path)?;
    if parsed.session_id != id {
        return Err(format!(
            "journal header names session {}, file names {id}",
            parsed.session_id
        ));
    }
    // A torn tail (crash mid-append) is expected, not fatal: truncate the
    // file back to the durable prefix so reattached appends start clean.
    if parsed.truncated {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| format!("truncating torn tail: {e}"))?;
        f.set_len(parsed.durable_len)
            .map_err(|e| format!("truncating torn tail: {e}"))?;
    }
    let Some(first) = parsed.records.first() else {
        return Err("journal holds no records".into());
    };
    let JournalOp::Create {
        design,
        tenant,
        backend,
        watchdog: spec,
    } = &first.op
    else {
        return Err("journal does not begin with a create record".into());
    };
    let (backend, create_req) = (*backend, first.req_id);
    if parsed.records.iter().any(|r| matches!(r.op, JournalOp::Close)) {
        // Closed sessions stay closed; the close record exists precisely
        // because deleting the files might have been interrupted.
        let _ = std::fs::remove_file(path);
        journal::remove_spools_except(dir, id, None);
        return Ok(false);
    }
    let Some(td) = shared.provider.design(design) else {
        return Err(format!("unknown design {design:?}"));
    };
    if parsed.truncated {
        lock(&shared.metrics).tenant(tenant).journal_truncations += 1;
    }
    // Base state: the newest checkpoint's spool, else a fresh create.
    let mut base_idx = 0usize;
    let mut ck: Option<(u64, u64, u64, Vec<Injection>)> = None;
    for (i, rec) in parsed.records.iter().enumerate() {
        if let JournalOp::Checkpoint {
            cycles,
            stalled,
            pending,
        } = &rec.op
        {
            base_idx = i;
            let pend = pending
                .iter()
                .map(|&(cycle, reg, bit)| Injection {
                    cycle,
                    reg: RegId(reg),
                    bit,
                })
                .collect();
            ck = Some((rec.seq, *cycles, *stalled, pend));
        }
    }
    let ck_seq = ck.as_ref().map(|(seq, ..)| *seq);
    let (image, pending, stalled0) = match ck {
        Some((seq, cycles, stalled, pend)) => {
            let spool = journal::spool_path(dir, id, seq);
            let image = unspill(&spool, true)
                .map_err(|e| format!("loading checkpoint spool: {e}"))?;
            if image.snap.cycles != cycles {
                return Err(format!(
                    "checkpoint spool is at cycle {} but the record says {cycles}",
                    image.snap.cycles
                ));
            }
            (image, pend, stalled)
        }
        None => (fresh_state(shared, design, &td)?, Vec::new(), 0),
    };
    // Replay runs under the *deterministic* budgets only — wall time
    // elapsed before the crash is unknowable, and replaying under a wall
    // budget would make recovery racy. The stall counter is real hidden
    // state and is carried from the checkpoint.
    let mut replay_wd = arm_paused(&spec.deterministic_watchdog());
    if let Some(w) = replay_wd.as_mut() {
        w.set_stall_count(stalled0);
    }
    let mut body = Box::new(SessionBody {
        design_name: design.clone(),
        td,
        backend,
        image,
        watchdog: replay_wd,
        pending,
        tenant: tenant.clone(),
        last_touch: Instant::now(),
        journal: None,
        recent: ReqWindow::new(),
    });
    let rolled: HashSet<u64> = parsed
        .records
        .iter()
        .filter_map(|r| match r.op {
            JournalOp::Rollback { of_seq } => Some(of_seq),
            _ => None,
        })
        .collect();
    for rec in &parsed.records[base_idx + 1..] {
        if rolled.contains(&rec.seq) {
            continue;
        }
        match contain(|| apply(shared, id, &mut body, &rec.op)) {
            Ok(Some(applied)) => {
                applied.answer(&mut body.recent, rec.req_id);
            }
            Ok(None) => {}
            Err(msg) => {
                // Same blast radius as a live panic: exactly this
                // session dies; its files go with it.
                let _ = std::fs::remove_file(path);
                journal::remove_spools_except(dir, id, None);
                let mut m = lock(&shared.metrics);
                let t = m.tenant(tenant);
                t.panics_contained += 1;
                t.sessions_closed += 1;
                eprintln!("koika-server: session {id} torn down during replay: {msg}");
                return Ok(false);
            }
        }
    }
    // The live watchdog re-arms with the full budgets (wall included —
    // elapsed wall time does not survive a crash) but inherits the stall
    // counter accumulated across checkpoint and replay.
    let carried = body
        .watchdog
        .as_ref()
        .map(ArmedWatchdog::stall_count)
        .unwrap_or(stalled0);
    body.watchdog = arm_paused(&spec.to_watchdog());
    if let Some(w) = body.watchdog.as_mut() {
        w.set_stall_count(carried);
    }
    body.journal = Some(Journal::reattach(dir, &parsed));
    lock(&shared.table).insert(id, body);
    lock(&shared.metrics).tenant(tenant).recovered_sessions += 1;
    if let Some(rid) = create_req {
        // The create itself is idempotent across the crash too.
        let reply = created_reply(id, design, backend);
        req_store_bounded(&mut lock(&shared.create_reqs), rid, reply, CREATE_WINDOW);
    }
    journal::remove_spools_except(dir, id, ck_seq);
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_parse_reads_all_budgets() {
        let v = Json::parse(
            r#"{"watchdog":{"max_cycles":100,"stall_cycles":5,"wall_ms":250}}"#,
        )
        .unwrap();
        let wd = parse_watchdog(&v).unwrap();
        assert_eq!(wd.max_cycles, Some(100));
        assert_eq!(wd.stall_cycles, Some(5));
        assert_eq!(wd.wall_budget, Some(Duration::from_millis(250)));
        assert!(arm_paused(&wd).is_some());
        assert!(arm_paused(&Watchdog::default()).is_none());
    }

    #[test]
    fn error_replies_are_valid_json() {
        let r = err_reply("protocol", "a \"quoted\" detail\nwith newline");
        let v = Json::parse(&r).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("error").and_then(Json::as_str), Some("protocol"));
    }
}
