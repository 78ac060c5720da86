//! Simulation-as-a-service: a multi-tenant TCP session server over the
//! Kôika simulation backends.
//!
//! The paper's thesis is that compiling a hardware design to software makes
//! simulation behave like any other program — cheap to start, easy to
//! instrument. This crate takes the next step the ROADMAP asks for: if a
//! simulation is just a program, it can also be *served* like one. The
//! server multiplexes thousands of concurrent simulation sessions onto one
//! process, with robustness as the headline feature:
//!
//! * **Admission control** — the session table is bounded
//!   ([`ServerConfig::max_sessions`]) and the step queue is bounded
//!   ([`ServerConfig::queue_depth`]); both shed load with explicit `busy`
//!   replies instead of queueing without limit.
//! * **Per-session fault isolation** — every step executes under the
//!   [`koika::runner`] panic containment. A poisoned design (a device or
//!   backend that panics) kills exactly one session: the client gets a
//!   clean `error` reply, the session is torn down, and every other
//!   session — and the server itself — is unaffected.
//! * **Snapshot-backed eviction** — idle sessions spill their register
//!   file and device state to a spool file holding a `.ksnap` state
//!   image and are transparently rehydrated on the next request. Sessions
//!   are *data* (a [`koika::snapshot::StateImage`]), not live threads, so
//!   eviction is cheap and exact.
//! * **Watchdog budgets** — each session owns an armed
//!   [`koika::fault::Watchdog`] (cycle / stall / wall budgets). The wall
//!   clock is paused whenever the session is idle or evicted, so a slow
//!   client or a long eviction never counts against the budget.
//! * **Parallel steps** — the requests queued when the dispatcher wakes
//!   run as one round on the [`koika::runner`] worker pool, one scalar
//!   engine per step, each checked out of a per-design pool.
//! * **Graceful drain** — a `shutdown` request finishes in-flight steps,
//!   spills every remaining live session to the spool directory, closes
//!   the listener, and returns final statistics.
//! * **Durable crash recovery** — with [`ServerConfig::state_dir`] set,
//!   every state-mutating op is appended to a per-session write-ahead
//!   journal ([`journal`]) before it executes, checkpointed away whenever
//!   the session spools a `.ksnap`. A restart (even after `kill -9`)
//!   rebuilds the session table by rehydrating the newest spool and
//!   deterministically re-executing the journal tail — recovered
//!   registers and commit fingerprints are byte-identical to an
//!   uninterrupted run. Clients may tag mutating requests with a
//!   `req_id` for idempotent at-most-once re-submission, and durable
//!   write failures degrade the server to a typed `read-only` mode
//!   instead of panicking.
//! * **Chaos testing** — a seeded fault injector ([`chaos`]) drives torn
//!   and short writes, ENOSPC, dropped/duplicated connections, delays,
//!   and mid-step panics through the whole stack (`server_bench --chaos`)
//!   while asserting zero cross-session blast radius and recoverability
//!   after every event.
//!
//! The wire protocol is line-oriented JSON — one request object per line,
//! one reply object per line — documented in [`server`].

pub mod chaos;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod server;
pub mod session;

pub use chaos::{ChaosRng, IoChaos, IoFault};
pub use metrics::ServerMetrics;
pub use server::{spawn, ServerConfig, ServerHandle, ServerStats};
pub use session::{BackendKind, DesignProvider};
