//! Load driver for the multi-tenant simulation session server: spawns an
//! in-process server and floods it with sessions over real TCP
//! connections, exercising the whole lifecycle — create, step, inject,
//! snapshot, evict, transparent rehydration, close — then writes a
//! machine-readable record to `BENCH_PR7.json`.
//!
//! ```text
//! Usage: server_bench [--quick] [--out FILE] [--smoke FILE] [--chaos SEED]
//!                     [--sessions N] [--conns N] [--jobs J]
//!   --quick        small session count (CI smoke: validates the JSON
//!                  shape, asserts nothing about performance)
//!   --out FILE     where to write the JSON record (default BENCH_PR7.json;
//!                  BENCH_CHAOS.json in --chaos mode)
//!   --smoke FILE   deterministic mode: one connection drives a fixed
//!                  200-session script and every reply line is written to
//!                  FILE verbatim; two runs against two fresh servers must
//!                  produce byte-identical files (CI diffs them). No JSON
//!                  record is written.
//!   --chaos SEED   chaos mode (SEED decimal or 0x-hex): runs a durable
//!                  server (`state_dir` set) with seeded disk-fault
//!                  injection and layers client-side faults on top —
//!                  dropped and duplicated connections, delayed requests,
//!                  mid-step device panics. Asserts zero cross-session
//!                  blast radius, at-most-once req_id semantics, and that
//!                  a kill -9 (`abort`) followed by a restart from the
//!                  state directory reproduces every surviving session
//!                  byte-identically. Exits nonzero on any violation.
//!   --sessions N   session count for the load mode (default 10000)
//!   --conns N      client connections for the load mode (default 32)
//!   --jobs J       server worker threads (default 4)
//! ```
//!
//! The load mode's traffic mix is drawn from a fixed-seed xorshift PRNG,
//! so the *request* stream is reproducible; the JSON record carries both
//! wall-clock throughput and the server's own (deterministic) counters.

use cuttlesim_bench::record_fingerprint;
use koika_server::json::Json;
use koika_server::{spawn, DesignProvider, IoChaos, ServerConfig, ServerHandle};
use koika::check::check;
use koika::device::{Device, RegAccess};
use koika::tir::TDesign;
use koika_designs::small;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Serves the small combinational designs — the bench measures session
/// multiplexing, not core throughput, so cheap designs keep the signal
/// on the server.
struct BenchProvider {
    designs: Mutex<HashMap<String, Arc<TDesign>>>,
}

impl BenchProvider {
    fn new() -> BenchProvider {
        BenchProvider {
            designs: Mutex::new(HashMap::new()),
        }
    }
}

impl DesignProvider for BenchProvider {
    fn design(&self, name: &str) -> Option<Arc<TDesign>> {
        let mut cache = self.designs.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(td) = cache.get(name) {
            return Some(Arc::clone(td));
        }
        let design = match name {
            "collatz" => small::collatz(),
            "fir" => small::fir(),
            // collatz plus a device that detonates at cycle 5 — the chaos
            // mode's mid-step-panic fault.
            "boom" => small::collatz(),
            _ => return None,
        };
        let td = Arc::new(check(&design).ok()?);
        cache.insert(name.to_string(), Arc::clone(&td));
        Some(td)
    }

    fn devices(&self, name: &str, _td: &TDesign) -> Vec<Box<dyn Device + Send>> {
        match name {
            "boom" => vec![Box::new(BoomDevice { ticks: 0 })],
            _ => Vec::new(),
        }
    }
}

/// Panics once the simulation reaches cycle 5; lets the chaos mode
/// detonate a session mid-step on demand.
struct BoomDevice {
    ticks: u64,
}

impl Device for BoomDevice {
    fn tick(&mut self, cycle: u64, _regs: &mut dyn RegAccess) {
        self.ticks += 1;
        assert!(cycle < 5, "boom device detonated at cycle {cycle}");
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        Some(self.ticks.to_le_bytes().to_vec())
    }

    fn load_state(&mut self, state: &[u8]) -> Result<(), String> {
        let bytes: [u8; 8] = state.try_into().map_err(|_| "bad blob".to_string())?;
        self.ticks = u64::from_le_bytes(bytes);
        Ok(())
    }
}

/// xorshift64* — fixed-seed traffic mix, no external PRNG needed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        // Without this, Nagle + delayed ACK turns each ping-pong request
        // into a ~40 ms stall and the bench measures the kernel, not the
        // server.
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) -> String {
        writeln!(self.stream, "{line}").expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply");
        reply.trim_end().to_string()
    }
}

fn session_of(reply: &str) -> Option<u64> {
    Json::parse(reply).ok()?.get("session")?.as_u64()
}

fn is_ok(reply: &str) -> bool {
    Json::parse(reply)
        .ok()
        .and_then(|v| v.get("ok").and_then(Json::as_bool))
        == Some(true)
}

/// The typed error kind of a failed reply (`None` for `ok` replies).
fn err_of(reply: &str) -> Option<String> {
    let v = Json::parse(reply).ok()?;
    if v.get("ok").and_then(Json::as_bool) == Some(true) {
        return None;
    }
    Some(
        v.get("error")
            .and_then(Json::as_str)
            .unwrap_or("unparsable")
            .to_string(),
    )
}

fn u_of(reply: &str, key: &str) -> Option<u64> {
    Json::parse(reply).ok()?.get(key)?.as_u64()
}

fn server_config(jobs: usize) -> ServerConfig {
    let mut cfg = ServerConfig::default();
    cfg.runner.jobs = jobs;
    cfg.spool_dir = std::env::temp_dir().join(format!("koika-server-bench-{}", std::process::id()));
    cfg
}

/// The deterministic 200-session smoke script: every reply is appended to
/// `out`, and the full transcript must be byte-identical run after run.
fn run_smoke(path: &str) -> ExitCode {
    let cfg = server_config(2);
    let spool = cfg.spool_dir.clone();
    let handle = spawn(cfg, Arc::new(BenchProvider::new()), "127.0.0.1:0").expect("bind");
    let mut c = Client::connect(&handle);
    let mut out = String::new();
    let mut log = |reply: String| {
        out.push_str(&reply);
        out.push('\n');
    };

    for i in 0u64..200 {
        let design = if i % 3 == 0 { "fir" } else { "collatz" };
        let tenant = format!("t{}", i % 4);
        let create = c.send(&format!(
            r#"{{"op":"create","design":"{design}","tenant":"{tenant}"}}"#
        ));
        let id = session_of(&create).expect("create must admit");
        log(create);
        log(c.send(&format!(r#"{{"op":"step","session":{id},"n":{}}}"#, 10 + i % 5)));
        if i % 3 == 1 {
            log(c.send(&format!(
                r#"{{"op":"inject","session":{id},"cycle":{},"reg":"x","bit":{}}}"#,
                20 + i % 7,
                i % 8
            )));
            log(c.send(&format!(r#"{{"op":"step","session":{id},"n":15}}"#)));
        }
        if i % 2 == 0 {
            log(c.send(&format!(r#"{{"op":"snapshot","session":{id}}}"#)));
        }
        if i % 4 == 0 {
            log(c.send(&format!(r#"{{"op":"evict","session":{id}}}"#)));
            log(c.send(&format!(r#"{{"op":"step","session":{id},"n":2}}"#)));
        }
        if i % 10 == 9 {
            log(c.send(&format!(r#"{{"op":"close","session":{id}}}"#)));
        }
    }
    log(c.send(r#"{"op":"query-regs","session":2}"#));
    log(c.send(r#"{"op":"metrics"}"#));
    log(c.send(r#"{"op":"shutdown"}"#));
    handle.wait();
    std::fs::remove_dir_all(&spool).ok();

    if let Err(e) = std::fs::write(path, &out) {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("smoke transcript: 200 sessions, {} reply lines -> {path}", out.lines().count());
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Chaos mode
// ---------------------------------------------------------------------------

/// Sends `line`, retrying the transient outcomes chaos injects: `read-only`
/// while the disk is "failing" (the next probe heals it), and
/// `busy`/`session-busy` while a dropped connection's request drains.
/// Returns the first settled reply.
fn send_settled(c: &mut Client, line: &str) -> String {
    let mut last = String::new();
    for _ in 0..500 {
        last = c.send(line);
        match err_of(&last).as_deref() {
            Some("read-only") | Some("busy") | Some("session-busy") => {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            _ => return last,
        }
    }
    last
}

fn parse_seed(s: &str) -> u64 {
    let t = s.trim();
    let parsed = match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => t.parse(),
    };
    parsed.unwrap_or_else(|_| {
        eprintln!("bad --chaos seed: {s}");
        std::process::exit(2);
    })
}

/// The chaos soak: a durable server under seeded disk faults plus
/// client-side connection faults, then a simulated kill -9 and a recovery
/// check. Every invariant failure is collected (not asserted) so one run
/// reports the full blast radius; any violation fails the run.
fn run_chaos(seed: u64, quick: bool, out: &str) -> ExitCode {
    let dir = std::env::temp_dir().join(format!("koika-server-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let chaos = Arc::new(IoChaos::new(seed, 5));
    let mut cfg = server_config(2);
    cfg.state_dir = Some(dir.clone());
    cfg.chaos = Some(Arc::clone(&chaos));
    let handle = spawn(cfg, Arc::new(BenchProvider::new()), "127.0.0.1:0").expect("bind");
    let addr = handle.addr();
    let mut c = Client::connect(&handle);
    let mut rng = Rng(seed | 1);
    let mut violations: Vec<String> = Vec::new();
    let mut rid: u64 = 0;
    let mut next_rid = || {
        rid += 1;
        rid
    };

    // Session population: healthy collatz/fir sessions (the op mix targets
    // these) plus armed "boom" sessions held in reserve for the
    // mid-step-panic fault.
    let n_sessions: u64 = if quick { 24 } else { 80 };
    let n_ops: u64 = if quick { 160 } else { 600 };
    let mut live: Vec<u64> = Vec::new();
    let mut boom: Vec<u64> = Vec::new();
    let mut detonated: Vec<u64> = Vec::new();
    for i in 0..n_sessions {
        let (design, tenant) = if i % 8 == 7 {
            ("boom", "boom".to_string())
        } else if i % 2 == 0 {
            ("collatz", format!("t{}", i % 4))
        } else {
            ("fir", format!("t{}", i % 4))
        };
        let r = send_settled(
            &mut c,
            &format!(
                r#"{{"op":"create","design":"{design}","tenant":"{tenant}","req_id":{}}}"#,
                next_rid()
            ),
        );
        match session_of(&r) {
            Some(id) if design == "boom" => boom.push(id),
            Some(id) => live.push(id),
            None => violations.push(format!("create never settled: {r}")),
        }
    }
    let canary = live[0];

    let mut ops = 0u64;
    let mut panics = 0u64;
    for _ in 0..n_ops {
        ops += 1;
        let id = live[rng.below(live.len() as u64) as usize];
        match rng.below(13) {
            6 => {
                // Pending injection far in the future: carried across
                // evictions, checkpoints, and recovery.
                let r = send_settled(
                    &mut c,
                    &format!(
                        r#"{{"op":"inject","session":{id},"cycle":1000000,"reg":"0","bit":0,"req_id":{}}}"#,
                        next_rid()
                    ),
                );
                if !is_ok(&r) {
                    violations.push(format!("inject {id}: {r}"));
                }
            }
            7 => {
                let r = send_settled(&mut c, &format!(r#"{{"op":"evict","session":{id}}}"#));
                if !is_ok(&r) {
                    violations.push(format!("evict {id}: {r}"));
                }
            }
            8 => {
                // Duplicated request: the same req_id twice; the second
                // reply must be the cached byte-identical first.
                chaos.note("dup-request");
                let line = format!(
                    r#"{{"op":"step","session":{id},"n":3,"req_id":{}}}"#,
                    next_rid()
                );
                let r1 = send_settled(&mut c, &line);
                let r2 = send_settled(&mut c, &line);
                if is_ok(&r1) && r1 != r2 {
                    violations.push(format!("dup req not idempotent: {r1} vs {r2}"));
                }
            }
            9 => {
                // Dropped connection: fire a step on a throwaway socket,
                // hang up without reading, then re-submit the same req_id
                // on the main connection. At-most-once means the settled
                // cycle count advances by exactly n.
                chaos.note("drop-conn");
                let before = u_of(
                    &send_settled(&mut c, &format!(r#"{{"op":"query-regs","session":{id}}}"#)),
                    "cycles",
                );
                let line = format!(
                    r#"{{"op":"step","session":{id},"n":4,"req_id":{}}}"#,
                    next_rid()
                );
                if let Ok(mut s) = TcpStream::connect(addr) {
                    let _ = s.set_nodelay(true);
                    let _ = writeln!(s, "{line}");
                    drop(s);
                }
                let r = send_settled(&mut c, &line);
                match (before, u_of(&r, "cycles")) {
                    (Some(b), Some(after)) if after != b + 4 => violations.push(format!(
                        "drop-conn resubmit applied twice on {id}: {b} -> {after}"
                    )),
                    (_, None) => violations.push(format!("drop-conn resubmit failed: {r}")),
                    _ => {}
                }
            }
            10 => {
                chaos.note("delay");
                std::thread::sleep(std::time::Duration::from_millis(1 + rng.below(3)));
                let r = send_settled(
                    &mut c,
                    &format!(r#"{{"op":"step","session":{id},"n":1,"req_id":{}}}"#, next_rid()),
                );
                if !is_ok(&r) {
                    violations.push(format!("delayed step {id}: {r}"));
                }
            }
            11 => {
                // Mid-step panic: detonate an armed boom session, then
                // immediately verify the blast radius stopped at its
                // session boundary.
                if let Some(bid) = boom.pop() {
                    chaos.note("mid-step-panic");
                    panics += 1;
                    let r = send_settled(&mut c, &format!(r#"{{"op":"step","session":{bid},"n":10}}"#));
                    if err_of(&r).as_deref() != Some("panic") {
                        violations.push(format!("boom {bid} expected panic reply: {r}"));
                    }
                    detonated.push(bid);
                    let canary_r = send_settled(
                        &mut c,
                        &format!(r#"{{"op":"step","session":{canary},"n":1,"req_id":{}}}"#, next_rid()),
                    );
                    if !is_ok(&canary_r) {
                        violations
                            .push(format!("blast radius: canary failed after panic: {canary_r}"));
                    }
                }
            }
            12 => {
                if live.len() > 2 && id != canary {
                    let r = send_settled(&mut c, &format!(r#"{{"op":"close","session":{id}}}"#));
                    if !is_ok(&r) {
                        violations.push(format!("close {id}: {r}"));
                    }
                    live.retain(|&s| s != id);
                }
            }
            _ => {
                let r = send_settled(
                    &mut c,
                    &format!(
                        r#"{{"op":"step","session":{id},"n":{},"req_id":{}}}"#,
                        1 + rng.below(16),
                        next_rid()
                    ),
                );
                if !is_ok(&r) {
                    violations.push(format!("step {id}: {r}"));
                }
            }
        }
    }
    // Guarantee the panic fault kind fired at least once.
    if panics == 0 {
        if let Some(bid) = boom.pop() {
            chaos.note("mid-step-panic");
            let r = send_settled(&mut c, &format!(r#"{{"op":"step","session":{bid},"n":10}}"#));
            if err_of(&r).as_deref() != Some("panic") {
                violations.push(format!("boom {bid} expected panic reply: {r}"));
            }
            detonated.push(bid);
        }
    }

    // Quiesce the disk and record what the clients observed as committed:
    // the snapshot of every surviving session, byte for byte.
    chaos.set_every(0);
    let mut expect: Vec<(u64, String)> = Vec::new();
    for &id in live.iter().chain(boom.iter()) {
        let r = send_settled(&mut c, &format!(r#"{{"op":"snapshot","session":{id}}}"#));
        match Json::parse(&r)
            .ok()
            .and_then(|v| v.get("ksnap").and_then(|k| k.as_str().map(String::from)))
        {
            Some(hex) => expect.push((id, hex)),
            None => violations.push(format!("pre-crash snapshot {id}: {r}")),
        }
    }
    let counts = chaos.counts();
    let kinds = counts.iter().filter(|(_, n)| *n > 0).count();
    if kinds < 5 {
        violations.push(format!("only {kinds} fault kinds fired: {counts:?}"));
    }

    // Kill -9 (no drain, no flush), then recover from the state directory.
    let stats = handle.abort();
    let mut cfg2 = server_config(2);
    cfg2.state_dir = Some(dir.clone());
    let handle2 = spawn(cfg2, Arc::new(BenchProvider::new()), "127.0.0.1:0").expect("rebind");
    let recovered = handle2.recovered_sessions();
    let lost = handle2.lost_sessions();
    if recovered != expect.len() as u64 {
        violations.push(format!("recovered {recovered} of {} sessions", expect.len()));
    }
    if lost != 0 {
        violations.push(format!("{lost} sessions lost in recovery"));
    }
    let mut c2 = Client::connect(&handle2);
    let mut verified = 0u64;
    for (id, hex) in &expect {
        let r = c2.send(&format!(r#"{{"op":"snapshot","session":{id}}}"#));
        let got = Json::parse(&r)
            .ok()
            .and_then(|v| v.get("ksnap").and_then(|k| k.as_str().map(String::from)));
        if got.as_deref() == Some(hex.as_str()) {
            verified += 1;
        } else {
            violations.push(format!("session {id} diverged after recovery: {r}"));
        }
    }
    for bid in &detonated {
        let r = c2.send(&format!(r#"{{"op":"step","session":{bid},"n":1}}"#));
        if err_of(&r).as_deref() != Some("unknown-session") {
            violations.push(format!("detonated {bid} resurrected: {r}"));
        }
    }
    // Recovered sessions must still be steppable, not just readable.
    let r = send_settled(&mut c2, &format!(r#"{{"op":"step","session":{canary},"n":3}}"#));
    if !is_ok(&r) {
        violations.push(format!("post-recovery canary step: {r}"));
    }
    c2.send(r#"{"op":"shutdown"}"#);
    handle2.wait();
    std::fs::remove_dir_all(&dir).ok();

    let mut kinds_json = String::new();
    for (i, (label, n)) in counts.iter().enumerate() {
        let _ = write!(kinds_json, "{}\"{label}\": {n}", if i == 0 { "" } else { ", " });
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"server_chaos\",\n  {},\n  \"seed\": \"{seed:#x}\",\n  \
         \"quick\": {quick},\n  \"sessions\": {n_sessions},\n  \"ops\": {ops},\n  \
         \"fault_kinds\": {{ {kinds_json} }},\n  \"panics_contained\": {},\n  \
         \"recovered\": {recovered},\n  \"lost\": {lost},\n  \"verified_identical\": {verified},\n  \
         \"violations\": {}\n}}\n",
        record_fingerprint(),
        stats.panics_contained,
        violations.len(),
    );
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "chaos seed {seed:#x}: {ops} ops over {n_sessions} sessions, {kinds} fault kinds, \
         {recovered} recovered, {verified} byte-identical -> {out}"
    );
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("violation: {v}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut smoke: Option<String> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut sessions: u64 = 10_000;
    let mut conns: u64 = 32;
    let mut jobs: usize = 4;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--quick" => quick = true,
            "--out" => out = Some(value("--out")),
            "--smoke" => smoke = Some(value("--smoke")),
            "--chaos" => chaos_seed = Some(parse_seed(&value("--chaos"))),
            "--sessions" => sessions = value("--sessions").parse().expect("--sessions"),
            "--conns" => conns = value("--conns").parse().expect("--conns"),
            "--jobs" => jobs = value("--jobs").parse().expect("--jobs"),
            other => {
                eprintln!("unknown option {other}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(path) = smoke {
        return run_smoke(&path);
    }
    if let Some(seed) = chaos_seed {
        let out = out.unwrap_or_else(|| "BENCH_CHAOS.json".to_string());
        return run_chaos(seed, quick, &out);
    }
    let out = out.unwrap_or_else(|| "BENCH_PR7.json".to_string());
    if quick {
        sessions = sessions.min(500);
        conns = conns.min(8);
    }

    let cfg = server_config(jobs);
    let spool = cfg.spool_dir.clone();
    let handle = spawn(cfg, Arc::new(BenchProvider::new()), "127.0.0.1:0").expect("bind");
    let started = Instant::now();

    // Each connection owns `sessions / conns` sessions and walks them
    // through a seeded mix of steps, injections, evictions, and closes.
    let per_conn = sessions / conns;
    let ops_total: u64 = std::thread::scope(|s| {
        let handle = &handle;
        let workers: Vec<_> = (0..conns)
            .map(|w| {
                s.spawn(move || {
                    let mut c = Client::connect(handle);
                    let mut rng = Rng(0x5EED_0000 + w + 1);
                    let mut ops = 0u64;
                    let mut ids = Vec::with_capacity(per_conn as usize);
                    for i in 0..per_conn {
                        let design = if i % 2 == 0 { "collatz" } else { "fir" };
                        let r = c.send(&format!(
                            r#"{{"op":"create","design":"{design}","tenant":"w{w}"}}"#
                        ));
                        ops += 1;
                        if let Some(id) = session_of(&r) {
                            ids.push(id);
                        }
                        // Touch a random earlier session between creates so
                        // the table churns instead of filling linearly.
                        if !ids.is_empty() {
                            let id = ids[rng.below(ids.len() as u64) as usize];
                            let reply = match rng.below(10) {
                                0 => c.send(&format!(r#"{{"op":"evict","session":{id}}}"#)),
                                // Register by flat index — valid for any
                                // design in the mix.
                                1 => c.send(&format!(
                                    r#"{{"op":"inject","session":{id},"cycle":1000000,"reg":"0","bit":0}}"#
                                )),
                                2 => c.send(&format!(r#"{{"op":"snapshot","session":{id}}}"#)),
                                _ => c.send(&format!(
                                    r#"{{"op":"step","session":{id},"n":{}}}"#,
                                    1 + rng.below(32)
                                )),
                            };
                            ops += 1;
                            assert!(is_ok(&reply), "bench traffic must succeed: {reply}");
                        }
                    }
                    // Final sweep: step every session once more, then close
                    // a third of them.
                    for (i, id) in ids.iter().enumerate() {
                        ops += 1;
                        let r = c.send(&format!(r#"{{"op":"step","session":{id},"n":5}}"#));
                        assert!(is_ok(&r), "{r}");
                        if i % 3 == 0 {
                            ops += 1;
                            c.send(&format!(r#"{{"op":"close","session":{id}}}"#));
                        }
                    }
                    ops
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("worker")).sum()
    });

    let mut c = Client::connect(&handle);
    let metrics_reply = c.send(r#"{"op":"metrics"}"#);
    let wall = started.elapsed();
    let metrics = Json::parse(&metrics_reply).expect("metrics reply");
    let m = metrics.get("metrics").expect("metrics body");
    let sum = |key: &str| -> u64 {
        match m.get("tenants") {
            Some(Json::Obj(tenants)) => tenants
                .iter()
                .filter_map(|(_, t)| t.get(key).and_then(Json::as_u64))
                .sum(),
            _ => 0,
        }
    };
    let cycles = sum("cycles");
    let stats = handle.join();
    std::fs::remove_dir_all(&spool).ok();

    let wall_ms = wall.as_secs_f64() * 1e3;
    let ops_per_sec = ops_total as f64 / wall.as_secs_f64();
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"server_bench\",\n  {},\n  \"quick\": {quick},\n  \
         \"sessions\": {sessions},\n  \"connections\": {conns},\n  \"jobs\": {jobs},\n  \
         \"ops\": {ops_total},\n  \"cycles\": {cycles},\n  \"wall_ms\": {wall_ms:.3},\n  \
         \"ops_per_sec\": {ops_per_sec:.1},\n  \"steps\": {},\n  \"evictions\": {},\n  \
         \"rehydrations\": {},\n  \"injections\": {},\n  \"busy_rejections\": {},\n  \
         \"panics_contained\": {},\n  \"sessions_spilled\": {},\n  \
         \"protocol_errors\": {}\n}}\n",
        record_fingerprint(),
        sum("steps"),
        sum("evictions"),
        sum("rehydrations"),
        sum("injections"),
        sum("busy_rejections"),
        stats.panics_contained,
        stats.sessions_spilled,
        stats.protocol_errors,
    );
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "{sessions} sessions over {conns} connections: {ops_total} ops in {wall_ms:.0} ms \
         ({ops_per_sec:.0} ops/s, {cycles} cycles) -> {out}"
    );
    if stats.panics_contained > 0 || stats.protocol_errors > 0 {
        eprintln!("bench traffic must be clean; server reported errors");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
