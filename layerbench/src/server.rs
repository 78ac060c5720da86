//! `server-durable`: an in-process session server with journaling on
//! (`state_dir` set), driven closed-loop over two connections with a
//! seeded mix of create, step, inject, snapshot, evict and close on
//! collatz and fir. Each unit ends with `abort()` (kill -9 semantics) and
//! restarts on the aborted state, which must bring back every surviving
//! session byte for byte.

use crate::trace::Tracer;
use crate::{
    median, mix, quantile, sustained_rate, sustained_time, trace_overhead, traced_unit, unit_count,
    Options, RunResult, Size,
};
use koika::check::check;
use koika::device::Device;
use koika::tir::TDesign;
use koika_designs::small;
use koika_server::json::Json;
use koika_server::{spawn, DesignProvider, ServerConfig, ServerHandle};
use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Client connections driving the server, and server worker threads.
const CONNS: u64 = 2;
const JOBS: usize = 2;

/// Consecutive untraced units pooled into one throughput window.
const WINDOW: usize = 10;

/// Serves collatz and fir, checked once each.
struct Provider {
    designs: Mutex<BTreeMap<String, Arc<TDesign>>>,
}

impl DesignProvider for Provider {
    fn design(&self, name: &str) -> Option<Arc<TDesign>> {
        let mut cache = self.designs.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(td) = cache.get(name) {
            return Some(Arc::clone(td));
        }
        let design = match name {
            "collatz" => small::collatz(),
            "fir" => small::fir(),
            _ => return None,
        };
        let td = Arc::new(check(&design).ok()?);
        cache.insert(name.to_string(), Arc::clone(&td));
        Some(td)
    }

    fn devices(&self, _name: &str, _td: &TDesign) -> Vec<Box<dyn Device + Send>> {
        Vec::new()
    }
}

/// The request kinds timed separately, with their span names.
const OPS: [(&str, &str); 7] = [
    ("create", "koika_server.create"),
    ("step", "koika_server.step"),
    ("step_after_evict", "koika_server.step_after_evict"),
    ("inject", "koika_server.inject"),
    ("snapshot", "koika_server.snapshot"),
    ("evict", "koika_server.evict"),
    ("close", "koika_server.close"),
];

/// xorshift64* — the seeded traffic mix.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        // Without this, Nagle plus delayed ACK stalls each round trip.
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client { stream, reader })
    }

    fn send(&mut self, line: &str) -> Json {
        let mut reply = String::new();
        let sent = writeln!(self.stream, "{line}").is_ok();
        if sent && self.reader.read_line(&mut reply).is_ok() {
            Json::parse(reply.trim_end()).unwrap_or(Json::Null)
        } else {
            Json::Null
        }
    }
}

fn ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

/// What one connection saw.
#[derive(Default)]
struct ConnLog {
    ops: u64,
    failed: u64,
    /// Seconds per request.
    latencies: Vec<f64>,
    /// Sessions still open at the end.
    live: Vec<u64>,
}

/// One connection's closed-loop traffic: `sessions` creates, each followed
/// by a seeded touch of an earlier session, then a final sweep that steps
/// every session and closes a third of them.
fn drive(addr: SocketAddr, seed: u64, sessions: u64, tracer: &Tracer) -> Result<ConnLog, String> {
    let mut c = Client::connect(addr)?;
    let mut rng = Rng(seed | 1);
    let mut log = ConnLog::default();
    let mut evicted: HashSet<u64> = HashSet::new();
    let request = |c: &mut Client, op: usize, line: String, log: &mut ConnLog| -> Json {
        let t = Instant::now();
        let reply = c.send(&line);
        let end = Instant::now();
        tracer.record(OPS[op].1, t, end);
        log.latencies.push(end.duration_since(t).as_secs_f64());
        log.ops += 1;
        if !ok(&reply) {
            log.failed += 1;
        }
        reply
    };
    // Fixed proportions in a seeded order: of every ten touches, one
    // evicts, one injects, one snapshots and seven step.
    let mut kinds = [0u64, 1, 2, 3, 3, 3, 3, 3, 3, 3];
    let mut touches = 0usize;
    let mut ids: Vec<u64> = Vec::new();
    for i in 0..sessions {
        let design = if i % 2 == 0 { "collatz" } else { "fir" };
        let reply = request(
            &mut c,
            0,
            format!(
                r#"{{"op":"create","design":"{design}","tenant":"w{}"}}"#,
                seed % 7
            ),
            &mut log,
        );
        if let Some(id) = reply.get("session").and_then(Json::as_u64) {
            ids.push(id);
        }
        if ids.is_empty() {
            continue;
        }
        if touches.is_multiple_of(kinds.len()) {
            for k in (1..kinds.len()).rev() {
                kinds.swap(k, rng.below(k as u64 + 1) as usize);
            }
        }
        let kind = kinds[touches % kinds.len()];
        touches += 1;
        let id = ids[rng.below(ids.len() as u64) as usize];
        let was_evicted = evicted.remove(&id);
        match kind {
            0 => {
                request(
                    &mut c,
                    5,
                    format!(r#"{{"op":"evict","session":{id}}}"#),
                    &mut log,
                );
                evicted.insert(id);
            }
            // Register by flat index, valid for both designs; the cycle
            // lies beyond the run, so the injection stays pending.
            1 => {
                let line = format!(
                    r#"{{"op":"inject","session":{id},"cycle":1000000,"reg":"0","bit":0}}"#
                );
                request(&mut c, 3, line, &mut log);
            }
            2 => {
                request(
                    &mut c,
                    4,
                    format!(r#"{{"op":"snapshot","session":{id}}}"#),
                    &mut log,
                );
            }
            _ => {
                let n = 1 + rng.below(32);
                let op = if was_evicted { 2 } else { 1 };
                request(
                    &mut c,
                    op,
                    format!(r#"{{"op":"step","session":{id},"n":{n}}}"#),
                    &mut log,
                );
            }
        }
    }
    for (i, &id) in ids.iter().enumerate() {
        let op = if evicted.remove(&id) { 2 } else { 1 };
        request(
            &mut c,
            op,
            format!(r#"{{"op":"step","session":{id},"n":5}}"#),
            &mut log,
        );
        if i % 3 == 0 {
            request(
                &mut c,
                6,
                format!(r#"{{"op":"close","session":{id}}}"#),
                &mut log,
            );
        } else {
            log.live.push(id);
        }
    }
    Ok(log)
}

fn config(dir: &Path) -> ServerConfig {
    let mut cfg = ServerConfig::default();
    cfg.runner.jobs = JOBS;
    cfg.state_dir = Some(dir.to_path_buf());
    cfg.spool_dir = dir.to_path_buf();
    cfg
}

fn provider() -> Arc<Provider> {
    Arc::new(Provider {
        designs: Mutex::new(BTreeMap::new()),
    })
}

fn tenant_sum(metrics: &Json, key: &str) -> u64 {
    match metrics.get("metrics").and_then(|m| m.get("tenants")) {
        Some(Json::Obj(tenants)) => tenants
            .iter()
            .filter_map(|(_, t)| t.get(key).and_then(Json::as_u64))
            .sum(),
        _ => 0,
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// The simulated statistics of one unit; identical for every unit of one
/// seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct UnitStats {
    ops: u64,
    cycles: u64,
    live: u64,
}

/// Runs the workload.
///
/// # Errors
///
/// The server failing to bind or to start.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    let mut r = RunResult {
        consistent: true,
        ..RunResult::default()
    };
    let tracer = Tracer::new(opts.trace);
    let off = Tracer::new(false);
    let (sessions, restarts, samples) = match opts.size {
        Size::Full => (50, 2, 4),
        Size::Tiny => (6, 1, 2),
    };
    // A unit is one server lifetime of about 330 requests, 0.1-0.2 s.
    let units = unit_count(opts, 0.2);
    let mut first: Option<UnitStats> = None;
    // Per untraced unit: (requests, seconds).
    let mut untraced: Vec<(u64, f64)> = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut setup_s = Vec::new();
    let (mut steps, mut packed) = (0u64, 0u64);
    let (mut bytes_per_op, mut recovered) = (Vec::new(), 0u64);
    for unit in 0..units {
        let traced = traced_unit(opts, unit);
        let dir = opts.work.join(format!("state-{unit}"));
        let handle = spawn(config(&dir), provider(), "127.0.0.1:0")
            .map_err(|e| format!("server did not start: {e}"))?;
        let addr = handle.addr();
        let unit_tracer = if traced { &tracer } else { &off };
        let t = Instant::now();
        let logs: Vec<Result<ConnLog, String>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..CONNS)
                .map(|w| {
                    s.spawn(move || drive(addr, mix(opts.seed, 20 + w), sessions, unit_tracer))
                })
                .collect();
            workers
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });
        let secs = t.elapsed().as_secs_f64();
        let mut logs = logs.into_iter().collect::<Result<Vec<_>, _>>()?;
        let ops: u64 = logs.iter().map(|l| l.ops).sum();
        r.attempted += ops;
        r.failed += logs.iter().map(|l| l.failed).sum::<u64>();
        if traced {
            traced_rates.push(ops as f64 / secs);
        } else {
            rates.push(ops as f64 / secs);
            untraced.push((ops, secs));
            for log in &logs {
                latencies_ms.extend(log.latencies.iter().map(|s| s * 1e3));
            }
        }

        // Observe the surviving state, then kill the server.
        let mut c = Client::connect(addr)?;
        let metrics = c.send(r#"{"op":"metrics"}"#);
        steps += tenant_sum(&metrics, "steps");
        packed += tenant_sum(&metrics, "packed_steps");
        let live: Vec<u64> = logs
            .iter_mut()
            .flat_map(|l| std::mem::take(&mut l.live))
            .collect();
        let stats = UnitStats {
            ops,
            cycles: tenant_sum(&metrics, "cycles"),
            live: live.len() as u64,
        };
        match first {
            None => first = Some(stats),
            Some(f) => r.consistent &= f == stats,
        }
        let mut expect: Vec<(u64, String)> = Vec::new();
        for i in 0..samples.min(live.len()) {
            let id = live[(mix(opts.seed, 30 + i as u64) % live.len() as u64) as usize];
            let reply = c.send(&format!(r#"{{"op":"snapshot","session":{id}}}"#));
            let mut hex = reply
                .get("ksnap")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            if opts.corrupt && i == 0 {
                hex.insert(0, '0');
            }
            expect.push((id, hex));
        }
        bytes_per_op.push(dir_bytes(&dir) as f64 / ops.max(1) as f64);
        drop(c);
        handle.abort();

        // Restart on the aborted state, several times on identical
        // copies: recovery alone is a few milliseconds.
        let copies: Vec<_> = (0..restarts)
            .map(|k| dir.with_extension(format!("r{k}")))
            .collect();
        for copy in &copies {
            copy_dir(&dir, copy).map_err(|e| format!("cannot copy state dir: {e}"))?;
        }
        for copy in &copies {
            // Set-up is the restart itself: `spawn` recovers every
            // session before it returns. The first reply is checked
            // but not timed, because its wait is mostly the phase of
            // the accept loop's 10 ms poll.
            let t = Instant::now();
            let handle: ServerHandle = tracer
                .span("koika_server.recovery", || {
                    spawn(config(copy), provider(), "127.0.0.1:0")
                })
                .map_err(|e| format!("server did not restart: {e}"))?;
            setup_s.push(t.elapsed().as_secs_f64());
            let mut c = Client::connect(handle.addr())?;
            let pong = c.send(r#"{"op":"ping"}"#);
            recovered = handle.recovered_sessions();
            r.attempted += 1;
            if !ok(&pong) || recovered != live.len() as u64 || handle.lost_sessions() != 0 {
                r.failed += 1;
            }
            for (id, hex) in &expect {
                let reply = c.send(&format!(r#"{{"op":"snapshot","session":{id}}}"#));
                r.attempted += 1;
                if reply.get("ksnap").and_then(Json::as_str) != Some(hex.as_str()) {
                    r.failed += 1;
                }
            }
            drop(c);
            handle.abort();
        }
        for d in copies.iter().chain([&dir]) {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    let stats = first.expect("at least one unit ran");
    // One unit is too short to average out a single slow fsync, so the
    // rate is pooled over windows of consecutive units (a trailing partial
    // window is dropped), and the slowest window is reported.
    let windows: Vec<f64> = untraced
        .chunks_exact(WINDOW.min(untraced.len()))
        .map(|w| w.iter().map(|u| u.0).sum::<u64>() as f64 / w.iter().map(|u| u.1).sum::<f64>())
        .collect();
    r.set(
        "throughput",
        windows.iter().copied().fold(f64::INFINITY, f64::min),
    );
    r.note("unit_rates", format!("{rates:.0?}"));
    r.note("window_rates", format!("{windows:.0?}"));
    r.set("setup_s", sustained_time(&setup_s));
    r.set("latency.p50_ms", median(&latencies_ms));
    r.set("latency.p99_ms", quantile(&latencies_ms, 0.99));
    r.note("latency_samples", latencies_ms.len().to_string());
    r.note("setup_samples", setup_s.len().to_string());
    r.note("ops_per_unit", stats.ops.to_string());
    r.set("sim.server_cycles", stats.cycles as f64);
    r.set("koika_server.recovered_sessions", recovered as f64);
    if opts.trace {
        for (op, span) in OPS {
            let ms: Vec<f64> = tracer.self_times(span).iter().map(|s| s * 1e3).collect();
            let (p50, p99) = (median(&ms), quantile(&ms, 0.99));
            r.note(&format!("{op}_samples"), ms.len().to_string());
            r.set(&format!("koika_server.{op}_p50_ms"), p50);
            r.set(&format!("koika_server.{op}_p99_ms"), p99);
        }
        r.set(
            "koika_server.packed_ratio",
            packed as f64 / steps.max(1) as f64,
        );
        r.set("koika_server.state_bytes_per_op", median(&bytes_per_op));
        r.set(
            "koika_server.recovery_s",
            median(&tracer.self_times("koika_server.recovery")),
        );
        r.set("trace.throughput", sustained_rate(&traced_rates));
        r.set(
            "trace.overhead_ratio",
            trace_overhead(&rates, &traced_rates),
        );
        r.note("spans", tracer.summary_json());
    }
    Ok(r)
}
