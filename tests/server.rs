//! Integration tests for the multi-tenant simulation session server:
//! per-session fault isolation, admission control, snapshot-backed
//! eviction, watchdog budgets that exclude evicted time, concurrent-step
//! equivalence, and protocol robustness — everything the server
//! promises a tenant, pinned over a real TCP socket.

use koika::check::check;
use koika::device::{Device, RegAccess};
use koika::tir::TDesign;
use koika_designs::harness::MEM_WORDS;
use koika_designs::memdev::MagicMemory;
use koika_designs::{rv32, small};
use koika_riscv::programs;
use koika_server::json::{hex_decode, hex_encode, Json};
use koika_server::{spawn, DesignProvider, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

mod legacy;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Serves `collatz` plus a `boom` alias of the same design whose device
/// panics on its fifth tick — the poisoned tenant of the isolation tests —
/// and `memwalk`, rv32i running `memwalk:4` in a magic memory.
struct TestProvider {
    td: Arc<TDesign>,
    rv32i: Arc<TDesign>,
}

impl TestProvider {
    fn new() -> TestProvider {
        TestProvider {
            td: Arc::new(check(&small::collatz()).unwrap()),
            rv32i: Arc::new(check(&rv32::rv32i()).unwrap()),
        }
    }
}

/// Panics once the session passes cycle 5. Carries a counter through
/// save/load so the panic survives engine checkouts and rehydration.
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

impl DesignProvider for TestProvider {
    fn design(&self, name: &str) -> Option<Arc<TDesign>> {
        match name {
            "collatz" | "boom" => Some(Arc::clone(&self.td)),
            "memwalk" => Some(Arc::clone(&self.rv32i)),
            _ => None,
        }
    }

    fn devices(&self, name: &str, td: &TDesign) -> Vec<Box<dyn Device + Send>> {
        match name {
            "boom" => vec![Box::new(BoomDevice { ticks: 0 })],
            "memwalk" => vec![Box::new(MagicMemory::new(
                td,
                &["imem", "dmem"],
                &programs::memwalk(4),
                MEM_WORDS,
            ))],
            _ => Vec::new(),
        }
    }
}

fn test_server(cfg: ServerConfig) -> ServerHandle {
    spawn(cfg, Arc::new(TestProvider::new()), "127.0.0.1:0").unwrap()
}

fn test_config() -> ServerConfig {
    ServerConfig {
        spool_dir: std::env::temp_dir().join(format!(
            "koika-server-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        )),
        ..ServerConfig::default()
    }
}

/// One line-oriented protocol connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    /// Sends one request line, returns the raw reply line.
    fn send_raw(&mut self, line: &str) -> String {
        writeln!(self.stream, "{line}").unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        assert!(reply.ends_with('\n'), "reply must be newline-framed: {reply:?}");
        reply.trim_end().to_string()
    }

    /// Sends one request line, returns the parsed reply.
    fn send(&mut self, line: &str) -> Json {
        let raw = self.send_raw(line);
        Json::parse(&raw).unwrap_or_else(|e| panic!("unparseable reply {raw:?}: {e}"))
    }
}

fn ok(v: &Json) -> bool {
    v.get("ok").and_then(Json::as_bool) == Some(true)
}

fn err_kind(v: &Json) -> &str {
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "expected an error: {v:?}");
    v.get("error").and_then(Json::as_str).unwrap()
}

fn u(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing {key}: {v:?}"))
}

// ---------------------------------------------------------------------------
// Fault isolation
// ---------------------------------------------------------------------------

#[test]
fn poisoned_session_kills_only_its_own_session() {
    let handle = test_server(test_config());
    let mut c = Client::connect(&handle);

    let healthy = u(&c.send(r#"{"op":"create","design":"collatz"}"#), "session");
    let boom = u(&c.send(r#"{"op":"create","design":"boom","tenant":"mallory"}"#), "session");

    // The poisoned session panics mid-step; the panic is contained and
    // only that session is torn down.
    let r = c.send(&format!(r#"{{"op":"step","session":{boom},"n":50}}"#));
    assert_eq!(err_kind(&r), "panic");
    let r = c.send(&format!(r#"{{"op":"step","session":{boom},"n":1}}"#));
    assert_eq!(err_kind(&r), "unknown-session", "poisoned session must be gone");

    // The sibling session and the server itself are unaffected.
    let r = c.send(&format!(r#"{{"op":"step","session":{healthy},"n":10}}"#));
    assert!(ok(&r), "healthy session must survive a sibling's panic: {r:?}");
    assert_eq!(u(&r, "cycles"), 10);
    let r = c.send(r#"{"op":"create","design":"collatz"}"#);
    assert!(ok(&r), "server must keep admitting sessions: {r:?}");

    // The containment is visible in the poisoned tenant's counters only.
    let m = c.send(r#"{"op":"metrics"}"#);
    let tenants = m.get("metrics").unwrap().get("tenants").unwrap();
    let mallory = tenants.get("mallory").unwrap();
    assert_eq!(u(mallory, "panics_contained"), 1);
    assert_eq!(u(mallory, "sessions_closed"), 1);
    let default = tenants.get("default").unwrap();
    assert_eq!(u(default, "panics_contained"), 0);

    handle.join();
}

#[test]
fn panic_during_create_is_contained_and_admits_no_session() {
    // A device that panics in `tick` detonates during steps, not create —
    // so drive the create-side containment with a provider whose device
    // constructor itself panics.
    struct EagerBoom {
        td: Arc<TDesign>,
    }
    impl DesignProvider for EagerBoom {
        fn design(&self, name: &str) -> Option<Arc<TDesign>> {
            (name == "eager").then(|| Arc::clone(&self.td))
        }
        fn devices(&self, _name: &str, _td: &TDesign) -> Vec<Box<dyn Device + Send>> {
            panic!("device constructor detonated");
        }
    }
    let handle = spawn(
        test_config(),
        Arc::new(EagerBoom {
            td: Arc::new(check(&small::collatz()).unwrap()),
        }),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut c = Client::connect(&handle);
    let r = c.send(r#"{"op":"create","design":"eager"}"#);
    assert_eq!(err_kind(&r), "panic");
    // The server is still alive and the failed create left no session.
    let m = c.send(r#"{"op":"metrics"}"#);
    assert_eq!(u(m.get("metrics").unwrap(), "sessions_active"), 0);
    handle.join();
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

#[test]
fn full_session_table_sheds_creates_with_busy() {
    let cfg = ServerConfig {
        max_sessions: 3,
        ..test_config()
    };
    let handle = test_server(cfg);
    let mut c = Client::connect(&handle);

    let mut ids = Vec::new();
    for _ in 0..3 {
        ids.push(u(&c.send(r#"{"op":"create","design":"collatz"}"#), "session"));
    }
    let r = c.send(r#"{"op":"create","design":"collatz"}"#);
    assert_eq!(err_kind(&r), "busy", "table is full: {r:?}");

    // Closing one frees a slot; the shed create was never half-admitted.
    let r = c.send(&format!(r#"{{"op":"close","session":{}}}"#, ids[0]));
    assert!(ok(&r));
    let r = c.send(r#"{"op":"create","design":"collatz"}"#);
    assert!(ok(&r), "freed slot must be reusable: {r:?}");
    let r = c.send(&format!(r#"{{"op":"step","session":{}}}"#, ids[0]));
    assert_eq!(err_kind(&r), "unknown-session");

    let m = c.send(r#"{"op":"metrics"}"#);
    let default = m.get("metrics").unwrap().get("tenants").unwrap().get("default").unwrap();
    assert_eq!(u(default, "busy_rejections"), 1);

    handle.join();
}

// ---------------------------------------------------------------------------
// Eviction and rehydration
// ---------------------------------------------------------------------------

#[test]
fn evicted_session_rehydrates_byte_identical() {
    let handle = test_server(test_config());
    let mut c = Client::connect(&handle);
    let id = u(&c.send(r#"{"op":"create","design":"collatz"}"#), "session");
    assert!(ok(&c.send(&format!(r#"{{"op":"step","session":{id},"n":20}}"#))));

    let before = c.send(&format!(r#"{{"op":"snapshot","session":{id}}}"#));
    let hex_before = before.get("ksnap").and_then(Json::as_str).unwrap().to_string();

    let r = c.send(&format!(r#"{{"op":"evict","session":{id}}}"#));
    assert!(ok(&r), "{r:?}");
    assert_eq!(r.get("evicted").and_then(Json::as_bool), Some(true));

    // Any touch transparently rehydrates; the state is byte-identical.
    let after = c.send(&format!(r#"{{"op":"snapshot","session":{id}}}"#));
    let hex_after = after.get("ksnap").and_then(Json::as_str).unwrap();
    assert_eq!(hex_before, hex_after, "rehydrated state must be byte-identical");

    // And the session keeps running from where it left off.
    let r = c.send(&format!(r#"{{"op":"step","session":{id},"n":5}}"#));
    assert!(ok(&r));
    assert_eq!(u(&r, "cycles"), 25);

    let m = c.send(r#"{"op":"metrics"}"#);
    let default = m.get("metrics").unwrap().get("tenants").unwrap().get("default").unwrap();
    assert_eq!(u(default, "evictions"), 1);
    assert_eq!(u(default, "rehydrations"), 1);
    handle.join();
}

#[test]
fn wall_budget_excludes_time_spent_evicted() {
    // A session with a 250 ms wall budget is evicted and left cold for
    // longer than its entire budget; because the watchdog is paused while
    // the session is off-core, the next step must still be inside budget.
    let handle = test_server(test_config());
    let mut c = Client::connect(&handle);
    let r = c.send(r#"{"op":"create","design":"collatz","watchdog":{"wall_ms":250}}"#);
    let id = u(&r, "session");
    assert!(ok(&c.send(&format!(r#"{{"op":"step","session":{id},"n":10}}"#))));
    assert!(ok(&c.send(&format!(r#"{{"op":"evict","session":{id}}}"#))));

    std::thread::sleep(Duration::from_millis(400));

    let r = c.send(&format!(r#"{{"op":"step","session":{id},"n":10}}"#));
    assert!(
        ok(&r),
        "evicted time must not burn the wall budget, got {r:?}"
    );
    assert_eq!(u(&r, "cycles"), 20);
    handle.join();
}

// ---------------------------------------------------------------------------
// Watchdog trips
// ---------------------------------------------------------------------------

#[test]
fn cycle_budget_trip_is_deterministic_and_survivable() {
    let handle = test_server(test_config());
    let mut c = Client::connect(&handle);
    let r = c.send(r#"{"op":"create","design":"collatz","watchdog":{"max_cycles":10}}"#);
    let id = u(&r, "session");

    let r = c.send(&format!(r#"{{"op":"step","session":{id},"n":100}}"#));
    assert_eq!(err_kind(&r), "watchdog");
    assert_eq!(r.get("kind").and_then(Json::as_str), Some("cycle-budget"));
    assert_eq!(u(&r, "cycle"), 10);

    // Deterministic trips commit partial progress and keep the session
    // resident — a tenant can inspect the wedged state.
    let r = c.send(&format!(r#"{{"op":"query-regs","session":{id}}}"#));
    assert!(ok(&r), "tripped session must stay queryable: {r:?}");
    assert_eq!(u(&r, "cycles"), 10);

    let m = c.send(r#"{"op":"metrics"}"#);
    let default = m.get("metrics").unwrap().get("tenants").unwrap().get("default").unwrap();
    assert_eq!(u(default, "watchdog_trips"), 1);
    handle.join();
}

// ---------------------------------------------------------------------------
// Injections and tracing
// ---------------------------------------------------------------------------

#[test]
fn injections_are_validated_and_change_the_trajectory() {
    let handle = test_server(test_config());
    let mut c = Client::connect(&handle);
    let clean = u(&c.send(r#"{"op":"create","design":"collatz"}"#), "session");
    let upset = u(&c.send(r#"{"op":"create","design":"collatz"}"#), "session");

    // Bad injections are rejected with typed errors.
    let r = c.send(&format!(
        r#"{{"op":"inject","session":{upset},"cycle":3,"reg":"nosuch","bit":0}}"#
    ));
    assert!(!ok(&r), "{r:?}");
    assert!(ok(&c.send(&format!(r#"{{"op":"step","session":{upset},"n":5}}"#))));
    let r = c.send(&format!(
        r#"{{"op":"inject","session":{upset},"cycle":2,"reg":"x","bit":1}}"#
    ));
    assert!(!ok(&r), "past-cycle injection must be rejected: {r:?}");

    // A valid future injection queues, applies, and perturbs the run.
    let r = c.send(&format!(
        r#"{{"op":"inject","session":{upset},"cycle":7,"reg":"x","bit":1}}"#
    ));
    assert!(ok(&r), "{r:?}");
    assert_eq!(u(&r, "pending"), 1);

    assert!(ok(&c.send(&format!(r#"{{"op":"step","session":{clean},"n":12}}"#))));
    assert!(ok(&c.send(&format!(r#"{{"op":"step","session":{upset},"n":7}}"#))));
    let clean_regs = c.send(&format!(r#"{{"op":"query-regs","session":{clean},"regs":["x"]}}"#));
    let upset_regs = c.send(&format!(r#"{{"op":"query-regs","session":{upset},"regs":["x"]}}"#));
    assert_ne!(
        clean_regs.get("regs").unwrap().get("x"),
        upset_regs.get("regs").unwrap().get("x"),
        "a bit flip on the working register must perturb the trajectory"
    );
    handle.join();
}

#[test]
fn stream_trace_returns_committed_rules_per_cycle() {
    let handle = test_server(test_config());
    let mut c = Client::connect(&handle);
    let id = u(&c.send(r#"{"op":"create","design":"collatz"}"#), "session");
    let r = c.send(&format!(r#"{{"op":"stream-trace","session":{id},"n":3}}"#));
    assert!(ok(&r), "{r:?}");
    let Some(Json::Arr(events)) = r.get("events") else {
        panic!("stream-trace must return events: {r:?}");
    };
    assert!(!events.is_empty(), "collatz commits rules every cycle");
    for ev in events {
        assert!(u(ev, "cycle") < 3);
        assert!(ev.get("rule").and_then(Json::as_str).is_some());
    }
    assert_eq!(r.get("truncated").and_then(Json::as_bool), Some(false));
    handle.join();
}

// ---------------------------------------------------------------------------
// Concurrent steps
// ---------------------------------------------------------------------------

#[test]
fn concurrent_same_design_steps_match_the_lone_session_reference() {
    // Reference: one session stepped alone.
    let handle = test_server(test_config());
    let mut c = Client::connect(&handle);
    let id = u(&c.send(r#"{"op":"create","design":"collatz"}"#), "session");
    assert!(ok(&c.send(&format!(r#"{{"op":"step","session":{id},"n":40}}"#))));
    let reference = c.send(&format!(r#"{{"op":"query-regs","session":{id}}}"#));
    handle.join();

    // Concurrent: four sessions of the same design step at once, so their
    // steps may share a dispatch round and run on pooled engines side by
    // side.
    let handle = test_server(test_config());
    let mut clients: Vec<Client> = (0..4).map(|_| Client::connect(&handle)).collect();
    let ids: Vec<u64> = clients
        .iter_mut()
        .map(|c| u(&c.send(r#"{"op":"create","design":"collatz"}"#), "session"))
        .collect();
    let replies: Vec<Json> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&ids)
            .map(|(c, id)| {
                s.spawn(move || c.send(&format!(r#"{{"op":"step","session":{id},"n":40}}"#)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &replies {
        assert!(ok(r), "{r:?}");
        assert_eq!(u(r, "cycles"), 40);
    }
    let mut c = Client::connect(&handle);
    for id in &ids {
        let regs = c.send(&format!(r#"{{"op":"query-regs","session":{id}}}"#));
        assert_eq!(
            regs.get("regs"),
            reference.get("regs"),
            "concurrent steps must be bit-identical to the lone session"
        );
    }
    handle.join();
}

// ---------------------------------------------------------------------------
// Protocol robustness
// ---------------------------------------------------------------------------

#[test]
fn protocol_errors_never_take_the_server_down() {
    let handle = test_server(test_config());
    let mut c = Client::connect(&handle);

    assert_eq!(err_kind(&c.send("this is not json")), "protocol");
    assert_eq!(err_kind(&c.send(r#"{"no":"op"}"#)), "protocol");
    assert_eq!(err_kind(&c.send(r#"{"op":"frobnicate"}"#)), "unknown-op");
    assert_eq!(err_kind(&c.send(r#"{"op":"step","session":999}"#)), "unknown-session");
    assert_eq!(err_kind(&c.send(r#"{"op":"step"}"#)), "protocol");
    assert_eq!(err_kind(&c.send(r#"{"op":"create","design":"nosuch"}"#)), "unknown-design");
    assert_eq!(
        err_kind(&c.send(r#"{"op":"create","design":"collatz","backend":"rtl"}"#)),
        "protocol",
        "the server offers interp and cuttlesim engines only"
    );
    let id = u(&c.send(r#"{"op":"create","design":"collatz"}"#), "session");
    assert_eq!(
        err_kind(&c.send(&format!(r#"{{"op":"step","session":{id},"n":999999999}}"#))),
        "protocol"
    );

    // After all of that abuse the server still does real work.
    let r = c.send(&format!(r#"{{"op":"step","session":{id},"n":4}}"#));
    assert!(ok(&r), "{r:?}");
    assert!(ok(&c.send(r#"{"op":"ping"}"#)));

    let m = c.send(r#"{"op":"metrics"}"#);
    let metrics = m.get("metrics").unwrap();
    // Unparseable line, op-less object, unknown op. (Typed op-level
    // errors such as unknown-session are not protocol errors.)
    assert_eq!(u(metrics, "protocol_errors"), 3);
    handle.join();
}

#[test]
fn restore_rejects_corrupt_and_mismatched_snapshots_as_bad_snapshot() {
    let handle = test_server(test_config());
    let mut c = Client::connect(&handle);
    let id = u(&c.send(r#"{"op":"create","design":"collatz"}"#), "session");
    assert!(ok(&c.send(&format!(r#"{{"op":"step","session":{id},"n":10}}"#))));
    let good = c.send(&format!(r#"{{"op":"snapshot","session":{id}}}"#));
    let hex = good.get("ksnap").and_then(Json::as_str).unwrap().to_string();

    // Not hex at all: a protocol error, not a snapshot error.
    let r = c.send(&format!(r#"{{"op":"restore","session":{id},"ksnap":"zz"}}"#));
    assert_eq!(err_kind(&r), "protocol");

    // Valid hex, garbage bytes: typed bad-snapshot.
    let r = c.send(&format!(r#"{{"op":"restore","session":{id},"ksnap":"deadbeef"}}"#));
    assert_eq!(err_kind(&r), "bad-snapshot");

    // A truncated but otherwise genuine snapshot: rejected before any
    // state is touched.
    let cut = &hex[..hex.len() - 8];
    let r = c.send(&format!(r#"{{"op":"restore","session":{id},"ksnap":"{cut}"}}"#));
    assert_eq!(err_kind(&r), "bad-snapshot", "{r:?}");

    // After all rejections the session still holds its exact pre-restore
    // state and keeps stepping.
    let after = c.send(&format!(r#"{{"op":"snapshot","session":{id}}}"#));
    assert_eq!(
        after.get("ksnap").and_then(Json::as_str),
        Some(hex.as_str()),
        "a rejected restore must not perturb the session"
    );
    let r = c.send(&format!(r#"{{"op":"step","session":{id},"n":5}}"#));
    assert!(ok(&r), "{r:?}");
    assert_eq!(u(&r, "cycles"), 15);

    // And the good snapshot still restores.
    let r = c.send(&format!(r#"{{"op":"restore","session":{id},"ksnap":"{hex}"}}"#));
    assert!(ok(&r), "{r:?}");
    assert_eq!(u(&r, "cycles"), 10);
    handle.join();
}

/// The hex image a session's `snapshot` replies with.
fn snapshot_hex(c: &mut Client, id: u64) -> String {
    let r = c.send(&format!(r#"{{"op":"snapshot","session":{id}}}"#));
    r.get("ksnap").and_then(Json::as_str).unwrap().to_string()
}

#[test]
fn restore_carries_memory_on_memwalk() {
    // `memwalk:4` stores to memory from cycle 52 on, each pass reloading
    // the last one's stores; cycle 500 is mid-pass and 2,000 is past the
    // halt.
    let handle = test_server(test_config());
    let mut c = Client::connect(&handle);
    for backend in ["interp", "cuttlesim"] {
        let create = format!(r#"{{"op":"create","design":"memwalk","backend":"{backend}"}}"#);
        let id = u(&c.send(&create), "session");
        let step = |c: &mut Client, n: u64| {
            let r = c.send(&format!(r#"{{"op":"step","session":{id},"n":{n}}}"#));
            assert!(ok(&r), "{r:?}");
        };
        step(&mut c, 500);
        let at_500 = snapshot_hex(&mut c, id);
        step(&mut c, 1500);
        let straight = snapshot_hex(&mut c, id);
        let r = c.send(&format!(r#"{{"op":"restore","session":{id},"ksnap":"{at_500}"}}"#));
        assert_eq!(u(&r, "cycles"), 500, "{r:?}");
        step(&mut c, 1500);
        assert!(
            snapshot_hex(&mut c, id) == straight,
            "{backend}: the image restored at cycle 500 differs at cycle 2000"
        );
        // The program finished with its result in memory.
        let image = koika::snapshot::StateImage::from_bytes(&hex_decode(&straight).unwrap()).unwrap();
        let mem = image.devices[0].as_deref().unwrap();
        let at = programs::RESULT_ADDR as usize;
        let result = u32::from_le_bytes(mem[at..at + 4].try_into().unwrap());
        assert_eq!(result, programs::memwalk_expected(4), "{backend}");
    }
    handle.join();
}

#[test]
fn restore_refuses_images_the_devices_do_not_take() {
    let handle = test_server(test_config());
    let mut c = Client::connect(&handle);
    // `boom` has one device, whose state is 8 bytes; `collatz` has none.
    let plain = u(&c.send(r#"{"op":"create","design":"collatz"}"#), "session");
    let boom = u(&c.send(r#"{"op":"create","design":"boom"}"#), "session");
    for id in [plain, boom] {
        assert!(ok(&c.send(&format!(r#"{{"op":"step","session":{id},"n":3}}"#))));
    }
    let (plain_hex, boom_hex) = (snapshot_hex(&mut c, plain), snapshot_hex(&mut c, boom));
    // The wrong device count, both ways round.
    for (id, hex) in [(plain, &boom_hex), (boom, &plain_hex)] {
        let r = c.send(&format!(r#"{{"op":"restore","session":{id},"ksnap":"{hex}"}}"#));
        assert_eq!(err_kind(&r), "bad-snapshot", "{r:?}");
        assert!(r.get("detail").and_then(Json::as_str).unwrap().contains("device"), "{r:?}");
    }
    // A device section the device refuses: 7 bytes instead of 8.
    let mut bytes = hex_decode(&boom_hex).unwrap();
    let n = bytes.len();
    bytes[n - 12..n - 8].copy_from_slice(&7u32.to_le_bytes());
    bytes.pop();
    let refused = hex_encode(&bytes);
    let r = c.send(&format!(r#"{{"op":"restore","session":{boom},"ksnap":"{refused}"}}"#));
    assert_eq!(err_kind(&r), "bad-snapshot", "{r:?}");
    assert!(r.get("detail").and_then(Json::as_str).unwrap().contains("bad blob"), "{r:?}");
    // Refused restores leave both sessions as they were.
    assert_eq!(snapshot_hex(&mut c, plain), plain_hex);
    assert_eq!(snapshot_hex(&mut c, boom), boom_hex);
    handle.join();
}

#[test]
fn restore_refuses_older_snapshot_formats_as_bad_snapshot() {
    let handle = test_server(test_config());
    let mut c = Client::connect(&handle);
    let id = u(&c.send(r#"{"op":"create","design":"collatz"}"#), "session");
    let v3 = hex_decode(&snapshot_hex(&mut c, id)).unwrap();
    for (old, names) in [(legacy::version_2_ksnap(&v3), "version 2"), (legacy::kses_spool(&v3), "KSES")] {
        let hex = hex_encode(&old);
        let r = c.send(&format!(r#"{{"op":"restore","session":{id},"ksnap":"{hex}"}}"#));
        assert_eq!(err_kind(&r), "bad-snapshot", "{r:?}");
        assert!(r.get("detail").and_then(Json::as_str).unwrap().contains(names), "{r:?}");
    }
    handle.join();
}

#[test]
fn metrics_are_tracked_per_tenant() {
    let handle = test_server(test_config());
    let mut c = Client::connect(&handle);
    let a = u(&c.send(r#"{"op":"create","design":"collatz","tenant":"alice"}"#), "session");
    let b = u(&c.send(r#"{"op":"create","design":"collatz","tenant":"bob"}"#), "session");
    assert!(ok(&c.send(&format!(r#"{{"op":"step","session":{a},"n":8}}"#))));
    assert!(ok(&c.send(&format!(r#"{{"op":"step","session":{b},"n":3}}"#))));
    assert!(ok(&c.send(&format!(r#"{{"op":"step","session":{b},"n":3}}"#))));

    let m = c.send(r#"{"op":"metrics"}"#);
    let tenants = m.get("metrics").unwrap().get("tenants").unwrap();
    let alice = tenants.get("alice").unwrap();
    let bob = tenants.get("bob").unwrap();
    assert_eq!((u(alice, "steps"), u(alice, "cycles")), (1, 8));
    assert_eq!((u(bob, "steps"), u(bob, "cycles")), (2, 6));

    // The Prometheus exposition carries the same counters with labels.
    let p = c.send(r#"{"op":"metrics","format":"prometheus"}"#);
    let text = p.get("prometheus").and_then(Json::as_str).unwrap();
    assert!(text.contains("koika_server_cycles_total{tenant=\"alice\"} 8"));
    assert!(text.contains("koika_server_cycles_total{tenant=\"bob\"} 6"));
    handle.join();
}

#[test]
fn graceful_shutdown_drains_and_reports() {
    let handle = test_server(test_config());
    let mut c = Client::connect(&handle);
    let id = u(&c.send(r#"{"op":"create","design":"collatz"}"#), "session");
    assert!(ok(&c.send(&format!(r#"{{"op":"step","session":{id},"n":5}}"#))));
    let r = c.send(r#"{"op":"shutdown"}"#);
    assert_eq!(r.get("draining").and_then(Json::as_bool), Some(true));
    let stats = handle.wait();
    assert!(stats.requests >= 3);
    assert_eq!(stats.sessions_spilled, 1, "live sessions spill on drain");
    assert_eq!(stats.panics_contained, 0);
}
