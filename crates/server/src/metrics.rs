//! Per-tenant server counters, exported as JSON and Prometheus text.
//!
//! Every counter here is a pure function of the request stream — no
//! timestamps, no throughput — so a scripted client driving a fresh server
//! twice sees byte-identical `metrics` replies, which is what lets CI
//! byte-compare smoke runs. Wall-clock rates belong to the bench driver,
//! not the server.

use koika::obs::{prom_family, prom_sample};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Counters for one tenant. All counters are monotonic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Sessions created by this tenant.
    pub sessions_created: u64,
    /// Sessions closed (explicitly, or torn down after a contained panic).
    pub sessions_closed: u64,
    /// `step` / `stream-trace` requests executed.
    pub steps: u64,
    /// Simulated cycles executed on behalf of the tenant.
    pub cycles: u64,
    /// Fault injections queued.
    pub injections: u64,
    /// Sessions spilled to the snapshot spool (idle or explicit `evict`).
    pub evictions: u64,
    /// Evicted sessions transparently reloaded.
    pub rehydrations: u64,
    /// Panics contained inside this tenant's sessions (each one tore down
    /// exactly one session).
    pub panics_contained: u64,
    /// Watchdog budget trips (stall, cycle, or wall).
    pub watchdog_trips: u64,
    /// Requests shed with a `busy` reply (full table or full queue).
    pub busy_rejections: u64,
    /// Sessions rebuilt from the state directory (journal replay) after a
    /// server restart.
    pub recovered_sessions: u64,
    /// Torn journal tails truncated back to the last durable record
    /// during recovery.
    pub journal_truncations: u64,
    /// Injected chaos faults absorbed by this tenant's durable writes.
    pub chaos_faults: u64,
}

/// All server-level counters: a per-tenant map plus process-wide totals.
#[derive(Debug, Clone, Default)]
pub struct ServerMetrics {
    tenants: BTreeMap<String, TenantCounters>,
    /// Requests parsed and dispatched (any tenant, any op).
    pub requests: u64,
    /// Lines that failed to parse or named an unknown op.
    pub protocol_errors: u64,
}

impl ServerMetrics {
    /// The (created-on-first-use) counters for one tenant.
    pub fn tenant(&mut self, name: &str) -> &mut TenantCounters {
        self.tenants.entry(name.to_string()).or_default()
    }

    /// Read-only view of every tenant's counters, ordered by tenant name.
    pub fn tenants(&self) -> impl Iterator<Item = (&str, &TenantCounters)> {
        self.tenants.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Renders the counters as a deterministic JSON object (tenants in
    /// name order; no timing data).
    pub fn to_json(&self, sessions_active: u64) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"sessions_active\":{sessions_active},\"requests\":{},\"protocol_errors\":{},\"tenants\":{{",
            self.requests, self.protocol_errors
        );
        for (i, (name, t)) in self.tenants.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{{\"sessions_created\":{},\"sessions_closed\":{},\"steps\":{},\
                 \"cycles\":{},\"injections\":{},\"evictions\":{},\"rehydrations\":{},\
                 \"panics_contained\":{},\"watchdog_trips\":{},\"busy_rejections\":{},\
                 \"recovered_sessions\":{},\"journal_truncations\":{},\
                 \"chaos_faults\":{}}}",
                crate::json::escape(name),
                t.sessions_created,
                t.sessions_closed,
                t.steps,
                t.cycles,
                t.injections,
                t.evictions,
                t.rehydrations,
                t.panics_contained,
                t.watchdog_trips,
                t.busy_rejections,
                t.recovered_sessions,
                t.journal_truncations,
                t.chaos_faults,
            );
        }
        s.push_str("}}");
        s
    }

    /// Renders a Prometheus text exposition of the `koika_server_*`
    /// counter families, one sample per tenant per family.
    pub fn to_prometheus(&self, sessions_active: u64) -> String {
        let mut s = String::new();
        prom_family(
            &mut s,
            "koika_server_sessions_active",
            "Sessions currently resident (live or evicted).",
            "gauge",
        );
        prom_sample(&mut s, "koika_server_sessions_active", &[], sessions_active);
        prom_family(&mut s, "koika_server_requests_total", "Requests dispatched.", "counter");
        prom_sample(&mut s, "koika_server_requests_total", &[], self.requests);
        prom_family(
            &mut s,
            "koika_server_protocol_errors_total",
            "Unparseable or unknown requests.",
            "counter",
        );
        prom_sample(&mut s, "koika_server_protocol_errors_total", &[], self.protocol_errors);

        type Read = fn(&TenantCounters) -> u64;
        let families: &[(&str, &str, Read)] = &[
            ("koika_server_sessions_created_total", "Sessions created.", |t| t.sessions_created),
            ("koika_server_sessions_closed_total", "Sessions closed or torn down.", |t| {
                t.sessions_closed
            }),
            ("koika_server_steps_total", "Step requests executed.", |t| t.steps),
            ("koika_server_cycles_total", "Simulated cycles executed.", |t| t.cycles),
            ("koika_server_injections_total", "Fault injections queued.", |t| t.injections),
            ("koika_server_evictions_total", "Sessions spilled to the spool.", |t| t.evictions),
            ("koika_server_rehydrations_total", "Evicted sessions reloaded.", |t| {
                t.rehydrations
            }),
            ("koika_server_panics_contained_total", "Panics contained per tenant.", |t| {
                t.panics_contained
            }),
            ("koika_server_watchdog_trips_total", "Watchdog budget trips.", |t| {
                t.watchdog_trips
            }),
            ("koika_server_busy_rejections_total", "Requests shed with busy replies.", |t| {
                t.busy_rejections
            }),
            ("koika_server_recovered_sessions_total", "Sessions rebuilt by journal replay.", |t| {
                t.recovered_sessions
            }),
            (
                "koika_server_journal_truncations_total",
                "Torn journal tails truncated during recovery.",
                |t| t.journal_truncations,
            ),
            ("koika_server_chaos_faults_total", "Injected chaos faults absorbed.", |t| {
                t.chaos_faults
            }),
        ];
        for (name, help, read) in families {
            prom_family(&mut s, name, help, "counter");
            for (tenant, t) in &self.tenants {
                prom_sample(&mut s, name, &[("tenant", tenant)], read(t));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_export_is_deterministic_and_ordered() {
        let mut m = ServerMetrics::default();
        m.tenant("zeta").steps = 3;
        m.tenant("alpha").sessions_created = 2;
        m.requests = 5;
        let a = m.to_json(2);
        let b = m.to_json(2);
        assert_eq!(a, b);
        let alpha = a.find("\"alpha\"").unwrap();
        let zeta = a.find("\"zeta\"").unwrap();
        assert!(alpha < zeta, "tenants must serialize in name order");
        assert!(a.contains("\"sessions_active\":2"));
        // The export must be valid JSON by our own parser.
        crate::json::Json::parse(&a).unwrap();
    }

    #[test]
    fn prometheus_export_has_tenant_labels() {
        let mut m = ServerMetrics::default();
        m.tenant("t0").panics_contained = 1;
        let text = m.to_prometheus(1);
        assert!(text.contains("# TYPE koika_server_panics_contained_total counter"));
        assert!(text.contains("koika_server_panics_contained_total{tenant=\"t0\"} 1"));
        assert!(text.contains("koika_server_sessions_active 1"));
    }

    #[test]
    fn recovery_counters_export_in_both_formats() {
        let mut m = ServerMetrics::default();
        let t = m.tenant("t0");
        t.recovered_sessions = 4;
        t.journal_truncations = 2;
        t.chaos_faults = 9;
        let json = m.to_json(4);
        assert!(json.contains("\"recovered_sessions\":4"));
        assert!(json.contains("\"journal_truncations\":2"));
        assert!(json.contains("\"chaos_faults\":9"));
        crate::json::Json::parse(&json).unwrap();
        let prom = m.to_prometheus(4);
        assert!(prom.contains("koika_server_recovered_sessions_total{tenant=\"t0\"} 4"));
        assert!(prom.contains("koika_server_journal_truncations_total{tenant=\"t0\"} 2"));
        assert!(prom.contains("koika_server_chaos_faults_total{tenant=\"t0\"} 9"));
    }
}
