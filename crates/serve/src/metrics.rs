//! Request counters and latency histograms with a plain-text exposition.
//!
//! Everything here is clock-free: the server measures durations (that's
//! the one place `Instant` is read, under an explicit wall-clock lint
//! annotation) and reports *microseconds* into [`Metrics::observe`].
//! Rendering is deterministic given the counter values, so the e2e test
//! can assert exact counts from the exposition text.

use std::sync::atomic::{AtomicU64, Ordering};

/// The instrumented endpoints, in exposition order.
pub const ENDPOINTS: [&str; 5] = ["influence", "seeds", "embed", "metrics", "healthz"];

/// Upper bounds (µs) of the latency histogram buckets; the last bucket is
/// +inf. Log-spaced from 50 µs to 1 s.
pub const BUCKETS_US: [u64; 12] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 100_000, 250_000, 1_000_000,
];

/// Upper bounds of the pipelined-requests depth histogram (requests
/// outstanding on one connection when a parse round finishes); the last
/// bucket is +inf. Depth 1 is a plain non-pipelined request.
pub const PIPELINE_BUCKETS: [u64; 6] = [1, 2, 4, 8, 16, 32];

#[derive(Default)]
struct EndpointStats {
    requests: AtomicU64,
    /// `BUCKETS_US.len() + 1` cumulative-style raw counts (last = +inf).
    buckets: [AtomicU64; 13],
    latency_sum_us: AtomicU64,
}

/// Server-wide counters. All methods are lock-free and callable from any
/// worker thread.
#[derive(Default)]
pub struct Metrics {
    endpoints: [EndpointStats; 5],
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    shed_total: AtomicU64,
    queue_depth: AtomicU64,
    queue_depth_peak: AtomicU64,
    drained_during_shutdown: AtomicU64,
    timeout_config_failures: AtomicU64,
    wal_appends: AtomicU64,
    wal_append_failures: AtomicU64,
    wal_compactions: AtomicU64,
    wal_compaction_failures: AtomicU64,
    open_connections: AtomicU64,
    connections_total: AtomicU64,
    keepalive_reuses: AtomicU64,
    idle_timeout_closes: AtomicU64,
    header_timeout_closes: AtomicU64,
    reactor_wakeups: AtomicU64,
    /// `PIPELINE_BUCKETS.len() + 1` raw counts (last = +inf).
    pipeline_depth: [AtomicU64; 7],
}

/// Index into [`ENDPOINTS`] for a request path, if instrumented.
pub fn endpoint_index(path: &str) -> Option<usize> {
    match path {
        "/v1/influence" => Some(0),
        "/v1/seeds" => Some(1),
        "/v1/embed" => Some(2),
        "/metrics" => Some(3),
        "/healthz" => Some(4),
        _ => None,
    }
}

impl Metrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Record one completed request against endpoint `ep` (an
    /// [`endpoint_index`]) with the given latency and response status.
    pub fn observe(&self, ep: usize, latency_us: u64, status: u16) {
        let s = &self.endpoints[ep];
        s.requests.fetch_add(1, Ordering::Relaxed);
        s.latency_sum_us.fetch_add(latency_us, Ordering::Relaxed);
        let bucket = BUCKETS_US
            .iter()
            .position(|&ub| latency_us <= ub)
            .unwrap_or(BUCKETS_US.len());
        s.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.observe_status(status);
    }

    /// Record a response status class without an endpoint attribution
    /// (unroutable paths, shed requests).
    pub fn observe_status(&self, status: u16) {
        let class = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
    }

    /// A request was rejected to protect latency (queue full or deadline
    /// exceeded while queued).
    pub fn shed(&self) {
        self.shed_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Accept queue grew by one.
    pub fn queue_push(&self) {
        let d = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_peak.fetch_max(d, Ordering::Relaxed);
    }

    /// Accept queue shrank by one.
    pub fn queue_pop(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// A queued request was completed after shutdown began.
    pub fn drained(&self) {
        self.drained_during_shutdown.fetch_add(1, Ordering::Relaxed);
    }

    /// Configuring a socket read/write timeout failed; the connection was
    /// closed rather than served without a deadline.
    pub fn timeout_config_failure(&self) {
        self.timeout_config_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Timeout-configuration failures so far.
    pub fn timeout_config_failures(&self) -> u64 {
        self.timeout_config_failures.load(Ordering::Relaxed)
    }

    /// A budget charge was journaled durably.
    pub fn wal_append(&self) {
        self.wal_appends.fetch_add(1, Ordering::Relaxed);
    }

    /// A journal append failed; the request was refused with `500` (the
    /// in-memory charge stands — overcharge-safe).
    pub fn wal_append_failure(&self) {
        self.wal_append_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Successful journal appends so far.
    pub fn wal_appends(&self) -> u64 {
        self.wal_appends.load(Ordering::Relaxed)
    }

    /// Failed journal appends so far.
    pub fn wal_append_failures(&self) -> u64 {
        self.wal_append_failures.load(Ordering::Relaxed)
    }

    /// A snapshot compaction completed (bundle replaced, journal reset).
    pub fn wal_compaction(&self) {
        self.wal_compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// A snapshot compaction failed (journal left in place — safe, just
    /// uncompacted).
    pub fn wal_compaction_failure(&self) {
        self.wal_compaction_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Completed compactions so far.
    pub fn wal_compactions(&self) -> u64 {
        self.wal_compactions.load(Ordering::Relaxed)
    }

    /// A connection was accepted (gauge up, lifetime counter up).
    pub fn conn_opened(&self) {
        self.open_connections.fetch_add(1, Ordering::Relaxed);
        self.connections_total.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was closed (gauge down).
    pub fn conn_closed(&self) {
        self.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections currently open (reactor front end).
    pub fn open_connections(&self) -> u64 {
        self.open_connections.load(Ordering::Relaxed)
    }

    /// A second-or-later request arrived on a kept-alive connection.
    pub fn keepalive_reuse(&self) {
        self.keepalive_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// Keep-alive reuses so far.
    pub fn keepalive_reuses(&self) -> u64 {
        self.keepalive_reuses.load(Ordering::Relaxed)
    }

    /// An idle kept-alive connection was closed by the timer wheel.
    pub fn idle_timeout_close(&self) {
        self.idle_timeout_closes.fetch_add(1, Ordering::Relaxed);
    }

    /// Idle-timeout closes so far.
    pub fn idle_timeout_closes(&self) -> u64 {
        self.idle_timeout_closes.load(Ordering::Relaxed)
    }

    /// A connection with a half-sent request was closed by the timer
    /// wheel (slowloris defense).
    pub fn header_timeout_close(&self) {
        self.header_timeout_closes.fetch_add(1, Ordering::Relaxed);
    }

    /// Header-read-timeout closes so far.
    pub fn header_timeout_closes(&self) -> u64 {
        self.header_timeout_closes.load(Ordering::Relaxed)
    }

    /// The reactor returned from one poll wait (readiness or timer tick).
    pub fn reactor_wakeup(&self) {
        self.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the pipelined-request depth one parse round left
    /// outstanding on a connection.
    pub fn observe_pipeline_depth(&self, depth: u64) {
        let bucket = PIPELINE_BUCKETS
            .iter()
            .position(|&ub| depth <= ub)
            .unwrap_or(PIPELINE_BUCKETS.len());
        self.pipeline_depth[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests observed across endpoints.
    pub fn total_requests(&self) -> u64 {
        self.endpoints
            .iter()
            .map(|e| e.requests.load(Ordering::Relaxed))
            .sum()
    }

    /// Requests completed after shutdown began (drain telemetry).
    pub fn drained_count(&self) -> u64 {
        self.drained_during_shutdown.load(Ordering::Relaxed)
    }

    /// Plain-text exposition (Prometheus-style: `name{labels} value`).
    /// The spread cache's hit/miss counters live in the cache; the caller
    /// passes their current values so the exposition is one consistent
    /// snapshot.
    pub fn render(&self, cache_hits: u64, cache_misses: u64, cache_len: usize) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("# privim-serve metrics exposition v1\n");
        for (i, name) in ENDPOINTS.iter().enumerate() {
            let s = &self.endpoints[i];
            push_line(
                &mut out,
                &format!("privim_requests_total{{endpoint=\"{name}\"}}"),
                s.requests.load(Ordering::Relaxed),
            );
        }
        for (i, name) in ENDPOINTS.iter().enumerate() {
            let s = &self.endpoints[i];
            let mut cumulative = 0u64;
            for (b, ub) in BUCKETS_US.iter().enumerate() {
                cumulative += s.buckets[b].load(Ordering::Relaxed);
                push_line(
                    &mut out,
                    &format!("privim_latency_us_bucket{{endpoint=\"{name}\",le=\"{ub}\"}}"),
                    cumulative,
                );
            }
            cumulative += s.buckets[BUCKETS_US.len()].load(Ordering::Relaxed);
            push_line(
                &mut out,
                &format!("privim_latency_us_bucket{{endpoint=\"{name}\",le=\"+Inf\"}}"),
                cumulative,
            );
            push_line(
                &mut out,
                &format!("privim_latency_us_sum{{endpoint=\"{name}\"}}"),
                s.latency_sum_us.load(Ordering::Relaxed),
            );
        }
        push_line(&mut out, "privim_responses_total{class=\"2xx\"}", self.responses_2xx.load(Ordering::Relaxed));
        push_line(&mut out, "privim_responses_total{class=\"4xx\"}", self.responses_4xx.load(Ordering::Relaxed));
        push_line(&mut out, "privim_responses_total{class=\"5xx\"}", self.responses_5xx.load(Ordering::Relaxed));
        push_line(&mut out, "privim_shed_total", self.shed_total.load(Ordering::Relaxed));
        push_line(&mut out, "privim_queue_depth", self.queue_depth.load(Ordering::Relaxed));
        push_line(&mut out, "privim_queue_depth_peak", self.queue_depth_peak.load(Ordering::Relaxed));
        push_line(&mut out, "privim_cache_hits_total", cache_hits);
        push_line(&mut out, "privim_cache_misses_total", cache_misses);
        push_line(&mut out, "privim_cache_entries", cache_len as u64);
        push_line(&mut out, "privim_drained_during_shutdown_total", self.drained_during_shutdown.load(Ordering::Relaxed));
        push_line(&mut out, "privim_timeout_config_failures_total", self.timeout_config_failures.load(Ordering::Relaxed));
        push_line(&mut out, "privim_wal_appends_total", self.wal_appends.load(Ordering::Relaxed));
        push_line(&mut out, "privim_wal_append_failures_total", self.wal_append_failures.load(Ordering::Relaxed));
        push_line(&mut out, "privim_wal_compactions_total", self.wal_compactions.load(Ordering::Relaxed));
        push_line(&mut out, "privim_wal_compaction_failures_total", self.wal_compaction_failures.load(Ordering::Relaxed));
        push_line(&mut out, "privim_open_connections", self.open_connections.load(Ordering::Relaxed));
        push_line(&mut out, "privim_connections_total", self.connections_total.load(Ordering::Relaxed));
        push_line(&mut out, "privim_keepalive_reuses_total", self.keepalive_reuses.load(Ordering::Relaxed));
        push_line(&mut out, "privim_idle_timeout_closes_total", self.idle_timeout_closes.load(Ordering::Relaxed));
        push_line(&mut out, "privim_header_timeout_closes_total", self.header_timeout_closes.load(Ordering::Relaxed));
        push_line(&mut out, "privim_reactor_wakeups_total", self.reactor_wakeups.load(Ordering::Relaxed));
        let mut cumulative = 0u64;
        for (b, ub) in PIPELINE_BUCKETS.iter().enumerate() {
            cumulative += self.pipeline_depth[b].load(Ordering::Relaxed);
            push_line(
                &mut out,
                &format!("privim_pipeline_depth_bucket{{le=\"{ub}\"}}"),
                cumulative,
            );
        }
        cumulative += self.pipeline_depth[PIPELINE_BUCKETS.len()].load(Ordering::Relaxed);
        push_line(&mut out, "privim_pipeline_depth_bucket{le=\"+Inf\"}", cumulative);
        out
    }
}

fn push_line(out: &mut String, name: &str, value: u64) {
    out.push_str(name);
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

fn push_gauge(out: &mut String, name: &str, value: f64) {
    // f64 Display is shortest-roundtrip, so gauge lines are deterministic
    // given the value's bits.
    out.push_str(name);
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Append the per-tenant budget-ledger section to an exposition. Entries
/// are `(tenant, queries, ε spent, ε remaining)` in canonical tenant
/// order ([`crate::ledger::TenantLedger::snapshot`]); the caller passes a
/// single snapshot so the section is internally consistent.
pub fn render_ledger_section(
    out: &mut String,
    epsilon_budget: f64,
    entries: &[(String, u64, f64, f64)],
    admitted_total: u64,
    denied_total: u64,
) {
    push_gauge(out, "privim_budget_epsilon_limit", epsilon_budget);
    push_line(out, "privim_budget_admitted_total", admitted_total);
    push_line(out, "privim_budget_denied_total", denied_total);
    for (tenant, queries, spent, remaining) in entries {
        push_line(
            out,
            &format!("privim_tenant_queries_total{{tenant=\"{tenant}\"}}"),
            *queries,
        );
        push_gauge(
            out,
            &format!("privim_tenant_epsilon_spent{{tenant=\"{tenant}\"}}"),
            *spent,
        );
        push_gauge(
            out,
            &format!("privim_tenant_epsilon_remaining{{tenant=\"{tenant}\"}}"),
            *remaining,
        );
    }
}

/// Pull a counter value back out of exposition text (test + bench helper).
pub fn parse_counter(exposition: &str, name: &str) -> Option<u64> {
    exposition.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

/// Pull a float gauge back out of exposition text.
pub fn parse_gauge(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_counts_and_buckets() {
        let m = Metrics::new();
        m.observe(0, 75, 200); // influence, 75 µs -> le=100
        m.observe(0, 75, 200);
        m.observe(2, 2_000_000, 200); // embed, 2 s -> +Inf
        let text = m.render(3, 1, 2);
        assert_eq!(
            parse_counter(&text, "privim_requests_total{endpoint=\"influence\"}"),
            Some(2)
        );
        assert_eq!(
            parse_counter(&text, "privim_latency_us_bucket{endpoint=\"influence\",le=\"100\"}"),
            Some(2)
        );
        assert_eq!(
            parse_counter(&text, "privim_latency_us_bucket{endpoint=\"influence\",le=\"50\"}"),
            Some(0)
        );
        assert_eq!(
            parse_counter(&text, "privim_latency_us_bucket{endpoint=\"embed\",le=\"+Inf\"}"),
            Some(1)
        );
        assert_eq!(
            parse_counter(&text, "privim_latency_us_bucket{endpoint=\"embed\",le=\"1000000\"}"),
            Some(0)
        );
        assert_eq!(parse_counter(&text, "privim_responses_total{class=\"2xx\"}"), Some(3));
        assert_eq!(parse_counter(&text, "privim_cache_hits_total"), Some(3));
        assert_eq!(parse_counter(&text, "privim_cache_misses_total"), Some(1));
        assert_eq!(parse_counter(&text, "privim_cache_entries"), Some(2));
    }

    #[test]
    fn queue_gauges() {
        let m = Metrics::new();
        m.queue_push();
        m.queue_push();
        m.queue_pop();
        m.shed();
        let text = m.render(0, 0, 0);
        assert_eq!(parse_counter(&text, "privim_queue_depth"), Some(1));
        assert_eq!(parse_counter(&text, "privim_queue_depth_peak"), Some(2));
        assert_eq!(parse_counter(&text, "privim_shed_total"), Some(1));
    }

    #[test]
    fn durability_counters_render() {
        let m = Metrics::new();
        m.timeout_config_failure();
        m.wal_append();
        m.wal_append();
        m.wal_append_failure();
        m.wal_compaction();
        m.wal_compaction_failure();
        let text = m.render(0, 0, 0);
        assert_eq!(parse_counter(&text, "privim_timeout_config_failures_total"), Some(1));
        assert_eq!(parse_counter(&text, "privim_wal_appends_total"), Some(2));
        assert_eq!(parse_counter(&text, "privim_wal_append_failures_total"), Some(1));
        assert_eq!(parse_counter(&text, "privim_wal_compactions_total"), Some(1));
        assert_eq!(parse_counter(&text, "privim_wal_compaction_failures_total"), Some(1));
        assert_eq!(m.wal_appends(), 2);
        assert_eq!(m.wal_append_failures(), 1);
        assert_eq!(m.wal_compactions(), 1);
        assert_eq!(m.timeout_config_failures(), 1);
    }

    #[test]
    fn connection_counters_render() {
        let m = Metrics::new();
        m.conn_opened();
        m.conn_opened();
        m.conn_closed();
        m.keepalive_reuse();
        m.keepalive_reuse();
        m.keepalive_reuse();
        m.idle_timeout_close();
        m.header_timeout_close();
        m.reactor_wakeup();
        m.observe_pipeline_depth(1);
        m.observe_pipeline_depth(3); // -> le=4
        m.observe_pipeline_depth(100); // -> +Inf
        let text = m.render(0, 0, 0);
        assert_eq!(parse_counter(&text, "privim_open_connections"), Some(1));
        assert_eq!(parse_counter(&text, "privim_connections_total"), Some(2));
        assert_eq!(parse_counter(&text, "privim_keepalive_reuses_total"), Some(3));
        assert_eq!(parse_counter(&text, "privim_idle_timeout_closes_total"), Some(1));
        assert_eq!(parse_counter(&text, "privim_header_timeout_closes_total"), Some(1));
        assert_eq!(parse_counter(&text, "privim_reactor_wakeups_total"), Some(1));
        assert_eq!(parse_counter(&text, "privim_pipeline_depth_bucket{le=\"1\"}"), Some(1));
        assert_eq!(parse_counter(&text, "privim_pipeline_depth_bucket{le=\"2\"}"), Some(1));
        assert_eq!(parse_counter(&text, "privim_pipeline_depth_bucket{le=\"4\"}"), Some(2));
        assert_eq!(parse_counter(&text, "privim_pipeline_depth_bucket{le=\"+Inf\"}"), Some(3));
        assert_eq!(m.open_connections(), 1);
        assert_eq!(m.keepalive_reuses(), 3);
        assert_eq!(m.idle_timeout_closes(), 1);
        assert_eq!(m.header_timeout_closes(), 1);
    }

    #[test]
    fn ledger_section_renders_and_parses_back() {
        let mut out = String::new();
        let entries = vec![
            ("acme".to_string(), 12u64, 0.75, 0.25),
            ("zephyr".to_string(), 1u64, 0.0625, 0.9375),
        ];
        render_ledger_section(&mut out, 1.0, &entries, 13, 4);
        assert_eq!(parse_gauge(&out, "privim_budget_epsilon_limit"), Some(1.0));
        assert_eq!(parse_counter(&out, "privim_budget_admitted_total"), Some(13));
        assert_eq!(parse_counter(&out, "privim_budget_denied_total"), Some(4));
        assert_eq!(
            parse_counter(&out, "privim_tenant_queries_total{tenant=\"acme\"}"),
            Some(12)
        );
        assert_eq!(
            parse_gauge(&out, "privim_tenant_epsilon_spent{tenant=\"acme\"}"),
            Some(0.75)
        );
        assert_eq!(
            parse_gauge(&out, "privim_tenant_epsilon_remaining{tenant=\"zephyr\"}"),
            Some(0.9375)
        );
        // exact round-trip of a non-terminating decimal
        let mut out2 = String::new();
        render_ledger_section(&mut out2, 0.1 + 0.2, &[], 0, 0);
        assert_eq!(
            parse_gauge(&out2, "privim_budget_epsilon_limit").map(f64::to_bits),
            Some((0.1f64 + 0.2).to_bits())
        );
    }

    #[test]
    fn endpoint_routing_table() {
        assert_eq!(endpoint_index("/v1/influence"), Some(0));
        assert_eq!(endpoint_index("/v1/seeds"), Some(1));
        assert_eq!(endpoint_index("/v1/embed"), Some(2));
        assert_eq!(endpoint_index("/metrics"), Some(3));
        assert_eq!(endpoint_index("/healthz"), Some(4));
        assert_eq!(endpoint_index("/nope"), None);
    }
}
