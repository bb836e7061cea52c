//! Front-end selection, worker pool, router and request handlers.
//!
//! Two front ends share one request path (`process_request`):
//!
//! * [`FrontEnd::Reactor`] (default on unix): an epoll/poll readiness
//!   loop ([`crate::reactor`]) owns accept + socket I/O, supports
//!   HTTP/1.1 keep-alive and pipelining, and hands parsed requests to
//!   the worker pool;
//! * [`FrontEnd::Threaded`]: the original thread-per-connection layout —
//!   one acceptor + `workers` request threads sharing a bounded queue of
//!   connections, one request per connection, `Connection: close`.
//!
//! Both shed identically: `503` at the queue cap (the cheapest possible
//! point) and for any request whose *queue wait* already exceeded the
//! deadline — a reply that can no longer arrive in time is better
//! dropped than served late while newer requests rot.
//!
//! Graceful shutdown: set the flag, wake the front end, let workers
//! finish everything queued and in flight, then join. No request that
//! was accepted is ever abandoned — under the reactor this includes a
//! request whose bytes are still arriving when shutdown begins.

use crate::bundle::{Bundle, PrivacyStatement, QuantMode};
use crate::cache::ShardedLru;
use crate::http::{read_request, write_response, write_response_with_headers, Request};
use crate::ledger::{Admission, TenantLedger};
use crate::metrics::{endpoint_index, render_ledger_section, Metrics};
use crate::wal::{FsyncPolicy, WalWriter};
use privim_gnn::{node_features, GnnModel, GraphTensors, QuantGnnModel};
use privim_graph::NodeId;
use privim_im::{ic_spread_estimate, LazyGreedy};
use privim_rt::fsio;
use privim_rt::json::Value;
use privim_rt::{PrivimError, PrivimResult};
use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Durability settings for a metered deployment: where charges are
/// journaled before admission is acknowledged, and how the journal is
/// folded back into the bundle.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Journal path; created on first append if missing. Opening truncates
    /// any torn tail a crash left behind.
    pub wal_path: PathBuf,
    /// When journal appends are fsync'd. [`FsyncPolicy::Always`] is the
    /// only setting under which every 2xx-acknowledged charge is durable.
    pub fsync: FsyncPolicy,
    /// Fold the ledger into an atomic bundle snapshot (and truncate the
    /// journal) after every this-many appends; `0` = never compact.
    pub compact_every: u64,
    /// Where compaction snapshots go — normally the bundle the server
    /// loaded. `None` disables compaction (the journal only grows).
    pub bundle_path: Option<PathBuf>,
}

/// Which connection-handling front end drives the worker pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrontEnd {
    /// Thread-per-connection, one request per connection (PR 6 layout).
    Threaded,
    /// Epoll/poll readiness loop with keep-alive + pipelining (unix
    /// only; non-unix builds silently use [`FrontEnd::Threaded`]).
    Reactor,
}

impl FrontEnd {
    /// Parse a CLI/bench flag value.
    pub fn parse(s: &str) -> Option<FrontEnd> {
        match s {
            "threaded" => Some(FrontEnd::Threaded),
            "reactor" => Some(FrontEnd::Reactor),
            _ => None,
        }
    }
}

/// Server tunables. The defaults suit a laptop-scale smoke deployment;
/// the bench harness stresses them explicitly.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::port`]).
    pub addr: String,
    /// Request worker threads.
    pub workers: usize,
    /// Bounded accept-queue capacity; overflow is shed with `503`.
    pub queue_cap: usize,
    /// Per-request deadline measured from *arrival* (queue wait counts).
    pub deadline: Duration,
    /// Spread-cache shards.
    pub cache_shards: usize,
    /// Spread-cache entries per shard.
    pub cache_cap_per_shard: usize,
    /// Default Monte-Carlo runs for `/v1/influence` when the request
    /// does not specify `runs`.
    pub default_runs: usize,
    /// Charge-journal durability (metered deployments only; ignored when
    /// the bundle has no ledger). `None` = in-memory ledger, PR 6
    /// behavior.
    pub durability: Option<DurabilityConfig>,
    /// Connection-handling front end.
    pub frontend: FrontEnd,
    /// Reactor: close a kept-alive connection after this long with no
    /// socket activity and no in-flight request.
    pub idle_timeout: Duration,
    /// Reactor: close a connection that *started* sending a request but
    /// has not completed it within this long — measured from the first
    /// partial byte, so a slowloris dribble cannot reset it.
    pub header_timeout: Duration,
    /// Reactor: max pipelined requests in flight per connection before
    /// reads pause (TCP backpressure instead of unbounded buffering).
    pub max_pipeline: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 128,
            deadline: Duration::from_secs(5),
            cache_shards: 8,
            cache_cap_per_shard: 256,
            default_runs: 64,
            durability: None,
            frontend: FrontEnd::Reactor,
            idle_timeout: Duration::from_secs(30),
            header_timeout: Duration::from_secs(10),
            max_pipeline: 32,
        }
    }
}

pub(crate) struct Shared {
    graph: Arc<privim_graph::Graph>,
    fingerprint: u64,
    pub(crate) metrics: Metrics,
    cache: ShardedLru<f64>,
    /// The `/v1/embed` score vector, filled by the first embed (see
    /// [`embed_scores`]).
    scores: OnceLock<Vec<f64>>,
    /// Resumable CELF state: one instance serves every `/v1/seeds`
    /// request (greedy prefix stability makes cached answers exact).
    seeds: Mutex<LazyGreedy>,
    /// Per-tenant budget ledger (`None` = unmetered deployment). Metered
    /// requests carry an `X-Privim-Tenant` header and are admitted — or
    /// refused with `429` — before any work happens.
    ledger: Option<TenantLedger>,
    /// Charge journal: every granted admission is appended here before
    /// the handler runs (and so before any 2xx can be written). `None`
    /// when unmetered or durability is not configured.
    wal: Option<Mutex<WalWriter>>,
    durability: Option<DurabilityConfig>,
    /// Model + privacy statement: the embed pass runs the model, and
    /// compaction snapshots re-pack both (a snapshot is a full re-pack
    /// of the loaded bundle).
    model: GnnModel,
    /// Int8 serving model and storage mode of the loaded bundle: a
    /// `model_q8` bundle's embed pass runs the integer path, and
    /// compaction re-packs in the same mode it loaded.
    quant: Option<QuantGnnModel>,
    mode: QuantMode,
    privacy: PrivacyStatement,
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    queue_ready: Condvar,
    pub(crate) shutting_down: AtomicBool,
    pub(crate) deadline: Duration,
    default_runs: usize,
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // privim-lint: allow(panic, reason = "a poisoned server lock means a worker already panicked; propagating is the only sound recovery")
    m.lock().unwrap()
}

/// The running front end's join handles.
enum FrontHandles {
    Threaded {
        acceptor: Option<std::thread::JoinHandle<()>>,
        workers: Vec<std::thread::JoinHandle<()>>,
    },
    #[cfg(unix)]
    Reactor(crate::reactor::ReactorHandle),
}

/// A running server: join handles plus the shared state.
pub struct ServerHandle {
    port: u16,
    shared: Arc<Shared>,
    front: FrontHandles,
}

impl ServerHandle {
    /// The port actually bound (useful with `addr = "127.0.0.1:0"`).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Requests completed after shutdown began.
    pub fn drained_count(&self) -> u64 {
        self.shared.metrics.drained_count()
    }

    /// Current `/metrics` exposition, rendered from the live counters —
    /// identical to what `GET /metrics` would return right now.
    pub fn metrics_text(&self) -> String {
        render_metrics(&self.shared)
    }

    /// [`Self::shutdown`], then render the final `/metrics` exposition
    /// from the fully drained counters. The returned text is the server's
    /// last word: every accepted request is in it, which lets tests (and
    /// operators' final scrapes) assert counter monotonicity across the
    /// graceful drain.
    pub fn drain(self) -> (u64, String) {
        let shared = Arc::clone(&self.shared);
        let drained = self.shutdown();
        (drained, render_metrics(&shared))
    }

    /// Stop accepting, finish every queued and in-flight request, join
    /// all threads. Returns the number of requests drained after the
    /// shutdown signal.
    pub fn shutdown(mut self) -> u64 {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        match &mut self.front {
            FrontHandles::Threaded { acceptor, workers } => {
                // Wake the acceptor out of its blocking accept() with a
                // self-connection; it checks the flag before enqueuing.
                let _ = TcpStream::connect(("127.0.0.1", self.port));
                self.shared.queue_ready.notify_all();
                if let Some(a) = acceptor.take() {
                    let _ = a.join();
                }
                for w in workers.drain(..) {
                    // Keep waking workers: one notify can be consumed by
                    // a thread that goes back to processing.
                    self.shared.queue_ready.notify_all();
                    let _ = w.join();
                }
            }
            #[cfg(unix)]
            FrontHandles::Reactor(r) => r.shutdown(),
        }
        self.shared.metrics.drained_count()
    }
}

/// Bind, spawn the acceptor and workers, and return a handle. The CELF
/// state and cache are initialised here; the embed score vector is not.
/// The first `/v1/embed` pays one full-graph forward pass instead. That
/// keeps the pass off the path to the first `/healthz` 200, so start-up
/// time does not grow with the cost of inference. The graph tensors and
/// node features the pass needs are built and dropped inside it, so a
/// deployment that never serves an embed never allocates them.
pub fn start(bundle: Bundle, cfg: ServeConfig) -> PrivimResult<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)
        .map_err(|e| PrivimError::io("binding serve listener", e))?;
    let port = listener
        .local_addr()
        .map_err(|e| PrivimError::io("reading bound address", e))?
        .port();

    let ledger = match bundle.ledger {
        Some(state) => Some(TenantLedger::new(state)?),
        None => None,
    };
    // A journal only exists for a metered deployment with durability
    // configured; opening it truncates any torn tail from a prior crash
    // (recovery replayed those bytes before `start` was called).
    let (wal, durability) = match (&ledger, cfg.durability.clone()) {
        (Some(_), Some(d)) => (
            Some(Mutex::new(WalWriter::open(&d.wal_path, d.fsync)?)),
            Some(d),
        ),
        _ => (None, None),
    };
    let shared = Arc::new(Shared {
        scores: OnceLock::new(),
        seeds: Mutex::new(LazyGreedy::new(Arc::clone(&bundle.graph))),
        ledger,
        wal,
        durability,
        model: bundle.model,
        quant: bundle.quant,
        mode: bundle.mode,
        privacy: bundle.privacy,
        graph: bundle.graph,
        fingerprint: bundle.fingerprint,
        metrics: Metrics::new(),
        cache: ShardedLru::new(cfg.cache_shards, cfg.cache_cap_per_shard),
        queue: Mutex::new(VecDeque::with_capacity(cfg.queue_cap)),
        queue_ready: Condvar::new(),
        shutting_down: AtomicBool::new(false),
        deadline: cfg.deadline,
        default_runs: cfg.default_runs,
    });

    let front = spawn_front_end(listener, &shared, &cfg)?;
    Ok(ServerHandle {
        port,
        shared,
        front,
    })
}

/// Spawn the configured front end. The reactor is unix-only; elsewhere
/// (and on reactor setup failure) the threaded layout serves instead, so
/// a bundle that serves on one platform serves on all of them.
fn spawn_front_end(
    listener: TcpListener,
    shared: &Arc<Shared>,
    cfg: &ServeConfig,
) -> PrivimResult<FrontHandles> {
    #[cfg(unix)]
    if cfg.frontend == FrontEnd::Reactor {
        let rcfg = crate::reactor::ReactorConfig {
            workers: cfg.workers,
            queue_cap: cfg.queue_cap.max(1),
            idle_timeout: cfg.idle_timeout,
            header_timeout: cfg.header_timeout,
            max_pipeline: (cfg.max_pipeline.max(1)) as u64,
        };
        let handle = crate::reactor::spawn_reactor(listener, Arc::clone(shared), rcfg)
            .map_err(|e| PrivimError::io("starting reactor front end", e))?;
        return Ok(FrontHandles::Reactor(handle));
    }
    let acceptor = {
        let shared = Arc::clone(shared);
        let cap = cfg.queue_cap.max(1);
        std::thread::spawn(move || acceptor_loop(&listener, &shared, cap))
    };
    let workers = (0..cfg.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();
    Ok(FrontHandles::Threaded {
        acceptor: Some(acceptor),
        workers,
    })
}

// privim-lint: allow(wall-clock, reason = "latency telemetry: arrival timestamps feed the latency histogram and deadline shedding, never response payloads")
fn acceptor_loop(listener: &TcpListener, shared: &Shared, cap: usize) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            return; // the wake-up self-connection lands here too
        }
        // Small request/response exchanges; never trade latency for
        // segment coalescing.
        let _ = stream.set_nodelay(true);
        let arrival = Instant::now();
        let mut q = lock(&shared.queue);
        if q.len() >= cap {
            drop(q);
            shed(stream, shared, "queue full");
            continue;
        }
        q.push_back((stream, arrival));
        shared.metrics.queue_push();
        drop(q);
        shared.queue_ready.notify_one();
    }
}

/// Reject a connection with an immediate `503` (best-effort write).
fn shed(mut stream: TcpStream, shared: &Shared, why: &str) {
    shared.metrics.shed();
    shared.metrics.observe_status(503);
    let body = Value::obj(vec![("error", Value::Str(format!("shed: {why}"))) ])
        .to_json_string();
    // Without a write timeout a dead client could pin this thread on the
    // 503 write; if the socket refuses the timeout, just close.
    if stream
        .set_write_timeout(Some(Duration::from_millis(200)))
        .is_err()
    {
        shared.metrics.timeout_config_failure();
        return;
    }
    let _ = write_response(&mut stream, 503, "application/json", body.as_bytes());
}

fn worker_loop(shared: &Shared) {
    loop {
        let popped = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(item) = q.pop_front() {
                    shared.metrics.queue_pop();
                    break Some(item);
                }
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break None;
                }
                // privim-lint: allow(panic, reason = "a poisoned server lock means a worker already panicked; propagating is the only sound recovery")
                q = shared.queue_ready.wait(q).unwrap();
            }
        };
        let Some((stream, arrival)) = popped else {
            return; // shutdown with an empty queue: fully drained
        };
        handle_connection(stream, arrival, shared);
        // A request that *completes* after the shutdown signal was in
        // flight (or queued) when it arrived — that is the drain.
        if shared.shutting_down.load(Ordering::SeqCst) {
            shared.metrics.drained();
        }
    }
}

fn handle_connection(mut stream: TcpStream, arrival: Instant, shared: &Shared) {
    let waited = arrival.elapsed();
    if waited >= shared.deadline {
        shed(stream, shared, "deadline exceeded while queued");
        return;
    }
    // A stalled or dead client may hold this worker no longer than the
    // request's remaining deadline budget. If the socket won't take a
    // timeout, serving it would mean serving without a deadline — close
    // it instead and count the refusal.
    let remaining = shared.deadline - waited;
    if stream.set_read_timeout(Some(remaining)).is_err()
        || stream.set_write_timeout(Some(remaining)).is_err()
    {
        shared.metrics.timeout_config_failure();
        return;
    }

    let (routed, content_type, ep) = match read_request(&mut stream) {
        Ok(parsed) => process_request(&parsed.request, shared),
        Err(e) => {
            let body = Value::obj(vec![("error", Value::Str(e.to_string()))]).to_json_string();
            (Routed::new(e.status, body), "application/json", None)
        }
    };
    let status = routed.status;
    let extra: Vec<(&str, String)> = routed
        .retry_after_secs
        .map(|s| vec![("Retry-After", s.to_string())])
        .unwrap_or_default();
    let _ = write_response_with_headers(
        &mut stream,
        status,
        content_type,
        &extra,
        routed.body.as_bytes(),
    );
    let latency_us = arrival.elapsed().as_micros().min(u64::MAX as u128) as u64;
    match ep {
        Some(ep) => shared.metrics.observe(ep, latency_us, status),
        None => shared.metrics.observe_status(status),
    }
}

/// Route one parsed request and pick its response content type — the
/// single request path both front ends share, which is what makes
/// reactor responses byte-identical to threaded ones.
pub(crate) fn process_request(
    req: &Request,
    shared: &Shared,
) -> (Routed, &'static str, Option<usize>) {
    let ep = endpoint_index(&req.path);
    let routed = route(req, shared);
    let ct = if req.path == "/metrics" && routed.status == 200 {
        "text/plain; version=0.0.4"
    } else {
        "application/json"
    };
    (routed, ct, ep)
}

/// A routed response: status + body, plus the `Retry-After` a budget
/// refusal carries.
pub(crate) struct Routed {
    pub(crate) status: u16,
    pub(crate) body: String,
    pub(crate) retry_after_secs: Option<u64>,
}

impl Routed {
    fn new(status: u16, body: String) -> Routed {
        Routed {
            status,
            body,
            retry_after_secs: None,
        }
    }
}

/// The full `/metrics` exposition: request counters + one consistent
/// snapshot of the cache totals, then the budget-ledger section when the
/// deployment is metered.
fn render_metrics(shared: &Shared) -> String {
    let mut text =
        shared.metrics.render(shared.cache.hits(), shared.cache.misses(), shared.cache.len());
    if let Some(ledger) = &shared.ledger {
        render_ledger_section(
            &mut text,
            ledger.config().epsilon_budget,
            &ledger.snapshot(),
            ledger.admitted_total(),
            ledger.denied_total(),
        );
    }
    text
}

/// Budget admission for the query endpoints. No tenant header or no
/// ledger → unmetered, proceed. A metered tenant whose next query would
/// overspend gets the `429` refusal (and was charged nothing).
fn admit_tenant(req: &Request, shared: &Shared) -> Result<(), Routed> {
    let (Some(tenant), Some(ledger)) = (req.header("x-privim-tenant"), &shared.ledger) else {
        return Ok(());
    };
    let tenant = tenant.trim();
    if tenant.is_empty() {
        return Err(Routed::new(
            400,
            "{\"error\":\"X-Privim-Tenant header must be non-empty\"}".to_string(),
        ));
    }
    match ledger.admit(tenant) {
        Admission::Granted { queries, .. } => journal_charge(shared, tenant, queries),
        Admission::Exhausted {
            epsilon_spent,
            retry_after_secs,
            ..
        } => {
            let body = Value::obj(vec![
                (
                    "error",
                    Value::Str("privacy budget exhausted for tenant".to_string()),
                ),
                ("tenant", Value::Str(tenant.to_string())),
                ("epsilon_spent", Value::Num(epsilon_spent)),
                (
                    "epsilon_budget",
                    Value::Num(ledger.config().epsilon_budget),
                ),
            ])
            .to_json_string();
            Err(Routed {
                status: 429,
                body,
                retry_after_secs: Some(retry_after_secs),
            })
        }
    }
}

/// Make a granted charge durable before the handler (and therefore any
/// 2xx response) can run. An append failure refuses the query with `500`
/// — the in-memory charge stands, which can only overcharge the tenant,
/// never undercharge. Compaction piggybacks here: the journal lock is
/// held across snapshot + atomic bundle replace + truncation, so a
/// concurrent admission that has charged in memory but not yet journaled
/// is already inside the snapshot and its (redundant, absolute-count)
/// record simply lands in the fresh journal.
fn journal_charge(shared: &Shared, tenant: &str, queries_after: u64) -> Result<(), Routed> {
    let Some(wal) = &shared.wal else {
        return Ok(());
    };
    // privim-lint: allow(lock-order, reason = "deliberate §13 durability contract: the append+fsync must be serialized under the journal lock so a crash can never reorder records; admissions block behind it by design")
    let mut writer = lock(wal);
    if let Err(e) = writer.append(tenant, queries_after) {
        shared.metrics.wal_append_failure();
        let body = Value::obj(vec![(
            "error",
            Value::Str(format!("budget journal write failed; query refused: {e}")),
        )])
        .to_json_string();
        return Err(Routed::new(500, body));
    }
    shared.metrics.wal_append();
    if let Some(d) = &shared.durability {
        if d.compact_every > 0 && writer.appended() % d.compact_every == 0 {
            compact(shared, &mut writer);
        }
    }
    Ok(())
}

/// Fold the live ledger into an atomically-replaced bundle snapshot,
/// then truncate the journal. Caller holds the journal lock. Failure at
/// any step leaves the journal in place — uncompacted but never
/// undercharged (stale absolute counts replay as a no-op under max).
fn compact(shared: &Shared, writer: &mut WalWriter) {
    let (Some(d), Some(ledger)) = (&shared.durability, &shared.ledger) else {
        return;
    };
    let Some(bundle_path) = &d.bundle_path else {
        return;
    };
    let state = ledger.state();
    let doc = crate::bundle::pack_parts_in_mode(
        &shared.model,
        shared.quant.as_ref(),
        shared.mode,
        &shared.privacy,
        &shared.graph,
        Some(&state),
    );
    let snapshot_ok =
        fsio::atomic_write_durable(bundle_path, doc.to_json_string().as_bytes()).is_ok();
    if snapshot_ok && writer.reset().is_ok() {
        shared.metrics.wal_compaction();
    } else {
        shared.metrics.wal_compaction_failure();
    }
}

/// Route a metered query endpoint: admission first, handler only if the
/// budget allows the query.
fn metered(
    req: &Request,
    shared: &Shared,
    handler: fn(&Request, &Shared) -> PrivimResult<Value>,
) -> Routed {
    match admit_tenant(req, shared) {
        Ok(()) => reply(handler(req, shared)),
        Err(refused) => refused,
    }
}

fn route(req: &Request, shared: &Shared) -> Routed {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Routed::new(
            200,
            Value::obj(vec![
                ("status", Value::Str("ok".to_string())),
                (
                    "graph_fingerprint",
                    Value::Str(format!("{:#018x}", shared.fingerprint)),
                ),
            ])
            .to_json_string(),
        ),
        ("GET", "/metrics") => Routed::new(200, render_metrics(shared)),
        ("POST", "/v1/influence") => metered(req, shared, handle_influence),
        ("POST", "/v1/seeds") => metered(req, shared, handle_seeds),
        ("POST", "/v1/embed") => metered(req, shared, handle_embed),
        (_, "/healthz" | "/metrics" | "/v1/influence" | "/v1/seeds" | "/v1/embed") => Routed::new(
            405,
            "{\"error\":\"method not allowed\"}".to_string(),
        ),
        _ => Routed::new(404, "{\"error\":\"no such route\"}".to_string()),
    }
}

fn reply(result: PrivimResult<Value>) -> Routed {
    match result {
        Ok(v) => Routed::new(200, v.to_json_string()),
        Err(e) => Routed::new(
            400,
            Value::obj(vec![("error", Value::Str(e.to_string()))]).to_json_string(),
        ),
    }
}

fn parse_body(req: &Request) -> PrivimResult<Value> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| PrivimError::Parse("body is not UTF-8".into()))?;
    Ok(Value::parse(text)?)
}

/// Extract, validate and canonicalise (sort + dedup) a seed list.
fn seed_list(v: &Value, key: &str, n: usize) -> PrivimResult<Vec<NodeId>> {
    let arr = v
        .get(key)
        .and_then(|s| s.as_array())
        .ok_or_else(|| PrivimError::invalid(format!("missing array field {key:?}")))?;
    if arr.is_empty() {
        return Err(PrivimError::empty(format!("{key} must be non-empty")));
    }
    let mut out = Vec::with_capacity(arr.len());
    for s in arr {
        let id = s
            .as_usize()
            .filter(|&id| id < n)
            .ok_or_else(|| PrivimError::invalid(format!("{key} contains an invalid node id")))?;
        out.push(id as NodeId);
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// The exact canonical cache key for one spread query; the hash only
/// picks the shard (see cache module docs). The graph fingerprint leads
/// the key: a cache can then never serve an entry computed against a
/// different graph, even if it outlives a graph swap (regression test in
/// `tests/e2e.rs` pins this).
pub fn influence_cache_key(
    fingerprint: u64,
    seeds: &[NodeId],
    runs: usize,
    max_steps: Option<usize>,
    mc_seed: u64,
) -> Vec<u8> {
    let mut key = Vec::with_capacity(seeds.len() * 4 + 32);
    key.extend_from_slice(&fingerprint.to_le_bytes());
    for &s in seeds {
        key.extend_from_slice(&s.to_le_bytes());
    }
    key.extend_from_slice(&(runs as u64).to_le_bytes());
    key.extend_from_slice(&max_steps.map(|m| m as u64 + 1).unwrap_or(0).to_le_bytes());
    key.extend_from_slice(&mc_seed.to_le_bytes());
    key
}

/// `POST /v1/influence` — `{"seeds":[…], "runs"?, "max_steps"?, "seed"?}`.
///
/// The seed list is canonicalised (sorted, deduplicated) before both the
/// cache lookup and the estimator call, so `[3,1]` and `[1,3]` are the
/// same query and the cached value is exactly what the estimator would
/// return.
fn handle_influence(req: &Request, shared: &Shared) -> PrivimResult<Value> {
    let body = parse_body(req)?;
    let seeds = seed_list(&body, "seeds", shared.graph.num_nodes())?;
    let runs = match body.get("runs") {
        Some(v) => v
            .as_usize()
            .filter(|&r| (1..=100_000).contains(&r))
            .ok_or_else(|| PrivimError::invalid("runs must be in 1..=100000"))?,
        None => shared.default_runs,
    };
    let max_steps = match body.get("max_steps") {
        None | Some(Value::Null) => None,
        Some(v) => Some(
            v.as_usize()
                .ok_or_else(|| PrivimError::invalid("max_steps must be a non-negative integer"))?,
        ),
    };
    let mc_seed = match body.get("seed") {
        Some(v) => v
            .as_u64()
            .ok_or_else(|| PrivimError::invalid("seed must be a non-negative integer"))?,
        None => 0,
    };

    let key = influence_cache_key(shared.fingerprint, &seeds, runs, max_steps, mc_seed);

    let (spread, cached) = match shared.cache.get(&key) {
        Some(v) => (v, true),
        None => {
            let v = ic_spread_estimate(&shared.graph, &seeds, max_steps, runs, mc_seed);
            shared.cache.put(key, v);
            (v, false)
        }
    };
    Ok(Value::obj(vec![
        ("spread", Value::Num(spread)),
        ("runs", Value::Num(runs as f64)),
        ("cached", Value::Bool(cached)),
    ]))
}

/// `POST /v1/seeds` — `{"k": n}`: top-`k` seeds via the shared resumable
/// CELF state. Any `k` not exceeding what a previous request already
/// computed is answered from memory with zero oracle calls.
fn handle_seeds(req: &Request, shared: &Shared) -> PrivimResult<Value> {
    let body = parse_body(req)?;
    let k = body
        .get("k")
        .and_then(|v| v.as_usize())
        .filter(|&k| k >= 1)
        .ok_or_else(|| PrivimError::invalid("k must be a positive integer"))?;
    if k > shared.graph.num_nodes() {
        return Err(PrivimError::invalid(format!(
            "k = {k} exceeds |V| = {}",
            shared.graph.num_nodes()
        )));
    }
    let mut greedy = lock(&shared.seeds);
    let already = greedy.computed();
    let seeds: Vec<Value> = greedy
        .extend_to(k)
        .iter()
        .map(|&s| Value::Num(s as f64))
        .collect();
    let spread = greedy.prefix_spread(k);
    Ok(Value::obj(vec![
        ("seeds", Value::Arr(seeds)),
        ("spread", Value::Num(spread)),
        ("served_from_cache", Value::Bool(already >= k)),
    ]))
}

/// The served per-node scores: one full-graph forward pass, run by the
/// first caller and shared by every later one. The pass is a pure
/// function of the `(model, graph)` pair, both immutable for the
/// server's lifetime, and the scores are post-processing of the released
/// DP model, so computing them once changes no response and spends no
/// privacy. Concurrent first callers block on the one pass. An int8
/// bundle serves through the quantized model, everything else through
/// the dense one.
fn embed_scores(shared: &Shared) -> &[f64] {
    shared.scores.get_or_init(|| {
        let tensors = GraphTensors::new(&shared.graph);
        let features = node_features(&shared.graph);
        match &shared.quant {
            Some(q) => q.infer(&tensors, &features),
            None => shared.model.infer(&tensors, &features),
        }
    })
}

/// `POST /v1/embed` — `{"nodes":[…]}`: model scores for the requested
/// nodes, read from the once-computed score vector. Admission already
/// ran in [`metered`], so every embed is charged and journaled on its
/// own even though none after the first runs the model.
fn handle_embed(req: &Request, shared: &Shared) -> PrivimResult<Value> {
    let body = parse_body(req)?;
    let nodes = seed_list(&body, "nodes", shared.graph.num_nodes())?;
    let scores = embed_scores(shared);
    let out: Vec<Value> = nodes
        .iter()
        .map(|&v| {
            Value::Arr(vec![
                Value::Num(v as f64),
                Value::Num(scores[v as usize]),
            ])
        })
        .collect();
    Ok(Value::obj(vec![("scores", Value::Arr(out))]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim::ServeArtifact;
    use privim_gnn::GnnConfig;
    use privim_rt::{ChaCha8Rng, SeedableRng};

    #[test]
    fn scores_are_computed_lazily_once_and_shared() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let g = privim_graph::generators::barabasi_albert(60, 3, &mut rng)
            .with_uniform_weights(1.0);
        let artifact = ServeArtifact {
            model: GnnModel::new(GnnConfig::paper_default(), &mut rng),
            epsilon: Some(2.0),
            delta: 1e-4,
            sigma: 1.5,
            steps: 80,
        };
        let mut buf = Vec::new();
        crate::bundle::save(&artifact, &g, &mut buf).unwrap();
        let b = crate::bundle::load(buf.as_slice()).unwrap();
        let handle = start(b, ServeConfig::default()).unwrap();
        let shared = &handle.shared;
        assert!(shared.scores.get().is_none(), "start must not run the forward pass");

        let first = embed_scores(shared);
        let second = embed_scores(shared);
        // Same address and length: the second lookup reused the first
        // pass instead of running another one.
        assert!(std::ptr::eq(first, second));
        assert_eq!(first, artifact.model.score_graph(&g).as_slice());
        handle.shutdown();
    }
}
