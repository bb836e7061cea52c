//! Server start-up and shutdown, the router and the request handlers.
//!
//! [`start`] binds the listener and hands it to the epoll front end
//! (`reactor`, Linux only): one reactor thread owns accept and socket I/O
//! with HTTP/1.1 keep-alive and pipelining, and a worker pool runs
//! parsed requests through `process_request`. There is one routing table
//! with two modes: the reactor calls it first in `Mode::Ready`, where a
//! handler answers only from what is already computed (score vector,
//! cached spread, CELF prefix) and otherwise reports "not ready", and a
//! worker calls it in `Mode::Compute` for everything else. Metered
//! requests are never ready. Load is shed with `503` at the job-queue cap
//! (the cheapest possible point) and for any queued request whose *queue
//! wait* already exceeded the deadline — a reply that can no longer
//! arrive in time is better dropped than served late while newer requests
//! rot. Ready answers never queue, so they are never shed.
//!
//! Graceful shutdown: set the flag, wake the reactor, let workers finish
//! everything queued and in flight, then join. No request that was
//! accepted is ever abandoned, including a request whose bytes are still
//! arriving when shutdown begins.

use crate::bundle::{Bundle, BundleWriter, PrivacyStatement};
use crate::cache::ShardedLru;
use crate::http::Request;
use crate::ledger::{Admission, TenantLedger};
use crate::metrics::{endpoint_index, render_ledger_section, Metrics};
use crate::wal::{FsyncPolicy, WalWriter};
use privim_gnn::{node_features, GnnModel, GraphTensors};
use privim_graph::NodeId;
use privim_im::{ic_spread_estimate, LazyGreedy};
use privim_rt::fsio;
use privim_rt::json::Value;
use privim_rt::{PrivimError, PrivimResult};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

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

/// Server tunables. The defaults suit a laptop-scale smoke deployment;
/// the bench harness stresses them explicitly.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::port`]).
    pub addr: String,
    /// Request worker threads.
    pub workers: usize,
    /// Job-queue capacity: parsed requests waiting for a worker. A request
    /// that finds it full is shed with `503`.
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
    /// Close a kept-alive connection after this long with no socket
    /// activity and no in-flight request.
    pub idle_timeout: Duration,
    /// Close a connection that *started* sending a request but has not
    /// completed it within this long — measured from the first partial
    /// byte, so a slowloris dribble cannot reset it.
    pub header_timeout: Duration,
    /// Max pipelined requests in flight per connection before reads
    /// pause (TCP backpressure instead of unbounded buffering).
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
    privacy: PrivacyStatement,
    /// The serialized immutable part of every compaction snapshot, built
    /// by the first compaction (under the journal lock), so start-up
    /// never pays for it and an uncompacted deployment never holds it.
    snapshot: OnceLock<BundleWriter>,
    pub(crate) shutting_down: AtomicBool,
    pub(crate) deadline: Duration,
    default_runs: usize,
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // privim-lint: allow(panic, reason = "a poisoned server lock means a worker already panicked; propagating is the only sound recovery")
    m.lock().unwrap()
}

/// A running server: join handles plus the shared state.
pub struct ServerHandle {
    port: u16,
    shared: Arc<Shared>,
    #[cfg(target_os = "linux")]
    front: crate::reactor::ReactorHandle,
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
    pub fn shutdown(self) -> u64 {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        #[cfg(target_os = "linux")]
        self.front.shutdown();
        self.shared.metrics.drained_count()
    }
}

/// Bind, spawn the reactor and its workers, and return a handle. The CELF
/// state and cache are initialised here; the embed score vector is not.
/// The first `/v1/embed` pays one full-graph forward pass instead. That
/// keeps the pass off the path to the first `/healthz` 200, so start-up
/// time does not grow with the cost of inference. The graph tensors and
/// node features the pass needs are built and dropped inside it, so a
/// deployment that never serves an embed never allocates them.
///
/// Serving is Linux-only (the front end is epoll): elsewhere this returns
/// [`PrivimError::Io`] with [`std::io::ErrorKind::Unsupported`].
pub fn start(bundle: Bundle, cfg: ServeConfig) -> PrivimResult<ServerHandle> {
    if !cfg!(target_os = "linux") {
        return Err(PrivimError::io(
            "starting privim-serve",
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "the epoll front end needs Linux",
            ),
        ));
    }
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
        privacy: bundle.privacy,
        snapshot: OnceLock::new(),
        graph: bundle.graph,
        fingerprint: bundle.fingerprint,
        metrics: Metrics::new(),
        cache: ShardedLru::new(cfg.cache_shards, cfg.cache_cap_per_shard),
        shutting_down: AtomicBool::new(false),
        deadline: cfg.deadline,
        default_runs: cfg.default_runs,
    });

    #[cfg(target_os = "linux")]
    let front = crate::reactor::spawn_reactor(
        listener,
        Arc::clone(&shared),
        crate::reactor::ReactorConfig {
            workers: cfg.workers,
            queue_cap: cfg.queue_cap.max(1),
            idle_timeout: cfg.idle_timeout,
            header_timeout: cfg.header_timeout,
            max_pipeline: (cfg.max_pipeline.max(1)) as u64,
        },
    )
    .map_err(|e| PrivimError::io("starting the epoll front end", e))?;
    #[cfg(not(target_os = "linux"))]
    drop(listener);
    Ok(ServerHandle {
        port,
        shared,
        #[cfg(target_os = "linux")]
        front,
    })
}

/// Requests with a body longer than this always go to a worker, so the
/// JSON work the reactor does for a ready answer stays bounded.
const READY_BODY_MAX: usize = 4 * 1024;

/// How far a handler may go to answer.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// A worker: admit, charge, journal and compute whatever the request
    /// needs. Always answers.
    Compute,
    /// The reactor: answer only from what is already computed, with no
    /// ledger involved and no lock waited on; anything else is not ready
    /// (`None`) and goes to a worker.
    Ready,
}

/// One answered request: the routed response, its content type and its
/// [`endpoint_index`].
pub(crate) type Answer = (Routed, &'static str, Option<usize>);

/// Route one parsed request and pick its response content type: the
/// request path every worker runs, and the reactor runs in
/// [`Mode::Ready`]. `None` only in [`Mode::Ready`]: the answer is not
/// computed yet, or needs the ledger or a held lock.
pub(crate) fn process_request(req: &Request, shared: &Shared, mode: Mode) -> Option<Answer> {
    let ep = endpoint_index(&req.path);
    let routed = route(req, shared, mode)?;
    let ct = if req.path == "/metrics" && routed.status == 200 {
        "text/plain; version=0.0.4"
    } else {
        "application/json"
    };
    Some((routed, ct, ep))
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
/// then truncate the journal. Caller holds the journal lock. The
/// snapshot is the cached [`BundleWriter`] head plus the ledger section:
/// only the ledger is serialized per compaction. Failure at any step
/// leaves the journal in place — uncompacted but never undercharged
/// (stale absolute counts replay as a no-op under max).
fn compact(shared: &Shared, writer: &mut WalWriter) {
    let (Some(d), Some(ledger)) = (&shared.durability, &shared.ledger) else {
        return;
    };
    let Some(bundle_path) = &d.bundle_path else {
        return;
    };
    let state = ledger.state();
    let snapshot = shared.snapshot.get_or_init(|| {
        BundleWriter::new(&shared.model, &shared.privacy, &shared.graph, shared.fingerprint)
    });
    let doc = snapshot.pack(Some(&state));
    let snapshot_ok = fsio::atomic_write_durable(bundle_path, doc.as_bytes()).is_ok();
    if snapshot_ok && writer.reset().is_ok() {
        shared.metrics.wal_compaction();
    } else {
        shared.metrics.wal_compaction_failure();
    }
}

/// A query handler: `Ok(None)` when [`Mode::Ready`] finds the answer not
/// computed yet.
type Handler = fn(&Request, &Shared, Mode) -> PrivimResult<Option<Value>>;

/// Route a metered query endpoint: admission first, handler only if the
/// budget allows the query. A tenant's request to a metered server is
/// never ready: admission, charge and journal run on a worker.
fn metered(req: &Request, shared: &Shared, mode: Mode, handler: Handler) -> Option<Routed> {
    if mode == Mode::Ready && shared.ledger.is_some() && req.header("x-privim-tenant").is_some() {
        return None;
    }
    match admit_tenant(req, shared) {
        Ok(()) => reply(handler(req, shared, mode)),
        Err(refused) => Some(refused),
    }
}

fn route(req: &Request, shared: &Shared, mode: Mode) -> Option<Routed> {
    if mode == Mode::Ready && req.body.len() > READY_BODY_MAX {
        return None;
    }
    Some(match (req.method.as_str(), req.path.as_str()) {
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
        ("POST", "/v1/influence") => return metered(req, shared, mode, handle_influence),
        ("POST", "/v1/seeds") => return metered(req, shared, mode, handle_seeds),
        ("POST", "/v1/embed") => return metered(req, shared, mode, handle_embed),
        (_, "/healthz" | "/metrics" | "/v1/influence" | "/v1/seeds" | "/v1/embed") => Routed::new(
            405,
            "{\"error\":\"method not allowed\"}".to_string(),
        ),
        _ => Routed::new(404, "{\"error\":\"no such route\"}".to_string()),
    })
}

fn reply(result: PrivimResult<Option<Value>>) -> Option<Routed> {
    match result {
        Ok(v) => v.map(|v| Routed::new(200, v.to_json_string())),
        Err(e) => Some(Routed::new(
            400,
            Value::obj(vec![("error", Value::Str(e.to_string()))]).to_json_string(),
        )),
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
/// return. [`Mode::Ready`] answers a cache hit only; its miss counts
/// neither a hit nor a miss, since the worker's lookup counts the request.
fn handle_influence(req: &Request, shared: &Shared, mode: Mode) -> PrivimResult<Option<Value>> {
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

    let found = match mode {
        Mode::Compute => shared.cache.get(&key),
        Mode::Ready => shared.cache.hit(&key),
    };
    let (spread, cached) = match found {
        Some(v) => (v, true),
        None if mode == Mode::Ready => return Ok(None),
        None => {
            let v = ic_spread_estimate(&shared.graph, &seeds, max_steps, runs, mc_seed);
            shared.cache.put(key, v);
            (v, false)
        }
    };
    Ok(Some(Value::obj(vec![
        ("spread", Value::Num(spread)),
        ("runs", Value::Num(runs as f64)),
        ("cached", Value::Bool(cached)),
    ])))
}

/// `POST /v1/seeds` — `{"k": n}`: top-`k` seeds via the shared resumable
/// CELF state. Any `k` not exceeding what a previous request already
/// computed is answered from memory with zero oracle calls; that is the
/// only `k` [`Mode::Ready`] answers, and only if the CELF lock is free
/// (a worker extending the prefix holds it, and the reactor never waits).
fn handle_seeds(req: &Request, shared: &Shared, mode: Mode) -> PrivimResult<Option<Value>> {
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
    let mut greedy = match mode {
        Mode::Compute => lock(&shared.seeds),
        Mode::Ready => match shared.seeds.try_lock() {
            Ok(greedy) if greedy.computed() >= k => greedy,
            _ => return Ok(None),
        },
    };
    let already = greedy.computed();
    let seeds: Vec<Value> = greedy
        .extend_to(k)
        .iter()
        .map(|&s| Value::Num(s as f64))
        .collect();
    let spread = greedy.prefix_spread(k);
    Ok(Some(Value::obj(vec![
        ("seeds", Value::Arr(seeds)),
        ("spread", Value::Num(spread)),
        ("served_from_cache", Value::Bool(already >= k)),
    ])))
}

/// The served per-node scores: one full-graph forward pass, run by the
/// first caller and shared by every later one. The pass is a pure
/// function of the `(model, graph)` pair, both immutable for the
/// server's lifetime, and the scores are post-processing of the released
/// DP model, so computing them once changes no response and spends no
/// privacy. Concurrent first callers block on the one pass.
fn embed_scores(shared: &Shared) -> &[f64] {
    shared.scores.get_or_init(|| {
        let tensors = GraphTensors::new(&shared.graph);
        let features = node_features(&shared.graph);
        shared.model.infer(&tensors, &features)
    })
}

/// `POST /v1/embed` — `{"nodes":[…]}`: model scores for the requested
/// nodes, read from the once-computed score vector. Admission already
/// ran in [`metered`], so every embed is charged and journaled on its
/// own even though none after the first runs the model. [`Mode::Ready`]
/// answers once the score vector exists.
fn handle_embed(req: &Request, shared: &Shared, mode: Mode) -> PrivimResult<Option<Value>> {
    let body = parse_body(req)?;
    let nodes = seed_list(&body, "nodes", shared.graph.num_nodes())?;
    let scores = match mode {
        Mode::Compute => embed_scores(shared),
        Mode::Ready => match shared.scores.get() {
            Some(scores) => scores.as_slice(),
            None => return Ok(None),
        },
    };
    let out: Vec<Value> = nodes
        .iter()
        .map(|&v| {
            Value::Arr(vec![
                Value::Num(v as f64),
                Value::Num(scores[v as usize]),
            ])
        })
        .collect();
    Ok(Some(Value::obj(vec![("scores", Value::Arr(out))])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim::ServeArtifact;
    use privim_gnn::GnnConfig;
    use privim_rt::{ChaCha8Rng, SeedableRng};

    fn test_bundle(seed: u64) -> (Bundle, ServeArtifact, privim_graph::Graph) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
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
        (crate::bundle::load(buf.as_slice()).unwrap(), artifact, g)
    }

    #[test]
    fn scores_are_computed_lazily_once_and_shared() {
        let (b, artifact, g) = test_bundle(11);
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

    /// One-shot exchange: send `raw`, read to EOF, return the status.
    fn exchange(port: u16, raw: &[u8], timeout: Duration) -> std::io::Result<u16> {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(("127.0.0.1", port))?;
        stream.set_read_timeout(Some(timeout))?;
        stream.write_all(raw)?;
        let mut text = String::new();
        stream.read_to_string(&mut text)?;
        Ok(text.split_ascii_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0))
    }

    #[test]
    fn a_held_celf_lock_never_stalls_the_reactor() {
        use std::io::Write;
        let (b, _, _) = test_bundle(12);
        let handle = start(b, ServeConfig::default()).unwrap();
        let port = handle.port();
        let seeds = |k: usize| {
            let body = format!("{{\"k\": {k}}}");
            format!(
                "POST /v1/seeds HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
        };
        let long = Duration::from_secs(60);
        assert_eq!(exchange(port, seeds(3).as_bytes(), long).unwrap(), 200);
        let parsed = |shared: &Shared| {
            let text = render_metrics(shared);
            crate::metrics::parse_counter(&text, "privim_pipeline_depth_bucket{le=\"+Inf\"}")
        };

        // A worker extending CELF holds the lock; here the test holds it.
        // A ready-size seeds query then finds it held and goes to a worker
        // (which waits), while the reactor serves `/healthz` at once.
        let held = lock(&handle.shared.seeds);
        let mut waiting = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
        waiting.write_all(seeds(2).as_bytes()).unwrap();
        let t0 = std::time::Instant::now();
        while parsed(&handle.shared) < Some(2) && t0.elapsed() < Duration::from_secs(1) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let healthz = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        let prompt = exchange(port, healthz, Duration::from_secs(5));
        drop(held);
        assert_eq!(prompt.ok(), Some(200), "/healthz stalled behind the CELF lock");
        waiting.set_read_timeout(Some(long)).unwrap();
        let mut text = String::new();
        std::io::Read::read_to_string(&mut waiting, &mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 "), "{text}");
        assert!(text.contains("\"served_from_cache\":true"), "{text}");
        handle.shutdown();
    }
}
