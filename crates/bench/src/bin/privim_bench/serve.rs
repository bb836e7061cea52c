//! The two served traffic mixes, against the shipped `privim-serve`
//! binary on a bundle it packed itself.
//!
//! * `serve-mixed`: 60% `/v1/embed`, 30% `/v1/influence` over 8 cycling
//!   seed pairs (cache hits after the first 8), 10% `/v1/seeds` with k = 5.
//!   Unmetered, no journal.
//! * `serve-metered-miss`: 85% `/v1/influence` with a fresh seed set every
//!   time (every lookup misses), 15% `/v1/seeds` with k cycling 1..=50,
//!   four tenants round-robin against a budget ledger journaled with
//!   `--fsync every=64`. No embeds, so the batcher is bypassed.
//!
//! The server runs on one CPU and the load generator on another. Each run
//! measures rounds of an open-loop step at a fixed rate (latency) followed
//! by a closed-loop step with a fixed number of requests in flight
//! (throughput), with both cores probed between steps (speed.rs).
//! Afterwards every request is replayed in-process, single threaded,
//! through serve's public functions: the replay's bytes are what every
//! recorded 200 body must equal, and its spans are the per-layer split of
//! the traced run.

use crate::loadgen::{self, Pace, Record};
use crate::speed;
use crate::stats::{median, tail, trimmed_mean};
use crate::trace::Trace;
use crate::{peak_rss_mb, Opts, Outcome};
use privim_gnn::{node_features, GraphTensors};
use privim_im::{ic_spread_estimate, LazyGreedy};
use privim_rt::json::Value;
use privim_serve::bundle::{self, Bundle};
use privim_serve::http::{parse_one, response_frame};
use privim_serve::metrics::parse_counter;
use privim_serve::{
    influence_cache_key, Admission, FsyncPolicy, LedgerConfig, LedgerState, ServeConfig,
    ShardedLru, TenantLedger, WalWriter,
};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq)]
pub enum Mix {
    Mixed,
    MeteredMiss,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Endpoint {
    Embed,
    Influence,
    Seeds,
}

const ENDPOINTS: [Endpoint; 3] = [Endpoint::Embed, Endpoint::Influence, Endpoint::Seeds];

impl Endpoint {
    fn name(self) -> &'static str {
        match self {
            Endpoint::Embed => "embed",
            Endpoint::Influence => "influence",
            Endpoint::Seeds => "seeds",
        }
    }

    /// Its per-layer metrics: client p50, client tail, queue wait.
    fn metrics(self) -> [&'static str; 3] {
        match self {
            Endpoint::Embed => [
                "endpoint.embed.p50_ms",
                "endpoint.embed.tail_ms",
                "wait.embed.p50_ms",
            ],
            Endpoint::Influence => [
                "endpoint.influence.p50_ms",
                "endpoint.influence.tail_ms",
                "wait.influence.p50_ms",
            ],
            Endpoint::Seeds => [
                "endpoint.seeds.p50_ms",
                "endpoint.seeds.tail_ms",
                "wait.seeds.p50_ms",
            ],
        }
    }
}

/// Serving graph size (`privim-serve pack --nodes`).
const NODES: usize = 4000;
const SMOKE_NODES: usize = 300;
/// Spawns per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Open-loop rates (README.md records the calibration). serve-mixed runs
/// slowly enough that each embed gets its own forward pass, even on a core
/// in a slow phase: faster, an embed queues behind the previous pass or
/// joins it, and its latency depends on which. serve-metered-miss runs
/// fast enough that the server's core never sleeps between requests, whose
/// wake-up would otherwise dominate its sub-millisecond latency.
const MIXED_RATE: f64 = 6.0;
/// serve-mixed's endpoint for request `i` is entry `i % 10`: 60% embeds,
/// 30% influence, 10% seeds, with no more than two embeds in a row, so at
/// `MIXED_RATE` an embed's forward pass ends before the next one is due.
const MIXED_PATTERN: [Endpoint; 10] = {
    use Endpoint::{Embed as E, Influence as I, Seeds as S};
    [E, I, E, E, S, E, I, E, E, I]
};
const METERED_RATE: f64 = 1000.0;
/// serve-metered-miss's request `i` is an influence query when
/// `i % METERED_PERIOD < 17` and a seeds query otherwise: 85% and 15%.
const METERED_PERIOD: u64 = 20;
/// Requests in flight per connection: the open-loop cap (never reached
/// below the knee) and the closed-loop depth.
const OPEN_DEPTH: usize = 32;
const CLOSED_DEPTH: usize = 8;
/// `OPEN_SHARE` of each round (see `ROUNDS`) is its open-loop step,
/// whose first `WARMUP` is not counted in its latencies; the rest is its
/// closed-loop step.
const OPEN_SHARE: f64 = 0.6;
const WARMUP: f64 = 0.1;
const TENANTS: u64 = 4;
const QUERY_SIGMA: f64 = 50.0;
const LEDGER_DELTA: f64 = 1e-5;
/// Queries per tenant the packed budget must cover.
const BUDGET_QUERIES: u64 = 1_000_000;
/// The metered server's journal policy. Every request is still journaled,
/// but one fsync per 64 appends: with an fsync per request the run measured
/// the shared disk, and `latency_ms` and `throughput_per_s` spread 0.34 and
/// 0.20 over 10 seeds on a 2-vCPU VM, against 0.15 and 0.14 with this policy.
const METERED_FSYNC: &str = "every=64";
/// Journal appends the replay times, each with an fsync (`wal.append_us`).
const WAL_SAMPLES: usize = 200;
/// Share of the lowest and of the highest latencies `latency_ms` drops
/// before averaging: it is the interquartile mean.
const TRIM: f64 = 0.25;
/// Rounds of an open-loop step and a closed-loop step per run. The cores
/// are probed between steps, so a step is short next to the host's phases
/// (speed.rs) and its times are scaled by the speed it ran at.
const ROUNDS: usize = 10;

/// The factors that scale times measured between two probe readings of
/// the server's and the client's cores (in that order) to the reference
/// speed.
struct Scale {
    server: f64,
    both: f64,
}

impl Scale {
    fn new(before: &[f64], after: &[f64]) -> Scale {
        let mean = |p: &[f64]| p.iter().sum::<f64>() / p.len() as f64;
        Scale {
            server: speed::factor(before[0], after[0]),
            both: speed::factor(mean(before), mean(after)),
        }
    }
}

/// Per-request randomness from `(seed, index, salt)` (SplitMix64), so the
/// request stream is a pure function of the seed.
fn mix64(seed: u64, i: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(salt.wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The request stream of one run.
struct Traffic {
    mix: Mix,
    seed: u64,
    nodes: u64,
    mc_seed: u64,
    pairs: Vec<[u32; 2]>,
}

struct Request {
    ep: Endpoint,
    tenant: Option<String>,
    /// Embed: the node. Influence: the canonical (sorted, deduplicated)
    /// seed list. Seeds: `[k]`.
    args: Vec<u32>,
    body: String,
}

impl Traffic {
    fn new(mix: Mix, seed: u64, nodes: usize) -> Traffic {
        let n = nodes as u64;
        let pairs = (0..8)
            .map(|p| {
                let a = mix64(seed, p, 2) % n;
                let b = (a + 1 + mix64(seed, p, 3) % (n - 1)) % n;
                [a.min(b) as u32, a.max(b) as u32]
            })
            .collect();
        Traffic {
            mix,
            seed,
            nodes: n,
            mc_seed: seed % 1_000_000,
            pairs,
        }
    }

    /// Length of the repeating endpoint pattern of the mix.
    fn period(&self) -> u64 {
        match self.mix {
            Mix::Mixed => MIXED_PATTERN.len() as u64,
            Mix::MeteredMiss => METERED_PERIOD,
        }
    }

    fn influence_runs(&self) -> (usize, Option<usize>) {
        match self.mix {
            Mix::Mixed => (32, None),
            Mix::MeteredMiss => (16, Some(2)),
        }
    }

    fn request(&self, i: u64) -> Request {
        let (ep, tenant) = match self.mix {
            Mix::Mixed => (MIXED_PATTERN[(i % 10) as usize], None),
            Mix::MeteredMiss => {
                let ep = if i % METERED_PERIOD < 17 {
                    Endpoint::Influence
                } else {
                    Endpoint::Seeds
                };
                (ep, Some(format!("tenant-{}", i % TENANTS)))
            }
        };
        let (runs, max_steps) = self.influence_runs();
        let args: Vec<u32> = match (ep, self.mix) {
            (Endpoint::Embed, _) => vec![(mix64(self.seed, i, 1) % self.nodes) as u32],
            (Endpoint::Influence, Mix::Mixed) => self.pairs[(i / 10 % 8) as usize].to_vec(),
            (Endpoint::Influence, Mix::MeteredMiss) => {
                let mut s: Vec<u32> = (4..7)
                    .map(|salt| (mix64(self.seed, i, salt) % self.nodes) as u32)
                    .collect();
                s.sort_unstable();
                s.dedup();
                s
            }
            (Endpoint::Seeds, Mix::Mixed) => vec![5],
            (Endpoint::Seeds, Mix::MeteredMiss) => vec![1 + (i / METERED_PERIOD % 50) as u32],
        };
        let list = |xs: &[u32]| xs.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
        let body = match ep {
            Endpoint::Embed => format!("{{\"nodes\":[{}]}}", args[0]),
            Endpoint::Influence => {
                let steps = max_steps
                    .map(|m| format!(",\"max_steps\":{m}"))
                    .unwrap_or_default();
                format!(
                    "{{\"seeds\":[{}],\"runs\":{runs}{steps},\"seed\":{}}}",
                    list(&args),
                    self.mc_seed
                )
            }
            Endpoint::Seeds => format!("{{\"k\":{}}}", args[0]),
        };
        Request {
            ep,
            tenant,
            args,
            body,
        }
    }

    fn frame(&self, i: u64) -> Vec<u8> {
        let r = self.request(i);
        let path = format!("/v1/{}", r.ep.name());
        let tenant = r
            .tenant
            .map(|t| format!("X-Privim-Tenant: {t}\r\n"))
            .unwrap_or_default();
        format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n{tenant}\r\n{}",
            r.body.len(),
            r.body
        )
        .into_bytes()
    }
}

/// A running `privim-serve run`; killed and reaped when dropped.
struct Server {
    child: Child,
    // Reads the server's stdout until it exits, so the server never writes
    // into a full or closed pipe.
    reader: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// How long the server may take from spawn to its first `/healthz` 200.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// Read the port from the server's `serving on port N` line, send it (or
/// why there is none), then read the rest of `stdout` to its end.
fn read_port(stdout: ChildStdout, port: mpsc::Sender<Result<u16, String>>) {
    let mut stdout = BufReader::new(stdout);
    let mut line = String::new();
    let found = loop {
        line.clear();
        match stdout.read_line(&mut line) {
            Ok(0) | Err(_) => break Err("privim-serve exited before serving".to_string()),
            Ok(_) => {}
        }
        if let Some(rest) = line.strip_prefix("serving on port ") {
            break rest
                .split_whitespace()
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| format!("unparsable line from privim-serve: {line:?}"));
        }
    };
    let _ = port.send(found);
    let _ = std::io::copy(&mut stdout, &mut std::io::sink());
}

impl Server {
    /// Spawn the server on `bundle` and wait for its first `/healthz`
    /// 200, for at most `START_TIMEOUT`. Returns the server and the
    /// seconds that took.
    fn start(
        bin: &Path,
        bundle: &Path,
        wal: Option<&Path>,
        cpu: Option<usize>,
    ) -> Result<(Server, f64), String> {
        let t0 = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.arg("run")
            .arg("--bundle")
            .arg(bundle)
            .args(["--addr", "127.0.0.1:0"]);
        match wal {
            Some(w) => cmd.arg("--wal").arg(w).args(["--fsync", METERED_FSYNC]),
            None => cmd.arg("--no-wal"),
        };
        cmd.stdout(Stdio::piped()).stdin(Stdio::null());
        // A child inherits the CPU set of the thread that spawns it, so a
        // thread pinned to `cpu` spawns it.
        let spawned = std::thread::scope(|s| {
            s.spawn(|| {
                if let Some(cpu) = cpu {
                    speed::pin(cpu);
                }
                cmd.spawn()
            })
            .join()
            .expect("spawning thread panicked")
        });
        let mut child = spawned.map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("privim-serve stdout was not captured".into());
        };
        let (tx, rx) = mpsc::channel();
        let mut server = Server {
            child,
            reader: Some(std::thread::spawn(move || read_port(stdout, tx))),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        // On any error below, dropping `server` kills the child, which
        // ends the reader.
        let port = rx
            .recv_timeout(START_TIMEOUT)
            .map_err(|_| "privim-serve printed no port in time".to_string())??;
        server.addr.set_port(port);
        while loadgen::get(server.addr, "/healthz").map(|r| r.0) != Some(200) {
            if t0.elapsed() > START_TIMEOUT {
                return Err("privim-serve never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((server, t0.elapsed().as_secs_f64()))
    }

    fn metrics(&self) -> String {
        loadgen::get(self.addr, "/metrics")
            .map(|(_, body)| String::from_utf8_lossy(&body).into_owned())
            .unwrap_or_default()
    }
}

/// A scratch directory for the bundle and journals, removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let path = exe.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found next to {}; build it first (run.sh does)",
            path.display(),
            exe.display()
        ))
    }
}

/// Pack the run's bundle with the shipped binary. The metered mix gets a
/// ledger whose per-tenant budget covers `BUDGET_QUERIES` queries, sized
/// with the ledger's own accountant.
fn pack(bin: &Path, out: &Path, mix: Mix, opts: &Opts) -> Result<(), String> {
    let nodes = if opts.smoke { SMOKE_NODES } else { NODES };
    let mut cmd = Command::new(bin);
    cmd.arg("pack").arg("--out").arg(out).args([
        "--nodes",
        &nodes.to_string(),
        "--seed",
        &opts.seed.to_string(),
    ]);
    if opts.smoke {
        cmd.arg("--fast");
    }
    if mix == Mix::MeteredMiss {
        let config = LedgerConfig {
            epsilon_budget: 1.0,
            delta: LEDGER_DELTA,
            query_sigma: QUERY_SIGMA,
            retry_after_secs: 60,
        };
        let ledger = TenantLedger::new(LedgerState::new(config)).map_err(|e| e.to_string())?;
        let budget = ledger.epsilon_spent(BUDGET_QUERIES) * 1.01;
        cmd.args([
            "--tenant-budget",
            &budget.to_string(),
            "--query-sigma",
            &QUERY_SIGMA.to_string(),
            "--ledger-delta",
            &LEDGER_DELTA.to_string(),
        ]);
    }
    let status = cmd
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("privim-serve pack failed: {status}"))
    }
}

pub fn run(mix: Mix, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(mix, opts, &mut out) {
        out.problems.push(e);
    }
    out
}

fn run_inner(mix: Mix, opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let bin = sibling_binary("privim-serve")?;
    let exe_dir = bin.parent().map(Path::to_path_buf).unwrap_or_default();
    let work = WorkDir(exe_dir.join("privim_bench-work").join(format!(
        "{}-{}-{}",
        if mix == Mix::Mixed {
            "mixed"
        } else {
            "metered"
        },
        opts.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("create {}: {e}", work.0.display()))?;
    let bundle_path = work.0.join("bundle.json");
    pack(&bin, &bundle_path, mix, opts)?;
    let bundle = std::fs::File::open(&bundle_path)
        .map_err(|e| e.to_string())
        .and_then(|f| bundle::load(BufReader::new(f)).map_err(|e| e.to_string()))?;
    let wal = (mix == Mix::MeteredMiss).then(|| work.0.join("serve.wal"));

    // The server runs on the first CPU and the load generator (this
    // thread, and every thread it starts) on the second, so each side's
    // speed is one core's, and the probes read it.
    let cpus: Vec<usize> = speed::cpus().into_iter().take(2).collect();
    if let Some(&cpu) = cpus.get(1) {
        speed::pin(cpu);
    }
    // Each spawn starts from an empty journal.
    let start = || {
        if let Some(w) = &wal {
            let _ = std::fs::remove_file(w);
        }
        let before = speed::probe_cpus_ms(&cpus);
        let (server, secs) =
            Server::start(&bin, &bundle_path, wal.as_deref(), cpus.first().copied())?;
        let scale = Scale::new(&before, &speed::probe_cpus_ms(&cpus));
        Ok::<_, String>((server, (secs, scale)))
    };
    let (mut server, first_setup) = start()?;
    let mut setups = vec![first_setup];
    for _ in 1..if opts.trace { 1 } else { SETUP_REPS } {
        drop(server);
        let (next, setup) = start()?;
        server = next;
        setups.push(setup);
    }

    let nodes = bundle.graph.num_nodes();
    let traffic = Traffic::new(mix, opts.seed, nodes);
    let frame = |i: u64| traffic.frame(i);
    let rate = match mix {
        Mix::Mixed => MIXED_RATE,
        Mix::MeteredMiss => METERED_RATE,
    };
    let round_secs = opts.seconds / ROUNDS as f64;
    let open_secs = round_secs * OPEN_SHARE;
    let count = (rate * open_secs).round().max(1.0) as u64;

    // Request indices run on across steps, so no request repeats; each
    // open-loop step starts on a whole period of the mix, so every step
    // sends the same mix. Both cores are probed before and after each step,
    // while the server is idle.
    let before = server.metrics();
    let mut next: u64 = 0;
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut probes = vec![speed::probe_cpus_ms(&cpus)];
    for _ in 0..ROUNDS {
        next = next.next_multiple_of(traffic.period());
        let open = loadgen::run(
            server.addr,
            Pace::Open { rate, count },
            OPEN_DEPTH,
            next,
            &frame,
        );
        next += count;
        probes.push(speed::probe_cpus_ms(&cpus));
        let closed = loadgen::run(
            server.addr,
            Pace::Closed {
                secs: round_secs - open_secs,
            },
            CLOSED_DEPTH,
            next,
            &frame,
        );
        next = closed
            .records
            .iter()
            .map(|r| r.index + 1)
            .max()
            .unwrap_or(next);
        rounds.push((open, closed));
        probes.push(speed::probe_cpus_ms(&cpus));
    }
    let after = server.metrics();
    let server_rss = peak_rss_mb(Some(server.child.id()));
    drop(server);

    let records: Vec<&Record> = rounds
        .iter()
        .flat_map(|(open, closed)| open.records.iter().chain(&closed.records))
        .collect();
    let unanswered: u64 = rounds
        .iter()
        .map(|(open, _)| count.saturating_sub(open.records.len() as u64))
        .sum();
    out.attempted = records.len() as u64 + unanswered;
    let failed = records.iter().filter(|r| r.status != 200).count() as u64 + unanswered;

    let mut t = Trace::new();
    let replay = replay(&bundle, &traffic, &records, &work.0, &mut t)?;
    let failed = failed + replay.mismatches;
    out.failed = failed;
    if failed > 0 {
        out.problems.push(format!(
            "{failed} of {} requests failed or mismatched",
            out.attempted
        ));
    }
    out.problems.extend(replay.problems);

    // Latencies of each open-loop step after its warm-up, and the 200s per
    // second of each closed-loop step.
    let round_lat: Vec<Vec<&Record>> = rounds
        .iter()
        .map(|(open, _)| {
            open.records
                .iter()
                .filter(|r| r.status == 200 && r.due >= WARMUP * open_secs)
                .collect()
        })
        .collect();
    let round_rate: Vec<f64> = rounds
        .iter()
        .map(|(_, closed)| {
            closed.records.iter().filter(|r| r.status == 200).count() as f64 / closed.secs
        })
        .collect();
    let counted: Vec<&Record> = round_lat.concat();
    let lat: Vec<f64> = counted.iter().map(|r| r.latency_ms()).collect();

    if !opts.trace {
        // Times scaled to the reference speed (speed.rs) by the probes
        // around their step: latency by both cores, since a request crosses
        // from the load generator's core to the server's and back;
        // closed-loop throughput and set-up by the server's core alone,
        // which does that work.
        let scales: Vec<Scale> = probes
            .windows(2)
            .map(|w| Scale::new(&w[0], &w[1]))
            .collect();
        let lat_scaled: Vec<f64> = round_lat
            .iter()
            .zip(scales.iter().step_by(2))
            .flat_map(|(rs, s)| rs.iter().map(move |r| r.latency_ms() * s.both))
            .collect();
        let rate_scaled: Vec<f64> = round_rate
            .iter()
            .zip(scales.iter().skip(1).step_by(2))
            .map(|(r, s)| r / s.server)
            .collect();
        let setup_scaled: Vec<f64> = setups.iter().map(|(secs, s)| secs * s.server).collect();
        let round_iqm: Vec<f64> = round_lat
            .iter()
            .map(|rs| trimmed_mean(&rs.iter().map(|r| r.latency_ms()).collect::<Vec<_>>(), TRIM))
            .collect();
        eprintln!(
            "rounds, unscaled: latency_ms {round_iqm:.4?}, throughput_per_s {round_rate:.1?}; probe_ms (server, client) {probes:.3?}"
        );
        out.metric("setup_s", median(&setup_scaled), setup_scaled.len());
        out.metric(
            "latency_ms",
            trimmed_mean(&lat_scaled, TRIM),
            lat_scaled.len(),
        );
        out.metric("throughput_per_s", median(&rate_scaled), rate_scaled.len());
        out.metric("peak_rss_mb", server_rss, 1);
        return Ok(());
    }

    out.metric("latency.p50_ms", median(&lat), lat.len());
    out.metric("latency.tail_ms", tail(&lat).1, lat.len());
    let delta = |name: &str| {
        parse_counter(&after, name).unwrap_or(0) as f64
            - parse_counter(&before, name).unwrap_or(0) as f64
    };
    // Per-request self time of each layer, median over the requests that
    // reached it, in microseconds.
    for (metric, span) in [
        ("http.parse_us", "http.parse"),
        ("http.encode_us", "http.encode"),
        ("ledger.admit_us", "ledger.admit"),
        ("wal.append_us", "wal.append"),
        ("cache.lookup_us", "cache.lookup"),
        ("im.spread_us", "im.spread"),
        ("im.seeds_us", "im.seeds"),
    ] {
        let per_request = t.per_group("request", span);
        out.metric(metric, median(&per_request) * 1e6, per_request.len());
    }
    out.metric("wal.appends", delta("privim_wal_appends_total"), 1);
    let (hits, misses) = (
        delta("privim_cache_hits_total"),
        delta("privim_cache_misses_total"),
    );
    out.metric(
        "cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        (hits + misses) as usize,
    );
    let infer = t.durations("gnn.infer");
    out.metric("gnn.infer_ms", median(&infer) * 1e3, infer.len());
    let passes = delta("privim_batch_forward_passes_total");
    out.metric("batch.passes", passes, 1);
    out.metric(
        "batch.requests_per_pass",
        delta("privim_batch_batched_requests_total") / passes.max(1.0),
        1,
    );
    for ep in ENDPOINTS {
        let client: Vec<f64> = counted
            .iter()
            .filter(|r| traffic.request(r.index).ep == ep)
            .map(|r| r.latency_ms())
            .collect();
        let p50 = median(&client);
        let [name50, name_tail, name_wait] = ep.metrics();
        out.metric(name50, p50, client.len());
        out.metric(name_tail, tail(&client).1, client.len());
        let service = &replay.service_ms[ep as usize];
        let wait = if client.is_empty() {
            0.0
        } else {
            p50 - median(service)
        };
        out.metric(name_wait, wait, client.len());
    }
    out.metric("server.shed", delta("privim_shed_total"), 1);
    out.metric("server.connections", delta("privim_connections_total"), 1);
    out.metric(
        "server.keepalive_reuses",
        delta("privim_keepalive_reuses_total"),
        1,
    );
    out.metric(
        "server.wal_append_failures",
        delta("privim_wal_append_failures_total"),
        1,
    );
    out.metric("loadgen.sent", records.len() as f64, 1);
    let late: Vec<f64> = rounds
        .iter()
        .flat_map(|(open, _)| open.records.iter().map(Record::late_ms))
        .collect();
    out.metric("loadgen.late_tail_ms", tail(&late).1, late.len());
    // Per-request spans of a full run are large; keep them only when a
    // trace file was asked for.
    if opts.out.is_some() {
        out.trace = Some(Value::obj(vec![("replay", t.to_json())]));
    }
    Ok(())
}

struct ReplayOut {
    mismatches: u64,
    problems: Vec<String>,
    /// Per endpoint: the replay's service time of each request (ms).
    service_ms: [Vec<f64>; 3],
}

/// Replay every recorded request (given in index order) through serve's
/// public functions, single threaded, and compare each recorded body with
/// the replay's bytes. Flags that depend on which request reached a cache
/// first (`cached`, `served_from_cache`) may take either value.
fn replay(
    b: &Bundle,
    traffic: &Traffic,
    records: &[&Record],
    work: &Path,
    t: &mut Trace,
) -> Result<ReplayOut, String> {
    let graph = &b.graph;
    let defaults = ServeConfig::default();
    let mut result = ReplayOut {
        mismatches: 0,
        problems: Vec::new(),
        service_ms: [Vec::new(), Vec::new(), Vec::new()],
    };

    // Embed scores come from one full-graph forward pass; the server's
    // batcher runs exactly this pass. Timed three times.
    let embeds = records
        .iter()
        .any(|r| traffic.request(r.index).ep == Endpoint::Embed);
    let mut scores: Vec<f64> = Vec::new();
    let mut infer_ms = 0.0;
    if embeds {
        let gt = GraphTensors::new(graph);
        let x = node_features(graph);
        for _ in 0..3 {
            scores = t.time("gnn.infer", || b.model.infer(&gt, &x));
        }
        infer_ms = median(&t.durations("gnn.infer")) * 1e3;
    }

    let cache: ShardedLru<f64> =
        ShardedLru::new(defaults.cache_shards, defaults.cache_cap_per_shard);
    let mut greedy = LazyGreedy::new(std::sync::Arc::clone(graph));
    let ledger = match &b.ledger {
        Some(state) => Some(TenantLedger::new(state.clone()).map_err(|e| e.to_string())?),
        None => None,
    };
    let mut wal = match &ledger {
        Some(_) => Some(
            WalWriter::open(&work.join("replay.wal"), FsyncPolicy::Always)
                .map_err(|e| e.to_string())?,
        ),
        None => None,
    };
    let (runs, max_steps) = traffic.influence_runs();
    let mut wal_appends = 0;

    for rec in records {
        let req = traffic.request(rec.index);
        let frame = traffic.frame(rec.index);
        let started = Instant::now();
        let expected: Vec<String> = t.span("request", |t| {
            let parsed = t.time("http.parse", || parse_one(&frame));
            if !matches!(parsed, Ok(Some(_))) {
                return Vec::new();
            }
            if let (Some(tenant), Some(ledger)) = (&req.tenant, &ledger) {
                let Admission::Granted { queries, .. } =
                    t.time("ledger.admit", || ledger.admit(tenant))
                else {
                    return Vec::new();
                };
                if let Some(w) = wal.as_mut().filter(|_| wal_appends < WAL_SAMPLES) {
                    wal_appends += 1;
                    if t.time("wal.append", || w.append(tenant, queries)).is_err() {
                        return Vec::new();
                    }
                }
            }
            let bodies: Vec<Value> = match req.ep {
                Endpoint::Embed => {
                    let v = req.args[0];
                    vec![Value::obj(vec![(
                        "scores",
                        Value::Arr(vec![Value::Arr(vec![
                            Value::Num(f64::from(v)),
                            Value::Num(scores.get(v as usize).copied().unwrap_or(f64::NAN)),
                        ])]),
                    )])]
                }
                Endpoint::Influence => {
                    let key = influence_cache_key(
                        b.fingerprint,
                        &req.args,
                        runs,
                        max_steps,
                        traffic.mc_seed,
                    );
                    let cached = t.time("cache.lookup", || cache.get(&key));
                    let spread = match cached {
                        Some(v) => v,
                        None => {
                            let v = t.time("im.spread", || {
                                ic_spread_estimate(
                                    graph,
                                    &req.args,
                                    max_steps,
                                    runs,
                                    traffic.mc_seed,
                                )
                            });
                            t.time("cache.lookup", || cache.put(key, v));
                            v
                        }
                    };
                    [false, true]
                        .map(|c| {
                            Value::obj(vec![
                                ("spread", Value::Num(spread)),
                                ("runs", Value::Num(runs as f64)),
                                ("cached", Value::Bool(c)),
                            ])
                        })
                        .to_vec()
                }
                Endpoint::Seeds => {
                    let k = req.args[0] as usize;
                    let seeds: Vec<Value> = t.time("im.seeds", || {
                        greedy
                            .extend_to(k)
                            .iter()
                            .map(|&s| Value::Num(f64::from(s)))
                            .collect()
                    });
                    let spread = greedy.prefix_spread(k);
                    [false, true]
                        .map(|c| {
                            Value::obj(vec![
                                ("seeds", Value::Arr(seeds.clone())),
                                ("spread", Value::Num(spread)),
                                ("served_from_cache", Value::Bool(c)),
                            ])
                        })
                        .to_vec()
                }
            };
            t.time("http.encode", || {
                let texts: Vec<String> = bodies.iter().map(Value::to_json_string).collect();
                let _frame =
                    response_frame(200, "application/json", &[], texts[0].as_bytes(), true);
                texts
            })
        });
        let service = started.elapsed().as_secs_f64() * 1e3;
        let extra = if req.ep == Endpoint::Embed {
            infer_ms
        } else {
            0.0
        };
        result.service_ms[req.ep as usize].push(service + extra);
        // Non-200 records were already counted as failures.
        if rec.status == 200 && !expected.iter().any(|e| e.as_bytes() == rec.body.as_slice()) {
            result.mismatches += 1;
            if result.problems.len() < 5 {
                result.problems.push(format!(
                    "request {} ({}): body {:?} differs from the replay's {:?}",
                    rec.index,
                    req.ep.name(),
                    String::from_utf8_lossy(&rec.body),
                    expected.first()
                ));
            }
        }
    }
    Ok(result)
}
