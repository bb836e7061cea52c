//! `privim_bench` — the repository's benchmark: two DP-SGD runs and two
//! served traffic mixes, end-to-end metrics plus a traced per-layer split.
//! `BENCHMARK.json` at the repository root names the workloads and
//! metrics; README.md in this directory explains them.
//!
//! ```text
//! privim_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR] [--smoke]
//! privim_bench --seed <n> --out DIR [--sets N] [--seconds S] [--smoke]
//! privim_bench --self-test
//! ```
//!
//! The first form runs one workload and prints, as its last stdout line,
//! `{"correct", "attempted", "failed", "metrics"}` with every end-to-end
//! metric (`--trace 0`) or every per-layer metric (`--trace 1`). The
//! second runs every workload in fresh child processes, `--sets` times,
//! then one traced run each, and writes `DIR/result.json` plus
//! `DIR/trace-<workload>.json`. Any failed check exits non-zero.

mod loadgen;
mod serve;
mod speed;
mod stats;
mod suite;
mod trace;
mod train;

use privim_rt::json::Value;
use std::path::PathBuf;
use std::process::exit;

/// `(name, why)` of each workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "train-star-facebook",
        "PrivIM* DP-SGD on n=70 subgraphs of the 22.5k-node Facebook graph: trainer-heavy, scoring about a quarter of the run",
    ),
    (
        "train-hp-facebook",
        "HP-GRAT on ~11k ego subgraphs of at most 11 nodes: per-call trainer overhead, and full-graph scoring dominates the run",
    ),
    (
        "serve-mixed",
        "60% embed, 30% cached influence, 10% seeds on a 4000-node bundle: batcher window and forward pass, plus front-end cost",
    ),
    (
        "serve-metered-miss",
        "85% never-cached influence, 15% seeds, 4 metered tenants, WAL fsync every 64: ledger and journal beside reads, no batcher",
    ),
];

/// `(name, unit, better, bound)` of each end-to-end metric.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_ms", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
];

/// `(name, unit, better)` of each per-layer metric. A workload that does
/// not reach a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str, &str); 49] = [
    ("latency.p50_ms", "ms", "lower"),
    ("latency.tail_ms", "ms", "lower"),
    ("sampling.busy_s", "s", "lower"),
    ("sampling.subgraphs", "count", "higher"),
    ("sampling.occurrence_ratio", "ratio", "lower"),
    ("trainer.item_prep_s", "s", "lower"),
    ("dp.calibrate_s", "s", "lower"),
    ("trainer.train_s", "s", "lower"),
    ("trainer.steps", "count", "higher"),
    ("trainer.step.forward_ms", "ms", "lower"),
    ("trainer.step.loss_ms", "ms", "lower"),
    ("trainer.step.backward_ms", "ms", "lower"),
    ("trainer.step.clip_ms", "ms", "lower"),
    ("trainer.step.sum_ms", "ms", "lower"),
    ("trainer.step.noise_ms", "ms", "lower"),
    ("trainer.step.update_ms", "ms", "lower"),
    ("trainer.step.samples", "count", "higher"),
    ("trainer.clipped_frac", "ratio", "lower"),
    ("gnn.score_graph_s", "s", "lower"),
    ("im.select_s", "s", "lower"),
    ("quality.coverage_pct", "%", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("http.parse_us", "us", "lower"),
    ("http.encode_us", "us", "lower"),
    ("ledger.admit_us", "us", "lower"),
    ("wal.append_us", "us", "lower"),
    ("wal.appends", "count", "higher"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.lookup_us", "us", "lower"),
    ("im.spread_us", "us", "lower"),
    ("im.seeds_us", "us", "lower"),
    ("gnn.infer_ms", "ms", "lower"),
    ("batch.passes", "count", "lower"),
    ("batch.requests_per_pass", "ratio", "higher"),
    ("endpoint.embed.p50_ms", "ms", "lower"),
    ("endpoint.embed.tail_ms", "ms", "lower"),
    ("endpoint.influence.p50_ms", "ms", "lower"),
    ("endpoint.influence.tail_ms", "ms", "lower"),
    ("endpoint.seeds.p50_ms", "ms", "lower"),
    ("endpoint.seeds.tail_ms", "ms", "lower"),
    ("wait.embed.p50_ms", "ms", "lower"),
    ("wait.influence.p50_ms", "ms", "lower"),
    ("wait.seeds.p50_ms", "ms", "lower"),
    ("server.shed", "count", "lower"),
    ("server.connections", "count", "lower"),
    ("server.keepalive_reuses", "count", "higher"),
    ("server.wal_append_failures", "count", "lower"),
    ("loadgen.sent", "count", "higher"),
    ("loadgen.late_tail_ms", "ms", "lower"),
];

/// One run's settings.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// `(name, value, samples)`.
    pub metrics: Vec<(&'static str, f64, usize)>,
    /// Spans of the traced run.
    pub trace: Option<Value>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push((name, value, samples));
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The result line: every reported metric in table order, 0 for a
    /// layer this workload does not reach.
    fn to_json(&self, traced: bool) -> Value {
        let metrics = reported(traced)
            .into_iter()
            .map(|(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|m| m.0 == name)
                    .map_or(0.0, |m| m.1);
                (
                    name.to_string(),
                    Value::obj(vec![
                        ("value", Value::Num(value)),
                        ("unit", Value::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Value::obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
    }
}

/// `(name, unit)` of the metrics a run reports: the per-layer ones when
/// traced, the end-to-end ones otherwise.
fn reported(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    }
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one workload in this process.
pub fn run_workload(name: &str, opts: &Opts) -> Option<Outcome> {
    Some(match name {
        "train-star-facebook" => train::run(train::Kind::Star, opts),
        "train-hp-facebook" => train::run(train::Kind::Hp, opts),
        "serve-mixed" => serve::run(serve::Mix::Mixed, opts),
        "serve-metered-miss" => serve::run(serve::Mix::MeteredMiss, opts),
        _ => return None,
    })
}

fn usage() -> ! {
    eprintln!(
        "usage:
  privim_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR] [--smoke]
  privim_bench --seed <n> --out DIR [--sets N] [--seconds S] [--smoke]
  privim_bench --self-test
workloads: {}",
        WORKLOADS.map(|w| w.0).join(", ")
    );
    exit(2)
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> T {
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a valid value");
        usage()
    })
}

// privim-lint: allow(dp-taint, reason = "serializes timings, counts and check verdicts only; every model it runs was released by run_method's DP training or loaded from a packed bundle")
fn main() {
    // Fault injection would turn the benchmark into a chaos test.
    if let Some((k, _)) = std::env::vars().find(|(k, _)| k.starts_with("PRIVIM_FAULT")) {
        eprintln!("privim_bench: refusing to run with {k} set");
        exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut smoke = false;
    let mut out = None;
    let mut sets = 1usize;
    let mut self_test = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => workload = Some(parse::<String>(a, it.next())),
            "--seed" => seed = Some(parse::<u64>(a, it.next())),
            "--seconds" => seconds = Some(parse::<f64>(a, it.next())),
            "--trace" => traced = parse::<u8>(a, it.next()) == 1,
            "--out" => out = Some(PathBuf::from(parse::<String>(a, it.next()))),
            "--sets" => sets = parse(a, it.next()),
            "--smoke" => smoke = true,
            "--self-test" => self_test = true,
            _ => usage(),
        }
    }
    if self_test {
        exit(if suite::self_test() { 0 } else { 1 });
    }
    let Some(seed) = seed else { usage() };
    let seconds = seconds.unwrap_or(if smoke { 1.0 } else { 20.0 });
    if seconds.is_nan() || seconds <= 0.0 {
        usage();
    }

    let Some(name) = workload else {
        let Some(out) = out else { usage() };
        exit(suite::run(seed, &out, sets.max(1), seconds, smoke));
    };
    // Training kernels run on one worker thread: ROADMAP.md's bench box
    // has one CPU, and on a small shared machine a parallel section waits
    // on its slowest core, which tripled the run-to-run spread of
    // train-hp. The server keeps its default pool, which measured steadier.
    privim_rt::par::set_threads(1);
    let opts = Opts {
        seed,
        seconds,
        trace: traced,
        smoke,
        out,
    };
    let Some(mut outcome) = run_workload(&name, &opts) else {
        usage()
    };
    let table = reported(traced);
    let stray: Vec<&str> = outcome
        .metrics
        .iter()
        .map(|m| m.0)
        .filter(|n| !table.iter().any(|t| t.0 == *n))
        .collect();
    if !stray.is_empty() {
        outcome
            .problems
            .push(format!("metrics missing from BENCHMARK.json: {stray:?}"));
    }
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    for (name, value, samples) in &outcome.metrics {
        eprintln!("{name:<28} {value:>14.4}  (n={samples})");
    }
    if let (Some(dir), Some(trace)) = (&opts.out, &outcome.trace) {
        let path = dir.join(format!("trace-{name}.json"));
        let written = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, trace.to_json_string()));
        if let Err(e) = written {
            eprintln!("privim_bench: writing {}: {e}", path.display());
            exit(1);
        }
    }
    println!("{}", outcome.to_json(traced).to_json_string());
    exit(if outcome.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    /// The `[profile.release]` table of a manifest: its settings, without
    /// comments or blank lines.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .map(|l| l.split('#').next().unwrap_or("").trim())
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty())
            .collect()
    }

    #[test]
    fn standalone_build_uses_the_workspace_release_profile() {
        let own = release_profile(include_str!("Cargo.toml"));
        let root = release_profile(include_str!("../../../../../Cargo.toml"));
        assert!(!root.is_empty(), "the workspace sets a release profile");
        assert_eq!(
            own, root,
            "Cargo.toml here must copy the root's [profile.release]"
        );
    }

    fn names(doc: &Value, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("BENCHMARK.json list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_what_is_emitted() {
        let doc = Value::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert_eq!(names(&doc, "workloads"), WORKLOADS.map(|w| w.0.to_string()));
        for (w, (_, why)) in doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .zip(WORKLOADS)
        {
            assert_eq!(w.get("why").and_then(Value::as_str), Some(why));
        }
        let e2e = doc.get("end_to_end").and_then(Value::as_array).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(m.get("name").and_then(Value::as_str), Some(name));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
            assert_eq!(m.get("better").and_then(Value::as_str), Some(better));
            assert_eq!(m.get("bound").and_then(Value::as_f64), Some(bound));
        }
        let layer = doc.get("per_layer").and_then(Value::as_array).unwrap();
        assert_eq!(layer.len(), PER_LAYER.len());
        for (m, (name, unit, better)) in layer.iter().zip(PER_LAYER) {
            assert_eq!(m.get("name").and_then(Value::as_str), Some(name));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
            assert_eq!(m.get("better").and_then(Value::as_str), Some(better));
        }
        // The emitted line carries exactly the table's metrics.
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.metric("setup_s", 1.5, 3);
        let line = o.to_json(false);
        let emitted: Vec<&str> = match line.get("metrics") {
            Some(Value::Obj(fields)) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("metrics object"),
        };
        assert_eq!(emitted, END_TO_END.map(|m| m.0));
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    }
}
