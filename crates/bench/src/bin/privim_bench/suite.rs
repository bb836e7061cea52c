//! The whole benchmark in one command: every workload in fresh child
//! processes, `sets` times over, then one traced run each, with an
//! agreement report between sets and a record of the machine it ran on.

use crate::loadgen::{self, FakeResponder, Pace};
use crate::stats::{median, quartiles, rel_diff};
use crate::{END_TO_END, PER_LAYER, WORKLOADS};
use privim_rt::json::Value;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

/// Load-generator check against a server that answers every request
/// exactly 2 ms after it arrives: the median latency must read 2–3 ms at
/// pipeline depth 1 and at depth 8. A client that reads a response only
/// after its next sends would report several send gaps instead.
pub fn self_test() -> bool {
    let fake = match FakeResponder::start(Duration::from_millis(2)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("self-test: cannot start the fake responder: {e}");
            return false;
        }
    };
    let mut ok = true;
    for (depth, rate, count) in [(1, 200.0, 300), (8, 1000.0, 1500)] {
        let step = loadgen::run(
            fake.addr,
            Pace::Open { rate, count },
            depth,
            0,
            &loadgen::probe_frame,
        );
        let good = step.records.iter().filter(|r| r.status == 200).count();
        let lat: Vec<f64> = step.records.iter().map(|r| r.latency_ms()).collect();
        let p50 = median(&lat);
        let pass = good == count as usize && (2.0..=3.0).contains(&p50);
        ok &= pass;
        println!(
            "self-test depth {depth} at {rate} req/s: {good}/{count} ok, p50 {p50:.3} ms {}",
            if pass { "ok" } else { "FAILED (want 2..=3 ms)" }
        );
    }
    ok
}

fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run one workload in a child process; returns its result line.
fn child(workload: &str, seed: u64, seconds: f64, trace: Option<&Path>, smoke: bool) -> Value {
    let failed = |why: String| {
        eprintln!("privim_bench: {workload} seed {seed}: {why}");
        Value::obj(vec![("correct", Value::Bool(false))])
    };
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return failed(e.to_string()),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace.is_some() { "1" } else { "0" }]);
    if let Some(dir) = trace {
        cmd.arg("--out").arg(dir);
    }
    if smoke {
        cmd.arg("--smoke");
    }
    let output = match cmd.stderr(Stdio::inherit()).output() {
        Ok(o) => o,
        Err(e) => return failed(e.to_string()),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    match Value::parse(line) {
        Ok(v) if output.status.success() => v,
        Ok(v) => {
            eprintln!(
                "privim_bench: {workload} seed {seed}: exited with {}",
                output.status
            );
            v
        }
        Err(e) => failed(format!("unparsable result line {line:?}: {e}")),
    }
}

fn metric_value(line: &Value, name: &str) -> Option<f64> {
    line.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn is_correct(line: &Value) -> bool {
    line.get("correct").and_then(Value::as_bool) == Some(true)
}

/// `--seed S --out DIR`: returns the process exit code. Set `s` runs each
/// workload on seeds `S + s·runs .. S + (s+1)·runs`, so sets share no
/// seed and their agreement includes seed-to-seed variance.
pub fn run(seed: u64, out: &Path, sets: usize, seconds: f64, smoke: bool) -> i32 {
    let runs: u64 = if smoke { 1 } else { 5 };
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("privim_bench: creating {}: {e}", out.display());
        return 1;
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ok = true;
    if smoke {
        ok &= self_test();
    }

    // set -> workload -> runs' result lines
    let mut results: Vec<Vec<Vec<Value>>> = Vec::new();
    let mut set_docs = Vec::new();
    for set in 0..sets {
        let load_before = loadavg();
        let mut per_workload = Vec::new();
        for (w, _) in WORKLOADS {
            let first = seed + set as u64 * runs;
            let lines: Vec<Value> = (first..first + runs)
                .map(|s| child(w, s, seconds, None, smoke))
                .collect();
            ok &= lines.iter().all(is_correct);
            per_workload.push(lines);
        }
        let load_after = loadavg();
        let noisy = load_before.max(load_after) > nproc as f64;
        println!(
            "set {set}: loadavg {load_before:.2} -> {load_after:.2}{}",
            if noisy { " (noisy: above nproc)" } else { "" }
        );
        set_docs.push((load_before, load_after, noisy));
        results.push(per_workload);
    }

    // Report: per set, median and quartiles of each end-to-end metric.
    println!(
        "{:<20} {:<18} {:>4} {:>12} {:>12} {:>12} {:<6}",
        "workload", "metric", "set", "q1", "median", "q3", "unit"
    );
    let mut summary = Vec::new();
    let mut agreement = Vec::new();
    for (wi, (w, _)) in WORKLOADS.iter().enumerate() {
        for (m, unit, _, bound) in END_TO_END {
            let mut medians = Vec::new();
            for (set, per_workload) in results.iter().enumerate() {
                let xs: Vec<f64> = per_workload[wi]
                    .iter()
                    .filter_map(|l| metric_value(l, m))
                    .collect();
                let (q1, med, q3) = quartiles(&xs);
                println!(
                    "{w:<20} {m:<18} {set:>4} {q1:>12.4} {med:>12.4} {q3:>12.4} {unit:<6} (n={})",
                    xs.len()
                );
                summary.push(Value::obj(vec![
                    ("workload", Value::Str(w.to_string())),
                    ("metric", Value::Str(m.to_string())),
                    ("unit", Value::Str(unit.to_string())),
                    ("set", Value::Num(set as f64)),
                    ("n", Value::Num(xs.len() as f64)),
                    ("q1", Value::Num(q1)),
                    ("median", Value::Num(med)),
                    ("q3", Value::Num(q3)),
                ]));
                medians.push(med);
            }
            for (set, med) in medians.iter().enumerate().skip(1) {
                let diff = rel_diff(*med, medians[0]);
                let agrees = smoke || diff.abs() <= bound;
                ok &= agrees;
                if !agrees {
                    println!("DISAGREE {w} {m}: set {set} median differs from set 0 by {:.1}% (bound {:.0}%)", 100.0 * diff, 100.0 * bound);
                }
                agreement.push(Value::obj(vec![
                    ("workload", Value::Str(w.to_string())),
                    ("metric", Value::Str(m.to_string())),
                    ("set", Value::Num(set as f64)),
                    ("rel_diff", Value::Num(diff)),
                    ("bound", Value::Num(bound)),
                    ("agrees", Value::Bool(agrees)),
                ]));
            }
        }
    }

    // One traced run per workload, written next to the result.
    let mut traced = Vec::new();
    for (w, _) in WORKLOADS {
        let line = child(w, seed, seconds, Some(out), smoke);
        ok &= is_correct(&line);
        for (m, unit, _) in PER_LAYER {
            if let Some(v) = metric_value(&line, m).filter(|v| *v != 0.0) {
                println!("{w:<20} {m:<28} {v:>12.4} {unit}");
            }
        }
        traced.push((w.to_string(), line));
    }

    let doc = Value::obj(vec![
        (
            "env",
            Value::obj(vec![
                ("available_parallelism", Value::Num(nproc as f64)),
                (
                    "simd_backend",
                    Value::Str(privim_tensor::simd::active().name().to_string()),
                ),
                (
                    "privim_threads",
                    std::env::var("PRIVIM_THREADS").map_or(Value::Null, Value::Str),
                ),
                ("git_rev", Value::Str(git_rev())),
                ("seed", Value::Num(seed as f64)),
                ("runs_per_set", Value::Num(runs as f64)),
                ("seconds", Value::Num(seconds)),
                ("smoke", Value::Bool(smoke)),
            ]),
        ),
        (
            "sets",
            Value::Arr(
                set_docs
                    .iter()
                    .zip(&results)
                    .map(|(&(before, after, noisy), per_workload)| {
                        Value::obj(vec![
                            ("loadavg_before", Value::Num(before)),
                            ("loadavg_after", Value::Num(after)),
                            ("noisy", Value::Bool(noisy)),
                            (
                                "runs",
                                Value::Obj(
                                    WORKLOADS
                                        .iter()
                                        .zip(per_workload)
                                        .map(|((w, _), lines)| {
                                            (w.to_string(), Value::Arr(lines.clone()))
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("summary", Value::Arr(summary)),
        ("agreement", Value::Arr(agreement)),
        ("traced", Value::Obj(traced)),
        ("ok", Value::Bool(ok)),
    ]);
    let path = out.join("result.json");
    if let Err(e) = std::fs::write(&path, doc.to_json_string_pretty()) {
        eprintln!("privim_bench: writing {}: {e}", path.display());
        return 1;
    }
    println!(
        "wrote {}; {}",
        path.display(),
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    i32::from(!ok)
}
