//! Crash-durability tests for the budget-ledger WAL: every injected I/O
//! fault point must recover without undercharging, random crash points
//! must never lose an acknowledged charge, and a serving process that
//! stops without a clean re-pack must come back with per-tenant spend
//! >= everything it acknowledged over TCP.

use privim::ServeArtifact;
use privim_gnn::{GnnConfig, GnnModel};
use privim_graph::Graph;
use privim_rt::fault::{FaultPlan, FaultPoint};
use privim_rt::json::Value;
use privim_rt::{fault, ChaCha8Rng, Rng, SeedableRng};
use privim_serve::metrics::parse_counter;
use privim_serve::{
    bundle, start, wal, DurabilityConfig, FsyncPolicy, LedgerConfig, LedgerState, ServeConfig,
    WalWriter,
};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

const IO_POINTS: [FaultPoint; 4] = [
    FaultPoint::IoShortWrite,
    FaultPoint::IoTornWrite,
    FaultPoint::IoFsyncFail,
    FaultPoint::CrashAfterWrite,
];

fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("privim-wal-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn generous_config() -> LedgerConfig {
    // sigma=24 under an eps=8 budget admits hundreds of queries — these
    // tests exercise durability, not exhaustion.
    LedgerConfig {
        epsilon_budget: 8.0,
        delta: 1e-5,
        query_sigma: 24.0,
        retry_after_secs: 60,
    }
}

/// The artifact and graph of [`metered_bundle`] (untrained model: serving
/// durability does not depend on weight quality).
fn metered_parts(seed: u64) -> (ServeArtifact, Graph) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = privim_graph::generators::barabasi_albert(60, 3, &mut rng).with_uniform_weights(1.0);
    let artifact = ServeArtifact {
        model: GnnModel::new(GnnConfig::paper_default(), &mut rng),
        epsilon: Some(2.0),
        delta: 1e-4,
        sigma: 1.5,
        steps: 80,
    };
    (artifact, g)
}

/// A loaded metered bundle over a small graph, every tenant at zero.
fn metered_bundle(seed: u64) -> bundle::Bundle {
    let (artifact, g) = metered_parts(seed);
    let mut buf = Vec::new();
    bundle::save_with_ledger(&artifact, &g, &LedgerState::new(generous_config()), &mut buf)
        .unwrap();
    bundle::load(buf.as_slice()).unwrap()
}

fn post_metered(port: u16, tenant: &str) -> u16 {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let body = "{\"nodes\":[1,2,3]}";
    let raw = format!(
        "POST /v1/embed HTTP/1.1\r\nHost: t\r\nConnection: close\r\nX-Privim-Tenant: {tenant}\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    text.split_ascii_whitespace().nth(1).unwrap_or("0").parse().unwrap_or(0)
}

/// For each I/O fault point: append through a writer with that fault
/// armed, track which appends were acknowledged (returned Ok), recover
/// the journal, and assert recovered spend covers every acknowledged
/// charge. Pins each point's specific failure shape too.
#[test]
fn every_io_fault_point_recovers_without_undercharge() {
    for point in IO_POINTS {
        let path = tmp(&format!("point-{}", point.name()));
        let plan = FaultPlan::at_step(13, point, 2);
        let mut w = WalWriter::open_with_plan(&path, FsyncPolicy::Always, Some(plan)).unwrap();
        let mut acked = 0u64;
        let mut attempted = 0u64;
        for q in 1..=6u64 {
            if w.poisoned() {
                // A real process would be dead (crash) or refusing
                // appends (failed fsync): restart on the same journal.
                w = WalWriter::open_with_plan(&path, FsyncPolicy::Always, Some(plan)).unwrap();
            }
            attempted = q;
            if w.append("acme", q).is_ok() {
                acked = q;
            }
        }
        drop(w);
        let mut state = LedgerState::new(generous_config());
        let report = wal::recover_from_path(&mut state, &path).unwrap();
        assert!(report.wal_present, "{}", point.name());
        let recovered = state.tenants.get("acme").copied().unwrap_or(0);
        assert!(
            recovered >= acked,
            "{}: recovered {recovered} < acked {acked} — undercharge",
            point.name()
        );
        assert!(recovered <= attempted, "{}: recovered more than attempted", point.name());
        match point {
            // Write faults: the torn attempt was repaired away, every
            // acknowledged record is intact.
            FaultPoint::IoShortWrite | FaultPoint::IoTornWrite => {
                assert_eq!(recovered, acked, "{}", point.name());
                assert_eq!(report.torn_tail_bytes, 0, "{}: open/repair left a tail", point.name());
            }
            // The failed-fsync / crash-after-write record was durable (or
            // at least present) but never acknowledged: overcharge is
            // expected and allowed.
            FaultPoint::IoFsyncFail | FaultPoint::CrashAfterWrite => {
                // The fault fires at attempt 2 of each writer: q=3 on the
                // original and q=6 on the restarted one. Both records hit
                // the file before the failure, so recovery keeps them —
                // one query of overcharge, zero undercharge.
                assert_eq!(acked, 5, "restart must resume acknowledging");
                assert_eq!(recovered, 6, "{}", point.name());
            }
            _ => unreachable!(),
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Fsync failure semantics: the writer poisons itself (no further
/// appends — the journal's durable state is unknowable), and the
/// already-written record survives recovery in the overcharge direction.
#[test]
fn fsync_failure_poisons_the_writer_and_keeps_the_charge() {
    let path = tmp("fsync-poison");
    let plan = FaultPlan::at_step(5, FaultPoint::IoFsyncFail, 1);
    let mut w = WalWriter::open_with_plan(&path, FsyncPolicy::Always, Some(plan)).unwrap();
    w.append("acme", 1).unwrap();
    assert!(w.append("acme", 2).is_err());
    assert!(w.poisoned());
    assert!(w.append("acme", 3).is_err(), "poisoned writer must refuse appends");
    assert!(w.reset().is_err(), "poisoned writer must refuse reset");
    drop(w);
    let mut state = LedgerState::new(generous_config());
    wal::recover_from_path(&mut state, &path).unwrap();
    // Record 2 was written (sync failed after): kept — overcharge-safe.
    assert_eq!(state.tenants.get("acme"), Some(&2));
    let _ = std::fs::remove_file(&path);
}

/// Seeded property test: build a journal, crash at a random byte offset
/// (plus a CRC-corruption variant), recover, and assert recovered spend
/// is monotone >= acknowledged spend under the fsync=always ack model (a
/// charge is acknowledged only once its record is fully durable).
/// Replay of identical bytes must also be identical.
#[test]
fn random_crash_points_never_undercharge() {
    for seed in 0..60u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut buf = Vec::new();
        let mut counts = [0u64; 3];
        // (journal length after record, counts acknowledged by then)
        let mut acked_at: Vec<(usize, [u64; 3])> = Vec::new();
        let records = 5 + (rng.gen::<u64>() % 20) as usize;
        for _ in 0..records {
            let t = (rng.gen::<u64>() % 3) as usize;
            counts[t] += 1;
            wal::append_record(&mut buf, &format!("tenant-{t}"), counts[t]).unwrap();
            acked_at.push((buf.len(), counts));
        }
        let cut = (rng.gen::<u64>() % (buf.len() as u64 + 1)) as usize;
        let acked = acked_at
            .iter()
            .rev()
            .find(|(off, _)| *off <= cut)
            .map(|(_, c)| *c)
            .unwrap_or([0; 3]);
        let (rec_a, stats_a) = wal::replay(&buf[..cut]);
        let (rec_b, stats_b) = wal::replay(&buf[..cut]);
        assert_eq!(rec_a, rec_b, "seed={seed}: replay must be deterministic");
        assert_eq!(stats_a, stats_b, "seed={seed}");
        for (t, &acked_q) in acked.iter().enumerate() {
            let got = rec_a.get(&format!("tenant-{t}")).copied().unwrap_or(0);
            assert!(
                got >= acked_q,
                "seed={seed} cut={cut} tenant-{t}: recovered {got} < acked {acked_q}"
            );
            assert!(got <= counts[t], "seed={seed}: recovered beyond attempted");
        }
        // CRC-corruption variant: flip one stored-CRC byte (offset 4 of
        // a random record) — the ambiguous charge must be kept.
        if cut == buf.len() && !acked_at.is_empty() {
            let mut corrupted = buf.clone();
            let rec_idx = (rng.gen::<u64>() % acked_at.len() as u64) as usize;
            let rec_start = if rec_idx == 0 { 0 } else { acked_at[rec_idx - 1].0 };
            corrupted[rec_start + 4] ^= 0x5A;
            let (rec_c, stats_c) = wal::replay(&corrupted);
            assert_eq!(stats_c.ambiguous_kept, 1, "seed={seed}");
            for (t, &final_q) in counts.iter().enumerate() {
                let got = rec_c.get(&format!("tenant-{t}")).copied().unwrap_or(0);
                assert_eq!(got, final_q, "seed={seed}: ambiguous keep must not drop spend");
            }
        }
    }
}

/// The CI fault-matrix entry point: honors `PRIVIM_FAULT*` when set
/// (each matrix leg arms one I/O point), defaults to all four armed.
/// Appends through injected failures with restarts on poison, then
/// recovers and asserts no acknowledged charge was lost.
#[test]
fn env_plan_io_faults_recovery() {
    let plan = fault::env_plan().unwrap_or_else(|| FaultPlan::new(7, &IO_POINTS, 0.35));
    let path = tmp("env-matrix");
    let mut w = WalWriter::open_with_plan(&path, FsyncPolicy::Always, Some(plan)).unwrap();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut acked: BTreeMap<String, u64> = BTreeMap::new();
    let mut failures = 0u64;
    for i in 0..60u64 {
        let tenant = format!("tenant-{}", i % 3);
        // Admission charges in memory before journaling, so the logical
        // count advances even when the append fails (overcharge-safe).
        let q = counts.entry(tenant.clone()).or_insert(0);
        *q += 1;
        let q = *q;
        if w.poisoned() {
            w = WalWriter::open_with_plan(&path, FsyncPolicy::Always, Some(plan)).unwrap();
        }
        match w.append(&tenant, q) {
            Ok(()) => {
                acked.insert(tenant, q);
            }
            Err(_) => failures += 1,
        }
    }
    drop(w);
    let mut state = LedgerState::new(generous_config());
    let report = wal::recover_from_path(&mut state, &path).unwrap();
    assert!(report.wal_present);
    for (tenant, &acked_q) in &acked {
        let recovered = state.tenants.get(tenant).copied().unwrap_or(0);
        assert!(
            recovered >= acked_q,
            "{tenant}: recovered {recovered} < acked {acked_q} \
             (plan seed {}, {failures} injected failures)",
            plan.seed()
        );
        let attempted = counts.get(tenant).copied().unwrap_or(0);
        assert!(recovered <= attempted, "{tenant}: recovered beyond attempted");
    }
    // The default plan (and every CI matrix leg at its rate) must
    // actually exercise a failure path — a silent all-clean run would
    // prove nothing.
    if fault::env_plan().is_none() {
        assert!(failures > 0, "default plan injected nothing");
    }
    let _ = std::fs::remove_file(&path);
}

/// Full serving cycle: a metered server journals every acknowledged
/// charge; after an abrupt stop (no clean re-pack of the bundle),
/// recovery over the original ledger state must restore spend equal to
/// every 2xx the clients saw.
#[test]
fn server_recovers_acked_charges_after_abrupt_stop() {
    let wal_path = tmp("server-recover");
    let b = metered_bundle(40);
    let original_state = b.ledger.clone().unwrap();
    let cfg = ServeConfig {
        workers: 2,
        durability: Some(DurabilityConfig {
            wal_path: wal_path.clone(),
            fsync: FsyncPolicy::Always,
            compact_every: 0, // journal only — the bundle file never moves
            bundle_path: None,
        }),
        ..ServeConfig::default()
    };
    let handle = start(b, cfg).unwrap();
    let port = handle.port();
    let mut acked: BTreeMap<String, u64> = BTreeMap::new();
    for i in 0..12 {
        let tenant = format!("tenant-{}", i % 3);
        if post_metered(port, &tenant) == 200 {
            *acked.entry(tenant).or_insert(0) += 1;
        }
    }
    assert_eq!(acked.values().sum::<u64>(), 12, "generous budget must admit all");
    let text = handle.metrics_text();
    assert_eq!(parse_counter(&text, "privim_wal_appends_total"), Some(12));
    assert_eq!(parse_counter(&text, "privim_wal_append_failures_total"), Some(0));
    // Abrupt stop: drop the server without folding the ledger back into
    // any bundle. The journal is the only record of the charges.
    let _ = handle.shutdown();
    let mut recovered = original_state;
    let report = wal::recover_from_path(&mut recovered, &wal_path).unwrap();
    assert!(report.wal_present);
    assert_eq!(report.records_applied, 12);
    for (tenant, &n) in &acked {
        assert_eq!(
            recovered.tenants.get(tenant).copied().unwrap_or(0),
            n,
            "{tenant}: recovered spend must equal acknowledged charges"
        );
    }
    // A restarted server on the recovered state keeps charging from
    // there, and journals into the same (truncation-repaired) file.
    let mut b2 = metered_bundle(40);
    b2.ledger = Some(recovered);
    let cfg2 = ServeConfig {
        workers: 2,
        durability: Some(DurabilityConfig {
            wal_path: wal_path.clone(),
            fsync: FsyncPolicy::Always,
            compact_every: 0,
            bundle_path: None,
        }),
        ..ServeConfig::default()
    };
    let handle2 = start(b2, cfg2).unwrap();
    assert_eq!(post_metered(handle2.port(), "tenant-0"), 200);
    let text2 = handle2.metrics_text();
    let acked0 = acked.get("tenant-0").copied().unwrap_or(0);
    assert_eq!(
        parse_counter(&text2, "privim_tenant_queries_total{tenant=\"tenant-0\"}"),
        Some(acked0 + 1),
        "post-restart spend must build on recovered spend"
    );
    let _ = handle2.shutdown();
    let _ = std::fs::remove_file(&wal_path);
}

/// Compaction folds the ledger into an atomically-replaced bundle
/// snapshot and truncates the journal; bundle + journal together always
/// reconstruct the full spend.
#[test]
fn compaction_snapshots_bundle_and_truncates_journal() {
    let wal_path = tmp("compact.wal");
    let bundle_path = tmp("compact-bundle.json");
    let b = metered_bundle(41);
    let cfg = ServeConfig {
        workers: 2,
        durability: Some(DurabilityConfig {
            wal_path: wal_path.clone(),
            fsync: FsyncPolicy::Always,
            compact_every: 3,
            bundle_path: Some(bundle_path.clone()),
        }),
        ..ServeConfig::default()
    };
    let handle = start(b, cfg).unwrap();
    let port = handle.port();
    for _ in 0..7 {
        assert_eq!(post_metered(port, "acme"), 200);
    }
    let text = handle.metrics_text();
    assert_eq!(parse_counter(&text, "privim_wal_compactions_total"), Some(2));
    assert_eq!(parse_counter(&text, "privim_wal_compaction_failures_total"), Some(0));
    let _ = handle.shutdown();
    // The snapshot is a loadable bundle carrying the compacted spend...
    let file = std::fs::File::open(&bundle_path).unwrap();
    let snapshot = bundle::load(std::io::BufReader::new(file)).unwrap();
    let mut state = snapshot.ledger.unwrap();
    let at_snapshot = state.tenants.get("acme").copied().unwrap();
    assert!(at_snapshot >= 6, "second compaction at append 6 must be in the snapshot");
    // ...and journal replay on top restores the post-snapshot tail.
    let report = wal::recover_from_path(&mut state, &wal_path).unwrap();
    assert!(report.wal_present);
    assert_eq!(state.tenants.get("acme"), Some(&7));
    let wal_len = std::fs::metadata(&wal_path).unwrap().len();
    assert!(
        wal_len < 3 * 40,
        "journal must have been truncated at compaction (len {wal_len})"
    );
    let _ = std::fs::remove_file(&wal_path);
    let _ = std::fs::remove_file(&bundle_path);
}

/// Every compaction snapshot is byte for byte a fresh pack of the same
/// model, privacy statement, graph and ledger state: the first compaction
/// (which serializes the snapshot head) and a later one (which reuses it).
#[test]
fn compaction_snapshots_are_byte_identical_to_a_fresh_pack() {
    let wal_path = tmp("snapshot-bytes.wal");
    let bundle_path = tmp("snapshot-bytes-bundle.json");
    let (artifact, g) = metered_parts(43);
    let cfg = ServeConfig {
        workers: 2,
        durability: Some(DurabilityConfig {
            wal_path: wal_path.clone(),
            fsync: FsyncPolicy::Always,
            compact_every: 3,
            bundle_path: Some(bundle_path.clone()),
        }),
        ..ServeConfig::default()
    };
    let handle = start(metered_bundle(43), cfg).unwrap();
    let port = handle.port();
    let mut expected = LedgerState::new(generous_config());
    for i in 1..=7u64 {
        let tenant = ["acme", "zephyr"][(i % 2) as usize];
        assert_eq!(post_metered(port, tenant), 200);
        *expected.tenants.entry(tenant.to_string()).or_insert(0) += 1;
        if i % 3 == 0 {
            // The charge that triggered compaction is acknowledged only
            // after the snapshot was written.
            let written = std::fs::read(&bundle_path).unwrap();
            let fresh = bundle::pack_with_ledger(&artifact, &g, Some(&expected));
            assert!(
                written == fresh.as_bytes(),
                "snapshot after admission {i} differs from a fresh pack"
            );
        }
    }
    let text = handle.metrics_text();
    assert_eq!(parse_counter(&text, "privim_wal_compactions_total"), Some(2));
    let _ = handle.shutdown();
    let _ = std::fs::remove_file(&wal_path);
    let _ = std::fs::remove_file(&bundle_path);
}

/// A snapshot that cannot be written (its directory does not exist) is
/// counted as a failed compaction, leaves the journal untruncated, and
/// bundle + journal recovery still equals every acknowledged charge.
#[test]
fn failed_compaction_keeps_the_journal_and_every_acknowledged_charge() {
    let wal_path = tmp("failed-compaction.wal");
    let bundle_path = tmp("no-such-dir").join("bundle.json");
    let b = metered_bundle(44);
    let original_state = b.ledger.clone().unwrap();
    let cfg = ServeConfig {
        workers: 2,
        durability: Some(DurabilityConfig {
            wal_path: wal_path.clone(),
            fsync: FsyncPolicy::Always,
            compact_every: 3,
            bundle_path: Some(bundle_path.clone()),
        }),
        ..ServeConfig::default()
    };
    let handle = start(b, cfg).unwrap();
    let port = handle.port();
    let mut acked: BTreeMap<String, u64> = BTreeMap::new();
    for i in 0..7 {
        let tenant = format!("tenant-{}", i % 2);
        if post_metered(port, &tenant) == 200 {
            *acked.entry(tenant).or_insert(0) += 1;
        }
    }
    assert_eq!(acked.values().sum::<u64>(), 7, "a failed snapshot must not refuse queries");
    let text = handle.metrics_text();
    assert_eq!(parse_counter(&text, "privim_wal_appends_total"), Some(7));
    assert_eq!(parse_counter(&text, "privim_wal_compactions_total"), Some(0));
    assert_eq!(parse_counter(&text, "privim_wal_compaction_failures_total"), Some(2));
    let _ = handle.shutdown();
    assert!(!bundle_path.exists());
    // The journal still holds all seven records on top of the bundle the
    // server loaded, which no snapshot replaced.
    let mut recovered = original_state;
    let report = wal::recover_from_path(&mut recovered, &wal_path).unwrap();
    assert_eq!(report.records_applied, 7, "the journal must not have been truncated");
    for (tenant, &n) in &acked {
        assert_eq!(
            recovered.tenants.get(tenant).copied().unwrap_or(0),
            n,
            "{tenant}: recovered spend must equal acknowledged charges"
        );
    }
    let _ = std::fs::remove_file(&wal_path);
}

/// An unmetered bundle ignores durability config (nothing to journal);
/// a metered bundle without durability behaves exactly like PR 6.
#[test]
fn durability_is_inert_where_it_has_no_ledger() {
    let wal_path = tmp("inert");
    let mut rng = ChaCha8Rng::seed_from_u64(50);
    let g = privim_graph::generators::barabasi_albert(40, 3, &mut rng).with_uniform_weights(1.0);
    let artifact = ServeArtifact {
        model: GnnModel::new(GnnConfig::paper_default(), &mut rng),
        epsilon: None,
        delta: 1e-4,
        sigma: 1.5,
        steps: 10,
    };
    let mut buf = Vec::new();
    bundle::save(&artifact, &g, &mut buf).unwrap();
    let b = bundle::load(buf.as_slice()).unwrap();
    let cfg = ServeConfig {
        workers: 1,
        durability: Some(DurabilityConfig {
            wal_path: wal_path.clone(),
            fsync: FsyncPolicy::Always,
            compact_every: 1,
            bundle_path: None,
        }),
        ..ServeConfig::default()
    };
    let handle = start(b, cfg).unwrap();
    assert_eq!(post_metered(handle.port(), "acme"), 200);
    let text = handle.metrics_text();
    assert_eq!(parse_counter(&text, "privim_wal_appends_total"), Some(0));
    let _ = handle.shutdown();
    assert!(!wal_path.exists(), "unmetered serving must not create a journal");
}

/// Sanity for the e2e ack model: a 200 response implies the journal
/// append already happened (the counter is never behind the acks).
#[test]
fn two_hundreds_imply_durable_appends() {
    let wal_path = tmp("ack-order");
    let b = metered_bundle(42);
    let cfg = ServeConfig {
        workers: 4,
        durability: Some(DurabilityConfig {
            wal_path: wal_path.clone(),
            fsync: FsyncPolicy::Always,
            compact_every: 0,
            bundle_path: None,
        }),
        ..ServeConfig::default()
    };
    let handle = start(b, cfg).unwrap();
    let port = handle.port();
    let mut oks = 0u64;
    for i in 0..9 {
        if post_metered(port, &format!("t{}", i % 2)) == 200 {
            oks += 1;
            // Scrape between requests: appends >= acks at every point.
            let appends =
                parse_counter(&handle.metrics_text(), "privim_wal_appends_total").unwrap();
            assert!(appends >= oks, "appends {appends} < acks {oks}");
        }
    }
    let _ = handle.shutdown();
    let (counts, _) = wal::replay(&std::fs::read(&wal_path).unwrap());
    let journaled: u64 = counts.values().sum();
    assert!(journaled >= oks, "journaled {journaled} < acked {oks}");
    let _ = std::fs::remove_file(&wal_path);
    let _ = Value::parse("{}"); // keep the json import exercised under all cfgs
}
