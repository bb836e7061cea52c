//! Crash-durable write-ahead journal for the per-tenant budget ledger.
//!
//! PR 6's ledger meters tenant spend in memory and persists it only at
//! pack time — a kill-9 between pack and crash silently refunds every
//! charge taken while serving, breaking budget monotonicity (the one
//! invariant a DP system must never break). This module closes that
//! hole: every granted admission appends a charge record here *before*
//! the client sees a success response, and startup replays the journal
//! over the bundle's ledger section.
//!
//! ## Record format
//!
//! ```text
//! record  := len:u32le  crc:u32le  payload
//! payload := tenant_len:u16le  tenant:utf8[tenant_len]  queries_after:u64le
//! ```
//!
//! `len` is the payload length; `crc` is CRC-32 over the payload bytes.
//! `queries_after` is the tenant's *absolute post-charge* admitted-query
//! count, not a delta — replay is therefore idempotent (recovered count
//! = per-tenant max over records), re-applying a journal on top of a
//! snapshot that already folded it in is a no-op, and the ε spend is
//! recomputed bit-exactly from the count alone (Gaussian RDP is linear
//! in the release count; see [`crate::ledger`]).
//!
//! ## Recovery semantics (never undercharge)
//!
//! [`replay`] scans records sequentially and is deliberately asymmetric:
//!
//! * **Torn tail** — fewer than 8 bytes left, an implausible length
//!   field, or a payload cut short: the remainder is dropped and the
//!   scan stops. Safe: under `fsync = always` an acknowledged charge is
//!   durable *before* the 2xx goes out, so a torn final record was never
//!   acknowledged to any client.
//! * **Ambiguous record** — the CRC mismatches but the payload is
//!   structurally parseable: the charge is **kept**. Recovery may
//!   overcharge a tenant; it must never undercharge one.
//! * A record whose payload cannot be parsed at all ends the scan like a
//!   torn tail — framing can no longer be trusted past it.
//!
//! Replay is a pure function of the journal bytes: same bytes →
//! bit-identical ledger, at any thread count (`tests/determinism.rs`
//! pins this).
//!
//! ## Compaction
//!
//! The server periodically folds the live ledger into a fresh bundle
//! snapshot via [`privim_rt::fsio::atomic_write_durable`] (temp file +
//! fsync + rename + directory fsync) and only then truncates the
//! journal ([`WalWriter::reset`]). If the truncation is lost to a crash,
//! the stale journal's absolute counts are ≤ the snapshot's and replay
//! max() makes re-applying them a no-op.
//!
//! A snapshot is byte for byte a fresh pack of the served bundle with the
//! live ledger. The server's [`crate::bundle::BundleWriter`], built on
//! the first compaction, caches everything but the ledger section (the
//! serialized model, privacy statement and graph, and the CRC-32 register
//! over them), so each compaction serializes only the ledger.

use privim_rt::crc::crc32;
use privim_rt::fault::{self, FaultPlan};
use privim_rt::fsio;
use privim_rt::{PrivimError, PrivimResult};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::path::Path;

use crate::ledger::LedgerState;

/// Bytes of `len + crc` framing before each payload.
const HEADER_LEN: usize = 8;
/// Tenant ids longer than this are refused at admission time.
pub const MAX_TENANT_BYTES: usize = 1024;
/// Smallest well-formed payload: 1-byte tenant.
const MIN_PAYLOAD: usize = 2 + 1 + 8;
/// Largest well-formed payload; length fields above this end the scan.
const MAX_PAYLOAD: usize = 2 + MAX_TENANT_BYTES + 8;

/// When appended records are fsync'd.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every record — an acknowledged charge is always
    /// durable. The server default.
    Always,
    /// Sync after every `n`-th record: bounded loss of *unacknowledged*
    /// work... except the ledger acknowledges per record, so up to `n-1`
    /// acknowledged charges can be lost to a crash. Only for
    /// deployments that accept that trade for throughput.
    EveryN(u64),
    /// Never sync explicitly; durability rides on the OS writeback.
    Never,
}

impl FsyncPolicy {
    /// Parse the CLI vocabulary: `always`, `never`, `every=N` (N ≥ 1).
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            other => {
                let n: u64 = other.strip_prefix("every=")?.parse().ok()?;
                if n >= 1 {
                    Some(FsyncPolicy::EveryN(n))
                } else {
                    None
                }
            }
        }
    }
}

/// Encode one charge record onto `buf`. The only failure is an invalid
/// tenant id (empty, oversized, or interior NUL-free UTF-8 is fine —
/// length is the only constraint beyond non-emptiness).
pub fn append_record(buf: &mut Vec<u8>, tenant: &str, queries_after: u64) -> PrivimResult<()> {
    let t = tenant.as_bytes();
    if t.is_empty() {
        return Err(PrivimError::invalid("wal record tenant id must be non-empty"));
    }
    if t.len() > MAX_TENANT_BYTES {
        return Err(PrivimError::invalid(format!(
            "wal record tenant id exceeds {MAX_TENANT_BYTES} bytes"
        )));
    }
    let len = 2 + t.len() + 8;
    let start = buf.len();
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    buf.extend_from_slice(&[0u8; 4]); // crc backpatched below
    buf.extend_from_slice(&(t.len() as u16).to_le_bytes());
    buf.extend_from_slice(t);
    buf.extend_from_slice(&queries_after.to_le_bytes());
    let crc = crc32(&buf[start + HEADER_LEN..]);
    buf[start + 4..start + HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

fn decode_payload(payload: &[u8]) -> Option<(&str, u64)> {
    if payload.len() < MIN_PAYLOAD {
        return None;
    }
    let tenant_len = u16::from_le_bytes([payload[0], payload[1]]) as usize;
    if tenant_len == 0 || payload.len() != 2 + tenant_len + 8 {
        return None;
    }
    let tenant = std::str::from_utf8(&payload[2..2 + tenant_len]).ok()?;
    let mut q = [0u8; 8];
    q.copy_from_slice(&payload[2 + tenant_len..]);
    Some((tenant, u64::from_le_bytes(q)))
}

/// What [`replay`] saw while scanning a journal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records with a valid CRC that were applied.
    pub records_applied: u64,
    /// CRC-mismatched but parseable records, kept under the
    /// never-undercharge rule.
    pub ambiguous_kept: u64,
    /// Bytes dropped from the torn tail (0 for a clean journal).
    pub torn_tail_bytes: u64,
    /// Journal prefix length covered by kept records — the boundary a
    /// writer reopening this journal truncates back to.
    pub bytes_kept: u64,
}

/// Replay a journal: per-tenant max of `queries_after` over every kept
/// record, plus scan statistics. Pure function of the bytes; never
/// errors (a corrupt journal degrades to fewer applied records, in the
/// overcharge-safe direction only).
pub fn replay(bytes: &[u8]) -> (BTreeMap<String, u64>, ReplayStats) {
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut stats = ReplayStats::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < HEADER_LEN {
            break;
        }
        let mut len4 = [0u8; 4];
        len4.copy_from_slice(&bytes[pos..pos + 4]);
        let len = u32::from_le_bytes(len4) as usize;
        if !(MIN_PAYLOAD..=MAX_PAYLOAD).contains(&len) || remaining < HEADER_LEN + len {
            break;
        }
        let mut crc4 = [0u8; 4];
        crc4.copy_from_slice(&bytes[pos + 4..pos + HEADER_LEN]);
        let stored_crc = u32::from_le_bytes(crc4);
        let payload = &bytes[pos + HEADER_LEN..pos + HEADER_LEN + len];
        let Some((tenant, queries_after)) = decode_payload(payload) else {
            break;
        };
        if crc32(payload) == stored_crc {
            stats.records_applied += 1;
        } else {
            stats.ambiguous_kept += 1;
        }
        let entry = counts.entry(tenant.to_string()).or_insert(0);
        *entry = (*entry).max(queries_after);
        pos += HEADER_LEN + len;
        stats.bytes_kept = pos as u64;
    }
    stats.torn_tail_bytes = (bytes.len() - pos) as u64;
    (counts, stats)
}

/// What startup recovery did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a journal file existed at all.
    pub wal_present: bool,
    /// See [`ReplayStats::records_applied`].
    pub records_applied: u64,
    /// See [`ReplayStats::ambiguous_kept`].
    pub ambiguous_kept: u64,
    /// See [`ReplayStats::torn_tail_bytes`].
    pub torn_tail_bytes: u64,
    /// Tenants whose counts the journal raised above the snapshot.
    pub tenants_raised: u64,
}

/// Merge replayed journal counts into a ledger snapshot: each tenant's
/// count becomes `max(snapshot, journal)` — recovery can only raise
/// spend, never lower it.
pub fn recover_state(state: &mut LedgerState, wal_bytes: &[u8]) -> RecoveryReport {
    let (counts, stats) = replay(wal_bytes);
    let mut tenants_raised = 0u64;
    for (tenant, q) in counts {
        let current = state.tenants.get(&tenant).copied().unwrap_or(0);
        if q > current {
            state.tenants.insert(tenant, q);
            tenants_raised += 1;
        }
    }
    RecoveryReport {
        wal_present: true,
        records_applied: stats.records_applied,
        ambiguous_kept: stats.ambiguous_kept,
        torn_tail_bytes: stats.torn_tail_bytes,
        tenants_raised,
    }
}

/// [`recover_state`] from a journal file. A missing file is a clean
/// first boot, not an error.
pub fn recover_from_path(state: &mut LedgerState, path: &Path) -> PrivimResult<RecoveryReport> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(RecoveryReport::default())
        }
        Err(e) => {
            return Err(PrivimError::io(
                format!("reading wal {}", path.display()),
                e,
            ))
        }
    };
    Ok(recover_state(state, &bytes))
}

/// The append handle a serving process holds on its journal.
///
/// Opening scans any existing journal and truncates back to the last
/// kept-record boundary, so a torn tail left by a crash can never
/// desynchronize framing for subsequent appends. A failed append
/// likewise truncates back to the last good boundary; if even that
/// repair fails the writer poisons itself and refuses all further
/// appends — serving would otherwise continue against a journal whose
/// on-disk framing is unknown.
pub struct WalWriter {
    file: File,
    fsync: FsyncPolicy,
    plan: Option<FaultPlan>,
    /// Successful appends over this writer's lifetime (drives the
    /// `EveryN` fsync cadence and compaction triggers).
    appended: u64,
    /// Append *attempts* — the logical index fault plans key on, so a
    /// retried append after an injected failure is a fresh decision.
    attempts: u64,
    /// File length covered by intact records.
    good_len: u64,
    poisoned: bool,
}

impl WalWriter {
    /// Open (or create) the journal at `path`, honoring the process-wide
    /// `PRIVIM_FAULT` plan for I/O fault injection.
    pub fn open(path: &Path, fsync: FsyncPolicy) -> PrivimResult<WalWriter> {
        WalWriter::open_with_plan(path, fsync, fault::env_plan())
    }

    /// [`WalWriter::open`] with an explicit fault plan (tests).
    pub fn open_with_plan(
        path: &Path,
        fsync: FsyncPolicy,
        plan: Option<FaultPlan>,
    ) -> PrivimResult<WalWriter> {
        if let FsyncPolicy::EveryN(0) = fsync {
            return Err(PrivimError::invalid("fsync every=N requires N >= 1"));
        }
        let ctx = || format!("opening wal {}", path.display());
        let existing = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(PrivimError::io(ctx(), e)),
        };
        let (_, stats) = replay(&existing);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| PrivimError::io(ctx(), e))?;
        if stats.bytes_kept < existing.len() as u64 {
            // Drop the torn tail so the next append starts on a record
            // boundary. (O_APPEND writes land at the new EOF.)
            file.set_len(stats.bytes_kept)
                .map_err(|e| PrivimError::io(ctx(), e))?;
        }
        Ok(WalWriter {
            file,
            fsync,
            plan,
            appended: 0,
            attempts: 0,
            good_len: stats.bytes_kept,
            poisoned: false,
        })
    }

    /// Append one charge record per the fsync policy. On success the
    /// record is frame-complete (and, under [`FsyncPolicy::Always`],
    /// durable) — only then may the caller acknowledge the charge to a
    /// client.
    pub fn append(&mut self, tenant: &str, queries_after: u64) -> PrivimResult<()> {
        if self.poisoned {
            return Err(PrivimError::invalid(
                "wal writer poisoned by an earlier unrepaired I/O failure",
            ));
        }
        let mut record = Vec::with_capacity(HEADER_LEN + 2 + tenant.len() + 8);
        append_record(&mut record, tenant, queries_after)?;
        let index = self.attempts;
        self.attempts += 1;
        if let Err(e) = fsio::write_all_faulty(
            &mut self.file,
            &record,
            "appending wal record",
            self.plan.as_ref(),
            index,
        ) {
            self.truncate_to_good();
            return Err(e);
        }
        let sync_due = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => (self.appended + 1) % n == 0,
            FsyncPolicy::Never => false,
        };
        if sync_due {
            if let Err(e) =
                fsio::fsync_faulty(&self.file, "syncing wal", self.plan.as_ref(), index)
            {
                // The record is frame-complete in the OS cache: keeping
                // it can only overcharge after a crash (allowed), but
                // the file's durable state is unknowable after a failed
                // fsync, so no further appends.
                self.good_len += record.len() as u64;
                self.appended += 1;
                self.poisoned = true;
                return Err(e);
            }
        }
        self.good_len += record.len() as u64;
        self.appended += 1;
        if let Err(e) = fsio::crash_point(self.plan.as_ref(), index) {
            // Simulated death after a durable write: the record stays;
            // this writer acts dead.
            self.poisoned = true;
            return Err(e);
        }
        Ok(())
    }

    fn truncate_to_good(&mut self) {
        if self.file.set_len(self.good_len).is_err() {
            self.poisoned = true;
        }
    }

    /// Force an fsync regardless of policy (drain path).
    pub fn sync(&mut self) -> PrivimResult<()> {
        self.file
            .sync_data()
            .map_err(|e| PrivimError::io("syncing wal", e))
    }

    /// Truncate the journal after a durable snapshot folded it in.
    pub fn reset(&mut self) -> PrivimResult<()> {
        if self.poisoned {
            return Err(PrivimError::invalid(
                "wal writer poisoned by an earlier unrepaired I/O failure",
            ));
        }
        self.file
            .set_len(0)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| PrivimError::io("truncating wal after snapshot", e))?;
        self.good_len = 0;
        Ok(())
    }

    /// Records appended by this writer (the fault-plan logical index).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Whether the writer refuses further appends.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::LedgerConfig;
    use privim_rt::fault::FaultPoint;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("privim-wal-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn journal(records: &[(&str, u64)]) -> Vec<u8> {
        let mut buf = Vec::new();
        for &(t, q) in records {
            append_record(&mut buf, t, q).unwrap();
        }
        buf
    }

    #[test]
    fn replay_applies_max_per_tenant() {
        let buf = journal(&[("a", 1), ("b", 1), ("a", 2), ("a", 3), ("b", 2)]);
        let (counts, stats) = replay(&buf);
        assert_eq!(counts.get("a"), Some(&3));
        assert_eq!(counts.get("b"), Some(&2));
        assert_eq!(stats.records_applied, 5);
        assert_eq!(stats.ambiguous_kept, 0);
        assert_eq!(stats.torn_tail_bytes, 0);
        assert_eq!(stats.bytes_kept, buf.len() as u64);
    }

    #[test]
    fn torn_tail_is_dropped_at_every_cut() {
        let buf = journal(&[("a", 1), ("a", 2)]);
        let one = journal(&[("a", 1)]);
        for cut in 0..buf.len() {
            let (counts, stats) = replay(&buf[..cut]);
            if cut < one.len() {
                assert!(counts.is_empty(), "cut={cut}");
            } else {
                assert_eq!(counts.get("a"), Some(&1), "cut={cut}");
                assert_eq!(stats.bytes_kept, one.len() as u64);
            }
            assert_eq!(stats.torn_tail_bytes as usize, cut - stats.bytes_kept as usize);
        }
    }

    #[test]
    fn crc_mismatch_with_intact_payload_is_kept() {
        let mut buf = journal(&[("a", 4), ("b", 7)]);
        // Flip a bit in the first record's stored CRC: payload intact,
        // checksum wrong — the ambiguous-keep path.
        buf[4] ^= 0xFF;
        let (counts, stats) = replay(&buf);
        assert_eq!(counts.get("a"), Some(&4), "ambiguous charge must be kept");
        assert_eq!(counts.get("b"), Some(&7), "scan must continue past it");
        assert_eq!(stats.ambiguous_kept, 1);
        assert_eq!(stats.records_applied, 1);
    }

    #[test]
    fn unparseable_payload_ends_the_scan() {
        let mut buf = journal(&[("a", 1)]);
        // Zero the tenant-length field: the payload no longer parses, so
        // framing past it cannot be trusted.
        buf[HEADER_LEN] = 0;
        buf[HEADER_LEN + 1] = 0;
        let tail = journal(&[("b", 9)]);
        let torn = buf.len() + tail.len();
        buf.extend_from_slice(&tail);
        let (counts, stats) = replay(&buf);
        assert!(counts.is_empty());
        assert_eq!(stats.torn_tail_bytes as usize, torn);
    }

    #[test]
    fn recover_state_only_raises_counts() {
        let config = LedgerConfig {
            epsilon_budget: 4.0,
            delta: 1e-5,
            query_sigma: 8.0,
            retry_after_secs: 60,
        };
        let mut state = LedgerState::new(config);
        state.tenants.insert("a".into(), 5);
        state.tenants.insert("c".into(), 2);
        let buf = journal(&[("a", 3), ("b", 2), ("c", 6)]);
        let report = recover_state(&mut state, &buf);
        assert_eq!(state.tenants.get("a"), Some(&5), "stale journal count must not lower spend");
        assert_eq!(state.tenants.get("b"), Some(&2));
        assert_eq!(state.tenants.get("c"), Some(&6));
        assert_eq!(report.tenants_raised, 2);
        assert_eq!(report.records_applied, 3);
    }

    #[test]
    fn writer_round_trips_through_file() {
        let path = tmp("round-trip");
        let mut w = WalWriter::open_with_plan(&path, FsyncPolicy::Always, None).unwrap();
        w.append("acme", 1).unwrap();
        w.append("acme", 2).unwrap();
        w.append("zebra", 1).unwrap();
        assert_eq!(w.appended(), 3);
        drop(w);
        let (counts, stats) = replay(&std::fs::read(&path).unwrap());
        assert_eq!(counts.get("acme"), Some(&2));
        assert_eq!(counts.get("zebra"), Some(&1));
        assert_eq!(stats.records_applied, 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopening_truncates_a_torn_tail() {
        let path = tmp("reopen");
        let mut w = WalWriter::open_with_plan(&path, FsyncPolicy::Always, None).unwrap();
        w.append("a", 1).unwrap();
        drop(w);
        // Simulate a crash mid-append: raw torn bytes at the tail.
        use std::io::Write;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[42u8, 0, 0]).unwrap();
        drop(f);
        let mut w = WalWriter::open_with_plan(&path, FsyncPolicy::Always, None).unwrap();
        w.append("a", 2).unwrap();
        drop(w);
        let (counts, stats) = replay(&std::fs::read(&path).unwrap());
        assert_eq!(counts.get("a"), Some(&2));
        assert_eq!(stats.records_applied, 2);
        assert_eq!(stats.torn_tail_bytes, 0, "tail must have been repaired");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_append_repairs_framing_for_the_next_one() {
        let path = tmp("repair");
        let plan = FaultPlan::at_step(7, FaultPoint::IoTornWrite, 1);
        let mut w = WalWriter::open_with_plan(&path, FsyncPolicy::Always, Some(plan)).unwrap();
        w.append("a", 1).unwrap();
        assert!(w.append("a", 2).is_err(), "injected torn write must error");
        assert!(!w.poisoned());
        w.append("a", 3).unwrap();
        drop(w);
        let (counts, stats) = replay(&std::fs::read(&path).unwrap());
        // Index 1's record was truncated away; 0 and 2 survive intact.
        assert_eq!(counts.get("a"), Some(&3));
        assert_eq!(stats.records_applied, 2);
        assert_eq!(stats.torn_tail_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fsync_policy_parse_vocabulary() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("every=8"), Some(FsyncPolicy::EveryN(8)));
        assert_eq!(FsyncPolicy::parse("every=0"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(FsyncPolicy::parse(""), None);
    }

    #[test]
    fn oversized_and_empty_tenants_are_refused_at_encode() {
        let mut buf = Vec::new();
        assert!(append_record(&mut buf, "", 1).is_err());
        let long = "t".repeat(MAX_TENANT_BYTES + 1);
        assert!(append_record(&mut buf, &long, 1).is_err());
        let edge = "t".repeat(MAX_TENANT_BYTES);
        append_record(&mut buf, &edge, 1).unwrap();
        let (counts, _) = replay(&buf);
        assert_eq!(counts.get(edge.as_str()), Some(&1));
    }
}
