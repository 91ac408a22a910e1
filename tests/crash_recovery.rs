//! Deterministic crash-torture harness: drive acked writes through a
//! replicated group whose master persists to a fault-injected WAL, kill the
//! "machine" at every interesting byte/sync boundary, restart, and assert
//! the paper's durability contract (§III: the KV store "provides data
//! durability in case of fatal failures"):
//!
//! * no fsync-acknowledged write is ever lost;
//! * no unacknowledged write is ever HALF-applied — it either vanishes or
//!   (when its bytes happened to land completely) applies in full, so the
//!   recovered store always equals the model after some clean prefix of the
//!   attempted ops;
//! * replicas converge after catch-up + snapshot resync, with stale queued
//!   ops rejected by the generation probe instead of clobbering newer data.
//!
//! Every schedule is seeded and replayable: a failure prints the exact
//! `FaultPlan` that produced it.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;

use ips::kv::{FaultPlan, KvNode, KvNodeConfig, MemStorage, ReplicaReadMode, ReplicatedKv};
use ips::types::{RecoveryMode, WalConfig};

const KEYS: u64 = 16;

/// Tiny segments so modest workloads cross many rotations; fsync every
/// append so "acked" means durable.
fn torture_config(recovery_mode: RecoveryMode) -> KvNodeConfig {
    KvNodeConfig {
        shards: 4,
        wal_path: None,
        wal: WalConfig {
            segment_bytes: 512,
            sync_every_append: true,
            recovery_mode,
        },
    }
}

fn key_of(i: u64) -> Bytes {
    Bytes::from(vec![(i % KEYS) as u8])
}

fn value_of(i: u64) -> Bytes {
    Bytes::from(i.to_le_bytes().to_vec())
}

/// Op `i` is a delete every 7th step, a set otherwise — enough churn to
/// catch replay reordering delete/set on the same key.
fn is_delete(i: u64) -> bool {
    i % 7 == 3
}

/// The reference state after the first `n` ops, minus any ops the harness
/// observed failing (transient fsync refusals): key byte → op index whose
/// value it holds.
fn model_state(n: u64, failed: &[u64]) -> BTreeMap<u8, u64> {
    let mut state = BTreeMap::new();
    for i in 0..n {
        if failed.contains(&i) {
            continue;
        }
        let k = (i % KEYS) as u8;
        if is_delete(i) {
            state.remove(&k);
        } else {
            state.insert(k, i);
        }
    }
    state
}

fn observed_state(node: &KvNode) -> BTreeMap<u8, u64> {
    let mut state = BTreeMap::new();
    for k in 0..KEYS as u8 {
        if let Some(v) = node.store().get(&[k]) {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(&v);
            state.insert(k, u64::from_le_bytes(raw));
        }
    }
    state
}

struct Torture {
    storage: MemStorage,
    master: Arc<KvNode>,
    group: ReplicatedKv,
}

/// Construction itself runs recovery and writes the first segment header, so
/// with a hostile plan it can legitimately die — that is a schedule too.
fn try_build(storage: &MemStorage, mode: RecoveryMode) -> ips::types::Result<Torture> {
    let master = Arc::new(KvNode::with_wal_storage(
        "master",
        torture_config(mode),
        Arc::new(storage.clone()),
    )?);
    let replica = Arc::new(KvNode::new("replica", KvNodeConfig::default()).unwrap());
    let group = ReplicatedKv::new(
        Arc::clone(&master),
        vec![replica],
        ReplicaReadMode::AllowStale,
    );
    Ok(Torture {
        storage: storage.clone(),
        master,
        group,
    })
}

fn build(plan: FaultPlan, mode: RecoveryMode) -> Torture {
    let storage = MemStorage::with_plan(plan);
    try_build(&storage, mode).expect("fresh log recovers")
}

struct DriveOutcome {
    /// Ops acknowledged (durable by contract).
    acked: u64,
    /// `acked` plus the op that died mid-write, if any.
    attempted: u64,
    /// Ops that failed transiently while the disk stayed up.
    failed: Vec<u64>,
}

/// Apply ops `0..total` through the replication group. `stop_on_err` models
/// a machine death (first error ends the run); otherwise errors are
/// recorded and the workload keeps going (transient fault).
fn drive(t: &Torture, total: u64, stop_on_err: bool) -> DriveOutcome {
    let mut acked = 0;
    let mut attempted = 0;
    let mut failed = Vec::new();
    for i in 0..total {
        attempted = i + 1;
        let result = if is_delete(i) {
            t.group.delete(&key_of(i)).map(|_| ())
        } else {
            t.group.set(key_of(i), value_of(i)).map(|_| ())
        };
        match result {
            Ok(()) => acked += 1,
            Err(_) if stop_on_err => break,
            Err(_) => failed.push(i),
        }
    }
    DriveOutcome {
        acked,
        attempted,
        failed,
    }
}

/// Power-cycle the disk, restart the master, and check the durability
/// contract: recovered state equals the model after `acked` ops (unsynced
/// tail torn away) or after `attempted` ops (the in-flight record's bytes
/// all landed) — nothing else, and in particular nothing in between.
fn restart_and_check(t: &Torture, out: &DriveOutcome, label: &str) {
    t.master.crash();
    t.storage.power_cycle();
    t.master
        .restart()
        .unwrap_or_else(|e| panic!("{label}: restart failed: {e}"));
    let got = observed_state(&t.master);
    let at_acked = model_state(out.acked, &out.failed);
    let at_attempted = model_state(out.attempted, &out.failed);
    assert!(
        got == at_acked || got == at_attempted,
        "{label}: recovered state is neither the acked prefix ({} ops) nor the \
         attempted prefix ({} ops)\n got: {got:?}\nacked: {at_acked:?}",
        out.acked,
        out.attempted,
    );

    // Replica convergence: drain the queue (stale ops lose their generation
    // probe), then snapshot-resync. Every key the master holds must match;
    // a replica-only key is legal only when the unacked suffix was a delete
    // the replica never saw.
    t.group.pump_all();
    t.group.resync_replica(0);
    let replica = &t.group.replicas()[0];
    let replica_state = observed_state(replica);
    for (k, i) in &got {
        assert_eq!(
            replica_state.get(k),
            Some(i),
            "{label}: replica diverges from master on key {k}"
        );
    }
    for k in replica_state.keys() {
        if !got.contains_key(k) {
            assert!(
                at_acked.contains_key(k) && !at_attempted.contains_key(k),
                "{label}: replica holds key {k} the master cannot explain"
            );
        }
    }
}

/// How many bytes the whole workload appends, learned from a fault-free run
/// so byte-offset schedules can target every boundary.
fn total_wal_bytes(total_ops: u64) -> u64 {
    let t = build(FaultPlan::default(), RecoveryMode::Strict);
    let out = drive(&t, total_ops, true);
    assert_eq!(out.acked, total_ops, "fault-free run acks everything");
    t.storage.bytes_appended()
}

/// Run one machine-death schedule end to end. Returns true when the crash
/// fired (during startup recovery or during the workload).
fn run_death_schedule(plan: FaultPlan, total_ops: u64, label: &str) -> bool {
    let storage = MemStorage::with_plan(plan);
    match try_build(&storage, RecoveryMode::Strict) {
        Ok(t) => {
            let out = drive(&t, total_ops, true);
            let crashed = t.storage.is_crashed();
            restart_and_check(&t, &out, label);
            crashed
        }
        Err(_) => {
            // Died during startup: nothing was ever acked, so a clean empty
            // recovery is the only acceptable outcome.
            assert!(storage.is_crashed(), "{label}: startup death without crash");
            storage.power_cycle();
            let t = try_build(&storage, RecoveryMode::Strict)
                .unwrap_or_else(|e| panic!("{label}: clean disk must recover: {e}"));
            assert!(
                observed_state(&t.master).is_empty(),
                "{label}: phantom data after startup death"
            );
            true
        }
    }
}

#[test]
fn crash_at_byte_boundaries_never_loses_acked_writes() {
    const OPS: u64 = 60;
    let total = total_wal_bytes(OPS);
    let stride = (total / 160).max(1);
    let mut schedules = 0u64;
    let mut crashed = 0u64;
    let mut offset = 0u64;
    while offset < total {
        // Cycle tail-tearing behaviour: fully lost, half kept, fully kept.
        let torn = [0u16, 500, 1000][(schedules % 3) as usize];
        let plan = FaultPlan {
            crash_at_byte: Some(offset),
            torn_keep_permille: torn,
            ..FaultPlan::default()
        };
        if run_death_schedule(plan, OPS, &format!("crash_at_byte={offset} torn={torn}")) {
            crashed += 1;
        }
        schedules += 1;
        offset += stride;
    }
    assert!(
        schedules >= 150,
        "byte sweep must cover the log densely, got {schedules}"
    );
    assert_eq!(crashed, schedules, "every schedule's crash must fire");
}

#[test]
fn crash_at_sync_boundaries_covers_rotation_and_dir_syncs() {
    const OPS: u64 = 40;
    for nth in 1..=24u64 {
        let plan = FaultPlan {
            crash_at_sync: Some(nth),
            torn_keep_permille: ((nth % 2) * 1000) as u16,
            ..FaultPlan::default()
        };
        let fired = run_death_schedule(plan, OPS, &format!("crash_at_sync={nth}"));
        assert!(fired, "sync schedule {nth} must fire within the workload");
    }
}

#[test]
fn transient_fsync_failures_unack_exactly_the_refused_ops() {
    const OPS: u64 = 40;
    for nth in 1..=8u64 {
        let t = build(FaultPlan::default(), RecoveryMode::Strict);
        // Arm mid-run so the target lands inside the workload regardless of
        // how many header syncs construction consumed.
        let warmup = drive(&t, 5, true);
        assert_eq!(warmup.acked, 5);
        t.storage.set_plan(FaultPlan {
            fail_fsync_at: Some(t.storage.data_sync_calls() + nth),
            ..FaultPlan::default()
        });
        // Replaying ops 0..OPS from the top is harmless: op i is a pure
        // function of i, so repeats overwrite with identical data and the
        // final state is still `model_state(OPS, failed)`.
        let out = drive(&t, OPS, false);
        // The disk never died; the log must still be serving.
        assert!(!t.storage.is_crashed());
        t.master.crash();
        t.storage.power_cycle();
        t.master.restart().unwrap();
        let got = observed_state(&t.master);
        let want = model_state(OPS, &out.failed);
        assert_eq!(
            got, want,
            "fsync schedule {nth}: exactly the refused ops are missing \
             (failed: {:?})",
            out.failed
        );
        assert!(
            out.failed.len() <= 2,
            "a transient fsync failure must not cascade: {:?}",
            out.failed
        );
    }
}

#[test]
fn crash_around_checkpoint_never_opens_a_durability_hole() {
    const OPS: u64 = 40;
    // Measure how many syncs a full checkpoint costs (rotation + tmp write
    // + publish + retire) on an identical fault-free run, so the sweep can
    // kill it at every one of them and then once just past the end.
    let ckpt_syncs = {
        let t = build(FaultPlan::default(), RecoveryMode::Strict);
        let out = drive(&t, OPS, true);
        assert_eq!(out.acked, OPS);
        let before = t.storage.sync_calls();
        t.master.checkpoint().unwrap();
        t.storage.sync_calls() - before
    };
    assert!(ckpt_syncs >= 3, "checkpoint must sync tmp, publish, retire");

    for after in 1..=ckpt_syncs + 1 {
        let t = build(FaultPlan::default(), RecoveryMode::Strict);
        let out = drive(&t, OPS, true);
        assert_eq!(out.acked, OPS);
        t.storage.set_plan(FaultPlan {
            crash_at_sync: Some(t.storage.sync_calls() + after),
            ..FaultPlan::default()
        });
        let result = t.master.checkpoint();
        if after <= ckpt_syncs {
            assert!(result.is_err(), "checkpoint sync {after} dies");
        } else {
            assert!(result.is_ok(), "crash lands after the checkpoint");
        }
        restart_and_check(&t, &out, &format!("checkpoint crash_after={after}"));
        if after >= ckpt_syncs {
            // The last sync is segment retirement, which runs only after the
            // publish dir-sync completed: the new checkpoint is durable and
            // recovery must actually use it.
            assert!(
                t.master.recovery_stats().last_used_checkpoint,
                "published checkpoint must drive recovery (after={after})"
            );
        }
    }
}

#[test]
fn checkpointed_recovery_replays_only_the_suffix() {
    const OPS: u64 = 120;
    let t = build(FaultPlan::default(), RecoveryMode::Strict);
    let first = drive(&t, OPS, true);
    assert_eq!(first.acked, OPS);
    let entries = t.master.checkpoint().unwrap();
    assert!(entries > 0);
    // A handful of post-checkpoint writes are all replay has to do.
    for i in 0..5u64 {
        t.group.set(key_of(OPS + i), value_of(OPS + i)).unwrap();
    }
    t.master.crash();
    t.storage.power_cycle();
    t.master.restart().unwrap();
    let stats = t.master.recovery_stats();
    assert!(stats.last_used_checkpoint);
    // Construction replayed 0 records (fresh log), so the cumulative count
    // is exactly what the restart replayed: the 5 post-checkpoint writes.
    assert_eq!(
        stats.records_replayed, 5,
        "recovery replays only the post-checkpoint suffix"
    );
    // State is intact: model of all 125 ops (the 5 extras use set only).
    let mut want = model_state(OPS, &[]);
    for i in 0..5u64 {
        want.insert(((OPS + i) % KEYS) as u8, OPS + i);
    }
    assert_eq!(observed_state(&t.master), want);
}
