//! Crash-torture gate: hundreds of seeded crash schedules against the
//! segmented WAL, plus the recovery-time payoff of checkpoints.
//!
//! Part 1 — torture. Drive acked writes through a replicated group whose
//! master persists to a fault-injected in-memory disk, kill the "machine"
//! at every interesting byte/sync boundary (torn appends, failed fsyncs,
//! crash during rotation, crash between checkpoint publish and segment
//! retirement), restart, and assert the paper's durability contract (§III):
//! no fsync-acked write is ever lost, no unacked write is ever
//! half-applied, and replicas converge after catch-up + snapshot resync.
//! Every schedule is deterministic: a failure prints the exact `FaultPlan`.
//!
//! Part 2 — recovery time. Recover the same 100k-record log twice: once by
//! full-log replay, once from a checkpoint plus the post-checkpoint suffix.
//! Asserts the checkpointed path is at least 5x faster.
//!
//! Writes `BENCH_recovery.json`. `--smoke` shrinks the timing workload for
//! CI and writes the artefact under `target/bench-smoke/` instead; the
//! schedule count stays above 200 either way (schedules are cheap).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;

use ips_bench::banner;
use ips_kv::{FaultPlan, KvNode, KvNodeConfig, MemStorage, ReplicaReadMode, ReplicatedKv};
use ips_types::{RecoveryMode, WalConfig};

const KEYS: u64 = 16;

/// Tiny segments so modest workloads cross many rotations; fsync every
/// append so "acked" means durable.
fn torture_config() -> KvNodeConfig {
    KvNodeConfig {
        shards: 4,
        wal_path: None,
        wal: WalConfig {
            segment_bytes: 512,
            sync_every_append: true,
            recovery_mode: RecoveryMode::Strict,
        },
    }
}

fn key_of(i: u64) -> Bytes {
    Bytes::from(vec![(i % KEYS) as u8])
}

fn value_of(i: u64) -> Bytes {
    Bytes::from(i.to_le_bytes().to_vec())
}

/// Op `i` is a delete every 7th step, a set otherwise.
fn is_delete(i: u64) -> bool {
    i % 7 == 3
}

/// Reference state after the first `n` ops, minus observed transient
/// failures: key byte → op index whose value it holds.
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

/// Construction runs recovery and writes the first segment header, so with
/// a hostile plan it can legitimately die — that is a schedule too.
fn try_build(storage: &MemStorage) -> ips_types::Result<Torture> {
    let master = Arc::new(KvNode::with_wal_storage(
        "master",
        torture_config(),
        Arc::new(storage.clone()),
    )?);
    let replica = Arc::new(KvNode::new("replica", KvNodeConfig::default()).expect("replica"));
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

fn build(plan: FaultPlan) -> Torture {
    let storage = MemStorage::with_plan(plan);
    try_build(&storage).expect("fresh log recovers")
}

struct DriveOutcome {
    acked: u64,
    attempted: u64,
    failed: Vec<u64>,
}

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

/// Power-cycle, restart, and check the durability contract: the recovered
/// state equals the model after `acked` ops or after `attempted` ops —
/// nothing in between, nothing invented. Then converge the replica and
/// check it too. Returns the number of acked ops verified durable.
fn restart_and_check(t: &Torture, out: &DriveOutcome, label: &str) -> u64 {
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
    out.acked
}

/// One machine-death schedule end to end. Returns (crash fired, acked ops
/// verified durable).
fn run_death_schedule(plan: FaultPlan, total_ops: u64, label: &str) -> (bool, u64) {
    let storage = MemStorage::with_plan(plan);
    match try_build(&storage) {
        Ok(t) => {
            let out = drive(&t, total_ops, true);
            let crashed = t.storage.is_crashed();
            let acked = restart_and_check(&t, &out, label);
            (crashed, acked)
        }
        Err(_) => {
            assert!(storage.is_crashed(), "{label}: startup death without crash");
            storage.power_cycle();
            let t = try_build(&storage)
                .unwrap_or_else(|e| panic!("{label}: clean disk must recover: {e}"));
            assert!(
                observed_state(&t.master).is_empty(),
                "{label}: phantom data after startup death"
            );
            (true, 0)
        }
    }
}

#[derive(Default)]
struct SweepResult {
    schedules: u64,
    crashes_fired: u64,
    acked_verified: u64,
}

/// Kill the disk at every `stride`-th byte of the whole log, cycling the
/// torn-tail behaviour (fully lost, half kept, fully kept).
fn byte_sweep(ops: u64, points: u64) -> SweepResult {
    let total = {
        let t = build(FaultPlan::default());
        let out = drive(&t, ops, true);
        assert_eq!(out.acked, ops, "fault-free run acks everything");
        t.storage.bytes_appended()
    };
    let stride = (total / points).max(1);
    let mut r = SweepResult::default();
    let mut offset = 0u64;
    while offset < total {
        let torn = [0u16, 500, 1000][(r.schedules % 3) as usize];
        let plan = FaultPlan {
            crash_at_byte: Some(offset),
            torn_keep_permille: torn,
            ..FaultPlan::default()
        };
        let (fired, acked) =
            run_death_schedule(plan, ops, &format!("crash_at_byte={offset} torn={torn}"));
        assert!(fired, "byte schedule at {offset} must fire");
        r.schedules += 1;
        r.crashes_fired += 1;
        r.acked_verified += acked;
        offset += stride;
    }
    r
}

/// Kill the disk at the nth sync call — landing on append fsyncs, rotation
/// header syncs and directory syncs alike.
fn sync_sweep(ops: u64, max_nth: u64) -> SweepResult {
    let mut r = SweepResult::default();
    for nth in 1..=max_nth {
        let plan = FaultPlan {
            crash_at_sync: Some(nth),
            torn_keep_permille: ((nth % 2) * 1000) as u16,
            ..FaultPlan::default()
        };
        let (fired, acked) = run_death_schedule(plan, ops, &format!("crash_at_sync={nth}"));
        assert!(fired, "sync schedule {nth} must fire within the workload");
        r.schedules += 1;
        r.crashes_fired += 1;
        r.acked_verified += acked;
    }
    r
}

/// Transient fsync refusals: the disk stays up, exactly the refused ops go
/// unacked, and recovery reflects precisely that.
fn fsync_sweep(ops: u64, max_nth: u64) -> SweepResult {
    let mut r = SweepResult::default();
    for nth in 1..=max_nth {
        let t = build(FaultPlan::default());
        let warmup = drive(&t, 5, true);
        assert_eq!(warmup.acked, 5);
        t.storage.set_plan(FaultPlan {
            fail_fsync_at: Some(t.storage.data_sync_calls() + nth),
            ..FaultPlan::default()
        });
        // Replaying ops 0..ops from the top is harmless: op i is a pure
        // function of i, so repeats overwrite with identical data.
        let out = drive(&t, ops, false);
        assert!(
            !t.storage.is_crashed(),
            "fsync refusal must not kill the disk"
        );
        t.master.crash();
        t.storage.power_cycle();
        t.master.restart().expect("restart after transient fsync");
        let got = observed_state(&t.master);
        let want = model_state(ops, &out.failed);
        assert_eq!(
            got, want,
            "fsync schedule {nth}: exactly the refused ops are missing ({:?})",
            out.failed
        );
        assert!(
            out.failed.len() <= 2,
            "a transient fsync failure must not cascade: {:?}",
            out.failed
        );
        r.schedules += 1;
        r.acked_verified += out.acked;
    }
    r
}

/// Kill the machine at every sync a checkpoint performs (rotation, tmp
/// write, publish, retirement) and once just past the end.
fn checkpoint_sweep(ops: u64) -> SweepResult {
    let ckpt_syncs = {
        let t = build(FaultPlan::default());
        let out = drive(&t, ops, true);
        assert_eq!(out.acked, ops);
        let before = t.storage.sync_calls();
        t.master.checkpoint().expect("fault-free checkpoint");
        t.storage.sync_calls() - before
    };
    assert!(ckpt_syncs >= 3, "checkpoint must sync tmp, publish, retire");

    let mut r = SweepResult::default();
    for torn in [0u16, 1000] {
        for after in 1..=ckpt_syncs + 1 {
            let t = build(FaultPlan::default());
            let out = drive(&t, ops, true);
            assert_eq!(out.acked, ops);
            t.storage.set_plan(FaultPlan {
                crash_at_sync: Some(t.storage.sync_calls() + after),
                torn_keep_permille: torn,
                ..FaultPlan::default()
            });
            let result = t.master.checkpoint();
            if after <= ckpt_syncs {
                assert!(result.is_err(), "checkpoint sync {after} dies");
            } else {
                assert!(result.is_ok(), "crash lands after the checkpoint");
            }
            let acked = restart_and_check(
                &t,
                &out,
                &format!("checkpoint crash_after={after} torn={torn}"),
            );
            if after >= ckpt_syncs {
                // The last sync is segment retirement, which runs only
                // after the publish dir-sync completed: the checkpoint is
                // durable and recovery must actually use it.
                assert!(
                    t.master.recovery_stats().last_used_checkpoint,
                    "published checkpoint must drive recovery (after={after})"
                );
            }
            r.schedules += 1;
            r.crashes_fired += 1;
            r.acked_verified += acked;
        }
    }
    r
}

/// Roomy segments: the bulk-load shape whose recovery time the checkpoint
/// is supposed to cut. Appends still fsync, so every write is replayable.
fn replay_config() -> KvNodeConfig {
    KvNodeConfig {
        shards: 4,
        wal_path: None,
        wal: WalConfig {
            segment_bytes: 64 * 1024,
            sync_every_append: true,
            recovery_mode: RecoveryMode::Strict,
        },
    }
}

fn wide_key(i: u64) -> Bytes {
    // ~1k distinct keys: a realistic live-state size without collapsing the
    // whole log onto a handful of slots.
    Bytes::from(((i % 1024) as u16).to_le_bytes().to_vec())
}

struct ReplayArm {
    recovery_us: u64,
    records_replayed: u64,
    checkpoint_entries: u64,
    used_checkpoint: bool,
}

/// Write `n` records, optionally checkpoint and append a short suffix,
/// then crash and time the restart. Best of `trials`.
fn timed_recovery(n: u64, checkpointed: bool, suffix: u64, trials: u32) -> ReplayArm {
    let mut best: Option<ReplayArm> = None;
    for _ in 0..trials {
        let storage = Arc::new(MemStorage::new());
        let node = KvNode::with_wal_storage("replay", replay_config(), storage.clone())
            .expect("fresh node");
        for i in 0..n {
            node.set(wide_key(i), value_of(i)).expect("bulk write");
        }
        if checkpointed {
            let entries = node.checkpoint().expect("checkpoint");
            assert!(entries > 0);
            for i in 0..suffix {
                node.set(wide_key(n + i), value_of(n + i))
                    .expect("suffix write");
            }
        }
        let before = node.recovery_stats();
        node.crash();
        storage.power_cycle();
        let start = Instant::now();
        node.restart().expect("timed restart");
        let elapsed_us = start.elapsed().as_micros() as u64;
        let after = node.recovery_stats();
        let arm = ReplayArm {
            recovery_us: elapsed_us.max(1),
            records_replayed: after.records_replayed - before.records_replayed,
            checkpoint_entries: after.checkpoint_entries - before.checkpoint_entries,
            used_checkpoint: after.last_used_checkpoint,
        };
        if checkpointed {
            assert!(arm.used_checkpoint, "restart must load the checkpoint");
            assert_eq!(
                arm.records_replayed, suffix,
                "checkpointed recovery replays only the suffix"
            );
        } else {
            assert!(!arm.used_checkpoint);
            assert_eq!(arm.records_replayed, n, "full replay touches every record");
        }
        if best
            .as_ref()
            .is_none_or(|b| arm.recovery_us < b.recovery_us)
        {
            best = Some(arm);
        }
    }
    best.expect("at least one trial")
}

fn sweep_json(name: &str, r: &SweepResult) -> String {
    format!(
        "{{\"class\": \"{name}\", \"schedules\": {}, \"crashes_fired\": {}, \
         \"acked_ops_verified\": {}, \"acked_lost\": 0, \"phantom_applied\": 0}}",
        r.schedules, r.crashes_fired, r.acked_verified
    )
}

fn arm_json(r: &ReplayArm) -> String {
    format!(
        "{{\"recovery_us\": {}, \"records_replayed\": {}, \"checkpoint_entries\": {}, \
         \"used_checkpoint\": {}}}",
        r.recovery_us, r.records_replayed, r.checkpoint_entries, r.used_checkpoint
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "crash torture",
        "seeded crash schedules + checkpointed vs full-log recovery time",
    );

    println!("byte sweep: kill the disk across the whole log ...");
    let bytes = byte_sweep(60, 160);
    println!(
        "  {} schedules, {} crashes fired, {} acked ops verified durable",
        bytes.schedules, bytes.crashes_fired, bytes.acked_verified
    );
    println!("sync sweep: kill the disk at each fsync/dir-sync boundary ...");
    let syncs = sync_sweep(40, 40);
    println!(
        "  {} schedules, {} crashes fired, {} acked ops verified durable",
        syncs.schedules, syncs.crashes_fired, syncs.acked_verified
    );
    println!("fsync sweep: transient fsync refusals, disk stays up ...");
    let fsyncs = fsync_sweep(40, 16);
    println!(
        "  {} schedules, {} acked ops verified durable",
        fsyncs.schedules, fsyncs.acked_verified
    );
    println!("checkpoint sweep: kill at every checkpoint sync boundary ...");
    let ckpts = checkpoint_sweep(40);
    println!(
        "  {} schedules, {} crashes fired, {} acked ops verified durable",
        ckpts.schedules, ckpts.crashes_fired, ckpts.acked_verified
    );

    let total_schedules = bytes.schedules + syncs.schedules + fsyncs.schedules + ckpts.schedules;
    let total_acked =
        bytes.acked_verified + syncs.acked_verified + fsyncs.acked_verified + ckpts.acked_verified;
    println!();
    println!(
        "torture total: {total_schedules} schedules, {total_acked} acked ops, 0 lost, 0 phantom"
    );
    assert!(
        total_schedules >= 200,
        "the gate requires at least 200 schedules (got {total_schedules})"
    );

    println!();
    let n: u64 = if smoke { 10_000 } else { 100_000 };
    let suffix = 100u64;
    let trials = 3u32;
    println!("recovery time: full replay of a {n}-record log ...");
    let full = timed_recovery(n, false, suffix, trials);
    println!(
        "  full replay: {}us, {} records",
        full.recovery_us, full.records_replayed
    );
    println!("recovery time: checkpoint + {suffix}-record suffix ...");
    let ckpt = timed_recovery(n, true, suffix, trials);
    println!(
        "  checkpointed: {}us, {} checkpoint entries + {} records",
        ckpt.recovery_us, ckpt.checkpoint_entries, ckpt.records_replayed
    );
    let speedup = full.recovery_us as f64 / ckpt.recovery_us as f64;
    println!("recovery speedup (full/checkpointed): {speedup:.1}x");
    assert!(
        speedup >= 5.0,
        "checkpointed recovery must be at least 5x faster (got {speedup:.1}x)"
    );

    let mut json = String::from("{\n  \"bench\": \"crash_torture\",\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"total_schedules\": {total_schedules},");
    let _ = writeln!(json, "  \"acked_ops_verified\": {total_acked},");
    let _ = writeln!(json, "  \"acked_lost\": 0,");
    let _ = writeln!(json, "  \"phantom_applied\": 0,");
    let _ = writeln!(json, "  \"replica_divergence\": 0,");
    let _ = writeln!(json, "  \"classes\": [");
    let _ = writeln!(json, "    {},", sweep_json("crash_at_byte", &bytes));
    let _ = writeln!(json, "    {},", sweep_json("crash_at_sync", &syncs));
    let _ = writeln!(json, "    {},", sweep_json("transient_fsync", &fsyncs));
    let _ = writeln!(json, "    {}", sweep_json("checkpoint_boundary", &ckpts));
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"replay_records\": {n},");
    let _ = writeln!(json, "  \"full_replay\": {},", arm_json(&full));
    let _ = writeln!(json, "  \"checkpointed\": {},", arm_json(&ckpt));
    let _ = writeln!(json, "  \"recovery_speedup\": {speedup:.2}\n}}");
    ips_bench::write_artefact("BENCH_recovery.json", smoke, &json);
    println!("crash_torture: OK");
}
