//! Execution-layer integration tests: deterministic state machine
//! replication on top of dynamic global ordering.
//!
//! The core claim: at every stable checkpoint, all honest replicas'
//! execution state roots are identical — under healthy runs, under
//! stragglers, and across a crash + restart that recovers from the
//! durable snapshot + WAL pair. With the sharded execution lanes the
//! claim is strengthened to a **fault-scenario matrix**: every fault
//! scenario runs at ≥ 2 execution-lane counts, and because lane workers
//! never affect observable state, the runs must produce *identical*
//! final roots.

mod common;

use common::{cluster, ClusterOpts, TestCluster};
use ladon::core::{Behavior, MultiBftNode, NodeConfig, SyncRequest};
use ladon::state::{
    CommitWal, ExecutionPipeline, FaultBackend, FileBackend, WalOptions, WalRecord,
    DEFAULT_KEYSPACE,
};
use ladon::types::{Digest, ProtocolKind, Round};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// The lane counts every fault scenario in the matrix runs at (4 is the
/// config default; 1 is the degenerate sequential case the sharded roots
/// must match bit-for-bit).
const LANE_MATRIX: [u32; 2] = [1, 4];

/// Collects `(epoch → roots reported across replicas)` from a cluster.
fn roots_by_epoch(c: &TestCluster, replicas: &[usize]) -> BTreeMap<u64, Vec<Digest>> {
    let mut out: BTreeMap<u64, Vec<Digest>> = BTreeMap::new();
    for &r in replicas {
        for &(_, epoch, root) in &c.node(r).metrics.state_roots {
            out.entry(epoch).or_default().push(root);
        }
    }
    out
}

/// Asserts every epoch reported by at least two of `replicas` has one
/// unanimous root, and returns how many such epochs there were.
fn assert_root_agreement(c: &TestCluster, replicas: &[usize]) -> usize {
    let by_epoch = roots_by_epoch(c, replicas);
    let mut checked = 0;
    for (epoch, roots) in &by_epoch {
        if roots.len() < 2 {
            continue;
        }
        checked += 1;
        assert!(
            roots.windows(2).all(|w| w[0] == w[1]),
            "state roots diverge at epoch {epoch}: {roots:?}"
        );
    }
    checked
}

/// Asserts one fault scenario's per-lane-count final roots are identical:
/// execution lanes are a parallelism knob, never a semantic one, even
/// under faults.
fn assert_lane_invariant(scenario: &str, roots: &[(u32, Digest)]) {
    assert!(
        roots.windows(2).all(|w| w[0].1 == w[1].1),
        "{scenario}: final roots differ across lane counts: {roots:?}"
    );
}

#[test]
fn honest_replicas_agree_on_state_roots_at_every_checkpoint() {
    let mut c = cluster(ClusterOpts {
        protocol: ProtocolKind::LadonPbft,
        n: 4,
        epoch_length: Some(16),
        submit_until_s: 10.0,
        ..Default::default()
    });
    c.run_secs(15.0);

    // Real execution happened everywhere.
    for r in 0..4 {
        let node = c.node(r);
        assert!(
            node.metrics.executed_txs > 0,
            "replica {r} executed nothing"
        );
        assert_eq!(
            node.metrics.root_conflicts, 0,
            "replica {r} saw a conflicting checkpoint quorum"
        );
    }
    // Multiple epochs checkpointed, with unanimous roots at each.
    let checked = assert_root_agreement(&c, &[0, 1, 2, 3]);
    assert!(
        checked >= 2,
        "need ≥ 2 comparable checkpoints, got {checked}"
    );
    // Silent durability failures must be loud: every replica's WAL
    // (appends, segment rolls, compaction rotations) wrote cleanly — and
    // the group-commit I/O counters surface real work: fsync barriers
    // were issued (durability is not a no-op) and bytes landed.
    // (`fig_wal_group_commit` gates the amortization itself with exact
    // counts.)
    for r in 0..4 {
        let m = &c.node(r).metrics;
        assert_eq!(
            m.wal_write_failures, 0,
            "replica {r} reported failed durable WAL writes"
        );
        assert!(
            m.wal_io.fsyncs > 0,
            "replica {r} reported no fsync barriers"
        );
        assert!(
            m.wal_io.bytes_written > 0,
            "replica {r} reported no WAL bytes written"
        );
    }
    // Checkpoints carry snapshots: the WAL is compacted behind them, the
    // manifest records the full lane-root vector, and the lane ledger
    // accounts every executed op to a lane.
    let node = c.node(0);
    let snap = node.exec.latest_snapshot().expect("checkpointed");
    assert_eq!(
        snap.lane_roots.len(),
        ladon::state::MERKLE_LANES as usize,
        "snapshot must carry the complete lane-root vector"
    );
    assert_eq!(
        node.exec.lane_ops().iter().sum::<u64>(),
        node.metrics.executed_txs,
        "lane ledger must account every executed op"
    );
    c.assert_agreement(&[0, 1, 2, 3]);
}

/// Under LadonHotStuff, snapshots are state-only: the commit height at
/// epoch completion depends on local dummy-commit timing, so the frontier
/// is excluded from the quorum-signed manifest (empty) rather than signed
/// nondeterministically. Checkpoint quorums must still form — epochs
/// advance, roots agree, no conflicts — and the captured snapshots must
/// carry no consensus frontier.
#[test]
fn hotstuff_replicas_agree_on_state_roots_with_state_only_snapshots() {
    let mut c = cluster(ClusterOpts {
        protocol: ProtocolKind::LadonHotStuff,
        n: 4,
        epoch_length: Some(16),
        submit_until_s: 10.0,
        ..Default::default()
    });
    c.run_secs(15.0);

    for r in 0..4 {
        let node = c.node(r);
        assert!(
            node.metrics.executed_txs > 0,
            "replica {r} executed nothing"
        );
        assert_eq!(
            node.metrics.root_conflicts, 0,
            "replica {r} saw a conflicting checkpoint quorum — the signed \
             manifest must not include timing-dependent HotStuff heights"
        );
        assert_eq!(node.metrics.exec_gaps, 0, "replica {r} hit an exec gap");
        if let Some(snap) = node.exec.latest_snapshot() {
            assert!(
                snap.frontier.is_empty(),
                "HotStuff snapshots must be state-only (empty frontier)"
            );
        }
    }
    let checked = assert_root_agreement(&c, &[0, 1, 2, 3]);
    assert!(
        checked >= 1,
        "HotStuff epochs must still checkpoint, got {checked}"
    );
    assert!(
        c.node(0).metrics.epochs.len() > 1,
        "the run must cross an epoch boundary to be meaningful"
    );
}

// ---------------------------------------------------------------------
// Fault-scenario matrix: every scenario below runs at each lane count in
// LANE_MATRIX and returns a final root for the cross-lane-count
// invariance check (the simulation is deterministic per seed, and lane
// workers must not perturb any observable state).
// ---------------------------------------------------------------------

/// Straggler catch-up: one replica proposes at 1/10 rate with empty
/// batches; epochs must still checkpoint with unanimous roots.
fn straggler_catch_up_at(lanes: u32) -> Digest {
    let mut c = cluster(ClusterOpts {
        protocol: ProtocolKind::LadonPbft,
        n: 4,
        stragglers: vec![1],
        straggler_k: 10.0,
        epoch_length: Some(16),
        submit_until_s: 25.0,
        exec_lanes: Some(lanes),
        ..Default::default()
    });
    c.run_secs(30.0);

    let checked = assert_root_agreement(&c, &[0, 1, 2, 3]);
    assert!(
        checked >= 1,
        "lanes={lanes}: a straggler must not stop epochs from checkpointing"
    );
    // The straggler executes the same log as everyone else.
    assert!(c.node(1).metrics.executed_txs > 0);
    assert_eq!(c.node(0).exec.exec_lanes(), lanes);
    // A straggler is slow to *propose*, not to apply: it never lags the
    // snapshot-serving threshold, so no replica ships snapshot chunks —
    // the minimum-gap policy holds at the serve counters.
    for r in 0..4 {
        let m = &c.node(r).metrics;
        assert_eq!(
            (
                m.snapshots_served,
                m.snapshot_chunks_served,
                m.snapshot_bytes_served
            ),
            (0, 0, 0),
            "lanes={lanes}: replica {r} served snapshot chunks in a \
             cluster where nobody's applied frontier lagged"
        );
    }
    c.assert_agreement(&[0, 1, 2, 3]);
    c.node(0).exec.state_root()
}

#[test]
fn straggler_cluster_still_agrees_on_state_roots_across_lane_counts() {
    let roots: Vec<(u32, Digest)> = LANE_MATRIX
        .iter()
        .map(|&l| (l, straggler_catch_up_at(l)))
        .collect();
    assert_lane_invariant("straggler catch-up", &roots);
}

/// Crash mid-epoch + restart: replica 3 crashes at 6 s; a new process
/// recovers its execution state from the durable snapshot + WAL pair
/// (byte-identical root, lane-root vector included), rejoins via state
/// transfer, and ends the run agreeing with the cluster.
fn crash_restart_mid_epoch_at(lanes: u32) -> Digest {
    let mut c = cluster(ClusterOpts {
        protocol: ProtocolKind::LadonPbft,
        n: 4,
        epoch_length: Some(16),
        crash: Some((3, 6.0)),
        submit_until_s: 30.0,
        exec_lanes: Some(lanes),
        ..Default::default()
    });
    c.run_secs(10.0);

    // "Disk" contents at the moment of the crash: the snapshot from the
    // last completed epoch plus the WAL tail past it.
    let crashed = c.node(3);
    let pre_crash_root = crashed.exec.state_root();
    let pre_crash_lane_roots = crashed.exec.lane_roots();
    let pre_crash_applied = crashed.exec.applied();
    assert!(
        pre_crash_applied > 0,
        "lanes={lanes}: the replica must have executed before crashing"
    );
    let (snap_bytes, wal_bytes) = crashed.exec.export_parts();

    // Recovery: snapshot install + WAL replay reproduces the exact state,
    // at *every* lane count (recover with the other lane count too).
    for recover_lanes in LANE_MATRIX {
        let recovered = ExecutionPipeline::from_parts_with(
            snap_bytes.as_deref(),
            &wal_bytes,
            c.sys.exec_keyspace,
            recover_lanes,
        );
        assert_eq!(recovered.applied(), pre_crash_applied);
        assert_eq!(
            recovered.state_root(),
            pre_crash_root,
            "lanes={lanes}→{recover_lanes}: snapshot + WAL replay must \
             reproduce the pre-crash root"
        );
        assert_eq!(
            recovered.lane_roots(),
            pre_crash_lane_roots,
            "lanes={lanes}→{recover_lanes}: recovered lane-root vector \
             must be byte-identical"
        );
    }

    // Restart the process: same replica id, recovered pipeline, no crash.
    let recovered = ExecutionPipeline::from_parts_with(
        snap_bytes.as_deref(),
        &wal_bytes,
        c.sys.exec_keyspace,
        lanes,
    );
    let node = MultiBftNode::with_execution(
        NodeConfig {
            sys: c.sys.clone(),
            protocol: c.protocol,
            me: ladon::types::ReplicaId(3),
            registry: c.registry.clone(),
            behavior: Behavior::default(),
            sample_interval: None,
        },
        recovered,
    );
    c.engine.restart_actor(3, Box::new(node));
    c.run_secs(55.0);

    // The restarted replica detected its lag and resynced.
    let r3 = c.node(3);
    assert!(
        r3.metrics.sync_requests > 0,
        "lanes={lanes}: restarted replica never asked for sync"
    );
    assert!(
        r3.metrics.sync_installed > 0 || r3.metrics.snapshot_installs > 0,
        "lanes={lanes}: nothing was installed from peers"
    );
    // Execution moved past the recovered frontier.
    assert!(
        r3.exec.applied() > pre_crash_applied,
        "lanes={lanes}: execution stalled at the recovered frontier ({pre_crash_applied})"
    );
    // It rejoined the epoch schedule and agrees on every comparable root.
    assert_eq!(
        r3.epoch(),
        c.node(0).epoch(),
        "lanes={lanes}: restarted replica must reach the cluster's epoch"
    );
    assert_root_agreement(&c, &[0, 1, 2, 3]);
    c.assert_agreement(&[0, 1, 2]);
    c.node(0).exec.state_root()
}

#[test]
fn restarted_replica_recovers_via_snapshot_and_wal_replay_across_lane_counts() {
    let roots: Vec<(u32, Digest)> = LANE_MATRIX
        .iter()
        .map(|&l| (l, crash_restart_mid_epoch_at(l)))
        .collect();
    assert_lane_invariant("crash-restart mid-epoch", &roots);
}

/// Worst-case restart: the replica lost its disk too (fresh execution
/// pipeline, applied = 0). Peers serve their latest snapshot with its
/// quorum-signed stable checkpoint; the replica installs it, fast-forwards
/// its state machine and consensus intake past the snapshotted history,
/// and rejoins without re-executing from genesis.
fn disk_loss_at(lanes: u32) -> Digest {
    let mut c = cluster(ClusterOpts {
        protocol: ProtocolKind::LadonPbft,
        n: 4,
        epoch_length: Some(16),
        crash: Some((3, 6.0)),
        submit_until_s: 30.0,
        exec_lanes: Some(lanes),
        ..Default::default()
    });
    c.run_secs(12.0);
    let healthy_applied = c.node(0).exec.applied();
    assert!(healthy_applied > 0);

    // Fresh node, empty pipeline: nothing survived the crash.
    let node = MultiBftNode::new(NodeConfig {
        sys: c.sys.clone(),
        protocol: c.protocol,
        me: ladon::types::ReplicaId(3),
        registry: c.registry.clone(),
        behavior: Behavior::default(),
        sample_interval: None,
    });
    c.engine.restart_actor(3, Box::new(node));
    c.run_secs(55.0);

    let r3 = c.node(3);
    assert!(
        r3.metrics.snapshot_installs > 0,
        "lanes={lanes}: a from-zero replica must recover via a peer \
         snapshot, not log replay"
    );
    // The fast-forwarded prefix is surfaced, not silent: the replica
    // skipped exactly the confirm records the snapshot covered.
    assert!(
        r3.metrics.skipped_sns > 0,
        "lanes={lanes}: a snapshot install on a from-zero replica must \
         report the fast-forwarded prefix as skipped sns"
    );
    assert!(r3.exec.applied() >= healthy_applied);
    assert_eq!(r3.epoch(), c.node(0).epoch());
    assert_eq!(r3.metrics.root_conflicts, 0);
    // Serve-side accounting: some peer shipped the snapshot head with
    // real chunk bytes behind the install counted above, and no replica's
    // snapshot store saw a decode failure along the way.
    let (served, chunks, bytes): (u64, u64, u64) = (0..3)
        .map(|r| {
            let m = &c.node(r).metrics;
            (
                m.snapshots_served,
                m.snapshot_chunks_served,
                m.snapshot_bytes_served,
            )
        })
        .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
    assert!(
        served > 0 && chunks > 0 && bytes > 0,
        "lanes={lanes}: a from-zero install must show up in the peers' \
         serve counters (served={served} chunks={chunks} bytes={bytes})"
    );
    for r in 0..4 {
        assert_eq!(c.node(r).metrics.snapshot_decode_failures, 0);
    }
    assert_root_agreement(&c, &[0, 1, 2, 3]);
    c.node(0).exec.state_root()
}

#[test]
fn disk_loss_recovers_via_peer_snapshot_install_across_lane_counts() {
    let roots: Vec<(u32, Digest)> = LANE_MATRIX.iter().map(|&l| (l, disk_loss_at(l))).collect();
    assert_lane_invariant("disk loss + peer snapshot", &roots);
}

/// Snapshot serving minimum-gap policy: a replica one block behind the
/// responder's snapshot gets log entries, never a full-keyspace snapshot;
/// a deeply lagging replica gets the snapshot with its proving
/// checkpoint.
#[test]
fn one_block_behind_gets_log_sync_not_snapshot() {
    let mut c = cluster(ClusterOpts {
        protocol: ProtocolKind::LadonPbft,
        n: 4,
        epoch_length: Some(16),
        submit_until_s: 12.0,
        ..Default::default()
    });
    c.run_secs(15.0);

    let responder = c.node(0);
    let snap = responder
        .exec
        .latest_snapshot()
        .expect("responder must have checkpointed");
    assert!(snap.applied > 1, "need history to lag behind");
    let m = c.sys.m;

    // A requester one block behind the snapshot, with a near-tip commit
    // frontier (one round behind per instance — old rounds are pruned at
    // epoch boundaries, exactly like a real barely-behind replica's
    // request): log sync only.
    let near = SyncRequest {
        epoch: ladon::types::Epoch(responder.epoch()),
        applied: snap.applied - 1,
        frontier: responder
            .commit_frontier()
            .iter()
            .map(|r| Round(r.0.saturating_sub(1)))
            .collect(),
        lane_roots: Vec::new(),
        chunk_cursor: 0,
    };
    let resp = responder
        .build_sync_response(&near)
        .expect("log entries must still be served");
    assert!(
        resp.snapshot.is_none(),
        "a 1-block-behind replica must not be shipped a snapshot"
    );
    assert!(
        !resp.entries.is_empty(),
        "the near-frontier requester is repaired by log entries"
    );

    // A from-zero requester: lags by ≥ snapshot_min_lag, gets the
    // snapshot plus the checkpoint that proves it.
    assert!(
        snap.applied >= c.sys.snapshot_min_lag,
        "run too short for the policy threshold"
    );
    let deep = SyncRequest {
        epoch: ladon::types::Epoch(0),
        applied: 0,
        frontier: vec![Round(0); m],
        lane_roots: Vec::new(),
        chunk_cursor: 0,
    };
    let resp = responder
        .build_sync_response(&deep)
        .expect("a deep lagger must be served");
    let shipped = resp.snapshot.expect("deep lag must ship the snapshot head");
    assert_eq!(shipped.applied, snap.applied);
    assert!(shipped.verify(), "served head must self-verify");
    let cp = resp.checkpoint.expect("snapshot must come with its proof");
    assert_eq!(cp.state_root, shipped.root);
    // A from-zero advertisement differs on every lane: the served chunks
    // (deduplicated by root) must reassemble the snapshot byte-for-byte.
    assert_eq!(resp.chunks_remaining, 0, "default cap serves all 64 lanes");
    let rebuilt = ladon::state::Snapshot::assemble(shipped, &resp.chunks)
        .expect("full-delta chunk set must reassemble");
    assert_eq!(rebuilt.encode(), snap.encode());
}

// ---------------------------------------------------------------------
// Crash-during-compaction matrix: the WAL's atomic segment rotation is
// killed at *every* storage operation boundary, and recovery from the
// artifacts left behind must lose no committed block. Two levels:
// record-level over a raw CommitWal (exercising the straddler-rewrite
// window), and pipeline-level through a real checkpoint (snapshot +
// compaction), with recovery roots asserted byte-identical at worker
// counts {1, 4}.
// ---------------------------------------------------------------------

/// Storage that "loses power" after a budgeted number of mutating
/// operations: once the budget is exhausted, every subsequent append,
/// rewrite, delete, manifest publish, *and fsync* silently fails —
/// exactly what a kill between two protocol steps leaves on disk.
/// Shared with the whole fault matrix via `ladon::state::faults` (the
/// old test-local `CrashBackend`, promoted to a first-class wrapper);
/// `threaded` routes barriers through the dedicated `ladon-wal-writer`
/// thread (the pipelined-durability path) — the budget cell is shared,
/// so the sweep kills storage at the same op boundaries either way.
fn crash_backend(
    dir: &std::path::Path,
    budget: &Arc<AtomicI64>,
    threaded: bool,
) -> FaultBackend<FileBackend> {
    FaultBackend::kill_budget(
        FileBackend::open_dir(dir).unwrap(),
        budget.clone(),
        threaded,
    )
}

fn scratch_dir(tag: &str, k: i64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ladon-{tag}-{}-{k}", std::process::id()))
}

/// A synthetic record whose lane mask walks the lanes (so both lane
/// groups see traffic).
fn raw_record(sn: u64) -> WalRecord {
    WalRecord {
        sn,
        instance: (sn % 4) as u32,
        round: sn / 4 + 1,
        rank: sn,
        first_tx: sn * 10,
        count: 10,
        bucket: 0,
        payload_bytes: 5000,
        lane_mask: 1 << (sn % 64),
        payload_digest: Digest([sn as u8; 32]),
    }
}

/// Append-window matrix: storage dies `k` ops into a run of appends
/// (covering the roll-create → manifest-publish → record-append windows,
/// including the very first append on a fresh WAL). Every record that
/// was acknowledged with a clean durability alarm must survive reopen.
#[test]
fn wal_append_crash_matrix_preserves_acked_records() {
    let opts = WalOptions {
        lane_groups: 2,
        segment_records: 4,
    };
    for k in 0..=24i64 {
        let dir = scratch_dir("append-crash", k);
        let _ = std::fs::remove_dir_all(&dir);
        let budget = Arc::new(AtomicI64::new(k));
        let mut acked = 0u64;
        {
            let backend = crash_backend(&dir, &budget, false);
            let mut wal = CommitWal::open(Box::new(backend), opts);
            for sn in 0..12 {
                wal.append(raw_record(sn));
                if wal.write_failures() == 0 {
                    // Fully durable as far as the WAL reported: nothing
                    // failed through the end of this append.
                    acked = sn + 1;
                }
            }
        }
        let wal = CommitWal::open(Box::new(FileBackend::open_dir(&dir).unwrap()), opts);
        assert!(
            wal.len() as u64 >= acked,
            "k={k}: {acked} records were acked clean but only {} survived",
            wal.len()
        );
        for sn in 0..wal.len() as u64 {
            assert_eq!(wal.records()[sn as usize], raw_record(sn), "k={k}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Record-level matrix: a mid-log compaction (which exercises the
/// straddler rewrite as well as deletes and the manifest publish) is
/// killed after `k` storage ops, for every `k`; reopening with healthy
/// storage must still hold every record past the covered floor, densely.
#[test]
fn wal_compaction_crash_matrix_loses_no_record() {
    let opts = WalOptions {
        lane_groups: 2,
        segment_records: 4,
    };
    let records = 30u64;
    let upto = 18u64; // mid-segment: forces a straddler rewrite
    for k in 0..=16i64 {
        let dir = scratch_dir("wal-crash", k);
        let _ = std::fs::remove_dir_all(&dir);
        let budget = Arc::new(AtomicI64::new(i64::MAX));
        {
            let backend = crash_backend(&dir, &budget, false);
            let mut wal = CommitWal::open(Box::new(backend), opts);
            for sn in 0..records {
                wal.append(raw_record(sn));
            }
            assert_eq!(wal.write_failures(), 0, "k={k}: healthy run must be clean");
            // The power will die k storage ops into the compaction.
            budget.store(k, Ordering::SeqCst);
            wal.compact(upto);
            // Process dies here; whatever reached disk is what recovery
            // gets.
        }
        let wal =
            CommitWal::open_with_floor(Box::new(FileBackend::open_dir(&dir).unwrap()), opts, upto);
        let tail: Vec<u64> = wal.records().iter().map(|r| r.sn).collect();
        let expect: Vec<u64> = (upto..records).collect();
        assert_eq!(
            tail, expect,
            "k={k}: compaction crash lost committed records"
        );
        for sn in upto..records {
            assert_eq!(
                wal.records()[(sn - upto) as usize],
                raw_record(sn),
                "k={k}: record {sn} content changed across the crash"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Pipeline-level matrix: a real epoch checkpoint (durable snapshot,
/// then WAL compaction) is killed after `k` storage ops. Recovery from
/// the surviving artifacts must reproduce the pre-crash frontier and a
/// byte-identical root — at 1 worker and at 4 workers.
#[test]
fn checkpoint_compaction_crash_matrix_recovers_exact_state() {
    let wal_opts = WalOptions {
        lane_groups: 2,
        segment_records: 4,
    };
    let blocks = 16u64;
    for k in 0..=12i64 {
        let dir = scratch_dir("ckpt-crash", k);
        let _ = std::fs::remove_dir_all(&dir);
        let budget = Arc::new(AtomicI64::new(i64::MAX));
        let (pre_root, pre_lane_roots) = {
            let backend = crash_backend(&dir.join("wal"), &budget, false);
            let mut p = ExecutionPipeline::recover_backend(
                &dir,
                Box::new(backend),
                DEFAULT_KEYSPACE,
                1,
                wal_opts,
            )
            .unwrap();
            for sn in 0..blocks {
                p.execute(sn, &common::exec_block(sn, sn * 50, 50));
            }
            assert_eq!(p.wal_write_failures(), 0, "k={k}: run must start clean");
            budget.store(k, Ordering::SeqCst);
            p.checkpoint(0, Vec::new());
            (p.state_root(), p.lane_roots())
        };
        for lanes in LANE_MATRIX {
            let r =
                ExecutionPipeline::recover_opts(&dir, DEFAULT_KEYSPACE, lanes, wal_opts).unwrap();
            assert_eq!(
                r.applied(),
                blocks,
                "k={k} lanes={lanes}: compaction crash lost committed blocks"
            );
            assert_eq!(
                r.state_root(),
                pre_root,
                "k={k} lanes={lanes}: recovered root differs from pre-crash root"
            );
            assert_eq!(
                r.lane_roots(),
                pre_lane_roots,
                "k={k} lanes={lanes}: recovered lane-root vector differs"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Group-commit crash matrix: the batched write path introduces a new
// boundary — records staged by `append_buffered` are unacknowledged
// until their batch's `flush` barrier returns. The matrices below kill
// storage at every op across that boundary (including between staging
// and flush, and between a flush's write and its fsync) and assert the
// acknowledgement contract: a flushed batch is never lost; a
// staged-but-unflushed batch may be lost but corrupts nothing.
// ---------------------------------------------------------------------

/// WAL-level matrix: batches of 3 records are staged + flushed while the
/// storage dies `k` ops in; a final batch is staged and *never* flushed
/// (the process dies in the stage→flush window). Every record whose
/// flush was acknowledged clean must survive reopen, in order, with
/// nothing corrupted after it.
#[test]
fn wal_group_commit_crash_matrix_preserves_flushed_batches() {
    let opts = WalOptions {
        lane_groups: 2,
        segment_records: 4,
    };
    for k in 0..=28i64 {
        let dir = scratch_dir("group-commit-crash", k);
        let _ = std::fs::remove_dir_all(&dir);
        let budget = Arc::new(AtomicI64::new(k));
        let mut acked = 0u64;
        {
            let backend = crash_backend(&dir, &budget, false);
            let mut wal = CommitWal::open(Box::new(backend), opts);
            let mut sn = 0u64;
            for _batch in 0..5 {
                for _ in 0..3 {
                    wal.append_buffered(raw_record(sn));
                    sn += 1;
                }
                let clean_before = wal.write_failures() == 0;
                wal.flush();
                if clean_before && wal.write_failures() == 0 {
                    // Every barrier up to and including this one reported
                    // success: the whole prefix is durably acknowledged.
                    acked = sn;
                }
            }
            // Stage one more batch and die before its flush: these
            // records were never acknowledged and may vanish.
            wal.append_buffered(raw_record(sn));
            wal.append_buffered(raw_record(sn + 1));
            assert_eq!(wal.staged_len(), 2);
        }
        let wal = CommitWal::open(Box::new(FileBackend::open_dir(&dir).unwrap()), opts);
        assert!(
            wal.len() as u64 >= acked,
            "k={k}: {acked} records were acknowledged by clean flushes \
             but only {} survived",
            wal.len()
        );
        for sn in 0..wal.len() as u64 {
            assert_eq!(
                wal.records()[sn as usize],
                raw_record(sn),
                "k={k}: record {sn} corrupted across the crash"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Cross-drain group-commit matrix (`wal_flush_max_records` semantics):
/// several confirmed-queue drains accumulate as *staged* blocks — WAL
/// records buffered, nothing applied, nothing acknowledged — before one
/// deferred flush makes them durable. The matrix kills storage `k` ops
/// into the run and, for each `k`, also dies once with the accumulation
/// never flushed at all. Staged-but-unflushed records must NEVER be
/// acknowledged: recovery may hold only the flushed prefix, and a clean
/// deferred flush must land every accumulated drain.
#[test]
fn cross_drain_accumulation_crash_matrix_never_acks_unflushed_records() {
    let wal_opts = WalOptions {
        lane_groups: 2,
        segment_records: 4,
    };
    let batch_of = |from: u64, n: u64| -> Vec<(u64, ladon::types::Block)> {
        (from..from + n)
            .map(|sn| (sn, common::exec_block(sn, sn * 50, 50)))
            .collect()
    };
    for flush_staged in [false, true] {
        for k in 0..=14i64 {
            let dir = scratch_dir(
                if flush_staged {
                    "cross-drain-flush"
                } else {
                    "cross-drain-die"
                },
                k,
            );
            let _ = std::fs::remove_dir_all(&dir);
            let budget = Arc::new(AtomicI64::new(i64::MAX));
            let acked = {
                let backend = crash_backend(&dir.join("wal"), &budget, false);
                let mut p = ExecutionPipeline::recover_backend(
                    &dir,
                    Box::new(backend),
                    DEFAULT_KEYSPACE,
                    1,
                    wal_opts,
                )
                .unwrap();
                // A flushed baseline drain, then the storage runs on a
                // budget while three further drains accumulate staged.
                p.execute_batch(&batch_of(0, 4));
                assert_eq!(p.wal_write_failures(), 0, "k={k}: run must start clean");
                budget.store(k, Ordering::SeqCst);
                p.stage_blocks(&batch_of(4, 2));
                p.stage_blocks(&batch_of(6, 2));
                p.stage_blocks(&batch_of(8, 2));
                // Staging does no backend I/O and applies nothing.
                assert_eq!(p.staged_records(), 6, "k={k}");
                assert_eq!(p.applied(), 4, "k={k}: staged blocks must not apply");
                assert_eq!(p.next_sn(), 10, "k={k}");
                if !flush_staged {
                    // Die in the accumulate window: the three drains
                    // were never flushed and must never be acknowledged.
                    4
                } else {
                    p.flush_staged();
                    if p.wal_write_failures() == 0 {
                        assert_eq!(p.applied(), 10, "k={k}: clean flush applies all");
                        10
                    } else {
                        4
                    }
                }
            };
            for lanes in LANE_MATRIX {
                let r = ExecutionPipeline::recover_opts(&dir, DEFAULT_KEYSPACE, lanes, wal_opts)
                    .unwrap();
                assert!(
                    r.applied() >= acked,
                    "k={k} lanes={lanes} flush={flush_staged}: an acknowledged \
                     prefix was lost (recovered {} < acked {acked})",
                    r.applied()
                );
                if !flush_staged {
                    assert_eq!(
                        r.applied(),
                        4,
                        "k={k} lanes={lanes}: unflushed accumulated records \
                         must never be acknowledged"
                    );
                }
                // Whatever survived re-executes to the identical root.
                let mut reference = ExecutionPipeline::in_memory_with(DEFAULT_KEYSPACE, lanes);
                for sn in 0..r.applied() {
                    reference.execute(sn, &common::exec_block(sn, sn * 50, 50));
                }
                assert_eq!(
                    r.state_root(),
                    reference.state_root(),
                    "k={k} lanes={lanes} flush={flush_staged}"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Cross-drain group commit end-to-end: a cluster running with an
/// accumulation threshold must agree on every checkpoint root exactly
/// like the per-drain default (epoch checkpoints force the drain), while
/// spending no more fsync barriers.
#[test]
fn cross_drain_threshold_cluster_agrees_and_amortizes_fsyncs() {
    let run = |threshold: u32| {
        let mut c = cluster(ClusterOpts {
            protocol: ProtocolKind::LadonPbft,
            n: 4,
            epoch_length: Some(16),
            submit_until_s: 10.0,
            wal_flush_max_records: Some(threshold),
            ..Default::default()
        });
        c.run_secs(15.0);
        let checked = assert_root_agreement(&c, &[0, 1, 2, 3]);
        assert!(
            checked >= 2,
            "threshold={threshold}: epochs must checkpoint"
        );
        for r in 0..4 {
            let m = &c.node(r).metrics;
            assert_eq!(m.wal_write_failures, 0, "threshold={threshold} replica {r}");
            assert_eq!(m.exec_gaps, 0, "threshold={threshold} replica {r}");
        }
        c.assert_agreement(&[0, 1, 2, 3]);
        let m = &c.node(0).metrics;
        (m.wal_io.fsyncs, c.node(0).exec.state_root())
    };
    let (fsyncs_default, root_default) = run(1);
    let (fsyncs_batched, root_batched) = run(8);
    assert_eq!(
        root_default, root_batched,
        "the flush threshold must never change state"
    );
    assert!(
        fsyncs_batched <= fsyncs_default,
        "accumulating drains must not cost more barriers: \
         {fsyncs_batched} > {fsyncs_default}"
    );
}

/// Pipeline-level matrix over the batched execution path: confirmed
/// blocks drain through `execute_batch` (stage → one flush barrier →
/// apply) while storage dies `k` ops in. Recovery from the surviving
/// artifacts must hold every block of every cleanly-flushed batch and
/// reproduce, at worker counts {1, 4}, a root byte-identical to a clean
/// re-execution of exactly the recovered prefix.
#[test]
fn batched_execution_crash_matrix_recovers_acked_prefix() {
    let wal_opts = WalOptions {
        lane_groups: 2,
        segment_records: 4,
    };
    let batch_of = |from: u64, n: u64| -> Vec<(u64, ladon::types::Block)> {
        (from..from + n)
            .map(|sn| (sn, common::exec_block(sn, sn * 50, 50)))
            .collect()
    };
    for k in 0..=14i64 {
        let dir = scratch_dir("batched-exec-crash", k);
        let _ = std::fs::remove_dir_all(&dir);
        let budget = Arc::new(AtomicI64::new(i64::MAX));
        let acked = {
            let backend = crash_backend(&dir.join("wal"), &budget, false);
            let mut p = ExecutionPipeline::recover_backend(
                &dir,
                Box::new(backend),
                DEFAULT_KEYSPACE,
                1,
                wal_opts,
            )
            .unwrap();
            // Two clean batches, then the power dies k storage ops into
            // the third batch's stage/flush window.
            p.execute_batch(&batch_of(0, 4));
            p.execute_batch(&batch_of(4, 4));
            assert_eq!(p.wal_write_failures(), 0, "k={k}: run must start clean");
            budget.store(k, Ordering::SeqCst);
            p.execute_batch(&batch_of(8, 4));
            if p.wal_write_failures() == 0 {
                12
            } else {
                8
            }
        };
        let mut roots = Vec::new();
        for lanes in LANE_MATRIX {
            let r =
                ExecutionPipeline::recover_opts(&dir, DEFAULT_KEYSPACE, lanes, wal_opts).unwrap();
            assert!(
                r.applied() >= acked,
                "k={k} lanes={lanes}: an acknowledged batch was lost \
                 (recovered {} < acked {acked})",
                r.applied()
            );
            // The recovered prefix — whatever survived past the ack
            // floor — must re-execute to the identical root.
            let mut reference = ExecutionPipeline::in_memory_with(DEFAULT_KEYSPACE, lanes);
            for sn in 0..r.applied() {
                reference.execute(sn, &common::exec_block(sn, sn * 50, 50));
            }
            assert_eq!(
                r.state_root(),
                reference.state_root(),
                "k={k} lanes={lanes}: recovered root diverges from a clean \
                 re-execution of the recovered prefix"
            );
            roots.push((lanes, r.applied(), r.state_root()));
        }
        assert!(
            roots
                .windows(2)
                .all(|w| (w[0].1, w[0].2) == (w[1].1, w[1].2)),
            "k={k}: recovery differs across worker counts: {roots:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Report-level fault surfacing: a torn WAL tail must show up not just
/// in [`ladon::state::ReplayStats`] but all the way through
/// `NodeMetrics` aggregation into the experiment [`Report`]'s merged
/// registry — the same chain the runner uses — so fault-matrix outcomes
/// are assertable from the top-level document.
#[test]
fn torn_wal_recovery_surfaces_replay_stats_in_report() {
    use ladon::state::{static_lane_mask, TRAILER_LEN};
    use ladon::types::{Block, TimeNs, TxOp};
    use ladon::workload::{aggregate, metrics::empty_nodes, RunData};

    let opts = WalOptions {
        lane_groups: 1,
        segment_records: 4,
    };
    let keyspace = DEFAULT_KEYSPACE;
    let dir = scratch_dir("report-torn", 0);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    {
        let mut wal = CommitWal::open(
            Box::new(FileBackend::open_dir(dir.join("wal")).unwrap()),
            opts,
        );
        for sn in 0..12u64 {
            let b = Block::synthetic(sn, sn * 16, 16);
            let ops: Vec<TxOp> = b.batch.txs(keyspace).map(|tx| tx.op).collect();
            wal.append_buffered(WalRecord::of_block(sn, &b, static_lane_mask(&ops)));
            if sn % 4 == 3 {
                assert!(wal.flush());
            }
        }
        assert_eq!(wal.write_failures(), 0);
    }
    // Tear the newest segment mid-batch (trailer plus a few record
    // bytes): an acknowledged-loss tail, with the prefix intact.
    let mut segs: Vec<std::path::PathBuf> = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segs.sort();
    let victim = segs.last().expect("the run must have produced segments");
    let bytes = std::fs::read(victim).unwrap();
    std::fs::write(victim, &bytes[..bytes.len() - TRAILER_LEN - 7]).unwrap();

    let recovered = ExecutionPipeline::recover_opts(&dir, keyspace, 1, opts).unwrap();
    let stats = recovered.recovery_stats().clone();
    assert!(
        stats.records_torn > 0,
        "the tear must classify as torn loss"
    );
    assert!(stats.records_replayed > 0, "the intact prefix must replay");
    assert!(stats.segments_clean_end > 0, "untouched segments end clean");

    // The same chain the runner uses: pipeline -> NodeMetrics -> Report.
    let mut nodes = empty_nodes(4);
    MultiBftNode::mirror_exec_metrics(&mut nodes[0], &recovered);
    let report = aggregate(&RunData {
        nodes,
        f: 1,
        window_start: TimeNs::ZERO,
        window_end: TimeNs::from_millis(1_000),
        reference: 0,
        waiting_blocks: 0,
    });
    let reg = report.metrics.registry();
    assert_eq!(reg.counter_value("replay.records_torn"), stats.records_torn);
    assert_eq!(
        reg.counter_value("replay.records_unacked_lost"),
        stats.records_unacked_lost
    );
    assert_eq!(
        reg.counter_value("replay.records_replayed"),
        stats.records_replayed
    );
    assert_eq!(
        reg.counter_value("replay.segments_clean_end"),
        stats.segments_clean_end
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The un-swallowed barrier alarm (the PR 7 bugfix): a failed durability
/// barrier must propagate `PipelinePerf::wal_flush_failures` →
/// `NodeMetrics::wal_flush_failures` → `Report.wal_flush_failures`, in
/// both the inline (simulation) and writer-thread (File) barrier modes.
/// `flush_staged` used to discard the `CommitWal::flush()` outcome
/// entirely and report the drained range as durable; now the range is
/// still returned (the in-memory mirror is authoritative and the blocks
/// apply) but the alarm is raised before any caller can treat it as
/// durable.
#[test]
fn failed_flush_barrier_raises_alarm_through_report() {
    use ladon::types::TimeNs;
    use ladon::workload::{aggregate, metrics::empty_nodes, RunData};

    let wal_opts = WalOptions {
        lane_groups: 2,
        segment_records: 4,
    };
    let batch_of = |from: u64, n: u64| -> Vec<(u64, ladon::types::Block)> {
        (from..from + n)
            .map(|sn| (sn, common::exec_block(sn, sn * 50, 50)))
            .collect()
    };
    for threaded in [false, true] {
        let dir = scratch_dir(
            if threaded {
                "alarm-threaded"
            } else {
                "alarm-inline"
            },
            0,
        );
        let _ = std::fs::remove_dir_all(&dir);
        let budget = Arc::new(AtomicI64::new(i64::MAX));
        let backend = crash_backend(&dir.join("wal"), &budget, threaded);
        let mut p = ExecutionPipeline::recover_backend(
            &dir,
            Box::new(backend),
            DEFAULT_KEYSPACE,
            1,
            wal_opts,
        )
        .unwrap();
        p.execute_batch(&batch_of(0, 4));
        assert_eq!(
            p.perf().wal_flush_failures,
            0,
            "threaded={threaded}: a clean run must not alarm"
        );
        // The disk dies: every write in the next barrier fails.
        budget.store(0, Ordering::SeqCst);
        p.stage_blocks(&batch_of(4, 2));
        let range = p.flush_staged();
        assert_eq!(
            range,
            4..6,
            "threaded={threaded}: the range is still reported"
        );
        assert!(
            p.perf().wal_flush_failures >= 1,
            "threaded={threaded}: the failed barrier must raise the alarm"
        );
        assert!(p.wal_write_failures() > 0, "threaded={threaded}");

        // pipeline → NodeMetrics → Report: the exact chain the runner
        // uses, so fault outcomes are assertable from the top document.
        let mut nodes = empty_nodes(4);
        MultiBftNode::mirror_exec_metrics(&mut nodes[0], &p);
        assert!(
            nodes[0].wal_flush_failures >= 1,
            "threaded={threaded}: NodeMetrics must mirror the alarm"
        );
        let report = aggregate(&RunData {
            nodes,
            f: 1,
            window_start: TimeNs::ZERO,
            window_end: TimeNs::from_millis(1_000),
            reference: 0,
            waiting_blocks: 0,
        });
        assert!(
            report.wal_flush_failures >= 1,
            "threaded={threaded}: a failed barrier must surface as a \
             nonzero Report.wal_flush_failures, never a silently \
             \"durable\" range"
        );
        drop(p);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Writer-thread crash matrix (pipelined durability): storage dies `k`
/// ops into the submit → write → fsync → ack-token window of the
/// dedicated WAL writer, while a further accumulation stages into the
/// double-buffered scratch mid-flight. Sweep contract, at every `k`:
/// no acknowledgement before durability (nothing past a clean-barrier
/// prefix is trusted), the staged-while-in-flight accumulation is never
/// acknowledged, and recovery roots are byte-identical at worker counts
/// {1, 4} and equal a clean re-execution of the recovered prefix.
#[test]
fn writer_thread_crash_matrix_never_acks_before_durability() {
    let wal_opts = WalOptions {
        lane_groups: 2,
        segment_records: 4,
    };
    let batch_of = |from: u64, n: u64| -> Vec<(u64, ladon::types::Block)> {
        (from..from + n)
            .map(|sn| (sn, common::exec_block(sn, sn * 50, 50)))
            .collect()
    };
    for k in 0..=16i64 {
        let dir = scratch_dir("writer-crash", k);
        let _ = std::fs::remove_dir_all(&dir);
        let budget = Arc::new(AtomicI64::new(i64::MAX));
        let acked = {
            let backend = crash_backend(&dir.join("wal"), &budget, true);
            let mut p = ExecutionPipeline::recover_backend(
                &dir,
                Box::new(backend),
                DEFAULT_KEYSPACE,
                1,
                wal_opts,
            )
            .unwrap();
            // A clean pipelined prefix: two overlapped submits, drained.
            p.stage_blocks(&batch_of(0, 2));
            assert!(
                p.submit_staged().is_empty(),
                "k={k}: the first submit has no prior batch to apply"
            );
            p.stage_blocks(&batch_of(2, 2));
            assert_eq!(
                p.submit_staged(),
                0..2,
                "k={k}: the second submit applies batch 1 (whose token resolved)"
            );
            p.flush_staged();
            assert_eq!(p.applied(), 4, "k={k}");
            let perf = p.perf();
            assert_eq!(perf.wal_flush_failures, 0, "k={k}: prefix must be clean");
            assert!(
                perf.pipelined_submits >= 1,
                "k={k}: the prefix must have genuinely overlapped"
            );
            // The budgeted window: batch 3's barrier runs on the writer
            // thread (submit → write → fsync → ack token) with `k` ops of
            // storage life left.
            budget.store(k, Ordering::SeqCst);
            p.stage_blocks(&batch_of(4, 2));
            p.submit_staged();
            // In flight: submitted, not applied, not acknowledged.
            assert_eq!(p.inflight_records(), 2, "k={k}");
            assert_eq!(
                p.applied(),
                4,
                "k={k}: no acknowledgement before the barrier token resolves"
            );
            // Double-buffered staging proceeds while the barrier flies —
            // and this accumulation is never submitted before the crash.
            p.stage_blocks(&batch_of(6, 2));
            assert_eq!(p.staged_records(), 2, "k={k}");
            p.complete_inflight();
            if p.perf().wal_flush_failures == 0 && p.wal_write_failures() == 0 {
                6
            } else {
                4
            }
            // Process dies here: batch 4 (sns 6..8) was never flushed.
        };
        let mut roots = Vec::new();
        for lanes in LANE_MATRIX {
            let r =
                ExecutionPipeline::recover_opts(&dir, DEFAULT_KEYSPACE, lanes, wal_opts).unwrap();
            assert!(
                r.applied() >= acked,
                "k={k} lanes={lanes}: an acknowledged prefix was lost \
                 (recovered {} < acked {acked})",
                r.applied()
            );
            assert!(
                r.applied() <= 6,
                "k={k} lanes={lanes}: the unflushed double-buffered \
                 accumulation must never be acknowledged (recovered {})",
                r.applied()
            );
            let mut reference = ExecutionPipeline::in_memory_with(DEFAULT_KEYSPACE, lanes);
            for sn in 0..r.applied() {
                reference.execute(sn, &common::exec_block(sn, sn * 50, 50));
            }
            assert_eq!(
                r.state_root(),
                reference.state_root(),
                "k={k} lanes={lanes}: recovered root diverges from a clean \
                 re-execution of the recovered prefix"
            );
            roots.push((lanes, r.applied(), r.state_root()));
        }
        assert!(
            roots
                .windows(2)
                .all(|w| (w[0].1, w[0].2) == (w[1].1, w[1].2)),
            "k={k}: recovery differs across worker counts: {roots:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
