//! `repro`: one-shot driver that regenerates every table and figure in
//! sequence (the same code paths as the individual bench targets), for
//! producing a complete paper-vs-measured record in one run.
//!
//! ```sh
//! cargo run --release -p ladon-bench --bin repro            # quick scale
//! LADON_SCALE=full cargo run --release -p ladon-bench --bin repro
//!
//! # CI mode: in-process seeded experiments, machine-readable output,
//! # determinism self-gate (the suite runs twice and the deterministic
//! # subsets must match byte-for-byte):
//! cargo run --release -p ladon-bench --bin repro -- --smoke --out BENCH_repro.json
//! ```
//!
//! In the full (no-arg) mode, `LADON_BENCH_JSON` is forwarded to every
//! spawned bench target, so their [`ladon_obs::emit_figure`] calls
//! accumulate into the same document.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use ladon_core::{Behavior, MultiBftNode, NodeConfig, NodeMode, NodeMsg};
use ladon_crypto::KeyRegistry;
use ladon_obs::{fields, BenchReport, Json, BENCH_JSON_ENV};
use ladon_sim::{ActorId, Context, Engine, NicNetwork, SimRng, Topology};
use ladon_state::{
    delta_lanes, lane_of, static_lane_mask, ChunkCache, CommitWal, ExecutionPipeline, FaultBackend,
    FaultPlan, FileBackend, KvState, Snapshot, SnapshotChunk, SnapshotStore, WalOptions, WalRecord,
    MERKLE_LANES,
};
use ladon_types::{Block, NetEnv, ProtocolKind, ReplicaId, SystemConfig, TimeNs, TxOp, WireSize};
use ladon_workload::{run_experiment, ClientFleet, ExperimentConfig, Report};

const TARGETS: [&str; 9] = [
    "fig2_straggler_impact",
    "fig5_scalability",
    "fig6_straggler_count",
    "fig7_byzantine_stragglers",
    "fig8_crash_recovery",
    "tab1_resources",
    "tab2_causality",
    "fig10_hotstuff",
    "appendix_complexity",
];

/// Seed of every smoke-mode experiment. The determinism self-gate runs
/// the whole suite twice with this seed and requires the `wall_`-free
/// subsets to match byte-for-byte.
const SMOKE_SEED: u64 = 7;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        let out = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1))
            .cloned()
            .or_else(|| std::env::var(BENCH_JSON_ENV).ok())
            .unwrap_or_else(|| "BENCH_repro.json".to_string());
        smoke(Path::new(&out));
        return;
    }
    full_suite();
}

/// The legacy full run: spawn every figure/table bench target.
fn full_suite() {
    println!(
        "Ladon reproduction driver — running {} figure/table targets",
        TARGETS.len()
    );
    let bench_json = std::env::var(BENCH_JSON_ENV).ok();
    let mut failures = Vec::new();
    for t in TARGETS {
        println!("\n>>> cargo bench --bench {t}");
        let mut cmd = Command::new("cargo");
        cmd.args(["bench", "-p", "ladon-bench", "--bench", t]);
        if let Some(path) = &bench_json {
            cmd.env(BENCH_JSON_ENV, path);
        }
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{t} exited with {s}");
                failures.push(t);
            }
            Err(e) => {
                eprintln!("{t} failed to launch: {e}");
                failures.push(t);
            }
        }
    }
    if failures.is_empty() {
        println!("\nall targets completed");
    } else {
        eprintln!("\nfailed targets: {failures:?}");
        std::process::exit(1);
    }
}

/// CI smoke mode: small seeded in-process experiments covering every
/// figure the schema requires, written as one `BENCH_*.json` document.
///
/// The determinism self-gate runs the suite twice; anything outside the
/// `wall_*` namespace must come out byte-identical, or the run fails.
fn smoke(out: &Path) {
    println!(
        "repro --smoke: seeded in-process suite -> {}",
        out.display()
    );
    let started = Instant::now();

    let first = run_smoke_suite("a");
    let second = run_smoke_suite("b");
    let (da, db) = (first.deterministic_json(), second.deterministic_json());
    if da != db {
        eprintln!("determinism self-gate FAILED: two seed-{SMOKE_SEED} runs diverged");
        eprintln!("run 1: {da}");
        eprintln!("run 2: {db}");
        std::process::exit(1);
    }
    println!(
        "determinism self-gate: deterministic subset byte-identical across two runs \
         ({} bytes)",
        da.len()
    );

    let mut report = first;
    report.set_meta(
        "wall_total_ms",
        Json::F64(started.elapsed().as_secs_f64() * 1e3),
    );
    if let Err(e) = report.save(out) {
        eprintln!("cannot save {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("wrote {} ({} figures)", out.display(), report.figures.len());
}

fn run_smoke_suite(pass: &str) -> BenchReport {
    let mut report = BenchReport::new();
    report.set_meta("mode", Json::Str("smoke".into()));
    report.set_meta("seed", Json::U64(SMOKE_SEED));
    report.set_meta("protocol", Json::Str("ladon-pbft".into()));
    report.set_meta("generated_by", Json::Str("repro --smoke".into()));

    // One short LAN deployment is the backbone of most figures: the
    // straggler run reuses its config with one straggler added.
    // The short epoch makes the window cross checkpoint boundaries, so
    // the full lifecycle (through `applied -> checkpointed`) is traced.
    let base_cfg = ExperimentConfig::new(ProtocolKind::LadonPbft, 4, NetEnv::Lan)
        .duration_secs(3.0)
        .warmup_secs(2.0)
        .with_epoch_length(16)
        .with_seed(SMOKE_SEED);
    let base = run_experiment(&base_cfg);
    let straggler = run_experiment(&base_cfg.clone().with_stragglers(1, 10.0));
    // Fleet-summed counters come from the merged registry.
    let count = |name: &str| base.metrics.registry().counter_value(name);
    let wal_fsyncs = count("wal.fsyncs");
    let flush_barriers = count("pipeline.flush_barriers");
    let pipelined_submits = count("pipeline.pipelined_submits");

    report.add_figure(
        "fig5_scalability",
        fields(vec![
            ("n", Json::U64(4)),
            ("env", Json::Str("lan".into())),
            ("throughput_ktps", Json::F64(base.throughput_ktps)),
            ("mean_latency_s", Json::F64(base.mean_latency_s)),
            ("committed_txs", Json::U64(base.committed_txs)),
            ("confirmed_blocks", Json::U64(base.confirmed_blocks)),
            ("causal_strength", Json::F64(base.causal_strength)),
        ]),
    );
    report.add_figure(
        "fig2_straggler_impact",
        fields(vec![
            ("throughput_ktps_0s", Json::F64(base.throughput_ktps)),
            ("throughput_ktps_1s", Json::F64(straggler.throughput_ktps)),
            (
                "throughput_ratio",
                Json::F64(if base.throughput_ktps > 0.0 {
                    straggler.throughput_ktps / base.throughput_ktps
                } else {
                    0.0
                }),
            ),
            ("latency_s_0s", Json::F64(base.mean_latency_s)),
            ("latency_s_1s", Json::F64(straggler.mean_latency_s)),
        ]),
    );
    report.add_figure(
        "fig_wal_group_commit",
        fields(vec![
            ("wal_fsyncs", Json::U64(wal_fsyncs)),
            ("wal_bytes_written", Json::U64(count("wal.bytes_written"))),
            ("flush_barriers", Json::U64(flush_barriers)),
            (
                "fsyncs_per_block",
                Json::F64(if base.confirmed_blocks > 0 {
                    wal_fsyncs as f64 / base.confirmed_blocks as f64
                } else {
                    0.0
                }),
            ),
            (
                "wall_wal_flush_ns",
                Json::U64(count("pipeline.wall_wal_flush_ns")),
            ),
        ]),
    );
    report.add_figure(
        "fig_exec_dag",
        fields(vec![
            ("exec_waves", Json::U64(base.exec_waves)),
            (
                "exec_cross_lane_edges",
                Json::U64(base.exec_cross_lane_edges),
            ),
            ("mean_ops_per_wave", Json::F64(base.mean_ops_per_wave)),
            ("executed_txs", Json::U64(base.executed_txs)),
            ("wall_exec_ns", Json::U64(count("pipeline.wall_exec_ns"))),
        ]),
    );
    // Pipelined durability: the failure alarm must be silent on a
    // healthy run (a nonzero count is exactly the swallowed-barrier bug
    // this figure exists to catch), and the cross-drain path must have
    // genuinely overlapped barriers with execution.
    assert_eq!(
        base.wal_flush_failures, 0,
        "healthy smoke run reported failed flush barriers"
    );
    assert!(
        pipelined_submits > 0,
        "the pipelined drain never overlapped a barrier"
    );
    report.add_figure(
        "fig_wal_pipeline",
        fields(vec![
            ("wal_flush_failures", Json::U64(base.wal_flush_failures)),
            ("pipelined_submits", Json::U64(pipelined_submits)),
            ("flush_barriers", Json::U64(flush_barriers)),
            (
                "fsyncs_per_barrier",
                Json::F64(if flush_barriers > 0 {
                    wal_fsyncs as f64 / flush_barriers as f64
                } else {
                    0.0
                }),
            ),
        ]),
    );
    report.add_figure("trace_lifecycle", lifecycle_fields(&base));
    report.add_figure("fig_recovery_scaling", recovery_fields(pass));
    report.add_figure("fig_snapshot_delta", snapshot_delta_fields(pass));
    report.add_figure("fig_fault_matrix", fault_matrix_fields(pass));
    report
}

/// Minimal context for driving node sync handlers outside the engine
/// (the responder-quarantine exchange below).
struct MiniCtx {
    rng: SimRng,
}

impl Context<NodeMsg> for MiniCtx {
    fn now(&self) -> TimeNs {
        TimeNs(0)
    }
    fn self_id(&self) -> ActorId {
        3
    }
    fn send_sized(&mut self, _to: ActorId, _msg: NodeMsg, _bytes: u64) {}
    fn set_timer(&mut self, _delay: TimeNs, _id: u64) {}
    fn crash(&mut self, _actor: ActorId) {}
    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

/// `fig_fault_matrix`: the durability degradation state machine and
/// responder quarantine, exercised end-to-end in one seeded simulated
/// deployment. Replica 3 journals through a [`FaultPlan`]-driven
/// backend; its disk fills mid-run, it degrades, backoff retries run
/// against the full disk, space frees, it recovers and reconverges.
/// Afterwards the same deployment's checkpointed snapshot drives the
/// responder-health exchange: a stale-but-signed snapshot replayed past
/// the threshold quarantines its sender. All gates are deterministic
/// counts under the smoke seed.
fn fault_matrix_fields(pass: &str) -> Vec<(String, Json)> {
    let n = 4usize;
    let dir: PathBuf =
        std::env::temp_dir().join(format!("ladon-repro-faults-{pass}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut sys = SystemConfig::paper_default(n, NetEnv::Lan);
    sys.epoch_length = 16;
    sys.snapshot_min_lag = sys.snapshot_min_lag.min(16);
    sys.validate().expect("smoke fault config");
    let registry = KeyRegistry::generate(n, sys.opt_keys, SMOKE_SEED ^ 0x5eed);
    let mut engine: Engine<NodeMsg> = Engine::new(
        NicNetwork::new(Topology::paper(NetEnv::Lan, n + 1)),
        SMOKE_SEED,
    );
    let node_cfg = |r: usize| NodeConfig {
        sys: sys.clone(),
        protocol: ProtocolKind::LadonPbft,
        me: ReplicaId(r as u32),
        registry: registry.clone(),
        behavior: Behavior::default(),
        sample_interval: None,
    };
    for r in 0..n {
        engine.add_actor(Box::new(MultiBftNode::new(node_cfg(r))));
    }
    let tx_rate = sys.total_block_rate * sys.batch_size as f64;
    engine.add_actor(Box::new(ClientFleet::new(
        n,
        sys.m,
        tx_rate,
        sys.tx_bytes,
        TimeNs::from_secs_f64(12.0),
    )));
    // Replica 3 journals durably through the fault-injecting backend.
    let plan = FaultPlan::unlimited();
    let backend = FaultBackend::new(
        FileBackend::open_dir(dir.join("wal")).expect("open faulted wal dir"),
        plan.clone(),
    );
    let wal_opts = WalOptions {
        lane_groups: sys.wal_lane_groups,
        segment_records: sys.wal_segment_records,
    };
    let exec = ExecutionPipeline::recover_backend(
        &dir,
        Box::new(backend),
        sys.exec_keyspace,
        sys.exec_lanes,
        wal_opts,
    )
    .expect("recover faulted pipeline");
    engine.restart_actor(3, Box::new(MultiBftNode::with_execution(node_cfg(3), exec)));

    // Healthy warm-up, then the disk fills under live load.
    engine.run_until(TimeNs::from_secs_f64(4.0));
    let _ = plan.clone().enospc_after(0);
    engine.run_until(TimeNs::from_secs_f64(9.0));
    {
        let n3 = engine.actor_as::<MultiBftNode>(3).expect("replica 3");
        assert_eq!(
            n3.mode(),
            NodeMode::Degraded,
            "ENOSPC under load must degrade the replica"
        );
    }
    // Space frees; the next backoff retry repairs and the node recovers.
    plan.free_space();
    engine.run_until(TimeNs::from_secs_f64(30.0));
    let (degraded_entries, degraded_retries, recovered, flush_failures) = {
        let n3 = engine.actor_as::<MultiBftNode>(3).expect("replica 3");
        assert_eq!(n3.mode(), NodeMode::Normal, "replica must recover");
        assert!(n3.metrics.degraded_entries >= 1);
        assert!(n3.metrics.degraded_retries >= 1);
        (
            n3.metrics.degraded_entries,
            n3.metrics.degraded_retries,
            u64::from(n3.mode() == NodeMode::Normal),
            n3.metrics.wal_flush_failures,
        )
    };

    // Responder health: a from-zero requester installs an honest
    // snapshot, then a peer replays the same (now stale, still signed)
    // response past the threshold and is quarantined.
    let responder = engine.actor_as::<MultiBftNode>(0).expect("replica 0");
    let mut requester = MultiBftNode::new(node_cfg(3));
    let mut ctx = MiniCtx {
        rng: SimRng::new(SMOKE_SEED),
    };
    let req = requester.build_sync_request();
    let honest = responder
        .build_sync_response(&req)
        .expect("checkpointed responder serves a from-zero requester");
    assert!(honest.snapshot.is_some(), "snapshot must be worthwhile");
    let stale = honest.clone();
    requester.on_sync_response_from(ReplicaId(0), honest, &mut ctx);
    assert_eq!(requester.metrics.snapshot_installs, 1);
    for _ in 0..sys.sync_quarantine_threshold {
        requester.on_sync_response_from(ReplicaId(1), stale.clone(), &mut ctx);
    }
    assert_eq!(requester.metrics.sync_responders_quarantined, 1);
    let stale_rejections = requester.responder_health()[1].rejected_chunks;
    assert_eq!(stale_rejections, sys.sync_quarantine_threshold as u64);
    let _ = std::fs::remove_dir_all(&dir);

    fields(vec![
        ("degraded_entries", Json::U64(degraded_entries)),
        ("degraded_retries", Json::U64(degraded_retries)),
        ("recovered", Json::U64(recovered)),
        ("wal_flush_failures", Json::U64(flush_failures)),
        ("injected_faults", Json::U64(plan.injected_faults())),
        (
            "responders_quarantined",
            Json::U64(requester.metrics.sync_responders_quarantined),
        ),
        ("stale_rejections", Json::U64(stale_rejections)),
        (
            "verified_chunks",
            Json::U64(requester.metrics.sync_chunks_verified),
        ),
    ])
}

/// Per-transition stage-latency fields, one triple per lifecycle edge.
/// Every edge is emitted (zeros when the short window produced no
/// samples for it) so the schema can require the full set.
fn lifecycle_fields(report: &Report) -> Vec<(String, Json)> {
    const TRANSITIONS: [&str; 6] = [
        "submitted_to_proposed",
        "proposed_to_confirmed",
        "confirmed_to_staged",
        "staged_to_flushed",
        "flushed_to_applied",
        "applied_to_checkpointed",
    ];
    let mut out = Vec::new();
    for t in TRANSITIONS {
        let sl = report.stage_latencies.iter().find(|s| s.transition == t);
        out.push((format!("{t}_count"), Json::U64(sl.map_or(0, |s| s.count))));
        out.push((
            format!("{t}_mean_ms"),
            Json::F64(sl.map_or(0.0, |s| s.mean_ms)),
        ));
        out.push((
            format!("{t}_p99_ms"),
            Json::F64(sl.map_or(0.0, |s| s.p99_ms)),
        ));
    }
    out
}

/// Crash-recovery smoke: a real segmented WAL plus a snapshot covering
/// the history prefix (the mid-compaction-kill disk layout), recovered
/// through the pipeline. All gates are deterministic counts.
fn recovery_fields(pass: &str) -> Vec<(String, Json)> {
    const HISTORY: u64 = 64;
    const TAIL: u64 = 16;
    const BLOCK_TXS: u32 = 64;
    let keyspace = 4096u32;
    let wal_opts = WalOptions {
        lane_groups: 8,
        segment_records: 8,
    };
    let dir: PathBuf =
        std::env::temp_dir().join(format!("ladon-repro-smoke-{pass}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create smoke scratch dir");

    let mut wal = CommitWal::open(
        Box::new(FileBackend::open_dir(dir.join("wal")).expect("open wal dir")),
        wal_opts,
    );
    let mut reference = ExecutionPipeline::in_memory(keyspace);
    let mut snapshot: Option<Snapshot> = None;
    for sn in 0..HISTORY + TAIL {
        let b = Block::synthetic(sn, sn * BLOCK_TXS as u64, BLOCK_TXS);
        let ops: Vec<TxOp> = b.batch.txs(keyspace).map(|tx| tx.op).collect();
        wal.append(WalRecord::of_block(sn, &b, static_lane_mask(&ops)));
        reference.execute(sn, &b);
        if sn + 1 == HISTORY {
            reference.checkpoint(1, Vec::new());
            snapshot = reference.latest_snapshot().cloned();
        }
    }
    assert_eq!(wal.write_failures(), 0);
    let mut store = SnapshotStore::at_dir(&dir).expect("open snapshot store");
    assert!(store.put(snapshot.expect("history must checkpoint")));
    let expect_root = reference.state_root();
    drop(wal);

    let recover_started = Instant::now();
    let recovered =
        ExecutionPipeline::recover_opts(&dir, keyspace, 1, wal_opts).expect("recover pipeline");
    let wall_recover_ns = recover_started.elapsed().as_nanos() as u64;
    let stats = recovered.recovery_stats().clone();
    assert_eq!(
        recovered.state_root(),
        expect_root,
        "recovered root differs"
    );
    assert_eq!(
        stats.records_replayed, TAIL,
        "replay must touch the tail only"
    );
    let _ = std::fs::remove_dir_all(&dir);

    fields(vec![
        ("log_records", Json::U64(HISTORY + TAIL)),
        ("records_replayed", Json::U64(stats.records_replayed)),
        ("segments_skipped", Json::U64(stats.segments_skipped)),
        ("segments_scanned", Json::U64(stats.segments_scanned)),
        ("dirty_lanes", Json::U64(stats.dirty_lanes() as u64)),
        ("wall_recover_ns", Json::U64(wall_recover_ns)),
    ])
}

/// `fig_snapshot_delta`: content-addressed delta sync ships chunks and
/// bytes proportional to *changed lanes*, not state size. All fields
/// are deterministic counts (chunk counts, wire bytes, cache builds) —
/// the same gates as the standalone `fig_snapshot_delta` bench target.
fn snapshot_delta_fields(pass: &str) -> Vec<(String, Json)> {
    const BASE_KEYS: u32 = 2048;
    const DIRTY_KS: [usize; 3] = [1, 8, 64];

    let base = KvState::from_entries((0..BASE_KEYS).map(|k| (k, k as u64 * 37 + 11)));
    // First base key landing in each lane (index = lane).
    let mut lane_keys = vec![u32::MAX; MERKLE_LANES as usize];
    for k in 0..BASE_KEYS {
        let lane = lane_of(k);
        if lane_keys[lane] == u32::MAX {
            lane_keys[lane] = k;
        }
    }
    assert!(lane_keys.iter().all(|&k| k != u32::MAX));
    let dirtied = |k: usize| -> KvState {
        let mut entries: std::collections::BTreeMap<u32, u64> = base.entries().collect();
        for &key in &lane_keys[..k] {
            *entries.get_mut(&key).expect("lane key exists") += 1;
        }
        KvState::from_entries(entries)
    };
    let shipped_for = |snap: &Snapshot, delta: &[u32]| -> Vec<SnapshotChunk> {
        let (_, chunks) = snap.split();
        let mut sent = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for &lane in delta {
            let root = snap.lane_roots[lane as usize];
            if sent.insert(root) {
                let c = chunks
                    .iter()
                    .find(|c| c.root == root)
                    .expect("split covers every lane root")
                    .clone();
                assert!(c.verify());
                out.push(c);
            }
        }
        out
    };

    let snap_a = Snapshot::capture(1, 64, 4096, Vec::new(), Vec::new(), &base);
    assert!(snap_a.verify());
    let monolithic_bytes = snap_a.wire_size();

    // k dirty lanes -> exactly k chunks; delta assembly byte-identical.
    let mut chunk_counts = Vec::new();
    let mut byte_counts = Vec::new();
    for &k in &DIRTY_KS {
        let snap_b = Snapshot::capture(2, 128, 8192, Vec::new(), Vec::new(), &dirtied(k));
        let delta = delta_lanes(&snap_b.lane_roots, &snap_a.lane_roots);
        assert_eq!(delta.len(), k, "delta must be exactly the dirty lanes");
        let shipped = shipped_for(&snap_b, &delta);
        assert_eq!(shipped.len(), k, "one chunk per dirty lane");
        let (head, _) = snap_b.split();
        let (_, local) = snap_a.split();
        let mut parts: Vec<SnapshotChunk> = local
            .into_iter()
            .filter(|c| head.lane_roots.contains(&c.root))
            .collect();
        parts.extend(shipped.iter().cloned());
        let rebuilt = Snapshot::assemble(head, &parts).expect("all lanes accounted for");
        assert_eq!(
            rebuilt.encode(),
            snap_b.encode(),
            "delta install must be byte-identical"
        );
        chunk_counts.push(shipped.len() as u64);
        byte_counts.push(shipped.iter().map(|c| c.wire_size()).sum::<u64>());
    }
    assert!(byte_counts[0] < byte_counts[1] && byte_counts[1] < byte_counts[2]);
    assert!(byte_counts[0] * 8 < monolithic_bytes);

    // Unchanged lanes are never re-encoded across epochs.
    let mut cache = ChunkCache::new();
    assert_eq!(cache.prime(&snap_a), MERKLE_LANES as u64);
    assert_eq!(cache.prime(&snap_a), 0);
    let snap_b8 = Snapshot::capture(2, 128, 8192, Vec::new(), Vec::new(), &dirtied(8));
    assert_eq!(cache.prime(&snap_b8), 8, "only dirty lanes re-encoded");
    let cache_encodes = cache.encodes();

    // Interrupted install: the stash survives restart; only missing
    // chunks are re-requested.
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "ladon-repro-snapdelta-{pass}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create snapdelta scratch dir");
    let delta8 = delta_lanes(&snap_b8.lane_roots, &snap_a.lane_roots);
    let shipped8 = shipped_for(&snap_b8, &delta8);
    let stash_n = shipped8.len() / 2;
    {
        let mut store = SnapshotStore::at_dir(&dir).expect("open snapdelta store");
        for c in &shipped8[..stash_n] {
            assert!(store.stash_chunk(c.clone()));
        }
    }
    let store = SnapshotStore::at_dir(&dir).expect("reopen snapdelta store");
    assert_eq!(store.stash_len(), stash_n, "stash must survive restart");
    assert_eq!(store.decode_failures(), 0);
    let mut advertised = snap_a.lane_roots.clone();
    for c in store.stashed_chunks() {
        advertised[c.lane as usize] = c.root;
    }
    let resume = delta_lanes(&snap_b8.lane_roots, &advertised);
    assert_eq!(resume.len(), shipped8.len() - stash_n);
    let _ = std::fs::remove_dir_all(&dir);

    fields(vec![
        ("base_entries", Json::U64(BASE_KEYS as u64)),
        ("monolithic_bytes", Json::U64(monolithic_bytes)),
        ("chunks_k1", Json::U64(chunk_counts[0])),
        ("bytes_k1", Json::U64(byte_counts[0])),
        ("chunks_k8", Json::U64(chunk_counts[1])),
        ("bytes_k8", Json::U64(byte_counts[1])),
        ("chunks_k64", Json::U64(chunk_counts[2])),
        ("bytes_k64", Json::U64(byte_counts[2])),
        ("cache_encodes", Json::U64(cache_encodes)),
        ("resume_missing_chunks", Json::U64(resume.len() as u64)),
    ])
}
