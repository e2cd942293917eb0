//! Live (threaded, wall-clock) cluster: the *same* replica state machines
//! that run under the deterministic simulator, driven by real threads and
//! crossbeam channels for a few wall-clock seconds — with **file-backed**
//! WAL pipelines, so each replica's durability barriers run on its own
//! `ladon-wal-writer` thread (pipelined group commit) while its actor
//! thread keeps staging and executing.
//!
//! ```sh
//! cargo run --release --example live_cluster
//! ```

use ladon::core::{Behavior, MultiBftNode, NodeConfig, NodeMsg};
use ladon::crypto::KeyRegistry;
use ladon::sim::{Actor, LiveRuntime, NicNetwork, Topology};
use ladon::state::{ExecutionPipeline, WalOptions};
use ladon::types::{NetEnv, ProtocolKind, ReplicaId, SystemConfig, TimeNs};
use ladon::workload::ClientFleet;

fn main() {
    let n = 4;
    let mut sys = SystemConfig::paper_default(n, NetEnv::Lan);
    // Tone down the batch pipeline for a short wall-clock demo.
    sys.batch_size = 512;
    // Accumulate a few blocks per durability barrier so the writer
    // thread has real batches to overlap, and bound the unacknowledged
    // window with the time-based flush policy.
    sys.wal_flush_max_records = 4;
    sys.wal_flush_interval_ms = 20;
    let registry = KeyRegistry::generate(n, sys.opt_keys, 7);

    // One WAL directory per replica; file-backed pipelines spawn the
    // per-node writer thread (LiveRuntime/File mode).
    let run_dir = std::env::temp_dir().join(format!("ladon-live-cluster-{}", std::process::id()));
    let mut actors: Vec<Box<dyn Actor<NodeMsg> + Send>> = Vec::new();
    for r in 0..n {
        let wal_dir = run_dir.join(format!("replica-{r}"));
        let exec = ExecutionPipeline::recover_opts(
            &wal_dir,
            sys.exec_keyspace,
            sys.exec_lanes,
            WalOptions {
                lane_groups: sys.wal_lane_groups,
                segment_records: sys.wal_segment_records,
            },
        )
        .expect("open file-backed pipeline");
        actors.push(Box::new(MultiBftNode::with_execution(
            NodeConfig {
                sys: sys.clone(),
                protocol: ProtocolKind::LadonPbft,
                me: ReplicaId(r as u32),
                registry: registry.clone(),
                behavior: Behavior::default(),
                sample_interval: None,
            },
            exec,
        )));
    }
    actors.push(Box::new(ClientFleet::new(
        n,
        sys.m,
        sys.total_block_rate * sys.batch_size as f64,
        sys.tx_bytes,
        TimeNs::from_secs(3),
    )));

    let topo = Topology::paper(NetEnv::Lan, n + 1);
    println!(
        "spawning {n} replica threads (+{n} WAL writer threads) + 1 client thread for 3 s of wall time…"
    );
    let rt = LiveRuntime::spawn(actors, Box::new(NicNetwork::new(topo)), 42);
    std::thread::sleep(std::time::Duration::from_secs(3));
    let stats = rt.stats();
    let finals = rt.shutdown();

    println!("\n=== live run results ===");
    for (r, actor) in finals.iter().enumerate().take(n) {
        let node = actor
            .as_any()
            .downcast_ref::<MultiBftNode>()
            .expect("replica actor");
        println!(
            "replica {r}: partially committed {} blocks, globally confirmed {} blocks, {} txs; \
             {} flush barriers ({} pipelined, {} failed)",
            node.metrics.commits.len(),
            node.metrics.confirms.len(),
            node.metrics.confirmed_txs,
            node.metrics.perf.flush_barriers,
            node.metrics.perf.pipelined_submits,
            node.metrics.wal_flush_failures,
        );
    }
    println!(
        "network: {} messages, {:.1} MB total",
        stats.total_msgs(),
        stats.total_bytes() as f64 / 1e6
    );
    let node0 = finals[0]
        .as_any()
        .downcast_ref::<MultiBftNode>()
        .expect("replica actor");
    assert!(
        node0.metrics.confirmed_txs > 0,
        "the live cluster should confirm transactions"
    );
    assert_eq!(
        node0.metrics.wal_flush_failures, 0,
        "no durability barrier may fail on a healthy disk"
    );
    // Dropping the actors joins each replica's WAL writer thread after
    // draining its in-flight barrier.
    drop(finals);
    let _ = std::fs::remove_dir_all(&run_dir);
    println!("\nok: the same state machines run under real threads and wall-clock time.");
}
