//! The four workloads and one repetition of each: build the deployment
//! the way `run_experiment` does (keys, replicas, durable pipeline, client
//! fleet), warm it up, measure the load window, drain, and compute the
//! sim-time metrics, layer counts and correctness gates.

use crate::host::{Cost, Stopwatch};
use crate::measure::{self, Latencies, Sample};
use crate::probe::{Layer, Probe, Recorded, Span, Submission, Timed, TimedNet};
use ladon_core::{Behavior, ConfirmRecord, MultiBftNode, NodeConfig, NodeMetrics, NodeMsg};
use ladon_crypto::{CryptoCounters, KeyRegistry};
use ladon_sim::{Actor, Engine, NetStats, NicNetwork, Topology};
use ladon_state::{ExecutionPipeline, WalOptions};
use ladon_types::{NetEnv, ProtocolKind, ReplicaId, SystemConfig, TimeNs};
use ladon_workload::{aggregate, ClientFleet, ExperimentConfig, RunData};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

/// Offered load as a share of nominal capacity (`total_block_rate ×
/// batch_size`).
pub const LOAD_FACTOR: f64 = 0.8;

/// Parallel execution workers per replica: at most the host's 2 vCPUs,
/// so the per-batch DAG workers of all replicas do not oversubscribe it.
pub const EXEC_LANES: u32 = 2;

/// The replica whose confirmed log is the reference: never a straggler,
/// never crashed.
pub const REFERENCE: usize = 0;

/// A crash of one file-backed replica and its restart from disk.
#[derive(Clone, Copy, Debug)]
pub struct CrashPlan {
    /// The victim replica.
    pub replica: usize,
    /// Crash time, seconds (sim).
    pub at_s: f64,
    /// Restart time, seconds (sim).
    pub restart_s: f64,
}

/// One workload: a deployment and its load schedule.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Protocol composition.
    pub protocol: ProtocolKind,
    /// Replicas.
    pub n: usize,
    /// Network environment.
    pub env: NetEnv,
    /// Transactions per batch.
    pub batch: u32,
    /// Accounts in the execution keyspace.
    pub keyspace: u32,
    /// Replica 1 straggles with this slowdown factor.
    pub straggler_k: Option<f64>,
    /// End of warmup = start of the measured window, seconds (sim).
    pub warmup_s: f64,
    /// End of offered load = end of the measured window, seconds (sim).
    pub load_end_s: f64,
    /// End of the drain, seconds (sim).
    pub end_s: f64,
    /// Crash and restart, if any.
    pub crash: Option<CrashPlan>,
    /// Epoch changes the reference replica must cross (a property of the
    /// workload the benchmark checks, not a service metric).
    pub min_epochs: u64,
}

/// Every workload, in reporting order.
pub const NAMES: [&str; 4] = [
    "lan_full",
    "wan_straggler",
    "crash_rejoin",
    "hotstuff_epochs",
];

impl Spec {
    /// The named workload.
    pub fn named(name: &str) -> Option<Spec> {
        let base = |name, protocol, n, env, batch| Spec {
            name,
            protocol,
            n,
            env,
            batch,
            keyspace: 4096,
            straggler_k: None,
            warmup_s: 2.0,
            load_end_s: 10.0,
            end_s: 13.0,
            crash: None,
            min_epochs: 0,
        };
        Some(match name {
            "lan_full" => Spec {
                // A 24 s window spans about ten epoch changes, so the
                // longest confirmation gap (an epoch-change pause) is seen
                // in every run rather than in some seeds only.
                load_end_s: 26.0,
                // Long enough for the slowest txs (about 16 s after
                // submission) to confirm.
                end_s: 56.0,
                ..base("lan_full", ProtocolKind::LadonPbft, 4, NetEnv::Lan, 4096)
            },
            "wan_straggler" => {
                let mut s = base(
                    "wan_straggler",
                    ProtocolKind::LadonPbft,
                    16,
                    NetEnv::Wan,
                    128,
                );
                s.straggler_k = Some(10.0);
                // At least 1.5 straggler intervals of warmup. A window of
                // two intervals keeps the window's confirmed share (about
                // 0.7) away from one half, where the median would flip
                // between confirmed and censored txs from seed to seed.
                let iv = s.experiment().straggler_interval_s();
                s.warmup_s = 1.5 * iv;
                s.load_end_s = s.warmup_s + 2.0 * iv;
                // Two straggler intervals: longer drains confirm nothing more.
                s.end_s = s.load_end_s + 2.0 * iv;
                s
            }
            "crash_rejoin" => Spec {
                keyspace: 1 << 20,
                warmup_s: 3.0,
                load_end_s: 40.0,
                end_s: 60.0,
                crash: Some(CrashPlan {
                    replica: 3,
                    at_s: 5.0,
                    restart_s: 20.0,
                }),
                ..base(
                    "crash_rejoin",
                    ProtocolKind::LadonPbft,
                    4,
                    NetEnv::Lan,
                    1024,
                )
            },
            "hotstuff_epochs" => Spec {
                load_end_s: 32.0,
                end_s: 35.0,
                min_epochs: 3,
                ..base(
                    "hotstuff_epochs",
                    ProtocolKind::LadonHotStuff,
                    4,
                    NetEnv::Lan,
                    4096,
                )
            },
            _ => return None,
        })
    }

    fn experiment(&self) -> ExperimentConfig {
        let mut e =
            ExperimentConfig::new(self.protocol, self.n, self.env).with_batch_size(self.batch);
        if let Some(k) = self.straggler_k {
            e = e.with_stragglers(1, k);
        }
        e
    }

    /// The system configuration (the runner's, with the straggler
    /// timeouts it implies), at [`EXEC_LANES`] and this keyspace.
    pub fn system(&self) -> SystemConfig {
        let mut sys = self.experiment().system();
        sys.exec_lanes = EXEC_LANES;
        sys.exec_keyspace = self.keyspace;
        sys
    }

    /// Offered load, tx/s.
    pub fn tx_rate(&self) -> f64 {
        let sys = self.system();
        sys.total_block_rate * sys.batch_size as f64 * LOAD_FACTOR
    }

    fn warmup(&self) -> TimeNs {
        TimeNs::from_secs_f64(self.warmup_s)
    }

    fn load_end(&self) -> TimeNs {
        TimeNs::from_secs_f64(self.load_end_s)
    }
}

/// Host time of the set-up phases.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// `KeyRegistry::generate`, ns.
    pub keygen_ns: u64,
    /// Replica and durable-pipeline construction, ns.
    pub build_ns: u64,
    /// `Engine::run_until(warmup)`, ns.
    pub warmup_ns: u64,
}

impl Setup {
    /// Total set-up wall time, seconds.
    pub fn total_s(&self) -> f64 {
        (self.keygen_ns + self.build_ns + self.warmup_ns) as f64 / 1e9
    }
}

/// End-to-end sim-time metrics; bit-identical across runs at one seed.
#[derive(Clone, Debug, PartialEq)]
pub struct SimMetrics {
    /// f+1-confirmed ktx per simulated second in the window.
    pub sim_ktps: f64,
    /// Latency distribution of txs submitted in the window.
    pub latency: Latencies,
    /// Share of sampled txs never f+1-confirmed.
    pub failed_frac: f64,
    /// §6.4 causal strength from `aggregate()`.
    pub causal_strength: f64,
    /// Longest gap between f+1 confirmations while load is offered, s.
    pub outage_s: f64,
    /// Restart → caught up (crash workloads); otherwise the median time a
    /// replica confirms an `sn` after the first replica did, s.
    pub rejoin_s: f64,
}

/// Deterministic layer counts over the window (summed over replicas and
/// incarnations unless noted).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Txs submitted over the whole run.
    pub submitted: u64,
    /// Txs f+1-confirmed inside the window.
    pub confirmed_txs: u64,
    /// Blocks f+1-confirmed inside the window.
    pub confirmed_blocks: u64,
    /// Engine events processed.
    pub events: u64,
    /// Messages sent by replicas.
    pub msgs: u64,
    /// Bytes sent by replicas.
    pub bytes: u64,
    /// DAG waves executed.
    pub exec_waves: u64,
    /// Ops the DAG scheduler executed.
    pub exec_ops: u64,
    /// WAL fsync-class barriers.
    pub wal_fsyncs: u64,
    /// WAL flush barriers.
    pub flush_barriers: u64,
    /// Barriers submitted while the previous one was in flight.
    pub pipelined_submits: u64,
    /// WAL bytes written.
    pub wal_bytes: u64,
    /// Snapshot installs.
    pub snapshot_installs: u64,
    /// Sync chunks verified.
    pub chunks_verified: u64,
    /// Snapshot bytes served.
    pub bytes_served: u64,
    /// WAL records replayed by recoveries.
    pub records_replayed: u64,
    /// Signature verifications (plain + aggregate).
    pub sig_verifies: u64,
    /// Certificate verifications skipped by the cache.
    pub qc_hits: u64,
    /// Authenticator operations.
    pub auth_ops: u64,
    /// View changes started at the reference replica.
    pub view_changes: u64,
    /// Epoch changes at the reference replica in the window.
    pub epochs: u64,
    /// Epoch changes at the reference replica over the whole run.
    pub epochs_total: u64,
    /// Blocks waiting for global confirmation at the reference, at load end.
    pub waiting_blocks: u64,
    /// Reference commit → confirm wait, median, ms (sim).
    pub wait_p50_ms: f64,
    /// Reference commit → confirm wait, 99th percentile, ms (sim).
    pub wait_p99_ms: f64,
    /// Restarts (rejoins) in the window.
    pub rejoins: u64,
}

/// Host time per layer over the window of a traced repetition, ns.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    /// Inclusive handler time per [`Layer`] (indexed by `Layer as usize`).
    pub inclusive: [u64; 9],
    /// Nested DAG execution time.
    pub exec: u64,
    /// Nested WAL flush time.
    pub flush: u64,
    /// Network-model time.
    pub net: u64,
    /// Consensus self time: non-sync replica handlers minus nested
    /// state and network time.
    pub consensus_self: u64,
    /// Sum of all timed spans (= sum of layer self times).
    pub covered: u64,
}

impl LayerTimes {
    fn from_spans(spans: &[Span]) -> Self {
        let mut t = LayerTimes::default();
        for s in spans {
            let d = s.dur_ns();
            t.inclusive[s.layer as usize] += d;
            t.exec += s.exec_ns;
            t.flush += s.flush_ns;
            t.net += s.net_ns;
            t.covered += d;
            if matches!(
                s.layer,
                Layer::Pbft | Layer::Hs | Layer::Checkpoint | Layer::ClientMsg | Layer::Timer
            ) {
                t.consensus_self += d.saturating_sub(s.exec_ns + s.flush_ns + s.net_ns);
            }
        }
        t
    }

    /// Inclusive time of one layer, ns.
    pub fn of(&self, l: Layer) -> u64 {
        self.inclusive[l as usize]
    }
}

/// Everything one repetition produced.
pub struct Rep {
    /// Set-up host time.
    pub setup: Setup,
    /// Host cost of the measured window.
    pub window: Cost,
    /// Sim-time metrics.
    pub sim: SimMetrics,
    /// Layer counts.
    pub counts: Counts,
    /// Host time of recoveries inside the window, ns.
    pub recover_ns: u64,
    /// Per-layer host time (traced repetitions only).
    pub layers: Option<LayerTimes>,
    /// The probe, for writing spans (traced repetitions only).
    pub probe: Option<Rc<Probe>>,
    /// Correctness gate failures (empty = all passed).
    pub failures: Vec<String>,
}

/// Cumulative counters of one replica incarnation, read from its
/// pipeline and metrics.
#[derive(Clone, Copy, Default)]
struct NodeCounters {
    waves: u64,
    ops: u64,
    fsyncs: u64,
    wal_bytes: u64,
    barriers: u64,
    pipelined: u64,
    installs: u64,
    chunks_verified: u64,
    bytes_served: u64,
}

impl NodeCounters {
    fn of(node: &MultiBftNode) -> Self {
        let sched = node.exec.sched_stats();
        let io = node.exec.wal_io_stats();
        let perf = node.exec.perf();
        Self {
            waves: sched.waves,
            ops: sched.scheduled_ops,
            fsyncs: io.fsyncs,
            wal_bytes: io.bytes_written,
            barriers: perf.flush_barriers,
            pipelined: perf.pipelined_submits,
            installs: node.metrics.snapshot_installs,
            chunks_verified: node.metrics.sync_chunks_verified,
            bytes_served: node.metrics.snapshot_bytes_served,
        }
    }

    fn add_delta(&self, end: &Self, c: &mut Counts) {
        c.exec_waves += end.waves - self.waves;
        c.exec_ops += end.ops - self.ops;
        c.wal_fsyncs += end.fsyncs - self.fsyncs;
        c.wal_bytes += end.wal_bytes - self.wal_bytes;
        c.flush_barriers += end.barriers - self.barriers;
        c.pipelined_submits += end.pipelined - self.pipelined;
        c.snapshot_installs += end.installs - self.installs;
        c.chunks_verified += end.chunks_verified - self.chunks_verified;
        c.bytes_served += end.bytes_served - self.bytes_served;
    }
}

/// A built deployment.
struct Deployment {
    engine: Engine<NodeMsg>,
    sys: SystemConfig,
    registry: KeyRegistry,
    submissions: Rc<RefCell<Vec<Submission>>>,
    probe: Option<Rc<Probe>>,
}

fn node_config(
    spec: &Spec,
    sys: &SystemConfig,
    registry: &KeyRegistry,
    r: usize,
    crash_at: Option<TimeNs>,
) -> NodeConfig {
    NodeConfig {
        sys: sys.clone(),
        protocol: spec.protocol,
        me: ReplicaId(r as u32),
        registry: registry.clone(),
        behavior: Behavior {
            straggler_k: if r == 1 { spec.straggler_k } else { None },
            crash_at,
            ..Behavior::default()
        },
        sample_interval: None,
    }
}

fn wal_options(sys: &SystemConfig) -> WalOptions {
    WalOptions {
        lane_groups: sys.wal_lane_groups,
        segment_records: sys.wal_segment_records,
    }
}

fn boxed(node: MultiBftNode, r: usize, probe: &Option<Rc<Probe>>) -> Box<dyn Actor<NodeMsg>> {
    match probe {
        Some(p) => {
            let perf = node.exec.perf();
            let seed = (perf.wall_exec_ns, perf.wall_wal_flush_ns);
            Box::new(Timed::new(node, r as u32, Layer::Timer, Rc::clone(p), seed))
        }
        None => Box::new(node),
    }
}

fn build(
    spec: &Spec,
    seed: u64,
    traced: bool,
    victim_dir: &Path,
    setup: &mut Setup,
) -> std::io::Result<Deployment> {
    let sys = spec.system();
    sys.validate()
        .map_err(|e| std::io::Error::other(format!("{e:?}")))?;
    let n = spec.n;
    let probe = traced.then(Probe::new);

    let t = Instant::now();
    let registry = KeyRegistry::generate(n, sys.opt_keys, seed ^ 0x5eed);
    setup.keygen_ns = t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    let net = NicNetwork::new(Topology::paper(spec.env, n + 1)); // +1: client fleet
    let mut engine: Engine<NodeMsg> = match &probe {
        Some(p) => Engine::new(TimedNet::new(net, Rc::clone(p)), seed),
        None => Engine::new(net, seed),
    };
    for r in 0..n {
        let crash = spec.crash.filter(|c| c.replica == r);
        let cfg = node_config(
            spec,
            &sys,
            &registry,
            r,
            crash.map(|c| TimeNs::from_secs_f64(c.at_s)),
        );
        let node = match crash {
            Some(_) => {
                let exec = ExecutionPipeline::recover_opts(
                    victim_dir,
                    sys.exec_keyspace,
                    sys.exec_lanes,
                    wal_options(&sys),
                )?;
                MultiBftNode::with_execution(cfg, exec)
            }
            None => MultiBftNode::new(cfg),
        };
        engine.add_actor(boxed(node, r, &probe));
    }
    let submissions = Rc::new(RefCell::new(Vec::new()));
    let fleet = Recorded::new(
        ClientFleet::new(n, sys.m, spec.tx_rate(), sys.tx_bytes, spec.load_end()),
        Rc::clone(&submissions),
    );
    match &probe {
        Some(p) => engine.add_actor(Box::new(Timed::new(
            fleet,
            n as u32,
            Layer::Client,
            Rc::clone(p),
            (0, 0),
        ))),
        None => engine.add_actor(Box::new(fleet)),
    };
    setup.build_ns = t.elapsed().as_nanos() as u64;

    Ok(Deployment {
        engine,
        sys,
        registry,
        submissions,
        probe,
    })
}

fn replica(engine: &Engine<NodeMsg>, r: usize) -> &MultiBftNode {
    engine
        .actor_as::<MultiBftNode>(r)
        .expect("replica actor downcasts to MultiBftNode")
}

/// Polls at 1 ms (sim) until the restarted replica `victim` has applied as
/// much as the reference, or `until`; returns the time since `since`.
/// `run_until` partitions time cleanly, so polling does not perturb the
/// run.
fn catch_up(
    engine: &mut Engine<NodeMsg>,
    victim: usize,
    since: TimeNs,
    until: TimeNs,
) -> Option<TimeNs> {
    loop {
        if replica(engine, victim).exec.applied() >= replica(engine, REFERENCE).exec.applied() {
            return Some(engine.now().saturating_sub(since));
        }
        if engine.now() >= until {
            return None;
        }
        let next = (engine.now() + TimeNs::from_millis(1)).min(until);
        engine.run_until(next);
    }
}

/// Runs one repetition of `spec` at `seed`. `scratch` holds the victim's
/// durable directory (created and removed here).
pub fn run_rep(spec: &Spec, seed: u64, traced: bool, scratch: &Path) -> std::io::Result<Rep> {
    let victim_dir: PathBuf =
        scratch.join(format!("{}-{}-{}", spec.name, std::process::id(), seed));
    let _ = std::fs::remove_dir_all(&victim_dir);
    let result = run_rep_in(spec, seed, traced, &victim_dir);
    let _ = std::fs::remove_dir_all(&victim_dir);
    result
}

fn run_rep_in(spec: &Spec, seed: u64, traced: bool, victim_dir: &Path) -> std::io::Result<Rep> {
    let n = spec.n;
    let mut setup = Setup::default();
    let mut d = build(spec, seed, traced, victim_dir, &mut setup)?;
    let (w0, w1) = (spec.warmup(), spec.load_end());

    // Warmup.
    CryptoCounters::reset();
    let t = Instant::now();
    d.engine.run_until(w0);
    setup.warmup_ns = t.elapsed().as_nanos() as u64;

    // Measured window: counters at its start.
    let mut counts = Counts::default();
    let mut base: Vec<NodeCounters> = (0..n)
        .map(|r| NodeCounters::of(replica(&d.engine, r)))
        .collect();
    let crypto0 = CryptoCounters::snapshot();
    let stats0: NetStats = d.engine.stats().clone();
    let events0 = d.engine.events_processed();
    let spans0 = d.probe.as_ref().map_or(0, |p| p.spans.borrow().len());
    let epochs0 = replica(&d.engine, REFERENCE).metrics.epochs.len();
    let mut old_metrics: Vec<(usize, NodeMetrics)> = Vec::new();
    let mut recover_ns = 0u64;
    let mut rejoin: Option<TimeNs> = None;
    let mut victim: Option<(usize, TimeNs)> = None;

    let sw = Stopwatch::start();
    if let Some(c) = spec.crash {
        let restart = TimeNs::from_secs_f64(c.restart_s);
        d.engine.run_until(restart);
        let dead = replica(&d.engine, c.replica);
        base[c.replica].add_delta(&NodeCounters::of(dead), &mut counts);
        old_metrics.push((c.replica, dead.metrics.clone()));

        // A new process: recover the durable pipeline from disk.
        let t = Instant::now();
        let span_start = d.probe.as_ref().map(|p| p.now_ns());
        let exec = ExecutionPipeline::recover_opts(
            victim_dir,
            d.sys.exec_keyspace,
            d.sys.exec_lanes,
            wal_options(&d.sys),
        )?;
        counts.records_replayed += exec.recovery_stats().records_replayed;
        let node = MultiBftNode::with_execution(
            node_config(spec, &d.sys, &d.registry, c.replica, None),
            exec,
        );
        recover_ns += t.elapsed().as_nanos() as u64;
        if let (Some(p), Some(s)) = (&d.probe, span_start) {
            p.record(Layer::Recover, c.replica as u32, s, restart);
        }
        base[c.replica] = NodeCounters::of(&node);
        let boxed_node = boxed(node, c.replica, &d.probe);
        d.engine.restart_actor(c.replica, boxed_node);
        counts.rejoins += 1;

        victim = Some((c.replica, restart));
        rejoin = catch_up(&mut d.engine, c.replica, restart, w1);
    }
    d.engine.run_until(w1);
    let window = sw.stop();
    let spans1 = d.probe.as_ref().map_or(0, |p| p.spans.borrow().len());
    let crypto = CryptoCounters::snapshot().since(&crypto0);
    let stats = d.engine.stats().clone().since(&stats0);
    counts.events = d.engine.events_processed() - events0;
    counts.msgs = stats.msgs_sent.iter().take(n).sum();
    counts.bytes = stats.bytes_sent.iter().take(n).sum();
    counts.sig_verifies = crypto.sig_verifies();
    counts.qc_hits = crypto.qc_verify_hits;
    counts.auth_ops = crypto.authenticator_ops();
    for (r, b) in base.iter().enumerate() {
        b.add_delta(&NodeCounters::of(replica(&d.engine, r)), &mut counts);
    }
    let reference = replica(&d.engine, REFERENCE);
    counts.waiting_blocks = reference.waiting_count() as u64;
    counts.epochs = (reference.metrics.epochs.len() - epochs0) as u64;
    counts.view_changes = reference
        .metrics
        .view_changes
        .iter()
        .filter(|&&(t, _, _)| t >= w0 && t < w1)
        .count() as u64;

    let layers = d
        .probe
        .as_ref()
        .map(|p| LayerTimes::from_spans(&p.spans.borrow()[spans0..spans1]));

    // Drain (still watching a restarted replica that has not caught up).
    let end = TimeNs::from_secs_f64(spec.end_s);
    if let (None, Some((v, restart))) = (rejoin, victim) {
        rejoin = catch_up(&mut d.engine, v, restart, end);
    }
    d.engine.run_until(end);

    let mut failures = Vec::new();
    let sim = finish(spec, &d, &old_metrics, rejoin, &mut counts, &mut failures);
    Ok(Rep {
        setup,
        window,
        sim,
        counts,
        recover_ns,
        layers,
        probe: d.probe,
        failures,
    })
}

/// Computes the sim-time metrics and checks the correctness gates once
/// the drain is over.
fn finish(
    spec: &Spec,
    d: &Deployment,
    old_metrics: &[(usize, NodeMetrics)],
    rejoin: Option<TimeNs>,
    counts: &mut Counts,
    failures: &mut Vec<String>,
) -> SimMetrics {
    let n = spec.n;
    let f = d.sys.f();
    let (w0, w1) = (spec.warmup(), spec.load_end());
    let end = TimeNs::from_secs_f64(spec.end_s);
    let nodes: Vec<&MultiBftNode> = (0..n).map(|r| replica(&d.engine, r)).collect();
    let olds = |r: usize| {
        old_metrics
            .iter()
            .filter(move |(o, _)| *o == r)
            .map(|(_, m)| m)
    };

    // Per-replica records over every incarnation.
    let confirms: Vec<Vec<&ConfirmRecord>> = (0..n)
        .map(|r| {
            olds(r)
                .flat_map(|m| m.confirms.iter())
                .chain(nodes[r].metrics.confirms.iter())
                .collect()
        })
        .collect();
    let confirm_maps: Vec<_> = confirms
        .iter()
        .map(|cs| measure::confirm_times(cs))
        .collect();
    let f1 = measure::f1_times(&confirm_maps, f);

    // Gate: replicas agree on the block at every confirmed sn they share.
    if let Err(e) = measure::sn_agreement(&confirms) {
        failures.push(format!("confirmed-log agreement: {e}"));
    }

    // Throughput and latency from the reference log.
    let mut ref_log: Vec<&ConfirmRecord> = nodes[REFERENCE].metrics.confirms.iter().collect();
    ref_log.sort_by_key(|c| c.sn);
    let mut samples = Vec::new();
    let (mut confirmed_all, mut arrival_confirmed) = (0u64, 0u128);
    for c in ref_log.iter().filter(|c| !c.is_nil && c.tx_count > 0) {
        let Some(&t) = f1.get(&(c.instance, c.round)) else {
            continue;
        };
        confirmed_all += c.tx_count as u64;
        arrival_confirmed += c.arrival_sum_ns;
        if t >= w0 && t < w1 {
            counts.confirmed_txs += c.tx_count as u64;
            counts.confirmed_blocks += 1;
        }
        let mean_arrival = TimeNs((c.arrival_sum_ns / c.tx_count as u128) as u64);
        if mean_arrival >= w0 && mean_arrival < w1 {
            samples.push(Sample {
                latency_s: t.saturating_sub(mean_arrival).as_secs_f64(),
                weight: c.tx_count as u64,
            });
        }
    }
    let subs = d.submissions.borrow();
    counts.submitted = subs.iter().map(|s| s.count as u64).sum();
    let arrival_all: u128 = subs.iter().map(|s| s.arrival_sum_ns).sum();
    if confirmed_all > counts.submitted {
        failures.push(format!(
            "{} txs f+1-confirmed but only {} submitted",
            confirmed_all, counts.submitted
        ));
    }
    // Txs never f+1-confirmed are censored. Their submission times are
    // known exactly in sum, so their mean wait until the end of the drain
    // is a lower bound on their latency.
    let censored = counts.submitted.saturating_sub(confirmed_all);
    let censored_floor_s = if censored > 0 {
        let mean =
            TimeNs((arrival_all.saturating_sub(arrival_confirmed) / censored as u128) as u64);
        end.saturating_sub(mean).as_secs_f64()
    } else {
        0.0
    };
    let latency = Latencies::new(samples, censored, censored_floor_s);
    let failed_frac = if latency.count() > 0 {
        latency.censored() as f64 / latency.count() as f64
    } else {
        0.0
    };

    let f1_list: Vec<TimeNs> = f1.values().copied().collect();
    let outage_s = measure::longest_gap(&f1_list, w0, w1).as_secs_f64();
    let rejoin_s = match (spec.crash, rejoin) {
        (Some(_), Some(t)) => t.as_secs_f64(),
        (Some(c), None) => {
            failures.push(format!(
                "replica {} never caught up after its restart",
                c.replica
            ));
            0.0
        }
        (None, _) => measure::median_confirm_lag(&confirms, REFERENCE, w0, w1),
    };

    // Ordering wait at the reference: partial commit → global confirm.
    let commits = measure::commit_times(&nodes[REFERENCE].metrics.commits);
    let waits: Vec<f64> = nodes[REFERENCE]
        .metrics
        .confirms
        .iter()
        .filter(|c| c.time >= w0 && c.time < w1)
        .filter_map(|c| {
            commits
                .get(&(c.instance, c.round))
                .map(|&t| c.time.saturating_sub(t).as_millis_f64())
        })
        .collect();
    (counts.wait_p50_ms, counts.wait_p99_ms) = measure::p50_p99(waits);
    counts.epochs_total = nodes[REFERENCE].metrics.epochs.len() as u64;
    if counts.epochs_total < spec.min_epochs {
        failures.push(format!(
            "crossed {} epoch changes, the workload needs {}",
            counts.epochs_total, spec.min_epochs
        ));
    }

    // Causal strength and state-root agreement from `aggregate()`, with
    // a restarted replica's incarnations merged.
    let merged: Vec<NodeMetrics> = (0..n)
        .map(|r| {
            let mut m = nodes[r].metrics.clone();
            for old in olds(r) {
                m.confirms.extend(old.confirms.iter().cloned());
                m.commits.extend(old.commits.iter().cloned());
                m.state_roots.extend(old.state_roots.iter().cloned());
                m.root_conflicts += old.root_conflicts;
                m.wal_flush_failures += old.wal_flush_failures;
                m.wal_write_failures += old.wal_write_failures;
                m.snapshot_decode_failures += old.snapshot_decode_failures;
            }
            m
        })
        .collect();
    let report = aggregate(&RunData {
        nodes: merged,
        f,
        window_start: w0,
        window_end: w1,
        reference: REFERENCE,
        waiting_blocks: counts.waiting_blocks as usize,
    });
    if report.state_root_agreement != 1.0 {
        failures.push(format!(
            "state_root_agreement = {}",
            report.state_root_agreement
        ));
    }
    if report.root_conflicts != 0 {
        failures.push(format!("root_conflicts = {}", report.root_conflicts));
    }
    for (name, v) in [
        ("wal_flush_failures", report.wal_flush_failures),
        ("wal_write_failures", report.wal_write_failures),
        ("snapshot_decode_failures", report.snapshot_decode_failures),
    ] {
        if v != 0 {
            failures.push(format!("{name} = {v}"));
        }
    }

    let window_s = w1.saturating_sub(w0).as_secs_f64();
    SimMetrics {
        sim_ktps: counts.confirmed_txs as f64 / window_s / 1e3,
        latency,
        failed_frac,
        causal_strength: report.causal_strength,
        outage_s,
        rejoin_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short `lan_full`: the same deployment, a one-second window.
    fn tiny(name: &str) -> Spec {
        Spec {
            warmup_s: 0.5,
            load_end_s: 1.5,
            end_s: 3.0,
            ..Spec::named(name).expect("known workload")
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("clusterbench-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create test scratch dir");
        dir
    }

    #[test]
    fn wrapped_actors_still_downcast() {
        let spec = tiny("lan_full");
        let dir = scratch("downcast");
        let mut d = build(&spec, 3, true, &dir, &mut Setup::default()).expect("build");
        d.engine.run_until(TimeNs::from_millis(500));
        for r in 0..spec.n {
            assert!(
                d.engine.actor_as::<MultiBftNode>(r).is_some(),
                "replica {r}"
            );
        }
        assert!(d.engine.actor_as::<ClientFleet>(spec.n).is_some());
        assert!(d
            .probe
            .as_ref()
            .is_some_and(|p| !p.spans.borrow().is_empty()));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn same_seed_gives_identical_sim_metrics_traced_or_not() {
        let spec = tiny("lan_full");
        let dir = scratch("determinism");
        let a = run_rep(&spec, 11, false, &dir).expect("untraced run");
        let b = run_rep(&spec, 11, true, &dir).expect("traced run");
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert!(a.counts.confirmed_txs > 0);
        assert_eq!(a.sim, b.sim);
        assert_eq!(a.counts, b.counts);
        assert!(b.layers.is_some() && a.layers.is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn different_seed_changes_generated_inputs() {
        let spec = tiny("lan_full");
        let dir = scratch("seeds");
        let inputs = |seed| {
            let mut d = build(&spec, seed, false, &dir, &mut Setup::default()).expect("build");
            d.engine.run_until(TimeNs::from_secs(1));
            let subs = d.submissions.borrow().clone();
            subs
        };
        let a = inputs(1);
        let b = inputs(2);
        assert!(!a.is_empty());
        assert_eq!(
            a.len(),
            b.len(),
            "the offered load does not depend on the seed"
        );
        assert_ne!(a, b, "relay choices must follow the seed");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn crash_restart_recovers_and_rejoins() {
        let spec = Spec {
            keyspace: 4096,
            // Past the 10 s view-change timeout the crash triggers.
            warmup_s: 0.5,
            load_end_s: 13.0,
            end_s: 16.0,
            crash: Some(CrashPlan {
                replica: 3,
                at_s: 1.0,
                restart_s: 2.0,
            }),
            ..Spec::named("crash_rejoin").expect("known workload")
        };
        let dir = scratch("crash");
        let rep = run_rep(&spec, 5, false, &dir).expect("run");
        assert!(rep.failures.is_empty(), "{:?}", rep.failures);
        assert_eq!(rep.counts.rejoins, 1);
        assert!(rep.sim.rejoin_s > 0.0);
        let _ = std::fs::remove_dir_all(dir);
    }
}
