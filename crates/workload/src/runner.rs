//! The experiment runner: builds a full simulated deployment from a
//! configuration, runs it, and aggregates the paper's metrics.

use crate::client::ClientFleet;
use crate::metrics::{aggregate, Report, RunData};
use ladon_core::{Behavior, MultiBftNode, NodeConfig, NodeMsg};
use ladon_crypto::{CryptoCounters, KeyRegistry};
use ladon_sim::{Engine, NicNetwork, Topology};
use ladon_types::{NetEnv, ProtocolKind, ReplicaId, SystemConfig, TimeNs};

/// Configuration of one experiment run.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Replica count `n` (instances `m = n` per the paper).
    pub n: usize,
    /// Network environment.
    pub env: NetEnv,
    /// Measurement window length in seconds (after warmup).
    pub duration_s: f64,
    /// Warmup seconds excluded from measurement.
    pub warmup_s: f64,
    /// Number of honest stragglers (replica ids 1, 2, …).
    pub stragglers: usize,
    /// Straggler slowdown factor `k` (proposal rate = normal / k).
    pub straggler_k: f64,
    /// Make stragglers Byzantine rank-minimizers (§6.3.1).
    pub byzantine_stragglers: bool,
    /// Ablation: run all honest leaders without the proposal-time rank
    /// refresh (Algorithm 2 taken literally).
    pub stale_rank_reports: bool,
    /// Crash `(replica, at_seconds)` (Fig. 8).
    pub crash: Option<(usize, f64)>,
    /// Offered load as a fraction of nominal capacity
    /// (`total_block_rate × batch_size`).
    pub load_factor: f64,
    /// Sample the confirmed-tx timeline at this interval (seconds).
    pub sample_interval_s: Option<f64>,
    /// Deterministic seed.
    pub seed: u64,
    /// Override the epoch length `l(e)` (paper default 64).
    pub epoch_length: Option<u64>,
    /// Override the view-change timeout in seconds (paper Fig. 8: 10 s).
    pub view_timeout_s: Option<f64>,
    /// Override the batch size (paper default 4096).
    pub batch_size: Option<u32>,
}

impl ExperimentConfig {
    /// Paper-default configuration for a protocol at scale `n`.
    pub fn new(protocol: ProtocolKind, n: usize, env: NetEnv) -> Self {
        Self {
            protocol,
            n,
            env,
            duration_s: 10.0,
            warmup_s: 5.0,
            stragglers: 0,
            straggler_k: 10.0,
            byzantine_stragglers: false,
            stale_rank_reports: false,
            crash: None,
            load_factor: 1.0,
            sample_interval_s: None,
            seed: 42,
            epoch_length: None,
            view_timeout_s: None,
            batch_size: None,
        }
    }

    /// Sets the measurement window.
    pub fn duration_secs(mut self, s: f64) -> Self {
        self.duration_s = s;
        self
    }

    /// Sets the warmup.
    pub fn warmup_secs(mut self, s: f64) -> Self {
        self.warmup_s = s;
        self
    }

    /// Adds `count` honest stragglers with factor `k`.
    pub fn with_stragglers(mut self, count: usize, k: f64) -> Self {
        self.stragglers = count;
        self.straggler_k = k;
        self
    }

    /// Makes the stragglers Byzantine rank minimizers.
    pub fn byzantine(mut self) -> Self {
        self.byzantine_stragglers = true;
        self
    }

    /// Ablation: disable the proposal-time rank refresh on all leaders.
    pub fn stale_ranks(mut self) -> Self {
        self.stale_rank_reports = true;
        self
    }

    /// Crashes `replica` at `at_s` seconds.
    pub fn with_crash(mut self, replica: usize, at_s: f64) -> Self {
        self.crash = Some((replica, at_s));
        self
    }

    /// Sets the offered-load factor.
    pub fn load(mut self, factor: f64) -> Self {
        self.load_factor = factor;
        self
    }

    /// Enables timeline sampling.
    pub fn sampled(mut self, every_s: f64) -> Self {
        self.sample_interval_s = Some(every_s);
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the epoch length.
    pub fn with_epoch_length(mut self, l: u64) -> Self {
        self.epoch_length = Some(l);
        self
    }

    /// Overrides the view-change timeout.
    pub fn with_view_timeout(mut self, s: f64) -> Self {
        self.view_timeout_s = Some(s);
        self
    }

    /// Overrides the batch size.
    pub fn with_batch_size(mut self, b: u32) -> Self {
        self.batch_size = Some(b);
        self
    }

    /// Applies scale-preset measurement windows, stretching both warmup
    /// and duration when the run has stragglers (call *after*
    /// [`Self::with_stragglers`]). See [`crate::Scale::straggler_duration_s`].
    pub fn scaled_windows(mut self, sc: crate::Scale) -> Self {
        if self.stragglers > 0 {
            let iv = self.straggler_interval_s();
            self.duration_s = sc.straggler_duration_s(iv);
            self.warmup_s = sc.straggler_warmup_s(iv);
        } else {
            self.duration_s = sc.duration_s();
            self.warmup_s = sc.warmup_s();
        }
        self
    }

    /// The interval between a straggling leader's proposals:
    /// `k × m / total_block_rate` (§6.1 fixes straggler proposal rates to
    /// `1/k` of normal leaders').
    pub fn straggler_interval_s(&self) -> f64 {
        let sys = SystemConfig::paper_default(self.n, self.env);
        self.straggler_k * sys.proposal_interval().as_secs_f64()
    }

    /// The system configuration this experiment implies.
    pub fn system(&self) -> SystemConfig {
        let mut sys = SystemConfig::paper_default(self.n, self.env);
        if let Some(l) = self.epoch_length {
            sys.epoch_length = l;
            // Keep the snapshot-serving policy inside the (shrunken) log
            // retention window.
            sys.snapshot_min_lag = sys.snapshot_min_lag.min(l);
        }
        if let Some(t) = self.view_timeout_s {
            sys.view_change_timeout = TimeNs::from_secs_f64(t);
        } else if self.stragglers > 0 {
            // §6.1: stragglers delay proposals "without triggering
            // timeouts" — they stay under every detection mechanism (view
            // timeout, ISS/Mir quiet-leader detector, RCC lag removal).
            // Raise each threshold comfortably above the straggler
            // interval, or every slow round degenerates into view changes
            // / removals and the run stops representing the paper's
            // setting (whose RCC and ISS both lose ≈ 90 % to a straggler).
            let iv = self.straggler_interval_s();
            let floor = 2.5 * iv;
            if sys.view_change_timeout.as_secs_f64() < floor {
                sys.view_change_timeout = TimeNs::from_secs_f64(floor);
            }
            if sys.quiet_leader_timeout.as_secs_f64() < floor {
                sys.quiet_leader_timeout = TimeNs::from_secs_f64(floor);
            }
            // Lag accrues at just under one block per straggler interval
            // for the whole run; size the threshold past any finite window.
            sys.rcc_lag_threshold = u64::MAX;
        }
        if let Some(b) = self.batch_size {
            sys.batch_size = b;
        }
        sys
    }
}

/// Runs one experiment and aggregates its report.
pub fn run_experiment(cfg: &ExperimentConfig) -> Report {
    let sys = cfg.system();
    sys.validate().expect("invalid experiment configuration");
    let n = sys.n;
    let f = sys.f();

    let registry = KeyRegistry::generate(n, sys.opt_keys, cfg.seed ^ 0x5eed);
    let topo = Topology::paper(cfg.env, n + 1); // +1 for the client fleet
    let net = NicNetwork::new(topo);
    let mut engine: Engine<NodeMsg> = Engine::new(net, cfg.seed);

    let warmup = TimeNs::from_secs_f64(cfg.warmup_s);
    let end = warmup + TimeNs::from_secs_f64(cfg.duration_s);

    // Stragglers occupy replica ids 1..=count (replica 0 stays honest so
    // it can serve as DQBFT's ordering leader and the reference log).
    let straggler_ids: Vec<usize> = (1..=cfg.stragglers.min(n - 1)).collect();

    for r in 0..n {
        let behavior = Behavior {
            straggler_k: straggler_ids.contains(&r).then_some(cfg.straggler_k),
            rank_minimize: cfg.byzantine_stragglers && straggler_ids.contains(&r),
            stale_rank_reports: cfg.stale_rank_reports,
            crash_at: cfg
                .crash
                .and_then(|(cr, at)| (cr == r).then(|| TimeNs::from_secs_f64(at))),
        };
        let node = MultiBftNode::new(NodeConfig {
            sys: sys.clone(),
            protocol: cfg.protocol,
            me: ReplicaId(r as u32),
            registry: registry.clone(),
            behavior,
            sample_interval: cfg.sample_interval_s.map(TimeNs::from_secs_f64),
        });
        engine.add_actor(Box::new(node));
    }

    // Offered load: nominal capacity × load factor.
    let tx_rate = sys.total_block_rate * sys.batch_size as f64 * cfg.load_factor;
    engine.add_actor(Box::new(ClientFleet::new(
        n,
        sys.m,
        tx_rate,
        sys.tx_bytes,
        end,
    )));

    // Warmup, snapshot, measure, snapshot.
    CryptoCounters::reset();
    engine.run_until(warmup);
    let stats0 = engine.stats().clone();
    let crypto0 = CryptoCounters::snapshot();
    engine.run_until(end + TimeNs::from_millis(1));
    let stats1 = engine.stats().clone().since(&stats0);
    let crypto1 = CryptoCounters::snapshot().since(&crypto0);

    // Reference replica: first honest, non-straggling, non-crashed.
    let crashed = cfg.crash.map(|(r, _)| r);
    let reference = (0..n)
        .find(|r| Some(*r) != crashed && !straggler_ids.contains(r))
        .unwrap_or(0);

    let nodes: Vec<_> = (0..n)
        .map(|r| {
            engine
                .actor_as::<MultiBftNode>(r)
                .expect("replica actor")
                .metrics
                .clone()
        })
        .collect();
    let waiting = engine
        .actor_as::<MultiBftNode>(reference)
        .map(|x| x.waiting_count())
        .unwrap_or(0);

    let mut report = aggregate(&RunData {
        nodes,
        f,
        window_start: warmup,
        window_end: end,
        reference,
        waiting_blocks: waiting,
    });

    let window = end.saturating_sub(warmup);
    report.bandwidth_mbs = stats1.mean_bandwidth_mbs(n, window);
    // CPU proxy: per-replica crypto cost over the window, as % of a core.
    report.cpu_pct = crypto1.cpu_seconds_proxy() / n as f64 / window.as_secs_f64() * 100.0;
    report.msgs_total = stats1.msgs_sent.iter().take(n).sum();
    report.bytes_total = stats1.bytes_sent.iter().take(n).sum();
    // Fold the run-level network counters (per-actor drops included)
    // and the window's crypto counters (thread-local, so they cover the
    // whole simulated fleet) into the unified snapshot next to the
    // per-replica merge from `aggregate`.
    let mut run_registry = ladon_obs::MetricsRegistry::new();
    ladon_obs::SnapshotInto::snapshot_into(&stats1, &mut run_registry);
    ladon_obs::SnapshotInto::snapshot_into(&crypto1, &mut run_registry);
    report.metrics.merge(&run_registry.snapshot());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end smoke test: a small Ladon-PBFT cluster confirms client
    /// transactions under the full stack.
    #[test]
    fn ladon_pbft_smoke() {
        let cfg = ExperimentConfig::new(ProtocolKind::LadonPbft, 4, NetEnv::Lan)
            .duration_secs(3.0)
            .warmup_secs(2.0)
            .with_seed(7);
        let report = run_experiment(&cfg);
        assert!(
            report.committed_txs > 0,
            "no transactions confirmed: {report:?}"
        );
        assert!(report.mean_latency_s > 0.0);
        assert!(report.causal_strength > 0.99);
        // Observability surface: crypto, per-actor network accounting and
        // lifecycle stage latencies all reach the report.
        let reg = report.metrics.registry();
        assert!(
            reg.counter_value("crypto.verifies") + reg.counter_value("crypto.agg_verifies") > 0,
            "a confirming cluster must verify signatures: {report:?}"
        );
        assert_eq!(
            reg.series("net.dropped_per_actor")
                .map_or(0, |s| s.iter().sum::<u64>()),
            reg.counter_value("net.dropped")
        );
        let confirmed = report
            .stage_latencies
            .iter()
            .find(|s| s.transition == "proposed_to_confirmed")
            .expect("lifecycle trace must cover proposed -> confirmed");
        assert!(confirmed.count > 0 && confirmed.mean_ms > 0.0);
        assert!(
            reg.counter_value("pipeline.flush_barriers") > 0,
            "group-commit flushes must be counted: {report:?}"
        );
    }

    #[test]
    fn iss_pbft_smoke() {
        let cfg = ExperimentConfig::new(ProtocolKind::IssPbft, 4, NetEnv::Lan)
            .duration_secs(3.0)
            .warmup_secs(2.0)
            .with_seed(7);
        let report = run_experiment(&cfg);
        assert!(report.committed_txs > 0, "{report:?}");
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let cfg = ExperimentConfig::new(ProtocolKind::LadonPbft, 4, NetEnv::Lan)
            .duration_secs(2.0)
            .warmup_secs(1.0)
            .with_seed(11);
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert_eq!(a.committed_txs, b.committed_txs);
        assert_eq!(a.confirmed_blocks, b.confirmed_blocks);
        assert!((a.mean_latency_s - b.mean_latency_s).abs() < 1e-12);
    }
}
