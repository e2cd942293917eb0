//! The Multi-BFT replica node (Fig. 4).
//!
//! One [`MultiBftNode`] per replica hosts:
//!
//! - `m` consensus instances (PBFT or chained HotStuff), each a pure
//!   state machine from `ladon-pbft` / `ladon-hotstuff`;
//! - the shared `curRank` state (Algorithm 2's `curRank`);
//! - a global orderer (Ladon's Algorithm 1 or a baseline);
//! - the epoch pacemaker and rotating buckets (Ladon protocols);
//! - the synthetic mempool fed by relayed client transaction groups;
//! - per-instance proposal pacing (the paper's fixed total block rate),
//!   straggler / Byzantine / crash behavior injection;
//! - metrics used by every figure and table.
//!
//! The node implements `ladon-sim`'s [`Actor`] trait, so it runs under the
//! deterministic engine and the live threaded runtime unchanged.

use crate::bucket::{Mempool, RotatingBuckets, TxGroup};
use crate::dqbft::DqbftOrderer;
use crate::epoch::{EpochEvent, EpochPacemaker};
use crate::msg::{ClientTxs, NodeMsg};
use crate::ordering::{ConfirmedBlock, GlobalOrderer, LadonOrderer};
use crate::predetermined::{BaselineKind, PredeterminedOrderer};
use crate::sync::{select_chunk_lanes, SyncEntry, SyncRequest, SyncResponse};
use ladon_crypto::{KeyRegistry, RankCert};
use ladon_hotstuff::{HsConfig, HsInstance, HsRankMode};
use ladon_obs::{SnapshotInto, Stage, TraceJournal};
use ladon_pbft::{InstanceConfig, PbftInstance, RankMode, RankStrategy};
use ladon_sim::{Actor, ActorId, Context};
use ladon_state::{
    delta_lanes, ChunkCache, ExecOutcome, ExecSchedStats, ExecutionPipeline, PipelinePerf,
    ReplayStats, Snapshot, SnapshotChunk, WalIoStats,
};
use ladon_types::{
    Batch, Block, Digest, InstanceId, ProtocolKind, Rank, ReplicaId, Round, SystemConfig, TimeNs,
    View, WireSize,
};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Fault/behavior injection for one replica (§6.1 straggler settings).
#[derive(Clone, Debug, Default)]
pub struct Behavior {
    /// Honest straggler factor `k`: the replica's leader proposals run at
    /// `1/k` of the normal rate and carry empty batches (§6.1).
    pub straggler_k: Option<f64>,
    /// Byzantine straggler: additionally manipulate rank selection by
    /// using the lowest 2f+1 collected ranks (§6.3.1).
    pub rank_minimize: bool,
    /// Ablation: skip the leader's proposal-time refresh of its own rank
    /// report (Algorithm 2 taken literally; see
    /// [`ladon_pbft::RankStrategy::HonestStale`]).
    pub stale_rank_reports: bool,
    /// Crash at this instant (Fig. 8).
    pub crash_at: Option<TimeNs>,
}

/// Node configuration.
#[derive(Clone)]
pub struct NodeConfig {
    /// System-wide parameters.
    pub sys: SystemConfig,
    /// Which Multi-BFT protocol composition to run.
    pub protocol: ProtocolKind,
    /// This replica.
    pub me: ReplicaId,
    /// The PKI oracle.
    pub registry: KeyRegistry,
    /// Behavior injection.
    pub behavior: Behavior,
    /// Sample cumulative confirmed transactions at this interval
    /// (Fig. 8 timeline); `None` disables sampling.
    pub sample_interval: Option<TimeNs>,
}

/// A commit observation (for cross-replica f+1 aggregation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    /// Producing instance.
    pub instance: u32,
    /// Round within the instance.
    pub round: u64,
    /// Block rank.
    pub rank: u64,
    /// Local partial-commit time.
    pub time: TimeNs,
}

/// A global confirmation observation.
#[derive(Clone, Debug)]
pub struct ConfirmRecord {
    /// Global ordering index.
    pub sn: u64,
    /// Producing instance.
    pub instance: u32,
    /// Round within the instance.
    pub round: u64,
    /// Block rank.
    pub rank: u64,
    /// Transactions in the block.
    pub tx_count: u32,
    /// Sum of member transactions' submission times.
    pub arrival_sum_ns: u128,
    /// Leader-side generation time (causality metric).
    pub proposed_at: TimeNs,
    /// Local confirmation time.
    pub time: TimeNs,
    /// Nil / dummy block?
    pub is_nil: bool,
}

/// Metrics collected by one node.
#[derive(Clone, Debug, Default)]
pub struct NodeMetrics {
    /// Partial commits in arrival order.
    pub commits: Vec<CommitRecord>,
    /// Global confirmations in `sn` order.
    pub confirms: Vec<ConfirmRecord>,
    /// Cumulative confirmed transactions.
    pub confirmed_txs: u64,
    /// Timeline samples `(time, cumulative confirmed txs)`.
    pub samples: Vec<(TimeNs, u64)>,
    /// View changes started `(time, instance, view)`.
    pub view_changes: Vec<(TimeNs, u32, u64)>,
    /// New views installed `(time, instance, view)`.
    pub new_views: Vec<(TimeNs, u32, u64)>,
    /// Epoch advances `(time, epoch)`.
    pub epochs: Vec<(TimeNs, u64)>,
    /// Transactions deposited into the local mempool.
    pub deposited_txs: u64,
    /// State-transfer requests sent (§5.2.1).
    pub sync_requests: u64,
    /// Blocks installed from peers' sync responses.
    pub sync_installed: u64,
    /// Transactions executed by the state machine (confirmed order).
    pub executed_txs: u64,
    /// Execution state roots at epoch checkpoints `(time, epoch, root)`.
    pub state_roots: Vec<(TimeNs, u64, Digest)>,
    /// Peer snapshots installed (execution fast-forward).
    pub snapshot_installs: u64,
    /// Snapshot heads served to lagging peers (one per sync response that
    /// carried a snapshot, however many chunk rounds the transfer takes).
    pub snapshots_served: u64,
    /// Per-lane snapshot chunks shipped in sync responses. With delta
    /// sync this scales with *changed* lanes, not state size — a
    /// requester that already holds most lanes costs chunks ∝ the delta.
    pub snapshot_chunks_served: u64,
    /// Wire bytes of the chunks behind `snapshot_chunks_served`.
    pub snapshot_bytes_served: u64,
    /// Requester-side: snapshot lanes satisfied from *local* state
    /// (the lane root in the peer's head matched a lane we already
    /// held, so the lane was reconstructed in place, never shipped).
    pub snapshot_chunks_reused: u64,
    /// Snapshot-store files (snapshots or stashed chunks) that failed to
    /// read, decode, or verify when the store directory was scanned —
    /// mirrored from [`ladon_state::ExecutionPipeline`]. Previously a
    /// corrupt `snap-*.bin` was skipped silently; nonzero here means
    /// recovery fell back past the newest checkpoint it should have had.
    pub snapshot_decode_failures: u64,
    /// Confirmed `sn`s this replica never recorded a `ConfirmRecord` for
    /// because a snapshot install fast-forwarded past them (the
    /// confirm-record gap a log join on `sn` must tolerate). Summed over
    /// every install.
    pub skipped_sns: u64,
    /// Confirmed blocks the execution pipeline refused because they
    /// arrived above the next expected `sn` (dense-order violation).
    /// Must stay 0; nonzero means a confirmation bug corrupted the
    /// execution order and the replica's root can no longer advance.
    pub exec_gaps: u64,
    /// Durable WAL writes (segment appends, compaction rotations,
    /// manifest publishes) that reported failure — mirrored from
    /// [`ladon_state::ExecutionPipeline::wal_write_failures`] so silent
    /// append failures surface in runs and test assertions. Must stay 0;
    /// nonzero means a crash right now could lose acknowledged records
    /// (the next successful compaction repairs the backend from the
    /// in-memory mirror).
    pub wal_write_failures: u64,
    /// Checkpoint quorums observed on a root different from ours.
    pub root_conflicts: u64,
    /// The execution pipeline's barrier accounting, refreshed after
    /// every drain; the only place its `pipeline.*` counters are named
    /// is its own `SnapshotInto`.
    pub perf: PipelinePerf,
    /// The dependency-DAG wave scheduler's cumulative `exec.*` counters,
    /// refreshed with [`Self::perf`].
    pub sched: ExecSchedStats,
    /// What the last recovery replayed (`replay.*`); all zeros for a
    /// node that never recovered.
    pub recovery: ReplayStats,
    /// The WAL backend's deterministic `wal.*` I/O counters (fsync
    /// barriers, staged writes, handle opens, bytes).
    pub wal_io: WalIoStats,
    /// Plain copy of `perf.wall_wal_flush_ns`: the cluster benchmark's
    /// probe reads it after every handler.
    pub wall_wal_flush_ns: u64,
    /// Plain copy of `perf.wall_exec_ns`, for the same probe.
    pub wall_exec_ns: u64,
    /// Plain copy of `perf.wal_flush_failures`: the cluster benchmark
    /// sums it across a restarted replica's incarnations. Must stay 0.
    pub wal_flush_failures: u64,
    /// `true` while the durability degradation state machine is in
    /// [`NodeMode::Degraded`]: a run of consecutive failed flush
    /// barriers crossed `SystemConfig::wal_failure_degrade_threshold`,
    /// so the node has stopped draining barriers, checkpointing, and
    /// serving snapshots, and is retrying the durable path on a capped
    /// exponential backoff timer. Exported as the `node.mode` gauge.
    pub degraded: bool,
    /// Times the node *entered* `Degraded` mode (a flap counts once per
    /// entry, however long the outage lasted).
    pub degraded_entries: u64,
    /// Durability retry attempts fired while degraded (each `T_RETRY`
    /// expiry, successful or not).
    pub degraded_retries: u64,
    /// Stale per-lane chunk files pruned from the snapshot-store stash
    /// at checkpoints (abandoned transfers whose roots no pending
    /// install references any more), mirrored from
    /// [`ladon_state::SnapshotStore`].
    pub snapshot_chunks_pruned: u64,
    /// State-transfer probes whose responder never answered before the
    /// next probe window (per-responder health: feeds rotation backoff).
    pub sync_responder_timeouts: u64,
    /// Responders quarantined for repeatedly serving unverifiable
    /// responses (`SystemConfig::sync_quarantine_threshold` consecutive
    /// failures). Counts quarantine *events*.
    pub sync_responders_quarantined: u64,
    /// Sync-response chunks that failed verification against the
    /// quorum-proven head (Byzantine or corrupt responder payloads).
    pub sync_chunks_rejected: u64,
    /// Sync-response chunks that verified and entered the stash.
    pub sync_chunks_verified: u64,
    /// Per-block lifecycle journal: timestamped stage transitions
    /// (submitted → proposed → confirmed → staged → flushed → applied →
    /// checkpointed) with incrementally maintained stage-latency
    /// histograms. Timestamps come from `ctx.now()` — sim time in
    /// simulation, the monotonic wall clock under `LiveRuntime`.
    pub trace: TraceJournal,
}

impl SnapshotInto for NodeMetrics {
    fn snapshot_into(&self, registry: &mut ladon_obs::MetricsRegistry) {
        registry.counter("node.confirmed_blocks", self.confirms.len() as u64);
        registry.counter("node.confirmed_txs", self.confirmed_txs);
        registry.counter("node.executed_txs", self.executed_txs);
        registry.counter("node.deposited_txs", self.deposited_txs);
        registry.counter("node.sync_requests", self.sync_requests);
        registry.counter("node.sync_installed", self.sync_installed);
        registry.counter("node.snapshot_installs", self.snapshot_installs);
        registry.counter("node.snapshots_served", self.snapshots_served);
        registry.counter("sync.snapshot_chunks_served", self.snapshot_chunks_served);
        registry.counter("sync.snapshot_bytes_served", self.snapshot_bytes_served);
        registry.counter("sync.snapshot_chunks_reused", self.snapshot_chunks_reused);
        registry.counter(
            "node.snapshot_decode_failures",
            self.snapshot_decode_failures,
        );
        registry.counter("node.skipped_sns", self.skipped_sns);
        registry.counter("node.exec_gaps", self.exec_gaps);
        registry.counter("node.root_conflicts", self.root_conflicts);
        registry.counter("node.view_changes", self.view_changes.len() as u64);
        registry.counter("wal.write_failures", self.wal_write_failures);
        // The pinned plain copies (`wall_*_ns`, `wal_flush_failures`)
        // are not emitted here: `perf` names them, and a second emission
        // would double them in every merge.
        self.perf.snapshot_into(registry);
        self.sched.snapshot_into(registry);
        self.recovery.snapshot_into(registry);
        self.wal_io.snapshot_into(registry);
        registry.gauge("node.mode", if self.degraded { 1.0 } else { 0.0 });
        registry.counter("node.degraded_entries", self.degraded_entries);
        registry.counter("node.degraded_retries", self.degraded_retries);
        registry.counter("node.snapshot_chunks_pruned", self.snapshot_chunks_pruned);
        registry.counter("sync.responder_timeouts", self.sync_responder_timeouts);
        registry.counter(
            "sync.responders_quarantined",
            self.sync_responders_quarantined,
        );
        registry.counter("sync.chunks_rejected", self.sync_chunks_rejected);
        registry.counter("sync.chunks_verified", self.sync_chunks_verified);
        self.trace.snapshot_into(registry);
    }
}

enum Slot {
    Pbft(PbftInstance),
    Hs(HsInstance),
}

enum Orderer {
    Ladon(LadonOrderer),
    Pre(PredeterminedOrderer),
    Dqbft(DqbftOrderer),
}

// Timer encoding: kind in bits 0..4, instance in 4..20, view in 20..36,
// round/height in 36..64.
const T_PACE: u64 = 1;
const T_ROUND: u64 = 2;
const T_VC: u64 = 3;
const T_CRASH: u64 = 4;
const T_SAMPLE: u64 = 5;
const T_QUIET: u64 = 6;
const T_SYNC: u64 = 7;
/// Time-based flush policy: drain staged WAL records into a barrier
/// submit even when the record-count threshold has not been reached
/// (`SystemConfig::wal_flush_interval_ms`; 0 disables the timer).
const T_FLUSH: u64 = 8;
/// Durability retry while [`NodeMode::Degraded`]: re-attempts the failed
/// durable path (resolve the in-flight barrier, rewrite every segment
/// from the in-memory mirror) on a capped exponential backoff
/// (`SystemConfig::wal_retry_backoff_ms` doubling up to
/// `wal_retry_backoff_max_ms`).
const T_RETRY: u64 = 9;

/// State-transfer probe period.
const SYNC_PERIOD: TimeNs = TimeNs::from_millis(1000);

/// Durability mode of the replica (the degradation state machine).
///
/// `Normal → Degraded` when `wal_failure_degrade_threshold` consecutive
/// flush barriers fail: the node keeps *staging* confirmed blocks (they
/// stay unacknowledged in the WAL front buffer and the pipeline's staged
/// queue) but stops submitting new barriers, stops checkpointing, and
/// stops serving snapshots — nothing is treated as durable while the
/// backend is failing. A `T_RETRY` timer retries the durable path with
/// capped exponential backoff; `Degraded → Normal` once a retry rewrites
/// the log from the in-memory mirror and the staged backlog drains
/// through a successful barrier, leaving the state roots byte-identical
/// to a never-degraded run. If peers compact their logs past this
/// replica's frontier meanwhile, the ordinary sync path escalates to a
/// snapshot reinstall.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeMode {
    /// Durable path healthy: barriers drain and checkpoints run.
    Normal,
    /// Durable path failing: staging only, retries on `T_RETRY`.
    Degraded,
}

/// Per-peer state-transfer responder health. Verified chunks reset the
/// failure streak; unverifiable responses and timeouts grow it.
/// Timeouts put the responder on exponential probe backoff; repeated
/// unverifiable payloads quarantine it outright (only a liveness
/// fallback — every other peer also unhealthy — sends to it again).
#[derive(Clone, Debug, Default)]
pub struct ResponderHealth {
    /// Chunks from this responder that verified into the stash.
    pub verified_chunks: u64,
    /// Chunks (or whole responses) that failed verification.
    pub rejected_chunks: u64,
    /// Probes this responder never answered before the next window.
    pub timeouts: u64,
    /// Consecutive unverifiable responses (quarantine trigger).
    fail_streak: u32,
    /// Consecutive timeouts (probe-backoff exponent).
    timeout_streak: u32,
    /// Probe counter until which rotation skips this responder.
    skip_until: u64,
    /// Permanently distrusted (Byzantine payloads); rotation skips it.
    pub quarantined: bool,
}

fn enc(kind: u64, instance: u64, view: u64, round: u64) -> u64 {
    kind | (instance << 4) | (view << 20) | (round << 36)
}

fn dec(t: u64) -> (u64, u64, u64, u64) {
    (t & 0xf, (t >> 4) & 0xffff, (t >> 20) & 0xffff, t >> 36)
}

/// The Multi-BFT replica.
pub struct MultiBftNode {
    cfg: NodeConfig,
    slots: Vec<Slot>,
    cur_rank: RankCert,
    orderer: Orderer,
    pacemaker: Option<EpochPacemaker>,
    buckets: RotatingBuckets,
    mempool: Mempool,
    /// Pace timer fired but the instance was not ready to propose.
    want_propose: Vec<bool>,
    /// Per-instance partial-commit counts, for the quiet-leader detector
    /// (the SB failure detector `D`): a quiet timer that fires with an
    /// unchanged count means the instance delivered nothing in a full
    /// timeout window.
    inst_commits: Vec<u64>,
    /// Round-robin cursor over peers for state-transfer requests.
    sync_rr: usize,
    /// Per-instance proposal-vs-commit gap observed at the previous sync
    /// probe (hysteresis: a gap that persists across two probes means the
    /// missing rounds will never commit here on their own).
    sync_gap_snapshot: Vec<Round>,
    /// The execution pipeline: KV state machine + commit WAL + snapshots.
    pub exec: ExecutionPipeline,
    /// Serve-side cache of per-lane chunk encodes for the latest
    /// snapshot, keyed by lane root. Primed lazily when a sync request
    /// needs chunks, pruned at each checkpoint to the roots the new
    /// snapshot still references — an unchanged lane is encoded once per
    /// *content*, however many transfers or snapshots reference it.
    /// `RefCell` because [`Self::build_sync_response`] is `&self` (the
    /// sync tests drive it directly) and the cache is pure memoization.
    chunk_cache: RefCell<ChunkCache>,
    /// Resume cursor for chunked snapshot transfers: the lane offset the
    /// next `SyncRequest` asks the responder to continue serving from.
    /// Advances by `sys.sync_chunks_per_response` per partial response,
    /// wraps with the responder's scan, resets once an install lands.
    sync_cursor: u32,
    /// The epoch the buckets are rotated to (tracks pacemaker advances,
    /// including multi-epoch fast-forwards after a snapshot install).
    bucket_epoch: u64,
    /// `sn` frontier below which `Checkpointed` trace events have been
    /// recorded (checkpoints sweep `ckpt_traced_upto..applied`; snapshot
    /// installs jump it without recording — the fast-forwarded prefix
    /// was never traced here).
    ckpt_traced_upto: u64,
    /// Durability mode (the degradation state machine; see [`NodeMode`]).
    mode: NodeMode,
    /// Retry attempts since entering `Degraded` (backoff exponent).
    retry_attempt: u32,
    /// Lane roots of the last *accepted but not yet installed* snapshot
    /// head — the stash chunks a checkpoint-time prune must keep. Empty
    /// when no transfer is in flight.
    pending_sync_roots: Vec<Digest>,
    /// Per-peer responder health for state-transfer rotation.
    responders: Vec<ResponderHealth>,
    /// Monotonic count of `T_SYNC` probe windows (the clock responder
    /// backoff is expressed in).
    sync_probes: u64,
    /// The probe in flight: `(responder, probe counter at send)`. Still
    /// present when the next probe fires ⇒ the responder timed out.
    outstanding_sync: Option<(usize, u64)>,
    /// Metrics sink.
    pub metrics: NodeMetrics,
    crashed: bool,
}

impl MultiBftNode {
    /// Builds the node for `cfg.me` with a fresh in-memory execution
    /// pipeline (the simulation default), sized and parallelized by the
    /// system config's `exec_keyspace` / `exec_lanes` knobs.
    pub fn new(cfg: NodeConfig) -> Self {
        let exec = ExecutionPipeline::in_memory_opts(
            cfg.sys.exec_keyspace,
            cfg.sys.exec_lanes,
            ladon_state::WalOptions {
                lane_groups: cfg.sys.wal_lane_groups,
                segment_records: cfg.sys.wal_segment_records,
            },
        );
        Self::with_execution(cfg, exec)
    }

    /// Builds the node over an existing execution pipeline — a recovered
    /// one for restart-from-snapshot scenarios, or a disk-backed one for
    /// durable deployments. Blocks the pipeline has already applied are
    /// skipped on re-confirmation, so a restarted replica re-syncs
    /// consensus state without re-executing its durable prefix.
    pub fn with_execution(cfg: NodeConfig, exec: ExecutionPipeline) -> Self {
        let sys = &cfg.sys;
        let m = sys.m;
        let (emin, emax) = sys.rank_range(ladon_types::Epoch(0));
        let is_hs = cfg.protocol.is_hotstuff();
        let signer = cfg.registry.signer(cfg.me);

        let strategy = if cfg.behavior.rank_minimize {
            RankStrategy::MinimizeLowest
        } else if cfg.behavior.stale_rank_reports {
            RankStrategy::HonestStale
        } else {
            RankStrategy::Honest
        };
        let rank_mode = match cfg.protocol {
            ProtocolKind::LadonPbft => RankMode::Plain,
            ProtocolKind::LadonOptPbft => RankMode::Opt,
            _ => RankMode::None,
        };

        // DQBFT gets one extra vanilla instance (index m) for sequencing.
        let extra = usize::from(cfg.protocol == ProtocolKind::DqbftPbft);
        let mut slots = Vec::with_capacity(m + extra);
        for i in 0..(m + extra) {
            if is_hs {
                let mode = if cfg.protocol == ProtocolKind::LadonHotStuff {
                    HsRankMode::Ladon
                } else {
                    HsRankMode::None
                };
                slots.push(Slot::Hs(HsInstance::new(
                    HsConfig {
                        instance: InstanceId(i as u32),
                        me: cfg.me,
                        n: sys.n,
                        registry: cfg.registry.clone(),
                        signer: signer.clone(),
                        mode,
                    },
                    emin,
                    emax,
                )));
            } else {
                // Ladon instances use the epoch range; vanilla instances
                // never stop for epochs.
                let (lo, hi) = if rank_mode == RankMode::None || i == m {
                    (Rank(0), Rank(u64::MAX))
                } else {
                    (emin, emax)
                };
                slots.push(Slot::Pbft(PbftInstance::new(
                    InstanceConfig {
                        instance: InstanceId(i as u32),
                        me: cfg.me,
                        n: sys.n,
                        registry: cfg.registry.clone(),
                        signer: signer.clone(),
                        mode: if i == m { RankMode::None } else { rank_mode },
                        strategy,
                    },
                    lo,
                    hi,
                )));
            }
        }

        let orderer = match cfg.protocol {
            ProtocolKind::LadonPbft | ProtocolKind::LadonOptPbft | ProtocolKind::LadonHotStuff => {
                Orderer::Ladon(LadonOrderer::new(m))
            }
            ProtocolKind::IssPbft | ProtocolKind::IssHotStuff => {
                Orderer::Pre(PredeterminedOrderer::new(BaselineKind::Iss, m))
            }
            ProtocolKind::MirPbft => Orderer::Pre(PredeterminedOrderer::new(BaselineKind::Mir, m)),
            ProtocolKind::RccPbft => {
                let mut p = PredeterminedOrderer::new(BaselineKind::Rcc, m);
                p.rcc_lag_threshold = sys.rcc_lag_threshold;
                Orderer::Pre(p)
            }
            ProtocolKind::DqbftPbft => {
                // The ordering instance (index m) is led by replica m % n.
                Orderer::Dqbft(DqbftOrderer::new(cfg.me.as_usize() == m % sys.n))
            }
        };

        let pacemaker = match cfg.protocol {
            ProtocolKind::LadonPbft | ProtocolKind::LadonOptPbft | ProtocolKind::LadonHotStuff => {
                Some(EpochPacemaker::new(sys))
            }
            _ => None,
        };

        let applied_at_start = exec.applied();
        Self {
            buckets: RotatingBuckets::new(m),
            mempool: Mempool::new(m, sys.tx_bytes),
            want_propose: vec![false; m + extra],
            inst_commits: vec![0; m + extra],
            sync_rr: 0,
            sync_gap_snapshot: vec![Round(0); m],
            slots,
            cur_rank: RankCert::genesis(emin),
            orderer,
            pacemaker,
            exec,
            chunk_cache: RefCell::new(ChunkCache::new()),
            sync_cursor: 0,
            bucket_epoch: 0,
            ckpt_traced_upto: applied_at_start,
            mode: NodeMode::Normal,
            retry_attempt: 0,
            pending_sync_roots: Vec::new(),
            responders: vec![ResponderHealth::default(); sys.n],
            sync_probes: 0,
            outstanding_sync: None,
            metrics: NodeMetrics::default(),
            crashed: false,
            cfg,
        }
    }

    /// Current durability mode (the degradation state machine's state).
    pub fn mode(&self) -> NodeMode {
        self.mode
    }

    /// Per-peer state-transfer responder health (indexed by replica id).
    pub fn responder_health(&self) -> &[ResponderHealth] {
        &self.responders
    }

    /// Forces the durability mode to `Degraded` without a storage fault
    /// behind it. Tests use this to observe the mode's *gates* (snapshot
    /// serving, checkpointing) in isolation from the retry machinery.
    pub fn set_degraded_for_test(&mut self) {
        self.mode = NodeMode::Degraded;
        self.metrics.degraded = true;
    }

    /// Mirrors pacemaker-side counters into the metrics sink (call after
    /// any pacemaker interaction that can record a root conflict).
    fn sync_pacemaker_metrics(&mut self) {
        if let Some(pm) = &self.pacemaker {
            self.metrics.root_conflicts = pm.root_conflicts;
        }
    }

    /// Read access to the orderer's confirmed count.
    pub fn confirmed_count(&self) -> u64 {
        match &self.orderer {
            Orderer::Ladon(o) => o.confirmed_count(),
            Orderer::Pre(o) => o.confirmed_count(),
            Orderer::Dqbft(o) => o.confirmed_count(),
        }
    }

    /// Blocks partially committed but awaiting global confirmation.
    pub fn waiting_count(&self) -> usize {
        match &self.orderer {
            Orderer::Ladon(o) => o.waiting_count(),
            Orderer::Pre(o) => o.waiting_count(),
            Orderer::Dqbft(o) => o.waiting_count(),
        }
    }

    /// The replica's current certified rank.
    pub fn cur_rank(&self) -> Rank {
        self.cur_rank.rank
    }

    /// Current epoch (Ladon protocols; 0 otherwise).
    pub fn epoch(&self) -> u64 {
        self.pacemaker.as_ref().map(|p| p.epoch().0).unwrap_or(0)
    }

    fn pace_interval(&self) -> TimeNs {
        let base = self.cfg.sys.proposal_interval();
        match self.cfg.behavior.straggler_k {
            Some(k) => base.mul_f64(k),
            None => base,
        }
    }

    fn is_straggler(&self) -> bool {
        self.cfg.behavior.straggler_k.is_some()
    }

    /// All replica actor ids except ours (actor id == replica id).
    fn peers(&self) -> Vec<ActorId> {
        (0..self.cfg.sys.n)
            .filter(|&r| r != self.cfg.me.as_usize())
            .collect()
    }

    // ------------------------------------------------------------------
    // Action plumbing
    // ------------------------------------------------------------------

    fn handle_pbft_actions(
        &mut self,
        i: usize,
        actions: Vec<ladon_pbft::Action>,
        ctx: &mut dyn Context<NodeMsg>,
    ) {
        for a in actions {
            match a {
                ladon_pbft::Action::Broadcast(msg) => {
                    let wrapped = NodeMsg::Pbft {
                        instance: InstanceId(i as u32),
                        msg,
                    };
                    for p in self.peers() {
                        ctx.send(p, wrapped.clone());
                    }
                }
                ladon_pbft::Action::Send(r, msg) => {
                    let wrapped = NodeMsg::Pbft {
                        instance: InstanceId(i as u32),
                        msg,
                    };
                    if r == self.cfg.me {
                        self.on_node_msg(self.cfg.me, wrapped, ctx);
                    } else {
                        ctx.send(r.as_usize(), wrapped);
                    }
                }
                ladon_pbft::Action::Committed(block) => {
                    self.on_committed(i, block, ctx);
                }
                ladon_pbft::Action::StartRoundTimer { round, view } => {
                    ctx.set_timer(
                        self.cfg.sys.view_change_timeout,
                        enc(T_ROUND, i as u64, view.0, round.0),
                    );
                }
                ladon_pbft::Action::StartViewChangeTimer { view } => {
                    ctx.set_timer(
                        self.cfg.sys.view_change_timeout,
                        enc(T_VC, i as u64, view.0, 0),
                    );
                }
                ladon_pbft::Action::ViewChangeStarted { view } => {
                    self.metrics
                        .view_changes
                        .push((ctx.now(), i as u32, view.0));
                }
                ladon_pbft::Action::NewViewInstalled { view } => {
                    self.metrics.new_views.push((ctx.now(), i as u32, view.0));
                }
            }
        }
    }

    fn handle_hs_actions(
        &mut self,
        i: usize,
        actions: Vec<ladon_hotstuff::Action>,
        ctx: &mut dyn Context<NodeMsg>,
    ) {
        for a in actions {
            match a {
                ladon_hotstuff::Action::Broadcast(msg) => {
                    let wrapped = NodeMsg::Hs {
                        instance: InstanceId(i as u32),
                        msg,
                    };
                    for p in self.peers() {
                        ctx.send(p, wrapped.clone());
                    }
                }
                ladon_hotstuff::Action::Send(r, msg) => {
                    let wrapped = NodeMsg::Hs {
                        instance: InstanceId(i as u32),
                        msg,
                    };
                    if r == self.cfg.me {
                        self.on_node_msg(self.cfg.me, wrapped, ctx);
                    } else {
                        ctx.send(r.as_usize(), wrapped);
                    }
                }
                ladon_hotstuff::Action::Committed(block) => {
                    self.on_committed(i, block, ctx);
                }
                ladon_hotstuff::Action::StartHeightTimer { height, view } => {
                    ctx.set_timer(
                        self.cfg.sys.view_change_timeout,
                        enc(T_ROUND, i as u64, view.0, height.0),
                    );
                }
                ladon_hotstuff::Action::ViewChangeStarted { view } => {
                    self.metrics
                        .view_changes
                        .push((ctx.now(), i as u32, view.0));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Commit / confirm pipeline
    // ------------------------------------------------------------------

    fn on_committed(&mut self, i: usize, block: Block, ctx: &mut dyn Context<NodeMsg>) {
        let now = ctx.now();
        let rank = block.rank();
        self.inst_commits[i] += 1;
        self.metrics.commits.push(CommitRecord {
            instance: block.index().0,
            round: block.round().0,
            rank: rank.0,
            time: now,
        });

        // Ordering layer + execution first: when this commit completes the
        // epoch, every block of the epoch is below the confirmation bar
        // and must be executed *before* the checkpoint's state root is
        // computed, so the root covers the whole epoch deterministically.
        let confirmed: Vec<ConfirmedBlock> = match &mut self.orderer {
            Orderer::Ladon(o) => o.on_partial_commit(block, now),
            Orderer::Pre(o) => o.on_partial_commit(block, now),
            Orderer::Dqbft(o) => {
                if i == self.cfg.sys.m {
                    // The ordering instance sequenced a reference batch.
                    o.on_sequenced(&block.batch.refs, now)
                } else {
                    o.on_partial_commit(block, now)
                }
            }
        };
        self.record_confirms(confirmed, now);

        // Epoch pacemaker (Ladon protocols, real instances only).
        if i < self.cfg.sys.m {
            let mut broadcast = None;
            let mut pending_advance = None;
            let degraded = self.mode == NodeMode::Degraded;
            if let Some(pm) = &mut self.pacemaker {
                // While degraded, consume the epoch-completion event but
                // skip the checkpoint entirely: checkpointing flushes and
                // compacts through the failing backend, and a root signed
                // over an undurable prefix must never be broadcast. The
                // cluster's quorum completes the epoch without us; we
                // rejoin via `on_stable_checkpoint` / sync once recovered.
                if pm.on_commit(i, rank) && !degraded {
                    // Epoch complete: checkpoint the executed state (this
                    // snapshots the KV contents and compacts the WAL) and
                    // sign its root into the checkpoint message. The
                    // snapshot also records each instance's commit-round
                    // frontier so installers can fast-forward consensus
                    // intake, not just the state machine.
                    let epoch = pm.epoch();
                    // The frontier goes under the quorum-signed manifest
                    // root, so it must be replica-deterministic. PBFT
                    // instances freeze at their epoch's last round by
                    // checkpoint time; HotStuff heights depend on local
                    // dummy-commit timing (and have no fast_forward), so
                    // under HotStuff the snapshot is state-only: empty
                    // frontier, installers skip the consensus jump.
                    let frontier: Vec<u64> = if self.cfg.protocol == ProtocolKind::LadonHotStuff {
                        Vec::new()
                    } else {
                        self.slots
                            .iter()
                            .take(self.cfg.sys.m)
                            .filter_map(|s| match s {
                                Slot::Pbft(inst) => Some(inst.committed_upto().0),
                                Slot::Hs(_) => None,
                            })
                            .collect()
                    };
                    // Drain the cross-drain accumulation here (the
                    // checkpoint would anyway) so the flushed `sn` range
                    // is visible for lifecycle tracing.
                    let flushed = self.exec.flush_staged();
                    Self::trace_flushed(&mut self.metrics, flushed, now);
                    let root = self.exec.checkpoint(epoch.0, frontier);
                    // Every block below the new snapshot frontier is now
                    // covered by a checkpoint: stamp the terminal
                    // lifecycle stage for the swept range.
                    for sn in self.ckpt_traced_upto..self.exec.applied() {
                        let lane = Self::confirm_lane(&self.metrics, sn);
                        self.metrics
                            .trace
                            .record(sn, lane, Stage::Checkpointed, now);
                    }
                    self.ckpt_traced_upto = self.exec.applied();
                    // The new snapshot supersedes the previous one for
                    // serving: drop cached chunk encodes for lane roots
                    // it no longer references (unchanged lanes keep
                    // their cached chunks — same root, same bytes).
                    if let Some(snap) = self.exec.latest_snapshot() {
                        self.chunk_cache.borrow_mut().retain(&snap.lane_roots);
                    }
                    // Same moment for the durable stash: drop chunk files
                    // left behind by abandoned transfers — every root not
                    // referenced by the still-pending install (if any) is
                    // stale now that a newer local head exists.
                    self.exec.prune_stale_chunks(&self.pending_sync_roots);
                    // The checkpoint drained any staged accumulation and
                    // compacted the WAL (segment rotation): surface any
                    // failed rotation step — and the I/O, scheduling and
                    // pruning it cost — immediately (`pm` holds the
                    // pacemaker borrow, so the refresh is an associated
                    // call).
                    Self::mirror_exec_metrics(&mut self.metrics, &self.exec);
                    self.metrics.state_roots.push((now, epoch.0, root));
                    let signer = self.cfg.registry.signer(self.cfg.me);
                    broadcast = Some(pm.make_checkpoint(&signer, root));
                    // A stable checkpoint fetched earlier via state
                    // transfer may already prove this epoch complete.
                    pending_advance = pm.try_pending_advance(now);
                }
            }
            if let Some(msg) = broadcast {
                let wrapped = NodeMsg::Checkpoint(msg);
                for p in self.peers() {
                    ctx.send(p, wrapped.clone());
                }
            }
            if let Some(EpochEvent::Advance { epoch, min, max }) = pending_advance {
                self.apply_epoch_advance(epoch, min, max, ctx);
            }
            self.sync_pacemaker_metrics();
        }

        // Both the confirm drain and the checkpoint above can resolve a
        // flush barrier: evaluate the degradation trigger while a timer
        // context is in hand.
        self.check_durability(ctx);

        // A commit can unblock proposals (rank sets complete, HS QCs form,
        // DQBFT refs accumulate).
        self.try_propose_all(ctx);
    }

    fn record_confirms(&mut self, confirmed: Vec<ConfirmedBlock>, now: TimeNs) {
        if confirmed.is_empty() {
            return;
        }
        // The whole confirmed drain stages through the pipeline's
        // group-commit path; the flush + apply barrier runs once the
        // cross-drain accumulation reaches `wal_flush_max_records`
        // staged records (the default of 1 flushes every drain). A
        // flushed accumulation is ONE durability barrier (one fsync per
        // touched lane group, however many drains it spans) and ONE
        // batch-wide dependency DAG, so ops from independent blocks
        // overlap in the same waves — WAL-before-apply, preserved at
        // accumulated-batch granularity. Staged records stay
        // unacknowledged until their flush: a crash loses exactly them,
        // never a flushed block.
        let mut batch: Vec<(u64, Block)> = Vec::with_capacity(confirmed.len());
        for c in confirmed {
            let b = &c.block;
            if !b.is_nil() {
                self.metrics.confirmed_txs += b.batch.count as u64;
            }
            // Lifecycle trace: confirmation is the first moment the block
            // has a global `sn`, so the pre-confirmation stages are
            // stamped retroactively from the block's own timestamps —
            // mean member-tx arrival for `Submitted` (falling back to the
            // proposal time for empty/nil batches), the leader-side
            // generation time for `Proposed`.
            let lane = b.index().0;
            let submitted = if b.batch.count > 0 {
                TimeNs((b.batch.arrival_sum_ns / b.batch.count as u128) as u64)
            } else {
                b.proposed_at
            };
            self.metrics
                .trace
                .record(c.sn, lane, Stage::Submitted, submitted);
            self.metrics
                .trace
                .record(c.sn, lane, Stage::Proposed, b.proposed_at);
            self.metrics.trace.record(c.sn, lane, Stage::Confirmed, now);
            self.metrics.confirms.push(ConfirmRecord {
                sn: c.sn,
                instance: b.index().0,
                round: b.round().0,
                rank: b.rank().0,
                tx_count: b.batch.count,
                arrival_sum_ns: b.batch.arrival_sum_ns,
                proposed_at: b.proposed_at,
                time: now,
                is_nil: b.is_nil(),
            });
            batch.push((c.sn, c.block));
        }
        // Per-block outcomes keep the old discipline: blocks at or below
        // the staged/applied frontier (snapshot install, restart) are
        // skipped idempotently; blocks above the next expected sn are
        // refused (the pipeline never misapplies) and counted — loud in
        // debug runs, a metric alarm in release.
        for (i, out) in self.exec.stage_blocks(&batch).into_iter().enumerate() {
            match out {
                ExecOutcome::Applied { .. } => {
                    // Staged into the WAL buffer — durability pending the
                    // next flush barrier.
                    let (sn, block) = &batch[i];
                    self.metrics
                        .trace
                        .record(*sn, block.index().0, Stage::WalStaged, now);
                }
                ExecOutcome::Skipped => {}
                ExecOutcome::Gap { expected } => {
                    debug_assert!(
                        false,
                        "confirmed sn {} above expected {expected}",
                        batch[i].0
                    );
                    self.metrics.exec_gaps += 1;
                }
            }
        }
        if self.mode == NodeMode::Normal
            && self.exec.staged_records() as u64 >= self.cfg.sys.wal_flush_max_records.max(1) as u64
        {
            // Pipelined drain: submit this accumulation's barrier and
            // apply the *previous* batch whose barrier token just
            // resolved — in File mode batch N's write+fsync now runs on
            // the writer thread while the next drain stages batch N+1.
            // Mirror (raising `wal_flush_failures`) BEFORE tracing the
            // resolved range as flushed+applied: a failed barrier must
            // alarm before any range is treated as durable, and a failed
            // WAL write is visible the moment it happens. While
            // degraded the drain is skipped: records keep *staging*
            // (unacknowledged, memory only — staging touches no carried
            // counter) but no new barrier touches the failing backend
            // until a retry heals it.
            let flushed = self.exec.submit_staged();
            Self::mirror_exec_metrics(&mut self.metrics, &self.exec);
            Self::trace_flushed(&mut self.metrics, flushed, now);
        }
    }

    /// Degradation trigger: call with `ctx` after any path that can
    /// resolve a flush barrier. Crossing
    /// `wal_failure_degrade_threshold` consecutive failed barriers
    /// flips the node into [`NodeMode::Degraded`] and arms the first
    /// `T_RETRY` timer at the base backoff.
    fn check_durability(&mut self, ctx: &mut dyn Context<NodeMsg>) {
        if self.mode == NodeMode::Degraded {
            return;
        }
        let threshold = self.cfg.sys.wal_failure_degrade_threshold as u64;
        if self.exec.perf().consecutive_flush_failures >= threshold {
            self.mode = NodeMode::Degraded;
            self.retry_attempt = 0;
            self.metrics.degraded = true;
            self.metrics.degraded_entries += 1;
            self.metrics.trace.note_event("mode_degraded", ctx.now());
            self.arm_retry(ctx);
        }
    }

    /// Arms the next `T_RETRY` expiry: base backoff doubled per failed
    /// attempt, capped at `wal_retry_backoff_max_ms`.
    fn arm_retry(&mut self, ctx: &mut dyn Context<NodeMsg>) {
        let base = self.cfg.sys.wal_retry_backoff_ms as u64;
        let cap = self.cfg.sys.wal_retry_backoff_max_ms as u64;
        let delay = base
            .saturating_mul(1u64 << self.retry_attempt.min(32))
            .min(cap.max(base));
        ctx.set_timer(TimeNs::from_millis(delay), enc(T_RETRY, 0, 0, 0));
    }

    /// One `T_RETRY` expiry while degraded: re-attempt the durable path
    /// (resolve the failed in-flight barrier, rewrite every segment from
    /// the in-memory mirror). On success the staged backlog drains
    /// through a real barrier and the node re-enters `Normal` — the
    /// backlog was confirmed in dense order all along, so the resulting
    /// roots are byte-identical to a never-degraded run. On failure the
    /// timer re-arms with doubled (capped) backoff.
    fn retry_degraded(&mut self, ctx: &mut dyn Context<NodeMsg>) {
        if self.mode != NodeMode::Degraded {
            return; // stale timer from a previous degradation
        }
        let now = ctx.now();
        self.metrics.degraded_retries += 1;
        let healed = self.exec.retry_durability();
        let flushed = if healed {
            self.exec.flush_staged()
        } else {
            0..0
        };
        // Mirror (raising the alarm on a failed repair or a re-failed
        // backlog barrier) before stamping the applied range — same
        // alarm-before-durable ordering as the live drains.
        Self::mirror_exec_metrics(&mut self.metrics, &self.exec);
        if healed {
            Self::trace_flushed(&mut self.metrics, flushed, now);
            if self.metrics.perf.consecutive_flush_failures == 0 {
                // Backlog durable and applied: back to normal service.
                self.mode = NodeMode::Normal;
                self.retry_attempt = 0;
                self.metrics.degraded = false;
                self.metrics.trace.note_event("mode_normal", now);
                return;
            }
            // The repair succeeded but the backlog barrier failed again
            // (flutter): stay degraded, keep backing off.
        }
        self.retry_attempt = self.retry_attempt.saturating_add(1);
        self.arm_retry(ctx);
    }

    /// Stamps `Flushed` + `Applied` lifecycle events for every block a
    /// flush barrier just made durable and executed. Both carry the same
    /// timestamp — the flush and the DAG apply complete in the same call;
    /// the *wall-clock* split between them lives in
    /// [`ladon_state::PipelinePerf`] — while the interesting sim-time
    /// latency (`staged → flushed`: how long a block waited on the
    /// cross-drain fsync barrier) is real and per-block.
    fn trace_flushed(metrics: &mut NodeMetrics, flushed: std::ops::Range<u64>, now: TimeNs) {
        for sn in flushed {
            let lane = Self::confirm_lane(metrics, sn);
            metrics.trace.record(sn, lane, Stage::Flushed, now);
            metrics.trace.record(sn, lane, Stage::Applied, now);
        }
    }

    /// Lane (producing instance) of a confirmed `sn`, looked up from the
    /// confirm log (which is in `sn` order).
    fn confirm_lane(metrics: &NodeMetrics, sn: u64) -> u32 {
        metrics
            .confirms
            .binary_search_by_key(&sn, |c| c.sn)
            .map(|i| metrics.confirms[i].instance)
            .unwrap_or(0)
    }

    /// Refreshes a metrics sink from the execution pipeline: the
    /// carried stats structs by value, plus the values no stats struct
    /// holds. Call it once after every pipeline call that can change
    /// them. An associated function so it stays callable while
    /// `self.pacemaker` is borrowed; `pub` so tests driving a pipeline
    /// directly (fault matrix) can build Report-level assertions from
    /// the same refresh.
    pub fn mirror_exec_metrics(metrics: &mut NodeMetrics, exec: &ExecutionPipeline) {
        metrics.perf = exec.perf();
        metrics.sched = exec.sched_stats();
        metrics.recovery.clone_from(exec.recovery_stats());
        metrics.wal_io = exec.wal_io_stats();
        metrics.wall_wal_flush_ns = metrics.perf.wall_wal_flush_ns;
        metrics.wall_exec_ns = metrics.perf.wall_exec_ns;
        metrics.wal_flush_failures = metrics.perf.wal_flush_failures;
        metrics.wal_write_failures = exec.wal_write_failures();
        metrics.snapshot_decode_failures = exec.snapshot_decode_failures();
        metrics.snapshot_chunks_pruned = exec.snapshot_chunks_pruned();
        // Executed txs advance at flush time (staged blocks are not
        // executed yet), so the metric mirrors the pipeline's cumulative
        // count instead of summing per-drain outcomes — the *local* one:
        // totals inherited from an installed peer snapshot (or a
        // restored pre-crash snapshot) are work this process never
        // performed and must not inflate throughput readouts.
        metrics.executed_txs = exec.locally_executed_txs();
    }

    // ------------------------------------------------------------------
    // Proposing
    // ------------------------------------------------------------------

    fn try_propose_all(&mut self, ctx: &mut dyn Context<NodeMsg>) {
        for i in 0..self.slots.len() {
            self.try_propose(i, ctx);
        }
    }

    fn try_propose(&mut self, i: usize, ctx: &mut dyn Context<NodeMsg>) {
        if !self.want_propose[i] {
            return;
        }
        let now = ctx.now();
        let m = self.cfg.sys.m;
        let batch_size = self.cfg.sys.batch_size;

        // Phase 1 (immutable): readiness and batch characteristics.
        let (ready, is_dummy) = match &self.slots[i] {
            Slot::Pbft(inst) => (inst.can_propose(), false),
            Slot::Hs(inst) => (inst.can_propose(), inst.next_is_dummy()),
        };
        if !ready {
            return;
        }

        // Phase 2: cut the batch from the appropriate source.
        let batch = if i == m {
            // DQBFT ordering instance: propose pending refs.
            let Orderer::Dqbft(o) = &mut self.orderer else {
                unreachable!("instance m exists only under DQBFT");
            };
            if !o.has_pending_refs() {
                return;
            }
            Batch::of_refs(o.cut_refs(256))
        } else if self.is_straggler() || is_dummy {
            // Honest stragglers propose empty batches (§6.1); HotStuff
            // epoch-flush dummies are empty by definition.
            Batch::empty(0)
        } else {
            let buckets = self.buckets.buckets_of(InstanceId(i as u32));
            self.mempool.cut_batch(&buckets, batch_size)
        };

        // Phase 3 (mutable): propose and plumb the actions.
        self.want_propose[i] = false;
        match &mut self.slots[i] {
            Slot::Pbft(inst) => {
                let actions = inst.propose(batch, now, &mut self.cur_rank);
                self.handle_pbft_actions(i, actions, ctx);
            }
            Slot::Hs(inst) => {
                let actions = inst.propose(batch, now, &mut self.cur_rank);
                self.handle_hs_actions(i, actions, ctx);
            }
        }
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    fn on_node_msg(&mut self, from: ReplicaId, msg: NodeMsg, ctx: &mut dyn Context<NodeMsg>) {
        match msg {
            NodeMsg::Pbft { instance, msg } => {
                let i = instance.as_usize();
                if i >= self.slots.len() {
                    return;
                }
                let now = ctx.now();
                if let Slot::Pbft(inst) = &mut self.slots[i] {
                    let actions = inst.on_message(from, msg, now, &mut self.cur_rank);
                    self.handle_pbft_actions(i, actions, ctx);
                    self.try_propose(i, ctx);
                }
            }
            NodeMsg::Hs { instance, msg } => {
                let i = instance.as_usize();
                if i >= self.slots.len() {
                    return;
                }
                let now = ctx.now();
                if let Slot::Hs(inst) = &mut self.slots[i] {
                    let actions = inst.on_message(from, msg, now, &mut self.cur_rank);
                    self.handle_hs_actions(i, actions, ctx);
                    self.try_propose(i, ctx);
                }
            }
            NodeMsg::Checkpoint(cp) => {
                let now = ctx.now();
                let Some(pm) = &mut self.pacemaker else {
                    return;
                };
                let ev = pm.on_checkpoint(from, &cp, &self.cfg.registry, now);
                if let Some(EpochEvent::Advance { epoch, min, max }) = ev {
                    self.apply_epoch_advance(epoch, min, max, ctx);
                }
                self.sync_pacemaker_metrics();
            }
            NodeMsg::SyncReq(req) => self.on_sync_request(from, req, ctx),
            NodeMsg::SyncResp(resp) => self.on_sync_response_from(from, resp, ctx),
            NodeMsg::ClientTxs(group) => self.on_client_txs(group, ctx),
        }
    }

    /// Installs the next epoch in every instance and rotates the buckets.
    fn apply_epoch_advance(
        &mut self,
        epoch: ladon_types::Epoch,
        min: Rank,
        max: Rank,
        ctx: &mut dyn Context<NodeMsg>,
    ) {
        let now = ctx.now();
        self.metrics.epochs.push((now, epoch.0));
        // One rotation per epoch crossed keeps bucket→instance assignment
        // aligned with peers even across a multi-epoch fast-forward.
        while self.bucket_epoch < epoch.0 {
            self.buckets.rotate();
            self.bucket_epoch += 1;
        }
        for i in 0..self.cfg.sys.m {
            match &mut self.slots[i] {
                Slot::Pbft(inst) => {
                    let actions = inst.advance_epoch(min, max, now, &mut self.cur_rank);
                    self.handle_pbft_actions(i, actions, ctx);
                }
                Slot::Hs(inst) => inst.advance_epoch(min, max),
            }
        }
        self.try_propose_all(ctx);
    }

    // ------------------------------------------------------------------
    // Epoch state transfer (§5.2.1)
    // ------------------------------------------------------------------

    /// Evidence of having fallen behind: buffered future-epoch proposals,
    /// a checkpoint quorum for an epoch we have not completed, or an
    /// instance whose commit frontier stays far behind its highest seen
    /// proposal across two probe periods. The last covers every
    /// missed-message case — a round whose vote phases we missed can
    /// never commit here on its own, because peers do not re-send votes —
    /// and keeps a recovering replica syncing until it reaches the live
    /// edge and its own votes start counting again. (Healthy Ladon-PBFT
    /// instances pipeline one round, so their gap never nears the
    /// threshold.) Call once per probe: refreshes the hysteresis state.
    fn sync_lagging(&mut self) -> bool {
        const LIVE_EDGE_GAP: u64 = 4;
        let mut lagging = self.pacemaker.as_ref().is_some_and(|p| p.lag_evidence());
        for i in 0..self.cfg.sys.m {
            let Slot::Pbft(inst) = &self.slots[i] else {
                continue;
            };
            if inst.epoch_backlog() > 0 {
                lagging = true;
            }
            // A view change in flight counts as an unbounded gap: either
            // we started it alone because we missed commits (state
            // transfer both repairs the log and abandons it), or it is a
            // real one — a spurious sync request then costs one
            // round-trip.
            let gap_now = if inst.in_view_change() {
                u64::MAX
            } else {
                inst.highest_seen_round()
                    .0
                    .saturating_sub(inst.committed_upto().0)
            };
            let gap_before = self.sync_gap_snapshot[i].0;
            if gap_now >= LIVE_EDGE_GAP && gap_before >= LIVE_EDGE_GAP {
                lagging = true;
            }
            self.sync_gap_snapshot[i] = Round(gap_now);
        }
        lagging
    }

    /// Per-instance committed-round frontier (`frontier[i]` is instance
    /// `i`'s highest contiguously committed round).
    pub fn commit_frontier(&self) -> Vec<Round> {
        (0..self.cfg.sys.m)
            .map(|i| match &self.slots[i] {
                Slot::Pbft(inst) => inst.committed_upto(),
                Slot::Hs(inst) => inst.committed_upto(),
            })
            .collect()
    }

    /// Builds the state-transfer request this replica would send right
    /// now. Pure with respect to the network (the sync fault tests drive
    /// the request/response exchange directly). The lane-root
    /// advertisement is the *effective* held roots: local state roots,
    /// overridden per lane by any chunk already verified into the stash —
    /// so a transfer resumed across responses (or a crash) re-fetches
    /// only the lanes still missing.
    pub fn build_sync_request(&self) -> SyncRequest {
        let mut lane_roots = self.exec.lane_roots();
        for chunk in self.exec.stashed_chunks() {
            if let Some(slot) = lane_roots.get_mut(chunk.lane as usize) {
                *slot = chunk.root;
            }
        }
        SyncRequest {
            epoch: ladon_types::Epoch(self.epoch()),
            applied: self.exec.applied(),
            frontier: self.commit_frontier(),
            lane_roots,
            chunk_cursor: self.sync_cursor,
        }
    }

    /// Sends one state-transfer request to the next *healthy* peer in
    /// round-robin order. A probe still outstanding from an earlier
    /// window means its responder timed out: its timeout streak grows
    /// and rotation skips it for exponentially more probe windows
    /// (capped), so an unresponsive peer costs one probe per backoff
    /// expiry instead of one per window. Quarantined responders
    /// (repeatedly unverifiable payloads) are skipped outright. If every
    /// peer is unhealthy, plain round-robin resumes — backoff trades
    /// probe placement, never liveness.
    fn send_sync_request(&mut self, ctx: &mut dyn Context<NodeMsg>) {
        // A same-window re-request (chunked-transfer continuation) is
        // not a timeout: the previous request never had a full window
        // to answer.
        if let Some((peer, probe)) = self.outstanding_sync.take() {
            if self.sync_probes > probe {
                let h = &mut self.responders[peer];
                h.timeouts += 1;
                h.timeout_streak = h.timeout_streak.saturating_add(1);
                h.skip_until = self.sync_probes + (1u64 << h.timeout_streak.min(6));
                self.metrics.sync_responder_timeouts += 1;
            }
        }
        let req = self.build_sync_request();
        let n = self.cfg.sys.n;
        let me = self.cfg.me.as_usize();
        let mut target = None;
        for k in 0..n {
            let cand = (self.sync_rr + k) % n;
            if cand == me {
                continue;
            }
            let h = &self.responders[cand];
            if h.quarantined || h.skip_until > self.sync_probes {
                continue;
            }
            target = Some(cand);
            break;
        }
        let target = target.unwrap_or_else(|| {
            let mut t = self.sync_rr % n;
            if t == me {
                t = (t + 1) % n;
            }
            t
        });
        self.sync_rr = (target + 1) % n;
        self.metrics.sync_requests += 1;
        self.outstanding_sync = Some((target, self.sync_probes));
        ctx.send(target, NodeMsg::SyncReq(req));
    }

    /// Serves a peer's state-transfer request from our committed log.
    fn on_sync_request(
        &mut self,
        from: ReplicaId,
        req: SyncRequest,
        ctx: &mut dyn Context<NodeMsg>,
    ) {
        if from.as_usize() >= self.cfg.sys.n {
            return;
        }
        if let Some(resp) = self.build_sync_response(&req) {
            if resp.snapshot.is_some() {
                self.metrics.snapshots_served += 1;
                self.metrics.snapshot_chunks_served += resp.chunks.len() as u64;
                self.metrics.snapshot_bytes_served +=
                    resp.chunks.iter().map(|c| c.wire_size()).sum::<u64>();
            }
            ctx.send(from.as_usize(), NodeMsg::SyncResp(resp));
        }
    }

    /// Builds the response this replica would serve for `req`, or `None`
    /// when it has nothing useful. Pure with respect to the network (the
    /// sync tests drive it directly): log entries past the requester's
    /// frontier, plus — only when the requester's applied frontier lags
    /// our latest snapshot by at least `sys.snapshot_min_lag` blocks
    /// ([`crate::sync::snapshot_worthwhile`]) — the snapshot *head* and
    /// its proving checkpoint, with per-lane chunks for only the lanes
    /// whose roots differ from the requester's advertisement (delta
    /// sync): bytes shipped scale with changed lanes, not state size.
    /// At most `sys.sync_chunks_per_response` delta lanes are served per
    /// response, scanning from `req.chunk_cursor` with wraparound;
    /// `chunks_remaining > 0` tells the requester to come back with an
    /// advanced cursor. Chunks come from the [`ChunkCache`], so an
    /// unchanged lane is encoded once per content, not once per
    /// transfer. A barely-behind replica gets log sync alone; shipping
    /// snapshot chunks for a one-block gap wastes the wire cost where a
    /// single entry suffices.
    pub fn build_sync_response(&self, req: &SyncRequest) -> Option<SyncResponse> {
        let m = self.cfg.sys.m;
        if req.frontier.len() != m {
            return None;
        }
        let mut entries = Vec::new();
        'outer: for i in 0..m {
            if let Slot::Pbft(inst) = &self.slots[i] {
                for (block, qc) in
                    inst.committed_entries_from(req.frontier[i], crate::sync::SYNC_PER_INSTANCE)
                {
                    entries.push(SyncEntry {
                        instance: InstanceId(i as u32),
                        block,
                        qc,
                    });
                    if entries.len() >= crate::sync::SYNC_MAX_BLOCKS {
                        break 'outer;
                    }
                }
            }
        }
        // Execution fast-forward: when our latest snapshot is far enough
        // ahead of the requester's applied frontier (the minimum-gap
        // serving policy) AND we can prove its root with the matching
        // stable checkpoint, ship both. The checkpoint then also serves
        // as the requester's epoch proof.
        let mut checkpoint = None;
        let mut snapshot = None;
        let mut chunks = Vec::new();
        let mut chunks_remaining = 0;
        if let Some(pm) = &self.pacemaker {
            // A degraded replica stops serving snapshots: its own durable
            // path is failing, so it must not become the source other
            // replicas fast-forward their state from. Log entries are
            // still served — they carry their own QCs.
            if let Some(snap) = self
                .exec
                .latest_snapshot()
                .filter(|_| self.mode == NodeMode::Normal)
            {
                if crate::sync::snapshot_worthwhile(
                    snap.applied,
                    req.applied,
                    self.cfg.sys.snapshot_min_lag,
                ) {
                    if let Some(cp) = pm.stable_checkpoint(ladon_types::Epoch(snap.epoch)) {
                        if cp.state_root == snap.root {
                            // Delta selection: only lanes whose roots
                            // differ from the requester's advertisement,
                            // capped and cursor-resumable. Chunks are
                            // deduplicated by root within the response
                            // (all-empty lanes share one root — one chunk
                            // reconstructs every one of them).
                            let mut cache = self.chunk_cache.borrow_mut();
                            cache.prime(snap);
                            let delta = delta_lanes(&snap.lane_roots, &req.lane_roots);
                            let (lanes, remaining) = select_chunk_lanes(
                                &delta,
                                req.chunk_cursor,
                                self.cfg.sys.sync_chunks_per_response as usize,
                            );
                            let mut sent = std::collections::BTreeSet::new();
                            for lane in lanes {
                                let root = snap.lane_roots[lane as usize];
                                if sent.insert(root) {
                                    if let Some(chunk) = cache.get(&root) {
                                        chunks.push(chunk.clone());
                                    }
                                }
                            }
                            chunks_remaining = remaining;
                            snapshot = Some(snap.head());
                            checkpoint = Some(cp);
                        }
                    }
                }
            }
            if checkpoint.is_none() {
                checkpoint = pm.stable_checkpoint(req.epoch);
            }
            if checkpoint.is_none() && pm.epoch() > req.epoch.next() {
                // The requester is so far behind that its epoch's stable
                // checkpoint has been pruned (we retain two). Serve the
                // newest one we hold: a verified future-epoch checkpoint
                // lets the requester fast-forward its pacemaker and rejoin
                // the live epoch schedule while log entries repair the
                // gap.
                let latest_complete = ladon_types::Epoch(pm.epoch().0 - 1);
                checkpoint = pm.stable_checkpoint(latest_complete);
            }
        }
        if entries.is_empty() && checkpoint.is_none() {
            return None;
        }
        Some(SyncResponse {
            checkpoint,
            snapshot,
            chunks,
            chunks_remaining,
            entries,
        })
    }

    /// Verifies and installs a sync response with no sender attribution
    /// (responder health untouched). `pub` so the fault tests can drive
    /// the chunked request/response exchange directly (Byzantine chunk
    /// rejection, crash-resume) without a network.
    pub fn on_sync_response(&mut self, resp: SyncResponse, ctx: &mut dyn Context<NodeMsg>) {
        self.on_sync_response_from(ReplicaId(u32::MAX), resp, ctx);
    }

    /// Verifies and installs a peer's sync response, scoring `from`'s
    /// responder health from the outcome: verified chunks clear the
    /// failure streak, unverifiable chunks or a rejected snapshot head
    /// grow it, and crossing `sys.sync_quarantine_threshold` consecutive
    /// failures quarantines the responder out of rotation.
    pub fn on_sync_response_from(
        &mut self,
        from: ReplicaId,
        resp: SyncResponse,
        ctx: &mut dyn Context<NodeMsg>,
    ) {
        let now = ctx.now();
        let mut ok_chunks = 0u64;
        let mut bad_chunks = 0u64;
        // Snapshot fast-forward: only with a verified stable checkpoint
        // whose quorum-signed root matches the snapshot head's manifest
        // root. The head alone proves the lane-root vector; each chunk
        // then verifies independently against its lane root, so a
        // Byzantine responder can corrupt at most its own chunks — a bad
        // chunk is dropped per-chunk without discarding verified ones.
        let mut snapshot_installed = false;
        let mut head_accepted = false;
        if let (Some(cp), Some(head)) = (&resp.checkpoint, &resp.snapshot) {
            let applied_before = self.exec.applied();
            if cp.epoch.0 == head.epoch
                && cp.state_root == head.root
                && head.verify()
                && head.applied > applied_before
                && cp.verify(&self.cfg.registry, self.cfg.sys.quorum())
            {
                head_accepted = true;
                // Stash every chunk that verifies against the head's
                // lane-root vector: membership (the root is one the head
                // actually names for that lane) plus content (entries
                // recompute to the root, stay in-lane, stay canonical).
                // The stash is content-addressed and durable, so chunks
                // survive across responses and crashes; mismatched
                // chunks are rejected here one by one.
                for chunk in &resp.chunks {
                    if head.lane_roots.get(chunk.lane as usize) == Some(&chunk.root)
                        && chunk.verify()
                    {
                        ok_chunks += 1;
                        self.exec.stash_chunk(chunk.clone());
                    } else {
                        bad_chunks += 1;
                    }
                }
                // A transfer is now in flight toward this head: its lane
                // roots are the stash entries a checkpoint-time prune
                // must preserve until the install lands (or a newer head
                // supersedes it).
                self.pending_sync_roots = head.lane_roots.clone();
                // Assemble: resolve all 64 lanes from the stash plus
                // lanes our local state already holds at the right root
                // (those were advertised, so the responder never shipped
                // them — reconstruct in place and count the reuse).
                let local: BTreeMap<Digest, SnapshotChunk> = self
                    .exec
                    .lane_chunks()
                    .into_iter()
                    .map(|c| (c.root, c))
                    .collect();
                let mut by_root: BTreeMap<Digest, SnapshotChunk> = BTreeMap::new();
                let mut reused = 0u64;
                let mut complete = true;
                for root in &head.lane_roots {
                    if by_root.contains_key(root) {
                        continue;
                    }
                    if let Some(c) = self.exec.stashed_chunk(root) {
                        by_root.insert(*root, c.clone());
                    } else if let Some(c) = local.get(root) {
                        reused += 1;
                        by_root.insert(*root, c.clone());
                    } else {
                        complete = false;
                        break;
                    }
                }
                let assembled: Option<Snapshot> = if complete {
                    let parts: Vec<SnapshotChunk> = by_root.into_values().collect();
                    Snapshot::assemble(head.clone(), &parts)
                } else {
                    None
                };
                if let Some(snap) = assembled {
                    let installed = self.exec.install_snapshot(&snap);
                    // Installing drains staged blocks (even when it then
                    // declines the snapshot) and compacts the WAL behind
                    // it.
                    Self::mirror_exec_metrics(&mut self.metrics, &self.exec);
                    if installed {
                        self.metrics.snapshot_installs += 1;
                        self.metrics.snapshot_chunks_reused += reused;
                        // The stash has served its purpose, on disk and
                        // in memory.
                        self.exec.clear_chunk_stash();
                        self.pending_sync_roots.clear();
                        self.sync_cursor = 0;
                        // The fast-forwarded prefix never gets
                        // ConfirmRecords here: surface the gap instead of
                        // leaving it implicit in a shorter log.
                        self.metrics.skipped_sns += snap.applied - applied_before;
                        // The prefix was never traced here either — jump
                        // the checkpoint-trace frontier so the next epoch
                        // sweep does not stamp blocks this replica never
                        // processed.
                        self.ckpt_traced_upto = self.ckpt_traced_upto.max(self.exec.applied());
                        snapshot_installed = true;
                        // Fast-forward the consensus layers past the
                        // snapshotted prefix: each instance's commit
                        // frontier jumps to the snapshot's recorded
                        // rounds (peers then serve only the tail), and
                        // the orderer's intake tips jump with it so
                        // confirmation resumes at the snapshot's sn. The
                        // frontier is covered by the quorum-signed
                        // manifest root, so the rounds are as
                        // trustworthy as the state itself. A state-only
                        // snapshot (empty frontier — HotStuff capture,
                        // see the checkpoint path) skips this: the state
                        // machine fast-forwards, consensus intake
                        // re-confirms history and execution skips it
                        // idempotently.
                        if snap.frontier.len() == self.cfg.sys.m {
                            for (i, &round) in snap.frontier.iter().enumerate() {
                                if let Slot::Pbft(inst) = &mut self.slots[i] {
                                    inst.fast_forward(Round(round));
                                }
                            }
                            if let Orderer::Ladon(o) = &mut self.orderer {
                                let max_rank =
                                    self.cfg.sys.rank_range(ladon_types::Epoch(snap.epoch)).1;
                                let tips: Vec<(Round, Rank)> = snap
                                    .frontier
                                    .iter()
                                    .map(|&r| (Round(r), max_rank))
                                    .collect();
                                o.fast_forward(&tips, snap.applied);
                            }
                        }
                        // The installed snapshot supplies everything up
                        // to and including cp.epoch, so the pacemaker
                        // can jump straight past it instead of
                        // completing each old epoch locally (whose
                        // stable checkpoints peers may have pruned).
                        let ev = self
                            .pacemaker
                            .as_mut()
                            .and_then(|p| p.fast_forward(cp, &self.cfg.registry, now));
                        if let Some(EpochEvent::Advance { epoch, min, max }) = ev {
                            self.apply_epoch_advance(epoch, min, max, ctx);
                        }
                    }
                }
            }
        }
        // Partial transfer: the responder capped this response and more
        // delta lanes remain. Advance the cursor past the served window
        // and re-request immediately (the stash keeps what already
        // verified, the refreshed advertisement shrinks the delta).
        // `send_sync_request` rotates round-robin, so a responder whose
        // chunks keep failing verification is simply left behind for the
        // next peer.
        if head_accepted && !snapshot_installed && resp.chunks_remaining > 0 {
            self.sync_cursor = self
                .sync_cursor
                .wrapping_add(self.cfg.sys.sync_chunks_per_response)
                % ladon_state::MERKLE_LANES;
            self.send_sync_request(ctx);
        }
        if let Some(cp) = resp.checkpoint.as_ref().filter(|_| !snapshot_installed) {
            let ev = self.pacemaker.as_mut().and_then(|p| {
                if cp.epoch > p.epoch() {
                    // A whole completed epoch we have not even entered:
                    // our own epoch's proof may be pruned cluster-wide, so
                    // waiting for local completion could strand us. Jump
                    // the pacemaker; execution still proceeds strictly in
                    // confirmed order as entries install.
                    p.fast_forward(cp, &self.cfg.registry, now)
                } else {
                    p.on_stable_checkpoint(cp, &self.cfg.registry, now)
                }
            });
            if let Some(EpochEvent::Advance { epoch, min, max }) = ev {
                self.apply_epoch_advance(epoch, min, max, ctx);
            }
        }
        self.sync_pacemaker_metrics();
        // A snapshot head the responder advertised but we rejected
        // (stale applied frontier, root/checkpoint mismatch, failed
        // proof) counts against its health exactly like a bad chunk: a
        // stale-but-signed snapshot replayed forever would otherwise
        // stall the transfer without ever tripping chunk verification.
        let head_rejected = resp.snapshot.is_some() && !head_accepted;
        let had_checkpoint = resp.checkpoint.is_some();
        let mut entries_useful = false;
        for e in resp.entries {
            let i = e.instance.as_usize();
            if i >= self.cfg.sys.m {
                continue;
            }
            if let Slot::Pbft(inst) = &mut self.slots[i] {
                let actions = inst.install_committed(e.block, e.qc, now, &mut self.cur_rank);
                if !actions.is_empty() {
                    self.metrics.sync_installed += 1;
                    entries_useful = true;
                }
                self.handle_pbft_actions(i, actions, ctx);
            }
        }
        let peer = from.as_usize();
        if peer < self.cfg.sys.n && peer != self.cfg.me.as_usize() {
            if self.outstanding_sync.is_some_and(|(p, _)| p == peer) {
                self.outstanding_sync = None;
            }
            self.metrics.sync_chunks_verified += ok_chunks;
            self.metrics.sync_chunks_rejected += bad_chunks;
            let h = &mut self.responders[peer];
            h.verified_chunks += ok_chunks;
            h.rejected_chunks += bad_chunks + u64::from(head_rejected);
            // It answered: whatever the payload quality, the peer is
            // responsive — timeout backoff resets independently of the
            // verification streak.
            h.timeout_streak = 0;
            h.skip_until = 0;
            if bad_chunks > 0 || head_rejected {
                h.fail_streak = h.fail_streak.saturating_add(1);
                if !h.quarantined && h.fail_streak >= self.cfg.sys.sync_quarantine_threshold {
                    h.quarantined = true;
                    self.metrics.sync_responders_quarantined += 1;
                    self.metrics.trace.note_event("responder_quarantined", now);
                }
            } else if ok_chunks > 0 || snapshot_installed || entries_useful || had_checkpoint {
                h.fail_streak = 0;
            }
        }
    }

    /// Step ① relay semantics: deposit if we lead the bucket's instance,
    /// otherwise forward once toward the leader we believe is current.
    fn on_client_txs(&mut self, group: ClientTxs, ctx: &mut dyn Context<NodeMsg>) {
        let instance = self.buckets.instance_of(group.bucket);
        let i = instance.as_usize();
        let leader = match &self.slots[i] {
            Slot::Pbft(inst) => inst.leader_of(inst.view()),
            Slot::Hs(inst) => inst.leader_of(inst.view()),
        };
        if leader == self.cfg.me || group.forwarded {
            self.metrics.deposited_txs += group.count as u64;
            self.mempool.deposit(
                group.bucket,
                TxGroup {
                    first_tx: group.first_tx,
                    count: group.count,
                    arrival_sum_ns: group.arrival_sum_ns,
                    earliest: group.earliest,
                },
            );
        } else {
            let mut fwd = group;
            fwd.forwarded = true;
            ctx.send(leader.as_usize(), NodeMsg::ClientTxs(fwd));
        }
    }
}

impl Actor<NodeMsg> for MultiBftNode {
    fn on_start(&mut self, ctx: &mut dyn Context<NodeMsg>) {
        // Stagger per-instance pace timers so leaders do not fire in
        // lockstep; the per-leader interval is m / total_block_rate.
        let interval = self.pace_interval();
        let m_total = self.slots.len();
        for i in 0..m_total {
            let phase = interval.mul(i as u64 % self.cfg.sys.m as u64).0 / self.cfg.sys.m as u64;
            ctx.set_timer(
                TimeNs(phase) + TimeNs::from_millis(1),
                enc(T_PACE, i as u64, 0, 0),
            );
        }
        if let Some(at) = self.cfg.behavior.crash_at {
            ctx.set_timer(at, enc(T_CRASH, 0, 0, 0));
        }
        // SB failure detector D (pre-determined orderers only): watch each
        // instance for quiet leaders.
        if matches!(self.orderer, Orderer::Pre(_)) {
            for i in 0..self.cfg.sys.m {
                ctx.set_timer(
                    self.cfg.sys.quiet_leader_timeout,
                    enc(T_QUIET, i as u64, 0, 0),
                );
            }
        }
        // State-transfer probe (epoch-running protocols only, §5.2.1).
        if self.pacemaker.is_some() {
            ctx.set_timer(SYNC_PERIOD, enc(T_SYNC, 0, 0, 0));
        }
        if let Some(every) = self.cfg.sample_interval {
            ctx.set_timer(every, enc(T_SAMPLE, 0, 0, 0));
        }
        // Time-based flush policy: with a nonzero interval, staged WAL
        // accumulations that never reach `wal_flush_max_records` are
        // still drained into a barrier submit on a fixed cadence, so a
        // lull in confirmations bounds (rather than defers forever) the
        // unacknowledged window. Sim timers keep it deterministic.
        if self.cfg.sys.wal_flush_interval_ms > 0 {
            ctx.set_timer(
                TimeNs::from_millis(self.cfg.sys.wal_flush_interval_ms as u64),
                enc(T_FLUSH, 0, 0, 0),
            );
        }
    }

    fn on_message(&mut self, from: ActorId, msg: NodeMsg, ctx: &mut dyn Context<NodeMsg>) {
        if self.crashed {
            return;
        }
        // Client fleet actors have ids >= n; treat them as replica 0 for
        // instance-level sender checks (client messages never carry
        // consensus payloads).
        let from = if from < self.cfg.sys.n {
            ReplicaId(from as u32)
        } else {
            ReplicaId(u32::MAX)
        };
        self.on_node_msg(from, msg, ctx);
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut dyn Context<NodeMsg>) {
        if self.crashed {
            return;
        }
        let (kind, i, view, round) = dec(timer);
        let i = i as usize;
        match kind {
            T_PACE => {
                // Re-arm and mark the instance as wanting a proposal.
                ctx.set_timer(self.pace_interval(), enc(T_PACE, i as u64, 0, 0));
                if i < self.slots.len() {
                    let leads = match &self.slots[i] {
                        Slot::Pbft(inst) => inst.is_leader(),
                        Slot::Hs(inst) => inst.is_leader(),
                    };
                    if leads {
                        self.want_propose[i] = true;
                        self.try_propose(i, ctx);
                    }
                }
            }
            T_ROUND
                if i < self.slots.len() => {
                    match &mut self.slots[i] {
                        Slot::Pbft(inst) => {
                            let actions = inst.on_round_timer(Round(round), View(view));
                            self.handle_pbft_actions(i, actions, ctx);
                        }
                        Slot::Hs(inst) => {
                            let actions = inst.on_height_timer(Round(round), View(view));
                            self.handle_hs_actions(i, actions, ctx);
                        }
                    }
                }
            T_VC
                if i < self.slots.len() => {
                    if let Slot::Pbft(inst) = &mut self.slots[i] {
                        let actions = inst.on_view_change_timer(View(view));
                        self.handle_pbft_actions(i, actions, ctx);
                    }
                }
            T_CRASH => {
                self.crashed = true;
                ctx.crash(ctx.self_id());
            }
            T_SAMPLE => {
                self.metrics
                    .samples
                    .push((ctx.now(), self.metrics.confirmed_txs));
                if let Some(every) = self.cfg.sample_interval {
                    ctx.set_timer(every, enc(T_SAMPLE, 0, 0, 0));
                }
            }
            T_SYNC => {
                // Each probe window advances the health clock responder
                // backoff is expressed in (timeout detection happens in
                // `send_sync_request`, where the previous outstanding
                // probe is inspected).
                self.sync_probes += 1;
                if self.sync_lagging() {
                    self.send_sync_request(ctx);
                }
                ctx.set_timer(SYNC_PERIOD, enc(T_SYNC, 0, 0, 0));
            }
            T_FLUSH => {
                // Drain whatever accumulated below the record-count
                // threshold, and resolve any in-flight barrier token so
                // its batch gets applied even if no further confirm ever
                // arrives. Same alarm-before-durable ordering as the
                // threshold drain in `record_confirms`. Skipped while
                // degraded — no new barrier touches the failing backend.
                if self.mode == NodeMode::Normal
                    && (self.exec.staged_records() > 0 || self.exec.inflight_records() > 0)
                {
                    let now = ctx.now();
                    let flushed = self.exec.submit_staged();
                    Self::mirror_exec_metrics(&mut self.metrics, &self.exec);
                    Self::trace_flushed(&mut self.metrics, flushed, now);
                    self.check_durability(ctx);
                }
                ctx.set_timer(
                    TimeNs::from_millis(self.cfg.sys.wal_flush_interval_ms as u64),
                    enc(T_FLUSH, 0, 0, 0),
                );
            }
            T_RETRY => {
                self.retry_degraded(ctx);
            }
            T_QUIET
                // `round` carries the commit count captured at arming time:
                // an unchanged count means a full quiet window elapsed.
                if i < self.cfg.sys.m => {
                    let count = self.inst_commits[i] & 0x0fff_ffff;
                    if count == round {
                        if let Orderer::Pre(o) = &mut self.orderer {
                            let confirmed = o.on_quiet_leader(InstanceId(i as u32), ctx.now());
                            let now = ctx.now();
                            self.record_confirms(confirmed, now);
                            self.check_durability(ctx);
                        }
                    }
                    ctx.set_timer(
                        self.cfg.sys.quiet_leader_timeout,
                        enc(T_QUIET, i as u64, 0, count),
                    );
                }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_encoding_roundtrips() {
        let t = enc(T_ROUND, 130, 17, 99_999);
        assert_eq!(dec(t), (T_ROUND, 130, 17, 99_999));
        let t = enc(T_PACE, 0, 0, 0);
        assert_eq!(dec(t), (T_PACE, 0, 0, 0));
    }

    #[test]
    fn node_construction_per_protocol() {
        let sys = SystemConfig::paper_default(4, ladon_types::NetEnv::Lan);
        let registry = KeyRegistry::generate(4, sys.opt_keys, 1);
        for proto in [
            ProtocolKind::LadonPbft,
            ProtocolKind::LadonOptPbft,
            ProtocolKind::IssPbft,
            ProtocolKind::RccPbft,
            ProtocolKind::MirPbft,
            ProtocolKind::DqbftPbft,
            ProtocolKind::LadonHotStuff,
            ProtocolKind::IssHotStuff,
        ] {
            let node = MultiBftNode::new(NodeConfig {
                sys: sys.clone(),
                protocol: proto,
                me: ReplicaId(0),
                registry: registry.clone(),
                behavior: Behavior::default(),
                sample_interval: None,
            });
            let expect_slots = sys.m + usize::from(proto == ProtocolKind::DqbftPbft);
            assert_eq!(node.slots.len(), expect_slots, "{proto:?}");
            assert_eq!(node.confirmed_count(), 0);
        }
    }

    #[test]
    fn straggler_pace_is_k_times_slower() {
        let sys = SystemConfig::paper_default(4, ladon_types::NetEnv::Lan);
        let registry = KeyRegistry::generate(4, sys.opt_keys, 1);
        let normal = MultiBftNode::new(NodeConfig {
            sys: sys.clone(),
            protocol: ProtocolKind::LadonPbft,
            me: ReplicaId(0),
            registry: registry.clone(),
            behavior: Behavior::default(),
            sample_interval: None,
        });
        let slow = MultiBftNode::new(NodeConfig {
            sys,
            protocol: ProtocolKind::LadonPbft,
            me: ReplicaId(1),
            registry,
            behavior: Behavior {
                straggler_k: Some(10.0),
                ..Default::default()
            },
            sample_interval: None,
        });
        assert_eq!(slow.pace_interval().0, normal.pace_interval().0 * 10);
        assert!(slow.is_straggler());
    }

    /// Double-emission guard: a registry merge adds counters, so a name
    /// emitted both by `NodeMetrics` and by a carried stats struct would
    /// silently double. Every field is nonzero and distinct, so each
    /// `pipeline.*`/`exec.*`/`replay.*`/`wal.*` counter must equal its
    /// one struct field — and no other name may appear there.
    #[test]
    fn carried_stats_reach_the_registry_exactly_once() {
        use ladon_obs::{Histogram, Json, MetricsRegistry};
        let samples = |n: u64| {
            let mut h = Histogram::new();
            (1..=n).for_each(|v| h.observe(v));
            h
        };
        let mut m = NodeMetrics {
            perf: PipelinePerf {
                wall_wal_flush_ns: 11,
                wall_exec_ns: 12,
                flush_barriers: 13,
                wal_flush_failures: 14,
                consecutive_flush_failures: 15,
                pipelined_submits: 16,
                inflight_records_peak: 17,
                barrier_wait: samples(3),
                barrier_overlap: samples(5),
            },
            sched: ExecSchedStats {
                batches: 21,
                waves: 22,
                scheduled_ops: 23,
                cross_lane_edges: 24,
                max_wave_ops: 25,
            },
            recovery: ReplayStats {
                segments_scanned: 31,
                segments_skipped: 32,
                records_below_floor: 33,
                records_torn: 34,
                records_unacked_lost: 35,
                segments_clean_end: 36,
                manifest_recovered: true,
                records_replayed: 38,
                replayed_txs: 39,
                replayed_lane_mask: 0b1011,
                records_per_lane: vec![40; 4],
            },
            wal_io: WalIoStats {
                appends: 41,
                fsyncs: 42,
                segment_opens: 43,
                bytes_written: 44,
            },
            wal_write_failures: 51,
            ..NodeMetrics::default()
        };
        // The pinned plain copies hold what a refresh would copy in.
        m.wall_wal_flush_ns = m.perf.wall_wal_flush_ns;
        m.wall_exec_ns = m.perf.wall_exec_ns;
        m.wal_flush_failures = m.perf.wal_flush_failures;

        let mut reg = MetricsRegistry::new();
        m.snapshot_into(&mut reg);
        let expected: BTreeMap<&str, u64> = BTreeMap::from([
            ("pipeline.wall_wal_flush_ns", 11),
            ("pipeline.wall_exec_ns", 12),
            ("pipeline.flush_barriers", 13),
            ("pipeline.wal_flush_failures", 14),
            ("pipeline.pipelined_submits", 16),
            ("exec.batches", 21),
            ("exec.waves", 22),
            ("exec.scheduled_ops", 23),
            ("exec.cross_lane_edges", 24),
            ("replay.segments_scanned", 31),
            ("replay.segments_skipped", 32),
            ("replay.records_below_floor", 33),
            ("replay.records_torn", 34),
            ("replay.records_unacked_lost", 35),
            ("replay.segments_clean_end", 36),
            ("replay.manifest_recovered", 1),
            ("replay.records_replayed", 38),
            ("replay.replayed_txs", 39),
            ("wal.appends", 41),
            ("wal.fsyncs", 42),
            ("wal.segment_opens", 43),
            ("wal.bytes_written", 44),
            ("wal.write_failures", 51),
        ]);
        let Json::Obj(doc) = reg.snapshot().to_json() else {
            panic!("snapshot JSON must be an object");
        };
        let Some((_, Json::Obj(counters))) = doc.iter().find(|(k, _)| k == "counters") else {
            panic!("snapshot JSON must carry a counters object");
        };
        let emitted: BTreeMap<&str, u64> = counters
            .iter()
            .filter(|(name, _)| {
                ["pipeline.", "exec.", "replay.", "wal."]
                    .iter()
                    .any(|p| name.starts_with(p))
            })
            .map(|(name, v)| match v {
                Json::U64(v) => (name.as_str(), *v),
                other => panic!("{name}: counter rendered as {other:?}"),
            })
            .collect();
        assert_eq!(emitted, expected);
        // Histograms add on merge too: each sample set counted once.
        let samples_in = |name| reg.histogram(name).map_or(0, Histogram::count);
        assert_eq!(samples_in("pipeline.wall_barrier_wait_ns"), 3);
        assert_eq!(samples_in("pipeline.wall_barrier_overlap_ns"), 5);
    }
}
