//! The execution pipeline: confirmed blocks in, durable state out.
//!
//! [`ExecutionPipeline`] is the single entry point `ladon-core` feeds.
//! For every confirmed block it (1) appends a [`WalRecord`] to the commit
//! log, then (2) applies the block's derived transaction ops to the
//! sharded KV state — WAL-before-apply, so a crash between the two
//! replays the block on recovery instead of losing it. Application runs
//! through the deterministic wave-scheduled dependency DAG over the
//! fixed Merkle lanes with `exec_lanes` parallel workers (see
//! [`crate::kv`]); a whole staged drain executes as one batch-wide DAG,
//! so ops from independent blocks overlap in the same waves. The
//! pipeline also keeps a per-lane ledger of how many ops each WAL
//! record routed where and which `sn` last dirtied each lane. At every epoch checkpoint it captures a [`Snapshot`],
//! compacts the WAL behind it, and returns the snapshot's manifest root —
//! covering the execution position, frontier, and the ordered lane-root
//! vector — which the checkpoint quorum signs. Checkpoint root cost is
//! O(lanes), not O(keyspace): lane roots are maintained incrementally on
//! write.
//!
//! Recovery composes the two artifacts: install the latest snapshot, then
//! re-execute the WAL tail ([`ExecutionPipeline::recover`] /
//! [`ExecutionPipeline::from_parts`]). The snapshot's `applied` frontier
//! is handed to the segmented WAL as a *floor*: sealed segments entirely
//! below it are skipped without being read, so replay work is
//! proportional to the dirty tail, not to the total log length — and the
//! tail itself re-executes through the same lane-parallel
//! [`crate::kv::KvState::apply_batch`] fan-out as live execution, so the
//! recovered root is bit-identical for *any* `exec_lanes` worker count.
//! [`ReplayStats`] records what recovery touched (segments scanned vs
//! skipped, records replayed per lane). Because execution is
//! deterministic, the recovered root equals the pre-crash root — the
//! crash-recovery example and the WAL-replay property test assert
//! exactly this.

use crate::kv::{lane_of, BatchOutcome, ExecEffects, KvState, DEFAULT_EXEC_LANES, MERKLE_LANES};
use crate::snapshot::{Snapshot, SnapshotChunk, SnapshotStore};
use crate::wal::{CommitWal, FileBackend, WalBackend, WalLoadStats, WalOptions, WalRecord};
use ladon_types::{Block, Digest, TxOp};
use std::path::Path;

/// What [`ExecutionPipeline::execute`] did with a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecOutcome {
    /// Applied; `txs` transactions executed.
    Applied {
        /// Transactions the block contributed.
        txs: u64,
    },
    /// Skipped: the block is at or below the applied frontier (it is
    /// already covered by the current state, e.g. after a snapshot
    /// install or a restart).
    Skipped,
    /// Refused: the block is *above* the next expected `sn` — the caller
    /// violated the dense-order contract. Executing it at the wrong
    /// position would silently corrupt the state root, so nothing was
    /// applied; the caller must surface this (it indicates a confirmation
    /// bug or a missed gap after a partial sync).
    Gap {
        /// The `sn` the pipeline expected.
        expected: u64,
    },
}

/// What the last recovery (rebuild from snapshot + WAL) touched:
/// segment-level skip accounting from the storage layer plus
/// record-level replay accounting from the pipeline. The partial-replay
/// contract in numbers — `records_replayed` tracks the dirty tail, never
/// the total log length.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Segments read and decoded on open.
    pub segments_scanned: u64,
    /// Segments skipped without reading (entirely below the snapshot's
    /// covered floor).
    pub segments_skipped: u64,
    /// Records dropped at load because the snapshot already covered them
    /// (straddling segments keep covered records until compaction).
    pub records_below_floor: u64,
    /// Records dropped from torn/corrupt segment tails (streams that did
    /// not end at a batch-trailer acknowledgement boundary — genuinely
    /// acknowledged loss).
    pub records_torn: u64,
    /// Manifest-counted records missing from segments whose streams end
    /// cleanly at a batch trailer: a never-acknowledged suffix (e.g. a
    /// failed write that already alarmed), distinguished from torn loss
    /// by the trailer.
    pub records_unacked_lost: u64,
    /// Scanned segments whose stream ended exactly at a batch trailer (a
    /// clean end of log).
    pub segments_clean_end: u64,
    /// True when the WAL manifest existed but was undecodable and the
    /// live set was rebuilt by scanning storage (no data lost, but the
    /// segment-skip optimization was unavailable for this open).
    pub manifest_recovered: bool,
    /// WAL-tail records re-executed on top of the snapshot.
    pub records_replayed: u64,
    /// Transactions those records re-executed.
    pub replayed_txs: u64,
    /// Union lane mask of the replayed records: which Merkle lanes the
    /// replay actually touched.
    pub replayed_lane_mask: u64,
    /// Replayed records per Merkle lane (length [`MERKLE_LANES`]; a
    /// record counts toward every lane its mask touches).
    pub records_per_lane: Vec<u64>,
}

impl ReplayStats {
    fn from_load(load: WalLoadStats) -> Self {
        Self {
            segments_scanned: load.segments_scanned,
            segments_skipped: load.segments_skipped,
            records_below_floor: load.records_below_floor,
            records_torn: load.records_torn,
            records_unacked_lost: load.records_unacked_lost,
            segments_clean_end: load.segments_clean_end,
            manifest_recovered: load.manifest_recovered,
            records_per_lane: vec![0; MERKLE_LANES as usize],
            ..Self::default()
        }
    }

    /// Lanes the replay dirtied (popcount of the union mask).
    pub fn dirty_lanes(&self) -> u32 {
        self.replayed_lane_mask.count_ones()
    }
}

/// Cumulative wave-scheduler accounting across every batch the pipeline
/// executed (live drains and recovery replay alike) — the cost surface
/// of the dependency-DAG executor, carried by `NodeMetrics` and emitted
/// as `exec.*`. All counts are deterministic: the schedule is a
/// pure function of the ops' static lane access sets, never of worker
/// count or timing (`fig_exec_dag` gates exactly this).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecSchedStats {
    /// Batches scheduled (one per flush of the staged drain, one per
    /// replayed record during recovery).
    pub batches: u64,
    /// Topological waves executed, summed over batches.
    pub waves: u64,
    /// Ops scheduled, summed over batches (`scheduled_ops / waves` is
    /// the mean exploitable parallelism per wave).
    pub scheduled_ops: u64,
    /// Cross-lane dependency edges observed (see
    /// [`crate::kv::BatchOutcome::cross_lane_edges`]).
    pub cross_lane_edges: u64,
    /// Ops in the fullest single wave seen.
    pub max_wave_ops: u32,
}

/// Barrier accounting of the execution pipeline, cumulative: the
/// wall-clock split between WAL durability (fsync-barrier wait) and DAG
/// execution (apply_batch), plus the deterministic barrier counters the
/// durability alarms and the pipelining gates ride on. The `wall_`
/// names mark those fields non-deterministic by the obs convention —
/// they never enter the determinism gates, while the counters do.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelinePerf {
    /// Nanoseconds spent inside WAL flush barriers (submit + token
    /// wait).
    pub wall_wal_flush_ns: u64,
    /// Nanoseconds spent executing staged ops (DAG apply + ledger).
    pub wall_exec_ns: u64,
    /// Flush barriers submitted (denominator for per-barrier means).
    pub flush_barriers: u64,
    /// Flush barriers whose durable step **failed** (deterministic
    /// durability alarm): the batch was still applied — the WAL mirror
    /// stays authoritative — but its range must not be treated as
    /// durable. Previously this outcome was swallowed inside
    /// `flush_staged`.
    pub wal_flush_failures: u64,
    /// Flush barriers that failed with no intervening success — the
    /// degradation trigger: a node compares this against its
    /// `wal_failure_degrade_threshold` after every drain. Reset by a
    /// successful barrier (or a successful degraded-mode repair), so
    /// isolated hiccups never degrade, while a persistently broken
    /// backend crosses any threshold quickly.
    pub consecutive_flush_failures: u64,
    /// Barriers submitted while the previous barrier was still in
    /// flight — each one is a genuine write/execute overlap window
    /// (deterministic: the submit/complete structure is identical in
    /// pipelined and inline modes).
    pub pipelined_submits: u64,
    /// Peak records inside one in-flight barrier (deterministic;
    /// snapshots as a max-merged gauge).
    pub inflight_records_peak: u64,
    /// Wall-clock ns blocked resolving a barrier token at complete time
    /// (per-barrier samples).
    pub barrier_wait: ladon_obs::Histogram,
    /// Wall-clock ns each barrier spent in flight before its completion
    /// began — the window overlapped with staging/execution.
    pub barrier_overlap: ladon_obs::Histogram,
}

impl ladon_obs::SnapshotInto for PipelinePerf {
    fn snapshot_into(&self, registry: &mut ladon_obs::MetricsRegistry) {
        registry.counter("pipeline.wall_wal_flush_ns", self.wall_wal_flush_ns);
        registry.counter("pipeline.wall_exec_ns", self.wall_exec_ns);
        registry.counter("pipeline.flush_barriers", self.flush_barriers);
        registry.counter("pipeline.wal_flush_failures", self.wal_flush_failures);
        registry.counter("pipeline.pipelined_submits", self.pipelined_submits);
        registry.gauge(
            "pipeline.consecutive_flush_failures",
            self.consecutive_flush_failures as f64,
        );
        registry.gauge(
            "pipeline.inflight_records_peak",
            self.inflight_records_peak as f64,
        );
        registry.merge_histogram("pipeline.wall_barrier_wait_ns", &self.barrier_wait);
        registry.merge_histogram("pipeline.wall_barrier_overlap_ns", &self.barrier_overlap);
    }
}

impl ladon_obs::SnapshotInto for ExecSchedStats {
    fn snapshot_into(&self, registry: &mut ladon_obs::MetricsRegistry) {
        registry.counter("exec.batches", self.batches);
        registry.counter("exec.waves", self.waves);
        registry.counter("exec.scheduled_ops", self.scheduled_ops);
        registry.counter("exec.cross_lane_edges", self.cross_lane_edges);
        registry.gauge("exec.max_wave_ops", self.max_wave_ops as f64);
    }
}

impl ladon_obs::SnapshotInto for ReplayStats {
    fn snapshot_into(&self, registry: &mut ladon_obs::MetricsRegistry) {
        registry.counter("replay.segments_scanned", self.segments_scanned);
        registry.counter("replay.segments_skipped", self.segments_skipped);
        registry.counter("replay.records_below_floor", self.records_below_floor);
        registry.counter("replay.records_torn", self.records_torn);
        registry.counter("replay.records_unacked_lost", self.records_unacked_lost);
        registry.counter("replay.segments_clean_end", self.segments_clean_end);
        registry.counter("replay.manifest_recovered", self.manifest_recovered as u64);
        registry.counter("replay.records_replayed", self.records_replayed);
        registry.counter("replay.replayed_txs", self.replayed_txs);
        registry.gauge("replay.dirty_lanes", self.dirty_lanes() as f64);
    }
}

/// The static lane-routing mask of a block's derived ops: bit `l` set
/// when some op routes to Merkle lane `l`. Computed *before* execution
/// (a transfer sets both its debit and its credit lane, whether or not
/// the credit ends up moving value), so it is a conservative superset of
/// the lanes the block dirties — exactly what the WAL needs to fan the
/// record out to lane-group segments ahead of the apply.
pub fn static_lane_mask(ops: &[TxOp]) -> u64 {
    let mut mask = 0u64;
    for op in ops {
        match *op {
            TxOp::Put { key, .. } | TxOp::Get { key } => mask |= 1 << lane_of(key),
            TxOp::Transfer { from, to, .. } => {
                mask |= 1 << lane_of(from);
                mask |= 1 << lane_of(to);
            }
        }
    }
    mask
}

/// A batch whose WAL barrier is in flight: submitted to the writer by
/// [`ExecutionPipeline::submit_staged`], token not yet resolved. The
/// blocks' derived ops ride along so the apply can run at completion —
/// after durability, never before.
/// A drained run of confirmed blocks: `(sn, derived ops)` in order.
type StagedBlocks = Vec<(u64, Vec<TxOp>)>;

struct InFlightBatch {
    blocks: StagedBlocks,
    /// When the barrier was submitted (feeds the overlap histogram).
    submitted_at: std::time::Instant,
}

/// The replica's execution pipeline.
pub struct ExecutionPipeline {
    kv: KvState,
    wal: CommitWal,
    store: SnapshotStore,
    /// Confirmed blocks applied so far; the next expected `sn`.
    applied: u64,
    /// Cumulative transactions executed (consensus position: restored
    /// from snapshots, advanced by every applied block).
    executed_txs: u64,
    /// Transactions executed by THIS pipeline's apply path — live
    /// drains plus recovery replay — excluding totals inherited from a
    /// restored or installed snapshot. The per-process work counter the
    /// node's metrics mirror.
    local_txs: u64,
    /// Cumulative operation effects.
    effects: ExecEffects,
    /// Accounts in the derived-op key space.
    keyspace: u32,
    /// Parallel execution workers over the Merkle lanes.
    exec_lanes: u32,
    /// Cumulative ops routed to each Merkle lane (length
    /// [`MERKLE_LANES`]) — the lane-load ledger behind the WAL: each
    /// appended record's ops are accounted to the lanes they dirtied.
    lane_ops: Vec<u64>,
    /// Per-lane `sn` high-water mark: the last WAL `sn` whose ops touched
    /// the lane, `None` while untouched. Lanes whose mark is below the
    /// latest snapshot's `applied` are clean — their lane roots were
    /// unchanged by the WAL tail. The ledger drives the per-lane WAL
    /// segment routing, is recorded in every snapshot's
    /// `lane_covered_sn`, and is restored from it on recovery.
    lane_last_sn: Vec<Option<u64>>,
    /// Blocks staged (WAL record buffered, ops derived) but not yet
    /// flushed + applied — the cross-drain group-commit accumulator.
    /// Staged blocks are unacknowledged: a crash loses exactly them.
    staged: Vec<(u64, Vec<TxOp>)>,
    /// The batch whose WAL barrier is in flight (submitted via
    /// [`Self::submit_staged`], token not yet resolved). Its blocks are
    /// neither acknowledged nor applied — WAL-before-apply holds at
    /// batch granularity — and a crash loses exactly them plus `staged`.
    inflight: Option<InFlightBatch>,
    /// Cumulative wave-scheduler accounting.
    sched: ExecSchedStats,
    /// What the last rebuild replayed (all zeros for fresh pipelines).
    recovery: ReplayStats,
    /// Wall-clock split of the flush barrier (see [`PipelinePerf`]).
    perf: PipelinePerf,
}

impl ExecutionPipeline {
    /// In-memory pipeline with the default worker count (simulation
    /// default).
    pub fn in_memory(keyspace: u32) -> Self {
        Self::in_memory_with(keyspace, DEFAULT_EXEC_LANES)
    }

    /// In-memory pipeline with an explicit parallel worker count.
    pub fn in_memory_with(keyspace: u32, exec_lanes: u32) -> Self {
        Self::in_memory_opts(keyspace, exec_lanes, WalOptions::default())
    }

    /// In-memory pipeline with explicit worker count and WAL segment
    /// layout.
    pub fn in_memory_opts(keyspace: u32, exec_lanes: u32, wal_opts: WalOptions) -> Self {
        Self::fresh(CommitWal::in_memory_with(wal_opts), keyspace, exec_lanes)
    }

    fn fresh(wal: CommitWal, keyspace: u32, exec_lanes: u32) -> Self {
        Self {
            kv: KvState::with_exec_lanes(exec_lanes),
            wal,
            store: SnapshotStore::in_memory(),
            applied: 0,
            executed_txs: 0,
            local_txs: 0,
            effects: ExecEffects::default(),
            keyspace,
            exec_lanes,
            lane_ops: vec![0; MERKLE_LANES as usize],
            lane_last_sn: vec![None; MERKLE_LANES as usize],
            staged: Vec::new(),
            inflight: None,
            sched: ExecSchedStats::default(),
            recovery: ReplayStats::default(),
            perf: PipelinePerf::default(),
        }
    }

    /// Durable pipeline rooted at `dir` (`wal/` segment directory +
    /// `snap-*.bin`), recovering state from whatever the directory
    /// already holds: snapshot install, then lane-parallel WAL-tail
    /// replay that skips snapshot-covered segments without reading them.
    pub fn recover(dir: impl AsRef<Path>, keyspace: u32) -> std::io::Result<Self> {
        Self::recover_with(dir, keyspace, DEFAULT_EXEC_LANES)
    }

    /// [`Self::recover`] with an explicit parallel worker count.
    pub fn recover_with(
        dir: impl AsRef<Path>,
        keyspace: u32,
        exec_lanes: u32,
    ) -> std::io::Result<Self> {
        Self::recover_opts(dir, keyspace, exec_lanes, WalOptions::default())
    }

    /// [`Self::recover`] with explicit worker count and WAL segment
    /// layout.
    pub fn recover_opts(
        dir: impl AsRef<Path>,
        keyspace: u32,
        exec_lanes: u32,
        wal_opts: WalOptions,
    ) -> std::io::Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let backend = FileBackend::open_dir(dir.join("wal"))?;
        Self::recover_backend(dir, Box::new(backend), keyspace, exec_lanes, wal_opts)
    }

    /// Durable pipeline whose WAL runs over a caller-supplied backend
    /// while snapshots persist under `dir` — the seam fault-injection
    /// tests use to model storage that dies mid-protocol.
    pub fn recover_backend(
        dir: impl AsRef<Path>,
        backend: Box<dyn WalBackend>,
        keyspace: u32,
        exec_lanes: u32,
        wal_opts: WalOptions,
    ) -> std::io::Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let store = SnapshotStore::at_dir(dir)?;
        Ok(Self::rebuild(
            |floor| CommitWal::open_with_floor(backend, wal_opts, floor),
            store,
            keyspace,
            exec_lanes,
        ))
    }

    /// Rebuilds a pipeline from a snapshot store plus a WAL opener (the
    /// recovery path, shared by disk and byte-shipped variants). The
    /// opener receives the snapshot-covered floor so the segmented WAL
    /// can skip covered segments without reading them.
    fn rebuild<F>(open_wal: F, store: SnapshotStore, keyspace: u32, exec_lanes: u32) -> Self
    where
        F: FnOnce(u64) -> CommitWal,
    {
        let snap = store.latest().cloned().filter(Snapshot::verify);
        let floor = snap.as_ref().map_or(0, |s| s.applied);
        let wal = open_wal(floor);
        let mut p = Self::fresh(wal, keyspace, exec_lanes);
        p.store = store;
        let mut stats = ReplayStats::from_load(p.wal.load_stats());
        if let Some(snap) = snap {
            p.kv = KvState::from_entries(snap.entries.iter().copied());
            p.kv.set_exec_lanes(exec_lanes);
            p.applied = snap.applied;
            p.executed_txs = snap.executed_txs;
            p.restore_lane_ledger(&snap);
        }
        // Replay the WAL tail past the snapshot. A gap between the
        // snapshot's applied frontier and the first tail record means the
        // artifacts are inconsistent (e.g. the newest snapshot was lost
        // after its compaction): applying misaligned records would produce
        // a silently divergent root, so stop at the gap instead — the
        // replica stays at the snapshot frontier and re-fetches the rest
        // from peers. Each replayed block re-executes through the same
        // lane-parallel apply as live execution, so the recovered root is
        // identical for every worker count.
        let tail: Vec<WalRecord> = p
            .wal
            .records()
            .iter()
            .filter(|r| r.sn >= p.applied)
            .copied()
            .collect();
        for rec in tail {
            if rec.sn != p.applied {
                break;
            }
            let ops: Vec<TxOp> = rec.batch().txs(p.keyspace).map(|tx| tx.op).collect();
            stats.records_replayed += 1;
            stats.replayed_txs += ops.len() as u64;
            stats.replayed_lane_mask |= rec.lane_mask;
            let mut mask = rec.lane_mask;
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                stats.records_per_lane[lane] += 1;
            }
            p.apply_ops(rec.sn, &ops);
            p.applied = rec.sn + 1;
        }
        // A dangling suffix the replay could not reach (its first record
        // sits above the frontier — corruption opened a gap below it) is
        // unreplayable here forever: drop it so the dense-append
        // invariant holds when execution resumes, and so its stale
        // records can never shadow the re-fetched blocks' entries.
        if p.wal.records().last().is_some_and(|l| l.sn >= p.applied) {
            p.wal.truncate_from(p.applied);
        }
        p.recovery = stats;
        p
    }

    /// Restores the per-lane dirtiness ledger from a snapshot's
    /// covered-sn vector (every mark is below `applied`, so restored
    /// lanes read as clean until the tail re-dirties them).
    fn restore_lane_ledger(&mut self, snap: &Snapshot) {
        if snap.lane_covered_sn.len() == MERKLE_LANES as usize {
            for (lane, &covered) in snap.lane_covered_sn.iter().enumerate() {
                self.lane_last_sn[lane] = covered.checked_sub(1);
            }
        }
    }

    /// Reconstructs a pipeline from byte-shipped parts (in-sim restart and
    /// sync paths): an optional encoded snapshot plus a WAL-tail encoding.
    pub fn from_parts(snapshot: Option<&[u8]>, wal_bytes: &[u8], keyspace: u32) -> Self {
        Self::from_parts_with(snapshot, wal_bytes, keyspace, DEFAULT_EXEC_LANES)
    }

    /// [`Self::from_parts`] with an explicit parallel worker count.
    pub fn from_parts_with(
        snapshot: Option<&[u8]>,
        wal_bytes: &[u8],
        keyspace: u32,
        exec_lanes: u32,
    ) -> Self {
        let mut store = SnapshotStore::in_memory();
        if let Some(bytes) = snapshot {
            if let Some(snap) = Snapshot::decode(bytes) {
                if snap.verify() {
                    store.put(snap);
                }
            }
        }
        Self::rebuild(
            |_floor| CommitWal::from_flat_bytes(wal_bytes, WalOptions::default()),
            store,
            keyspace,
            exec_lanes,
        )
    }

    /// Exports `(latest snapshot encoding, WAL-tail encoding)` — the exact
    /// inputs [`Self::from_parts`] consumes.
    pub fn export_parts(&self) -> (Option<Vec<u8>>, Vec<u8>) {
        (
            self.store.latest().map(Snapshot::encode),
            self.wal.to_bytes(),
        )
    }

    /// Executes confirmed block `sn` immediately (stage + flush as a
    /// batch of one). Blocks must arrive in dense global order; anything
    /// at or below the staged/applied frontier is skipped (the snapshot
    /// already covers it), and anything above the next expected `sn` is
    /// refused as a [`ExecOutcome::Gap`] — in release builds too, since
    /// applying it at the wrong position would corrupt the root with no
    /// error signal.
    pub fn execute(&mut self, sn: u64, block: &Block) -> ExecOutcome {
        let out = self.stage_block(sn, block);
        self.flush_staged();
        out
    }

    /// Executes a drained run of confirmed blocks through **one WAL
    /// group-commit barrier**: [`Self::stage_blocks`] followed by
    /// [`Self::flush_staged`]. Callers that want to amortize further —
    /// accumulate staged records across several confirmed-queue drains
    /// and flush on a size threshold (`SystemConfig::wal_flush_max_records`)
    /// — call the two halves themselves.
    ///
    /// Outcomes are index-aligned with `blocks`, with the same per-block
    /// skip/gap discipline as [`Self::execute`] (a gap refuses the block
    /// and everything stays unstaged at its position).
    pub fn execute_batch(&mut self, blocks: &[(u64, Block)]) -> Vec<ExecOutcome> {
        let out = self.stage_blocks(blocks);
        self.flush_staged();
        out
    }

    /// Stages a drained run of confirmed blocks: each applicable block's
    /// WAL record is buffered (no backend I/O) and its derived ops are
    /// queued for the next [`Self::flush_staged`]. Staged blocks are
    /// **unacknowledged and unapplied** — a crash before the flush loses
    /// exactly them, and neither [`Self::applied`] nor the state root
    /// moves until the flush.
    pub fn stage_blocks(&mut self, blocks: &[(u64, Block)]) -> Vec<ExecOutcome> {
        blocks
            .iter()
            .map(|(sn, block)| self.stage_block(*sn, block))
            .collect()
    }

    /// Stages one block (see [`Self::stage_blocks`]).
    fn stage_block(&mut self, sn: u64, block: &Block) -> ExecOutcome {
        let next = self.next_sn();
        if sn < next {
            return ExecOutcome::Skipped;
        }
        if sn > next {
            return ExecOutcome::Gap { expected: next };
        }
        // Derive the ops once: their static lane mask routes the WAL
        // record to per-lane-group segments, and the same vector then
        // feeds the apply at flush time.
        let ops: Vec<TxOp> = block.batch.txs(self.keyspace).map(|tx| tx.op).collect();
        self.wal
            .append_buffered(WalRecord::of_block(sn, block, static_lane_mask(&ops)));
        let txs = ops.len() as u64;
        self.staged.push((sn, ops));
        ExecOutcome::Applied { txs }
    }

    /// The **synchronous** durability + apply barrier for everything in
    /// the pipeline: resolves any in-flight barrier (applying its
    /// batch), then submits and completes everything staged — so on
    /// return nothing is staged or in flight and every returned `sn` is
    /// applied. One WAL flush barrier per submitted batch (one fsync per
    /// touched lane group, however many drains accumulated), then the
    /// batch's ops execute as **one batch-wide dependency DAG** — ops
    /// from independent blocks overlap in the same waves; conflicting
    /// ops keep block order — and the per-block ledger advances.
    /// WAL-before-apply, preserved at batch granularity: a crash before
    /// a batch's barrier completes loses only unacknowledged blocks, and
    /// recovery replays a batched log byte-identically to a per-record
    /// one (the DAG is sequentially equivalent, so replaying record by
    /// record reproduces the same state).
    ///
    /// Returns the dense `sn` range drained and applied (`start..end`,
    /// empty when nothing was pending) — the node's lifecycle tracer
    /// uses it to stamp per-block `Flushed`/`Applied` events without
    /// re-deriving the set. The range is durable only if no barrier
    /// reported failure: a failed barrier raises the deterministic
    /// [`PipelinePerf::wal_flush_failures`] alarm (and the WAL's own
    /// `write_failures`), and callers must consult it before treating
    /// the range as durable.
    pub fn flush_staged(&mut self) -> std::ops::Range<u64> {
        let first = self
            .inflight
            .as_ref()
            .and_then(|b| b.blocks.first().map(|(sn, _)| *sn))
            .or_else(|| self.staged.first().map(|(sn, _)| *sn))
            .unwrap_or(self.applied);
        self.complete_inflight();
        if !self.staged.is_empty() {
            self.submit_batch();
            self.complete_inflight();
        }
        first..self.applied
    }

    /// The **pipelined** drain: hands everything staged to the WAL
    /// writer as one flush barrier and applies the *previous* submitted
    /// batch, so batch N's write+fsync proceeds on the writer while this
    /// thread executes batch N-1's DAG (and stages batch N+1 into
    /// double-buffered scratch). Acknowledgement and apply happen only
    /// when a batch's barrier token resolves — WAL-before-apply holds at
    /// batch granularity, in submission order.
    ///
    /// Returns the applied range (the *previous* batch's; empty on the
    /// first submit). In simulation (in-memory WAL) the barrier runs
    /// inline at submit but resolves here all the same, so the
    /// submit/apply structure — and every deterministic counter — is
    /// identical to File mode. Barrier failures raise
    /// [`PipelinePerf::wal_flush_failures`] exactly as in
    /// [`Self::flush_staged`].
    pub fn submit_staged(&mut self) -> std::ops::Range<u64> {
        // Resolve the previous token first (the writer is one-deep), but
        // apply only after the new batch is on the writer: the apply is
        // the work the in-flight barrier overlaps with.
        let prior = self.take_resolved_inflight();
        if prior.is_some() && !self.staged.is_empty() {
            self.perf.pipelined_submits += 1;
        }
        if !self.staged.is_empty() {
            self.submit_batch();
        }
        match prior {
            Some((ok, blocks)) => self.apply_blocks(&blocks, ok),
            None => self.applied..self.applied,
        }
    }

    /// Resolves the in-flight barrier (if any) and applies its batch.
    /// Returns the applied range, or `None` when nothing was in flight.
    pub fn complete_inflight(&mut self) -> Option<std::ops::Range<u64>> {
        let (ok, blocks) = self.take_resolved_inflight()?;
        Some(self.apply_blocks(&blocks, ok))
    }

    /// Submits the staged batch as one WAL flush barrier (must be
    /// nonempty; no barrier may be in flight).
    fn submit_batch(&mut self) {
        debug_assert!(self.inflight.is_none());
        let blocks = std::mem::take(&mut self.staged);
        let t0 = std::time::Instant::now();
        self.wal.submit_flush();
        self.perf.wall_wal_flush_ns += t0.elapsed().as_nanos() as u64;
        self.perf.flush_barriers += 1;
        self.perf.inflight_records_peak = self.perf.inflight_records_peak.max(blocks.len() as u64);
        self.inflight = Some(InFlightBatch {
            blocks,
            submitted_at: std::time::Instant::now(),
        });
    }

    /// Waits out the in-flight barrier token and hands back its batch
    /// with the barrier outcome. Does **not** apply.
    fn take_resolved_inflight(&mut self) -> Option<(bool, StagedBlocks)> {
        let batch = self.inflight.take()?;
        self.perf
            .barrier_overlap
            .observe(batch.submitted_at.elapsed().as_nanos() as u64);
        let t0 = std::time::Instant::now();
        let ok = self.wal.complete_flush().unwrap_or(true);
        let wait = t0.elapsed().as_nanos() as u64;
        self.perf.wall_wal_flush_ns += wait;
        self.perf.barrier_wait.observe(wait);
        Some((ok, batch.blocks))
    }

    /// Applies one completed batch's ops as a batch-wide DAG and
    /// advances the per-block ledger. `ok = false` means the batch's
    /// barrier failed: the blocks still apply (the WAL mirror is
    /// authoritative) but the deterministic failure alarm is raised so
    /// no caller can mistake the range for durable.
    fn apply_blocks(&mut self, blocks: &[(u64, Vec<TxOp>)], ok: bool) -> std::ops::Range<u64> {
        if !ok {
            self.perf.wal_flush_failures += 1;
            self.perf.consecutive_flush_failures += 1;
        } else {
            self.perf.consecutive_flush_failures = 0;
        }
        let first = blocks.first().map_or(self.applied, |(sn, _)| *sn);
        let total: usize = blocks.iter().map(|(_, ops)| ops.len()).sum();
        let mut flat: Vec<TxOp> = Vec::with_capacity(total);
        for (_, ops) in blocks {
            flat.extend_from_slice(ops);
        }
        let exec_t0 = std::time::Instant::now();
        let out = self.kv.apply_batch(&flat);
        self.absorb_outcome(&out);
        for (sn, ops) in blocks {
            self.account_block(*sn, ops);
            self.applied = sn + 1;
        }
        self.perf.wall_exec_ns += exec_t0.elapsed().as_nanos() as u64;
        first..self.applied
    }

    /// Blocks staged but not yet submitted — the size the cross-drain
    /// flush policy thresholds on. Unacknowledged: a crash right now
    /// loses exactly these (plus any in-flight batch).
    pub fn staged_records(&self) -> usize {
        self.staged.len()
    }

    /// Blocks submitted to the WAL writer whose barrier token has not
    /// resolved — unacknowledged and unapplied.
    pub fn inflight_records(&self) -> usize {
        self.inflight.as_ref().map_or(0, |b| b.blocks.len())
    }

    /// The next `sn` the pipeline will accept (dense-order frontier over
    /// applied + in-flight + staged blocks).
    pub fn next_sn(&self) -> u64 {
        self.staged
            .last()
            .or_else(|| self.inflight.as_ref().and_then(|b| b.blocks.last()))
            .map_or(self.applied, |(sn, _)| sn + 1)
    }

    /// Applies one block's derived ops through the wave executor
    /// immediately (the recovery-replay path) and accounts it to the
    /// per-lane ledger.
    fn apply_ops(&mut self, sn: u64, ops: &[TxOp]) -> u64 {
        let out = self.kv.apply_batch(ops);
        self.absorb_outcome(&out);
        self.account_block(sn, ops);
        ops.len() as u64
    }

    /// Folds a batch outcome into the cumulative effect and scheduler
    /// accounting.
    fn absorb_outcome(&mut self, out: &BatchOutcome) {
        self.effects.absorb(out.effects);
        self.sched.batches += 1;
        self.sched.waves += out.waves as u64;
        self.sched.scheduled_ops += out.effects.total();
        self.sched.cross_lane_edges += out.cross_lane_edges;
        self.sched.max_wave_ops = self.sched.max_wave_ops.max(out.max_wave_ops);
    }

    /// Accounts one block to the per-lane ledger from its ops' *static*
    /// access sets: every op counts at its primary lane, and every lane
    /// in the block's static mask is marked dirtied by `sn`. The mask is
    /// a conservative superset of the lanes the block actually wrote
    /// (e.g. an empty transfer still marks its credit lane) — exactly
    /// the superset the WAL already routed the record by, so ledger and
    /// storage agree.
    fn account_block(&mut self, sn: u64, ops: &[TxOp]) {
        let mut mask = 0u64;
        for op in ops {
            match *op {
                TxOp::Put { key, .. } | TxOp::Get { key } => {
                    let lane = lane_of(key);
                    self.lane_ops[lane] += 1;
                    mask |= 1 << lane;
                }
                TxOp::Transfer { from, to, .. } => {
                    let lane = lane_of(from);
                    self.lane_ops[lane] += 1;
                    mask |= 1 << lane;
                    mask |= 1 << lane_of(to);
                }
            }
        }
        while mask != 0 {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            self.lane_last_sn[lane] = Some(sn);
        }
        self.executed_txs += ops.len() as u64;
        self.local_txs += ops.len() as u64;
    }

    /// Epoch checkpoint: captures a snapshot of the current state, compacts
    /// the WAL behind it, and returns the snapshot's manifest root for the
    /// checkpoint message (it authenticates the snapshot's metadata along
    /// with its contents). Called exactly when the epoch's blocks are all
    /// confirmed. `frontier` must be replica-deterministic — pass an empty
    /// vector when it is not (state-only snapshot, see
    /// [`crate::snapshot::Snapshot::frontier`]).
    pub fn checkpoint(&mut self, epoch: u64, frontier: Vec<u64>) -> Digest {
        // Drain any cross-drain accumulation first: the snapshot must
        // cover every confirmed block, and compaction may not outrun
        // staged records.
        self.flush_staged();
        let lane_covered_sn: Vec<u64> = self
            .lane_last_sn
            .iter()
            .map(|s| s.map_or(0, |sn| sn + 1))
            .collect();
        let snap = Snapshot::capture(
            epoch,
            self.applied,
            self.executed_txs,
            frontier,
            lane_covered_sn,
            &self.kv,
        );
        let root = snap.root;
        // Compact only when the snapshot is durably stored: dropping the
        // WAL prefix a failed snapshot was meant to cover would make the
        // covered blocks unrecoverable after a crash.
        if self.store.put(snap) {
            self.wal.compact(self.applied);
        }
        root
    }

    /// Degraded-mode repair: resolves any in-flight barrier, then asks
    /// the WAL to rewrite the backend from its authoritative mirror
    /// ([`CommitWal::repair_backend`]). Returns `true` when the backend
    /// fully caught up with the mirror — every previously alarmed
    /// record is durable again, [`PipelinePerf::consecutive_flush_failures`]
    /// resets, and the caller may drain staged blocks and resume
    /// acknowledging.
    pub fn retry_durability(&mut self) -> bool {
        self.complete_inflight();
        let ok = self.wal.repair_backend();
        if ok {
            self.perf.consecutive_flush_failures = 0;
        }
        ok
    }

    /// Drops stashed sync chunks whose lane roots no pending head
    /// references (checkpoint-time reclamation; see
    /// [`SnapshotStore::prune_stale_chunks`]). Returns the count pruned.
    pub fn prune_stale_chunks(&mut self, keep: &[Digest]) -> u64 {
        self.store.prune_stale_chunks(keep)
    }

    /// Cumulative stale chunks reclaimed by [`Self::prune_stale_chunks`].
    pub fn snapshot_chunks_pruned(&self) -> u64 {
        self.store.chunks_pruned()
    }

    /// Installs a verified peer snapshot when it is ahead of the local
    /// applied frontier. Returns `true` when state advanced. The caller
    /// must have authenticated the root against a quorum-signed stable
    /// checkpoint; this method re-checks only content consistency.
    pub fn install_snapshot(&mut self, snap: &Snapshot) -> bool {
        // Staged blocks must settle before the frontier jumps: flushing
        // first keeps the WAL's dense-sn invariant (their records are
        // already buffered) and is a no-op when nothing is staged.
        self.flush_staged();
        if snap.applied <= self.applied || !snap.verify() {
            return false;
        }
        self.kv = KvState::from_entries(snap.entries.iter().copied());
        self.kv.set_exec_lanes(self.exec_lanes);
        self.applied = snap.applied;
        self.executed_txs = snap.executed_txs;
        self.restore_lane_ledger(snap);
        if self.store.put(snap.clone()) {
            self.wal.compact(self.applied);
        }
        true
    }

    /// Current state root. O([`MERKLE_LANES`]) — folded from the
    /// incrementally maintained lane roots, independent of state size.
    pub fn state_root(&self) -> Digest {
        self.kv.root()
    }

    /// The ordered lane-root vector of the current state.
    pub fn lane_roots(&self) -> Vec<Digest> {
        self.kv.lane_roots()
    }

    /// Parallel execution workers this pipeline applies batches with.
    pub fn exec_lanes(&self) -> u32 {
        self.exec_lanes
    }

    /// Cumulative ops routed to each Merkle lane (length
    /// [`MERKLE_LANES`]).
    pub fn lane_ops(&self) -> &[u64] {
        &self.lane_ops
    }

    /// Lanes dirtied by the current WAL tail: their last-touched `sn` is
    /// at or past the applied frontier of the latest snapshot (every lane
    /// root outside this set is already covered by the snapshot).
    pub fn dirty_lanes(&self) -> usize {
        let covered = self.store.latest().map(|s| s.applied).unwrap_or(0);
        self.lane_last_sn
            .iter()
            .filter(|sn| sn.is_some_and(|sn| sn >= covered))
            .count()
    }

    /// Confirmed blocks applied (the next expected `sn`).
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Cumulative executed transactions at the consensus position
    /// (includes totals inherited from restored/installed snapshots).
    pub fn executed_txs(&self) -> u64 {
        self.executed_txs
    }

    /// Transactions executed by this pipeline instance's own apply path
    /// (live drains + recovery replay) — excludes snapshot-inherited
    /// totals, so it counts work this process actually performed and
    /// always equals the per-lane ledger's op sum.
    pub fn locally_executed_txs(&self) -> u64 {
        self.local_txs
    }

    /// Cumulative operation effects.
    pub fn effects(&self) -> ExecEffects {
        self.effects
    }

    /// The latest checkpoint snapshot, if one has been taken.
    pub fn latest_snapshot(&self) -> Option<&Snapshot> {
        self.store.latest()
    }

    /// Snapshot/chunk files that failed to read, decode, or verify on
    /// the last disk recovery. Nonzero means a rotted artifact silently
    /// dropped the recovery floor (or a stashed chunk was lost) — the
    /// `snapshot_decode_failures` alarm the node mirrors.
    pub fn snapshot_decode_failures(&self) -> u64 {
        self.store.decode_failures()
    }

    /// Stashes a verified delta-sync chunk (persisted content-addressed
    /// when disk-backed) so a partially fetched install survives a
    /// crash. The caller must have verified the chunk against the
    /// manifest head's lane root.
    pub fn stash_chunk(&mut self, chunk: SnapshotChunk) -> bool {
        self.store.stash_chunk(chunk)
    }

    /// The stashed chunk content-addressed by `root`, if held.
    pub fn stashed_chunk(&self, root: &Digest) -> Option<&SnapshotChunk> {
        self.store.stashed_chunk(root)
    }

    /// Every stashed delta-sync chunk (assembly input / resume
    /// advertisement).
    pub fn stashed_chunks(&self) -> impl Iterator<Item = &SnapshotChunk> {
        self.store.stashed_chunks()
    }

    /// Stashed chunk count.
    pub fn stashed_chunk_count(&self) -> usize {
        self.store.stash_len()
    }

    /// Drops the chunk stash (and its files): the pending delta install
    /// completed or was abandoned.
    pub fn clear_chunk_stash(&mut self) {
        self.store.clear_stash()
    }

    /// The current local state decomposed into per-lane chunks, each
    /// content-addressed by its live lane root — what a delta installer
    /// reuses for lanes whose roots already match the target manifest.
    /// One pass over the entries, O(state).
    pub fn lane_chunks(&self) -> Vec<SnapshotChunk> {
        let roots = self.kv.lane_roots();
        let mut buckets: Vec<Vec<(u32, u64)>> = vec![Vec::new(); MERKLE_LANES as usize];
        for (k, v) in self.kv.entries() {
            buckets[lane_of(k)].push((k, v));
        }
        buckets
            .into_iter()
            .enumerate()
            .map(|(lane, entries)| SnapshotChunk {
                lane: lane as u32,
                root: roots[lane],
                entries,
            })
            .collect()
    }

    /// Records currently in the WAL tail (past the last snapshot).
    pub fn wal_len(&self) -> usize {
        self.wal.len()
    }

    /// The WAL's live segment set (manifest mirror) — what a recovery
    /// would scan or skip.
    pub fn wal_segments(&self) -> &[crate::wal::SegmentMeta] {
        self.wal.segments()
    }

    /// What the last rebuild (disk recovery or parts reconstruction)
    /// replayed. All zeros for a pipeline that started fresh.
    pub fn recovery_stats(&self) -> &ReplayStats {
        &self.recovery
    }

    /// Cumulative wave-scheduler accounting across every executed batch
    /// (waves, ops, cross-lane dependency edges) — deterministic and
    /// worker-count invariant.
    pub fn sched_stats(&self) -> ExecSchedStats {
        self.sched
    }

    /// Failed durable writes (WAL appends/compactions that did not reach
    /// storage). Nonzero means a crash right now could lose the affected
    /// records; the next successful compaction repairs the backend from
    /// the in-memory mirror.
    pub fn wal_write_failures(&self) -> u64 {
        self.wal.write_failures()
    }

    /// The WAL backend's deterministic I/O counters (staged writes,
    /// fsync barriers, segment opens, bytes written) — the group-commit
    /// cost surface, carried by `NodeMetrics` and emitted as `wal.*`.
    pub fn wal_io_stats(&self) -> crate::wal::WalIoStats {
        self.wal.io_stats()
    }

    /// Cumulative barrier accounting: the wall-clock durability/execute
    /// split (`wall_` fields, never part of the determinism gates) plus
    /// the deterministic barrier counters — including
    /// [`PipelinePerf::wal_flush_failures`], the alarm a caller must
    /// check before treating a drained range as durable.
    pub fn perf(&self) -> PipelinePerf {
        self.perf.clone()
    }

    /// Read access to the KV state (assertions and examples).
    pub fn kv(&self) -> &KvState {
        &self.kv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::DEFAULT_KEYSPACE;
    use ladon_types::{Batch, BlockHeader, Digest, InstanceId, Rank, Round, TimeNs, TxId};

    fn block(sn: u64, first_tx: u64, count: u32) -> Block {
        Block {
            header: BlockHeader {
                index: InstanceId((sn % 4) as u32),
                round: Round(sn / 4 + 1),
                rank: Rank(sn),
                payload_digest: Digest([1; 32]),
            },
            batch: Batch {
                first_tx: TxId(first_tx),
                count,
                payload_bytes: count as u64 * 500,
                arrival_sum_ns: 0,
                earliest_arrival: TimeNs::ZERO,
                bucket: 0,
                refs: Vec::new(),
            },
            proposed_at: TimeNs::ZERO,
        }
    }

    fn run_blocks(p: &mut ExecutionPipeline, from_sn: u64, n: u64) {
        for sn in from_sn..from_sn + n {
            let out = p.execute(sn, &block(sn, sn * 50, 50));
            assert_eq!(out, ExecOutcome::Applied { txs: 50 });
        }
    }

    #[test]
    fn execution_is_deterministic() {
        let mut a = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        let mut b = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut a, 0, 20);
        run_blocks(&mut b, 0, 20);
        assert_eq!(a.state_root(), b.state_root());
        assert_eq!(a.executed_txs(), 1000);
        assert!(a.effects().total() >= 1000);
    }

    #[test]
    fn roots_are_worker_count_invariant() {
        let mut roots = Vec::new();
        for lanes in [1u32, 2, 8, 64] {
            let mut p = ExecutionPipeline::in_memory_with(DEFAULT_KEYSPACE, lanes);
            run_blocks(&mut p, 0, 20);
            roots.push(p.state_root());
        }
        assert!(
            roots.windows(2).all(|w| w[0] == w[1]),
            "state roots must not depend on exec_lanes: {roots:?}"
        );
    }

    #[test]
    fn lane_ledger_tracks_wal_tail() {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut p, 0, 8);
        assert_eq!(p.lane_ops().iter().sum::<u64>(), 8 * 50);
        assert!(p.dirty_lanes() > 0);
        // A checkpoint covers every dirtied lane.
        p.checkpoint(0, Vec::new());
        assert_eq!(p.dirty_lanes(), 0, "snapshot must cover all lanes");
        // One 50-op block dirties at most 100 lanes (each op touches at
        // most one phase-1 lane plus one credited lane), clamped to the
        // lane count.
        run_blocks(&mut p, 8, 1);
        let dirty = p.dirty_lanes();
        let cap = 100.min(MERKLE_LANES as usize);
        assert!((1..=cap).contains(&dirty), "dirty lanes = {dirty}");
    }

    #[test]
    fn recovery_from_parts_reproduces_root() {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut p, 0, 12);
        p.checkpoint(0, Vec::new());
        run_blocks(&mut p, 12, 7); // tail past the snapshot
        let (snap, wal) = p.export_parts();
        let recovered = ExecutionPipeline::from_parts(snap.as_deref(), &wal, DEFAULT_KEYSPACE);
        assert_eq!(recovered.applied(), p.applied());
        assert_eq!(recovered.executed_txs(), p.executed_txs());
        assert_eq!(recovered.state_root(), p.state_root());
    }

    #[test]
    fn batched_execution_matches_per_block_execution() {
        let mut per_block = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut per_block, 0, 20);

        let mut batched = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        let blocks: Vec<(u64, Block)> = (0..20u64).map(|sn| (sn, block(sn, sn * 50, 50))).collect();
        for chunk in blocks.chunks(7) {
            for out in batched.execute_batch(chunk) {
                assert_eq!(out, ExecOutcome::Applied { txs: 50 });
            }
        }
        assert_eq!(batched.applied(), per_block.applied());
        assert_eq!(batched.executed_txs(), per_block.executed_txs());
        assert_eq!(batched.state_root(), per_block.state_root());
        assert_eq!(batched.lane_roots(), per_block.lane_roots());
        // And the batched WAL recovers to the identical state.
        let (snap, wal) = batched.export_parts();
        let recovered = ExecutionPipeline::from_parts(snap.as_deref(), &wal, DEFAULT_KEYSPACE);
        assert_eq!(recovered.state_root(), per_block.state_root());
        assert_eq!(recovered.applied(), 20);
    }

    #[test]
    fn batched_execution_skips_and_refuses_like_execute() {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut p, 0, 3);
        let root = p.state_root();
        // A batch mixing stale, applicable, and out-of-order blocks: the
        // stale one is skipped, the dense run applies, the gap refuses.
        let batch = vec![
            (1u64, block(1, 50, 50)),  // below the frontier
            (3u64, block(3, 150, 50)), // next expected
            (4u64, block(4, 200, 50)), // dense continuation
            (9u64, block(9, 450, 50)), // gap: 5 was never delivered
        ];
        let out = p.execute_batch(&batch);
        assert_eq!(out[0], ExecOutcome::Skipped);
        assert_eq!(out[1], ExecOutcome::Applied { txs: 50 });
        assert_eq!(out[2], ExecOutcome::Applied { txs: 50 });
        assert_eq!(out[3], ExecOutcome::Gap { expected: 5 });
        assert_eq!(p.applied(), 5);
        assert_ne!(p.state_root(), root, "the dense run must have applied");
        // An all-stale batch is a no-op: nothing staged, nothing flushed.
        let before = p.wal_io_stats();
        let out = p.execute_batch(&[(0, block(0, 0, 50))]);
        assert_eq!(out, vec![ExecOutcome::Skipped]);
        assert_eq!(p.wal_io_stats(), before);
    }

    #[test]
    fn staged_blocks_defer_apply_until_flush() {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut p, 0, 2);
        let root_before = p.state_root();
        // Two confirmed-queue drains accumulate without a flush: staged,
        // unacknowledged, unapplied.
        let out = p.stage_blocks(&[(2, block(2, 100, 50)), (3, block(3, 150, 50))]);
        assert_eq!(out, vec![ExecOutcome::Applied { txs: 50 }; 2]);
        p.stage_blocks(&[(4, block(4, 200, 50))]);
        assert_eq!(p.staged_records(), 3);
        assert_eq!(p.next_sn(), 5);
        assert_eq!(p.applied(), 2, "staged blocks must not apply");
        assert_eq!(p.state_root(), root_before);
        assert_eq!(p.wal_len(), 2, "staged records must not be acknowledged");
        // The flush applies everything as one batch-wide DAG.
        p.flush_staged();
        assert_eq!(p.applied(), 5);
        assert_eq!(p.staged_records(), 0);
        assert_eq!(p.wal_len(), 5);
        // Identical to per-block execution.
        let mut reference = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut reference, 0, 5);
        assert_eq!(p.state_root(), reference.state_root());
        assert_eq!(p.executed_txs(), reference.executed_txs());
    }

    #[test]
    fn submit_staged_applies_one_barrier_late() {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        // Batch A submits; nothing applies (its barrier is in flight).
        p.stage_blocks(&[(0, block(0, 0, 50)), (1, block(1, 50, 50))]);
        let r = p.submit_staged();
        assert!(r.is_empty());
        assert_eq!(p.applied(), 0, "apply waits for the barrier token");
        assert_eq!(p.inflight_records(), 2);
        assert_eq!(p.staged_records(), 0);
        assert_eq!(p.wal_len(), 0, "in-flight records are unacknowledged");
        assert_eq!(p.next_sn(), 2, "the frontier covers the in-flight batch");
        // Batch B submits; batch A's token resolves and A applies.
        p.stage_blocks(&[(2, block(2, 100, 50))]);
        let r = p.submit_staged();
        assert_eq!(r, 0..2);
        assert_eq!(p.applied(), 2);
        assert_eq!(p.inflight_records(), 1);
        assert_eq!(p.wal_len(), 2);
        let perf = p.perf();
        assert_eq!(perf.flush_barriers, 2);
        assert_eq!(perf.pipelined_submits, 1, "B overlapped A's barrier");
        assert_eq!(perf.wal_flush_failures, 0);
        // The synchronous drain resolves the tail; state matches the
        // sequential reference.
        let r = p.flush_staged();
        assert_eq!(r, 2..3);
        assert_eq!(p.applied(), 3);
        assert_eq!(p.wal_len(), 3);
        let mut reference = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut reference, 0, 3);
        assert_eq!(p.state_root(), reference.state_root());
        assert_eq!(p.executed_txs(), reference.executed_txs());
        // Same fsync count as the synchronous path at the same batch
        // boundaries: pipelining moves the barrier, it never adds one.
        let mut sync = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        sync.execute_batch(&[(0, block(0, 0, 50)), (1, block(1, 50, 50))]);
        sync.execute_batch(&[(2, block(2, 100, 50))]);
        assert_eq!(p.wal_io_stats(), sync.wal_io_stats());
        assert_eq!(p.state_root(), sync.state_root());
    }

    #[test]
    fn checkpoint_drains_staged_blocks_first() {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut p, 0, 3);
        p.stage_blocks(&[(3, block(3, 150, 50)), (4, block(4, 200, 50))]);
        let root = p.checkpoint(0, Vec::new());
        assert_eq!(p.applied(), 5, "checkpoint must cover staged blocks");
        assert_eq!(p.staged_records(), 0);
        let snap = p.latest_snapshot().unwrap();
        assert_eq!(snap.applied, 5);
        assert_eq!(snap.root, root);
        assert_eq!(p.wal_len(), 0, "compaction follows the drained flush");
    }

    #[test]
    fn sched_stats_accumulate_per_flush() {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        let s0 = p.sched_stats();
        assert_eq!(s0, ExecSchedStats::default());
        // One accumulated two-drain flush = ONE batch-wide DAG.
        p.stage_blocks(&[(0, block(0, 0, 50))]);
        p.stage_blocks(&[(1, block(1, 50, 50))]);
        p.flush_staged();
        let s1 = p.sched_stats();
        assert_eq!(s1.batches, 1, "one flush = one scheduled batch");
        assert_eq!(s1.scheduled_ops, 100);
        assert!(s1.waves >= 1);
        assert!(s1.max_wave_ops >= 1);
    }

    #[test]
    fn wal_io_stats_count_group_commit_barriers() {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut p, 0, 4);
        let s0 = p.wal_io_stats();
        assert!(s0.fsyncs > 0, "per-record appends must have synced");
        // One 8-block batch: at most one fsync per touched lane group,
        // independent of the batch size.
        let batch: Vec<(u64, Block)> = (4..12u64).map(|sn| (sn, block(sn, sn * 50, 50))).collect();
        p.execute_batch(&batch);
        let s1 = p.wal_io_stats();
        let groups = 8; // WalOptions::default().lane_groups
        assert!(
            s1.fsyncs - s0.fsyncs <= groups,
            "a batch must cost at most one fsync per lane group: {s0:?} -> {s1:?}"
        );
        assert!(s1.bytes_written > s0.bytes_written);
    }

    #[test]
    fn checkpoint_compacts_wal() {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut p, 0, 10);
        assert_eq!(p.wal_len(), 10);
        let root = p.checkpoint(0, Vec::new());
        assert_eq!(p.wal_len(), 0);
        assert_eq!(p.latest_snapshot().map(|s| s.root), Some(root));
        run_blocks(&mut p, 10, 3);
        assert_eq!(p.wal_len(), 3);
    }

    #[test]
    fn stale_blocks_are_skipped_after_snapshot_install() {
        let mut donor = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut donor, 0, 16);
        donor.checkpoint(0, Vec::new());
        let snap = donor.latest_snapshot().unwrap().clone();

        let mut lagger = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut lagger, 0, 4);
        assert!(lagger.install_snapshot(&snap));
        assert_eq!(lagger.applied(), 16);
        assert_eq!(lagger.state_root(), donor.state_root());
        // Re-delivered old blocks are skipped idempotently.
        assert_eq!(lagger.execute(5, &block(5, 250, 50)), ExecOutcome::Skipped);
        // Out-of-order future blocks are refused, not misapplied.
        let before = lagger.state_root();
        assert_eq!(
            lagger.execute(20, &block(20, 1000, 50)),
            ExecOutcome::Gap { expected: 16 }
        );
        assert_eq!(
            lagger.state_root(),
            before,
            "a refused block must not touch state"
        );
        assert_eq!(lagger.applied(), 16);
        // And execution continues seamlessly past the installed frontier.
        run_blocks(&mut lagger, 16, 2);
        run_blocks(&mut donor, 16, 2);
        assert_eq!(lagger.state_root(), donor.state_root());
    }

    #[test]
    fn tampered_snapshot_rejected_on_install() {
        let mut donor = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut donor, 0, 8);
        donor.checkpoint(0, Vec::new());
        let mut snap = donor.latest_snapshot().unwrap().clone();
        if let Some(e) = snap.entries.first_mut() {
            e.1 ^= 1;
        }
        let mut lagger = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        assert!(!lagger.install_snapshot(&snap));
        assert_eq!(lagger.applied(), 0);
    }

    #[test]
    fn disk_recovery_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ladon-exec-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (root, applied) = {
            let mut p = ExecutionPipeline::recover(&dir, DEFAULT_KEYSPACE).unwrap();
            run_blocks(&mut p, 0, 9);
            p.checkpoint(0, Vec::new());
            run_blocks(&mut p, 9, 4);
            (p.state_root(), p.applied())
        };
        let p = ExecutionPipeline::recover(&dir, DEFAULT_KEYSPACE).unwrap();
        assert_eq!(p.applied(), applied);
        assert_eq!(p.state_root(), root);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
