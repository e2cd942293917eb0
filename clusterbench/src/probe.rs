//! Timing and recording wrappers placed around the program's public
//! seams: an [`Actor`] wrapper per replica (and around the client fleet),
//! a [`Network`] wrapper around the NIC model, and a [`Context`] wrapper
//! that records what the load generator submits.
//!
//! The wrappers forward every call unchanged, so a traced run produces
//! exactly the same simulated history as an untraced one (the benchmark
//! checks this), and `as_any` forwards to the wrapped actor so that
//! `Engine::actor_as::<MultiBftNode>` keeps working.

use ladon_core::{MultiBftNode, NodeMsg};
use ladon_sim::{Actor, ActorId, Context, Network, SimRng};
use ladon_types::TimeNs;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// The layer a span is charged to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Layer {
    /// `NodeMsg::Pbft` handling (PBFT instance traffic).
    Pbft,
    /// `NodeMsg::Hs` handling (chained HotStuff traffic).
    Hs,
    /// `NodeMsg::Checkpoint` handling (epoch checkpoints).
    Checkpoint,
    /// `NodeMsg::SyncReq` handling (serving state transfer).
    SyncServe,
    /// `NodeMsg::SyncResp` handling (installing state transfer).
    SyncInstall,
    /// `NodeMsg::ClientTxs` handling (mempool intake and relay).
    ClientMsg,
    /// Replica timers and `on_start`.
    Timer,
    /// The client fleet's generation ticks.
    Client,
    /// Durable-pipeline recovery called by the benchmark.
    Recover,
}

impl Layer {
    /// Span label.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Pbft => "core.pbft_msg",
            Layer::Hs => "core.hs_msg",
            Layer::Checkpoint => "core.epoch.checkpoint_msg",
            Layer::SyncServe => "core.sync.serve",
            Layer::SyncInstall => "core.sync.install",
            Layer::ClientMsg => "core.client_msg",
            Layer::Timer => "core.timer",
            Layer::Client => "workload.client",
            Layer::Recover => "state.recover",
        }
    }

    fn of(msg: &NodeMsg) -> Layer {
        match msg {
            NodeMsg::Pbft { .. } => Layer::Pbft,
            NodeMsg::Hs { .. } => Layer::Hs,
            NodeMsg::Checkpoint(_) => Layer::Checkpoint,
            NodeMsg::SyncReq(_) => Layer::SyncServe,
            NodeMsg::SyncResp(_) => Layer::SyncInstall,
            NodeMsg::ClientTxs(_) => Layer::ClientMsg,
        }
    }
}

/// One timed call: which layer, on which actor, when (host and sim), and
/// how much of it nested layers (state execution, WAL flush, network
/// model) account for.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Charged layer.
    pub layer: Layer,
    /// Actor id (replica index; `n` for the client fleet).
    pub actor: u32,
    /// Host start, ns since the probe's epoch.
    pub start_ns: u64,
    /// Host end, ns since the probe's epoch.
    pub end_ns: u64,
    /// Simulated time of the call.
    pub sim: TimeNs,
    /// Nested DAG execution time (`wall_exec_ns` delta).
    pub exec_ns: u64,
    /// Nested WAL flush time (`wall_wal_flush_ns` delta).
    pub flush_ns: u64,
    /// Nested network-model time.
    pub net_ns: u64,
}

impl Span {
    /// Inclusive duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Shared span sink of one traced deployment.
pub struct Probe {
    epoch: Instant,
    /// Network-model time so far (ns), advanced by [`TimedNet`].
    pub net_ns: Cell<u64>,
    /// Every span recorded, in completion order.
    pub spans: RefCell<Vec<Span>>,
}

impl Probe {
    /// A fresh probe whose span clock starts now.
    pub fn new() -> Rc<Self> {
        Rc::new(Self {
            epoch: Instant::now(),
            net_ns: Cell::new(0),
            spans: RefCell::new(Vec::new()),
        })
    }

    /// Host ns since the probe's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span the benchmark timed itself (set-up calls).
    pub fn record(&self, layer: Layer, actor: u32, start_ns: u64, sim: TimeNs) {
        let end_ns = self.now_ns();
        self.spans.borrow_mut().push(Span {
            layer,
            actor,
            start_ns,
            end_ns,
            sim,
            exec_ns: 0,
            flush_ns: 0,
            net_ns: 0,
        });
    }

    /// Writes every span as tab-separated text.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "layer\tactor\tstart_ns\tend_ns\tsim_ns\texec_ns\tflush_ns\tnet_ns"
        )?;
        for s in self.spans.borrow().iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.layer.name(),
                s.actor,
                s.start_ns,
                s.end_ns,
                s.sim.0,
                s.exec_ns,
                s.flush_ns,
                s.net_ns
            )?;
        }
        out.flush()
    }
}

/// Reads an actor's cumulative state-layer wall clocks, for nesting.
pub trait StateClocks {
    /// `(wall_exec_ns, wall_wal_flush_ns)` so far.
    fn state_clocks(&self) -> (u64, u64);
}

impl StateClocks for MultiBftNode {
    fn state_clocks(&self) -> (u64, u64) {
        (self.metrics.wall_exec_ns, self.metrics.wall_wal_flush_ns)
    }
}

impl<A> StateClocks for Recorded<A> {
    fn state_clocks(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Times every callback of the wrapped actor into a [`Probe`].
pub struct Timed<A> {
    inner: A,
    actor: u32,
    /// Layer charged for timers and `on_start`.
    timer_layer: Layer,
    probe: Rc<Probe>,
    /// Last seen state clocks. A replica rebuilt over a recovered
    /// pipeline starts with the recovery's own execution time already on
    /// its pipeline clock; seeding from it keeps that out of the first
    /// handler's nested time.
    last: (u64, u64),
}

impl<A: StateClocks> Timed<A> {
    /// Wraps `inner` (actor id `actor`, timers charged to `timer_layer`),
    /// seeding the state clocks with `(exec_ns, flush_ns)` already
    /// accumulated before wrapping.
    pub fn new(
        inner: A,
        actor: u32,
        timer_layer: Layer,
        probe: Rc<Probe>,
        seed_clocks: (u64, u64),
    ) -> Self {
        Self {
            inner,
            actor,
            timer_layer,
            probe,
            last: seed_clocks,
        }
    }

    fn timed(&mut self, layer: Layer, sim: TimeNs, f: impl FnOnce(&mut A)) {
        let net0 = self.probe.net_ns.get();
        let start_ns = self.probe.now_ns();
        f(&mut self.inner);
        let end_ns = self.probe.now_ns();
        let (e, w) = self.inner.state_clocks();
        let e = e.max(self.last.0);
        let w = w.max(self.last.1);
        let span = Span {
            layer,
            actor: self.actor,
            start_ns,
            end_ns,
            sim,
            exec_ns: e - self.last.0,
            flush_ns: w - self.last.1,
            net_ns: self.probe.net_ns.get() - net0,
        };
        self.last = (e, w);
        self.probe.spans.borrow_mut().push(span);
    }
}

impl<A: Actor<NodeMsg> + StateClocks + 'static> Actor<NodeMsg> for Timed<A> {
    fn on_start(&mut self, ctx: &mut dyn Context<NodeMsg>) {
        self.timed(self.timer_layer, ctx.now(), |a| a.on_start(ctx));
    }

    fn on_message(&mut self, from: ActorId, msg: NodeMsg, ctx: &mut dyn Context<NodeMsg>) {
        self.timed(Layer::of(&msg), ctx.now(), |a| a.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut dyn Context<NodeMsg>) {
        self.timed(self.timer_layer, ctx.now(), |a| a.on_timer(timer, ctx));
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Times the network model's delivery decisions.
pub struct TimedNet<N> {
    inner: N,
    probe: Rc<Probe>,
}

impl<N: Network> TimedNet<N> {
    /// Wraps `inner`.
    pub fn new(inner: N, probe: Rc<Probe>) -> Self {
        Self { inner, probe }
    }
}

impl<N: Network> Network for TimedNet<N> {
    fn delivery_time(
        &mut self,
        now: TimeNs,
        from: usize,
        to: usize,
        bytes: u64,
        rng: &mut SimRng,
    ) -> Option<TimeNs> {
        let t0 = Instant::now();
        let at = self.inner.delivery_time(now, from, to, bytes, rng);
        let net_ns = &self.probe.net_ns;
        net_ns.set(net_ns.get() + t0.elapsed().as_nanos() as u64);
        at
    }
}

/// One client transaction group as the load generator sent it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Submission {
    /// Relay replica it was sent to.
    pub relay: ActorId,
    /// Transactions in the group.
    pub count: u32,
    /// Sum of the group's submission times (ns).
    pub arrival_sum_ns: u128,
}

/// Records every `ClientTxs` group the wrapped load generator sends.
/// Runs in traced and untraced deployments alike: it observes the
/// benchmark's own input, not the system under test.
pub struct Recorded<A> {
    inner: A,
    log: Rc<RefCell<Vec<Submission>>>,
}

impl<A> Recorded<A> {
    /// Wraps `inner`, appending its submissions to `log`.
    pub fn new(inner: A, log: Rc<RefCell<Vec<Submission>>>) -> Self {
        Self { inner, log }
    }
}

struct RecordingCtx<'a> {
    inner: &'a mut dyn Context<NodeMsg>,
    log: &'a RefCell<Vec<Submission>>,
}

impl Context<NodeMsg> for RecordingCtx<'_> {
    fn now(&self) -> TimeNs {
        self.inner.now()
    }
    fn self_id(&self) -> ActorId {
        self.inner.self_id()
    }
    fn send_sized(&mut self, to: ActorId, msg: NodeMsg, bytes: u64) {
        if let NodeMsg::ClientTxs(g) = &msg {
            self.log.borrow_mut().push(Submission {
                relay: to,
                count: g.count,
                arrival_sum_ns: g.arrival_sum_ns,
            });
        }
        self.inner.send_sized(to, msg, bytes);
    }
    fn set_timer(&mut self, delay: TimeNs, id: u64) {
        self.inner.set_timer(delay, id);
    }
    fn crash(&mut self, actor: ActorId) {
        self.inner.crash(actor);
    }
    fn rng(&mut self) -> &mut SimRng {
        self.inner.rng()
    }
}

impl<A: Actor<NodeMsg> + 'static> Actor<NodeMsg> for Recorded<A> {
    fn on_start(&mut self, ctx: &mut dyn Context<NodeMsg>) {
        let log = Rc::clone(&self.log);
        self.inner.on_start(&mut RecordingCtx {
            inner: ctx,
            log: &log,
        });
    }

    fn on_message(&mut self, from: ActorId, msg: NodeMsg, ctx: &mut dyn Context<NodeMsg>) {
        let log = Rc::clone(&self.log);
        self.inner.on_message(
            from,
            msg,
            &mut RecordingCtx {
                inner: ctx,
                log: &log,
            },
        );
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut dyn Context<NodeMsg>) {
        let log = Rc::clone(&self.log);
        self.inner.on_timer(
            timer,
            &mut RecordingCtx {
                inner: ctx,
                log: &log,
            },
        );
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
