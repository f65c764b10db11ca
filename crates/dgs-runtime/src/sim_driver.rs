//! Run a synchronization plan on the `dgs-sim` cluster simulator.
//!
//! Every plan worker becomes one actor placed on the node given by its
//! plan [`Location`] (locations map 1:1 to simulator nodes). Every
//! [`PacedSource`] becomes a source actor emitting events whose timestamps
//! are their virtual emission times — the "well-synchronized clocks"
//! assumption of §3.1 — so output latency is simply `now - event.ts`.
//!
//! [`build_sim`] + [`PacedSource`] are the cluster cost model the
//! paper-figure benches and the baselines run on, not a second way to run
//! a [`Job`](crate::job::Job): a job's [`Backend::Sim`](crate::job::Backend::Sim)
//! replays its scheduled streams through the same worker actors.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use dgs_core::event::{Event, Heartbeat, StreamItem, Timestamp};
use dgs_core::program::DgsProgram;
use dgs_plan::plan::{Location, Plan, WorkerId};
use dgs_sim::{Actor, ActorId, Ctx, Engine, NodeId, SimTime, Topology};

use crate::cost::CostModel;
use crate::source::{PacedSource, ScheduledStream};
use crate::thread_driver::RunEffects;
use crate::worker::{partition_seeds, WorkerCore, WorkerMsg};

/// Message type of a simulated Flumina deployment.
pub enum SimMsg<T, P, S> {
    /// Protocol message to a worker.
    Worker(WorkerMsg<T, P, S>),
    /// Source event-emission timer.
    Tick,
    /// Source heartbeat timer.
    HbTick,
}

/// Shared, timestamped record sink.
pub type SharedLog<T> = Rc<RefCell<Vec<(T, Timestamp)>>>;

/// Shared, timestamped record sink tagged with the partition root that
/// produced each entry (checkpoints of a forest plan).
pub type SharedRootLog<T> = Rc<RefCell<Vec<(WorkerId, T, Timestamp)>>>;

/// Shared handles into a running simulation.
pub struct SimHandles<S, Out> {
    /// Outputs with the timestamp of the event that produced them.
    pub outputs: SharedLog<Out>,
    /// Checkpoints taken at the partition roots (empty unless enabled),
    /// tagged with the root that took each snapshot.
    pub checkpoints: SharedRootLog<S>,
    /// Per-worker protocol effect counters, indexed by plan worker id —
    /// the simulator's counterpart of the thread driver's
    /// [`RunEffects`], so both backends report worker-attributed work
    /// through one type. (The engine's global metrics keep the aggregate
    /// `updates`/`joins`/`forks` counters as before.)
    pub effects: Rc<RefCell<RunEffects>>,
}

/// Wire size of an event message in bytes.
const EVENT_BYTES: u64 = 64;
/// Wire size of a forked/joined state message in bytes.
const STATE_BYTES: u64 = 256;

/// Configuration of a simulated deployment.
pub struct SimConfig {
    /// Cluster model.
    pub topology: Topology,
    /// CPU cost model.
    pub cost: CostModel,
    /// Store outputs in [`SimHandles::outputs`] (disable for huge runs).
    pub keep_outputs: bool,
    /// Seeded adversarial cross-edge delivery scheduler (see
    /// [`dgs_sim::Engine::set_delivery_adversary`]): `Some((seed,
    /// max_jitter_ns))` permutes delivery order across edges while
    /// preserving per-edge FIFO — the only delivery assumption Theorem
    /// 3.5 makes. Sweeping seeds turns the simulator into a search tool
    /// for ordering bugs the default (near send-order) schedule hides.
    pub adversary: Option<(u64, u64)>,
}

impl SimConfig {
    /// Defaults over the given topology.
    pub fn new(topology: Topology) -> Self {
        SimConfig {
            topology,
            cost: CostModel::default(),
            keep_outputs: true,
            adversary: None,
        }
    }

    /// Enable the adversarial delivery scheduler with this seed and
    /// jitter bound (builder style, for seed sweeps).
    pub fn with_adversary(mut self, seed: u64, max_jitter_ns: u64) -> Self {
        self.adversary = Some((seed, max_jitter_ns));
        self
    }
}

struct WorkerActor<Prog: DgsProgram> {
    core: WorkerCore<Prog>,
    cost: CostModel,
    record_latency: bool,
    keep_outputs: bool,
    outputs: SharedLog<Prog::Out>,
    checkpoints: SharedRootLog<Prog::State>,
    effects: Rc<RefCell<RunEffects>>,
}

type Msg<Prog> =
    SimMsg<<Prog as DgsProgram>::Tag, <Prog as DgsProgram>::Payload, <Prog as DgsProgram>::State>;

impl<Prog: DgsProgram> Actor<Msg<Prog>> for WorkerActor<Prog> {
    fn on_message(&mut self, msg: Msg<Prog>, ctx: &mut Ctx<'_, Msg<Prog>>) {
        let SimMsg::Worker(wm) = msg else {
            return; // ticks are for sources only
        };
        let (inserts, heartbeats) = match &wm {
            WorkerMsg::Event(_) | WorkerMsg::JoinRequest { .. } => (1, 0),
            WorkerMsg::EventBatch(b) => (b.len() as u64, 0),
            WorkerMsg::Heartbeat(_) => (0, 1),
            _ => (0, 0),
        };
        let fx = self.core.handle(wm);
        ctx.charge(self.cost.handler_cost(fx.updates, fx.joins, fx.forks, inserts, heartbeats));
        ctx.metrics().add("updates", fx.updates);
        ctx.metrics().add("joins", fx.joins);
        ctx.metrics().add("forks", fx.forks);
        {
            let mut eff = self.effects.borrow_mut();
            let i = self.core.id().0;
            eff.msgs[i] += 1;
            eff.updates[i] += fx.updates;
            eff.joins[i] += fx.joins;
            eff.forks[i] += fx.forks;
        }
        let now = ctx.now();
        for (out, ts) in fx.outputs {
            ctx.metrics().bump("outputs");
            if self.record_latency && now >= ts {
                ctx.metrics().record_latency(now - ts);
            }
            if self.keep_outputs {
                self.outputs.borrow_mut().push((out, ts));
            }
        }
        for (state, ts) in fx.checkpoints {
            self.checkpoints.borrow_mut().push((self.core.id(), state, ts));
        }
        for (dst, m) in fx.msgs {
            // Workers are actors 0..plan.len() in id order.
            ctx.send(ActorId(dst.0), SimMsg::Worker(m));
        }
        // The Appendix-D effect: starved heartbeats leave events buffered.
        ctx.metrics().record_max("max_backlog", self.core.backlog() as u64);
    }
}

struct SourceActor<Prog: DgsProgram> {
    spec: PacedSource<Prog::Tag, Prog::Payload>,
    dst: ActorId,
    emitted: u64,
    next_event_ts: SimTime,
    next_hb_ts: SimTime,
    done: bool,
    emit_cost: SimTime,
}

impl<Prog: DgsProgram> Actor<Msg<Prog>> for SourceActor<Prog> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg<Prog>>) {
        self.next_event_ts = self.spec.start_ns;
        ctx.send_self_after(self.spec.start_ns, SimMsg::Tick);
        if let Some(hb) = self.spec.hb_period_ns {
            self.next_hb_ts = hb;
            ctx.send_self_after(hb, SimMsg::HbTick);
        }
    }

    fn on_message(&mut self, msg: Msg<Prog>, ctx: &mut Ctx<'_, Msg<Prog>>) {
        match msg {
            SimMsg::Tick => {
                if self.done {
                    return;
                }
                let n = (self.spec.batch as u64).min(self.spec.count - self.emitted);
                let mut events = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    events.push(Event::new(
                        self.spec.itag.tag.clone(),
                        self.spec.itag.stream,
                        self.next_event_ts,
                        (self.spec.payload)(self.emitted),
                    ));
                    self.emitted += 1;
                    self.next_event_ts += self.spec.period_ns;
                }
                ctx.charge(self.emit_cost * n);
                ctx.metrics().add("events_emitted", n);
                if events.len() == 1 {
                    let e = events.pop().expect("one event");
                    ctx.send(self.dst, SimMsg::Worker(WorkerMsg::Event(e)));
                } else {
                    ctx.send(self.dst, SimMsg::Worker(WorkerMsg::EventBatch(events)));
                }
                if self.emitted >= self.spec.count {
                    // Close the stream so dependent mailboxes can flush.
                    self.done = true;
                    ctx.send(
                        self.dst,
                        SimMsg::Worker(WorkerMsg::Heartbeat(Heartbeat::new(
                            self.spec.itag.tag.clone(),
                            self.spec.itag.stream,
                            Timestamp::MAX,
                        ))),
                    );
                } else {
                    ctx.send_self_after(self.spec.period_ns * n, SimMsg::Tick);
                }
            }
            SimMsg::HbTick => {
                if self.done {
                    return;
                }
                let hb_period = self.spec.hb_period_ns.expect("hb tick without period");
                // A heartbeat promises "no events at or before ts", so it
                // must stay strictly below the next event's timestamp.
                let ts = self.next_hb_ts.min(self.next_event_ts.saturating_sub(1));
                if ts > 0 {
                    ctx.metrics().bump("heartbeats_emitted");
                    ctx.send(
                        self.dst,
                        SimMsg::Worker(WorkerMsg::Heartbeat(Heartbeat::new(
                            self.spec.itag.tag.clone(),
                            self.spec.itag.stream,
                            ts,
                        ))),
                    );
                }
                self.next_hb_ts += hb_period;
                ctx.send_self_after(hb_period, SimMsg::HbTick);
            }
            SimMsg::Worker(_) => {}
        }
    }
}

/// Virtual nanoseconds one schedule tick maps to when a scheduled stream
/// is replayed — one tick per virtual microsecond.
const REPLAY_NS_PER_TICK: u64 = 1_000;

/// A scheduled stream replayed into the simulator — the thread driver's
/// workload description running on the virtual-time backend. Each item
/// is emitted at virtual time `ts * REPLAY_NS_PER_TICK`; items whose
/// scaled time overflows — notably the closing `Timestamp::MAX`
/// heartbeat — are emitted immediately after the last representable
/// item.
pub(crate) struct ReplaySource<T: dgs_core::tag::Tag, P> {
    /// The materialized stream (same type the thread driver feeds).
    pub stream: ScheduledStream<T, P>,
    /// Node the replaying source runs on.
    pub location: Location,
}

struct ReplayActor<Prog: DgsProgram> {
    items: Vec<StreamItem<Prog::Tag, Prog::Payload>>,
    next: usize,
    dst: ActorId,
    emit_cost: SimTime,
}

impl<Prog: DgsProgram> ReplayActor<Prog> {
    fn vtime(&self, ts: Timestamp) -> Option<SimTime> {
        ts.checked_mul(REPLAY_NS_PER_TICK)
    }
}

impl<Prog: DgsProgram> Actor<Msg<Prog>> for ReplayActor<Prog> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg<Prog>>) {
        if let Some(first) = self.items.first() {
            // An unrepresentable first emission time (a stream holding
            // only its closing heartbeat) fires right away.
            ctx.send_self_after(self.vtime(first.ts()).unwrap_or(1), SimMsg::Tick);
        }
    }

    fn on_message(&mut self, msg: Msg<Prog>, ctx: &mut Ctx<'_, Msg<Prog>>) {
        if !matches!(msg, SimMsg::Tick) {
            return;
        }
        let item = self.items[self.next].clone();
        self.next += 1;
        ctx.charge(self.emit_cost);
        match item {
            StreamItem::Event(e) => {
                ctx.metrics().add("events_emitted", 1);
                ctx.send(self.dst, SimMsg::Worker(WorkerMsg::Event(e)));
            }
            StreamItem::Heartbeat(h) => {
                ctx.metrics().bump("heartbeats_emitted");
                ctx.send(self.dst, SimMsg::Worker(WorkerMsg::Heartbeat(h)));
            }
        }
        if let Some(next) = self.items.get(self.next) {
            // Timestamps are strictly increasing per stream, so the next
            // tick is strictly later — except when its scaled time
            // overflows (the closing heartbeat), which follows one
            // nanosecond behind.
            let delay = self
                .vtime(next.ts())
                .map(|t| t.saturating_sub(ctx.now()).max(1))
                .unwrap_or(1);
            ctx.send_self_after(delay, SimMsg::Tick);
        }
    }
}

/// A built deployment: the engine plus its output/checkpoint handles.
pub type BuiltSim<Prog> = (
    Engine<Msg<Prog>>,
    SimHandles<<Prog as DgsProgram>::State, <Prog as DgsProgram>::Out>,
);

/// Shared wiring of both simulator builders: the engine over the
/// topology, adversary + wire-size configuration, and one worker actor
/// per plan worker (actor ids 0..plan.len() in worker-id order), the
/// partition roots snapshotting at every join when `checkpoint_root`,
/// output latency samples recorded when `record_latency`.
fn sim_skeleton<Prog: DgsProgram + 'static>(
    prog: &Arc<Prog>,
    plan: &Plan<Prog::Tag>,
    cfg: &SimConfig,
    checkpoint_root: bool,
    record_latency: bool,
) -> BuiltSim<Prog> {
    let outputs = Rc::new(RefCell::new(Vec::new()));
    let checkpoints = Rc::new(RefCell::new(Vec::new()));
    let effects = Rc::new(RefCell::new(RunEffects::zeroed(plan.len())));
    let mut engine: Engine<Msg<Prog>> = Engine::new(cfg.topology.clone());
    if let Some((seed, max_jitter_ns)) = cfg.adversary {
        engine.set_delivery_adversary(seed, max_jitter_ns);
    }
    engine.set_size_fn(|m| match m {
        SimMsg::Worker(WorkerMsg::Event(_)) => EVENT_BYTES,
        SimMsg::Worker(WorkerMsg::EventBatch(b)) => 16 + EVENT_BYTES * b.len() as u64,
        SimMsg::Worker(WorkerMsg::Heartbeat(_)) => 32,
        SimMsg::Worker(WorkerMsg::JoinRequest { .. }) => 48,
        SimMsg::Worker(WorkerMsg::StateUp { .. }) | SimMsg::Worker(WorkerMsg::StateDown { .. }) => {
            STATE_BYTES
        }
        SimMsg::Tick | SimMsg::HbTick => 0,
    });
    for (id, w) in plan.iter() {
        let node = NodeId(w.location.0);
        assert!(
            cfg.topology.contains(node),
            "plan places {id} on node {node} outside the topology"
        );
        let mut core = WorkerCore::from_plan(prog.clone(), plan, id);
        core.checkpoint_on_join = checkpoint_root && plan.roots().contains(&id);
        let actor = WorkerActor::<Prog> {
            core,
            cost: cfg.cost,
            record_latency,
            keep_outputs: cfg.keep_outputs,
            outputs: outputs.clone(),
            checkpoints: checkpoints.clone(),
            effects: effects.clone(),
        };
        let aid = engine.add_actor(node, Box::new(actor));
        debug_assert_eq!(aid.0, id.0);
    }
    (engine, SimHandles { outputs, checkpoints, effects })
}

/// Seed each partition root with its chain-forked share of the initial
/// state (the whole state for single-root plans).
fn seed_roots<Prog: DgsProgram>(
    engine: &mut Engine<Msg<Prog>>,
    prog: &Prog,
    plan: &Plan<Prog::Tag>,
    initial: Prog::State,
) {
    let seeds = partition_seeds(prog, plan, initial);
    for (&root, seed) in plan.roots().iter().zip(seeds) {
        engine.inject(0, ActorId(root.0), SimMsg::Worker(WorkerMsg::StateDown { state: seed }));
    }
}

/// Build a simulated deployment: workers 0..plan.len() become actors (in
/// worker-id order) and each source an additional actor. Returns the
/// engine and output handles. Forest plans are seeded per partition root
/// (the initial state is chain-forked along the partition predicates);
/// single-root plans receive `prog.init()` whole, as before.
pub fn build_sim<Prog: DgsProgram + 'static>(
    prog: Arc<Prog>,
    plan: &Plan<Prog::Tag>,
    sources: Vec<PacedSource<Prog::Tag, Prog::Payload>>,
    cfg: SimConfig,
) -> BuiltSim<Prog> {
    let (mut engine, handles) = sim_skeleton(&prog, plan, &cfg, false, true);
    for spec in sources {
        let Some(resp) = plan.responsible_for(&spec.itag) else {
            panic!("no worker responsible for source tag {:?}", spec.itag)
        };
        let node = NodeId(spec.location.0);
        assert!(cfg.topology.contains(node), "source on node {node} outside the topology");
        let emit_cost = cfg.cost.source_emit_ns;
        let actor = SourceActor::<Prog> {
            spec,
            dst: ActorId(resp.0),
            emitted: 0,
            next_event_ts: 0,
            next_hb_ts: 0,
            done: false,
            emit_cost,
        };
        engine.add_actor(node, Box::new(actor));
    }
    seed_roots(&mut engine, prog.as_ref(), plan, prog.init());
    (engine, handles)
}

/// Build a simulated deployment that *replays* the thread driver's
/// scheduled streams: each [`ReplaySource`] becomes an actor emitting
/// its items at `ts * REPLAY_NS_PER_TICK` virtual nanoseconds
/// (per-stream FIFO preserved; cross-stream interleaving follows the
/// topology's link latencies and, when configured, the adversarial
/// delivery scheduler). The partition roots are seeded with their
/// chain-forked shares of `initial`, exactly as in [`build_sim`].
///
/// This is what lets one workload description drive both execution
/// backends — `Job::run` runs its `Sim` backend through here.
///
/// It records no output latency: replayed events keep their schedule
/// *tick* timestamps while the engine clock runs in virtual nanoseconds,
/// so the samples would mean nothing.
pub(crate) fn build_sim_scheduled<Prog: DgsProgram + 'static>(
    prog: Arc<Prog>,
    plan: &Plan<Prog::Tag>,
    sources: Vec<ReplaySource<Prog::Tag, Prog::Payload>>,
    initial: Prog::State,
    checkpoint_root: bool,
    cfg: SimConfig,
) -> BuiltSim<Prog> {
    let (mut engine, handles) = sim_skeleton(&prog, plan, &cfg, checkpoint_root, false);
    for src in sources {
        let Some(resp) = plan.responsible_for(&src.stream.itag) else {
            panic!("no worker responsible for source tag {:?}", src.stream.itag)
        };
        let node = NodeId(src.location.0);
        assert!(cfg.topology.contains(node), "source on node {node} outside the topology");
        let actor = ReplayActor::<Prog> {
            items: src.stream.items,
            next: 0,
            dst: ActorId(resp.0),
            emit_cost: cfg.cost.source_emit_ns,
        };
        engine.add_actor(node, Box::new(actor));
    }
    seed_roots(&mut engine, prog.as_ref(), plan, initial);
    (engine, handles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Backend, Job};
    use dgs_core::examples::{KcTag, KeyCounter};
    use dgs_core::event::StreamId;
    use dgs_core::tag::ITag;
    use dgs_plan::plan::{Location, PlanBuilder};
    use dgs_sim::LinkSpec;

    fn it(tag: KcTag, s: u32) -> ITag<KcTag> {
        ITag::new(tag, StreamId(s))
    }

    fn counter_plan() -> Plan<KcTag> {
        // root {r(1)} — {i(1)a}, {i(1)b}
        let mut b = PlanBuilder::new();
        let root = b.add([it(KcTag::ReadReset(1), 0)], Location(0));
        let l = b.add([it(KcTag::Inc(1), 1)], Location(1));
        let r = b.add([it(KcTag::Inc(1), 2)], Location(2));
        b.attach(root, l);
        b.attach(root, r);
        b.build(root)
    }

    #[test]
    fn simulated_counter_matches_expectations() {
        let plan = counter_plan();
        let topo = Topology::uniform(3, LinkSpec { latency: 10_000, bytes_per_ns: 1.0 });
        let cfg = SimConfig::new(topo);
        // Two increment streams at 1 event/ms (period 1e6 ns), 10 events
        // each; one read-reset stream at 1 event / 5 ms, 4 events.
        let sources = vec![
            PacedSource::new(it(KcTag::Inc(1), 1), Location(1), 1_000_000, 10, |_| ())
                .heartbeat_every(200_000),
            PacedSource::new(it(KcTag::Inc(1), 2), Location(2), 1_000_000, 10, |_| ())
                .heartbeat_every(200_000),
            PacedSource::new(it(KcTag::ReadReset(1), 0), Location(0), 5_000_000, 4, |_| ())
                .heartbeat_every(200_000)
                .starting_at(5_000_000),
        ];
        let (mut engine, handles) = build_sim(Arc::new(KeyCounter), &plan, sources, cfg);
        let outcome = engine.run(None, 10_000_000);
        assert_eq!(outcome, dgs_sim::engine::RunOutcome::QueueEmpty);
        let outputs = handles.outputs.borrow();
        // 4 read-resets, so 4 outputs; total counted increments = 20.
        assert_eq!(outputs.len(), 4);
        let total: i64 = outputs.iter().map(|((_, v), _)| *v).sum();
        assert_eq!(total, 20);
        // Latency was recorded and joins happened (one per read-reset).
        assert_eq!(engine.metrics().get("joins"), 4);
        assert_eq!(engine.metrics().get("forks"), 4 + 1); // +1 initial seed fork
        assert!(engine.metrics().latency_samples() > 0);
        assert!(engine.metrics().net_bytes > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            let plan = counter_plan();
            let topo = Topology::uniform(3, LinkSpec::default());
            let sources = vec![
                PacedSource::new(it(KcTag::Inc(1), 1), Location(1), 500_000, 20, |_| ())
                    .heartbeat_every(100_000),
                PacedSource::new(it(KcTag::Inc(1), 2), Location(2), 700_000, 15, |_| ())
                    .heartbeat_every(100_000),
                PacedSource::new(it(KcTag::ReadReset(1), 0), Location(0), 3_000_000, 3, |_| ())
                    .heartbeat_every(100_000),
            ];
            let (mut engine, handles) = build_sim(Arc::new(KeyCounter), &plan, sources, SimConfig::new(topo));
            engine.run(None, 10_000_000);
            let outs = handles.outputs.borrow().clone();
            (engine.now(), outs, engine.metrics().net_bytes)
        };
        let a = build();
        let b = build();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    /// A job's checkpoint flag reaches the simulated partition roots: one
    /// snapshot per root join, all tagged with the root.
    #[test]
    fn checkpointing_snapshots_root_joins() {
        let plan = counter_plan();
        // Ticks are virtual microseconds: the inc streams every 100 µs,
        // the read-resets every 1 ms, heartbeats every 50 µs.
        let streams = vec![
            ScheduledStream::periodic(it(KcTag::ReadReset(1), 0), 1000, 1000, 2, |_| ())
                .with_heartbeats(50)
                .closed(u64::MAX),
            ScheduledStream::periodic(it(KcTag::Inc(1), 1), 100, 100, 6, |_| ())
                .with_heartbeats(50)
                .closed(u64::MAX),
            ScheduledStream::periodic(it(KcTag::Inc(1), 2), 100, 100, 6, |_| ())
                .with_heartbeats(50)
                .closed(u64::MAX),
        ];
        let report = Job::new(KeyCounter, streams)
            .with_plan(plan.clone())
            .checkpoint_roots(true)
            .run(Backend::Sim);
        assert!(report.sim.is_some(), "ran on the simulator");
        assert_eq!(report.checkpoints.len(), 2);
        assert!(report.checkpoints.iter().all(|(r, _, _)| *r == plan.root()));
    }

    /// Replaying the thread driver's scheduled streams on the simulator
    /// reproduces the sequential specification and attributes per-worker
    /// effects — the contract the unified Job API's `Sim` backend rests
    /// on.
    #[test]
    fn replayed_schedule_matches_spec_and_tallies_worker_effects() {
        use dgs_core::spec::{run_sequential, sort_o};
        use crate::source::ScheduledStream;

        let plan = counter_plan();
        let streams = vec![
            ScheduledStream::periodic(it(KcTag::ReadReset(1), 0), 50, 50, 4, |_| ())
                .with_heartbeats(5)
                .closed(u64::MAX),
            ScheduledStream::periodic(it(KcTag::Inc(1), 1), 1, 3, 60, |_| ())
                .with_heartbeats(7)
                .closed(u64::MAX),
            ScheduledStream::periodic(it(KcTag::Inc(1), 2), 2, 3, 60, |_| ())
                .with_heartbeats(7)
                .closed(u64::MAX),
        ];
        let expect = {
            let merged = sort_o(&streams);
            run_sequential(&KeyCounter, &merged).1
        };
        let sources: Vec<ReplaySource<KcTag, ()>> = streams
            .into_iter()
            .map(|s| {
                let location = Location(s.itag.stream.0);
                ReplaySource { stream: s, location }
            })
            .collect();
        let topo = Topology::uniform(3, LinkSpec { latency: 5_000, bytes_per_ns: 1.0 });
        let cfg = SimConfig::new(topo);
        let init = KeyCounter.init();
        let (mut engine, handles) =
            build_sim_scheduled(Arc::new(KeyCounter), &plan, sources, init, false, cfg);
        let outcome = engine.run(None, u64::MAX);
        assert_eq!(outcome, dgs_sim::engine::RunOutcome::QueueEmpty);
        let mut got: Vec<_> = handles.outputs.borrow().iter().map(|(o, _)| *o).collect();
        let mut want = expect;
        got.sort();
        want.sort();
        assert_eq!(got, want, "replayed run must match the sequential spec");
        // Per-worker attribution: all joins at the root, none at leaves,
        // and every worker handled at least one message.
        let effects = handles.effects.borrow();
        assert_eq!(effects.joins[plan.root().0], 4);
        for (id, w) in plan.iter() {
            if w.is_leaf() {
                assert_eq!(effects.joins[id.0], 0, "leaf {id} must not join");
            }
            assert!(effects.msgs[id.0] > 0, "worker {id} saw no messages");
        }
        // The shared engine metrics still aggregate the same totals.
        assert_eq!(engine.metrics().get("joins"), effects.joins.iter().sum::<u64>());
    }

    /// A two-partition forest on the simulator: both trees run to
    /// quiescence independently, outputs cover both keys, and each
    /// partition root checkpoints its own joins.
    #[test]
    fn forest_plan_runs_each_partition() {
        let mut b = PlanBuilder::new();
        let r1 = b.add([it(KcTag::ReadReset(1), 0)], Location(0));
        let a1 = b.add([it(KcTag::Inc(1), 1)], Location(1));
        let a2 = b.add([it(KcTag::Inc(1), 2)], Location(2));
        b.attach(r1, a1);
        b.attach(r1, a2);
        let r2 = b.add([it(KcTag::ReadReset(2), 3)], Location(3));
        let b1 = b.add([it(KcTag::Inc(2), 4)], Location(4));
        let b2 = b.add([it(KcTag::Inc(2), 5)], Location(5));
        b.attach(r2, b1);
        b.attach(r2, b2);
        let plan = b.build_forest();
        // Stream `s` arrives at node `s`, where its worker runs; ticks are
        // virtual microseconds and every source heartbeats each 200 µs.
        let stream = |tag, s, period, count| {
            ScheduledStream::periodic(it(tag, s), period, period, count, |_| ())
                .with_heartbeats(200)
                .closed(u64::MAX)
        };
        let streams = vec![
            stream(KcTag::ReadReset(1), 0, 3000, 2),
            stream(KcTag::Inc(1), 1, 500, 10),
            stream(KcTag::Inc(1), 2, 500, 10),
            stream(KcTag::ReadReset(2), 3, 2500, 3),
            stream(KcTag::Inc(2), 4, 400, 12),
            stream(KcTag::Inc(2), 5, 400, 12),
        ];
        let report = Job::new(KeyCounter, streams)
            .with_plan(plan)
            .checkpoint_roots(true)
            .run(Backend::Sim);
        assert!(report.sim.is_some(), "ran on the simulator");
        let outputs = &report.outputs;
        // 2 + 3 read-resets; totals conserved per key.
        assert_eq!(outputs.len(), 5);
        let total_k1: i64 = outputs.iter().filter(|((k, _), _)| *k == 1).map(|((_, v), _)| *v).sum();
        let total_k2: i64 = outputs.iter().filter(|((k, _), _)| *k == 2).map(|((_, v), _)| *v).sum();
        assert_eq!((total_k1, total_k2), (20, 24));
        // Per-root checkpoint attribution.
        let cps = &report.checkpoints;
        assert_eq!(cps.iter().filter(|(r, _, _)| *r == r1).count(), 2);
        assert_eq!(cps.iter().filter(|(r, _, _)| *r == r2).count(), 3);
    }
}

#[cfg(test)]
mod backlog_tests {
    use super::*;
    use dgs_apps_shim::*;

    /// Minimal in-crate value/barrier program to exercise the backlog
    /// gauge without a dependency on dgs-apps.
    mod dgs_apps_shim {
        use dgs_core::event::Event;
        use dgs_core::predicate::TagPredicate;
        use dgs_core::program::DgsProgram;

        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        pub enum T {
            V,
            B,
        }

        #[derive(Clone, Copy, Debug, Default)]
        pub struct VB;

        impl DgsProgram for VB {
            type Tag = T;
            type Payload = i64;
            type State = i64;
            type Out = i64;
            fn init(&self) -> i64 {
                0
            }
            fn depends(&self, a: &T, b: &T) -> bool {
                matches!((a, b), (T::B, _) | (_, T::B))
            }
            fn update(&self, s: &mut i64, e: &Event<T, i64>, out: &mut Vec<i64>) {
                match e.tag {
                    T::V => *s += e.payload,
                    T::B => {
                        out.push(*s);
                        *s = 0;
                    }
                }
            }
            fn fork(&self, s: i64, _l: &TagPredicate<T>, _r: &TagPredicate<T>) -> (i64, i64) {
                (s, 0)
            }
            fn join(&self, l: i64, r: i64) -> i64 {
                l + r
            }
        }
    }

    #[test]
    fn starved_heartbeats_grow_the_backlog_gauge() {
        use dgs_core::event::StreamId;
        use dgs_core::tag::ITag;
        use dgs_plan::plan::{Location, PlanBuilder};
        use dgs_sim::LinkSpec;

        let build_with_hb = |hb_per_barrier: u64| {
            let mut b = PlanBuilder::new();
            let root = b.add([ITag::new(T::B, StreamId(2))], Location(0));
            let l = b.add([ITag::new(T::V, StreamId(0))], Location(1));
            let r = b.add([ITag::new(T::V, StreamId(1))], Location(2));
            b.attach(root, l);
            b.attach(root, r);
            let plan = b.build(root);
            let barrier_period = 500 * 2_000u64;
            let sources = vec![
                PacedSource::new(ITag::new(T::V, StreamId(0)), Location(1), 2_000, 1_000, |_| 1)
                    .heartbeat_every(barrier_period),
                PacedSource::new(ITag::new(T::V, StreamId(1)), Location(2), 2_000, 1_000, |_| 1)
                    .heartbeat_every(barrier_period),
                PacedSource::new(ITag::new(T::B, StreamId(2)), Location(0), barrier_period, 2, |_| 0)
                    .heartbeat_every((barrier_period / hb_per_barrier).max(1)),
            ];
            let cfg = SimConfig::new(Topology::uniform(3, LinkSpec::default()));
            let (mut eng, _h) = build_sim(Arc::new(VB), &plan, sources, cfg);
            eng.run(None, u64::MAX);
            eng.metrics().get("max_backlog")
        };
        let starved = build_with_hb(1);
        let healthy = build_with_hb(200);
        assert!(
            starved > 4 * healthy.max(1),
            "starved heartbeats must inflate the backlog: {starved} vs {healthy}"
        );
    }
}

#[cfg(test)]
mod batching_tests {
    use super::*;
    use dgs_core::examples::{KcTag, KeyCounter};
    use dgs_core::event::StreamId;
    use dgs_core::tag::ITag;
    use dgs_plan::plan::{Location, PlanBuilder};
    use dgs_sim::LinkSpec;

    type BatchRun = (u64, Vec<((u32, i64), Timestamp)>, u64);

    fn run(batch: usize) -> BatchRun {
        let mut b = PlanBuilder::new();
        let root = b.add([ITag::new(KcTag::ReadReset(1), StreamId(0))], Location(0));
        let l = b.add([ITag::new(KcTag::Inc(1), StreamId(1))], Location(1));
        let r = b.add([ITag::new(KcTag::Inc(1), StreamId(2))], Location(2));
        b.attach(root, l);
        b.attach(root, r);
        let plan = b.build(root);
        let sources = vec![
            PacedSource::new(ITag::new(KcTag::Inc(1), StreamId(1)), Location(1), 500, 400, |_| ())
                .heartbeat_every(100_000)
                .batched(batch),
            PacedSource::new(ITag::new(KcTag::Inc(1), StreamId(2)), Location(2), 500, 400, |_| ())
                .heartbeat_every(100_000)
                .batched(batch),
            PacedSource::new(ITag::new(KcTag::ReadReset(1), StreamId(0)), Location(0), 100_000, 2, |_| ())
                .heartbeat_every(50_000),
        ];
        let cfg = SimConfig::new(Topology::uniform(3, LinkSpec::default()));
        let (mut eng, handles) = build_sim(Arc::new(KeyCounter), &plan, sources, cfg);
        eng.run(None, u64::MAX);
        let outs = handles.outputs.borrow().clone();
        (eng.metrics().messages_delivered, outs, eng.now())
    }

    #[test]
    fn batching_preserves_outputs_and_cuts_messages() {
        let (msgs1, out1, _) = run(1);
        let (msgs50, out50, _) = run(50);
        // Same read-reset outputs either way (totals conserved).
        let t1: i64 = out1.iter().map(|((_, v), _)| *v).sum();
        let t50: i64 = out50.iter().map(|((_, v), _)| *v).sum();
        assert_eq!(t1, t50);
        assert_eq!(out1.len(), out50.len());
        assert!(
            msgs50 * 5 < msgs1,
            "batching should slash message counts: {msgs50} vs {msgs1}"
        );
    }
}
