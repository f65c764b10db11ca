//! A plan worker as a poll-able task, and what a finished task leaves
//! behind for the driver.

use std::collections::VecDeque;

use dgs_sync::time::{Duration, Instant};
use dgs_sync::{Arc, Mutex, TryLockError};

use dgs_core::event::Timestamp;
use dgs_core::program::DgsProgram;
use dgs_metrics::{RunMetrics, TraceKind};
use dgs_plan::plan::WorkerId;

use super::migrate::Latch;
use super::wiring::{send_credited, InFlight, Inbox, Msg, Routes};
use super::RunEffects;
use crate::worker::{Effects, WorkerCore, WorkerMsg};

/// What one scheduling turn of a worker observed. A task never
/// finishes on its own: the run ends on quiescence, and the driver
/// retires whatever tasks are left.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum TaskPoll {
    /// Inbox empty; the waker will re-enqueue the worker on the next
    /// publish.
    Pending,
    /// Budget exhausted with messages still queued; re-enqueue now.
    HasMore,
}

/// The run-wide settings every task carries.
#[derive(Clone)]
pub(super) struct TaskEnv {
    pub(super) metrics: Option<Arc<RunMetrics>>,
    /// [`ThreadRunOptions::pace_ns_per_tick`](super::ThreadRunOptions).
    pub(super) pace: Option<u64>,
    pub(super) start: Instant,
}

/// Task tallies (and queue-depth samples) flush into the live registry
/// every this many handled messages.
pub(super) const METRICS_FLUSH_EVERY: u64 = 256;

/// Latency of an output produced at `at`, measured from the *scheduled*
/// emission time of its triggering event (`start + ts * ns_per_tick`; a
/// product that overflows is scheduled at `start`).
fn scheduled_latency_ns(
    start: Instant,
    ns_per_tick: u64,
    ts: Timestamp,
    at: Instant,
) -> u64 {
    let scheduled = ns_per_tick.checked_mul(ts).map(Duration::from_nanos).unwrap_or(Duration::ZERO);
    at.saturating_duration_since(start + scheduled).as_nanos() as u64
}

/// Virtual timestamp of a message, for trace spans (0 when it carries
/// none).
fn msg_ts<T, P, S>(wm: &WorkerMsg<T, P, S>) -> Timestamp {
    match wm {
        WorkerMsg::Event(e) => e.ts,
        WorkerMsg::EventBatch(b) => b.last().map_or(0, |e| e.ts),
        WorkerMsg::Heartbeat(h) => h.ts,
        WorkerMsg::JoinRequest { ts, .. } => *ts,
        WorkerMsg::StateUp { .. } | WorkerMsg::StateDown { .. } => 0,
    }
}

/// What one task produced: every output with its triggering timestamp,
/// and — on paced runs only — each output's [`scheduled_latency_ns`],
/// index for index. An unpaced run reads no clock per output.
pub(super) struct Produced<Out> {
    pub(super) outputs: Vec<(Out, Timestamp)>,
    pub(super) latency_ns: Vec<u64>,
}

impl<Out> Default for Produced<Out> {
    fn default() -> Self {
        Produced { outputs: Vec::new(), latency_ns: Vec::new() }
    }
}

impl<Out> Produced<Out> {
    /// Every buffer in `all` appended onto the largest one, so only the
    /// smaller ones are copied (once).
    pub(super) fn concat(mut all: Vec<Produced<Out>>) -> Produced<Out> {
        let Some(largest) = (0..all.len()).max_by_key(|&i| all[i].outputs.len()) else {
            return Produced::default();
        };
        let mut into = all.swap_remove(largest);
        into.outputs.reserve_exact(all.iter().map(|p| p.outputs.len()).sum());
        into.latency_ns.reserve_exact(all.iter().map(|p| p.latency_ns.len()).sum());
        for mut p in all {
            into.outputs.append(&mut p.outputs);
            into.latency_ns.append(&mut p.latency_ns);
        }
        into
    }
}

/// A plan worker as a resumable state machine: the per-message body of
/// a worker loop, minus the blocking receive. A shard polls it for a
/// bounded batch; the protocol invariants (watermarked forwarding inside
/// [`WorkerCore`], surrender-not-panic on dead destinations,
/// per-partition in-flight accounting) all live here.
pub(super) struct WorkerTask<Prog>
where
    Prog: DgsProgram,
{
    /// Global slab index this task occupies. Equal to the worker id for
    /// the initial plan's workers; a task installed by an elastic replan
    /// runs a *local* sub-plan id but lives in a freshly allocated slot
    /// — metrics, traces, and effect counters key on the slot, so two
    /// generations of a partition never conflate.
    slot: usize,
    /// The partition's original root id, stable across replans: every
    /// checkpoint this task takes is tagged with it, so recovery keys
    /// a partition's snapshot series by one id for the whole run.
    cp_root: WorkerId,
    pub(super) core: WorkerCore<Prog>,
    inbox: Inbox<Prog>,
    // Reusable scratch for batched receives: filled by
    // `Inbox::try_recv_batch`, fully drained within the same `poll`
    // call (never carries messages across polls).
    buf: VecDeque<Msg<Prog>>,
    /// This worker's private edges, indexed by (sub-)plan worker id.
    routes: Routes<Prog>,
    in_flight: Arc<InFlight>,
    env: TaskEnv,
    /// The one effects buffer every message of this task is handled
    /// into: filled by [`handle`](Self::handle), emptied by
    /// [`keep_effects`](Self::keep_effects) and whoever takes the
    /// messages, so its capacity is reused and it is empty between
    /// messages.
    fx: Effects<Prog>,
    // Outputs and checkpoints stay task-local until the task retires
    // ([`Retired::take`]): nothing on the per-output path is shared.
    produced: Produced<Prog::Out>,
    checkpoints: Vec<(Prog::State, Timestamp)>,
    // Task-local effect tallies, flushed into the registry every
    // `METRICS_FLUSH_EVERY` messages and handed over when the task retires —
    // per-message atomic RMWs on adjacent slots would put false sharing
    // on the exact hot path the `bench/` workloads measure.
    msgs: u64,
    updates: u64,
    joins: u64,
    forks: u64,
    /// Installed by the elastic controller while it waits for this
    /// partition root's hold to engage; set (once) from `poll` at the
    /// step that captures the full state.
    pub(super) hold_gate: Option<Arc<Latch>>,
}

impl<Prog: DgsProgram> WorkerTask<Prog> {
    pub(super) fn new(
        slot: usize,
        cp_root: WorkerId,
        core: WorkerCore<Prog>,
        inbox: Inbox<Prog>,
        routes: Routes<Prog>,
        in_flight: Arc<InFlight>,
        env: TaskEnv,
    ) -> Self {
        WorkerTask {
            slot,
            cp_root,
            core,
            inbox,
            buf: VecDeque::new(),
            routes,
            in_flight,
            env,
            fx: Effects::<Prog>::default(),
            produced: Produced::default(),
            checkpoints: Vec::new(),
            msgs: 0,
            updates: 0,
            joins: 0,
            forks: 0,
            hold_gate: None,
        }
    }

    /// Messages this task has handled so far.
    pub(super) fn msgs(&self) -> u64 {
        self.msgs
    }

    /// Whether nothing is queued for this task. Every task the driver
    /// retires at the end of a run must read `true`: quiescence means
    /// every sent message was handled.
    pub(super) fn inbox_is_empty(&self) -> bool {
        self.inbox.is_empty()
    }

    /// Hand a partition root its share of the initial state. Called on
    /// the driver thread before any shard starts, so the `StateDown`
    /// never crosses an edge and carries no in-flight credit; the forks
    /// it triggers are sent (and credited) like any step's.
    pub(super) fn seed(&mut self, state: Prog::State) {
        self.step(WorkerMsg::StateDown { state });
    }

    /// Drain up to `budget` messages from the inbox, claiming them in
    /// batches so the per-message channel overhead (one claim-counter
    /// RMW, one lock round-trip per edge) is paid once per batch — and
    /// so is the in-flight accounting: a claimed batch's credits are
    /// retired with one `sub` after the batch. Everything the batch
    /// sent was credited when it was sent, before that `sub`, so the
    /// partition counter still cannot read zero while work is queued.
    pub(super) fn poll(&mut self, budget: usize) -> TaskPoll {
        let mut left = budget;
        while left > 0 {
            // An inbox with no senders left is just empty: only a
            // reroute can attach a new one, and the run ends on
            // quiescence, not on a disconnect.
            let n = match self.inbox.try_recv_batch(&mut self.buf, left) {
                Ok(0) | Err(_) => return TaskPoll::Pending,
                Ok(n) => n,
            };
            left -= n;
            while let Some(wm) = self.buf.pop_front() {
                self.step(wm);
                if self.hold_gate.is_some() && self.core.is_held() {
                    // The elastic hold engaged on this step: the core
                    // holds the partition's full state and buffers
                    // everything else. Wake the waiting controller.
                    if let Some(g) = self.hold_gate.take() {
                        g.set();
                    }
                }
            }
            self.in_flight.sub(n as u64);
        }
        TaskPoll::HasMore
    }

    /// Run one message through the core into the task's effects buffer
    /// and tally what it did. Shared by [`step`](Self::step) and
    /// [`pump`](Self::pump).
    fn handle(&mut self, wm: Msg<Prog>) {
        self.msgs += 1;
        let mts = if self.env.metrics.is_some() { msg_ts(&wm) } else { 0 };
        self.fx.clear();
        self.core.handle_into(wm, &mut self.fx);
        self.updates += self.fx.updates;
        self.joins += self.fx.joins;
        self.forks += self.fx.forks;
        if let Some(m) = &self.env.metrics {
            if self.fx.forks > 0 {
                m.trace(self.slot, TraceKind::Fork, mts);
            }
            if self.fx.joins > 0 {
                m.trace(self.slot, TraceKind::Join, mts);
            }
        }
    }

    /// Handle one protocol message delivered through the inbox.
    fn step(&mut self, wm: Msg<Prog>) {
        self.handle(wm);
        if self.env.metrics.is_some() && self.msgs.is_multiple_of(METRICS_FLUSH_EVERY) {
            self.flush_registry();
        }
        self.route_effects();
    }

    /// Handle one message of a replan's backlog on a task not yet
    /// installed: the elastic controller's migration pump. Same body as
    /// a [`step`](Self::step), except that the messages it wants sent
    /// are appended to the pump's local queue `sink` instead of crossing
    /// an edge (and so carry no in-flight credit).
    pub(super) fn pump(
        &mut self,
        wm: Msg<Prog>,
        sink: &mut VecDeque<(WorkerId, Msg<Prog>)>,
    ) {
        self.handle(wm);
        self.keep_effects();
        sink.extend(self.fx.msgs.drain(..));
    }

    /// Abandon an elastic hold (timeout or aborted replan): the
    /// cancellation adopts the buffered backlog, and its effects must
    /// flow exactly like a step's.
    pub(super) fn cancel_hold(&mut self) {
        self.hold_gate = None;
        self.fx = self.core.cancel_hold();
        self.route_effects();
    }

    /// Move the buffered step's outputs and checkpoints into the task's
    /// own buffers. A paced run's output latency is taken here, where the
    /// output is produced.
    fn keep_effects(&mut self) {
        for (o, ts) in self.fx.outputs.drain(..) {
            if let Some(ns) = self.env.pace {
                let latency = scheduled_latency_ns(self.env.start, ns, ts, Instant::now());
                if let Some(m) = &self.env.metrics {
                    m.output_latency.record(latency);
                }
                self.produced.latency_ns.push(latency);
            }
            if let Some(m) = &self.env.metrics {
                m.outputs.inc();
            }
            self.produced.outputs.push((o, ts));
        }
        for (state, ts) in self.fx.checkpoints.drain(..) {
            if let Some(m) = &self.env.metrics {
                m.trace(self.slot, TraceKind::Checkpoint, ts);
            }
            self.checkpoints.push((state, ts));
        }
    }

    /// Deliver the buffered step's effects: outputs and checkpoints into
    /// the task's buffers, protocol messages to peers.
    fn route_effects(&mut self) {
        self.keep_effects();
        // Route in destination runs: consecutive messages to one worker
        // travel as one batched enqueue (one credit publish, one
        // wakeup), each run sent straight out of the drained buffer.
        // Order per edge is preserved; that is the only order the
        // protocol needs.
        let mut rest = self.fx.msgs.drain(..);
        while let Some(&(dst, _)) = rest.as_slice().first() {
            let run = rest.as_slice().iter().take_while(|(d, _)| *d == dst).count();
            let Some(tx) = self.routes[dst.0].as_ref() else {
                panic!("no edge to worker {dst}: plan routing bug");
            };
            send_credited(&self.in_flight, tx, rest.by_ref().take(run).map(|(_, m)| m));
        }
    }

    /// Publish the task-local tallies and the inbox depth (sampled at
    /// the same point the worker drains it) into the registry.
    fn flush_registry(&self) {
        if let Some(m) = &self.env.metrics {
            let wm = &m.workers[self.slot];
            wm.msgs.set(self.msgs);
            wm.updates.set(self.updates);
            wm.joins.set(self.joins);
            wm.forks.set(self.forks);
            let depth = self.inbox.len() as u64;
            wm.queue_depth.set(depth);
            wm.queue_depth_max.ratchet(depth);
        }
    }
}

/// The task slab: one slot per worker, locked while a shard polls it.
/// The mutex is what preserves the single-consumer inbox contract
/// across work stealing — a worker migrates between shards, but at most
/// one shard ever drains it at a time. `None` once the task is retired
/// or torn down (the drop releases its inbox, so lingering senders fail
/// fast).
pub(super) type TaskSlab<Prog> = Vec<Mutex<Option<WorkerTask<Prog>>>>;

/// Drop every task a slot lock can be had for. Dropping a task drops
/// its inbox, so senders blocked on it (bounded ingress edges) observe
/// the disconnect and surrender instead of deadlocking teardown.
pub(super) fn drop_all_tasks<Prog: DgsProgram>(tasks: &TaskSlab<Prog>) {
    for slot in tasks {
        match slot.try_lock() {
            Ok(mut g) => drop(g.take()),
            Err(TryLockError::Poisoned(p)) => drop(p.into_inner().take()),
            // Held by a shard that is still polling it; that shard
            // drops the task in its own teardown sweep.
            Err(TryLockError::WouldBlock) => {}
        }
    }
}

/// What retired tasks leave behind, read by the driver once every
/// thread of the run has joined. A task retires exactly once — when the
/// elastic controller replaces its partition, or when the driver
/// empties the slab after the run has ended — and each slot hosts
/// exactly one task generation, so per-slot counters never conflate.
pub(super) struct Retired<Prog: DgsProgram> {
    pub(super) effects: RunEffects,
    /// One buffer per retired task, moved in whole.
    pub(super) produced: Vec<Produced<Prog::Out>>,
    /// Root-tagged checkpoints. A partition's root is the only task of
    /// its generation that checkpoints, and generations retire in
    /// order, so per-root order is trigger-timestamp order even across
    /// replans.
    pub(super) checkpoints: Vec<(WorkerId, Prog::State, Timestamp)>,
}

impl<Prog: DgsProgram> Retired<Prog> {
    pub(super) fn new(slots: usize) -> Self {
        Retired {
            effects: RunEffects::zeroed(slots),
            produced: Vec::new(),
            checkpoints: Vec::new(),
        }
    }

    /// Retire `task`: final registry flush, effect counters, and its
    /// output and checkpoint buffers. Dropping the task drops its
    /// inbox, so senders to a retired worker fail fast and surrender.
    pub(super) fn take(&mut self, task: WorkerTask<Prog>) {
        task.flush_registry();
        self.effects.msgs[task.slot] = task.msgs;
        self.effects.updates[task.slot] = task.updates;
        self.effects.joins[task.slot] = task.joins;
        self.effects.forks[task.slot] = task.forks;
        if !task.produced.outputs.is_empty() {
            self.produced.push(task.produced);
        }
        let root = task.cp_root;
        self.checkpoints.extend(task.checkpoints.into_iter().map(|(s, ts)| (root, s, ts)));
    }
}
