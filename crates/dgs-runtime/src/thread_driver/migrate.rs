//! The elastic replan controller: one thread that samples arrival
//! rates, decides on a fork or join, and migrates the chosen partition's
//! live state onto a new sub-plan while every other partition keeps
//! flowing. Each replan is the same sequence of steps —
//! sample → decide → hold/drain → extract → rebuild → rebind → resume —
//! one function each below.

use std::collections::{BTreeMap, VecDeque};
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;

use dgs_sync::time::{Duration, Instant};
use dgs_sync::{Arc, Condvar, Mutex};

use dgs_core::event::{Event, Heartbeat, Timestamp};
use dgs_core::program::DgsProgram;
use dgs_core::tag::{ITag, Tag};
use dgs_metrics::{RunMetrics, TraceKind};
use dgs_plan::plan::{Location, Plan, WorkerId};

use super::task::WorkerTask;
use super::wiring::{wire_plan, InboxHandle};
use super::{ReplanHook, RunShared, ThreadRunOptions};
use crate::elastic::{
    fork_partition_plan, join_partition_plan, Decision, Detector, ElasticConfig, ReplanEvent,
    ReplanKind,
};
use crate::worker::{WorkerCore, WorkerMsg};

/// How long each step of a replan's hold (the root capturing its full
/// state, the feeders pausing, the partition draining) may take before
/// the attempt is abandoned.
const HOLD_TIMEOUT: Duration = Duration::from_millis(250);

/// A one-shot flag with a timed wait. Two uses: a partition root sets
/// its hold latch once an elastic-replan hold has engaged (its full
/// state is captured in [`WorkerCore`]), so the controller parks instead
/// of polling the slab; and the driver sets the run's stop latch once
/// every source has finished, waking the controller out of its interval
/// park so it exits before the run ends (no replan may race the end).
#[derive(Default)]
pub(super) struct Latch {
    set: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    pub(super) fn set(&self) {
        *self.set.lock().expect("latch poisoned") = true;
        self.cv.notify_all();
    }

    /// `true` once set; `false` if `timeout` elapses first.
    fn wait_for(&self, timeout: Duration) -> bool {
        let guard = self.set.lock().expect("latch poisoned");
        let (set, _) =
            self.cv.wait_timeout_while(guard, timeout, |set| !*set).expect("latch poisoned");
        *set
    }
}

/// The controller's book-keeping for one plan partition: which slab
/// slots currently host it, the (local-id) sub-plan they run, and the
/// stream indices that feed it.
struct PartState<T: Tag> {
    /// The partition's original root id — stable across replans, tags
    /// every checkpoint.
    cp_root: WorkerId,
    /// Current slab slot per local sub-plan worker id.
    slots: Vec<usize>,
    /// The sub-plan currently running (worker ids are local: 0..len).
    plan: Plan<T>,
    /// Indices (into the run's stream list) of the sources feeding this
    /// partition — the streams a replan pauses and reroutes.
    streams: Vec<usize>,
    location: Location,
    /// Whether a fork of this (sequential) partition is structurally
    /// possible — probed once per shape change with uniform rates
    /// (feasibility is rate-independent), so a hot-but-indivisible
    /// partition never accumulates a fork streak and starves cold
    /// joins.
    forkable: bool,
}

fn is_forkable<Prog: DgsProgram>(prog: &Prog, plan: &Plan<Prog::Tag>, location: Location) -> bool {
    plan.len() == 1 && fork_partition_plan(prog, &plan.all_itags(), |_| 1.0, location).is_some()
}

/// One controller tick's observations.
struct Sample {
    /// Per-stream events fed since the previous tick.
    deltas: Vec<u64>,
    /// `deltas` folded per partition.
    fresh: Vec<f64>,
    /// Live inbox depth summed over each partition's slots.
    backlog: Vec<f64>,
}

/// What `extract` pulls out of a held, drained partition.
struct Backlog<Prog: DgsProgram> {
    state: Prog::State,
    /// Unprocessed events, per-stream order preserved.
    residuals: Vec<Event<Prog::Tag, Prog::Payload>>,
    /// Highest delivered position per implementation tag.
    timers: BTreeMap<ITag<Prog::Tag>, Timestamp>,
}

/// A rebuilt partition, pumped to quiescence and ready to install.
struct Rebuilt<Prog: DgsProgram> {
    slots: Vec<usize>,
    handles: Vec<InboxHandle<Prog>>,
    tasks: Vec<WorkerTask<Prog>>,
}

/// The elastic replan controller. Single-threaded by construction, so
/// replans never interleave; the driver stops it (stop latch + join)
/// before it waits for quiescence, so no replan races the end of the
/// run.
pub(super) struct Controller<'a, Prog: DgsProgram> {
    run: &'a RunShared<Prog>,
    prog: Arc<Prog>,
    cfg: ElasticConfig,
    metrics: Arc<RunMetrics>,
    parts: Vec<PartState<Prog::Tag>>,
    /// Per-stream itag and partition (streams are rerouted by itag
    /// after a migration).
    stream_itags: Vec<ITag<Prog::Tag>>,
    stream_part: Vec<usize>,
    ingress_capacity: NonZeroUsize,
    on_replan: Option<ReplanHook>,
    detector: Detector,
    /// Per-stream fed-event counts at the previous tick.
    prev: Vec<u64>,
    /// Reserve slab slots not yet handed out. Retired slots are never
    /// reused: every migrated sub-plan gets fresh slots.
    free: VecDeque<usize>,
    replans: Vec<ReplanEvent>,
}

impl<'a, Prog: DgsProgram> Controller<'a, Prog> {
    /// Start from the run's initial `plan`: one [`PartState`] per root,
    /// the reserve slots `plan.len()..slot_cap` all free. Takes the
    /// replan hook out of `options`.
    pub(super) fn new(
        run: &'a RunShared<Prog>,
        prog: Arc<Prog>,
        cfg: ElasticConfig,
        plan: &Plan<Prog::Tag>,
        stream_itags: Vec<ITag<Prog::Tag>>,
        stream_part: Vec<usize>,
        options: &mut ThreadRunOptions,
    ) -> Self {
        let parts: Vec<PartState<Prog::Tag>> = plan
            .roots()
            .iter()
            .enumerate()
            .map(|(p, &root)| {
                let (sub, mapping) = plan.partition_plan(root);
                let location = plan.worker(root).location;
                PartState {
                    cp_root: root,
                    slots: mapping.iter().map(|w| w.0).collect(),
                    forkable: is_forkable(prog.as_ref(), &sub, location),
                    plan: sub,
                    streams: (0..stream_part.len()).filter(|&si| stream_part[si] == p).collect(),
                    location,
                }
            })
            .collect();
        Controller {
            run,
            metrics: run.env.metrics.clone().expect("elastic forces metrics on"),
            detector: Detector::new(parts.len(), &cfg),
            prev: vec![0; stream_itags.len()],
            free: (plan.len()..run.tasks.len()).collect(),
            replans: Vec::new(),
            prog,
            cfg,
            parts,
            stream_itags,
            stream_part,
            ingress_capacity: options.ingress_capacity,
            on_replan: options.on_replan.take(),
        }
    }

    /// The controller thread's body: tick at the configured interval
    /// until stopped, then return every completed replan in order.
    pub(super) fn run(mut self) -> Vec<ReplanEvent> {
        let run = self.run;
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            while !run.stop.wait_for(self.cfg.interval) {
                if run.sched.has_failed() || self.replans.len() >= self.cfg.max_replans {
                    break;
                }
                self.tick();
            }
        }));
        if let Err(payload) = outcome {
            // Contain a controller bug exactly like a worker panic.
            run.contain_panic(payload);
        }
        // Whatever happened, leave no stream paused behind us.
        run.ctl.resume_all();
        self.replans
    }

    /// One sampling tick; at most one replan. Every early return leaves
    /// the partition running on its current sub-plan.
    fn tick(&mut self) {
        let Some(sample) = self.sample() else { return };
        let Some((kind, p)) = self.decide(&sample) else { return };
        // Plan surgery first: a refusal costs nothing.
        let Some(sub_plan) = self.plan_surgery(kind, p, &sample) else { return };
        let seq = self.replans.len() as u64;
        let old_root_slot = self.parts[p].slots[self.parts[p].plan.root().0];
        let t0 = Instant::now();
        self.metrics.trace(old_root_slot, TraceKind::ReplanTrigger, seq);
        if !self.hold_and_drain(p, old_root_slot) {
            return;
        }
        self.metrics.trace(old_root_slot, TraceKind::ReplanQuiesce, seq);
        let Some(backlog) = self.extract(p) else { return };
        let k_old = self.parts[p].plan.len();
        let rebuilt = self.rebuild(p, &sub_plan, backlog);
        let new_root_slot = rebuilt.slots[sub_plan.root().0];
        let (slots, handles) = self.rebind(p, rebuilt);
        self.metrics.trace(new_root_slot, TraceKind::ReplanMigrate, seq);
        self.resume(p, &sub_plan, &handles);
        self.metrics.trace(new_root_slot, TraceKind::ReplanResume, seq);
        let pause_ns = t0.elapsed().as_nanos() as u64;
        self.metrics.replans.inc();
        self.metrics.replan_pause_ns.record(pause_ns);
        let ev = ReplanEvent {
            kind,
            partition: p,
            root: self.parts[p].cp_root,
            at_ns: self.metrics.elapsed_ns(),
            pause_ns,
            workers_before: k_old,
            workers_after: sub_plan.len(),
            trigger_rate_eps: sample.fresh[p] / self.cfg.interval.as_secs_f64().max(1e-9),
        };
        if let Some(cb) = &self.on_replan {
            cb(&ev);
        }
        self.replans.push(ev);
        let part = &mut self.parts[p];
        part.forkable = is_forkable(self.prog.as_ref(), &sub_plan, part.location);
        part.slots = slots;
        part.plan = sub_plan;
    }

    /// Per-stream deltas since the last tick, folded per partition, plus
    /// live queue depths. `None` until the run has fed `min_events`.
    fn sample(&mut self) -> Option<Sample> {
        let counts: Vec<u64> =
            (0..self.prev.len()).map(|si| self.metrics.streams[si].events.get()).collect();
        if counts.iter().sum::<u64>() < self.cfg.min_events {
            return None;
        }
        let deltas: Vec<u64> =
            counts.iter().zip(&self.prev).map(|(c, p)| c.saturating_sub(*p)).collect();
        self.prev = counts;
        let mut fresh = vec![0f64; self.parts.len()];
        for (si, &d) in deltas.iter().enumerate() {
            fresh[self.stream_part[si]] += d as f64;
        }
        // Queue backlog feeds only the detector's hot side (see
        // `Detector::observe`): arrivals alone carry the cold signal.
        let backlog = self
            .parts
            .iter()
            .map(|ps| {
                ps.slots.iter().map(|&g| self.metrics.workers[g].queue_depth.get() as f64).sum()
            })
            .collect();
        Some(Sample { deltas, fresh, backlog })
    }

    fn decide(&mut self, s: &Sample) -> Option<(ReplanKind, usize)> {
        let (parts, free) = (&self.parts, self.free.len());
        let decision = self.detector.observe(
            &s.fresh,
            &s.backlog,
            |p| parts[p].forkable && parts[p].plan.len() == 1 && free >= 3 && s.fresh[p] > 0.0,
            |p| parts[p].plan.len() > 1 && free >= 1 && s.fresh[p] > 0.0,
        )?;
        Some(match decision {
            Decision::Fork(p) => (ReplanKind::Fork, p),
            Decision::Join(p) => (ReplanKind::Join, p),
        })
    }

    /// The sub-plan partition `p` would move to: a rate-balanced
    /// three-worker tree for a fork (`None` if the program refuses it),
    /// one sequential worker for a join.
    fn plan_surgery(&self, kind: ReplanKind, p: usize, s: &Sample) -> Option<Plan<Prog::Tag>> {
        let part = &self.parts[p];
        let itags = part.plan.all_itags();
        match kind {
            ReplanKind::Fork => {
                let mut by_itag: BTreeMap<&ITag<Prog::Tag>, f64> = BTreeMap::new();
                for &si in &part.streams {
                    *by_itag.entry(&self.stream_itags[si]).or_insert(0.0) += s.deltas[si] as f64;
                }
                let rate_of = |t: &ITag<Prog::Tag>| by_itag.get(t).copied().unwrap_or(0.0);
                fork_partition_plan(self.prog.as_ref(), &itags, rate_of, part.location)
            }
            ReplanKind::Join => Some(join_partition_plan(itags, part.location)),
        }
    }

    /// Abandon a hold on the task in `root_slot` (timeout or aborted
    /// replan): the cancellation adopts the buffered backlog, so route
    /// whatever it emitted and reschedule the worker.
    fn cancel_hold(&self, root_slot: usize) {
        if let Some(task) = self.run.lock_slot(root_slot).as_mut() {
            task.cancel_hold();
        }
        self.run.sched.wake(root_slot);
    }

    /// Engage the hold on the partition root — it captures the
    /// partition's full state at its next safe point and buffers
    /// everything after it — then pause this partition's sources and
    /// drain its in-flight messages. Other partitions flow throughout.
    /// `false` (hold cancelled, sources released) when any of the three
    /// times out; the detector simply tries again later.
    fn hold_and_drain(&self, p: usize, root_slot: usize) -> bool {
        let run = self.run;
        let gate = Arc::new(Latch::default());
        let immediate = {
            let mut slot = run.lock_slot(root_slot);
            let Some(task) = slot.as_mut() else { return false };
            let now = task.core.request_hold();
            if !now {
                task.hold_gate = Some(gate.clone());
            }
            now
        };
        let engaged = immediate || {
            run.sched.wake(root_slot);
            gate.wait_for(HOLD_TIMEOUT)
        };
        if !engaged {
            self.cancel_hold(root_slot);
            return false;
        }
        let streams = &self.parts[p].streams;
        if !run.ctl.pause_and_wait(streams, HOLD_TIMEOUT)
            || !run.in_flights[p].wait_zero_for(HOLD_TIMEOUT)
        {
            run.ctl.unpause(streams);
            self.cancel_hold(root_slot);
            return false;
        }
        true
    }

    /// Take the partition's tasks out of the slab (their inboxes retire
    /// with them; stale senders surrender), pull the held state, the
    /// residual events, and the per-itag watermarks, and retire the
    /// tasks. `None` when the run is tearing down under us.
    fn extract(&self, p: usize) -> Option<Backlog<Prog>> {
        let part = &self.parts[p];
        let mut old_tasks: Vec<WorkerTask<Prog>> = part
            .slots
            .iter()
            .map_while(|&g| self.run.lock_slot(g).take())
            .collect();
        if old_tasks.len() != part.plan.len() {
            // The run is tearing down (panic path); abandon — the
            // partition is dead anyway.
            self.run.ctl.unpause(&part.streams);
            return None;
        }
        let root_lid = part.plan.root().0;
        let state = old_tasks[root_lid].core.take_held_state();
        let mut residuals = old_tasks[root_lid].core.drain_residual_events();
        for (lid, t) in old_tasks.iter_mut().enumerate() {
            if lid != root_lid {
                residuals.extend(t.core.drain_residual_events());
            }
        }
        let mut timers: BTreeMap<ITag<Prog::Tag>, Timestamp> = BTreeMap::new();
        for t in &old_tasks {
            for (itag, ts) in t.core.export_timers() {
                let e = timers.entry(itag).or_insert(0);
                *e = (*e).max(ts);
            }
        }
        for t in old_tasks {
            self.run.retire(t);
        }
        Some(Backlog { state, residuals, timers })
    }

    /// Fresh tasks for the new sub-plan in fresh slots, wired exactly
    /// like the initial plan, then seeded by a *local* pump — StateDown
    /// first, then every residual event (per-stream order is
    /// per-worker, and events only ever route to the one worker owning
    /// their itag), then the watermark replay, conservatively, last.
    /// The pump runs the fork/join protocol synchronously to quiescence
    /// before the tasks are installed, so live traffic never interleaves
    /// with the migration backlog; outputs and checkpoints it produces
    /// land in the new tasks' own buffers.
    fn rebuild(
        &mut self,
        p: usize,
        sub_plan: &Plan<Prog::Tag>,
        backlog: Backlog<Prog>,
    ) -> Rebuilt<Prog> {
        let run = self.run;
        let slots: Vec<usize> = self.free.drain(..sub_plan.len()).collect();
        let wired = wire_plan::<Prog>(sub_plan, &slots, &run.sched, run.storage);
        let mut tasks: Vec<WorkerTask<Prog>> = sub_plan
            .iter()
            .zip(wired.inboxes)
            .zip(wired.routes)
            .map(|(((lid, _), inbox), routes)| {
                let mut core = WorkerCore::from_plan(self.prog.clone(), sub_plan, lid);
                core.checkpoint_on_join = run.checkpoint_root && lid == sub_plan.root();
                WorkerTask::new(
                    slots[lid.0],
                    self.parts[p].cp_root,
                    core,
                    inbox,
                    routes,
                    run.in_flights[p].clone(),
                    run.env.clone(),
                )
            })
            .collect();
        let mut q = VecDeque::new();
        q.push_back((sub_plan.root(), WorkerMsg::StateDown { state: backlog.state }));
        for e in backlog.residuals {
            let itag = e.itag();
            let w = sub_plan.responsible_for(&itag).unwrap_or_else(|| {
                panic!("migrated event {itag:?} has no owner in the new sub-plan")
            });
            q.push_back((w, WorkerMsg::Event(e)));
        }
        for (itag, ts) in backlog.timers {
            if let Some(w) = sub_plan.responsible_for(&itag) {
                q.push_back((w, WorkerMsg::Heartbeat(Heartbeat::new(itag.tag, itag.stream, ts))));
            }
        }
        while let Some((lid, wm)) = q.pop_front() {
            tasks[lid.0].pump(wm, &mut q);
        }
        Rebuilt { slots, handles: wired.handles, tasks }
    }

    /// Install the rebuilt tasks and schedule each once. A new task whose
    /// inbox has no sender yet just reads empty until `resume` attaches
    /// its ingress edges.
    fn rebind(&self, p: usize, rebuilt: Rebuilt<Prog>) -> (Vec<usize>, Vec<InboxHandle<Prog>>) {
        let run = self.run;
        let Rebuilt { slots, handles, tasks } = rebuilt;
        for (&g, task) in slots.iter().zip(tasks) {
            self.metrics.activate_worker(g, p);
            *run.lock_slot(g) = Some(task);
        }
        for &g in &slots {
            run.sched.wake(g);
        }
        (slots, handles)
    }

    /// Rebind each paused stream's (bounded) ingress edge to its new
    /// owner and release the pause.
    fn resume(&self, p: usize, sub_plan: &Plan<Prog::Tag>, handles: &[InboxHandle<Prog>]) {
        let run = self.run;
        for &si in &self.parts[p].streams {
            if let Some(lid) = sub_plan.responsible_for(&self.stream_itags[si]) {
                let edge = run.storage.edge(&handles[lid.0], Some(self.ingress_capacity.get()));
                run.ctl.set_reroute(si, edge);
            }
        }
        run.ctl.unpause(&self.parts[p].streams);
    }
}
