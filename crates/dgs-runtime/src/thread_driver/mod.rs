//! Run a synchronization plan on a sharded thread-per-core executor.
//!
//! A fixed pool of N event-loop threads (N = available parallelism by
//! default, [`ThreadRunOptions::executor_threads`] to override) drives
//! every plan worker as a poll-able state machine: each worker is a
//! `WorkerTask` whose `poll` drains a bounded batch of messages and
//! reports whether more are queued. Each executor shard owns a run
//! queue of ready workers, parks on a condvar when idle, and steals
//! from busier shards so one hot root cannot starve its shard-mates.
//! Workers are placed shard-aware at startup (`place_workers`'s
//! logic): each dependence component's subtree is co-located — its
//! edges are the chatty ones — and only oversized components are split.
//! Readiness is edge-driven: every publish into a worker's inbox fires
//! a waker that re-enqueues the worker on its current shard, so idle
//! shards genuinely block instead of spinning.
//!
//! Feeder threads are likewise capped at the shard count (each rotates
//! non-blocking batches across its streams, preserving per-stream order
//! — the only order the protocol needs), so total OS threads are
//! O(executor_threads), independent of plan width. That is what lets a
//! thousand-root forest plan run on a host that would collapse under a
//! thread per worker.
//!
//! Every item is due at once by default, or at its scheduled wall-clock
//! time when [`ThreadRunOptions::pace_ns_per_tick`] is set; both run
//! through the same feeder loop. Arrival interleavings across workers
//! are genuinely nondeterministic; the output multiset must nevertheless
//! equal the sequential specification, which is exactly what the
//! integration tests assert.
//!
//! The driver is cut along its seams: `wiring` (message type, edge
//! storage, in-flight credits, the one wiring path), `task` (a worker
//! as a poll-able task and what it leaves behind), `executor`
//! (scheduler, placement, shard loop), `feeder` (the one source loop
//! and its control plane), `migrate` (the elastic replan
//! controller); `run_threads` below reads wire → seed → spawn → await
//! quiescence → stop → collect. It is reached only through
//! [`Job::run`](crate::job::Job::run) with [`Backend::Threads`](crate::job::Backend::Threads).
//!
//! # Delivery plane
//!
//! There is one: every `(sender, receiver)` pair — plan edges and
//! feeder→worker — gets its own SPSC FIFO queue into the receiving
//! worker's single-consumer inbox (`crossbeam::edge`). The driver sends
//! nothing: it seeds the partition roots itself, and the run ends on
//! quiescence, not on a message.
//! Delivery is lossless FIFO **per edge and nothing more** — exactly
//! assumption 4 of Theorem 3.5, which is all the protocol needs (pinned
//! by `tests/adversarial_delivery.rs`). Worker sends are batched per
//! destination run (`send_many`), and ingress (feeder) edges are bounded,
//! so a slow plan pushes back on its sources instead of buffering
//! unboundedly. Worker↔worker edges stay unbounded:
//! the fork/join protocol keeps at most one join in flight per worker,
//! so those queues are structurally small, and blocking a worker's send
//! could deadlock a cycle of full edges.
//!
//! What varies is only the *storage* behind each edge, and the run
//! picks it from something it observes, not from an option: mutex
//! deques when the executor has one shard, lock-free rings when it has
//! more (`EdgeStorage` in `wiring` has the measurements). The choice
//! is reported as [`RunTiming::channel_mode`].
//!
//! Outputs and checkpoints never cross a queue at all: each task
//! appends them to its own buffers — a paced run's output latency is
//! taken where the output is produced — and hands the buffers over
//! once, when it retires.
//!
//! The feeders borrow the input streams for the run's scope and clone
//! each item only as they send it, so a run never holds its input
//! twice.
//!
//! Termination uses **one in-flight message counter per plan partition**
//! (forest plans run one independent tree per root; the fork/join
//! protocol never crosses trees): every send increments the destination
//! partition's counter before the message enters a queue, and a worker
//! retires the credits of a claimed batch with one decrement *after* it
//! has handled the whole batch. Whatever those messages sent was credited
//! at the send, before that decrement, so the counter is never below the
//! number of messages queued or being handled: it reads zero only at
//! that partition's quiescence once its sources have finished. The
//! driver thread blocks on each partition's condvar in turn — partitions
//! drain independently, there is no polling loop anywhere on the
//! termination path, and a surrendered message (see below) re-credits
//! only its own partition.
//!
//! Quiescence is the only way a run ends. Once the feeders have joined,
//! the elastic controller has stopped and every partition's counter
//! has read zero, the driver sets the scheduler's stop flag and wakes
//! every shard (taking each run-queue lock before notifying, so a shard
//! about to park either sees the flag or is woken); the shards exit.
//! After the scope joins, `collect` retires every task still in the
//! slab, asserting that its inbox is empty, and only then stops the
//! wall clock. No task ever finishes on its own: an inbox with no
//! senders left just reads empty.
//!
//! Sends to a worker whose task has already been torn down (it
//! panicked) are *surrendered* rather than `expect`ed: the partition
//! counter is re-credited for every undeliverable message so quiescence
//! is still reached, and the worker's panic is contained by the shard
//! that observed it and re-raised by the driver after teardown.
//!
//! Forest plans are seeded per root: the initial (or recovered) state is
//! chain-forked along the partition predicates ([`partition_seeds`])
//! and each root handles its share on the driver thread before any
//! shard starts (`WorkerTask::seed`) — no synthetic coordinator worker
//! exists to fork it at runtime. Checkpointing
//! ([`Job::checkpoint_roots`](crate::job::Job::checkpoint_roots)) snapshots at
//! *every* partition root's joins; each checkpoint is tagged with the
//! root that took it.

mod executor;
mod feeder;
mod migrate;
mod task;
mod wiring;

use std::any::Any;
use std::num::NonZeroUsize;

use dgs_sync::time::{Duration, Instant};
use dgs_sync::{Arc, Mutex, MutexGuard, OnceLock};

use dgs_core::event::Timestamp;
use dgs_core::program::DgsProgram;
use dgs_core::tag::Tag;
use dgs_metrics::{RunInfo, RunMetrics, INACTIVE_PARTITION};
use dgs_plan::plan::{Plan, WorkerId};

use crate::elastic::{ElasticConfig, ReplanEvent};
use crate::source::ScheduledStream;
use crate::worker::{partition_seeds, WorkerCore};
use executor::{place_workers, run_shard, PanicList, Scheduler};
use feeder::{run_feeder, Feed, FeederControl};
use migrate::{Controller, Latch};
use task::{drop_all_tasks, Produced, Retired, TaskEnv, TaskSlab, WorkerTask};
use wiring::{wire_plan, EdgeStorage, InFlight, Wired};

/// Worker slots pre-allocated in the executor slab for an elastic run's
/// migrated sub-plans (every sub-plan takes fresh slots; retired slots
/// are never reused).
const RESERVE_SLOTS: usize = 8;

/// Everything the threads of one run share, borrowed through the scope.
struct RunShared<Prog: DgsProgram> {
    sched: Arc<Scheduler>,
    tasks: TaskSlab<Prog>,
    /// One quiescence counter per plan partition: the protocol never
    /// sends across trees, so each tree seeds, runs, and drains
    /// independently.
    in_flights: Vec<Arc<InFlight>>,
    retired: Mutex<Retired<Prog>>,
    panics: PanicList,
    env: TaskEnv,
    storage: EdgeStorage,
    ctl: FeederControl<Prog>,
    /// Set once every source has finished: the elastic controller exits.
    stop: Latch,
    /// Partition roots snapshot their state at every join — including
    /// the roots of sub-plans an elastic replan builds.
    checkpoint_root: bool,
}

impl<Prog: DgsProgram> RunShared<Prog> {
    /// Lock slab slot `g`, looking through poisoning: a slot is only
    /// poisoned by a program panic that is already being contained.
    fn lock_slot(&self, g: usize) -> MutexGuard<'_, Option<WorkerTask<Prog>>> {
        match self.tasks[g].lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Hand a task a replan replaced over: its counters and buffers.
    fn retire(&self, task: WorkerTask<Prog>) {
        self.retired.lock().expect("retired list poisoned").take(task);
    }

    /// Contain a panic caught on a run thread: keep the payload for the
    /// driver to re-raise once the scope has joined, and fail the run.
    fn contain_panic(&self, payload: Box<dyn Any + Send>) {
        self.panics.lock().expect("panic list poisoned").push(payload);
        self.fail();
    }

    /// Fail every partition so quiescence stops waiting, flip the
    /// scheduler so shards tear down instead of draining, and drop the
    /// tasks so blocked senders surrender.
    fn fail(&self) {
        for f in &self.in_flights {
            f.fail();
        }
        self.sched.fail();
        drop_all_tasks(&self.tasks);
    }
}

/// Execute `plan` over the given input streams, its partition roots
/// seeded with their shares of `initial`, and return every output once
/// the system is quiescent.
pub(crate) fn run_threads<Prog>(
    prog: Arc<Prog>,
    plan: &Plan<Prog::Tag>,
    streams: &[ScheduledStream<Prog::Tag, Prog::Payload>],
    initial: Prog::State,
    checkpoint_root: bool,
    mut options: ThreadRunOptions,
) -> ThreadRunResult<Prog::State, Prog::Out>
where
    Prog: DgsProgram + Send + Sync + 'static,
    Prog::State: Send,
    Prog::Out: Send,
{
    let n = plan.len();
    // Shard count: requested (or host parallelism), clamped to the
    // worker count — more shards than workers would only park.
    let default_par = dgs_sync::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
    let shards_n = options.executor_threads.unwrap_or(default_par).max(1).min(n.max(1));
    let storage = EdgeStorage::for_shards(shards_n);
    let elastic = options.elastic.take();
    // The slab is sized for the initial plan plus the elastic reserve.
    // Retired slots are never reused: every migrated sub-plan gets fresh
    // slots, so per-slot metrics, traces, and effect counters each
    // describe exactly one worker generation.
    let slot_cap = n + if elastic.is_some() { RESERVE_SLOTS } else { 0 };
    let part_of: Vec<usize> = (0..n).map(|i| plan.partition_index(WorkerId(i))).collect();
    let in_flights: Vec<Arc<InFlight>> =
        (0..plan.partition_count()).map(|_| Arc::new(InFlight::new())).collect();
    let mut placement = place_workers(&part_of, plan.partition_count(), shards_n);
    placement.extend((n..slot_cap).map(|w| w % shards_n));
    let sched = Arc::new(Scheduler::new(&placement, shards_n));
    // Live metrics registry: shared with every worker and feeder, and
    // published to the caller's slot (if any) so a sampler thread can
    // snapshot mid-run.
    let metrics = (options.metrics || elastic.is_some())
        .then(|| new_registry(plan, &part_of, slot_cap, streams.len(), shards_n, storage));
    if let (Some(m), Some(slot)) = (&metrics, &options.metrics_slot) {
        let _ = slot.set(m.clone());
    }

    // Wire the message plane: per worker an inbox and its peer edges,
    // plus one bounded ingress edge per stream.
    let stream_dsts: Vec<usize> = streams
        .iter()
        .map(|s| {
            plan.responsible_for(&s.itag)
                .unwrap_or_else(|| panic!("no worker responsible for {:?}", s.itag))
                .0
        })
        .collect();
    let identity: Vec<usize> = (0..n).collect();
    let Wired { inboxes, handles, routes } = wire_plan::<Prog>(plan, &identity, &sched, storage);
    let env = TaskEnv {
        metrics: metrics.clone(),
        pace: options.pace_ns_per_tick,
        start: Instant::now(),
    };
    let mut tasks: Vec<WorkerTask<Prog>> = plan
        .iter()
        .zip(inboxes)
        .zip(routes)
        .map(|(((id, _), inbox), routes)| {
            let mut core = WorkerCore::from_plan(prog.clone(), plan, id);
            core.checkpoint_on_join = checkpoint_root && plan.roots().contains(&id);
            let part = part_of[id.0];
            WorkerTask::new(
                id.0,
                plan.roots()[part],
                core,
                inbox,
                routes,
                in_flights[part].clone(),
                env.clone(),
            )
        })
        .collect();

    // Seed each partition root with its share of the initial state
    // (chain-forked along the partition predicates; a single-root plan
    // receives the state whole), here on the driver thread before any
    // shard starts. The forks it sends wake their targets' shards.
    for (&root, seed) in plan.roots().iter().zip(partition_seeds(prog.as_ref(), plan, initial)) {
        tasks[root.0].seed(seed);
    }
    let tasks: TaskSlab<Prog> = tasks
        .into_iter()
        .map(|t| Mutex::new(Some(t)))
        .chain((n..slot_cap).map(|_| Mutex::new(None)))
        .collect();

    // Group streams onto capped feeder threads: at most one feeder per
    // shard, each owning a fixed set of streams — plan width no longer
    // dictates the feeder count any more than the worker count.
    let n_feeders = streams.len().min(shards_n);
    let ctl = FeederControl::new(streams.len(), n_feeders);
    // Per-stream itag and partition, for the elastic controller (which
    // reroutes streams by itag after a migration).
    let stream_itags: Vec<_> = streams.iter().map(|s| s.itag.clone()).collect();
    let stream_part: Vec<usize> = stream_dsts.iter().map(|&d| part_of[d]).collect();
    let mut feeds: Vec<Vec<Feed<Prog>>> = (0..n_feeders).map(|_| Vec::new()).collect();
    for (si, stream) in streams.iter().enumerate() {
        feeds[si % n_feeders].push(Feed {
            si,
            part: stream_part[si],
            route: storage.edge(&handles[stream_dsts[si]], Some(options.ingress_capacity.get())),
            items: stream.items.iter(),
        });
    }

    let run = RunShared {
        sched,
        tasks,
        in_flights,
        retired: Mutex::new(Retired::new(slot_cap)),
        panics: Mutex::new(Vec::new()),
        env,
        storage,
        ctl,
        stop: Latch::default(),
        checkpoint_root,
    };
    let controller = elastic.map(|cfg| {
        Controller::new(&run, prog.clone(), cfg, plan, stream_itags, stream_part, &mut options)
    });
    let replans = dgs_sync::thread::scope(|scope| {
        let run = &run;
        for s in 0..shards_n {
            scope.spawn(move || run_shard(s, run));
        }
        let controller = controller.map(|c| scope.spawn(move || c.run()));
        // Sources: feeder threads capped at the shard count, full speed
        // unless paced.
        let feeders: Vec<_> = feeds
            .into_iter()
            .enumerate()
            .map(|(fi, group)| scope.spawn(move || run_feeder(fi, group, run)))
            .collect();
        for f in feeders {
            f.join().expect("feeder panicked");
        }
        // Sources are done: stop the controller *before* waiting for
        // quiescence so no replan can race the end of the run, then wait
        // for it to finish any replan already in progress.
        run.stop.set();
        let replans = controller.and_then(|c| c.join().ok()).unwrap_or_default();
        // Quiescence: all sources done and nothing in flight in any
        // partition. Each partition's final decrement signals its own
        // condvar; the driver visits them in turn — no polling, and a
        // partition that drained early never blocks the check of another.
        for in_flight in &run.in_flights {
            in_flight.wait_zero();
        }
        // The run is over: the shards exit, and `collect` retires the
        // tasks they leave in the slab.
        run.sched.stop();
        replans
    });
    collect(run, options.record_timing, shards_n, replans)
}

/// The registry for a run of this shape. The workload label stays empty
/// — the driver does not know it; callers that do set it on the snapshot.
fn new_registry<T: Tag>(
    plan: &Plan<T>,
    part_of: &[usize],
    slot_cap: usize,
    streams: usize,
    shards_n: usize,
    storage: EdgeStorage,
) -> Arc<RunMetrics> {
    // Slot-indexed partition map: reserve slots are inactive until a
    // replan activates them.
    let mut part_of_slot = part_of.to_vec();
    part_of_slot.resize(slot_cap, INACTIVE_PARTITION);
    Arc::new(RunMetrics::for_shape(
        RunInfo {
            workload: String::new(),
            channel_mode: storage.name().to_string(),
            workers: plan.len(),
            partitions: plan.partition_count(),
        },
        &part_of_slot,
        streams,
        shards_n,
    ))
}

/// After the scope has joined: re-raise a contained panic, or retire
/// every task still in the slab and fold what the retired tasks left
/// behind into the run's result. The wall clock stops once every buffer
/// is handed over.
fn collect<Prog: DgsProgram>(
    run: RunShared<Prog>,
    record_timing: bool,
    shards_n: usize,
    replans: Vec<ReplanEvent>,
) -> ThreadRunResult<Prog::State, Prog::Out> {
    let RunShared { tasks, retired, panics, env, storage, .. } = run;
    // A program panic was contained by the shard that observed it so
    // teardown could finish without deadlock; re-raise it now, exactly
    // as a per-worker-thread scope join would have.
    if let Some(payload) = panics.into_inner().expect("panic list poisoned").pop() {
        std::panic::resume_unwind(payload);
    }
    let mut retired = retired.into_inner().expect("retired list poisoned");
    for slot in tasks {
        if let Some(task) = slot.into_inner().expect("task slot poisoned") {
            assert!(task.inbox_is_empty(), "a message outlived quiescence");
            retired.take(task);
        }
    }
    let wall = env.start.elapsed();
    let Retired { effects, produced, checkpoints } = retired;
    // Only the smaller task buffers are copied: each is appended onto the
    // largest and freed. Latencies exist only on paced runs.
    let Produced { outputs, latency_ns } = Produced::concat(produced);
    ThreadRunResult {
        outputs,
        checkpoints,
        effects,
        timing: record_timing.then(|| RunTiming {
            channel_mode: storage.name(),
            executor_threads: shards_n,
            wall,
            output_latency_ns: latency_ns,
        }),
        metrics: env.metrics,
        replans,
    }
}

/// Result of a threaded run.
#[derive(Debug)]
pub(crate) struct ThreadRunResult<S, Out> {
    /// All outputs with their triggering event timestamps (arbitrary
    /// interleaving across workers).
    pub outputs: Vec<(Out, Timestamp)>,
    /// Root checkpoints (empty unless enabled), each tagged with the
    /// partition root that took it. A forest plan checkpoints each
    /// partition independently; per-root order is by trigger timestamp,
    /// cross-root interleaving is arbitrary.
    pub checkpoints: Vec<(WorkerId, S, Timestamp)>,
    /// Per-worker protocol effect counters (always collected — tallied
    /// task-locally and handed over once when each task retires, so
    /// collection costs nothing on the per-message hot path).
    pub effects: RunEffects,
    /// Wall-clock measurements (populated when
    /// [`ThreadRunOptions::record_timing`] is set).
    pub timing: Option<RunTiming>,
    /// The live metrics registry (present unless
    /// [`ThreadRunOptions::metrics`] was disabled — elastic runs force
    /// it on). Callers snapshot it — possibly after folding in post-run
    /// work like checkpoint persistence — via [`RunMetrics::snapshot`].
    pub metrics: Option<Arc<RunMetrics>>,
    /// Every elastic replan the controller completed, in order (always
    /// empty when [`ThreadRunOptions::elastic`] is unset).
    pub replans: Vec<ReplanEvent>,
}

/// Per-worker protocol work performed during one run, indexed by plan
/// worker id. The acceptance instrument for plan-shape refactors: e.g. a
/// forest plan must show *zero* joins anywhere outside its partitions'
/// own synchronizers, where the old synthetic coordinator showed seeding
/// forks and shutdown traffic.
#[derive(Debug, Clone, Default)]
pub struct RunEffects {
    /// Messages handled per worker.
    pub msgs: Vec<u64>,
    /// `update` calls per worker.
    pub updates: Vec<u64>,
    /// `join` calls per worker.
    pub joins: Vec<u64>,
    /// `fork` calls per worker.
    pub forks: Vec<u64>,
}

impl RunEffects {
    /// Zeroed counters for `n` workers.
    pub fn zeroed(n: usize) -> Self {
        RunEffects {
            msgs: vec![0; n],
            updates: vec![0; n],
            joins: vec![0; n],
            forks: vec![0; n],
        }
    }
}

/// Wall-clock measurements of one threaded run. Per-worker message
/// counts live in [`RunEffects::msgs`] (always collected), not here.
#[derive(Debug, Clone)]
pub struct RunTiming {
    /// The edge storage the run used, by its artifact name:
    /// `"per-edge"` (mutex deques — one executor shard) or
    /// `"per-edge-ring"` (lock-free rings — more than one). Reporting
    /// only: the run chooses it from the shard count below, and the
    /// metrics plane's `flumina_run_info` carries it as a label.
    pub channel_mode: &'static str,
    /// The number of executor shards the run actually used: the
    /// requested [`ThreadRunOptions::executor_threads`] (or the host
    /// parallelism) clamped to the worker count. Recorded so artifacts
    /// carry the axis the throughput was measured on, and so the
    /// storage choice above can be audited against the shard count
    /// that drove it.
    pub executor_threads: usize,
    /// Sources started → global quiescence.
    pub wall: Duration,
    /// Per-output latency in wall nanoseconds, one entry per output on a
    /// paced run: production time minus the *scheduled* emission time of
    /// the triggering event (`start + ts * pace_ns_per_tick`), taken by
    /// the worker as it produces the output. Measuring from the schedule
    /// rather than the actual send avoids coordinated omission: a
    /// backed-up source shows up as latency, not as a slower benchmark.
    /// Entry `i` belongs to the run's `i`-th output. Empty
    /// when the run is unpaced: full-speed feeding has no meaningful
    /// per-event reference time, and such a run reads no clock per
    /// output.
    pub output_latency_ns: Vec<u64>,
}

/// Options of the real-thread backend,
/// [`Backend::Threads`](crate::job::Backend::Threads). What a run starts
/// from and whether it checkpoints are the job's, not the backend's:
/// [`Job::with_initial_state`](crate::job::Job::with_initial_state) and
/// [`Job::checkpoint_roots`](crate::job::Job::checkpoint_roots).
pub struct ThreadRunOptions {
    /// Pace every source against the wall clock: the item with virtual
    /// timestamp `t` is released no earlier than `start + t * pace`
    /// nanoseconds. `None` feeds at full speed. Timestamps whose product
    /// overflows (notably the closing `u64::MAX` heartbeat) are released
    /// immediately.
    pub pace_ns_per_tick: Option<u64>,
    /// Collect [`RunTiming`] into the result.
    pub record_timing: bool,
    /// Number of executor shard threads driving the plan's workers.
    /// `None` (the default) uses the host's available parallelism; the
    /// effective count is clamped to `[1, worker count]` and recorded
    /// in [`RunTiming::executor_threads`]. Feeder threads are capped at
    /// the same count, so total OS threads for a run are
    /// O(executor_threads) regardless of plan width.
    pub executor_threads: Option<usize>,
    /// Capacity of each feeder→worker ingress edge: a full edge holds
    /// back its stream (backpressure) instead of growing an unbounded
    /// queue, while the feeder's other streams keep flowing.
    pub ingress_capacity: NonZeroUsize,
    /// Collect live metrics into a [`RunMetrics`] registry (the default;
    /// the cost is thread-local tallies plus a few relaxed stores every
    /// 256 handled messages). Disable for A/B overhead measurement.
    pub metrics: bool,
    /// When set, the live registry is published here as soon as the run's
    /// shape is known, so another thread can take mid-run snapshots while
    /// the run blocks (the CLI's `--metrics-interval` sampler).
    pub metrics_slot: Option<Arc<OnceLock<Arc<RunMetrics>>>>,
    /// Elastic hot-partition scale-out: when set, a controller thread
    /// samples per-stream arrival rates and per-slot queue depths at
    /// [`ElasticConfig::interval`], and forks a persistently hot
    /// sequential partition (or joins a persistently cold forked one)
    /// *mid-run*, migrating its live state while only that partition
    /// pauses. Forces metrics on (the controller reads them).
    pub elastic: Option<ElasticConfig>,
    /// Called after every completed replan, from the controller thread
    /// (the CLI streams decisions to stderr through this).
    pub on_replan: Option<ReplanHook>,
}

/// Observer invoked after every completed replan (see
/// [`ThreadRunOptions::on_replan`]).
pub type ReplanHook = Box<dyn Fn(&ReplanEvent) + Send>;

impl Default for ThreadRunOptions {
    fn default() -> Self {
        ThreadRunOptions {
            pace_ns_per_tick: None,
            record_timing: false,
            executor_threads: None,
            ingress_capacity: NonZeroUsize::new(1024).expect("nonzero"),
            metrics: true,
            metrics_slot: None,
            elastic: None,
            on_replan: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::task::METRICS_FLUSH_EVERY;
    use super::*;
    use crate::elastic::ReplanKind;
    use dgs_core::event::StreamId;
    use dgs_core::examples::{KcTag, KeyCounter};
    use dgs_core::spec::{run_sequential, sort_o};
    use dgs_core::tag::ITag;
    use dgs_plan::plan::{Location, PlanBuilder};
    
    fn it(tag: KcTag, s: u32) -> ITag<KcTag> {
        ITag::new(tag, StreamId(s))
    }

    fn counter_plan() -> Plan<KcTag> {
        let mut b = PlanBuilder::new();
        let root = b.add([it(KcTag::ReadReset(1), 0)], Location(0));
        let l = b.add([it(KcTag::Inc(1), 1)], Location(0));
        let r = b.add([it(KcTag::Inc(1), 2)], Location(0));
        b.attach(root, l);
        b.attach(root, r);
        b.build(root)
    }

    fn workload() -> Vec<ScheduledStream<KcTag, ()>> {
        vec![
            ScheduledStream::periodic(it(KcTag::ReadReset(1), 0), 50, 50, 8, |_| ())
                .with_heartbeats(5)
                .closed(u64::MAX),
            ScheduledStream::periodic(it(KcTag::Inc(1), 1), 1, 3, 100, |_| ())
                .with_heartbeats(7)
                .closed(u64::MAX),
            ScheduledStream::periodic(it(KcTag::Inc(1), 2), 2, 3, 100, |_| ())
                .with_heartbeats(7)
                .closed(u64::MAX),
        ]
    }

    /// Run KeyCounter over `streams` on `plan`, seeded with `init()`.
    fn run_kc(
        plan: &Plan<KcTag>,
        streams: Vec<ScheduledStream<KcTag, ()>>,
        checkpoint_root: bool,
        options: ThreadRunOptions,
    ) -> ThreadRunResult<<KeyCounter as DgsProgram>::State, (u32, i64)> {
        let init = KeyCounter.init();
        run_threads(Arc::new(KeyCounter), plan, &streams, init, checkpoint_root, options)
    }

    /// The sequential specification's outputs for `streams`, sorted.
    fn spec_sorted(streams: &[ScheduledStream<KcTag, ()>]) -> Vec<(u32, i64)> {
        let mut want = run_sequential(&KeyCounter, &sort_o(streams)).1;
        want.sort();
        want
    }

    /// A run's outputs, sorted (the multiset the spec is compared on).
    fn sorted_outputs<S>(result: &ThreadRunResult<S, (u32, i64)>) -> Vec<(u32, i64)> {
        let mut got: Vec<_> = result.outputs.iter().map(|(o, _)| *o).collect();
        got.sort();
        got
    }

    #[test]
    fn threaded_run_matches_sequential_spec() {
        let plan = counter_plan();
        let result = run_kc(&plan, workload(), false, ThreadRunOptions::default());
        let got = sorted_outputs(&result);
        assert_eq!(got, spec_sorted(&workload()));
        // 8 read-resets -> 8 outputs, 200 increments counted in total.
        assert_eq!(got.len(), 8);
        let total: i64 = got.iter().map(|(_, v)| *v).sum();
        assert_eq!(total, 200);
        // No elastic controller configured: no replans recorded.
        assert!(result.replans.is_empty());
    }

    #[test]
    fn repeated_runs_agree_up_to_reordering() {
        let plan = counter_plan();
        let mut baseline: Option<Vec<(u32, i64)>> = None;
        for _ in 0..5 {
            let result = run_kc(&plan, workload(), false, ThreadRunOptions::default());
            let got = sorted_outputs(&result);
            match &baseline {
                None => baseline = Some(got),
                Some(b) => assert_eq!(&got, b),
            }
        }
    }

    /// Both edge storages implement the same contract: identical output
    /// multisets, matching the sequential spec. The storage follows the
    /// shard count — mutex deques on one shard, rings above — and the
    /// run reports which one it used.
    #[test]
    fn all_channel_modes_match_sequential_spec() {
        let plan = counter_plan();
        let want = spec_sorted(&workload());
        for threads in [1usize, 2, 4] {
            let result = run_kc(
                &plan,
                workload(),
                false,
                ThreadRunOptions {
                    executor_threads: Some(threads),
                    record_timing: true,
                    ..Default::default()
                },
            );
            assert_eq!(sorted_outputs(&result), want, "{threads} shard(s) diverged from the spec");
            let timing = result.timing.expect("timing requested");
            let storage = if threads == 1 { "per-edge" } else { "per-edge-ring" };
            assert_eq!(timing.channel_mode, storage, "{threads} shard(s)");
        }
    }

    /// The storage choice follows the *effective* shard count — the
    /// requested count clamped to the worker count — because that, not
    /// the request or the host's hardware threads, says whether the two
    /// ends of an edge can run on different threads; and a timed run
    /// records both.
    #[test]
    fn auto_mode_resolves_by_shard_count_and_is_recorded() {
        use dgs_plan::plan::sequential_plan;
        let itags = [it(KcTag::ReadReset(1), 0), it(KcTag::Inc(1), 1), it(KcTag::Inc(1), 2)];
        let one_worker = sequential_plan(itags, Location(0));
        for (plan, requested, shards, storage) in [
            (counter_plan(), 1, 1, "per-edge"),
            (counter_plan(), 2, 2, "per-edge-ring"),
            (one_worker, 8, 1, "per-edge"),
        ] {
            let result = run_kc(
                &plan,
                workload(),
                false,
                ThreadRunOptions {
                    record_timing: true,
                    executor_threads: Some(requested),
                    ..Default::default()
                },
            );
            let timing = result.timing.expect("timing requested");
            assert_eq!(timing.executor_threads, shards);
            assert_eq!(timing.channel_mode, storage);
        }
    }

    /// The same spec multiset must come out of the executor regardless
    /// of how many shards drive the plan (including more shards than
    /// workers, which clamps).
    #[test]
    fn sharded_runs_match_spec_across_executor_threads() {
        let plan = counter_plan();
        let want = spec_sorted(&workload());
        for threads in [1usize, 2, 8] {
            let result = run_kc(
                &plan,
                workload(),
                false,
                ThreadRunOptions {
                    executor_threads: Some(threads),
                    record_timing: true,
                    ..Default::default()
                },
            );
            assert_eq!(
                sorted_outputs(&result),
                want,
                "{threads} executor threads diverged from the spec"
            );
            // Effective shard count is clamped to the worker count (3).
            let timing = result.timing.expect("timing requested");
            assert_eq!(timing.executor_threads, threads.min(plan.len()));
        }
    }

    /// Placement keeps each dependence component on one shard (its
    /// edges carry the fork/join chatter) and splits only components
    /// larger than an even share, bin-packing the rest.
    #[test]
    fn placement_colocates_partitions_and_splits_oversized() {
        // Two right-sized components stay intact, on distinct shards.
        let p = place_workers(&[0, 0, 1, 1], 2, 2);
        assert_eq!(p[0], p[1]);
        assert_eq!(p[2], p[3]);
        assert_ne!(p[0], p[2]);
        // One oversized component splits into even chunks.
        let p = place_workers(&[0, 0, 0, 0], 1, 2);
        assert_eq!(p.len(), 4);
        assert!(p.contains(&0) && p.contains(&1));
        // A single shard takes everything.
        assert_eq!(place_workers(&[0, 1, 0], 2, 1), vec![0, 0, 0]);
        // More shards than workers leaves shards idle but placement valid.
        let p = place_workers(&[0], 1, 4);
        assert_eq!(p, vec![0]);
        // Deterministic: same inputs, same placement.
        assert_eq!(
            place_workers(&[0, 1, 1, 2, 2, 2], 3, 2),
            place_workers(&[0, 1, 1, 2, 2, 2], 3, 2)
        );
    }

    /// A panicking program handler must propagate as a panic out of
    /// `run_threads` (via the scope join), not hang the driver in
    /// `wait_zero` with credits the dead worker will never retire.
    #[test]
    fn worker_panic_propagates_instead_of_hanging() {
        use dgs_core::predicate::TagPredicate;

        #[derive(Clone, Copy, Debug, Default)]
        struct Exploding;
        impl DgsProgram for Exploding {
            type Tag = char;
            type Payload = ();
            type State = i64;
            type Out = i64;
            fn init(&self) -> i64 {
                0
            }
            fn depends(&self, _a: &char, _b: &char) -> bool {
                true
            }
            fn update(&self, s: &mut i64, e: &dgs_core::event::Event<char, ()>, _o: &mut Vec<i64>) {
                *s += 1;
                if e.ts >= 3 {
                    panic!("boom at ts {}", e.ts);
                }
            }
            fn fork(&self, s: i64, _l: &TagPredicate<char>, _r: &TagPredicate<char>) -> (i64, i64) {
                (s, 0)
            }
            fn join(&self, l: i64, r: i64) -> i64 {
                l + r
            }
        }

        // Two independent single-worker trees, so the run can spread
        // over two shards and the panic is contained on both storages.
        for threads in [1usize, 2, 4] {
            let mut b = PlanBuilder::new();
            b.add([ITag::new('v', StreamId(0))], Location(0));
            b.add([ITag::new('w', StreamId(1))], Location(0));
            let plan = b.build_forest();
            let streams = ['v', 'w']
                .into_iter()
                .zip(0..)
                .map(|(tag, s)| {
                    ScheduledStream::periodic(ITag::new(tag, StreamId(s)), 1, 1, 50, |_| ())
                        .closed(u64::MAX)
                })
                .collect::<Vec<_>>();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_threads(
                    Arc::new(Exploding),
                    &plan,
                    &streams,
                    0,
                    false,
                    ThreadRunOptions { executor_threads: Some(threads), ..Default::default() },
                )
            }));
            assert!(outcome.is_err(), "{threads} shard(s): worker panic must propagate");
        }
    }

    /// A tiny ingress capacity forces feeders through the backpressure
    /// path; the run must still complete with the full output set, on
    /// both storages, unpaced and paced. The paced cells run at 2 ns per
    /// tick: every finite timestamp of the workload (at most 400) is due
    /// within a microsecond, so paced streams also pile into full edges,
    /// while the closing `u64::MAX` heartbeat's release time still
    /// overflows and is released at once (at 1 ns per tick it would not
    /// overflow, and would wait ~584 years).
    #[test]
    fn per_edge_backpressure_preserves_outputs() {
        let plan = counter_plan();
        let want = spec_sorted(&workload());
        for (capacity, threads, pace) in [
            (1, 1, None),
            (1, 2, None),
            (2, 1, None),
            (2, 2, None),
            (1, 1, Some(2)),
            (1, 2, Some(2)),
        ] {
            let ingress_capacity = NonZeroUsize::new(capacity).expect("nonzero");
            let result = run_kc(
                &plan,
                workload(),
                false,
                ThreadRunOptions {
                    ingress_capacity,
                    executor_threads: Some(threads),
                    pace_ns_per_tick: pace,
                    ..Default::default()
                },
            );
            let cell = format!("capacity {capacity}, {threads} shard(s), pace {pace:?}");
            assert_eq!(sorted_outputs(&result), want, "{cell}");
            // Squeezing hundreds of items through such edges must have
            // blocked the feeders, and the registry must have seen it.
            let m = result.metrics.expect("metrics on").snapshot();
            assert!(m.total_stalls() > 0, "{cell}: tiny ingress edges must record stalls");
        }
    }

    /// The always-on registry agrees with the end-of-run effect counters
    /// (same thread-local tallies, flushed instead of stored once), and
    /// opting out yields no registry at all.
    #[test]
    fn metrics_registry_matches_effects_and_can_be_disabled() {
        let plan = counter_plan();
        let result = run_kc(&plan, workload(), false, ThreadRunOptions::default());
        let m = result.metrics.as_ref().expect("metrics are on by default").snapshot();
        for (w, ws) in m.workers.iter().enumerate() {
            assert_eq!(ws.msgs, result.effects.msgs[w], "worker {w} msgs");
            assert_eq!(ws.updates, result.effects.updates[w], "worker {w} updates");
            assert_eq!(ws.joins, result.effects.joins[w], "worker {w} joins");
            assert_eq!(ws.forks, result.effects.forks[w], "worker {w} forks");
        }
        assert_eq!(m.outputs, result.outputs.len() as u64);
        // Every stream item (events + heartbeats) was fed and counted.
        let fed: u64 = m.streams.iter().map(|s| s.events).sum();
        let items: u64 = workload().iter().map(|s| s.items.len() as u64).sum();
        assert_eq!(fed, items);
        // The root's joins show up as trace spans.
        assert!(m.traces[plan.root().0]
            .events
            .iter()
            .any(|e| e.kind == dgs_metrics::TraceKind::Join));
        let off =
            run_kc(&plan, workload(), false, ThreadRunOptions { metrics: false, ..Default::default() });
        assert!(off.metrics.is_none());
    }

    /// A sampler holding the published registry sees *live* counters
    /// while the run is still going — the whole point of the flush-every
    /// design over the old store-once-at-exit tallies.
    #[test]
    fn mid_run_snapshot_sees_live_counters() {
        // Long enough that every worker handles several flush periods
        // (256 messages each) well before the last item is fed.
        let streams = || {
            vec![
                ScheduledStream::periodic(it(KcTag::ReadReset(1), 0), 20, 20, 100, |_| ())
                    .with_heartbeats(2)
                    .closed(u64::MAX),
                ScheduledStream::periodic(it(KcTag::Inc(1), 1), 1, 2, 1000, |_| ())
                    .with_heartbeats(7)
                    .closed(u64::MAX),
                ScheduledStream::periodic(it(KcTag::Inc(1), 2), 2, 2, 1000, |_| ())
                    .with_heartbeats(7)
                    .closed(u64::MAX),
            ]
        };
        let slot: Arc<OnceLock<Arc<RunMetrics>>> = Arc::new(OnceLock::new());
        let opts = ThreadRunOptions {
            pace_ns_per_tick: Some(100_000), // 2000 ticks -> ≥ 200 ms wall
            metrics_slot: Some(slot.clone()),
            ..Default::default()
        };
        let run = std::thread::spawn(move || run_kc(&counter_plan(), streams(), false, opts));
        // The registry is published as soon as the run's shape is known.
        let registry = loop {
            if let Some(m) = slot.get() {
                break m.clone();
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        // Catch the counters while they are moving.
        let mid = loop {
            let s = registry.snapshot();
            if s.total_msgs() > 0 {
                break s;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let result = run.join().expect("run panicked");
        assert!(
            result.effects.msgs.iter().all(|&m| m > 2 * METRICS_FLUSH_EVERY),
            "every worker must pass several flushes: {:?}",
            result.effects.msgs
        );
        let final_msgs: u64 = result.effects.msgs.iter().sum();
        assert!(mid.total_msgs() > 0, "mid-run snapshot must be non-zero");
        assert!(
            mid.total_msgs() < final_msgs,
            "snapshot was not live: mid {} vs final {final_msgs}",
            mid.total_msgs()
        );
    }

    #[test]
    fn checkpoints_collected_when_enabled() {
        let plan = counter_plan();
        let result = run_kc(&plan, workload(), true, ThreadRunOptions::default());
        // One checkpoint per root join (8 read-resets), all tagged with
        // the single partition root.
        assert_eq!(result.checkpoints.len(), 8);
        assert!(result.checkpoints.iter().all(|(root, _, _)| *root == plan.root()));
        // Checkpoints are ordered by trigger timestamp.
        let ts: Vec<_> = result.checkpoints.iter().map(|(_, _, t)| *t).collect();
        let mut sorted = ts.clone();
        sorted.sort();
        assert_eq!(ts, sorted);
    }

    /// A two-partition forest: each tree seeds, runs, checkpoints, and
    /// drains independently; outputs equal the sequential spec and the
    /// effect counters show joins only at the partition synchronizers.
    #[test]
    fn forest_runs_partitions_independently() {
        // Keys 1 and 2 as independent trees: root{r(k)} — {i(k)}, {i(k)}.
        let mut b = PlanBuilder::new();
        let r1 = b.add([it(KcTag::ReadReset(1), 0)], Location(0));
        let l1 = b.add([it(KcTag::Inc(1), 1)], Location(0));
        let l2 = b.add([it(KcTag::Inc(1), 2)], Location(0));
        b.attach(r1, l1);
        b.attach(r1, l2);
        let r2 = b.add([it(KcTag::ReadReset(2), 3)], Location(0));
        let l3 = b.add([it(KcTag::Inc(2), 4)], Location(0));
        let l4 = b.add([it(KcTag::Inc(2), 5)], Location(0));
        b.attach(r2, l3);
        b.attach(r2, l4);
        let plan = b.build_forest();
        assert_eq!(plan.roots(), &[r1, r2]);
        let streams = || {
            vec![
                ScheduledStream::periodic(it(KcTag::ReadReset(1), 0), 50, 50, 4, |_| ())
                    .with_heartbeats(5)
                    .closed(u64::MAX),
                ScheduledStream::periodic(it(KcTag::Inc(1), 1), 1, 3, 60, |_| ())
                    .with_heartbeats(7)
                    .closed(u64::MAX),
                ScheduledStream::periodic(it(KcTag::Inc(1), 2), 2, 3, 60, |_| ())
                    .with_heartbeats(7)
                    .closed(u64::MAX),
                ScheduledStream::periodic(it(KcTag::ReadReset(2), 3), 70, 70, 3, |_| ())
                    .with_heartbeats(5)
                    .closed(u64::MAX),
                ScheduledStream::periodic(it(KcTag::Inc(2), 4), 1, 4, 50, |_| ())
                    .with_heartbeats(9)
                    .closed(u64::MAX),
                ScheduledStream::periodic(it(KcTag::Inc(2), 5), 2, 4, 50, |_| ())
                    .with_heartbeats(9)
                    .closed(u64::MAX),
            ]
        };
        let want = spec_sorted(&streams());
        for threads in [1usize, 2, 4] {
            let result = run_kc(
                &plan,
                streams(),
                true,
                ThreadRunOptions {
                    executor_threads: Some(threads),
                    record_timing: true,
                    ..Default::default()
                },
            );
            let mode = result.timing.as_ref().expect("timing requested").channel_mode;
            assert_eq!(mode, if threads == 1 { "per-edge" } else { "per-edge-ring" });
            assert_eq!(sorted_outputs(&result), want, "mode {mode:?}");
            // Checkpoints are per partition root: 4 for key 1, 3 for key 2.
            let count = |root| {
                result.checkpoints.iter().filter(|(r, _, _)| *r == root).count() as u64
            };
            assert_eq!((count(r1), count(r2)), (4, 3), "mode {mode:?}");
            // Joins happen exactly at the partition synchronizers.
            assert_eq!(result.effects.joins[r1.0], 4, "mode {mode:?}");
            assert_eq!(result.effects.joins[r2.0], 3, "mode {mode:?}");
            for leaf in [l1, l2, l3, l4] {
                assert_eq!(result.effects.joins[leaf.0], 0, "mode {mode:?}");
            }
        }
    }

    #[test]
    fn initial_state_override_is_respected() {
        // Seed with a pre-existing count and read it out.
        let plan = counter_plan();
        let streams = vec![
            ScheduledStream::periodic(it(KcTag::ReadReset(1), 0), 10, 10, 1, |_| ())
                .closed(u64::MAX),
            ScheduledStream { itag: it(KcTag::Inc(1), 1), items: vec![] }.closed(u64::MAX),
            ScheduledStream { itag: it(KcTag::Inc(1), 2), items: vec![] }.closed(u64::MAX),
        ];
        let mut seed = std::collections::BTreeMap::new();
        seed.insert(1u32, 42i64);
        let result = run_threads(
            Arc::new(KeyCounter),
            &plan,
            &streams,
            seed,
            false,
            ThreadRunOptions::default(),
        );
        assert_eq!(result.outputs.len(), 1);
        assert_eq!(result.outputs[0].0, (1, 42));
    }

    /// Quiescence must be a condvar protocol, not sleep-polling. The
    /// quiescence implementation is the region of `wiring.rs` from
    /// `struct InFlight` up to the `end quiescence protocol` marker;
    /// assert it blocks on a condvar and never calls `sleep`. Nor does
    /// any other part of the driver: feeders wait for release times on
    /// their control condvar.
    #[test]
    fn no_sleep_polling_in_quiescence() {
        let region = include_str!("wiring.rs")
            .split("struct InFlight")
            .nth(1)
            .expect("InFlight defined")
            .split("// ---- end quiescence protocol")
            .next()
            .expect("region marker present");
        assert!(!region.contains("sleep"), "quiescence must not sleep-poll");
        assert!(region.contains("Condvar") || region.contains(".wait("), "quiescence must park on a condvar");
        let sleeps = |src: &str| src.split("#[cfg(test)]").next().unwrap().matches("thread::sleep").count();
        for (file, src) in [
            ("mod.rs", include_str!("mod.rs")),
            ("wiring.rs", include_str!("wiring.rs")),
            ("task.rs", include_str!("task.rs")),
            ("executor.rs", include_str!("executor.rs")),
            ("feeder.rs", include_str!("feeder.rs")),
            ("migrate.rs", include_str!("migrate.rs")),
        ] {
            assert_eq!(sleeps(src), 0, "{file}: the driver must not sleep");
        }
    }

    #[test]
    fn timing_records_wall_messages_and_paced_latency() {
        let plan = counter_plan();
        let streams = workload(); // last event ts = 400
        let result = run_kc(
            &plan,
            streams,
            false,
            ThreadRunOptions {
                pace_ns_per_tick: Some(20_000), // 400 ticks -> ≥ 8 ms wall
                record_timing: true,
                ..Default::default()
            },
        );
        let timing = result.timing.expect("timing requested");
        assert!(
            timing.wall >= Duration::from_millis(8),
            "paced run finished too fast: {:?}",
            timing.wall
        );
        assert_eq!(timing.output_latency_ns.len(), result.outputs.len());
        // Outputs ride on paced barrier events; latency is well under the
        // whole run but nonzero in aggregate.
        assert!(timing.output_latency_ns.iter().all(|&l| l < timing.wall.as_nanos() as u64));
        assert_eq!(result.effects.msgs.len(), plan.len());
        assert!(result.effects.msgs.iter().sum::<u64>() > 0);
    }

    #[test]
    fn unpaced_timing_has_no_latencies() {
        let plan = counter_plan();
        let result = run_kc(
            &plan,
            workload(),
            false,
            ThreadRunOptions {
                pace_ns_per_tick: None,
                record_timing: true,
                ..Default::default()
            },
        );
        let timing = result.timing.expect("timing requested");
        assert!(timing.output_latency_ns.is_empty());
        assert_eq!(result.effects.msgs.len(), plan.len());
    }

    /// Rate-predictive victim selection: shards steal from the shard
    /// with the highest recent message rate first, not merely the next
    /// neighbor.
    #[test]
    fn steal_order_prefers_the_hottest_shard() {
        let sched = Scheduler::new(&[0, 1, 2], 3);
        // EWMA starts at zero; one sample puts shard 1 well above 2.
        sched.note_rate(1, 400);
        sched.note_rate(2, 40);
        assert_eq!(sched.steal_order(0), vec![1, 2]);
        assert_eq!(sched.steal_order(1), vec![2, 0]);
        // A burst on shard 0 reorders victims for everyone else.
        sched.note_rate(0, 4000);
        assert_eq!(sched.steal_order(1), vec![0, 2]);
        assert_eq!(sched.steal_order(2), vec![0, 1]);
    }

    /// The elastic controller forks a persistently hot single-worker
    /// partition mid-run: the sequential plan's one worker is replaced
    /// by a root and two leaves, live state migrates, and the output
    /// multiset still matches the sequential spec.
    #[test]
    fn elastic_fork_splits_hot_partition() {
        use dgs_plan::plan::sequential_plan;
        let itags =
            [it(KcTag::ReadReset(1), 0), it(KcTag::Inc(1), 1), it(KcTag::Inc(1), 2)];
        let plan = sequential_plan(itags, Location(0));
        assert_eq!(plan.len(), 1, "starting plan is a single worker");
        let streams = workload;
        // ~400 ticks at 50 µs/tick ≈ 20 ms of wall clock; with one
        // partition the rate always equals the mean, so `hot_ratio: 1.0`
        // (the detector compares with >=) trips as soon as traffic flows.
        let result = run_kc(
            &plan,
            streams(),
            true,
            ThreadRunOptions {
                pace_ns_per_tick: Some(50_000),
                elastic: Some(ElasticConfig {
                    interval: Duration::from_millis(2),
                    hot_ratio: 1.0,
                    cold_ratio: 0.0,
                    hold_ticks: 1,
                    min_events: 16,
                    max_replans: 1,
                }),
                ..Default::default()
            },
        );
        assert_eq!(result.replans.len(), 1, "the hot partition must fork");
        let ev = &result.replans[0];
        assert_eq!(ev.kind, ReplanKind::Fork);
        assert_eq!(ev.partition, 0);
        assert_eq!(ev.root, plan.root());
        assert_eq!((ev.workers_before, ev.workers_after), (1, 3));
        assert!(ev.pause_ns > 0);
        assert!(ev.trigger_rate_eps > 0.0);
        assert_eq!(
            sorted_outputs(&result),
            spec_sorted(&streams()),
            "fork migration changed the output multiset"
        );
        // Checkpoint partition purity: every snapshot is tagged with the
        // original partition root, before and after the migration.
        assert!(!result.checkpoints.is_empty());
        assert!(result.checkpoints.iter().all(|(root, _, _)| *root == plan.root()));
    }

    /// The elastic controller joins a persistently cold forked partition
    /// back into one worker while a hot (but indivisible) sibling
    /// partition keeps flowing — the join eliminates the cold tree's
    /// fork/join protocol traffic without touching the hot one.
    #[test]
    fn elastic_join_collapses_cold_partition() {
        // Partition A (hot, not forkable): one worker owning a single
        // inc stream and its read-reset — fork needs two independent
        // tags, so the controller can never split it. Partition B
        // (cold, forked): root{r(2)} — {i(2)}, {i(2)}.
        let mut b = PlanBuilder::new();
        let ra = b.add(
            [it(KcTag::ReadReset(1), 0), it(KcTag::Inc(1), 1)],
            Location(0),
        );
        let rb = b.add([it(KcTag::ReadReset(2), 2)], Location(0));
        let bl = b.add([it(KcTag::Inc(2), 3)], Location(0));
        let br = b.add([it(KcTag::Inc(2), 4)], Location(0));
        b.attach(rb, bl);
        b.attach(rb, br);
        let plan = b.build_forest();
        assert_eq!(plan.roots(), &[ra, rb]);
        let streams = || {
            vec![
                ScheduledStream::periodic(it(KcTag::ReadReset(1), 0), 200, 200, 7, |_| ())
                    .with_heartbeats(25)
                    .closed(u64::MAX),
                // The hot stream: one event per tick.
                ScheduledStream::periodic(it(KcTag::Inc(1), 1), 1, 1, 1400, |_| ())
                    .with_heartbeats(50)
                    .closed(u64::MAX),
                ScheduledStream::periodic(it(KcTag::ReadReset(2), 2), 300, 300, 4, |_| ())
                    .with_heartbeats(50)
                    .closed(u64::MAX),
                // The cold streams: sparse but never silent, so the
                // partition stays joinable (a held root needs traffic
                // to engage its hold).
                ScheduledStream::periodic(it(KcTag::Inc(2), 3), 7, 40, 35, |_| ())
                    .with_heartbeats(60)
                    .closed(u64::MAX),
                ScheduledStream::periodic(it(KcTag::Inc(2), 4), 11, 40, 35, |_| ())
                    .with_heartbeats(60)
                    .closed(u64::MAX),
            ]
        };
        // ~1400 ticks at 50 µs/tick ≈ 70 ms; partition B runs at a few
        // percent of the mean rate, far below `cold_ratio: 0.5`.
        let result = run_kc(
            &plan,
            streams(),
            true,
            ThreadRunOptions {
                pace_ns_per_tick: Some(50_000),
                elastic: Some(ElasticConfig {
                    interval: Duration::from_millis(2),
                    hot_ratio: 10.0,
                    cold_ratio: 0.5,
                    hold_ticks: 2,
                    min_events: 16,
                    max_replans: 1,
                }),
                ..Default::default()
            },
        );
        assert_eq!(result.replans.len(), 1, "the cold partition must join");
        let ev = &result.replans[0];
        assert_eq!(ev.kind, ReplanKind::Join);
        assert_eq!(ev.partition, 1);
        assert_eq!(ev.root, rb);
        assert_eq!((ev.workers_before, ev.workers_after), (3, 1));
        assert_eq!(
            sorted_outputs(&result),
            spec_sorted(&streams()),
            "join migration changed the output multiset"
        );
        // Checkpoint partition purity across the migration: partition
        // B's snapshots stay tagged with its original root even after
        // the join rebuilt it in fresh slots.
        assert!(result.checkpoints.iter().all(|(root, _, _)| *root == ra || *root == rb));
        assert!(
            result.checkpoints.iter().any(|(root, _, _)| *root == rb),
            "partition B must checkpoint under its stable root"
        );
    }

    /// Checkpoints and outputs ride task-local buffers that are handed
    /// over when a task retires — when a replan replaces its partition,
    /// or when the run ends. With one partition and both ratios at 1.0 the
    /// detector alternates fork, join, fork: generations that checkpoint
    /// (forked) on either side of one that does not (sequential). Across
    /// all of them the root's checkpoints must come out in trigger order
    /// — the property recovery relies on when it indexes a partition's
    /// snapshot series — and no output may be lost at a hand-over.
    #[test]
    fn elastic_replans_keep_checkpoints_ordered_per_root() {
        use dgs_plan::plan::sequential_plan;
        let itags = [it(KcTag::ReadReset(1), 0), it(KcTag::Inc(1), 1), it(KcTag::Inc(1), 2)];
        let plan = sequential_plan(itags, Location(0));
        let streams = || {
            vec![
                ScheduledStream::periodic(it(KcTag::ReadReset(1), 0), 25, 25, 40, |_| ())
                    .with_heartbeats(5)
                    .closed(u64::MAX),
                ScheduledStream::periodic(it(KcTag::Inc(1), 1), 1, 3, 330, |_| ())
                    .with_heartbeats(7)
                    .closed(u64::MAX),
                ScheduledStream::periodic(it(KcTag::Inc(1), 2), 2, 3, 330, |_| ())
                    .with_heartbeats(7)
                    .closed(u64::MAX),
            ]
        };
        // ~1000 ticks at 50 µs/tick ≈ 50 ms of wall clock.
        let result = run_kc(
            &plan,
            streams(),
            true,
            ThreadRunOptions {
                pace_ns_per_tick: Some(50_000),
                elastic: Some(ElasticConfig {
                    interval: Duration::from_millis(2),
                    hot_ratio: 1.0,
                    cold_ratio: 1.0,
                    hold_ticks: 1,
                    min_events: 16,
                    max_replans: 3,
                }),
                ..Default::default()
            },
        );
        assert!(!result.replans.is_empty(), "the controller must replan at least once");
        assert_eq!(sorted_outputs(&result), spec_sorted(&streams()), "replans: {:?}", result.replans);
        assert!(!result.checkpoints.is_empty(), "a forked generation must checkpoint");
        for &root in plan.roots() {
            let ts: Vec<Timestamp> =
                result.checkpoints.iter().filter(|(r, _, _)| *r == root).map(|c| c.2).collect();
            assert!(
                ts.windows(2).all(|w| w[0] <= w[1]),
                "root {root:?}: checkpoints out of trigger order: {ts:?}; replans: {:?}",
                result.replans
            );
        }
        assert!(result.checkpoints.iter().all(|(r, _, _)| plan.roots().contains(r)));
    }
}
