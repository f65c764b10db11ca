//! One front door: a typed [`Job`] builder unifying plan derivation and
//! every execution backend.
//!
//! The paper's pitch is that a DGS program is *just* `init`/`update`/
//! `fork`/`join` plus a dependence relation — the system derives the
//! synchronization plan and runs it. This module delivers that
//! ergonomics: a [`Job`] takes the program and its input
//! [`ScheduledStream`]s and derives everything else —
//!
//! * per-tag [`ITagInfo`] **rates** from the streams' own schedules
//!   (event count over the shared schedule horizon) and **locations**
//!   from their stream ids, overridable per tag with [`Job::rate`] /
//!   [`Job::place`];
//! * the **dependence relation** straight from
//!   [`DgsProgram::depends`] via the
//!   [`ProgramDependence`](dgs_core::depends::ProgramDependence) blanket
//!   adapter — no hand-written `FnDependence` wrapper;
//! * the **plan** from the Appendix-B communication-minimizing
//!   optimizer ([`CommMinOptimizer`]), or pinned explicitly with
//!   [`Job::with_plan`].
//!
//! What a run starts from ([`Job::with_initial_state`]) and whether its
//! partition roots checkpoint ([`Job::checkpoint_roots`]) are set on the
//! job, once, and hold on every backend. Execution goes through one
//! [`Backend`] value — real threads, the deterministic cluster simulator
//! (replaying the same streams in virtual time), or the sequential
//! specification — and every backend returns the same [`RunReport`], so
//! "the parallel run matches the spec" (Theorem 3.5) is a one-liner:
//! [`Job::verify_against_spec`].
//!
//! A run borrows the job's streams; no backend copies them whole. The
//! thread backend's feeders clone each item only as they send it, and
//! the sequential specification folds a k-way merge
//! ([`merge_o`]) over the streams in place of sorting a copy. (The
//! simulator's sources still own a copy each.) The job's own input is
//! therefore the memory floor of a run.
//!
//! A run never touches the disk. Root-join snapshots
//! ([`Job::checkpoint_roots`]) come back in [`RunReport::checkpoints`];
//! making them crash-durable is a separate, fallible step *after* the
//! run — [`RunReport::persist_checkpoints`] — so a storage failure is a
//! [`StoreError`] the caller handles, not a panic inside `run`.
//!
//! ```
//! use std::sync::Arc;
//! use dgs_core::event::{StreamId, Timestamp};
//! use dgs_core::examples::{KcTag, KeyCounter};
//! use dgs_core::tag::ITag;
//! use dgs_runtime::job::Job;
//! use dgs_runtime::source::ScheduledStream;
//!
//! let itag = |tag, s| ITag::new(tag, StreamId(s));
//! let streams = vec![
//!     ScheduledStream::periodic(itag(KcTag::Inc(1), 0), 1, 2, 100, |_| ())
//!         .with_heartbeats(25).closed(Timestamp::MAX),
//!     ScheduledStream::periodic(itag(KcTag::Inc(1), 1), 2, 2, 100, |_| ())
//!         .with_heartbeats(25).closed(Timestamp::MAX),
//!     ScheduledStream::periodic(itag(KcTag::ReadReset(1), 2), 50, 50, 4, |_| ())
//!         .with_heartbeats(25).closed(Timestamp::MAX),
//! ];
//! let job = Job::new(KeyCounter, streams);
//! let verified = job.verify_against_spec().expect("parallel == sequential");
//! assert_eq!(verified.run.outputs.len(), 4);
//! ```
//!
//! `Job` is the only way to run a plan. The cluster model behind the
//! paper figures — [`build_sim`](crate::sim_driver::build_sim) over
//! [`PacedSource`](crate::source::PacedSource)s with explicit topologies
//! and cost models — is an evaluation substrate, not a second front door.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use dgs_core::codec::StateCodec;
use dgs_core::event::Timestamp;
use dgs_core::program::DgsProgram;
use dgs_core::spec::merge_o;
use dgs_core::tag::ITag;
use dgs_metrics::{MetricsSnapshot, StoreMetrics};
use dgs_plan::optimizer::{CommMinOptimizer, ITagInfo, Optimizer};
use dgs_plan::plan::{Location, Plan, WorkerId};
use dgs_plan::validity::check_plan_for_program;
use dgs_sim::{LinkSpec, Topology};

use crate::checkpoint::CheckpointStore;
use crate::durable::{DurableStore, StoreError};
use crate::elastic::ReplanEvent;
use crate::sim_driver::{build_sim_scheduled, ReplaySource, SimConfig};
use crate::source::ScheduledStream;
use crate::thread_driver::{run_threads, RunEffects, RunTiming, ThreadRunOptions};

/// Where a [`Job`] executes. All three backends return the same
/// [`RunReport`], and all three start from the job's initial state and
/// honor its checkpoint flag.
pub enum Backend {
    /// Real OS threads on the sharded executor — the "production"
    /// backend, with its execution options.
    Threads(ThreadRunOptions),
    /// The deterministic cluster simulator, replaying the job's
    /// scheduled streams in virtual time (one tick per virtual
    /// microsecond) over a uniform topology covering every source and
    /// worker location; per-stream order is kept, cross-stream
    /// interleaving follows the simulated link latencies.
    Sim,
    /// The sequential specification ([`run_sequential`-style], paper
    /// Definition 2.2): the job's streams merged in the order `O`
    /// ([`merge_o`], a k-way merge over the borrowed streams, not a
    /// sort of a copy) and folded through `update` on a single
    /// pseudo-worker. This is the reference the other two must
    /// reproduce (Theorem 3.5).
    ///
    /// [`run_sequential`-style]: dgs_core::spec::run_sequential
    Spec,
}

impl Backend {
    /// The thread backend with default options — what
    /// [`Job::verify_against_spec`] runs.
    pub fn threads() -> Self {
        Backend::Threads(ThreadRunOptions::default())
    }
}

impl Default for Backend {
    fn default() -> Self {
        Backend::threads()
    }
}

/// Aggregate engine statistics of a simulator run (absent on the other
/// backends).
#[derive(Clone, Copy, Debug)]
pub struct SimStats {
    /// Virtual time at quiescence (nanoseconds).
    pub virtual_ns: u64,
    /// Total bytes that crossed simulated links.
    pub net_bytes: u64,
    /// Messages delivered by the engine.
    pub messages: u64,
}

/// The unified result of one [`Job`] execution, identical in shape
/// across backends.
pub struct RunReport<P: DgsProgram> {
    /// The plan the run executed (derived, or the [`Job::with_plan`]
    /// override).
    pub plan: Plan<P::Tag>,
    /// Every output with the timestamp of the event that produced it.
    pub outputs: Vec<(P::Out, Timestamp)>,
    /// Root checkpoints (empty unless [`Job::checkpoint_roots`] enabled
    /// them), tagged with the partition root that took each snapshot. The
    /// [`Backend::Spec`] backend reports a single final-state snapshot
    /// tagged `WorkerId(0)`.
    pub checkpoints: Vec<(WorkerId, P::State, Timestamp)>,
    /// Per-worker protocol effect counters, indexed by plan worker id.
    /// The [`Backend::Spec`] backend reports one sequential
    /// pseudo-worker (vectors of length 1: every event is one handled
    /// message and one `update`; no joins or forks).
    pub effects: RunEffects,
    /// Wall-clock measurements — [`Backend::Threads`] with
    /// `record_timing` only.
    pub timing: Option<RunTiming>,
    /// Every elastic replan the run performed, in completion order —
    /// [`Backend::Threads`] with `ThreadRunOptions::elastic` only
    /// (always empty on the other backends).
    pub replans: Vec<ReplanEvent>,
    /// Engine statistics — [`Backend::Sim`] only.
    pub sim: Option<SimStats>,
    /// Full metrics snapshot — [`Backend::Threads`] unless
    /// `ThreadRunOptions::metrics` was disabled. Taken when the backend
    /// returns; its `store` section is all zeros until
    /// [`RunReport::persist_checkpoints`] fills in that call's
    /// append/fsync/repair tallies. The `workload` label starts empty
    /// (the driver does not know it); callers that do may fill it in
    /// before rendering.
    pub metrics: Option<MetricsSnapshot>,
}

impl<P: DgsProgram> std::fmt::Debug for RunReport<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunReport")
            .field("plan", &self.plan)
            .field("outputs", &self.outputs)
            .field("checkpoints", &self.checkpoints)
            .field("effects", &self.effects)
            .field("timing", &self.timing)
            .field("replans", &self.replans)
            .field("sim", &self.sim)
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}

impl<P: DgsProgram> RunReport<P> {
    /// The output multiset in a canonical order (sorted `Debug`
    /// renderings) — the form two runs are compared in. `Debug` rather
    /// than `Ord` so every program output qualifies;
    /// [`DgsProgram::Out`] already requires `Debug`.
    pub fn output_multiset(&self) -> Vec<String> {
        let mut v: Vec<String> = self.outputs.iter().map(|(o, _)| format!("{o:?}")).collect();
        v.sort_unstable();
        v
    }

    /// Append this run's root-tagged checkpoints, in the order they were
    /// taken, to the [`DurableStore`] at `dir` (created if absent) and
    /// return how many were written. The store's tallies for this call
    /// (appends, fsync latency, bytes repaired at open, manifest
    /// fallback) become the `store` section of [`RunReport::metrics`].
    ///
    /// Errors are values: the directory failing to open (corrupt
    /// manifest, unreadable segment), an I/O failure, or — since per-root
    /// checkpoint timestamps are monotone within one history — a
    /// directory that already holds a later history
    /// ([`StoreError::Corrupt`]; use a fresh directory per run).
    pub fn persist_checkpoints(&mut self, dir: impl AsRef<Path>) -> Result<usize, StoreError>
    where
        P::State: StateCodec,
    {
        let sink = Arc::new(StoreMetrics::default());
        let mut store = DurableStore::open(dir.as_ref())?.with_metrics(sink.clone());
        store.extend(self.checkpoints.iter().cloned())?;
        if let Some(m) = &mut self.metrics {
            m.store = sink.snapshot();
        }
        Ok(self.checkpoints.len())
    }
}

/// A successful [`Job::verify_on`]: both runs, for further inspection.
#[derive(Debug)]
pub struct Verified<P: DgsProgram> {
    /// The run under test.
    pub run: RunReport<P>,
    /// The sequential-specification run it was compared against.
    pub spec: RunReport<P>,
}

/// The output multiset diverged from the sequential specification —
/// a Theorem 3.5 violation (or an invalid plan).
#[derive(Clone, Debug)]
pub struct SpecMismatch {
    /// Outputs the sequential specification produced.
    pub expected: usize,
    /// Outputs the run under test produced.
    pub got: usize,
    /// First differing element between the two sorted multisets (debug
    /// rendering), `run` side vs `spec` side.
    pub first_diff: String,
}

impl std::fmt::Display for SpecMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "output multiset diverged from the sequential spec: {} outputs vs {} expected; first difference: {}",
            self.got, self.expected, self.first_diff
        )
    }
}

impl std::error::Error for SpecMismatch {}

/// A DGS program plus its workload, with everything else derived — see
/// the [module docs](self) for the full tour.
///
/// A `Job` is reusable: [`Job::run`] borrows it, so the same job can
/// execute on several backends (that is exactly what
/// [`Job::verify_on`] does).
pub struct Job<P: DgsProgram> {
    program: Arc<P>,
    streams: Vec<ScheduledStream<P::Tag, P::Payload>>,
    fixed_plan: Option<Plan<P::Tag>>,
    rate_overrides: BTreeMap<ITag<P::Tag>, f64>,
    place_overrides: BTreeMap<ITag<P::Tag>, Location>,
    initial_state: Option<P::State>,
    checkpoint_roots: bool,
    /// Derived-plan / derived-infos caches: the optimizer and the
    /// per-stream schedule scans run once per builder configuration,
    /// however many times `plan()`/`derived_infos()`/`run()`/
    /// `verify_on()` consult them. Reset by every builder method that
    /// changes what the derivation would see.
    plan_cache: std::sync::OnceLock<Plan<P::Tag>>,
    infos_cache: std::sync::OnceLock<Vec<ITagInfo<P::Tag>>>,
}

impl<P: DgsProgram> Job<P> {
    /// A job over `program` (owned, or an already-shared `Arc<P>`) and
    /// its input streams. Panics if two streams share an implementation
    /// tag (each itag names exactly one input stream, paper §3.1).
    pub fn new(
        program: impl Into<Arc<P>>,
        streams: Vec<ScheduledStream<P::Tag, P::Payload>>,
    ) -> Self {
        let mut seen = std::collections::BTreeSet::new();
        for s in &streams {
            assert!(
                seen.insert(s.itag.clone()),
                "duplicate stream for implementation tag {:?}",
                s.itag
            );
        }
        Job {
            program: program.into(),
            streams,
            fixed_plan: None,
            rate_overrides: BTreeMap::new(),
            place_overrides: BTreeMap::new(),
            initial_state: None,
            checkpoint_roots: false,
            plan_cache: std::sync::OnceLock::new(),
            infos_cache: std::sync::OnceLock::new(),
        }
    }

    /// Override the derived location of one tag's stream (default: node
    /// `itag.stream`, i.e. each input stream arrives at its own node).
    pub fn place(mut self, itag: ITag<P::Tag>, location: Location) -> Self {
        self.place_overrides.insert(itag, location);
        self.plan_cache = std::sync::OnceLock::new();
        self.infos_cache = std::sync::OnceLock::new();
        self
    }

    /// Override the derived rate of one tag's stream (default: the
    /// stream's event count over the shared schedule horizon — only
    /// *relative* rates matter to the optimizer).
    pub fn rate(mut self, itag: ITag<P::Tag>, rate: f64) -> Self {
        self.rate_overrides.insert(itag, rate);
        self.plan_cache = std::sync::OnceLock::new();
        self.infos_cache = std::sync::OnceLock::new();
        self
    }

    /// Run exactly this plan instead of deriving one (any P-valid plan
    /// reproduces the specification, Theorem 3.5). Panics if the plan is
    /// not P-valid for the program over the job's stream tags, or the
    /// fork/join protocol cannot execute it
    /// ([`check_plan_for_program`]): the theorem promises nothing for
    /// such a plan, and it can return wrong outputs without failing.
    pub fn with_plan(mut self, plan: Plan<P::Tag>) -> Self {
        let universe = self.streams.iter().map(|s| s.itag.clone()).collect();
        if let Err(e) = check_plan_for_program(&plan, &*self.program, &universe) {
            panic!("invalid plan for this job: {e:?}");
        }
        self.fixed_plan = Some(plan);
        self.plan_cache = std::sync::OnceLock::new();
        self.infos_cache = std::sync::OnceLock::new();
        self
    }

    /// Seed the run with this state instead of `program.init()` (used by
    /// checkpoint recovery). Applies to every backend, the sequential
    /// specification included.
    pub fn with_initial_state(mut self, state: P::State) -> Self {
        self.initial_state = Some(state);
        self
    }

    /// Snapshot each partition root's state at its joins (Appendix D.2),
    /// on every backend; [`RunReport::persist_checkpoints`] makes the
    /// returned snapshots durable.
    pub fn checkpoint_roots(mut self, enable: bool) -> Self {
        self.checkpoint_roots = enable;
        self
    }

    /// The program driving this job.
    pub fn program(&self) -> &Arc<P> {
        &self.program
    }

    /// The input streams, in the order they were given.
    pub fn streams(&self) -> &[ScheduledStream<P::Tag, P::Payload>] {
        &self.streams
    }

    /// The workload description the optimizer sees, derived from the
    /// streams themselves: one [`ITagInfo`] per stream (same order),
    /// rate = event count over the shared schedule horizon (the largest
    /// event timestamp across all streams), location = the stream id's
    /// node — each subject to the [`Job::rate`] / [`Job::place`]
    /// overrides.
    pub fn derived_infos(&self) -> Vec<ITagInfo<P::Tag>> {
        self.infos_cache
            .get_or_init(|| {
                let horizon = self
                    .streams
                    .iter()
                    .filter_map(|s| s.events().map(|e| e.ts).max())
                    .max()
                    .unwrap_or(0)
                    .max(1);
                self.streams
                    .iter()
                    .map(|s| {
                        let rate = self.rate_overrides.get(&s.itag).copied().unwrap_or_else(|| {
                            s.events().count() as f64 / horizon as f64
                        });
                        let location = self
                            .place_overrides
                            .get(&s.itag)
                            .copied()
                            .unwrap_or(Location(s.itag.stream.0));
                        ITagInfo::new(s.itag.clone(), rate, location)
                    })
                    .collect()
            })
            .clone()
    }

    /// The synchronization plan this job runs: the [`Job::with_plan`]
    /// override if set, otherwise [`CommMinOptimizer`] over
    /// [`Job::derived_infos`] with the program's own dependence
    /// relation.
    pub fn plan(&self) -> Plan<P::Tag> {
        if let Some(plan) = &self.fixed_plan {
            return plan.clone();
        }
        self.plan_cache
            .get_or_init(|| CommMinOptimizer.plan(&self.derived_infos(), &self.program.dependence()))
            .clone()
    }

    /// The state a run starts from: the [`Job::with_initial_state`] seed,
    /// or `program.init()`.
    fn seed(&self) -> P::State {
        self.initial_state.clone().unwrap_or_else(|| self.program.init())
    }

    /// The [`Backend::Sim`] deployment: a uniform topology covering
    /// every derived (or overridden) source location and every plan
    /// worker location.
    fn sim_config(&self) -> SimConfig {
        let info_max = self.derived_infos().iter().map(|i| i.location.0).max().unwrap_or(0);
        let plan_max = self
            .plan()
            .iter()
            .map(|(_, w)| w.location.0)
            .max()
            .unwrap_or(0);
        SimConfig::new(Topology::uniform(info_max.max(plan_max) + 1, LinkSpec::default()))
    }
}

impl<P> Job<P>
where
    P: DgsProgram + Send + Sync + 'static,
{
    /// Execute on the given backend and return the unified report.
    pub fn run(&self, backend: Backend) -> RunReport<P> {
        let plan = self.plan();
        match backend {
            Backend::Threads(opts) => {
                let result = run_threads(
                    self.program.clone(),
                    &plan,
                    &self.streams,
                    self.seed(),
                    self.checkpoint_roots,
                    opts,
                );
                RunReport {
                    plan,
                    outputs: result.outputs,
                    checkpoints: result.checkpoints,
                    effects: result.effects,
                    timing: result.timing,
                    replans: result.replans,
                    sim: None,
                    metrics: result.metrics.map(|m| m.snapshot()),
                }
            }
            Backend::Sim => {
                let sources: Vec<ReplaySource<P::Tag, P::Payload>> = self
                    .streams
                    .iter()
                    .cloned()
                    .zip(self.derived_infos())
                    .map(|(stream, info)| ReplaySource { stream, location: info.location })
                    .collect();
                let (mut engine, handles) = build_sim_scheduled(
                    self.program.clone(),
                    &plan,
                    sources,
                    self.seed(),
                    self.checkpoint_roots,
                    self.sim_config(),
                );
                engine.run(None, u64::MAX);
                let stats = SimStats {
                    virtual_ns: engine.now(),
                    net_bytes: engine.metrics().net_bytes,
                    messages: engine.metrics().messages_delivered,
                };
                let outputs = std::mem::take(&mut *handles.outputs.borrow_mut());
                let checkpoints = std::mem::take(&mut *handles.checkpoints.borrow_mut());
                let effects = handles.effects.borrow().clone();
                RunReport {
                    plan,
                    outputs,
                    checkpoints,
                    effects,
                    timing: None,
                    replans: Vec::new(),
                    sim: Some(stats),
                    metrics: None,
                }
            }
            Backend::Spec => self.run_spec(plan),
        }
    }

    /// The sequential-specification run ([`Backend::Spec`]).
    fn run_spec(&self, plan: Plan<P::Tag>) -> RunReport<P> {
        let mut state = self.seed();
        let mut outputs: Vec<(P::Out, Timestamp)> = Vec::new();
        let mut scratch = Vec::new();
        let (mut n, mut last_ts) = (0u64, 0);
        for e in merge_o(&self.streams) {
            self.program.update(&mut state, e, &mut scratch);
            outputs.extend(scratch.drain(..).map(|o| (o, e.ts)));
            n += 1;
            last_ts = e.ts;
        }
        let checkpoints = if self.checkpoint_roots {
            vec![(WorkerId(0), state, last_ts)]
        } else {
            Vec::new()
        };
        RunReport {
            plan,
            outputs,
            checkpoints,
            effects: RunEffects {
                msgs: vec![n],
                updates: vec![n],
                joins: vec![0],
                forks: vec![0],
            },
            timing: None,
            replans: Vec::new(),
            sim: None,
            metrics: None,
        }
    }

    /// Run `backend` and the sequential specification, compare output
    /// multisets (Theorem 3.5), and return both reports on success.
    ///
    /// Both runs start from the job's one initial state, so only genuine
    /// parallel-vs-sequential divergence — never a seeding asymmetry —
    /// reports as a [`SpecMismatch`].
    pub fn verify_on(&self, backend: Backend) -> Result<Verified<P>, SpecMismatch> {
        let run = self.run(backend);
        let spec = self.run(Backend::Spec);
        let got = run.output_multiset();
        let want = spec.output_multiset();
        if got == want {
            return Ok(Verified { run, spec });
        }
        let first_diff = got
            .iter()
            .zip(&want)
            .find(|(g, w)| g != w)
            .map(|(g, w)| format!("{g} vs {w}"))
            .unwrap_or_else(|| {
                if got.len() > want.len() {
                    format!("{} vs <absent>", got[want.len()])
                } else {
                    format!("<absent> vs {}", want[got.len()])
                }
            });
        Err(SpecMismatch { expected: want.len(), got: got.len(), first_diff })
    }

    /// The one-liner the paper promises: execute on real threads
    /// (default options — the delivery plane auto-resolves per host) and
    /// prove the output multiset equals the sequential specification's.
    pub fn verify_against_spec(&self) -> Result<Verified<P>, SpecMismatch> {
        self.verify_on(Backend::threads())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::tests::scratch;
    use dgs_core::event::StreamId;
    use dgs_core::examples::{KcTag, KeyCounter};
    use dgs_core::tag::Tag;
    use dgs_plan::optimizer::SequentialOptimizer;
    use dgs_plan::plan::PlanBuilder;

    fn it(tag: KcTag, s: u32) -> ITag<KcTag> {
        ITag::new(tag, StreamId(s))
    }

    fn kc_streams() -> Vec<ScheduledStream<KcTag, ()>> {
        vec![
            ScheduledStream::periodic(it(KcTag::Inc(1), 0), 1, 2, 100, |_| ())
                .with_heartbeats(25)
                .closed(u64::MAX),
            ScheduledStream::periodic(it(KcTag::Inc(1), 1), 2, 2, 100, |_| ())
                .with_heartbeats(25)
                .closed(u64::MAX),
            ScheduledStream::periodic(it(KcTag::ReadReset(1), 2), 50, 50, 4, |_| ())
                .with_heartbeats(25)
                .closed(u64::MAX),
        ]
    }

    #[test]
    fn derives_rates_and_locations_from_the_schedule() {
        let job = Job::new(KeyCounter, kc_streams());
        let infos = job.derived_infos();
        assert_eq!(infos.len(), 3);
        // Horizon = 200 (last read-reset); rates are events / horizon.
        assert_eq!(infos[0].rate, 100.0 / 200.0);
        assert_eq!(infos[2].rate, 4.0 / 200.0);
        // Locations default to the stream id's node.
        assert_eq!(infos[1].location, Location(1));
        // High-rate tags outrank low-rate tags, as the optimizer needs.
        assert!(infos[0].rate > infos[2].rate);
    }

    #[test]
    fn overrides_replace_derived_values() {
        let job = Job::new(KeyCounter, kc_streams())
            .rate(it(KcTag::Inc(1), 0), 9.5)
            .place(it(KcTag::ReadReset(1), 2), Location(7));
        let infos = job.derived_infos();
        assert_eq!(infos[0].rate, 9.5);
        assert_eq!(infos[2].location, Location(7));
        // Untouched entries keep their derivation.
        assert_eq!(infos[1].location, Location(1));
    }

    #[test]
    fn derived_plan_parallelizes_the_increments() {
        let plan = Job::new(KeyCounter, kc_streams()).plan();
        // Read-reset on the root, one leaf per increment stream.
        assert_eq!(plan.leaf_count(), 2);
        assert_eq!(plan.responsible_for(&it(KcTag::ReadReset(1), 2)), Some(plan.root()));
    }

    #[test]
    fn sequential_strategy_and_fixed_plan_escape_hatch() {
        let job = Job::new(KeyCounter, kc_streams());
        let seq = SequentialOptimizer.plan(&job.derived_infos(), &job.program().dependence());
        assert_eq!(job.with_plan(seq).plan().len(), 1);
        let mut b = PlanBuilder::new();
        let root = b.add(
            [it(KcTag::Inc(1), 0), it(KcTag::Inc(1), 1), it(KcTag::ReadReset(1), 2)],
            Location(5),
        );
        let fixed = b.build(root);
        let job = Job::new(KeyCounter, kc_streams()).with_plan(fixed.clone());
        assert_eq!(job.plan(), fixed);
    }

    #[test]
    fn all_backends_agree_on_the_output_multiset() {
        let job = Job::new(KeyCounter, kc_streams());
        let spec = job.run(Backend::Spec);
        let threads = job.run(Backend::threads());
        let sim = job.run(Backend::Sim);
        assert_eq!(threads.output_multiset(), spec.output_multiset());
        assert_eq!(sim.output_multiset(), spec.output_multiset());
        // Spec reports the single sequential pseudo-worker.
        assert_eq!(spec.effects.msgs.len(), 1);
        assert_eq!(spec.effects.updates[0], 204);
        // Sim reports engine stats; threads do not.
        assert!(sim.sim.is_some() && threads.sim.is_none());
        assert!(sim.effects.msgs.iter().sum::<u64>() > 0);
    }

    #[test]
    fn verify_against_spec_is_a_one_liner() {
        let verified = Job::new(KeyCounter, kc_streams())
            .verify_against_spec()
            .expect("Theorem 3.5");
        assert_eq!(verified.run.outputs.len(), verified.spec.outputs.len());
        assert_eq!(verified.run.outputs.len(), 4);
    }

    #[test]
    fn verify_on_reports_a_readable_mismatch() {
        // A program whose parallel run diverges: join drops the right
        // state, so window sums lose the second leaf's contribution.
        #[derive(Clone, Copy, Debug)]
        struct BadJoin;
        impl DgsProgram for BadJoin {
            type Tag = char;
            type Payload = ();
            type State = i64;
            type Out = i64;
            fn init(&self) -> i64 {
                0
            }
            fn depends(&self, a: &char, b: &char) -> bool {
                *a == 'b' || *b == 'b'
            }
            fn update(&self, s: &mut i64, e: &dgs_core::event::Event<char, ()>, out: &mut Vec<i64>) {
                match e.tag {
                    'b' => {
                        out.push(*s);
                        *s = 0;
                    }
                    _ => *s += 1,
                }
            }
            fn fork(
                &self,
                s: i64,
                _l: &dgs_core::predicate::TagPredicate<char>,
                _r: &dgs_core::predicate::TagPredicate<char>,
            ) -> (i64, i64) {
                (s, 0)
            }
            fn join(&self, left: i64, _right: i64) -> i64 {
                left // drops the right contribution: not C-consistent
            }
        }
        let streams = vec![
            ScheduledStream::periodic(ITag::new('v', StreamId(0)), 1, 1, 40, |_| ())
                .with_heartbeats(5)
                .closed(u64::MAX),
            ScheduledStream::periodic(ITag::new('w', StreamId(1)), 1, 1, 40, |_| ())
                .with_heartbeats(5)
                .closed(u64::MAX),
            ScheduledStream::periodic(ITag::new('b', StreamId(2)), 20, 20, 2, |_| ())
                .with_heartbeats(5)
                .closed(u64::MAX),
        ];
        let err = Job::new(BadJoin, streams)
            .verify_against_spec()
            .expect_err("a lossy join must fail verification");
        assert_eq!(err.expected, 2);
        let msg = err.to_string();
        assert!(msg.contains("diverged"), "unhelpful message: {msg}");
    }

    #[test]
    fn initial_state_and_checkpoints_flow_through_every_backend() {
        // Two increment streams so the derived plan really forks (the
        // root owning read-resets joins at every window — that is where
        // checkpoints are taken).
        let streams = vec![
            ScheduledStream::periodic(it(KcTag::ReadReset(1), 0), 10, 10, 2, |_| ())
                .with_heartbeats(3)
                .closed(u64::MAX),
            ScheduledStream::periodic(it(KcTag::Inc(1), 1), 1, 1, 5, |_| ())
                .with_heartbeats(3)
                .closed(u64::MAX),
            ScheduledStream::periodic(it(KcTag::Inc(1), 2), 1, 1, 5, |_| ())
                .with_heartbeats(3)
                .closed(u64::MAX),
        ];
        let mut seed = std::collections::BTreeMap::new();
        seed.insert(1u32, 100i64);
        let job = Job::new(KeyCounter, streams)
            .with_initial_state(seed)
            .checkpoint_roots(true);
        assert_eq!(job.plan().leaf_count(), 2, "plan must fork");
        for (label, backend) in [
            ("threads", Backend::threads()),
            ("sim", Backend::Sim),
            ("spec", Backend::Spec),
        ] {
            let report = job.run(backend);
            // The first read-reset sees the seeded 100 plus the 10 early
            // increments; the second sees nothing new.
            let total: i64 = report.outputs.iter().map(|((_, v), _)| *v).sum();
            assert_eq!(total, 110, "{label}: seeded state must be visible");
            assert!(!report.checkpoints.is_empty(), "{label}: checkpoints requested");
        }
    }

    /// The job's initial state (the recovery path) must seed the
    /// verification reference too — a seeded run compared against an
    /// unseeded spec is a seeding asymmetry, not a Theorem 3.5 violation.
    #[test]
    fn verify_seeds_the_spec_like_the_backend_run() {
        let mut seed = std::collections::BTreeMap::new();
        seed.insert(1u32, 100i64);
        let verified = Job::new(KeyCounter, kc_streams())
            .with_initial_state(seed)
            .verify_on(Backend::threads())
            .expect("seeded verification must compare a seeded spec");
        // Both sides saw the seeded 100 in the first window.
        let first = |r: &RunReport<KeyCounter>| {
            r.outputs.iter().min_by_key(|(_, ts)| *ts).map(|((_, v), _)| *v).unwrap()
        };
        assert_eq!(first(&verified.run), first(&verified.spec));
        assert!(first(&verified.spec) >= 100);
    }

    /// `persist_checkpoints` writes every root-join snapshot; a fresh
    /// store over the same directory reads them back from disk alone,
    /// and the latest one seeds a verified recovery run.
    #[test]
    fn checkpoint_dir_round_trips_through_a_fresh_store() {
        let dir = scratch("job-ckpt");
        let streams = || {
            vec![
                ScheduledStream::periodic(it(KcTag::ReadReset(1), 0), 10, 10, 3, |_| ())
                    .with_heartbeats(3)
                    .closed(u64::MAX),
                ScheduledStream::periodic(it(KcTag::Inc(1), 1), 1, 1, 15, |_| ())
                    .with_heartbeats(3)
                    .closed(u64::MAX),
                ScheduledStream::periodic(it(KcTag::Inc(1), 2), 1, 1, 15, |_| ())
                    .with_heartbeats(3)
                    .closed(u64::MAX),
            ]
        };
        let job = Job::new(KeyCounter, streams()).checkpoint_roots(true);
        let mut report = job.run(Backend::threads());
        assert_eq!(report.checkpoints.len(), 3, "one snapshot per read-reset");
        assert_eq!(report.persist_checkpoints(&dir).expect("fresh directory"), 3);
        // A brand-new store over the same dir sees them without running.
        let store = DurableStore::<BTreeMap<u32, i64>>::open(&dir).expect("reopen from disk");
        assert_eq!(store.len(), 3);
        let root = report.plan.root_of(
            report
                .plan
                .responsible_for(&it(KcTag::ReadReset(1), 0))
                .expect("owned"),
        );
        let (snap, cut_ts) = store.latest(root).expect("snapshots on the root");
        // Seed a resumed run with the recovered snapshot and verify it
        // against the identically-seeded spec (the PR 5 seeded path).
        let suffix = crate::checkpoint::suffix_after(&streams(), *cut_ts, StreamId(0));
        Job::new(KeyCounter, suffix)
            .with_initial_state(snap.clone())
            .verify_on(Backend::threads())
            .expect("recovery-seeded run passes spec verification");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `persist_checkpoints` writes the store's tallies into
    /// `RunReport.metrics`, so a persisted threaded run reports the
    /// store's fsync/append counts (zero before the call — `run` itself
    /// writes nothing); spec runs carry no metrics at all.
    #[test]
    fn run_report_metrics_include_post_persist_store_counts() {
        let dir = scratch("job-metrics");
        let job = Job::new(KeyCounter, kc_streams()).checkpoint_roots(true);
        let mut report = job.run(Backend::threads());
        assert_eq!(report.metrics.as_ref().expect("metrics on").store.appends, 0);
        report.persist_checkpoints(&dir).expect("fresh directory");
        let m = report.metrics.as_ref().expect("threaded runs carry metrics");
        assert_eq!(
            m.store.appends,
            report.checkpoints.len() as u64,
            "one durable append per persisted checkpoint"
        );
        assert_eq!(m.store.fsync.count, m.store.appends, "each append fsyncs once");
        assert!(m.total_msgs() > 0, "worker counters flushed into the snapshot");
        let _ = std::fs::remove_dir_all(&dir);

        let spec = Job::new(KeyCounter, kc_streams()).run(Backend::Spec);
        assert!(spec.metrics.is_none(), "spec runs have no metrics plane");
    }

    /// A storage failure is a value, not a panic: persisting into a
    /// directory that already holds a later history is refused, and the
    /// directory is left exactly as it was.
    #[test]
    fn persisting_behind_an_existing_history_is_an_error_not_a_panic() {
        let dir = scratch("job-used-dir");
        let job = Job::new(KeyCounter, kc_streams()).checkpoint_roots(true);
        let mut report = job.run(Backend::threads());
        let n = report.persist_checkpoints(&dir).expect("fresh directory");
        assert!(n > 1, "several root joins, so the first is behind the last");
        // The same history again: its first checkpoint is behind the
        // directory's latest.
        let err = report.persist_checkpoints(&dir).expect_err("used directory");
        assert!(matches!(err, StoreError::Corrupt(_)), "got {err}");
        let store = DurableStore::<BTreeMap<u32, i64>>::open(&dir).expect("still opens");
        assert_eq!(store.len(), n, "a refused append writes nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn thread_backend_records_resolved_channel_mode() {
        let job = Job::new(KeyCounter, kc_streams());
        let report = job.run(Backend::Threads(ThreadRunOptions {
            record_timing: true,
            ..Default::default()
        }));
        let mode = report.timing.expect("timing requested").channel_mode;
        assert!(
            mode == "per-edge" || mode == "per-edge-ring",
            "reports must name the edge storage, got {mode:?}"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate stream")]
    fn duplicate_itags_are_rejected() {
        let dup = vec![
            ScheduledStream::periodic(it(KcTag::Inc(1), 0), 1, 1, 3, |_| ()),
            ScheduledStream::periodic(it(KcTag::Inc(1), 0), 2, 2, 3, |_| ()),
        ];
        let _ = Job::new(KeyCounter, dup);
    }

    /// `Tag` is auto-implemented, so any user enum works end to end;
    /// smoke the generic path with a non-`examples` tag type.
    #[test]
    fn works_for_arbitrary_tag_types() {
        fn assert_tag<T: Tag>() {}
        assert_tag::<KcTag>();
        let streams = vec![
            ScheduledStream::periodic(ITag::new(0u8, StreamId(0)), 1, 1, 10, |_| ())
                .with_heartbeats(4)
                .closed(u64::MAX),
            ScheduledStream::periodic(ITag::new(1u8, StreamId(1)), 5, 5, 2, |_| ())
                .with_heartbeats(4)
                .closed(u64::MAX),
        ];
        #[derive(Clone, Copy, Debug)]
        struct Sum;
        impl DgsProgram for Sum {
            type Tag = u8;
            type Payload = ();
            type State = u64;
            type Out = u64;
            fn init(&self) -> u64 {
                0
            }
            fn depends(&self, a: &u8, b: &u8) -> bool {
                *a == 1 || *b == 1
            }
            fn update(&self, s: &mut u64, e: &dgs_core::event::Event<u8, ()>, out: &mut Vec<u64>) {
                if e.tag == 1 {
                    out.push(*s);
                } else {
                    *s += 1;
                }
            }
            fn fork(
                &self,
                s: u64,
                _l: &dgs_core::predicate::TagPredicate<u8>,
                _r: &dgs_core::predicate::TagPredicate<u8>,
            ) -> (u64, u64) {
                (s, 0)
            }
            fn join(&self, l: u64, r: u64) -> u64 {
                l + r
            }
        }
        Job::new(Sum, streams).verify_against_spec().expect("spec holds");
    }
}
