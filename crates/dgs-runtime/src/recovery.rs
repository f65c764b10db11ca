//! Fault recovery orchestration (Appendix D.2 put to work), per
//! partition.
//!
//! A forest plan's trees share no dependence, so each tree is an
//! independent **failure domain**: a crash in one partition is recovered
//! from that partition's latest snapshot by replaying that partition's
//! input suffix, while every other partition is untouched. Because a
//! root-join snapshot is a consistent cut in dependence order (and
//! partitions are pairwise independent), the spliced output union equals
//! the no-failure run exactly. A single-root plan degenerates to the
//! paper's original whole-deployment recovery.
//!
//! There is one orchestrator, [`run_durable_with_recovery`], and it is
//! the four steps it names: split the inputs per partition, run each
//! partition and persist its root-join snapshots, reopen the directory
//! through a fresh store, replay the crashed partition's suffix and
//! splice. The crash is an armed [`FaultPlan`]; the in-memory rehearsal
//! "crash right after the k-th checkpoint" is its cell `FaultPlan {
//! crash_after_appends: k + 1, fault: Fault::CleanCrash, .. }`, and
//! `faults: None` is a plain checkpointed run.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dgs_core::codec::StateCodec;
use dgs_core::event::{StreamId, Timestamp};
use dgs_metrics::{StoreMetrics, StoreSnapshot};
use dgs_core::program::DgsProgram;
use dgs_plan::plan::{Plan, WorkerId};

use crate::checkpoint::{suffix_after, CheckpointStore};
use crate::durable::{DurableStore, FaultPlan, StoreError};
use crate::job::{Backend, Job};
use crate::source::ScheduledStream;

type Streams<Prog> =
    Vec<ScheduledStream<<Prog as DgsProgram>::Tag, <Prog as DgsProgram>::Payload>>;
type Outputs<Prog> = Vec<(<Prog as DgsProgram>::Out, Timestamp)>;

/// One partition's share of a run — what it takes to run the tree as its
/// own checkpointed deployment, and to restart it after a crash.
struct Partition<Prog: DgsProgram> {
    /// The partition root in the *original* plan: the key its
    /// checkpoints are stored under.
    root: WorkerId,
    /// The tree as a stand-alone plan ([`Plan::partition_plan`]).
    plan: Plan<Prog::Tag>,
    /// The input streams its workers own.
    streams: Streams<Prog>,
    /// Its chain-forked share of `init()` — also the fallback when
    /// nothing durable survived a crash.
    seed: Prog::State,
}

impl<Prog> Partition<Prog>
where
    Prog: DgsProgram + Send + Sync + 'static,
    Prog::State: StateCodec + Send,
    Prog::Out: Send,
{
    /// Step 1: split the inputs per partition.
    fn split(prog: &Prog, plan: &Plan<Prog::Tag>, streams: &Streams<Prog>) -> Vec<Self> {
        // Every stream must belong to some partition — fail loudly up
        // front (as the thread driver's feeder mapping would) instead of
        // silently filtering an orphaned stream out of every sub-run.
        for s in streams {
            assert!(
                plan.responsible_for(&s.itag).is_some(),
                "no worker responsible for {:?}",
                s.itag
            );
        }
        // Each partition's sub-run must start from its chain-forked
        // *share* of the initial state, exactly as a whole-forest
        // run would seed it — handing every partition the full
        // `init()` would duplicate any non-neutral initial state across
        // trees.
        let seeds = crate::worker::partition_seeds(prog, plan, prog.init());
        let owns = |root, s: &ScheduledStream<Prog::Tag, Prog::Payload>| {
            plan.responsible_for(&s.itag).is_some_and(|w| plan.root_of(w) == root)
        };
        plan.roots()
            .iter()
            .zip(seeds)
            .map(|(&root, seed)| Partition {
                root,
                plan: plan.partition_plan(root).0,
                streams: streams.iter().filter(|s| owns(root, s)).cloned().collect(),
                seed,
            })
            .collect()
    }

    /// Step 2, and the replay half of step 4: run the partition over
    /// `streams` from `state`, snapshotting at every root join, then
    /// persist the snapshots in the order they were taken. Returns the
    /// outputs and the wall time of the run alone. A writer that hits
    /// its injected crash point is not an error here — it dies
    /// mid-sequence, exactly like the real process, and the caller asks
    /// [`DurableStore::has_crashed`].
    fn run_and_persist(
        &self,
        prog: &Arc<Prog>,
        streams: Streams<Prog>,
        state: Prog::State,
        store: &mut DurableStore<Prog::State>,
    ) -> Result<(Outputs<Prog>, u64), StoreError> {
        let t_run = Instant::now();
        let run = Job::<Prog>::new(prog.clone(), streams)
            .with_plan(self.plan.clone())
            .with_initial_state(state)
            .checkpoint_roots(true)
            .run(Backend::threads());
        let run_ns = t_run.elapsed().as_nanos() as u64;
        // Sub-run checkpoints carry the sub-plan's root id; re-key them
        // to the original plan's root.
        match store.extend(run.checkpoints.into_iter().map(|(_, s, t)| (self.root, s, t))) {
            Ok(()) | Err(StoreError::Crashed { .. }) => Ok((run.outputs, run_ns)),
            Err(e) => Err(e),
        }
    }

    /// Step 4: restart the crashed partition from its latest durable
    /// snapshot on its remaining input, and splice — `outputs` gains
    /// what survived of the pre-crash run plus the replay's outputs,
    /// `store` the replay's snapshots. Returns `(events_replayed,
    /// replay_ns)`.
    fn replay_and_splice(
        &self,
        prog: &Arc<Prog>,
        sync_stream: StreamId,
        crash_outputs: Outputs<Prog>,
        store: &mut DurableStore<Prog::State>,
        outputs: &mut Outputs<Prog>,
    ) -> Result<(u64, u64), StoreError> {
        let (snapshot, suffix) = match store.latest(self.root).cloned() {
            Some((snap, cut_ts)) => {
                // Outputs after the last durable cut died with the process.
                outputs.extend(crash_outputs.into_iter().filter(|(_, ts)| *ts <= cut_ts));
                (snap, suffix_after(&self.streams, cut_ts, sync_stream))
            }
            // Nothing durable survived: replay the partition from its seed.
            None => (self.seed.clone(), self.streams.clone()),
        };
        let events_replayed = suffix.iter().map(|s| s.events().count() as u64).sum();
        let (resumed, replay_ns) = self.run_and_persist(prog, suffix, snapshot, store)?;
        outputs.extend(resumed);
        Ok((events_replayed, replay_ns))
    }
}

/// Step 3: reopen the directory through a **fresh store object** — the
/// snapshot must come back from the segment files alone. Returns the
/// store and the wall time of the open (segment scan + repair).
fn reopen<S: StateCodec + Clone>(
    dir: &Path,
    sink: &Arc<StoreMetrics>,
) -> Result<(DurableStore<S>, u64), StoreError> {
    let t_open = Instant::now();
    let store = DurableStore::open(dir)?.with_metrics(sink.clone());
    Ok((store, t_open.elapsed().as_nanos() as u64))
}

/// Result of a durable run: outputs spliced across the crash, the
/// reopened store, and the measured recovery SLO ingredients.
#[derive(Debug)]
pub struct DurableRecovery<S, Out> {
    /// The spliced output stream (crashed partition: durable prefix +
    /// replayed suffix; other partitions: their full runs).
    pub outputs: Vec<(Out, Timestamp)>,
    /// Whether a crash fired and a disk recovery actually happened.
    pub recovered: bool,
    /// The partition root that crashed, if any.
    pub crashed_root: Option<WorkerId>,
    /// Events replayed from the input suffix during recovery.
    pub events_replayed: u64,
    /// Wall time to reopen the store from disk (segment scan + repair).
    pub open_ns: u64,
    /// Wall time to replay the input suffix on the restored snapshot.
    pub replay_ns: u64,
    /// Durable-store tallies across both phases: the original writer's
    /// appends/fsyncs plus — after a crash — the reopen's repair stats
    /// and the replay phase's appends, all folded into one sink.
    pub store_stats: StoreSnapshot,
    /// The store holding every durable checkpoint: the original writer
    /// when nothing crashed, or the *fresh* post-crash reopen (plus the
    /// replay phase's checkpoints) when something did.
    pub store: DurableStore<S>,
}

/// Run `plan` over `streams`, one checkpointed sub-run per partition,
/// with every root-join snapshot persisted to `dir` — optionally arming
/// a [`FaultPlan`] against the partition owning `sync_stream` (the
/// stream carrying that partition root's synchronizing events; it
/// defines the order-`O` cut for replay).
///
/// A crash is *process-visible*: the armed writer's appends start
/// failing at the injected point (possibly leaving torn bytes or a
/// damaged manifest behind), everything the dead partition produced
/// after its last durable checkpoint is discarded, and recovery reopens
/// the directory through a fresh store object. The replayed suffix is
/// seeded with the snapshot read back, and the spliced outputs equal the
/// sequential specification (Theorem 3.5 across the crash). A crash
/// point past the partition's last checkpoint never fires: the result
/// is a plain run with `recovered: false`.
pub fn run_durable_with_recovery<Prog>(
    prog: Arc<Prog>,
    plan: &Plan<Prog::Tag>,
    streams: Vec<ScheduledStream<Prog::Tag, Prog::Payload>>,
    sync_stream: StreamId,
    dir: impl AsRef<Path>,
    faults: Option<FaultPlan>,
) -> Result<DurableRecovery<Prog::State, Prog::Out>, StoreError>
where
    Prog: DgsProgram + Send + Sync + 'static,
    Prog::State: StateCodec + Send,
    Prog::Out: Send,
{
    let dir = dir.as_ref();
    let parts = Partition::split(prog.as_ref(), plan, &streams);
    // The partition whose writer the fault plan (if any) is scoped to.
    let sync_root = parts
        .iter()
        .find(|p| p.streams.iter().any(|s| s.itag.stream == sync_stream))
        .expect("sync_stream must be one of the input streams")
        .root;
    let sink = Arc::new(StoreMetrics::default());
    let mut writer = DurableStore::open(dir)?.with_metrics(sink.clone());
    if let Some(f) = faults {
        writer = writer.with_faults(f, sync_root);
    }
    let mut outputs = Vec::new();
    // The crashed partition and its in-flight outputs, held back for
    // splicing.
    let mut crash_site = None;
    for part in parts {
        let (full, _) =
            part.run_and_persist(&prog, part.streams.clone(), part.seed.clone(), &mut writer)?;
        // Asked of the writer rather than read off a failed append: the
        // crash can also fire on the partition's *last* append, in which
        // case no later append surfaces the error.
        if part.root == sync_root && writer.has_crashed() {
            crash_site = Some((part, full));
        } else {
            outputs.extend(full);
        }
    }
    let Some((part, crash_outputs)) = crash_site else {
        return Ok(DurableRecovery {
            outputs,
            recovered: false,
            crashed_root: None,
            events_replayed: 0,
            open_ns: 0,
            replay_ns: 0,
            store_stats: sink.snapshot(),
            store: writer,
        });
    };
    // The writer object dies with its process: its in-memory image must
    // not survive into recovery. Only the directory does.
    drop(writer);
    let (mut store, open_ns) = reopen(dir, &sink)?;
    let (events_replayed, replay_ns) =
        part.replay_and_splice(&prog, sync_stream, crash_outputs, &mut store, &mut outputs)?;
    Ok(DurableRecovery {
        outputs,
        recovered: true,
        crashed_root: Some(sync_root),
        events_replayed,
        open_ns,
        replay_ns,
        store_stats: sink.snapshot(),
        store,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::tests::scratch;
    use crate::durable::Fault;
    use dgs_core::examples::{KcTag, KeyCounter};
    use dgs_core::spec::{run_sequential, sort_o};
    use dgs_core::tag::ITag;
    use dgs_plan::plan::{Location, Plan, PlanBuilder};
    
    fn it(tag: KcTag, s: u32) -> ITag<KcTag> {
        ITag::new(tag, StreamId(s))
    }

    /// One three-worker tree for `key`: its read-resets on the root
    /// (stream `s0`; roots join, so they checkpoint), its increments on
    /// two leaves (streams `s0 + 1`, `s0 + 2`).
    fn key_tree(b: &mut PlanBuilder<KcTag>, key: u32, s0: u32) -> WorkerId {
        let root = b.add([it(KcTag::ReadReset(key), s0)], Location(0));
        for s in [s0 + 1, s0 + 2] {
            let leaf = b.add([it(KcTag::Inc(key), s)], Location(0));
            b.attach(root, leaf);
        }
        root
    }

    fn counter_plan() -> Plan<KcTag> {
        let mut b = PlanBuilder::new();
        let root = key_tree(&mut b, 1, 0);
        b.build(root)
    }

    /// Two trees, one per key; returns the plan and the two roots.
    fn forest_plan() -> (Plan<KcTag>, WorkerId, WorkerId) {
        let mut b = PlanBuilder::new();
        let (k1, k2) = (key_tree(&mut b, 1, 0), key_tree(&mut b, 2, 3));
        (b.build_forest(), k1, k2)
    }

    fn workload() -> Vec<ScheduledStream<KcTag, ()>> {
        vec![
            ScheduledStream::periodic(it(KcTag::ReadReset(1), 0), 30, 30, 6, |_| ())
                .with_heartbeats(5)
                .closed(u64::MAX),
            ScheduledStream::periodic(it(KcTag::Inc(1), 1), 1, 2, 80, |_| ())
                .with_heartbeats(7)
                .closed(u64::MAX),
            ScheduledStream::periodic(it(KcTag::Inc(1), 2), 2, 2, 80, |_| ())
                .with_heartbeats(7)
                .closed(u64::MAX),
        ]
    }

    /// The sequential specification's outputs over `streams`, sorted.
    fn spec_of<P>(prog: &P, streams: &[ScheduledStream<KcTag, ()>]) -> Vec<(u32, i64)>
    where
        P: DgsProgram<Tag = KcTag, Payload = (), Out = (u32, i64)>,
    {
        let mut want = run_sequential(prog, &sort_o(streams)).1;
        want.sort();
        want
    }

    /// A run's spliced outputs, sorted.
    fn sorted_outputs<S>(r: &DurableRecovery<S, (u32, i64)>) -> Vec<(u32, i64)> {
        let mut got: Vec<_> = r.outputs.iter().map(|(o, _)| *o).collect();
        got.sort();
        got
    }

    /// The orchestrator in a scratch directory (removed again before
    /// returning — the returned store serves its reads from memory).
    /// `crash_after: Some(k)` kills the partition owning stream 0 right
    /// after its k-th checkpoint (0-based) became durable: checkpoints
    /// `0..=k` survive, its outputs after that cut are lost and
    /// recovered by replay. Other partitions are independent and
    /// unaffected.
    fn recover<P>(
        prog: P,
        plan: &Plan<KcTag>,
        streams: Vec<ScheduledStream<KcTag, ()>>,
        crash_after: Option<u64>,
    ) -> DurableRecovery<P::State, P::Out>
    where
        P: DgsProgram<Tag = KcTag, Payload = ()> + Send + Sync + 'static,
        P::State: StateCodec + Send,
        P::Out: Send,
    {
        let dir = scratch("recovery");
        let faults = crash_after
            .map(|k| FaultPlan { crash_after_appends: k + 1, fault: Fault::CleanCrash, seed: 1 });
        let r = run_durable_with_recovery(Arc::new(prog), plan, streams, StreamId(0), &dir, faults)
            .expect("a clean crash always recovers");
        let _ = std::fs::remove_dir_all(&dir);
        r
    }

    #[test]
    fn no_crash_is_a_plain_run() {
        let r = recover(KeyCounter, &counter_plan(), workload(), None);
        assert!(!r.recovered);
        assert_eq!(r.store.len(), 6);
        assert_eq!(sorted_outputs(&r), spec_of(&KeyCounter, &workload()));
    }

    #[test]
    fn crash_at_each_checkpoint_recovers_exactly() {
        for k in 0..6 {
            let r = recover(KeyCounter, &counter_plan(), workload(), Some(k));
            assert!(r.recovered, "checkpoint {k} exists");
            // All 6 checkpoints are re-established across the two phases.
            assert_eq!(r.store.len(), 6, "crash at {k}");
            let want = spec_of(&KeyCounter, &workload());
            assert_eq!(sorted_outputs(&r), want, "crash at checkpoint {k}");
        }
    }

    #[test]
    fn crash_beyond_last_checkpoint_is_a_no_op() {
        let r = recover(KeyCounter, &counter_plan(), workload(), Some(99));
        assert!(!r.recovered);
    }

    /// A non-neutral initial state must be chain-forked across the
    /// partitions, not duplicated into each. Outputs alone cannot tell
    /// (a P-valid partition never *reads* another partition's keys), but
    /// checkpoints can: a partition's snapshots must never contain state
    /// belonging to another tree. (Regression: per-partition sub-runs
    /// used to seed every tree with the full `init()`, so partition 2's
    /// snapshots carried key 1's seed forever.)
    #[test]
    fn forest_partitions_share_a_non_neutral_initial_state() {
        use dgs_core::event::Event;
        use dgs_core::predicate::TagPredicate;
        use std::collections::BTreeMap;

        #[derive(Clone, Copy, Debug)]
        struct SeededCounter;
        impl dgs_core::program::DgsProgram for SeededCounter {
            type Tag = KcTag;
            type Payload = ();
            type State = BTreeMap<u32, i64>;
            type Out = (u32, i64);
            fn init(&self) -> Self::State {
                [(1, 100), (2, 200)].into()
            }
            fn depends(&self, a: &KcTag, b: &KcTag) -> bool {
                KeyCounter.depends(a, b)
            }
            fn update(
                &self,
                state: &mut Self::State,
                event: &Event<KcTag, ()>,
                out: &mut Vec<(u32, i64)>,
            ) {
                KeyCounter.update(state, event, out)
            }
            fn fork(
                &self,
                state: Self::State,
                l: &TagPredicate<KcTag>,
                r: &TagPredicate<KcTag>,
            ) -> (Self::State, Self::State) {
                KeyCounter.fork(state, l, r)
            }
            fn join(&self, l: Self::State, r: Self::State) -> Self::State {
                KeyCounter.join(l, r)
            }
        }

        let (plan, k1, k2) = forest_plan();
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
            ScheduledStream::periodic(it(KcTag::ReadReset(2), 3), 10, 10, 2, |_| ())
                .with_heartbeats(3)
                .closed(u64::MAX),
            ScheduledStream::periodic(it(KcTag::Inc(2), 4), 1, 1, 5, |_| ())
                .with_heartbeats(3)
                .closed(u64::MAX),
            ScheduledStream::periodic(it(KcTag::Inc(2), 5), 1, 1, 5, |_| ())
                .with_heartbeats(3)
                .closed(u64::MAX),
        ];
        let want = spec_of(&SeededCounter, &streams);
        let r = recover(SeededCounter, &plan, streams, None);
        // Each seed is read exactly once (first read-reset reports
        // 100/200 + the increments so far).
        assert_eq!(sorted_outputs(&r), want);
        // And the snapshots are partition-pure: no tree's checkpoints
        // ever hold the other tree's key.
        assert!(!r.store.of_root(k1).is_empty() && !r.store.of_root(k2).is_empty());
        for (snap, _) in r.store.of_root(k1) {
            assert!(!snap.contains_key(&2), "partition 1 leaked key 2: {snap:?}");
        }
        for (snap, _) in r.store.of_root(k2) {
            assert!(!snap.contains_key(&1), "partition 2 holds key 1's seed: {snap:?}");
        }
    }

    /// Forest recovery: crash the key-1 partition; the key-2 partition is
    /// an independent failure domain and keeps its outputs untouched. The
    /// spliced union still equals the no-failure sequential spec.
    #[test]
    fn forest_crash_recovers_only_the_owning_partition() {
        let (plan, r1, r2) = forest_plan();
        let streams = || {
            let mut s = workload();
            s.push(
                ScheduledStream::periodic(it(KcTag::ReadReset(2), 3), 40, 40, 4, |_| ())
                    .with_heartbeats(5)
                    .closed(u64::MAX),
            );
            s.push(
                ScheduledStream::periodic(it(KcTag::Inc(2), 4), 1, 3, 50, |_| ())
                    .with_heartbeats(9)
                    .closed(u64::MAX),
            );
            s.push(
                ScheduledStream::periodic(it(KcTag::Inc(2), 5), 2, 3, 50, |_| ())
                    .with_heartbeats(9)
                    .closed(u64::MAX),
            );
            s
        };
        let want = spec_of(&KeyCounter, &streams());
        for k in 0..6 {
            // Stream 0 is the key-1 partition's synchronizing stream.
            let r = recover(KeyCounter, &plan, streams(), Some(k));
            assert!(r.recovered, "crash at {k}");
            // 6 key-1 checkpoints re-established + 4 untouched key-2 ones.
            assert_eq!(r.store.of_root(r1).len(), 6, "crash at {k}");
            assert_eq!(r.store.of_root(r2).len(), 4, "crash at {k}");
            assert_eq!(sorted_outputs(&r), want, "crash at checkpoint {k}");
        }
    }
}
