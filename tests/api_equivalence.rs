//! The unified `flumina::api::Job` front door derives *exactly* the
//! hand-built plan, not a lookalike: for every application workload, the
//! plan a `Job` derives from the streams alone is structurally identical
//! to the plan the app builds by hand (`ITagInfo`s + `CommMinOptimizer`)
//! — the plan the paper figures run. Job-driven runs produce the
//! sequential specification's output multiset on both edge storages
//! (1/2/4 shards), on the simulator backend, and on the
//! durable-checkpoint column (threads + `checkpoint_roots`, persisted
//! with `RunReport::persist_checkpoints` and reopened through a fresh
//! store).
//!
//! Plus a proptest pinning the rate derivation itself: the per-tag
//! rates a `Job` computes from periodic schedules are proportional to
//! the schedules' event counts (the only thing the optimizer consumes),
//! and locations default to the stream id with overrides winning.

mod common;

use proptest::prelude::*;

use common::scratch_dir;

use flumina::api::{Backend, CheckpointStore as _, DurableStore, Job, ThreadRunOptions};
use flumina::apps::fraud::FdWorkload;
use flumina::apps::outlier::OdWorkload;
use flumina::apps::page_view::PvWorkload;
use flumina::apps::smart_home::ShWorkload;
use flumina::apps::sweep::{PvForestWorkload, SweepWorkload};
use flumina::apps::value_barrier::VbWorkload;
use flumina::core::event::{StreamId, Timestamp};
use flumina::core::examples::{KcTag, KeyCounter};
use flumina::core::program::DgsProgram;
use flumina::core::tag::ITag;
use flumina::plan::plan::Location;
use flumina::runtime::source::ScheduledStream;

/// The acceptance property, per workload: identical plans, and Job ==
/// spec output multisets across both edge storages plus the simulator
/// backend.
fn check_equivalence<W: SweepWorkload>(workers: u32, per_window: u64, windows: u64) {
    let w = W::for_scale(workers, per_window, windows);
    let hb = (per_window / 10).max(1);
    let job = w.job(hb);

    // 1. Plan equivalence: derived-from-streams == hand-built ITagInfos.
    let manual_plan = w.plan();
    assert_eq!(
        job.plan(),
        manual_plan,
        "{}: Job must derive exactly the manual plan\nderived:\n{}\nmanual:\n{}",
        W::NAME,
        job.plan().render(),
        manual_plan.render()
    );

    // 2. Output equivalence on threads, on both edge storages: mutex
    //    deques on one shard, rings above.
    let spec = job.run(Backend::Spec).output_multiset();
    for threads in [1usize, 2, 4] {
        // A plan narrower than `threads` clamps the shard count.
        let storage =
            if threads.min(manual_plan.len()) == 1 { "per-edge" } else { "per-edge-ring" };
        let report = job.run(Backend::Threads(ThreadRunOptions {
            executor_threads: Some(threads),
            record_timing: true,
            ..Default::default()
        }));
        assert_eq!(report.timing.as_ref().expect("timing requested").channel_mode, storage);
        assert_eq!(
            report.output_multiset(),
            spec,
            "{} [{storage}, {threads} shard(s)]: Job thread backend diverged from spec",
            W::NAME
        );
    }

    // 3. The simulator backend replays the same streams to the same
    //    multiset.
    let sim = job.run(Backend::Sim);
    assert_eq!(sim.output_multiset(), spec, "{}: Job sim backend diverged", W::NAME);

    // 4. The durable column: the same job taking root-join checkpoints
    //    and persisting them into a DurableStore is still multiset-equal
    //    to the spec, and a fresh reopen of the directory sees exactly
    //    the checkpoints the run took — in particular, the spec leg of
    //    `verify_on` cannot leak its final-state snapshot into the store
    //    (it never meets a directory: only `v.run` is persisted).
    let dir = scratch_dir(W::NAME);
    let mut v = w
        .job(hb)
        .checkpoint_roots(true)
        .verify_on(Backend::threads())
        .unwrap_or_else(|e| panic!("{} [durable]: diverged from spec: {e}", W::NAME));
    assert_eq!(v.run.output_multiset(), spec, "{} [durable]: wrong multiset", W::NAME);
    assert!(
        !v.run.checkpoints.is_empty(),
        "{}: a durable job must take root-join checkpoints",
        W::NAME
    );
    let persisted = v
        .run
        .persist_checkpoints(&dir)
        .unwrap_or_else(|e| panic!("{} [durable]: persisting failed: {e}", W::NAME));
    assert_eq!(persisted, v.run.checkpoints.len());
    let store = DurableStore::<<W::Prog as DgsProgram>::State>::open(&dir).unwrap_or_else(|e| {
        panic!("{} [durable]: fresh reopen failed: {e}", W::NAME)
    });
    assert_eq!(
        store.len(),
        v.run.checkpoints.len(),
        "{}: disk must hold the run's checkpoints, no more (spec pollution) and no less",
        W::NAME
    );
    assert!(!store.open_report().manifest_fallback, "{}: manifest must seal", W::NAME);
    assert_eq!(store.open_report().repaired_bytes, 0, "{}: clean run, clean tail", W::NAME);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn value_barrier_job_equals_manual_path() {
    check_equivalence::<VbWorkload>(3, 30, 3);
}

#[test]
fn page_view_job_equals_manual_path() {
    check_equivalence::<PvWorkload>(4, 30, 3);
}

#[test]
fn fraud_detection_job_equals_manual_path() {
    check_equivalence::<FdWorkload>(3, 30, 3);
}

#[test]
fn page_view_forest_job_equals_manual_path() {
    check_equivalence::<PvForestWorkload>(3, 25, 3);
}

#[test]
fn outlier_job_equals_manual_path() {
    check_equivalence::<OdWorkload>(3, 40, 2);
}

#[test]
fn smart_home_job_equals_manual_path() {
    check_equivalence::<ShWorkload>(3, 6, 3);
}

/// The README quickstart's workload, as one more pinned case: the
/// forest (one tree per key) the optimizer derives from hand-assembled
/// infos is exactly what the Job derives from the streams.
#[test]
fn quickstart_workload_derives_the_per_key_forest() {
    let itag = |tag, s| ITag::new(tag, StreamId(s));
    let streams = vec![
        ScheduledStream::periodic(itag(KcTag::Inc(1), 0), 1, 2, 500, |_| ())
            .with_heartbeats(25)
            .closed(Timestamp::MAX),
        ScheduledStream::periodic(itag(KcTag::Inc(1), 1), 2, 2, 500, |_| ())
            .with_heartbeats(25)
            .closed(Timestamp::MAX),
        ScheduledStream::periodic(itag(KcTag::Inc(2), 2), 1, 3, 300, |_| ())
            .with_heartbeats(25)
            .closed(Timestamp::MAX),
        ScheduledStream::periodic(itag(KcTag::ReadReset(1), 3), 100, 100, 10, |_| ())
            .with_heartbeats(25)
            .closed(Timestamp::MAX),
        ScheduledStream::periodic(itag(KcTag::ReadReset(2), 4), 150, 150, 6, |_| ())
            .with_heartbeats(25)
            .closed(Timestamp::MAX),
    ];
    let job = Job::new(KeyCounter, streams);
    let plan = job.plan();
    // One tree per key; key 1's increments parallelized across two
    // leaves under the r(1) root; key 2 collapses to a single leaf.
    assert_eq!(plan.roots().len(), 2, "per-key forest:\n{}", plan.render());
    let r1 = plan.responsible_for(&itag(KcTag::ReadReset(1), 3)).unwrap();
    assert!(plan.roots().contains(&r1));
    assert_eq!(plan.worker(r1).children.len(), 2);
    let k2 = plan.responsible_for(&itag(KcTag::ReadReset(2), 4)).unwrap();
    assert!(plan.worker(k2).is_leaf() && plan.roots().contains(&k2));
    // And it runs: threads == sim == spec.
    let verified = job.verify_against_spec().expect("Theorem 3.5");
    let sim = job.run(Backend::Sim);
    assert_eq!(sim.output_multiset(), verified.spec.output_multiset());
}

// ---------------------------------------------------------------------
// Rate/location derivation properties.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Sched {
    start: u64,
    period: u64,
    count: u64,
}

fn arb_streams() -> impl Strategy<Value = Vec<Sched>> {
    prop::collection::vec(
        (1u64..20, 1u64..10, 1u64..60).prop_map(|(start, period, count)| Sched {
            start,
            period,
            count,
        }),
        2..6,
    )
}

/// Tiny program over u32 tags so derived infos exist for any stream set
/// (the dependence relation is irrelevant to rate derivation).
#[derive(Clone, Copy, Debug)]
struct AnyTags;
impl flumina::core::DgsProgram for AnyTags {
    type Tag = u32;
    type Payload = ();
    type State = ();
    type Out = ();
    fn init(&self) {}
    fn depends(&self, _: &u32, _: &u32) -> bool {
        true
    }
    fn update(
        &self,
        _: &mut (),
        _: &flumina::core::event::Event<u32, ()>,
        _: &mut Vec<()>,
    ) {
    }
    fn fork(
        &self,
        _: (),
        _: &flumina::core::predicate::TagPredicate<u32>,
        _: &flumina::core::predicate::TagPredicate<u32>,
    ) -> ((), ()) {
        ((), ())
    }
    fn join(&self, _: (), _: ()) {}
}

proptest! {
    /// Derived rates are the schedule-implied ones: proportional to each
    /// stream's event count over the shared horizon, so the relative
    /// order and ratios the optimizer consumes match the schedules.
    #[test]
    fn derived_rates_match_schedule_implied_rates(scheds in arb_streams()) {
        let streams: Vec<ScheduledStream<u32, ()>> = scheds
            .iter()
            .enumerate()
            .map(|(i, s)| {
                ScheduledStream::periodic(
                    ITag::new(i as u32, StreamId(i as u32)),
                    s.start,
                    s.period,
                    s.count,
                    |_| (),
                )
            })
            .collect();
        let horizon: u64 = streams
            .iter()
            .flat_map(|s| s.events().map(|e| e.ts))
            .max()
            .expect("counts are nonzero")
            .max(1);
        let infos = Job::new(AnyTags, streams).derived_infos();
        for (i, (info, s)) in infos.iter().zip(&scheds).enumerate() {
            // Exact schedule-implied value: events per horizon tick.
            let implied = s.count as f64 / horizon as f64;
            prop_assert!(
                (info.rate - implied).abs() < 1e-12,
                "stream {i}: derived {} vs implied {implied}",
                info.rate
            );
            // Location defaults to the stream id's node.
            prop_assert_eq!(info.location, Location(i as u32));
        }
        // Proportionality across streams: rate_i * count_j == rate_j * count_i.
        for i in 0..infos.len() {
            for j in 0..infos.len() {
                let lhs = infos[i].rate * scheds[j].count as f64;
                let rhs = infos[j].rate * scheds[i].count as f64;
                prop_assert!((lhs - rhs).abs() < 1e-9, "ratios must match counts");
            }
        }
    }

    /// Overrides replace exactly the overridden entries.
    #[test]
    fn overrides_take_precedence(scheds in arb_streams(), rate_x in 1u32..500, loc in 0u32..30) {
        let rate = rate_x as f64; // the vendored proptest has no f64 ranges
        let streams: Vec<ScheduledStream<u32, ()>> = scheds
            .iter()
            .enumerate()
            .map(|(i, s)| {
                ScheduledStream::periodic(
                    ITag::new(i as u32, StreamId(i as u32)),
                    s.start,
                    s.period,
                    s.count,
                    |_| (),
                )
            })
            .collect();
        let target = ITag::new(0u32, StreamId(0));
        let job = Job::new(AnyTags, streams)
            .rate(target, rate)
            .place(target, Location(loc));
        let infos = job.derived_infos();
        prop_assert_eq!(infos[0].rate, rate);
        prop_assert_eq!(infos[0].location, Location(loc));
        // Others untouched.
        for (i, info) in infos.iter().enumerate().skip(1) {
            prop_assert_eq!(info.location, Location(i as u32));
        }
    }
}
