//! Online reconfiguration (the paper's §6 "dynamic optimization" future
//! work): because a root-join checkpoint is a consistent snapshot, the
//! system can stop at any synchronization point, switch to a *different*
//! P-valid plan, seed its root with the snapshot, and continue on the
//! input suffix — outputs remain exactly the sequential specification.
//!
//! Under the forest contract this holds *per partition*: trees share no
//! dependence, so one partition can be replanned mid-stream (onto a
//! random valid plan, or collapsed to a sequential worker) while its
//! siblings keep running their original plans untouched — and no
//! checkpoint taken under either plan may ever contain another
//! partition's state.

mod common;

use std::collections::BTreeSet;

use flumina::api::{Backend, CheckpointStore as _, Job, ThreadRunOptions};
use flumina::apps::page_view::{PageViewJoin, PvTag};
use flumina::apps::sweep::{PvForestWorkload, SweepWorkload};
use flumina::apps::value_barrier::{ValueBarrier, VbWorkload};
use flumina::core::depends::FnDependence;
use flumina::core::event::StreamId;
use flumina::core::spec::{run_sequential, sort_o};
use flumina::core::DgsProgram;
use flumina::plan::plan::{sequential_plan, Location};
use flumina::runtime::checkpoint::{suffix_after, MemoryStore};

/// The elastic chaos matrix: zipf-skewed, ON/OFF-bursty page-view runs
/// across burst seeds and both replan directions, driven by the *live*
/// controller (no phase stitching). For every cell:
///
/// * the output multiset equals the sequential specification — state
///   migration under fire loses and duplicates nothing;
/// * every checkpoint stays partition-pure across the migration: a
///   snapshot tagged with a page tree's stable root holds only that
///   page, before and after its workers were rebuilt in fresh slots;
/// * every replan's stop-the-partition pause respects the bound implied
///   by the controller's hold timeout — the replan window p95 target.
#[test]
fn elastic_chaos_matrix_preserves_spec_and_purity() {
    use flumina::apps::sweep::PvZipfWorkload;
    use flumina::plan::plan::PlanBuilder;
    use flumina::runtime::{ElasticConfig, ReplanKind};
    use std::collections::BTreeMap;
    use std::time::Duration;

    // A wide heartbeat period: the controller's rate samples count every
    // sent item, so dense heartbeats would put a uniform floor under the
    // cold partitions and mask the zipf skew it must detect.
    let hb = 24;
    // Generous wall-clock ceiling per replan pause: one hold engagement
    // (bounded by the update period, ~2.4 ms here), quiesce, and the
    // local migration pump. The controller's own timeout is 250 ms; a
    // pause anywhere near it means the quiesce protocol regressed.
    let pause_bound = Duration::from_millis(250).as_nanos() as u64;

    for seed in [1u64, 7, 42] {
        let w = PvZipfWorkload { pages: 4, per_window: 12, windows: 6, zipf_s: 1.5, seed };
        let streams = w.streams(hb);
        let spec = {
            let merged = sort_o(&streams);
            run_sequential(&PageViewJoin, &merged).1
        };
        let mut spec_sorted: Vec<String> = spec.iter().map(|o| format!("{o:?}")).collect();
        spec_sorted.sort_unstable();

        // Direction 1 (join): the over-provisioned forest — every page
        // pre-forked — under a controller that collapses cold pages.
        // Direction 2 (fork): every page starts as a single sequential
        // worker and the hot page must split.
        let forked_plan = w.plan();
        let seq_forest = {
            let mut b = PlanBuilder::new();
            for page_streams in streams.chunks(3) {
                b.add(page_streams.iter().map(|s| s.itag), Location(0));
            }
            b.build_forest()
        };
        for (dir, plan, want_kind) in [
            ("join", &forked_plan, ReplanKind::Join),
            ("fork", &seq_forest, ReplanKind::Fork),
        ] {
            let result = Job::new(PageViewJoin, streams.clone())
                .with_plan(plan.clone())
                .checkpoint_roots(true)
                .run(Backend::Threads(ThreadRunOptions {
                    pace_ns_per_tick: Some(50_000),
                    elastic: Some(ElasticConfig {
                        interval: Duration::from_millis(2),
                        hot_ratio: 1.8,
                        cold_ratio: 0.6,
                        hold_ticks: 1,
                        min_events: 24,
                        max_replans: 8,
                    }),
                    ..Default::default()
                }));
            // Spec equivalence under live migration.
            let mut got: Vec<String> =
                result.outputs.iter().map(|(o, _)| format!("{o:?}")).collect();
            got.sort_unstable();
            assert_eq!(
                got, spec_sorted,
                "seed {seed} [{dir}]: elastic run diverged from the spec; replans: {:?}",
                result.replans
            );
            // The controller must actually act, and only in the
            // direction this cell's plan admits (pre-forked partitions
            // cannot fork further; sequential ones cannot join).
            assert!(
                !result.replans.is_empty(),
                "seed {seed} [{dir}]: the controller never replanned"
            );
            for ev in &result.replans {
                assert_eq!(ev.kind, want_kind, "seed {seed} [{dir}]: wrong direction");
                assert!(
                    ev.pause_ns < pause_bound,
                    "seed {seed} [{dir}]: replan paused {} ns (bound {pause_bound})",
                    ev.pause_ns
                );
            }
            // Checkpoint purity across the migration: group snapshots by
            // their stable partition root; each may hold only the pages
            // that root's original subtree owned.
            let own_pages: BTreeMap<_, BTreeSet<u32>> = plan
                .roots()
                .iter()
                .map(|&r| {
                    let pages = plan
                        .subtree_itags(r)
                        .iter()
                        .map(|it| it.tag.page())
                        .collect();
                    (r, pages)
                })
                .collect();
            assert!(!result.checkpoints.is_empty(), "seed {seed} [{dir}]: no checkpoints");
            for (root, snap, ts) in &result.checkpoints {
                let own = &own_pages[root];
                for page in snap.keys() {
                    assert!(
                        own.contains(page),
                        "seed {seed} [{dir}]: root {root:?} leaked page {page} at ts {ts}"
                    );
                }
            }
        }
    }
}

#[test]
fn switching_plans_mid_stream_preserves_semantics() {
    let w = VbWorkload { value_streams: 4, values_per_barrier: 50, barriers: 6 };
    let streams = w.scheduled_streams(10);
    let barrier_stream = StreamId(w.value_streams);
    let spec = {
        let merged = sort_o(&streams);
        run_sequential(&ValueBarrier, &merged).1
    };
    let dep = FnDependence::new(
        |a: &flumina::apps::value_barrier::VbTag, b: &flumina::apps::value_barrier::VbTag| {
            ValueBarrier.depends(a, b)
        },
    );

    // Phase 1: optimizer's plan with checkpointing.
    let phase1 = Job::new(ValueBarrier, streams.clone())
        .with_plan(w.plan())
        .checkpoint_roots(true)
        .run(Backend::threads());
    // Reconfigure at the third barrier.
    let (_, snapshot, cut_ts) = phase1.checkpoints[2];

    // Phase 2 candidates: a random plan, and even a sequential plan.
    let plans = [common::random_valid_plan(&w.itags(), &dep, 42),
        sequential_plan(w.itags(), Location(0)),
        w.plan()];
    for (i, plan2) in plans.iter().enumerate() {
        let suffix = suffix_after(&streams, cut_ts, barrier_stream);
        let phase2 = Job::new(ValueBarrier, suffix)
            .with_plan(plan2.clone())
            .with_initial_state(snapshot)
            .run(Backend::threads());
        let mut combined: Vec<(i64, u64)> = phase1
            .outputs
            .iter()
            .filter(|(_, ts)| *ts <= cut_ts)
            .cloned()
            .collect();
        combined.extend(phase2.outputs.iter().cloned());
        combined.sort_by_key(|(_, ts)| *ts);
        let got: Vec<i64> = combined.iter().map(|(o, _)| *o).collect();
        assert_eq!(got, spec, "replan onto candidate #{i}:\n{}", plan2.render());
    }
}

/// Forest-contract replanning: on a multi-root plan each tree is its
/// own deployment, so the partition owning the synchronizing stream is
/// stopped at a checkpoint and restarted *on a different plan* (random
/// valid, or collapsed sequential) while every sibling partition runs
/// its original plan to completion. The output union must equal the
/// sequential spec, and the checkpoints of both phases must stay
/// partition-pure — no snapshot may carry another tree's page.
#[test]
fn forest_replans_one_partition_without_touching_siblings() {
    let w = PvForestWorkload::for_scale(3, 20, 4);
    let hb = 3;
    let plan = w.plan();
    assert_eq!(plan.roots().len(), 3, "one tree per page");
    let streams = w.streams(hb);
    let spec = w.job(hb).run(Backend::Spec).output_multiset();
    let sync = w.sync_stream();
    let target = {
        let s = streams.iter().find(|s| s.itag.stream == sync).expect("sync stream exists");
        plan.root_of(plan.responsible_for(&s.itag).expect("owned"))
    };
    let dep = FnDependence::new(|a: &PvTag, b: &PvTag| PageViewJoin.depends(a, b));

    // Two replan candidates for the target partition: a random valid
    // plan over its tags, and the degenerate single-worker plan.
    for candidate in 0..2usize {
        let mut outputs: Vec<(_, u64)> = Vec::new();
        let mut store = MemoryStore::new();
        for &root in plan.roots() {
            let (sub_plan, _) = plan.partition_plan(root);
            let part: Vec<_> = streams
                .iter()
                .filter(|s| {
                    plan.responsible_for(&s.itag).is_some_and(|w2| plan.root_of(w2) == root)
                })
                .cloned()
                .collect();
            let full = Job::new(PageViewJoin, part.clone())
                .with_plan(sub_plan)
                .checkpoint_roots(true)
                .run(Backend::threads());
            if root != target {
                // Sibling partitions never notice the reconfiguration.
                store.extend(full.checkpoints.into_iter().map(|(_, s, t)| (root, s, t))).unwrap();
                outputs.extend(full.outputs);
                continue;
            }
            // Stop the target at its second checkpoint and switch plans.
            let (_, snapshot, cut_ts) = full.checkpoints[1].clone();
            store
                .extend(full.checkpoints.iter().take(2).map(|(_, s, t)| (root, s.clone(), *t)))
                .unwrap();
            outputs.extend(full.outputs.into_iter().filter(|(_, ts)| *ts <= cut_ts));
            let itags: Vec<_> = part.iter().map(|s| s.itag).collect();
            let plan2 = if candidate == 0 {
                common::random_valid_plan(&itags, &dep, 7)
            } else {
                sequential_plan(itags, Location(0))
            };
            let resumed = Job::new(PageViewJoin, suffix_after(&part, cut_ts, sync))
                .with_plan(plan2)
                .with_initial_state(snapshot)
                .checkpoint_roots(true)
                .run(Backend::threads());
            store.extend(resumed.checkpoints.into_iter().map(|(_, s, t)| (root, s, t))).unwrap();
            outputs.extend(resumed.outputs);
        }
        let mut got: Vec<String> = outputs.iter().map(|(o, _)| format!("{o:?}")).collect();
        got.sort_unstable();
        assert_eq!(got, spec, "candidate #{candidate}: replanned forest diverged");

        // Checkpoint purity across phases and plans: each partition's
        // snapshots hold only its own page.
        for &root in plan.roots() {
            let own: BTreeSet<u32> = plan
                .worker(root)
                .itags
                .iter()
                .map(|it| match it.tag {
                    PvTag::Update(p) | PvTag::View(p) | PvTag::Get(p) => p,
                })
                .collect();
            assert!(!store.of_root(root).is_empty(), "partition {root:?} checkpointed");
            for (snap, ts) in store.of_root(root) {
                for page in snap.keys() {
                    assert!(
                        own.contains(page),
                        "candidate #{candidate}: partition {root:?} leaked page {page} at ts {ts}"
                    );
                }
            }
        }
    }
}
