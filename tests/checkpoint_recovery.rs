//! Checkpoint + recovery (Appendix D.2): a snapshot taken when the root
//! joins its descendants is a consistent cut; killing the system after a
//! snapshot and replaying the input suffix from it reproduces exactly
//! the sequential specification's remaining outputs.
//!
//! The second half is the chaos matrix over the *durable* path: every
//! injectable [`Fault`] variant × single-root and forest workloads ×
//! seeds, each cell killing the partition that owns the synchronizing
//! stream mid-run and recovering it from the on-disk segment files
//! through a fresh store object. Acceptance per cell: the spliced output
//! multiset equals the sequential specification (zero events lost),
//! every checkpoint is re-established, and on forest plans no
//! partition's durable snapshots ever leak another partition's state.

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use common::scratch_dir as scratch;

use flumina::api::{
    run_durable_with_recovery, Backend, CheckpointStore as _, Fault, FaultPlan, Job,
};
use flumina::apps::fraud::FdWorkload;
use flumina::apps::page_view::PvTag;
use flumina::apps::sweep::{PvForestWorkload, SweepWorkload};
use flumina::apps::value_barrier::{ValueBarrier, VbWorkload};
use flumina::core::event::StreamId;
use flumina::core::spec::{run_sequential, sort_o};
use flumina::runtime::checkpoint::{suffix_after, MemoryStore};

#[test]
fn recovery_from_any_checkpoint_reproduces_the_spec() {
    let w = VbWorkload { value_streams: 3, values_per_barrier: 40, barriers: 6 };
    let streams = w.scheduled_streams(8);
    let barrier_stream = StreamId(w.value_streams);
    let spec = {
        let merged = sort_o(&streams);
        run_sequential(&ValueBarrier, &merged).1
    };

    // Run once with checkpointing enabled; every barrier (root join)
    // snapshots the joined state.
    let full = Job::new(ValueBarrier, streams.clone())
        .with_plan(w.plan())
        .checkpoint_roots(true)
        .run(Backend::threads());
    let mut store = MemoryStore::new();
    store.extend(full.checkpoints.clone()).expect("the memory store never fails");
    assert_eq!(store.len() as u64, w.barriers);
    let root = w.plan().root();
    assert_eq!(store.of_root(root).len() as u64, w.barriers);

    // Simulate a crash right after each checkpoint in turn: restart from
    // the snapshot on the input suffix and splice the outputs.
    for (k, (_, snapshot, cut_ts)) in full.checkpoints.iter().enumerate() {
        let suffix = suffix_after(&streams, *cut_ts, barrier_stream);
        let resumed = Job::new(ValueBarrier, suffix)
            .with_plan(w.plan())
            .with_initial_state(*snapshot)
            .run(Backend::threads());
        // Outputs before the cut (from the original run) + resumed ones.
        let mut combined: Vec<(i64, u64)> = full
            .outputs
            .iter()
            .filter(|(_, ts)| *ts <= *cut_ts)
            .cloned()
            .collect();
        combined.extend(resumed.outputs.iter().cloned());
        combined.sort_by_key(|(_, ts)| *ts);
        let got: Vec<i64> = combined.iter().map(|(o, _)| *o).collect();
        assert_eq!(got, spec, "recovery from checkpoint #{k} (cut ts {cut_ts})");
    }
}

#[test]
fn snapshot_state_is_consistent_cut() {
    // The k-th snapshot equals the sequential state after exactly the
    // events at or before the k-th barrier.
    let w = VbWorkload { value_streams: 2, values_per_barrier: 25, barriers: 4 };
    let streams = w.scheduled_streams(5);
    let merged = sort_o(&streams);
    let full = Job::new(ValueBarrier, streams)
        .with_plan(w.plan())
        .checkpoint_roots(true)
        .run(Backend::threads());
    for (_, snapshot, cut_ts) in &full.checkpoints {
        let prefix: Vec<_> = merged
            .iter()
            .filter(|e| {
                (e.ts, e.stream) <= (*cut_ts, StreamId(w.value_streams))
            })
            .cloned()
            .collect();
        let (state, _) = run_sequential(&ValueBarrier, &prefix);
        assert_eq!(*snapshot, state, "snapshot at barrier ts {cut_ts}");
    }
}

// ---------------------------------------------------------------------
// The durable chaos matrix.
// ---------------------------------------------------------------------

const ALL_FAULTS: [Fault; 4] =
    [Fault::CleanCrash, Fault::TornTail, Fault::TruncatedManifest, Fault::StaleManifest];

/// One chaos cell: run `W` with durable checkpoints, kill the partition
/// owning its synchronizing stream after `kill_after` appends under
/// `fault`, recover from the segment files alone, and hold the
/// acceptance bar — spliced multiset == spec, a genuinely replayed
/// suffix, and every checkpoint re-established across the crash.
fn chaos_cell<W: SweepWorkload>(
    workers: u32,
    per_window: u64,
    windows: u64,
    kill_after: u64,
    fault: Fault,
    seed: u64,
) {
    let w = W::for_scale(workers, per_window, windows);
    let hb = (per_window / 10).max(1);
    let plan = w.plan();
    let dir = scratch(W::NAME);
    let ctx = format!("{} under {fault:?} (seed {seed})", W::NAME);
    let r = run_durable_with_recovery(
        Arc::new(w.program()),
        &plan,
        w.streams(hb),
        w.sync_stream(),
        &dir,
        Some(FaultPlan { crash_after_appends: kill_after, fault, seed }),
    )
    .unwrap_or_else(|e| panic!("{ctx}: durable recovery failed: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(r.recovered, "{ctx}: the armed crash must fire");
    let crashed = r.crashed_root.expect("recovered runs name their crash site");
    assert!(
        r.events_replayed > 0,
        "{ctx}: killing after {kill_after} of {windows} checkpoints must leave a suffix"
    );
    // The durable prefix plus the replay phase re-establish every
    // checkpoint the no-failure run would have taken.
    assert_eq!(
        r.store.of_root(crashed).len() as u64,
        windows,
        "{ctx}: checkpoints across the crash"
    );
    // Theorem 3.5 across the crash: zero events lost.
    let want = w.job(hb).run(Backend::Spec).output_multiset();
    let mut got: Vec<String> = r.outputs.iter().map(|(o, _)| format!("{o:?}")).collect();
    got.sort_unstable();
    assert_eq!(got, want, "{ctx}: spliced outputs diverged from the spec");
}

/// Every fault variant × {single-root, forest, fraud} workloads × seeds.
/// (Seeds vary the torn-tail bytes, manifest cut offsets, and staleness
/// lag — each a different piece of on-disk wreckage to recover from.)
#[test]
fn chaos_matrix_recovers_every_fault_on_every_workload() {
    for fault in ALL_FAULTS {
        for seed in [1u64, 0xC0FFEE] {
            chaos_cell::<VbWorkload>(2, 20, 4, 2, fault, seed);
            chaos_cell::<PvForestWorkload>(3, 15, 4, 2, fault, seed);
            chaos_cell::<FdWorkload>(2, 20, 4, 2, fault, seed);
        }
    }
}

/// The crash can land on the very first or the very last checkpoint
/// append; both edges must still recover to the spec.
#[test]
fn chaos_handles_first_and_last_checkpoint_kills() {
    for fault in [Fault::CleanCrash, Fault::TornTail] {
        chaos_cell::<VbWorkload>(2, 20, 4, 1, fault, 5);
        chaos_cell::<PvForestWorkload>(2, 15, 4, 1, fault, 5);
    }
    // Killing on the final append leaves an empty synchronizing suffix
    // but the partition's trailing value events still need replaying —
    // handled by the generic helper only when a suffix exists, so pin
    // the last-append edge separately without the suffix assertion.
    let w = VbWorkload::for_scale(2, 20, 3);
    let plan = SweepWorkload::plan(&w);
    let dir = scratch("last-kill");
    let r = run_durable_with_recovery(
        Arc::new(SweepWorkload::program(&w)),
        &plan,
        SweepWorkload::streams(&w, 2),
        w.sync_stream(),
        &dir,
        Some(FaultPlan { crash_after_appends: 3, fault: Fault::TornTail, seed: 9 }),
    )
    .expect("durable recovery");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(r.recovered, "crash on the last append still fires");
    let want = w.job(2).run(Backend::Spec).output_multiset();
    let mut got: Vec<String> = r.outputs.iter().map(|(o, _)| format!("{o:?}")).collect();
    got.sort_unstable();
    assert_eq!(got, want, "last-append kill diverged from the spec");
}

/// Forest purity under chaos: partitions are independent failure
/// domains, so no partition's durable snapshots — neither the crashed
/// one's nor the survivors' — may ever contain a page belonging to
/// another tree.
#[test]
fn forest_recovery_keeps_partition_snapshots_pure() {
    for fault in ALL_FAULTS {
        let w = PvForestWorkload::for_scale(3, 15, 3);
        let hb = 2;
        let plan = w.plan();
        assert_eq!(plan.roots().len(), 3, "one tree per page");
        let dir = scratch("purity");
        let r = run_durable_with_recovery(
            Arc::new(w.program()),
            &plan,
            w.streams(hb),
            w.sync_stream(),
            &dir,
            Some(FaultPlan { crash_after_appends: 1, fault, seed: 0xBEEF }),
        )
        .unwrap_or_else(|e| panic!("{fault:?}: durable recovery failed: {e}"));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(r.recovered, "{fault:?}: crash must fire");
        for &root in plan.roots() {
            let own: BTreeSet<u32> = plan
                .worker(root)
                .itags
                .iter()
                .map(|it| match it.tag {
                    PvTag::Update(p) | PvTag::View(p) | PvTag::Get(p) => p,
                })
                .collect();
            let snaps = r.store.of_root(root);
            assert!(!snaps.is_empty(), "{fault:?}: partition {root:?} never checkpointed");
            for (snap, ts) in snaps {
                for page in snap.keys() {
                    assert!(
                        own.contains(page),
                        "{fault:?}: partition {root:?} leaked page {page} at ts {ts}: {snap:?}"
                    );
                }
            }
        }
    }
}
