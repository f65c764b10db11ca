//! Facade-level smoke test of the wall-clock benchmarking subsystem.
//!
//! Runs a miniature wall-clock sweep — the three paper workloads, two
//! worker counts, one unpaced and one paced rate, on both edge storages
//! — end to end through `dgs_bench::wallclock`, with spec checking on:
//! every run's output multiset must equal the sequential specification
//! (Theorem 3.5 must keep holding under the per-edge message plane and
//! the condvar termination protocol this subsystem leans on). Also checks that the
//! sweep's JSON serialization round-trips through the trajectory parser
//! and validator, i.e. what CI captures is what the schema promises.

use dgs_bench::recovery::{self, RecoverySpec};
use dgs_bench::report::{self, Json};
use dgs_bench::wallclock::{self, SweepSpec};
use flumina::apps::registry;

#[test]
fn miniature_wallclock_sweep_matches_sequential_spec() {
    let mut points = Vec::new();
    let mut n_workloads = 0;
    for threads in [1usize, 2, 4] {
        let spec = SweepSpec {
            workloads: registry::default_sweep_names(),
            workers: vec![1, 3],
            rates: vec![0, 500_000],
            per_window: 25,
            windows: 4,
            check_spec: true,
            metrics: true,
            executor_threads: Some(threads),
        };
        n_workloads = spec.workloads.len();
        points.extend(wallclock::sweep(&spec));
    }
    assert_eq!(
        points.len(),
        3 * n_workloads * 2 * 2,
        "executor threads × workloads × workers × rates"
    );

    for p in &points {
        // Theorem 3.5: output multiset == sequential spec, every run.
        assert_eq!(
            p.spec_ok,
            Some(true),
            "{} at mode={} workers={} rate={} diverged from the sequential spec",
            p.workload,
            p.channel_mode,
            p.workers,
            p.rate_eps
        );
        // The storage follows the effective shard count each cell records.
        let storage = if p.executor_threads == Some(1) { "per-edge" } else { "per-edge-ring" };
        assert_eq!(p.channel_mode, storage, "{} x{:?}", p.workload, p.executor_threads);
        assert!(p.events > 0 && p.elapsed_ns > 0 && p.throughput_eps > 0.0);
        assert!(
            p.worker_msgs.iter().sum::<u64>() as f64 >= p.events as f64,
            "every input event must be handled at least once"
        );
        // Paced runs carry the percentile summary; unpaced runs don't.
        if p.rate_eps > 0 {
            let lat = p.latency.expect("paced run must report latency");
            assert!(lat.samples == p.outputs && lat.p50 <= lat.p99);
        } else {
            assert!(p.latency.is_none());
        }
        // The always-on metrics plane rides along on every cell.
        assert!(p.max_queue_depth.is_some() && p.stalls.is_some());
    }

    // The sweep serializes into a valid, round-trippable trajectory.
    let doc = report::trajectory("2026-07-26", &points, &[], &[], &[]);
    assert_eq!(report::validate_trajectory(&doc), Ok(points.len()));
    let reparsed = Json::parse(&doc.render()).expect("emitted JSON must parse");
    assert_eq!(report::validate_trajectory(&reparsed), Ok(points.len()));
}

/// The recovery axis, end to end through the bench facade: a miniature
/// fault × workload grid kills the synchronizing partition mid-run,
/// recovers it from the on-disk segments, loses zero events, and lands
/// in the same trajectory document as the wall-clock points — which
/// must still validate with both kinds of entry present.
#[test]
fn miniature_recovery_sweep_loses_nothing_and_serializes() {
    let rspec = RecoverySpec {
        workloads: vec!["value-barrier", "page-view-forest"],
        workers: vec![2],
        per_window: 20,
        windows: 4,
        ..RecoverySpec::smoke()
    };
    let rec = recovery::recovery_sweep(&rspec);
    assert_eq!(rec.len(), rspec.faults.len() * 2, "faults × workloads");
    for p in &rec {
        assert!(p.recovered, "{} under {} must actually crash + recover", p.workload, p.fault);
        assert!(p.spec_ok, "{} under {} diverged from the spec", p.workload, p.fault);
        assert_eq!(p.events_lost, 0, "{} under {} lost outputs", p.workload, p.fault);
        assert!(p.events_replayed > 0, "recovery must replay a real suffix");
    }

    // One document, both axes: a tiny wallclock point next to the
    // recovery cells must pass the schema the CI gate enforces.
    let wspec = SweepSpec {
        workloads: vec!["value-barrier"],
        workers: vec![1],
        rates: vec![0],
        per_window: 20,
        windows: 2,
        check_spec: true,
        metrics: true,
        executor_threads: None,
    };
    let points = wallclock::sweep(&wspec);
    let doc = report::trajectory("2026-07-26", &points, &[], &rec, &[]);
    assert_eq!(report::validate_trajectory(&doc), Ok(points.len() + rec.len()));
    let reparsed = Json::parse(&doc.render()).expect("emitted JSON must parse");
    assert_eq!(report::validate_trajectory(&reparsed), Ok(points.len() + rec.len()));
}
