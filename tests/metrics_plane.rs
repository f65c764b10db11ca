//! Facade-level test of the always-on metrics plane: a threaded `Job`
//! run carries a `MetricsSnapshot` whose counters reconcile with the
//! report, whose Prometheus rendering passes the exposition validator
//! with every required family present, and whose trace rings dump as
//! JSON. Also pins the end-to-end determinism property: rendering a
//! quiesced snapshot is a pure function, so two renders are
//! byte-identical.

use flumina::api::{Backend, ThreadRunOptions, REQUIRED_FAMILIES};
use flumina::apps::registry::{self, WorkloadVisitor};
use flumina::apps::sweep::SweepWorkload;
use flumina::metrics::validate_exposition;

/// Run one registry workload on threads and return its stamped snapshot
/// plus the output count.
struct Snap {
    n: u32,
}

impl WorkloadVisitor for Snap {
    type Out = (flumina::metrics::MetricsSnapshot, usize, u64);

    fn visit<W: SweepWorkload>(&mut self) -> Self::Out {
        let w = W::for_scale(self.n, 50, 4);
        let report = w.job(5).run(Backend::threads());
        let mut snap = report.metrics.expect("threaded runs carry metrics");
        snap.info.workload = W::NAME.to_string();
        (snap, report.outputs.len(), w.event_count())
    }
}

#[test]
fn job_snapshot_renders_valid_exposition_with_required_families() {
    let (snap, outputs, events) =
        registry::visit("value-barrier", &mut Snap { n: 3 }).expect("known workload");
    // Counters reconcile with the report: every output was counted live,
    // every input event was fed and handled.
    assert_eq!(snap.outputs, outputs as u64);
    // Feeders count every item sent, heartbeats included; `event_count`
    // excludes heartbeats — so fed ≥ events, never less.
    assert!(snap.streams.iter().map(|s| s.events).sum::<u64>() >= events);
    assert!(snap.total_msgs() >= events, "each event is at least one message");
    let text = snap.render_prometheus();
    let families = validate_exposition(&text)
        .unwrap_or_else(|e| panic!("exposition must validate: {e}\n{text}"));
    for required in REQUIRED_FAMILIES {
        assert!(families.iter().any(|f| f == required), "missing family {required}");
    }
    // The workload label survives rendering (escaped form included).
    assert!(text.contains("workload=\"value-barrier\""), "{text}");
    // Quiesced snapshots render deterministically, byte for byte.
    assert_eq!(text, snap.render_prometheus());
    // Trace rings dump as a JSON array with one object per worker.
    let traces = snap.trace_json();
    assert!(traces.starts_with('[') && traces.ends_with(']'));
    assert_eq!(traces.matches("\"worker\":").count(), snap.workers.len());
    assert!(traces.contains("\"kind\":\"join\""), "root joins must be traced: {traces}");
}

/// The forest workload exposes per-partition families: every partition
/// id appears in the aggregated queue-depth gauge.
#[test]
fn forest_run_exposes_per_partition_gauges() {
    let (snap, _, _) =
        registry::visit("page-view-forest", &mut Snap { n: 4 }).expect("known workload");
    assert!(snap.info.partitions > 1, "forest workload must be multi-root");
    let text = snap.render_prometheus();
    for p in 0..snap.info.partitions {
        assert!(
            text.contains(&format!("flumina_partition_queue_depth{{partition=\"{p}\"}}")),
            "partition {p} missing from exposition:\n{text}"
        );
    }
}

/// Disabling metrics through the same front door yields a report with
/// no snapshot — the metrics-off arm of an overhead comparison.
#[test]
fn metrics_can_be_disabled_through_the_job_front_door() {
    struct Off;
    impl WorkloadVisitor for Off {
        type Out = bool;
        fn visit<W: SweepWorkload>(&mut self) -> bool {
            let w = W::for_scale(2, 20, 2);
            let report = w.job(5).run(Backend::Threads(ThreadRunOptions {
                metrics: false,
                ..Default::default()
            }));
            report.metrics.is_none()
        }
    }
    assert!(registry::visit("value-barrier", &mut Off).unwrap());
}
