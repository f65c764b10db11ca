//! Workspace smoke test: the `flumina` facade end to end.
//!
//! One DGS program (the paper's running key-counter example) goes through
//! the whole pipeline using only facade paths: build the workload, let the
//! Appendix-B optimizer pick a synchronization plan, verify the plan is
//! P-valid, run it on real threads through `Job::with_plan`, and check
//! the output multiset against the sequential specification
//! (Definition 3.4).

use std::collections::BTreeSet;

use flumina::api::{Backend, Job};
use flumina::core::event::{StreamId, Timestamp};
use flumina::core::examples::{KcTag, KeyCounter};
use flumina::core::spec::{run_sequential, sort_o};
use flumina::core::tag::ITag;
use flumina::plan::optimizer::{CommMinOptimizer, ITagInfo, Optimizer};
use flumina::plan::plan::Location;
use flumina::plan::validity::check_valid_for_program;
use flumina::runtime::source::ScheduledStream;

#[test]
fn facade_pipeline_program_plan_threads_spec() {
    // 1. Program + workload: two parallelizable increment streams for
    //    key 1, one for key 2, plus a read-reset stream per key.
    let program = KeyCounter;
    let itag = |tag, s| ITag::new(tag, StreamId(s));
    let streams = vec![
        ScheduledStream::periodic(itag(KcTag::Inc(1), 0), 1, 2, 400, |_| ())
            .with_heartbeats(20)
            .closed(Timestamp::MAX),
        ScheduledStream::periodic(itag(KcTag::Inc(1), 1), 2, 2, 400, |_| ())
            .with_heartbeats(20)
            .closed(Timestamp::MAX),
        ScheduledStream::periodic(itag(KcTag::Inc(2), 2), 1, 3, 240, |_| ())
            .with_heartbeats(20)
            .closed(Timestamp::MAX),
        ScheduledStream::periodic(itag(KcTag::ReadReset(1), 3), 90, 90, 8, |_| ())
            .with_heartbeats(20)
            .closed(Timestamp::MAX),
        ScheduledStream::periodic(itag(KcTag::ReadReset(2), 4), 120, 120, 5, |_| ())
            .with_heartbeats(20)
            .closed(Timestamp::MAX),
    ];

    // 2. Plan: communication-minimizing optimizer over the stream rates.
    let infos = vec![
        ITagInfo::new(itag(KcTag::Inc(1), 0), 200.0, Location(0)),
        ITagInfo::new(itag(KcTag::Inc(1), 1), 200.0, Location(1)),
        ITagInfo::new(itag(KcTag::Inc(2), 2), 80.0, Location(2)),
        ITagInfo::new(itag(KcTag::ReadReset(1), 3), 4.0, Location(0)),
        ITagInfo::new(itag(KcTag::ReadReset(2), 4), 2.0, Location(2)),
    ];
    let dep = flumina::core::depends::FnDependence::new(|a: &KcTag, b: &KcTag| {
        flumina::core::DgsProgram::depends(&KeyCounter, a, b)
    });
    let plan = CommMinOptimizer.plan(&infos, &dep);

    // 3. The plan must be P-valid (V1 typing + V2 dependence coverage).
    let universe: BTreeSet<_> = infos.iter().map(|i| i.itag).collect();
    check_valid_for_program(&plan, &program, &universe)
        .unwrap_or_else(|e| panic!("optimizer produced an invalid plan: {e:?}\n{}", plan.render()));
    assert!(plan.len() > 1, "rate-skewed workload should parallelize, got:\n{}", plan.render());

    // 4. Sequential specification on the O-sorted merge of all streams.
    let expect = run_sequential(&program, &sort_o(&streams)).1;
    assert!(!expect.is_empty(), "workload must produce outputs for the check to mean anything");

    // 5. Real-thread execution must reproduce the spec as a multiset.
    let result = Job::new(program, streams).with_plan(plan).run(Backend::threads());
    let mut got: Vec<(u32, i64)> = result.outputs.iter().map(|(o, _)| *o).collect();
    let mut want = expect;
    got.sort();
    want.sort();
    assert_eq!(got, want, "threaded outputs diverge from sequential semantics");
}
