//! Multiple state types through the full runtime: the [`PairSplit`]
//! program (Definition 2.1's type-converting forks/joins) executes on the
//! thread driver with a plan whose leaves hold *different state types*
//! (`OnlyA` on one side, `OnlyB` on the other), and still reproduces the
//! sequential specification.

use flumina::api::{Backend, Job};
use flumina::core::event::{StreamId, Timestamp};
use flumina::core::examples_multi::{PairSplit, PsState, PsTag};
use flumina::core::spec::{run_sequential, sort_o};
use flumina::core::tag::ITag;
use flumina::plan::plan::{Location, PlanBuilder};
use flumina::plan::validity::check_valid_for_program;
use flumina::runtime::source::ScheduledStream;

#[test]
fn pair_split_runs_with_heterogeneous_leaf_states() {
    // Plan: root owns Query; its children own the A and B streams. After
    // the root's initial fork, the left leaf holds an OnlyA state and the
    // right leaf an OnlyB state — different state types at runtime.
    let it = |tag, s| ITag::new(tag, StreamId(s));
    let mut b = PlanBuilder::new();
    let root = b.add([it(PsTag::Query, 2)], Location(0));
    let la = b.add([it(PsTag::A, 0)], Location(0));
    let lb = b.add([it(PsTag::B, 1)], Location(0));
    b.attach(root, la);
    b.attach(root, lb);
    let plan = b.build(root);
    let universe = [it(PsTag::A, 0), it(PsTag::B, 1), it(PsTag::Query, 2)].into();
    check_valid_for_program(&plan, &PairSplit, &universe).unwrap();

    let streams = vec![
        ScheduledStream::periodic(it(PsTag::A, 0), 1, 2, 60, |j| j as i64 % 7)
            .with_heartbeats(9)
            .closed(Timestamp::MAX),
        ScheduledStream::periodic(it(PsTag::B, 1), 2, 2, 60, |j| j as i64 % 5)
            .with_heartbeats(9)
            .closed(Timestamp::MAX),
        ScheduledStream::periodic(it(PsTag::Query, 2), 30, 30, 4, |_| 0)
            .with_heartbeats(9)
            .closed(Timestamp::MAX),
    ];
    let expect = run_sequential(&PairSplit, &sort_o(&streams)).1;
    let result = Job::new(PairSplit, streams).with_plan(plan).run(Backend::threads());
    let mut with_ts = result.outputs.clone();
    with_ts.sort_by_key(|(_, ts)| *ts);
    let got: Vec<i64> = with_ts.iter().map(|(o, _)| *o).collect();
    assert_eq!(got, expect, "type-converting forks through the real runtime");
}

#[test]
fn pair_split_checkpoint_state_is_the_reassembled_pair() {
    let it = |tag, s| ITag::new(tag, StreamId(s));
    let mut b = PlanBuilder::new();
    let root = b.add([it(PsTag::Query, 2)], Location(0));
    let la = b.add([it(PsTag::A, 0)], Location(0));
    let lb = b.add([it(PsTag::B, 1)], Location(0));
    b.attach(root, la);
    b.attach(root, lb);
    let plan = b.build(root);

    let streams = vec![
        ScheduledStream::periodic(it(PsTag::A, 0), 1, 1, 20, |_| 1)
            .with_heartbeats(5)
            .closed(Timestamp::MAX),
        ScheduledStream::periodic(it(PsTag::B, 1), 1, 1, 20, |_| 2)
            .with_heartbeats(5)
            .closed(Timestamp::MAX),
        ScheduledStream::periodic(it(PsTag::Query, 2), 25, 25, 1, |_| 0)
            .with_heartbeats(5)
            .closed(Timestamp::MAX),
    ];
    let result = Job::new(PairSplit, streams)
        .with_plan(plan)
        .checkpoint_roots(true)
        .run(Backend::threads());
    assert_eq!(result.checkpoints.len(), 1);
    // The snapshot is the joined pair: 20 A's of 1 and 20 B's of 2.
    assert_eq!(result.checkpoints[0].1, PsState::Both { a: 20, b: 40 });
    assert_eq!(result.outputs.len(), 1);
    assert_eq!(result.outputs[0].0, 60);
}
