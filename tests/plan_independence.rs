//! Correctness is independent of the chosen plan (§3: "correctness is
//! independent of which synchronization plan is chosen — as long as it
//! is P-valid"): the same workload through the optimizer's plan, a fully
//! sequential plan, and several random plans produces the same output
//! multiset. Also checks the simulator driver agrees with the thread
//! driver.

mod common;

use std::sync::Arc;

use flumina::api::{Backend, Job};
use flumina::apps::value_barrier::{ValueBarrier, VbWorkload};
use flumina::core::depends::FnDependence;
use flumina::core::spec::{run_sequential, sort_o};
use flumina::core::DgsProgram;
use flumina::plan::plan::{sequential_plan, Location, PlanBuilder};
use flumina::plan::validity::check_valid_for_program;
use flumina::runtime::sim_driver::{build_sim, SimConfig};
use flumina::sim::{LinkSpec, Topology};

#[test]
fn all_valid_plans_agree_with_the_spec() {
    let w = VbWorkload { value_streams: 4, values_per_barrier: 60, barriers: 4 };
    let streams = w.scheduled_streams(10);
    let expect = {
        let merged = sort_o(&streams);
        run_sequential(&ValueBarrier, &merged).1
    };
    let dep = FnDependence::new(
        |a: &flumina::apps::value_barrier::VbTag, b: &flumina::apps::value_barrier::VbTag| {
            ValueBarrier.depends(a, b)
        },
    );
    let universe = w.itags().into_iter().collect();

    let mut plans = vec![
        w.plan(),
        sequential_plan(w.itags(), Location(0)),
    ];
    for seed in 0..6 {
        plans.push(common::random_valid_plan(&w.itags(), &dep, seed));
    }
    for (i, plan) in plans.iter().enumerate() {
        check_valid_for_program(plan, &ValueBarrier, &universe).unwrap();
        let result =
            Job::new(ValueBarrier, streams.clone()).with_plan(plan.clone()).run(Backend::threads());
        // Barrier outputs are totally ordered: sort by trigger timestamp.
        let mut with_ts = result.outputs.clone();
        with_ts.sort_by_key(|(_, ts)| *ts);
        let got: Vec<i64> = with_ts.iter().map(|(o, _)| *o).collect();
        assert_eq!(got, expect, "plan #{i} ({} workers):\n{}", plan.len(), plan.render());
    }
}

/// The converse of the test above: a plan that is not P-valid is refused
/// at the front door. Values and barriers under two unrelated roots
/// violate V2 (barriers depend on every value); run anyway, such a
/// forest completes with wrong window sums (`0` at every barrier, whose
/// root never sees a value).
#[test]
#[should_panic(expected = "UnrelatedDependent")]
fn with_plan_rejects_a_plan_that_is_not_p_valid() {
    let w = VbWorkload { value_streams: 4, values_per_barrier: 60, barriers: 4 };
    let (barrier, values) = w.itags().split_last().map(|(b, v)| (*b, v.to_vec())).unwrap();
    let mut b = PlanBuilder::new();
    b.add(values, Location(0));
    b.add([barrier], Location(1));
    let _ = Job::new(ValueBarrier, w.scheduled_streams(10)).with_plan(b.build_forest());
}

#[test]
fn sim_driver_agrees_with_thread_driver() {
    let w = VbWorkload { value_streams: 3, values_per_barrier: 100, barriers: 5 };
    // Thread driver outputs.
    let threads =
        Job::new(ValueBarrier, w.scheduled_streams(20)).with_plan(w.plan()).run(Backend::threads());
    let mut t_out = threads.outputs.clone();
    t_out.sort_by_key(|(_, ts)| *ts);
    let t_vals: Vec<i64> = t_out.iter().map(|(o, _)| *o).collect();

    // Simulator outputs: the paced workload differs in timestamps but
    // window *totals* must be conserved and counts identical.
    let cfg = SimConfig::new(Topology::uniform(w.value_streams + 1, LinkSpec::default()));
    let (mut eng, handles) =
        build_sim(Arc::new(ValueBarrier), &w.plan(), w.paced_sources(1_000, 10), cfg);
    eng.run(None, u64::MAX);
    let s_out = handles.outputs.borrow();
    assert_eq!(s_out.len(), t_vals.len(), "one output per barrier on both drivers");
    let t_total: i64 = t_vals.iter().sum();
    let s_total: i64 = s_out.iter().map(|(o, _)| *o).sum();
    assert_eq!(t_total, s_total, "total mass conserved across drivers");
}
