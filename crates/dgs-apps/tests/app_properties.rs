//! Property tests over the evaluation applications: random workload
//! shapes through the full threaded runtime must always reproduce the
//! sequential specification, and each app's fork/join must satisfy the
//! consistency conditions on generated states.

use proptest::prelude::*;

use dgs_apps::fraud::{FdOut, FdState, FdWorkload, FraudDetection, MODULO};
use dgs_apps::page_view::{PageViewJoin, PvWorkload};
use dgs_apps::value_barrier::{ValueBarrier, VbWorkload};
use dgs_core::consistency::{check_c1, check_c3};
use dgs_core::event::{Event, StreamId};
use dgs_core::spec::{run_sequential, sort_o};
use dgs_core::predicate::TagPredicate;
use dgs_core::DgsProgram;
use dgs_runtime::job::{Backend, Job};

proptest! {
    // Thread-driver runs are comparatively expensive; keep case counts
    // modest but the shapes genuinely random.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn value_barrier_runtime_matches_spec(
        streams in 1u32..5,
        vpb in 5u64..60,
        barriers in 1u64..5,
        hb in 2u64..20,
    ) {
        let w = VbWorkload { value_streams: streams, values_per_barrier: vpb, barriers };
        let scheduled = w.scheduled_streams(hb);
        let expect = run_sequential(&ValueBarrier, &sort_o(&scheduled)).1;
        let result = Job::new(ValueBarrier, scheduled).with_plan(w.plan()).run(Backend::threads());
        let mut with_ts = result.outputs.clone();
        with_ts.sort_by_key(|(_, ts)| *ts);
        let got: Vec<i64> = with_ts.iter().map(|(o, _)| *o).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn fraud_runtime_matches_spec(
        streams in 1u32..4,
        tpr in 5u64..50,
        rules in 1u64..4,
        hb in 2u64..15,
    ) {
        let w = FdWorkload { txn_streams: streams, txns_per_rule: tpr, rules };
        let scheduled = w.scheduled_streams(hb);
        let expect = run_sequential(&FraudDetection, &sort_o(&scheduled)).1;
        let result = Job::new(FraudDetection, scheduled).with_plan(w.plan()).run(Backend::threads());
        let mut got: Vec<FdOut> = result.outputs.iter().map(|(o, _)| *o).collect();
        let mut want = expect;
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn page_view_runtime_matches_spec(
        pages in 1u32..3,
        per_page in 1u32..3,
        vpu in 5u64..40,
        updates in 1u64..4,
    ) {
        let w = PvWorkload {
            pages,
            view_streams_per_page: per_page,
            views_per_update: vpu,
            updates,
        };
        let scheduled = w.scheduled_streams(7);
        let expect = run_sequential(&PageViewJoin, &sort_o(&scheduled)).1;
        let result = Job::new(PageViewJoin, scheduled).with_plan(w.plan()).run(Backend::threads());
        let mut got: Vec<_> = result.outputs.iter().map(|(o, _)| *o).collect();
        let mut want = expect;
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fraud_c1_on_transactions(sum1 in -500i64..500, sum2 in -500i64..500, model in 0i64..MODULO, v in 0i64..5_000) {
        let s1 = FdState { sum: sum1, model };
        let s2 = FdState { sum: sum2, model };
        let e = Event::new(dgs_apps::fraud::FdTag::Txn, StreamId(0), 1, v);
        prop_assert!(check_c1(&FraudDetection, &s1, &s2, &e).is_ok());
    }

    #[test]
    fn fraud_c3_on_transaction_pairs(sum in -500i64..500, model in 0i64..MODULO, v1 in 0i64..5_000, v2 in 0i64..5_000) {
        let s = FdState { sum, model };
        let e1 = Event::new(dgs_apps::fraud::FdTag::Txn, StreamId(0), 1, v1);
        let e2 = Event::new(dgs_apps::fraud::FdTag::Txn, StreamId(1), 2, v2);
        prop_assert!(check_c3(&FraudDetection, &s, &e1, &e2).is_ok());
    }

    #[test]
    fn value_barrier_fork_routes_sum_to_barrier_side(sum in -1_000i64..1_000) {
        use dgs_apps::value_barrier::VbTag;
        let vals = TagPredicate::from_tags([VbTag::Value]);
        let bars = TagPredicate::from_tags([VbTag::Value, VbTag::Barrier]);
        // Barrier on the right: right receives the sum.
        let (l, r) = ValueBarrier.fork(sum, &vals, &bars);
        prop_assert_eq!((l, r), (0, sum));
        // Barrier on the left (or nowhere): left keeps it.
        let (l, r) = ValueBarrier.fork(sum, &bars, &vals);
        prop_assert_eq!((l, r), (sum, 0));
        let (l, r) = ValueBarrier.fork(sum, &vals, &vals);
        prop_assert_eq!((l, r), (sum, 0));
    }
}
