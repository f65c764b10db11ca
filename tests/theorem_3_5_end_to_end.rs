//! End-to-end correctness (Theorem 3.5): for random valid input
//! instances and *randomly generated* P-valid synchronization plans, the
//! implementation's output multiset equals `spec(sortO(u_1, …, u_k))` —
//! on the real-thread driver (nondeterministic interleavings) and on the
//! simulator (deterministic schedule).

mod common;

use flumina::api::{Backend, Job};
use flumina::core::depends::FnDependence;
use flumina::core::event::{StreamId, Timestamp};
use flumina::core::examples::{KcTag, KeyCounter};
use flumina::core::spec::{run_sequential, sort_o};
use flumina::core::tag::ITag;
use flumina::core::DgsProgram;
use flumina::plan::validity::check_valid_for_program;
use flumina::runtime::source::ScheduledStream;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random key-counter workload: a few keys, increments on several
/// streams, read-resets on per-key streams.
fn random_workload(seed: u64) -> (Vec<ITag<KcTag>>, Vec<ScheduledStream<KcTag, ()>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = rng.gen_range(1..=3u32);
    let mut itags = Vec::new();
    let mut streams = Vec::new();
    let mut sid = 0u32;
    for k in 0..keys {
        // 1-3 increment streams per key.
        for _ in 0..rng.gen_range(1..=3) {
            let itag = ITag::new(KcTag::Inc(k), StreamId(sid));
            sid += 1;
            let start = rng.gen_range(1..5);
            let period = rng.gen_range(1..4);
            let count = rng.gen_range(10..120);
            itags.push(itag);
            streams.push(
                ScheduledStream::periodic(itag, start, period, count, |_| ())
                    .with_heartbeats(rng.gen_range(3..20))
                    .closed(Timestamp::MAX),
            );
        }
        // One read-reset stream per key.
        let itag = ITag::new(KcTag::ReadReset(k), StreamId(sid));
        sid += 1;
        let window = rng.gen_range(20..60);
        itags.push(itag);
        streams.push(
            ScheduledStream::periodic(itag, window, window, rng.gen_range(2..6), |_| ())
                .with_heartbeats(rng.gen_range(3..20))
                .closed(Timestamp::MAX),
        );
    }
    (itags, streams)
}

#[test]
fn random_plans_random_workloads_match_spec_on_threads() {
    for seed in 0..24u64 {
        let (itags, streams) = random_workload(seed * 7 + 1);
        let dep = FnDependence::new(|a: &KcTag, b: &KcTag| KeyCounter.depends(a, b));
        let plan = common::random_valid_plan(&itags, &dep, seed * 13 + 5);
        let universe = itags.iter().cloned().collect();
        check_valid_for_program(&plan, &KeyCounter, &universe)
            .unwrap_or_else(|e| panic!("seed {seed}: invalid generated plan: {e:?}"));

        let expect = {
            let merged = sort_o(&streams);
            run_sequential(&KeyCounter, &merged).1
        };
        let result = Job::new(KeyCounter, streams).with_plan(plan.clone()).run(Backend::threads());
        let mut got: Vec<(u32, i64)> = result.outputs.iter().map(|(o, _)| *o).collect();
        let mut want = expect;
        got.sort();
        want.sort();
        assert_eq!(
            got, want,
            "seed {seed}: plan with {} workers diverged from the sequential spec\n{}",
            plan.len(),
            plan.render()
        );
    }
}

#[test]
fn deep_plans_behave_like_flat_ones() {
    // A single heavily dependent key forces joins through every level of
    // a deep plan.
    let (itags, streams) = {
        let mut itags = Vec::new();
        let mut streams = Vec::new();
        for s in 0..6u32 {
            let itag = ITag::new(KcTag::Inc(1), StreamId(s));
            itags.push(itag);
            streams.push(
                ScheduledStream::periodic(itag, 1 + s as u64, 3, 60, |_| ())
                    .with_heartbeats(10)
                    .closed(Timestamp::MAX),
            );
        }
        let itag = ITag::new(KcTag::ReadReset(1), StreamId(6));
        itags.push(itag);
        streams.push(
            ScheduledStream::periodic(itag, 40, 40, 4, |_| ())
                .with_heartbeats(10)
                .closed(Timestamp::MAX),
        );
        (itags, streams)
    };
    let dep = FnDependence::new(|a: &KcTag, b: &KcTag| KeyCounter.depends(a, b));
    let expect = {
        let merged = sort_o(&streams);
        run_sequential(&KeyCounter, &merged).1
    };
    for seed in 0..8u64 {
        let plan = common::random_valid_plan(&itags, &dep, seed + 100);
        let result =
            Job::new(KeyCounter, streams.clone()).with_plan(plan.clone()).run(Backend::threads());
        let mut got: Vec<(u32, i64)> = result.outputs.iter().map(|(o, _)| *o).collect();
        let mut want = expect.clone();
        got.sort();
        want.sort();
        assert_eq!(got, want, "seed {seed} plan:\n{}", plan.render());
    }
}
