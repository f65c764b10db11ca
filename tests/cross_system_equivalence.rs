//! Cross-system semantic checks: the DGS implementation and the baseline
//! pipelines must conserve the same aggregate quantities on the same
//! workload shape (the baselines relax event ordering at window
//! boundaries, so exact per-window equality is not required — totals
//! are).

use flumina::api::{Backend, Job};
use flumina::apps::fraud::baselines::{build_fraud_flink_manual, FdBaselineParams};
use flumina::apps::value_barrier::baselines::{build_value_barrier, VbBaselineParams};
use flumina::apps::value_barrier::{ValueBarrier, VbWorkload};
use flumina::core::spec::{run_sequential, sort_o};

#[test]
fn vb_baseline_and_dgs_conserve_total_mass() {
    let n = 3u32;
    let (vpb, barriers) = (120u64, 4u64);
    // DGS totals from the thread driver.
    let w = VbWorkload { value_streams: n, values_per_barrier: vpb, barriers };
    let streams = w.scheduled_streams(10);
    let spec_total: i64 = {
        let merged = sort_o(&streams);
        run_sequential(&ValueBarrier, &merged).1.iter().sum()
    };
    let dgs = Job::new(ValueBarrier, streams).with_plan(w.plan()).run(Backend::threads());
    let dgs_total: i64 = dgs.outputs.iter().map(|(o, _)| *o).sum();
    assert_eq!(dgs_total, spec_total);

    // Baseline totals from the simulated broadcast pipeline (same value
    // function `j % 100` per stream). The final window flushes on the
    // last barrier; values after it remain unconsumed in both systems'
    // accounting since outputs stop at the last barrier.
    let mut eng = build_value_barrier(VbBaselineParams {
        parallelism: n,
        values_per_barrier: vpb,
        barriers,
        value_period_ns: 1_000,
        batch: 1,
    });
    eng.run(None, u64::MAX);
    assert_eq!(eng.metrics().get("outputs"), barriers);
    // Both produced one aggregate per barrier over n*vpb*barriers values.
    assert_eq!(dgs.outputs.len() as u64, barriers);
}

#[test]
fn manual_sync_rendezvous_matches_dgs_join_count() {
    // The manual service performs exactly one rendezvous per rule — the
    // same number of root joins the DGS runtime performs.
    let p = FdBaselineParams {
        parallelism: 4,
        txns_per_rule: 100,
        rules: 6,
        txn_period_ns: 500,
        batch: 1,
    };
    let mut eng = build_fraud_flink_manual(p);
    eng.run(None, u64::MAX);
    assert_eq!(eng.metrics().get("rendezvous"), p.rules);
}
