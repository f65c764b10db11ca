//! One measurement function per experimental configuration.
//!
//! All runs execute on the deterministic cluster simulator with the same
//! cost model (1 µs per `update`, default links), so relative shapes are
//! directly comparable across systems — the paper's own ground rule
//! (§4, "we focus on relative speedups on the same system").

use std::sync::Arc;

use dgs_apps::fraud::baselines::{
    build_fraud_flink_manual, build_fraud_flink_sequential, build_fraud_timely_feedback,
    FdBaselineParams,
};
use dgs_apps::fraud::{FdWorkload, FraudDetection};
use dgs_apps::outlier::{OdWorkload, OutlierDetection};
use dgs_apps::page_view::baselines::{
    build_pv_flink_manual, build_pv_keyed, build_pv_timely_manual, PvBaselineParams,
};
use dgs_apps::page_view::{PageViewJoin, PvWorkload};
use dgs_apps::smart_home::{ShWorkload, SmartHome};
use dgs_apps::value_barrier::baselines::{build_value_barrier, VbBaselineParams};
use dgs_apps::value_barrier::{ValueBarrier, VbWorkload};
use dgs_baseline::element::BMsg;
use dgs_runtime::sim_driver::{build_sim, SimConfig};
use dgs_sim::{Engine, LinkSpec, Topology};

/// Result of one run.
#[derive(Clone, Copy, Debug)]
pub struct MeasuredPoint {
    /// Parallelism of the configuration.
    pub parallelism: u32,
    /// Sustained throughput, events per millisecond of virtual time.
    pub throughput: f64,
    /// 10th/50th/90th percentile output latency (virtual ns), if sampled.
    pub latency: Option<(u64, u64, u64)>,
    /// Bytes that crossed the network.
    pub net_bytes: u64,
}

fn finish_baseline(mut eng: Engine<BMsg>, parallelism: u32, events: u64) -> MeasuredPoint {
    eng.run(None, u64::MAX);
    MeasuredPoint {
        parallelism,
        throughput: dgs_sim::metrics::events_per_ms(events, eng.now()),
        latency: eng.metrics().latency_p10_p50_p90(),
        net_bytes: eng.metrics().net_bytes,
    }
}

/// Scale of a measurement run (events per stream), traded off against
/// wall-clock time; shapes are stable across scales.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Events per stream per synchronization window.
    pub per_window: u64,
    /// Synchronization windows.
    pub windows: u64,
    /// Per-stream inter-arrival time (virtual ns). Small values (below
    /// the 1 µs/event processing cost) saturate the system for
    /// max-throughput runs; larger values give sustainable-rate latency
    /// runs.
    pub period_ns: u64,
}

impl Scale {
    /// Default max-throughput scale (saturating).
    pub fn saturating() -> Self {
        Scale { per_window: 2_000, windows: 4, period_ns: 200 }
    }

    /// Smaller scale for quick figure runs (`figures --quick`) and tests.
    pub fn quick() -> Self {
        Scale { per_window: 500, windows: 3, period_ns: 200 }
    }
}

// ---------------------------------------------------------------------
// Figure 4: baseline max throughput vs parallelism.
// ---------------------------------------------------------------------

/// Flink/Timely event-based windowing (broadcast pattern).
pub fn baseline_vb(parallelism: u32, batch: usize, s: Scale) -> MeasuredPoint {
    let p = VbBaselineParams {
        parallelism,
        values_per_barrier: s.per_window,
        barriers: s.windows,
        value_period_ns: s.period_ns,
        batch,
    };
    let events = parallelism as u64 * s.per_window * s.windows + s.windows;
    finish_baseline(build_value_barrier(p), parallelism, events)
}

/// Flink/Timely page-view join, automatic keyed exchange (caps at the
/// number of hot pages).
pub fn baseline_pv_keyed(parallelism: u32, batch: usize, s: Scale) -> MeasuredPoint {
    let p = pv_params(parallelism, batch, s);
    finish_baseline(build_pv_keyed(p), parallelism, p.total_events())
}

/// Timely page-view join, manual broadcast + filter (Figure 5).
pub fn baseline_pv_timely_manual(parallelism: u32, batch: usize, s: Scale) -> MeasuredPoint {
    let p = pv_params(parallelism, batch, s);
    finish_baseline(build_pv_timely_manual(p), parallelism, p.total_events())
}

/// Flink page-view join with manual service synchronization (§4.3).
pub fn baseline_pv_flink_manual(parallelism: u32, batch: usize, s: Scale) -> MeasuredPoint {
    let p = pv_params(parallelism, batch, s);
    finish_baseline(build_pv_flink_manual(p), parallelism, p.total_events())
}

fn pv_params(parallelism: u32, batch: usize, s: Scale) -> PvBaselineParams {
    // The page-view workload synchronizes more often than the windowed
    // apps (an update every ~1000 views in the paper): split the same
    // total volume into 4x more, 4x smaller windows.
    PvBaselineParams {
        parallelism,
        pages: 2,
        views_per_update: (s.per_window / 4).max(1),
        updates: s.windows * 4,
        view_period_ns: s.period_ns,
        batch,
    }
}

fn fd_params(parallelism: u32, batch: usize, s: Scale) -> FdBaselineParams {
    FdBaselineParams {
        parallelism,
        txns_per_rule: s.per_window,
        rules: s.windows,
        txn_period_ns: s.period_ns,
        batch,
    }
}

/// Flink fraud detection: the API only admits a sequential operator.
pub fn baseline_fd_sequential(parallelism: u32, batch: usize, s: Scale) -> MeasuredPoint {
    let p = fd_params(parallelism, batch, s);
    finish_baseline(build_fraud_flink_sequential(p), parallelism, p.total_events())
}

/// Flink fraud detection with the manual fork/join service (§4.3).
pub fn baseline_fd_flink_manual(parallelism: u32, batch: usize, s: Scale) -> MeasuredPoint {
    let p = fd_params(parallelism, batch, s);
    finish_baseline(build_fraud_flink_manual(p), parallelism, p.total_events())
}

/// Timely fraud detection via the cyclic (feedback) dataflow.
pub fn baseline_fd_timely(parallelism: u32, batch: usize, s: Scale) -> MeasuredPoint {
    let p = fd_params(parallelism, batch, s);
    finish_baseline(build_fraud_timely_feedback(p), parallelism, p.total_events())
}

// ---------------------------------------------------------------------
// Figure 8 / Figure 10: Flumina on the simulator.
// ---------------------------------------------------------------------

fn topo(nodes: u32) -> Topology {
    Topology::uniform(nodes, LinkSpec::default())
}

fn flumina_cfg(nodes: u32, keep_outputs: bool) -> SimConfig {
    let mut cfg = SimConfig::new(topo(nodes));
    cfg.keep_outputs = keep_outputs;
    cfg
}

/// Flumina event-based windowing at the given parallelism.
pub fn flumina_vb(parallelism: u32, s: Scale, hb_per_barrier: u64) -> MeasuredPoint {
    let w = VbWorkload {
        value_streams: parallelism,
        values_per_barrier: s.per_window,
        barriers: s.windows,
    };
    let sources = w.paced_sources(s.period_ns, hb_per_barrier);
    let (mut eng, _handles) =
        build_sim(Arc::new(ValueBarrier), &w.plan(), sources, flumina_cfg(parallelism + 1, false));
    eng.run(None, u64::MAX);
    MeasuredPoint {
        parallelism,
        throughput: dgs_sim::metrics::events_per_ms(w.total_values() + w.barriers, eng.now()),
        latency: eng.metrics().latency_p10_p50_p90(),
        net_bytes: eng.metrics().net_bytes,
    }
}

/// Flumina page-view join (parallelism split across the two hot pages).
pub fn flumina_pv(parallelism: u32, s: Scale) -> MeasuredPoint {
    let pages = 2;
    let per_page = (parallelism / pages).max(1);
    let w = PvWorkload {
        pages,
        view_streams_per_page: per_page,
        views_per_update: s.per_window,
        updates: s.windows,
    };
    let nodes = pages * per_page + pages + 1;
    let sources = w.paced_sources(s.period_ns, 100);
    let (mut eng, _handles) =
        build_sim(Arc::new(PageViewJoin), &w.plan(), sources, flumina_cfg(nodes, false));
    eng.run(None, u64::MAX);
    MeasuredPoint {
        parallelism,
        throughput: dgs_sim::metrics::events_per_ms(w.total_events(), eng.now()),
        latency: eng.metrics().latency_p10_p50_p90(),
        net_bytes: eng.metrics().net_bytes,
    }
}

/// Flumina fraud detection.
pub fn flumina_fd(parallelism: u32, s: Scale) -> MeasuredPoint {
    let w = FdWorkload { txn_streams: parallelism, txns_per_rule: s.per_window, rules: s.windows };
    let sources = w.paced_sources(s.period_ns, 100);
    let (mut eng, _handles) =
        build_sim(Arc::new(FraudDetection), &w.plan(), sources, flumina_cfg(parallelism + 1, false));
    eng.run(None, u64::MAX);
    MeasuredPoint {
        parallelism,
        throughput: dgs_sim::metrics::events_per_ms(w.total_txns() + w.rules, eng.now()),
        latency: eng.metrics().latency_p10_p50_p90(),
        net_bytes: eng.metrics().net_bytes,
    }
}

/// Straggler experiment: one node runs `slowdown ×` slower than the
/// rest. Because every barrier joins all leaves, the whole system's
/// window latency is gated by the straggler — quantifying the cost of
/// heterogeneity for globally synchronizing computations.
pub fn flumina_vb_straggler(parallelism: u32, s: Scale, slowdown: f64) -> MeasuredPoint {
    let w = VbWorkload {
        value_streams: parallelism,
        values_per_barrier: s.per_window,
        barriers: s.windows,
    };
    let mut cfg = flumina_cfg(parallelism + 1, false);
    if slowdown > 1.0 {
        cfg.topology.set_slowdown(dgs_sim::NodeId(0), slowdown);
    }
    let sources = w.paced_sources(s.period_ns, 100);
    let (mut eng, _handles) = build_sim(Arc::new(ValueBarrier), &w.plan(), sources, cfg);
    eng.run(None, u64::MAX);
    MeasuredPoint {
        parallelism,
        throughput: dgs_sim::metrics::events_per_ms(w.total_values() + w.barriers, eng.now()),
        latency: eng.metrics().latency_p10_p50_p90(),
        net_bytes: eng.metrics().net_bytes,
    }
}

/// Plan-shape ablation (DESIGN.md): the same value-barrier workload under
/// the balanced Appendix-B plan vs a maximally unbalanced chain plan.
/// Returns `(balanced, chain)` latency points — the chain's deep spine
/// multiplies the join round-trips a barrier needs.
pub fn flumina_vb_plan_ablation(parallelism: u32, vb_ratio: u64) -> (MeasuredPoint, MeasuredPoint) {
    use dgs_plan::optimizer::{ChainOptimizer, CommMinOptimizer, ITagInfo, Optimizer};
    use dgs_plan::plan::Location;
    use dgs_core::tag::ITag;
    use dgs_core::event::StreamId;
    use dgs_apps::value_barrier::VbTag;
    use dgs_core::DgsProgram;

    let w = VbWorkload { value_streams: parallelism, values_per_barrier: vb_ratio, barriers: 6 };
    let mut infos: Vec<ITagInfo<VbTag>> = (0..parallelism)
        .map(|i| ITagInfo::new(ITag::new(VbTag::Value, StreamId(i)), vb_ratio as f64, Location(i)))
        .collect();
    infos.push(ITagInfo::new(
        ITag::new(VbTag::Barrier, StreamId(parallelism)),
        1.0,
        Location(parallelism),
    ));
    let dep = dgs_core::depends::FnDependence::new(|a: &VbTag, b: &VbTag| ValueBarrier.depends(a, b));
    let run = |plan: dgs_plan::plan::Plan<VbTag>| {
        let sources = w.paced_sources(5_000, 100);
        let (mut eng, _h) =
            build_sim(Arc::new(ValueBarrier), &plan, sources, flumina_cfg(parallelism + 1, false));
        eng.run(None, u64::MAX);
        MeasuredPoint {
            parallelism,
            throughput: dgs_sim::metrics::events_per_ms(w.total_values() + w.barriers, eng.now()),
            latency: eng.metrics().latency_p10_p50_p90(),
            net_bytes: eng.metrics().net_bytes,
        }
    };
    (run(CommMinOptimizer.plan(&infos, &dep)), run(ChainOptimizer.plan(&infos, &dep)))
}

/// Figure 10 latency run: rate-controlled (sustainable) value-barrier
/// with a given vb-ratio and heartbeat rate; reports synchronization
/// latency percentiles.
pub fn flumina_vb_latency(
    workers: u32,
    vb_ratio: u64,
    hb_per_barrier: u64,
    windows: u64,
) -> MeasuredPoint {
    // Sustainable rate: each value costs ~1 µs; pace at 5 µs so nodes are
    // ~20% utilized and latency reflects synchronization, not queueing.
    let s = Scale { per_window: vb_ratio, windows, period_ns: 5_000 };
    flumina_vb(workers, s, hb_per_barrier)
}

// ---------------------------------------------------------------------
// Case studies.
// ---------------------------------------------------------------------

/// Appendix A.1: fixed total work, split across `streams` nodes; returns
/// the run's makespan in virtual ns (speedup = makespan(1)/makespan(n)).
pub fn outlier_makespan(streams: u32, total_obs: u64, queries: u64) -> u64 {
    let w = OdWorkload {
        streams,
        obs_per_query: total_obs / (streams as u64 * queries),
        queries,
        outlier_every: 50,
    };
    let sources = w.paced_sources(200, 100);
    let (mut eng, _handles) =
        build_sim(Arc::new(OutlierDetection), &w.plan(), sources, flumina_cfg(streams + 1, false));
    eng.run(None, u64::MAX);
    eng.now()
}

/// Appendix A.2: smart-home run; returns the point plus the total bytes
/// *processed* (to compare with bytes over the network, the paper's
/// 362 MB vs 29 GB edge-processing result).
pub fn smart_home_run(houses: u32, slices: u64) -> (MeasuredPoint, u64) {
    // Dense measurements per slice so the raw-data-to-summary ratio
    // resembles the challenge's (the edge-processing saving shows up as
    // a small network fraction).
    let w = ShWorkload { houses, households: 2, plugs: 4, per_plug_per_slice: 200, slices };
    let sources = w.paced_sources(500, 20);
    let (mut eng, _handles) =
        build_sim(Arc::new(SmartHome), &w.plan(), sources, flumina_cfg(houses + 1, false));
    eng.run(None, u64::MAX);
    let point = MeasuredPoint {
        parallelism: houses,
        throughput: dgs_sim::metrics::events_per_ms(w.total_events(), eng.now()),
        latency: eng.metrics().latency_p10_p50_p90(),
        net_bytes: eng.metrics().net_bytes,
    };
    // Total data processed: every measurement is ~64 wire bytes.
    (point, w.total_events() * 64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flumina_vb_scales() {
        let s = Scale::quick();
        let t1 = flumina_vb(1, s, 100).throughput;
        let t8 = flumina_vb(8, s, 100).throughput;
        assert!(t8 > 3.0 * t1, "Flumina vb should scale: {t8} vs {t1}");
    }

    #[test]
    fn flumina_pv_scales_past_two_keys() {
        let s = Scale::quick();
        let t2 = flumina_pv(2, s).throughput;
        let t8 = flumina_pv(8, s).throughput;
        assert!(t8 > 2.0 * t2, "Flumina pv should scale: {t8} vs {t2}");
    }

    #[test]
    fn flumina_fd_scales_while_flink_does_not() {
        let s = Scale::quick();
        let f1 = baseline_fd_sequential(1, 1, s).throughput;
        let f8 = baseline_fd_sequential(8, 1, s).throughput;
        let d1 = flumina_fd(1, s).throughput;
        let d8 = flumina_fd(8, s).throughput;
        assert!(f8 < 1.5 * f1, "Flink fraud must stay flat: {f8} vs {f1}");
        assert!(d8 > 3.0 * d1, "Flumina fraud must scale: {d8} vs {d1}");
    }

    #[test]
    fn keyed_pv_caps_but_manual_scales() {
        let s = Scale::quick();
        let k2 = baseline_pv_keyed(2, 1, s).throughput;
        let k12 = baseline_pv_keyed(12, 1, s).throughput;
        let m12 = baseline_pv_flink_manual(12, 1, s).throughput;
        assert!(k12 < 2.5 * k2, "keyed caps: {k12} vs {k2}");
        assert!(m12 > 1.5 * k12, "manual beats keyed at 12: {m12} vs {k12}");
    }

    #[test]
    fn latency_run_produces_samples() {
        let p = flumina_vb_latency(4, 200, 10, 3);
        assert!(p.latency.is_some());
        let (p10, p50, p90) = p.latency.unwrap();
        assert!(p10 <= p50 && p50 <= p90);
    }

    #[test]
    fn outlier_speedup_nearly_linear() {
        let base = outlier_makespan(1, 12_000, 3);
        let par8 = outlier_makespan(8, 12_000, 3);
        let speedup = base as f64 / par8 as f64;
        assert!(speedup > 4.0, "8-node speedup {speedup}");
    }

    #[test]
    fn smart_home_edge_processing_saves_bytes() {
        let (point, total_bytes) = smart_home_run(8, 4);
        assert!(point.throughput > 0.0);
        assert!(
            (point.net_bytes as f64) < 0.5 * total_bytes as f64,
            "network bytes {} should be far below total {}",
            point.net_bytes,
            total_bytes
        );
    }
}

#[cfg(test)]
mod straggler_tests {
    use super::*;

    #[test]
    fn straggler_gates_the_whole_system() {
        let s = Scale::quick();
        let clean = flumina_vb_straggler(8, s, 1.0);
        let slow4 = flumina_vb_straggler(8, s, 4.0);
        assert!(
            slow4.throughput < 0.6 * clean.throughput,
            "one 4x-slow node must drag the whole pipeline: {} vs {}",
            slow4.throughput,
            clean.throughput
        );
    }

    #[test]
    fn plan_shape_ablation_runs() {
        let (bal, chain) = flumina_vb_plan_ablation(6, 300);
        assert!(bal.throughput > 0.0 && chain.throughput > 0.0);
        assert!(bal.latency.is_some() && chain.latency.is_some());
    }
}
