//! Wall-clock benchmarking of the real-thread runtime.
//!
//! Everything else in `dgs-bench` measures *virtual* time on the
//! deterministic simulator; this module opens the paper's other axis
//! (Figures 8–11 run on real hardware): it drives the real-thread
//! backend — through the unified `Job` front door, over workloads
//! resolved by name from the shared [`dgs_apps::registry`] (default:
//! the three §4.1 workloads plus the §4.3 `page-view-forest` multi-root
//! cell, one independent page-tree per worker slot) — across a grid of
//! worker counts and offered input rates, and reports
//!
//! * end-to-end **throughput** (input events per wall second),
//! * **per-event latency percentiles** (p50/p95/p99) from a fixed-bucket
//!   histogram of output latencies, measured against each event's
//!   *scheduled* emission time (coordinated-omission safe — a backed-up
//!   source shows up as latency, not as a slower benchmark), and
//! * **per-worker message counts**, exposing load balance across the
//!   synchronization plan.
//!
//! Offered rate is expressed in events per second *per stream*; rate `0`
//! means unpaced (sources feed at full speed), which measures max
//! sustainable throughput but yields no latency samples (there is no
//! per-event reference time). Results serialize through
//! [`crate::report`] into the shared `BENCH_<date>.json` trajectory
//! schema.

use dgs_apps::registry::{self, WorkloadVisitor};
use dgs_apps::sweep::SweepWorkload;
use dgs_apps::value_barrier::VbWorkload;
use dgs_runtime::job::Backend;
use dgs_runtime::thread_driver::ThreadRunOptions;

use crate::report::Json;

// ---------------------------------------------------------------------
// Fixed-bucket latency histogram.
// ---------------------------------------------------------------------

/// Sub-bucket resolution: 32 linear sub-buckets per power of two, giving
/// ≤ 1/32 (~3%) relative quantization error.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Exact buckets below `SUB`, then 32 per power of two up to `u64::MAX`.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Fixed-bucket histogram of nanosecond latencies (HdrHistogram-style
/// log-linear buckets, fixed memory, O(1) record).
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram { counts: Box::new([0; BUCKETS]), total: 0, max: 0 }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            ns as usize
        } else {
            let log = 63 - ns.leading_zeros(); // ≥ SUB_BITS
            let group = (log - SUB_BITS) as usize;
            let sub = ((ns >> (log - SUB_BITS)) as usize) & (SUB - 1);
            SUB + group * SUB + sub
        }
    }

    /// Lower bound of the bucket at `idx` (the value percentiles report).
    fn bucket_floor(idx: usize) -> u64 {
        if idx < SUB {
            idx as u64
        } else {
            let group = ((idx - SUB) / SUB) as u32;
            let sub = ((idx - SUB) % SUB) as u64;
            (SUB as u64 + sub) << group
        }
    }

    /// Record one latency sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
        self.max = self.max.max(ns);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Maximum recorded sample (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the floor of the bucket
    /// containing the rank — within ~3% of the true value. `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_floor(idx));
            }
        }
        Some(self.max)
    }

    /// Convenience: the p50/p95/p99 summary the trajectory records.
    pub fn summary(&self) -> Option<LatencySummary> {
        Some(LatencySummary {
            p50: self.quantile(0.50)?,
            p95: self.quantile(0.95)?,
            p99: self.quantile(0.99)?,
            max: self.max,
            samples: self.total,
        })
    }
}

/// Latency percentile summary in wall nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
    /// Sample count.
    pub samples: u64,
}

// ---------------------------------------------------------------------
// Sweep driver.
// ---------------------------------------------------------------------

/// One measured wall-clock point.
#[derive(Debug, Clone)]
pub struct WallclockPoint {
    /// Workload name ([`SweepWorkload::NAME`]).
    pub workload: &'static str,
    /// Edge storage the run used (`RunTiming::channel_mode`):
    /// `"per-edge-ring"` (lock-free SPSC rings — more than one executor
    /// shard) or `"per-edge"` (mutex deques — one shard; the storage
    /// all pre-ring captures measured under this name). The runtime
    /// picks it from the shard count, so `--executor-threads` is the
    /// axis that moves it; it stays in the cell identity so fresh
    /// sweeps key against the committed trajectories.
    pub channel_mode: &'static str,
    /// Parallel event streams (the sweep's worker axis).
    pub workers: u32,
    /// Offered rate per stream in events/sec; 0 = unpaced (max speed).
    pub rate_eps: u64,
    /// Total input events fed (heartbeats excluded).
    pub events: u64,
    /// Outputs produced.
    pub outputs: u64,
    /// Wall time from source start to global quiescence.
    pub elapsed_ns: u64,
    /// `events / elapsed` in events per wall second.
    pub throughput_eps: f64,
    /// Latency percentiles (paced runs only).
    pub latency: Option<LatencySummary>,
    /// Protocol messages handled per worker, indexed by plan worker id.
    pub worker_msgs: Vec<u64>,
    /// When spec checking was requested: does the output multiset equal
    /// the sequential specification's (Theorem 3.5)?
    pub spec_ok: Option<bool>,
    /// Largest inbound queue depth sampled on any worker (metrics plane
    /// gauge; `None` when the run had metrics disabled).
    pub max_queue_depth: Option<u64>,
    /// Feeder backpressure stalls summed across streams (`None` when the
    /// run had metrics disabled).
    pub stalls: Option<u64>,
    /// Executor shard threads the run used, recorded only when the sweep
    /// pinned the axis explicitly (`SweepSpec::executor_threads`).
    /// Default-executor cells omit the field, so their identity keys —
    /// and hence bench-diff comparability against pre-executor
    /// trajectories — are unchanged.
    pub executor_threads: Option<u64>,
}

impl WallclockPoint {
    /// Serialize into the shared trajectory schema (see [`crate::report`]).
    /// The metrics-plane gauges (`max_queue_depth`, `stalls`) are
    /// *optional* fields: omitted entirely when the run had metrics off,
    /// so pre-metrics artifacts and `--no-metrics` captures stay
    /// schema-identical to legacy trajectories.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("kind".into(), Json::Str("wallclock".into())),
            ("time_base".into(), Json::Str("wall".into())),
            ("workload".into(), Json::Str(self.workload.into())),
            ("system".into(), Json::Str("dgs-threads".into())),
            ("channel_mode".into(), Json::Str(self.channel_mode.into())),
            ("workers".into(), Json::Int(self.workers as i64)),
            ("rate_eps".into(), Json::Int(self.rate_eps as i64)),
            ("events".into(), Json::Int(self.events as i64)),
            ("outputs".into(), Json::Int(self.outputs as i64)),
            ("elapsed_ns".into(), Json::Int(self.elapsed_ns as i64)),
            ("throughput_eps".into(), Json::Num(self.throughput_eps)),
            (
                "latency_ns".into(),
                match &self.latency {
                    None => Json::Null,
                    Some(l) => Json::Obj(vec![
                        ("p50".into(), Json::Int(l.p50 as i64)),
                        ("p95".into(), Json::Int(l.p95 as i64)),
                        ("p99".into(), Json::Int(l.p99 as i64)),
                        ("max".into(), Json::Int(l.max as i64)),
                        ("samples".into(), Json::Int(l.samples as i64)),
                    ]),
                },
            ),
            (
                "worker_msgs".into(),
                Json::Arr(self.worker_msgs.iter().map(|&m| Json::Int(m as i64)).collect()),
            ),
            (
                "spec_ok".into(),
                match self.spec_ok {
                    None => Json::Null,
                    Some(ok) => Json::Bool(ok),
                },
            ),
        ];
        if let Some(d) = self.max_queue_depth {
            fields.push(("max_queue_depth".into(), Json::Int(d as i64)));
        }
        if let Some(s) = self.stalls {
            fields.push(("stalls".into(), Json::Int(s as i64)));
        }
        if let Some(t) = self.executor_threads {
            fields.push(("executor_threads".into(), Json::Int(t as i64)));
        }
        Json::Obj(fields)
    }
}

/// Parameters of a wall-clock sweep.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Workloads to measure, by registry name
    /// ([`dgs_apps::registry`]) — defaults to the committed-trajectory
    /// quartet so cell sets stay comparable across captures.
    pub workloads: Vec<&'static str>,
    /// Worker counts to sweep.
    pub workers: Vec<u32>,
    /// Offered rates (events/sec per stream); 0 = unpaced max throughput.
    pub rates: Vec<u64>,
    /// Events per stream per synchronization window.
    pub per_window: u64,
    /// Synchronization windows.
    pub windows: u64,
    /// Verify every run's output multiset against the sequential spec.
    pub check_spec: bool,
    /// Run with the always-on metrics plane enabled (the default; the
    /// `--no-metrics` axis exists to A/B its overhead).
    pub metrics: bool,
    /// Pin the executor shard-thread count (`--executor-threads`).
    /// `None` (the default) lets the runtime use host parallelism *and*
    /// keeps the field out of the recorded points, preserving legacy
    /// cell identity; `Some(n)` stamps every point with the effective
    /// count, putting the executor axis into the artifact.
    pub executor_threads: Option<usize>,
}

impl SweepSpec {
    /// The default full sweep behind the committed trajectory files:
    /// 1–8 workers, one unpaced max-throughput run and one paced run
    /// (which carries the latency percentiles) per cell.
    pub fn full() -> Self {
        SweepSpec {
            workloads: registry::default_sweep_names(),
            workers: vec![1, 2, 4, 8],
            rates: vec![0, 200_000],
            per_window: 500,
            windows: 20,
            check_spec: false,
            metrics: true,
            executor_threads: None,
        }
    }

    /// Tiny CI tier: seconds of runtime, spec-checked.
    pub fn smoke() -> Self {
        SweepSpec {
            workloads: registry::default_sweep_names(),
            workers: vec![2],
            rates: vec![0, 100_000],
            per_window: 40,
            windows: 5,
            check_spec: true,
            metrics: true,
            executor_threads: None,
        }
    }
}

/// Convert an offered per-stream rate to the driver's pacing option.
fn pace_of(rate_eps: u64) -> Option<u64> {
    (rate_eps > 0).then(|| (1_000_000_000 / rate_eps).max(1))
}

/// Independent repetitions of each *paced* point; the run with the
/// median p95 is reported. Latency tails over a few dozen samples are
/// hostage to single OS scheduling hiccups (observed swings of 10× on
/// the same cell back to back on a single-core host); the median run is
/// the standard way to report a stable tail without hiding a systematic
/// shift.
pub const PACED_REPEATS: usize = 3;

/// Independent repetitions of each *unpaced* point; the run with the
/// highest throughput is reported. An unpaced run races feeders against
/// workers at full speed, so its throughput is "max sustainable" — and
/// on a contended host a single draw routinely lands 30–50% below the
/// machine's actual capacity (observed back to back on identical code).
/// The maximum over several draws is the standard way to measure capacity:
/// lower draws show scheduler interference, not the system under test.
pub const UNPACED_REPEATS: usize = 5;

/// Run one workload at one `(workers, rate)` point. Paced points
/// are repeated [`PACED_REPEATS`] times and the median-p95 run reported;
/// unpaced points are repeated [`UNPACED_REPEATS`] times and the
/// best-throughput run reported (`spec_ok` is the conjunction over all
/// repeats — a divergence in any run fails the point).
pub fn run_one<W: SweepWorkload>(
    workers: u32,
    per_window: u64,
    windows: u64,
    rate_eps: u64,
    check_spec: bool,
    metrics: bool,
    executor_threads: Option<usize>,
) -> WallclockPoint {
    let paced = rate_eps > 0;
    let repeats = if paced { PACED_REPEATS } else { UNPACED_REPEATS };
    let mut runs: Vec<WallclockPoint> = (0..repeats)
        .map(|_| {
            run_single::<W>(
                workers,
                per_window,
                windows,
                rate_eps,
                check_spec,
                metrics,
                executor_threads,
            )
        })
        .collect();
    let all_ok = runs.iter().all(|p| p.spec_ok != Some(false));
    let mut point = if paced {
        runs.sort_by_key(|p| p.latency.map(|l| l.p95).unwrap_or(0));
        runs.swap_remove(runs.len() / 2)
    } else {
        runs.sort_by(|a, b| a.throughput_eps.total_cmp(&b.throughput_eps));
        runs.pop().expect("at least one run")
    };
    if point.spec_ok.is_some() {
        point.spec_ok = Some(all_ok);
    }
    point
}

fn run_single<W: SweepWorkload>(
    workers: u32,
    per_window: u64,
    windows: u64,
    rate_eps: u64,
    check_spec: bool,
    metrics: bool,
    executor_threads: Option<usize>,
) -> WallclockPoint {
    let w = W::for_scale(workers, per_window, windows);
    let hb_period = (per_window / 10).max(1);
    // The measured deployment goes through the unified Job front door —
    // plan derivation included (pinned plan-identical to the manual
    // `w.plan()` path by `tests/api_equivalence.rs`, so cells stay
    // comparable across the refactor).
    let job = w.job(hb_period);
    let report = job.run(Backend::Threads(ThreadRunOptions {
        initial_state: None,
        checkpoint_root: false,
        pace_ns_per_tick: pace_of(rate_eps),
        record_timing: true,
        executor_threads,
        metrics,
        ..Default::default()
    }));
    let timing = report.timing.as_ref().expect("timing requested");
    let spec_ok =
        check_spec.then(|| job.run(Backend::Spec).output_multiset() == report.output_multiset());
    let mut hist = LatencyHistogram::new();
    for &ns in &timing.output_latency_ns {
        hist.record(ns);
    }
    let elapsed_ns = timing.wall.as_nanos() as u64;
    WallclockPoint {
        workload: W::NAME,
        channel_mode: timing.channel_mode,
        workers,
        rate_eps,
        events: w.event_count(),
        outputs: report.outputs.len() as u64,
        elapsed_ns,
        throughput_eps: if elapsed_ns > 0 {
            w.event_count() as f64 * 1e9 / elapsed_ns as f64
        } else {
            0.0
        },
        latency: hist.summary(),
        worker_msgs: report.effects.msgs.clone(),
        spec_ok,
        max_queue_depth: report.metrics.as_ref().map(|m| m.max_queue_depth()),
        stalls: report.metrics.as_ref().map(|m| m.total_stalls()),
        // Stamp the *effective* shard count, but only when the axis was
        // pinned — default-executor cells stay legacy-shaped.
        executor_threads: executor_threads.map(|_| timing.executor_threads as u64),
    }
}

/// [`run_one`] behind a registry lookup: measure one `(workload-name,
/// workers, rate)` cell. Panics on names the registry does not
/// know (CLIs validate first).
pub struct RunCell {
    /// Worker-count axis value.
    pub workers: u32,
    /// Events per stream per window.
    pub per_window: u64,
    /// Window count.
    pub windows: u64,
    /// Offered rate (0 = unpaced).
    pub rate_eps: u64,
    /// Verify the output multiset against the sequential spec.
    pub check_spec: bool,
    /// Run with the metrics plane enabled.
    pub metrics: bool,
    /// Pin the executor shard count (see [`SweepSpec::executor_threads`]).
    pub executor_threads: Option<usize>,
}

impl WorkloadVisitor for RunCell {
    type Out = WallclockPoint;

    fn visit<W: SweepWorkload>(&mut self) -> WallclockPoint {
        run_one::<W>(
            self.workers,
            self.per_window,
            self.windows,
            self.rate_eps,
            self.check_spec,
            self.metrics,
            self.executor_threads,
        )
    }
}

/// Run the full grid: `spec.workloads` × `spec.workers` × `spec.rates`,
/// in a deterministic order (workers-major, then rate, then workload —
/// workloads resolved through the shared
/// [`dgs_apps::registry`]). A small discarded warm-up run precedes the
/// grid: the first measured cells of a fresh process otherwise pay
/// one-time costs (allocator growth, page faults, CPU frequency ramp)
/// that showed up as phantom 2× "regressions" on the first grid cell.
pub fn sweep(spec: &SweepSpec) -> Vec<WallclockPoint> {
    let _ = run_one::<VbWorkload>(2, 200, 5, 0, false, spec.metrics, spec.executor_threads);
    let mut points = Vec::new();
    for &workers in &spec.workers {
        for &rate in &spec.rates {
            for name in &spec.workloads {
                let mut cell = RunCell {
                    workers,
                    per_window: spec.per_window,
                    windows: spec.windows,
                    rate_eps: rate,
                    check_spec: spec.check_spec,
                    metrics: spec.metrics,
                    executor_threads: spec.executor_threads,
                };
                points.push(
                    registry::visit(name, &mut cell)
                        .unwrap_or_else(|| panic!("unknown workload {name:?}")),
                );
            }
        }
    }
    points
}

/// Render a human-readable table of sweep results.
pub fn render_table(points: &[WallclockPoint]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>16} | {:>8} | {:>7} | {:>9} | {:>8} | {:>12} | {:>10} | {:>10} | {:>10} | {:>5}",
        "workload", "mode", "workers", "rate/s", "events", "tput (e/s)", "p50 (µs)", "p95 (µs)", "p99 (µs)", "spec"
    );
    for p in points {
        let lat = |f: fn(&LatencySummary) -> u64| {
            p.latency.map(|l| format!("{:.1}", f(&l) as f64 / 1e3)).unwrap_or_else(|| "-".into())
        };
        let _ = writeln!(
            out,
            "{:>16} | {:>8} | {:>7} | {:>9} | {:>8} | {:>12.0} | {:>10} | {:>10} | {:>10} | {:>5}",
            p.workload,
            p.channel_mode,
            p.workers,
            if p.rate_eps == 0 { "max".to_string() } else { p.rate_eps.to_string() },
            p.events,
            p.throughput_eps,
            lat(|l| l.p50),
            lat(|l| l.p95),
            lat(|l| l.p99),
            match p.spec_ok {
                None => "-",
                Some(true) => "ok",
                Some(false) => "FAIL",
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_monotone_and_exhaustive() {
        // Every index maps back to a floor inside its own bucket.
        for ns in [0u64, 1, 31, 32, 33, 100, 1_000, 65_535, 1 << 40, u64::MAX] {
            let idx = LatencyHistogram::index(ns);
            assert!(idx < BUCKETS, "index {idx} out of range for {ns}");
            let floor = LatencyHistogram::bucket_floor(idx);
            assert!(floor <= ns, "floor {floor} above sample {ns}");
            // Quantization error bounded by one sub-bucket (~3%).
            if ns >= SUB as u64 {
                assert!(ns - floor <= ns / SUB as u64, "too coarse at {ns}: floor {floor}");
            } else {
                assert_eq!(floor, ns, "exact below {SUB}");
            }
        }
        // Floors are nondecreasing across the whole index space.
        let mut last = 0;
        for idx in 0..BUCKETS {
            let f = LatencyHistogram::bucket_floor(idx);
            assert!(f >= last, "floors must be monotone at {idx}");
            last = f;
        }
    }

    #[test]
    fn histogram_percentiles_are_ordered_and_accurate() {
        let mut h = LatencyHistogram::new();
        for ns in 1..=10_000u64 {
            h.record(ns);
        }
        let s = h.summary().unwrap();
        assert_eq!(s.samples, 10_000);
        assert_eq!(s.max, 10_000);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        // Within the ~3% bucket resolution of the true quantiles.
        assert!((s.p50 as f64 - 5_000.0).abs() / 5_000.0 < 0.04, "p50 {}", s.p50);
        assert!((s.p95 as f64 - 9_500.0).abs() / 9_500.0 < 0.04, "p95 {}", s.p95);
        assert!((s.p99 as f64 - 9_900.0).abs() / 9_900.0 < 0.04, "p99 {}", s.p99);
    }

    #[test]
    fn empty_histogram_has_no_summary() {
        assert!(LatencyHistogram::new().summary().is_none());
        assert!(LatencyHistogram::new().quantile(0.5).is_none());
    }

    #[test]
    fn unpaced_point_has_throughput_but_no_latency() {
        let p = run_one::<VbWorkload>(2, 30, 3, 0, true, true, Some(2));
        assert_eq!(p.spec_ok, Some(true));
        assert!(p.throughput_eps > 0.0);
        assert!(p.latency.is_none());
        assert_eq!(p.events, 2 * 30 * 3 + 3);
        assert!(p.worker_msgs.iter().sum::<u64>() > 0);
        assert_eq!(p.channel_mode, "per-edge-ring");
        // Metrics-plane gauges ride along and serialize as new fields…
        assert!(p.max_queue_depth.is_some() && p.stalls.is_some());
        let json = p.to_json().render();
        assert!(json.contains("\"max_queue_depth\"") && json.contains("\"stalls\""));
        // …and a metrics-off run omits them, staying legacy-shaped.
        let off = run_one::<VbWorkload>(2, 30, 3, 0, false, false, None);
        assert!(off.max_queue_depth.is_none() && off.stalls.is_none());
        let off_json = off.to_json().render();
        assert!(!off_json.contains("max_queue_depth") && !off_json.contains("\"stalls\""));
    }

    #[test]
    fn paced_point_has_latency_percentiles() {
        // 90 ticks at 1M events/sec/stream: fast but paced.
        let p = run_one::<VbWorkload>(2, 30, 3, 1_000_000, true, true, Some(1));
        assert_eq!(p.spec_ok, Some(true));
        assert_eq!(p.channel_mode, "per-edge");
        let lat = p.latency.expect("paced run must sample latency");
        assert_eq!(lat.samples, p.outputs);
        assert!(lat.p50 <= lat.p95 && lat.p95 <= lat.p99 && lat.p99 <= lat.max);
    }

    #[test]
    fn sweep_covers_the_grid() {
        let spec = SweepSpec {
            workloads: registry::default_sweep_names(),
            workers: vec![1, 2],
            rates: vec![0],
            per_window: 20,
            windows: 2,
            check_spec: true,
            metrics: true,
            executor_threads: Some(1),
        };
        let n_workloads = spec.workloads.len();
        let points = sweep(&spec);
        assert_eq!(
            points.len(),
            2 * n_workloads,
            "2 worker counts × 1 rate × {n_workloads} workloads"
        );
        assert!(points.iter().all(|p| p.spec_ok == Some(true)));
        let table = render_table(&points);
        assert!(table.contains("value-barrier"));
        assert!(table.contains("page-view"));
        assert!(table.contains("fraud-detection"));
        assert!(table.contains("page-view-forest"));
        // One shard: every cell ran on the mutex storage.
        assert!(table.contains(" per-edge |") && !table.contains("per-edge-ring"));
    }

    /// A sweep can select any registry workload by name — including the
    /// case studies outside the default quartet — and a default-executor
    /// cell records whichever edge storage this host's shard count
    /// selected.
    #[test]
    fn registry_names_and_auto_mode_resolve() {
        let spec = SweepSpec {
            workloads: vec!["outlier", "smart-home"],
            workers: vec![2],
            rates: vec![0],
            per_window: 10,
            windows: 2,
            check_spec: true,
            metrics: true,
            executor_threads: None,
        };
        let points = sweep(&spec);
        assert_eq!(points.len(), 2);
        assert!(points.iter().any(|p| p.workload == "outlier"));
        assert!(points.iter().any(|p| p.workload == "smart-home"));
        for p in &points {
            assert!(
                p.channel_mode == "per-edge-ring" || p.channel_mode == "per-edge",
                "cells must name the edge storage, got {}",
                p.channel_mode
            );
            assert_eq!(p.spec_ok, Some(true));
        }
    }
}
