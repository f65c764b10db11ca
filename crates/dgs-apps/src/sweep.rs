//! Uniform workload parameterization for wall-clock rate sweeps.
//!
//! The tests and the CLI drive the real-thread driver over the paper's
//! evaluation applications at varying worker counts and input rates
//! (the `bench/` harness has its own workload generators). Each
//! application already
//! knows how to build its plan and scheduled streams; this module gives
//! them one shared shape — construct from `(workers, per_window,
//! windows)`, expose program/plan/streams/event-count — so the harness
//! can sweep them generically, and so any future app joins the sweep by
//! implementing one small trait.
//!
//! Input *rate* is deliberately not part of the workload: scheduled
//! streams carry virtual timestamps (one value event per stream per
//! tick), and the thread driver's `pace_ns_per_tick` option maps ticks to
//! wall time. The same stream set therefore serves every rate point of a
//! sweep, keeping the event volume — and the sequential specification —
//! fixed while only the pacing changes.

use dgs_core::codec::StateCodec;
use dgs_core::event::{StreamId, Timestamp};
use dgs_core::program::DgsProgram;
use dgs_plan::plan::Plan;
use dgs_runtime::job::Job;
use dgs_runtime::source::ScheduledStream;

use crate::fraud::{FdWorkload, FraudDetection};
use crate::outlier::{OdWorkload, OutlierDetection};
use crate::page_view::{PageViewJoin, PvWorkload};
use crate::smart_home::{ShWorkload, SmartHome};
use crate::value_barrier::{ValueBarrier, VbWorkload};

/// The scheduled input streams of a program's workload.
pub type ProgStreams<Pr> =
    Vec<ScheduledStream<<Pr as DgsProgram>::Tag, <Pr as DgsProgram>::Payload>>;

/// A workload the front ends can sweep: parameterized by worker count
/// and window geometry, able to produce everything a `Job` needs (the
/// program, its streams, the hand-built plan) plus the exact event
/// volume for throughput accounting.
pub trait SweepWorkload: Sized {
    /// The DGS program this workload drives. (Spec comparisons go
    /// through `Job`'s canonical `Debug` multiset, so `Out` needs no
    /// `Ord` bound — which is what lets smart-home, whose predictions
    /// carry floats, join the sweep. `State: StateCodec` lets any sweep
    /// workload checkpoint into a `DurableStore`, which the recovery
    /// bench dimension and the chaos tests rely on.)
    type Prog: DgsProgram<State: StateCodec> + Send + Sync + 'static;

    /// Stable name used in reports ("value-barrier", "page-view", …).
    const NAME: &'static str;

    /// Build the workload for `workers` parallel event streams,
    /// `per_window` events per stream per synchronization window, and
    /// `windows` windows.
    fn for_scale(workers: u32, per_window: u64, windows: u64) -> Self;

    /// The program instance.
    fn program(&self) -> Self::Prog;

    /// The synchronization plan (Appendix B optimizer).
    fn plan(&self) -> Plan<<Self::Prog as DgsProgram>::Tag>;

    /// Scheduled input streams, with heartbeats every `hb_period` ticks.
    fn streams(&self, hb_period: Timestamp) -> ProgStreams<Self::Prog>;

    /// Total input events (heartbeats excluded) — the numerator of
    /// events-per-second throughput.
    fn event_count(&self) -> u64;

    /// A synchronizing stream — one whose events land at a partition
    /// root (barriers, rule updates, queries, the first page's updates
    /// in a forest, …). The recovery harness crashes the partition
    /// responsible for this stream, because that is the one taking
    /// root-join checkpoints of interest.
    fn sync_stream(&self) -> StreamId;

    /// The workload as a [`Job`]: program + streams, everything else
    /// derived. `tests/api_equivalence.rs` pins the derived plan equal
    /// to [`SweepWorkload::plan`] for every workload here, so harnesses
    /// driving this job measure exactly the deployment the manual path
    /// describes.
    fn job(&self, hb_period: Timestamp) -> Job<Self::Prog> {
        Job::new(self.program(), self.streams(hb_period))
    }
}

impl SweepWorkload for VbWorkload {
    type Prog = ValueBarrier;

    const NAME: &'static str = "value-barrier";

    fn for_scale(workers: u32, per_window: u64, windows: u64) -> Self {
        VbWorkload { value_streams: workers, values_per_barrier: per_window, barriers: windows }
    }

    fn program(&self) -> ValueBarrier {
        ValueBarrier
    }

    fn plan(&self) -> Plan<crate::value_barrier::VbTag> {
        VbWorkload::plan(self)
    }

    fn streams(
        &self,
        hb_period: Timestamp,
    ) -> Vec<ScheduledStream<crate::value_barrier::VbTag, i64>> {
        self.scheduled_streams(hb_period)
    }

    fn event_count(&self) -> u64 {
        self.total_values() + self.barriers
    }

    fn sync_stream(&self) -> StreamId {
        StreamId(self.value_streams)
    }
}

impl SweepWorkload for PvWorkload {
    type Prog = PageViewJoin;

    const NAME: &'static str = "page-view";

    /// `workers` view streams spread over the (up to two) hot pages of
    /// the paper's skewed workload: `workers = 1` runs a single page so
    /// every point of a sweep is a genuinely distinct configuration; odd
    /// counts round the per-page streams up, so the point runs *at
    /// least* `workers` view streams.
    fn for_scale(workers: u32, per_window: u64, windows: u64) -> Self {
        let pages = workers.clamp(1, 2);
        PvWorkload {
            pages,
            view_streams_per_page: workers.div_ceil(pages).max(1),
            views_per_update: per_window,
            updates: windows,
        }
    }

    fn program(&self) -> PageViewJoin {
        PageViewJoin
    }

    fn plan(&self) -> Plan<crate::page_view::PvTag> {
        PvWorkload::plan(self)
    }

    fn streams(&self, hb_period: Timestamp) -> Vec<ScheduledStream<crate::page_view::PvTag, i64>> {
        self.scheduled_streams(hb_period)
    }

    fn event_count(&self) -> u64 {
        self.total_events()
    }

    fn sync_stream(&self) -> StreamId {
        // Page 0's update stream; view streams occupy ids
        // `0..pages * view_streams_per_page`.
        StreamId(self.pages * self.view_streams_per_page)
    }
}

/// The §4.3 "forest with a tree per key" cell: `workers` hot pages, each
/// with two parallel view streams, so the plan is a true forest of
/// `workers` independent three-worker trees (update root + two view
/// leaves) — no synchronization, seeding, or checkpoint traffic crosses
/// pages. This is the workload the forest-native plan refactor exists
/// for; sweeping it alongside `page-view` (≤ 2 pages, views scaled
/// within a page) records the multi-root win in the perf trajectory.
#[derive(Clone, Copy, Debug)]
pub struct PvForestWorkload(pub PvWorkload);

impl SweepWorkload for PvForestWorkload {
    type Prog = PageViewJoin;

    const NAME: &'static str = "page-view-forest";

    fn for_scale(workers: u32, per_window: u64, windows: u64) -> Self {
        PvForestWorkload(PvWorkload {
            pages: workers.max(1),
            view_streams_per_page: 2,
            views_per_update: per_window,
            updates: windows,
        })
    }

    fn program(&self) -> PageViewJoin {
        PageViewJoin
    }

    fn plan(&self) -> Plan<crate::page_view::PvTag> {
        let plan = PvWorkload::plan(&self.0);
        debug_assert_eq!(plan.roots().len() as u32, self.0.pages, "one tree per page");
        plan
    }

    fn streams(&self, hb_period: Timestamp) -> Vec<ScheduledStream<crate::page_view::PvTag, i64>> {
        self.0.scheduled_streams(hb_period)
    }

    fn event_count(&self) -> u64 {
        self.0.total_events()
    }

    fn sync_stream(&self) -> StreamId {
        self.0.sync_stream()
    }
}

/// Normalized zipf(s) popularity weights over `n` keys: key `k` gets
/// weight proportional to `(k + 1)^-s`. `s = 0` is uniform; the paper's
/// skewed page-view workload uses `s ≈ 1.5`, which puts roughly half of
/// all traffic on the first key of eight.
pub fn zipf_weights(n: u32, s: f64) -> Vec<f64> {
    assert!(n > 0, "zipf needs at least one key");
    let raw: Vec<f64> = (1..=n as u64).map(|k| (k as f64).powf(-s)).collect();
    let sum: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / sum).collect()
}

/// A tiny deterministic splitmix-style generator for workload synthesis:
/// no RNG dependency, stable across platforms and runs.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// ON/OFF bursty modulation of a per-window base count: each window is
/// independently ON (`2 × base`) or OFF (`base / 2`, floored at one
/// event so the stream never falls silent), decided by a deterministic
/// hash of `(key, window)`. Two workloads with the same key see the
/// same telegraph signal.
pub fn bursty_counts(base: u64, windows: u64, key: u64) -> Vec<u64> {
    (0..windows)
        .map(|w| {
            if mix(key ^ w.wrapping_mul(0x5851_F42D_4C95_7F2D)) & 1 == 1 {
                base * 2
            } else {
                (base / 2).max(1)
            }
        })
        .collect()
}

/// The elasticity cell: page-view join over `pages` keys with
/// **zipf-skewed** popularity and **ON/OFF bursty** per-stream arrivals,
/// run on a deliberately *over-provisioned* static plan (every page
/// pre-forked into an update root plus two view leaves). Most pages are
/// cold most of the time, so the static plan pays fork/join protocol
/// traffic for parallelism it never uses — exactly the workload the
/// elastic controller exists for: it joins the cold page partitions at
/// run time (and re-forks any that heat up), which is the
/// `controller-on` vs `controller-off` comparison `flumina run
/// page-view-zipf --elastic` exercises.
#[derive(Clone, Copy, Debug)]
pub struct PvZipfWorkload {
    /// Number of pages (keys); popularity is zipf over them.
    pub pages: u32,
    /// Mean views per page per window at uniform popularity — the same
    /// volume knob the uniform page-view cells use, redistributed by the
    /// zipf weights.
    pub per_window: u64,
    /// Update windows per page.
    pub windows: u64,
    /// Zipf skew exponent (`1.5` for the paper-style skew).
    pub zipf_s: f64,
    /// Seed for the deterministic ON/OFF burst signal.
    pub seed: u64,
}

impl PvZipfWorkload {
    /// Window length in ticks. Sized so even the hottest page's ON-burst
    /// view count fits at integer inter-arrival steps.
    pub fn window_ticks(&self) -> u64 {
        self.per_window * self.pages as u64
    }

    /// The uniform-layout twin whose stream-id geometry and
    /// (over-provisioned) plan this workload borrows: same view/update
    /// stream ids, every page forked into a three-worker tree.
    fn layout(&self) -> PvWorkload {
        PvWorkload {
            pages: self.pages,
            view_streams_per_page: 2,
            views_per_update: self.per_window,
            updates: self.windows,
        }
    }

    /// Views stream `(page, slot)` carries in window `w` — zipf share of
    /// the global per-window volume, split across the page's two
    /// streams, then ON/OFF modulated. Deterministic: `streams()` and
    /// [`SweepWorkload::event_count`] both fold over it.
    pub fn views_in(&self, page: u32, slot: u32, window: u64) -> u64 {
        let weights = zipf_weights(self.pages, self.zipf_s);
        let volume = self.per_window * self.pages as u64;
        let page_views = ((volume as f64 * weights[page as usize]).round() as u64).max(1);
        let base = (page_views / 2).max(1);
        let key = self.seed ^ ((page as u64) << 40) ^ ((slot as u64) << 32);
        bursty_counts(base, window + 1, key)[window as usize].min(self.window_ticks())
    }
}

impl SweepWorkload for PvZipfWorkload {
    type Prog = PageViewJoin;

    const NAME: &'static str = "page-view-zipf";

    /// `workers` pages (at least two, so the zipf skew is visible),
    /// zipf `s = 1.5`, a fixed burst seed — the whole point of the cell
    /// is a *reproducible* skew.
    fn for_scale(workers: u32, per_window: u64, windows: u64) -> Self {
        PvZipfWorkload {
            pages: workers.max(2),
            per_window,
            windows,
            zipf_s: 1.5,
            seed: 42,
        }
    }

    fn program(&self) -> PageViewJoin {
        PageViewJoin
    }

    /// The over-provisioned static plan: one three-worker tree per page
    /// regardless of that page's actual traffic.
    fn plan(&self) -> Plan<crate::page_view::PvTag> {
        self.layout().plan()
    }

    fn streams(&self, hb_period: Timestamp) -> Vec<ScheduledStream<crate::page_view::PvTag, i64>> {
        use crate::page_view::PvTag;
        use dgs_core::tag::ITag;
        let layout = self.layout();
        let ticks = self.window_ticks();
        let mut streams = Vec::new();
        for page in 0..self.pages {
            for slot in 0..2u32 {
                let mut times = Vec::new();
                for w in 0..self.windows {
                    let v = self.views_in(page, slot, w);
                    let step = (ticks / v).max(1);
                    times.extend((0..v).map(|i| w * ticks + 1 + i * step));
                }
                streams.push(
                    ScheduledStream::at_times(
                        ITag::new(PvTag::View(page), layout.view_stream_id(page, slot)),
                        times,
                        |_| 0,
                    )
                    .with_heartbeats(hb_period)
                    .closed(Timestamp::MAX),
                );
            }
            streams.push(
                ScheduledStream::periodic(
                    ITag::new(PvTag::Update(page), layout.update_stream_id(page)),
                    ticks,
                    ticks,
                    self.windows,
                    move |j| (page as i64 + 1) * 100 + j as i64,
                )
                .with_heartbeats(hb_period)
                .closed(Timestamp::MAX),
            );
        }
        streams
    }

    fn event_count(&self) -> u64 {
        let views: u64 = (0..self.pages)
            .flat_map(|p| (0..2u32).map(move |s| (p, s)))
            .flat_map(|(p, s)| (0..self.windows).map(move |w| self.views_in(p, s, w)))
            .sum();
        views + self.pages as u64 * self.windows
    }

    fn sync_stream(&self) -> StreamId {
        // Page 0's update stream (the hottest page's synchronizer).
        StreamId(self.pages * 2)
    }

    /// Pin the over-provisioned plan: the derived CommMin plan would
    /// right-size cold pages statically, which is precisely the help
    /// this cell must *not* get — the controller has to earn it online.
    fn job(&self, hb_period: Timestamp) -> Job<PageViewJoin> {
        Job::new(self.program(), self.streams(hb_period)).with_plan(self.plan())
    }
}

impl SweepWorkload for FdWorkload {
    type Prog = FraudDetection;

    const NAME: &'static str = "fraud-detection";

    fn for_scale(workers: u32, per_window: u64, windows: u64) -> Self {
        FdWorkload { txn_streams: workers, txns_per_rule: per_window, rules: windows }
    }

    fn program(&self) -> FraudDetection {
        FraudDetection
    }

    fn plan(&self) -> Plan<crate::fraud::FdTag> {
        FdWorkload::plan(self)
    }

    fn streams(&self, hb_period: Timestamp) -> Vec<ScheduledStream<crate::fraud::FdTag, i64>> {
        self.scheduled_streams(hb_period)
    }

    fn event_count(&self) -> u64 {
        self.total_txns() + self.rules
    }

    fn sync_stream(&self) -> StreamId {
        StreamId(self.txn_streams)
    }
}

impl SweepWorkload for OdWorkload {
    type Prog = OutlierDetection;

    const NAME: &'static str = "outlier";

    /// `workers` observation streams; one planted outlier every 50
    /// records per stream (the case-study density).
    fn for_scale(workers: u32, per_window: u64, windows: u64) -> Self {
        OdWorkload { streams: workers, obs_per_query: per_window, queries: windows, outlier_every: 50 }
    }

    fn program(&self) -> OutlierDetection {
        OutlierDetection
    }

    fn plan(&self) -> Plan<crate::outlier::OdTag> {
        OdWorkload::plan(self)
    }

    fn streams(
        &self,
        hb_period: Timestamp,
    ) -> Vec<ScheduledStream<crate::outlier::OdTag, crate::outlier::Connection>> {
        self.scheduled_streams(hb_period)
    }

    fn event_count(&self) -> u64 {
        self.streams as u64 * self.obs_per_query * self.queries + self.queries
    }

    fn sync_stream(&self) -> StreamId {
        StreamId(self.streams)
    }
}

impl SweepWorkload for ShWorkload {
    type Prog = SmartHome;

    const NAME: &'static str = "smart-home";

    /// `workers` houses of 2 households × 2 plugs; `per_window`
    /// measurements per plug per slice.
    fn for_scale(workers: u32, per_window: u64, windows: u64) -> Self {
        ShWorkload {
            houses: workers,
            households: 2,
            plugs: 2,
            per_plug_per_slice: per_window,
            slices: windows,
        }
    }

    fn program(&self) -> SmartHome {
        SmartHome
    }

    fn plan(&self) -> Plan<crate::smart_home::ShTag> {
        ShWorkload::plan(self)
    }

    fn streams(
        &self,
        hb_period: Timestamp,
    ) -> Vec<ScheduledStream<crate::smart_home::ShTag, crate::smart_home::ShPayload>> {
        self.scheduled_streams(hb_period)
    }

    fn event_count(&self) -> u64 {
        self.total_events()
    }

    fn sync_stream(&self) -> StreamId {
        StreamId(self.houses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check<W: SweepWorkload>(workers: u32) {
        let w = W::for_scale(workers, 20, 3);
        let streams = w.streams(5);
        let events: u64 = streams.iter().map(|s| s.events().count() as u64).sum();
        assert_eq!(events, w.event_count(), "{}: event_count must match streams", W::NAME);
        // Every stream must have a responsible worker in the plan.
        let plan = w.plan();
        for s in &streams {
            assert!(plan.responsible_for(&s.itag).is_some(), "{}: orphan stream", W::NAME);
        }
    }

    #[test]
    fn all_sweep_workloads_are_consistent() {
        for workers in [1u32, 2, 4] {
            check::<VbWorkload>(workers);
            check::<PvWorkload>(workers);
            check::<FdWorkload>(workers);
            check::<PvForestWorkload>(workers);
            check::<PvZipfWorkload>(workers);
            check::<OdWorkload>(workers);
            check::<ShWorkload>(workers);
        }
    }

    /// The `job()` view of a workload runs and verifies end to end (the
    /// path the CLI drives).
    #[test]
    fn sweep_jobs_verify_against_the_spec() {
        fn verify<W: SweepWorkload>() {
            let w = W::for_scale(2, 15, 2);
            w.job(3).verify_against_spec().unwrap_or_else(|e| {
                panic!("{}: job path diverged from spec: {e}", W::NAME)
            });
        }
        verify::<VbWorkload>();
        verify::<OdWorkload>();
        verify::<ShWorkload>();
    }

    /// Every worker count on the sweep axis must be a distinct deployment
    /// — a sweep that silently reruns the same plan under two labels
    /// corrupts the recorded trajectory.
    #[test]
    fn sweep_axis_points_are_distinct_configurations() {
        fn leaves<W: SweepWorkload>(workers: u32) -> usize {
            W::for_scale(workers, 20, 2).plan().leaf_count()
        }
        for workers in [1u32, 2, 4, 8] {
            assert_eq!(leaves::<VbWorkload>(workers), workers as usize);
            assert_eq!(leaves::<FdWorkload>(workers), workers as usize);
            assert_eq!(leaves::<PvWorkload>(workers), workers as usize, "pv at {workers}");
            // Forest cell: two view leaves per page, one page per worker.
            assert_eq!(leaves::<PvForestWorkload>(workers), 2 * workers as usize);
            // Zipf cell: over-provisioned — every page forked, ≥ 2 pages.
            assert_eq!(leaves::<PvZipfWorkload>(workers), 2 * workers.max(2) as usize);
            assert_eq!(leaves::<OdWorkload>(workers), workers as usize);
            assert_eq!(leaves::<ShWorkload>(workers), workers as usize);
        }
    }

    /// The forest cell's defining property: its plan really is a forest,
    /// one partition per worker slot.
    #[test]
    fn forest_cell_scales_partitions_with_workers() {
        for workers in [1u32, 2, 4, 8] {
            let plan = PvForestWorkload::for_scale(workers, 20, 2).plan();
            assert_eq!(plan.roots().len(), workers as usize);
            assert!(plan.iter().all(|(_, w)| !w.itags.is_empty()), "no coordinator");
        }
    }
}
