//! The four workloads and their seeded generator.
//!
//! Everything a program receives is generated here from `(seed, shape)`:
//! payloads, the page permutation, the per-window popularity jitter. The
//! programs under test only ever see the resulting `ScheduledStream`s. The
//! *number* of events, the last tick and the stream layout are functions of
//! the shape alone, so every seed measures the same amount of work; what a
//! seed changes is which pages are hot, how a page's views split over its
//! two streams, and every payload.
//!
//! `--seed 1` is the default. `--seed 2` is the held-out seed: do not tune a
//! change against it, and show that a claimed gain also holds on it.

use flumina::apps::page_view::{PvOut, PvTag};
use flumina::apps::value_barrier::VbTag;
use flumina::core::event::{StreamId, Timestamp};
use flumina::core::tag::ITag;
use flumina::runtime::source::ScheduledStream;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::verify::mix;

/// Names of the workloads, in the order `run` executes them.
pub const NAMES: [&str; 4] = ["vb-wide", "vb-sync", "vb-sync-paced", "pv-forest"];

/// Executor shard count, derived from the host instead of hard-coded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shards {
    /// `S1 = max(1, nproc / 2)`: shards + feeder threads = `nproc`, so the
    /// program is measured and not the OS scheduler.
    Half,
    /// `S2 = nproc`: cross-shard wake-ups and stealing, and the ring plane.
    All,
}

impl Shards {
    pub fn count(self, nproc: usize) -> usize {
        match self {
            Shards::Half => (nproc / 2).max(1),
            Shards::All => nproc.max(1),
        }
    }

    /// The other choice, for the one draw that records what the road not
    /// taken would have measured.
    pub fn other(self) -> Shards {
        match self {
            Shards::Half => Shards::All,
            Shards::All => Shards::Half,
        }
    }
}

/// Value streams of the value-barrier workloads (plus one barrier stream).
pub const VALUE_STREAMS: u32 = 4;

/// Value-barrier: `VALUE_STREAMS` value streams with one event per tick and
/// a barrier every `values_per_window` ticks.
#[derive(Clone, Copy, Debug)]
pub struct VbShape {
    pub values_per_window: u64,
    pub windows: u64,
}

impl VbShape {
    pub fn events(&self) -> u64 {
        (VALUE_STREAMS as u64 * self.values_per_window + 1) * self.windows
    }

    pub fn last_tick(&self) -> Timestamp {
        self.values_per_window * self.windows
    }

    /// Ten heartbeats per window, as in the committed `wallclock` cells.
    pub fn hb_period(&self) -> Timestamp {
        (self.values_per_window / 10).max(1)
    }

    pub fn streams(&self, seed: u64) -> Vec<ScheduledStream<VbTag, i64>> {
        let hb = self.hb_period();
        let mut streams = Vec::with_capacity(VALUE_STREAMS as usize + 1);
        for s in 0..VALUE_STREAMS {
            let mut rng = StdRng::seed_from_u64(mix(seed) ^ s as u64);
            streams.push(
                ScheduledStream::periodic(
                    ITag::new(VbTag::Value, StreamId(s)),
                    1,
                    1,
                    self.last_tick(),
                    |_| (rng.next_u64() % 2001) as i64 - 1000,
                )
                .with_heartbeats(hb)
                .closed(Timestamp::MAX),
            );
        }
        streams.push(
            ScheduledStream::periodic(
                ITag::new(VbTag::Barrier, StreamId(VALUE_STREAMS)),
                self.values_per_window,
                self.values_per_window,
                self.windows,
                |_| 0,
            )
            .with_heartbeats(hb)
            .closed(Timestamp::MAX),
        );
        streams
    }
}

/// Page-view join over a forest: every page has two view streams and one
/// update stream, and pages never interact.
#[derive(Clone, Copy, Debug)]
pub struct PvShape {
    pub pages: u32,
    /// Views per update per stream, averaged over all streams.
    pub mean_views: u64,
    pub windows: u64,
    /// Ticks between two updates of a page. Must exceed the hottest
    /// stream's views in one window, so that each view has its own tick.
    pub window_ticks: u64,
}

impl PvShape {
    fn views_per_window(&self) -> u64 {
        self.pages as u64 * 2 * self.mean_views
    }

    pub fn events(&self) -> u64 {
        (self.views_per_window() + self.pages as u64) * self.windows
    }

    pub fn last_tick(&self) -> Timestamp {
        self.window_ticks * self.windows
    }

    pub fn hb_period(&self) -> Timestamp {
        (self.window_ticks / 10).max(1)
    }

    /// Same stream-id geometry as `dgs_apps::page_view::PvWorkload`.
    fn view_stream(&self, page: u32, slot: u32) -> StreamId {
        StreamId(page * 2 + slot)
    }

    fn update_stream(&self, page: u32) -> StreamId {
        StreamId(self.pages * 2 + page)
    }

    /// Views of each page in each window (`[window][page]`): zipf(1.0)
    /// weights handed to pages by a seeded permutation, jittered per window
    /// by up to a quarter either way, and normalised by largest remainder
    /// so that every window has exactly `views_per_window` views.
    fn page_views(&self, rng: &mut StdRng) -> Vec<Vec<u64>> {
        let n = self.pages as usize;
        let mut rank_of_page: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            rank_of_page.swap(i, rng.gen_range(0..=i));
        }
        let total = self.views_per_window();
        (0..self.windows)
            .map(|_| {
                let raw: Vec<f64> = rank_of_page
                    .iter()
                    .map(|&rank| {
                        let jitter =
                            0.75 + 0.5 * (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                        jitter / (rank + 1) as f64
                    })
                    .collect();
                let sum: f64 = raw.iter().sum();
                let exact: Vec<f64> = raw.iter().map(|r| r / sum * total as f64).collect();
                let mut views: Vec<u64> = exact.iter().map(|e| e.floor() as u64).collect();
                let mut by_fraction: Vec<usize> = (0..n).collect();
                by_fraction.sort_by(|&a, &b| {
                    let (fa, fb) = (exact[a].fract(), exact[b].fract());
                    fb.partial_cmp(&fa).expect("finite").then(a.cmp(&b))
                });
                let short = total - views.iter().sum::<u64>();
                for &p in by_fraction.iter().take(short as usize) {
                    views[p] += 1;
                }
                views
            })
            .collect()
    }

    pub fn streams(&self, seed: u64) -> Vec<ScheduledStream<PvTag, i64>> {
        let mut rng = StdRng::seed_from_u64(mix(seed));
        let page_views = self.page_views(&mut rng);
        let hb = self.hb_period();
        let span = self.window_ticks - 1;
        let mut streams = Vec::with_capacity(self.pages as usize * 3);
        for page in 0..self.pages {
            // Slot 0 takes 40–60 % of the page's views, redrawn each window.
            let slot0: Vec<u64> = page_views
                .iter()
                .map(|views| views[page as usize] * rng.gen_range(40u64..=60) / 100)
                .collect();
            for slot in 0..2u32 {
                let mut times = Vec::new();
                for (w, views) in page_views.iter().enumerate() {
                    let v = match slot {
                        0 => slot0[w],
                        _ => views[page as usize] - slot0[w],
                    };
                    assert!(
                        (1..=span).contains(&v),
                        "page {page} slot {slot} window {w}: {v} views do not fit {span} ticks"
                    );
                    // Spread evenly over ticks 1..window_ticks-1 of the
                    // window; `v <= span` keeps them strictly increasing.
                    let base = w as u64 * self.window_ticks + 1;
                    times.extend((0..v).map(|i| base + i * span / v));
                }
                streams.push(
                    ScheduledStream::at_times(
                        ITag::new(PvTag::View(page), self.view_stream(page, slot)),
                        times,
                        |_| 0,
                    )
                    .with_heartbeats(hb)
                    .closed(Timestamp::MAX),
                );
            }
        }
        for page in 0..self.pages {
            streams.push(
                ScheduledStream::periodic(
                    ITag::new(PvTag::Update(page), self.update_stream(page)),
                    self.window_ticks,
                    self.window_ticks,
                    self.windows,
                    |_| (rng.next_u64() % 100_000) as i64,
                )
                .with_heartbeats(hb)
                .closed(Timestamp::MAX),
            );
        }
        streams
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Shape {
    Vb(VbShape),
    Pv(PvShape),
}

impl Shape {
    pub fn events(&self) -> u64 {
        match self {
            Shape::Vb(s) => s.events(),
            Shape::Pv(s) => s.events(),
        }
    }

    pub fn last_tick(&self) -> Timestamp {
        match self {
            Shape::Vb(s) => s.last_tick(),
            Shape::Pv(s) => s.last_tick(),
        }
    }
}

/// One benchmark workload: a shape, how it is fed and on how many shards.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    /// `Some(ns)`: open loop, the item with tick `t` is due `t * ns` after
    /// the window starts. `None`: everything is due at once.
    pub pace_ns_per_tick: Option<u64>,
    pub shards: Shards,
}

/// Outputs later than this (or missing) count against `on_time_share`.
/// 1 ms is nine times the paced median (105–150 µs), which is as close as
/// the host allows: the median draw of a run has 0.6–8 % of its outputs
/// beyond it with no fault of the program, against 0.2–5 % beyond 2 ms and
/// 1–10 % beyond 0.5 ms (`bench/LATENCY.md` has the draws).
pub const LATENCY_LIMIT_NS: u64 = 1_000_000;

pub fn by_name(name: &str) -> Option<Workload> {
    let (shape, pace_ns_per_tick, shards) = match name {
        // The paper's vb-ratio: 10 000 values per stream per barrier.
        // 12 000 300 events, of which 300 synchronize.
        "vb-wide" => (
            Shape::Vb(VbShape {
                values_per_window: 10_000,
                windows: 300,
            }),
            None,
            Shards::Half,
        ),
        // One fork/join round every 41 events. 6 150 000 events.
        "vb-sync" => (
            Shape::Vb(VbShape {
                values_per_window: 10,
                windows: 150_000,
            }),
            None,
            Shards::Half,
        ),
        // The vb-sync shape at 820 k events/s offered: 3 280 000 events,
        // last tick 800 000, so one draw lasts 4.0 s.
        "vb-sync-paced" => (
            Shape::Vb(VbShape {
                values_per_window: 10,
                windows: 80_000,
            }),
            Some(5_000),
            Shards::Half,
        ),
        // 64 trees of (update root, two view leaves). 6 406 400 events.
        "pv-forest" => (
            Shape::Pv(PvShape {
                pages: 64,
                mean_views: 500,
                windows: 100,
                window_ticks: 16_384,
            }),
            None,
            Shards::All,
        ),
        _ => return None,
    };
    let name = NAMES
        .iter()
        .find(|n| **n == name)
        .expect("NAMES lists every workload");
    Some(Workload {
        name,
        shape,
        pace_ns_per_tick,
        shards,
    })
}

/// Key of one value-barrier output for the multiset comparison: the window
/// sum together with the tick of the barrier that produced it.
pub fn vb_out_key(out: &i64, ts: Timestamp) -> u64 {
    mix(ts) ^ (*out as u64)
}

/// Key of one page-view output: variant, page and metadata together with
/// the tick of the event that produced it.
pub fn pv_out_key(out: &PvOut, ts: Timestamp) -> u64 {
    let (variant, page, meta) = match *out {
        PvOut::JoinedView(page, meta) => (0u64, page, meta),
        PvOut::OldMetadata(page, meta) => (1u64, page, meta),
    };
    mix(ts) ^ mix((variant << 63) | ((page as u64) << 32) | (meta as u64 & 0xFFFF_FFFF))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flumina::core::tag::Tag;

    /// Events, last event tick and strict per-stream monotonicity of a
    /// generated stream set.
    fn census<T: Tag, P: Clone>(streams: &[ScheduledStream<T, P>]) -> (u64, Timestamp) {
        let mut events = 0;
        let mut last_tick = 0;
        for s in streams {
            let ticks: Vec<Timestamp> = s.items.iter().map(|i| i.ts()).collect();
            assert!(
                ticks.windows(2).all(|w| w[0] < w[1]),
                "stream {:?} is not strictly increasing",
                s.itag
            );
            assert_eq!(
                *ticks.last().unwrap(),
                Timestamp::MAX,
                "stream {:?} is not closed",
                s.itag
            );
            assert!(s.items.last().unwrap().is_heartbeat());
            events += s.events().count() as u64;
            last_tick = last_tick.max(s.events().map(|e| e.ts).max().unwrap());
        }
        (events, last_tick)
    }

    #[test]
    fn shapes_have_the_documented_sizes() {
        let events = |n| by_name(n).unwrap().shape.events();
        assert_eq!(events("vb-wide"), 12_000_300);
        assert_eq!(events("vb-sync"), 6_150_000);
        assert_eq!(events("vb-sync-paced"), 3_280_000);
        assert_eq!(events("pv-forest"), 6_406_400);
        let paced = by_name("vb-sync-paced").unwrap();
        assert_eq!(
            paced.shape.last_tick() * paced.pace_ns_per_tick.unwrap(),
            4_000_000_000
        );
        assert!(by_name("nope").is_none());
        assert!(NAMES.iter().all(|n| by_name(n).unwrap().name == *n));
    }

    #[test]
    fn vb_totals_hold_for_both_seeds_and_payloads_differ() {
        // The vb-sync shape with fewer windows; same generator code.
        let shape = VbShape {
            values_per_window: 10,
            windows: 500,
        };
        let (a, b) = (shape.streams(1), shape.streams(2));
        for streams in [&a, &b] {
            assert_eq!(streams.len(), VALUE_STREAMS as usize + 1);
            assert_eq!(census(streams), (shape.events(), shape.last_tick()));
        }
        let payloads = |s: &[ScheduledStream<VbTag, i64>]| -> Vec<i64> {
            s[0].events().map(|e| e.payload).collect()
        };
        assert_ne!(
            payloads(&a),
            payloads(&b),
            "the seed must change the payloads"
        );
        assert_eq!(
            payloads(&a),
            payloads(&shape.streams(1)),
            "same seed, same inputs"
        );
        assert!(payloads(&a).iter().all(|p| (-1000..=1000).contains(p)));
    }

    #[test]
    fn vb_wide_window_has_ten_heartbeats_on_the_barrier_stream() {
        let shape = VbShape {
            values_per_window: 10_000,
            windows: 2,
        };
        let streams = shape.streams(1);
        assert_eq!(census(&streams), (shape.events(), 20_000));
        let barrier = streams.last().unwrap();
        // Heartbeats at 1000, 2000, … except on the two barrier ticks, plus
        // the closing one.
        assert_eq!(
            barrier.items.iter().filter(|i| i.is_heartbeat()).count(),
            18 + 1
        );
    }

    #[test]
    fn pv_totals_hold_for_both_seeds_and_hot_pages_differ() {
        // The pv-forest shape with fewer windows; same generator code.
        let shape = PvShape {
            pages: 64,
            mean_views: 500,
            windows: 6,
            window_ticks: 16_384,
        };
        let hottest = |streams: &[ScheduledStream<PvTag, i64>]| -> u32 {
            let views =
                |p: usize| streams[2 * p].events().count() + streams[2 * p + 1].events().count();
            (0..64).max_by_key(|&p| views(p)).unwrap() as u32
        };
        let (a, b) = (shape.streams(1), shape.streams(2));
        for streams in [&a, &b] {
            assert_eq!(streams.len(), 192);
            assert_eq!(census(streams), (shape.events(), shape.last_tick()));
            // Every view of a window precedes the page's update of it.
            for e in streams[0].events() {
                assert_ne!(e.ts % shape.window_ticks, 0);
            }
            // zipf(1.0) over 64 pages: the hottest page has about a fifth.
            let hot = hottest(streams) as usize;
            let share = (streams[2 * hot].events().count() + streams[2 * hot + 1].events().count())
                as f64
                / (shape.views_per_window() * shape.windows) as f64;
            assert!(
                (0.15..0.30).contains(&share),
                "hottest page has {share} of the views"
            );
        }
        assert_ne!(hottest(&a), hottest(&b), "the seed must move the hot page");
        let ticks = |s: &[ScheduledStream<PvTag, i64>]| -> Vec<Timestamp> {
            s[5].items.iter().map(|i| i.ts()).collect()
        };
        assert_eq!(
            ticks(&a),
            ticks(&shape.streams(1)),
            "same seed, same inputs"
        );
    }

    #[test]
    fn shard_counts_follow_the_host() {
        assert_eq!((Shards::Half.count(1), Shards::All.count(1)), (1, 1));
        assert_eq!((Shards::Half.count(2), Shards::All.count(2)), (1, 2));
        assert_eq!((Shards::Half.count(8), Shards::All.count(8)), (4, 8));
        assert_eq!(Shards::Half.other(), Shards::All);
    }

    #[test]
    fn output_keys_separate_variant_page_metadata_and_tick() {
        let base = pv_out_key(&PvOut::JoinedView(3, 10_000), 7);
        assert_ne!(base, pv_out_key(&PvOut::OldMetadata(3, 10_000), 7));
        assert_ne!(base, pv_out_key(&PvOut::JoinedView(4, 10_000), 7));
        assert_ne!(base, pv_out_key(&PvOut::JoinedView(3, 10_001), 7));
        assert_ne!(base, pv_out_key(&PvOut::JoinedView(3, 10_000), 8));
        assert_ne!(vb_out_key(&5, 7), vb_out_key(&5, 8));
        assert_ne!(vb_out_key(&5, 7), vb_out_key(&-5, 7));
    }
}
