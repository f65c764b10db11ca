//! End-to-end semantics of forest-native synchronization plans (the
//! multi-root refactor's acceptance gate):
//!
//! 1. On the page-view forest workload the synthetic root is **gone**:
//!    the optimizer emits one root per dependence component, and — by
//!    comparison with a hand-welded single-root plan reproducing the old
//!    shape — the former coordinator performed 0 joins anyway (its only
//!    runtime job was the seeding fork, which the drivers now do
//!    directly), while *breaking* root checkpointing. `RunEffects` is the
//!    instrument for both claims.
//! 2. Multi-root plans match the sequential specification on the
//!    simulator, on real threads under every channel mode, and under the
//!    seeded adversarial delivery scheduler on *deep* forests (two
//!    independent trees of depth 2–5 each), across seeds.
//! 3. Per-partition checkpointing works on forests — every partition
//!    root snapshots its own joins.

use std::sync::Arc;

use flumina::api::{Backend, Job, ThreadRunOptions};
use flumina::apps::page_view::{PageViewJoin, PvTag, PvWorkload};
use flumina::core::event::{Event, StreamId, StreamItem};
use flumina::core::examples::{KcTag, KeyCounter};
use flumina::core::spec::{run_sequential, sort_o};
use flumina::core::tag::ITag;
use flumina::plan::plan::{Location, Plan, PlanBuilder};
use flumina::plan::validity::check_valid_for_program;
use flumina::runtime::sim_driver::{build_sim, SimConfig};
use flumina::runtime::source::PacedSource;
use flumina::sim::{LinkSpec, Topology};

fn pv_workload() -> PvWorkload {
    PvWorkload { pages: 3, view_streams_per_page: 2, views_per_update: 30, updates: 3 }
}

fn pv_spec(w: &PvWorkload) -> Vec<flumina::apps::page_view::PvOut> {
    let merged = sort_o(&w.scheduled_streams(6));
    run_sequential(&PageViewJoin, &merged).1
}

/// The old optimizer shape for a 2-page workload: a synthetic tagless
/// coordinator welding the two per-page trees into one rooted tree.
fn welded_page_view(w: &PvWorkload) -> Plan<PvTag> {
    assert_eq!(w.pages, 2, "weld helper builds the classic 2-page shape");
    let mut b = PlanBuilder::new();
    let itags = w.itags();
    let page_tags = |page: u32| {
        let views: Vec<ITag<PvTag>> = itags
            .iter()
            .filter(|t| t.tag == PvTag::View(page))
            .cloned()
            .collect();
        let update = itags
            .iter()
            .find(|t| t.tag == PvTag::Update(page))
            .cloned()
            .expect("update tag");
        (views, update)
    };
    let mut roots = Vec::new();
    for page in 0..2 {
        let (views, update) = page_tags(page);
        assert_eq!(views.len(), 2);
        let upd = b.add([update], Location(0));
        for v in views {
            let leaf = b.add([v], Location(v.stream.0));
            b.attach(upd, leaf);
        }
        roots.push(upd);
    }
    let weld = b.add([], Location(0));
    b.attach(weld, roots[0]);
    b.attach(weld, roots[1]);
    b.build(weld)
}

/// Acceptance criterion: the forest plan has one root per page, the
/// welded coordinator of the old shape performs 0 joins (`RunEffects`),
/// and both plans produce the sequential specification — so deleting the
/// coordinator loses nothing and saves a worker, its thread, its edges,
/// and its seeding fork round-trip.
#[test]
fn former_coordinator_performs_zero_joins_and_forest_drops_it() {
    let w = PvWorkload { pages: 2, view_streams_per_page: 2, views_per_update: 25, updates: 4 };
    let spec = {
        let mut s = pv_spec(&w);
        s.sort();
        s
    };

    // Old shape: hand-welded single root.
    let welded = welded_page_view(&w);
    let universe = w.itags().into_iter().collect();
    check_valid_for_program(&welded, &PageViewJoin, &universe).unwrap();
    let weld_id = welded.root();
    assert!(welded.worker(weld_id).itags.is_empty(), "the coordinator is tagless");
    let result = Job::new(PageViewJoin, w.scheduled_streams(6))
        .with_plan(welded.clone())
        .checkpoint_roots(true)
        .run(Backend::threads());
    let mut got: Vec<_> = result.outputs.iter().map(|(o, _)| *o).collect();
    got.sort();
    assert_eq!(got, spec, "welded plan still satisfies Theorem 3.5");
    // The coordinator never joins or updates; its entire runtime
    // contribution is the single seeding fork...
    assert_eq!(result.effects.joins[weld_id.0], 0, "former coordinator performs 0 joins");
    assert_eq!(result.effects.updates[weld_id.0], 0);
    assert_eq!(result.effects.forks[weld_id.0], 1, "seeding fork only");
    // ...and it *breaks* checkpointing: the root never joins, so a
    // single-root page-view deployment cannot snapshot at all.
    assert!(result.checkpoints.is_empty(), "welded root never checkpoints");

    // New shape: the optimizer's forest.
    let forest = w.plan();
    check_valid_for_program(&forest, &PageViewJoin, &universe).unwrap();
    assert_eq!(forest.roots().len(), 2, "one root per dependence component");
    assert!(forest.iter().all(|(_, wk)| !wk.itags.is_empty()), "no tagless worker at all");
    let result = Job::new(PageViewJoin, w.scheduled_streams(6))
        .with_plan(forest.clone())
        .checkpoint_roots(true)
        .run(Backend::threads());
    let mut got: Vec<_> = result.outputs.iter().map(|(o, _)| *o).collect();
    got.sort();
    assert_eq!(got, spec, "forest plan satisfies Theorem 3.5");
    // Joins happen exactly at the per-page update roots, one per update.
    for &root in forest.roots() {
        assert_eq!(result.effects.joins[root.0], w.updates, "root {root} joins its updates");
        // Per-partition checkpointing now works: one snapshot per join.
        let cps = result.checkpoints.iter().filter(|(r, _, _)| *r == root).count() as u64;
        assert_eq!(cps, w.updates, "root {root} snapshots each join");
    }
    let total_joins: u64 = result.effects.joins.iter().sum();
    assert_eq!(total_joins, w.pages as u64 * w.updates, "no join anywhere else");
}

/// Sequential-spec equivalence of the multi-root page-view plan on real
/// threads, on both edge storages (mutex deques on one shard, rings
/// above).
#[test]
fn forest_matches_spec_on_threads_all_channel_modes() {
    let w = pv_workload();
    let forest = w.plan();
    assert_eq!(forest.roots().len(), 3);
    let spec = {
        let mut s = pv_spec(&w);
        s.sort();
        s
    };
    for threads in [1usize, 2, 4] {
        let result = Job::new(PageViewJoin, w.scheduled_streams(6))
            .with_plan(forest.clone())
            .run(Backend::Threads(ThreadRunOptions {
                executor_threads: Some(threads),
                record_timing: true,
                ..Default::default()
            }));
        let mode = result.timing.as_ref().expect("timing requested").channel_mode;
        assert_eq!(mode, if threads == 1 { "per-edge" } else { "per-edge-ring" });
        let mut got: Vec<_> = result.outputs.iter().map(|(o, _)| *o).collect();
        got.sort();
        assert_eq!(got, spec, "mode {mode:?} diverged from the sequential spec");
    }
}

/// Sequential-spec equivalence of the multi-root page-view plan on the
/// simulator (each page's sources paced independently).
#[test]
fn forest_matches_spec_on_simulator() {
    let w = pv_workload();
    let forest = w.plan();
    let nodes = w
        .paced_sources(1_000, 10)
        .iter()
        .map(|s| s.location.0 + 1)
        .max()
        .unwrap();
    let cfg = SimConfig::new(Topology::uniform(nodes, LinkSpec::default()));
    let (mut engine, handles) =
        build_sim(Arc::new(PageViewJoin), &forest, w.paced_sources(1_000, 10), cfg);
    let outcome = engine.run(None, u64::MAX);
    assert_eq!(outcome, flumina::sim::engine::RunOutcome::QueueEmpty);
    // The paced schedule is reconstructible: every source emits its
    // events at multiples of its period, which is exactly what
    // `scheduled_streams` describes tick-wise — compare multisets of
    // outputs per page instead of timestamps.
    let outputs = handles.outputs.borrow();
    assert_eq!(outputs.len() as u64, w.total_events());
    // Every page's updates produced exactly `updates` OldMetadata
    // outputs, and metadata values chain correctly per page.
    for page in 0..w.pages {
        let metas: Vec<i64> = outputs
            .iter()
            .filter_map(|(o, _)| match o {
                flumina::apps::page_view::PvOut::OldMetadata(p, v) if *p == page => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(metas.len() as u64, w.updates, "page {page}");
        // First update returns the default, later ones the prior value.
        assert_eq!(metas[0], flumina::apps::page_view::DEFAULT_META);
        for (j, v) in metas.iter().enumerate().skip(1) {
            assert_eq!(*v, (page as i64 + 1) * 100 + (j as i64 - 1), "page {page} chain");
        }
    }
}

// ---------------------------------------------------------------------
// Deep forests under adversarial delivery.
// ---------------------------------------------------------------------

/// One input stream description (mirrors `PacedSource` so the sequential
/// specification can be computed from the same data).
#[derive(Clone, Debug)]
struct Src {
    itag: ITag<KcTag>,
    location: Location,
    start: u64,
    period: u64,
    count: u64,
    hb_period: u64,
}

impl Src {
    fn paced(&self) -> PacedSource<KcTag, ()> {
        PacedSource::new(self.itag, self.location, self.period, self.count, |_| ())
            .starting_at(self.start)
            .heartbeat_every(self.hb_period)
    }

    fn items(&self) -> Vec<StreamItem<KcTag, ()>> {
        (0..self.count)
            .map(|i| {
                StreamItem::Event(Event::new(
                    self.itag.tag,
                    self.itag.stream,
                    self.start + i * self.period,
                    (),
                ))
            })
            .collect()
    }
}

/// A forest of `trees` independent deep trees (each the hazard-maximizing
/// shape of `tests/adversarial_delivery.rs`, on its own pair of keys):
/// an internal read-reset owner whose heartbeats race join requests, an
/// ancestor-owned dependent stream, and relay internals at depth ≥ 4.
fn deep_forest(depth: usize, trees: u32) -> (Plan<KcTag>, Vec<Src>) {
    assert!(depth >= 2);
    let mut b = PlanBuilder::new();
    let mut srcs: Vec<Src> = Vec::new();
    let mut next_stream = 0u32;
    let mut next_loc = 0u32;
    for t in 0..trees {
        let key_a = 2 * t + 1; // read-reset + fast increments
        let key_b = 2 * t + 2; // relay siblings' independent increments
        let mut alloc = |srcs: &mut Vec<Src>, tag, start: u64, period: u64, count: u64, hb: u64| {
            let s = next_stream;
            next_stream += 1;
            let loc = next_loc;
            next_loc += 1;
            srcs.push(Src {
                itag: ITag::new(tag, StreamId(s)),
                location: Location(loc),
                start,
                period,
                count,
                hb_period: hb,
            });
            (ITag::new(tag, StreamId(s)), Location(loc))
        };
        let (rr_itag, rr_loc) =
            alloc(&mut srcs, KcTag::ReadReset(key_a), 400_000, 400_000, 3, 25_000);
        let rr = b.add([rr_itag], rr_loc);
        for _ in 0..2 {
            let (itag, loc) = alloc(&mut srcs, KcTag::Inc(key_a), 2_000, 2_000, 500, 10_000);
            let leaf = b.add([itag], loc);
            b.attach(rr, leaf);
        }
        let mut top = rr;
        if depth >= 3 {
            for _ in 0..depth - 3 {
                let relay = b.add([], Location(0));
                let (itag, loc) =
                    alloc(&mut srcs, KcTag::Inc(key_b), 50_000, 50_000, 15, 100_000);
                let sib = b.add([itag], loc);
                b.attach(relay, top);
                b.attach(relay, sib);
                top = relay;
            }
            let (itag, loc) = alloc(&mut srcs, KcTag::Inc(key_a), 20_000, 20_000, 50, 150_000);
            let root = b.add([itag], loc);
            let (sib_itag, sib_loc) =
                alloc(&mut srcs, KcTag::Inc(key_b), 50_000, 50_000, 15, 100_000);
            let sib = b.add([sib_itag], sib_loc);
            b.attach(root, top);
            b.attach(root, sib);
        }
    }
    (b.build_forest(), srcs)
}

fn run_adversarial_forest(depth: usize, seed: u64, max_jitter_ns: u64) -> Result<(), String> {
    let (plan, srcs) = deep_forest(depth, 2);
    assert_eq!(plan.roots().len(), 2, "two independent deep trees");
    let universe = srcs.iter().map(|s| s.itag).collect();
    check_valid_for_program(&plan, &KeyCounter, &universe)
        .map_err(|e| format!("depth {depth}: generated forest invalid: {e:?}"))?;
    let nodes = srcs.iter().map(|s| s.location.0 + 1).max().unwrap();
    let topo = Topology::uniform(nodes, LinkSpec { latency: 5_000, bytes_per_ns: 10.0 });
    let cfg = SimConfig::new(topo).with_adversary(seed, max_jitter_ns);
    let sources = srcs.iter().map(Src::paced).collect();
    let (mut engine, handles) = build_sim(Arc::new(KeyCounter), &plan, sources, cfg);
    let outcome = engine.run(None, 100_000_000);
    if outcome != flumina::sim::engine::RunOutcome::QueueEmpty {
        return Err(format!("depth {depth} seed {seed}: forest run did not quiesce: {outcome:?}"));
    }
    let lists: Vec<Vec<StreamItem<KcTag, ()>>> = srcs.iter().map(Src::items).collect();
    let merged = sort_o(&lists);
    let (_, mut want) = run_sequential(&KeyCounter, &merged);
    let mut got: Vec<(u32, i64)> = handles.outputs.borrow().iter().map(|(o, _)| *o).collect();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!(
            "depth {depth} seed {seed} jitter {max_jitter_ns}: forest output multiset \
             diverged from the sequential spec\n  got: {got:?}\n want: {want:?}\nplan:\n{}",
            plan.render()
        ));
    }
    Ok(())
}

/// Deep forests × adversarial cross-edge interleavings, depths 2–5: the
/// multi-root acceptance sweep. Per-edge FIFO is the only delivery
/// assumption, and independence across trees must survive arbitrary
/// cross-edge (including cross-partition) reorderings.
#[test]
fn deep_forests_match_spec_under_adversarial_interleavings() {
    let mut failures = Vec::new();
    for depth in [2, 3, 4, 5] {
        for seed in 0..4u64 {
            if let Err(e) = run_adversarial_forest(depth, seed, 120_000) {
                failures.push(e);
            }
        }
    }
    assert!(failures.is_empty(), "{} failing runs:\n{}", failures.len(), failures.join("\n"));
}
