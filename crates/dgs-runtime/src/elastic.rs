//! Elastic hot-partition scale-out: detector and plan surgery.
//!
//! The paper's fork/join (§3.4) is the mechanism for moving load between
//! workers, but the reproduction only ever used it at plan time. This
//! module holds the *decision* side of using it at runtime:
//!
//! - [`ElasticConfig`] — knobs for the controller loop the thread driver
//!   runs next to a live execution;
//! - [`Detector`] — sliding-window rate comparison with hysteresis, fed
//!   by the per-stream [`dgs_metrics::RateEstimator`]s (the pelikan-style
//!   hotkey counter tables);
//! - plan surgery ([`fork_partition_plan`] / [`join_partition_plan`]) —
//!   rebuild one partition's sub-plan around its current tag set, either
//!   splitting the pairwise-independent tags across two fresh leaves or
//!   collapsing the whole tree into one sequential worker.
//!
//! The *mechanism* side — hold, quiesce, state migration, edge rebinding
//! — lives in `thread_driver`, which is the only place with access to the
//! live task slab.

use std::collections::BTreeSet;
use std::time::Duration;

use dgs_core::program::DgsProgram;
use dgs_core::tag::ITag;
use dgs_plan::plan::{sequential_plan, Location, Plan, PlanBuilder, WorkerId};
use dgs_plan::validity::check_plan_for_program;

/// Knobs for the elastic replan controller (`ThreadRunOptions::elastic`).
#[derive(Clone, Debug)]
pub struct ElasticConfig {
    /// Controller tick period: rates are sampled and decisions made at
    /// this cadence.
    pub interval: Duration,
    /// A partition is *hot* when its arrival rate is at least this
    /// multiple of the mean partition rate.
    pub hot_ratio: f64,
    /// A partition is *cold* when its arrival rate is at most this
    /// multiple of the mean partition rate.
    pub cold_ratio: f64,
    /// Hysteresis: a partition must stay hot (or cold) for this many
    /// consecutive ticks before a replan triggers — bursts don't thrash.
    pub hold_ticks: u32,
    /// Warm-up guard: no decisions until the run has fed at least this
    /// many events in total.
    pub min_events: u64,
    /// Hard cap on replans per run.
    pub max_replans: usize,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            interval: Duration::from_millis(5),
            hot_ratio: 2.0,
            cold_ratio: 0.5,
            hold_ticks: 2,
            min_events: 32,
            max_replans: 16,
        }
    }
}

/// Which direction a replan moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplanKind {
    /// A hot sequential partition was split: independent tags moved onto
    /// two fresh leaves under a synchronizing root.
    Fork,
    /// A cold forked partition was collapsed into one sequential worker.
    Join,
}

impl ReplanKind {
    /// Stable lower-case name for logs and trajectory entries.
    pub fn name(self) -> &'static str {
        match self {
            ReplanKind::Fork => "fork",
            ReplanKind::Join => "join",
        }
    }
}

/// One completed replan, as reported in
/// [`RunReport::replans`](crate::job::RunReport::replans).
#[derive(Clone, Debug)]
pub struct ReplanEvent {
    /// Fork (split) or join (collapse).
    pub kind: ReplanKind,
    /// Index of the affected partition.
    pub partition: usize,
    /// The partition's *original* root worker id (stable across replans;
    /// also the checkpoint tag).
    pub root: WorkerId,
    /// Nanoseconds since the run's metrics epoch when the replan
    /// completed.
    pub at_ns: u64,
    /// How long the affected partition was paused (hold request to
    /// resume), nanoseconds. Other partitions flowed throughout.
    pub pause_ns: u64,
    /// Worker count of the partition before the replan.
    pub workers_before: usize,
    /// Worker count after.
    pub workers_after: usize,
    /// The partition arrival rate (events/second) that triggered the
    /// decision.
    pub trigger_rate_eps: f64,
}

/// What the detector wants done to a partition this tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Split this (currently sequential) hot partition.
    Fork(usize),
    /// Collapse this (currently forked) cold partition.
    Join(usize),
}

/// Sliding-window hot/cold partition detector with hysteresis.
///
/// Fed one arrival-rate and one backlog sample per partition per tick; a
/// partition must exceed `hot_ratio`× the mean (or fall below
/// `cold_ratio`×) for `hold_ticks` *consecutive* ticks — while staying
/// eligible throughout — before a decision fires. The *hot* side
/// measures pressure, `arrivals + backlog`: a partition whose queues
/// grow is overloaded even when its drain rate looks average. The
/// *cold* side measures arrivals alone: under saturating ingress
/// backpressure every partition's queues sit near their caps, and
/// folding that uniform backlog into the cold signal would flatten the
/// very skew it must detect. At most one decision per tick,
/// hottest/coldest first; a fired partition's streak resets so it
/// cannot re-trigger while the migration is still settling.
#[derive(Debug)]
pub struct Detector {
    hot_ratio: f64,
    cold_ratio: f64,
    hold_ticks: u32,
    hot_streak: Vec<u32>,
    cold_streak: Vec<u32>,
}

impl Detector {
    /// A detector over `partitions` partitions with the given thresholds.
    pub fn new(partitions: usize, cfg: &ElasticConfig) -> Self {
        Detector {
            hot_ratio: cfg.hot_ratio,
            cold_ratio: cfg.cold_ratio,
            hold_ticks: cfg.hold_ticks.max(1),
            hot_streak: vec![0; partitions],
            cold_streak: vec![0; partitions],
        }
    }

    /// Feed one tick of per-partition arrival rates and queue backlogs.
    /// `can_fork(p)` / `can_join(p)` report structural eligibility (a
    /// sequential partition with ≥ 2 independent tags can fork; a
    /// forked one can join).
    pub fn observe(
        &mut self,
        arrivals: &[f64],
        backlog: &[f64],
        can_fork: impl Fn(usize) -> bool,
        can_join: impl Fn(usize) -> bool,
    ) -> Option<Decision> {
        assert_eq!(arrivals.len(), self.hot_streak.len(), "partition count is fixed");
        assert_eq!(arrivals.len(), backlog.len(), "one backlog sample per partition");
        if arrivals.is_empty() {
            return None;
        }
        let cold_mean = arrivals.iter().sum::<f64>() / arrivals.len() as f64;
        if cold_mean <= 0.0 {
            // Nothing flowing: decay every streak.
            self.hot_streak.fill(0);
            self.cold_streak.fill(0);
            return None;
        }
        let pressure: Vec<f64> =
            arrivals.iter().zip(backlog).map(|(a, b)| a + b).collect();
        let hot_mean = pressure.iter().sum::<f64>() / pressure.len() as f64;
        for (p, (&a, &pr)) in arrivals.iter().zip(&pressure).enumerate() {
            if pr >= self.hot_ratio * hot_mean && can_fork(p) {
                self.hot_streak[p] += 1;
            } else {
                self.hot_streak[p] = 0;
            }
            if a <= self.cold_ratio * cold_mean && can_join(p) {
                self.cold_streak[p] += 1;
            } else {
                self.cold_streak[p] = 0;
            }
        }
        // Hottest ripe partition first; otherwise the coldest ripe one.
        let hottest = (0..arrivals.len())
            .filter(|&p| self.hot_streak[p] >= self.hold_ticks)
            .max_by(|&a, &b| pressure[a].total_cmp(&pressure[b]));
        if let Some(p) = hottest {
            self.hot_streak[p] = 0;
            return Some(Decision::Fork(p));
        }
        let coldest = (0..arrivals.len())
            .filter(|&p| self.cold_streak[p] >= self.hold_ticks)
            .min_by(|&a, &b| arrivals[a].total_cmp(&arrivals[b]));
        if let Some(p) = coldest {
            self.cold_streak[p] = 0;
            return Some(Decision::Join(p));
        }
        None
    }
}

/// Greedy maximal pairwise-independent tag set, highest rate first — the
/// tags that can safely live on leaves without a synchronizing ancestor.
fn independent_set<P: DgsProgram>(
    prog: &P,
    itags: &BTreeSet<ITag<P::Tag>>,
    rate_of: &impl Fn(&ITag<P::Tag>) -> f64,
) -> Vec<ITag<P::Tag>> {
    let mut by_rate: Vec<&ITag<P::Tag>> = itags.iter().collect();
    by_rate.sort_by(|a, b| rate_of(b).total_cmp(&rate_of(a)));
    let mut chosen: Vec<ITag<P::Tag>> = Vec::new();
    for t in by_rate {
        let independent = !prog.depends(&t.tag, &t.tag)
            && chosen.iter().all(|u| {
                !prog.depends(&t.tag, &u.tag) && !prog.depends(&u.tag, &t.tag)
            });
        if independent {
            chosen.push(t.clone());
        }
    }
    chosen
}

/// Split a (sequential) partition's tag set into a three-worker tree:
/// a synchronizing root over two leaves that balance the independent
/// tags by rate (LPT). Returns `None` when fewer than two independent
/// tags exist or the resulting plan fails P-validity / protocol
/// executability — the caller then simply skips the replan.
pub fn fork_partition_plan<P: DgsProgram>(
    prog: &P,
    itags: &BTreeSet<ITag<P::Tag>>,
    rate_of: impl Fn(&ITag<P::Tag>) -> f64,
    location: Location,
) -> Option<Plan<P::Tag>> {
    let free = independent_set(prog, itags, &rate_of);
    if free.len() < 2 {
        return None;
    }
    let root_tags: Vec<ITag<P::Tag>> =
        itags.iter().filter(|t| !free.contains(t)).cloned().collect();
    // LPT split of the independent tags across two leaves.
    let (mut left, mut right) = (Vec::new(), Vec::new());
    let (mut lrate, mut rrate) = (0.0f64, 0.0f64);
    for t in free {
        let r = rate_of(&t);
        if lrate <= rrate {
            lrate += r;
            left.push(t);
        } else {
            rrate += r;
            right.push(t);
        }
    }
    if left.is_empty() || right.is_empty() {
        return None;
    }
    let mut b = PlanBuilder::new();
    let root = b.add(root_tags, location);
    let l = b.add(left, location);
    let r = b.add(right, location);
    b.attach(root, l);
    b.attach(root, r);
    let plan = b.build(root);
    check_plan_for_program(&plan, prog, itags).is_ok().then_some(plan)
}

/// Collapse a partition to a single sequential worker owning every tag.
/// Always valid: one worker, its mailbox orders all dependent entries.
pub fn join_partition_plan<T: dgs_core::tag::Tag>(
    itags: impl IntoIterator<Item = ITag<T>>,
    location: Location,
) -> Plan<T> {
    sequential_plan(itags, location)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_core::event::StreamId;
    use dgs_core::examples::{KcTag, KeyCounter};

    fn it(tag: KcTag, s: u32) -> ITag<KcTag> {
        ITag::new(tag, StreamId(s))
    }

    fn cfg() -> ElasticConfig {
        ElasticConfig { hold_ticks: 2, hot_ratio: 2.0, cold_ratio: 0.5, ..Default::default() }
    }

    #[test]
    fn detector_requires_consecutive_hot_ticks() {
        let mut d = Detector::new(4, &cfg());
        let hot = [10.0, 1.0, 1.0, 1.0];
        let calm = [1.0, 1.0, 1.0, 1.0];
        let idle = [0.0; 4];
        assert_eq!(d.observe(&hot, &idle, |_| true, |_| false), None, "one tick is not enough");
        assert_eq!(d.observe(&calm, &idle, |_| true, |_| false), None, "streak broken");
        assert_eq!(d.observe(&hot, &idle, |_| true, |_| false), None);
        assert_eq!(d.observe(&hot, &idle, |_| true, |_| false), Some(Decision::Fork(0)));
        // Streak resets after firing.
        assert_eq!(d.observe(&hot, &idle, |_| true, |_| false), None);
    }

    #[test]
    fn detector_joins_coldest_and_respects_eligibility() {
        let mut d = Detector::new(3, &cfg());
        let rates = [5.0, 0.5, 0.2];
        let idle = [0.0; 3];
        assert_eq!(d.observe(&rates, &idle, |_| false, |_| true), None);
        // Partition 2 is the coldest of the two ripe cold partitions.
        assert_eq!(d.observe(&rates, &idle, |_| false, |_| true), Some(Decision::Join(2)));
        // Ineligible partitions never accumulate streaks.
        let mut d = Detector::new(3, &cfg());
        assert_eq!(d.observe(&rates, &idle, |_| false, |p| p != 2), None);
        assert_eq!(d.observe(&rates, &idle, |_| false, |p| p != 2), Some(Decision::Join(1)));
    }

    #[test]
    fn detector_is_quiet_when_nothing_flows() {
        let mut d = Detector::new(2, &cfg());
        assert_eq!(d.observe(&[0.0, 0.0], &[9.0, 9.0], |_| true, |_| true), None);
    }

    /// Backlog feeds the hot side only. Under saturating backpressure
    /// every partition's queues sit near their caps; that uniform
    /// backlog must not mask a cold arrival pattern — and a partition
    /// with average arrivals but runaway queues must still read as hot.
    #[test]
    fn uniform_backlog_does_not_mask_cold_arrivals() {
        let mut d = Detector::new(3, &cfg());
        let arrivals = [5.0, 0.5, 0.2];
        let full = [1000.0; 3];
        assert_eq!(d.observe(&arrivals, &full, |_| false, |_| true), None);
        assert_eq!(d.observe(&arrivals, &full, |_| false, |_| true), Some(Decision::Join(2)));

        let mut d = Detector::new(3, &cfg());
        let even = [1.0; 3];
        let runaway = [0.0, 500.0, 0.0];
        assert_eq!(d.observe(&even, &runaway, |_| true, |_| false), None);
        assert_eq!(d.observe(&even, &runaway, |_| true, |_| false), Some(Decision::Fork(1)));
    }

    #[test]
    fn fork_plan_hoists_synchronizer_and_splits_independent_tags() {
        let tags: BTreeSet<_> =
            [it(KcTag::ReadReset(1), 0), it(KcTag::Inc(1), 1), it(KcTag::Inc(1), 2)]
                .into_iter()
                .collect();
        let plan = fork_partition_plan(&KeyCounter, &tags, |_| 1.0, Location(3))
            .expect("two independent inc tags can fork");
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.leaf_count(), 2);
        let root = plan.root();
        assert!(plan.worker(root).itags.contains(&it(KcTag::ReadReset(1), 0)));
        // Each leaf owns exactly one inc stream.
        for (id, w) in plan.iter() {
            if id != root {
                assert_eq!(w.itags.len(), 1);
                assert_eq!(w.location, Location(3));
            }
        }
        assert_eq!(plan.all_itags(), tags);
    }

    #[test]
    fn fork_plan_balances_by_rate() {
        // Four independent tags with skewed rates: LPT puts the heavy one
        // alone against the three light ones.
        let tags: BTreeSet<_> = (1..=4).map(|s| it(KcTag::Inc(1), s)).collect();
        let rate = |t: &ITag<KcTag>| if t.stream.0 == 1 { 30.0 } else { 1.0 };
        let plan = fork_partition_plan(&KeyCounter, &tags, rate, Location(0)).expect("forkable");
        let leaf_sizes: Vec<usize> = plan
            .iter()
            .filter(|(_, w)| w.is_leaf())
            .map(|(_, w)| w.itags.len())
            .collect();
        let mut sorted = leaf_sizes.clone();
        sorted.sort();
        assert_eq!(sorted, vec![1, 3], "heavy tag isolated: {leaf_sizes:?}");
    }

    #[test]
    fn fork_plan_refuses_indivisible_tag_sets() {
        // A single inc stream + its read-reset: only one independent tag.
        let tags: BTreeSet<_> =
            [it(KcTag::ReadReset(1), 0), it(KcTag::Inc(1), 1)].into_iter().collect();
        assert!(fork_partition_plan(&KeyCounter, &tags, |_| 1.0, Location(0)).is_none());
    }

    #[test]
    fn join_plan_is_one_worker_owning_everything() {
        let tags: BTreeSet<_> =
            [it(KcTag::ReadReset(1), 0), it(KcTag::Inc(1), 1), it(KcTag::Inc(1), 2)]
                .into_iter()
                .collect();
        let plan = join_partition_plan(tags.clone(), Location(5));
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.all_itags(), tags);
        assert_eq!(plan.worker(plan.root()).location, Location(5));
        assert!(check_plan_for_program(&plan, &KeyCounter, &tags).is_ok());
    }
}
