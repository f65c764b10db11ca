//! Property tests of the selective-reordering mailbox: for arbitrary
//! dependence relations and arbitrary arrival interleavings,
//!
//! 1. no entry is lost or duplicated once closing heartbeats arrive;
//! 2. dependent entries are released in `O` order;
//! 3. releases never happen "too early": when an entry is released, every
//!    dependent entry with a smaller key has already been released.
//!
//! A second generator ([`arb_script`]) adds what the first leaves out —
//! tags sharing a stream, per-stream clocks (so entries arrive out of `O`
//! order across tags), mid-run heartbeats, and join requests on
//! ancestor-owned tags (`own ⊂ relevant`, the `skip_timer` rule) — and
//! over it,
//!
//! 4. the index-addressed, release-on-arrival mailbox releases exactly
//!    what a naive reference written from the §3.4 definition releases
//!    (ordered maps, buffer-then-cascade), in the same order, after
//!    every call;
//! 5. every call reaches the fixpoint: no buffered head satisfies both
//!    release conditions afterwards (what a wrongly skipped cascade
//!    would break);
//! 6. a tag repeated in `relevant` counts once.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dgs_core::depends::{Dependence, TableDependence};
use dgs_core::event::{Event, Heartbeat, OrderKey, StreamId};
use dgs_core::tag::ITag;
use dgs_runtime::mailbox::{Entry, Mailbox};

/// A generated workload: up to 4 tags (0..4) on distinct streams, a
/// random symmetric dependence, random per-tag event counts, and a
/// random interleaving for arrival order.
#[derive(Debug, Clone)]
struct Workload {
    deps: Vec<(u8, u8)>,
    counts: Vec<u8>,
    /// Arrival order: sequence of tag indices (consumed per-tag FIFO).
    arrival: Vec<u8>,
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (
        prop::collection::vec((0u8..4, 0u8..4), 0..6),
        prop::collection::vec(1u8..8, 2..5),
    )
        .prop_flat_map(|(deps, counts)| {
            let order: Vec<u8> = counts
                .iter()
                .enumerate()
                .flat_map(|(t, &c)| std::iter::repeat_n(t as u8, c as usize))
                .collect();
            Just(order)
                .prop_shuffle()
                .prop_map(move |arrival| Workload {
                    deps: deps.clone(),
                    counts: counts.clone(),
                    arrival,
                })
                .prop_filter("non-empty", |w| !w.arrival.is_empty())
        })
}

fn run_workload(w: &Workload) -> (Vec<Entry<u8, u64>>, TableDependence<u8>) {
    let ntags = w.counts.len() as u8;
    let dep = TableDependence::from_pairs(
        w.deps.iter().map(|&(a, b)| (a % ntags, b % ntags)),
    );
    let itags: Vec<ITag<u8>> = (0..ntags).map(|t| ITag::new(t, StreamId(t as u32))).collect();
    let d2 = dep.clone();
    let mut mb: Mailbox<u8, u64> =
        Mailbox::new(itags.clone(), itags, move |a, b| d2.depends(a, b));
    let mut next_ts = vec![0u64; ntags as usize];
    let mut released = Vec::new();
    let mut global = 0u64;
    for &t in &w.arrival {
        let t = t % ntags;
        // Strictly increasing per stream, globally unique-ish timestamps.
        global += 1;
        next_ts[t as usize] = global;
        released.extend(mb.insert(Entry::Event(Event::new(t, StreamId(t as u32), global, global))));
    }
    // Close every stream.
    for t in 0..ntags {
        released.extend(mb.heartbeat(&Heartbeat::new(t, StreamId(t as u32), u64::MAX)));
    }
    (released, dep)
}

/// Two mutually dependent tags on one stream and two entries with the
/// same key — which no well-formed input contains, timestamps being
/// strictly increasing along a stream. The tie is the one case in which
/// an entry released on arrival makes a dependent head releasable, so it
/// pins the follow-up cascade: the mailbox must still end at its
/// fixpoint, not with a releasable head left buffered.
#[test]
fn a_key_tie_still_ends_at_the_fixpoint() {
    let tags = [ITag::new(0u8, StreamId(0)), ITag::new(1u8, StreamId(0))];
    let mut mb: Mailbox<u8, u64> = Mailbox::new(tags, tags, |a, b| a != b);
    let tied = |tag| Entry::Event(Event::new(tag, StreamId(0), 5, 0));
    assert!(mb.insert(tied(1)).is_empty(), "tag 0's timer has not reached ts 5");
    assert_eq!(mb.insert(tied(0)), vec![tied(0), tied(1)]);
    assert_eq!(mb.buffered(), 0);
}

/// One call on a mailbox.
#[derive(Debug, Clone)]
enum Op {
    Insert(Entry<u8, u64>),
    Heartbeat(Heartbeat<u8>),
}

/// A generated call sequence over up to 5 tags: tag `t` arrives on stream
/// `streams[t]` (tags may share one), is the worker's own iff bit `t` of
/// `own_mask` is set, and `ops` holds `(tag, kind, step)` — kind 2 is a
/// heartbeat, anything else an entry (an event on an own tag, a join
/// request on an ancestor-owned one) — stamped `step` ticks further along
/// its stream's clock. Keys are therefore distinct and increasing per
/// stream, as the runtime's are, while tags on different streams arrive
/// in any relative order.
#[derive(Debug, Clone)]
struct Script {
    ntags: u8,
    deps: Vec<(u8, u8)>,
    streams: Vec<u8>,
    own_mask: u8,
    ops: Vec<(u8, u8, u64)>,
}

fn arb_script() -> impl Strategy<Value = Script> {
    (
        2u8..6,
        prop::collection::vec((0u8..5, 0u8..5), 0..8),
        prop::collection::vec(0u8..3, 5..6),
        0u8..32,
        prop::collection::vec((0u8..5, 0u8..3, 1u64..4), 1..48),
    )
        .prop_map(|(ntags, deps, streams, own_mask, ops)| Script {
            ntags,
            deps,
            streams,
            own_mask,
            ops,
        })
}

impl Script {
    fn itag(&self, t: u8) -> ITag<u8> {
        ITag::new(t, StreamId(self.streams[t as usize] as u32))
    }

    fn itags(&self) -> Vec<ITag<u8>> {
        (0..self.ntags).map(|t| self.itag(t)).collect()
    }

    fn is_own(&self, t: u8) -> bool {
        self.own_mask & (1 << t) != 0
    }

    fn own(&self) -> Vec<ITag<u8>> {
        (0..self.ntags).filter(|&t| self.is_own(t)).map(|t| self.itag(t)).collect()
    }

    fn dependence(&self) -> TableDependence<u8> {
        let n = self.ntags;
        TableDependence::from_pairs(self.deps.iter().map(|&(a, b)| (a % n, b % n)))
    }

    /// The calls, closing heartbeats for every tag last.
    fn calls(&self) -> Vec<Op> {
        let mut clock = [0u64; 3];
        let mut calls: Vec<Op> = self
            .ops
            .iter()
            .map(|&(t, kind, step)| {
                let ITag { tag, stream } = self.itag(t % self.ntags);
                let now = &mut clock[stream.0 as usize];
                *now += step;
                match kind {
                    2 => Op::Heartbeat(Heartbeat::new(tag, stream, *now)),
                    _ if self.is_own(tag) => {
                        Op::Insert(Entry::Event(Event::new(tag, stream, *now, *now)))
                    }
                    _ => Op::Insert(Entry::JoinRequest { tag, stream, ts: *now }),
                }
            })
            .collect();
        let close = |i: ITag<u8>| Op::Heartbeat(Heartbeat::new(i.tag, i.stream, u64::MAX));
        calls.extend(self.itags().into_iter().map(close));
        calls
    }

    fn mailbox(&self, relevant: Vec<ITag<u8>>) -> Mailbox<u8, u64> {
        let dep = self.dependence();
        Mailbox::new(relevant, self.own(), move |a, b| dep.depends(a, b))
    }
}

/// Apply one call through the `_into` forms, as a worker does.
fn apply(mb: &mut Mailbox<u8, u64>, op: &Op) -> Vec<Entry<u8, u64>> {
    let mut out = VecDeque::new();
    match op {
        Op::Insert(e) => mb.insert_into(e.clone(), &mut out),
        Op::Heartbeat(hb) => drop(mb.heartbeat_into(hb, &mut out)),
    }
    out.into()
}

/// The §3.4 mailbox, naively: ordered maps keyed by tag, every entry
/// buffered before the cascade looks at it.
struct ReferenceMailbox {
    buffers: BTreeMap<ITag<u8>, VecDeque<Entry<u8, u64>>>,
    timers: BTreeMap<ITag<u8>, OrderKey>,
    /// Dependent tags of each tag (itself included when self-dependent),
    /// in tag order.
    deps: BTreeMap<ITag<u8>, Vec<ITag<u8>>>,
    own: BTreeSet<ITag<u8>>,
}

impl ReferenceMailbox {
    fn new(script: &Script) -> Self {
        let tags: BTreeSet<ITag<u8>> = script.itags().into_iter().collect();
        let dep = script.dependence();
        let zero = OrderKey { ts: 0, stream: StreamId(0) };
        ReferenceMailbox {
            buffers: tags.iter().map(|t| (*t, VecDeque::new())).collect(),
            timers: tags.iter().map(|t| (*t, zero)).collect(),
            deps: tags
                .iter()
                .map(|a| {
                    (*a, tags.iter().filter(|b| dep.depends(&a.tag, &b.tag)).copied().collect())
                })
                .collect(),
            own: script.own().into_iter().collect(),
        }
    }

    fn apply(&mut self, op: &Op) -> Vec<Entry<u8, u64>> {
        let (itag, key) = match op {
            Op::Insert(e) => (e.itag(), e.order_key()),
            Op::Heartbeat(hb) => (hb.itag(), OrderKey { ts: hb.ts, stream: hb.stream }),
        };
        let timer = self.timers.get_mut(&itag).expect("scripts only use tracked tags");
        *timer = (*timer).max(key);
        if let Op::Insert(e) = op {
            self.buffers.get_mut(&itag).expect("tracked").push_back(e.clone());
        }
        let mut released = Vec::new();
        let mut workset = vec![itag];
        workset.extend(self.deps[&itag].iter().copied());
        while let Some(tag) = workset.pop() {
            while self.head_is_releasable(&tag) {
                for d in self.deps[&tag].iter().chain([&tag]) {
                    if !workset.contains(d) {
                        workset.push(*d);
                    }
                }
                released.extend(self.buffers.get_mut(&tag).expect("tracked").pop_front());
            }
        }
        released
    }

    fn head_is_releasable(&self, tag: &ITag<u8>) -> bool {
        let Some(head) = self.buffers[tag].front() else { return false };
        let key = head.order_key();
        let is_join = matches!(head, Entry::JoinRequest { .. });
        self.deps[tag].iter().filter(|d| *d != tag).all(|d| {
            let timer_passed = (is_join && !self.own.contains(d)) || self.timers[d] >= key;
            timer_passed && self.buffers[d].front().is_none_or(|other| other.order_key() >= key)
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn releases_match_the_reference_mailbox_call_by_call(script in arb_script()) {
        let mut mb = script.mailbox(script.itags());
        let mut reference = ReferenceMailbox::new(&script);
        for (i, op) in script.calls().iter().enumerate() {
            let got = apply(&mut mb, op);
            let want = reference.apply(op);
            prop_assert_eq!(got, want, "call {} ({:?}) released differently", i, op);
            let still: usize = reference.buffers.values().map(VecDeque::len).sum();
            prop_assert_eq!(mb.buffered(), still, "buffered() after call {}", i);
        }
        prop_assert_eq!(mb.buffered(), 0, "closing heartbeats release everything");
    }

    #[test]
    fn every_call_reaches_the_release_fixpoint(script in arb_script()) {
        let mut mb = script.mailbox(script.itags());
        let dep = script.dependence();
        let itags = script.itags();
        for (i, op) in script.calls().iter().enumerate() {
            apply(&mut mb, op);
            // The mailbox's own view of itself: timers (a tag's timer sits
            // on the tag's stream; never-advanced ones are omitted) and
            // buffer heads.
            let timers: BTreeMap<ITag<u8>, OrderKey> = mb
                .timers()
                .into_iter()
                .map(|(t, ts)| (t, OrderKey { ts, stream: t.stream }))
                .collect();
            let zero = OrderKey { ts: 0, stream: StreamId(0) };
            for t in &itags {
                let Some(key) = mb.earliest_buffered(t) else { continue };
                // Only join requests arrive on ancestor-owned tags.
                let is_join = !script.is_own(t.tag);
                let mut dependents =
                    itags.iter().filter(|d| *d != t && dep.depends(&t.tag, &d.tag));
                let releasable = dependents.all(|d| {
                    let timer = timers.get(d).copied().unwrap_or(zero);
                    let timer_passed = (is_join && !script.is_own(d.tag)) || timer >= key;
                    timer_passed && mb.earliest_buffered(d).is_none_or(|other| other >= key)
                });
                prop_assert!(
                    !releasable,
                    "after call {} ({:?}) the head of {:?} at {:?} is still releasable",
                    i,
                    op,
                    t,
                    key
                );
            }
        }
    }

    #[test]
    fn a_repeated_relevant_tag_counts_once(script in arb_script()) {
        let mut once = script.mailbox(script.itags());
        let mut repeated = script.itags();
        repeated.extend(script.itags().into_iter().rev());
        let mut twice = script.mailbox(repeated);
        prop_assert_eq!(once.tags(), twice.tags());
        for op in &script.calls() {
            prop_assert_eq!(apply(&mut once, op), apply(&mut twice, op));
        }
    }

    #[test]
    fn nothing_lost_nothing_duplicated(w in arb_workload()) {
        let total = w.arrival.len();
        let (released, _) = run_workload(&w);
        prop_assert_eq!(released.len(), total, "all entries released after closing heartbeats");
        let keys: BTreeSet<_> = released.iter().map(|e| e.order_key()).collect();
        prop_assert_eq!(keys.len(), total, "no duplicates");
    }

    #[test]
    fn dependent_releases_respect_order(w in arb_workload()) {
        let (released, dep) = run_workload(&w);
        for (i, a) in released.iter().enumerate() {
            for b in &released[i + 1..] {
                let (ta, tb) = (a.itag(), b.itag());
                if dep.depends(&ta.tag, &tb.tag) {
                    prop_assert!(
                        a.order_key() < b.order_key(),
                        "dependent entries out of order: {:?} before {:?}",
                        a,
                        b
                    );
                }
            }
        }
    }

    #[test]
    fn same_tag_releases_are_fifo(w in arb_workload()) {
        let (released, _) = run_workload(&w);
        for t in 0..w.counts.len() as u8 {
            let keys: Vec<_> = released
                .iter()
                .filter(|e| e.itag().tag == t)
                .map(|e| e.order_key())
                .collect();
            for pair in keys.windows(2) {
                prop_assert!(pair[0] < pair[1]);
            }
        }
    }
}
