//! Property-based tests of the core model:
//!
//! * the consistency conditions C1–C3 hold for the key-counter program on
//!   arbitrary generated states/events (within their quantification
//!   domains);
//! * Theorem 2.4: *random* well-formed wire diagrams produce the same
//!   output multiset as the sequential specification;
//! * algebraic laws of tag predicates and `sort_o`;
//! * `merge_o` yields exactly the stable sort the old `sort_o` made.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

use dgs_core::consistency::{check_c1, check_c2, check_c3};
use dgs_core::event::{Event, Heartbeat, StreamId, StreamItem};
use dgs_core::examples::{KcTag, KeyCounter};
use dgs_core::predicate::TagPredicate;
use dgs_core::program::DgsProgram;
use dgs_core::semantics::{eval_program, Segment, Wire};
use dgs_core::spec::{merge_o, run_sequential, sort_o};

const KEYS: u32 = 3;

fn arb_tag() -> impl Strategy<Value = KcTag> {
    (0..KEYS, prop::bool::ANY).prop_map(|(k, rr)| if rr { KcTag::ReadReset(k) } else { KcTag::Inc(k) })
}

fn arb_state() -> impl Strategy<Value = BTreeMap<u32, i64>> {
    prop::collection::btree_map(0..KEYS, 1..100i64, 0..3)
}

fn arb_events(max: usize) -> impl Strategy<Value = Vec<Event<KcTag, ()>>> {
    prop::collection::vec(arb_tag(), 1..max).prop_map(|tags| {
        tags.into_iter()
            .enumerate()
            .map(|(i, t)| Event::new(t, StreamId(0), i as u64 + 1, ()))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn c1_holds_for_increments(s1 in arb_state(), s2 in arb_state(), k in 0..KEYS) {
        let e = Event::new(KcTag::Inc(k), StreamId(0), 1, ());
        prop_assert!(check_c1(&KeyCounter, &s1, &s2, &e).is_ok());
    }

    #[test]
    fn c1_holds_for_read_resets_on_reachable_siblings(
        s1 in arb_state(),
        mut s2 in arb_state(),
        k in 0..KEYS,
    ) {
        // Reachability invariant: the sibling of an r(k)-processing wire
        // holds no key-k count.
        s2.remove(&k);
        let e = Event::new(KcTag::ReadReset(k), StreamId(0), 1, ());
        prop_assert!(check_c1(&KeyCounter, &s1, &s2, &e).is_ok());
    }

    #[test]
    fn c2_holds_for_arbitrary_predicates(
        s in arb_state(),
        tags1 in prop::collection::btree_set(arb_tag(), 0..4),
        tags2 in prop::collection::btree_set(arb_tag(), 0..4),
    ) {
        let p1 = TagPredicate::from_tags(tags1);
        let p2 = TagPredicate::from_tags(tags2);
        prop_assert!(check_c2(&KeyCounter, &s, &p1, &p2).is_ok());
    }

    #[test]
    fn c3_holds_for_independent_pairs(s in arb_state(), t1 in arb_tag(), t2 in arb_tag()) {
        prop_assume!(!KeyCounter.depends(&t1, &t2));
        let e1 = Event::new(t1, StreamId(0), 1, ());
        let e2 = Event::new(t2, StreamId(1), 2, ());
        prop_assert!(check_c3(&KeyCounter, &s, &e1, &e2).is_ok());
    }

    /// Theorem 2.4 on randomly generated wire diagrams: recursively fork
    /// runs of independent (increment) events into parallel wires, then
    /// compare against the sequential spec.
    #[test]
    fn random_wire_diagrams_match_sequential_spec(events in arb_events(40), seed in 0u64..1_000) {
        let universe: TagPredicate<KcTag> = (0..KEYS)
            .flat_map(|k| [KcTag::Inc(k), KcTag::ReadReset(k)])
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let wire = random_wire(&events, &mut rng, 0);
        let (_, par) = eval_program(&KeyCounter, &universe, &wire).expect("well-formed diagram");
        let seq_events: Vec<Event<KcTag, ()>> =
            wire.events_in_eval_order().into_iter().cloned().collect();
        let (_, seq) = run_sequential(&KeyCounter, &seq_events);
        let mut p = par;
        let mut s = seq;
        p.sort();
        s.sort();
        prop_assert_eq!(p, s);
    }

    #[test]
    fn predicate_lattice_laws(
        a in prop::collection::btree_set(arb_tag(), 0..5),
        b in prop::collection::btree_set(arb_tag(), 0..5),
        c in prop::collection::btree_set(arb_tag(), 0..5),
    ) {
        let (pa, pb, pc) = (
            TagPredicate::from_tags(a),
            TagPredicate::from_tags(b),
            TagPredicate::from_tags(c),
        );
        // Commutativity + absorption + implication transitivity.
        prop_assert_eq!(pa.union(&pb), pb.union(&pa));
        prop_assert_eq!(pa.intersection(&pb), pb.intersection(&pa));
        prop_assert_eq!(pa.union(&pa.intersection(&pb)), pa.clone());
        let ab = pa.intersection(&pb);
        prop_assert!(ab.implies(&pa) && ab.implies(&pb));
        if pa.implies(&pb) && pb.implies(&pc) {
            prop_assert!(pa.implies(&pc));
        }
    }

    #[test]
    fn sort_o_is_sorted_and_complete(
        lens in prop::collection::vec(0usize..20, 1..4),
    ) {
        // Build per-stream item lists with strictly increasing ts.
        let mut streams: Vec<Vec<StreamItem<KcTag, ()>>> = Vec::new();
        let mut total = 0usize;
        for (s, &len) in lens.iter().enumerate() {
            let items: Vec<StreamItem<KcTag, ()>> = (0..len)
                .map(|i| {
                    StreamItem::Event(Event::new(
                        KcTag::Inc(0),
                        StreamId(s as u32),
                        (i as u64 + 1) * (s as u64 + 2),
                        (),
                    ))
                })
                .collect();
            total += items.len();
            streams.push(items);
        }
        let merged = sort_o(&streams);
        prop_assert_eq!(merged.len(), total);
        for w in merged.windows(2) {
            prop_assert!(w[0].order_key() <= w[1].order_key());
        }
    }
}

/// Recursively fork runs of pairwise-independent events.
fn random_wire(
    events: &[Event<KcTag, ()>],
    rng: &mut StdRng,
    depth: usize,
) -> Wire<KcTag, ()> {
    if depth >= 4 || events.len() <= 1 {
        return Wire::updates(events.to_vec());
    }
    // Find a maximal run of increments (mutually independent) to fork.
    let mut best: Option<(usize, usize)> = None;
    let mut run_start = None;
    for (i, e) in events.iter().enumerate() {
        match (&run_start, matches!(e.tag, KcTag::Inc(_))) {
            (None, true) => run_start = Some(i),
            (Some(s), false) => {
                if best.is_none_or(|(bs, be)| be - bs < i - s) {
                    best = Some((*s, i));
                }
                run_start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = run_start {
        if best.is_none_or(|(bs, be)| be - bs < events.len() - s) {
            best = Some((s, events.len()));
        }
    }
    let Some((s, e)) = best.filter(|(s, e)| e - s >= 2) else {
        return Wire::updates(events.to_vec());
    };
    // Random interleaving split of the run.
    let mut left = Vec::new();
    let mut right = Vec::new();
    for ev in &events[s..e] {
        if rng.gen_bool(0.5) {
            left.push(ev.clone());
        } else {
            right.push(ev.clone());
        }
    }
    let pred: TagPredicate<KcTag> = events[s..e].iter().map(|ev| ev.tag).collect();
    let mut wire = Wire::updates(events[..s].to_vec());
    wire = wire.then(Segment::Fork {
        left_pred: pred.clone(),
        right_pred: pred,
        left: Box::new(random_wire(&left, rng, depth + 1)),
        right: Box::new(random_wire(&right, rng, depth + 1)),
    });
    wire.segments.extend(random_wire(&events[e..], rng, depth + 1).segments);
    wire
}

mod input_instance_props {
    use super::*;
    use dgs_core::spec::{check_valid_input, close_streams};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Closing any set of monotone streams with far-future heartbeats
        /// yields a valid input instance (Definition 3.3).
        #[test]
        fn closing_streams_restores_progress(
            lens in prop::collection::vec(0usize..15, 1..4),
        ) {
            let mut streams: Vec<Vec<StreamItem<KcTag, ()>>> = lens
                .iter()
                .enumerate()
                .map(|(s, &len)| {
                    (0..len)
                        .map(|i| {
                            StreamItem::Event(Event::new(
                                KcTag::Inc(0),
                                StreamId(s as u32),
                                i as u64 + 1,
                                (),
                            ))
                        })
                        .collect()
                })
                .collect();
            let tags: Vec<Vec<KcTag>> = lens.iter().map(|_| vec![KcTag::Inc(0)]).collect();
            let ids: Vec<StreamId> =
                (0..lens.len()).map(|s| StreamId(s as u32)).collect();
            close_streams(&mut streams, &tags, &ids, u64::MAX);
            prop_assert!(check_valid_input(&streams).is_ok());
        }

        /// Duplicated timestamps on one stream always violate
        /// monotonicity.
        #[test]
        fn duplicate_timestamps_are_rejected(ts in 1u64..100) {
            let streams: Vec<Vec<StreamItem<KcTag, ()>>> = vec![vec![
                StreamItem::Event(Event::new(KcTag::Inc(0), StreamId(0), ts, ())),
                StreamItem::Heartbeat(Heartbeat::new(KcTag::Inc(0), StreamId(0), ts)),
            ]];
            prop_assert!(check_valid_input(&streams).is_err());
        }
    }
}

mod merge_o_props {
    use super::*;

    /// An item of input `input` at position `pos`: the payload names both,
    /// so two events equal in `O` from different inputs stay distinct.
    type Item = StreamItem<KcTag, (usize, usize)>;

    /// `sort_o` as it was before `merge_o`: clone every event, then a
    /// stable sort by `O`. The reference the merge must reproduce,
    /// ties included.
    fn sort_o_reference(streams: &[Vec<Item>]) -> Vec<Event<KcTag, (usize, usize)>> {
        let mut events: Vec<Event<KcTag, (usize, usize)>> = streams
            .iter()
            .flatten()
            .filter_map(|item| item.as_event().cloned())
            .collect();
        events.sort_by_key(|e| e.order_key());
        events
    }

    /// Input `input` on stream `sid`: strictly increasing timestamps at
    /// the given gaps, each item an event or a heartbeat.
    fn input(input: usize, sid: u32, steps: &[(u64, bool)], heartbeats_only: bool) -> Vec<Item> {
        let mut ts = 0;
        steps
            .iter()
            .enumerate()
            .map(|(pos, &(gap, heartbeat))| {
                ts += gap;
                let tag = KcTag::Inc(input as u32);
                if heartbeat || heartbeats_only {
                    StreamItem::Heartbeat(Heartbeat::new(tag, StreamId(sid), ts))
                } else {
                    StreamItem::Event(Event::new(tag, StreamId(sid), ts, (input, pos)))
                }
            })
            .collect()
    }

    fn assert_matches_reference(streams: &[Vec<Item>]) {
        let want = sort_o_reference(streams);
        let merged: Vec<_> = merge_o(streams).cloned().collect();
        assert_eq!(merged, want);
        assert_eq!(sort_o(streams), want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random inputs over three stream ids, so inputs often share a
        /// stream id and a timestamp (gaps of 1–3), with heartbeats
        /// mixed in, empty inputs, and heartbeat-only inputs.
        #[test]
        fn merge_o_is_the_stable_sort_by_o(
            shapes in prop::collection::vec(
                (0u32..3, prop::collection::vec((1u64..4, prop::bool::ANY), 0..25), 0u8..4),
                0..6,
            ),
        ) {
            // One input in four, on average, carries heartbeats only.
            let streams: Vec<Vec<Item>> = shapes
                .iter()
                .enumerate()
                .map(|(i, (sid, steps, kind))| input(i, *sid, steps, *kind == 0))
                .collect();
            let want = sort_o_reference(&streams);
            let merged: Vec<_> = merge_o(&streams).cloned().collect();
            prop_assert_eq!(merged, want);
        }
    }

    /// Two inputs under one stream id with identical timestamps: input
    /// order breaks every tie, as the stable sort did.
    #[test]
    fn shared_stream_id_ties_break_by_input_order() {
        let steps = [(1, false), (1, false), (2, true), (1, false)];
        let streams = vec![input(0, 4, &steps, false), input(1, 4, &steps, false)];
        assert_matches_reference(&streams);
        let order: Vec<(usize, usize)> = merge_o(&streams).map(|e| e.payload).collect();
        assert_eq!(order, vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 3), (1, 3)]);
    }

    /// No inputs, empty inputs and heartbeat-only inputs merge to nothing
    /// of their own.
    #[test]
    fn empty_and_heartbeat_only_inputs_contribute_nothing() {
        assert_matches_reference(&[]);
        let steps = [(2, false), (3, false)];
        let streams = vec![
            Vec::new(),
            input(1, 0, &steps, true),
            input(2, 1, &steps, false),
            Vec::new(),
        ];
        assert_matches_reference(&streams);
        assert_eq!(merge_o(&streams).count(), 2);
        assert_eq!(merge_o(&streams[..2]).next(), None);
    }
}
