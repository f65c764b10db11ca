//! Workload descriptions: scheduled streams (explicit timestamps, used by
//! the thread driver and correctness tests) and paced sources (virtual-
//! time emission, used by the simulation driver).

use dgs_core::event::{Event, Heartbeat, StreamItem, Timestamp};
use dgs_core::tag::{ITag, Tag};
use dgs_plan::plan::Location;
use dgs_sim::SimTime;

/// A fully materialized input stream: one implementation tag, items in
/// strictly increasing timestamp order.
#[derive(Clone, Debug)]
pub struct ScheduledStream<T: Tag, P> {
    /// The stream's implementation tag (tag + stream id).
    pub itag: ITag<T>,
    /// Items in timestamp order.
    pub items: Vec<StreamItem<T, P>>,
}

impl<T: Tag, P: Clone> ScheduledStream<T, P> {
    /// Events at `start, start+period, …` (`count` of them), payloads from
    /// `payload(i)`.
    pub fn periodic(
        itag: ITag<T>,
        start: Timestamp,
        period: Timestamp,
        count: u64,
        mut payload: impl FnMut(u64) -> P,
    ) -> Self {
        assert!(period > 0, "period must be positive for strict monotonicity");
        let items = (0..count)
            .map(|i| {
                StreamItem::Event(Event::new(
                    itag.tag.clone(),
                    itag.stream,
                    start + i * period,
                    payload(i),
                ))
            })
            .collect();
        ScheduledStream { itag, items }
    }

    /// Events at the given (strictly increasing) timestamps, payloads
    /// from `payload(i)` — the generator for non-uniform schedules
    /// (zipf-skewed, bursty) that `periodic` cannot express.
    pub fn at_times(
        itag: ITag<T>,
        times: impl IntoIterator<Item = Timestamp>,
        mut payload: impl FnMut(u64) -> P,
    ) -> Self {
        let mut last: Option<Timestamp> = None;
        let items = times
            .into_iter()
            .enumerate()
            .map(|(i, ts)| {
                if let Some(prev) = last {
                    assert!(ts > prev, "timestamps must be strictly increasing");
                }
                last = Some(ts);
                StreamItem::Event(Event::new(itag.tag.clone(), itag.stream, ts, payload(i as u64)))
            })
            .collect();
        ScheduledStream { itag, items }
    }

    /// Interleave heartbeats every `period` timestamps, up to the last
    /// event (exclusive gaps only — a heartbeat never duplicates an event
    /// timestamp).
    ///
    /// Works in place, so the stream is never held twice: the heartbeat
    /// ticks are collected first, the item vector grows by that many
    /// placeholder slots, and a merge from the back moves every item
    /// straight to its final slot.
    pub fn with_heartbeats(mut self, period: Timestamp) -> Self {
        assert!(period > 0);
        let mut ticks: Vec<Timestamp> = Vec::new();
        let mut next_hb = period;
        for ts in self.items.iter().map(StreamItem::ts) {
            while next_hb < ts {
                ticks.push(next_hb);
                next_hb += period;
            }
            if next_hb == ts {
                next_hb += period;
            }
        }
        if ticks.is_empty() {
            return self;
        }
        let heartbeat =
            |ts| StreamItem::Heartbeat(Heartbeat::new(self.itag.tag.clone(), self.itag.stream, ts));
        let items = &mut self.items;
        let mut read = items.len();
        items.reserve_exact(ticks.len());
        items.resize(read + ticks.len(), heartbeat(0));
        // Back to front: the later of the last unplaced item and the last
        // unplaced tick takes the last free slot. Slots in `read..write`
        // hold placeholders, so a swap never moves an item backwards.
        let mut write = items.len();
        while let Some(&tick) = ticks.last() {
            write -= 1;
            if read > 0 && items[read - 1].ts() > tick {
                read -= 1;
                items.swap(read, write);
            } else {
                items[write] = heartbeat(tick);
                ticks.pop();
            }
        }
        self
    }

    /// Append a closing heartbeat at `ts` (usually `Timestamp::MAX`) so
    /// every dependent mailbox can flush (Definition 3.3 progress).
    pub fn closed(mut self, ts: Timestamp) -> Self {
        debug_assert!(self.items.last().is_none_or(|i| i.ts() < ts));
        // Grow by the one item only: a stream is often as large as memory
        // allows, and amortised growth would double its capacity here.
        self.items.reserve_exact(1);
        self.items.push(StreamItem::Heartbeat(Heartbeat::new(
            self.itag.tag.clone(),
            self.itag.stream,
            ts,
        )));
        self
    }

    /// The events only (no heartbeats) — what the sequential specification
    /// consumes.
    pub fn events(&self) -> impl Iterator<Item = &Event<T, P>> {
        self.items.iter().filter_map(|i| i.as_event())
    }
}

/// A stream lends its items as a slice, so `dgs_core::spec`'s
/// `sort_o`, `merge_o` and `check_valid_input` take `&[ScheduledStream]`
/// directly, without copying the items.
impl<T: Tag, P> AsRef<[StreamItem<T, P>]> for ScheduledStream<T, P> {
    fn as_ref(&self) -> &[StreamItem<T, P>] {
        &self.items
    }
}

/// A virtual-time paced source for the simulation driver: emits `count`
/// events with inter-arrival `period_ns`, timestamping each with the
/// virtual emission time, plus heartbeats every `hb_period_ns`.
pub struct PacedSource<T: Tag, P> {
    /// Implementation tag emitted.
    pub itag: ITag<T>,
    /// Node the source runs on.
    pub location: Location,
    /// Virtual nanoseconds between events.
    pub period_ns: SimTime,
    /// Total events to emit.
    pub count: u64,
    /// Payload generator (by event index).
    pub payload: Box<dyn Fn(u64) -> P>,
    /// Heartbeat period in virtual nanoseconds (None = only the closing
    /// heartbeat).
    pub hb_period_ns: Option<SimTime>,
    /// Virtual time of the first event.
    pub start_ns: SimTime,
    /// Events per message (1 = event-by-event; >1 enables the §6 batching
    /// optimization).
    pub batch: usize,
}

impl<T: Tag, P> PacedSource<T, P> {
    /// Convenience constructor with `start_ns = period_ns`.
    pub fn new(
        itag: ITag<T>,
        location: Location,
        period_ns: SimTime,
        count: u64,
        payload: impl Fn(u64) -> P + 'static,
    ) -> Self {
        assert!(period_ns > 0);
        PacedSource {
            itag,
            location,
            period_ns,
            count,
            payload: Box::new(payload),
            hb_period_ns: None,
            start_ns: period_ns,
            batch: 1,
        }
    }

    /// Enable batched emission (`batch` events per message).
    pub fn batched(mut self, batch: usize) -> Self {
        assert!(batch > 0);
        self.batch = batch;
        self
    }

    /// Set the heartbeat period.
    pub fn heartbeat_every(mut self, hb_period_ns: SimTime) -> Self {
        assert!(hb_period_ns > 0);
        self.hb_period_ns = Some(hb_period_ns);
        self
    }

    /// Set the first-event time.
    pub fn starting_at(mut self, start_ns: SimTime) -> Self {
        self.start_ns = start_ns;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_core::event::StreamId;

    fn itag() -> ITag<char> {
        ITag::new('v', StreamId(3))
    }

    #[test]
    fn periodic_generates_monotone_events() {
        let s = ScheduledStream::periodic(itag(), 10, 5, 4, |i| i);
        let ts: Vec<u64> = s.items.iter().map(|i| i.ts()).collect();
        assert_eq!(ts, vec![10, 15, 20, 25]);
        assert_eq!(s.events().count(), 4);
        assert_eq!(s.events().last().unwrap().payload, 3);
    }

    #[test]
    fn heartbeats_fill_gaps_without_colliding() {
        let s = ScheduledStream::periodic(itag(), 10, 10, 3, |_| ()).with_heartbeats(4);
        // Events at 10,20,30; heartbeats at 4,8,(12),16,(24),28 — none at
        // event timestamps, all strictly increasing.
        let ts: Vec<u64> = s.items.iter().map(|i| i.ts()).collect();
        let mut sorted = ts.clone();
        sorted.dedup();
        assert_eq!(ts, sorted, "strictly increasing, no duplicates");
        assert_eq!(s.events().count(), 3);
        assert!(s.items.iter().any(|i| i.is_heartbeat()));
    }

    #[test]
    fn heartbeat_on_event_timestamp_is_skipped() {
        let s = ScheduledStream::periodic(itag(), 5, 5, 2, |_| ()).with_heartbeats(5);
        // hb would fall exactly on 5 and 10; both skipped.
        assert!(s.items.iter().all(|i| !i.is_heartbeat()));
    }

    /// `with_heartbeats` as it was before it worked in place: a forward
    /// merge into a fresh vector. The reference the in-place merge must
    /// reproduce.
    fn with_heartbeats_reference<P: Clone>(
        mut s: ScheduledStream<char, P>,
        period: Timestamp,
    ) -> ScheduledStream<char, P> {
        let mut merged = Vec::new();
        let mut next_hb = period;
        for item in s.items.drain(..) {
            while next_hb < item.ts() {
                let hb = Heartbeat::new(s.itag.tag, s.itag.stream, next_hb);
                merged.push(StreamItem::Heartbeat(hb));
                next_hb += period;
            }
            if next_hb == item.ts() {
                next_hb += period;
            }
            merged.push(item);
        }
        s.items = merged;
        s
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        /// Random schedules (gaps of 1–12 ticks, so heartbeat ticks often
        /// land on event ticks, some items heartbeats already) and
        /// periods from 1 to 60 (often past the last event) come out
        /// exactly as the forward merge made them.
        #[test]
        fn in_place_heartbeats_equal_the_forward_merge(
            steps in proptest::collection::vec((1u64..13, 0u8..6), 0..40),
            period in 1u64..61,
        ) {
            let mut ts = 0;
            let items = steps
                .iter()
                .enumerate()
                .map(|(i, &(gap, kind))| {
                    ts += gap;
                    // One item in six is a heartbeat already.
                    if kind == 0 {
                        StreamItem::Heartbeat(Heartbeat::new('v', StreamId(3), ts))
                    } else {
                        StreamItem::Event(Event::new('v', StreamId(3), ts, i))
                    }
                })
                .collect();
            let s = ScheduledStream { itag: itag(), items };
            let want = with_heartbeats_reference(s.clone(), period).items;
            proptest::prop_assert_eq!(s.with_heartbeats(period).items, want);
        }
    }

    #[test]
    fn heartbeat_period_past_the_last_event_adds_nothing() {
        let s = ScheduledStream::periodic(itag(), 3, 3, 4, |i| i);
        assert_eq!(s.clone().with_heartbeats(13).items, s.items);
        let s = ScheduledStream { itag: itag(), items: Vec::<StreamItem<char, ()>>::new() };
        assert!(s.with_heartbeats(1).items.is_empty());
    }

    #[test]
    fn closed_appends_final_heartbeat() {
        let s = ScheduledStream::periodic(itag(), 1, 1, 2, |_| ()).closed(u64::MAX);
        assert!(s.items.last().unwrap().is_heartbeat());
        assert_eq!(s.items.last().unwrap().ts(), u64::MAX);
    }

    #[test]
    fn streams_lend_their_items_as_slices() {
        let a = ScheduledStream::periodic(itag(), 1, 1, 3, |_| ());
        let b = ScheduledStream::periodic(ITag::new('b', StreamId(9)), 2, 2, 2, |_| ());
        let streams = [a, b];
        let lists: Vec<&[StreamItem<char, ()>]> = streams.iter().map(AsRef::as_ref).collect();
        assert_eq!(lists[0].len(), 3);
        assert!(std::ptr::eq(lists[1], streams[1].items.as_slice()), "borrowed, not copied");
        assert_eq!(dgs_core::spec::sort_o(&streams).len(), 5);
    }

    #[test]
    fn paced_source_builders() {
        let p = PacedSource::new(itag(), Location(2), 100, 10, |i| i)
            .heartbeat_every(50)
            .starting_at(7);
        assert_eq!(p.period_ns, 100);
        assert_eq!(p.hb_period_ns, Some(50));
        assert_eq!(p.start_ns, 7);
        assert_eq!((p.payload)(4), 4);
    }
}
