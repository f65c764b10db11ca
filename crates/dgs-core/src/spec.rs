//! The sequential specification and valid input instances.
//!
//! `spec: List(Event) -> List(Out)` (paper §3.5) is derived from the
//! sequential implementation by applying only `update` — no forks or joins.
//! Correctness of any parallel implementation (Definition 3.4) is judged
//! against `spec(sortO(u_1, …, u_k))`, where `sortO` merges the per-stream
//! inputs into a single stream according to the total order `O` and drops
//! heartbeats. [`merge_o`] is that merge over borrowed streams; it is the
//! one definition of `O`'s sequence, and [`sort_o`] only collects it.
//!
//! Every function here takes the streams as `&[S]` for any
//! `S: AsRef<[StreamItem]>`: a `Vec<StreamItem>` per stream, or anything
//! that owns its items and lends them as a slice.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::event::{Event, StreamId, StreamItem, Timestamp};
use crate::program::DgsProgram;
use crate::tag::Tag;

/// Run the sequential specification on an already-ordered event list.
/// Returns the final state and the output stream.
pub fn run_sequential<P: DgsProgram>(
    prog: &P,
    events: &[Event<P::Tag, P::Payload>],
) -> (P::State, Vec<P::Out>) {
    let mut state = prog.init();
    let mut out = Vec::new();
    for e in events {
        prog.update(&mut state, e, &mut out);
    }
    (state, out)
}

/// Merge `k` per-stream inputs into one sequential stream according to the
/// total order `O` (timestamp-major, stream-id-minor) and drop heartbeats
/// — the paper's `sortO`, collected. [`merge_o`] yields the same sequence
/// without copying it.
pub fn sort_o<T, P, S>(streams: &[S]) -> Vec<Event<T, P>>
where
    T: Tag,
    P: Clone,
    S: AsRef<[StreamItem<T, P>]>,
{
    merge_o(streams).cloned().collect()
}

/// The events of `k` per-stream inputs in the total order `O`, heartbeats
/// dropped, borrowed from the inputs: a k-way heap merge holding one head
/// event per stream, so it allocates O(k) whatever the inputs' length.
///
/// Each input must be ordered by timestamp, as Definition 3.3 requires.
/// Two events equal in `O` (two inputs under one stream id, at one
/// timestamp) come out in input order, so the sequence is exactly a
/// stable sort of the concatenated inputs by `O`.
pub fn merge_o<T, P, S>(streams: &[S]) -> MergeO<'_, T, P>
where
    S: AsRef<[StreamItem<T, P>]>,
{
    let mut cursors: Vec<std::slice::Iter<'_, StreamItem<T, P>>> =
        streams.iter().map(|s| s.as_ref().iter()).collect();
    let heap = cursors
        .iter_mut()
        .enumerate()
        .filter_map(|(input, cursor)| Head::next_of(cursor, input))
        .collect();
    MergeO { cursors, heap }
}

/// The iterator [`merge_o`] returns.
pub struct MergeO<'a, T, P> {
    /// Per input, the items after its head.
    cursors: Vec<std::slice::Iter<'a, StreamItem<T, P>>>,
    /// Each non-exhausted input's next event, least in `O` on top.
    heap: BinaryHeap<Head<'a, T, P>>,
}

impl<'a, T, P> Iterator for MergeO<'a, T, P> {
    type Item = &'a Event<T, P>;

    fn next(&mut self) -> Option<&'a Event<T, P>> {
        let mut top = self.heap.peek_mut()?;
        let (event, input) = (top.event, top.key.2);
        // Replace the head in place (one sift) rather than pop and push.
        match Head::next_of(&mut self.cursors[input], input) {
            Some(next) => *top = next,
            None => {
                PeekMut::pop(top);
            }
        }
        Some(event)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest: usize = self.cursors.iter().map(|c| c.len()).sum();
        (self.heap.len(), Some(self.heap.len() + rest))
    }
}

/// One input's next event and its position in the merge order:
/// `(ts, stream)` is `O`, and the input's index breaks ties.
struct Head<'a, T, P> {
    key: (Timestamp, StreamId, usize),
    event: &'a Event<T, P>,
}

impl<'a, T, P> Head<'a, T, P> {
    /// The next event of `cursor` (input `input`), skipping heartbeats.
    fn next_of(cursor: &mut std::slice::Iter<'a, StreamItem<T, P>>, input: usize) -> Option<Self> {
        cursor
            .find_map(StreamItem::as_event)
            .map(|event| Head { key: (event.ts, event.stream, input), event })
    }
}

// `BinaryHeap` is a max-heap: order heads in reverse so the least key is
// on top.
impl<T, P> Ord for Head<'_, T, P> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

impl<T, P> PartialOrd for Head<'_, T, P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T, P> PartialEq for Head<'_, T, P> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<T, P> Eq for Head<'_, T, P> {}

/// Reasons an input instance fails Definition 3.3.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InputInstanceError {
    /// Items on one stream are not strictly increasing in timestamp.
    NotMonotonic {
        /// Index of the offending stream in the input slice.
        stream_index: usize,
        /// Position of the item violating strict monotonicity.
        position: usize,
    },
    /// An event has no later item on some other stream, so its position in
    /// `O` can never be certified (progress violation).
    NoProgress {
        /// Stream holding the stuck event.
        stream_index: usize,
        /// Timestamp of the stuck event.
        ts: Timestamp,
        /// Stream that never overtakes it.
        lagging_stream: usize,
    },
}

/// Check Definition 3.3 on `streams`: (1) per-stream strict monotonicity
/// in `O`; (2) progress — every *event* is eventually overtaken (in `O`)
/// by an event or heartbeat on every other stream.
pub fn check_valid_input<T, P, S>(streams: &[S]) -> Result<(), InputInstanceError>
where
    T: Tag,
    S: AsRef<[StreamItem<T, P>]>,
{
    for (si, stream) in streams.iter().enumerate() {
        for (pos, win) in stream.as_ref().windows(2).enumerate() {
            if win[1].ts() <= win[0].ts() {
                return Err(InputInstanceError::NotMonotonic { stream_index: si, position: pos + 1 });
            }
        }
    }
    // Progress: compare against every other stream's maximal item.
    let last: Vec<Option<&StreamItem<T, P>>> = streams.iter().map(|s| s.as_ref().last()).collect();
    for (si, stream) in streams.iter().enumerate() {
        for item in stream.as_ref() {
            let StreamItem::Event(e) = item else { continue };
            for (sj, max) in last.iter().enumerate() {
                if sj == si {
                    continue;
                }
                // y with x <_O y must exist on stream sj. Since O is
                // (ts, stream)-lexicographic, the last item of sj works iff
                // its key exceeds e's key.
                let ok = max.is_some_and(|y| (y.ts(), y.stream()) > (e.ts, e.stream));
                if !ok {
                    return Err(InputInstanceError::NoProgress {
                        stream_index: si,
                        ts: e.ts,
                        lagging_stream: sj,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Append one final heartbeat per (tag, stream) at `ts` to every stream —
/// the standard way to make a finite input instance satisfy progress (the
/// producers say "nothing further is coming"). `ids` gives each stream's
/// identifier explicitly so that *empty* streams are closed too (progress
/// requires every stream to overtake every event).
pub fn close_streams<T: Tag, P>(
    streams: &mut [Vec<StreamItem<T, P>>],
    tags_per_stream: &[Vec<T>],
    ids: &[crate::event::StreamId],
    ts: Timestamp,
) {
    assert_eq!(streams.len(), ids.len(), "one id per stream");
    for ((stream, tags), &sid) in streams.iter_mut().zip(tags_per_stream).zip(ids) {
        debug_assert!(stream.iter().all(|i| i.stream() == sid), "id mismatch");
        for tag in tags {
            stream.push(StreamItem::Heartbeat(crate::event::Heartbeat::new(
                tag.clone(),
                sid,
                ts,
            )));
        }
    }
}

/// The full sequential specification of Definition 3.4:
/// `spec(sortO(u_1, …, u_k))`.
pub fn spec_of_streams<P, S>(prog: &P, streams: &[S]) -> Vec<P::Out>
where
    P: DgsProgram,
    S: AsRef<[StreamItem<P::Tag, P::Payload>]>,
{
    let mut state = prog.init();
    let mut out = Vec::new();
    for e in merge_o(streams) {
        prog.update(&mut state, e, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Heartbeat, StreamId};
    use crate::examples::{KcTag, KeyCounter};

    fn ev(tag: KcTag, stream: u32, ts: u64) -> StreamItem<KcTag, ()> {
        StreamItem::Event(Event::new(tag, StreamId(stream), ts, ()))
    }

    fn hb(tag: KcTag, stream: u32, ts: u64) -> StreamItem<KcTag, ()> {
        StreamItem::Heartbeat(Heartbeat::new(tag, StreamId(stream), ts))
    }

    #[test]
    fn sort_o_merges_and_drops_heartbeats() {
        let streams = vec![
            vec![ev(KcTag::Inc(1), 0, 2), hb(KcTag::Inc(1), 0, 10)],
            vec![ev(KcTag::ReadReset(1), 1, 1), ev(KcTag::ReadReset(1), 1, 3)],
        ];
        let merged = sort_o(&streams);
        let ts: Vec<u64> = merged.iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![1, 2, 3]);
        assert_eq!(merged.len(), 3);
    }

    #[test]
    fn sort_o_tie_breaks_by_stream() {
        let streams = vec![
            vec![ev(KcTag::Inc(1), 7, 5)],
            vec![ev(KcTag::Inc(2), 3, 5)],
        ];
        let merged = sort_o(&streams);
        assert_eq!(merged[0].stream, StreamId(3));
        assert_eq!(merged[1].stream, StreamId(7));
    }

    #[test]
    fn monotonicity_violation_detected() {
        let streams = vec![vec![ev(KcTag::Inc(1), 0, 5), ev(KcTag::Inc(1), 0, 5)]];
        assert_eq!(
            check_valid_input(&streams),
            Err(InputInstanceError::NotMonotonic { stream_index: 0, position: 1 })
        );
    }

    #[test]
    fn progress_violation_detected_and_fixed_by_heartbeat() {
        let mut streams = vec![
            vec![ev(KcTag::Inc(1), 0, 5)],
            vec![ev(KcTag::ReadReset(1), 1, 1)],
        ];
        // Stream 1 never overtakes ts=5 on stream 0.
        assert!(matches!(
            check_valid_input(&streams),
            Err(InputInstanceError::NoProgress { stream_index: 0, ts: 5, lagging_stream: 1 })
        ));
        streams[1].push(hb(KcTag::ReadReset(1), 1, 9));
        assert_eq!(check_valid_input(&streams), Ok(()));
    }

    #[test]
    fn heartbeat_only_streams_satisfy_progress_trivially() {
        let streams: Vec<Vec<StreamItem<KcTag, ()>>> =
            vec![vec![hb(KcTag::Inc(1), 0, 1)], vec![hb(KcTag::ReadReset(1), 1, 1)]];
        // Heartbeats need no progress guarantee of their own.
        assert_eq!(check_valid_input(&streams), Ok(()));
    }

    #[test]
    fn spec_of_streams_equals_manual_merge() {
        let prog = KeyCounter;
        let streams = vec![
            vec![ev(KcTag::Inc(1), 0, 1), ev(KcTag::Inc(1), 0, 4)],
            vec![ev(KcTag::ReadReset(1), 1, 2), ev(KcTag::ReadReset(1), 1, 6)],
        ];
        let out = spec_of_streams(&prog, &streams);
        assert_eq!(out, vec![(1, 1), (1, 1)]);
    }

    #[test]
    fn close_streams_appends_heartbeats() {
        let mut streams = vec![vec![ev(KcTag::Inc(1), 0, 5)], vec![]];
        close_streams(
            &mut streams,
            &[vec![KcTag::Inc(1)], vec![KcTag::ReadReset(1)]],
            &[StreamId(0), StreamId(1)],
            100,
        );
        assert_eq!(streams[0].len(), 2);
        assert!(streams[0][1].is_heartbeat());
        assert_eq!(streams[0][1].ts(), 100);
        // The empty stream was closed too.
        assert_eq!(streams[1].len(), 1);
        assert!(streams[1][0].is_heartbeat());
        assert_eq!(check_valid_input(&streams), Ok(()));
    }
}
