//! Selective reordering mailboxes (paper §3.4).
//!
//! A worker's mailbox enforces that *dependent* events are handed to the
//! worker in the total order `O`, while independent events flow through
//! unimpeded. It tracks, per implementation tag it can receive:
//!
//! * a **buffer** of pending entries (events or join requests), kept in
//!   arrival order — which is `O` order per tag, because timestamps are
//!   strictly increasing along each stream and links are FIFO; and
//! * a **timer**: the latest `O`-position observed for the tag (advanced
//!   by events, join requests, and heartbeats).
//!
//! An entry `e` with tag σ at the head of its buffer is *released* when
//! for every tag σ′ (of this mailbox) dependent on σ:
//!
//! 1. `timer[σ′] ≥ key(e)` — no future σ′ item can precede `e`; and
//! 2. the earliest buffered σ′ entry (if any) comes after `e` in `O` —
//!    dependent entries are handed over in order.
//!
//! Releasing an event adds its dependents to a workset and the check
//! cascades until the workset drains.
//!
//! # The tag index
//!
//! The tag set is fixed at construction, so [`Mailbox::new`] interns it
//! into one sorted, de-duplicated table and everything else — buffers,
//! timers, the dependence rows, the `own` flags — is a `Vec` indexed by a
//! tag's position in that table ([`Mailbox::position`]). Looking a tag up
//! compares borrowed `(&tag, stream)` pairs: the previous hit first (runs
//! of one tag are the common case), then a binary search; nothing is
//! cloned and nothing is allocated per entry. A dependence row lists the
//! dependent positions in table order and keeps the self-loop of a
//! self-dependent tag.
//!
//! # Release on arrival
//!
//! An arriving entry whose own buffer is empty *is* that buffer's head,
//! so the two conditions can be checked before it is stored. When they
//! hold it is appended to the caller's queue directly; buffering it only
//! to pop it again would release it at the same point. A follow-up
//! cascade then runs only when something is buffered at all, seeded with
//! the entry's dependents — what the buffer-then-cascade formulation's
//! workset holds right after it releases that entry (less the entry's
//! own tag, whose buffer is empty).
//!
//! The order of releases is unchanged. Before the arriving entry
//! leaves, every dependent head has a *larger* key (that is condition 2
//! of the arrival, and keys are distinct because timestamps strictly
//! increase along a stream) and is blocked on it by its own condition 2
//! (dependence is symmetric), so buffer-then-cascade would have tried
//! those heads in vain, released the arrival first, and continued from
//! that same workset. With distinct keys the follow-up cascade in fact
//! finds nothing: the arrival changed only its own tag's timer, to its
//! own key, which is still below every dependent head's. It is there
//! for the tie a well-formed input never contains — a dependent head
//! with the *same* key becomes releasable at that moment, and must not
//! be left sitting in a mailbox that claims to be at its fixpoint.
//!
//! # `_into` forms
//!
//! [`Mailbox::insert_into`] and [`Mailbox::heartbeat_into`] append the
//! releases to a queue the caller owns and reuses (a worker's `pending`
//! queue), and the cascade's workset is a reused field, so the steady
//! state allocates nothing. [`Mailbox::insert`] and
//! [`Mailbox::heartbeat`] are the same calls returning an owned `Vec`.

use std::collections::VecDeque;

use dgs_core::event::{Event, Heartbeat, OrderKey, StreamId, Timestamp};
use dgs_core::tag::{ITag, Tag};

/// An entry a mailbox can buffer and release to its worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Entry<T, P> {
    /// A proper input event, to be processed with `update`.
    Event(Event<T, P>),
    /// A join request from an ancestor processing its event with the given
    /// implementation tag and timestamp. Ordered exactly like an event.
    JoinRequest {
        /// Tag of the ancestor's synchronizing event.
        tag: T,
        /// Stream of the ancestor's synchronizing event.
        stream: StreamId,
        /// Timestamp of the ancestor's synchronizing event.
        ts: Timestamp,
    },
}

impl<T, P> Entry<T, P> {
    /// The entry's tag, borrowed.
    pub fn tag(&self) -> &T {
        match self {
            Entry::Event(e) => &e.tag,
            Entry::JoinRequest { tag, .. } => tag,
        }
    }

    /// Position of the entry in the total order `O`.
    pub fn order_key(&self) -> OrderKey {
        match self {
            Entry::Event(e) => e.order_key(),
            Entry::JoinRequest { stream, ts, .. } => OrderKey { ts: *ts, stream: *stream },
        }
    }
}

impl<T: Tag, P> Entry<T, P> {
    /// Implementation tag of the entry.
    pub fn itag(&self) -> ITag<T> {
        ITag::new(self.tag().clone(), self.order_key().stream)
    }
}

/// A selective-reordering mailbox over a fixed set of implementation tags.
///
/// ```
/// use dgs_core::event::{Event, Heartbeat, StreamId};
/// use dgs_core::tag::ITag;
/// use dgs_runtime::mailbox::{Entry, Mailbox};
///
/// // Values ('v') synchronize with barriers ('b'); a value can only be
/// // released once the barrier timer has passed it.
/// let tags = [ITag::new('v', StreamId(0)), ITag::new('b', StreamId(1))];
/// let mut mb: Mailbox<char, i64> = Mailbox::new(tags.clone(), tags, |a, b| {
///     matches!((a, b), ('v', 'b') | ('b', 'v') | ('b', 'b'))
/// });
/// assert!(mb.insert(Entry::Event(Event::new('v', StreamId(0), 5, 42))).is_empty());
/// let released = mb.heartbeat(&Heartbeat::new('b', StreamId(1), 10));
/// assert_eq!(released.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Mailbox<T: Tag, P> {
    /// The tag index: every accepted tag, sorted and de-duplicated. The
    /// vectors below are indexed by position in this table.
    tags: Vec<ITag<T>>,
    /// Pending entries per tag, in `O` order (arrival order per tag).
    buffers: Vec<VecDeque<Entry<T, P>>>,
    /// Latest observed `O` position per tag.
    timers: Vec<OrderKey>,
    /// Dependence adjacency *within this mailbox's tag set*, in table
    /// order, including self-loops for self-dependent tags.
    deps: Vec<Vec<usize>>,
    /// Whether proper events of the tag arrive at this mailbox directly
    /// (the worker's own responsibility). The other tags belong to
    /// ancestors: only join requests and heartbeats carry them,
    /// pre-ordered by the parent edge.
    own: Vec<bool>,
    /// Entries across all buffers.
    buffered: usize,
    /// Position the previous insert or heartbeat resolved to.
    last_hit: usize,
    /// The cascade's workset: seeded by a call, drained by its cascade,
    /// so empty between calls and kept only for its capacity.
    workset: Vec<usize>,
}

impl<T: Tag, P: Clone> Mailbox<T, P> {
    /// Build a mailbox for the given tags, with dependence given on tags.
    ///
    /// `relevant` must contain every implementation tag this mailbox will
    /// ever receive (the worker's own tags plus its ancestors'), and
    /// `own` the subset the worker is responsible for; receiving an
    /// unknown tag panics, as it indicates a routing bug. A tag listed
    /// more than once counts once.
    pub fn new(
        relevant: impl IntoIterator<Item = ITag<T>>,
        own: impl IntoIterator<Item = ITag<T>>,
        depends: impl Fn(&T, &T) -> bool,
    ) -> Self {
        let mut tags: Vec<ITag<T>> = relevant.into_iter().collect();
        tags.sort();
        tags.dedup();
        let deps = tags
            .iter()
            .map(|a| (0..tags.len()).filter(|&b| depends(&a.tag, &tags[b].tag)).collect())
            .collect();
        let mut own_flags = vec![false; tags.len()];
        for t in own {
            if let Ok(i) = tags.binary_search(&t) {
                own_flags[i] = true;
            }
        }
        let zero = OrderKey { ts: 0, stream: StreamId(0) };
        Mailbox {
            buffers: tags.iter().map(|_| VecDeque::new()).collect(),
            timers: vec![zero; tags.len()],
            deps,
            own: own_flags,
            buffered: 0,
            last_hit: 0,
            workset: Vec::new(),
            tags,
        }
    }

    /// The tag index: every tag this mailbox accepts, sorted. A tag's
    /// position here is what [`position`](Self::position) returns.
    pub fn tags(&self) -> &[ITag<T>] {
        &self.tags
    }

    /// Position of `(tag, stream)` in the tag index, `None` for a tag
    /// this mailbox does not track.
    pub fn position(&self, tag: &T, stream: StreamId) -> Option<usize> {
        let is = |t: &ITag<T>| t.stream == stream && t.tag == *tag;
        if self.tags.get(self.last_hit).is_some_and(is) {
            return Some(self.last_hit);
        }
        self.tags.binary_search_by(|t| t.tag.cmp(tag).then(t.stream.cmp(&stream))).ok()
    }

    /// Number of buffered entries across all tags.
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// `O`-position of the earliest *still-buffered* entry of the tag at
    /// `position` (`None` when its buffer is empty). Buffers are FIFO in
    /// `O` order per tag, so this is the front entry's key. Heartbeat
    /// forwarding uses it as the per-tag ceiling: a worker must never
    /// promise its subtree a tag position it still holds unreleased
    /// entries below.
    pub fn earliest_buffered_at(&self, position: usize) -> Option<OrderKey> {
        self.buffers[position].front().map(Entry::order_key)
    }

    /// [`earliest_buffered_at`](Self::earliest_buffered_at) by tag
    /// (`None` also when the tag is unknown).
    pub fn earliest_buffered(&self, itag: &ITag<T>) -> Option<OrderKey> {
        self.earliest_buffered_at(self.position(&itag.tag, itag.stream)?)
    }

    /// Current timer watermark per tag: the latest `O` position observed
    /// (events, join requests, and heartbeats all advance it). Zero-ts
    /// timers (never advanced) are skipped. Used by elastic migration to
    /// replay watermarks onto a successor mailbox as heartbeats.
    pub fn timers(&self) -> Vec<(ITag<T>, Timestamp)> {
        self.tags
            .iter()
            .zip(&self.timers)
            .filter(|(_, k)| k.ts > 0)
            .map(|(t, k)| (t.clone(), k.ts))
            .collect()
    }

    /// Drain every buffered (blocked) entry, per tag in `O` order, and
    /// reset the buffers. Timers are left untouched. Used by elastic
    /// migration to carry unprocessed entries to a successor mailbox.
    pub fn take_buffered(&mut self) -> Vec<Entry<T, P>> {
        let mut out = Vec::with_capacity(self.buffered);
        for buf in &mut self.buffers {
            out.extend(buf.drain(..));
        }
        self.buffered = 0;
        out
    }

    /// Insert an entry; returns every entry that becomes releasable, in
    /// release order.
    pub fn insert(&mut self, entry: Entry<T, P>) -> Vec<Entry<T, P>> {
        let mut out = VecDeque::new();
        self.insert_into(entry, &mut out);
        out.into()
    }

    /// Observe a heartbeat: advance the tag's timer (no buffering) and
    /// release anything that unblocks.
    pub fn heartbeat(&mut self, hb: &Heartbeat<T>) -> Vec<Entry<T, P>> {
        let mut out = VecDeque::new();
        let _ = self.heartbeat_into(hb, &mut out);
        out.into()
    }

    /// [`insert`](Self::insert), appending the releases to `out`.
    pub fn insert_into(&mut self, entry: Entry<T, P>, out: &mut VecDeque<Entry<T, P>>) {
        let key = entry.order_key();
        let Some(i) = self.position(entry.tag(), key.stream) else {
            panic!("mailbox received unrouted tag {:?}", entry.itag())
        };
        self.last_hit = i;
        if key > self.timers[i] {
            self.timers[i] = key;
        }
        debug_assert!(
            self.buffers[i].back().is_none_or(|last| last.order_key() < key),
            "per-tag arrival order violated for {:?}",
            self.tags[i]
        );
        let is_join = matches!(entry, Entry::JoinRequest { .. });
        if self.buffers[i].is_empty() && self.releasable(i, key, is_join) {
            // Release on arrival (module docs).
            out.push_back(entry);
            if self.buffered == 0 {
                return;
            }
            self.workset.extend_from_slice(&self.deps[i]);
        } else {
            self.buffers[i].push_back(entry);
            self.buffered += 1;
            self.workset.push(i);
            self.workset.extend_from_slice(&self.deps[i]);
        }
        self.cascade(out);
    }

    /// [`heartbeat`](Self::heartbeat), appending the releases to `out`.
    /// Returns the heartbeat's tag position, `None` for a tag this
    /// mailbox does not track: heartbeats are broadcast down the worker
    /// tree, so a descendant may legitimately receive one (e.g. after
    /// plans with empty coordinators), and ignores it.
    pub fn heartbeat_into(
        &mut self,
        hb: &Heartbeat<T>,
        out: &mut VecDeque<Entry<T, P>>,
    ) -> Option<usize> {
        let i = self.position(&hb.tag, hb.stream)?;
        self.last_hit = i;
        let key = OrderKey { ts: hb.ts, stream: hb.stream };
        if key > self.timers[i] {
            self.timers[i] = key;
        }
        if self.buffered > 0 {
            self.workset.push(i);
            self.workset.extend_from_slice(&self.deps[i]);
            self.cascade(out);
        }
        Some(i)
    }

    /// The §3.4 cascading release over the seeded workset: release head
    /// entries whose conditions hold; each release re-awakens its
    /// dependents.
    fn cascade(&mut self, out: &mut VecDeque<Entry<T, P>>) {
        while let Some(t) = self.workset.pop() {
            while let Some(head) = self.buffers[t].front() {
                let is_join = matches!(head, Entry::JoinRequest { .. });
                if !self.releasable(t, head.order_key(), is_join) {
                    break;
                }
                let entry = self.buffers[t].pop_front().expect("head checked above");
                self.buffered -= 1;
                // Entries released: their dependents may unblock next.
                for &d in &self.deps[t] {
                    if !self.workset.contains(&d) {
                        self.workset.push(d);
                    }
                }
                if !self.workset.contains(&t) {
                    self.workset.push(t);
                }
                out.push_back(entry);
            }
        }
    }

    /// Whether both §3.4 conditions hold for an entry of the tag at `t`
    /// with `O`-position `key` that is (or, on arrival, would be) the
    /// head of its buffer.
    fn releasable(&self, t: usize, key: OrderKey, is_join: bool) -> bool {
        self.deps[t].iter().all(|&d| {
            // Same tag: the head is by definition the earliest; its
            // in-order release is guaranteed by the per-tag buffer.
            if d == t {
                return true;
            }
            // Condition 1: the dependent tag's timer has passed the
            // entry — except when releasing a *join request* against an
            // *ancestor-owned* dependent tag: ancestor traffic reaches
            // this worker through the single parent edge, already in
            // dependence order, so waiting on that timer (fed only by
            // heartbeats the ancestor is still holding back) would
            // deadlock.
            let skip_timer = is_join && !self.own[d];
            if !skip_timer && self.timers[d] < key {
                return false;
            }
            // Condition 2: no earlier dependent entry is still buffered.
            self.buffers[d].front().is_none_or(|other| other.order_key() >= key)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tags: 'v' (value) depends on 'b' (barrier) and vice versa; values
    /// independent among themselves; barrier self-dependent.
    fn vb_depends(a: &char, b: &char) -> bool {
        matches!((a, b), ('v', 'b') | ('b', 'v') | ('b', 'b'))
    }

    fn v(stream: u32, ts: u64) -> Entry<char, u64> {
        Entry::Event(Event::new('v', StreamId(stream), ts, ts))
    }

    fn b(stream: u32, ts: u64) -> Entry<char, u64> {
        Entry::Event(Event::new('b', StreamId(stream), ts, ts))
    }

    fn hb(tag: char, stream: u32, ts: u64) -> Heartbeat<char> {
        Heartbeat::new(tag, StreamId(stream), ts)
    }

    fn vb_mailbox() -> Mailbox<char, u64> {
        let tags = [ITag::new('v', StreamId(0)), ITag::new('b', StreamId(1))];
        Mailbox::new(tags, tags, vb_depends)
    }

    #[test]
    fn independent_tag_releases_immediately() {
        // 'v' depends only on 'b'; with b's timer ahead, v flows through.
        let mut mb = vb_mailbox();
        assert!(mb.insert(v(0, 5)).is_empty(), "blocked until b catches up");
        let rel = mb.heartbeat(&hb('b', 1, 10));
        assert_eq!(rel, vec![v(0, 5)]);
        // Now v at ts 7 < timer[b]=10 releases instantly.
        assert_eq!(mb.insert(v(0, 7)), vec![v(0, 7)]);
        assert_eq!(mb.buffered(), 0);
    }

    #[test]
    fn dependent_events_release_in_order() {
        let mut mb = vb_mailbox();
        assert!(mb.insert(v(0, 5)).is_empty());
        // Barrier at ts 3 must come out before the value at ts 5, and the
        // value needs the barrier timer ≥ its key.
        let rel = mb.insert(b(1, 3));
        assert_eq!(rel, vec![b(1, 3)]); // value still blocked (timer b = 3 < 5)
        let rel = mb.heartbeat(&hb('b', 1, 6));
        assert_eq!(rel, vec![v(0, 5)]);
    }

    #[test]
    fn barrier_waits_for_earlier_value() {
        let mut mb = vb_mailbox();
        assert!(mb.insert(v(0, 2)).is_empty());
        // Barrier at 4 arrives: timer[v] = 2 < 4 so barrier not releasable;
        // but the value (key 2 < timer[b]=4) becomes releasable, after
        // which the barrier still needs timer[v] ≥ 4.
        let rel = mb.insert(b(1, 4));
        assert_eq!(rel, vec![v(0, 2)]);
        // Value heartbeat at 9 releases the barrier.
        let rel = mb.heartbeat(&hb('v', 0, 9));
        assert_eq!(rel, vec![b(1, 4)]);
    }

    #[test]
    fn cascade_releases_interleaving() {
        let mut mb = vb_mailbox();
        assert!(mb.insert(v(0, 1)).is_empty());
        // b@2 advances timer[b], unblocking v@1; b itself still needs
        // timer[v] ≥ 2 (another v@1.5 could exist).
        assert_eq!(mb.insert(b(1, 2)), vec![v(0, 1)]);
        // timer[v] = (2, s0) < b's key (2, s1): a heartbeat strictly past
        // ts 2 is needed.
        assert!(mb.heartbeat(&hb('v', 0, 2)).is_empty());
        assert_eq!(mb.heartbeat(&hb('v', 0, 3)), vec![b(1, 2)]);
        // v(3), b(4), v(5): a v-heartbeat far ahead releases b(4) once
        // v(3) is out, and a b-heartbeat releases v(3) and v(5).
        assert!(mb.insert(v(0, 3)).is_empty());
        let rel = mb.insert(b(1, 4));
        assert_eq!(rel, vec![v(0, 3)]);
        // v@5 advances the v timer past b@4, releasing the barrier; v@5
        // itself then waits for the b timer.
        let rel = mb.insert(v(0, 5));
        assert_eq!(rel, vec![b(1, 4)]);
        let rel = mb.heartbeat(&hb('b', 1, 9));
        assert_eq!(rel, vec![v(0, 5)]);
        assert_eq!(mb.buffered(), 0);
    }

    #[test]
    fn join_requests_order_like_events() {
        let mut mb = vb_mailbox();
        assert!(mb.insert(v(0, 5)).is_empty());
        let jr = Entry::JoinRequest { tag: 'b', stream: StreamId(1), ts: 8 };
        // The join request releases the value (timer[b]=8 ≥ 5) but itself
        // waits for timer[v] ≥ 8.
        let rel = mb.insert(jr.clone());
        assert_eq!(rel, vec![v(0, 5)]);
        let rel = mb.heartbeat(&hb('v', 0, 20));
        assert_eq!(rel, vec![jr]);
    }

    #[test]
    fn equal_timestamps_tie_break_by_stream() {
        // v on stream 0, b on stream 1, same ts: O orders v (stream 0)
        // first.
        let mut mb = vb_mailbox();
        assert!(mb.insert(v(0, 5)).is_empty());
        let rel = mb.insert(b(1, 5));
        // b's timer is (5, s1) ≥ v's key (5, s0) → v releases; then b
        // needs timer[v] ≥ (5,s1): timer[v] = (5,s0) < (5,s1) → blocked.
        assert_eq!(rel, vec![v(0, 5)]);
        let rel = mb.heartbeat(&hb('v', 0, 6));
        assert_eq!(rel, vec![b(1, 5)]);
    }

    #[test]
    fn self_dependent_tag_releases_fifo() {
        let tags = [ITag::new('b', StreamId(0))];
        let mut mb = Mailbox::<char, u64>::new(tags, tags, |a, b| *a == 'b' && *b == 'b');
        let rel = mb.insert(b(0, 1));
        assert_eq!(rel.len(), 1);
        let rel = mb.insert(b(0, 2));
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn heartbeat_for_untracked_tag_is_ignored() {
        let mut mb = vb_mailbox();
        let rel = mb.heartbeat(&hb('z', 9, 100));
        assert!(rel.is_empty());
    }

    #[test]
    #[should_panic(expected = "unrouted tag")]
    fn event_for_untracked_tag_panics() {
        let mut mb = vb_mailbox();
        let _ = mb.insert(Entry::Event(Event::new('z', StreamId(9), 1, 0)));
    }

    #[test]
    fn multiple_value_streams_interleave_freely() {
        // Two independent value streams plus a barrier: values from
        // different streams never block each other.
        let tags = [
            ITag::new('v', StreamId(0)),
            ITag::new('v', StreamId(1)),
            ITag::new('b', StreamId(2)),
        ];
        let mut mb = Mailbox::<char, u64>::new(tags, tags, vb_depends);
        let _ = mb.heartbeat(&hb('b', 2, 100));
        // Both streams' values release immediately, any arrival order.
        assert_eq!(mb.insert(v(1, 7)).len(), 1);
        assert_eq!(mb.insert(v(0, 3)).len(), 1);
        assert_eq!(mb.insert(v(1, 9)).len(), 1);
    }

    #[test]
    fn barrier_needs_all_value_streams() {
        let tags = [
            ITag::new('v', StreamId(0)),
            ITag::new('v', StreamId(1)),
            ITag::new('b', StreamId(2)),
        ];
        let mut mb = Mailbox::<char, u64>::new(tags, tags, vb_depends);
        assert!(mb.insert(b(2, 10)).is_empty());
        let rel = mb.heartbeat(&hb('v', 0, 50));
        assert!(rel.is_empty(), "stream 1 has not caught up yet");
        let rel = mb.heartbeat(&hb('v', 1, 50));
        assert_eq!(rel, vec![b(2, 10)]);
    }
}
