//! State checkpointing and recovery (Appendix D.2), per partition root.
//!
//! When a partition's root has just joined its descendants' states, the
//! joined value *is* a consistent snapshot of that partition's
//! distributed state — no Chandy-Lamport-style coordination needed. On a
//! forest plan every tree checkpoints independently (partitions share no
//! dependence, so any combination of per-root snapshots is a consistent
//! global cut). The runtime exposes this through `checkpoint_on_join`;
//! this module keys the snapshots by partition root and rebuilds the
//! input suffix needed to resume a partition after a crash.
//!
//! Storage is one API, the [`CheckpointStore`] trait, over two backends:
//! [`MemoryStore`] here (snapshots die with the process; it is also the
//! read-side image inside the durable backend) and
//! [`crate::durable::DurableStore`] (append-only segment files + a
//! manifest, surviving real crashes). Neither backend has a second set
//! of read/append methods beside the trait's, so a test, the recovery
//! orchestrator and [`RunReport::persist_checkpoints`] all read the same
//! names. `record` is fallible because the durable backend can hit the
//! disk — or a deterministically injected fault
//! ([`crate::durable::FaultPlan`]) — at any append;
//! [`CheckpointStore::extend`] stops at the first such error.
//!
//! [`RunReport::persist_checkpoints`]: crate::job::RunReport::persist_checkpoints

use std::collections::BTreeMap;

use dgs_core::event::{OrderKey, StreamId, Timestamp};
use dgs_core::tag::Tag;
use dgs_plan::plan::WorkerId;

use crate::durable::StoreError;
use crate::source::ScheduledStream;

/// A checkpoint store: per-partition-root snapshot sequences with
/// latest-wins recovery. Implementations differ only in durability;
/// the read side is identical so recovery code is backend-agnostic.
pub trait CheckpointStore<S> {
    /// Record a snapshot taken by partition root `root` at the given
    /// trigger timestamp. Per-root trigger timestamps are monotone;
    /// cross-root interleaving is arbitrary (partitions are
    /// independent). Durable backends may fail here.
    fn record(&mut self, root: WorkerId, state: S, ts: Timestamp) -> Result<(), StoreError>;

    /// Latest snapshot of partition `root`, if any.
    fn latest(&self, root: WorkerId) -> Option<&(S, Timestamp)>;

    /// The k-th (0-based) snapshot of partition `root`, if taken.
    fn nth(&self, root: WorkerId, k: usize) -> Option<&(S, Timestamp)>;

    /// Snapshots of one partition, in trigger order.
    fn of_root(&self, root: WorkerId) -> &[(S, Timestamp)];

    /// Partition roots with at least one snapshot.
    fn roots(&self) -> Vec<WorkerId>;

    /// Total number of snapshots across all partitions.
    fn len(&self) -> usize;

    /// True if no snapshot was taken anywhere.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Absorb the (root-tagged) checkpoints of a finished run, stopping
    /// at the first failure.
    fn extend(
        &mut self,
        cps: impl IntoIterator<Item = (WorkerId, S, Timestamp)>,
    ) -> Result<(), StoreError>
    where
        Self: Sized,
    {
        for (root, s, t) in cps {
            self.record(root, s, t)?;
        }
        Ok(())
    }
}

/// The in-memory checkpoint store backend, keyed by the partition root
/// that took each snapshot. Its whole API is the [`CheckpointStore`]
/// impl below (bring the trait into scope to use it); `record` never
/// fails here, it returns `Result` only because the trait does.
#[derive(Clone, Debug)]
pub struct MemoryStore<S> {
    snaps: BTreeMap<WorkerId, Vec<(S, Timestamp)>>,
}

impl<S> Default for MemoryStore<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> MemoryStore<S> {
    /// Empty store.
    pub fn new() -> Self {
        MemoryStore { snaps: BTreeMap::new() }
    }
}

impl<S> CheckpointStore<S> for MemoryStore<S> {
    fn record(&mut self, root: WorkerId, state: S, ts: Timestamp) -> Result<(), StoreError> {
        let snaps = self.snaps.entry(root).or_default();
        debug_assert!(snaps.last().is_none_or(|(_, t)| *t <= ts));
        snaps.push((state, ts));
        Ok(())
    }
    fn latest(&self, root: WorkerId) -> Option<&(S, Timestamp)> {
        self.snaps.get(&root).and_then(|v| v.last())
    }
    fn nth(&self, root: WorkerId, k: usize) -> Option<&(S, Timestamp)> {
        self.snaps.get(&root).and_then(|v| v.get(k))
    }
    fn of_root(&self, root: WorkerId) -> &[(S, Timestamp)] {
        self.snaps.get(&root).map(Vec::as_slice).unwrap_or(&[])
    }
    fn roots(&self) -> Vec<WorkerId> {
        self.snaps.keys().copied().collect()
    }
    fn len(&self) -> usize {
        self.snaps.values().map(Vec::len).sum()
    }
}

/// The input suffix strictly after a snapshot cut: a snapshot triggered by
/// a partition root's event at `(ts, stream)` covers every *dependent*
/// event up to that point in the order `O`, so recovery replays items with
/// a larger `O` key.
pub fn suffix_after<T: Tag, P: Clone>(
    streams: &[ScheduledStream<T, P>],
    cut_ts: Timestamp,
    cut_stream: StreamId,
) -> Vec<ScheduledStream<T, P>> {
    let cut = OrderKey { ts: cut_ts, stream: cut_stream };
    streams
        .iter()
        .map(|s| ScheduledStream {
            itag: s.itag.clone(),
            items: s
                .items
                .iter()
                .filter(|item| OrderKey { ts: item.ts(), stream: item.stream() } > cut)
                .cloned()
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_core::event::StreamId;
    use dgs_core::tag::ITag;

    const R0: WorkerId = WorkerId(0);
    const R3: WorkerId = WorkerId(3);

    #[test]
    fn store_orders_and_returns_latest_per_root() {
        let mut store = MemoryStore::new();
        assert!(store.is_empty());
        store.record(R0, 10i64, 5).unwrap();
        store.record(R0, 20i64, 9).unwrap();
        // An independent partition's snapshots interleave with earlier
        // timestamps — legal, they are separate sequences.
        store.record(R3, 7i64, 2).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.latest(R0), Some(&(20, 9)));
        assert_eq!(store.latest(R3), Some(&(7, 2)));
        assert_eq!(store.nth(R0, 0), Some(&(10, 5)));
        assert_eq!(store.nth(R0, 5), None);
        assert_eq!(store.latest(WorkerId(9)), None);
        assert_eq!(store.roots(), vec![R0, R3]);
        assert_eq!(store.of_root(R0).len(), 2);
        assert!(store.of_root(WorkerId(9)).is_empty());
    }

    #[test]
    fn extend_appends_in_order() {
        let mut store = MemoryStore::new();
        store.extend([(R0, 1i64, 1u64), (R0, 2, 2), (R3, 5, 1)]).unwrap();
        assert_eq!(store.latest(R0), Some(&(2, 2)));
        assert_eq!(store.latest(R3), Some(&(5, 1)));
    }

    #[test]
    fn suffix_cut_respects_order_keys() {
        let itag = ITag::new('v', StreamId(1));
        let s = ScheduledStream::periodic(itag, 1, 1, 10, |i| i);
        // Cut at ts 5 on stream 0: stream 1's item at ts 5 has a larger
        // key (5, s1) > (5, s0), so it survives.
        let suffix = suffix_after(&[s], 5, StreamId(0));
        let ts: Vec<u64> = suffix[0].items.iter().map(|i| i.ts()).collect();
        assert_eq!(ts, vec![5, 6, 7, 8, 9, 10]);
        // Cut on the same stream drops ts 5 as well.
        let s2 = ScheduledStream::periodic(ITag::new('v', StreamId(1)), 1, 1, 10, |i| i);
        let suffix2 = suffix_after(&[s2], 5, StreamId(1));
        let ts2: Vec<u64> = suffix2[0].items.iter().map(|i| i.ts()).collect();
        assert_eq!(ts2, vec![6, 7, 8, 9, 10]);
    }
}
