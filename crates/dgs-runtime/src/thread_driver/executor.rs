//! The sharded executor: per-shard run queues, wake/steal scheduling,
//! component-aware placement, and the shard event loop.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;

use dgs_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use dgs_sync::time::Duration;
use dgs_sync::{Condvar, Mutex, TryLockError};

use dgs_core::program::DgsProgram;

use super::task::TaskPoll;
use super::RunShared;

/// Messages a worker drains per scheduling turn before yielding the
/// shard to its run-queue-mates.
const POLL_BUDGET: usize = 128;
/// How long an idle shard parks before re-scanning for stealable work
/// queued on other shards while it was blocked.
const IDLE_PARK: Duration = Duration::from_micros(200);
/// Shard-metric flush cadence, in polls.
const SHARD_FLUSH_EVERY: u64 = 64;

/// Panic payloads captured from worker tasks, re-raised by the driver.
pub(super) type PanicList = Mutex<Vec<Box<dyn Any + Send>>>;

/// One shard's run queue, plus the condvar an idle shard parks on.
struct ShardQueue {
    queue: Mutex<ReadyList>,
    ready: Condvar,
}

/// What the run-queue mutex guards.
#[derive(Default)]
struct ReadyList {
    /// Worker ids ready to be polled.
    ids: VecDeque<usize>,
    /// The shard is waiting on `ready` (or about to: the flag is set and
    /// cleared under the lock, around the wait). A waker reads it under
    /// the same lock and skips the notify when nobody waits — most
    /// wake-ups are a shard readying a task on itself, and std's condvar
    /// makes every notify a futex syscall.
    parked: bool,
}

/// The executor's shared scheduling state. Wakers capture an
/// `Arc<Scheduler>`; everything else borrows it through the scope.
pub(super) struct Scheduler {
    shards: Vec<ShardQueue>,
    /// Which shard currently owns each worker (stealing reassigns).
    shard_of: Vec<AtomicUsize>,
    /// Scheduled-or-queued flag per worker: a waker enqueues only on
    /// the false→true edge, so a worker sits in at most one run queue.
    /// The polling shard clears it *before* draining, so a publish that
    /// races the drain either gets drained or re-enqueues the worker —
    /// never a lost wakeup.
    scheduled: Vec<AtomicBool>,
    /// Every partition is quiescent: shards exit.
    stopped: AtomicBool,
    /// A worker panicked: shards tear down instead of draining.
    failed: AtomicBool,
    /// Per-shard handled-message EWMA, refreshed at the flush cadence.
    /// Steal victim selection reads these to raid the shard whose
    /// workers are *producing* load fastest — rate-predictive, where the
    /// previous ring-order scan was merely demand-driven (first
    /// non-empty queue, however slow its workers).
    rates: Vec<AtomicU64>,
}

impl Scheduler {
    /// `placement` covers every slab slot (including elastic reserve
    /// slots).
    pub(super) fn new(placement: &[usize], shards: usize) -> Scheduler {
        Scheduler {
            shards: (0..shards)
                .map(|_| ShardQueue {
                    queue: Mutex::new(ReadyList::default()),
                    ready: Condvar::new(),
                })
                .collect(),
            shard_of: placement.iter().map(|&s| AtomicUsize::new(s)).collect(),
            scheduled: placement.iter().map(|_| AtomicBool::new(false)).collect(),
            stopped: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            rates: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Fold `recent` handled messages into shard `s`'s rate EWMA
    /// (new = 3/4 old + 1/4 recent). Called at every shard flush,
    /// metrics on or off — the scheduler itself is the consumer.
    pub(super) fn note_rate(&self, s: usize, recent: u64) {
        // ORDERING: Relaxed — single writer per shard (its own event
        // loop); stealers reading a stale EWMA only mis-rank victims.
        let old = self.rates[s].load(Ordering::Relaxed);
        self.rates[s].store(old - old / 4 + recent / 4, Ordering::Relaxed);
    }

    /// Victim order for an idle shard `s`: every other shard, hottest
    /// recent message rate first, ties broken by ring distance (which is
    /// also the legacy demand-driven order, so cold starts behave as
    /// before the rates have data).
    pub(super) fn steal_order(&self, s: usize) -> Vec<usize> {
        let n = self.shards.len();
        let mut order: Vec<usize> = (1..n).map(|off| (s + off) % n).collect();
        // ORDERING: Relaxed — heuristic victim ranking; staleness
        // only affects steal order, never correctness.
        order.sort_by_key(|&v| Reverse(self.rates[v].load(Ordering::Relaxed)));
        order
    }

    /// Mark worker `w` ready: enqueue it on its current shard unless it
    /// is already scheduled or queued, and notify that shard if it is
    /// parked. The push and the `parked` read share one critical
    /// section with `park`'s emptiness check and flag store, so a shard
    /// either sees the id before it waits or is seen waiting.
    pub(super) fn wake(&self, w: usize) {
        if !self.scheduled[w].swap(true, Ordering::SeqCst) {
            let sq = &self.shards[self.shard_of[w].load(Ordering::SeqCst)];
            let parked = {
                let mut q = sq.queue.lock().expect("shard run queue poisoned");
                q.ids.push_back(w);
                q.parked
            };
            if parked {
                sq.ready.notify_one();
            }
        }
    }

    /// The run is over: every partition is quiescent. Wake every shard
    /// so it observes the flag and exits.
    pub(super) fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    fn has_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    pub(super) fn has_failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }

    /// Flip the run to failed and wake every shard for teardown.
    pub(super) fn fail(&self) {
        self.failed.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// Take each shard's run-queue lock before notifying it: a shard
    /// reads the flags under that lock before it waits, so it either
    /// sees them or is waiting when the notify lands.
    fn wake_all(&self) {
        for sq in &self.shards {
            drop(sq.queue.lock().expect("shard run queue poisoned"));
            sq.ready.notify_all();
        }
    }

    /// The next worker shard `s` should poll: its own queue's front,
    /// else the back of the busiest-looking neighbour's. A stolen
    /// worker changes owner — subsequent wakeups for it land on `s`,
    /// which is the "rebalance" half of stealing: a hot root migrates
    /// away from a backlogged shard rather than bouncing per poll.
    /// Victims are visited hottest recent message rate first
    /// ([`steal_order`](Self::steal_order)), so an idle shard relieves
    /// the shard that is *generating* backlog fastest rather than
    /// whichever happens to sit next in the ring. The flag reports a
    /// steal.
    fn next_ready(&self, s: usize) -> Option<(usize, bool)> {
        let pop_front =
            self.shards[s].queue.lock().expect("shard run queue poisoned").ids.pop_front();
        if let Some(w) = pop_front {
            return Some((w, false));
        }
        for v in self.steal_order(s) {
            let pop_back =
                self.shards[v].queue.lock().expect("shard run queue poisoned").ids.pop_back();
            if let Some(w) = pop_back {
                self.shard_of[w].store(s, Ordering::SeqCst);
                return Some((w, true));
            }
        }
        None
    }

    /// Park shard `s` until a wakeup lands on its queue. Timed: a
    /// wakeup lands on the condvar, but stealable work queued elsewhere
    /// does not, so the caller re-scans periodically.
    fn park(&self, s: usize) {
        let sq = &self.shards[s];
        let mut q = sq.queue.lock().expect("shard run queue poisoned");
        if q.ids.is_empty() && !self.has_stopped() && !self.has_failed() {
            q.parked = true;
            (q, _) = sq.ready.wait_timeout(q, IDLE_PARK).expect("shard run queue poisoned");
            q.parked = false;
        }
    }
}

/// Assign each worker to a shard. Dependence components (plan
/// partitions) are kept together — their edges carry the fork/join
/// chatter, so co-locating them keeps notifications shard-local — and
/// only components larger than an even share are split. Chunks are then
/// bin-packed longest-first onto the least-loaded shard. Deterministic.
pub(super) fn place_workers(part_of: &[usize], partitions: usize, shards: usize) -> Vec<usize> {
    let n = part_of.len();
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); partitions];
    for (w, &p) in part_of.iter().enumerate() {
        groups[p].push(w);
    }
    let target = n.div_ceil(shards.max(1)).max(1);
    let mut chunks: Vec<Vec<usize>> = Vec::new();
    for g in &groups {
        for c in g.chunks(target) {
            chunks.push(c.to_vec());
        }
    }
    chunks.sort_by_key(|c| Reverse(c.len()));
    let mut load = vec![0usize; shards.max(1)];
    let mut placement = vec![0usize; n];
    for c in chunks {
        let s = (0..load.len()).min_by_key(|&s| load[s]).expect("at least one shard");
        load[s] += c.len();
        for w in c {
            placement[w] = s;
        }
    }
    placement
}

/// One executor shard: pop ready workers off the local run queue, poll
/// each for a bounded batch, steal from busier shards when idle, park
/// when there is nothing to steal. Exits once the driver has stopped the
/// run (every partition quiescent) or the run has failed.
pub(super) fn run_shard<Prog: DgsProgram>(s: usize, run: &RunShared<Prog>) {
    // If the shard itself unwinds (an executor bug, not a program
    // panic — those are caught per poll below), fail the run and tear
    // down so the driver and feeders cannot hang; the panic then
    // propagates at scope join.
    struct ShardGuard<'a, Prog: DgsProgram>(&'a RunShared<Prog>);
    impl<Prog: DgsProgram> Drop for ShardGuard<'_, Prog> {
        fn drop(&mut self) {
            if dgs_sync::thread::panicking() {
                self.0.fail();
            }
        }
    }
    let _guard = ShardGuard(run);
    let sched = &*run.sched;
    let (mut polls, mut steals, mut batch_msgs) = (0u64, 0u64, 0u64);
    // Messages already folded into the scheduler's rate EWMA.
    let mut rated = 0u64;
    let flush = |polls: u64, steals: u64, batch_msgs: u64| {
        if let Some(m) = &run.env.metrics {
            let sm = &m.shards[s];
            sm.polls.set(polls);
            sm.steals.set(steals);
            sm.batch_msgs.set(batch_msgs);
            let depth = sched.shards[s].queue.lock().map(|q| q.ids.len()).unwrap_or(0) as u64;
            sm.run_queue_depth.set(depth);
            sm.run_queue_depth_max.ratchet(depth);
        }
    };
    while !sched.has_failed() {
        let Some((w, stolen)) = sched.next_ready(s) else {
            if sched.has_stopped() {
                break;
            }
            sched.park(s);
            continue;
        };
        steals += stolen as u64;
        // Clear the scheduled flag *before* draining: a publish racing
        // the drain either lands in the batch or re-enqueues `w`.
        sched.scheduled[w].store(false, Ordering::SeqCst);
        let mut slot = match run.tasks[w].try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                // Another shard holds this task (a stealing race); leave
                // it queued rather than blocking the whole shard.
                sched.wake(w);
                continue;
            }
        };
        let Some(task) = slot.as_mut() else { continue };
        polls += 1;
        let before = task.msgs();
        match std::panic::catch_unwind(AssertUnwindSafe(|| task.poll(POLL_BUDGET))) {
            Ok(state) => {
                batch_msgs += task.msgs() - before;
                if state == TaskPoll::HasMore {
                    drop(slot);
                    sched.wake(w);
                }
            }
            Err(payload) => {
                // The program panicked inside this worker. Contain it:
                // capture the payload for the driver to re-raise, fail
                // every partition so quiescence stops waiting, and tear
                // down so blocked senders surrender.
                drop(slot.take());
                drop(slot);
                run.contain_panic(payload);
            }
        }
        if polls % SHARD_FLUSH_EVERY == 0 {
            sched.note_rate(s, batch_msgs - rated);
            rated = batch_msgs;
            flush(polls, steals, batch_msgs);
        }
    }
    sched.note_rate(s, batch_msgs - rated);
    flush(polls, steals, batch_msgs);
    if sched.has_failed() {
        super::task::drop_all_tasks(&run.tasks);
    }
}
