//! The message plane of one run: the message type, the edge-storage
//! choice, in-flight credit accounting, and the single wiring path that
//! turns a plan — the initial one, or an elastic replan's sub-plan —
//! into inboxes and route tables.

use crossbeam::edge;
use dgs_sync::atomic::{AtomicBool, AtomicI64, Ordering};
use dgs_sync::time::Duration;
use dgs_sync::{Arc, Condvar, Mutex};

use dgs_core::program::DgsProgram;
use dgs_plan::plan::Plan;

use super::executor::Scheduler;
use crate::worker::WorkerMsg;

/// What every edge carries: a protocol message, nothing else — the run
/// ends on quiescence, not on a message.
pub(super) type Msg<Prog> = WorkerMsg<
    <Prog as DgsProgram>::Tag,
    <Prog as DgsProgram>::Payload,
    <Prog as DgsProgram>::State,
>;
pub(super) type EdgeSender<Prog> = edge::EdgeSender<Msg<Prog>>;
pub(super) type Inbox<Prog> = edge::Inbox<Msg<Prog>>;
pub(super) type InboxHandle<Prog> = edge::InboxHandle<Msg<Prog>>;
/// A sender's outgoing edges, one slot per destination; `None` for
/// destinations it never talks to (non-adjacent in the plan, or a
/// never-activated reserve slot).
pub(super) type Routes<Prog> = Vec<Option<EdgeSender<Prog>>>;

/// Which storage backs every edge of a run. Observed from the run's
/// shape, never configured: with one executor shard both ends of every
/// worker↔worker edge run on the same thread, where the uncontended
/// mutex deque measured ahead of the ring's credit publish (6 vs 8 ns
/// per message, `bench/`'s `edge.*` probes); with more shards the ends
/// sit on different threads and the lock-free ring wins (23 vs 49 ns).
/// The shard count, not the raw hardware thread count, is the honest
/// signal: `executor_threads = 1` on a many-core host still has exactly
/// one consumer loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum EdgeStorage {
    Mutex,
    Ring,
}

impl EdgeStorage {
    pub(super) fn for_shards(shards: usize) -> Self {
        if shards > 1 {
            EdgeStorage::Ring
        } else {
            EdgeStorage::Mutex
        }
    }

    /// The name benchmark artifacts and the `flumina_run_info` label
    /// carry. Names follow the *measured implementation*: the mutex
    /// storage is what every pre-ring trajectory captured as
    /// `"per-edge"`, so it keeps that name and its cells stay
    /// comparable across captures.
    pub(super) fn name(self) -> &'static str {
        match self {
            EdgeStorage::Mutex => "per-edge",
            EdgeStorage::Ring => "per-edge-ring",
        }
    }

    /// Attach a new edge into `h`'s inbox. `None` capacity = unbounded
    /// (mutex deque, or segmented ring); `Some(n)` = bounded with
    /// blocking backpressure.
    pub(super) fn edge<M>(
        self,
        h: &edge::InboxHandle<M>,
        capacity: Option<usize>,
    ) -> edge::EdgeSender<M> {
        match self {
            EdgeStorage::Mutex => h.edge(capacity),
            EdgeStorage::Ring => h.ring_edge(capacity),
        }
    }
}

/// Inboxes, attach handles, and peer route tables for one plan's
/// workers, all indexed by the plan's (local) worker id.
pub(super) struct Wired<Prog: DgsProgram> {
    pub(super) inboxes: Vec<Inbox<Prog>>,
    pub(super) handles: Vec<InboxHandle<Prog>>,
    pub(super) routes: Vec<Routes<Prog>>,
}

/// Wire `plan`: one inbox per worker, its readiness waker installed
/// *before* anything can be sent (so even the seed's forks enqueue
/// their targets), and worker→worker edges only where the protocol sends —
/// parent and children, unbounded: the fork/join protocol keeps at most
/// one join in flight per worker, so those queues are structurally
/// small, and blocking a worker's send could deadlock a cycle of full
/// edges. `slots[id]` is the slab slot worker `id` will occupy (the
/// identity for the initial plan, fresh slots for a replan's sub-plan).
pub(super) fn wire_plan<Prog: DgsProgram>(
    plan: &Plan<Prog::Tag>,
    slots: &[usize],
    sched: &Arc<Scheduler>,
    storage: EdgeStorage,
) -> Wired<Prog> {
    let inboxes: Vec<Inbox<Prog>> = slots
        .iter()
        .map(|&g| {
            let inbox = edge::inbox();
            let sched = sched.clone();
            inbox.set_waker(Arc::new(move || sched.wake(g)));
            inbox
        })
        .collect();
    let handles: Vec<InboxHandle<Prog>> = inboxes.iter().map(|i| i.handle()).collect();
    let routes = plan
        .iter()
        .map(|(_, w)| {
            let mut routes: Routes<Prog> = (0..plan.len()).map(|_| None).collect();
            for peer in w.children.iter().copied().chain(w.parent) {
                routes[peer.0] = Some(storage.edge(&handles[peer.0], None));
            }
            routes
        })
        .collect();
    Wired { inboxes, handles, routes }
}

/// Send an ordered run on one edge, crediting it to `in_flight` before
/// it enters the queue. A destination whose inbox is gone (teardown in
/// progress, or a dead worker) *surrenders* the undelivered suffix
/// instead of panicking: its credits are retired again so quiescence is
/// still reached, and the worker's panic (if any) is re-raised by the
/// driver after teardown. Returns how many messages were surrendered.
pub(super) fn send_credited<M>(
    in_flight: &InFlight,
    tx: &edge::EdgeSender<M>,
    run: impl ExactSizeIterator<Item = M>,
) -> usize {
    in_flight.add(run.len() as u64);
    let lost = match tx.send_many(run) {
        Ok(()) => 0,
        Err(edge::SendError(rest)) => rest.len(),
    };
    in_flight.sub(lost as u64);
    lost
}

/// In-flight message counter with a condvar signalled at zero.
///
/// `add`/`sub` are single atomic RMWs, paid once per sent run and once
/// per handled batch; the mutex and condvar are touched only by the
/// final decrement of a burst and by the waiting driver thread. The
/// counter transiently hitting zero mid-run (all messages of a window
/// handled before the sources emit the next) wakes the driver
/// spuriously, but the driver only starts waiting after every source has
/// finished, at which point zero means global quiescence — the same
/// protocol the old 200 µs sleep-poll implemented, minus the polling.
pub(super) struct InFlight {
    count: AtomicI64,
    /// A worker thread died mid-panic: credits it accepted will never be
    /// retired, so quiescence must stop waiting on the counter and let
    /// teardown run (the panic itself propagates at scope join).
    failed: AtomicBool,
    gate: Mutex<()>,
    zero: Condvar,
}

impl InFlight {
    pub(super) fn new() -> Self {
        InFlight {
            count: AtomicI64::new(0),
            failed: AtomicBool::new(false),
            gate: Mutex::new(()),
            zero: Condvar::new(),
        }
    }

    /// Mark the run as failed (a worker panicked) and wake the waiter.
    pub(super) fn fail(&self) {
        self.failed.store(true, Ordering::SeqCst);
        drop(self.gate.lock().expect("quiescence gate poisoned"));
        self.zero.notify_all();
    }

    pub(super) fn add(&self, n: u64) {
        self.count.fetch_add(n as i64, Ordering::SeqCst);
    }

    /// Retire `n` messages (handled, or surrendered because the
    /// destination is gone). Signals the condvar on the transition to 0.
    pub(super) fn sub(&self, n: u64) {
        if n > 0 && self.count.fetch_sub(n as i64, Ordering::SeqCst) == n as i64 {
            // Taking the gate before notifying closes the race with a
            // waiter that has checked the counter but not yet parked.
            drop(self.gate.lock().expect("quiescence gate poisoned"));
            self.zero.notify_all();
        }
    }

    /// Still waiting: work in flight and the run has not failed.
    fn busy(&self) -> bool {
        self.count.load(Ordering::SeqCst) != 0 && !self.failed.load(Ordering::SeqCst)
    }

    pub(super) fn wait_zero(&self) {
        let guard = self.gate.lock().expect("quiescence gate poisoned");
        drop(self.zero.wait_while(guard, |_| self.busy()).expect("quiescence gate poisoned"));
    }

    /// Bounded wait for zero, parked on the same condvar: `true` once the
    /// counter reads zero, `false` on timeout or a failed run. The
    /// elastic controller uses this while quiescing one partition so a
    /// liveness bug can only abort a replan, never hang the run.
    pub(super) fn wait_zero_for(&self, timeout: Duration) -> bool {
        let guard = self.gate.lock().expect("quiescence gate poisoned");
        let (_guard, _) = self
            .zero
            .wait_timeout_while(guard, timeout, |_| self.busy())
            .expect("quiescence gate poisoned");
        self.count.load(Ordering::SeqCst) == 0
    }
}
// ---- end quiescence protocol (scanned by `no_sleep_polling_in_quiescence`).
