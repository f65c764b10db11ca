//! Source feeding: capped feeder threads multiplexing the input
//! streams, paced against the wall clock or at full speed, and the
//! control plane the elastic controller pauses and reroutes them with.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::{Duration, Instant};

use dgs_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use dgs_sync::{Condvar, Mutex};

use dgs_core::event::{StreamItem, Timestamp};
use dgs_core::program::DgsProgram;

use super::wiring::{send_credited, EdgeSender, Msg, ThreadMsg};
use super::RunShared;
use crate::worker::WorkerMsg;

/// Messages per unpaced feeder batch (paced feeders send item by item:
/// each item has its own release time).
const FEED_BATCH: usize = 64;
/// How long a feeder parks when *every* stream it multiplexes is
/// blocked on a full ingress edge; bounded so whichever edge drains
/// first resumes the rotation.
const INGRESS_PARK: Duration = Duration::from_micros(200);
/// Longest single sleep while pacing a source: between chunks the feeder
/// polls its control channel, so an elastic pause engages within ~1 ms
/// even when the next release time is far off.
const PACE_CHUNK: Duration = Duration::from_millis(1);

/// One input stream as owned by a (capped) feeder thread: its remaining
/// items and its ingress edge. Feeder threads are capped at the shard
/// count; each owns a fixed set of streams and interleaves them —
/// round-robin batches unpaced, a release-time merge paced — so
/// per-stream send order (the only order assumption 4 of Theorem 3.5
/// needs) is preserved exactly.
pub(super) struct Feed<Prog: DgsProgram> {
    pub(super) si: usize,
    /// The plan partition this stream feeds — fixed for the whole run
    /// even as elastic reroutes move `route` between slots, so in-flight
    /// credits always land on the right quiescence counter.
    pub(super) part: usize,
    /// Bounded ingress edge into the worker responsible for the stream:
    /// a full edge pushes back on the source instead of buffering.
    pub(super) route: EdgeSender<Prog>,
    pub(super) items: std::vec::IntoIter<StreamItem<Prog::Tag, Prog::Payload>>,
}

fn to_msg<Prog: DgsProgram>(item: StreamItem<Prog::Tag, Prog::Payload>) -> Msg<Prog> {
    ThreadMsg::Protocol(match item {
        StreamItem::Event(e) => WorkerMsg::Event(e),
        StreamItem::Heartbeat(h) => WorkerMsg::Heartbeat(h),
    })
}

/// The elastic controller's handle on the feeder threads: pause the
/// streams of one partition during a migration, hand each its rebound
/// ingress route, and resume. Feeders acknowledge control epochs at
/// their loop tops — never mid-send — so an acknowledged pause means no
/// send to the paused streams is in progress or will start.
pub(super) struct FeederControl<Prog: DgsProgram> {
    /// Per-stream pause flag; checked before every send.
    paused: Vec<AtomicBool>,
    /// Per-stream pending reroute: the fresh ingress edge, parked for
    /// the owning feeder to take before its next send.
    reroutes: Vec<Mutex<Option<EdgeSender<Prog>>>>,
    /// Bumped on every pause/unpause; feeders ack the epoch they saw.
    epoch: AtomicU64,
    /// Per-feeder last-acknowledged epoch.
    acks: Vec<AtomicU64>,
    /// Per-feeder finished flag: an exited feeder acks implicitly.
    finished: Vec<AtomicBool>,
    gate: Mutex<()>,
    cv: Condvar,
}

impl<Prog: DgsProgram> FeederControl<Prog> {
    pub(super) fn new(streams: usize, feeders: usize) -> Self {
        FeederControl {
            paused: (0..streams).map(|_| AtomicBool::new(false)).collect(),
            reroutes: (0..streams).map(|_| Mutex::new(None)).collect(),
            epoch: AtomicU64::new(0),
            acks: (0..feeders).map(|_| AtomicU64::new(0)).collect(),
            finished: (0..feeders).map(|_| AtomicBool::new(false)).collect(),
            gate: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn is_paused(&self, si: usize) -> bool {
        self.paused[si].load(Ordering::SeqCst)
    }

    /// Whether the control epoch moved past what the feeder last acked
    /// — the cheap probe pacing loops poll between sleep chunks.
    fn epoch_moved(&self, last: u64) -> bool {
        self.epoch.load(Ordering::SeqCst) != last
    }

    /// Feeder-side control sync, called at loop tops: observe a new
    /// epoch and ack it. Returns `true` when the epoch moved (pause
    /// flags may have changed; the caller re-checks them per stream).
    fn sync(&self, me: usize, last: &mut u64) -> bool {
        let e = self.epoch.load(Ordering::SeqCst);
        if e == *last {
            return false;
        }
        *last = e;
        self.acks[me].store(e, Ordering::SeqCst);
        self.notify();
        true
    }

    /// Mark feeder `me` exited (all its streams drained or surrendered).
    fn finish(&self, me: usize) {
        self.finished[me].store(true, Ordering::SeqCst);
        self.notify();
    }

    fn notify(&self) {
        drop(self.gate.lock().expect("feeder control poisoned"));
        self.cv.notify_all();
    }

    /// Controller side: pause `streams`, then wait until every feeder
    /// has acknowledged the new epoch (or exited). `false` on timeout —
    /// the caller unpauses and abandons the replan.
    pub(super) fn pause_and_wait(&self, streams: &[usize], timeout: Duration) -> bool {
        for &si in streams {
            self.paused[si].store(true, Ordering::SeqCst);
        }
        let e = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        self.notify();
        let deadline = Instant::now() + timeout;
        let mut guard = self.gate.lock().expect("feeder control poisoned");
        loop {
            let all = (0..self.acks.len()).all(|f| {
                self.finished[f].load(Ordering::SeqCst) || self.acks[f].load(Ordering::SeqCst) >= e
            });
            if all {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (g, _) =
                self.cv.wait_timeout(guard, deadline - now).expect("feeder control poisoned");
            guard = g;
        }
    }

    /// Stage a rebound ingress edge for stream `si`. Always staged
    /// *before* the unpause that releases the stream.
    pub(super) fn set_reroute(&self, si: usize, route: EdgeSender<Prog>) {
        *self.reroutes[si].lock().expect("reroute slot poisoned") = Some(route);
    }

    /// Take any reroute staged for `f`'s stream and switch `f` onto it.
    /// Feeders call this right before *every* send, not at epoch syncs:
    /// `unpause` clears the pause flags *before* bumping the epoch, so a
    /// feeder can observe the cleared flag ahead of the epoch advance —
    /// and keying pickup on the epoch would send to the retired (dead)
    /// ingress edge and silently surrender the stream's tail. Reroutes
    /// are always staged before the unpause store, so a cleared flag
    /// guarantees the staged route is visible here (model-checked:
    /// `rebind_take_reroute_every_send_passes_exhaustively`).
    fn take_reroute(&self, f: &mut Feed<Prog>) {
        if let Some(route) = self.reroutes[f.si].lock().expect("reroute slot poisoned").take() {
            f.route = route;
        }
    }

    /// Clear the pause on `streams` and bump the epoch so parked feeders
    /// wake and resume.
    pub(super) fn unpause(&self, streams: &[usize]) {
        for &si in streams {
            self.paused[si].store(false, Ordering::SeqCst);
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.notify();
    }

    /// Clear every pause (controller teardown — normal or panicked — so
    /// no feeder stays parked forever).
    pub(super) fn resume_all(&self) {
        for p in &self.paused {
            p.store(false, Ordering::SeqCst);
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.notify();
    }

    /// Park a fully-paused feeder until the next control change.
    fn wait_change(&self, timeout: Duration) {
        let guard = self.gate.lock().expect("feeder control poisoned");
        let _ = self.cv.wait_timeout(guard, timeout).expect("feeder control poisoned");
    }
}

/// Sleep until `start + ts * ns_per_tick` on the wall clock (immediately
/// satisfied when the target is already past or the offset overflows).
/// Sleeps in [`PACE_CHUNK`] chunks, polling `interrupt` between chunks;
/// returns `false` the moment it reports `true`, leaving the caller to
/// re-sync and retry — items are delayed, never skipped.
fn pace_until(
    start: Instant,
    ts: Timestamp,
    ns_per_tick: u64,
    interrupt: impl Fn() -> bool,
) -> bool {
    let Some(offset_ns) = ns_per_tick.checked_mul(ts) else { return true };
    let target = start + Duration::from_nanos(offset_ns);
    loop {
        let now = Instant::now();
        if target <= now {
            return true;
        }
        std::thread::sleep((target - now).min(PACE_CHUNK));
        if interrupt() {
            return false;
        }
    }
}

/// One feeder thread: drive the owned streams to exhaustion, paced
/// against the wall clock when the run is paced, at full speed otherwise.
pub(super) fn run_feeder<Prog: DgsProgram>(
    fi: usize,
    group: Vec<Feed<Prog>>,
    run: &RunShared<Prog>,
) {
    match run.env.pace {
        Some(ns) => feed_paced(fi, group, ns, run),
        None => feed_unpaced(fi, group, run),
    }
    run.ctl.finish(fi);
}

/// Fold a send into a stream's metrics: fed-item count and arrival
/// rate, plus the edge's cumulative stall total (the edge owns the
/// counter; this just republishes it so snapshots see it live).
fn note_sent<Prog: DgsProgram>(run: &RunShared<Prog>, f: &Feed<Prog>, sent: usize) {
    if let Some(m) = &run.env.metrics {
        let sm = &m.streams[f.si];
        sm.events.add(sent as u64);
        sm.rate.record(m.elapsed_ns(), sent as u64);
        sm.stalls.set(f.route.stalls());
    }
}

/// Paced: merge the owned streams by release time (ties broken by
/// slot, deterministically) so one thread paces many sources without
/// reordering any single stream. The control protocol rides the loop
/// top: epochs are acked only between sends, so an acknowledged pause
/// guarantees no send is mid-flight; a paused stream parks off the heap
/// and re-enters when released.
fn feed_paced<Prog: DgsProgram>(
    fi: usize,
    mut group: Vec<Feed<Prog>>,
    ns: u64,
    run: &RunShared<Prog>,
) {
    let ctl = &run.ctl;
    let mut last_epoch = 0u64;
    let mut parked: Vec<bool> = vec![false; group.len()];
    let mut pending: Vec<Option<StreamItem<_, _>>> = Vec::new();
    let mut heap = BinaryHeap::new();
    for (i, f) in group.iter_mut().enumerate() {
        let nxt = f.items.next();
        if let Some(item) = &nxt {
            heap.push(Reverse((item.ts(), i)));
        }
        pending.push(nxt);
    }
    loop {
        if ctl.sync(fi, &mut last_epoch) {
            for (i, pk) in parked.iter_mut().enumerate() {
                if *pk && !ctl.is_paused(group[i].si) {
                    *pk = false;
                    if let Some(item) = &pending[i] {
                        heap.push(Reverse((item.ts(), i)));
                    }
                }
            }
        }
        let Some(Reverse((ts, i))) = heap.pop() else {
            if parked.iter().any(|&b| b) {
                // Everything live is exhausted but a paused stream
                // still holds items: wait for the release.
                ctl.wait_change(INGRESS_PARK);
                continue;
            }
            break;
        };
        if ctl.is_paused(group[i].si) {
            parked[i] = true;
            continue;
        }
        if !pace_until(run.env.start, ts, ns, || ctl.epoch_moved(last_epoch)) {
            // A control epoch landed mid-sleep; put the item back and
            // ack before sending.
            heap.push(Reverse((ts, i)));
            continue;
        }
        let f = &mut group[i];
        ctl.take_reroute(f);
        let item = pending[i].take().expect("heap entry has an item");
        let lost =
            send_credited(&run.in_flights[f.part], &f.route, std::iter::once(to_msg::<Prog>(item)));
        note_sent(run, f, 1 - lost);
        if lost > 0 {
            // The worker is gone; this stream cannot be delivered.
            // Surrender it quietly — the run's failure surfaces after
            // teardown.
            continue;
        }
        if let Some(nxt) = f.items.next() {
            heap.push(Reverse((nxt.ts(), i)));
            pending[i] = Some(nxt);
        }
    }
}

/// Unpaced: rotate *non-blocking* batches across the owned streams. A
/// bounded ingress edge that fills must not stall the feeder's other
/// streams — with feeders capped at the shard count, a blocking send
/// would serialize every stream in the group behind the slowest
/// consumer (measured 20–40% of unpaced throughput) — so a full edge
/// keeps its batch pending, the rotation moves on, and the feeder parks
/// only when every owned stream is blocked, with a bounded timeout so
/// whichever edge drains first resumes it.
fn feed_unpaced<Prog: DgsProgram>(fi: usize, group: Vec<Feed<Prog>>, run: &RunShared<Prog>) {
    let ctl = &run.ctl;
    let mut streams: Vec<(Feed<Prog>, VecDeque<Msg<Prog>>, bool)> =
        group.into_iter().map(|f| (f, VecDeque::with_capacity(FEED_BATCH), false)).collect();
    let mut last_epoch = 0u64;
    while !streams.is_empty() {
        // Ack control epochs only at the rotation top — never mid-send
        // — so an acknowledged pause implies the feeder holds no
        // uncredited in-flight messages for the paused streams
        // (undelivered batches keep their credits off the counter until
        // retry).
        ctl.sync(fi, &mut last_epoch);
        let mut progress = false;
        let mut i = 0;
        while i < streams.len() {
            let (f, pending, done) = &mut streams[i];
            if ctl.is_paused(f.si) {
                i += 1;
                continue;
            }
            ctl.take_reroute(f);
            while pending.len() < FEED_BATCH && !*done {
                match f.items.next() {
                    Some(item) => pending.push_back(to_msg::<Prog>(item)),
                    None => *done = true,
                }
            }
            if pending.is_empty() {
                // Exhausted and fully delivered: retire the stream.
                streams.remove(i);
                progress = true;
                continue;
            }
            let attempted = pending.len();
            let in_flight = &run.in_flights[f.part];
            in_flight.add(attempted as u64);
            let (pushed, dead) = f.route.try_send_many(pending);
            // The unsent suffix stays pending for the next rotation;
            // retire its credits (they are re-added before the retry).
            in_flight.sub((attempted - pushed) as u64);
            if pushed > 0 {
                progress = true;
                note_sent(run, f, pushed);
            }
            if dead {
                // The worker is gone; this stream cannot be delivered.
                // Surrender it quietly — the run's failure surfaces
                // after teardown.
                streams.remove(i);
                progress = true;
                continue;
            }
            i += 1;
        }
        if !progress {
            match streams.iter().find(|(f, _, _)| !ctl.is_paused(f.si)) {
                Some((f, _, _)) => f.route.wait_not_full(INGRESS_PARK),
                // Every owned stream is paused: wait on the control
                // condvar instead of an edge that will not move.
                None => ctl.wait_change(INGRESS_PARK),
            }
        }
    }
}
