//! Source feeding: capped feeder threads multiplexing the input
//! streams in one non-blocking rotation — every item released no
//! earlier than its scheduled time when the run is paced, at once
//! otherwise — and the control plane the elastic controller pauses and
//! reroutes them with.

use std::collections::VecDeque;

use dgs_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use dgs_sync::time::{Duration, Instant};
use dgs_sync::{Condvar, Mutex};

use dgs_core::event::{StreamItem, Timestamp};
use dgs_core::program::DgsProgram;

use super::wiring::{EdgeSender, Msg};
use super::RunShared;
use crate::worker::WorkerMsg;

/// Most messages a feeder sends to one stream's edge per rotation.
const FEED_BATCH: usize = 64;
/// How long a feeder parks when *every* stream it multiplexes is
/// blocked on a full ingress edge (or paused); bounded so whichever
/// edge drains first resumes the rotation.
const INGRESS_PARK: Duration = Duration::from_micros(200);
/// Longest single wait for a paced item's release time: the feeder
/// waits on its control condvar, so an elastic pause engages at once
/// when signalled and within ~1 ms at worst, even when the next
/// release time is far off.
const PACE_CHUNK: Duration = Duration::from_millis(1);

/// One input stream as owned by a (capped) feeder thread: its remaining
/// items, borrowed from the job, and its ingress edge. Feeder threads
/// are capped at the shard count; each owns a fixed set of streams and
/// interleaves them in round-robin batches, so per-stream send order
/// (the only order assumption 4 of Theorem 3.5 needs) is preserved
/// exactly. An item is cloned only when it is queued for its edge.
pub(super) struct Feed<'a, Prog: DgsProgram> {
    pub(super) si: usize,
    /// The plan partition this stream feeds — fixed for the whole run
    /// even as elastic reroutes move `route` between slots, so in-flight
    /// credits always land on the right quiescence counter.
    pub(super) part: usize,
    /// Bounded ingress edge into the worker responsible for the stream:
    /// a full edge pushes back on the source instead of buffering.
    pub(super) route: EdgeSender<Prog>,
    pub(super) items: std::slice::Iter<'a, StreamItem<Prog::Tag, Prog::Payload>>,
}

fn to_msg<Prog: DgsProgram>(item: &StreamItem<Prog::Tag, Prog::Payload>) -> Msg<Prog> {
    match item {
        StreamItem::Event(e) => WorkerMsg::Event(e.clone()),
        StreamItem::Heartbeat(h) => WorkerMsg::Heartbeat(h.clone()),
    }
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

    /// Feeder-side control sync, called at loop tops: observe a new
    /// epoch and ack it (pause flags may have changed; the caller
    /// re-checks them per stream).
    fn sync(&self, me: usize, last: &mut u64) {
        let e = self.epoch.load(Ordering::SeqCst);
        if e != *last {
            *last = e;
            self.acks[me].store(e, Ordering::SeqCst);
            self.notify();
        }
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
        let acked = |f: usize| {
            self.finished[f].load(Ordering::SeqCst) || self.acks[f].load(Ordering::SeqCst) >= e
        };
        let guard = self.gate.lock().expect("feeder control poisoned");
        let (_guard, wait) = self
            .cv
            .wait_timeout_while(guard, timeout, |_| !(0..self.acks.len()).all(acked))
            .expect("feeder control poisoned");
        !wait.timed_out()
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
    fn take_reroute(&self, f: &mut Feed<'_, Prog>) {
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

    /// Park a feeder with nothing to send until the next control change
    /// (or `timeout`: the next release time, or a bounded re-check).
    fn wait_change(&self, timeout: Duration) {
        let guard = self.gate.lock().expect("feeder control poisoned");
        let _ = self.cv.wait_timeout(guard, timeout).expect("feeder control poisoned");
    }
}

/// Nanoseconds after the run's start at which an item stamped `ts` is
/// released: `None` means at once — the run is unpaced, or the product
/// overflows (notably the closing `u64::MAX` heartbeat).
fn release_ns(pace: Option<u64>, ts: Timestamp) -> Option<u64> {
    pace.and_then(|ns| ts.checked_mul(ns))
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Fold a send into a stream's metrics: fed-item count and arrival
/// rate, plus the edge's cumulative stall total (the edge owns the
/// counter; this just republishes it so snapshots see it live).
fn note_sent<Prog: DgsProgram>(run: &RunShared<Prog>, f: &Feed<'_, Prog>, sent: usize) {
    if let Some(m) = &run.env.metrics {
        let sm = &m.streams[f.si];
        sm.events.add(sent as u64);
        sm.rate.record(m.elapsed_ns(), sent as u64);
        sm.stalls.set(f.route.stalls());
    }
}

/// One feeder thread: rotate *non-blocking* batches of due items across
/// the owned streams until each is delivered or surrendered. An item is
/// due once the wall clock passes its release time ([`release_ns`];
/// unpaced, every item is due and the clock is never read). A bounded
/// ingress edge that fills must not stall the feeder's other streams —
/// with feeders capped at the shard count, a blocking send would
/// serialize every stream in the group behind the slowest consumer
/// (measured 20–40% of unpaced throughput) — so a full edge keeps its
/// batch pending and the rotation moves on. A rotation that sends
/// nothing parks: on a full edge while one holds unsent messages, else
/// on the control condvar until the next release time, each wait
/// bounded so a draining edge, a due item or a control change resumes
/// it.
pub(super) fn run_feeder<Prog: DgsProgram>(
    fi: usize,
    group: Vec<Feed<'_, Prog>>,
    run: &RunShared<Prog>,
) {
    let ctl = &run.ctl;
    let (pace, start) = (run.env.pace, run.env.start);
    let mut streams: Vec<(Feed<'_, Prog>, VecDeque<Msg<Prog>>)> =
        group.into_iter().map(|f| (f, VecDeque::with_capacity(FEED_BATCH))).collect();
    let mut last_epoch = 0u64;
    while !streams.is_empty() {
        // Ack control epochs only at the rotation top — never mid-send
        // — so an acknowledged pause implies the feeder holds no
        // uncredited in-flight messages for the paused streams
        // (undelivered batches keep their credits off the counter until
        // retry).
        ctl.sync(fi, &mut last_epoch);
        let now = if pace.is_some() { elapsed_ns(start) } else { 0 };
        let mut next_due: Option<u64> = None;
        let mut progress = false;
        let mut i = 0;
        while i < streams.len() {
            let (f, pending) = &mut streams[i];
            if ctl.is_paused(f.si) {
                i += 1;
                continue;
            }
            ctl.take_reroute(f);
            while pending.len() < FEED_BATCH {
                let Some(ts) = f.items.as_slice().first().map(StreamItem::ts) else { break };
                if let Some(at) = release_ns(pace, ts).filter(|&at| at > now) {
                    next_due = Some(next_due.map_or(at, |d| d.min(at)));
                    break;
                }
                pending.extend(f.items.next().map(to_msg::<Prog>));
            }
            if pending.is_empty() {
                if f.items.as_slice().is_empty() {
                    // Exhausted and fully delivered: retire the stream.
                    streams.remove(i);
                    progress = true;
                    continue;
                }
                // Its next item is not due yet.
                i += 1;
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
            // Park at most `cap`, and never past the next release time.
            let park_for = |cap: Duration| {
                next_due.map_or(INGRESS_PARK, |at| {
                    cap.min(Duration::from_nanos(at.saturating_sub(elapsed_ns(start))))
                })
            };
            match streams.iter().find(|(f, pending)| !pending.is_empty() && !ctl.is_paused(f.si)) {
                Some((f, _)) => f.route.wait_not_full(park_for(INGRESS_PARK)),
                // Nothing to send until a release time or a control
                // change: wait on the control condvar, not an edge.
                None => ctl.wait_change(park_for(PACE_CHUNK)),
            }
        }
    }
    ctl.finish(fi);
}
