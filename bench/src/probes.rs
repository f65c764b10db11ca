//! Layer probes: each drives one layer of the stack in isolation, from the
//! outside, on the workload's own plan and streams, and reports nanoseconds
//! per input event so the figures can be set against `1e9 / throughput_eps`.
//! They run only in a traced run (`--trace 1`), after the timed draws.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::edge::{inbox, EdgeSender};
use flumina::api::{CheckpointStore, DurableStore};
use flumina::apps::fraud::FdState;
use flumina::core::event::{Event, Heartbeat, StreamItem, Timestamp};
use flumina::core::program::DgsProgram;
use flumina::core::spec::run_sequential;
use flumina::core::tag::ITag;
use flumina::plan::plan::{Plan, WorkerId};
use flumina::runtime::mailbox::{Entry, Mailbox};
use flumina::runtime::source::ScheduledStream;
use flumina::runtime::worker::{partition_seeds, WorkerCore, WorkerMsg};

use crate::stats::percentile_sorted;
use crate::trace::Tracer;

pub type Streams<P> = [ScheduledStream<<P as DgsProgram>::Tag, <P as DgsProgram>::Payload>];

/// Spans per probe: enough to see drift along the run in a trace viewer,
/// few enough that a 150 000-window workload writes a trace that opens.
const PARTS: usize = 32;
/// Items the pump takes from one stream before it moves to the next — the
/// runtime's unpaced feeders rotate over their streams in batches of 64.
const FEED_BATCH: usize = 64;

/// Every event of the streams, merged in the total order `O` (tick-major,
/// stream-id-minor) with heartbeats dropped — the paper's `sortO`.
pub fn merged_events<P: DgsProgram>(streams: &Streams<P>) -> Vec<Event<P::Tag, P::Payload>> {
    let mut events: Vec<_> = streams.iter().flat_map(|s| s.events().cloned()).collect();
    events.sort_unstable_by_key(|e| (e.ts, e.stream));
    events
}

/// A probe's work is cut into this many spans of equal item count.
fn part_ends(items: usize) -> Vec<usize> {
    let mut ends: Vec<usize> = (1..=PARTS).map(|p| items * p / PARTS).collect();
    ends.dedup();
    ends
}

/// `spec`: the sequential specification on the merged input, one thread, no
/// runtime at all — the ceiling for `throughput_eps` and the COST baseline.
pub fn spec_ns_per_event<P: DgsProgram>(
    prog: &P,
    streams: &Streams<P>,
    expected_outputs: u64,
    tr: &mut Tracer,
) -> f64 {
    let span = tr.begin("probe.spec/merge");
    let merged = merged_events::<P>(streams);
    tr.end(span);
    let span = tr.begin("probe.spec/update");
    let t = Instant::now();
    let (state, outputs) = run_sequential(prog, &merged);
    let ns = t.elapsed().as_nanos() as f64;
    tr.end(span);
    assert_eq!(
        outputs.len() as u64,
        expected_outputs,
        "run_sequential disagrees with Backend::Spec"
    );
    black_box(state);
    ns / merged.len() as f64
}

pub struct MailboxProbe {
    /// Insert of an event nothing can block (every dependent timer already
    /// closed): the mailbox fast path.
    pub independent_ns_per_event: f64,
    /// What ordering against the ancestors' synchronizing events adds per
    /// own event: the full replay minus the fast path.
    pub barrier_ns_per_event: f64,
    pub buffered_peak: u64,
}

type Msg<P> =
    WorkerMsg<<P as DgsProgram>::Tag, <P as DgsProgram>::Payload, <P as DgsProgram>::State>;

/// `mailbox`: a fresh mailbox of plan worker `worker`, replaying exactly
/// the events, join requests and heartbeats the pump delivered to it.
pub fn mailbox<P: DgsProgram>(
    prog: &Arc<P>,
    plan: &Plan<P::Tag>,
    worker: WorkerId,
    delivered: &[Msg<P>],
    tr: &mut Tracer,
) -> MailboxProbe {
    let own: Vec<ITag<P::Tag>> = plan.worker(worker).itags.iter().cloned().collect();
    let mut ancestors: Vec<ITag<P::Tag>> = Vec::new();
    let mut up = plan.worker(worker).parent;
    while let Some(a) = up {
        ancestors.extend(plan.worker(a).itags.iter().cloned());
        up = plan.worker(a).parent;
    }
    let fresh = || {
        let p = prog.clone();
        Mailbox::<P::Tag, P::Payload>::new(
            own.iter().chain(&ancestors).cloned(),
            own.iter().cloned(),
            move |a, b| p.depends(a, b),
        )
    };
    let own_events = delivered
        .iter()
        .filter(|m| matches!(m, WorkerMsg::Event(_)))
        .count() as f64;

    let span = tr.begin("probe.mailbox/independent");
    let mut mb = fresh();
    for itag in &ancestors {
        mb.heartbeat(&Heartbeat::new(
            itag.tag.clone(),
            itag.stream,
            Timestamp::MAX,
        ));
    }
    let mut released = 0usize;
    let t = Instant::now();
    for msg in delivered {
        if let WorkerMsg::Event(e) = msg {
            released += mb.insert(Entry::Event(e.clone())).len();
        }
    }
    let independent = t.elapsed().as_nanos() as f64 / own_events;
    tr.end(span);
    black_box(released);

    let mut mb = fresh();
    let (mut released, mut buffered_peak, mut full_ns) = (0usize, 0usize, 0u128);
    let mut from = 0;
    for end in part_ends(delivered.len()) {
        let span = tr.begin("probe.mailbox/replay");
        let t = Instant::now();
        for msg in &delivered[from..end] {
            let out = match msg {
                WorkerMsg::Event(e) => mb.insert(Entry::Event(e.clone())),
                WorkerMsg::JoinRequest { tag, stream, ts } => {
                    buffered_peak = buffered_peak.max(mb.buffered());
                    mb.insert(Entry::JoinRequest {
                        tag: tag.clone(),
                        stream: *stream,
                        ts: *ts,
                    })
                }
                WorkerMsg::Heartbeat(hb) => {
                    buffered_peak = buffered_peak.max(mb.buffered());
                    mb.heartbeat(hb)
                }
                // State messages bypass the mailbox.
                _ => continue,
            };
            released += out.len();
        }
        full_ns += t.elapsed().as_nanos();
        tr.end(span);
        from = end;
    }
    black_box(released);
    MailboxProbe {
        independent_ns_per_event: independent,
        barrier_ns_per_event: full_ns as f64 / own_events - independent,
        buffered_peak: buffered_peak as u64,
    }
}

pub struct PumpProbe<P: DgsProgram> {
    pub ns_per_event: f64,
    /// Messages handled per input event, to set beside the threaded runs'.
    pub msgs_per_event: f64,
    pub outputs: Vec<(P::Out, Timestamp)>,
    /// The plan worker that owns the stream with the most events, and every
    /// message the pump delivered to it (the mailbox probe replays them).
    pub busiest: WorkerId,
    pub delivered: Vec<Msg<P>>,
}

/// `worker`: every `WorkerCore` of the plan driven by a single-thread pump
/// — mailbox, fork/join protocol and `update`, with a `VecDeque` where the
/// runtime has channels, threads and a scheduler. Like the runtime's
/// unpaced feeders it rotates over the streams in batches of 64 items (the
/// protocol is correct under any interleaving that keeps each stream in
/// order; this one keeps heartbeat forwarding coalescing as it does there).
pub fn worker_pump<P: DgsProgram>(
    prog: &Arc<P>,
    plan: &Plan<P::Tag>,
    streams: &Streams<P>,
    tr: &mut Tracer,
) -> PumpProbe<P> {
    let route: Vec<WorkerId> = streams
        .iter()
        .map(|s| {
            plan.responsible_for(&s.itag)
                .expect("every stream is routed")
        })
        .collect();
    let events: Vec<usize> = streams.iter().map(|s| s.events().count()).collect();
    let busiest = route[(0..streams.len())
        .max_by_key(|&s| events[s])
        .expect("a workload has streams")];
    let items: usize = streams.iter().map(|s| s.items.len()).sum();

    let mut cores: Vec<WorkerCore<P>> = (0..plan.len())
        .map(|w| WorkerCore::from_plan(prog.clone(), plan, WorkerId(w)))
        .collect();
    let mut queue: VecDeque<(WorkerId, Msg<P>)> = plan
        .roots()
        .iter()
        .copied()
        .zip(partition_seeds(&**prog, plan, prog.init()))
        .map(|(root, state)| (root, WorkerMsg::StateDown { state }))
        .collect();
    let mut cursors = vec![0usize; streams.len()];
    let (mut outputs, mut delivered) = (Vec::new(), Vec::new());
    let (mut fed, mut msgs, mut ns) = (0usize, 0u64, 0u128);
    let mut ends = part_ends(items).into_iter();
    let mut part_end = ends.next().expect("at least one part");
    let mut span = tr.begin("probe.worker/pump");
    let mut t = Instant::now();
    while fed < items {
        for (s, stream) in streams.iter().enumerate() {
            let batch =
                &stream.items[cursors[s]..(cursors[s] + FEED_BATCH).min(stream.items.len())];
            cursors[s] += batch.len();
            fed += batch.len();
            queue.extend(batch.iter().map(|item| {
                let msg = match item {
                    StreamItem::Event(e) => WorkerMsg::Event(e.clone()),
                    StreamItem::Heartbeat(hb) => WorkerMsg::Heartbeat(hb.clone()),
                };
                (route[s], msg)
            }));
            while let Some((dst, msg)) = queue.pop_front() {
                if dst == busiest {
                    delivered.push(msg.clone());
                }
                let fx = cores[dst.0].handle(msg);
                msgs += 1;
                outputs.extend(fx.outputs);
                queue.extend(fx.msgs);
            }
            if fed >= part_end && fed < items {
                ns += t.elapsed().as_nanos();
                tr.end(span);
                part_end = ends.next().expect("parts cover every item");
                span = tr.begin("probe.worker/pump");
                t = Instant::now();
            }
        }
    }
    ns += t.elapsed().as_nanos();
    tr.end(span);
    let events = events.iter().sum::<usize>() as f64;
    PumpProbe {
        ns_per_event: ns as f64 / events,
        msgs_per_event: msgs as f64 / events,
        outputs,
        busiest,
        delivered,
    }
}

/// A message the size of a small `WorkerMsg::Event`.
type EdgeMsg = [u64; 4];
const EDGE_BATCH: usize = 64;
const EDGE_MSGS: usize = 2_000_000;
/// The runtime's default ingress capacity.
const INGRESS_CAPACITY: usize = 1024;

pub struct EdgeProbe {
    pub mutex_ns_per_msg: f64,
    pub ring_ns_per_msg: f64,
    pub mutex_xthread_ns_per_msg: f64,
    pub ring_xthread_ns_per_msg: f64,
    /// Times the cross-thread producers found the bounded edge full.
    pub xthread_stalls: u64,
}

fn batch(b: usize) -> impl Iterator<Item = EdgeMsg> {
    (0..EDGE_BATCH).map(move |i| [b as u64, i as u64, 0, 0])
}

/// Same thread, unbounded edge (the worker↔worker shape): `send_many` of
/// 64, `try_recv_batch` of 64.
fn edge_same_thread(ring: bool) -> f64 {
    let mut rx = inbox::<EdgeMsg>();
    let tx = if ring {
        rx.handle().ring_edge(None)
    } else {
        rx.handle().edge(None)
    };
    let mut out = VecDeque::with_capacity(EDGE_BATCH);
    let t = Instant::now();
    for b in 0..EDGE_MSGS / EDGE_BATCH {
        tx.send_many(batch(b)).expect("the inbox is alive");
        let n = rx
            .try_recv_batch(&mut out, EDGE_BATCH)
            .expect("the sender is alive");
        assert_eq!(n, EDGE_BATCH);
        black_box(&out);
        out.clear();
    }
    t.elapsed().as_nanos() as f64 / EDGE_MSGS as f64
}

/// Producer thread to consumer thread through a bounded edge (the
/// feeder→worker ingress shape). Returns ns per message and producer stalls.
fn edge_cross_thread(ring: bool) -> (f64, u64) {
    let mut rx = inbox::<EdgeMsg>();
    let tx: EdgeSender<EdgeMsg> = if ring {
        rx.handle().ring_edge(Some(INGRESS_CAPACITY))
    } else {
        rx.handle().edge(Some(INGRESS_CAPACITY))
    };
    let t = Instant::now();
    let stalls = std::thread::scope(|scope| {
        let producer = scope.spawn(move || {
            for b in 0..EDGE_MSGS / EDGE_BATCH {
                tx.send_many(batch(b)).expect("the inbox is alive");
            }
            tx.stalls()
        });
        let mut out = VecDeque::with_capacity(EDGE_BATCH);
        let mut received = 0;
        // `Err` = drained and the sender is gone.
        while let Ok(n) = rx.try_recv_batch(&mut out, EDGE_BATCH) {
            if n == 0 {
                std::thread::yield_now();
            }
            received += n;
            black_box(&out);
            out.clear();
        }
        assert_eq!(received, EDGE_MSGS);
        producer.join().expect("the producer does not panic")
    });
    (t.elapsed().as_nanos() as f64 / EDGE_MSGS as f64, stalls)
}

/// `edge`: the two storage back-ends of `vendor/crossbeam`'s per-edge plane.
pub fn edge(tr: &mut Tracer) -> EdgeProbe {
    let span = tr.begin("probe.edge");
    let (mutex_x, mutex_stalls) = edge_cross_thread(false);
    let (ring_x, ring_stalls) = edge_cross_thread(true);
    let probe = EdgeProbe {
        mutex_ns_per_msg: edge_same_thread(false),
        ring_ns_per_msg: edge_same_thread(true),
        mutex_xthread_ns_per_msg: mutex_x,
        ring_xthread_ns_per_msg: ring_x,
        xthread_stalls: mutex_stalls + ring_stalls,
    };
    tr.end(span);
    probe
}

const DURABLE_SMALL_RECORDS: u64 = 192;
const DURABLE_MAP_RECORDS: u64 = 64;

pub struct DurableProbe {
    pub record_us_p50: f64,
    pub record_us_p99: f64,
    pub open_ms_per_1k_records: f64,
    pub bytes_per_record: f64,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `durable`: `DurableStore::record` (one fsync each) and `open` on two
/// state sizes — the 16-byte `FdState` and a 64-page metadata map. No
/// workload persists on its hot path today (`Job::run` persists after
/// quiescence); these are the baseline for when one does.
pub fn durable(scratch: &Path, tr: &mut Tracer) -> DurableProbe {
    let span = tr.begin("probe.durable");
    let small_dir: PathBuf = scratch.join("small");
    let map_dir: PathBuf = scratch.join("map");
    let mut record_us: Vec<u64> = Vec::new();
    {
        let mut small = DurableStore::<FdState>::open(&small_dir).expect("open a fresh store");
        for k in 0..DURABLE_SMALL_RECORDS {
            let state = FdState {
                sum: k as i64 * 7,
                model: k as i64 % 1000,
            };
            let t = Instant::now();
            small.record(WorkerId(0), state, k + 1).expect("append");
            record_us.push(t.elapsed().as_micros() as u64);
        }
        let mut map =
            DurableStore::<BTreeMap<u32, i64>>::open(&map_dir).expect("open a fresh store");
        let mut pages: BTreeMap<u32, i64> = (0..64).map(|p| (p, 10_000)).collect();
        for k in 0..DURABLE_MAP_RECORDS {
            pages.insert((k % 64) as u32, k as i64);
            let t = Instant::now();
            map.record(WorkerId(0), pages.clone(), k + 1)
                .expect("append");
            record_us.push(t.elapsed().as_micros() as u64);
        }
    }
    let records = (DURABLE_SMALL_RECORDS + DURABLE_MAP_RECORDS) as f64;
    let bytes = dir_bytes(&small_dir) + dir_bytes(&map_dir);
    let t = Instant::now();
    let small = DurableStore::<FdState>::open(&small_dir).expect("reopen");
    let map = DurableStore::<BTreeMap<u32, i64>>::open(&map_dir).expect("reopen");
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        (small.len() + map.len()) as f64,
        records,
        "every record must be read back"
    );
    drop((small, map));
    let _ = std::fs::remove_dir_all(scratch);
    tr.end(span);
    record_us.sort_unstable();
    DurableProbe {
        record_us_p50: percentile_sorted(&record_us, 50.0) as f64,
        record_us_p99: percentile_sorted(&record_us, 99.0) as f64,
        open_ms_per_1k_records: open_ms / records * 1e3,
        bytes_per_record: bytes as f64 / records,
    }
}

/// `host.spin_ms`: a fixed serial busy loop. It takes the same time on a
/// quiet host whatever the code under test does, so two sets of runs whose
/// spin times differ by more than a tenth were not taken on the same host
/// conditions.
pub fn spin_ms() -> f64 {
    let t = Instant::now();
    let mut x = 1u64;
    for i in 0..40_000_000u64 {
        x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

pub fn loadavg1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::Reference;
    use crate::workloads::{pv_out_key, vb_out_key, PvShape, VbShape};
    use flumina::api::{Backend, Job};
    use flumina::apps::page_view::PageViewJoin;
    use flumina::apps::value_barrier::ValueBarrier;

    #[test]
    fn merged_events_are_tick_major_stream_minor_without_heartbeats() {
        let shape = VbShape {
            values_per_window: 10,
            windows: 3,
        };
        let merged = merged_events::<ValueBarrier>(&shape.streams(1));
        assert_eq!(merged.len() as u64, shape.events());
        assert!(merged
            .windows(2)
            .all(|w| (w[0].ts, w[0].stream) < (w[1].ts, w[1].stream)));
    }

    /// The pump is a correct (if single-threaded) driver: its outputs equal
    /// the specification's on both programs.
    #[test]
    fn worker_pump_reproduces_the_specification() {
        let mut tr = Tracer::new(true);
        let shape = VbShape {
            values_per_window: 10,
            windows: 40,
        };
        let job = Job::new(ValueBarrier, shape.streams(1));
        let spec = Reference::new(
            job.run(Backend::Spec)
                .outputs
                .iter()
                .map(|(o, t)| vb_out_key(o, *t))
                .collect(),
        );
        let pump = worker_pump(job.program(), &job.plan(), job.streams(), &mut tr);
        assert_eq!(spec.expected(), 40);
        assert_eq!(
            spec.failed(pump.outputs.iter().map(|(o, t)| vb_out_key(o, *t))),
            0
        );

        let shape = PvShape {
            pages: 4,
            mean_views: 20,
            windows: 5,
            window_ticks: 256,
        };
        let job = Job::new(PageViewJoin, shape.streams(2));
        let spec = Reference::new(
            job.run(Backend::Spec)
                .outputs
                .iter()
                .map(|(o, t)| pv_out_key(o, *t))
                .collect(),
        );
        let pump = worker_pump(job.program(), &job.plan(), job.streams(), &mut tr);
        assert_eq!(spec.expected(), shape.events());
        assert_eq!(
            spec.failed(pump.outputs.iter().map(|(o, t)| pv_out_key(o, *t))),
            0
        );
        assert!(pump.msgs_per_event >= 1.0);
        assert!(
            tr.spans()
                .iter()
                .filter(|s| s.name == "probe.worker/pump")
                .count()
                > 1
        );
    }

    #[test]
    fn mailbox_probe_replays_what_the_pump_delivered_to_the_busiest_leaf() {
        let mut tr = Tracer::new(false);
        let shape = VbShape {
            values_per_window: 100,
            windows: 10,
        };
        let job = Job::new(ValueBarrier, shape.streams(1));
        let (plan, prog) = (job.plan(), job.program());
        let pump = worker_pump(prog, &plan, job.streams(), &mut tr);
        // A value stream's leaf: all its 1000 values, and one join request
        // per barrier.
        assert!(plan.worker(pump.busiest).is_leaf());
        let count =
            |f: fn(&Msg<ValueBarrier>) -> bool| pump.delivered.iter().filter(|m| f(m)).count();
        assert_eq!(count(|m| matches!(m, WorkerMsg::Event(_))), 1000);
        assert_eq!(count(|m| matches!(m, WorkerMsg::JoinRequest { .. })), 10);
        let probe = mailbox(prog, &plan, pump.busiest, &pump.delivered, &mut tr);
        // The pump feeds 64 values before the barrier stream's turn.
        assert!(
            (1..=64).contains(&probe.buffered_peak),
            "peak {}",
            probe.buffered_peak
        );
        assert!(probe.independent_ns_per_event > 0.0);
    }

    #[test]
    fn spec_probe_counts_every_event() {
        let mut tr = Tracer::new(false);
        let shape = VbShape {
            values_per_window: 10,
            windows: 20,
        };
        assert!(spec_ns_per_event(&ValueBarrier, &shape.streams(1), 20, &mut tr) > 0.0);
    }

    #[test]
    fn host_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(loadavg1() >= 0.0);
    }
}
