//! Always-on observability plane for the Flumina runtime.
//!
//! The paper's evaluation (§6) reports throughput and latency curves,
//! but the runtime itself was a black box mid-run: effects tallies were
//! published only at thread exit, queue depths and feeder stalls were
//! invisible, and the durable store's repair work surfaced nowhere.
//! This crate is the registry those signals flush into, built so it can
//! stay armed on every run:
//!
//! - [`Counter`]/[`Gauge`] are single relaxed atomics. Hot-path writers
//!   (workers) keep *thread-local* tallies and publish them with plain
//!   `set` stores every few hundred messages, so the steady-state cost
//!   is a handful of uncontended stores per flush, not per message.
//! - [`Histogram`] is log-bucketed (powers of two) with atomic buckets.
//! - [`TraceRing`] is a bounded per-worker span ring touched only on
//!   rare protocol events (fork/join/checkpoint/crash/recovery).
//! - [`RateEstimator`] is the per-tag sliding-window sensor the future
//!   elastic replan controller will read.
//!
//! [`RunMetrics`] is the live registry (shared `Arc`, written
//! concurrently); [`MetricsSnapshot`] is its plain-data copy, which
//! renders to Prometheus text exposition ([`MetricsSnapshot::render_prometheus`])
//! and trace-ring JSON ([`MetricsSnapshot::trace_json`]). Snapshots of a
//! quiesced run are deterministic — rendering includes no wall-clock
//! reads — which the golden tests pin.

pub mod expo;
pub mod histogram;
pub mod rate;
pub mod trace;

pub use expo::{validate_exposition, Exposition, MetricType};
pub use histogram::{bucket_bound, Histogram, HistogramSnapshot, BUCKETS};
pub use rate::RateEstimator;
pub use trace::{trace_to_json, TraceEvent, TraceKind, TraceRing};

use dgs_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use dgs_sync::Arc;
use std::time::Instant;

/// Metric families every `flumina_*` exposition must contain; the CLI's
/// `metrics-lint` subcommand and the CI smoke step require these on top
/// of syntactic validity.
pub const REQUIRED_FAMILIES: &[&str] = &[
    "flumina_run_info",
    "flumina_worker_msgs_total",
    "flumina_queue_depth",
    "flumina_partition_queue_depth",
    "flumina_shard_polls_total",
    "flumina_shard_steals_total",
    "flumina_feeder_stalls_total",
    "flumina_outputs_total",
    "flumina_output_latency_ns",
    "flumina_store_fsync_ns",
    "flumina_replans_total",
    "flumina_replan_pause_ns",
];

/// Sentinel partition for a reserve worker slot that no elastic replan
/// has activated yet; such slots are omitted from snapshots.
pub const INACTIVE_PARTITION: usize = usize::MAX;

/// Per-worker trace-ring capacity.
pub const TRACE_RING_CAPACITY: usize = 256;

/// A monotone counter. One relaxed atomic; use [`Counter::set`] when a
/// single owner publishes a thread-local tally, [`Counter::add`] when
/// multiple writers share it.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `k` (read-modify-write; safe with many writers).
    pub fn add(&self, k: u64) {
        // ORDERING: Relaxed — metrics counters carry no cross-location
        // invariant; scrapes tolerate staleness (exact at quiescence).
        self.0.fetch_add(k, Ordering::Relaxed);
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Publish an absolute value (plain store; single-writer pattern —
    /// this is what worker flushes use so the hot path never RMWs).
    pub fn set(&self, v: u64) {
        // ORDERING: Relaxed — see `add`.
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ORDERING: Relaxed — see `add`.
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous value (same storage as [`Counter`], different
/// semantics: it may go down).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Publish the current value.
    pub fn set(&self, v: u64) {
        // ORDERING: Relaxed — gauges are observability-only values
        // with no cross-location invariant; readers tolerate staleness.
        self.0.store(v, Ordering::Relaxed);
    }

    /// Ratchet up to `v` if larger (running-maximum gauges).
    pub fn ratchet(&self, v: u64) {
        // ORDERING: Relaxed — see `set`.
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ORDERING: Relaxed — see `set`.
        self.0.load(Ordering::Relaxed)
    }
}

/// Identifying labels for one run, rendered as `flumina_run_info`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunInfo {
    /// Workload name. The driver does not know it, so this starts empty
    /// and callers that do know (CLI, bench) set it on the snapshot
    /// before rendering.
    pub workload: String,
    /// Artifact name of the edge storage the run used (`per-edge` or
    /// `per-edge-ring`).
    pub channel_mode: String,
    /// Worker count.
    pub workers: usize,
    /// Partition (independent subtree) count.
    pub partitions: usize,
}

/// Live per-worker counters and queue-depth gauges.
#[derive(Debug)]
pub struct WorkerMetrics {
    /// Which partition this worker's node belongs to. Atomic because an
    /// elastic replan can activate a reserve slot (or re-home a reused
    /// one) mid-run; [`INACTIVE_PARTITION`] marks a never-activated
    /// reserve slot.
    partition: AtomicUsize,
    /// Messages handled (updates + joins + forks + heartbeats routed).
    pub msgs: Counter,
    /// Update calls applied.
    pub updates: Counter,
    /// Join protocol steps completed.
    pub joins: Counter,
    /// Fork protocol steps completed.
    pub forks: Counter,
    /// Inbound queue depth at the last flush point.
    pub queue_depth: Gauge,
    /// Largest queue depth ever sampled.
    pub queue_depth_max: Gauge,
}

impl WorkerMetrics {
    /// The partition this slot currently belongs to
    /// ([`INACTIVE_PARTITION`] for an unactivated reserve slot).
    pub fn partition(&self) -> usize {
        // ORDERING: Relaxed — slot ownership label for scrapes; the
        // scheduler's own handoff synchronizes elsewhere.
        self.partition.load(Ordering::Relaxed)
    }

    /// Whether this slot has ever been activated.
    pub fn is_active(&self) -> bool {
        self.partition() != INACTIVE_PARTITION
    }
}

/// Live per-input-stream (feeder) counters.
#[derive(Debug)]
pub struct StreamMetrics {
    /// Events fed so far.
    pub events: Counter,
    /// Backpressure stalls: times the feeder blocked on a full edge.
    pub stalls: Counter,
    /// Sliding-window arrival-rate sensor.
    pub rate: RateEstimator,
}

/// Per-executor-shard scheduler counters: one event-loop thread drives a
/// shard of workers, and these tallies make its scheduling visible
/// (poll cadence, steal traffic, batch sizes, run-queue pressure).
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// Worker polls performed by this shard's event loop.
    pub polls: Counter,
    /// Workers stolen *by* this shard from other shards' run queues.
    pub steals: Counter,
    /// Protocol messages processed across all polls (divide by `polls`
    /// for the mean poll batch size).
    pub batch_msgs: Counter,
    /// Run-queue depth at the last flush point.
    pub run_queue_depth: Gauge,
    /// Largest run-queue depth ever sampled.
    pub run_queue_depth_max: Gauge,
}

/// Durable-store counters (fsync latency, append counts, repair work).
#[derive(Debug, Default)]
pub struct StoreMetrics {
    /// Record frames appended.
    pub appends: Counter,
    /// `sync_data` latency per append, nanoseconds.
    pub fsync: Histogram,
    /// Bytes discarded by torn-tail repair at open.
    pub repaired_bytes: Counter,
    /// Opens that fell back to a log scan because the manifest was
    /// missing or unreadable.
    pub manifest_fallbacks: Counter,
}

impl StoreMetrics {
    /// Plain-data copy of the current tallies.
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            appends: self.appends.get(),
            fsync: self.fsync.snapshot(),
            repaired_bytes: self.repaired_bytes.get(),
            manifest_fallbacks: self.manifest_fallbacks.get(),
        }
    }
}

/// The live registry for one run. Shared as an `Arc` between the
/// driver's workers/feeders and any sampler thread; every field is
/// individually thread-safe.
#[derive(Debug)]
pub struct RunMetrics {
    /// Run-identifying labels.
    pub info: RunInfo,
    /// Origin for `at_ns` trace timestamps and rate-estimator time.
    epoch: Instant,
    /// One entry per worker, indexed by `WorkerId`.
    pub workers: Vec<WorkerMetrics>,
    /// One entry per input stream, indexed by feeder position.
    pub streams: Vec<StreamMetrics>,
    /// One entry per executor shard (event-loop thread).
    pub shards: Vec<ShardMetrics>,
    /// Outputs emitted (all workers).
    pub outputs: Counter,
    /// Per-output latency vs schedule, nanoseconds (paced runs only).
    pub output_latency: Histogram,
    /// Elastic replans completed (fork + join directions).
    pub replans: Counter,
    /// Affected-partition pause per replan, nanoseconds (hold request to
    /// resume; untouched partitions keep flowing for the whole span).
    pub replan_pause_ns: Histogram,
    /// Durable-store counters — shared as an `Arc` so the store itself
    /// (`DurableStore::with_metrics`) can hold the same sink the
    /// registry snapshots.
    pub store: Arc<StoreMetrics>,
    /// Per-worker protocol span rings, indexed by `WorkerId`.
    pub traces: Vec<TraceRing>,
}

impl RunMetrics {
    /// A registry shaped for a run: `partition_of[w]` gives worker `w`'s
    /// partition, `n_streams` the input stream count, `n_shards` the
    /// executor shard (event-loop thread) count.
    pub fn for_shape(
        info: RunInfo,
        partition_of: &[usize],
        n_streams: usize,
        n_shards: usize,
    ) -> Self {
        RunMetrics {
            info,
            epoch: Instant::now(),
            workers: partition_of
                .iter()
                .map(|&partition| WorkerMetrics {
                    partition: AtomicUsize::new(partition),
                    msgs: Counter::default(),
                    updates: Counter::default(),
                    joins: Counter::default(),
                    forks: Counter::default(),
                    queue_depth: Gauge::default(),
                    queue_depth_max: Gauge::default(),
                })
                .collect(),
            streams: (0..n_streams)
                .map(|_| StreamMetrics {
                    events: Counter::default(),
                    stalls: Counter::default(),
                    rate: RateEstimator::default(),
                })
                .collect(),
            shards: (0..n_shards).map(|_| ShardMetrics::default()).collect(),
            outputs: Counter::default(),
            output_latency: Histogram::default(),
            replans: Counter::default(),
            replan_pause_ns: Histogram::default(),
            store: Arc::new(StoreMetrics::default()),
            traces: partition_of.iter().map(|_| TraceRing::new(TRACE_RING_CAPACITY)).collect(),
        }
    }

    /// Nanoseconds since the registry was created (the run's metrics
    /// epoch) — the time base for traces and rate estimation.
    pub fn elapsed_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a protocol span event on `worker`'s ring, stamped with the
    /// current elapsed time.
    pub fn trace(&self, worker: usize, kind: TraceKind, ts: u64) {
        if let Some(ring) = self.traces.get(worker) {
            ring.push(TraceEvent { kind, ts, at_ns: self.elapsed_ns() });
        }
    }

    /// Assign `worker` (a slab slot) to `partition`, activating it if it
    /// was an unused reserve slot. Once active a slot stays in snapshots
    /// for the rest of the run even if its task later retires — its
    /// counters record work that really happened.
    pub fn activate_worker(&self, worker: usize, partition: usize) {
        if let Some(w) = self.workers.get(worker) {
            // ORDERING: Relaxed — see `WorkerMetrics::partition`.
            w.partition.store(partition, Ordering::Relaxed);
        }
    }

    /// A plain-data copy of every metric at this instant. Racing writers
    /// may be mid-flush (values a flush interval stale); exact once the
    /// run has quiesced.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            info: self.info.clone(),
            workers: self
                .workers
                .iter()
                .enumerate()
                .filter(|(_, w)| w.is_active())
                .map(|(worker, w)| WorkerSnapshot {
                    worker,
                    partition: w.partition(),
                    msgs: w.msgs.get(),
                    updates: w.updates.get(),
                    joins: w.joins.get(),
                    forks: w.forks.get(),
                    queue_depth: w.queue_depth.get(),
                    queue_depth_max: w.queue_depth_max.get(),
                })
                .collect(),
            streams: self
                .streams
                .iter()
                .map(|s| StreamSnapshot {
                    events: s.events.get(),
                    stalls: s.stalls.get(),
                    rate_eps: s.rate.rate_eps(),
                })
                .collect(),
            shards: self
                .shards
                .iter()
                .map(|s| ShardSnapshot {
                    polls: s.polls.get(),
                    steals: s.steals.get(),
                    batch_msgs: s.batch_msgs.get(),
                    run_queue_depth: s.run_queue_depth.get(),
                    run_queue_depth_max: s.run_queue_depth_max.get(),
                })
                .collect(),
            outputs: self.outputs.get(),
            output_latency: self.output_latency.snapshot(),
            replans: self.replans.get(),
            replan_pause_ns: self.replan_pause_ns.snapshot(),
            store: self.store.snapshot(),
            traces: self
                .traces
                .iter()
                .enumerate()
                .filter(|&(worker, _)| self.workers.get(worker).is_none_or(|w| w.is_active()))
                .map(|(worker, ring)| {
                    let (events, dropped) = ring.snapshot();
                    TraceSnapshot { worker, capacity: ring.capacity(), events, dropped }
                })
                .collect(),
        }
    }
}

/// Plain-data copy of one worker's metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Worker slot id (slab index). Equal to the vector position unless
    /// elastic reserve slots left inactive holes in the registry.
    pub worker: usize,
    /// Partition the worker belongs to.
    pub partition: usize,
    /// Messages handled.
    pub msgs: u64,
    /// Updates applied.
    pub updates: u64,
    /// Joins completed.
    pub joins: u64,
    /// Forks completed.
    pub forks: u64,
    /// Queue depth at last flush.
    pub queue_depth: u64,
    /// Maximum sampled queue depth.
    pub queue_depth_max: u64,
}

/// Plain-data copy of one stream's metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSnapshot {
    /// Events fed.
    pub events: u64,
    /// Backpressure stalls.
    pub stalls: u64,
    /// Sliding-window arrival rate, events/second.
    pub rate_eps: f64,
}

/// Plain-data copy of one executor shard's scheduler counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Worker polls performed.
    pub polls: u64,
    /// Workers stolen from other shards.
    pub steals: u64,
    /// Messages processed across all polls.
    pub batch_msgs: u64,
    /// Run-queue depth at last flush.
    pub run_queue_depth: u64,
    /// Maximum sampled run-queue depth.
    pub run_queue_depth_max: u64,
}

/// Plain-data copy of the durable-store metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Frames appended.
    pub appends: u64,
    /// fsync latency histogram, nanoseconds.
    pub fsync: HistogramSnapshot,
    /// Bytes discarded by torn-tail repair.
    pub repaired_bytes: u64,
    /// Manifest-fallback opens.
    pub manifest_fallbacks: u64,
}

/// Plain-data copy of one worker's trace ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Worker id.
    pub worker: usize,
    /// Ring capacity.
    pub capacity: usize,
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events evicted to make room.
    pub dropped: u64,
}

/// Point-in-time copy of a [`RunMetrics`] registry: plain mutable data
/// (callers may fill in [`RunInfo::workload`] before rendering), with
/// render/summary methods. Two snapshots of a quiesced run are equal
/// and render identically.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Run-identifying labels.
    pub info: RunInfo,
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerSnapshot>,
    /// Per-stream counters, indexed by feeder position.
    pub streams: Vec<StreamSnapshot>,
    /// Per-shard scheduler counters, indexed by shard.
    pub shards: Vec<ShardSnapshot>,
    /// Outputs emitted.
    pub outputs: u64,
    /// Per-output latency histogram, nanoseconds.
    pub output_latency: HistogramSnapshot,
    /// Elastic replans completed.
    pub replans: u64,
    /// Affected-partition pause per replan, nanoseconds.
    pub replan_pause_ns: HistogramSnapshot,
    /// Durable-store counters.
    pub store: StoreSnapshot,
    /// Per-worker trace rings.
    pub traces: Vec<TraceSnapshot>,
}

impl MetricsSnapshot {
    /// Largest queue depth sampled on any worker.
    pub fn max_queue_depth(&self) -> u64 {
        self.workers.iter().map(|w| w.queue_depth_max).max().unwrap_or(0)
    }

    /// Total feeder backpressure stalls across streams.
    pub fn total_stalls(&self) -> u64 {
        self.streams.iter().map(|s| s.stalls).sum()
    }

    /// Total messages handled across workers.
    pub fn total_msgs(&self) -> u64 {
        self.workers.iter().map(|w| w.msgs).sum()
    }

    /// p95 fsync latency in nanoseconds (`None` when the store was
    /// never written).
    pub fn fsync_p95_ns(&self) -> Option<u64> {
        self.store.fsync.quantile(0.95)
    }

    /// Render the full registry as Prometheus text exposition. Output is
    /// a pure function of the snapshot (no wall-clock reads), so a
    /// quiesced run renders byte-identically on every call.
    pub fn render_prometheus(&self) -> String {
        let mut e = Exposition::default();

        e.family("flumina_run_info", "Run-identifying labels; value is always 1.", MetricType::Gauge);
        e.sample(
            "flumina_run_info",
            &[
                ("channel_mode", self.info.channel_mode.clone()),
                ("partitions", self.info.partitions.to_string()),
                ("workers", self.info.workers.to_string()),
                ("workload", self.info.workload.clone()),
            ],
            1.0,
        );

        let per_worker_counter = |e: &mut Exposition, name: &str, help: &str, pick: &dyn Fn(&WorkerSnapshot) -> u64| {
            e.family(name, help, MetricType::Counter);
            for ws in &self.workers {
                e.sample(
                    name,
                    &[("partition", ws.partition.to_string()), ("worker", ws.worker.to_string())],
                    pick(ws) as f64,
                );
            }
        };
        per_worker_counter(&mut e, "flumina_worker_msgs_total", "Messages handled per worker.", &|w| w.msgs);
        per_worker_counter(&mut e, "flumina_worker_updates_total", "Update calls applied per worker.", &|w| w.updates);
        per_worker_counter(&mut e, "flumina_worker_joins_total", "Join protocol steps completed per worker.", &|w| w.joins);
        per_worker_counter(&mut e, "flumina_worker_forks_total", "Fork protocol steps completed per worker.", &|w| w.forks);

        e.family("flumina_queue_depth", "Inbound queue depth per worker at the last flush point.", MetricType::Gauge);
        for ws in &self.workers {
            e.sample(
                "flumina_queue_depth",
                &[("partition", ws.partition.to_string()), ("worker", ws.worker.to_string())],
                ws.queue_depth as f64,
            );
        }
        e.family("flumina_queue_depth_max", "Largest inbound queue depth sampled per worker.", MetricType::Gauge);
        for ws in &self.workers {
            e.sample(
                "flumina_queue_depth_max",
                &[("partition", ws.partition.to_string()), ("worker", ws.worker.to_string())],
                ws.queue_depth_max as f64,
            );
        }

        // Per-partition aggregates: sum of member depths (live) and max
        // of member maxima (high-water), in partition order.
        let nparts = self.info.partitions.max(
            self.workers.iter().map(|w| w.partition + 1).max().unwrap_or(0),
        );
        e.family("flumina_partition_queue_depth", "Summed inbound queue depth of the partition's workers.", MetricType::Gauge);
        for p in 0..nparts {
            let sum: u64 = self.workers.iter().filter(|w| w.partition == p).map(|w| w.queue_depth).sum();
            e.sample("flumina_partition_queue_depth", &[("partition", p.to_string())], sum as f64);
        }
        e.family("flumina_partition_queue_depth_max", "Largest queue depth sampled on any worker of the partition.", MetricType::Gauge);
        for p in 0..nparts {
            let max = self
                .workers
                .iter()
                .filter(|w| w.partition == p)
                .map(|w| w.queue_depth_max)
                .max()
                .unwrap_or(0);
            e.sample("flumina_partition_queue_depth_max", &[("partition", p.to_string())], max as f64);
        }

        let per_shard = |e: &mut Exposition,
                         name: &str,
                         help: &str,
                         ty: MetricType,
                         pick: &dyn Fn(&ShardSnapshot) -> u64| {
            e.family(name, help, ty);
            for (s, ss) in self.shards.iter().enumerate() {
                e.sample(name, &[("shard", s.to_string())], pick(ss) as f64);
            }
        };
        per_shard(&mut e, "flumina_shard_polls_total", "Worker polls performed per executor shard.", MetricType::Counter, &|s| s.polls);
        per_shard(&mut e, "flumina_shard_steals_total", "Workers stolen from other shards' run queues, per thief shard.", MetricType::Counter, &|s| s.steals);
        per_shard(&mut e, "flumina_shard_batch_messages_total", "Messages processed across all polls per executor shard.", MetricType::Counter, &|s| s.batch_msgs);
        per_shard(&mut e, "flumina_shard_run_queue_depth", "Run-queue depth per executor shard at the last flush point.", MetricType::Gauge, &|s| s.run_queue_depth);
        per_shard(&mut e, "flumina_shard_run_queue_depth_max", "Largest run-queue depth sampled per executor shard.", MetricType::Gauge, &|s| s.run_queue_depth_max);

        e.family("flumina_stream_events_total", "Events fed per input stream.", MetricType::Counter);
        for (i, s) in self.streams.iter().enumerate() {
            e.sample("flumina_stream_events_total", &[("stream", i.to_string())], s.events as f64);
        }
        e.family("flumina_feeder_stalls_total", "Times the feeder blocked on a full edge (backpressure).", MetricType::Counter);
        for (i, s) in self.streams.iter().enumerate() {
            e.sample("flumina_feeder_stalls_total", &[("stream", i.to_string())], s.stalls as f64);
        }
        e.family("flumina_stream_rate_eps", "Sliding-window arrival rate per input stream, events/second.", MetricType::Gauge);
        for (i, s) in self.streams.iter().enumerate() {
            e.sample("flumina_stream_rate_eps", &[("stream", i.to_string())], s.rate_eps);
        }

        e.family("flumina_outputs_total", "Outputs emitted across all workers.", MetricType::Counter);
        e.sample("flumina_outputs_total", &[], self.outputs as f64);

        render_histogram(&mut e, "flumina_output_latency_ns", "Per-output latency versus schedule in nanoseconds (paced runs).", &self.output_latency);

        e.family("flumina_replans_total", "Elastic replans completed (fork + join directions).", MetricType::Counter);
        e.sample("flumina_replans_total", &[], self.replans as f64);
        render_histogram(&mut e, "flumina_replan_pause_ns", "Affected-partition pause per replan (hold request to resume), nanoseconds.", &self.replan_pause_ns);

        e.family("flumina_store_appends_total", "Record frames appended to the durable store.", MetricType::Counter);
        e.sample("flumina_store_appends_total", &[], self.store.appends as f64);
        render_histogram(&mut e, "flumina_store_fsync_ns", "Durable-store sync_data latency per append, nanoseconds.", &self.store.fsync);
        e.family("flumina_store_repaired_bytes_total", "Bytes discarded by torn-tail repair at store open.", MetricType::Counter);
        e.sample("flumina_store_repaired_bytes_total", &[], self.store.repaired_bytes as f64);
        e.family("flumina_store_manifest_fallbacks_total", "Store opens that fell back to a full log scan.", MetricType::Counter);
        e.sample("flumina_store_manifest_fallbacks_total", &[], self.store.manifest_fallbacks as f64);

        e.family("flumina_trace_events_total", "Protocol span events retained in trace rings, by kind.", MetricType::Counter);
        for kind in [
            TraceKind::Fork,
            TraceKind::Join,
            TraceKind::Checkpoint,
            TraceKind::Crash,
            TraceKind::Recovery,
            TraceKind::ReplanTrigger,
            TraceKind::ReplanQuiesce,
            TraceKind::ReplanMigrate,
            TraceKind::ReplanResume,
        ] {
            let n = self
                .traces
                .iter()
                .flat_map(|t| t.events.iter())
                .filter(|ev| ev.kind == kind)
                .count();
            e.sample("flumina_trace_events_total", &[("kind", kind.name().to_string())], n as f64);
        }
        e.family("flumina_trace_dropped_total", "Trace events evicted from full rings.", MetricType::Counter);
        e.sample(
            "flumina_trace_dropped_total",
            &[],
            self.traces.iter().map(|t| t.dropped).sum::<u64>() as f64,
        );

        e.finish()
    }

    /// All trace rings as one JSON array of per-worker objects (see
    /// `docs/BENCHMARKS.md` § Observability for the schema).
    pub fn trace_json(&self) -> String {
        let mut out = String::from("[");
        for (i, t) in self.traces.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&trace_to_json(t.worker, t.capacity, &t.events, t.dropped));
        }
        out.push(']');
        out
    }
}

/// Emit one histogram family: cumulative `le` buckets over the
/// power-of-two bounds, a `+Inf` bucket, `_sum`, and `_count`.
fn render_histogram(e: &mut Exposition, name: &str, help: &str, h: &HistogramSnapshot) {
    e.family(name, help, MetricType::Histogram);
    let bucket = format!("{name}_bucket");
    let mut cum = 0u64;
    for (i, &c) in h.buckets.iter().enumerate().take(BUCKETS - 1) {
        cum += c;
        e.sample(&bucket, &[("le", bucket_bound(i).to_string())], cum as f64);
    }
    e.sample(&bucket, &[("le", "+Inf".to_string())], h.count as f64);
    e.sample(&format!("{name}_sum"), &[], h.sum as f64);
    e.sample(&format!("{name}_count"), &[], h.count as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_registry() -> RunMetrics {
        let info = RunInfo {
            workload: "value-barrier".into(),
            channel_mode: "per-edge-ring".into(),
            workers: 3,
            partitions: 2,
        };
        RunMetrics::for_shape(info, &[0, 0, 1], 2, 2)
    }

    #[test]
    fn snapshot_render_validates_and_contains_required_families() {
        let m = small_registry();
        m.workers[0].msgs.set(10);
        m.workers[1].queue_depth_max.ratchet(7);
        m.streams[0].stalls.add(2);
        m.outputs.add(4);
        m.output_latency.record(1500);
        m.store.appends.inc();
        m.store.fsync.record(90_000);
        m.trace(1, TraceKind::Join, 42);

        let text = m.snapshot().render_prometheus();
        let families = validate_exposition(&text).expect("rendered exposition must validate");
        for required in REQUIRED_FAMILIES {
            assert!(
                families.iter().any(|f| f == required),
                "missing family {required} in:\n{text}"
            );
        }
    }

    #[test]
    fn quiesced_snapshots_are_identical() {
        let m = small_registry();
        m.workers[2].updates.set(99);
        m.streams[1].rate.record(250_000_000, 40);
        m.trace(0, TraceKind::Fork, 7);
        let a = m.snapshot();
        let b = m.snapshot();
        assert_eq!(a, b);
        assert_eq!(a.render_prometheus(), b.render_prometheus());
        assert_eq!(a.trace_json(), b.trace_json());
    }

    #[test]
    fn golden_exposition_fragment() {
        // Pin the exact text for a tiny registry: family naming, HELP/
        // TYPE lines, label order, and histogram framing are all API.
        let info = RunInfo {
            workload: "wl \"x\"\n".into(), // exercises label escaping
            channel_mode: "per-edge".into(),
            workers: 1,
            partitions: 1,
        };
        let m = RunMetrics::for_shape(info, &[0], 1, 1);
        m.workers[0].msgs.set(5);
        m.workers[0].queue_depth.set(2);
        m.workers[0].queue_depth_max.ratchet(3);
        let text = m.snapshot().render_prometheus();

        let head = "\
# HELP flumina_run_info Run-identifying labels; value is always 1.
# TYPE flumina_run_info gauge
flumina_run_info{channel_mode=\"per-edge\",partitions=\"1\",workers=\"1\",workload=\"wl \\\"x\\\"\\n\"} 1
# HELP flumina_worker_msgs_total Messages handled per worker.
# TYPE flumina_worker_msgs_total counter
flumina_worker_msgs_total{partition=\"0\",worker=\"0\"} 5
";
        assert!(text.starts_with(head), "exposition header drifted:\n{text}");
        assert!(text.contains("flumina_queue_depth{partition=\"0\",worker=\"0\"} 2\n"));
        assert!(text.contains("flumina_partition_queue_depth{partition=\"0\"} 2\n"));
        assert!(text.contains("flumina_partition_queue_depth_max{partition=\"0\"} 3\n"));
        assert!(text.contains("flumina_output_latency_ns_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("flumina_output_latency_ns_sum 0\n"));
        validate_exposition(&text).expect("golden fragment must validate");
    }

    #[test]
    fn summary_helpers() {
        let m = small_registry();
        m.workers[0].queue_depth_max.ratchet(4);
        m.workers[2].queue_depth_max.ratchet(9);
        m.streams[0].stalls.add(3);
        m.streams[1].stalls.add(5);
        for _ in 0..20 {
            m.store.fsync.record(1000);
        }
        let s = m.snapshot();
        assert_eq!(s.max_queue_depth(), 9);
        assert_eq!(s.total_stalls(), 8);
        // p95 of twenty 1000 ns fsyncs: the bucket bound containing 1000.
        assert_eq!(s.fsync_p95_ns(), Some(1023));
        let empty = small_registry().snapshot();
        assert_eq!(empty.fsync_p95_ns(), None);
    }

    #[test]
    fn reserve_slots_hide_until_activated_and_replans_render() {
        let info = RunInfo {
            workload: "page-view-zipf".into(),
            channel_mode: "per-edge".into(),
            workers: 2,
            partitions: 2,
        };
        // Two live workers plus two inactive reserve slots.
        let m = RunMetrics::for_shape(info, &[0, 1, INACTIVE_PARTITION, INACTIVE_PARTITION], 1, 1);
        let s = m.snapshot();
        assert_eq!(s.workers.len(), 2);
        assert_eq!(s.traces.len(), 2);
        assert_eq!(s.workers.iter().map(|w| w.worker).collect::<Vec<_>>(), vec![0, 1]);

        // A replan activates slot 3 into partition 1; slot 2 stays dark.
        m.activate_worker(3, 1);
        m.workers[3].msgs.set(17);
        m.replans.inc();
        m.replan_pause_ns.record(40_000);
        m.trace(3, TraceKind::ReplanResume, 9);
        let s = m.snapshot();
        assert_eq!(s.workers.len(), 3);
        assert_eq!(s.workers[2].worker, 3);
        assert_eq!(s.workers[2].partition, 1);
        assert_eq!(s.replans, 1);

        let text = s.render_prometheus();
        validate_exposition(&text).expect("exposition with reserve slots must validate");
        assert!(text.contains("flumina_worker_msgs_total{partition=\"1\",worker=\"3\"} 17\n"));
        assert!(!text.contains("worker=\"2\""));
        assert!(text.contains("flumina_replans_total 1\n"));
        assert!(text.contains("flumina_replan_pause_ns_count 1\n"));
        assert!(text.contains("flumina_trace_events_total{kind=\"replan-resume\"} 1\n"));
    }

    #[test]
    fn trace_json_is_per_worker_array() {
        let m = small_registry();
        m.trace(0, TraceKind::Checkpoint, 100);
        let json = m.snapshot().trace_json();
        assert!(json.starts_with("[{\"worker\":0,"), "{json}");
        assert!(json.contains("\"kind\":\"checkpoint\""));
        assert_eq!(json.matches("\"worker\":").count(), 3);
    }
}
