//! The run shape of one workload in one process: build the inputs from the
//! seed, derive the plan, take a discarded warm-up draw and then timed draws
//! of `job.run(Backend::Threads(..))`, check every draw's outputs against
//! `Backend::Spec` outside the timed window, and report medians.
//!
//! The harness calls only a narrow public surface of the system (listed in
//! `bench/README.md`), so that later refactors of the drivers do not break
//! it: `Job::{new, plan, run, program, streams}`, `Backend::{Threads, Spec}`,
//! a few `ThreadRunOptions` fields, and `RunReport.{outputs, effects,
//! timing, metrics}`. It never names a `ChannelMode`.

use std::path::PathBuf;
use std::time::Instant;

use flumina::api::{Backend, Job, ThreadRunOptions};
use flumina::apps::page_view::PageViewJoin;
use flumina::apps::value_barrier::ValueBarrier;
use flumina::core::event::Timestamp;
use flumina::core::program::DgsProgram;
use flumina::runtime::source::ScheduledStream;

use crate::ledger::cost_ledger;
use crate::metrics::{Metric, Outcome};
use crate::probes;
use crate::stats::{median, percentile_sorted, summarize};
use crate::trace::{self, Tracer};
use crate::verify::Reference;
use crate::workloads::{pv_out_key, vb_out_key, Shape, Workload, LATENCY_LIMIT_NS};

pub struct Config {
    pub seed: u64,
    /// Keep drawing until the timed windows add up to this many seconds.
    pub seconds: f64,
    pub trace: bool,
}

/// Timed draws per run: never fewer (a median of fewer is not steady on a
/// shared two-core host), and no more however short a draw is.
const MIN_DRAWS: usize = 5;
const MAX_DRAWS: usize = 9;
/// Traced draws of a `--trace 1` run; it spends the rest of its time on one
/// untraced draw, one without the metrics plane, one at the other shard
/// count, and the layer probes.
const TRACED_DRAWS: usize = 3;
/// `generate → Job::new → job.plan` is repeated this often, so that
/// `setup_s` is a median too.
const SETUP_REPEATS: usize = 3;

pub fn run(workload: &Workload, cfg: &Config) -> Outcome {
    match workload.shape {
        Shape::Vb(shape) => measure(
            workload,
            cfg,
            ValueBarrier,
            |seed| shape.streams(seed),
            vb_out_key,
        ),
        Shape::Pv(shape) => measure(
            workload,
            cfg,
            PageViewJoin,
            |seed| shape.streams(seed),
            pv_out_key,
        ),
    }
}

/// What one `job.run` on threads gave.
struct Draw {
    wall_s: f64,
    /// Time inside `job.run` but outside its timed window.
    overhead_s: f64,
    /// Outputs delivered within `LATENCY_LIMIT_NS` of their scheduled time ÷
    /// outputs expected. An unpaced draw has no schedule to be late against,
    /// so there it is the share of outputs delivered at all: 1.0 whenever
    /// `failed` is 0.
    on_time_share: f64,
    /// Per-output latency against the schedule; `None` on an unpaced draw.
    latency: Option<Latency>,
    msgs: u64,
    updates: u64,
    joins: u64,
    forks: u64,
    polls: u64,
    poll_msgs: u64,
    steals: u64,
    run_queue_max: u64,
    feeder_stalls: u64,
    ingress_depth_max: u64,
}

struct Latency {
    p50_us: f64,
    p99_us: f64,
}

impl Draw {
    /// An unpaced draw has no latency. The result line must still carry a
    /// measured number for every metric on every workload, so there it is
    /// the draw's wall time, and the table prints it as n/a.
    fn latency_p50_us(&self) -> f64 {
        self.latency
            .as_ref()
            .map_or(self.wall_s * 1e6, |l| l.p50_us)
    }

    fn latency_p99_us(&self) -> f64 {
        self.latency
            .as_ref()
            .map_or(self.wall_s * 1e6, |l| l.p99_us)
    }
}

#[derive(Clone, Copy)]
struct DrawOptions {
    shards: usize,
    pace_ns_per_tick: Option<u64>,
    metrics: bool,
}

/// The per-layer metrics that are read against the schedule, which only a
/// paced workload has (see `Draw::latency_p50_us`).
const NEEDS_SCHEDULE: [&str; 4] = [
    "executor.alt_shards_latency_p50_us",
    "feeder.schedule_overrun_ms",
    "feeder.latency_p50_us",
    "feeder.latency_p99_us",
];

/// Times of the `SETUP_REPEATS` set-ups, in milliseconds: the generator,
/// the plan derivation, and generator + `Job::new` + plan derivation.
#[derive(Default)]
struct SetUp {
    generate_ms: Vec<f64>,
    plan_ms: Vec<f64>,
    total_ms: Vec<f64>,
}

/// The specification's outputs and the tally of outputs checked against
/// them so far.
struct Checker<Out> {
    reference: Reference,
    key: fn(&Out, Timestamp) -> u64,
    attempted: u64,
    failed: u64,
}

impl<Out> Checker<Out> {
    /// An outcome carrying the tally, its metrics still to be filled in.
    fn outcome(&self) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            ..Default::default()
        }
    }

    fn check(&mut self, outputs: &[(Out, Timestamp)], tr: &mut Tracer) {
        let span = tr.begin("verify");
        let key = self.key;
        self.failed += self
            .reference
            .failed(outputs.iter().map(|(o, ts)| key(o, *ts)));
        self.attempted += self.reference.expected();
        tr.end(span);
    }
}

/// One `job.run` on threads, its outputs checked outside the timed window.
fn draw<P>(job: &Job<P>, checker: &mut Checker<P::Out>, opts: DrawOptions, tr: &mut Tracer) -> Draw
where
    P: DgsProgram + Send + Sync + 'static,
{
    let span = tr.begin("job.run");
    let t = Instant::now();
    let report = job.run(Backend::Threads(ThreadRunOptions {
        record_timing: true,
        pace_ns_per_tick: opts.pace_ns_per_tick,
        executor_threads: Some(opts.shards),
        metrics: opts.metrics,
        ..Default::default()
    }));
    let call = t.elapsed();
    tr.end(span);
    let timing = report.timing.expect("record_timing was set");
    tr.child_of_length(span, "job.run/window", timing.wall.as_nanos() as u64);
    checker.check(&report.outputs, tr);

    let expected = checker.reference.expected();
    let mut on_time = (report.outputs.len() as u64).min(expected);
    let latency = opts.pace_ns_per_tick.map(|_| {
        let mut ns = timing.output_latency_ns;
        ns.sort_unstable();
        on_time = (ns.partition_point(|&l| l <= LATENCY_LIMIT_NS) as u64).min(expected);
        Latency {
            p50_us: percentile_sorted(&ns, 50.0) as f64 / 1e3,
            p99_us: percentile_sorted(&ns, 99.0) as f64 / 1e3,
        }
    });
    let shards = report
        .metrics
        .as_ref()
        .map(|m| m.shards.as_slice())
        .unwrap_or_default();
    Draw {
        wall_s: timing.wall.as_secs_f64(),
        overhead_s: call.saturating_sub(timing.wall).as_secs_f64(),
        on_time_share: on_time as f64 / expected as f64,
        latency,
        msgs: report.effects.msgs.iter().sum(),
        updates: report.effects.updates.iter().sum(),
        joins: report.effects.joins.iter().sum(),
        forks: report.effects.forks.iter().sum(),
        polls: shards.iter().map(|s| s.polls).sum(),
        poll_msgs: shards.iter().map(|s| s.batch_msgs).sum(),
        steals: shards.iter().map(|s| s.steals).sum(),
        run_queue_max: shards
            .iter()
            .map(|s| s.run_queue_depth_max)
            .max()
            .unwrap_or(0),
        feeder_stalls: report.metrics.as_ref().map_or(0, |m| m.total_stalls()),
        ingress_depth_max: report.metrics.as_ref().map_or(0, |m| m.max_queue_depth()),
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Generator, `Job::new` and plan derivation, `SETUP_REPEATS` times over,
/// each step timed; the last job is the one measured.
fn set_up<P>(
    prog: &P,
    generate: &impl Fn(u64) -> Vec<ScheduledStream<P::Tag, P::Payload>>,
    seed: u64,
    tr: &mut Tracer,
) -> (Job<P>, SetUp)
where
    P: DgsProgram + Clone,
{
    let mut times = SetUp::default();
    let mut job: Option<Job<P>> = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous inputs first: peak RSS should count one set.
        drop(job.take());
        let start = Instant::now();
        let span = tr.begin("generate");
        let streams = generate(seed);
        times.generate_ms.push(ms_since(start));
        tr.end(span);
        let span = tr.begin("Job::new");
        let fresh = Job::new(prog.clone(), streams);
        tr.end(span);
        let span = tr.begin("job.plan");
        let t = Instant::now();
        std::hint::black_box(fresh.plan());
        times.plan_ms.push(ms_since(t));
        tr.end(span);
        times.total_ms.push(ms_since(start));
        job = Some(fresh);
    }
    (job.expect("SETUP_REPEATS > 0"), times)
}

/// `host.spin_ms`: the calibration loop now, averaged with the one taken
/// before the run.
fn spin_mean(before_ms: f64) -> f64 {
    (before_ms + probes::spin_ms()) / 2.0
}

/// Median over the draws of one reading.
fn med(draws: &[Draw], f: impl Fn(&Draw) -> f64) -> f64 {
    median(&draws.iter().map(f).collect::<Vec<_>>())
}

/// Summary over the draws of one reading, as a metric.
fn summarized(name: &'static str, draws: &[Draw], f: impl Fn(&Draw) -> f64) -> Metric {
    Metric::summarized(name, summarize(&draws.iter().map(f).collect::<Vec<_>>()))
}

/// Everything the timed draws of one run produced, ready to be reported.
struct Run<'a, P: DgsProgram> {
    w: &'a Workload,
    nproc: usize,
    /// Input events of the workload, as the divisor of every per-event figure.
    events: f64,
    opts: DrawOptions,
    job: Job<P>,
    checker: Checker<P::Out>,
    setup: SetUp,
    draws: Vec<Draw>,
    spin_before_ms: f64,
}

fn measure<P>(
    w: &Workload,
    cfg: &Config,
    prog: P,
    generate: impl Fn(u64) -> Vec<ScheduledStream<P::Tag, P::Payload>>,
    key: fn(&P::Out, Timestamp) -> u64,
) -> Outcome
where
    P: DgsProgram + Clone + Send + Sync + 'static,
{
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut tr = Tracer::new(cfg.trace);
    let root = tr.begin(w.name);
    let spin_before_ms = probes::spin_ms();

    let (job, setup) = set_up(&prog, &generate, cfg.seed, &mut tr);
    let span = tr.begin("spec");
    let reference = {
        let spec = job.run(Backend::Spec);
        Reference::new(spec.outputs.iter().map(|(o, ts)| key(o, *ts)).collect())
    };
    tr.end(span);
    let mut checker = Checker {
        reference,
        key,
        attempted: 0,
        failed: 0,
    };

    let opts = DrawOptions {
        shards: w.shards.count(nproc),
        pace_ns_per_tick: w.pace_ns_per_tick,
        metrics: true,
    };
    draw(&job, &mut checker, opts, &mut tr); // warm-up: checked, not timed
    let mut draws: Vec<Draw> = Vec::new();
    loop {
        draws.push(draw(&job, &mut checker, opts, &mut tr));
        let measured: f64 = draws.iter().map(|d| d.wall_s).sum();
        let enough = if cfg.trace {
            draws.len() >= TRACED_DRAWS
        } else {
            draws.len() >= MAX_DRAWS || (draws.len() >= MIN_DRAWS && measured >= cfg.seconds)
        };
        if enough {
            break;
        }
    }

    let run = Run {
        w,
        nproc,
        events: w.shape.events() as f64,
        opts,
        job,
        checker,
        setup,
        draws,
        spin_before_ms,
    };
    let mut out = if cfg.trace {
        run.per_layer(&mut tr)
    } else {
        run.end_to_end()
    };
    out.note(Metric::new(
        "failed_share",
        out.failed as f64 / out.attempted as f64,
    ));
    tr.end(root);

    if cfg.trace {
        let path = out_dir().join(format!("trace-{}.json", w.name));
        std::fs::create_dir_all(out_dir()).expect("create bench/out");
        std::fs::write(&path, trace::chrome_json(tr.spans(), w.name))
            .expect("write the trace file");
        out.text
            .push_str(&format!("trace written to {}\n", path.display()));
        out.text
            .push_str(&trace::render_ledger(&trace::ledger(tr.spans())));
    }
    out
}

impl<P> Run<'_, P>
where
    P: DgsProgram + Clone + Send + Sync + 'static,
{
    /// `--trace 0`: the four end-to-end metrics, and by-products that cost
    /// nothing to print beside them.
    fn end_to_end(self) -> Outcome {
        let (draws, events) = (&self.draws, self.events);
        let mut out = self.checker.outcome();
        out.push(summarized("throughput_eps", draws, |d| events / d.wall_s));
        out.push(summarized("on_time_share", draws, |d| d.on_time_share));
        out.push(Metric::new(
            "setup_s",
            (median(&self.setup.total_ms) + med(draws, |d| d.overhead_s * 1e3)) / 1e3,
        ));
        out.push(Metric::new("peak_rss_mb", probes::peak_rss_mb()));
        if self.opts.pace_ns_per_tick.is_some() {
            out.note(summarized(
                "feeder.latency_p50_us",
                draws,
                Draw::latency_p50_us,
            ));
            out.note(summarized(
                "feeder.latency_p99_us",
                draws,
                Draw::latency_p99_us,
            ));
        }
        out.note(summarized("worker.msgs_per_event", draws, |d| {
            d.msgs as f64 / events
        }));
        out.note(summarized("worker.joins_per_kevent", draws, |d| {
            d.joins as f64 / events * 1e3
        }));
        out.note(summarized("job.run_overhead_ms", draws, |d| {
            d.overhead_s * 1e3
        }));
        out.note(Metric::new("host.spin_ms", spin_mean(self.spin_before_ms)));
        out.note(Metric::new("host.shards", self.opts.shards as f64));
        out
    }

    /// `--trace 1`: three more draws (without the harness's spans, without
    /// the metrics plane, at the other shard count), the layer probes, and
    /// the per-layer metrics.
    fn per_layer(mut self, tr: &mut Tracer) -> Outcome {
        let (w, opts, events) = (self.w, self.opts, self.events);
        let span = tr.begin("untraced draw");
        tr.set_enabled(false);
        let untraced = draw(&self.job, &mut self.checker, opts, tr);
        tr.set_enabled(true);
        tr.end(span);
        let no_metrics = DrawOptions {
            metrics: false,
            ..opts
        };
        let no_metrics = draw(&self.job, &mut self.checker, no_metrics, tr);
        let alt_shards = w.shards.other().count(self.nproc);
        let alt = DrawOptions {
            shards: alt_shards,
            ..opts
        };
        let alt = draw(&self.job, &mut self.checker, alt, tr);

        let (prog, plan, streams) = (self.job.program(), self.job.plan(), self.job.streams());
        let expected = self.checker.reference.expected();
        let spec_ns = probes::spec_ns_per_event(&**prog, streams, expected, tr);
        let pump = probes::worker_pump(prog, &plan, streams, tr);
        self.checker.check(&pump.outputs, tr);
        let mailbox = probes::mailbox(prog, &plan, pump.busiest, &pump.delivered, tr);
        let edge = probes::edge(tr);
        let scratch = out_dir().join(format!("durable-{}-{}", w.name, std::process::id()));
        let durable = probes::durable(&scratch, tr);

        let draws = &self.draws;
        let tput = med(draws, |d| events / d.wall_s);
        let msgs_per_event = med(draws, |d| d.msgs as f64 / events);
        // One shard resolves to the mutex plane, more to the rings; the
        // ledger charges each handled message one send and one receive.
        let edge_ns = match opts.shards {
            1 => edge.mutex_ns_per_msg,
            _ => edge.ring_ns_per_msg,
        };
        let ledger = cost_ledger(tput, pump.ns_per_event, edge_ns, msgs_per_event);
        let slower_pct = |other: &Draw| {
            let other = events / other.wall_s;
            (other - tput) / other * 100.0
        };
        let due_ms = w.shape.last_tick() as f64 * w.pace_ns_per_tick.unwrap_or(0) as f64 / 1e6;

        let mut out = self.checker.outcome();
        #[rustfmt::skip]
        let metrics = [
            ("spec.update_ns_per_event", spec_ns),
            ("spec.speedup", tput * spec_ns / 1e9),
            ("plan.derive_ms", median(&self.setup.plan_ms)),
            ("plan.workers", plan.len() as f64),
            ("job.run_overhead_ms", med(draws, |d| d.overhead_s * 1e3)),
            ("gen.build_ms", median(&self.setup.generate_ms)),
            ("mailbox.independent_ns_per_event", mailbox.independent_ns_per_event),
            ("mailbox.barrier_ns_per_event", mailbox.barrier_ns_per_event),
            ("mailbox.buffered_peak", mailbox.buffered_peak as f64),
            ("worker.pump_ns_per_event", pump.ns_per_event),
            ("worker.msgs_per_event", msgs_per_event),
            ("worker.updates_per_event", med(draws, |d| d.updates as f64 / events)),
            ("worker.joins_per_kevent", med(draws, |d| d.joins as f64 / events * 1e3)),
            ("worker.forks_per_kevent", med(draws, |d| d.forks as f64 / events * 1e3)),
            ("edge.mutex_ns_per_msg", edge.mutex_ns_per_msg),
            ("edge.ring_ns_per_msg", edge.ring_ns_per_msg),
            ("edge.mutex_xthread_ns_per_msg", edge.mutex_xthread_ns_per_msg),
            ("edge.ring_xthread_ns_per_msg", edge.ring_xthread_ns_per_msg),
            ("edge.xthread_stalls", edge.xthread_stalls as f64),
            ("executor.polls", med(draws, |d| d.polls as f64)),
            ("executor.msgs_per_poll", med(draws, |d| d.poll_msgs as f64 / d.polls.max(1) as f64)),
            ("executor.steals", med(draws, |d| d.steals as f64)),
            ("executor.run_queue_max", med(draws, |d| d.run_queue_max as f64)),
            ("executor.remainder_ns_per_event", ledger.remainder_ns_per_event),
            ("executor.remainder_share", ledger.remainder_share),
            ("executor.alt_shards", alt_shards as f64),
            ("executor.alt_shards_latency_p50_us", alt.latency_p50_us()),
            ("feeder.stalls", med(draws, |d| d.feeder_stalls as f64)),
            ("feeder.ingress_depth_max", med(draws, |d| d.ingress_depth_max as f64)),
            ("feeder.schedule_overrun_ms", med(draws, |d| d.wall_s * 1e3 - due_ms)),
            ("feeder.latency_p50_us", med(draws, Draw::latency_p50_us)),
            ("feeder.latency_p99_us", med(draws, Draw::latency_p99_us)),
            ("durable.record_us_p50", durable.record_us_p50),
            ("durable.record_us_p99", durable.record_us_p99),
            ("durable.open_ms_per_1k_records", durable.open_ms_per_1k_records),
            ("durable.bytes_per_record", durable.bytes_per_record),
            ("metrics.overhead_pct", slower_pct(&no_metrics)),
            ("trace.overhead_pct", slower_pct(&untraced)),
            ("host.nproc", self.nproc as f64),
            ("host.loadavg1", probes::loadavg1()),
            ("host.spin_ms", spin_mean(self.spin_before_ms)),
        ];
        let paced = opts.pace_ns_per_tick.is_some();
        for (name, value) in metrics {
            let metric = Metric::new(name, value);
            out.push(if paced || !NEEDS_SCHEDULE.contains(&name) {
                metric
            } else {
                metric.not_applicable()
            });
        }
        #[rustfmt::skip]
        let notes = [
            ("throughput_eps", tput),
            ("worker.pump_msgs_per_event", pump.msgs_per_event),
            ("ledger.total_ns_per_event", ledger.total_ns_per_event),
            ("ledger.worker_ns_per_event", ledger.worker_ns_per_event),
            ("ledger.edge_ns_per_event", ledger.edge_ns_per_event),
            ("ledger.remainder_ns_per_event", ledger.remainder_ns_per_event),
        ];
        for (name, value) in notes {
            out.note(Metric::new(name, value));
        }
        out
    }
}

/// `bench/out`, beside this package's manifest: traces and the durable
/// probe's scratch directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::workloads::{Shards, VbShape};

    fn small(name: &'static str, pace_ns_per_tick: Option<u64>) -> Workload {
        let shape = Shape::Vb(VbShape {
            values_per_window: 10,
            windows: 400,
        });
        Workload {
            name,
            shape,
            pace_ns_per_tick,
            shards: Shards::Half,
        }
    }

    fn names(metrics: &[Metric]) -> Vec<&str> {
        metrics.iter().map(|m| m.name).collect()
    }

    fn note(out: &Outcome, name: &str) -> f64 {
        out.notes
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no note {name}"))
            .value
    }

    #[test]
    fn an_untraced_run_reports_exactly_the_end_to_end_metrics() {
        let out = run(
            &small("test-e2e", None),
            &Config {
                seed: 1,
                seconds: 0.0,
                trace: false,
            },
        );
        assert_eq!(
            names(&out.metrics),
            END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        // Warm-up + MIN_DRAWS draws, 400 outputs each, all correct.
        assert_eq!(
            (out.attempted, out.failed),
            (400 * (1 + MIN_DRAWS as u64), 0)
        );
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "end-to-end metrics are never 0"
        );
        assert_eq!(out.metrics[0].summary.unwrap().n, MIN_DRAWS);
        assert_eq!(note(&out, "failed_share"), 0.0);
        assert_eq!(
            note(&out, "worker.joins_per_kevent"),
            3.0 * 400.0 / 16_400.0 * 1e3
        );
    }

    #[test]
    fn a_paced_run_reports_latency_against_the_schedule() {
        // 4000 ticks at 50 µs: 0.2 s per draw.
        let out = run(
            &small("test-paced", Some(50_000)),
            &Config {
                seed: 2,
                seconds: 0.0,
                trace: false,
            },
        );
        let (tput, on_time) = (out.metrics[0].value, out.metrics[1].value);
        let p50 = note(&out, "feeder.latency_p50_us");
        assert!(
            (10_000.0..=82_000.0).contains(&tput),
            "16 400 events in no less than 0.2 s, not {tput}/s"
        );
        assert!(
            p50 < 0.1e6,
            "the median output is far less than half a draw late: {p50} us"
        );
        assert!(note(&out, "feeder.latency_p99_us") >= p50);
        assert!(on_time > 0.0 && on_time <= 1.0, "on-time share {on_time}");
    }

    #[test]
    fn a_traced_run_reports_exactly_the_per_layer_metrics_and_a_ledger_that_sums() {
        let w = small("test-traced", None);
        let out = run(
            &w,
            &Config {
                seed: 1,
                seconds: 0.0,
                trace: true,
            },
        );
        assert_eq!(
            names(&out.metrics),
            PER_LAYER.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        // Warm-up, the traced draws, untraced, no metrics, other shard count, pump.
        assert_eq!(
            (out.attempted, out.failed),
            (400 * (TRACED_DRAWS as u64 + 5), 0)
        );
        let lines = note(&out, "ledger.worker_ns_per_event")
            + note(&out, "ledger.edge_ns_per_event")
            + note(&out, "ledger.remainder_ns_per_event");
        let total = note(&out, "ledger.total_ns_per_event");
        assert!((lines - total).abs() <= 1e-9 * total, "{lines} != {total}");
        assert!((total - 1e9 / note(&out, "throughput_eps")).abs() <= 1e-9 * total);

        let path = out_dir().join("trace-test-traced.json");
        let doc =
            crate::json::parse(&std::fs::read_to_string(&path).unwrap()).expect("a loadable trace");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let count = |name: &str| {
            events
                .iter()
                .filter(|e| e.get("name").unwrap().as_str() == Some(name))
                .count()
        };
        assert_eq!(
            count("job.run"),
            TRACED_DRAWS + 3,
            "the untraced draw records no span of its own"
        );
        assert_eq!(count("job.run/window"), TRACED_DRAWS + 3);
        assert_eq!(
            (count("generate"), count("probe.edge"), count("test-traced")),
            (SETUP_REPEATS, 1, 1)
        );
        assert!(out.text.contains("self_ms"));
        std::fs::remove_file(path).unwrap();
    }
}
