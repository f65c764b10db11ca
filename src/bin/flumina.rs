//! `flumina` — command-line front end for the DGS workspace.
//!
//! ```text
//! flumina plan <workload> [-n N] [--dot]             print the synchronization plan
//! flumina run  <workload> [-n N] [--checkpoint-dir D] execute on real threads, verify vs spec
//!              [--metrics] [--metrics-out FILE] [--metrics-interval MS]
//!              [--trace-out FILE] [--pace NS] [--executor-threads N]
//!              [--elastic | --no-elastic]
//! flumina sim  <workload> [-n N]                     simulate a cluster, report outcome
//! flumina metrics-lint <FILE>                        validate Prometheus text exposition
//! flumina list                                       list available workloads
//! ```
//!
//! Each command takes only the flags listed on its line; any other flag
//! (or a stray argument) is refused with the usage line and exit 2, the
//! same as an unknown flag.
//!
//! `run --checkpoint-dir D` persists the run's root-join checkpoints,
//! once it has verified, into a crash-durable
//! [`DurableStore`](flumina::api::DurableStore) under `D` (append-only
//! CRC-checksummed segments + manifest) and reports how many snapshots a
//! fresh reopen of the directory can see. `D` must be fresh: a directory
//! that cannot be opened, or that already holds an earlier run's
//! records, is refused before the run starts (a `✗` line, exit 1). If
//! the reopen had to repair torn bytes or reconstruct state without a
//! manifest, a visible `warning:` line says so on stderr.
//!
//! The metrics plane is always on; `--metrics` *prints* it — the final
//! quiesced snapshot as Prometheus text exposition on stdout (the human
//! verdict moves to stderr so `flumina run w --metrics > w.prom` stays
//! parseable). `--metrics-out FILE` writes the exposition to a file
//! instead. `--metrics-interval MS` samples the live registry mid-run
//! every `MS` milliseconds and prints one-line snapshots to stderr
//! (counters are visible while workers still run — pair with `--pace`
//! to stretch the run). `--trace-out FILE` dumps the per-worker trace
//! rings (fork/join/checkpoint spans) as JSON. `--executor-threads N`
//! pins the sharded executor's event-loop thread count (default: host
//! parallelism) — every plan worker is multiplexed onto those N threads
//! regardless of `-n`. `metrics-lint` re-parses
//! an exposition file and fails on syntax errors, histogram-invariant
//! violations, or missing required `flumina_*` families — CI runs it on
//! the smoke artifact.
//!
//! `run --elastic` turns on the elastic replan controller: the run is
//! reshaped into many small windows under saturating paced load, every
//! completed fork/join migration is streamed to stderr as an
//! `[elastic t+…]` line, and the verdict gains a replan tally. A controller-on run that completes **zero**
//! replans exits nonzero — on a skewed workload (`page-view-zipf`) the
//! controller finding nothing to do means the elasticity plane is
//! broken, and CI's replan smoke leans on that. `--no-elastic` (the
//! default) keeps the static plan.
//!
//! Workloads are resolved by name against the shared
//! [`registry`](flumina::apps::registry) — the same table the tests
//! and the `bench/` harness use, so the front ends cannot drift. Every
//! command goes through the unified [`flumina::api::Job`]
//! front door: the plan is derived from the workload's streams, and
//! `run` is a [`verify_against_spec`](flumina::api::Job::verify_against_spec)
//! call (Theorem 3.5 as a CLI exit code).

use dgs_sync::atomic::{AtomicBool, Ordering};
use std::num::NonZeroUsize;
use std::sync::{Arc, OnceLock};

use flumina::api::{
    Backend, CheckpointStore as _, DurableStore, ElasticConfig, ReplanKind, RunMetrics,
    ThreadRunOptions,
};
use flumina::apps::registry::{self, WorkloadVisitor};
use flumina::apps::sweep::SweepWorkload;
use flumina::core::program::DgsProgram;
use flumina::metrics::{validate_exposition, REQUIRED_FAMILIES};

struct Args {
    cmd: String,
    workload: String,
    parallelism: u32,
    dot: bool,
    checkpoint_dir: Option<String>,
    metrics: bool,
    metrics_out: Option<String>,
    metrics_interval_ms: Option<u64>,
    trace_out: Option<String>,
    pace_ns: Option<u64>,
    executor_threads: Option<usize>,
    elastic: bool,
}

fn usage() -> String {
    format!(
        "usage: flumina plan <workload> [-n N] [--dot]\n       flumina run  <workload> [-n N] [--checkpoint-dir D] [--metrics] [--metrics-out FILE]\n                    [--metrics-interval MS] [--trace-out FILE] [--pace NS]\n                    [--executor-threads N] [--elastic | --no-elastic]\n       flumina sim  <workload> [-n N]\n       flumina metrics-lint <FILE>\n       flumina list\nworkloads: {}",
        registry::names().join(" | ")
    )
}

/// The flags `cmd` takes (`None`: not a command).
fn flags_of(cmd: &str) -> Option<&'static [&'static str]> {
    match cmd {
        "plan" => Some(&["-n", "--parallelism", "--dot"]),
        "run" => Some(&[
            "-n", "--parallelism", "--checkpoint-dir", "--metrics", "--metrics-out",
            "--metrics-interval", "--trace-out", "--pace", "--executor-threads", "--elastic",
            "--no-elastic",
        ]),
        "sim" => Some(&["-n", "--parallelism"]),
        "metrics-lint" | "list" => Some(&[]),
        _ => None,
    }
}

/// Parse the arguments after the program name, refusing any flag the
/// command does not take.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter().cloned();
    let cmd = it.next().ok_or("missing command (plan | run | sim | metrics-lint | list)")?;
    let takes = flags_of(&cmd).ok_or_else(|| {
        format!("unknown command {cmd:?}; expected plan | run | sim | metrics-lint | list")
    })?;
    let mut args = Args {
        cmd,
        workload: String::new(),
        parallelism: 4,
        dot: false,
        checkpoint_dir: None,
        metrics: false,
        metrics_out: None,
        metrics_interval_ms: None,
        trace_out: None,
        pace_ns: None,
        executor_threads: None,
        elastic: false,
    };
    if args.cmd != "list" {
        args.workload = it.next().ok_or(if args.cmd == "metrics-lint" {
            "missing exposition file path"
        } else {
            "missing workload name"
        })?;
    }
    while let Some(a) = it.next() {
        if !takes.contains(&a.as_str()) {
            return Err(format!("`{}` does not take {a:?}", args.cmd));
        }
        let mut value = |flag: &str| it.next().ok_or(format!("missing value after {flag}"));
        match a.as_str() {
            "-n" | "--parallelism" => {
                args.parallelism =
                    value("-n")?.parse().map_err(|e| format!("bad parallelism: {e}"))?;
            }
            "--dot" => args.dot = true,
            "--checkpoint-dir" => args.checkpoint_dir = Some(value("--checkpoint-dir")?),
            "--metrics" => args.metrics = true,
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
            "--metrics-interval" => {
                args.metrics_interval_ms = Some(
                    value("--metrics-interval")?
                        .parse()
                        .map_err(|e| format!("bad --metrics-interval: {e}"))?,
                );
            }
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--pace" => {
                args.pace_ns =
                    Some(value("--pace")?.parse().map_err(|e| format!("bad --pace: {e}"))?);
            }
            "--executor-threads" => {
                let n: usize = value("--executor-threads")?
                    .parse()
                    .map_err(|e| format!("bad --executor-threads: {e}"))?;
                if n == 0 {
                    return Err("--executor-threads must be >= 1".into());
                }
                args.executor_threads = Some(n);
            }
            "--elastic" => args.elastic = true,
            "--no-elastic" => args.elastic = false,
            other => unreachable!("{other} is in a command's flag set but not parsed"),
        }
    }
    Ok(args)
}

/// `plan`: derive and render the synchronization plan.
struct PlanCmd {
    n: u32,
    dot: bool,
}

impl WorkloadVisitor for PlanCmd {
    type Out = String;

    fn visit<W: SweepWorkload>(&mut self) -> String {
        let w = W::for_scale(self.n, 1_000, 4);
        let plan = w.job(100).plan();
        if self.dot {
            flumina::plan::dot::to_dot(&plan)
        } else {
            plan.render()
        }
    }
}

/// What one `run` invocation produced, for `main` to route: the human
/// verdict, the exit status, and the optional metrics artifacts.
struct RunOutcome {
    line: String,
    ok: bool,
    /// Prometheus text exposition of the final quiesced snapshot.
    exposition: Option<String>,
    /// Per-worker trace rings as JSON.
    traces: Option<String>,
    /// Durable-store repair warnings (stderr, always visible).
    warnings: Vec<String>,
}

/// The state type a workload's checkpoints hold.
type ProgState<W> = <<W as SweepWorkload>::Prog as DgsProgram>::State;

/// `run`: execute on real threads and verify against the sequential
/// specification.
struct RunCmd {
    n: u32,
    checkpoint_dir: Option<String>,
    /// Render the final snapshot (`--metrics` / `--metrics-out` /
    /// `--trace-out` all need it).
    want_metrics: bool,
    metrics_interval_ms: Option<u64>,
    pace_ns: Option<u64>,
    executor_threads: Option<usize>,
    /// Run the elastic replan controller and stream its decisions to
    /// stderr; zero completed replans is then a failing run.
    elastic: bool,
}

impl WorkloadVisitor for RunCmd {
    type Out = RunOutcome;

    fn visit<W: SweepWorkload>(&mut self) -> RunOutcome {
        let fail = |line: String| RunOutcome {
            line,
            ok: false,
            exposition: None,
            traces: None,
            warnings: Vec::new(),
        };
        // `--elastic` reshapes the run into a skew cell: many small
        // windows (protocol-heavy, long enough for the
        // millisecond-cadence controller to act) and a wide
        // heartbeat period — the controller's rate samples count every
        // sent item, so the default dense heartbeats would put a
        // uniform floor under cold partitions and mask the skew it
        // detects.
        let (w, hb) = if self.elastic {
            (W::for_scale(self.n, 5, 2000), 20 * self.n.max(2) as u64)
        } else {
            (W::for_scale(self.n, 200, 4), 20)
        };
        let job = w.job(hb).checkpoint_roots(self.checkpoint_dir.is_some());
        if let Some(dir) = &self.checkpoint_dir {
            // Open the directory once up front: a directory that cannot
            // be opened (corrupt manifest, unreadable segment) fails here,
            // before the run, and appending a fresh run behind an earlier
            // one would interleave two histories (the store refuses the
            // append) — surface both now instead of after the work.
            match DurableStore::<ProgState<W>>::open(dir) {
                Err(e) => return fail(format!("checkpoint dir {dir} cannot be opened ✗ — {e}")),
                Ok(store) if !store.is_empty() => {
                    return fail(format!(
                        "checkpoint dir {dir} already holds {} record(s) from an \
                         earlier run ✗ — use a fresh directory per run",
                        store.len()
                    ));
                }
                Ok(_) => {}
            }
        }
        // Metrics are always on; the publish slot lets the interval
        // sampler see the live registry while the run is in flight.
        let slot: Arc<OnceLock<Arc<RunMetrics>>> = Arc::new(OnceLock::new());
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = self.metrics_interval_ms.map(|ms| {
            let (slot, stop) = (slot.clone(), stop.clone());
            std::thread::spawn(move || loop {
                std::thread::sleep(std::time::Duration::from_millis(ms.max(1)));
                // ORDERING: Relaxed — shutdown flag polled each
                // tick; no data is published through it.
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if let Some(m) = slot.get() {
                    let s = m.snapshot();
                    eprintln!(
                        "[metrics t+{:.3}s] msgs={} outputs={} max_queue_depth={} stalls={}",
                        m.elapsed_ns() as f64 / 1e9,
                        s.total_msgs(),
                        s.outputs,
                        s.max_queue_depth(),
                        s.total_stalls(),
                    );
                }
            })
        });
        let mut opts = ThreadRunOptions {
            pace_ns_per_tick: self.pace_ns,
            metrics_slot: Some(slot),
            executor_threads: self.executor_threads,
            ..Default::default()
        };
        if self.elastic {
            // Saturating offered load makes the zipf skew visible as
            // arrival-rate skew (an unpaced run equalizes rates through
            // backpressure); shallow ingress edges bound what a
            // migration pause must drain. `--pace` still overrides.
            opts.pace_ns_per_tick = Some(self.pace_ns.unwrap_or(300));
            opts.ingress_capacity = NonZeroUsize::new(128).expect("nonzero");
            opts.elastic = Some(ElasticConfig {
                interval: std::time::Duration::from_millis(1),
                hot_ratio: 1.8,
                cold_ratio: 0.9,
                hold_ticks: 1,
                min_events: 32,
                max_replans: 32,
            });
            opts.on_replan = Some(Box::new(|ev| {
                eprintln!(
                    "[elastic t+{:.3}s] {} partition {} (root w{}): {} -> {} workers, \
                     pause {:.2} ms, trigger {:.0} e/s",
                    ev.at_ns as f64 / 1e9,
                    ev.kind.name(),
                    ev.partition,
                    ev.root.0,
                    ev.workers_before,
                    ev.workers_after,
                    ev.pause_ns as f64 / 1e6,
                    ev.trigger_rate_eps,
                );
            }));
        }
        let verified = job.verify_on(Backend::Threads(opts));
        // ORDERING: Relaxed — see the sampler loop's load.
        stop.store(true, Ordering::Relaxed);
        if let Some(h) = sampler {
            let _ = h.join();
        }
        match verified {
            Ok(mut v) => {
                let mut line = format!(
                    "{} workers on real threads produced {} outputs — MATCHES the sequential spec ✓",
                    v.run.plan.len(),
                    v.run.outputs.len()
                );
                if self.elastic {
                    let forks =
                        v.run.replans.iter().filter(|ev| ev.kind == ReplanKind::Fork).count();
                    let joins = v.run.replans.len() - forks;
                    if v.run.replans.is_empty() {
                        return fail(format!(
                            "{line}; but --elastic completed 0 replans ✗ — the controller \
                             never found a hot or cold partition (is the workload skewed?)"
                        ));
                    }
                    line.push_str(&format!(
                        "; elastic controller completed {} replan(s) ({forks} fork / {joins} join)",
                        v.run.replans.len()
                    ));
                }
                let mut warnings = Vec::new();
                if let Some(dir) = &self.checkpoint_dir {
                    if let Err(e) = v.run.persist_checkpoints(dir) {
                        return fail(format!("{line}; but persisting checkpoints failed ✗ — {e}"));
                    }
                    // Reopen through a fresh store: report what actually
                    // survives on disk, not what the writer remembers.
                    match DurableStore::<ProgState<W>>::open(dir) {
                        Ok(store) => {
                            line.push_str(&format!(
                                "; {} checkpoint(s) durable in {dir}",
                                store.len()
                            ));
                            let r = store.open_report();
                            if r.repaired_bytes > 0 {
                                warnings.push(format!(
                                    "warning: reopen of {dir} repaired {} torn byte(s) off a segment tail",
                                    r.repaired_bytes
                                ));
                            }
                            if r.manifest_fallback && (r.records > 0 || r.repaired_bytes > 0) {
                                warnings.push(format!(
                                    "warning: manifest in {dir} missing or unreadable — {} record(s) recovered by segment scan",
                                    r.records
                                ));
                            }
                        }
                        Err(e) => return fail(format!("checkpoint reopen failed ✗ — {e}")),
                    }
                }
                let (exposition, traces) = match (self.want_metrics, v.run.metrics) {
                    (true, Some(mut snap)) => {
                        // The driver cannot know the registry's workload
                        // name; the front end stamps it before rendering.
                        snap.info.workload = W::NAME.to_string();
                        (Some(snap.render_prometheus()), Some(snap.trace_json()))
                    }
                    _ => (None, None),
                };
                RunOutcome { line, ok: true, exposition, traces, warnings }
            }
            Err(e) => fail(format!("DIVERGED from the sequential spec ✗ — {e}")),
        }
    }
}

/// `metrics-lint`: parse a Prometheus text-exposition file, enforce the
/// syntax + histogram invariants, and require the core `flumina_*`
/// families. Exit code is the verdict (CI runs this on the smoke
/// artifact).
fn metrics_lint(path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let families = validate_exposition(&text).map_err(|e| format!("{path}: {e}"))?;
    for required in REQUIRED_FAMILIES {
        if !families.iter().any(|f| f == required) {
            return Err(format!("{path}: missing required family `{required}`"));
        }
    }
    Ok(format!("{path}: valid exposition, {} famil(ies)", families.len()))
}

/// `sim`: run the deterministic cluster simulator backend.
struct SimCmd {
    n: u32,
}

impl WorkloadVisitor for SimCmd {
    type Out = String;

    fn visit<W: SweepWorkload>(&mut self) -> String {
        let w = W::for_scale(self.n, 500, 4);
        let job = w.job(50);
        let report = job.run(Backend::Sim);
        let stats = report.sim.expect("sim backend reports engine stats");
        format!(
            "simulated {} workers ({} partitions): {} outputs in {:.2} virtual ms, {} messages, {} net bytes",
            report.plan.len(),
            report.plan.roots().len(),
            report.outputs.len(),
            stats.virtual_ns as f64 / 1e6,
            stats.messages,
            stats.net_bytes,
        )
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    };
    if args.cmd == "list" {
        print!("{}", registry::render_listing());
        return;
    }
    let unknown = || {
        eprintln!("unknown workload {:?}", args.workload);
        eprintln!("{}", usage());
        std::process::exit(2);
    };
    match args.cmd.as_str() {
        "plan" => {
            let mut cmd = PlanCmd { n: args.parallelism, dot: args.dot };
            match registry::visit(&args.workload, &mut cmd) {
                Some(rendered) => print!("{rendered}"),
                None => unknown(),
            }
        }
        "run" => {
            let mut cmd = RunCmd {
                n: args.parallelism,
                checkpoint_dir: args.checkpoint_dir,
                want_metrics: args.metrics
                    || args.metrics_out.is_some()
                    || args.trace_out.is_some(),
                metrics_interval_ms: args.metrics_interval_ms,
                pace_ns: args.pace_ns,
                executor_threads: args.executor_threads,
                elastic: args.elastic,
            };
            match registry::visit(&args.workload, &mut cmd) {
                Some(outcome) => {
                    for w in &outcome.warnings {
                        eprintln!("{w}");
                    }
                    // With `--metrics` (and no file) the exposition owns
                    // stdout so `flumina run w --metrics > w.prom` stays
                    // parseable; the human verdict moves to stderr.
                    let verdict_to_stderr = args.metrics && args.metrics_out.is_none();
                    if verdict_to_stderr {
                        eprintln!("{}", outcome.line);
                    } else {
                        println!("{}", outcome.line);
                    }
                    if let Some(expo) = &outcome.exposition {
                        match &args.metrics_out {
                            Some(path) => {
                                if let Err(e) = std::fs::write(path, expo) {
                                    eprintln!("error: cannot write {path}: {e}");
                                    std::process::exit(1);
                                }
                                eprintln!("wrote metrics exposition to {path}");
                            }
                            None if args.metrics => print!("{expo}"),
                            None => {}
                        }
                    }
                    if let (Some(path), Some(traces)) = (&args.trace_out, &outcome.traces) {
                        if let Err(e) = std::fs::write(path, traces) {
                            eprintln!("error: cannot write {path}: {e}");
                            std::process::exit(1);
                        }
                        eprintln!("wrote trace rings to {path}");
                    }
                    if !outcome.ok {
                        std::process::exit(1);
                    }
                }
                None => unknown(),
            }
        }
        "metrics-lint" => match metrics_lint(&args.workload) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        },
        "sim" => {
            let mut cmd = SimCmd { n: args.parallelism };
            match registry::visit(&args.workload, &mut cmd) {
                Some(line) => println!("{line}"),
                None => unknown(),
            }
        }
        other => unreachable!("parse_args accepted unknown command {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn each_command_accepts_its_own_flags() {
        let a = parse("plan fraud -n 8 --dot").expect("plan flags");
        assert_eq!((a.parallelism, a.dot), (8, true));
        let a = parse(
            "run value-barrier -n 2 --checkpoint-dir d --metrics --metrics-out m.prom \
             --metrics-interval 50 --trace-out t.json --pace 5 --executor-threads 2 \
             --elastic --no-elastic",
        )
        .expect("run flags");
        assert_eq!(a.checkpoint_dir.as_deref(), Some("d"));
        assert!(a.metrics && !a.elastic);
        assert_eq!(a.metrics_out.as_deref(), Some("m.prom"));
        assert_eq!((a.metrics_interval_ms, a.pace_ns), (Some(50), Some(5)));
        assert_eq!(a.trace_out.as_deref(), Some("t.json"));
        assert_eq!(a.executor_threads, Some(2));
        assert_eq!(parse("sim page-view --parallelism 3").expect("sim flags").parallelism, 3);
        assert_eq!(parse("metrics-lint m.prom").expect("lint").workload, "m.prom");
        assert_eq!(parse("list").expect("list").cmd, "list");
    }

    #[test]
    fn flags_a_command_does_not_take_are_refused() {
        for (line, why) in [
            ("sim value-barrier --elastic", "`sim` does not take \"--elastic\""),
            ("sim value-barrier --checkpoint-dir d", "`sim` does not take \"--checkpoint-dir\""),
            ("plan value-barrier --metrics-out x", "`plan` does not take \"--metrics-out\""),
            ("plan value-barrier --executor-threads 2", "`plan` does not take \"--executor-threads\""),
            ("metrics-lint m.prom --dot", "`metrics-lint` does not take \"--dot\""),
            ("list extra", "`list` does not take \"extra\""),
            ("run value-barrier --bogus", "`run` does not take \"--bogus\""),
            ("frobnicate value-barrier", "unknown command \"frobnicate\""),
        ] {
            let err = parse(line).err().unwrap_or_else(|| panic!("{line:?} was accepted"));
            assert!(err.starts_with(why), "{line:?}: {err}");
        }
    }
}
