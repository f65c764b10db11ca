//! Wall-clock benchmark driver for the real-thread runtime.
//!
//! ```text
//! wallclock [--smoke] [--workloads value-barrier,page-view,...]
//!           [--workers 1,2,4,8] [--rates 0,200000]
//!           [--per-window 500] [--windows 20] [--check-spec]
//!           [--executor-threads N]
//!           [--no-metrics] [--with-sim] [--recovery] [--skew]
//!           [--date YYYY-MM-DD] [--out PATH]
//! wallclock --validate PATH
//! wallclock --list
//! ```
//!
//! Runs registry workloads (default: the three paper workloads plus the
//! §4.3 `page-view-forest` multi-root cell — the committed-trajectory
//! quartet) through the unified `Job` API on the real-thread backend
//! across the worker × rate grid, prints a
//! human-readable table, and — with `--out` — writes the
//! machine-readable trajectory JSON (schema in `dgs_bench::report`).
//! `--workloads` selects by name from the same
//! `dgs_apps::registry` table the `flumina` CLI uses (`--list` prints
//! it), so the two front ends cannot drift. Every recorded point names
//! the edge storage its run used as `channel_mode` — `per-edge` (mutex
//! deques: one executor shard) or `per-edge-ring` (lock-free SPSC
//! rings: more than one) — which the runtime picks from the shard
//! count, so `--executor-threads` is the flag that moves it. Rate `0` means
//! unpaced max-throughput; nonzero rates pace sources on the wall clock
//! and yield p50/p95/p99 latency. `--with-sim` appends the virtual-time
//! figure entries so one file carries both measurement axes.
//! `--recovery` appends the durability axis: for every fault variant it
//! kills the partition owning the synchronizing stream mid-run,
//! recovers it from the on-disk checkpoint segments, and records replay
//! time and `events_lost` as `kind: "recovery"` entries — exiting
//! nonzero if any cell loses events or diverges from the spec.
//! `--skew` appends the elasticity axis: the zipf-skewed page-view cell
//! run controller-off then controller-on, recorded as `kind: "replan"`
//! entries keyed by arm — exiting nonzero if any arm diverges from the
//! spec *or* if a controller-on arm performed zero replans (a silently
//! inert controller must not pass as green).
//! The metrics plane is on by default and stamps each wallclock entry
//! with the optional `max_queue_depth`/`stalls` gauges; `--no-metrics`
//! disables it (the A/B axis for measuring its overhead — such entries
//! omit the gauge fields, exactly like legacy artifacts).
//! `--executor-threads N` pins the sharded executor's event-loop
//! thread count for every cell (the default is host parallelism) and
//! stamps each wallclock entry with an `executor_threads` field; cells
//! captured without the flag omit the field so their identity keys stay
//! comparable with pre-executor artifacts.
//! `--validate` parses and schema-checks an existing file (used by CI
//! on the smoke artifact) and exits nonzero on any violation.

use dgs_apps::registry;
use dgs_bench::elasticity::{self, SkewSpec};
use dgs_bench::figures;
use dgs_bench::measure::Scale;
use dgs_bench::recovery::{self, RecoverySpec};
use dgs_bench::report::{self, Json};
use dgs_bench::wallclock::{self, SweepSpec};

fn fail(msg: &str) -> ! {
    eprintln!("wallclock: {msg}");
    std::process::exit(1);
}

fn parse_list(value: &str, flag: &str) -> Vec<u64> {
    value
        .split(',')
        .map(|p| {
            p.trim()
                .parse::<u64>()
                .unwrap_or_else(|_| fail(&format!("bad {flag} entry `{p}` (comma-separated integers)")))
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--smoke` selects the base tier; it is resolved before the other
    // flags so explicit axis overrides win regardless of argument order
    // (`--workers 4 --smoke` == `--smoke --workers 4`).
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut spec = if smoke { SweepSpec::smoke() } else { SweepSpec::full() };
    let mut with_sim = false;
    let mut with_recovery = false;
    let mut with_skew = false;
    let mut out: Option<String> = None;
    let mut validate: Option<String> = None;
    let mut date: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--smoke" => {}
            "--list" => {
                print!("{}", registry::render_listing());
                return;
            }
            "--workloads" => {
                spec.workloads = value("--workloads")
                    .split(',')
                    .map(|name| {
                        registry::WORKLOADS
                            .iter()
                            .map(|w| w.name)
                            .find(|n| *n == registry::canonical(name.trim()))
                            .unwrap_or_else(|| {
                                fail(&format!(
                                    "unknown workload `{}` (try --list)",
                                    name.trim()
                                ))
                            })
                    })
                    .collect();
            }
            "--workers" => {
                spec.workers = parse_list(&value("--workers"), "--workers")
                    .into_iter()
                    .map(|w| w as u32)
                    .collect();
            }
            "--rates" => spec.rates = parse_list(&value("--rates"), "--rates"),
            "--per-window" => {
                spec.per_window = value("--per-window").parse().unwrap_or_else(|_| fail("bad --per-window"));
            }
            "--windows" => {
                spec.windows = value("--windows").parse().unwrap_or_else(|_| fail("bad --windows"));
            }
            "--check-spec" => spec.check_spec = true,
            "--executor-threads" => {
                let n: usize = value("--executor-threads")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --executor-threads"));
                if n == 0 {
                    fail("--executor-threads must be >= 1");
                }
                spec.executor_threads = Some(n);
            }
            "--no-metrics" => spec.metrics = false,
            "--with-sim" => with_sim = true,
            "--recovery" => with_recovery = true,
            "--skew" => with_skew = true,
            "--out" => out = Some(value("--out")),
            "--validate" => validate = Some(value("--validate")),
            "--date" => date = Some(value("--date")),
            other => fail(&format!("unknown argument `{other}` (see module docs)")),
        }
    }

    if let Some(path) = validate {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        let doc = Json::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: invalid JSON: {e}")));
        match report::validate_trajectory(&doc) {
            Ok(n) => {
                println!("{path}: valid trajectory, {n} results");
                return;
            }
            Err(e) => fail(&format!("{path}: schema violation: {e}")),
        }
    }

    if spec.workers.is_empty() || spec.rates.is_empty() || spec.workloads.is_empty() {
        fail("empty --workers, --rates, or --workloads");
    }

    // hw_threads up front: a single-core capture measures queueing, not
    // scaling, and the artifact should say so before anyone reads the
    // numbers (it is also recorded in the JSON's `host` block).
    let hw_threads =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    eprintln!(
        "wallclock sweep on {} hw thread(s){}: workloads {:?} × workers {:?} × rates {:?} ({} events/stream/window × {} windows){}",
        hw_threads,
        if hw_threads <= 1 { " (single-core: paced points measure queueing, not scaling)" } else { "" },
        spec.workloads,
        spec.workers,
        spec.rates,
        spec.per_window,
        spec.windows,
        if smoke { " [smoke]" } else { "" },
    );
    let points = wallclock::sweep(&spec);
    // With no --out the JSON document owns stdout (so `wallclock > x.json`
    // stays parseable); the human table moves to stderr.
    if out.is_some() {
        print!("{}", wallclock::render_table(&points));
    } else {
        eprint!("{}", wallclock::render_table(&points));
    }

    if let Some(p) = points.iter().find(|p| p.spec_ok == Some(false)) {
        fail(&format!(
            "output multiset diverged from the sequential spec: {} mode={} workers={} rate={}",
            p.workload, p.channel_mode, p.workers, p.rate_eps
        ));
    }

    let recovery_points = if with_recovery {
        // The recovery grid follows the sweep's scale knobs but runs on
        // the paced-free durable path (its own axis: faults, not rates).
        let rspec = RecoverySpec {
            workloads: spec.workloads.clone(),
            workers: spec.workers.clone(),
            per_window: spec.per_window,
            windows: spec.windows,
            ..RecoverySpec::smoke()
        };
        eprintln!(
            "recovery sweep: {:?} faults × workers {:?} × workloads {:?} (kill after {} checkpoints)",
            rspec.faults.iter().map(|&f| recovery::fault_name(f)).collect::<Vec<_>>(),
            rspec.workers,
            rspec.workloads,
            rspec.kill_after_checkpoints,
        );
        let points = recovery::recovery_sweep(&rspec);
        if out.is_some() {
            print!("{}", recovery::render_table(&points));
        } else {
            eprint!("{}", recovery::render_table(&points));
        }
        if let Some(p) = points.iter().find(|p| !p.spec_ok || p.events_lost > 0) {
            fail(&format!(
                "recovery lost output: {} fault={} workers={} events_lost={} spec_ok={}",
                p.workload, p.fault, p.workers, p.events_lost, p.spec_ok
            ));
        }
        // A cell whose armed crash never fired is legitimate for a
        // workload whose partitions never checkpoint at this scale
        // (a single-worker partition has no root join), but if a fault
        // variant fired on *no* workload at all, the dimension measured
        // nothing — e.g. durable checkpointing silently stopped
        // appending — and must not pass as green.
        for &f in &rspec.faults {
            let name = recovery::fault_name(f);
            if !points.iter().any(|p| p.fault == name && p.recovered) {
                fail(&format!(
                    "recovery crash never fired on any workload under fault={name}: \
                     no partition reached {} checkpoint appends",
                    rspec.kill_after_checkpoints
                ));
            }
        }
        points
    } else {
        Vec::new()
    };

    let replan_points = if with_skew {
        let sspec = if smoke { SkewSpec::smoke() } else { SkewSpec::full() };
        eprintln!(
            "elasticity sweep: page-view-zipf × pages {:?} ({} views/page/window × {} windows, {} repeat(s), controller off/on)",
            sspec.workers, sspec.per_window, sspec.windows, sspec.repeats,
        );
        let points = elasticity::skew_sweep(&sspec);
        if out.is_some() {
            print!("{}", elasticity::render_table(&points));
        } else {
            eprint!("{}", elasticity::render_table(&points));
        }
        if let Some(p) = points.iter().find(|p| p.spec_ok == Some(false)) {
            fail(&format!(
                "elasticity arm diverged from the sequential spec: {} pages={} elastic={}",
                p.workload, p.workers, p.elastic
            ));
        }
        // No silent green: a controller-on arm that never replanned
        // measured the static plan twice, not elasticity.
        if let Some(p) = points.iter().find(|p| p.elastic && p.replans == 0) {
            fail(&format!(
                "elasticity controller performed zero replans at {} pages: \
                 the controller-on arm measured nothing",
                p.workers
            ));
        }
        points
    } else {
        Vec::new()
    };

    let sim = if with_sim {
        eprintln!("capturing simulator figure entries (virtual time)...");
        let (axis, scale): (&[u32], Scale) = if smoke {
            (&[1, 4], Scale::quick())
        } else {
            (&[1, 4, 8, 12], Scale::saturating())
        };
        figures::sim_entries(axis, scale)
    } else {
        Vec::new()
    };

    let captured_at = date.unwrap_or_else(report::utc_date_string);
    let doc = report::trajectory(&captured_at, &points, &sim, &recovery_points, &replan_points);
    // Self-check: never write (or print) a document the validator rejects.
    if let Err(e) = report::validate_trajectory(&doc) {
        fail(&format!("internal error: emitted JSON violates own schema: {e}"));
    }
    if let Some(path) = out {
        std::fs::write(&path, doc.render() + "\n")
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        eprintln!(
            "wrote {path}: {} wallclock points{}{}",
            points.len(),
            if sim.is_empty() { String::new() } else { format!(" + {} simulator entries", sim.len()) },
            if recovery_points.is_empty() {
                String::new()
            } else {
                format!(" + {} recovery points", recovery_points.len())
            },
        );
        if !replan_points.is_empty() {
            eprintln!("  + {} replan (elasticity) points", replan_points.len());
        }
    } else {
        println!("{}", doc.render());
    }
}
