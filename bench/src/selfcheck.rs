//! Running workloads as child processes (one process per workload run, so
//! `peak_rss_mb` belongs to that workload alone), and the self-check: two
//! sets of runs of the same build, compared the way the driver compares
//! them, to show that the benchmark agrees with itself within its bounds.

use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::json::{parse, Value};
use crate::stats::{median, spread};
use crate::workloads::NAMES;

/// Run one workload in a child process; returns everything it printed and
/// its parsed result line.
pub fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<(String, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("the {workload} run printed nothing"))?;
    let result =
        parse(last).map_err(|e| format!("the {workload} run's last line is not a result: {e}"))?;
    if !output.status.success() || result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "the {workload} run failed ({}):\n{stdout}",
            output.status
        ));
    }
    Ok((stdout, result))
}

/// `run` / `trace`: every workload once, each in its own process.
pub fn run_all(seed: u64, seconds: u64, trace: bool) -> Result<(), String> {
    for workload in NAMES {
        let (stdout, _) = run_child(workload, seed, seconds, trace)?;
        print!("{stdout}");
    }
    println!("all {} workloads correct (seed {seed})", NAMES.len());
    Ok(())
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

fn declared(doc: &Value) -> Result<Vec<Declared>, String> {
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
            Some(Declared {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// The driver's acceptance rule for one metric on one workload: both
/// spreads within the bound (set-up time is exempt from that), and the
/// second set's median not worse than the first's by more than the bound.
fn agrees(metric: &Declared, a: &[f64], b: &[f64]) -> bool {
    let steady =
        metric.name == "setup_s" || (spread(a) <= metric.bound && spread(b) <= metric.bound);
    steady && worse_by(median(a), median(b), metric.higher_is_better) <= metric.bound
}

/// Values of one set of runs: `[workload][metric]`, one value per run.
type Set = Vec<Vec<Vec<f64>>>;

/// Runs per workload in a set, as many as the driver takes for its spreads.
const RUNS: u64 = 10;

/// Run every workload `RUNS` times (seeds `1..=RUNS`, workloads interleaved
/// so that drift of the host falls on all of them alike).
fn collect(metrics: &[Declared], seconds: u64) -> Result<Set, String> {
    let mut set: Set = vec![vec![Vec::new(); metrics.len()]; NAMES.len()];
    for seed in 1..=RUNS {
        for (w, workload) in NAMES.iter().enumerate() {
            let (_, result) = run_child(workload, seed, seconds, false)?;
            for (m, metric) in metrics.iter().enumerate() {
                let value = result
                    .get("metrics")
                    .and_then(|all| all.get(&metric.name))
                    .and_then(|one| one.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{workload} did not report {}", metric.name))?;
                set[w][m].push(value);
            }
            eprintln!("selfcheck: seed {seed} {workload} done");
        }
    }
    Ok(set)
}

/// The comparison of two sets as markdown, and whether they agree on every
/// metric of every workload.
fn report(metrics: &[Declared], a: &Set, b: &Set) -> (String, bool) {
    let mut md = String::new();
    let mut all_agree = true;
    let _ = writeln!(
        md,
        "| workload | metric | unit | A median | A spread | B median | B spread | B worse by | bound | verdict |"
    );
    let _ = writeln!(md, "|---|---|---|---:|---:|---:|---:|---:|---:|---|");
    for (w, workload) in NAMES.iter().enumerate() {
        for (m, metric) in metrics.iter().enumerate() {
            let (a, b) = (&a[w][m], &b[w][m]);
            let ok = agrees(metric, a, b);
            all_agree &= ok;
            let _ = writeln!(
                md,
                "| {workload} | {} | {} | {:.4} | {:.4} | {:.4} | {:.4} | {:+.4} | {} | {} |",
                metric.name,
                metric.unit,
                median(a),
                spread(a),
                median(b),
                spread(b),
                worse_by(median(a), median(b), metric.higher_is_better),
                metric.bound,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    let _ = writeln!(md, "\nEvery value, in run order:\n");
    for (w, workload) in NAMES.iter().enumerate() {
        for (m, metric) in metrics.iter().enumerate() {
            for (label, set) in [("A", a), ("B", b)] {
                let row: Vec<String> = set[w][m].iter().map(|v| format!("{v:.4}")).collect();
                let _ = writeln!(
                    md,
                    "- {workload} {} set {label}: {}",
                    metric.name,
                    row.join(" ")
                );
            }
        }
    }
    (md, all_agree)
}

/// `selfcheck`: two sets of `RUNS` runs per workload, one after the other on
/// the same build, compared by the driver's rule. Returns the markdown that
/// `bench/BASELINE.md` records, and whether the sets agree.
pub fn selfcheck(benchmark_json: &str, seconds: u64) -> Result<(String, bool), String> {
    let doc = parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = declared(&doc)?;
    let a = collect(&metrics, seconds)?;
    let b = collect(&metrics, seconds)?;
    let (table, agree) = report(&metrics, &a, &b);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let md = format!(
        "# Baseline: the benchmark against itself\n\n\
         `bench/run.sh selfcheck > bench/BASELINE.md` on the commit that added the benchmark\n\
         (`nproc` = {nproc}): two sets (A, then B) of {RUNS} runs per workload with seeds 1..={RUNS}, {seconds} s\n\
         measured per run, same build. Spread = (q3 - q1) / median of a set's {RUNS} values,\n\
         quartiles as Python's `statistics.quantiles(values, n=4)`. \"B worse by\" is the share\n\
         of A's median by which B's median is worse (negative: better). A pair agrees when\n\
         both spreads (`setup_s` exempt) and \"B worse by\" are within the bound.\n\n{table}"
    );
    Ok((md, agree))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, higher_is_better: bool, bound: f64) -> Declared {
        Declared {
            name: name.to_string(),
            unit: "x".to_string(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert_eq!(worse_by(100.0, 90.0, true), 0.1);
        assert_eq!(worse_by(100.0, 110.0, true), -0.1);
        assert_eq!(worse_by(100.0, 110.0, false), 0.1);
    }

    #[test]
    fn agreement_needs_steady_sets_and_close_medians() {
        let steady: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let shifted: Vec<f64> = steady.iter().map(|v| v * 0.8).collect();
        let noisy: Vec<f64> = (0..10).map(|i| 60.0 + i as f64 * 10.0).collect();
        let tput = metric("throughput_eps", true, 0.1);
        assert!(agrees(&tput, &steady, &steady));
        assert!(
            !agrees(&tput, &steady, &shifted),
            "a 20 % drop is outside a 10 % bound"
        );
        assert!(
            agrees(&tput, &shifted, &steady),
            "an improvement always agrees"
        );
        assert!(
            !agrees(&tput, &noisy, &noisy),
            "a spread beyond the bound is refused"
        );
        assert!(
            agrees(&metric("setup_s", false, 0.25), &noisy, &noisy),
            "set-up time is exempt from the spread rule"
        );
    }

    #[test]
    fn report_has_a_row_per_workload_and_metric_and_flags_disagreement() {
        let metrics = [
            metric("throughput_eps", true, 0.1),
            metric("setup_s", false, 0.25),
        ];
        let steady: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let a: Set = vec![vec![steady.clone(); 2]; NAMES.len()];
        let (md, agree) = report(&metrics, &a, &a);
        assert!(agree);
        assert_eq!(md.matches("| agree |").count(), NAMES.len() * 2);
        assert!(md.contains("- pv-forest setup_s set B: 100.0000 100.1000"));
        let mut b = a.clone();
        b[1][0] = steady.iter().map(|v| v * 0.8).collect();
        let (md, agree) = report(&metrics, &a, &b);
        assert!(!agree);
        assert_eq!(md.matches("| DISAGREE |").count(), 1);
        assert!(md.contains("| vb-sync | throughput_eps | x | 100.4500 | 0.0055 | 80.3600 |"));
    }

    #[test]
    fn declared_metrics_are_read_from_benchmark_json() {
        let doc = parse(
            r#"{"end_to_end": [{"name": "throughput_eps", "unit": "1/s", "better": "higher", "bound": 0.1},
                               {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        let d = declared(&doc).unwrap();
        assert_eq!(d.len(), 2);
        assert!(d[0].higher_is_better && !d[1].higher_is_better);
        assert_eq!((d[1].name.as_str(), d[1].bound), ("setup_s", 0.25));
        assert!(declared(&parse("{}").unwrap()).is_err());
    }
}
