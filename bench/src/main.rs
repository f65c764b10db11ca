//! The repo's benchmark: four long-run workloads measured end to end through
//! the public `Job` API, checked against the sequential specification on
//! every draw, plus a per-layer ns/event ledger taken from outside. See
//! `bench/README.md` for what each workload and metric is for.
//!
//! ```text
//! dgs-perfbench --workload W --seed N --seconds S --trace 0|1   one workload, in this process
//! dgs-perfbench run       [--seed N] [--seconds S]              every workload, one process each
//! dgs-perfbench trace     [--seed N] [--seconds S]              the same, traced (per-layer metrics)
//! dgs-perfbench selfcheck [--seconds S]                         two sets of runs compared
//! ```
//!
//! The last line of standard output of a one-workload run is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod harness;
mod json;
mod ledger;
mod metrics;
mod probes;
mod selfcheck;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::process::ExitCode;

const USAGE: &str =
    "usage: dgs-perfbench [run|trace|selfcheck] [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1]";

/// Seconds measured per run when `--seconds` is not given (`BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECONDS: u64 = 10;

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |flag: &str, text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: {text:?} is not a whole number"))
        };
        match arg.as_str() {
            "run" | "trace" | "selfcheck" if args.command.is_none() => {
                args.command = Some(arg.clone())
            }
            "--workload" => args.workload = Some(value(arg)?),
            "--seed" => args.seed = number(arg, value(arg)?)?,
            "--seconds" => args.seconds = Some(number(arg, value(arg)?)?.max(1)),
            "--trace" => {
                args.trace = match value(arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn dispatch(args: Args) -> Result<(), String> {
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    match args.command.as_deref() {
        Some("run") => selfcheck::run_all(args.seed, seconds, false),
        Some("trace") => selfcheck::run_all(args.seed, seconds, true),
        Some("selfcheck") => {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let (report, agree) = selfcheck::selfcheck(&text, seconds)?;
            print!("{report}");
            if agree {
                Ok(())
            } else {
                Err("selfcheck: the two sets disagree by more than a bound".to_string())
            }
        }
        _ => {
            let name = args.workload.ok_or("--workload is required")?;
            let workload = workloads::by_name(&name).ok_or_else(|| {
                format!("unknown workload {name:?}; one of {:?}", workloads::NAMES)
            })?;
            let cfg = harness::Config {
                seed: args.seed,
                seconds: seconds as f64,
                trace: args.trace,
            };
            let outcome = harness::run(&workload, &cfg);
            print!("{}", outcome.table(workload.name));
            println!("{}", outcome.result_line());
            if outcome.correct() {
                Ok(())
            } else {
                Err(format!(
                    "{}: {} of {} outputs differ from the specification",
                    name, outcome.failed, outcome.attempted
                ))
            }
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dgs-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match dispatch(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dgs-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_driver_s_command_line_parses() {
        let a = parse_args(&argv(&[
            "--workload",
            "vb-wide",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("vb-wide"), 7, Some(10), true)
        );
        assert!(a.command.is_none());
        let b = parse_args(&argv(&["selfcheck"])).unwrap();
        assert_eq!((b.command.as_deref(), b.seed), (Some("selfcheck"), 1));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--bogus"],
            &["run", "trace"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn default_seconds_is_benchmark_json_s_run_seconds() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(json::Value::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );
    }
}
