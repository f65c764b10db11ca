//! Assemble measurement points into the paper's tables and figures.

use crate::measure::{self, MeasuredPoint, Scale};

/// The parallelism axis used throughout §4 (Figures 4 and 8).
pub const PARALLELISM_AXIS: [u32; 6] = [1, 4, 8, 12, 16, 20];

/// Every selector the `figures` binary accepts; `all` selects the rest.
pub const SELECTORS: [&str; 11] = [
    "fig4", "fig6", "fig8", "fig10a", "fig10b", "caseA1", "caseA2", "table1", "ablation",
    "straggler", "all",
];

/// The `figures` binary's usage line, printed with every argument error.
pub fn usage() -> String {
    format!("usage: figures [--quick] [{}]...", SELECTORS.join(" | "))
}

/// The `figures` binary's parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// `--quick`: the small scale and the short parallelism axis.
    pub quick: bool,
    /// The selectors named, in order; none means all.
    pub selected: Vec<&'static str>,
}

impl Args {
    /// Whether the figure named `name` is selected.
    pub fn wants(&self, name: &str) -> bool {
        self.selected.is_empty() || self.selected.iter().any(|&s| s == "all" || s == name)
    }
}

/// Parse the `figures` binary's arguments (program name excluded):
/// `--quick` plus any of [`SELECTORS`]. Anything else is an error naming
/// the offending argument.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { quick: false, selected: Vec::new() };
    for arg in args {
        if arg == "--quick" {
            parsed.quick = true;
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag {arg:?}"));
        } else if let Some(&sel) = SELECTORS.iter().find(|&&s| s == arg) {
            parsed.selected.push(sel);
        } else {
            return Err(format!("unknown selector {arg:?}"));
        }
    }
    Ok(parsed)
}

/// One named throughput-vs-parallelism series.
#[derive(Debug)]
pub struct Series {
    /// Display name (e.g. "Event Win.").
    pub name: &'static str,
    /// Measured points along [`PARALLELISM_AXIS`].
    pub points: Vec<MeasuredPoint>,
}

impl Series {
    /// Speedup of the last point over the first.
    pub fn scaling(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(a), Some(b)) if a.throughput > 0.0 => b.throughput / a.throughput,
            _ => 0.0,
        }
    }

    /// Speedup at a given parallelism over the first point.
    pub fn scaling_at(&self, parallelism: u32) -> f64 {
        let base = self.points.first().map(|p| p.throughput).unwrap_or(0.0);
        let at = self
            .points
            .iter()
            .find(|p| p.parallelism == parallelism)
            .map(|p| p.throughput)
            .unwrap_or(0.0);
        if base > 0.0 {
            at / base
        } else {
            0.0
        }
    }
}

fn sweep(name: &'static str, axis: &[u32], f: impl Fn(u32) -> MeasuredPoint) -> Series {
    Series { name, points: axis.iter().map(|&n| f(n)).collect() }
}

/// Figure 4 (top): Flink-style max throughput vs parallelism.
pub fn fig4_flink(axis: &[u32], s: Scale) -> Vec<Series> {
    vec![
        sweep("Event Win.", axis, |n| measure::baseline_vb(n, 1, s)),
        sweep("Page View", axis, |n| measure::baseline_pv_keyed(n, 1, s)),
        sweep("Fraud Dec.", axis, |n| measure::baseline_fd_sequential(n, 1, s)),
    ]
}

/// Figure 4 (bottom): Timely-style (timestamp-batched), including the
/// manual Page View (M) variant.
pub fn fig4_timely(axis: &[u32], s: Scale, batch: usize) -> Vec<Series> {
    vec![
        sweep("Event Win.", axis, |n| measure::baseline_vb(n, batch, s)),
        sweep("Page View", axis, |n| measure::baseline_pv_keyed(n, batch, s)),
        sweep("Fraud Dec.", axis, |n| measure::baseline_fd_timely(n, batch, s)),
        sweep("Page View (M)", axis, |n| measure::baseline_pv_timely_manual(n, batch, s)),
    ]
}

/// Figure 8: Flumina max throughput vs parallelism.
pub fn fig8_flumina(axis: &[u32], s: Scale) -> Vec<Series> {
    vec![
        sweep("Event Win.", axis, |n| measure::flumina_vb(n, s, 100)),
        sweep("Page View", axis, |n| measure::flumina_pv(n, s)),
        sweep("Fraud Dec.", axis, |n| measure::flumina_fd(n, s)),
    ]
}

/// One point of a Figure 6 throughput/latency curve.
#[derive(Debug)]
pub struct RatePoint {
    /// Offered per-stream period (virtual ns).
    pub period_ns: u64,
    /// Sustained throughput (events/ms).
    pub throughput: f64,
    /// Latency percentiles (p10, p50, p90) in virtual ns.
    pub latency: Option<(u64, u64, u64)>,
}

fn rate_sweep(
    periods: &[u64],
    f: impl Fn(Scale) -> MeasuredPoint,
    windows: u64,
    per_window: u64,
) -> Vec<RatePoint> {
    periods
        .iter()
        .map(|&period_ns| {
            let p = f(Scale { per_window, windows, period_ns });
            RatePoint { period_ns, throughput: p.throughput, latency: p.latency }
        })
        .collect()
}

/// Figure 6a: page-view join at parallelism 12 — auto Flink vs the
/// manually synchronized S-Plan implementation, under increasing rates.
pub fn fig6_page_view(periods: &[u64]) -> (Vec<RatePoint>, Vec<RatePoint>) {
    let auto = rate_sweep(periods, |s| measure::baseline_pv_keyed(12, 1, s), 4, 2_000);
    let splan = rate_sweep(periods, |s| measure::baseline_pv_flink_manual(12, 1, s), 4, 2_000);
    (auto, splan)
}

/// Figure 6b: fraud detection at parallelism 12 — sequential Flink vs
/// the manually synchronized S-Plan implementation.
pub fn fig6_fraud(periods: &[u64]) -> (Vec<RatePoint>, Vec<RatePoint>) {
    let auto = rate_sweep(periods, |s| measure::baseline_fd_sequential(12, 1, s), 4, 2_000);
    let splan = rate_sweep(periods, |s| measure::baseline_fd_flink_manual(12, 1, s), 4, 2_000);
    (auto, splan)
}

/// Figure 10a: Flumina synchronization latency vs number of workers, one
/// series per vb-ratio.
pub fn fig10a(worker_axis: &[u32], vb_ratios: &[u64]) -> Vec<(u64, Vec<MeasuredPoint>)> {
    vb_ratios
        .iter()
        .map(|&ratio| {
            let pts = worker_axis
                .iter()
                .map(|&w| measure::flumina_vb_latency(w, ratio, (ratio / 10).max(1), 10))
                .collect();
            (ratio, pts)
        })
        .collect()
}

/// Figure 10b: latency vs heartbeat rate at fixed parallelism.
pub fn fig10b(hb_rates: &[u64], vb_ratio: u64) -> Vec<(u64, MeasuredPoint)> {
    hb_rates
        .iter()
        .map(|&hb| (hb, measure::flumina_vb_latency(5, vb_ratio, hb, 4)))
        .collect()
}

/// Case study A.1: execution-time speedups over 1 node.
pub fn case_a1(nodes: &[u32]) -> Vec<(u32, f64)> {
    let total_obs = 48_000;
    let base = measure::outlier_makespan(1, total_obs, 3);
    nodes
        .iter()
        .map(|&n| (n, base as f64 / measure::outlier_makespan(n, total_obs, 3) as f64))
        .collect()
}

/// Table 1: per-implementation PIP compliance + measured 12-node scaling.
#[derive(Debug)]
pub struct Table1Row {
    /// Application name.
    pub app: &'static str,
    /// System/implementation label (F, FM, TD, TDM, DGS).
    pub system: &'static str,
    /// PIP1 parallelism independence.
    pub pip1: bool,
    /// PIP2 partition independence.
    pub pip2: bool,
    /// PIP3 API compliance.
    pub pip3: bool,
    /// Measured throughput scaling at parallelism 12 (vs 1).
    pub scaling: f64,
}

/// Build Table 1 from fresh measurements at parallelism {1, 12}.
pub fn table1(s: Scale) -> Vec<Table1Row> {
    let axis = [1u32, 12];
    let sc = |series: Series| series.scaling_at(12);
    let batch = 64;
    vec![
        Table1Row {
            app: "Event window",
            system: "F",
            pip1: true,
            pip2: true,
            pip3: true,
            scaling: sc(sweep("", &axis, |n| measure::baseline_vb(n, 1, s))),
        },
        Table1Row {
            app: "Event window",
            system: "TD",
            pip1: true,
            pip2: true,
            pip3: true,
            scaling: sc(sweep("", &axis, |n| measure::baseline_vb(n, batch, s))),
        },
        Table1Row {
            app: "Event window",
            system: "DGS",
            pip1: true,
            pip2: true,
            pip3: true,
            scaling: sc(sweep("", &axis, |n| measure::flumina_vb(n, s, 100))),
        },
        Table1Row {
            app: "Page-view join",
            system: "F",
            pip1: true,
            pip2: true,
            pip3: true,
            scaling: sc(sweep("", &axis, |n| measure::baseline_pv_keyed(n, 1, s))),
        },
        Table1Row {
            app: "Page-view join",
            system: "FM",
            pip1: false,
            pip2: false,
            pip3: false,
            scaling: sc(sweep("", &axis, |n| measure::baseline_pv_flink_manual(n, 1, s))),
        },
        Table1Row {
            app: "Page-view join",
            system: "TD",
            pip1: true,
            pip2: true,
            pip3: true,
            scaling: sc(sweep("", &axis, |n| measure::baseline_pv_keyed(n, batch, s))),
        },
        Table1Row {
            app: "Page-view join",
            system: "TDM",
            pip1: true,
            pip2: false,
            pip3: true,
            scaling: sc(sweep("", &axis, |n| measure::baseline_pv_timely_manual(n, batch, s))),
        },
        Table1Row {
            app: "Page-view join",
            system: "DGS",
            pip1: true,
            pip2: true,
            pip3: true,
            scaling: sc(sweep("", &axis, |n| measure::flumina_pv(n, s))),
        },
        Table1Row {
            app: "Fraud detection",
            system: "F",
            pip1: true,
            pip2: true,
            pip3: true,
            scaling: sc(sweep("", &axis, |n| measure::baseline_fd_sequential(n, 1, s))),
        },
        Table1Row {
            app: "Fraud detection",
            system: "FM",
            pip1: false,
            pip2: false,
            pip3: false,
            scaling: sc(sweep("", &axis, |n| measure::baseline_fd_flink_manual(n, 1, s))),
        },
        Table1Row {
            app: "Fraud detection",
            system: "TD",
            pip1: true,
            pip2: true,
            pip3: true,
            scaling: sc(sweep("", &axis, |n| measure::baseline_fd_timely(n, batch, s))),
        },
        Table1Row {
            app: "Fraud detection",
            system: "DGS",
            pip1: true,
            pip2: true,
            pip3: true,
            scaling: sc(sweep("", &axis, |n| measure::flumina_fd(n, s))),
        },
    ]
}

/// Render a throughput series table.
pub fn render_series(title: &str, axis: &[u32], series: &[Series]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "## {title}");
    let _ = write!(out, "{:>14} |", "parallelism");
    for n in axis {
        let _ = write!(out, "{n:>10} |");
    }
    let _ = writeln!(out, " scaling");
    for s in series {
        let _ = write!(out, "{:>14} |", s.name);
        for p in &s.points {
            let _ = write!(out, "{:>10.1} |", p.throughput);
        }
        let _ = writeln!(out, " {:.1}x", s.scaling());
    }
    out
}

/// Render a rate-sweep (Figure 6 style) table.
pub fn render_rate_points(title: &str, auto: &[RatePoint], splan: &[RatePoint]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "## {title}");
    let _ = writeln!(
        out,
        "{:>12} | {:>22} | {:>30}",
        "period(ns)", "auto tput | p50 lat(ms)", "s-plan tput | p50 lat(ms)"
    );
    for (a, m) in auto.iter().zip(splan) {
        let l = |r: &RatePoint| {
            r.latency.map(|(_, p50, _)| p50 as f64 / 1e6).unwrap_or(f64::NAN)
        };
        let _ = writeln!(
            out,
            "{:>12} | {:>10.1} | {:>9.3} | {:>14.1} | {:>13.3}",
            a.period_ns,
            a.throughput,
            l(a),
            m.throughput,
            l(m),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_scaling_math() {
        let mk = |n: u32, t: f64| MeasuredPoint {
            parallelism: n,
            throughput: t,
            latency: None,
            net_bytes: 0,
        };
        let s = Series { name: "x", points: vec![mk(1, 100.0), mk(12, 800.0)] };
        assert_eq!(s.scaling(), 8.0);
        assert_eq!(s.scaling_at(12), 8.0);
        assert_eq!(s.scaling_at(99), 0.0);
    }

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_selector_means_all() {
        let a = args(&[]).unwrap();
        assert!(!a.quick);
        assert!(SELECTORS.iter().all(|s| a.wants(s)));
        let a = args(&["all"]).unwrap();
        assert!(SELECTORS.iter().all(|s| a.wants(s)));
    }

    #[test]
    fn quick_with_one_selector_wants_only_that_figure() {
        let a = args(&["--quick", "fig8"]).unwrap();
        assert!(a.quick);
        assert_eq!(a.selected, ["fig8"]);
        assert!(a.wants("fig8") && !a.wants("fig4") && !a.wants("table1"));
    }

    #[test]
    fn unknown_selector_is_rejected() {
        let e = args(&["--quick", "fig99"]).unwrap_err();
        assert!(e.contains("fig99"), "{e}");
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let e = args(&["--quik", "fig8"]).unwrap_err();
        assert!(e.contains("--quik"), "{e}");
        assert!(args(&["--json", "out.json"]).is_err(), "--json went with the trajectory format");
    }

    #[test]
    fn render_series_includes_all_names() {
        let mk = |n: u32, t: f64| MeasuredPoint {
            parallelism: n,
            throughput: t,
            latency: None,
            net_bytes: 0,
        };
        let series = vec![Series { name: "Event Win.", points: vec![mk(1, 1.0), mk(4, 4.0)] }];
        let txt = render_series("Fig", &[1, 4], &series);
        assert!(txt.contains("Event Win."));
        assert!(txt.contains("4.0x"));
    }
}
