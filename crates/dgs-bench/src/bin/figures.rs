//! Regenerate the paper's tables and figures as text.
//!
//! ```text
//! figures [--quick] [fig4 | fig6 | fig8 | fig10a | fig10b | caseA1 | caseA2 | table1 | ablation | straggler | all]...
//! ```
//!
//! No selector means all. An unknown flag or selector prints the usage
//! line to stderr and exits 1.

use dgs_bench::figures::{self, PARALLELISM_AXIS};
use dgs_bench::measure::{self, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = figures::parse_args(&args).unwrap_or_else(|e| {
        eprintln!("figures: {e}\n{}", figures::usage());
        std::process::exit(1);
    });
    let quick = args.quick;
    let scale = if quick { Scale::quick() } else { Scale::saturating() };
    let axis: &[u32] = if quick { &[1, 4, 8, 12] } else { &PARALLELISM_AXIS };

    let want = |name: &str| args.wants(name);

    if want("fig4") {
        println!("{}", figures::render_series("Figure 4 (top): Flink-style max throughput [events/ms]", axis, &figures::fig4_flink(axis, scale)));
        println!("{}", figures::render_series("Figure 4 (bottom): Timely-style (batched) max throughput [events/ms]", axis, &figures::fig4_timely(axis, scale, 64)));
        println!("paper expectation: Event Win. ~10x/8x, Page View caps ~2x/1x, Fraud flat (F) / ~6x (TD), Page View (M) ~2x\n");
    }
    if want("fig6") {
        let periods = if quick { vec![2_000, 800, 400] } else { vec![4_000, 2_000, 1_000, 500, 250, 125] };
        let (a, m) = figures::fig6_page_view(&periods);
        println!("{}", figures::render_rate_points("Figure 6a: page-view join @ parallelism 12", &a, &m));
        let (a, m) = figures::fig6_fraud(&periods);
        println!("{}", figures::render_rate_points("Figure 6b: fraud detection @ parallelism 12", &a, &m));
        println!("paper expectation: S-Plan sustains 4-8x higher rate with low latency; auto saturates early with latency blow-up\n");
    }
    if want("fig8") {
        println!("{}", figures::render_series("Figure 8: Flumina (DGS) max throughput [events/ms]", axis, &figures::fig8_flumina(axis, scale)));
        println!("paper expectation: all three applications scale ~8x by 12-20 nodes\n");
    }
    if want("fig10a") {
        let workers: &[u32] = if quick { &[5, 10, 20] } else { &[5, 10, 20, 30, 40] };
        let ratios: &[u64] = if quick { &[1_000, 10_000] } else { &[100, 1_000, 10_000] };
        println!("## Figure 10a: Flumina latency vs #workers (per vb-ratio)");
        println!("{:>10} | {:>8} | {:>12} | {:>12} | {:>12}", "vb-ratio", "workers", "p10 (ms)", "p50 (ms)", "p90 (ms)");
        for (ratio, pts) in figures::fig10a(workers, ratios) {
            for p in pts {
                let (p10, p50, p90) = p.latency.unwrap_or((0, 0, 0));
                println!(
                    "{:>10} | {:>8} | {:>12.3} | {:>12.3} | {:>12.3}",
                    ratio,
                    p.parallelism,
                    p10 as f64 / 1e6,
                    p50 as f64 / 1e6,
                    p90 as f64 / 1e6
                );
            }
        }
        println!("paper expectation: latency grows with workers; low vb-ratio becomes infeasible at high worker counts\n");
    }
    if want("fig10b") {
        let rates: &[u64] = if quick { &[1, 10, 100] } else { &[1, 2, 5, 10, 50, 100, 500, 1_000] };
        println!("## Figure 10b: Flumina latency vs heartbeat rate (5 workers)");
        println!("{:>14} | {:>12} | {:>12} | {:>12}", "hb/barrier", "p10 (ms)", "p50 (ms)", "p90 (ms)");
        for (hb, p) in figures::fig10b(rates, 10_000) {
            let (p10, p50, p90) = p.latency.unwrap_or((0, 0, 0));
            println!(
                "{:>14} | {:>12.3} | {:>12.3} | {:>12.3}",
                hb,
                p10 as f64 / 1e6,
                p50 as f64 / 1e6,
                p90 as f64 / 1e6
            );
        }
        println!("paper expectation: very low heartbeat rates inflate latency; stable over ~10-1000 hb/barrier\n");
    }
    if want("caseA1") {
        println!("## Case study A.1: Reloaded outlier detection speedup");
        println!("{:>8} | {:>10}", "nodes", "speedup");
        for (n, sp) in figures::case_a1(&[1, 2, 4, 8]) {
            println!("{n:>8} | {sp:>9.2}x");
        }
        println!("paper expectation: near-linear, ~7.3x at 8 nodes (handcrafted C++: 7.7x)\n");
    }
    if want("caseA2") {
        let (p, total_bytes) = measure::smart_home_run(20, if quick { 4 } else { 24 });
        let (p10, p50, p90) = p.latency.unwrap_or((0, 0, 0));
        println!("## Case study A.2: DEBS smart-home power prediction (20 houses)");
        println!(
            "throughput: {:.1} events/ms | latency p10/p50/p90: {:.2}/{:.2}/{:.2} ms",
            p.throughput,
            p10 as f64 / 1e6,
            p50 as f64 / 1e6,
            p90 as f64 / 1e6
        );
        println!(
            "network bytes: {} of {} total processed ({:.2}%)",
            p.net_bytes,
            total_bytes,
            100.0 * p.net_bytes as f64 / total_bytes as f64
        );
        println!("paper expectation: latency ~44/51/75 ms, ~104 events/ms, 362 MB network of 29 GB total (~1.2%)\n");
    }
    if want("ablation") {
        println!("## Ablation: balanced (Appendix B) vs chain plan shape, event windowing");
        println!("{:>8} | {:>26} | {:>26}", "workers", "balanced p50 lat / tput", "chain p50 lat / tput");
        for n in [4u32, 8, 16] {
            let (bal, chain) = measure::flumina_vb_plan_ablation(n, 1_000);
            let l = |p: &dgs_bench::MeasuredPoint| {
                p.latency.map(|(_, p50, _)| p50 as f64 / 1e6).unwrap_or(f64::NAN)
            };
            println!(
                "{:>8} | {:>12.3} ms {:>8.0} e/ms | {:>12.3} ms {:>8.0} e/ms",
                n, l(&bal), bal.throughput, l(&chain), chain.throughput
            );
        }
        println!("expectation: the chain's deep spine inflates synchronization latency\n");
    }
    if want("straggler") {
        println!("## Straggler: event windowing at 8 workers, one slow node");
        println!("{:>10} | {:>12} | {:>12}", "slowdown", "tput (e/ms)", "p50 lat (ms)");
        for slow in [1.0f64, 2.0, 4.0, 8.0] {
            let p = measure::flumina_vb_straggler(8, scale, slow);
            let p50 = p.latency.map(|(_, v, _)| v as f64 / 1e6).unwrap_or(f64::NAN);
            println!("{:>10.1} | {:>12.1} | {:>12.3}", slow, p.throughput, p50);
        }
        println!("expectation: globally synchronizing windows are gated by the slowest node\n");
    }
    if want("table1") {
        println!("## Table 1: development tradeoffs + 12-node scaling");
        println!("{:>16} | {:>6} | {:>5} | {:>5} | {:>5} | {:>8}", "app", "system", "PIP1", "PIP2", "PIP3", "scaling");
        for r in figures::table1(scale) {
            let b = |v: bool| if v { "yes" } else { "NO" };
            println!(
                "{:>16} | {:>6} | {:>5} | {:>5} | {:>5} | {:>7.1}x",
                r.app,
                r.system,
                b(r.pip1),
                b(r.pip2),
                b(r.pip3),
                r.scaling
            );
        }
        println!("paper expectation: only DGS scales everywhere with all PIPs intact (Table 1)\n");
    }
}
