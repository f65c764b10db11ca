//! # dgs-bench — regenerate every table and figure of the evaluation
//!
//! [`measure`] contains one function per experimental point: it builds
//! the corresponding deployment (Flumina plan on the simulator, or a
//! baseline pipeline), runs it to quiescence, and reports virtual-time
//! throughput/latency/network metrics. [`figures`] assembles them into
//! the series the paper plots; the `figures` binary prints them as text
//! tables next to the paper's expectations (mapped in docs/BENCHMARKS.md).
//!
//! Everything here runs on the simulator's cluster model, so the
//! numbers are relative (Flumina vs. the Flink- and Timely-style
//! baselines on one shared substrate) and deterministic. Wall-clock
//! throughput of the real-thread runtime is measured by the separate
//! `bench/` package.

pub mod figures;
pub mod measure;

pub use measure::MeasuredPoint;
