//! # dgs-bench — regenerate every table and figure of the evaluation
//!
//! [`measure`] contains one function per experimental point: it builds
//! the corresponding deployment (Flumina plan on the simulator, or a
//! baseline pipeline), runs it to quiescence, and reports virtual-time
//! throughput/latency/network metrics. [`figures`] assembles them into
//! the series the paper plots; the `figures` binary prints them as text
//! tables next to the paper's expectations (recorded in EXPERIMENTS.md).
//!
//! [`wallclock`] is the other axis: it drives the *real-thread* runtime
//! (`dgs_runtime::thread_driver`) on the paper workloads across
//! worker × input-rate grids and measures wall-clock throughput and
//! latency percentiles; the
//! `wallclock` binary runs the sweeps. [`report`] is the shared
//! machine-readable trajectory format (`BENCH_<date>.json`) both paths
//! emit, with its parser and schema validator. [`diff`] compares two
//! trajectory files and flags throughput/p95 regressions; the
//! `bench-diff` binary is the CI gate built on it.
//!
//! [`recovery`] is the durability axis: it kills the partition owning a
//! workload's synchronizing stream mid-run (under every
//! [`dgs_runtime::durable::Fault`] variant), recovers it from the
//! on-disk checkpoint segments through a fresh store, and records
//! replay time and `events_lost` (must be 0) as `kind: "recovery"`
//! trajectory entries.
//!
//! [`elasticity`] is the elasticity axis (`wallclock --skew`): it runs
//! the zipf-skewed page-view cell with the elastic replan controller on
//! and off, recording throughput, replan tallies, and pause percentiles
//! as `kind: "replan"` trajectory entries keyed by arm.

pub mod diff;
pub mod elasticity;
pub mod figures;
pub mod measure;
pub mod recovery;
pub mod report;
pub mod wallclock;

pub use elasticity::{ReplanPoint, SkewSpec};
pub use measure::MeasuredPoint;
pub use recovery::{RecoveryPoint, RecoverySpec};
pub use wallclock::{LatencyHistogram, SweepSpec, WallclockPoint};
