//! # flumina — facade crate for the DGS / synchronization-plans workspace
//!
//! Re-exports the full public API of the reproduction of *Stream
//! Processing with Dependency-Guided Synchronization* (PPoPP 2022):
//!
//! * [`api`] — **start here**: the typed [`Job`](api::Job) front door
//!   that derives the plan from a program + streams and runs it on any
//!   backend (threads, simulator, sequential spec).
//! * [`core`] — the DGS programming model (programs, dependence relations,
//!   fork/join, semantics, consistency conditions).
//! * [`plan`] — synchronization plans, validity, and optimizers.
//! * [`sim`] — the discrete-event cluster simulator substrate.
//! * [`runtime`] — the Flumina runtime (mailboxes, workers, drivers).
//! * [`metrics`] — the always-on metrics plane (per-worker/partition
//!   counters and gauges, trace rings, Prometheus text exposition).
//! * [`baseline`] — mini Flink-style / Timely-style dataflow baselines.
//! * [`apps`] — evaluation applications and case studies.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

// The facade has no unsafe code; `tests/hot_path_allocs.rs` (a counting
// `GlobalAlloc`) does, and the audit wants the package root to carry this.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod api;

pub use dgs_apps as apps;
pub use dgs_baseline as baseline;
pub use dgs_core as core;
pub use dgs_metrics as metrics;
pub use dgs_plan as plan;
pub use dgs_runtime as runtime;
pub use dgs_sim as sim;
