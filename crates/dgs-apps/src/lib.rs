//! # dgs-apps — evaluation applications and case studies
//!
//! Every application from the paper's evaluation (§4.1) and both
//! Appendix A case studies, each as:
//!
//! * a **DGS program** (the Flumina implementation: sequential logic +
//!   dependence relation + fork/join),
//! * **workload generators** (scheduled streams for the thread driver,
//!   paced sources for the simulator),
//! * a **plan helper** invoking the Appendix B optimizer, and
//! * **baseline pipelines** (Flink-style, Timely-style, manual-sync) on
//!   the mini dataflow toolkit.
//!
//! | module | paper section | synchronization pattern |
//! |---|---|---|
//! | [`value_barrier`] | §4.1 event-based windowing | all nodes sync at each barrier |
//! | [`page_view`] | §4.1 page-view join | per-key sync on metadata updates |
//! | [`fraud`] | §4.1 fraud detection | global model rebuilt at each rule |
//! | [`outlier`] | App. A.1 Reloaded outlier detection | local models merged on demand |
//! | [`smart_home`] | App. A.2 DEBS-2014 power prediction | per-house parallelism, hourly global slice |
//!
//! [`sweep`] gives every application one parameterized shape
//! (`workers × window geometry`) so tests, the CLI and the `bench/`
//! harness can drive all of them generically, and a
//! [`job`](sweep::SweepWorkload::job) view onto the unified
//! `flumina::api` execution layer. [`registry`] is the single named
//! table of these workloads that every front end resolves against.

pub mod fraud;
pub mod outlier;
pub mod page_view;
pub mod registry;
pub mod smart_home;
pub mod sweep;
pub mod value_barrier;
