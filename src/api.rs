//! The front door of the workspace: write a [`DgsProgram`], describe its
//! input streams, and let [`Job`] derive and run everything else.
//!
//! This is the API the paper describes — a DGS program is *just*
//! `init`/`update`/`fork`/`join` plus a dependence relation; the system
//! derives the synchronization plan and executes it. The whole README
//! quickstart:
//!
//! ```
//! use flumina::api::Job;
//! use flumina::core::event::{StreamId, Timestamp};
//! use flumina::core::examples::{KcTag, KeyCounter};
//! use flumina::core::tag::ITag;
//! use flumina::runtime::source::ScheduledStream;
//!
//! let itag = |tag, s| ITag::new(tag, StreamId(s));
//! let streams = vec![
//!     ScheduledStream::periodic(itag(KcTag::Inc(1), 0), 1, 2, 500, |_| ())
//!         .with_heartbeats(25).closed(Timestamp::MAX),
//!     ScheduledStream::periodic(itag(KcTag::Inc(1), 1), 2, 2, 500, |_| ())
//!         .with_heartbeats(25).closed(Timestamp::MAX),
//!     ScheduledStream::periodic(itag(KcTag::ReadReset(1), 2), 100, 100, 10, |_| ())
//!         .with_heartbeats(25).closed(Timestamp::MAX),
//! ];
//! let job = Job::new(KeyCounter, streams);
//! let verified = job.verify_against_spec().expect("Theorem 3.5");
//! println!("{} outputs match the sequential spec", verified.run.outputs.len());
//! ```
//!
//! No hand-assembled `ITagInfo`s, no `FnDependence` wrapper, no explicit
//! optimizer call, no driver-specific invocation: rates and locations
//! come from the streams' own schedules (overridable with
//! [`Job::rate`] / [`Job::place`]), the dependence relation comes from
//! the program itself, the plan from the Appendix-B optimizer
//! ([`Job::with_plan`] pins another), and execution goes through one
//! [`Backend`] — real threads, the deterministic simulator, or the
//! sequential specification — all returning the same [`RunReport`]. The
//! initial state ([`Job::with_initial_state`]) and the checkpoint flag
//! ([`Job::checkpoint_roots`]) are set on the job, once, for every
//! backend.
//!
//! Checkpoints become crash-durable with one more call *after* the
//! run: [`Job::checkpoint_roots`] makes the run return its root-join
//! snapshots, and [`RunReport::persist_checkpoints`] appends them to a
//! [`DurableStore`] (append-only, CRC-checksummed segment files plus a
//! write-tmp-then-rename manifest), returning a [`StoreError`] rather
//! than panicking when the directory cannot take them.
//! [`DurableStore::open`] reads them back through a fresh store after a
//! crash — [`run_durable_with_recovery`] is the one orchestrator of the
//! whole kill/reopen/replay cycle, with [`FaultPlan`] injecting
//! deterministic crash wreckage underneath for tests and benchmarks.
//!
//! ## One front door
//!
//! `Job` is the only way to run a plan; the drivers behind its backends
//! are not public. [`build_sim`](crate::runtime::sim_driver::build_sim)
//! over [`PacedSource`](crate::runtime::source::PacedSource)s, with
//! explicit topologies, cost models and the adversarial delivery
//! scheduler, is the cluster model the paper figures are measured on —
//! an evaluation substrate, not a second way to run a job. The thread
//! driver's entry point stays closed:
//!
//! ```compile_fail,E0603
//! use flumina::runtime::thread_driver::run_threads;
//! ```
//!
//! [`DgsProgram`]: crate::core::program::DgsProgram

pub use dgs_core::codec::{CodecError, StateCodec};
pub use dgs_metrics::{MetricsSnapshot, RunMetrics, TraceKind, REQUIRED_FAMILIES};
pub use dgs_runtime::checkpoint::{CheckpointStore, MemoryStore};
pub use dgs_runtime::durable::{DurableStore, Fault, FaultPlan, OpenReport, StoreError};
pub use dgs_runtime::elastic::{ElasticConfig, ReplanEvent, ReplanKind};
pub use dgs_runtime::job::{Backend, Job, RunReport, SimStats, SpecMismatch, Verified};
pub use dgs_runtime::recovery::{run_durable_with_recovery, DurableRecovery};
pub use dgs_runtime::source::ScheduledStream;
pub use dgs_runtime::thread_driver::{RunEffects, RunTiming, ThreadRunOptions};
