//! # dgs-runtime — the Flumina runtime
//!
//! Implements the execution machinery of paper §3.4 on top of
//! synchronization plans:
//!
//! * [`mailbox`] — per-worker *selective reordering*: each mailbox keeps a
//!   timestamp-sorted buffer and a timer per implementation tag and
//!   releases an event only when every dependent tag's timer has passed it
//!   and no dependent buffered event precedes it. Heartbeats advance
//!   timers without being released.
//! * [`worker`] — the fork/join protocol: leaves update their state
//!   directly; a parent processing one of its own events sends join
//!   requests *through its children's mailboxes* (so they are ordered
//!   against dependent events), joins the returned states, updates, forks
//!   the result back, and resumes.
//! * [`source`] — workload descriptions: per-stream event schedules with
//!   configurable rates and heartbeat periods.
//! * [`sim_driver`] — runs a plan on the [`dgs-sim`](dgs_sim) cluster
//!   simulator: the cost model the paper figures run on, and the engine
//!   behind [`Backend::Sim`].
//! * [`thread_driver`] — runs the same worker cores on real OS threads
//!   (a sharded executor over per-edge FIFO queues): the engine behind
//!   [`Backend::Threads`], and its options.
//! * [`checkpoint`] — Appendix D.2 state snapshots taken when the root
//!   joins its descendants' states, behind a storage trait.
//! * [`durable`] — the crash-surviving checkpoint backend: append-only
//!   CRC-checksummed segment files per partition plus a tmp+rename
//!   manifest, with deterministic fault injection below the trait.
//! * [`job`] — the typed front door: a [`Job`] builder that derives
//!   the workload description and plan from a program and its streams,
//!   and executes on any backend (threads, simulator, sequential spec)
//!   behind one [`RunReport`].

pub mod checkpoint;
pub mod cost;
pub mod durable;
pub mod elastic;
pub mod job;
pub mod mailbox;
pub mod recovery;
pub mod sim_driver;
pub mod source;
pub mod thread_driver;
pub mod worker;

pub use checkpoint::{CheckpointStore, MemoryStore};
pub use cost::CostModel;
pub use durable::{DurableStore, Fault, FaultPlan, StoreError};
pub use elastic::{ElasticConfig, ReplanEvent, ReplanKind};
pub use job::{Backend, Job, RunReport};
pub use mailbox::Mailbox;
pub use worker::{StepEffects, WorkerCore, WorkerMsg};
