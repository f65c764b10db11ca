//! The workspace's one front door to synchronization primitives.
//!
//! Every crate that touches atomics or locks on a concurrency-critical
//! path (`vendor/crossbeam`, `dgs-runtime`'s executor, `dgs-metrics`)
//! imports them from here instead of `std::sync` — enforced by
//! `dgs-verify audit` (no direct `std::sync::atomic` imports outside
//! this crate). The facade has two personalities:
//!
//! * **Normal builds** (the default): everything re-exports `std::sync`
//!   verbatim — zero cost, zero behavior change. `cargo build` produces
//!   byte-for-byte the code it would without the facade.
//! * **Model builds** (`RUSTFLAGS="--cfg dgs_model"`): the same paths
//!   resolve to the deterministic modeled primitives in [`model`], so
//!   the *real* production code (e.g. `crossbeam`'s SPSC rings and
//!   `Inbox`) can be executed on virtual threads under the schedule
//!   explorer, with per-ordering visibility semantics that make
//!   `Relaxed`/`Acquire`/`Release` misuse an explorable behavior
//!   rather than a latent bug.
//!
//! The checker itself ([`model`]) is ordinary code and is *always*
//! compiled, so protocol shims and the checker's own test suite run in
//! a plain `cargo test` with no special flags. See
//! `docs/CONCURRENCY.md` for the per-primitive memory-ordering
//! contracts this facade is the choke point for.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod model;

/// Atomic types and memory orderings.
///
/// Normal builds: `std::sync::atomic` re-exported wholesale. Model
/// builds: the modeled atomics (same names, same method signatures for
/// the subset the workspace uses) plus std's [`atomic::Ordering`] enum,
/// which both personalities share.
#[cfg(not(dgs_model))]
pub mod atomic {
    pub use std::sync::atomic::*;
}

#[cfg(dgs_model)]
pub mod atomic {
    pub use crate::model::atomic::{
        fence, AtomicBool, AtomicI64, AtomicPtr, AtomicU64, AtomicUsize,
    };
    pub use std::sync::atomic::Ordering;
}

/// Thread utilities the message plane and executor use (`yield_now`,
/// `park`, `spawn`, `scope`, …). Model builds route the ones the model
/// implements to the virtual-thread scheduler, so a yield is an
/// explorable scheduling point; `scope`, `available_parallelism` and
/// `panicking` stay std's in both personalities.
#[cfg(not(dgs_model))]
pub mod thread {
    pub use std::thread::{
        available_parallelism, current, panicking, park, park_timeout, scope, sleep, spawn,
        yield_now, JoinHandle,
    };
}

#[cfg(dgs_model)]
pub mod thread {
    pub use crate::model::thread::{park, park_timeout, spawn, yield_now, JoinHandle};
    pub use std::thread::{available_parallelism, panicking, scope};
}

/// The clock. Both personalities re-export `std::time` today; the
/// thread driver reads time only through here (`dgs-verify audit`
/// enforces it), so a virtual clock can replace it in one place.
pub mod time {
    pub use std::time::{Duration, Instant};
}

// Lock types. `Arc` and the poison/error plumbing are identical in both
// personalities (the model reuses std's `LockResult`/`TryLockError`
// types so call sites compile unchanged).
#[cfg(not(dgs_model))]
pub use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, WaitTimeoutResult};

#[cfg(dgs_model)]
pub use crate::model::sync::{Condvar, Mutex, MutexGuard, OnceLock, WaitTimeoutResult};

pub use std::sync::{Arc, LockResult, PoisonError, TryLockError, TryLockResult, Weak};
