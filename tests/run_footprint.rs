//! A run borrows its job's input instead of copying it.
//!
//! A process-wide counting allocator (this file is its own test binary,
//! holding a single test, so no other test's allocations mix in) sums
//! the bytes every thread allocates while `Job::run` executes on a
//! ~1 M-item value-barrier job. Neither the sequential specification nor
//! the thread backend may allocate more than a quarter of what the input
//! itself occupies (`items × size_of::<StreamItem>()`): the
//! specification folds a k-way merge over the borrowed streams, and the
//! feeders clone each item only as they send it. A backend that copied
//! the streams once — a `to_vec` of the input, or a sorted copy of its
//! events — would allocate at least the whole of it.
//!
//! The thread run uses one executor shard, and so one feeder thread.
//! With several feeders, the value streams can run ahead of the barrier
//! stream, and the leaves' mailboxes then hold the early values until
//! the barrier's progress arrives. That hold is working memory whose
//! size depends on how far the feeders drift apart, not on whether the
//! input is copied: on two shards of a two-thread Xeon it measured
//! 3–13 MB for this job, either side of the budget. One feeder rotates
//! every stream in small batches, so the hold stays small and what is
//! left to count is the run's own footprint.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;

use dgs_sync::atomic::{AtomicU64, Ordering};

use flumina::api::{Backend, Job, ThreadRunOptions};
use flumina::apps::value_barrier::{ValueBarrier, VbTag, VbWorkload};
use flumina::core::event::StreamItem;
use flumina::core::spec::{run_sequential, sort_o};

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// The system allocator, adding every allocation's size (and every
/// reallocation's growth) to `ALLOCATED`, whichever thread makes it.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a static
// atomic and touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::SeqCst);
        // SAFETY: the caller's `alloc` contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's `dealloc` contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size());
        ALLOCATED.fetch_add(grown as u64, Ordering::SeqCst);
        // SAFETY: the caller's `realloc` contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated, by every thread, while `f` runs.
fn bytes_allocated_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATED.load(Ordering::SeqCst);
    let r = f();
    (r, ALLOCATED.load(Ordering::SeqCst) - before)
}

#[test]
fn runs_allocate_a_fraction_of_their_input() {
    // Four value streams of 250 000 values each, one barrier per 1 000
    // ticks, a heartbeat every 100 between barriers, and a closing
    // heartbeat per stream: 1 002 505 items.
    let shape = VbWorkload { value_streams: 4, values_per_barrier: 1_000, barriers: 250 };
    let job = Job::new(ValueBarrier, shape.scheduled_streams(100));
    let items: usize = job.streams().iter().map(|s| s.items.len()).sum();
    assert!(items > 1_000_000, "{items} items");
    let input_bytes = (items * size_of::<StreamItem<VbTag, i64>>()) as u64;
    let budget = input_bytes / 4;
    // Derive the plan outside the measured calls; it is cached.
    let plan = job.plan();
    assert!(plan.len() > 1, "the plan must fork for the thread run to feed several workers");

    let (spec, spec_bytes) = bytes_allocated_in(|| job.run(Backend::Spec));
    let one_shard = ThreadRunOptions { executor_threads: Some(1), ..Default::default() };
    let (threads, thread_bytes) = bytes_allocated_in(|| job.run(Backend::Threads(one_shard)));
    eprintln!(
        "input {input_bytes} B in {items} items; Backend::Spec allocated {spec_bytes} B, \
         Backend::Threads {thread_bytes} B; budget {budget} B each"
    );
    assert!(
        spec_bytes < budget,
        "Backend::Spec allocated {spec_bytes} B, over a quarter of the {input_bytes} B input"
    );
    assert!(
        thread_bytes < budget,
        "Backend::Threads allocated {thread_bytes} B, over a quarter of the {input_bytes} B input"
    );

    // Both runs still return the specification: the spec fold in exactly
    // the order the sorted sequence gives, the threads as a multiset.
    let want = run_sequential(&ValueBarrier, &sort_o(job.streams())).1;
    let spec_outputs: Vec<i64> = spec.outputs.iter().map(|(o, _)| *o).collect();
    assert_eq!(spec_outputs, want);
    assert_eq!(spec_outputs.len(), 250);
    assert_eq!(threads.output_multiset(), spec.output_multiset());
}
