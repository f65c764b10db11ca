//! The per-event path allocates nothing in steady state.
//!
//! A counting global allocator (this file is its own test binary, and
//! the count is thread-local, so concurrently running tests never see
//! each other's allocations) watches a single-thread pump that drives
//! every [`WorkerCore`] of a plan the way the thread driver does —
//! `handle_into` with one reused [`StepEffects`] — after a warm-up that
//! lets every reused buffer (mailbox buffers, the cascade workset, the
//! pending queue and its mirror, `update`'s scratch, the effects
//! vectors) reach the capacity the workload needs.
//!
//! Only the mailbox and the core are under test: the pump's own queue
//! is reserved up front, and what the *program's* `update` / `fork` /
//! `join` allocate is the program's business (`ValueBarrier`'s `i64`
//! state never does).

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;

use flumina::apps::page_view::{PageViewJoin, PvTag, PvWorkload};
use flumina::apps::value_barrier::{ValueBarrier, VbTag, VbWorkload};
use flumina::core::event::{Event, Heartbeat, StreamId, Timestamp};
use flumina::core::tag::ITag;
use flumina::core::DgsProgram;
use flumina::plan::plan::{Plan, WorkerId};
use flumina::runtime::worker::{partition_seeds, Effects, WorkerCore, WorkerMsg};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every `alloc` and `realloc` made by
/// the calling thread.
struct Counting;

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell` and touching it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `alloc` contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's `dealloc` contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `realloc` contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

type Msg<P> =
    WorkerMsg<<P as DgsProgram>::Tag, <P as DgsProgram>::Payload, <P as DgsProgram>::State>;

/// Every core of a plan behind one FIFO queue (which is FIFO per worker
/// pair) and one reused effects buffer.
struct Pump<P: DgsProgram> {
    cores: Vec<WorkerCore<P>>,
    queue: VecDeque<(WorkerId, Msg<P>)>,
    fx: Effects<P>,
    updates: u64,
    outputs: u64,
    joins: u64,
}

impl<P: DgsProgram> Pump<P> {
    /// The plan's cores, seeded with the program's initial state.
    fn new(prog: P, plan: &Plan<P::Tag>) -> Self {
        let prog = Arc::new(prog);
        let mut pump = Pump {
            cores: (0..plan.len())
                .map(|w| WorkerCore::from_plan(prog.clone(), plan, WorkerId(w)))
                .collect(),
            queue: VecDeque::with_capacity(256),
            fx: Effects::<P>::default(),
            updates: 0,
            outputs: 0,
            joins: 0,
        };
        let seeds = partition_seeds(&*prog, plan, prog.init());
        for (&root, state) in plan.roots().iter().zip(seeds) {
            pump.deliver(root, WorkerMsg::StateDown { state });
        }
        pump
    }

    /// Deliver `msg` and everything it causes.
    fn deliver(&mut self, dst: WorkerId, msg: Msg<P>) {
        self.queue.push_back((dst, msg));
        while let Some((dst, msg)) = self.queue.pop_front() {
            self.fx.clear();
            self.cores[dst.0].handle_into(msg, &mut self.fx);
            self.updates += self.fx.updates;
            self.joins += self.fx.joins;
            self.outputs += self.fx.outputs.len() as u64;
            self.queue.extend(self.fx.msgs.drain(..));
        }
    }
}

const VALUE_STREAMS: u32 = 4;
/// Ticks per value-barrier window.
const WINDOW: Timestamp = 40;

fn value_barrier() -> (Pump<ValueBarrier>, Vec<WorkerId>, WorkerId) {
    let shape =
        VbWorkload { value_streams: VALUE_STREAMS, values_per_barrier: WINDOW, barriers: 3 };
    let plan = shape.plan();
    let owner = |tag, s| plan.responsible_for(&ITag::new(tag, StreamId(s))).expect("routed tag");
    let leaves: Vec<WorkerId> = (0..VALUE_STREAMS).map(|s| owner(VbTag::Value, s)).collect();
    let root = owner(VbTag::Barrier, VALUE_STREAMS);
    assert!(plan.worker(root).children.len() == 2, "the barrier owner gathers the value leaves");
    (Pump::new(ValueBarrier, &plan), leaves, root)
}

/// One value-barrier window, every stream in step: a value per stream
/// per tick, the barrier — a full fork/join round — on the last tick but
/// one, and heartbeats on every stream each quarter window. The last of
/// those, one tick past the barrier, is what lets the leaves release its
/// join request (at the barrier's own tick a value stream's position
/// still orders before the barrier stream's).
fn vb_window(pump: &mut Pump<ValueBarrier>, leaves: &[WorkerId], root: WorkerId, w: Timestamp) {
    let barrier_stream = StreamId(VALUE_STREAMS);
    let end = (w + 1) * WINDOW;
    for ts in w * WINDOW + 1..=end {
        for (s, &leaf) in leaves.iter().enumerate() {
            let s = StreamId(s as u32);
            if ts < end - 1 {
                pump.deliver(leaf, WorkerMsg::Event(Event::new(VbTag::Value, s, ts, 1)));
            }
            if ts % (WINDOW / 4) == 0 {
                pump.deliver(leaf, WorkerMsg::Heartbeat(Heartbeat::new(VbTag::Value, s, ts)));
            }
        }
        if ts == end - 1 {
            pump.deliver(root, WorkerMsg::Event(Event::new(VbTag::Barrier, barrier_stream, ts, 0)));
        } else if ts % (WINDOW / 4) == 0 {
            let hb = Heartbeat::new(VbTag::Barrier, barrier_stream, ts);
            pump.deliver(root, WorkerMsg::Heartbeat(hb));
        }
    }
}

#[test]
fn a_value_event_allocates_nothing() {
    let (mut pump, leaves, root) = value_barrier();
    for w in 0..2 {
        vb_window(&mut pump, &leaves, root, w);
    }
    assert_eq!(pump.outputs, 2, "warm-up ran two barrier rounds");
    // Close the barrier stream far ahead: from here on a value is the
    // mailbox's fast path, every dependent timer already past it.
    let ahead = Heartbeat::new(VbTag::Barrier, StreamId(VALUE_STREAMS), Timestamp::MAX);
    pump.deliver(root, WorkerMsg::Heartbeat(ahead));

    const EVENTS: u64 = 10_000;
    let before = pump.updates;
    let allocations = allocations_in(|| {
        for i in 0..EVENTS {
            let s = (i % VALUE_STREAMS as u64) as usize;
            let ts = 2 * WINDOW + 1 + i / VALUE_STREAMS as u64;
            let e = Event::new(VbTag::Value, StreamId(s as u32), ts, 1);
            pump.deliver(leaves[s], WorkerMsg::Event(e));
        }
    });
    assert_eq!(pump.updates - before, EVENTS, "every value was released on arrival and applied");
    assert_eq!(allocations, 0, "allocations over {EVENTS} steady-state value events");
}

#[test]
fn a_page_view_with_one_output_allocates_nothing() {
    let shape = PvWorkload { pages: 1, view_streams_per_page: 2, views_per_update: 20, updates: 3 };
    let plan = shape.plan();
    let owner = |itag| plan.responsible_for(&itag).expect("routed tag");
    let views: Vec<(StreamId, WorkerId)> = (0..2)
        .map(|slot| {
            let s = shape.view_stream_id(0, slot);
            (s, owner(ITag::new(PvTag::View(0), s)))
        })
        .collect();
    let update_stream = shape.update_stream_id(0);
    let root = owner(ITag::new(PvTag::Update(0), update_stream));
    let mut pump = Pump::new(PageViewJoin, &plan);

    // Warm-up: two windows of views closed by an update each.
    let mut ts = 0;
    for _ in 0..2 {
        for _ in 0..shape.views_per_update {
            ts += 1;
            for &(s, leaf) in &views {
                pump.deliver(leaf, WorkerMsg::Event(Event::new(PvTag::View(0), s, ts, 0)));
            }
        }
        ts += 2;
        let update = Event::new(PvTag::Update(0), update_stream, ts - 1, 7);
        pump.deliver(root, WorkerMsg::Event(update));
        // One tick past the update, so the leaves release its join request.
        for &(s, leaf) in &views {
            pump.deliver(leaf, WorkerMsg::Heartbeat(Heartbeat::new(PvTag::View(0), s, ts)));
        }
    }
    assert_eq!(pump.joins, 2, "warm-up ran two update rounds");
    let ahead = Heartbeat::new(PvTag::Update(0), update_stream, Timestamp::MAX);
    pump.deliver(root, WorkerMsg::Heartbeat(ahead));

    const EVENTS: u64 = 10_000;
    let before = pump.outputs;
    let allocations = allocations_in(|| {
        for i in 0..EVENTS {
            let (s, leaf) = views[(i % 2) as usize];
            let e = Event::new(PvTag::View(0), s, ts + 1 + i / 2, 0);
            pump.deliver(leaf, WorkerMsg::Event(e));
        }
    });
    assert_eq!(pump.outputs - before, EVENTS, "one joined view per event");
    assert_eq!(allocations, 0, "allocations over {EVENTS} steady-state one-output events");
}

/// Join requests through the leaves' mailboxes, `StateUp` / `StateDown`,
/// capped heartbeat forwarding: a whole window with its barrier round,
/// after two identical ones, finds every buffer already large enough —
/// and `ValueBarrier`'s `fork` / `join` of an `i64` allocate nothing.
#[test]
fn a_full_barrier_round_allocates_nothing() {
    let (mut pump, leaves, root) = value_barrier();
    for w in 0..2 {
        vb_window(&mut pump, &leaves, root, w);
    }
    let (joins, outputs) = (pump.joins, pump.outputs);
    let allocations = allocations_in(|| vb_window(&mut pump, &leaves, root, 2));
    assert!(pump.joins > joins, "the third window ran its fork/join round");
    assert_eq!(pump.outputs - outputs, 1, "and produced its window sum");
    assert_eq!(allocations, 0, "allocations over one steady-state window and barrier round");
}
