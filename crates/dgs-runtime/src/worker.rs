//! The worker fork/join protocol (paper §3.4, "Event processing").
//!
//! A [`WorkerCore`] is the driver-independent state machine of one
//! synchronization-plan worker. It owns the worker's mailbox and mode:
//!
//! * A **leaf** holds a state and applies `update` to each released event.
//! * An **internal** worker normally holds *no* state (its children do).
//!   When its mailbox releases one of its own events, it sends join
//!   requests to its children **through their mailboxes** — so the request
//!   is ordered against every dependent event — collects their states,
//!   `join`s them, `update`s with the event, `fork`s the result along its
//!   children's subtree predicates, and sends the halves back.
//! * A worker receiving an *ancestor's* join request forwards it down
//!   (gathering and joining its own children first, if any) and passes the
//!   joined state up, then waits for the forked share to come back.
//!
//! Drivers deliver [`WorkerMsg`]s and route the produced
//! [`StepEffects::msgs`]; delivery must be FIFO per worker pair and
//! lossless (assumption 4 of the paper's Theorem 3.5).
//!
//! # The per-message path
//!
//! [`WorkerCore::handle_into`] appends to a [`StepEffects`] the driver
//! owns and reuses; the mailbox releases straight onto the core's
//! `pending` queue ([`Mailbox::insert_into`]); `update` writes into a
//! scratch vector the core keeps. A handled message therefore allocates
//! only what the program's own `update` / `fork` / `join` do
//! (`tests/hot_path_allocs.rs`). [`WorkerCore::handle`] is the same call
//! returning a fresh `StepEffects`.
//!
//! Everything an internal worker keeps *per tag* — the heartbeat
//! watermarks `hb_pending` / `hb_forwarded` and the `pending_ts` mirror
//! of the pending queue — is a `Vec` indexed by the tag's position in
//! the mailbox's tag index ([`Mailbox::position`]), walked in that
//! (sorted) order when heartbeats are flushed; a leaf keeps none of it.
//! A heartbeat for a tag the mailbox does not track has no position and
//! no frontier here: an internal worker still forwards it to its
//! children, as it came.

use std::collections::VecDeque;
use std::sync::Arc;

use dgs_core::event::{Event, Heartbeat, StreamId, Timestamp};
use dgs_core::predicate::TagPredicate;
use dgs_core::program::DgsProgram;
use dgs_core::tag::ITag;
use dgs_plan::plan::{Plan, WorkerId};

use crate::mailbox::{Entry, Mailbox};

/// Message delivered to a worker.
#[derive(Clone, Debug)]
pub enum WorkerMsg<T, P, S> {
    /// An input event routed to the worker responsible for its tag.
    Event(Event<T, P>),
    /// A batch of input events of one implementation tag, in timestamp
    /// order (the paper's §6 batching optimization: one message, one
    /// mailbox pass, amortized framing).
    EventBatch(Vec<Event<T, P>>),
    /// A heartbeat (forwarded down the subtree of the responsible worker).
    Heartbeat(Heartbeat<T>),
    /// A join request from the parent, keyed by the synchronizing event's
    /// implementation tag and timestamp.
    JoinRequest {
        /// Tag of the synchronizing event.
        tag: T,
        /// Stream of the synchronizing event.
        stream: StreamId,
        /// Timestamp of the synchronizing event.
        ts: Timestamp,
    },
    /// A child's state travelling up for a join.
    StateUp {
        /// The child that sent its state.
        from: WorkerId,
        /// The child's (already internally joined) state.
        state: S,
    },
    /// A forked state share travelling down after a join completes. Also
    /// used by drivers to seed the root with the initial state.
    StateDown {
        /// The share this worker (and its subtree) now owns.
        state: S,
    },
}

/// What a join in progress will do once both children's states arrive.
#[derive(Clone, Debug)]
enum JoinPurpose<T, P> {
    /// Process this worker's own synchronizing event.
    OwnEvent(Event<T, P>),
    /// Relay the joined state to the parent (an ancestor is processing).
    Forward,
}

/// Execution mode of a worker.
#[derive(Clone, Debug)]
enum Mode<T, P, S> {
    /// Waiting for the initial `StateDown`.
    Startup,
    /// Leaf holding its state share.
    LeafHolding(S),
    /// Internal worker whose children hold the state.
    Forked,
    /// Join in progress: waiting for children's `StateUp`s.
    Joining {
        purpose: JoinPurpose<T, P>,
        left: Option<S>,
        right: Option<S>,
    },
    /// State sent to the parent; waiting for the forked share.
    AwaitingFork,
    /// Elastic-replan hold: this partition root holds the *full*
    /// partition state (captured at a join completion) and processes
    /// nothing until the controller extracts it or resumes. Messages
    /// still arrive and buffer; `drain` is gated off.
    Held(S),
}

/// Side effects of handling one message.
///
/// Drivers keep one per worker and [`clear`](Self::clear) it between
/// messages, so the vectors' capacity is reused.
#[derive(Debug)]
pub struct StepEffects<T, P, S, Out> {
    /// Messages to route to other workers (in order; FIFO per dst).
    pub msgs: Vec<(WorkerId, WorkerMsg<T, P, S>)>,
    /// Outputs produced, each with the timestamp of the event that
    /// produced it (for latency accounting).
    pub outputs: Vec<(Out, Timestamp)>,
    /// Number of `update` calls performed.
    pub updates: u64,
    /// Number of `join` calls performed.
    pub joins: u64,
    /// Number of `fork` calls performed.
    pub forks: u64,
    /// Checkpoints taken (root only; Appendix D.2).
    pub checkpoints: Vec<(S, Timestamp)>,
}

impl<T, P, S, Out> Default for StepEffects<T, P, S, Out> {
    fn default() -> Self {
        StepEffects {
            msgs: Vec::new(),
            outputs: Vec::new(),
            updates: 0,
            joins: 0,
            forks: 0,
            checkpoints: Vec::new(),
        }
    }
}

impl<T, P, S, Out> StepEffects<T, P, S, Out> {
    /// Empty the effects, keeping the vectors' capacity.
    pub fn clear(&mut self) {
        self.msgs.clear();
        self.outputs.clear();
        self.checkpoints.clear();
        (self.updates, self.joins, self.forks) = (0, 0, 0);
    }
}

/// The effects type of a program's workers.
pub type Effects<Prog> = StepEffects<
    <Prog as DgsProgram>::Tag,
    <Prog as DgsProgram>::Payload,
    <Prog as DgsProgram>::State,
    <Prog as DgsProgram>::Out,
>;

/// Driver-independent worker state machine.
pub struct WorkerCore<Prog: DgsProgram> {
    id: WorkerId,
    parent: Option<WorkerId>,
    children: Vec<WorkerId>,
    mailbox: Mailbox<Prog::Tag, Prog::Payload>,
    /// Entries the mailbox released and this worker has not processed
    /// yet (it is blocked on a join/fork round-trip, or held).
    pending: VecDeque<Entry<Prog::Tag, Prog::Payload>>,
    mode: Mode<Prog::Tag, Prog::Payload, Prog::State>,
    /// Heartbeat watermarks for downward forwarding, by tag position
    /// (internal workers only; empty on a leaf): `hb_pending` is the
    /// highest heartbeat position received but not yet fully forwarded
    /// (0 = nothing pending), `hb_forwarded` the highest position already
    /// promised to the children. Forwarding is capped at the tag's
    /// *processing frontier* — strictly below the earliest same-tag entry
    /// this worker has not yet processed — so a child's timer can never
    /// overtake a join request that is still upstream. This is what makes
    /// the protocol correct under per-edge FIFO alone (Theorem 3.5's
    /// actual assumption).
    hb_pending: Vec<Timestamp>,
    hb_forwarded: Vec<Timestamp>,
    /// Mirror of the timestamps in `pending`, by tag position, in queue
    /// order (per-tag keys are increasing, because the mailbox releases
    /// each tag in `O` order). Gives `flush_heartbeats` its per-tag
    /// frontier in O(1) instead of scanning `pending` — which is
    /// quadratic under backlog. Internal workers only (leaves never
    /// forward).
    pending_ts: Vec<VecDeque<Timestamp>>,
    /// Scratch `update` writes its outputs into.
    outs: Vec<Prog::Out>,
    left_pred: TagPredicate<Prog::Tag>,
    right_pred: TagPredicate<Prog::Tag>,
    prog: Arc<Prog>,
    /// Take a checkpoint every time this worker (the root) completes a
    /// join for one of its own events.
    pub checkpoint_on_join: bool,
    /// An elastic-replan hold was requested: capture the full partition
    /// state into [`Mode::Held`] at the next moment this (root) worker
    /// materializes it — immediately if it is a state-holding leaf,
    /// otherwise when its next own-event join completes.
    hold_requested: bool,
}

/// Split an initial (or recovered) global state into one seed per
/// partition root of a forest plan, by chain-forking along the partition
/// predicates: root `i` receives `fork(rest, pred(root_i), pred(roots
/// i+1..))`'s left half and the right half carries on. For a single-root
/// plan the state passes through untouched. This is the driver-side dual
/// of the synthetic coordinator's old seeding fork — the fork still
/// happens (C2 requires it for correctness), but no worker, mailbox, or
/// channel is spent on it.
pub fn partition_seeds<Prog: DgsProgram>(
    prog: &Prog,
    plan: &Plan<Prog::Tag>,
    initial: Prog::State,
) -> Vec<Prog::State> {
    let roots = plan.roots();
    if roots.len() == 1 {
        return vec![initial];
    }
    let mut seeds = Vec::with_capacity(roots.len());
    let mut rest = initial;
    for i in 0..roots.len() - 1 {
        let mine = plan.subtree_predicate(roots[i]);
        let mut rest_pred = TagPredicate::empty();
        for &r in &roots[i + 1..] {
            rest_pred = rest_pred.union(&plan.subtree_predicate(r));
        }
        let (m, r) = prog.fork(rest, &mine, &rest_pred);
        seeds.push(m);
        rest = r;
    }
    seeds.push(rest);
    seeds
}

impl<Prog: DgsProgram> WorkerCore<Prog> {
    /// Build the core for worker `id` of `plan`.
    ///
    /// The mailbox accepts the worker's own implementation tags plus all
    /// of its ancestors' (join requests and forwarded heartbeats arrive
    /// tagged with ancestor tags).
    pub fn from_plan(prog: Arc<Prog>, plan: &Plan<Prog::Tag>, id: WorkerId) -> Self {
        let worker = plan.worker(id);
        let mut relevant: Vec<ITag<Prog::Tag>> = worker.itags.iter().cloned().collect();
        let mut anc = worker.parent;
        while let Some(a) = anc {
            relevant.extend(plan.worker(a).itags.iter().cloned());
            anc = plan.worker(a).parent;
        }
        let (left_pred, right_pred) = if worker.children.len() == 2 {
            (
                plan.subtree_predicate(worker.children[0]),
                plan.subtree_predicate(worker.children[1]),
            )
        } else {
            (TagPredicate::empty(), TagPredicate::empty())
        };
        let p = prog.clone();
        let mailbox =
            Mailbox::new(relevant, worker.itags.iter().cloned(), move |a, b| p.depends(a, b));
        // Only internal workers forward heartbeats.
        let forwarded_tags = if worker.children.is_empty() { 0 } else { mailbox.tags().len() };
        WorkerCore {
            id,
            parent: worker.parent,
            children: worker.children.clone(),
            mailbox,
            pending: VecDeque::new(),
            mode: Mode::Startup,
            hb_pending: vec![0; forwarded_tags],
            hb_forwarded: vec![0; forwarded_tags],
            pending_ts: vec![VecDeque::new(); forwarded_tags],
            outs: Vec::new(),
            left_pred,
            right_pred,
            prog,
            checkpoint_on_join: false,
            hold_requested: false,
        }
    }

    /// This worker's id.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// True if the worker has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Entries released by the mailbox but not yet processed (the worker
    /// is blocked on a join/fork round-trip).
    pub fn backlog(&self) -> usize {
        self.pending.len() + self.mailbox.buffered()
    }

    // ---- elastic-replan hold protocol -------------------------------
    //
    // The controller quiesces exactly one partition by parking its root
    // at the one instant the full partition state exists in a single
    // place: a completed own-event join (or, for a single-worker
    // partition, any time — the leaf always holds everything). While
    // held, messages keep arriving and buffering (`drain` ignores
    // `Mode::Held`), so in-flight traffic can settle to zero without
    // processing anything, and the controller can then extract state,
    // residual entries, and timers for migration onto a new sub-plan.

    /// Ask this partition root to park its full state. Engages
    /// immediately for a state-holding leaf; otherwise at the next
    /// own-event join completion. Returns `true` if the worker is held
    /// on return.
    pub fn request_hold(&mut self) -> bool {
        self.hold_requested = true;
        if let Mode::LeafHolding(_) = self.mode {
            let Mode::LeafHolding(state) = std::mem::replace(&mut self.mode, Mode::Startup)
            else {
                unreachable!()
            };
            self.mode = Mode::Held(state);
        }
        self.is_held()
    }

    /// True once the hold has engaged.
    pub fn is_held(&self) -> bool {
        matches!(self.mode, Mode::Held(_))
    }

    /// Abandon a hold (timeout or aborted replan) and resume processing.
    /// Safe to call whether or not the hold had engaged.
    pub fn cancel_hold(&mut self) -> Effects<Prog> {
        self.hold_requested = false;
        let mut fx = StepEffects::default();
        if self.is_held() {
            let Mode::Held(state) = std::mem::replace(&mut self.mode, Mode::Startup) else {
                unreachable!()
            };
            self.adopt_state(state, &mut fx);
            self.drain(&mut fx);
            self.flush_heartbeats(&mut fx);
        }
        fx
    }

    /// Extract the held full-partition state, leaving the core defunct
    /// (`Startup`). Panics unless [`WorkerCore::is_held`].
    pub fn take_held_state(&mut self) -> Prog::State {
        let Mode::Held(state) = std::mem::replace(&mut self.mode, Mode::Startup) else {
            panic!("{}: take_held_state without an engaged hold", self.id)
        };
        state
    }

    /// Drain every unprocessed event from this core for migration:
    /// released-but-unprocessed entries first (they are older), then the
    /// mailbox's blocked buffers, preserving per-tag order throughout.
    /// Only events remain at a migration point — the one in-flight join
    /// of the held round has fully completed, so no `JoinRequest` can be
    /// parked anywhere in the partition — and this panics if that
    /// invariant is ever violated.
    pub fn drain_residual_events(&mut self) -> Vec<Event<Prog::Tag, Prog::Payload>> {
        for q in &mut self.pending_ts {
            q.clear();
        }
        self.hb_pending.fill(0);
        self.hb_forwarded.fill(0);
        let id = self.id;
        self.pending
            .drain(..)
            .chain(self.mailbox.take_buffered())
            .map(|e| match e {
                Entry::Event(e) => e,
                Entry::JoinRequest { ts, .. } => {
                    panic!("{id}: residual join request at ts {ts} during migration")
                }
            })
            .collect()
    }

    /// The mailbox's per-tag timer watermarks (highest position known
    /// delivered per implementation tag), for heartbeat replay onto the
    /// migrated sub-plan.
    pub fn export_timers(&self) -> Vec<(ITag<Prog::Tag>, Timestamp)> {
        self.mailbox.timers()
    }

    /// Handle one message, producing routing/output effects.
    pub fn handle(
        &mut self,
        msg: WorkerMsg<Prog::Tag, Prog::Payload, Prog::State>,
    ) -> Effects<Prog> {
        let mut fx = StepEffects::default();
        self.handle_into(msg, &mut fx);
        fx
    }

    /// [`handle`](Self::handle), appending the effects to `fx` (and
    /// adding to its counters): a driver clears and reuses one
    /// [`StepEffects`] per worker, so a handled message allocates only
    /// what the program's own `update` / `fork` / `join` do.
    pub fn handle_into(
        &mut self,
        msg: WorkerMsg<Prog::Tag, Prog::Payload, Prog::State>,
        fx: &mut Effects<Prog>,
    ) {
        match msg {
            WorkerMsg::Event(e) => {
                self.receive(Entry::Event(e));
                self.drain(fx);
            }
            WorkerMsg::EventBatch(events) => {
                for e in events {
                    self.receive(Entry::Event(e));
                }
                self.drain(fx);
            }
            WorkerMsg::Heartbeat(hb) => {
                let from = self.pending.len();
                let position = self.mailbox.heartbeat_into(&hb, &mut self.pending);
                self.mirror_pending(from);
                if !self.children.is_empty() {
                    match position {
                        // Remember the position for downward forwarding;
                        // the post-drain flush sends as much of it as the
                        // tag's processing frontier allows (see
                        // `flush_heartbeats`).
                        Some(i) => self.hb_pending[i] = self.hb_pending[i].max(hb.ts),
                        // A tag this worker does not track has no entries
                        // here, hence no frontier to cap it at: it goes
                        // down as it came.
                        None => {
                            for &c in &self.children {
                                fx.msgs.push((c, WorkerMsg::Heartbeat(hb.clone())));
                            }
                        }
                    }
                }
                self.drain(fx);
            }
            WorkerMsg::JoinRequest { tag, stream, ts } => {
                self.receive(Entry::JoinRequest { tag, stream, ts });
                self.drain(fx);
            }
            WorkerMsg::StateUp { from, state } => {
                self.on_state_up(from, state, fx);
            }
            WorkerMsg::StateDown { state } => {
                self.adopt_state(state, fx);
                self.drain(fx);
            }
        }
        // Every handled message can move a processing frontier (drain
        // processed entries, timers advanced, a join finished), so flush
        // heartbeat watermarks after *every* message, not only heartbeats.
        self.flush_heartbeats(fx);
    }

    /// Forward buffered heartbeat positions down the tree, capped at each
    /// tag's processing frontier.
    ///
    /// A heartbeat `(σ, t)` promises the receiver that no σ entry at or
    /// before `t` will ever arrive on that edge again. This worker may
    /// therefore only forward positions strictly below its earliest
    /// *unprocessed* σ entry — whether that entry is still blocked in the
    /// mailbox or already released into `pending`: its join request has
    /// not been sent down yet, so from the children's point of view it is
    /// still in the future. Entries this worker has fully processed are
    /// safe: their join requests were emitted earlier (FIFO per edge
    /// orders them before this heartbeat), and a buffered join request at
    /// the child blocks dependent releases via the mailbox's condition 2
    /// until the join completes.
    ///
    /// The residual (capped-off) position stays in `hb_pending` and is
    /// re-flushed after the blocking entry is processed — each handled
    /// message ends with a flush, so the watermark advances exactly when
    /// the frontier does.
    fn flush_heartbeats(&mut self, fx: &mut Effects<Prog>) {
        // Empty on a leaf.
        for i in 0..self.hb_pending.len() {
            let ts = self.hb_pending[i];
            if ts == 0 {
                continue;
            }
            // Earliest unprocessed entry of this tag: mailbox buffer
            // front (per-tag FIFO) or anything waiting in `pending`.
            let buffered = self.mailbox.earliest_buffered_at(i).map(|k| k.ts);
            let queued = self.pending_ts[i].front().copied();
            let frontier = match (buffered, queued) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let safe = match frontier {
                Some(f) => ts.min(f.saturating_sub(1)),
                None => ts,
            };
            if safe > self.hb_forwarded[i] {
                let itag = &self.mailbox.tags()[i];
                for &c in &self.children {
                    fx.msgs.push((
                        c,
                        WorkerMsg::Heartbeat(Heartbeat::new(itag.tag.clone(), itag.stream, safe)),
                    ));
                }
                self.hb_forwarded[i] = safe;
            }
            if safe >= ts {
                self.hb_pending[i] = 0;
            }
        }
    }

    /// Receive a state share: leaves hold it, internal workers fork it
    /// down immediately.
    fn adopt_state(&mut self, state: Prog::State, fx: &mut Effects<Prog>) {
        if self.is_leaf() {
            self.mode = Mode::LeafHolding(state);
        } else {
            let (l, r) = self.prog.fork(state, &self.left_pred, &self.right_pred);
            fx.forks += 1;
            fx.msgs.push((self.children[0], WorkerMsg::StateDown { state: l }));
            fx.msgs.push((self.children[1], WorkerMsg::StateDown { state: r }));
            self.mode = Mode::Forked;
        }
    }

    fn on_state_up(&mut self, from: WorkerId, state: Prog::State, fx: &mut Effects<Prog>) {
        let Mode::Joining { left, right, .. } = &mut self.mode else {
            panic!("{}: StateUp outside a join", self.id);
        };
        if from == self.children[0] {
            debug_assert!(left.is_none(), "duplicate left StateUp");
            *left = Some(state);
        } else if from == self.children[1] {
            debug_assert!(right.is_none(), "duplicate right StateUp");
            *right = Some(state);
        } else {
            panic!("{}: StateUp from non-child {from}", self.id);
        }
        if left.is_none() || right.is_none() {
            return;
        }
        // Both halves are in: the join leaves `Joining` for good, so its
        // purpose (and the event inside) moves out instead of cloning.
        let Mode::Joining { purpose, left: Some(l), right: Some(r) } =
            std::mem::replace(&mut self.mode, Mode::Startup)
        else {
            unreachable!("both halves checked above")
        };
        let mut joined = self.prog.join(l, r);
        fx.joins += 1;
        match purpose {
            JoinPurpose::OwnEvent(e) => {
                self.prog.update(&mut joined, &e, &mut self.outs);
                fx.updates += 1;
                fx.outputs.extend(self.outs.drain(..).map(|o| (o, e.ts)));
                if self.checkpoint_on_join {
                    fx.checkpoints.push((joined.clone(), e.ts));
                }
                if self.hold_requested {
                    // Elastic replan: this (root) worker now holds the
                    // full partition state and every descendant is in
                    // AwaitingFork. Park instead of forking back down;
                    // the controller extracts or resumes.
                    self.mode = Mode::Held(joined);
                } else {
                    self.adopt_state(joined, fx);
                    self.drain(fx);
                }
            }
            JoinPurpose::Forward => {
                let parent = self.parent.expect("forward join needs a parent");
                fx.msgs.push((parent, WorkerMsg::StateUp { from: self.id, state: joined }));
                self.mode = Mode::AwaitingFork;
            }
        }
    }

    /// Hand an entry to the mailbox; what it releases goes straight onto
    /// the pending queue.
    fn receive(&mut self, entry: Entry<Prog::Tag, Prog::Payload>) {
        let from = self.pending.len();
        self.mailbox.insert_into(entry, &mut self.pending);
        self.mirror_pending(from);
    }

    /// Mirror the timestamps of the releases appended to `pending` from
    /// index `from` on, per tag position (internal workers only; see
    /// `pending_ts`).
    fn mirror_pending(&mut self, from: usize) {
        if self.children.is_empty() {
            return;
        }
        for e in self.pending.range(from..) {
            let key = e.order_key();
            let i = self.mailbox.position(e.tag(), key.stream).expect("released by this mailbox");
            self.pending_ts[i].push_back(key.ts);
        }
    }

    /// Process released entries in order until blocked or drained.
    fn drain(&mut self, fx: &mut Effects<Prog>) {
        loop {
            match self.mode {
                Mode::LeafHolding(_) | Mode::Forked => {}
                _ => return,
            }
            let Some(entry) = self.pending.pop_front() else { return };
            if !self.children.is_empty() {
                // Keep the per-tag frontier mirror in step (see
                // `pending_ts`).
                let key = entry.order_key();
                let popped = self
                    .mailbox
                    .position(entry.tag(), key.stream)
                    .and_then(|i| self.pending_ts[i].pop_front());
                debug_assert_eq!(popped, Some(key.ts), "pending mirror desync");
            }
            match entry {
                Entry::Event(e) => {
                    if let Mode::LeafHolding(state) = &mut self.mode {
                        self.prog.update(state, &e, &mut self.outs);
                        fx.updates += 1;
                        fx.outputs.extend(self.outs.drain(..).map(|o| (o, e.ts)));
                    } else {
                        // Internal worker's own event: gather the children.
                        self.request_join(&e.tag, e.stream, e.ts, fx);
                        self.mode = Mode::Joining {
                            purpose: JoinPurpose::OwnEvent(e),
                            left: None,
                            right: None,
                        };
                    }
                }
                Entry::JoinRequest { tag, stream, ts } => {
                    if self.is_leaf() {
                        let Mode::LeafHolding(state) =
                            std::mem::replace(&mut self.mode, Mode::AwaitingFork)
                        else {
                            unreachable!("a leaf drains only while holding its state")
                        };
                        let parent = self.parent.expect("join request implies a parent");
                        fx.msgs.push((parent, WorkerMsg::StateUp { from: self.id, state }));
                    } else {
                        self.request_join(&tag, stream, ts, fx);
                        self.mode = Mode::Joining {
                            purpose: JoinPurpose::Forward,
                            left: None,
                            right: None,
                        };
                    }
                }
            }
        }
    }

    /// Send every child the join request for the synchronizing event
    /// `(tag, stream, ts)`; the caller enters [`Mode::Joining`].
    fn request_join(
        &self,
        tag: &Prog::Tag,
        stream: StreamId,
        ts: Timestamp,
        fx: &mut Effects<Prog>,
    ) {
        debug_assert!(!self.children.is_empty());
        for &c in &self.children {
            fx.msgs.push((c, WorkerMsg::JoinRequest { tag: tag.clone(), stream, ts }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_core::examples::{KcTag, KeyCounter};
    use dgs_core::spec::{run_sequential, sort_o};
    use dgs_core::event::StreamItem;
    use dgs_plan::plan::{Location, PlanBuilder};
    use std::collections::BTreeMap;

    type Msg = WorkerMsg<KcTag, (), BTreeMap<u32, i64>>;

    /// In-process FIFO dispatcher: delivers messages in send order (global
    /// queue ⇒ FIFO per pair), collecting outputs.
    struct Harness {
        workers: Vec<WorkerCore<KeyCounter>>,
        queue: VecDeque<(WorkerId, Msg)>,
        outputs: Vec<((u32, i64), Timestamp)>,
        checkpoints: Vec<(BTreeMap<u32, i64>, Timestamp)>,
    }

    impl Harness {
        fn new(plan: &Plan<KcTag>) -> Self {
            let prog = Arc::new(KeyCounter);
            let workers = plan
                .iter()
                .map(|(id, _)| WorkerCore::from_plan(prog.clone(), plan, id))
                .collect();
            let mut h = Harness {
                workers,
                queue: VecDeque::new(),
                outputs: Vec::new(),
                checkpoints: Vec::new(),
            };
            // Seed the root with the initial state.
            h.queue.push_back((plan.root(), WorkerMsg::StateDown { state: BTreeMap::new() }));
            h.pump();
            h
        }

        fn send(&mut self, dst: WorkerId, msg: Msg) {
            self.queue.push_back((dst, msg));
            self.pump();
        }

        fn pump(&mut self) {
            while let Some((dst, msg)) = self.queue.pop_front() {
                let fx = self.workers[dst.0].handle(msg);
                self.outputs.extend(fx.outputs);
                self.checkpoints.extend(fx.checkpoints);
                self.queue.extend(fx.msgs);
            }
        }
    }

    fn it(tag: KcTag, s: u32) -> ITag<KcTag> {
        ITag::new(tag, StreamId(s))
    }

    /// Figure 3 plan: w1{} — w2{r(1),i(1)}, w3{r(2)} — w4{i(2)a}, w5{i(2)b}.
    fn figure_3_plan() -> Plan<KcTag> {
        let mut b = PlanBuilder::new();
        let w1 = b.add([], Location(0));
        let w2 = b.add([it(KcTag::ReadReset(1), 1), it(KcTag::Inc(1), 1)], Location(1));
        let w3 = b.add([it(KcTag::ReadReset(2), 0)], Location(0));
        let w4 = b.add([it(KcTag::Inc(2), 2)], Location(2));
        let w5 = b.add([it(KcTag::Inc(2), 3)], Location(3));
        b.attach(w1, w2);
        b.attach(w1, w3);
        b.attach(w3, w4);
        b.attach(w3, w5);
        b.build(w1)
    }

    fn route(plan: &Plan<KcTag>, h: &mut Harness, e: Event<KcTag, ()>) {
        let dst = plan.responsible_for(&e.itag()).expect("routed tag");
        h.send(dst, WorkerMsg::Event(e));
    }

    fn hb(plan: &Plan<KcTag>, h: &mut Harness, tag: KcTag, stream: u32, ts: u64) {
        let dst = plan.responsible_for(&it(tag, stream)).expect("routed tag");
        h.send(dst, WorkerMsg::Heartbeat(Heartbeat::new(tag, StreamId(stream), ts)));
    }

    #[test]
    fn leaf_processes_events_directly() {
        let plan = figure_3_plan();
        let mut h = Harness::new(&plan);
        // i(1) events + r(1) on leaf w2 (its own mailbox orders them).
        route(&plan, &mut h, Event::new(KcTag::Inc(1), StreamId(1), 1, ()));
        route(&plan, &mut h, Event::new(KcTag::Inc(1), StreamId(1), 2, ()));
        route(&plan, &mut h, Event::new(KcTag::ReadReset(1), StreamId(1), 3, ()));
        // Both tags share stream 1 here, so the r(1)@3 also advances the
        // i(1) ordering... but the i(1) *timer* must still pass ts 3
        // before r(1) can release (another i(1)@2.5 could be in flight).
        assert!(h.outputs.is_empty());
        hb(&plan, &mut h, KcTag::Inc(1), 1, 4);
        assert_eq!(h.outputs, vec![((1, 2), 3)]);
    }

    #[test]
    fn internal_join_aggregates_children() {
        let plan = figure_3_plan();
        let mut h = Harness::new(&plan);
        // Counts of key 2 accumulate on both leaves, then r(2) at w3 joins.
        route(&plan, &mut h, Event::new(KcTag::Inc(2), StreamId(2), 1, ()));
        route(&plan, &mut h, Event::new(KcTag::Inc(2), StreamId(3), 2, ()));
        route(&plan, &mut h, Event::new(KcTag::Inc(2), StreamId(2), 3, ()));
        // r(2) at ts 5: blocked at w3's mailbox until i(2) timers pass 5 —
        // i(2) is NOT in w3's mailbox (children order the join request),
        // so it releases right away and the join request waits in the
        // children's mailboxes for their heartbeats.
        route(&plan, &mut h, Event::new(KcTag::ReadReset(2), StreamId(0), 5, ()));
        assert!(h.outputs.is_empty(), "children have not released the join request yet");
        hb(&plan, &mut h, KcTag::Inc(2), 2, 10);
        assert!(h.outputs.is_empty(), "stream i(2)b has not caught up");
        hb(&plan, &mut h, KcTag::Inc(2), 3, 10);
        assert_eq!(h.outputs, vec![((2, 3), 5)]);
    }

    #[test]
    fn increments_after_read_reset_partition_correctly() {
        let plan = figure_3_plan();
        let mut h = Harness::new(&plan);
        route(&plan, &mut h, Event::new(KcTag::Inc(2), StreamId(2), 1, ()));
        route(&plan, &mut h, Event::new(KcTag::ReadReset(2), StreamId(0), 2, ()));
        hb(&plan, &mut h, KcTag::Inc(2), 2, 5);
        hb(&plan, &mut h, KcTag::Inc(2), 3, 5);
        assert_eq!(h.outputs, vec![((2, 1), 2)]);
        // After the fork, leaves count again from their shares.
        route(&plan, &mut h, Event::new(KcTag::Inc(2), StreamId(3), 6, ()));
        route(&plan, &mut h, Event::new(KcTag::ReadReset(2), StreamId(0), 7, ()));
        hb(&plan, &mut h, KcTag::Inc(2), 2, 9);
        hb(&plan, &mut h, KcTag::Inc(2), 3, 9);
        assert_eq!(h.outputs, vec![((2, 1), 2), ((2, 1), 7)]);
    }

    #[test]
    fn matches_sequential_spec_on_interleaved_workload() {
        let plan = figure_3_plan();
        let mut h = Harness::new(&plan);
        // Build a 4-stream workload (streams 0..=3 as in the plan).
        let mut streams: Vec<Vec<StreamItem<KcTag, ()>>> = vec![Vec::new(); 4];
        let mut push = |s: u32, tag: KcTag, ts: u64| {
            streams[s as usize].push(StreamItem::Event(Event::new(tag, StreamId(s), ts, ())));
        };
        push(1, KcTag::Inc(1), 1);
        push(2, KcTag::Inc(2), 1);
        push(3, KcTag::Inc(2), 2);
        push(1, KcTag::ReadReset(1), 3);
        push(0, KcTag::ReadReset(2), 4);
        push(2, KcTag::Inc(2), 5);
        push(3, KcTag::Inc(2), 6);
        push(0, KcTag::ReadReset(2), 7);
        push(1, KcTag::Inc(1), 8);
        push(1, KcTag::ReadReset(1), 9);
        // Feed in a deliberately skewed order (per-stream order kept).
        let order: Vec<(usize, usize)> = vec![
            (2, 0), (3, 0), (0, 0), (1, 0), (2, 1), (1, 1), (3, 1), (0, 1), (1, 2), (1, 3),
        ];
        for (s, idx) in order {
            if let StreamItem::Event(e) = &streams[s][idx] {
                route(&plan, &mut h, e.clone());
            }
        }
        // Close every stream with heartbeats.
        hb(&plan, &mut h, KcTag::ReadReset(2), 0, 100);
        hb(&plan, &mut h, KcTag::ReadReset(1), 1, 100);
        hb(&plan, &mut h, KcTag::Inc(1), 1, 100);
        hb(&plan, &mut h, KcTag::Inc(2), 2, 100);
        hb(&plan, &mut h, KcTag::Inc(2), 3, 100);
        // Expected: the sequential spec over the O-merged stream.
        let merged = sort_o(&streams);
        let (_, expect) = run_sequential(&KeyCounter, &merged);
        let mut got: Vec<(u32, i64)> = h.outputs.iter().map(|(o, _)| *o).collect();
        let mut want = expect;
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn checkpoints_taken_on_root_join() {
        // Two-worker-deep plan where the root owns r(1): root{r(1)} with
        // children {i(1)a} and {i(1)b}.
        let mut b = PlanBuilder::new();
        let root = b.add([it(KcTag::ReadReset(1), 0)], Location(0));
        let l = b.add([it(KcTag::Inc(1), 1)], Location(1));
        let r = b.add([it(KcTag::Inc(1), 2)], Location(2));
        b.attach(root, l);
        b.attach(root, r);
        let plan = b.build(root);
        let mut h = Harness::new(&plan);
        h.workers[root.0].checkpoint_on_join = true;
        route(&plan, &mut h, Event::new(KcTag::Inc(1), StreamId(1), 1, ()));
        route(&plan, &mut h, Event::new(KcTag::Inc(1), StreamId(2), 2, ()));
        route(&plan, &mut h, Event::new(KcTag::ReadReset(1), StreamId(0), 3, ()));
        hb(&plan, &mut h, KcTag::Inc(1), 1, 10);
        hb(&plan, &mut h, KcTag::Inc(1), 2, 10);
        assert_eq!(h.outputs, vec![((1, 2), 3)]);
        assert_eq!(h.checkpoints.len(), 1);
        let (snap, ts) = &h.checkpoints[0];
        assert_eq!(*ts, 3);
        // Snapshot is the post-update state: key 1 was reset.
        assert!(snap.get(&1).is_none());
    }

    #[test]
    fn hold_engages_at_root_join_and_extraction_is_lossless() {
        // root{r(1)} over two i(1) leaves: request a hold, drive one
        // own-event join to completion, and check that the root parks the
        // full state while later events buffer instead of processing.
        let mut b = PlanBuilder::new();
        let root = b.add([it(KcTag::ReadReset(1), 0)], Location(0));
        let l = b.add([it(KcTag::Inc(1), 1)], Location(1));
        let r = b.add([it(KcTag::Inc(1), 2)], Location(2));
        b.attach(root, l);
        b.attach(root, r);
        let plan = b.build(root);
        let mut h = Harness::new(&plan);

        assert!(!h.workers[root.0].request_hold(), "internal root holds no state yet");
        route(&plan, &mut h, Event::new(KcTag::Inc(1), StreamId(1), 1, ()));
        route(&plan, &mut h, Event::new(KcTag::ReadReset(1), StreamId(0), 2, ()));
        hb(&plan, &mut h, KcTag::Inc(1), 1, 5);
        hb(&plan, &mut h, KcTag::Inc(1), 2, 5);
        // The r(1)@2 join completed and the root parked instead of
        // re-forking; its output was still emitted.
        assert!(h.workers[root.0].is_held());
        assert_eq!(h.outputs, vec![((1, 1), 2)]);

        // Traffic arriving while held buffers: nothing processes.
        route(&plan, &mut h, Event::new(KcTag::ReadReset(1), StreamId(0), 7, ()));
        assert_eq!(h.outputs.len(), 1);

        // Extraction: full state, residual events, timers.
        let state = h.workers[root.0].take_held_state();
        assert!(!state.contains_key(&1), "r(1)@2 reset key 1 before the hold");
        let residual = h.workers[root.0].drain_residual_events();
        assert_eq!(residual.len(), 1, "the r(1)@7 event must be carried over");
        assert_eq!(residual[0].ts, 7);
        let timers = h.workers[root.0].export_timers();
        assert!(timers.iter().any(|(t, ts)| *t == it(KcTag::ReadReset(1), 0) && *ts == 7));
        // Leaves still advanced their own timers to the heartbeats.
        let leaf_timers = h.workers[l.0].export_timers();
        assert!(leaf_timers.iter().any(|(t, ts)| *t == it(KcTag::Inc(1), 1) && *ts == 5));
    }

    #[test]
    fn cancel_hold_resumes_processing() {
        let mut b = PlanBuilder::new();
        let root = b.add([it(KcTag::ReadReset(1), 0)], Location(0));
        let l = b.add([it(KcTag::Inc(1), 1)], Location(1));
        let r = b.add([it(KcTag::Inc(1), 2)], Location(2));
        b.attach(root, l);
        b.attach(root, r);
        let plan = b.build(root);
        let mut h = Harness::new(&plan);
        route(&plan, &mut h, Event::new(KcTag::Inc(1), StreamId(1), 1, ()));
        route(&plan, &mut h, Event::new(KcTag::ReadReset(1), StreamId(0), 2, ()));
        h.workers[root.0].request_hold();
        hb(&plan, &mut h, KcTag::Inc(1), 1, 5);
        hb(&plan, &mut h, KcTag::Inc(1), 2, 5);
        assert!(h.workers[root.0].is_held());
        // A second r(1) buffers while held...
        route(&plan, &mut h, Event::new(KcTag::ReadReset(1), StreamId(0), 7, ()));
        assert_eq!(h.outputs.len(), 1);
        // ...and processes normally after the hold is abandoned.
        let fx = h.workers[root.0].cancel_hold();
        h.queue.extend(fx.msgs);
        h.outputs.extend(fx.outputs);
        h.pump();
        hb(&plan, &mut h, KcTag::Inc(1), 1, 9);
        hb(&plan, &mut h, KcTag::Inc(1), 2, 9);
        assert_eq!(h.outputs, vec![((1, 1), 2), ((1, 0), 7)]);
        assert!(!h.workers[root.0].is_held());
    }

    #[test]
    fn leaf_root_holds_immediately() {
        // Single-worker plan: the root is a leaf and always holds the
        // full state, so the hold engages synchronously.
        let mut b = PlanBuilder::new();
        let w = b.add(
            [it(KcTag::ReadReset(1), 0), it(KcTag::Inc(1), 1)],
            Location(0),
        );
        let plan = b.build(w);
        let mut h = Harness::new(&plan);
        route(&plan, &mut h, Event::new(KcTag::Inc(1), StreamId(1), 1, ()));
        hb(&plan, &mut h, KcTag::ReadReset(1), 0, 3);
        assert!(h.workers[w.0].request_hold());
        // Held: the reset buffers instead of processing.
        route(&plan, &mut h, Event::new(KcTag::ReadReset(1), StreamId(0), 4, ()));
        hb(&plan, &mut h, KcTag::Inc(1), 1, 6);
        assert!(h.outputs.is_empty());
        let state = h.workers[w.0].take_held_state();
        assert_eq!(state.get(&1), Some(&1));
        let residual = h.workers[w.0].drain_residual_events();
        assert_eq!(residual.len(), 1);
    }

    #[test]
    fn backlog_reflects_blocked_entries() {
        let plan = figure_3_plan();
        let h = Harness::new(&plan);
        let w3 = WorkerId(2);
        assert_eq!(h.workers[w3.0].backlog(), 0);
        assert!(!h.workers[w3.0].is_leaf());
        assert!(h.workers[WorkerId(1).0].is_leaf());
    }
}
