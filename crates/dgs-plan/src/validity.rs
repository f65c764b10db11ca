//! P-validity of synchronization plans (Definition 3.2).
//!
//! A plan is valid for a program when:
//!
//! * **V1** — each worker's state can handle the tags it is responsible
//!   for (well-typedness; with a single state type this is the program's
//!   [`can_handle`](dgs_core::DgsProgram::can_handle) check on the initial
//!   state).
//! * **V2** — workers without an ancestor–descendant relationship handle
//!   pairwise *independent* and *disjoint* implementation tag sets.
//!
//! We additionally enforce three implementation-level requirements that
//! the paper's prose assumes: every implementation tag is owned by
//! exactly one worker (unique routing), internal workers have exactly two
//! children (forks are binary), and no internal synchronizer is starved
//! by multiple dependent streams above it
//! ([`check_protocol_executable`]).

use std::collections::BTreeSet;

use dgs_core::depends::Dependence;
use dgs_core::tag::{ITag, Tag};

use crate::plan::{Plan, WorkerId};

/// Reasons a plan fails validity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidityError<T: Tag> {
    /// V1: a worker is responsible for a tag its state cannot process.
    CannotHandle {
        /// Offending worker.
        worker: WorkerId,
        /// Tag the worker's state type cannot process.
        itag: ITag<T>,
    },
    /// V2: two unrelated workers own dependent tags.
    UnrelatedDependent {
        /// First worker.
        a: WorkerId,
        /// Second worker.
        b: WorkerId,
        /// Dependent tag owned by `a`.
        tag_a: ITag<T>,
        /// Dependent tag owned by `b`.
        tag_b: ITag<T>,
    },
    /// An implementation tag is owned by more than one worker.
    DuplicateOwnership {
        /// The multiply-owned tag.
        itag: ITag<T>,
        /// First owner.
        a: WorkerId,
        /// Second owner.
        b: WorkerId,
    },
    /// An implementation tag from the declared universe has no owner.
    Unrouted {
        /// The orphaned tag.
        itag: ITag<T>,
    },
    /// An internal worker does not have exactly two children.
    NonBinaryInternal {
        /// Offending worker.
        worker: WorkerId,
        /// Its child count.
        children: usize,
    },
    /// Protocol executability: more than one stream dependent on an
    /// internal worker's tag lives strictly above that worker (see
    /// [`check_protocol_executable`]).
    StarvedSynchronizer {
        /// The internal worker owning the synchronizing tag.
        worker: WorkerId,
        /// The synchronizing tag.
        itag: ITag<T>,
        /// The ancestor-owned dependent streams (more than one).
        ancestor_streams: Vec<ITag<T>>,
    },
}

/// Check P-validity of `plan` against a dependence relation, a
/// `can_handle` typing oracle (V1), and the universe of implementation
/// tags that must be routed.
pub fn check_valid<T: Tag, D: Dependence<T> + ?Sized>(
    plan: &Plan<T>,
    dep: &D,
    can_handle: impl Fn(WorkerId, &ITag<T>) -> bool,
    universe: &BTreeSet<ITag<T>>,
) -> Result<(), ValidityError<T>> {
    // Binary internal nodes.
    for (id, w) in plan.iter() {
        if !w.is_leaf() && w.children.len() != 2 {
            return Err(ValidityError::NonBinaryInternal { worker: id, children: w.children.len() });
        }
    }
    // V1 typing.
    for (id, w) in plan.iter() {
        for t in &w.itags {
            if !can_handle(id, t) {
                return Err(ValidityError::CannotHandle { worker: id, itag: t.clone() });
            }
        }
    }
    // Unique ownership + coverage.
    let mut owner: std::collections::BTreeMap<&ITag<T>, WorkerId> = Default::default();
    for (id, w) in plan.iter() {
        for t in &w.itags {
            if let Some(prev) = owner.insert(t, id) {
                return Err(ValidityError::DuplicateOwnership { itag: t.clone(), a: prev, b: id });
            }
        }
    }
    for t in universe {
        if !owner.contains_key(t) {
            return Err(ValidityError::Unrouted { itag: t.clone() });
        }
    }
    // V2 independence for unrelated pairs (disjointness is implied by
    // unique ownership).
    let ids: Vec<WorkerId> = plan.iter().map(|(id, _)| id).collect();
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            if plan.related(a, b) {
                continue;
            }
            for ta in &plan.worker(a).itags {
                for tb in &plan.worker(b).itags {
                    if dep.depends_itag(ta, tb) {
                        return Err(ValidityError::UnrelatedDependent {
                            a,
                            b,
                            tag_a: ta.clone(),
                            tag_b: tb.clone(),
                        });
                    }
                }
            }
        }
    }
    check_protocol_executable(plan, dep)
}

/// Protocol executability (implementation-level, beyond Definition 3.2):
/// for every tag σ owned by an *internal* worker `B`, at most one stream
/// dependent on σ may be owned by a strict ancestor of `B`.
///
/// Why: `B` releases a σ event only once its timer for every dependent
/// tag has passed the event (mailbox condition 1). A dependent stream τ
/// owned strictly above `B` advances that timer through exactly two
/// kinds of traffic on the parent edge — join requests for τ's events
/// (whose *insert* moves the timer to the event's own position) and
/// forwarded heartbeats (capped at the forwarder's processing frontier).
/// With a single ancestor stream this is live: the first τ join request
/// positioned past the σ event unblocks it by insertion. With two
/// ancestor streams τ₁, τ₂, a τ₁ join request queued *behind* the σ event
/// (mailbox condition 2) parks every worker between its sender and `B` in
/// `Joining` mode, which freezes τ₂'s processing frontier — and with it
/// the capped heartbeat watermark — strictly below the σ event: a cycle,
/// and the deployment deadlocks regardless of channel ordering. Plans
/// produced by the Appendix-B-style optimizers satisfy this by
/// construction (a dependence hub is peeled at the same node as any of
/// its dependents that sit above the rest), but hand-built plans can
/// violate it, so drivers and generators should check.
pub fn check_protocol_executable<T: Tag, D: Dependence<T> + ?Sized>(
    plan: &Plan<T>,
    dep: &D,
) -> Result<(), ValidityError<T>> {
    for (id, w) in plan.iter() {
        if w.is_leaf() {
            continue;
        }
        for itag in &w.itags {
            let mut above: Vec<ITag<T>> = Vec::new();
            let mut anc = w.parent;
            while let Some(a) = anc {
                for t in &plan.worker(a).itags {
                    if dep.depends_itag(itag, t) || dep.depends_itag(t, itag) {
                        above.push(t.clone());
                    }
                }
                anc = plan.worker(a).parent;
            }
            if above.len() > 1 {
                return Err(ValidityError::StarvedSynchronizer {
                    worker: id,
                    itag: itag.clone(),
                    ancestor_streams: above,
                });
            }
        }
    }
    Ok(())
}

/// Check validity directly against a [`DgsProgram`](dgs_core::DgsProgram):
/// uses the program's dependence relation and `can_handle` on the initial
/// state (single-state-type V1).
pub fn check_valid_for_program<P: dgs_core::DgsProgram>(
    plan: &Plan<P::Tag>,
    prog: &P,
    universe: &BTreeSet<ITag<P::Tag>>,
) -> Result<(), ValidityError<P::Tag>> {
    let dep = dgs_core::depends::FnDependence::new(|a: &P::Tag, b: &P::Tag| prog.depends(a, b));
    let init = prog.init();
    check_valid(plan, &dep, |_w, t| prog.can_handle(&init, &t.tag), universe)
}

/// Everything a driver needs of a plan before running it: P-validity
/// against the program ([`check_valid_for_program`]), then protocol
/// executability under the program's dependence relation
/// ([`check_protocol_executable`]).
pub fn check_plan_for_program<P: dgs_core::DgsProgram>(
    plan: &Plan<P::Tag>,
    prog: &P,
    universe: &BTreeSet<ITag<P::Tag>>,
) -> Result<(), ValidityError<P::Tag>> {
    check_valid_for_program(plan, prog, universe)?;
    let dep = dgs_core::depends::FnDependence::new(|a: &P::Tag, b: &P::Tag| prog.depends(a, b));
    check_protocol_executable(plan, &dep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Location, PlanBuilder};
    use dgs_core::depends::FnDependence;
    use dgs_core::event::StreamId;
    use dgs_core::examples::{KcTag, KeyCounter};

    fn it(tag: KcTag, s: u32) -> ITag<KcTag> {
        ITag::new(tag, StreamId(s))
    }

    fn kc_dep() -> impl Dependence<KcTag> {
        FnDependence::new(|a: &KcTag, b: &KcTag| {
            a.key() == b.key() && (a.is_read_reset() || b.is_read_reset())
        })
    }

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

    fn figure_3_universe() -> BTreeSet<ITag<KcTag>> {
        [
            it(KcTag::ReadReset(1), 1),
            it(KcTag::Inc(1), 1),
            it(KcTag::ReadReset(2), 0),
            it(KcTag::Inc(2), 2),
            it(KcTag::Inc(2), 3),
        ]
        .into()
    }

    #[test]
    fn figure_3_is_valid() {
        let plan = figure_3_plan();
        assert_eq!(
            check_valid(&plan, &kc_dep(), |_, _| true, &figure_3_universe()),
            Ok(())
        );
        assert_eq!(check_valid_for_program(&plan, &KeyCounter, &figure_3_universe()), Ok(()));
    }

    #[test]
    fn v2_violation_detected() {
        // Put r(2) on a leaf unrelated to the i(2) leaves.
        let mut b = PlanBuilder::new();
        let root = b.add([], Location(0));
        let l = b.add([it(KcTag::ReadReset(2), 0)], Location(0));
        let r = b.add([it(KcTag::Inc(2), 1)], Location(1));
        b.attach(root, l);
        b.attach(root, r);
        let plan = b.build(root);
        let universe = [it(KcTag::ReadReset(2), 0), it(KcTag::Inc(2), 1)].into();
        let err = check_valid(&plan, &kc_dep(), |_, _| true, &universe).unwrap_err();
        assert!(matches!(err, ValidityError::UnrelatedDependent { .. }));
    }

    #[test]
    fn duplicate_ownership_detected() {
        let mut b = PlanBuilder::new();
        let root = b.add([it(KcTag::Inc(1), 0)], Location(0));
        let l = b.add([it(KcTag::Inc(1), 0)], Location(0));
        let r = b.add([it(KcTag::Inc(2), 1)], Location(0));
        b.attach(root, l);
        b.attach(root, r);
        let plan = b.build(root);
        let universe = [it(KcTag::Inc(1), 0), it(KcTag::Inc(2), 1)].into();
        let err = check_valid(&plan, &kc_dep(), |_, _| true, &universe).unwrap_err();
        assert!(matches!(err, ValidityError::DuplicateOwnership { .. }));
    }

    #[test]
    fn unrouted_tag_detected() {
        let plan = figure_3_plan();
        let mut universe = figure_3_universe();
        universe.insert(it(KcTag::Inc(7), 9));
        let err = check_valid(&plan, &kc_dep(), |_, _| true, &universe).unwrap_err();
        assert_eq!(err, ValidityError::Unrouted { itag: it(KcTag::Inc(7), 9) });
    }

    #[test]
    fn v1_violation_detected() {
        let plan = figure_3_plan();
        let err = check_valid(
            &plan,
            &kc_dep(),
            |_, t| !matches!(t.tag, KcTag::ReadReset(2)),
            &figure_3_universe(),
        )
        .unwrap_err();
        assert!(matches!(err, ValidityError::CannotHandle { worker: WorkerId(2), .. }));
    }

    /// Chain with two Inc(1) streams above the internal ReadReset(1)
    /// owner: the starvation cycle described on
    /// [`check_protocol_executable`]. One ancestor stream is fine.
    #[test]
    fn starved_synchronizer_detected() {
        let chain = |ancestors: usize| {
            let mut b = PlanBuilder::new();
            let rr = b.add([it(KcTag::ReadReset(1), 10)], Location(0));
            let l = b.add([it(KcTag::Inc(1), 11)], Location(0));
            let r = b.add([it(KcTag::Inc(1), 12)], Location(0));
            b.attach(rr, l);
            b.attach(rr, r);
            let mut top = rr;
            for s in 0..ancestors {
                let n = b.add([it(KcTag::Inc(1), s as u32)], Location(0));
                let sib = b.add([it(KcTag::Inc(2), 20 + s as u32)], Location(0));
                b.attach(n, top);
                b.attach(n, sib);
                top = n;
            }
            b.build(top)
        };
        assert_eq!(check_protocol_executable(&chain(0), &kc_dep()), Ok(()));
        assert_eq!(check_protocol_executable(&chain(1), &kc_dep()), Ok(()));
        let err = check_protocol_executable(&chain(2), &kc_dep()).unwrap_err();
        match err {
            ValidityError::StarvedSynchronizer { itag, ancestor_streams, .. } => {
                assert_eq!(itag, it(KcTag::ReadReset(1), 10));
                assert_eq!(ancestor_streams.len(), 2);
            }
            other => panic!("expected StarvedSynchronizer, got {other:?}"),
        }
    }

    #[test]
    fn non_binary_internal_detected() {
        let mut b = PlanBuilder::new();
        let root = b.add([], Location(0));
        let only = b.add([it(KcTag::Inc(1), 0)], Location(0));
        b.attach(root, only);
        let plan = b.build(root);
        let universe = [it(KcTag::Inc(1), 0)].into();
        let err = check_valid(&plan, &kc_dep(), |_, _| true, &universe).unwrap_err();
        assert_eq!(err, ValidityError::NonBinaryInternal { worker: WorkerId(0), children: 1 });
    }
}
