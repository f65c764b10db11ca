//! The named workload registry: **one** table mapping workload names to
//! [`SweepWorkload`] types (and therefore to [`Job`] constructors via
//! [`SweepWorkload::job`]), shared by every front end — the `flumina`
//! CLI, the tests and the `bench/` harness all resolve names through
//! here, so their workload lists cannot drift apart.
//!
//! Because the workload types differ per entry, lookups use a visitor:
//! implement [`WorkloadVisitor`] with whatever generic operation you
//! need (build a job, run a sweep cell, render a plan) and call
//! [`visit`] with a name from the table.
//!
//! ```
//! use dgs_apps::registry::{self, WorkloadVisitor};
//! use dgs_apps::sweep::SweepWorkload;
//!
//! struct LeafCount {
//!     workers: u32,
//! }
//! impl WorkloadVisitor for LeafCount {
//!     type Out = usize;
//!     fn visit<W: SweepWorkload>(&mut self) -> usize {
//!         W::for_scale(self.workers, 100, 2).plan().leaf_count()
//!     }
//! }
//! assert_eq!(registry::visit("value-barrier", &mut LeafCount { workers: 4 }), Some(4));
//! assert_eq!(registry::visit("no-such-workload", &mut LeafCount { workers: 4 }), None);
//! ```
//!
//! [`Job`]: dgs_runtime::job::Job

use crate::fraud::FdWorkload;
use crate::outlier::OdWorkload;
use crate::page_view::PvWorkload;
use crate::smart_home::ShWorkload;
use crate::sweep::{PvForestWorkload, PvZipfWorkload, SweepWorkload};
use crate::value_barrier::VbWorkload;

/// One row of the registry.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadEntry {
    /// Canonical name ([`SweepWorkload::NAME`]); what CLIs accept and
    /// benchmark artifacts record.
    pub name: &'static str,
    /// One-line description for `--help`-style listings.
    pub about: &'static str,
    /// Member of the default sweep: the three §4 applications plus the
    /// multi-root forest. `flumina list` marks these rows
    /// `[default sweep]`; the others are selectable by name.
    pub in_default_sweep: bool,
}

/// The table. Adding a workload means adding a [`SweepWorkload`] impl,
/// one row here, and one arm in [`visit`] — every front end picks it up
/// from there.
pub const WORKLOADS: &[WorkloadEntry] = &[
    WorkloadEntry {
        name: "value-barrier",
        about: "event-based windowing: N value streams synchronized per barrier (§4.1)",
        in_default_sweep: true,
    },
    WorkloadEntry {
        name: "page-view",
        about: "page-view join, ≤2 hot pages, views parallelized within a page (§4.1)",
        in_default_sweep: true,
    },
    WorkloadEntry {
        name: "fraud-detection",
        about: "fraud detection: per-window rule resync over N transaction streams (§4.1)",
        in_default_sweep: true,
    },
    WorkloadEntry {
        name: "page-view-forest",
        about: "one independent page-tree per worker slot — the §4.3 multi-root forest",
        in_default_sweep: true,
    },
    WorkloadEntry {
        name: "page-view-zipf",
        about: "zipf-skewed bursty page-view on an over-provisioned forest — the elasticity cell",
        in_default_sweep: false,
    },
    WorkloadEntry {
        name: "outlier",
        about: "network outlier detection case study (Appendix A)",
        in_default_sweep: false,
    },
    WorkloadEntry {
        name: "smart-home",
        about: "smart-home energy prediction case study (Appendix A)",
        in_default_sweep: false,
    },
];

/// A generic operation over a (statically typed) registry workload.
pub trait WorkloadVisitor {
    /// What the operation produces.
    type Out;

    /// Invoked with the workload type `name` resolved to.
    fn visit<W: SweepWorkload>(&mut self) -> Self::Out;
}

/// Canonicalize a user-supplied name (accepts the legacy CLI alias
/// `fraud` for `fraud-detection`).
pub fn canonical(name: &str) -> &str {
    match name {
        "fraud" => "fraud-detection",
        other => other,
    }
}

/// Resolve `name` against the table and run the visitor on its workload
/// type. `None` for unknown names.
pub fn visit<V: WorkloadVisitor>(name: &str, v: &mut V) -> Option<V::Out> {
    match canonical(name) {
        "value-barrier" => Some(v.visit::<VbWorkload>()),
        "page-view" => Some(v.visit::<PvWorkload>()),
        "fraud-detection" => Some(v.visit::<FdWorkload>()),
        "page-view-forest" => Some(v.visit::<PvForestWorkload>()),
        "page-view-zipf" => Some(v.visit::<PvZipfWorkload>()),
        "outlier" => Some(v.visit::<OdWorkload>()),
        "smart-home" => Some(v.visit::<ShWorkload>()),
        _ => None,
    }
}

/// All canonical names, in table order.
pub fn names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

/// The human-readable listing (one row per workload) that `flumina list`
/// prints, kept beside the table it renders.
pub fn render_listing() -> String {
    WORKLOADS
        .iter()
        .map(|e| {
            format!(
                "{:<18} {}{}\n",
                e.name,
                e.about,
                if e.in_default_sweep { " [default sweep]" } else { "" }
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every table row resolves, and its `NAME` constant matches the
    /// table key — the property that keeps artifacts and front ends
    /// consistent.
    #[test]
    fn every_entry_resolves_to_a_matching_workload() {
        struct NameOf;
        impl WorkloadVisitor for NameOf {
            type Out = &'static str;
            fn visit<W: SweepWorkload>(&mut self) -> &'static str {
                W::NAME
            }
        }
        for entry in WORKLOADS {
            assert_eq!(visit(entry.name, &mut NameOf), Some(entry.name));
        }
        assert_eq!(visit("fraud", &mut NameOf), Some("fraud-detection"), "legacy alias");
        assert_eq!(visit("bogus", &mut NameOf), None);
    }

    #[test]
    fn default_sweep_is_the_trajectory_quartet() {
        let listing = render_listing();
        let marked: Vec<&str> = listing
            .lines()
            .filter(|l| l.ends_with("[default sweep]"))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(marked, ["value-barrier", "page-view", "fraud-detection", "page-view-forest"]);
        assert_eq!(names().len(), WORKLOADS.len());
    }

    /// The registry reaches every workload's Job path end to end.
    #[test]
    fn registry_jobs_run_and_verify() {
        struct Verify;
        impl WorkloadVisitor for Verify {
            type Out = ();
            fn visit<W: SweepWorkload>(&mut self) {
                W::for_scale(2, 10, 2)
                    .job(3)
                    .verify_against_spec()
                    .unwrap_or_else(|e| panic!("{}: {e}", W::NAME));
            }
        }
        for entry in WORKLOADS {
            visit(entry.name, &mut Verify).expect("known name");
        }
    }
}
