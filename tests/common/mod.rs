//! Shared helpers for the integration suite: randomized valid plan
//! generation (so Theorem 3.5 can be tested over the *space* of plans,
//! not one plan), workload builders, and scratch checkpoint directories.
//! Each suite uses its own subset, hence the `dead_code` allowances.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use flumina::core::depends::{Dependence, DependenceGraph};
use flumina::core::tag::{ITag, Tag};
use flumina::plan::plan::{Location, Plan, PlanBuilder, WorkerId};

/// Fresh scratch checkpoint directory (no tempfile crate in the image),
/// unique per process and call, removed first if a previous run left it.
#[allow(dead_code)]
pub fn scratch_dir(name: &str) -> std::path::PathBuf {
    use dgs_sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    // ORDERING: Relaxed — scratch-dir uniquifier only.
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("flumina-it-{name}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Generate a random P-valid synchronization plan for the given
/// implementation tags: like the Appendix B optimizer, but with random
/// hub selection and random component grouping. Every plan this produces
/// satisfies V1/V2 by construction (asserted by callers).
#[allow(dead_code)]
pub fn random_valid_plan<T: Tag>(
    itags: &[ITag<T>],
    dep: &dyn Dependence<T>,
    seed: u64,
) -> Plan<T> {
    assert!(!itags.is_empty());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = PlanBuilder::new();
    let root = build(&mut builder, itags.to_vec(), dep, &mut rng);
    builder.build(root)
}

fn build<T: Tag>(
    b: &mut PlanBuilder<T>,
    itags: Vec<ITag<T>>,
    dep: &dyn Dependence<T>,
    rng: &mut StdRng,
) -> WorkerId {
    if itags.len() == 1 {
        return b.add(itags, Location(0));
    }
    // Random chance to stop splitting: sequentialize this group.
    if rng.gen_bool(0.2) {
        return b.add(itags, Location(0));
    }
    let graph = DependenceGraph::build(&itags, dep);
    let comps = graph.components();
    if comps.len() >= 2 {
        let (l, r) = random_split(comps, rng);
        let left = build(b, l, dep, rng);
        let right = build(b, r, dep, rng);
        let node = b.add([], Location(0));
        b.attach(node, left);
        b.attach(node, right);
        return node;
    }
    // Connected: peel random vertices until disconnection (or collapse).
    let mut g = graph;
    let mut remaining = itags.clone();
    let mut removed = Vec::new();
    while !g.is_empty() && g.components().len() < 2 {
        let idx = rng.gen_range(0..remaining.len());
        let v = remaining.swap_remove(idx);
        g.remove(&v);
        removed.push(v);
    }
    if remaining.is_empty() {
        return b.add(removed, Location(0));
    }
    let (l, r) = random_split(g.components(), rng);
    let left = build(b, l, dep, rng);
    let right = build(b, r, dep, rng);
    let node = b.add(removed, Location(0));
    b.attach(node, left);
    b.attach(node, right);
    node
}

fn random_split<T: Tag>(
    comps: Vec<Vec<ITag<T>>>,
    rng: &mut StdRng,
) -> (Vec<ITag<T>>, Vec<ITag<T>>) {
    let mut left = Vec::new();
    let mut right = Vec::new();
    for (i, comp) in comps.into_iter().enumerate() {
        // First two components pin each side non-empty; rest random.
        let to_left = match i {
            0 => true,
            1 => false,
            _ => rng.gen_bool(0.5),
        };
        if to_left {
            left.extend(comp);
        } else {
            right.extend(comp);
        }
    }
    (left, right)
}
