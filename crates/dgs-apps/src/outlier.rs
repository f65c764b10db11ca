//! Case study A.1: Reloaded — distributed statistical outlier detection
//! on mixed-attribute data.
//!
//! Each input stream carries connection records (continuous features +
//! one categorical attribute) processed by an independent worker that
//! maintains a *local* model (moments of the continuous features,
//! categorical frequencies) and a set of *candidate* outliers. A query
//! event merges every local model into a global one and flags the
//! candidates that remain anomalous under it — exactly the fraud-
//! detection synchronization pattern, with a richer state.
//!
//! **Substitution note** (see DESIGN.md): the paper evaluates on the
//! KDD-Cup-99 intrusion dataset; we generate synthetic mixed-attribute
//! records with *planted* outliers, which additionally lets the tests
//! verify detection quality, not just performance. Candidate
//! pre-filtering uses fixed bounds rather than the running local moments
//! so that `update` commutes with `join` (condition C1); definitive
//! decisions still use the merged global model, as in Reloaded.

use std::collections::BTreeMap;

use dgs_core::codec::{CodecError, Reader, StateCodec};
use dgs_core::event::{Event, StreamId, Timestamp};
use dgs_core::predicate::TagPredicate;
use dgs_core::program::DgsProgram;
use dgs_core::tag::ITag;
use dgs_plan::optimizer::{CommMinOptimizer, ITagInfo, Optimizer};
use dgs_plan::plan::{Location, Plan};
use dgs_runtime::source::{PacedSource, ScheduledStream};

/// Number of continuous features per record.
pub const FEATURES: usize = 4;
/// Pre-filter bound: records with any |feature| above this become
/// candidates.
pub const CANDIDATE_BOUND: f64 = 4.0;
/// Global z-score above which a candidate is a definitive outlier.
pub const Z_THRESHOLD: f64 = 3.5;
/// Categorical frequency below which a category is anomalous.
pub const RARE_FREQ: f64 = 0.01;

/// Tags: per-stream observations and global queries.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum OdTag {
    /// A connection record.
    Obs,
    /// "Report current outliers" request.
    Query,
}

/// A connection record.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Connection {
    /// Unique record id.
    pub id: u64,
    /// Continuous features.
    pub features: [f64; FEATURES],
    /// Categorical attribute (e.g. protocol).
    pub category: u8,
}

/// Fixed-point scale used by the model accumulators. Integer
/// accumulation keeps merging exactly associative, so the consistency
/// conditions hold bit-for-bit (floating-point sums would differ by
/// summation order across forks).
pub const SCALE: f64 = 1_000_000.0;

/// The mergeable mixed-attribute model + candidate set.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct OdModel {
    /// Number of records folded in.
    pub count: u64,
    /// Per-feature sums (fixed-point, [`SCALE`]).
    pub sum: [i64; FEATURES],
    /// Per-feature sums of squares (fixed-point, [`SCALE`]).
    pub sumsq: [i64; FEATURES],
    /// Categorical frequency counts.
    pub categories: BTreeMap<u8, u64>,
    /// Candidate outliers by id (kept until the next query).
    pub candidates: BTreeMap<u64, Connection>,
}

impl StateCodec for Connection {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.features.encode(buf);
        self.category.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Connection {
            id: u64::decode(r)?,
            features: <[f64; FEATURES]>::decode(r)?,
            category: u8::decode(r)?,
        })
    }
}

impl StateCodec for OdModel {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.count.encode(buf);
        self.sum.encode(buf);
        self.sumsq.encode(buf);
        self.categories.encode(buf);
        self.candidates.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(OdModel {
            count: u64::decode(r)?,
            sum: <[i64; FEATURES]>::decode(r)?,
            sumsq: <[i64; FEATURES]>::decode(r)?,
            categories: BTreeMap::decode(r)?,
            candidates: BTreeMap::decode(r)?,
        })
    }
}

impl OdModel {
    /// Mean and standard deviation of feature `i` (population).
    pub fn stats(&self, i: usize) -> (f64, f64) {
        if self.count == 0 {
            return (0.0, 1.0);
        }
        let n = self.count as f64;
        let mean = self.sum[i] as f64 / SCALE / n;
        let var = (self.sumsq[i] as f64 / SCALE / n - mean * mean).max(1e-12);
        (mean, var.sqrt())
    }

    /// Is `c` anomalous under this (global) model?
    pub fn is_outlier(&self, c: &Connection) -> bool {
        let z_hit = (0..FEATURES).any(|i| {
            let (mean, sd) = self.stats(i);
            ((c.features[i] - mean) / sd).abs() > Z_THRESHOLD
        });
        let cat_freq = *self.categories.get(&c.category).unwrap_or(&0) as f64
            / (self.count.max(1)) as f64;
        z_hit || cat_freq < RARE_FREQ
    }

    fn fold(&mut self, c: &Connection) {
        self.count += 1;
        for i in 0..FEATURES {
            self.sum[i] += (c.features[i] * SCALE) as i64;
            self.sumsq[i] += (c.features[i] * c.features[i] * SCALE) as i64;
        }
        *self.categories.entry(c.category).or_insert(0) += 1;
        if c.features.iter().any(|f| f.abs() > CANDIDATE_BOUND) {
            self.candidates.insert(c.id, *c);
        }
    }

    fn merge(mut self, other: OdModel) -> OdModel {
        self.count += other.count;
        for i in 0..FEATURES {
            self.sum[i] += other.sum[i];
            self.sumsq[i] += other.sumsq[i];
        }
        for (k, v) in other.categories {
            *self.categories.entry(k).or_insert(0) += v;
        }
        self.candidates.extend(other.candidates);
        self
    }
}

/// The Reloaded DGS program.
#[derive(Clone, Copy, Debug, Default)]
pub struct OutlierDetection;

impl DgsProgram for OutlierDetection {
    type Tag = OdTag;
    type Payload = Connection;
    type State = OdModel;
    type Out = u64; // id of a definitive outlier

    fn init(&self) -> OdModel {
        OdModel::default()
    }

    /// Observations are mutually independent; queries synchronize.
    fn depends(&self, a: &OdTag, b: &OdTag) -> bool {
        matches!((a, b), (OdTag::Query, _) | (_, OdTag::Query))
    }

    fn update(&self, state: &mut OdModel, event: &Event<OdTag, Connection>, out: &mut Vec<u64>) {
        match event.tag {
            OdTag::Obs => state.fold(&event.payload),
            OdTag::Query => {
                let ids: Vec<u64> = state
                    .candidates
                    .values()
                    .filter(|c| state.is_outlier(c))
                    .map(|c| c.id)
                    .collect();
                out.extend(ids);
                state.candidates.clear();
            }
        }
    }

    /// Queries run on the joined model, so the query-responsible side
    /// keeps the whole model and the other side restarts empty.
    fn fork(&self, state: OdModel, left: &TagPredicate<OdTag>, right: &TagPredicate<OdTag>) -> (OdModel, OdModel) {
        if right.matches(&OdTag::Query) && !left.matches(&OdTag::Query) {
            (OdModel::default(), state)
        } else {
            (state, OdModel::default())
        }
    }

    fn join(&self, left: OdModel, right: OdModel) -> OdModel {
        left.merge(right)
    }
}

/// Deterministic synthetic workload with planted outliers.
#[derive(Clone, Copy, Debug)]
pub struct OdWorkload {
    /// Parallel observation streams (1–8 in the case study).
    pub streams: u32,
    /// Records per stream per query window.
    pub obs_per_query: u64,
    /// Number of queries.
    pub queries: u64,
    /// One planted outlier every `outlier_every` records per stream.
    pub outlier_every: u64,
}

impl OdWorkload {
    /// Generate record `j` of stream `i`. Inliers ~ bounded pseudo-noise;
    /// every `outlier_every`-th record is planted far out with a rare
    /// category.
    pub fn connection(&self, i: u32, j: u64) -> Connection {
        let id = i as u64 * 1_000_000_007 + j;
        let h = |salt: u64| {
            // SplitMix64-style scramble for deterministic pseudo-noise.
            let mut x = id.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        let unit = |salt: u64| (h(salt) % 2_000_000) as f64 / 1_000_000.0 - 1.0; // [-1, 1)
        if self.outlier_every > 0 && j % self.outlier_every == self.outlier_every - 1 {
            Connection {
                id,
                features: [8.0 + unit(1), -7.5 + unit(2), 6.0, -9.0],
                category: 99,
            }
        } else {
            Connection {
                id,
                features: [unit(1), unit(2), unit(3), unit(4)],
                category: (h(5) % 4) as u8,
            }
        }
    }

    /// Ids of all planted outliers.
    pub fn planted_ids(&self) -> Vec<u64> {
        let per_stream = self.obs_per_query * self.queries;
        (0..self.streams)
            .flat_map(|i| {
                (0..per_stream)
                    .filter(|j| self.outlier_every > 0 && j % self.outlier_every == self.outlier_every - 1)
                    .map(move |j| i as u64 * 1_000_000_007 + j)
            })
            .collect()
    }

    /// All implementation tags.
    pub fn itags(&self) -> Vec<ITag<OdTag>> {
        let mut t: Vec<ITag<OdTag>> =
            (0..self.streams).map(|i| ITag::new(OdTag::Obs, StreamId(i))).collect();
        t.push(ITag::new(OdTag::Query, StreamId(self.streams)));
        t
    }

    /// Plan: queries at the root, one leaf per observation stream.
    pub fn plan(&self) -> Plan<OdTag> {
        let mut infos: Vec<ITagInfo<OdTag>> = (0..self.streams)
            .map(|i| {
                ITagInfo::new(ITag::new(OdTag::Obs, StreamId(i)), self.obs_per_query as f64, Location(i))
            })
            .collect();
        infos.push(ITagInfo::new(
            ITag::new(OdTag::Query, StreamId(self.streams)),
            1.0,
            Location(self.streams),
        ));
        CommMinOptimizer.plan(&infos, &OutlierDetection.dependence())
    }

    /// Scheduled streams for the thread driver.
    pub fn scheduled_streams(&self, hb_period: Timestamp) -> Vec<ScheduledStream<OdTag, Connection>> {
        let window = self.obs_per_query;
        let this = *self;
        let mut streams = Vec::new();
        for i in 0..self.streams {
            streams.push(
                ScheduledStream::periodic(
                    ITag::new(OdTag::Obs, StreamId(i)),
                    1,
                    1,
                    self.obs_per_query * self.queries,
                    move |j| this.connection(i, j),
                )
                .with_heartbeats(hb_period)
                .closed(Timestamp::MAX),
            );
        }
        streams.push(
            ScheduledStream::periodic(
                ITag::new(OdTag::Query, StreamId(self.streams)),
                window,
                window,
                self.queries,
                move |_| Connection { id: 0, features: [0.0; FEATURES], category: 0 },
            )
            .with_heartbeats(hb_period)
            .closed(Timestamp::MAX),
        );
        streams
    }

    /// Paced sources for the simulator.
    pub fn paced_sources(&self, obs_period_ns: u64, hb_per_query: u64) -> Vec<PacedSource<OdTag, Connection>> {
        let query_period = self.obs_per_query * obs_period_ns;
        let this = *self;
        let mut sources = Vec::new();
        for i in 0..self.streams {
            sources.push(
                PacedSource::new(
                    ITag::new(OdTag::Obs, StreamId(i)),
                    Location(i),
                    obs_period_ns,
                    self.obs_per_query * self.queries,
                    move |j| this.connection(i, j),
                )
                .heartbeat_every(query_period),
            );
        }
        sources.push(
            PacedSource::new(
                ITag::new(OdTag::Query, StreamId(self.streams)),
                Location(self.streams),
                query_period,
                self.queries,
                |_| Connection { id: 0, features: [0.0; FEATURES], category: 0 },
            )
            .heartbeat_every((query_period / hb_per_query).max(1)),
        );
        sources
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_core::consistency::{check_c1, check_c2};
    use dgs_core::spec::{run_sequential, sort_o};
    
    fn workload() -> OdWorkload {
        OdWorkload { streams: 4, obs_per_query: 200, queries: 3, outlier_every: 50 }
    }

    #[test]
    fn sequential_detects_planted_outliers() {
        let w = workload();
        let streams = w.scheduled_streams(20);
        let merged = sort_o(&streams);
        let (_, out) = run_sequential(&OutlierDetection, &merged);
        let mut got = out;
        got.sort_unstable();
        let mut want = w.planted_ids();
        want.sort_unstable();
        // Perfect recall on planted outliers; no false positives from the
        // bounded inlier noise.
        assert_eq!(got, want);
    }

    #[test]
    fn model_merge_is_exact() {
        let w = workload();
        let mut a = OdModel::default();
        let mut b = OdModel::default();
        let mut whole = OdModel::default();
        for j in 0..100 {
            let c = w.connection(0, j);
            if j % 2 == 0 {
                a.fold(&c);
            } else {
                b.fold(&c);
            }
            whole.fold(&c);
        }
        let merged = a.merge(b);
        assert_eq!(merged.count, whole.count);
        assert_eq!(merged.categories, whole.categories);
        for i in 0..FEATURES {
            assert_eq!(merged.sum[i], whole.sum[i]);
            assert_eq!(merged.sumsq[i], whole.sumsq[i]);
        }
        assert_eq!(merged.candidates.len(), whole.candidates.len());
    }

    #[test]
    fn consistency_holds_on_models() {
        let w = workload();
        let prog = OutlierDetection;
        let mut s1 = OdModel::default();
        let mut s2 = OdModel::default();
        for j in 0..50 {
            s1.fold(&w.connection(0, j));
            s2.fold(&w.connection(1, j));
        }
        let obs = TagPredicate::from_tags([OdTag::Obs]);
        check_c2(&prog, &s1, &obs, &obs).unwrap();
        // C1 on observations: folding commutes with merging.
        let e = Event::new(OdTag::Obs, StreamId(0), 1, w.connection(2, 7));
        check_c1(&prog, &s1, &s2, &e).unwrap();
        // C1 on queries against an empty (reachable) sibling.
        let q = Event::new(OdTag::Query, StreamId(4), 2, w.connection(0, 0));
        check_c1(&prog, &s1, &OdModel::default(), &q).unwrap();
    }

    /// End to end through the unified `Job` API: derived plan, thread
    /// backend, spec verification in one call.
    #[test]
    fn threaded_parallel_run_matches_spec() {
        use crate::sweep::SweepWorkload as _;
        let w = OdWorkload { streams: 3, obs_per_query: 120, queries: 2, outlier_every: 40 };
        let verified = w.job(15).verify_against_spec().expect("Theorem 3.5");
        assert!(!verified.run.outputs.is_empty());
    }

    #[test]
    fn plan_shape() {
        let w = workload();
        let plan = w.plan();
        assert_eq!(plan.leaf_count(), 4);
        let universe: std::collections::BTreeSet<_> = w.itags().into_iter().collect();
        dgs_plan::validity::check_valid_for_program(&plan, &OutlierDetection, &universe).unwrap();
    }
}
