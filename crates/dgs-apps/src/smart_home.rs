//! Case study A.2: DEBS 2014 Grand Challenge — smart-home power
//! prediction (query 1).
//!
//! Plug-level load measurements from a fleet of houses; at the end of
//! every timeslice the program predicts the load of a future slice at
//! three granularities (plug, household, house) as the average of the
//! current slice's mean load and the historical mean load of the same
//! slice-of-day — the challenge's suggested method.
//!
//! Parallelization is by house (the paper's program makes each house's
//! tag depend on itself and end-of-timeslice events depend on
//! everything); the hourly end-timeslice event joins all houses, emits
//! predictions, and forks the per-house state back out — a textbook
//! "edge processing" plan: raw measurements never leave their node, only
//! per-slice summaries do.
//!
//! **Substitution note** (DESIGN.md): the 29 GB challenge dataset is
//! replaced by a deterministic sinusoidal-load generator with per-plug
//! phase and pseudo-noise, preserving the key hierarchy
//! (house/household/plug) and slice cadence.

use std::collections::BTreeMap;

use dgs_core::codec::{CodecError, Reader, StateCodec};
use dgs_core::event::{Event, StreamId, Timestamp};
use dgs_core::predicate::TagPredicate;
use dgs_core::program::DgsProgram;
use dgs_core::tag::ITag;
use dgs_plan::optimizer::{CommMinOptimizer, ITagInfo, Optimizer};
use dgs_plan::plan::{Location, Plan};
use dgs_runtime::source::{PacedSource, ScheduledStream};

/// Slices per simulated day (hourly slices).
pub const SLICES_PER_DAY: u64 = 24;

/// Tags of the smart-home program.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ShTag {
    /// A load measurement from house `h`.
    Load(u32),
    /// End of a timeslice (global synchronization + output).
    EndSlice,
}

/// Measurement payload (also reused as the end-slice payload carrying the
/// slice index in `slice`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ShPayload {
    /// Household within the house.
    pub household: u16,
    /// Plug within the household.
    pub plug: u16,
    /// Load in centiwatts (integral to keep states `Eq`).
    pub load_cw: i64,
    /// Slice index (end-slice events only).
    pub slice: u64,
}

/// Key of a plug across the fleet.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct PlugKey {
    /// House id.
    pub house: u32,
    /// Household id.
    pub household: u16,
    /// Plug id.
    pub plug: u16,
}

/// Sum/count accumulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Acc {
    /// Total load (centiwatts).
    pub sum: i64,
    /// Number of measurements.
    pub count: u64,
}

impl Acc {
    fn add(&mut self, v: i64) {
        self.sum += v;
        self.count += 1;
    }

    fn merge(&mut self, o: Acc) {
        self.sum += o.sum;
        self.count += o.count;
    }

    /// Mean load, or 0 with no data.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Program state: current-slice and historical per-plug accumulators.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ShState {
    /// Current slice accumulation per plug.
    pub current: BTreeMap<PlugKey, Acc>,
    /// Historical accumulation per (plug, slice-of-day).
    pub history: BTreeMap<(PlugKey, u64), Acc>,
}

impl StateCodec for PlugKey {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.house.encode(buf);
        (self.household as u32).encode(buf);
        (self.plug as u32).encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let house = u32::decode(r)?;
        let household = u32::decode(r)?;
        let plug = u32::decode(r)?;
        let narrow = |v: u32| {
            u16::try_from(v).map_err(|_| CodecError::Invalid("PlugKey id exceeds u16"))
        };
        Ok(PlugKey { house, household: narrow(household)?, plug: narrow(plug)? })
    }
}

impl StateCodec for Acc {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.sum.encode(buf);
        self.count.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Acc { sum: i64::decode(r)?, count: u64::decode(r)? })
    }
}

impl StateCodec for ShState {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.current.encode(buf);
        self.history.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ShState { current: BTreeMap::decode(r)?, history: BTreeMap::decode(r)? })
    }
    /// History grows monotonically with every slice while each slice only
    /// touches a handful of keys, so delta encoding both maps keeps
    /// incremental checkpoints proportional to per-slice activity, not
    /// fleet lifetime.
    fn encode_delta(&self, base: &Self, buf: &mut Vec<u8>) {
        self.current.encode_delta(&base.current, buf);
        self.history.encode_delta(&base.history, buf);
    }
    fn apply_delta(base: &Self, r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ShState {
            current: BTreeMap::apply_delta(&base.current, r)?,
            history: BTreeMap::apply_delta(&base.history, r)?,
        })
    }
}

/// A load prediction output.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Prediction {
    /// Granularity + identity of the prediction target.
    pub target: PredTarget,
    /// Slice the prediction is for.
    pub slice: u64,
    /// Predicted mean load (centiwatts).
    pub load_cw: f64,
}

/// Prediction granularity (the challenge asks for all three).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum PredTarget {
    /// One plug.
    Plug(PlugKey),
    /// One household.
    Household(u32, u16),
    /// One house.
    House(u32),
}

/// The smart-home DGS program.
#[derive(Clone, Copy, Debug, Default)]
pub struct SmartHome;

impl DgsProgram for SmartHome {
    type Tag = ShTag;
    type Payload = ShPayload;
    type State = ShState;
    type Out = Prediction;

    fn init(&self) -> ShState {
        ShState::default()
    }

    /// Loads of the same house synchronize (the paper's `house_k`
    /// depends on itself); different houses are independent; end-slice
    /// depends on everything.
    fn depends(&self, a: &ShTag, b: &ShTag) -> bool {
        match (a, b) {
            (ShTag::EndSlice, _) | (_, ShTag::EndSlice) => true,
            (ShTag::Load(h1), ShTag::Load(h2)) => h1 == h2,
        }
    }

    fn update(&self, state: &mut ShState, event: &Event<ShTag, ShPayload>, out: &mut Vec<Prediction>) {
        match event.tag {
            ShTag::Load(house) => {
                let key = PlugKey { house, household: event.payload.household, plug: event.payload.plug };
                state.current.entry(key).or_default().add(event.payload.load_cw);
            }
            ShTag::EndSlice => {
                let slice = event.payload.slice;
                let slot = slice % SLICES_PER_DAY;
                let target_slot = (slice + 2) % SLICES_PER_DAY;
                // Predict per plug, then aggregate per household/house.
                let mut household_pred: BTreeMap<(u32, u16), f64> = BTreeMap::new();
                let mut house_pred: BTreeMap<u32, f64> = BTreeMap::new();
                for (key, acc) in &state.current {
                    let hist = state
                        .history
                        .get(&(*key, target_slot))
                        .copied()
                        .unwrap_or_default();
                    let pred = (acc.mean() + hist.mean()) / 2.0;
                    out.push(Prediction { target: PredTarget::Plug(*key), slice: slice + 2, load_cw: pred });
                    *household_pred.entry((key.house, key.household)).or_insert(0.0) += pred;
                    *house_pred.entry(key.house).or_insert(0.0) += pred;
                }
                for ((house, hh), v) in household_pred {
                    out.push(Prediction { target: PredTarget::Household(house, hh), slice: slice + 2, load_cw: v });
                }
                for (house, v) in house_pred {
                    out.push(Prediction { target: PredTarget::House(house), slice: slice + 2, load_cw: v });
                }
                // Roll the slice into history.
                let current = std::mem::take(&mut state.current);
                for (key, acc) in current {
                    state.history.entry((key, slot)).or_default().merge(acc);
                }
            }
        }
    }

    /// Split per-plug maps by house responsibility (a house's data goes
    /// to the side that will process its loads).
    fn fork(&self, state: ShState, left: &TagPredicate<ShTag>, right: &TagPredicate<ShTag>) -> (ShState, ShState) {
        let mut l = ShState::default();
        let mut r = ShState::default();
        let goes_left =
            |house: u32| left.matches(&ShTag::Load(house)) || !right.matches(&ShTag::Load(house));
        for (key, acc) in state.current {
            let side = if goes_left(key.house) { &mut l } else { &mut r };
            side.current.insert(key, acc);
        }
        for ((key, slot), acc) in state.history {
            let side = if goes_left(key.house) { &mut l } else { &mut r };
            side.history.insert((key, slot), acc);
        }
        (l, r)
    }

    /// Houses are disjoint across unrelated workers; merging sums any
    /// shared accumulators (only possible through ancestors).
    fn join(&self, mut left: ShState, right: ShState) -> ShState {
        for (k, v) in right.current {
            left.current.entry(k).or_default().merge(v);
        }
        for (k, v) in right.history {
            left.history.entry(k).or_default().merge(v);
        }
        left
    }
}

/// Deterministic load generator: sinusoid by slice-of-day with per-plug
/// phase plus hash noise.
pub fn load_at(house: u32, household: u16, plug: u16, slice: u64, idx: u64) -> i64 {
    let slot = (slice % SLICES_PER_DAY) as f64;
    let phase = (house as f64 * 0.7 + household as f64 * 0.3 + plug as f64 * 0.1) % std::f64::consts::TAU;
    let base =
        5_000.0 + 3_000.0 * ((slot / SLICES_PER_DAY as f64) * std::f64::consts::TAU + phase).sin();
    let mut x = (house as u64) << 40 | (household as u64) << 24 | (plug as u64) << 8 | (idx & 0xff);
    x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let noise = (x % 1_000) as f64 - 500.0;
    (base + noise) as i64
}

/// Workload: houses × households × plugs, measurements per plug per
/// slice, number of slices.
#[derive(Clone, Copy, Debug)]
pub struct ShWorkload {
    /// Houses (20 in the case study run).
    pub houses: u32,
    /// Households per house.
    pub households: u16,
    /// Plugs per household.
    pub plugs: u16,
    /// Measurements per plug per slice.
    pub per_plug_per_slice: u64,
    /// Simulated timeslices.
    pub slices: u64,
}

impl ShWorkload {
    /// Measurements per house per slice.
    pub fn per_house_per_slice(&self) -> u64 {
        self.households as u64 * self.plugs as u64 * self.per_plug_per_slice
    }

    /// Total events.
    pub fn total_events(&self) -> u64 {
        self.houses as u64 * self.per_house_per_slice() * self.slices + self.slices
    }

    /// All implementation tags (house streams 0..H, end-slice on H).
    pub fn itags(&self) -> Vec<ITag<ShTag>> {
        let mut t: Vec<ITag<ShTag>> = (0..self.houses)
            .map(|h| ITag::new(ShTag::Load(h), StreamId(h)))
            .collect();
        t.push(ITag::new(ShTag::EndSlice, StreamId(self.houses)));
        t
    }

    /// Plan: end-slice at the root, one leaf per house (edge processing).
    pub fn plan(&self) -> Plan<ShTag> {
        let mut infos: Vec<ITagInfo<ShTag>> = (0..self.houses)
            .map(|h| {
                ITagInfo::new(
                    ITag::new(ShTag::Load(h), StreamId(h)),
                    self.per_house_per_slice() as f64,
                    Location(h),
                )
            })
            .collect();
        infos.push(ITagInfo::new(
            ITag::new(ShTag::EndSlice, StreamId(self.houses)),
            1.0,
            Location(self.houses),
        ));
        CommMinOptimizer.plan(&infos, &SmartHome.dependence())
    }

    /// The measurement for global index `j` within a house's stream.
    pub fn measurement(&self, house: u32, j: u64) -> ShPayload {
        let per_slice = self.per_house_per_slice();
        let slice = j / per_slice;
        let within = j % per_slice;
        let plug_idx = within % (self.households as u64 * self.plugs as u64);
        let household = (plug_idx / self.plugs as u64) as u16;
        let plug = (plug_idx % self.plugs as u64) as u16;
        ShPayload {
            household,
            plug,
            load_cw: load_at(house, household, plug, slice, j),
            slice,
        }
    }

    /// Scheduled streams for the thread driver.
    pub fn scheduled_streams(&self, hb_period: Timestamp) -> Vec<ScheduledStream<ShTag, ShPayload>> {
        let per_slice = self.per_house_per_slice();
        let this = *self;
        let mut streams = Vec::new();
        for h in 0..self.houses {
            streams.push(
                ScheduledStream::periodic(
                    ITag::new(ShTag::Load(h), StreamId(h)),
                    1,
                    1,
                    per_slice * self.slices,
                    move |j| this.measurement(h, j),
                )
                .with_heartbeats(hb_period)
                .closed(Timestamp::MAX),
            );
        }
        streams.push(
            ScheduledStream::periodic(
                ITag::new(ShTag::EndSlice, StreamId(self.houses)),
                per_slice,
                per_slice,
                self.slices,
                |s| ShPayload { slice: s, ..Default::default() },
            )
            .with_heartbeats(hb_period)
            .closed(Timestamp::MAX),
        );
        streams
    }

    /// Paced sources for the simulator.
    pub fn paced_sources(
        &self,
        load_period_ns: u64,
        hb_per_slice: u64,
    ) -> Vec<PacedSource<ShTag, ShPayload>> {
        let slice_period = self.per_house_per_slice() * load_period_ns;
        let this = *self;
        let mut sources = Vec::new();
        for h in 0..self.houses {
            sources.push(
                PacedSource::new(
                    ITag::new(ShTag::Load(h), StreamId(h)),
                    Location(h),
                    load_period_ns,
                    this.per_house_per_slice() * this.slices,
                    move |j| this.measurement(h, j),
                )
                .heartbeat_every(slice_period),
            );
        }
        sources.push(
            PacedSource::new(
                ITag::new(ShTag::EndSlice, StreamId(self.houses)),
                Location(self.houses),
                slice_period,
                self.slices,
                |s| ShPayload { slice: s, ..Default::default() },
            )
            .heartbeat_every((slice_period / hb_per_slice).max(1)),
        );
        sources
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_core::consistency::{check_c1, check_c2, check_c3};
    use dgs_core::spec::{run_sequential, sort_o};
    
    fn workload() -> ShWorkload {
        ShWorkload { houses: 4, households: 2, plugs: 2, per_plug_per_slice: 5, slices: 3 }
    }

    #[test]
    fn predictions_emitted_at_every_granularity() {
        let w = workload();
        let streams = w.scheduled_streams(10);
        let merged = sort_o(&streams);
        let (_, out) = run_sequential(&SmartHome, &merged);
        let plugs = out.iter().filter(|p| matches!(p.target, PredTarget::Plug(_))).count();
        let houses = out.iter().filter(|p| matches!(p.target, PredTarget::House(_))).count();
        let households =
            out.iter().filter(|p| matches!(p.target, PredTarget::Household(..))).count();
        // Per slice: 4 houses × 2 households × 2 plugs.
        assert_eq!(plugs as u64, w.slices * 16);
        assert_eq!(households as u64, w.slices * 8);
        assert_eq!(houses as u64, w.slices * 4);
    }

    #[test]
    fn second_day_predictions_use_history() {
        // Two slices with the same slot-of-day: the second prediction
        // must blend current and historical means.
        let w = ShWorkload { houses: 1, households: 1, plugs: 1, per_plug_per_slice: 4, slices: 26 };
        let streams = w.scheduled_streams(50);
        let merged = sort_o(&streams);
        let (state, out) = run_sequential(&SmartHome, &merged);
        assert!(!state.history.is_empty());
        assert!(out.len() as u64 >= w.slices * 3);
    }

    #[test]
    fn consistency_conditions_hold() {
        let w = workload();
        let prog = SmartHome;
        // Build two states from different houses.
        let mut s1 = ShState::default();
        let mut s2 = ShState::default();
        let mut sink = Vec::new();
        for j in 0..20 {
            prog.update(&mut s1, &Event::new(ShTag::Load(0), StreamId(0), j + 1, w.measurement(0, j)), &mut sink);
            prog.update(&mut s2, &Event::new(ShTag::Load(1), StreamId(1), j + 1, w.measurement(1, j)), &mut sink);
        }
        let h0 = TagPredicate::from_tags([ShTag::Load(0)]);
        let h1 = TagPredicate::from_tags([ShTag::Load(1)]);
        check_c2(&prog, &s1, &h0, &h1).unwrap();
        check_c2(&prog, &prog.join(s1.clone(), s2.clone()), &h0, &h1).unwrap();
        // C1: loads fold, commuting with join (disjoint houses).
        let e = Event::new(ShTag::Load(0), StreamId(0), 99, w.measurement(0, 21));
        check_c1(&prog, &s1, &s2, &e).unwrap();
        // C1 end-slice against an empty reachable sibling.
        let es = Event::new(ShTag::EndSlice, StreamId(4), 100, ShPayload { slice: 0, ..Default::default() });
        check_c1(&prog, &s1, &ShState::default(), &es).unwrap();
        // C3: loads of different houses commute.
        let e2 = Event::new(ShTag::Load(1), StreamId(1), 98, w.measurement(1, 21));
        check_c3(&prog, &prog.join(s1, s2), &e, &e2).unwrap();
    }

    /// End to end through the unified `Job` API: derived plan, thread
    /// backend, spec verification in one call. (Predictions carry
    /// floats, so the multiset comparison runs on canonical `Debug`
    /// renderings — exact, since both sides compute means from the same
    /// integral accumulators.)
    #[test]
    fn threaded_run_matches_spec() {
        use crate::sweep::SweepWorkload as _;
        let w = workload();
        let verified = w.job(10).verify_against_spec().expect("Theorem 3.5");
        assert!(!verified.run.outputs.is_empty());
    }

    #[test]
    fn plan_is_per_house_edge_processing() {
        let w = workload();
        let plan = w.plan();
        assert_eq!(plan.leaf_count(), 4);
        assert_eq!(
            plan.responsible_for(&ITag::new(ShTag::EndSlice, StreamId(4))).unwrap(),
            plan.root()
        );
        let universe: std::collections::BTreeSet<_> = w.itags().into_iter().collect();
        dgs_plan::validity::check_valid_for_program(&plan, &SmartHome, &universe).unwrap();
    }
}
