//! On-disk format properties of the durable checkpoint store: segment
//! and manifest encodings round-trip arbitrary states across record
//! boundaries and delta chains, and the CRC layer rejects *every*
//! single-bit flip — a flipped record (and everything behind it, which
//! may depend on it through a delta chain) is dropped, never silently
//! decoded into a wrong state.
//!
//! Plus the acceptance-criterion cell at the `Job` front door: a seeded
//! fault kills a partition's writer mid-run, and recovery reads the
//! checkpoints back from the segment files alone through a fresh store
//! object on the same directory.

mod common;

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use common::scratch_dir as scratch;

use proptest::prelude::*;

use flumina::api::{
    run_durable_with_recovery, Backend, CheckpointStore as _, DurableStore, Fault, FaultPlan,
};
use flumina::apps::sweep::SweepWorkload;
use flumina::apps::value_barrier::VbWorkload;
use flumina::plan::plan::WorkerId;

type Map = BTreeMap<u32, i64>;

const R0: WorkerId = WorkerId(0);
const R1: WorkerId = WorkerId(1);

fn seg_path(dir: &std::path::Path, root: WorkerId) -> PathBuf {
    dir.join(format!("seg-{:06}.log", root.0))
}

fn arb_state() -> impl Strategy<Value = Map> {
    prop::collection::vec((0u32..40, -1_000i64..1_000), 0..12)
        .prop_map(|kv| kv.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary state sequences, interleaved across two roots, survive
    /// a full write/reopen cycle byte-exactly — whatever the states,
    /// wherever the record boundaries fall, and however long the delta
    /// chains grow (every fourth record per root is a full snapshot, and
    /// a root gets up to 7 records, so chains of 0..=3 deltas all occur).
    #[test]
    fn segments_round_trip_arbitrary_states(
        states in prop::collection::vec(arb_state(), 1..14),
    ) {
        let dir = scratch("roundtrip");
        {
            let mut store = DurableStore::<Map>::open(&dir).unwrap();
            for (i, s) in states.iter().enumerate() {
                let root = if i % 2 == 0 { R0 } else { R1 };
                store.record(root, s.clone(), i as u64 + 1).unwrap();
            }
        }
        let store = DurableStore::<Map>::open(&dir).unwrap();
        prop_assert_eq!(store.open_report().records, states.len());
        prop_assert!(!store.open_report().manifest_fallback, "manifest must round-trip too");
        prop_assert_eq!(store.open_report().repaired_bytes, 0);
        for (root, parity) in [(R0, 0usize), (R1, 1)] {
            let want: Vec<(Map, u64)> = states
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == parity)
                .map(|(i, s)| (s.clone(), i as u64 + 1))
                .collect();
            prop_assert_eq!(store.of_root(root), &want[..]);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Garbage of any shape appended past the last record — the torn
    /// tail a dying writer leaves — is truncated on open without
    /// touching the valid prefix.
    #[test]
    fn arbitrary_torn_tails_are_repaired(
        states in prop::collection::vec(arb_state(), 1..6),
        garbage in prop::collection::vec(0u8..255, 1..40),
    ) {
        let dir = scratch("torn");
        {
            let mut store = DurableStore::<Map>::open(&dir).unwrap();
            for (i, s) in states.iter().enumerate() {
                store.record(R0, s.clone(), i as u64 + 1).unwrap();
            }
        }
        let seg = seg_path(&dir, R0);
        let mut bytes = fs::read(&seg).unwrap();
        bytes.extend_from_slice(&garbage);
        fs::write(&seg, &bytes).unwrap();
        let store = DurableStore::<Map>::open(&dir).unwrap();
        prop_assert_eq!(store.open_report().records, states.len());
        prop_assert_eq!(store.open_report().repaired_bytes, garbage.len() as u64);
        let got: Vec<Map> = store.of_root(R0).iter().map(|(s, _)| s.clone()).collect();
        prop_assert_eq!(got, states);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Every single-bit flip anywhere in a segment is rejected, in both
/// recovery regimes. With the manifest intact, the flip damages bytes
/// the manifest vouches for, so open must *refuse* the directory (data
/// loss, not a stale hint). With the manifest gone, open falls back to
/// the segment scan and must yield a strict prefix of the original
/// records — the flipped record is dropped (CRC-32 detects all
/// single-bit errors), and with it everything behind it, because a
/// later delta may chain off the damaged state. No flip may ever
/// surface as a *different* record.
#[test]
fn crc_rejects_every_single_bit_flip_in_segments() {
    let dir = scratch("bitflip-seg");
    let states: Vec<Map> = (0..4u64)
        .map(|i| (0..3u32).map(|k| (k, i as i64 * 7 + k as i64)).collect())
        .collect();
    {
        let mut store = DurableStore::<Map>::open(&dir).unwrap();
        for (i, s) in states.iter().enumerate() {
            store.record(R0, s.clone(), i as u64 + 1).unwrap();
        }
    }
    let seg = seg_path(&dir, R0);
    let pristine = fs::read(&seg).unwrap();
    let original: Vec<(Map, u64)> = states
        .iter()
        .enumerate()
        .map(|(i, s)| (s.clone(), i as u64 + 1))
        .collect();
    // Regime 1: manifest present — every flip is detected and refused.
    for byte in 0..pristine.len() {
        for bit in 0..8 {
            let mut flipped = pristine.clone();
            flipped[byte] ^= 1 << bit;
            fs::write(&seg, &flipped).unwrap();
            assert!(
                DurableStore::<Map>::open(&dir).is_err(),
                "flip at byte {byte} bit {bit} contradicts the manifest and must be refused"
            );
        }
    }
    // Regime 2: manifest gone — every flip truncates to a valid prefix.
    fs::remove_file(dir.join("MANIFEST")).unwrap();
    for byte in 0..pristine.len() {
        for bit in 0..8 {
            let mut flipped = pristine.clone();
            flipped[byte] ^= 1 << bit;
            fs::write(&seg, &flipped).unwrap();
            let store = DurableStore::<Map>::open(&dir)
                .unwrap_or_else(|e| panic!("open must repair, not fail (byte {byte} bit {bit}): {e}"));
            let got = store.of_root(R0);
            assert!(
                got.len() < original.len(),
                "flip at byte {byte} bit {bit} must invalidate its record"
            );
            assert_eq!(
                got,
                &original[..got.len()],
                "flip at byte {byte} bit {bit} surfaced as different data"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Every single-bit flip anywhere in the manifest fails its CRC (or its
/// framing) and demotes it to a hint-free segment scan — never a wrong
/// accounting, and never a hard failure, since a damaged manifest is an
/// expected crash artifact.
#[test]
fn crc_rejects_every_single_bit_flip_in_the_manifest() {
    let dir = scratch("bitflip-manifest");
    let states: Vec<Map> = (0..3u64)
        .map(|i| [(0u32, i as i64), (1, -(i as i64))].into())
        .collect();
    {
        let mut store = DurableStore::<Map>::open(&dir).unwrap();
        for (i, s) in states.iter().enumerate() {
            store.record(R0, s.clone(), i as u64 + 1).unwrap();
        }
    }
    let manifest = dir.join("MANIFEST");
    let pristine = fs::read(&manifest).unwrap();
    for byte in 0..pristine.len() {
        for bit in 0..8 {
            let mut flipped = pristine.clone();
            flipped[byte] ^= 1 << bit;
            fs::write(&manifest, &flipped).unwrap();
            let store = DurableStore::<Map>::open(&dir)
                .unwrap_or_else(|e| panic!("flipped manifest must fall back (byte {byte} bit {bit}): {e}"));
            assert!(
                store.open_report().manifest_fallback,
                "flip at byte {byte} bit {bit} left the manifest trusted"
            );
            assert_eq!(store.open_report().records, states.len());
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A truncated delta chain stays consistent: cutting a segment back to
/// any record boundary behind the manifest's back is *detected* (the
/// manifest claims more bytes than the segment holds — data loss, not a
/// stale hint), while cutting the manifest away entirely falls back to
/// exactly the surviving records.
#[test]
fn segment_truncation_behind_the_manifest_is_detected() {
    let dir = scratch("truncated-chain");
    let states: Vec<Map> = (0..6u64).map(|i| [(0u32, i as i64)].into()).collect();
    {
        let mut store = DurableStore::<Map>::open(&dir).unwrap();
        for (i, s) in states.iter().enumerate() {
            store.record(R0, s.clone(), i as u64 + 1).unwrap();
        }
    }
    let seg = seg_path(&dir, R0);
    let bytes = fs::read(&seg).unwrap();
    // Record boundaries from the framing itself.
    let mut cuts = vec![0u64];
    let mut pos = 0usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
        cuts.push(pos as u64);
    }
    assert_eq!(*cuts.last().unwrap(), bytes.len() as u64, "walked the whole segment");
    let manifest = dir.join("MANIFEST");
    let pristine_manifest = fs::read(&manifest).unwrap();
    for (k, &cut) in cuts[..cuts.len() - 1].iter().enumerate() {
        // With the manifest in place: refused as corruption.
        fs::write(&seg, &bytes[..cut as usize]).unwrap();
        assert!(
            DurableStore::<Map>::open(&dir).is_err(),
            "cut to {cut} bytes must contradict the manifest"
        );
        // Without it: recovered as exactly the surviving prefix.
        fs::remove_file(&manifest).unwrap();
        let store = DurableStore::<Map>::open(&dir).unwrap();
        assert!(store.open_report().manifest_fallback);
        let got: Vec<Map> = store.of_root(R0).iter().map(|(s, _)| s.clone()).collect();
        assert_eq!(got.len(), k, "cut at boundary {k} keeps {k} records");
        assert_eq!(got[..], states[..k]);
        // Restore both files for the next boundary (open rewrites
        // neither — the manifest is maintained only by appends).
        fs::write(&seg, &bytes).unwrap();
        fs::write(&manifest, &pristine_manifest).unwrap();
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Pointing a *fresh* run at a used checkpoint directory must be
/// refused, not silently interleaved: the reopened store's history ends
/// at some timestamp, and an append behind it is a second history that
/// would corrupt recovery's view. (Regression: this was a debug-only
/// assert, so release builds would happily mix the two runs on disk.)
#[test]
fn reused_directory_refuses_a_regressing_history() {
    let dir = scratch("reuse");
    {
        let mut store = DurableStore::<Map>::open(&dir).unwrap();
        for ts in 1..=3u64 {
            store.record(R0, [(0u32, ts as i64)].into(), ts * 10).unwrap();
        }
    }
    let mut reopened = DurableStore::<Map>::open(&dir).unwrap();
    // Equal timestamps are legal (same-cut re-append after replay)…
    reopened.record(R0, [(0u32, 9)].into(), 30).unwrap();
    // …but a fresh run's first checkpoint lands *behind* the history.
    let err = reopened.record(R0, [(0u32, 1)].into(), 10).unwrap_err();
    assert!(
        matches!(err, flumina::api::StoreError::Corrupt(_)),
        "regressing append must be refused as a history conflict: {err}"
    );
    // The refusal left no partial frame behind: reopen sees exactly the
    // records that were accepted.
    let store = DurableStore::<Map>::open(&dir).unwrap();
    assert_eq!(store.of_root(R0).len(), 4);
    assert_eq!(store.open_report().repaired_bytes, 0);
    let _ = fs::remove_dir_all(&dir);
}

/// The acceptance cell, at integration level: a seeded fault plan kills
/// the value-barrier partition's writer mid-run; recovery must come
/// from the on-disk segments alone (the dead writer's in-memory image
/// is dropped; a fresh store reopens the same directory) and the
/// spliced run equals the sequential specification — zero events lost.
#[test]
fn seeded_kill_recovers_from_disk_alone() {
    let w = VbWorkload::for_scale(3, 25, 5);
    let hb = 4;
    let dir = scratch("acceptance");
    let r = run_durable_with_recovery(
        Arc::new(SweepWorkload::program(&w)),
        &SweepWorkload::plan(&w),
        SweepWorkload::streams(&w, hb),
        w.sync_stream(),
        &dir,
        Some(FaultPlan { crash_after_appends: 3, fault: Fault::TornTail, seed: 0x5EED }),
    )
    .expect("durable recovery");
    assert!(r.recovered, "the seeded crash must fire");
    assert_eq!(r.crashed_root, Some(SweepWorkload::plan(&w).root()));
    assert!(r.events_replayed > 0, "a real suffix was replayed");
    // The reopened store repaired the torn tail the crash left behind,
    // proving the snapshot came from a damaged on-disk image, and every
    // checkpoint is re-established across the crash.
    assert!(r.store.open_report().repaired_bytes > 0, "torn wreckage was on disk");
    assert_eq!(r.store.len() as u64, w.barriers);
    let want = w.job(hb).run(Backend::Spec).output_multiset();
    let mut got: Vec<String> = r.outputs.iter().map(|(o, _)| format!("{o:?}")).collect();
    got.sort_unstable();
    assert_eq!(got, want, "zero events lost across the crash");
    let _ = fs::remove_dir_all(&dir);
}
