//! Quickstart: write a DGS program, hand its streams to `flumina::api::Job`,
//! and let the system derive and run the synchronization plan — for the
//! paper's running example (a map from keys to counters, Figure 1).
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use flumina::api::{Backend, Job};
use flumina::core::event::{StreamId, Timestamp};
use flumina::core::examples::{KcTag, KeyCounter};
use flumina::core::tag::ITag;
use flumina::runtime::source::ScheduledStream;

fn main() {
    // ------------------------------------------------------------------
    // 1. The program: KeyCounter ships with dgs-core. Two event kinds —
    //    i(k) increments key k's counter, r(k) reads it out and resets.
    //    Its dependence relation says increments are mutually
    //    independent; read-resets synchronize with everything of their
    //    key. That relation — a method on the program — is ALL the
    //    parallelization hint the system gets.
    // ------------------------------------------------------------------
    // 2. The workload: two increment streams for key 1 (parallelizable!),
    //    one increment stream for key 2, one read-reset stream per key.
    // ------------------------------------------------------------------
    let itag = |tag, s| ITag::new(tag, StreamId(s));
    let streams = vec![
        ScheduledStream::periodic(itag(KcTag::Inc(1), 0), 1, 2, 500, |_| ())
            .with_heartbeats(25)
            .closed(Timestamp::MAX),
        ScheduledStream::periodic(itag(KcTag::Inc(1), 1), 2, 2, 500, |_| ())
            .with_heartbeats(25)
            .closed(Timestamp::MAX),
        ScheduledStream::periodic(itag(KcTag::Inc(2), 2), 1, 3, 300, |_| ())
            .with_heartbeats(25)
            .closed(Timestamp::MAX),
        ScheduledStream::periodic(itag(KcTag::ReadReset(1), 3), 100, 100, 10, |_| ())
            .with_heartbeats(25)
            .closed(Timestamp::MAX),
        ScheduledStream::periodic(itag(KcTag::ReadReset(2), 4), 150, 150, 6, |_| ())
            .with_heartbeats(25)
            .closed(Timestamp::MAX),
    ];

    // ------------------------------------------------------------------
    // 3. The Job derives everything else: per-tag rates and locations
    //    from the schedules, the dependence relation from the program,
    //    and a synchronization plan from the Appendix-B optimizer — it
    //    discovers the per-key split (a forest, one tree per key!) and
    //    parallelizes key 1's increments across two leaves.
    // ------------------------------------------------------------------
    let job = Job::new(KeyCounter, streams);
    println!("derived synchronization plan:\n{}", job.plan().render());

    // ------------------------------------------------------------------
    // 4. Execute on real threads and verify against the sequential
    //    specification (Theorem 3.5) — one call.
    // ------------------------------------------------------------------
    let verified = job.verify_against_spec().expect("parallel must match the spec");
    println!(
        "threads: {} outputs, same multiset as the sequential spec ✓",
        verified.run.outputs.len()
    );

    // ------------------------------------------------------------------
    // 5. The same job runs unchanged on the deterministic cluster
    //    simulator (one node per stream, link latencies simulated).
    // ------------------------------------------------------------------
    let sim = job.run(Backend::Sim);
    assert_eq!(sim.output_multiset(), verified.spec.output_multiset());
    let stats = sim.sim.expect("engine stats");
    println!(
        "simulator: same {} outputs in {:.2} virtual ms over {} messages ✓",
        sim.outputs.len(),
        stats.virtual_ns as f64 / 1e6,
        stats.messages
    );
}
