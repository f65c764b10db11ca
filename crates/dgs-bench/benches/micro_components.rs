//! Component microbenchmarks: mailbox release path, optimizer, wire
//! semantics — the ablation targets called out in DESIGN.md.

use std::collections::VecDeque;

use criterion::{criterion_group, criterion_main, Criterion};
use dgs_core::event::{Event, StreamId};
use dgs_core::examples::{KcTag, KeyCounter};
use dgs_core::spec::run_sequential;
use dgs_core::tag::ITag;
use dgs_plan::optimizer::{CommMinOptimizer, ITagInfo, Optimizer};
use dgs_plan::plan::Location;
use dgs_runtime::mailbox::{Entry, Mailbox};

/// The values-and-barriers mailbox both release-path benches drive.
fn vb_mailbox() -> Mailbox<char, u64> {
    let tags = [ITag::new('v', StreamId(0)), ITag::new('b', StreamId(1))];
    Mailbox::new(tags, tags, |a, b| matches!((a, b), ('v', 'b') | ('b', 'v') | ('b', 'b')))
}

/// 10 000 values with a barrier every 100.
fn vb_entries() -> impl Iterator<Item = Entry<char, u64>> {
    (1..=10_000u64).flat_map(|ts| {
        let value = Entry::Event(Event::new('v', StreamId(0), ts, ts));
        let barrier = (ts % 100 == 0).then(|| Entry::Event(Event::new('b', StreamId(1), ts, 0)));
        std::iter::once(value).chain(barrier)
    })
}

fn mailbox_release_path(c: &mut Criterion) {
    // The owned-return wrapper: a fresh `Vec` per call.
    c.bench_function("mailbox_10k_values_with_barriers", |b| {
        b.iter(|| {
            let mut mb = vb_mailbox();
            vb_entries().map(|e| mb.insert(e).len()).sum::<usize>()
        })
    });
    // What a worker does: releases appended to one reused queue.
    c.bench_function("mailbox_10k_values_with_barriers_into_reused_sink", |b| {
        let mut sink = VecDeque::new();
        b.iter(|| {
            let mut mb = vb_mailbox();
            let mut released = 0usize;
            for e in vb_entries() {
                mb.insert_into(e, &mut sink);
                released += sink.len();
                sink.clear();
            }
            released
        })
    });
}

fn optimizer_large_tag_space(c: &mut Criterion) {
    c.bench_function("commmin_200_itags", |b| {
        let infos: Vec<ITagInfo<u32>> = (0..200u32)
            .map(|i| ITagInfo::new(ITag::new(i / 2, StreamId(i)), (i + 1) as f64, Location(i)))
            .collect();
        let dep = dgs_core::depends::FnDependence::new(|a: &u32, b: &u32| a == b);
        b.iter(|| CommMinOptimizer.plan(&infos, &dep))
    });
}

fn sequential_spec_throughput(c: &mut Criterion) {
    c.bench_function("key_counter_spec_100k", |b| {
        let events: Vec<Event<KcTag, ()>> = (0..100_000u64)
            .map(|i| {
                let tag = if i % 1000 == 999 {
                    KcTag::ReadReset((i % 7) as u32)
                } else {
                    KcTag::Inc((i % 7) as u32)
                };
                Event::new(tag, StreamId(0), i + 1, ())
            })
            .collect();
        b.iter(|| run_sequential(&KeyCounter, &events))
    });
}

criterion_group!(benches, mailbox_release_path, optimizer_large_tag_space, sequential_spec_throughput);
criterion_main!(benches);
