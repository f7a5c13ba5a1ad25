//! Microbenchmarks for the crash-consistent disk store: the batch
//! commit path against the in-memory local store, and recovery scan
//! cost.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nymix_store::{DiskStore, LocalStore, ObjectBackend};
use std::hint::black_box;

const OBJ: usize = 8 * 1024;
const BATCH: usize = 64;

fn batch(tag: u8) -> Vec<(String, Vec<u8>)> {
    (0..BATCH)
        .map(|i| (format!("obj-{tag}-{i:03}"), vec![tag ^ i as u8; OBJ]))
        .collect()
}

fn bench_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("disk");
    group.throughput(Throughput::Bytes((BATCH * OBJ) as u64));
    // The atomic batch: frame encode + one checksum + one log append +
    // superblock flip, all through the simulated device.
    group.bench_function("apply_batch_64x8k_journaled", |b| {
        let mut store = DiskStore::new();
        let mut tag = 0u8;
        b.iter(|| {
            tag = tag.wrapping_add(1);
            store
                .apply_batch(black_box(batch(tag)), Vec::new())
                .unwrap();
        });
    });
    // The durability-free baseline the disk commit is priced against.
    group.bench_function("apply_batch_64x8k_local", |b| {
        let mut store = LocalStore::new();
        let mut tag = 0u8;
        b.iter(|| {
            tag = tag.wrapping_add(1);
            ObjectBackend::apply_batch(&mut store, black_box(batch(tag)), Vec::new()).unwrap();
        });
    });
    group.finish();
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("disk");
    // Crash recovery: superblock pick + full frame scan + index rebuild
    // over 256 objects (the cost a reboot pays before the first read).
    let mut store = DiskStore::new();
    for t in 0..4u8 {
        store.apply_batch(batch(t), Vec::new()).unwrap();
    }
    let image = store.into_disk();
    group.bench_function("recover_open_256x8k", |b| {
        b.iter(|| black_box(DiskStore::open(black_box(image.clone())).unwrap()));
    });
    group.finish();
}

criterion_group!(benches, bench_commit, bench_recovery);
criterion_main!(benches);
