//! Microbenchmarks for the multi-provider placement layer: what each
//! redundancy level costs on the write path (GF(256) encode + NYMP
//! framing + N child writes) and the read path (shard verification +
//! systematic or parity decode), plus the degraded-read penalty when a
//! child is gone and reconstruction must invert the Vandermonde rows.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nymix_store::{LocalStore, ObjectBackend, PlacementStore};
use std::hint::black_box;

const OBJ: usize = 64 * 1024;

/// The configurations the scenario suite exercises: no redundancy
/// (pure overhead baseline), 2x/3x mirrors, and the two erasure
/// geometries (2-of-3 = 1.5x storage, 3-of-5 = 1.67x).
const CONFIGS: [(usize, usize); 5] = [(1, 1), (1, 2), (1, 3), (2, 3), (3, 5)];

fn store(k: usize, n: usize) -> PlacementStore<LocalStore> {
    PlacementStore::new((0..n).map(|_| LocalStore::new()).collect(), k)
}

/// Incompressible-ish 64 KiB object — a sealed blob in practice, so
/// byte content is irrelevant; it just must not be constant.
fn payload() -> Vec<u8> {
    (0..OBJ)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add((i >> 8) as u8))
        .collect()
}

fn bench_put(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement");
    group.throughput(Throughput::Bytes(OBJ as u64));
    for (k, n) in CONFIGS {
        group.bench_function(&format!("put_64k_{k}of{n}"), |b| {
            let mut s = store(k, n);
            let data = payload();
            b.iter(|| s.put(black_box("obj"), black_box(data.clone())).unwrap());
        });
    }
    group.finish();
}

fn bench_get(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement");
    group.throughput(Throughput::Bytes(OBJ as u64));
    // Healthy read: every child answers, the k data stripes verify and
    // concatenate (systematic fast path — no matrix inversion).
    for (k, n) in CONFIGS {
        group.bench_function(&format!("get_64k_{k}of{n}"), |b| {
            let mut s = store(k, n);
            s.put("obj", payload()).unwrap();
            b.iter(|| black_box(s.get(black_box("obj")).unwrap().map(<[u8]>::len)));
        });
    }
    // Degraded read: one data shard is gone, so the decoder must pull
    // in a parity shard and invert the k x k system — the price of a
    // provider outage on the restore path.
    for (k, n) in [(2, 3), (3, 5)] {
        group.bench_function(&format!("degraded_get_64k_{k}of{n}"), |b| {
            let mut s = store(k, n);
            s.put("obj", payload()).unwrap();
            LocalStore::delete(s.child_mut(0), "obj");
            b.iter(|| black_box(s.get(black_box("obj")).unwrap().map(<[u8]>::len)));
        });
    }
    group.finish();
}

fn bench_repair(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement");
    group.throughput(Throughput::Bytes(OBJ as u64));
    // One repair pass over one degraded object: decode from survivors,
    // re-encode the missing shard, write it back.
    group.bench_function("repair_64k_2of3", |b| {
        let mut s = store(2, 3);
        s.put("obj", payload()).unwrap();
        b.iter(|| {
            LocalStore::delete(s.child_mut(0), "obj");
            black_box(s.get(black_box("obj")).unwrap().map(<[u8]>::len));
            let report = s.repair();
            assert_eq!(report.shards_still_missing, 0);
        });
    });
    group.finish();
}

criterion_group!(benches, bench_put, bench_get, bench_repair);
criterion_main!(benches);
