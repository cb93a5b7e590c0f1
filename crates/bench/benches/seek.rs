//! Random-access benchmarks: the sidecar-driven `seek` against the
//! linear frame walk it replaces, and warm frame-cache reads against
//! cold decodes of the same window.
//!
//! All four benches end by handing out exactly one frame at the target,
//! so the contrast between ids is pure positioning cost: `sidecar`
//! decodes at most one segment before the target, `linear_skip` decodes
//! every frame in front of it, and `warm_cache` serves the decoded
//! target frame from memory without touching the codec or the bytesort
//! inverse at all.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use atc_bench::workloads::filtered_trace;
use atc_cache::SegmentCache;
use atc_core::{AtcOptions, AtcReader, AtcWriter, Mode, ReadOptions};
use atc_trace::spec;

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("atc-bench-seek-{tag}-{}", std::process::id()))
}

fn bench_seek(c: &mut Criterion) {
    let mut g = c.benchmark_group("seek");
    g.sample_size(10);
    let n = 400_000usize;
    let buffer = 50_000usize;
    let p = spec::profile("482.sphinx3").unwrap();
    let trace = filtered_trace(p, n, 7);

    let dir = scratch("trace");
    let _ = std::fs::remove_dir_all(&dir);
    let mut w = AtcWriter::with_options(
        &dir,
        Mode::Lossless,
        AtcOptions {
            codec: "lz".into(),
            buffer,
            threads: 1,
        },
    )
    .unwrap();
    w.code_all(trace.iter().copied()).unwrap();
    w.finish().unwrap();

    // Land on the last full frame so the linear walk has the whole
    // trace in front of it.
    let target = (n / buffer) as u64 - 1;
    // One frame of payload comes back per iteration; everything else the
    // iteration does is the positioning cost under measurement.
    g.throughput(Throughput::Elements(buffer as u64));

    g.bench_function(BenchmarkId::new("sidecar", target), |b| {
        b.iter(|| {
            let mut r = AtcReader::open(&dir).unwrap();
            r.seek(target).unwrap();
            black_box(r.next_frame().unwrap().unwrap().len())
        });
    });
    g.bench_function(BenchmarkId::new("linear_skip", target), |b| {
        b.iter(|| {
            let mut r = AtcReader::open(&dir).unwrap();
            for _ in 0..target {
                black_box(r.next_frame().unwrap().unwrap().len());
            }
            black_box(r.next_frame().unwrap().unwrap().len())
        });
    });

    // Cold: a fresh cache every iteration, so the frame lookup misses
    // and pays the full read + decompress + inverse.
    g.bench_function("cold_cache", |b| {
        b.iter(|| {
            let cache = Arc::new(SegmentCache::new(64 << 20));
            let mut r = AtcReader::open_with(
                &dir,
                ReadOptions {
                    segment_cache: Some(cache),
                    ..ReadOptions::default()
                },
            )
            .unwrap();
            r.seek(target).unwrap();
            black_box(r.next_frame().unwrap().unwrap().len())
        });
    });
    // Warm: one shared cache pre-populated before sampling starts; the
    // seek resolves against the decoded frame already in memory.
    let warm = Arc::new(SegmentCache::new(64 << 20));
    {
        let mut r = AtcReader::open_with(
            &dir,
            ReadOptions {
                segment_cache: Some(warm.clone()),
                ..ReadOptions::default()
            },
        )
        .unwrap();
        r.seek(target).unwrap();
        r.next_frame().unwrap().unwrap();
    }
    g.bench_function("warm_cache", |b| {
        b.iter(|| {
            let mut r = AtcReader::open_with(
                &dir,
                ReadOptions {
                    segment_cache: Some(warm.clone()),
                    ..ReadOptions::default()
                },
            )
            .unwrap();
            r.seek(target).unwrap();
            black_box(r.next_frame().unwrap().unwrap().len())
        });
    });

    let _ = std::fs::remove_dir_all(&dir);
    g.finish();
}

criterion_group!(benches, bench_seek);
criterion_main!(benches);
