//! Network-service benchmarks: a loopback `ReadRange` against the
//! local `read_range` it must reproduce byte-for-byte.
//!
//! The contrast between ids is the protocol's cost: `local_range` is
//! the in-process oracle; `loopback_range` pays the frame encode, two
//! socket hops, and the client-side decode for the same window; and
//! `loopback_range_warm` shows what the shared frame cache shaves
//! off the server's decode once the window is hot.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use atc_bench::workloads::filtered_trace;
use atc_cache::SegmentCache;
use atc_core::{AtcOptions, Mode};
use atc_net::{AtcClient, NetServer, ServeOptions};
use atc_store::{AtcStore, ShardPolicy, StoreOptions, StoreReader};
use atc_trace::spec;

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("atc-bench-net-{tag}-{}", std::process::id()))
}

fn bench_net(c: &mut Criterion) {
    let mut g = c.benchmark_group("net");
    g.sample_size(10);
    let n = 400_000usize;
    let p = spec::profile("482.sphinx3").unwrap();
    let trace = filtered_trace(p, n, 7);

    let root = scratch("store");
    let _ = std::fs::remove_dir_all(&root);
    let mut store = AtcStore::create(
        &root,
        Mode::Lossless,
        StoreOptions {
            shards: 3,
            policy: ShardPolicy::RoundRobin,
            atc: AtcOptions {
                codec: "lz".into(),
                buffer: 50_000,
                threads: 1,
            },
            max_buffered_bytes: None,
        },
    )
    .unwrap();
    store.code_all(trace.iter().copied()).unwrap();
    store.finish().unwrap();

    // A mid-store window: the seek machinery positions, then ~2 frames
    // per shard stream out.
    let (start, end) = (150_000u64, 250_000u64);
    let window = end - start;
    g.throughput(Throughput::Bytes(window * 8));

    g.bench_function(BenchmarkId::new("local_range", window), |b| {
        b.iter(|| {
            let mut reader = StoreReader::open(&root).unwrap();
            black_box(reader.read_range(start..end).unwrap().len())
        });
    });

    // Cold loopback: a fresh cache per iteration, so the server decodes
    // the window every time — protocol cost plus full decode cost.
    g.bench_function(BenchmarkId::new("loopback_range", window), |b| {
        b.iter(|| {
            let server = NetServer::bind(
                &root,
                "127.0.0.1:0",
                ServeOptions {
                    workers: 2,
                    segment_cache: Some(SegmentCache::isolated(64 << 20)),
                    ..ServeOptions::default()
                },
            )
            .unwrap();
            let addr = server.local_addr().unwrap();
            let handle = server.handle();
            let join = std::thread::spawn(move || server.run());
            let mut client = AtcClient::connect(addr).unwrap();
            let len = client.read_range(start..end).unwrap().len();
            handle.shutdown();
            join.join().unwrap().unwrap();
            black_box(len)
        });
    });

    // Warm loopback: one long-lived server whose cache has seen the
    // window — successive clients ride the shared decode work.
    let server = NetServer::bind(
        &root,
        "127.0.0.1:0",
        ServeOptions {
            workers: 2,
            segment_cache: Some(SegmentCache::isolated(64 << 20)),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    {
        let mut client = AtcClient::connect(addr).unwrap();
        assert_eq!(client.read_range(start..end).unwrap().len() as u64, window);
    }
    g.bench_function(BenchmarkId::new("loopback_range_warm", window), |b| {
        b.iter(|| {
            let mut client = AtcClient::connect(addr).unwrap();
            black_box(client.read_range(start..end).unwrap().len())
        });
    });
    handle.shutdown();
    join.join().unwrap().unwrap();

    let _ = std::fs::remove_dir_all(&root);
    g.finish();
}

criterion_group!(benches, bench_net);
criterion_main!(benches);
