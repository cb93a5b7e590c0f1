//! In-process loopback harness: one server, many concurrent clients,
//! every reply byte-identical to the local reader, and the shared
//! frame cache proving cross-connection reuse.

mod common;

use std::sync::Arc;
use std::time::Duration;

use atc_net::{AtcClient, ClientOptions, ServeOptions};
use atc_store::ShardPolicy;
use common::{build_store, local_range, local_shard, scratch, TestServer};

#[test]
fn eight_concurrent_clients_match_local_reads_and_share_the_cache() {
    let root = scratch("harness-8");
    let addrs = build_store(&root, 3, ShardPolicy::RoundRobin, 30_000, 1_000, "lz");
    let count = addrs.len() as u64;
    let server = TestServer::start(
        &root,
        ServeOptions {
            workers: 8,
            ..ServeOptions::default()
        },
    );

    // Every client fetches one "hot" shared range (the cache-sharing
    // probe) plus its own overlapping window; the oracle is the local
    // read over the same store.
    let hot = (1_000u64, 9_000u64);
    let hot_expect = Arc::new(local_range(&root, hot.0, hot.1));
    let mut expects = Vec::new();
    let mut windows = Vec::new();
    for t in 0..8u64 {
        let (a, b) = (t * 3_000, t * 3_000 + 6_000);
        expects.push(Arc::new(local_range(&root, a, b)));
        windows.push((a, b));
    }

    let threads: Vec<_> = (0..8usize)
        .map(|t| {
            let addr = server.addr;
            let hot_expect = Arc::clone(&hot_expect);
            let expect = Arc::clone(&expects[t]);
            let (a, b) = windows[t];
            std::thread::spawn(move || {
                let mut client = AtcClient::connect(addr).unwrap();
                let got = client.read_range(hot.0..hot.1).unwrap();
                assert_eq!(got, *hot_expect, "client {t} hot range");
                let got = client.read_range(a..b).unwrap();
                assert_eq!(got, *expect, "client {t} window {a}..{b}");
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let stats = server.stop();
    assert_eq!(stats.connections, 8);
    assert_eq!(stats.requests, 16);
    assert_eq!(stats.proto_errors, 0, "no protocol errors in a clean run");
    assert_eq!(stats.dropped, 0, "no drops in a clean run");
    // 8 connections hammered the same hot range: whoever decoded a
    // segment first served everyone else from the shared cache.
    assert!(
        stats.cache.hits >= 1,
        "expected cross-connection cache hits, got {:?}",
        stats.cache
    );
    assert_eq!(count, 30_000);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn stat_reports_the_manifest_and_stream_shard_matches_local_cursors() {
    let root = scratch("harness-stat");
    build_store(&root, 3, ShardPolicy::ThreadId, 9_000, 500, "lz");
    let server = TestServer::start(&root, ServeOptions::default());
    let mut client = AtcClient::connect(server.addr).unwrap();

    let stat = client.stat().unwrap();
    assert_eq!(stat.count, 9_000);
    assert_eq!(stat.policy, "thread-id");
    assert_eq!(stat.shard_counts.len(), 3);
    assert_eq!(stat.shard_counts.iter().sum::<u64>(), 9_000);
    assert!(stat.exact_merge, "thread-id stores record their track");

    for shard in 0..3usize {
        let expect = local_shard(&root, shard);
        let got = client.stream_shard(shard as u32, 0).unwrap();
        assert_eq!(got, expect, "shard {shard} full stream");
        // Resume from a mid-frame offset.
        let from = expect.len() as u64 / 2 + 7;
        let got = client.stream_shard(shard as u32, from).unwrap();
        assert_eq!(got, &expect[from as usize..], "shard {shard} from {from}");
    }

    let stats = server.stop();
    assert_eq!(stats.proto_errors + stats.dropped, 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn query_rejections_keep_the_connection_alive() {
    let root = scratch("harness-reject");
    build_store(&root, 2, ShardPolicy::RoundRobin, 2_000, 250, "lz");
    let server = TestServer::start(&root, ServeOptions::default());
    let mut client = AtcClient::connect(server.addr).unwrap();

    // Each rejected query answers with a protocol-level Error frame and
    // the *same connection* keeps serving. The inverted range is the
    // point of the first probe.
    #[allow(clippy::reversed_empty_ranges)]
    let err = client.read_range(10..5).unwrap_err();
    assert!(err.to_string().contains("server:"), "{err}");
    let err = client.read_range(0..2_001).unwrap_err();
    assert!(err.to_string().contains("server:"), "{err}");
    let err = client.stream_shard(9, 0).unwrap_err();
    assert!(err.to_string().contains("server:"), "{err}");
    let err = client.stream_shard(0, 1_001).unwrap_err();
    assert!(err.to_string().contains("server:"), "{err}");

    // Empty ranges and offsets at the exact end are valid and empty.
    assert_eq!(client.read_range(500..500).unwrap(), Vec::<u64>::new());
    assert_eq!(client.stream_shard(0, 1_000).unwrap(), Vec::<u64>::new());
    assert_eq!(
        client.read_range(0..2_000).unwrap(),
        local_range(&root, 0, 2_000)
    );

    let stats = server.stop();
    assert_eq!(stats.connections, 1, "one connection served everything");
    assert_eq!(stats.dropped, 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shutdown_is_prompt_with_idle_clients_connected() {
    let root = scratch("harness-shutdown");
    build_store(&root, 2, ShardPolicy::RoundRobin, 1_000, 250, "lz");
    let server = TestServer::start(&root, ServeOptions::default());

    // Park two idle connections, then shut down: run() must return
    // without waiting on them (they close at their next stop poll).
    let a = AtcClient::connect_with(
        server.addr,
        ClientOptions {
            io_timeout: Duration::from_secs(2),
            ..ClientOptions::default()
        },
    )
    .unwrap();
    let b = AtcClient::connect(server.addr).unwrap();
    let start = std::time::Instant::now();
    let stats = server.stop();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown waited on idle clients: {:?}",
        start.elapsed()
    );
    assert_eq!(stats.connections, 2);
    drop((a, b));
    let _ = std::fs::remove_dir_all(&root);
}
