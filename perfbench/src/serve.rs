//! The serving workload: a sharded lossless store served by `NetServer`
//! on 127.0.0.1 to closed-loop `AtcClient`s reading skewed 10 k-address
//! windows, each verified against the in-memory trace.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use atc_cache::SegmentCache;
use atc_codec::{Bzip, Codec};
use atc_core::{AtcOptions, Mode, ReadOptions};
use atc_engine::Engine;
use atc_net::{AtcClient, NetServer, ServeOptions, ServerStats};
use atc_store::{AtcStore, ShardPolicy, StoreOptions, StoreReader, StoreStats};

use crate::inputs::{filter, fingerprint, raw_accesses, RangeStarts};
use crate::ladder::{decode, Sink, Stage};
use crate::report::Report;
use crate::spans::{totals, Tracer};
use crate::stats::{median, percentile, sorted};
use crate::{alloc, Ctx, MIB};

/// The serving workload's configuration.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// `atc_trace::spec` profile.
    pub profile: &'static str,
    /// Raw accesses generated and filtered into the store.
    pub raw_len: usize,
    /// Round-robin shards.
    pub shards: usize,
    /// Bytesort buffer `B` of every shard.
    pub buffer: usize,
    /// Compression threads of the store pack.
    pub pack_threads: usize,
    /// Server workers (also its connection limit).
    pub workers: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// Addresses per range.
    pub window: u64,
    /// Share of the trace, from its start, that forms the hot head.
    pub hot_fraction: f64,
    /// Share of ranges that start in the hot head.
    pub hot_share: f64,
    /// Byte capacity of the server's segment cache.
    pub cache_bytes: u64,
    /// Ranges per client in each phase of the traced run.
    pub traced_ranges: usize,
}

/// `serve-range`.
pub const SERVE: ServeSpec = ServeSpec {
    profile: "482.sphinx3",
    raw_len: 12_000_000,
    shards: 2,
    buffer: 100_000,
    pack_threads: 2,
    workers: 2,
    clients: 2,
    window: 10_000,
    hot_fraction: 0.15,
    // One range in five starts in the cold tail, so segment-cache misses
    // are well over 5 % of ranges and the p95 falls inside them rather
    // than on the boundary between hits and misses.
    hot_share: 0.8,
    cache_bytes: 12 << 20,
    traced_ranges: 200,
};

/// A packed store and its server, bound but not yet serving.
struct Served {
    exact: Vec<u64>,
    root: PathBuf,
    server: NetServer,
    stats: StoreStats,
    pack_engine: Engine,
}

/// One set-up repetition: generate, filter, pack the store, bind.
/// Returns the store, its seconds, and the ingest rate in M raw
/// accesses per second through filter + store pack.
fn setup_once(
    spec: &ServeSpec,
    ctx: &Ctx,
    rep: usize,
    tr: &mut Tracer,
) -> Result<(Served, f64, f64), String> {
    let t0 = Instant::now();
    let raw = raw_accesses(spec.profile, ctx.seed, spec.raw_len);
    let t_filter = Instant::now();
    let exact = filter(&raw);
    drop(raw);
    let filter_s = t_filter.elapsed().as_secs_f64();
    let root = ctx.work.join(format!("store-{rep}"));
    let _ = std::fs::remove_dir_all(&root);
    let t_pack = Instant::now();
    let options = StoreOptions {
        shards: spec.shards,
        policy: ShardPolicy::RoundRobin,
        atc: AtcOptions {
            codec: "bzip".into(),
            buffer: spec.buffer,
            threads: spec.pack_threads,
        },
        max_buffered_bytes: None,
    };
    let pack_engine = Engine::new(spec.pack_threads);
    let mut store =
        AtcStore::create_with_engine(&root, Mode::Lossless, options, pack_engine.clone())
            .map_err(|e| format!("create store: {e}"))?;
    tr.time("store.code_all", req::SETUP + rep as u64, || {
        store.code_all(exact.iter().copied())
    })
    .map_err(|e| format!("pack store: {e}"))?;
    let stats = tr
        .time("store.finish", req::SETUP + rep as u64, || store.finish())
        .map_err(|e| format!("finish store: {e}"))?;
    let pack_s = t_pack.elapsed().as_secs_f64();
    let server = NetServer::bind(
        &root,
        "127.0.0.1:0",
        ServeOptions {
            workers: spec.workers,
            segment_cache: Some(SegmentCache::isolated(spec.cache_bytes)),
            ..ServeOptions::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    let ingest = spec.raw_len as f64 / (filter_s + pack_s) / 1e6;
    let served = Served {
        exact,
        root,
        server,
        stats,
        pack_engine,
    };
    Ok((served, setup_s, ingest))
}

/// Repeats the set-up `ctx.setup_reps` times, keeping the last store.
fn setup(
    spec: &ServeSpec,
    ctx: &Ctx,
    report: &mut Report,
    tr: &mut Tracer,
) -> Option<(Served, Vec<f64>, Vec<f64>)> {
    let (mut times, mut ingest) = (Vec::new(), Vec::new());
    let mut kept: Option<Served> = None;
    let mut first = None;
    for rep in 0..ctx.setup_reps.max(1) {
        if let Some(old) = kept.take() {
            let root = old.root.clone();
            drop(old);
            let _ = std::fs::remove_dir_all(root);
        }
        match setup_once(spec, ctx, rep, tr) {
            Ok((served, secs, rate)) => {
                let key = (fingerprint(&served.exact), served.stats.compressed_bytes);
                if *first.get_or_insert(key) != key {
                    report.fail(
                        "setup.determinism",
                        "set-up repetitions packed different stores",
                    );
                }
                times.push(secs);
                ingest.push(rate);
                kept = Some(served);
            }
            Err(e) => {
                report.fail("setup.store", e);
                return None;
            }
        }
    }
    kept.map(|s| (s, times, ingest))
}

/// What one client did.
struct ClientRun {
    latencies: Vec<f64>,
    values: u64,
    outcomes: Vec<Result<(), String>>,
    tracer: Tracer,
    ended: Instant,
}

/// The server the clients read from, and the trace it must return.
#[derive(Clone, Copy)]
struct Target<'a> {
    addr: SocketAddr,
    exact: &'a [u64],
    window: u64,
}

/// How long a client keeps sending: at least `min` ranges, then more
/// until `seconds` have passed.
#[derive(Clone, Copy)]
struct Until {
    min: usize,
    seconds: f64,
}

/// A closed loop of `read_range` calls over `starts`, released by `go`;
/// spans carry `id` in their request ids' high half.
fn client(
    target: Target<'_>,
    starts: impl Iterator<Item = u64>,
    until: Until,
    go: &Barrier,
    mut tracer: Tracer,
    id: u64,
) -> ClientRun {
    let Target {
        addr,
        exact,
        window,
    } = target;
    let mut conn = AtcClient::connect(addr).map_err(|e| format!("connect: {e}"));
    let mut run = ClientRun {
        latencies: Vec::new(),
        values: 0,
        outcomes: Vec::new(),
        tracer: Tracer::disabled(),
        ended: Instant::now(),
    };
    go.wait();
    let t0 = Instant::now();
    for (i, start) in starts.enumerate() {
        if i >= until.min && t0.elapsed().as_secs_f64() >= until.seconds {
            break;
        }
        let c = match &mut conn {
            Ok(c) => c,
            Err(e) => {
                run.outcomes.push(Err(e.clone()));
                break;
            }
        };
        let want = &exact[start as usize..(start + window) as usize];
        let t = Instant::now();
        let got = tracer.time("net.read_range", id << 32 | i as u64, || {
            c.read_range(start..start + window)
        });
        let lat = t.elapsed().as_secs_f64();
        let outcome = match got {
            Ok(v) if v == want => {
                run.latencies.push(lat);
                run.values += window;
                Ok(())
            }
            Ok(v) => Err(format!(
                "range {start}+{window}: {} values, not the trace's",
                v.len()
            )),
            Err(e) => {
                // The connection is poisoned; reconnect for the next range.
                conn = AtcClient::connect(addr).map_err(|e| format!("reconnect: {e}"));
                Err(format!("range {start}+{window}: {e}"))
            }
        };
        run.outcomes.push(outcome);
    }
    run.tracer = tracer;
    run.ended = Instant::now();
    run
}

/// Heap high-water window of the client phase.
const PEAK_WINDOW: Duration = Duration::from_millis(500);

/// How often the phase checks whether its clients are done.
const POLL: Duration = Duration::from_millis(5);

/// Results of one phase of concurrent clients.
struct Phase {
    wall_s: f64,
    latencies: Vec<f64>,
    values: u64,
    peak_mib: f64,
}

/// Runs `spec.clients` closed-loop clients against `target`; every range
/// is one operation in `report`. `starts(c)` gives client `c`'s windows.
fn clients<I: Iterator<Item = u64> + Send>(
    spec: &ServeSpec,
    target: Target<'_>,
    starts: impl Fn(u64) -> I,
    until: Until,
    traced: Option<&mut Tracer>,
    report: &mut Report,
) -> Phase {
    let go = Barrier::new(spec.clients + 1);
    let epoch = traced.as_ref().map(|t| t.epoch());
    let (runs, wall_s, peak_mib) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.clients as u64)
            .map(|c| {
                let tracer = epoch.map_or_else(Tracer::disabled, Tracer::new);
                let (go, it) = (&go, starts(c));
                s.spawn(move || client(target, it, until, go, tracer, c))
            })
            .collect();
        let base = alloc::reset_peak();
        go.wait();
        let t0 = Instant::now();
        // Heap high-water per window: the median over windows is steadier
        // than one maximum over the whole phase.
        let mut peaks = Vec::new();
        let mut window = Instant::now();
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(POLL);
            if window.elapsed() >= PEAK_WINDOW {
                peaks.push(alloc::peak().saturating_sub(base) as f64 / MIB);
                alloc::reset_peak();
                window = Instant::now();
            }
        }
        peaks.push(alloc::peak().saturating_sub(base) as f64 / MIB);
        let runs: Vec<ClientRun> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        let end = runs.iter().map(|r| r.ended).max().unwrap_or(t0);
        (runs, (end - t0).as_secs_f64(), median(&peaks))
    });
    let mut phase = Phase {
        wall_s,
        latencies: Vec::new(),
        values: 0,
        peak_mib,
    };
    let mut traced = traced;
    for run in runs {
        for o in run.outcomes {
            report.op("range", o);
        }
        phase.latencies.extend(run.latencies);
        phase.values += run.values;
        if let Some(t) = traced.as_deref_mut() {
            t.absorb(run.tracer);
        }
    }
    phase
}

/// The hot head's window starts, in order (the warm-up reads).
fn hot_windows(spec: &ServeSpec, len: u64) -> impl Iterator<Item = u64> + Clone {
    let (hot, window) = (hot_len(spec, len), spec.window);
    (0..hot / window).map(move |i| i * window)
}

fn hot_len(spec: &ServeSpec, len: u64) -> u64 {
    ((len as f64 * spec.hot_fraction) as u64).max(spec.window)
}

fn starts(spec: &ServeSpec, ctx: &Ctx, len: u64, client: u64) -> RangeStarts {
    RangeStarts::new(
        ctx.seed,
        client,
        len,
        spec.window,
        hot_len(spec, len),
        spec.hot_share,
    )
}

/// Shuts the server down when dropped, so a panicking phase cannot
/// leave the accept loop (and the scope joining it) running forever.
struct StopOnDrop(atc_net::ServerHandle);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Serves on a scoped thread while `body` runs, then shuts the server
/// down, joins it, and returns `body`'s result with the final counters.
fn serving<R>(
    server: NetServer,
    body: impl FnOnce(SocketAddr) -> R,
) -> Result<(R, ServerStats), String> {
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let stop = StopOnDrop(server.handle());
    std::thread::scope(|s| {
        let thread = s.spawn(move || server.run());
        let r = body(addr);
        drop(stop);
        let stats = thread
            .join()
            .expect("server thread")
            .map_err(|e| format!("server: {e}"))?;
        Ok((r, stats))
    })
}

/// Reads the hot head once through one client, so the timed phase starts
/// from a warm cache as a long-running server would.
fn warm(spec: &ServeSpec, target: Target<'_>, report: &mut Report) {
    let windows = hot_windows(spec, target.exact.len() as u64);
    let until = Until {
        min: windows.clone().count(),
        seconds: 0.0,
    };
    let run = client(
        target,
        windows,
        until,
        &Barrier::new(1),
        Tracer::disabled(),
        0,
    );
    for o in run.outcomes {
        report.op("range.warmup", o);
    }
}

/// The timed (untraced) run: closed-loop clients for `ctx.seconds`.
pub fn run(spec: &ServeSpec, ctx: &Ctx, report: &mut Report) {
    let Some((served, setup_s, ingest)) = setup(spec, ctx, report, &mut Tracer::disabled()) else {
        return;
    };
    let Served {
        exact,
        server,
        stats,
        ..
    } = served;
    let len = exact.len() as u64;
    let until = Until {
        min: ctx.tail_samples.div_ceil(spec.clients),
        seconds: ctx.seconds,
    };
    let phase = serving(server, |addr| {
        let target = Target {
            addr,
            exact: &exact,
            window: spec.window,
        };
        warm(spec, target, report);
        let each = |c| starts(spec, ctx, len, c);
        clients(spec, target, each, until, None, report)
    });
    let (phase, server_stats) = match phase {
        Ok(p) => p,
        Err(e) => return report.fail("serve", e),
    };
    if phase.latencies.is_empty() {
        return;
    }
    let lat = sorted(&phase.latencies);
    let c = server_stats.cache;
    println!(
        "{} ranges of {} addresses from {} closed-loop clients in {:.3} s = {:.1} ranges/s; \
         segment cache hit ratio {:.4} ({} hits / {} lookups)",
        lat.len(),
        spec.window,
        spec.clients,
        phase.wall_s,
        lat.len() as f64 / phase.wall_s,
        c.hits as f64 / (c.hits + c.misses).max(1) as f64,
        c.hits,
        c.hits + c.misses
    );
    crate::print_tail("range", &lat);
    report.set("ingest_macc_s", median(&ingest));
    report.set("replay_maddr_s", phase.values as f64 / phase.wall_s / 1e6);
    report.set("latency_p50_ms", percentile(&lat, 50.0) * 1e3);
    report.set("latency_p95_ms", percentile(&lat, 95.0) * 1e3);
    report.set("bits_per_addr", stats.bits_per_address());
    // Lossless, and every range was compared with the trace.
    report.set("fidelity_pct", 100.0);
    report.set("setup_s", median(&setup_s));
    report.set("peak_heap_mib", phase.peak_mib);
}

/// Request ids of the traced run's phases, above the per-range ids
/// (client in the high half, range in the low half).
mod req {
    pub const SETUP: u64 = 1 << 41;
    pub const CODEC: u64 = 1 << 40;
    pub const DECOMPRESS: u64 = CODEC + 1;
    pub const INVERSE: u64 = CODEC + 2;
}

/// The traced run: store writer spans from set-up, local
/// `StoreReader::read_range` over the same windows the clients send, the
/// loopback phase untraced and traced, and the store's shard streams
/// through the bytesort and codec layers on their own.
pub fn run_traced(spec: &ServeSpec, ctx: &Ctx, report: &mut Report) {
    let mut tr = Tracer::new(Instant::now());
    let Some((served, setup_s, _)) = setup(spec, ctx, report, &mut tr) else {
        return;
    };
    let Served {
        exact,
        root,
        server,
        stats,
        pack_engine,
    } = served;
    let len = exact.len() as u64;
    let n = spec.traced_ranges;
    let windows: Vec<Vec<u64>> = (0..spec.clients as u64)
        .map(|c| starts(spec, ctx, len, c).take(n).collect())
        .collect();

    let local = local_ranges(spec, &root, &exact, &windows, &mut tr, report);
    let phases = serving(server, |addr| {
        let target = Target {
            addr,
            exact: &exact,
            window: spec.window,
        };
        warm(spec, target, report);
        let each = |c: u64| windows[c as usize].clone().into_iter();
        let until = Until {
            min: n,
            seconds: 0.0,
        };
        let untraced = clients(spec, target, each, until, None, report);
        let traced = clients(spec, target, each, until, Some(&mut tr), report);
        (untraced, traced)
    });
    let ((untraced, traced), server_stats) = match phases {
        Ok(p) => p,
        Err(e) => return report.fail("serve", e),
    };

    // The shard streams through the layers the server decodes with.
    let bzip = Bzip::default();
    let mut sinks = Vec::new();
    for shard in 0..spec.shards {
        let values: Vec<u64> = exact
            .iter()
            .skip(shard)
            .step_by(spec.shards)
            .copied()
            .collect();
        let codec: Arc<dyn Codec> = Arc::new(Bzip::default());
        let mut sink = Sink::new(Stage::Codec, req::CODEC, codec, spec.buffer, None);
        sink.push(&values, &mut tr);
        sink.finish(&mut tr);
        let ok = decode(&bzip, &sink.streams, false, &mut tr, req::DECOMPRESS)
            .and_then(|_| decode(&bzip, &sink.streams, true, &mut tr, req::INVERSE))
            .and_then(|back| {
                if back == values {
                    Ok(())
                } else {
                    Err(format!("shard {shard} stream decoded differently"))
                }
            });
        report.op("ladder.roundtrip", ok);
        sinks.push(sink);
    }

    let spans = tr.spans();
    let by_req = |req: u64| totals(spans, move |s| s.req == req);
    let busy = |req: u64, name: &str| by_req(req).get(name).map_or(0.0, |x| x.busy_s);
    let all = totals(spans, |_| true);
    let busy_all = |name: &str| all.get(name).map_or(0.0, |x| x.busy_s);
    let last = setup_s.len() - 1;
    let last_rep = req::SETUP + last as u64;
    let store_busy = busy(last_rep, "store.code_all") + busy(last_rep, "store.finish");
    let net_lat = sorted(&traced.latencies);
    let local_lat = sorted(&local);
    let p50 = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            percentile(v, 50.0) * 1e3
        }
    };
    let c = server_stats.cache;
    let sum = |f: fn(&Sink) -> u64| sinks.iter().map(f).sum::<u64>() as f64;

    report.set(
        "core.bytesort.fwd_busy_s",
        busy(req::CODEC, "core.bytesort_forward"),
    );
    report.set(
        "core.bytesort.inv_busy_s",
        busy(req::INVERSE, "core.bytesort_inverse"),
    );
    report.set("core.bytesort.frames", sum(|s| s.frames));
    report.set(
        "codec.compress_busy_s",
        busy(req::CODEC, "codec.compress_into"),
    );
    report.set(
        "codec.decompress_busy_s",
        busy(req::DECOMPRESS, "codec.decompress_into"),
    );
    report.set("codec.bytes_in", sum(|s| s.bytes_in));
    report.set("codec.bytes_out", sum(|s| s.bytes_out));
    report.set_engine(&pack_engine.stats());
    report.set("store.writer.busy_s", store_busy);
    report.set(
        "store.writer.peak_buffered_bytes",
        stats.peak_buffered_bytes.unwrap_or(0) as f64,
    );
    report.set("store.reader.range_busy_s", busy_all("store.read_range"));
    report.set("cache.segment.hits", c.hits as f64);
    report.set("cache.segment.misses", c.misses as f64);
    report.set("cache.segment.evictions", c.evictions as f64);
    report.set(
        "cache.segment.hit_ratio",
        c.hits as f64 / (c.hits + c.misses).max(1) as f64,
    );
    report.set("net.server.requests", server_stats.requests as f64);
    report.set("net.server.dropped", server_stats.dropped as f64);
    report.set("net.server.proto_errors", server_stats.proto_errors as f64);
    report.set("net.protocol_ms", p50(&net_lat) - p50(&local_lat));
    report.set("trace.overhead_s", traced.wall_s - untraced.wall_s);
    report.set("trace.spans", spans.len() as f64);
    crate::zero_unset(report);

    println!(
        "setup_s median {:.4} s over {} repetitions",
        median(&setup_s),
        setup_s.len()
    );
    println!(
        "{} windows per client, {} clients: local StoreReader p50 {:.3} ms, loopback p50 {:.3} ms (net.protocol_ms = difference)",
        n,
        spec.clients,
        p50(&local_lat),
        p50(&net_lat)
    );
    println!(
        "tracing overhead: traced loopback phase {:.4} s - untraced {:.4} s = {:+.4} s",
        traced.wall_s,
        untraced.wall_s,
        traced.wall_s - untraced.wall_s
    );
    println!(
        "ratio bases: hit_ratio = hits / {} segment lookups by the server (warm-up and both loopback phases); \
         scratch_reused_ratio over the store pack engine",
        c.hits + c.misses
    );
    crate::print_layer_table(
        &format!("set-up store pack (repetition {last})"),
        &by_req(last_rep),
    );
    crate::print_layer_table(
        "local and loopback ranges",
        &totals(spans, |s| s.name.ends_with("read_range")),
    );
    crate::print_layer_table("shard streams: bytesort + codec", &by_req(req::CODEC));
    crate::print_layer_table("shard streams: decompress", &by_req(req::DECOMPRESS));
    crate::print_layer_table("shard streams: + bytesort_inverse", &by_req(req::INVERSE));
    crate::dump_spans(ctx, spans);
}

/// Local `StoreReader::read_range` over `windows` (client by client),
/// after warming an equal-sized isolated cache with the hot head.
/// Returns the latencies of the verified ranges.
fn local_ranges(
    spec: &ServeSpec,
    root: &Path,
    exact: &[u64],
    windows: &[Vec<u64>],
    tr: &mut Tracer,
    report: &mut Report,
) -> Vec<f64> {
    let mut latencies = Vec::new();
    let options = ReadOptions {
        threads: 1,
        segment_cache: Some(SegmentCache::isolated(spec.cache_bytes)),
        ..ReadOptions::default()
    };
    let mut reader = match StoreReader::open_with(root, options) {
        Ok(r) => r,
        Err(e) => {
            report.fail("range.local", format!("open store: {e}"));
            return latencies;
        }
    };
    let check = |start: u64, got: atc_core::Result<Vec<u64>>| match got {
        Ok(v) if v[..] == exact[start as usize..(start + spec.window) as usize] => Ok(()),
        Ok(_) => Err(format!("local range {start} differs from the trace")),
        Err(e) => Err(format!("local range {start}: {e}")),
    };
    for start in hot_windows(spec, exact.len() as u64) {
        report.op(
            "range.warmup",
            check(start, reader.read_range(start..start + spec.window)),
        );
    }
    for (c, list) in windows.iter().enumerate() {
        for (i, &start) in list.iter().enumerate() {
            let t = Instant::now();
            let got = tr.time("store.read_range", (c as u64) << 32 | i as u64, || {
                reader.read_range(start..start + spec.window)
            });
            let lat = t.elapsed().as_secs_f64();
            let outcome = check(start, got);
            if outcome.is_ok() {
                latencies.push(lat);
            }
            report.op("range.local", outcome);
        }
    }
    latencies
}
