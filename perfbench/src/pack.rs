//! The pack workloads: raw accesses through the paper's L1 filter into
//! `AtcWriter`, then a full sequential read-back with `AtcReader`; and
//! their traced layer ladder.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use atc_cache::{CacheFilter, StackSim};
use atc_codec::{Bzip, Codec};
use atc_core::{AtcOptions, AtcReader, AtcStats, AtcWriter, LossyConfig, Mode, ReadOptions};
use atc_engine::Engine;
use atc_trace::Access;

use crate::inputs::{filter, fingerprint, raw_accesses, BLOCK};
use crate::ladder::{decode, Sink, Stage};
use crate::report::Report;
use crate::spans::{totals, Tracer};
use crate::stats::{median, percentile, sorted};
use crate::{alloc, Ctx, MIB};

/// One pack workload.
#[derive(Debug, Clone)]
pub struct PackSpec {
    /// `atc_trace::spec` profile.
    pub profile: &'static str,
    /// Lossy (paper ε = 0.1 with translations) instead of lossless mode.
    pub lossy: bool,
    /// Writer and reader threads.
    pub threads: usize,
    /// Raw accesses generated and packed per pass.
    pub raw_len: usize,
}

/// `pack-lossless`: a Mixed profile, bzip, B = 1 M, two threads.
pub const LOSSLESS: PackSpec = PackSpec {
    profile: "482.sphinx3",
    lossy: false,
    threads: 2,
    raw_len: 20_000_000,
};

/// `pack-lossy`: an Irregular profile, lossy, single-threaded.
pub const LOSSY: PackSpec = PackSpec {
    profile: "445.gobmk",
    lossy: true,
    threads: 1,
    raw_len: 20_000_000,
};

/// Bytesort buffer `B` of the lossless workload.
const LOSSLESS_BUFFER: usize = 1_000_000;

/// Lossy intervals per trace: `L = len / 64 + 1` and `B = L / 10`, scaled
/// to the input as `fig3` scales them. `L` is one more than an even split,
/// so the trace always ends in a short final interval, which the writer
/// stores verbatim: every seed then stores the first and the last
/// interval (an even split would store one chunk on the seeds whose
/// length divides by 64, halving `bits_per_addr` on those alone).
const LOSSY_INTERVALS: usize = 64;

/// Fidelity cache: 256 sets of 64-byte blocks at associativities 1..=16
/// (16 KiB to 256 KiB, past the 32 KiB L1), as in the paper's Figure 3.
const FIDELITY_SETS: usize = 256;
const FIDELITY_WAYS: usize = 16;

/// Fewest timed passes per run, whatever their length.
const MIN_PASSES: usize = 3;

/// The writer configuration a workload derives from its filtered length.
struct Plan {
    mode: Mode,
    buffer: usize,
    lossy: Option<LossyConfig>,
}

fn plan(spec: &PackSpec, filtered: usize) -> Plan {
    if !spec.lossy {
        return Plan {
            mode: Mode::Lossless,
            buffer: LOSSLESS_BUFFER,
            lossy: None,
        };
    }
    let interval_len = filtered / LOSSY_INTERVALS + 1;
    let cfg = LossyConfig {
        interval_len,
        threshold: 0.1,
        byte_translation: true,
        ..LossyConfig::default()
    };
    Plan {
        mode: Mode::Lossy(cfg.clone()),
        buffer: (interval_len / 10).max(1),
        lossy: Some(cfg),
    }
}

/// The generated input: raw accesses and their filtered trace.
struct Input {
    raw: Vec<Access>,
    exact: Vec<u64>,
}

/// Generates and filters the input `ctx.setup_reps` times (keeping one
/// copy), checking that every repetition yields the same trace. Returns
/// the input and each repetition's seconds.
fn setup(spec: &PackSpec, ctx: &Ctx, report: &mut Report) -> (Input, Vec<f64>) {
    let mut times = Vec::new();
    let mut input: Option<Input> = None;
    let mut first = None;
    for _ in 0..ctx.setup_reps.max(1) {
        // Release the previous copy before generating the next.
        drop(input.take());
        let t = Instant::now();
        let raw = raw_accesses(spec.profile, ctx.seed, spec.raw_len);
        let exact = filter(&raw);
        times.push(t.elapsed().as_secs_f64());
        let fp = fingerprint(&exact);
        if *first.get_or_insert(fp) != fp {
            report.fail(
                "setup.determinism",
                "set-up repetitions generated different traces",
            );
        }
        input = Some(Input { raw, exact });
    }
    (input.expect("at least one set-up repetition"), times)
}

/// One timed ingest: filter + writer, from the first `filter_batch` to
/// the return of `finish`.
struct Ingest {
    secs: f64,
    block_s: Vec<f64>,
    stats: AtcStats,
    accesses: u64,
    misses: u64,
}

fn ingest(
    raw: &[Access],
    dir: &Path,
    plan: &Plan,
    engine: Option<&Engine>,
    tr: &mut Tracer,
    req: u64,
) -> Result<Ingest, String> {
    let options = AtcOptions {
        codec: "bzip".into(),
        buffer: plan.buffer,
        threads: threads(engine),
    };
    let mut w = match engine {
        Some(e) => AtcWriter::with_options_engine(dir, plan.mode.clone(), options, e.clone()),
        None => AtcWriter::with_options(dir, plan.mode.clone(), options),
    }
    .map_err(|e| format!("create writer: {e}"))?;
    let mut filter = CacheFilter::paper();
    let mut out = Vec::with_capacity(BLOCK);
    let mut block_s = Vec::with_capacity(raw.len().div_ceil(BLOCK));
    let pass = tr.enter("pack.ingest", req);
    let t0 = Instant::now();
    let mut prev = t0;
    let mut written = Ok(());
    for block in raw.chunks(BLOCK) {
        out.clear();
        tr.time("cache.filter_batch", req, || {
            filter.filter_batch(block, &mut out)
        });
        written = tr.time("core.writer.code", req, || w.code_all(out.iter().copied()));
        if written.is_err() {
            break;
        }
        let now = Instant::now();
        block_s.push((now - prev).as_secs_f64());
        prev = now;
    }
    let finished = written.and_then(|()| tr.time("core.writer.finish", req, || w.finish()));
    let secs = t0.elapsed().as_secs_f64();
    tr.exit(pass);
    let stats = finished.map_err(|e| format!("write: {e}"))?;
    Ok(Ingest {
        secs,
        block_s,
        stats,
        accesses: filter.accesses(),
        misses: filter.misses(),
    })
}

/// Where a read-back goes: compared in place with the exact trace, or
/// copied out (a lossy trace's imitated intervals differ from it).
enum Readback<'a> {
    Verify(&'a [u64]),
    Collect(&'a mut Vec<u64>),
}

/// One timed sequential read-back, from `open` to the last frame.
fn replay(
    dir: &Path,
    engine: Option<&Engine>,
    mut into: Readback<'_>,
    tr: &mut Tracer,
    req: u64,
) -> Result<(f64, Option<u64>), String> {
    let pass = tr.enter("pack.replay", req);
    let t0 = Instant::now();
    let read = read_all(dir, engine, &mut into, tr, req);
    let secs = t0.elapsed().as_secs_f64();
    tr.exit(pass);
    read.map(|segments| (secs, segments))
}

fn read_all(
    dir: &Path,
    engine: Option<&Engine>,
    into: &mut Readback<'_>,
    tr: &mut Tracer,
    req: u64,
) -> Result<Option<u64>, String> {
    let options = ReadOptions {
        threads: threads(engine),
        engine: engine.cloned(),
        ..ReadOptions::default()
    };
    let mut r = tr
        .time("core.reader.open", req, || {
            AtcReader::open_with(dir, options)
        })
        .map_err(|e| format!("open reader: {e}"))?;
    let mut pos = 0usize;
    loop {
        let s = tr.enter("core.reader.next_frame", req);
        let frame = r.next_frame();
        tr.exit(s);
        let Some(frame) = frame.map_err(|e| format!("read at {pos}: {e}"))? else {
            break;
        };
        match into {
            Readback::Verify(exact) => {
                let want = exact
                    .get(pos..pos + frame.len())
                    .ok_or("read-back longer than the input")?;
                if want != frame {
                    return Err(format!(
                        "read-back differs from the input within {pos}..{}",
                        pos + frame.len()
                    ));
                }
            }
            Readback::Collect(out) => out.extend_from_slice(frame),
        }
        pos += frame.len();
    }
    if let Readback::Verify(exact) = into {
        if pos != exact.len() {
            return Err(format!("read back {pos} of {} values", exact.len()));
        }
    }
    Ok(r.segments_decoded())
}

/// One untraced or traced round trip into `dir`: ingest, then read back.
struct Pass {
    ingest: Ingest,
    replay_s: f64,
    segments_decoded: Option<u64>,
}

fn round_trip(
    input: &Input,
    dir: &Path,
    plan: &Plan,
    engine: Option<&Engine>,
    approx: &mut Vec<u64>,
    tr: &mut Tracer,
    req: u64,
) -> Result<Pass, String> {
    let ingest = ingest(&input.raw, dir, plan, engine, tr, req)?;
    let into = if plan.lossy.is_some() {
        approx.clear();
        Readback::Collect(approx)
    } else {
        Readback::Verify(&input.exact)
    };
    let (replay_s, segments_decoded) = replay(dir, engine, into, tr, req)?;
    if plan.lossy.is_some() && approx.len() != input.exact.len() {
        return Err(format!(
            "lossy read-back has {} of {} values",
            approx.len(),
            input.exact.len()
        ));
    }
    Ok(Pass {
        ingest,
        replay_s,
        segments_decoded,
    })
}

/// Writer and reader threads: the engine's workers, or 1 (inline) without
/// one.
fn threads(engine: Option<&Engine>) -> usize {
    engine.map_or(1, Engine::workers)
}

fn fresh_dir(ctx: &Ctx, name: &str) -> std::path::PathBuf {
    let dir = ctx.work.join(name);
    // A leftover from an interrupted pass would make the writer refuse.
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The timed (untraced) run: repeated round trips for `ctx.seconds`.
pub fn run(spec: &PackSpec, ctx: &Ctx, report: &mut Report) {
    let (input, setup_s) = setup(spec, ctx, report);
    let plan = plan(spec, input.exact.len());
    let engine = (spec.threads > 1).then(|| Engine::new(spec.threads));
    let blocks = input.raw.len().div_ceil(BLOCK).max(1);
    let min_passes = ctx.tail_samples.div_ceil(blocks).max(MIN_PASSES);
    let mut approx = Vec::with_capacity(if spec.lossy { input.exact.len() } else { 0 });
    let mut reference: Option<(u64, AtcStats)> = None;
    let mut first_approx: Option<Vec<u64>> = None;
    let (mut ingest_rates, mut replay_rates, mut peaks, mut block_s) =
        (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    let mut pass = 0;
    while pass < min_passes || start.elapsed().as_secs_f64() < ctx.seconds {
        let dir = fresh_dir(ctx, &format!("pass-{pass}"));
        let base = alloc::reset_peak();
        let outcome = round_trip(
            &input,
            &dir,
            &plan,
            engine.as_ref(),
            &mut approx,
            &mut Tracer::disabled(),
            0,
        );
        peaks.push(alloc::peak().saturating_sub(base) as f64 / MIB);
        let _ = std::fs::remove_dir_all(&dir);
        pass += 1;
        let checked = outcome.and_then(|p| {
            // Same input, same bytes: a pass that packs differently or
            // reads back a different approximation is wrong.
            let fp = fingerprint(&approx);
            let (ref_fp, ref_stats) = *reference.get_or_insert((fp, p.ingest.stats));
            if p.ingest.stats != ref_stats || fp != ref_fp {
                return Err(format!(
                    "pass {pass} is not deterministic: {:?} vs {ref_stats:?}",
                    p.ingest.stats
                ));
            }
            Ok(p)
        });
        match checked {
            Ok(p) => {
                ingest_rates.push(input.raw.len() as f64 / p.ingest.secs / 1e6);
                replay_rates.push(input.exact.len() as f64 / p.replay_s / 1e6);
                block_s.extend(p.ingest.block_s);
                if spec.lossy && first_approx.is_none() {
                    first_approx = Some(std::mem::replace(
                        &mut approx,
                        Vec::with_capacity(input.exact.len()),
                    ));
                }
                report.op("pack.roundtrip", Ok(()));
            }
            Err(e) => report.op("pack.roundtrip", Err(e)),
        }
    }
    let Some((_, stats)) = reference.filter(|_| !ingest_rates.is_empty()) else {
        return;
    };
    let fidelity = match &first_approx {
        Some(approx) => lossy_checks(&input.exact, approx, &plan, &stats, report),
        None => 100.0,
    };
    let blocks = sorted(&block_s);
    println!(
        "{pass} passes; {} raw accesses -> {} filtered; {} block latencies ({} per pass, {} raw accesses each)",
        input.raw.len(),
        input.exact.len(),
        blocks.len(),
        input.raw.len().div_ceil(BLOCK),
        BLOCK
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("ingest Macc/s per pass: {}", list(&ingest_rates));
    println!("replay Maddr/s per pass: {}", list(&replay_rates));
    crate::print_tail("ingest block", &blocks);
    report.set("ingest_macc_s", median(&ingest_rates));
    report.set("replay_maddr_s", median(&replay_rates));
    report.set("latency_p50_ms", percentile(&blocks, 50.0) * 1e3);
    report.set("latency_p95_ms", percentile(&blocks, 95.0) * 1e3);
    report.set("bits_per_addr", stats.bits_per_address());
    report.set("fidelity_pct", fidelity);
    report.set("setup_s", median(&setup_s));
    report.set("peak_heap_mib", median(&peaks));
}

/// Checks a lossy read-back against the exact trace and returns the
/// fidelity in percent: 100 × (1 − mean over associativities 1..=16 of
/// |miss ratio(exact) − miss ratio(approx)|).
fn lossy_checks(
    exact: &[u64],
    approx: &[u64],
    plan: &Plan,
    stats: &AtcStats,
    report: &mut Report,
) -> f64 {
    let l = plan.lossy.as_ref().map_or(exact.len(), |c| c.interval_len);
    let verbatim = exact
        .chunks(l)
        .zip(approx.chunks(l))
        .filter(|(e, a)| e == a)
        .count() as u64;
    if verbatim < stats.chunks {
        report.fail(
            "lossy.stored_intervals",
            format!(
                "{verbatim} intervals read back verbatim, {} stored",
                stats.chunks
            ),
        );
    }
    let curve = |trace: &[u64]| {
        let mut sim = StackSim::new(FIDELITY_SETS, FIDELITY_WAYS);
        sim.run(trace.iter().copied());
        (1..=FIDELITY_WAYS)
            .map(|a| sim.miss_ratio(a))
            .collect::<Vec<_>>()
    };
    let (e, a) = (curve(exact), curve(approx));
    let err = e.iter().zip(&a).map(|(x, y)| (x - y).abs()).sum::<f64>() / FIDELITY_WAYS as f64;
    println!(
        "fidelity_err = {:.4} miss-ratio points (mean |exact - approx| over 1..={FIDELITY_WAYS} ways, {FIDELITY_SETS} sets); \
         exact miss ratio at {FIDELITY_WAYS} ways = {:.4}; {} of {} intervals imitated",
        err * 100.0,
        e[FIDELITY_WAYS - 1],
        stats.imitations,
        stats.intervals
    );
    100.0 * (1.0 - err)
}

/// Request ids of the traced run's rungs and passes.
mod req {
    pub const UNTRACED: u64 = 0;
    pub const FULL: u64 = 1;
    pub const FILTER: u64 = 2;
    pub const CLASSIFY: u64 = 3;
    pub const BYTESORT: u64 = 4;
    pub const CODEC: u64 = 5;
    pub const WRITER_1T: u64 = 6;
    pub const DECOMPRESS: u64 = 7;
    pub const INVERSE: u64 = 8;
}

/// Filter + a [`Sink`] cut at `stage`: one write-side ladder rung.
fn write_rung(input: &Input, plan: &Plan, stage: Stage, tr: &mut Tracer, req: u64) -> (f64, Sink) {
    let codec: Arc<dyn Codec> = Arc::new(Bzip::default());
    let mut sink = Sink::new(stage, req, codec, plan.buffer, plan.lossy.as_ref());
    let mut filter = CacheFilter::paper();
    let mut out = Vec::with_capacity(BLOCK);
    let rung = tr.enter("ladder.write", req);
    let t0 = Instant::now();
    for block in input.raw.chunks(BLOCK) {
        out.clear();
        tr.time("cache.filter_batch", req, || {
            filter.filter_batch(block, &mut out)
        });
        sink.push(&out, tr);
    }
    sink.finish(tr);
    let secs = t0.elapsed().as_secs_f64();
    tr.exit(rung);
    (secs, sink)
}

/// The values a [`Sink`] stored, taken from the exact trace.
fn stored_values(exact: &[u64], plan: &Plan, sink: &Sink) -> Vec<u64> {
    match &plan.lossy {
        None => exact.to_vec(),
        Some(c) => sink
            .stored_intervals
            .iter()
            .flat_map(|&i| {
                exact
                    .chunks(c.interval_len)
                    .nth(i as usize)
                    .unwrap_or_default()
            })
            .copied()
            .collect(),
    }
}

/// The traced run: the layer ladder on the workload's own input, a
/// traced full round trip, and the tracing overhead.
pub fn run_traced(spec: &PackSpec, ctx: &Ctx, report: &mut Report) {
    let (input, setup_s) = setup(spec, ctx, report);
    let plan = plan(spec, input.exact.len());
    let new_engine = || (spec.threads > 1).then(|| Engine::new(spec.threads));
    let mut approx = Vec::with_capacity(input.exact.len());
    let mut tr = Tracer::new(Instant::now());

    // The untraced reference and the traced full round trip (the top
    // rung at the workload's thread count), each on a fresh engine so the
    // traced one's counters are its own.
    let dir = fresh_dir(ctx, "untraced");
    let untraced = round_trip(
        &input,
        &dir,
        &plan,
        new_engine().as_ref(),
        &mut approx,
        &mut Tracer::disabled(),
        req::UNTRACED,
    );
    let _ = std::fs::remove_dir_all(&dir);
    let engine = new_engine();
    let full_dir = fresh_dir(ctx, "traced");
    let full = round_trip(
        &input,
        &full_dir,
        &plan,
        engine.as_ref(),
        &mut approx,
        &mut tr,
        req::FULL,
    );
    let engine_stats = engine.as_ref().map(Engine::stats).unwrap_or_default();
    let (untraced, full) = match (untraced, full) {
        (Ok(u), Ok(f)) => (u, f),
        (u, f) => {
            for e in [u.err(), f.err()].into_iter().flatten() {
                report.fail("pack.roundtrip", e);
            }
            return;
        }
    };
    report.op("pack.roundtrip", Ok(()));
    report.op("pack.roundtrip", Ok(()));

    // Write-side ladder.
    let (filter_s, _) = write_rung(&input, &plan, Stage::Drop, &mut tr, req::FILTER);
    let classify = spec
        .lossy
        .then(|| write_rung(&input, &plan, Stage::Classify, &mut tr, req::CLASSIFY).0);
    let (bytesort_s, _) = write_rung(&input, &plan, Stage::Bytesort, &mut tr, req::BYTESORT);
    let (codec_s, sink) = write_rung(&input, &plan, Stage::Codec, &mut tr, req::CODEC);
    // The full writer and reader at one thread (the top rung already ran
    // at the workload's thread count).
    let (write_1t, read_1t, segments_1t) = if spec.threads > 1 {
        let dir = fresh_dir(ctx, "writer-1t");
        let pass = round_trip(
            &input,
            &dir,
            &plan,
            None,
            &mut approx,
            &mut tr,
            req::WRITER_1T,
        );
        let _ = std::fs::remove_dir_all(&dir);
        match pass {
            Ok(p) => {
                report.op("pack.roundtrip", Ok(()));
                (p.ingest.secs, p.replay_s, p.segments_decoded)
            }
            Err(e) => return report.fail("pack.roundtrip", e),
        }
    } else {
        (full.ingest.secs, full.replay_s, full.segments_decoded)
    };
    let _ = std::fs::remove_dir_all(&full_dir);

    // Read-side ladder over the codec rung's segments.
    let bzip = Bzip::default();
    let rung = |inverse: bool, req: u64, tr: &mut Tracer| {
        let span = tr.enter("ladder.read", req);
        let t = Instant::now();
        let out = decode(&bzip, &sink.streams, inverse, tr, req);
        let secs = t.elapsed().as_secs_f64();
        tr.exit(span);
        (secs, out)
    };
    let (decompress_s, decompressed) = rung(false, req::DECOMPRESS, &mut tr);
    let (inverse_s, decoded) = rung(true, req::INVERSE, &mut tr);
    let want = stored_values(&input.exact, &plan, &sink);
    let stats = full.ingest.stats;
    let ladder_ok = match (decompressed, decoded) {
        (Err(e), _) | (_, Err(e)) => Err(e),
        (Ok(_), Ok(v)) if v != want => Err(format!(
            "ladder decoded {} values; the stored trace has {}",
            v.len(),
            want.len()
        )),
        _ if (sink.intervals, sink.imitations) != (stats.intervals, stats.imitations) => {
            Err(format!(
                "ladder classified {}/{} intervals as imitations, the writer {}/{}",
                sink.imitations, sink.intervals, stats.imitations, stats.intervals
            ))
        }
        _ => Ok(()),
    };
    report.op("ladder.roundtrip", ladder_ok);

    let spans = tr.spans();
    let t = |req: u64| totals(spans, move |s| s.req == req);
    let busy = |req: u64, name: &str| t(req).get(name).map_or(0.0, |x| x.busy_s);
    let full_busy = t(req::FULL);
    let sum = |names: &[&str]| {
        names
            .iter()
            .map(|n| full_busy.get(n).map_or(0.0, |x| x.busy_s))
            .sum::<f64>()
    };
    let classify_s = classify.unwrap_or(filter_s);

    report.set("cache.filter.busy_s", sum(&["cache.filter_batch"]));
    report.set("cache.filter.accesses", full.ingest.accesses as f64);
    report.set(
        "cache.filter.miss_ratio",
        full.ingest.misses as f64 / full.ingest.accesses.max(1) as f64,
    );
    report.set(
        "core.lossy.classify_busy_s",
        busy(req::CLASSIFY, "core.lossy.classify"),
    );
    report.set("core.lossy.intervals", sink.intervals as f64);
    report.set(
        "core.lossy.imitation_ratio",
        sink.imitations as f64 / sink.intervals.max(1) as f64,
    );
    report.set(
        "core.bytesort.fwd_busy_s",
        busy(req::CODEC, "core.bytesort_forward"),
    );
    report.set(
        "core.bytesort.inv_busy_s",
        busy(req::INVERSE, "core.bytesort_inverse"),
    );
    report.set("core.bytesort.frames", sink.frames as f64);
    report.set(
        "codec.compress_busy_s",
        busy(req::CODEC, "codec.compress_into"),
    );
    report.set(
        "codec.decompress_busy_s",
        busy(req::DECOMPRESS, "codec.decompress_into"),
    );
    report.set("codec.bytes_in", sink.bytes_in as f64);
    report.set("codec.bytes_out", sink.bytes_out as f64);
    report.set(
        "core.writer.busy_s",
        sum(&["core.writer.code", "core.writer.finish"]),
    );
    report.set(
        "core.writer.bytes_out",
        full.ingest.stats.compressed_bytes as f64,
    );
    report.set(
        "core.reader.busy_s",
        sum(&["core.reader.open", "core.reader.next_frame"]),
    );
    report.set(
        "core.reader.segments_decoded",
        segments_1t.unwrap_or(0) as f64,
    );
    report.set_engine(&engine_stats);
    report.set("ladder.write.filter_s", filter_s);
    report.set("ladder.write.classify_s", classify_s - filter_s);
    report.set("ladder.write.bytesort_s", bytesort_s - classify_s);
    report.set("ladder.write.codec_s", codec_s - bytesort_s);
    report.set("ladder.write.writer_s", write_1t - codec_s);
    report.set("ladder.write.threads_s", full.ingest.secs - write_1t);
    report.set("ladder.read.codec_s", decompress_s);
    report.set("ladder.read.bytesort_s", inverse_s - decompress_s);
    report.set("ladder.read.reader_s", read_1t - inverse_s);
    report.set("ladder.read.threads_s", full.replay_s - read_1t);
    let traced_s = full.ingest.secs + full.replay_s;
    let untraced_s = untraced.ingest.secs + untraced.replay_s;
    report.set("trace.overhead_s", traced_s - untraced_s);
    report.set("trace.spans", spans.len() as f64);
    crate::zero_unset(report);

    println!(
        "setup_s median {:.4} s over {} repetitions",
        median(&setup_s),
        setup_s.len()
    );
    println!(
        "write ladder (s, cumulative): filter {filter_s:.4} | classify {} | +bytesort {bytesort_s:.4} | +codec {codec_s:.4} | \
         AtcWriter@1 {:.4} | AtcWriter@{} {:.4}",
        classify.map_or("-".into(), |c| format!("{c:.4}")),
        write_1t,
        spec.threads,
        full.ingest.secs
    );
    println!(
        "read ladder (s, cumulative): decompress {decompress_s:.4} | +bytesort_inverse {inverse_s:.4} | AtcReader@1 {:.4} | AtcReader@{} {:.4}",
        read_1t, spec.threads, full.replay_s
    );
    println!(
        "tracing overhead: traced round trip {traced_s:.4} s - untraced {untraced_s:.4} s = {:+.4} s",
        traced_s - untraced_s
    );
    println!(
        "ratio bases: miss_ratio = misses / {} raw accesses; imitation_ratio = imitations / {} intervals; \
         scratch_reused_ratio = reused / (fresh + reused) engine scratch slots",
        full.ingest.accesses, sink.intervals
    );
    let names = [
        (req::FULL, format!("round trip @{} threads", spec.threads)),
        (req::FILTER, "rung: filter".into()),
        (req::CLASSIFY, "rung: +classify".into()),
        (req::BYTESORT, "rung: +bytesort".into()),
        (req::CODEC, "rung: +codec".into()),
        (req::WRITER_1T, "round trip @1 thread".into()),
        (req::DECOMPRESS, "read rung: decompress".into()),
        (req::INVERSE, "read rung: +bytesort_inverse".into()),
    ];
    for (r, title) in names {
        crate::print_layer_table(&title, &t(r));
    }
    crate::dump_spans(ctx, spans);
}
