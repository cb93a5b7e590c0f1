//! `atc-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pack-lossless --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload in-process against the public library API and
//! prints every metric by name with its unit; the last line of standard
//! output is one JSON object `{correct, attempted, failed, metrics}`.
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced layer ladder instead and reports the
//! per-layer metrics, writing every span to
//! `.perfbench_out/spans-<workload>-seed<seed>.tsv`. Trace directories
//! are written under `.perfbench_tmp/` and removed on exit. Both paths
//! are relative to the working directory. Workloads, configurations and
//! the layer-to-end-to-end metric map are in `perfbench/WORKLOADS.md`.

mod alloc;
mod inputs;
mod ladder;
mod pack;
mod report;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use report::{Report, END_TO_END, PER_LAYER};
use spans::{Span, Totals};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["pack-lossless", "pack-lossy", "serve-range"];

/// Set-up repetitions per run (`setup_s` is their median).
const SETUP_REPS: usize = 3;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Scratch directory for trace directories and stores.
    pub work: PathBuf,
    /// Directory the span dump goes to.
    pub out: PathBuf,
    /// Set-up repetitions.
    pub setup_reps: usize,
    /// Latency samples to collect at least.
    pub tail_samples: usize,
}

/// A workload's configuration.
#[derive(Debug, Clone)]
pub enum Spec {
    /// `pack-lossless` or `pack-lossy`.
    Pack(pack::PackSpec),
    /// `serve-range`.
    Serve(serve::ServeSpec),
}

/// The configuration of a named workload.
pub fn spec(workload: &str) -> Spec {
    match workload {
        "pack-lossless" => Spec::Pack(pack::LOSSLESS),
        "pack-lossy" => Spec::Pack(pack::LOSSY),
        "serve-range" => Spec::Serve(serve::SERVE),
        w => unreachable!("unknown workload {w}"),
    }
}

/// Runs `spec`, traced or not, and fills `report`.
pub fn run(spec: &Spec, traced: bool, ctx: &Ctx, report: &mut Report) {
    match (spec, traced) {
        (Spec::Pack(p), false) => pack::run(p, ctx, report),
        (Spec::Pack(p), true) => pack::run_traced(p, ctx, report),
        (Spec::Serve(s), false) => serve::run(s, ctx, report),
        (Spec::Serve(s), true) => serve::run_traced(s, ctx, report),
    }
}

/// Prints the median and the highest percentile with at least ten
/// samples beyond it, with the sample count.
pub fn print_tail(what: &str, sorted: &[f64]) {
    let n = sorted.len();
    match stats::tail_percentile(n) {
        Some(p) => println!(
            "{what} latency: p50 {:.4} ms, p{p} {:.4} ms ({} samples beyond), {n} samples",
            stats::percentile(sorted, 50.0) * 1e3,
            stats::percentile(sorted, p) * 1e3,
            stats::beyond(n, p)
        ),
        None => println!("{what} latency: {n} samples, too few for a tail percentile"),
    }
}

/// Prints a layer table: calls, busy and self seconds per span name.
pub fn print_layer_table(title: &str, rows: &BTreeMap<&'static str, Totals>) {
    if rows.is_empty() {
        return;
    }
    println!("layer table: {title}");
    println!(
        "  {:<28} {:>8} {:>12} {:>12}",
        "span", "calls", "busy_s", "self_s"
    );
    for (name, t) in rows {
        println!(
            "  {name:<28} {:>8} {:>12.6} {:>12.6}",
            t.calls, t.busy_s, t.self_s
        );
    }
}

/// Writes the span dump and prints where it went.
pub fn dump_spans(ctx: &Ctx, spans: &[Span]) {
    let path = ctx
        .out
        .join(format!("spans-{}-seed{}.tsv", ctx.workload, ctx.seed));
    match std::fs::create_dir_all(&ctx.out).and_then(|()| spans::dump(spans, &path)) {
        Ok(()) => println!("span dump: {} ({} spans)", path.display(), spans.len()),
        Err(e) => println!("span dump to {} failed: {e}", path.display()),
    }
}

/// Sets every per-layer metric the workload did not exercise to 0.
pub fn zero_unset(report: &mut Report) {
    for &(name, _) in PER_LAYER {
        if report.get(name).is_none() {
            report.set(name, 0.0);
        }
    }
}

/// Parsed command line.
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = WORKLOADS.iter().find(|w| **w == name).ok_or(format!(
        "unknown workload {name:?}; known: {}",
        WORKLOADS.join(", ")
    ))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("atc-perfbench: {e}");
            eprintln!(
                "usage: atc-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let work =
        PathBuf::from(".perfbench_tmp").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("atc-perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        work: work.clone(),
        out: PathBuf::from(".perfbench_out"),
        setup_reps: SETUP_REPS,
        // Enough latency samples that the summary's tail percentile
        // reaches p99 (and the gated p95 has fifty beyond it).
        tail_samples: stats::samples_for(99.0),
    };
    println!(
        "workload {} seed {} seconds {} trace {} ({} cores available)",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut report = Report::default();
    run(&spec(ctx.workload), args.trace, &ctx, &mut report);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    if report.finish(catalogue) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at a tiny scale, untraced and traced: each catalogue
    /// metric is emitted, finite, and no operation fails.
    #[test]
    fn smoke_every_workload_emits_every_metric() {
        /// Removes the scratch tree even when an assertion fails.
        struct Scratch(PathBuf);
        impl Drop for Scratch {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
                let _ = std::fs::remove_dir(".perfbench_tmp");
            }
        }
        let scratch =
            Scratch(PathBuf::from(".perfbench_tmp").join(format!("smoke-{}", std::process::id())));
        let base = &scratch.0;
        for workload in WORKLOADS {
            for traced in [false, true] {
                let ctx = Ctx {
                    workload,
                    seed: 1,
                    seconds: 0.0,
                    work: base.join(format!("{workload}-{traced}")),
                    out: base.join("out"),
                    setup_reps: 2,
                    tail_samples: 20,
                };
                std::fs::create_dir_all(&ctx.work).unwrap();
                let mut report = Report::default();
                let tiny = match spec(workload) {
                    Spec::Pack(p) => Spec::Pack(pack::PackSpec {
                        raw_len: 300_000,
                        ..p
                    }),
                    Spec::Serve(s) => Spec::Serve(serve::ServeSpec {
                        raw_len: 400_000,
                        traced_ranges: 12,
                        ..s
                    }),
                };
                run(&tiny, traced, &ctx, &mut report);
                let catalogue = if traced { PER_LAYER } else { END_TO_END };
                for (name, _) in catalogue {
                    let v = report.get(name);
                    assert!(
                        v.is_some_and(f64::is_finite),
                        "{workload} traced={traced}: {name} = {v:?}"
                    );
                }
                assert!(
                    report.finish(catalogue),
                    "{workload} traced={traced} failed a check"
                );
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse(&argv(
            "--workload serve-range --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("serve-range", 7, 10.0, true)
        );
        assert!(parse(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse(&argv(
            "--workload pack-lossy --seed x --seconds 1 --trace 0"
        ))
        .is_err());
        assert!(parse(&argv(
            "--workload pack-lossy --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }
}
