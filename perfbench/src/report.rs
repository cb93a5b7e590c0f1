//! Metric catalogue, operation accounting, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use atc_engine::EngineStats;

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ingest_macc_s", "Macc/s"),
    ("replay_maddr_s", "Maddr/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("bits_per_addr", "bits"),
    ("fidelity_pct", "%"),
    ("setup_s", "s"),
    ("peak_heap_mib", "MiB"),
];

/// Per-layer metrics (traced runs): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cache.filter.busy_s", "s"),
    ("cache.filter.accesses", "count"),
    ("cache.filter.miss_ratio", "ratio"),
    ("core.lossy.classify_busy_s", "s"),
    ("core.lossy.intervals", "count"),
    ("core.lossy.imitation_ratio", "ratio"),
    ("core.bytesort.fwd_busy_s", "s"),
    ("core.bytesort.inv_busy_s", "s"),
    ("core.bytesort.frames", "count"),
    ("codec.compress_busy_s", "s"),
    ("codec.decompress_busy_s", "s"),
    ("codec.bytes_in", "bytes"),
    ("codec.bytes_out", "bytes"),
    ("core.writer.busy_s", "s"),
    ("core.writer.bytes_out", "bytes"),
    ("core.reader.busy_s", "s"),
    ("core.reader.segments_decoded", "count"),
    ("engine.tasks_run", "count"),
    ("engine.steals", "count"),
    ("engine.panics", "count"),
    ("engine.scratch_reused_ratio", "ratio"),
    ("store.writer.busy_s", "s"),
    ("store.writer.peak_buffered_bytes", "bytes"),
    ("store.reader.range_busy_s", "s"),
    ("cache.segment.hits", "count"),
    ("cache.segment.misses", "count"),
    ("cache.segment.evictions", "count"),
    ("cache.segment.hit_ratio", "ratio"),
    ("net.server.requests", "count"),
    ("net.server.dropped", "count"),
    ("net.server.proto_errors", "count"),
    ("net.protocol_ms", "ms"),
    ("ladder.write.filter_s", "s"),
    ("ladder.write.classify_s", "s"),
    ("ladder.write.bytesort_s", "s"),
    ("ladder.write.codec_s", "s"),
    ("ladder.write.writer_s", "s"),
    ("ladder.write.threads_s", "s"),
    ("ladder.read.codec_s", "s"),
    ("ladder.read.bytesort_s", "s"),
    ("ladder.read.reader_s", "s"),
    ("ladder.read.threads_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// Operations, failures, metrics and notes of one run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    failures: BTreeMap<&'static str, u64>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one operation of kind `check` and its outcome.
    pub fn op(&mut self, check: &'static str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            *self.failures.entry(check).or_default() += 1;
            if self.failures[check] <= 3 {
                println!("FAILED {check}: {msg}");
            }
        }
    }

    /// Records a failed check outside any operation; it counts as one
    /// failed attempt.
    pub fn fail(&mut self, check: &'static str, msg: impl std::fmt::Display) {
        self.op(check, Err(msg.to_string()));
    }

    /// Sets a metric; `name` must be in a catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Sets the `engine.*` metrics from an engine's counters.
    pub fn set_engine(&mut self, e: &EngineStats) {
        self.set("engine.tasks_run", e.tasks_run as f64);
        self.set("engine.steals", e.steals as f64);
        self.set("engine.panics", e.panics as f64);
        let slots = e.scratch_fresh + e.scratch_reused;
        self.set(
            "engine.scratch_reused_ratio",
            e.scratch_reused as f64 / slots.max(1) as f64,
        );
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Prints the human-readable summary and, as the last line, the JSON
    /// result over the metrics of `catalogue`. Returns whether the run is
    /// correct: no failed operation and every catalogue metric set to a
    /// finite number.
    pub fn finish(mut self, catalogue: &[(&'static str, &'static str)]) -> bool {
        for &(name, _) in catalogue {
            match self.metrics.get(name) {
                None => self.fail("metric.missing", name),
                Some(v) if !v.is_finite() => self.fail("metric.not_finite", name),
                Some(_) => {}
            }
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "error_rate = {error_rate} fraction ({} failed of {} operations)",
            self.failed, self.attempted
        );
        for (check, n) in &self.failures {
            println!("  failed check {check}: {n}");
        }
        let mut json = String::new();
        for &(name, unit) in catalogue {
            let v = self
                .metrics
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            println!("{name:<34} {v:>16.6} {unit}");
            if !json.is_empty() {
                json.push_str(", ");
            }
            write!(
                json,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("String write");
        }
        let correct = self.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted.max(1),
            self.failed
        );
        correct
    }
}

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn benchmark_json_declares_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .collect()
        };
        let names =
            |c: &[(&str, &str)]| -> Vec<String> { c.iter().map(|(n, _)| n.to_string()).collect() };
        assert_eq!(declared("end_to_end"), names(END_TO_END));
        assert_eq!(declared("per_layer"), names(PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} unit"
            );
        }
    }

    #[test]
    fn workloads_doc_defines_every_metric() {
        let doc = include_str!("../WORKLOADS.md");
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                doc.contains(&format!("| `{name}` |")),
                "WORKLOADS.md has no row for {name}"
            );
        }
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut r = Report::default();
        r.op("pack.roundtrip", Ok(()));
        r.op("pack.roundtrip", Err("mismatch at 3".into()));
        r.fail("setup.determinism", "fingerprints differ");
        assert_eq!((r.attempted, r.failed), (3, 2));
        assert_eq!(r.failures["pack.roundtrip"], 1);
    }
}
