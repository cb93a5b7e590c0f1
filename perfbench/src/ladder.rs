//! The layer ladder's partial pipelines, assembled from each layer's
//! public functions: lossy classification per interval, bytesort per
//! frame, and the codec per 1 MiB segment — and the same in reverse.
//!
//! Each stage adds one layer to the one before, so a stage's marginal
//! cost is one subtraction. The byte layout mirrors the trace format
//! (frame = varint count + eight bytesorted columns; a stream is cut into
//! `DEFAULT_SEGMENT_SIZE` raw-byte segments), but nothing is written to
//! disk: that is the full writer's rung.

use std::sync::Arc;

use atc_codec::{varint, Codec, DEFAULT_SEGMENT_SIZE};
use atc_core::bytesort::{bytesort_forward, bytesort_inverse};
use atc_core::{Classification, LossyConfig, PhaseClassifier};

use crate::spans::Tracer;

/// How far down the encode path a [`Sink`] takes its input, cumulative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Accept values and drop them (the filter-only rung).
    Drop,
    /// + lossy phase classification per interval (lossy mode only).
    Classify,
    /// + `bytesort_forward` per frame of stored values.
    Bytesort,
    /// + `Codec::compress_into` per segment.
    Codec,
}

/// An encode pipeline cut at a [`Stage`].
pub struct Sink {
    stage: Stage,
    req: u64,
    codec: Arc<dyn Codec>,
    buffer: usize,
    lossy: Option<(PhaseClassifier, usize)>,
    pending: Vec<u64>,
    seg: Vec<u8>,
    open: Vec<Vec<u8>>,
    /// Compressed segments, grouped per stream (one stream in lossless
    /// mode, one per stored chunk in lossy mode).
    pub streams: Vec<Vec<Vec<u8>>>,
    /// Values that reached the bytesort stage, in order: the whole trace
    /// in lossless mode, the stored (non-imitated) intervals in lossy.
    pub stored: u64,
    /// Indices of the intervals stored as new chunks (lossy mode).
    pub stored_intervals: Vec<u64>,
    /// Intervals classified.
    pub intervals: u64,
    /// Intervals classified as imitations.
    pub imitations: u64,
    /// Frames bytesorted.
    pub frames: u64,
    /// Raw bytes handed to the codec.
    pub bytes_in: u64,
    /// Compressed bytes the codec returned.
    pub bytes_out: u64,
}

impl Sink {
    /// A sink cut at `stage` whose spans carry request id `req`; `lossy`
    /// enables per-interval classification.
    pub fn new(
        stage: Stage,
        req: u64,
        codec: Arc<dyn Codec>,
        buffer: usize,
        lossy: Option<&LossyConfig>,
    ) -> Self {
        Self {
            stage,
            req,
            codec,
            buffer,
            lossy: lossy.map(|c| (PhaseClassifier::new(c.clone()), c.interval_len)),
            pending: Vec::new(),
            seg: Vec::new(),
            open: Vec::new(),
            streams: Vec::new(),
            stored: 0,
            stored_intervals: Vec::new(),
            intervals: 0,
            imitations: 0,
            frames: 0,
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    /// Feeds values in trace order.
    pub fn push(&mut self, mut values: &[u64], tr: &mut Tracer) {
        if self.stage == Stage::Drop {
            return;
        }
        let unit = self.lossy.as_ref().map_or(self.buffer, |&(_, l)| l);
        while !values.is_empty() {
            let take = (unit - self.pending.len()).min(values.len());
            self.pending.extend_from_slice(&values[..take]);
            values = &values[take..];
            if self.pending.len() == unit {
                self.flush_unit(true, tr);
            }
        }
    }

    /// Flushes the partial unit and closes the last stream. A partial
    /// final interval is stored without classification, as the writer
    /// stores it (imitating a chunk of another length would change the
    /// trace length).
    pub fn finish(&mut self, tr: &mut Tracer) {
        if self.stage > Stage::Drop && !self.pending.is_empty() {
            self.flush_unit(false, tr);
        }
        if self.lossy.is_none() {
            self.close_stream(tr);
        }
    }

    /// Takes one frame (lossless) or interval (lossy); only a `full`
    /// interval is classified.
    fn flush_unit(&mut self, full: bool, tr: &mut Tracer) {
        let unit = std::mem::take(&mut self.pending);
        if let Some((classifier, _)) = &mut self.lossy {
            self.intervals += 1;
            let next_id = self.intervals - self.imitations - 1;
            let class = if full {
                tr.time("core.lossy.classify", self.req, || {
                    classifier.classify(&unit, next_id)
                })
            } else {
                Classification::NewChunk
            };
            if let Classification::Imitate { .. } = class {
                self.imitations += 1;
            } else if self.stage >= Stage::Bytesort {
                self.stored_intervals.push(self.intervals - 1);
                for frame in unit.chunks(self.buffer) {
                    self.encode_frame(frame, tr);
                }
                self.close_stream(tr);
            }
        } else {
            self.encode_frame(&unit, tr);
        }
        self.pending = unit;
        self.pending.clear();
    }

    fn encode_frame(&mut self, frame: &[u64], tr: &mut Tracer) {
        self.frames += 1;
        self.stored += frame.len() as u64;
        let cols = tr.time("core.bytesort_forward", self.req, || {
            bytesort_forward(frame)
        });
        if self.stage < Stage::Codec {
            std::hint::black_box(cols);
            return;
        }
        varint::write_u64(&mut self.seg, frame.len() as u64).expect("writing to a Vec cannot fail");
        for c in &cols {
            self.seg.extend_from_slice(c);
        }
        while self.seg.len() >= DEFAULT_SEGMENT_SIZE {
            let rest = self.seg.split_off(DEFAULT_SEGMENT_SIZE);
            let full = std::mem::replace(&mut self.seg, rest);
            self.compress(&full, tr);
        }
    }

    fn close_stream(&mut self, tr: &mut Tracer) {
        if self.stage < Stage::Codec {
            return;
        }
        if !self.seg.is_empty() {
            let last = std::mem::take(&mut self.seg);
            self.compress(&last, tr);
        }
        self.streams.push(std::mem::take(&mut self.open));
    }

    fn compress(&mut self, raw: &[u8], tr: &mut Tracer) {
        let mut packed = Vec::new();
        tr.time("codec.compress_into", self.req, || {
            self.codec.compress_into(raw, &mut packed)
        });
        self.bytes_in += raw.len() as u64;
        self.bytes_out += packed.len() as u64;
        self.open.push(packed);
    }
}

/// Decodes a sink's streams: `Codec::decompress_into` per segment and,
/// with `inverse`, `bytesort_inverse` per frame. Returns the stored
/// values (empty without `inverse`), or the first error. Spans carry
/// request id `req`.
pub fn decode(
    codec: &dyn Codec,
    streams: &[Vec<Vec<u8>>],
    inverse: bool,
    tr: &mut Tracer,
    req: u64,
) -> Result<Vec<u64>, String> {
    let mut values = Vec::new();
    let mut raw = Vec::new();
    let mut out = Vec::new();
    for (s, segments) in streams.iter().enumerate() {
        raw.clear();
        for seg in segments {
            tr.time("codec.decompress_into", req, || {
                codec.decompress_into(seg, &mut out)
            })
            .map_err(|e| format!("segment of stream {s}: {e}"))?;
            raw.extend_from_slice(&out);
        }
        if !inverse {
            continue;
        }
        let mut cur = &raw[..];
        while !cur.is_empty() {
            let n = varint::read_u64(&mut cur).map_err(|e| format!("frame header: {e}"))? as usize;
            if cur.len() < n * 8 {
                return Err(format!("frame of {n} values overruns its stream"));
            }
            let cols: Vec<Vec<u8>> = cur[..n * 8].chunks(n.max(1)).map(<[u8]>::to_vec).collect();
            cur = &cur[n * 8..];
            let frame = tr.time("core.bytesort_inverse", req, || bytesort_inverse(&cols));
            values.extend(frame.map_err(|e| e.to_string())?);
        }
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atc_codec::Bzip;

    fn trace(n: u64) -> Vec<u64> {
        (0..n).map(|i| 0x4000_0000 + (i * 7919 % 50_000)).collect()
    }

    #[test]
    fn lossless_stages_round_trip() {
        let values = trace(300_000);
        let mut tr = Tracer::disabled();
        let mut sink = Sink::new(Stage::Codec, 0, Arc::new(Bzip::default()), 100_000, None);
        for chunk in values.chunks(12_345) {
            sink.push(chunk, &mut tr);
        }
        sink.finish(&mut tr);
        assert_eq!((sink.frames, sink.stored), (3, 300_000));
        assert_eq!(sink.streams.len(), 1);
        assert!(
            sink.streams[0].len() >= 3,
            "2.4 MB of frames span several segments"
        );
        let back = decode(&Bzip::default(), &sink.streams, true, &mut tr, 0).unwrap();
        assert_eq!(back, values);
    }

    #[test]
    fn lossy_stages_store_only_new_chunks() {
        // Twenty identical intervals: the first is stored, the rest imitate
        // it, and a short final one is stored without classification.
        let interval: Vec<u64> = trace(20_000);
        let mut values: Vec<u64> = (0..20).flat_map(|_| interval.iter().copied()).collect();
        values.extend_from_slice(&interval[..7_000]);
        let cfg = LossyConfig {
            interval_len: 20_000,
            ..LossyConfig::default()
        };
        let mut tr = Tracer::disabled();
        let mut sink = Sink::new(
            Stage::Codec,
            0,
            Arc::new(Bzip::default()),
            5_000,
            Some(&cfg),
        );
        sink.push(&values, &mut tr);
        sink.finish(&mut tr);
        assert_eq!((sink.intervals, sink.imitations), (21, 19));
        assert_eq!(
            (sink.frames, sink.stored, sink.streams.len()),
            (6, 27_000, 2)
        );
        assert_eq!(sink.stored_intervals, vec![0, 20]);
        let back = decode(&Bzip::default(), &sink.streams, true, &mut tr, 0).unwrap();
        assert_eq!(back[..20_000], interval[..]);
        assert_eq!(back[20_000..], interval[..7_000]);
    }
}
