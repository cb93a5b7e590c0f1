//! Streaming ATC decompression (the original tool's `atc_open('d') /
//! atc_decode / atc_close`).

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use atc_cache::{trace_id, SegmentCache};
use atc_codec::{codec_by_name, varint, Codec, CodecReader, ReadaheadReader, SegmentRecord};
use atc_engine::Engine;

use crate::bytesort::BytesortInverse;
use crate::error::{AtcError, Result};
use crate::format::{self, FrameReadStats, IntervalRecord, Meta, SeekTable};
use crate::hist::{translate_addr, Translation, COLUMNS};

/// Default number of decompressed chunks kept in memory.
///
/// Runs of imitations of the same chunk then decode at translate speed
/// without re-reading the chunk file.
pub const DEFAULT_CHUNK_CACHE: usize = 8;

/// Tuning knobs for [`AtcReader::open_with`].
#[derive(Debug, Clone)]
pub struct ReadOptions {
    /// Decompressed chunks kept in memory (see [`DEFAULT_CHUNK_CACHE`]).
    pub chunk_cache: usize,
    /// Decompression parallelism. `0`/`1` decode on the calling thread
    /// (the original behavior); `n > 1` reads payload streams through a
    /// free-running readahead pipeline: up to `n` framed segments decode
    /// concurrently as engine tasks (no batch barrier), and an ordered
    /// reassembly stage hands segments to `decode`/`decode_all` in
    /// stream order, overlapping decompression with the consumer. Works
    /// on any trace — the on-disk format does not record thread counts.
    pub threads: usize,
    /// Explicit execution engine for the decode tasks. `None` (the
    /// default) uses the process-wide engine, grown to at least
    /// `threads` workers; tests and multi-stream containers (the sharded
    /// store) inject one so many readers share a worker set and isolated
    /// counters.
    pub engine: Option<Engine>,
    /// Decoded-frame cache for lossless traces that carry a seek
    /// sidecar. When set (usually to [`SegmentCache::global`]), the
    /// reader is frame-granular: every bytesort-decoded frame is built at
    /// most once per process while cached, so readers of a hot trace
    /// reuse each other's decompression *and* bytesort inverse, and a
    /// [`AtcReader::seek`] to a warm frame touches neither the codec nor
    /// the payload file. Traces without a usable sidecar ignore this and
    /// read linearly.
    pub segment_cache: Option<Arc<SegmentCache>>,
}

impl Default for ReadOptions {
    fn default() -> Self {
        Self {
            chunk_cache: DEFAULT_CHUNK_CACHE,
            threads: 1,
            engine: None,
            segment_cache: None,
        }
    }
}

/// A payload stream: decoded inline or through the readahead pipeline.
#[derive(Debug)]
enum SegmentStream {
    Serial(CodecReader<BufReader<File>>),
    Readahead(ReadaheadReader),
}

impl SegmentStream {
    /// Opens a payload stream; open failures keep their `io::Error` (so
    /// callers can still distinguish e.g. `NotFound`) — wrap with context
    /// at the call site where useful.
    fn open(
        path: &Path,
        codec: &Arc<dyn Codec>,
        threads: usize,
        engine: Option<&Engine>,
    ) -> std::io::Result<Self> {
        let file = BufReader::new(File::open(path)?);
        Ok(if threads > 1 {
            let reader = match engine {
                Some(e) => {
                    ReadaheadReader::with_engine(file, Arc::clone(codec), threads, e.clone())
                }
                None => ReadaheadReader::new(file, Arc::clone(codec), threads),
            };
            Self::Readahead(reader)
        } else {
            Self::Serial(CodecReader::new(file, Arc::clone(codec)))
        })
    }

    /// Compressed segments this stream decoded since it was built (i.e.
    /// since open or the last seek). `None` for the readahead pipeline,
    /// which does not track per-stream decode counts.
    fn segments_decoded(&self) -> Option<u64> {
        match self {
            Self::Serial(r) => Some(r.segments_decoded()),
            Self::Readahead(_) => None,
        }
    }
}

impl Read for SegmentStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Self::Serial(r) => r.read(buf),
            Self::Readahead(r) => r.read(buf),
        }
    }
}

impl BufRead for SegmentStream {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        match self {
            Self::Serial(r) => r.fill_buf(),
            Self::Readahead(r) => r.fill_buf(),
        }
    }

    fn consume(&mut self, amt: usize) {
        match self {
            Self::Serial(r) => r.consume(amt),
            Self::Readahead(r) => r.consume(amt),
        }
    }
}

/// Where each lossless frame sits in the decoded payload, from `meta`
/// alone. Every frame but the tail holds exactly `buffer` addresses, so
/// its raw bytes are a fixed varint header plus eight columns and frame
/// `k` starts at `k × full_raw` — one multiplication, no index of frame
/// offsets.
#[derive(Debug, Clone, Copy)]
struct FrameGeometry {
    buffer: u64,
    count: u64,
    /// Raw bytes of one full frame.
    full_raw: u64,
    /// Raw bytes of the whole payload.
    total_raw: u64,
}

impl FrameGeometry {
    fn new(meta: &Meta) -> Result<Self> {
        let (buffer, count) = (meta.buffer, meta.count);
        if buffer == 0 {
            return Err(AtcError::Format(
                "meta records buffer=0: frames are not addressable".into(),
            ));
        }
        let frame_raw = |n: u64| n.checked_mul(8).and_then(|b| b.checked_add(varint_len(n)));
        let tail = match count % buffer {
            0 => Some(0),
            rem => frame_raw(rem),
        };
        let full_raw = frame_raw(buffer);
        let total_raw = full_raw
            .and_then(|f| f.checked_mul(count / buffer))
            .zip(tail)
            .and_then(|(full, tail)| full.checked_add(tail));
        match (full_raw, total_raw) {
            (Some(full_raw), Some(total_raw)) => Ok(Self {
                buffer,
                count,
                full_raw,
                total_raw,
            }),
            _ => Err(AtcError::Format(format!(
                "meta's {count} addresses in frames of {buffer} overflow the payload size"
            ))),
        }
    }

    /// Number of frames (the tail one may be partial).
    fn frames(&self) -> u64 {
        self.count.div_ceil(self.buffer)
    }

    /// Address number of frame `k`'s first address (`count` for the
    /// one-past-the-end frame).
    fn first_addr(&self, k: u64) -> u64 {
        k.saturating_mul(self.buffer).min(self.count)
    }

    /// Addresses in frame `k` (`k < frames()`).
    fn addrs(&self, k: u64) -> u64 {
        self.buffer.min(self.count - self.first_addr(k))
    }

    /// Raw byte offset of frame `k` (`k <= frames()`, so every frame in
    /// front of it is full unless `k` is the one-past-the-end frame).
    fn raw_start(&self, k: u64) -> u64 {
        if k == self.frames() {
            self.total_raw
        } else {
            k * self.full_raw
        }
    }
}

/// The frame-granular lossless cursor behind a configured
/// [`ReadOptions::segment_cache`]: frames come out of the shared cache
/// when warm and are built from the one or more sidecar segments they
/// span when cold, then inserted for every other reader.
///
/// A build's working memory (the compressed segment, a frame stitched
/// across segments, the bytesort inverse) lives only for that build;
/// between frames the cursor keeps just the last decompressed segment.
#[derive(Debug)]
struct FrameCursor {
    file: File,
    /// Length of the payload file: the bound every sidecar extent is
    /// checked against before a buffer is sized from it.
    file_len: u64,
    codec: Arc<dyn Codec>,
    geometry: FrameGeometry,
    trace: u64,
    cache: Arc<SegmentCache>,
    /// Next frame number to hand out.
    next: u64,
    /// The frame last handed out.
    current: Arc<[u64]>,
    /// Index of the segment decompressed into `segment` (reader-private,
    /// so a linear cold read decompresses each segment exactly once even
    /// when frames straddle segment boundaries).
    segment_idx: Option<usize>,
    segment: Vec<u8>,
    /// Segments decompressed by this cursor (cache hits decompress none).
    decoded: u64,
}

impl FrameCursor {
    /// Moves to the next frame; `Ok(false)` past the last one.
    fn advance(&mut self, table: &SeekTable) -> Result<bool> {
        if self.next >= self.geometry.frames() {
            return Ok(false);
        }
        let key = (self.trace, self.next);
        self.current = match self.cache.get(key) {
            Some(frame) => frame,
            None => {
                let frame = self.build(self.next, table)?;
                self.cache.insert(key, Arc::clone(&frame));
                frame
            }
        };
        self.next += 1;
        Ok(true)
    }

    /// Builds frame `k` from the sidecar segments its raw bytes span.
    /// Every segment is decompressed before the bytesort inverse
    /// allocates, so a build never holds both at once.
    fn build(&mut self, k: u64, table: &SeekTable) -> Result<Arc<[u64]>> {
        let geo = self.geometry;
        if table.total_raw_bytes() != geo.total_raw {
            return Err(AtcError::Format(format!(
                "seek sidecar spans {} raw bytes, but {} addresses in frames of {} need {}",
                table.total_raw_bytes(),
                geo.count,
                geo.buffer,
                geo.total_raw
            )));
        }
        // The frame's size comes from meta, capped before anything is
        // allocated for it; sidecar lengths only locate its bytes.
        let n = format::check_frame_addrs(geo.addrs(k))?;
        let len = varint_len(n as u64) as usize + COLUMNS * n;
        let mut scratch = Vec::new();
        let mut cur = self.raw(table, geo.raw_start(k), len, &mut scratch)?;
        let declared = varint::read_u64(&mut cur)?;
        if declared != n as u64 || cur.len() != COLUMNS * n {
            return Err(AtcError::Format(format!(
                "frame {k} declares {declared} addresses, meta implies {n}"
            )));
        }
        let mut inverse = BytesortInverse::default();
        inverse.begin(n);
        for col in cur.chunks_exact(n.max(1)) {
            inverse.push_column(col)?;
        }
        Ok(inverse.into_addrs()?.into())
    }

    /// The raw payload bytes `pos..pos + len`: borrowed from the segment
    /// slot when one segment holds them all, else stitched together in
    /// `scratch` across the segments they straddle (leaving the last of
    /// them in the slot, where the next frame starts).
    fn raw<'a>(
        &'a mut self,
        table: &SeekTable,
        pos: u64,
        len: usize,
        scratch: &'a mut Vec<u8>,
    ) -> Result<&'a [u8]> {
        let mut off = self.seek_raw(table, pos)?;
        if off + len > self.segment.len() {
            scratch.clear();
            // bounded: `len` is one frame of at most FRAME_MAX_ADDRS
            // addresses, sized from meta (see `build`).
            scratch.reserve(len);
            loop {
                let take = (len - scratch.len()).min(self.segment.len() - off);
                scratch.extend_from_slice(&self.segment[off..off + take]);
                if scratch.len() == len {
                    return Ok(scratch);
                }
                off = self.seek_raw(table, pos + scratch.len() as u64)?;
            }
        }
        Ok(&self.segment[off..off + len])
    }

    /// Loads the segment holding raw byte `pos` into the slot; returns
    /// `pos`'s offset within it.
    fn seek_raw(&mut self, table: &SeekTable, pos: u64) -> Result<usize> {
        let idx = table.locate(pos).ok_or_else(|| {
            AtcError::Format(format!("raw byte {pos} lies past the seek sidecar"))
        })?;
        if self.segment_idx != Some(idx) {
            self.segment_idx = None;
            self.load_segment(idx, table)?;
            self.segment_idx = Some(idx);
        }
        Ok((pos - table.raw_start(idx)) as usize)
    }

    /// Decompresses segment `idx` into the slot.
    fn load_segment(&mut self, idx: usize, table: &SeekTable) -> Result<()> {
        let rec = table.segments()[idx];
        let framed = rec
            .file_offset
            .checked_add(rec.compressed_len)
            .filter(|&end| end <= self.file_len)
            .map(|_| rec.compressed_len as usize)
            .ok_or_else(|| {
                AtcError::Format(format!(
                    "sidecar segment {idx} at {}+{} runs past the {}-byte payload file",
                    rec.file_offset, rec.compressed_len, self.file_len
                ))
            })?;
        // bounded: framed <= file_len, checked above.
        let mut packed = vec![0u8; framed];
        self.file.seek(SeekFrom::Start(rec.file_offset))?;
        self.file.read_exact(&mut packed)?;
        decompress_segment(&self.codec, &packed, rec.raw_len, &mut self.segment)
            .map_err(|msg| AtcError::Format(format!("segment {idx}: {msg}")))?;
        self.decoded += 1;
        Ok(())
    }
}

/// A streaming ATC decompressor over a trace directory.
///
/// # Examples
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use atc_core::{AtcReader, AtcWriter, Mode};
///
/// let dir = std::env::temp_dir().join("atc-reader-doc");
/// # let _ = std::fs::remove_dir_all(&dir);
/// let mut w = AtcWriter::create(&dir, Mode::Lossless)?;
/// w.code_all([64, 128, 192])?;
/// w.finish()?;
///
/// let mut r = AtcReader::open(&dir)?;
/// assert_eq!(r.decode()?, Some(64));
/// assert_eq!(r.decode()?, Some(128));
/// assert_eq!(r.decode()?, Some(192));
/// assert_eq!(r.decode()?, None);
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AtcReader {
    meta: Meta,
    dir: PathBuf,
    codec: Arc<dyn Codec>,
    state: State,
    /// The seek sidecar, loaded and validated once at open (`None` for
    /// lossy traces and for lossless ones without a usable sidecar).
    sidecar: Option<SeekTable>,
    /// Decoded values not yet handed out.
    pending: VecDeque<u64>,
    produced: u64,
    /// Streaming bytesort decoder for the zero-copy frame path; its
    /// output buffer is what lossless [`AtcReader::next_frame`] hands out.
    inverse: BytesortInverse,
    /// Frame buffer for [`AtcReader::next_frame`] when the frame cannot
    /// be borrowed (lossy intervals, values buffered by `decode`).
    frame: Vec<u64>,
    /// Where the frame last handed out by `next_frame` lives.
    slot: FrameSlot,
    /// Scratch for columns that straddle a segment boundary.
    col_scratch: Vec<u8>,
    frame_stats: FrameReadStats,
    /// First error's message; once set, every later `decode`/`next_frame`
    /// fails. The serial codec stream does not latch on its own (the
    /// readahead pipeline does), and after a failed segment the byte
    /// stream has a hole, so anything "decoded" past it would be garbage
    /// that happens to parse — fail fast at every thread count instead.
    poisoned: Option<String>,
    /// Retained [`ReadOptions`] so [`AtcReader::seek`]'s linear fallback
    /// can rebuild the payload stream the way it was opened.
    threads: usize,
    engine: Option<Engine>,
    /// Set by [`AtcReader::decode_all_flat`]: the payload was consumed
    /// out of band, so the streaming paths must report end of trace
    /// instead of re-decoding the (unconsumed) underlying stream.
    exhausted: bool,
    /// The missing-sidecar fallback warns once per reader, not per call.
    warned_linear: bool,
}

#[derive(Debug)]
enum State {
    Lossless {
        stream: SegmentStream,
    },
    /// Lossless with a segment cache and a usable sidecar.
    Framed(FrameCursor),
    Lossy {
        info: CodecReader<BufReader<File>>,
        cache: ChunkCache,
    },
}

impl AtcReader {
    /// Opens a trace directory written by [`crate::AtcWriter`].
    ///
    /// # Errors
    ///
    /// Fails if the directory, `meta` file, or payload files are missing or
    /// malformed, or the recorded codec is unknown.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<Self> {
        Self::open_with(dir, ReadOptions::default())
    }

    /// Opens a trace directory with an explicit chunk-cache capacity.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`AtcReader::open`].
    pub fn with_chunk_cache<P: AsRef<Path>>(dir: P, chunk_cache: usize) -> Result<Self> {
        Self::open_with(
            dir,
            ReadOptions {
                chunk_cache,
                ..ReadOptions::default()
            },
        )
    }

    /// Opens a trace directory with explicit [`ReadOptions`] (chunk cache
    /// capacity and decompression thread count).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`AtcReader::open`].
    pub fn open_with<P: AsRef<Path>>(dir: P, options: ReadOptions) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let meta_text = std::fs::read_to_string(dir.join(format::META_FILE)).map_err(|e| {
            AtcError::Format(format!(
                "cannot read {}/{}: {e}",
                dir.display(),
                format::META_FILE
            ))
        })?;
        let meta = Meta::parse(&meta_text)?;
        let codec: Arc<dyn Codec> = Arc::from(
            codec_by_name(&meta.codec)
                .ok_or_else(|| AtcError::Format(format!("unknown codec {:?}", meta.codec)))?,
        );
        let threads = options.threads.max(1);
        let engine = options.engine.clone();
        let mut sidecar = None;
        let state = match meta.mode.as_str() {
            "lossless" => {
                sidecar = load_seek_table(&dir, &meta);
                let data_path = dir.join(format::DATA_FILE);
                let framed = options
                    .segment_cache
                    .as_ref()
                    .filter(|_| sidecar.is_some())
                    .and_then(|cache| Some((cache, FrameGeometry::new(&meta).ok()?)));
                match framed {
                    Some((cache, geometry)) => {
                        let file = File::open(&data_path)?;
                        State::Framed(FrameCursor {
                            file_len: file.metadata()?.len(),
                            file,
                            codec: Arc::clone(&codec),
                            geometry,
                            trace: trace_id(&dir),
                            cache: Arc::clone(cache),
                            next: 0,
                            current: Arc::new([]),
                            segment_idx: None,
                            segment: Vec::new(),
                            decoded: 0,
                        })
                    }
                    // No cache requested, or no usable sidecar to cut
                    // frames with: plain streaming decode.
                    None => State::Lossless {
                        stream: SegmentStream::open(&data_path, &codec, threads, engine.as_ref())?,
                    },
                }
            }
            "lossy" => {
                let file = BufReader::new(File::open(dir.join(format::INFO_FILE))?);
                State::Lossy {
                    // The interval trace is tiny — always decoded inline;
                    // `threads` accelerates the chunk-file loads instead.
                    info: CodecReader::new(file, Arc::clone(&codec)),
                    cache: ChunkCache::new(options.chunk_cache.max(1), threads, engine.clone()),
                }
            }
            other => {
                return Err(AtcError::Format(format!("unknown mode {other:?}")));
            }
        };
        Ok(Self {
            meta,
            dir,
            codec,
            state,
            sidecar,
            pending: VecDeque::new(),
            produced: 0,
            inverse: BytesortInverse::default(),
            frame: Vec::new(),
            slot: FrameSlot::Empty,
            col_scratch: Vec::new(),
            frame_stats: FrameReadStats::default(),
            poisoned: None,
            threads,
            engine,
            exhausted: false,
            warned_linear: false,
        })
    }

    /// The trace header.
    pub fn meta(&self) -> &Meta {
        &self.meta
    }

    /// Decodes the next value; `Ok(None)` at end of trace (the original
    /// `atc_decode` returning 0).
    ///
    /// # Errors
    ///
    /// Propagates I/O, codec, and format errors.
    pub fn decode(&mut self) -> Result<Option<u64>> {
        self.check_poisoned()?;
        self.slot = FrameSlot::Empty;
        let result = self.decode_inner();
        if let Err(e) = &result {
            self.poisoned = Some(e.to_string());
        }
        result
    }

    fn decode_inner(&mut self) -> Result<Option<u64>> {
        loop {
            if let Some(v) = self.pending.pop_front() {
                self.produced += 1;
                return Ok(Some(v));
            }
            if !self.refill()? {
                self.check_complete()?;
                return Ok(None);
            }
        }
    }

    /// Decodes the next whole frame — one bytesort buffer (lossless mode)
    /// or one interval (lossy mode) — and hands it out as a borrowed
    /// slice, valid until the next call on this reader (and readable
    /// again through [`AtcReader::current_frame`] until then).
    ///
    /// This is the zero-copy bulk path: in lossless mode, columns are fed
    /// to the bytesort inverse straight out of the stream's decoded
    /// segment buffer (the readahead reassembly buffer when
    /// [`ReadOptions::threads`] > 1) instead of first being copied through
    /// `Read::read` into an owned buffer — [`AtcReader::frame_stats`]
    /// counts borrowed vs copied column bytes. With a
    /// [`ReadOptions::segment_cache`], a warm frame is the cached decoded
    /// frame itself: no decompression, no inverse, no copy. Lossy
    /// intervals are materialized through the chunk cache as before
    /// (translations must rewrite the bytes anyway).
    ///
    /// `next_frame` and [`AtcReader::decode`] may be interleaved: values
    /// already buffered by `decode` are drained (as one frame) before the
    /// next on-disk frame is parsed. The concatenation of all frames is
    /// exactly the `decode` value sequence; `Ok(None)` means clean end of
    /// trace. Errors (including a mid-stream integrity failure) latch
    /// exactly like the `decode` path: every later call keeps failing
    /// rather than decaying into a clean end of trace.
    ///
    /// # Errors
    ///
    /// Propagates I/O, codec, and format errors.
    pub fn next_frame(&mut self) -> Result<Option<&[u64]>> {
        self.check_poisoned()?;
        self.slot = FrameSlot::Empty;
        match self.next_frame_inner() {
            Ok(Some(slot)) => {
                self.slot = slot;
                Ok(Some(self.current_frame()))
            }
            Ok(None) => Ok(None),
            Err(e) => {
                self.poisoned = Some(e.to_string());
                Err(e)
            }
        }
    }

    /// The frame the last call on this reader returned from
    /// [`AtcReader::next_frame`]; empty when that call returned `None` or
    /// failed, or when the last call was anything else (`decode`, `seek`).
    ///
    /// Lets a caller that drives many readers at once — the sharded
    /// store's merge — keep consuming each reader's current frame in
    /// place instead of copying it out.
    pub fn current_frame(&self) -> &[u64] {
        match (&self.slot, &self.state) {
            (FrameSlot::Inverse, _) => self.inverse.finish().unwrap_or(&[]),
            (FrameSlot::Buffer, _) => &self.frame,
            (FrameSlot::Cursor, State::Framed(cursor)) => &cursor.current,
            _ => &[],
        }
    }

    /// Decodes the next frame, reporting *where* it landed (so the
    /// borrowed slice can be produced after error handling releases
    /// `&mut self`).
    fn next_frame_inner(&mut self) -> Result<Option<FrameSlot>> {
        if !self.pending.is_empty() {
            // Interleaved with decode(): hand out its buffered tail as a
            // frame so the value sequence stays exact.
            self.frame.clear();
            self.frame.extend(self.pending.drain(..));
            self.produced += self.frame.len() as u64;
            self.frame_stats.frames += 1;
            return Ok(Some(FrameSlot::Buffer));
        }
        if self.exhausted {
            self.check_complete()?;
            return Ok(None);
        }
        match &mut self.state {
            State::Lossless { stream } => {
                if format::read_frame_borrowed(
                    stream,
                    &mut self.inverse,
                    &mut self.col_scratch,
                    &mut self.frame_stats,
                )? {
                    self.produced += self.inverse.finish()?.len() as u64;
                    Ok(Some(FrameSlot::Inverse))
                } else {
                    self.check_complete()?;
                    Ok(None)
                }
            }
            State::Framed(cursor) => {
                let table = framed_sidecar(&self.sidecar)?;
                if cursor.advance(table)? {
                    self.produced += cursor.current.len() as u64;
                    self.frame_stats.frames += 1;
                    Ok(Some(FrameSlot::Cursor))
                } else {
                    self.check_complete()?;
                    Ok(None)
                }
            }
            State::Lossy { info, cache } => {
                let Some(record) = IntervalRecord::read(info)? else {
                    self.check_complete()?;
                    return Ok(None);
                };
                self.frame.clear();
                materialize_interval(&self.dir, &self.codec, cache, record, &mut self.frame)?;
                self.produced += self.frame.len() as u64;
                self.frame_stats.frames += 1;
                Ok(Some(FrameSlot::Buffer))
            }
        }
    }

    /// Accounting for the [`AtcReader::next_frame`] path: frames decoded
    /// and column bytes borrowed in place vs copied through scratch.
    pub fn frame_stats(&self) -> FrameReadStats {
        self.frame_stats
    }

    /// Fails if an earlier `decode`/`next_frame` call errored.
    fn check_poisoned(&self) -> Result<()> {
        match &self.poisoned {
            Some(msg) => Err(AtcError::Format(format!(
                "reader poisoned by earlier error: {msg}"
            ))),
            None => Ok(()),
        }
    }

    /// Fails if the stream ended before `meta.count` addresses.
    fn check_complete(&self) -> Result<()> {
        if self.produced != self.meta.count {
            return Err(AtcError::Format(format!(
                "trace ended after {} of {} addresses",
                self.produced, self.meta.count
            )));
        }
        Ok(())
    }

    /// Decodes the remainder of the trace into a vector.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`AtcReader::decode`].
    pub fn decode_all(&mut self) -> Result<Vec<u64>> {
        // The header's count is untrusted until the trace is fully read,
        // so cap the header-driven preallocation.
        // bounded: at most 16 Mi addresses up front; the rest grows as
        // values decode.
        let remaining = self.meta.count.saturating_sub(self.produced);
        let mut out = Vec::with_capacity(remaining.min(1 << 24) as usize);
        while let Some(v) = self.decode()? {
            out.push(v);
        }
        Ok(out)
    }

    /// Adapts the reader into an iterator of `Result<u64>`.
    pub fn values(&mut self) -> Values<'_> {
        Values { reader: self }
    }

    /// Repositions the reader so the next value decoded is the first
    /// address of frame `frame_no` (address number `frame_no ×
    /// meta.buffer`), in O(log segments) when the trace carries a seek
    /// sidecar: the target segment is found by binary search and at most
    /// that one segment is decoded before the target — never the
    /// megabytes in front of it. Traces written before the sidecar
    /// existed still work: the reader warns once on stderr and falls
    /// back to a linear decode-and-discard up to the target.
    ///
    /// With a [`ReadOptions::segment_cache`] the seek only records the
    /// target; the next [`AtcReader::next_frame`] serves the frame from
    /// the cache, or builds it from the one or two segments it spans.
    ///
    /// Seeking is frame-granular because frames are the compression
    /// unit; callers wanting address granularity seek to
    /// `addr / meta.buffer` and skip `addr % meta.buffer` values of the
    /// next frame. Seeking to the one-past-the-end frame is allowed and
    /// behaves like a fully drained reader. After a seek the payload
    /// decodes on the calling thread ([`ReadOptions::threads`]
    /// accelerates linear scans, which a seek is not).
    ///
    /// # Errors
    ///
    /// Fails on lossy traces (their intervals are not frame-addressable
    /// on disk), on targets past the end of the trace, and on the usual
    /// I/O/codec/format errors. Errors latch like every other path.
    pub fn seek(&mut self, frame_no: u64) -> Result<()> {
        self.check_poisoned()?;
        self.slot = FrameSlot::Empty;
        let result = self.seek_inner(frame_no);
        if let Err(e) = &result {
            self.poisoned = Some(e.to_string());
        }
        result
    }

    fn seek_inner(&mut self, frame_no: u64) -> Result<()> {
        if matches!(self.state, State::Lossy { .. }) {
            return Err(AtcError::Format(
                "seek requires a lossless trace: lossy intervals are not frame-addressable".into(),
            ));
        }
        let geo = FrameGeometry::new(&self.meta)?;
        if frame_no > geo.frames() {
            return Err(AtcError::Format(format!(
                "seek target frame {frame_no} is past the end of the trace \
                 ({} addresses in frames of {})",
                geo.count, geo.buffer
            )));
        }
        let target_raw = geo.raw_start(frame_no);
        self.pending.clear();
        self.exhausted = false;
        if self.sidecar.is_none() {
            self.warn_linear_fallback();
        }
        let data_path = self.dir.join(format::DATA_FILE);
        match (&mut self.state, &self.sidecar) {
            (State::Framed(cursor), _) => cursor.next = frame_no,
            (State::Lossless { stream }, Some(table)) => {
                if target_raw > table.total_raw_bytes() {
                    return Err(AtcError::Format(format!(
                        "seek sidecar spans {} raw bytes but frame {frame_no} starts at {target_raw}",
                        table.total_raw_bytes()
                    )));
                }
                let (file_offset, in_segment) = match table.locate(target_raw) {
                    Some(idx) => (
                        table.segments()[idx].file_offset,
                        target_raw - table.raw_start(idx),
                    ),
                    // Exactly at end of payload: park on the end-of-stream
                    // marker after the last segment.
                    None => {
                        let end = table
                            .segments()
                            .last()
                            .map_or(0, |s| s.file_offset + s.compressed_len);
                        (end, 0)
                    }
                };
                let mut file = File::open(&data_path)?;
                file.seek(SeekFrom::Start(file_offset))?;
                let mut reader = CodecReader::new(BufReader::new(file), Arc::clone(&self.codec));
                skip_raw(&mut reader, in_segment)?;
                *stream = SegmentStream::Serial(reader);
            }
            (State::Lossless { stream }, None) => {
                let mut fresh = SegmentStream::open(
                    &data_path,
                    &self.codec,
                    self.threads,
                    self.engine.as_ref(),
                )?;
                skip_raw(&mut fresh, target_raw)?;
                *stream = fresh;
            }
            (State::Lossy { .. }, _) => unreachable!("rejected above"),
        }
        self.produced = geo.first_addr(frame_no);
        Ok(())
    }

    /// Decodes the whole trace by fanning every compressed segment out
    /// over the engine as one scope — no readahead window, no ordered
    /// reassembly stage: the seek sidecar says where each segment's
    /// decoded bytes land, so every worker decompresses straight into
    /// its disjoint slice of one flat buffer and the frames are parsed
    /// from it sequentially afterwards.
    ///
    /// Requires a fresh reader (nothing decoded yet) and a lossless
    /// trace with a seek sidecar; anything else falls back to
    /// [`AtcReader::decode_all`] (warning once on stderr when the
    /// fallback is a missing sidecar). Uses [`ReadOptions::engine`] if
    /// one was injected, else the process-wide engine grown to
    /// [`ReadOptions::threads`] workers.
    ///
    /// # Errors
    ///
    /// Propagates I/O, codec, and format errors; errors latch.
    pub fn decode_all_flat(&mut self) -> Result<Vec<u64>> {
        self.check_poisoned()?;
        self.slot = FrameSlot::Empty;
        if matches!(self.state, State::Lossy { .. })
            || self.produced != 0
            || !self.pending.is_empty()
            || self.exhausted
        {
            return self.decode_all();
        }
        let Some(table) = &self.sidecar else {
            self.warn_linear_fallback();
            return self.decode_all();
        };
        let engine = match &self.engine {
            Some(e) => e.clone(),
            None => Engine::global_with(self.threads),
        };
        let result = match decode_flat(&self.dir, &self.codec, &engine, table, &self.meta) {
            Ok(out) => {
                self.produced = out.len() as u64;
                self.exhausted = true;
                self.check_complete().map(|()| out)
            }
            Err(e) => Err(e),
        };
        if let Err(e) = &result {
            self.poisoned = Some(e.to_string());
        }
        result
    }

    /// Compressed segments decompressed by this reader's payload path:
    /// since open or the last [`AtcReader::seek`] for the streaming
    /// paths, since open for a [`ReadOptions::segment_cache`] reader
    /// (whose cache hits decompress nothing). `None` for lossy traces and
    /// the readahead pipeline, which do not track it. This is the
    /// observable behind seek's O(1)-decode promise — after a seek,
    /// reading one frame costs at most the segments that frame spans
    /// (zero when the frame cache is warm).
    pub fn segments_decoded(&self) -> Option<u64> {
        match &self.state {
            State::Lossless { stream } => stream.segments_decoded(),
            State::Framed(cursor) => Some(cursor.decoded),
            State::Lossy { .. } => None,
        }
    }

    /// Warns (once per reader) that random access degraded to a linear
    /// decode because the trace has no usable seek sidecar.
    fn warn_linear_fallback(&mut self) {
        if !self.warned_linear {
            self.warned_linear = true;
            eprintln!(
                "atc: warning: {} has no usable seek sidecar ({}); falling back to linear decode",
                self.dir.display(),
                format::SEEK_FILE
            );
        }
    }

    fn refill(&mut self) -> Result<bool> {
        if self.exhausted {
            return Ok(false);
        }
        match &mut self.state {
            State::Lossless { stream } => match format::read_frame(stream)? {
                Some(addrs) => {
                    self.pending.extend(addrs);
                    Ok(true)
                }
                None => Ok(false),
            },
            State::Framed(cursor) => {
                let table = framed_sidecar(&self.sidecar)?;
                if !cursor.advance(table)? {
                    return Ok(false);
                }
                self.pending.extend(cursor.current.iter().copied());
                Ok(true)
            }
            State::Lossy { info, cache } => {
                let Some(record) = IntervalRecord::read(info)? else {
                    return Ok(false);
                };
                materialize_interval(&self.dir, &self.codec, cache, record, &mut self.pending)?;
                Ok(true)
            }
        }
    }
}

/// The sidecar a [`State::Framed`] reader was opened with (always
/// present: open only picks the frame cursor when it loaded one).
fn framed_sidecar(sidecar: &Option<SeekTable>) -> Result<&SeekTable> {
    sidecar
        .as_ref()
        .ok_or_else(|| AtcError::Format("frame cursor opened without a seek sidecar".into()))
}

/// Loads and validates the trace's seek sidecar; `None` means "no usable
/// sidecar" (absent, unreadable, malformed, or disagreeing with `meta`) —
/// the caller falls back to linear decoding, it is never a hard error.
fn load_seek_table(dir: &Path, meta: &Meta) -> Option<SeekTable> {
    let bytes = std::fs::read(dir.join(format::SEEK_FILE)).ok()?;
    let table = SeekTable::decode(&bytes).ok()?;
    if let Some(n) = meta.seek_segments {
        if n != table.len() as u64 {
            return None;
        }
    }
    Some(table)
}

/// Encoded length of `varint(value)` in bytes (LEB128, 7 bits per byte).
fn varint_len(value: u64) -> u64 {
    u64::from((64 - value.leading_zeros()).max(1)).div_ceil(7)
}

/// Reads and discards exactly `n` decoded bytes (positioning within a
/// segment, or the whole linear-fallback skip).
fn skip_raw<R: Read>(r: &mut R, n: u64) -> Result<()> {
    let skipped = std::io::copy(&mut r.by_ref().take(n), &mut std::io::sink())?;
    if skipped != n {
        return Err(AtcError::Format(format!(
            "payload ended after {skipped} of the {n} bytes before the seek target"
        )));
    }
    Ok(())
}

/// Decompresses one framed segment (`varint(payload_len) ++ payload`, as
/// the sidecar delimits it) into `out`, which must come out exactly
/// `raw_len` bytes. Returns the error as a message so engine workers can
/// report through a plain slot.
fn decompress_segment(
    codec: &Arc<dyn Codec>,
    framed: &[u8],
    raw_len: u64,
    out: &mut Vec<u8>,
) -> std::result::Result<(), String> {
    let mut cur = framed;
    let payload = varint::read_u64(&mut cur).map_err(|e| e.to_string())?;
    if payload != cur.len() as u64 {
        return Err(format!(
            "segment frames {payload} payload bytes but the sidecar spans {}",
            cur.len()
        ));
    }
    out.clear();
    codec.decompress_into(cur, out).map_err(|e| e.to_string())?;
    if out.len() as u64 != raw_len {
        return Err(format!(
            "segment decoded to {} bytes, sidecar says {raw_len}",
            out.len()
        ));
    }
    Ok(())
}

/// The [`AtcReader::decode_all_flat`] body: every sidecar segment
/// decompresses into its slice of one flat raw buffer as a single engine
/// scope, then the frames are parsed out of it in order.
fn decode_flat(
    dir: &Path,
    codec: &Arc<dyn Codec>,
    engine: &Engine,
    table: &SeekTable,
    meta: &Meta,
) -> Result<Vec<u64>> {
    let expected = FrameGeometry::new(meta)?.total_raw;
    if table.total_raw_bytes() != expected {
        return Err(AtcError::Format(format!(
            "seek sidecar spans {} raw bytes, but meta's {} addresses need {expected}",
            table.total_raw_bytes(),
            meta.count
        )));
    }
    let data = std::fs::read(dir.join(format::DATA_FILE))?;
    let raw_total = usize::try_from(expected)
        .map_err(|_| AtcError::Format("sidecar raw size overflows usize".into()))?;
    // bounded: the payload's raw size as meta's count and buffer give it
    // (the sidecar was checked to agree above) — what a full decode
    // produces anyway.
    let mut raw = vec![0u8; raw_total];
    // Carve the flat buffer into per-segment output slices: the
    // sidecar's raw lengths are contiguous from zero by construction.
    // bounded: one slice per sidecar segment, each at least one byte of
    // the flat buffer sized above.
    let mut slices = Vec::with_capacity(table.len());
    let mut rest = raw.as_mut_slice();
    for seg in table.segments() {
        let raw_len = usize::try_from(seg.raw_len)
            .map_err(|_| AtcError::Format("segment raw size overflows usize".into()))?;
        let (head, tail) = rest.split_at_mut(raw_len);
        slices.push(head);
        rest = tail;
    }
    let errors: Vec<Mutex<Option<String>>> =
        table.segments().iter().map(|_| Mutex::new(None)).collect();
    let data = &data;
    engine.scope(|scope| {
        for ((seg, out), slot) in table.segments().iter().zip(slices).zip(&errors) {
            let codec = Arc::clone(codec);
            let seg = *seg;
            scope.spawn(move || {
                if let Err(msg) = decode_segment_into(&codec, data, &seg, out) {
                    *slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(msg);
                }
            });
        }
    });
    for slot in &errors {
        if let Some(msg) = slot.lock().unwrap_or_else(|p| p.into_inner()).take() {
            return Err(AtcError::Format(msg));
        }
    }
    let mut cur: &[u8] = &raw;
    // bounded: capped at 16 Mi addresses; the rest grows as frames parse.
    let mut out = Vec::with_capacity(meta.count.min(1 << 24) as usize);
    while let Some(frame) = format::read_frame(&mut cur)? {
        out.extend(frame);
    }
    Ok(out)
}

/// Decompresses one sidecar-described segment of `data` into its slice of
/// the flat output buffer (the [`decode_flat`] worker).
fn decode_segment_into(
    codec: &Arc<dyn Codec>,
    data: &[u8],
    seg: &SegmentRecord,
    out: &mut [u8],
) -> std::result::Result<(), String> {
    let start = usize::try_from(seg.file_offset).map_err(|_| "segment offset overflow")?;
    let len = usize::try_from(seg.compressed_len).map_err(|_| "segment length overflow")?;
    let framed = data
        .get(start..start.checked_add(len).ok_or("segment extent overflow")?)
        .ok_or_else(|| {
            format!(
                "sidecar segment at {start}+{len} runs past the {}-byte payload file",
                data.len()
            )
        })?;
    let mut raw = Vec::new();
    decompress_segment(codec, framed, out.len() as u64, &mut raw)?;
    out.copy_from_slice(&raw);
    Ok(())
}

/// Decodes one interval record into `out`: loads its chunk (through the
/// cache) and applies the recorded translations. Shared by the value
/// ([`AtcReader::decode`]) and frame ([`AtcReader::next_frame`]) paths so
/// the chunk-length validation and translation handling cannot drift
/// apart.
fn materialize_interval<C: Extend<u64>>(
    dir: &Path,
    codec: &Arc<dyn Codec>,
    cache: &mut ChunkCache,
    record: IntervalRecord,
    out: &mut C,
) -> Result<()> {
    match record {
        IntervalRecord::NewChunk { chunk_id, len } => {
            let addrs = cache.load(dir, codec, chunk_id)?;
            if addrs.len() as u64 != len {
                return Err(AtcError::Format(format!(
                    "chunk {chunk_id} holds {} addresses, record says {len}",
                    addrs.len()
                )));
            }
            out.extend(addrs.iter().copied());
        }
        IntervalRecord::Imitate {
            chunk_id,
            translations,
        } => {
            let addrs = cache.load(dir, codec, chunk_id)?;
            if translations.iter().all(Option::is_none) {
                out.extend(addrs.iter().copied());
            } else {
                let t: &[Option<Translation>; COLUMNS] = &translations;
                out.extend(addrs.iter().map(|&a| translate_addr(a, t)));
            }
        }
    }
    Ok(())
}

/// Where [`AtcReader::next_frame`] left the decoded frame.
#[derive(Debug)]
enum FrameSlot {
    /// No frame is current (see [`AtcReader::current_frame`]).
    Empty,
    /// In the bytesort inverse's output buffer (borrowed lossless path).
    Inverse,
    /// In the reader's own frame buffer (lossy / interleave path).
    Buffer,
    /// The frame cursor's current cached frame.
    Cursor,
}

/// Iterator over decoded values (see [`AtcReader::values`]).
#[derive(Debug)]
pub struct Values<'r> {
    reader: &'r mut AtcReader,
}

impl Iterator for Values<'_> {
    type Item = Result<u64>;

    fn next(&mut self) -> Option<Self::Item> {
        self.reader.decode().transpose()
    }
}

/// LRU cache of decompressed chunks.
#[derive(Debug)]
struct ChunkCache {
    capacity: usize,
    /// Decompression parallelism for chunk loads (1 = inline).
    threads: usize,
    /// Engine the chunk-load readahead tasks run on (None = global).
    engine: Option<Engine>,
    /// Most recently used last.
    entries: Vec<(u64, Arc<Vec<u64>>)>,
}

impl ChunkCache {
    fn new(capacity: usize, threads: usize, engine: Option<Engine>) -> Self {
        Self {
            capacity,
            threads,
            engine,
            entries: Vec::new(),
        }
    }

    fn load(&mut self, dir: &Path, codec: &Arc<dyn Codec>, id: u64) -> Result<Arc<Vec<u64>>> {
        if let Some(i) = self.entries.iter().position(|(eid, _)| *eid == id) {
            let entry = self.entries.remove(i);
            let addrs = Arc::clone(&entry.1);
            self.entries.push(entry);
            return Ok(addrs);
        }
        let path = dir.join(format::chunk_file_name(id));
        let mut stream = SegmentStream::open(&path, codec, self.threads, self.engine.as_ref())
            .map_err(|e| {
                AtcError::Format(format!("cannot open chunk file {}: {e}", path.display()))
            })?;
        let mut addrs = Vec::new();
        while let Some(frame) = format::read_frame(&mut stream)? {
            addrs.extend(frame);
        }
        let addrs = Arc::new(addrs);
        if self.entries.len() == self.capacity {
            self.entries.remove(0);
        }
        self.entries.push((id, Arc::clone(&addrs)));
        Ok(addrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lossy::LossyConfig;
    use crate::writer::{AtcOptions, AtcWriter, Mode};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("atc-reader-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn lossless_roundtrip_multi_buffer() {
        let dir = tmp("lossless");
        let addrs: Vec<u64> = (0..2500u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossless,
            AtcOptions {
                codec: "bzip".into(),
                buffer: 1000, // 3 frames: 1000 + 1000 + 500,
                threads: 1,
            },
        )
        .unwrap();
        w.code_all(addrs.iter().copied()).unwrap();
        w.finish().unwrap();

        let mut r = AtcReader::open(&dir).unwrap();
        assert_eq!(r.meta().mode, "lossless");
        assert_eq!(r.decode_all().unwrap(), addrs);
        assert_eq!(r.decode().unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lossy_identical_intervals_roundtrip_exactly() {
        let dir = tmp("lossy-exact");
        let interval: Vec<u64> = (0..200u64).map(|i| i * 64).collect();
        let cfg = LossyConfig {
            interval_len: 200,
            ..LossyConfig::default()
        };
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossy(cfg),
            AtcOptions {
                codec: "store".into(),
                buffer: 128,
                threads: 1,
            },
        )
        .unwrap();
        for _ in 0..4 {
            w.code_all(interval.iter().copied()).unwrap();
        }
        let stats = w.finish().unwrap();
        assert_eq!(stats.chunks, 1);

        let mut r = AtcReader::open(&dir).unwrap();
        let out = r.decode_all().unwrap();
        assert_eq!(out.len(), 800);
        for lap in 0..4 {
            assert_eq!(&out[lap * 200..(lap + 1) * 200], &interval[..], "lap {lap}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lossy_translation_reproduces_shifted_regions() {
        let dir = tmp("lossy-shift");
        // Four intervals, each a sweep of a different region: the paper's
        // perfect-imitation case.
        let cfg = LossyConfig {
            interval_len: 256,
            ..LossyConfig::default()
        };
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossy(cfg),
            AtcOptions {
                codec: "store".into(),
                buffer: 256,
                threads: 1,
            },
        )
        .unwrap();
        let mut expected = Vec::new();
        for region in [0xF2u64, 0xF3, 0xA1, 0xB7] {
            let interval: Vec<u64> = (0..256u64).map(|i| (region << 8) + i).collect();
            w.code_all(interval.iter().copied()).unwrap();
            expected.extend(interval);
        }
        let stats = w.finish().unwrap();
        assert_eq!(stats.chunks, 1, "one chunk imitated by all others");
        assert_eq!(stats.imitations, 3);

        let mut r = AtcReader::open(&dir).unwrap();
        assert_eq!(r.decode_all().unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lossy_partial_final_interval() {
        let dir = tmp("lossy-partial");
        let cfg = LossyConfig {
            interval_len: 100,
            ..LossyConfig::default()
        };
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossy(cfg),
            AtcOptions {
                codec: "store".into(),
                buffer: 50,
                threads: 1,
            },
        )
        .unwrap();
        let addrs: Vec<u64> = (0..250u64).collect(); // 2.5 intervals
        w.code_all(addrs.iter().copied()).unwrap();
        let stats = w.finish().unwrap();
        assert_eq!(stats.intervals, 3);

        let mut r = AtcReader::open(&dir).unwrap();
        let out = r.decode_all().unwrap();
        assert_eq!(out.len(), 250);
        // The final partial interval is stored losslessly.
        assert_eq!(&out[200..], &addrs[200..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn values_iterator() {
        let dir = tmp("values");
        let mut w = AtcWriter::create(&dir, Mode::Lossless).unwrap();
        w.code_all([1u64, 2, 3]).unwrap();
        w.finish().unwrap();
        let mut r = AtcReader::open(&dir).unwrap();
        let vals: Vec<u64> = r.values().map(|v| v.unwrap()).collect();
        assert_eq!(vals, vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_missing_dir_fails() {
        assert!(AtcReader::open("/nonexistent/atc/dir").is_err());
    }

    #[test]
    fn threaded_lossless_writer_is_byte_identical_and_readable() {
        let addrs: Vec<u64> = (0..30_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9))
            .collect();
        let write = |threads: usize| {
            let dir = tmp(&format!("mt-lossless-{threads}"));
            let mut w = AtcWriter::with_options(
                &dir,
                Mode::Lossless,
                AtcOptions {
                    codec: "bzip".into(),
                    buffer: 1000,
                    threads,
                },
            )
            .unwrap();
            w.code_all(addrs.iter().copied()).unwrap();
            w.finish().unwrap();
            dir
        };
        let serial_dir = write(1);
        let serial_data = std::fs::read(serial_dir.join(format::DATA_FILE)).unwrap();
        for threads in [2usize, 4, 8] {
            let dir = write(threads);
            let data = std::fs::read(dir.join(format::DATA_FILE)).unwrap();
            assert_eq!(data, serial_data, "threads={threads}");
            // Cross-read: serial reader on threaded output and vice versa.
            let mut serial_read = AtcReader::open(&dir).unwrap();
            assert_eq!(serial_read.decode_all().unwrap(), addrs);
            let mut threaded_read = AtcReader::open_with(
                &dir,
                ReadOptions {
                    threads,
                    ..ReadOptions::default()
                },
            )
            .unwrap();
            assert_eq!(threaded_read.decode_all().unwrap(), addrs);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        std::fs::remove_dir_all(&serial_dir).unwrap();
    }

    #[test]
    fn threaded_lossy_roundtrip_matches_serial() {
        let cfg = || LossyConfig {
            interval_len: 500,
            ..LossyConfig::default()
        };
        // Distinct regions per lap force several stored chunks, exercising
        // the background chunk pool.
        let mut addrs = Vec::new();
        for lap in 0..20u64 {
            for i in 0..500u64 {
                addrs.push(((lap % 5) << 32) + i * 64 + (lap / 5));
            }
        }
        let write = |threads: usize| {
            let dir = tmp(&format!("mt-lossy-{threads}"));
            let mut w = AtcWriter::with_options(
                &dir,
                Mode::Lossy(cfg()),
                AtcOptions {
                    codec: "bzip".into(),
                    buffer: 200,
                    threads,
                },
            )
            .unwrap();
            w.code_all(addrs.iter().copied()).unwrap();
            let stats = w.finish().unwrap();
            (dir, stats)
        };
        let (serial_dir, serial_stats) = write(1);
        let mut serial_out = AtcReader::open(&serial_dir).unwrap();
        let expect = serial_out.decode_all().unwrap();
        assert_eq!(expect.len(), addrs.len());
        for threads in [2usize, 4] {
            let (dir, stats) = write(threads);
            assert_eq!(stats.chunks, serial_stats.chunks, "threads={threads}");
            assert_eq!(stats.imitations, serial_stats.imitations);
            let mut r = AtcReader::open_with(
                &dir,
                ReadOptions {
                    threads,
                    ..ReadOptions::default()
                },
            )
            .unwrap();
            assert_eq!(r.decode_all().unwrap(), expect, "threads={threads}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
        std::fs::remove_dir_all(&serial_dir).unwrap();
    }

    #[test]
    fn next_frame_agrees_with_decode_lossless() {
        let addrs: Vec<u64> = (0..25_000u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let dir = tmp("frames-lossless");
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossless,
            AtcOptions {
                codec: "bzip".into(),
                buffer: 1000,
                threads: 1,
            },
        )
        .unwrap();
        w.code_all(addrs.iter().copied()).unwrap();
        w.finish().unwrap();

        for threads in [1usize, 4] {
            let open = || {
                AtcReader::open_with(
                    &dir,
                    ReadOptions {
                        threads,
                        ..ReadOptions::default()
                    },
                )
                .unwrap()
            };
            let mut by_decode = open();
            let expect = by_decode.decode_all().unwrap();
            let mut by_frames = open();
            let mut got = Vec::new();
            let mut frames = 0u64;
            while let Some(frame) = by_frames.next_frame().unwrap() {
                got.extend_from_slice(frame);
                frames += 1;
            }
            assert_eq!(got, expect, "threads={threads}");
            assert_eq!(got, addrs, "threads={threads}");
            assert_eq!(frames, 25, "threads={threads}");
            // Clean end of trace is sticky, not an error.
            assert!(by_frames.next_frame().unwrap().is_none());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn next_frame_borrows_segments_without_copy() {
        // 10k addresses in 512-address frames = ~80 KiB of column bytes:
        // well inside one 1 MiB codec segment, so every column must ride
        // the borrowed path — the counter test pinning that next_frame
        // eliminates the per-segment copy the read() path pays.
        let addrs: Vec<u64> = (0..10_000u64).map(|i| i * 64).collect();
        let dir = tmp("frames-zero-copy");
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossless,
            AtcOptions {
                codec: "bzip".into(),
                buffer: 512,
                threads: 1,
            },
        )
        .unwrap();
        w.code_all(addrs.iter().copied()).unwrap();
        w.finish().unwrap();

        for threads in [1usize, 2] {
            let mut r = AtcReader::open_with(
                &dir,
                ReadOptions {
                    threads,
                    ..ReadOptions::default()
                },
            )
            .unwrap();
            let mut got = Vec::new();
            while let Some(frame) = r.next_frame().unwrap() {
                got.extend_from_slice(frame);
            }
            assert_eq!(got, addrs, "threads={threads}");
            let stats = r.frame_stats();
            assert_eq!(stats.frames, 20, "threads={threads}");
            assert_eq!(stats.borrowed_bytes, 10_000 * 8, "threads={threads}");
            assert_eq!(stats.copied_bytes, 0, "threads={threads}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn next_frame_agrees_with_decode_lossy() {
        let dir = tmp("frames-lossy");
        let cfg = LossyConfig {
            interval_len: 256,
            ..LossyConfig::default()
        };
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossy(cfg),
            AtcOptions {
                codec: "store".into(),
                buffer: 128,
                threads: 1,
            },
        )
        .unwrap();
        for region in [0xF2u64, 0xF3, 0xA1, 0xB7] {
            w.code_all((0..256u64).map(|i| (region << 8) + i)).unwrap();
        }
        w.code_all((0..100u64).map(|i| i * 8)).unwrap(); // partial tail
        w.finish().unwrap();

        let mut by_decode = AtcReader::open(&dir).unwrap();
        let expect = by_decode.decode_all().unwrap();
        let mut by_frames = AtcReader::open(&dir).unwrap();
        let mut got = Vec::new();
        let mut sizes = Vec::new();
        while let Some(frame) = by_frames.next_frame().unwrap() {
            sizes.push(frame.len());
            got.extend_from_slice(frame);
        }
        assert_eq!(got, expect);
        assert_eq!(
            sizes,
            vec![256, 256, 256, 256, 100],
            "one frame per interval"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn next_frame_interleaves_with_decode() {
        let addrs: Vec<u64> = (0..3000u64).map(|i| i * 13).collect();
        let dir = tmp("frames-interleave");
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossless,
            AtcOptions {
                codec: "store".into(),
                buffer: 1000,
                threads: 1,
            },
        )
        .unwrap();
        w.code_all(addrs.iter().copied()).unwrap();
        w.finish().unwrap();

        let mut r = AtcReader::open(&dir).unwrap();
        let mut got = Vec::new();
        // Pull a few values through decode (buffering a frame), then
        // switch to frames: the buffered tail must come out first.
        for _ in 0..5 {
            got.push(r.decode().unwrap().unwrap());
        }
        while let Some(frame) = r.next_frame().unwrap() {
            got.extend_from_slice(frame);
        }
        assert_eq!(got, addrs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn next_frame_latches_mid_stream_errors() {
        // Corrupt the *middle* of data.atc so framing still parses but a
        // later segment fails its integrity check: next_frame must
        // deliver the early frames, then fail, then keep failing — at
        // every thread count (the readahead latch regression shape).
        // 300k addresses = 2.4 MB raw = 3 codec segments, so the flipped
        // bit lands mid-stream with good frames before and after it.
        let addrs: Vec<u64> = (0..300_000u64).map(|i| i.wrapping_mul(0x517C)).collect();
        let dir = tmp("frames-latch");
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossless,
            AtcOptions {
                codec: "lz".into(),
                buffer: 1000,
                threads: 1,
            },
        )
        .unwrap();
        w.code_all(addrs.iter().copied()).unwrap();
        w.finish().unwrap();
        let data_path = dir.join(format::DATA_FILE);
        let mut data = std::fs::read(&data_path).unwrap();
        let flip = data.len() - data.len() / 4;
        data[flip] ^= 0x40;
        std::fs::write(&data_path, &data).unwrap();

        for threads in [1usize, 2, 4] {
            let mut r = AtcReader::open_with(
                &dir,
                ReadOptions {
                    threads,
                    ..ReadOptions::default()
                },
            )
            .unwrap();
            let mut got = Vec::new();
            let err = loop {
                match r.next_frame() {
                    Ok(Some(frame)) => got.extend_from_slice(frame),
                    Ok(None) => panic!("corruption must not decay into clean EOF"),
                    Err(e) => break e,
                }
            };
            let _ = err;
            // Everything delivered before the failure is intact and
            // frame-aligned.
            assert!(got.len() < addrs.len(), "threads={threads}");
            assert_eq!(got.len() % 1000, 0, "threads={threads}");
            assert_eq!(got, addrs[..got.len()], "threads={threads}");
            // The error latches: later calls must keep failing.
            for _ in 0..3 {
                assert!(r.next_frame().is_err(), "threads={threads}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes a multi-segment lossless trace: small segments force many
    /// sidecar entries so seeks have something to skip.
    fn write_segmented(dir: &PathBuf, addrs: &[u64], codec: &str, buffer: usize) {
        let mut w = AtcWriter::with_options(
            dir,
            Mode::Lossless,
            AtcOptions {
                codec: codec.into(),
                buffer,
                threads: 1,
            },
        )
        .unwrap();
        w.code_all(addrs.iter().copied()).unwrap();
        w.finish().unwrap();
    }

    #[test]
    fn seek_matches_linear_decode_at_every_offset() {
        // ~470 KB raw in 1 MiB segments would be one segment; lz at
        // buffer 700 over 60k addresses still spans multiple segments
        // because DEFAULT_SEGMENT_SIZE cuts on raw bytes (480 KB < 1 MiB:
        // single segment). Use enough data for several segments.
        let addrs: Vec<u64> = (0..300_000u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let dir = tmp("seek-offsets");
        write_segmented(&dir, &addrs, "lz", 700);
        let mut linear = AtcReader::open(&dir).unwrap();
        let expect = linear.decode_all().unwrap();

        let mut r = AtcReader::open(&dir).unwrap();
        let frames = addrs.len().div_ceil(700) as u64;
        for frame_no in [0u64, 1, frames / 2, frames - 1, frames] {
            r.seek(frame_no).unwrap();
            let rest = r.decode_all().unwrap();
            let at = ((frame_no * 700) as usize).min(expect.len());
            assert_eq!(rest, &expect[at..], "frame {frame_no}");
        }
        // Past-the-end seeks fail cleanly (and latch).
        assert!(r.seek(frames + 1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seek_decodes_at_most_one_segment_before_target() {
        let addrs: Vec<u64> = (0..500_000u64).map(|i| i * 64).collect();
        let dir = tmp("seek-one-segment");
        write_segmented(&dir, &addrs, "lz", 1000);
        let mut r = AtcReader::open(&dir).unwrap();
        let table = load_seek_table(&dir, r.meta()).expect("sidecar written");
        assert!(table.len() >= 3, "need a multi-segment trace");

        // Seek deep into the trace: only the segment holding the target
        // may be decoded, not the ones in front of it.
        r.seek(400).unwrap();
        assert_eq!(r.segments_decoded(), Some(1));
        assert_eq!(r.decode().unwrap(), Some(addrs[400 * 1000]));
        assert!(
            r.segments_decoded().unwrap() <= 2,
            "target frame spans at most 2 segments"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seek_falls_back_linearly_without_sidecar() {
        let addrs: Vec<u64> = (0..120_000u64).map(|i| i.wrapping_mul(13)).collect();
        let dir = tmp("seek-fallback");
        write_segmented(&dir, &addrs, "lz", 1000);
        std::fs::remove_file(dir.join(format::SEEK_FILE)).unwrap();
        for threads in [1usize, 4] {
            let mut r = AtcReader::open_with(
                &dir,
                ReadOptions {
                    threads,
                    ..ReadOptions::default()
                },
            )
            .unwrap();
            r.seek(57).unwrap();
            let rest = r.decode_all().unwrap();
            assert_eq!(rest, &addrs[57_000..], "threads={threads}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seek_rejects_lossy_traces() {
        let dir = tmp("seek-lossy");
        let cfg = LossyConfig {
            interval_len: 100,
            ..LossyConfig::default()
        };
        let mut w = AtcWriter::with_options(
            &dir,
            Mode::Lossy(cfg),
            AtcOptions {
                codec: "store".into(),
                buffer: 50,
                threads: 1,
            },
        )
        .unwrap();
        w.code_all((0..250u64).map(|i| i * 8)).unwrap();
        w.finish().unwrap();
        let mut r = AtcReader::open(&dir).unwrap();
        assert!(r.seek(1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cached_reads_are_byte_identical_and_record_hits() {
        let addrs: Vec<u64> = (0..200_000u64).map(|i| i.wrapping_mul(0x517C)).collect();
        let dir = tmp("cached-reads");
        write_segmented(&dir, &addrs, "lz", 1000);
        let frames = 200u64;
        let meta =
            Meta::parse(&std::fs::read_to_string(dir.join(format::META_FILE)).unwrap()).unwrap();
        let table = load_seek_table(&dir, &meta).expect("sidecar written");
        assert!(table.len() >= 2, "multi-segment trace");
        // 8002-byte frames never tile a segment exactly: some frame
        // straddles every boundary.
        let frame_raw = FrameGeometry::new(&meta).unwrap().full_raw;
        assert!((1..table.len()).all(|i| !table.raw_start(i).is_multiple_of(frame_raw)));
        let cache = Arc::new(SegmentCache::new(64 << 20));
        let with_cache = || ReadOptions {
            segment_cache: Some(Arc::clone(&cache)),
            ..ReadOptions::default()
        };

        // Cold linear pass: one frame lookup (a miss) per frame, and every
        // sidecar segment decompressed exactly once — straddled ones too.
        let mut cold = AtcReader::open_with(&dir, with_cache()).unwrap();
        assert_eq!(cold.decode_all().unwrap(), addrs);
        assert_eq!(cold.segments_decoded(), Some(table.len() as u64));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, frames));
        assert_eq!(
            stats.bytes,
            addrs.len() as u64 * 8,
            "8 bytes per cached address"
        );

        // Warm pass: the very same frames out of the cache, one hit per
        // frame read and not a single segment decompressed.
        let mut warm = AtcReader::open_with(&dir, with_cache()).unwrap();
        let mut got = Vec::new();
        let mut read = 0u64;
        while let Some(frame) = warm.next_frame().unwrap() {
            got.extend_from_slice(frame);
            read += 1;
        }
        assert_eq!(got, addrs);
        assert_eq!(read, frames);
        assert_eq!(warm.segments_decoded(), Some(0), "every frame was cached");
        assert_eq!(cache.stats().hits, frames);
        assert_eq!(cache.stats().misses, frames, "no new misses");

        // Warm seeks decode nothing either: one lookup, one hit.
        let mut seeker = AtcReader::open_with(&dir, with_cache()).unwrap();
        seeker.seek(150).unwrap();
        assert_eq!(seeker.decode().unwrap(), Some(addrs[150_000]));
        assert_eq!(seeker.segments_decoded(), Some(0));
        assert_eq!(cache.stats().hits, frames + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decode_all_flat_matches_streaming() {
        let addrs: Vec<u64> = (0..250_000u64).map(|i| i.wrapping_mul(0xABCD)).collect();
        let dir = tmp("flat-decode");
        for codec in ["lz", "bzip", "store"] {
            write_segmented(&dir, &addrs, codec, 900);
            let mut streaming = AtcReader::open(&dir).unwrap();
            let expect = streaming.decode_all().unwrap();
            for threads in [1usize, 4] {
                let mut flat = AtcReader::open_with(
                    &dir,
                    ReadOptions {
                        threads,
                        ..ReadOptions::default()
                    },
                )
                .unwrap();
                assert_eq!(flat.decode_all_flat().unwrap(), expect, "{codec}/{threads}");
                // The reader is drained, not rewound.
                assert_eq!(flat.decode().unwrap(), None, "{codec}/{threads}");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn decode_all_flat_falls_back_without_sidecar() {
        let addrs: Vec<u64> = (0..50_000u64).map(|i| i * 3).collect();
        let dir = tmp("flat-fallback");
        write_segmented(&dir, &addrs, "lz", 500);
        std::fs::remove_file(dir.join(format::SEEK_FILE)).unwrap();
        let mut r = AtcReader::open(&dir).unwrap();
        assert_eq!(r.decode_all_flat().unwrap(), addrs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seek_then_next_frame_continues_borrowed_path() {
        let addrs: Vec<u64> = (0..100_000u64).map(|i| i * 7).collect();
        let dir = tmp("seek-frames");
        write_segmented(&dir, &addrs, "lz", 1000);
        let mut r = AtcReader::open(&dir).unwrap();
        r.seek(42).unwrap();
        let mut got = Vec::new();
        while let Some(frame) = r.next_frame().unwrap() {
            got.extend_from_slice(frame);
        }
        assert_eq!(got, &addrs[42_000..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_count_detected() {
        let dir = tmp("truncated");
        let mut w = AtcWriter::create(&dir, Mode::Lossless).unwrap();
        w.code_all((0..10u64).map(|i| i * 64)).unwrap();
        w.finish().unwrap();
        // Tamper: claim more addresses than stored.
        let meta_path = dir.join("meta");
        let text = std::fs::read_to_string(&meta_path).unwrap();
        std::fs::write(&meta_path, text.replace("count=10", "count=11")).unwrap();
        let mut r = AtcReader::open(&dir).unwrap();
        assert!(r.decode_all().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
