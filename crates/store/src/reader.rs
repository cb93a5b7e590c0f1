//! The sharded store reader: merged and per-shard cursors.

use std::ops::Range;
use std::path::{Path, PathBuf};

use atc_core::format::{shard_dir_name, StoreManifest, STORE_MANIFEST_FILE};
use atc_core::{AtcError, AtcReader, ReadOptions, Result};
use atc_engine::Engine;

use crate::policy::ShardPolicy;

/// How far the merge has consumed one shard's current frame. The frame
/// itself stays where the shard reader decoded it
/// ([`AtcReader::current_frame`]: its bytesort output, or the shared
/// cached frame), so merging never copies a whole frame out first.
#[derive(Debug, Default, Clone, Copy)]
struct ShardBuf {
    head: usize,
    len: usize,
}

impl ShardBuf {
    fn is_empty(&self) -> bool {
        self.head == self.len
    }

    /// Values of the frame not yet consumed.
    fn available(&self) -> usize {
        self.len - self.head
    }
}

/// How the merged cursor reassembles the global stream (decided once at
/// open from the policy and the manifest's interleave section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MergeMode {
    /// Round-robin: exact arrival order from the synthesized constant-run
    /// rotation — the degenerate interleave track that never needs to be
    /// recorded.
    Rotation,
    /// Exact arrival order replayed from the manifest's recorded
    /// [`InterleaveTrack`](atc_core::format::InterleaveTrack) (data-
    /// dependent policies, manifest version ≥ 2).
    Track,
    /// No track on disk (version-1 manifest under `addr-range` /
    /// `thread-id`): shards concatenate in shard order, the pre-track
    /// behavior.
    Concat,
}

/// A reader over a store written by [`AtcStore`](crate::AtcStore).
///
/// Two read shapes:
///
/// * **Merged** ([`StoreReader::decode`] / [`StoreReader::decode_all`]) —
///   one logical stream across all shards, replayed in the *exact*
///   original arrival order whenever the order is knowable: round-robin
///   derives it from the rotation, and every other policy replays the
///   manifest's recorded interleave track (manifest version ≥ 2). Only a
///   track-less old manifest under a data-dependent policy falls back to
///   shard *concatenation* (each shard's sub-stream stays exact, the
///   global interleaving is lost) — [`StoreReader::merge_is_exact`]
///   reports which shape this store gets.
/// * **Per-shard** ([`StoreReader::shard`] / [`StoreReader::into_shards`])
///   — direct access to each shard's [`AtcReader`] cursor, e.g. to fan
///   shards out to analysis threads.
///
/// Shard payloads refill through the zero-copy
/// [`AtcReader::next_frame`] path and are merged straight out of each
/// shard reader's current frame, so the merged cursor rides the
/// readahead reassembly buffers when [`ReadOptions::threads`] > 1 and
/// the shared cached frames when a [`ReadOptions::segment_cache`] is
/// set; every shard's decode tasks share one engine (injected through
/// [`ReadOptions::engine`], or the process-wide default).
///
/// The exact merged cursor is *batched*: instead of stepping one value at
/// a time through the per-shard buffers (a modulo or run lookup, a pop,
/// and a bounds check per address), it fills a flat merged buffer in bulk
/// — whole frame-sized rotations for round-robin, whole run slices for a
/// recorded track — so the per-value cost of the hot `decode()` loop is
/// an indexed read.
#[derive(Debug)]
pub struct StoreReader {
    manifest: StoreManifest,
    policy: ShardPolicy,
    mode: MergeMode,
    shards: Vec<AtcReader>,
    /// Per-shard consume cursors into each reader's current frame.
    bufs: Vec<ShardBuf>,
    /// Bulk-merged values awaiting hand-out (exact merge modes only).
    merged: Vec<u64>,
    /// Cursor into `merged`.
    merged_pos: usize,
    /// Batched merging on/off (see [`StoreReader::merge_batching`]).
    batch: bool,
    /// Addresses handed out by the merged cursor.
    produced: u64,
    /// Current shard for shard-ordered (concatenation) merging.
    cursor: usize,
    /// Recorded interleave runs ([`MergeMode::Track`] only).
    runs: Vec<(u32, u64)>,
    /// Current run in `runs`.
    run_idx: usize,
    /// Values already replayed from the current run.
    run_off: u64,
    /// Whether the end-of-store drain check already passed.
    end_verified: bool,
}

impl StoreReader {
    /// Opens a store root with default [`ReadOptions`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`StoreReader::open_with`].
    pub fn open<P: AsRef<Path>>(root: P) -> Result<Self> {
        Self::open_with(root, ReadOptions::default())
    }

    /// Opens a store root. `options.chunk_cache` applies to every shard
    /// reader; `options.threads` is the store's *total* decompression
    /// parallelism: all shard readers submit their decode tasks to **one
    /// shared engine** with that many workers (injected through
    /// [`ReadOptions::engine`], or the process-wide default grown to
    /// `threads`), so a drained shard's capacity serves the shards still
    /// decoding instead of sitting behind a static per-shard split. With
    /// `threads <= 1` every shard reads serially and no pipeline spawns
    /// at all.
    ///
    /// # Errors
    ///
    /// Fails if the manifest is missing/malformed, names an unknown
    /// policy, or any shard trace fails to open.
    pub fn open_with<P: AsRef<Path>>(root: P, options: ReadOptions) -> Result<Self> {
        let root: PathBuf = root.as_ref().to_path_buf();
        let manifest_text =
            std::fs::read_to_string(root.join(STORE_MANIFEST_FILE)).map_err(|e| {
                AtcError::Format(format!(
                    "cannot read {}/{STORE_MANIFEST_FILE}: {e}",
                    root.display()
                ))
            })?;
        let manifest = StoreManifest::parse(&manifest_text)?;
        let policy = ShardPolicy::parse(&manifest.policy).ok_or_else(|| {
            AtcError::Format(format!("unknown shard policy {:?}", manifest.policy))
        })?;
        // One engine for every shard's decode tasks (None stays None for
        // the serial path, where no tasks are submitted at all).
        let engine = (options.threads > 1).then(|| {
            options
                .engine
                .clone()
                .unwrap_or_else(|| Engine::global_with(options.threads))
        });
        let shards = (0..manifest.shards())
            .map(|i| {
                AtcReader::open_with(
                    root.join(shard_dir_name(i)),
                    ReadOptions {
                        engine: engine.clone(),
                        ..options.clone()
                    },
                )
            })
            .collect::<Result<Vec<_>>>()?;
        // The manifest's per-shard counts must agree with what each shard
        // records about itself — a tampered manifest whose counts merely
        // sum correctly would otherwise make `stat` (and the merge
        // bookkeeping) report fabricated numbers.
        for (i, shard) in shards.iter().enumerate() {
            if shard.meta().count != manifest.shard_counts[i] {
                return Err(AtcError::Format(format!(
                    "manifest says shard {i} holds {} addresses, its trace says {}",
                    manifest.shard_counts[i],
                    shard.meta().count
                )));
            }
        }
        let bufs = vec![ShardBuf::default(); shards.len()];
        // Merge-mode table (also in docs/ARCHITECTURE.md): round-robin is
        // always exact (synthesized rotation); other policies are exact
        // when the manifest recorded the interleave track, and fall back
        // to concatenation for old track-less manifests.
        let (mode, runs) = if policy.merge_is_exact() {
            (MergeMode::Rotation, Vec::new())
        } else if let Some(track) = &manifest.interleave {
            // The track was validated against shard_counts at parse time,
            // and shard_counts against each shard's meta above, so every
            // run below names a real shard holding enough addresses.
            (MergeMode::Track, track.runs().to_vec())
        } else {
            (MergeMode::Concat, Vec::new())
        };
        Ok(Self {
            manifest,
            policy,
            mode,
            shards,
            bufs,
            merged: Vec::new(),
            merged_pos: 0,
            batch: true,
            produced: 0,
            cursor: 0,
            runs,
            run_idx: 0,
            run_off: 0,
            end_verified: false,
        })
    }

    /// Enables or disables bulk merging (on by default) for the exact
    /// merge modes. Off, the merged cursor steps one value at a time
    /// through the per-shard buffers — the pre-batching behavior, kept as
    /// a reference for the `store` bench's `read_stepwise` axis and for
    /// debugging. Both modes produce identical values.
    pub fn merge_batching(&mut self, enabled: bool) {
        self.batch = enabled;
    }

    /// Whether the merged cursor replays the exact global arrival order.
    /// `true` for round-robin and for any store whose manifest carries
    /// the interleave track; `false` only for track-less old manifests
    /// under `addr-range` / `thread-id`, which merge as shard
    /// concatenation.
    pub fn merge_is_exact(&self) -> bool {
        self.mode != MergeMode::Concat
    }

    /// The store manifest.
    pub fn manifest(&self) -> &StoreManifest {
        &self.manifest
    }

    /// The routing policy recorded in the manifest.
    pub fn policy(&self) -> ShardPolicy {
        self.policy
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard cursor for shard `index`.
    ///
    /// Reading through it advances that shard; the merged cursor and the
    /// per-shard cursors share position, so use one shape per reader.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.shards()`.
    pub fn shard(&mut self, index: usize) -> &mut AtcReader {
        &mut self.shards[index]
    }

    /// Splits the store into its per-shard cursors (shard 0 first), e.g.
    /// to hand each shard to its own analysis thread.
    pub fn into_shards(self) -> Vec<AtcReader> {
        self.shards
    }

    /// Decodes the next merged value; `Ok(None)` at clean end of store.
    ///
    /// # Errors
    ///
    /// Propagates shard reader errors, and reports a store whose shards
    /// end before — or hold data beyond — the manifest's count.
    pub fn decode(&mut self) -> Result<Option<u64>> {
        self.next_value(usize::MAX)
    }

    /// [`StoreReader::decode`], with a bulk refill of the merged buffer
    /// capped near `limit` values (what the caller still needs).
    fn next_value(&mut self, limit: usize) -> Result<Option<u64>> {
        // Fast path: hand out bulk-merged values from the merged buffer.
        if self.merged_pos < self.merged.len() {
            return Ok(Some(self.take_merged()));
        }
        if self.produced == self.manifest.count {
            self.verify_drained()?;
            return Ok(None);
        }
        let shard_count = self.shards.len() as u64;
        let shard = match self.mode {
            MergeMode::Rotation => {
                if self.batch
                    && self.produced.is_multiple_of(shard_count)
                    && self.manifest.count - self.produced >= shard_count
                {
                    // Batched rotation: zip whole frame-sized rotations
                    // across the shards instead of stepping one value at
                    // a time.
                    self.refill_rotation_zipper(limit)?;
                    return Ok(Some(self.take_merged()));
                }
                // Deal back in the writer's rotation (the unbatched path:
                // batching off, or the final partial rotation).
                (self.produced % shard_count) as usize
            }
            MergeMode::Track => {
                if self.batch {
                    // Batched replay: copy whole run slices into the
                    // merged buffer.
                    self.refill_track_zipper(limit)?;
                    return Ok(Some(self.take_merged()));
                }
                self.track_shard()
            }
            MergeMode::Concat => {
                // Shard-ordered concatenation: advance past drained
                // shards.
                while self.cursor < self.shards.len()
                    && self.bufs[self.cursor].is_empty()
                    && !self.refill(self.cursor)?
                {
                    self.cursor += 1;
                }
                if self.cursor == self.shards.len() {
                    return Err(AtcError::Format(format!(
                        "store ended after {} of {} addresses",
                        self.produced, self.manifest.count
                    )));
                }
                self.cursor
            }
        };
        while self.bufs[shard].is_empty() {
            if !self.refill(shard)? {
                return Err(AtcError::Format(format!(
                    "shard {shard} ended after {} of {} store addresses",
                    self.produced, self.manifest.count
                )));
            }
        }
        let v =
            self.unmerged(shard).first().copied().ok_or_else(|| {
                AtcError::Format(format!("shard {shard} lost its frame mid-merge"))
            })?;
        self.bufs[shard].head += 1;
        self.produced += 1;
        if self.mode == MergeMode::Track {
            // Only consume the track position once the value is really
            // handed out (a refill error above must not skip a slot).
            self.run_off += 1;
        }
        Ok(Some(v))
    }

    /// Decodes the remainder of the merged stream into a vector.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`StoreReader::decode`].
    pub fn decode_all(&mut self) -> Result<Vec<u64>> {
        let remaining = self.manifest.count.saturating_sub(self.produced);
        let mut out = Vec::with_capacity(remaining.min(1 << 24) as usize);
        self.fill(&mut out, remaining)?;
        // At the manifest count decode() runs the end-of-store drain check.
        self.decode()?;
        Ok(out)
    }

    /// Appends exactly the next `n` merged values to `out`, bulk-copying
    /// zipped blocks capped at what is still needed.
    fn fill(&mut self, out: &mut Vec<u64>, n: u64) -> Result<()> {
        let mut need = n;
        while need > 0 {
            if self.merged_pos == self.merged.len() {
                let cap = usize::try_from(need).unwrap_or(usize::MAX);
                let v = self.next_value(cap)?.ok_or_else(|| {
                    AtcError::Format(format!(
                        "store ended after {} of {} addresses",
                        self.produced, self.manifest.count
                    ))
                })?;
                out.push(v);
                need -= 1;
                continue;
            }
            let take = (self.merged.len() - self.merged_pos).min(need as usize);
            out.extend_from_slice(&self.merged[self.merged_pos..self.merged_pos + take]);
            self.merged_pos += take;
            self.produced += take as u64;
            need -= take as u64;
        }
        Ok(())
    }

    /// Repositions the merged cursor to global position `pos` (the next
    /// `decode` returns the store's `pos`-th address) without decoding
    /// the stream in front of it: the target is translated into a
    /// per-shard consumed count — a division for round-robin, a prefix
    /// walk over the recorded interleave runs, cumulative shard counts
    /// for the concatenation fallback — and each shard then seeks its
    /// own trace through [`AtcReader::seek`]'s sidecar fast path and
    /// skips the in-frame remainder by offset into its next frame. With
    /// a warm [`ReadOptions::segment_cache`] that costs no decoding at
    /// all. For a recorded interleave track the run cursor is restored
    /// mid-run, so replay continues exactly where the writer was.
    ///
    /// # Errors
    ///
    /// Fails on targets past the manifest count and on shard seek
    /// errors (e.g. lossy shards, which are not frame-addressable).
    pub fn seek_to(&mut self, pos: u64) -> Result<()> {
        if pos > self.manifest.count {
            return Err(AtcError::Format(format!(
                "seek target {pos} is past the store's {} addresses",
                self.manifest.count
            )));
        }
        let n = self.shards.len() as u64;
        let mut consumed = vec![0u64; self.shards.len()];
        let mut run_idx = 0usize;
        let mut run_off = 0u64;
        match self.mode {
            MergeMode::Rotation => {
                for (i, c) in consumed.iter_mut().enumerate() {
                    *c = pos / n + u64::from((i as u64) < pos % n);
                }
            }
            MergeMode::Track => {
                let mut acc = 0u64;
                run_idx = self.runs.len();
                for (i, &(shard, len)) in self.runs.iter().enumerate() {
                    if acc + len <= pos {
                        consumed[shard as usize] += len;
                        acc += len;
                        continue;
                    }
                    consumed[shard as usize] += pos - acc;
                    run_idx = i;
                    run_off = pos - acc;
                    break;
                }
            }
            MergeMode::Concat => {
                let mut remaining = pos;
                self.cursor = self.shards.len();
                for (i, &c) in self.manifest.shard_counts.iter().enumerate() {
                    if remaining >= c {
                        consumed[i] = c;
                        remaining -= c;
                    } else {
                        consumed[i] = remaining;
                        self.cursor = i;
                        break;
                    }
                }
            }
        }
        for (i, &target) in consumed.iter().enumerate() {
            let buffer = self.shards[i].meta().buffer.max(1);
            self.shards[i].seek(target / buffer)?;
            self.bufs[i] = ShardBuf::default();
            // Skip the in-frame remainder by offset: the frame's tail
            // merges out first.
            let skip = (target % buffer) as usize;
            if skip > 0 {
                if !self.refill(i)? || self.bufs[i].len < skip {
                    return Err(AtcError::Format(format!(
                        "shard {i} ended while seeking to its address {target}"
                    )));
                }
                self.bufs[i].head = skip;
            }
        }
        self.merged.clear();
        self.merged_pos = 0;
        self.run_idx = run_idx;
        self.run_off = run_off;
        self.produced = pos;
        self.end_verified = false;
        Ok(())
    }

    /// Reads the half-open global range `range` of the merged stream:
    /// [`StoreReader::seek_to`] the start, then decode exactly
    /// `range.end - range.start` values. The result is byte-identical to
    /// that slice of a full linear [`StoreReader::decode_all`].
    ///
    /// # Errors
    ///
    /// Fails on inverted or out-of-bounds ranges and on anything
    /// [`StoreReader::seek_to`] / [`StoreReader::decode`] can fail on.
    pub fn read_range(&mut self, range: Range<u64>) -> Result<Vec<u64>> {
        let mut out = Vec::new();
        self.read_range_chunked(range, usize::MAX, |chunk| {
            out.extend_from_slice(chunk);
            Ok(())
        })?;
        Ok(out)
    }

    /// [`StoreReader::read_range`], handing the values to `sink` in
    /// chunks of at most `chunk_values` (clamped to at least 1) so a
    /// caller can bound its decoded-but-unconsumed memory however large
    /// the range is. A `sink` error aborts the read and propagates.
    ///
    /// # Errors
    ///
    /// Fails on inverted or out-of-bounds ranges (before any chunk is
    /// produced), on anything [`StoreReader::seek_to`] /
    /// [`StoreReader::decode`] can fail on, and on `sink` errors.
    pub fn read_range_chunked<F>(
        &mut self,
        range: Range<u64>,
        chunk_values: usize,
        mut sink: F,
    ) -> Result<()>
    where
        F: FnMut(&[u64]) -> Result<()>,
    {
        if range.start > range.end || range.end > self.manifest.count {
            return Err(AtcError::Format(format!(
                "range {}..{} does not fit the store's {} addresses",
                range.start, range.end, self.manifest.count
            )));
        }
        self.seek_to(range.start)?;
        let chunk_values = chunk_values.max(1) as u64;
        let mut remaining = range.end - range.start;
        let mut chunk = Vec::with_capacity(remaining.min(chunk_values).min(1 << 24) as usize);
        while remaining > 0 {
            let n = remaining.min(chunk_values);
            chunk.clear();
            self.fill(&mut chunk, n)?;
            sink(&chunk)?;
            remaining -= n;
        }
        Ok(())
    }

    /// The part of `shard`'s current frame not yet merged out.
    fn unmerged(&self, shard: usize) -> &[u64] {
        let buf = self.bufs[shard];
        self.shards[shard]
            .current_frame()
            .get(buf.head..buf.len)
            .unwrap_or(&[])
    }

    /// Hands out the next bulk-merged value (caller ensured one exists).
    fn take_merged(&mut self) -> u64 {
        let v = self.merged[self.merged_pos];
        self.merged_pos += 1;
        self.produced += 1;
        v
    }

    /// The shard owning the next value according to the recorded
    /// interleave track, skipping completed runs.
    fn track_shard(&mut self) -> usize {
        loop {
            let (shard, len) = self.runs[self.run_idx];
            if self.run_off < len {
                return shard as usize;
            }
            self.run_idx += 1;
            self.run_off = 0;
        }
    }

    /// Replays whole run slices from the recorded track into the flat
    /// merged buffer: each step bulk-copies `min(run remainder, shard
    /// buffer)` values, refilling a shard only when the merged buffer is
    /// still empty (so a value already decoded is never held hostage to
    /// another shard's I/O). Stops near `limit` values.
    fn refill_track_zipper(&mut self, limit: usize) -> Result<()> {
        /// Merged values per refill — frame-order magnitude, so the hot
        /// loop amortizes run bookkeeping the way the rotation zipper
        /// amortizes the modulo.
        const TARGET: usize = 4096;
        let target = TARGET.min(limit).max(1);
        debug_assert_eq!(self.merged_pos, self.merged.len(), "merged drained");
        self.merged.clear();
        self.merged_pos = 0;
        while self.merged.len() < target {
            let Some(&(shard, len)) = self.runs.get(self.run_idx) else {
                break;
            };
            if self.run_off == len {
                self.run_idx += 1;
                self.run_off = 0;
                continue;
            }
            let shard = shard as usize;
            if self.bufs[shard].is_empty() {
                if !self.merged.is_empty() {
                    // Hand out what we already merged; the refill happens
                    // on the next call.
                    break;
                }
                if !self.refill(shard)? {
                    return Err(AtcError::Format(format!(
                        "shard {shard} ended after {} of {} store addresses",
                        self.produced, self.manifest.count
                    )));
                }
            }
            let take = (len - self.run_off)
                .min((target - self.merged.len()) as u64)
                .min(self.bufs[shard].available() as u64) as usize;
            let Self {
                shards,
                bufs,
                merged,
                ..
            } = self;
            let head = bufs[shard].head;
            merged.extend_from_slice(&shards[shard].current_frame()[head..head + take]);
            bufs[shard].head += take;
            self.run_off += take as u64;
        }
        if self.merged.is_empty() {
            // Unreachable for a validated track (run lengths sum to the
            // manifest count, and the caller checked addresses remain);
            // kept as a hard error rather than an index panic.
            return Err(AtcError::Format(format!(
                "interleave track ended after {} of {} store addresses",
                self.produced, self.manifest.count
            )));
        }
        Ok(())
    }

    /// Zips whole rotations (one value per shard, in rotation order) into
    /// the flat merged buffer: `m = min(values buffered per shard)`
    /// rotations at a time — frame-sized in the steady state — capped by
    /// the rotations remaining in the store and by the rotations needed
    /// to cover `limit` values.
    fn refill_rotation_zipper(&mut self, limit: usize) -> Result<()> {
        let shard_count = self.shards.len();
        let mut m = usize::MAX;
        for shard in 0..shard_count {
            while self.bufs[shard].is_empty() {
                if !self.refill(shard)? {
                    return Err(AtcError::Format(format!(
                        "shard {shard} ended after {} of {} store addresses",
                        self.produced, self.manifest.count
                    )));
                }
            }
            m = m.min(self.bufs[shard].available());
        }
        let remaining_rotations = (self.manifest.count - self.produced) / shard_count as u64;
        let m = m
            .min(remaining_rotations.min(usize::MAX as u64) as usize)
            .min(limit.div_ceil(shard_count).max(1));
        debug_assert!(m >= 1, "caller checked a full rotation remains");
        let Self {
            shards,
            bufs,
            merged,
            merged_pos,
            ..
        } = self;
        merged.clear();
        merged.resize(m * shard_count, 0);
        *merged_pos = 0;
        // Strided transpose: each shard's slice is read sequentially and
        // scattered to its rotation lane in one pass.
        for (s, (reader, buf)) in shards.iter().zip(bufs.iter_mut()).enumerate() {
            let slice = &reader.current_frame()[buf.head..buf.head + m];
            let mut idx = s;
            for &v in slice {
                merged[idx] = v;
                idx += shard_count;
            }
            buf.head += m;
        }
        Ok(())
    }

    /// Confirms every shard is exactly drained once the manifest's count
    /// has been handed out: leftover data means the manifest undercounts
    /// (the mirror of the "ended early" checks), and silently dropping
    /// it would hide tampering or truncated-manifest bugs.
    fn verify_drained(&mut self) -> Result<()> {
        if self.end_verified {
            return Ok(());
        }
        for shard in 0..self.shards.len() {
            if !self.bufs[shard].is_empty() || self.refill(shard)? {
                return Err(AtcError::Format(format!(
                    "shard {shard} holds addresses beyond the manifest count {}",
                    self.manifest.count
                )));
            }
        }
        self.end_verified = true;
        Ok(())
    }

    /// Advances `shard` to its next frame (its merge buffer must be
    /// drained); `Ok(false)` at that shard's clean end.
    fn refill(&mut self, shard: usize) -> Result<bool> {
        // Empty frames are legal in the format (never written by the
        // store): keep pulling so one never masquerades as end-of-shard.
        loop {
            let len = self.shards[shard].next_frame()?.map(<[u64]>::len);
            self.bufs[shard] = ShardBuf {
                head: 0,
                len: len.unwrap_or(0),
            };
            match len {
                Some(0) => continue,
                Some(_) => return Ok(true),
                None => return Ok(false),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{AtcStore, StoreOptions};
    use atc_core::{AtcOptions, LossyConfig, Mode};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("atc-store-r-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts(shards: usize, policy: ShardPolicy, threads: usize) -> StoreOptions {
        StoreOptions {
            shards,
            policy,
            atc: AtcOptions {
                codec: "bzip".into(),
                buffer: 500,
                threads,
            },
            max_buffered_bytes: None,
        }
    }

    #[test]
    fn round_robin_merged_read_is_exact() {
        let addrs: Vec<u64> = (0..7001u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        for shards in [1usize, 2, 5] {
            let root = tmp(&format!("rr-{shards}"));
            let mut s = AtcStore::create(
                &root,
                Mode::Lossless,
                opts(shards, ShardPolicy::RoundRobin, 1),
            )
            .unwrap();
            s.code_all(addrs.iter().copied()).unwrap();
            s.finish().unwrap();
            let mut r = StoreReader::open(&root).unwrap();
            assert_eq!(r.shards(), shards);
            assert_eq!(r.decode_all().unwrap(), addrs, "shards={shards}");
            assert_eq!(r.decode().unwrap(), None, "end is sticky");
            std::fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn addr_range_merged_read_replays_exact_interleave() {
        // Two regions interleaved; addr-range routing splits them apart,
        // and the recorded interleave track zips them back in the exact
        // arrival order — in both the batched and stepwise merge modes.
        let root = tmp("ar");
        let mut s = AtcStore::create(
            &root,
            Mode::Lossless,
            opts(2, ShardPolicy::AddressRange { shift: 16 }, 1),
        )
        .unwrap();
        let mut expect = Vec::new();
        for i in 0..2000u64 {
            let a = i * 8; // region 0
            let b = (1 << 16) + i * 8; // region 1
            s.code(a).unwrap();
            s.code(b).unwrap();
            expect.push(a);
            expect.push(b);
        }
        s.finish().unwrap();
        let mut r = StoreReader::open(&root).unwrap();
        assert!(r.merge_is_exact(), "recorded track makes the merge exact");
        assert_eq!(r.decode_all().unwrap(), expect);
        assert_eq!(r.decode().unwrap(), None, "end is sticky");
        let mut stepwise = StoreReader::open(&root).unwrap();
        stepwise.merge_batching(false);
        assert_eq!(stepwise.decode_all().unwrap(), expect);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn thread_id_merged_read_replays_exact_interleave() {
        let root = tmp("tid-exact");
        let mut s =
            AtcStore::create(&root, Mode::Lossless, opts(3, ShardPolicy::ThreadId, 1)).unwrap();
        let mut expect = Vec::new();
        for i in 0..500u64 {
            // Bursty keys so runs have varied lengths.
            let key = (i / 7) % 5;
            let addr = 0x9000 + i * 8;
            s.code_from(key, addr).unwrap();
            expect.push(addr);
        }
        s.finish().unwrap();
        let mut r = StoreReader::open(&root).unwrap();
        assert!(r.merge_is_exact());
        assert_eq!(r.decode_all().unwrap(), expect);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn old_manifest_without_track_reads_as_concatenation() {
        // Strip the interleave section and rewind the version — the
        // fixture for stores packed before the track existed. The reader
        // must fall back to shard concatenation (each shard exact, global
        // order lost) instead of refusing the store.
        let root = tmp("old-manifest");
        let mut s = AtcStore::create(
            &root,
            Mode::Lossless,
            opts(2, ShardPolicy::AddressRange { shift: 16 }, 1),
        )
        .unwrap();
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        for i in 0..1500u64 {
            let a = i * 8; // region 0 -> shard 0
            let b = (1 << 16) + i * 8; // region 1 -> shard 1
            s.code(a).unwrap();
            s.code(b).unwrap();
            lo.push(a);
            hi.push(b);
        }
        s.finish().unwrap();
        let path = root.join(STORE_MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("interleave="), "new manifests carry a track");
        let old: String = text
            .lines()
            .filter(|l| !l.starts_with("interleave="))
            .map(|l| {
                if l.starts_with("version=") {
                    "version=1".to_string()
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        std::fs::write(&path, old).unwrap();
        let mut r = StoreReader::open(&root).unwrap();
        assert!(!r.merge_is_exact(), "track-less store merges by shard");
        let mut expect = lo.clone();
        expect.extend(&hi);
        assert_eq!(r.decode_all().unwrap(), expect);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn per_shard_cursors_see_their_substreams() {
        let root = tmp("cursors");
        let mut s =
            AtcStore::create(&root, Mode::Lossless, opts(3, ShardPolicy::ThreadId, 1)).unwrap();
        for i in 0..300u64 {
            s.code_from(i % 3, 0x4000 + i).unwrap();
        }
        s.finish().unwrap();
        let mut r = StoreReader::open(&root).unwrap();
        for shard in 0..3 {
            let expect: Vec<u64> = (0..300u64)
                .filter(|i| i % 3 == shard)
                .map(|i| 0x4000 + i)
                .collect();
            assert_eq!(r.shard(shard as usize).decode_all().unwrap(), expect);
        }
        // into_shards hands out independent readers.
        let r2 = StoreReader::open(&root).unwrap();
        let mut shards = r2.into_shards();
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[1].decode_all().unwrap().len(), 100);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn range_reads_match_linear_slices_for_every_policy() {
        // The acceptance shape: for each shard policy, read_range(A..B)
        // must be byte-identical to the same slice of the full linear
        // merged decode — including ranges starting mid-frame, mid-run,
        // and mid-rotation.
        let policies = [
            ("rr", ShardPolicy::RoundRobin),
            ("ar", ShardPolicy::AddressRange { shift: 14 }),
            ("tid", ShardPolicy::ThreadId),
        ];
        for (tag, policy) in policies {
            let root = tmp(&format!("range-{tag}"));
            let mut s = AtcStore::create(&root, Mode::Lossless, opts(3, policy, 1)).unwrap();
            for i in 0..20_000u64 {
                // Bursty keys and spread addresses so runs and ranges vary.
                s.code_from((i / 11) % 7, (i % 5) << 14 | (i * 8)).unwrap();
            }
            s.finish().unwrap();

            let mut linear = StoreReader::open(&root).unwrap();
            let expect = linear.decode_all().unwrap();

            let mut r = StoreReader::open(&root).unwrap();
            let count = expect.len() as u64;
            let ranges = [
                (0u64, 100u64),
                (1, 502),
                (777, 3003),
                (count / 2 - 1, count / 2 + 1777),
                (count - 499, count),
                (count, count),
            ];
            for (a, b) in ranges {
                let got = r.read_range(a..b).unwrap();
                assert_eq!(got, &expect[a as usize..b as usize], "{tag} range {a}..{b}");
            }
            // Ranges can revisit earlier positions (the reader re-seeks).
            assert_eq!(r.read_range(5..25).unwrap(), &expect[5..25], "{tag}");
            let inverted = std::ops::Range { start: 3, end: 1 };
            assert!(r.read_range(inverted).is_err(), "{tag} inverted range");
            assert!(r.read_range(0..count + 1).is_err(), "{tag} out of bounds");
            std::fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn range_reads_work_on_trackless_concat_stores() {
        // Old-manifest fallback: strip the track, rewind the version, and
        // range-read the concatenation order.
        let root = tmp("range-concat");
        let mut s = AtcStore::create(
            &root,
            Mode::Lossless,
            opts(2, ShardPolicy::AddressRange { shift: 16 }, 1),
        )
        .unwrap();
        for i in 0..3000u64 {
            s.code(i * 8).unwrap();
            s.code((1 << 16) + i * 8).unwrap();
        }
        s.finish().unwrap();
        let path = root.join(STORE_MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let old: String = text
            .lines()
            .filter(|l| !l.starts_with("interleave="))
            .map(|l| {
                if l.starts_with("version=") {
                    "version=1".to_string()
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        std::fs::write(&path, old).unwrap();

        let mut linear = StoreReader::open(&root).unwrap();
        let expect = linear.decode_all().unwrap();
        let mut r = StoreReader::open(&root).unwrap();
        for (a, b) in [(0u64, 64u64), (2999, 3001), (3100, 5500), (5999, 6000)] {
            assert_eq!(
                r.read_range(a..b).unwrap(),
                &expect[a as usize..b as usize],
                "range {a}..{b}"
            );
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn seek_to_then_decode_continues_to_end() {
        let root = tmp("seek-continue");
        let mut s =
            AtcStore::create(&root, Mode::Lossless, opts(3, ShardPolicy::ThreadId, 1)).unwrap();
        for i in 0..9000u64 {
            s.code_from(i % 4, 0x1000 + i * 16).unwrap();
        }
        s.finish().unwrap();
        let mut linear = StoreReader::open(&root).unwrap();
        let expect = linear.decode_all().unwrap();

        let mut r = StoreReader::open(&root).unwrap();
        r.seek_to(4321).unwrap();
        let rest = r.decode_all().unwrap();
        assert_eq!(rest, &expect[4321..]);
        // Clean end after a seek still passes the drain check.
        assert_eq!(r.decode().unwrap(), None);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn lossy_store_roundtrips_stationary_trace() {
        // Lossy shards: each shard sees a stationary sub-stream, so every
        // shard collapses to imitations — the store composes with the
        // paper's phase machinery unchanged.
        let root = tmp("lossy");
        let interval: Vec<u64> = (0..200u64).map(|i| i * 64).collect();
        let cfg = LossyConfig {
            interval_len: 200,
            ..LossyConfig::default()
        };
        let mut s = AtcStore::create(
            &root,
            Mode::Lossy(cfg),
            StoreOptions {
                shards: 2,
                policy: ShardPolicy::RoundRobin,
                atc: AtcOptions {
                    codec: "store".into(),
                    buffer: 128,
                    threads: 1,
                },
                max_buffered_bytes: None,
            },
        )
        .unwrap();
        let mut expect = Vec::new();
        for _ in 0..8 {
            s.code_all(interval.iter().copied()).unwrap();
            expect.extend(&interval);
        }
        let stats = s.finish().unwrap();
        assert_eq!(stats.count, 1600);
        let mut r = StoreReader::open(&root).unwrap();
        assert_eq!(r.decode_all().unwrap(), expect);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn open_rejects_missing_or_bad_manifest() {
        assert!(StoreReader::open("/nonexistent/store/root").is_err());
        let root = tmp("badpolicy");
        let s = AtcStore::create(&root, Mode::Lossless, StoreOptions::default()).unwrap();
        s.finish().unwrap();
        let path = root.join(STORE_MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("round-robin", "mystery")).unwrap();
        assert!(StoreReader::open(&root).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn undercounted_manifest_detected() {
        // Tamper the manifest to claim one *fewer* address per shard (sum
        // check still passes): open must reject the manifest/meta
        // disagreement rather than let the tail values be dropped.
        let root = tmp("undercount");
        let mut s =
            AtcStore::create(&root, Mode::Lossless, opts(2, ShardPolicy::RoundRobin, 1)).unwrap();
        s.code_all(0..10u64).unwrap();
        s.finish().unwrap();
        let path = root.join(STORE_MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            text.replace("count=10", "count=8")
                .replace("shard_counts=5,5", "shard_counts=4,4"),
        )
        .unwrap();
        assert!(StoreReader::open(&root).is_err());

        // Deeper tamper: shard metas adjusted to match the shrunken
        // manifest, so open's cross-check passes — the end-of-store drain
        // check must still refuse to silently drop the real tail data.
        for shard in 0..2 {
            let meta_path = root.join(shard_dir_name(shard)).join("meta");
            let meta_text = std::fs::read_to_string(&meta_path).unwrap();
            std::fs::write(&meta_path, meta_text.replace("count=5", "count=4")).unwrap();
        }
        let mut r = StoreReader::open(&root).unwrap();
        assert!(r.decode_all().is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncated_shard_detected() {
        // Tamper with the manifest to claim one more address than stored:
        // open must reject the manifest/meta disagreement.
        let root = tmp("truncated");
        let mut s =
            AtcStore::create(&root, Mode::Lossless, opts(2, ShardPolicy::RoundRobin, 1)).unwrap();
        s.code_all(0..10u64).unwrap();
        s.finish().unwrap();
        let path = root.join(STORE_MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            text.replace("count=10", "count=11")
                .replace("shard_counts=5,5", "shard_counts=6,5"),
        )
        .unwrap();
        assert!(StoreReader::open(&root).is_err());

        // Deeper tamper: shard 0's meta inflated to match, so open's
        // cross-check passes — the shard reader's own end-of-trace check
        // must still catch the shortfall mid-merge.
        let meta_path = root.join(shard_dir_name(0)).join("meta");
        let meta_text = std::fs::read_to_string(&meta_path).unwrap();
        std::fs::write(&meta_path, meta_text.replace("count=5", "count=6")).unwrap();
        let mut r = StoreReader::open(&root).unwrap();
        assert!(r.decode_all().is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
