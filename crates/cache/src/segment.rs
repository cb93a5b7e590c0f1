//! Process-wide decoded-frame cache for the random-access read path.
//!
//! The paper's bytesort inverse rebuilds a whole buffer of `B`
//! addresses at once — each column is ordered by the bytes before it, so
//! no slice of a frame decodes on its own. A cache of raw codec segments
//! would therefore still pay the full inverse on every warm read. The
//! shared [`SegmentCache`] holds what readers actually consume instead:
//! **bytesort-decoded frames**. When N concurrent readers hammer the
//! same hot trace (the access pattern of a trace-serving daemon or
//! SimPoint-style sampling), a frame one of them decoded is a pointer
//! clone for all the others — no decompression, no inverse.
//!
//! Entries are keyed by `(trace_id, frame_no)` — [`trace_id`] hashes the
//! canonicalized trace directory path, so two readers of the same
//! directory agree on the key while distinct traces never collide in
//! practice — and hold the frame's addresses as an `Arc<[u64]>`. Every
//! lookup is one frame lookup: `hits` and `misses` count frames.
//!
//! Capacity is bytes, not entries (8 bytes per cached address),
//! accounted through the same [`ByteBudget`] the write pipeline uses for
//! its buffering gate: least-recently-used entries are evicted until an
//! insert fits, and an entry larger than the whole cap bypasses the
//! cache entirely (caching it would evict everything for one reader's
//! benefit). Hit, miss, and eviction counters are exposed for
//! `atcstat`/`atcstore stat`.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use atc_codec::ByteBudget;

/// Cache key: `(trace_id, frame_no)` (see [`trace_id`]).
pub type FrameKey = (u64, u64);

/// Default byte capacity of the process-wide cache ([`SegmentCache::global`]).
pub const DEFAULT_SEGMENT_CACHE_BYTES: u64 = 256 << 20;

/// Counter snapshot of a [`SegmentCache`] (see [`SegmentCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentCacheStats {
    /// Frame lookups served from the cache.
    pub hits: u64,
    /// Frame lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Decoded bytes currently held (8 per cached address).
    pub bytes: u64,
    /// Configured byte capacity.
    pub cap: u64,
}

impl SegmentCacheStats {
    /// Counter deltas accumulated since `base` was snapshotted (gauges —
    /// `bytes`, `cap` — are taken from `self` as-is).
    ///
    /// This is how long-lived services report *their* cache traffic off
    /// a shared cache: snapshot at start, subtract on report. Counters
    /// are monotonic, but `saturating_sub` keeps a mismatched baseline
    /// (e.g. from a different cache instance) from panicking in debug
    /// builds.
    #[must_use]
    pub fn since(&self, base: &SegmentCacheStats) -> SegmentCacheStats {
        SegmentCacheStats {
            hits: self.hits.saturating_sub(base.hits),
            misses: self.misses.saturating_sub(base.misses),
            evictions: self.evictions.saturating_sub(base.evictions),
            bytes: self.bytes,
            cap: self.cap,
        }
    }
}

/// Byte cost of a cached frame.
fn frame_bytes(frame: &[u64]) -> u64 {
    frame.len() as u64 * 8
}

/// The LRU index: entries by key, plus a recency order (oldest stamp
/// first) so both lookups and evictions stay logarithmic however many
/// small frames the budget holds.
#[derive(Debug, Default)]
struct Lru {
    entries: HashMap<FrameKey, (Arc<[u64]>, u64)>,
    order: BTreeMap<u64, FrameKey>,
    clock: u64,
}

impl Lru {
    /// Marks `key` most recently used; returns its frame if present.
    fn touch(&mut self, key: FrameKey) -> Option<Arc<[u64]>> {
        let (frame, stamp) = self.entries.get_mut(&key)?;
        self.order.remove(stamp);
        self.clock += 1;
        *stamp = self.clock;
        self.order.insert(self.clock, key);
        Some(Arc::clone(frame))
    }

    fn push(&mut self, key: FrameKey, frame: Arc<[u64]>) {
        self.clock += 1;
        self.order.insert(self.clock, key);
        self.entries.insert(key, (frame, self.clock));
    }

    /// Removes the least recently used entry.
    fn pop_oldest(&mut self) -> Option<Arc<[u64]>> {
        let (_, key) = self.order.pop_first()?;
        self.entries.remove(&key).map(|(frame, _)| frame)
    }
}

/// A byte-budgeted, true-LRU cache of bytesort-decoded frames shared by
/// every reader in the process.
///
/// Thread-safe; lookups and inserts take one short mutex-protected
/// pass. The entry payload is `Arc<[u64]>`, so readers keep using a
/// frame after it is evicted — eviction only releases the cache's byte
/// accounting, the memory follows the last reader.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use atc_cache::SegmentCache;
///
/// let cache = SegmentCache::new(1 << 20);
/// assert!(cache.get((7, 0)).is_none());
/// cache.insert((7, 0), Arc::from([64u64, 128, 192]));
/// assert_eq!(&cache.get((7, 0)).unwrap()[..], &[64, 128, 192]);
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses, stats.bytes), (1, 1, 24));
/// ```
#[derive(Debug)]
pub struct SegmentCache {
    budget: ByteBudget,
    lru: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SegmentCache {
    /// Creates a cache holding up to `cap_bytes` of decoded frames
    /// (clamped to at least 1).
    pub fn new(cap_bytes: u64) -> Self {
        Self {
            budget: ByteBudget::new(cap_bytes),
            lru: Mutex::new(Lru::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The process-wide cache every reader shares by default
    /// ([`DEFAULT_SEGMENT_CACHE_BYTES`] capacity), created on first use.
    pub fn global() -> Arc<SegmentCache> {
        static GLOBAL: OnceLock<Arc<SegmentCache>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(SegmentCache::new(DEFAULT_SEGMENT_CACHE_BYTES))))
    }

    /// A private cache with its own counters, shaped for sharing
    /// (`Arc`-wrapped like [`SegmentCache::global`]).
    ///
    /// [`global`](SegmentCache::global)'s counters are process-wide: two
    /// tests (or a server and an unrelated reader) observing `stats()`
    /// see each other's traffic. Code that asserts on hit/miss counts —
    /// or a server that reports *its* cache efficiency — should own an
    /// isolated instance instead.
    pub fn isolated(cap_bytes: u64) -> Arc<SegmentCache> {
        Arc::new(SegmentCache::new(cap_bytes))
    }

    /// Looks up a decoded frame, refreshing its recency on a hit.
    pub fn get(&self, key: FrameKey) -> Option<Arc<[u64]>> {
        let found = self
            .lru
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .touch(key);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        // ordering: Relaxed — observability counter only.
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Inserts (or refreshes) a decoded frame, evicting from the LRU end
    /// until it fits. A frame larger than the whole capacity is not
    /// cached at all — admitting it would flush every other entry for a
    /// single reader's benefit.
    pub fn insert(&self, key: FrameKey, frame: Arc<[u64]>) {
        let len = frame_bytes(&frame);
        if len > self.budget.cap() {
            return;
        }
        let mut lru = self.lru.lock().unwrap_or_else(|e| e.into_inner());
        if lru.touch(key).is_some() {
            // Already cached (two readers raced on the same miss): keep
            // the incumbent frame, just refresh recency.
            return;
        }
        // Evict before acquiring so the (blocking) budget acquire is
        // always immediate: after this loop `in_use + len <= cap` holds.
        while self.budget.in_use() + len > self.budget.cap() {
            let Some(evicted) = lru.pop_oldest() else {
                break;
            };
            self.budget.release(frame_bytes(&evicted));
            // ordering: Relaxed — observability counter only.
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.budget.acquire(len);
        lru.push(key, frame);
    }

    /// Drops every entry (the counters survive; `bytes` returns to 0).
    pub fn clear(&self) {
        let mut lru = self.lru.lock().unwrap_or_else(|e| e.into_inner());
        while let Some(frame) = lru.pop_oldest() {
            self.budget.release(frame_bytes(&frame));
        }
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> SegmentCacheStats {
        SegmentCacheStats {
            // ordering: Relaxed — monotonic counters; a snapshot needs
            // no cross-counter consistency. (All three loads below.)
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: self.budget.in_use(),
            cap: self.budget.cap(),
        }
    }
}

/// Stable identifier of a trace directory for [`FrameKey`]s: an FNV-1a
/// hash of the canonicalized path (falling back to the path as given
/// when canonicalization fails, e.g. the directory vanished), so every
/// reader of one on-disk trace lands on the same id no matter how its
/// path was spelled.
pub fn trace_id(dir: &Path) -> u64 {
    let canonical = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in canonical.to_string_lossy().as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame of `n` addresses (`8 * n` cache bytes).
    fn frame(n: usize, fill: u64) -> Arc<[u64]> {
        vec![fill; n].into()
    }

    #[test]
    fn hit_miss_and_recency() {
        let c = SegmentCache::new(8000);
        assert!(c.get((1, 0)).is_none());
        c.insert((1, 0), frame(400, 0xA));
        c.insert((1, 1), frame(400, 0xB));
        assert_eq!(c.get((1, 0)).unwrap().len(), 400);
        // (1,1) is now LRU; a 3200-byte insert must evict it, not (1,0).
        c.insert((1, 2), frame(400, 0xC));
        assert!(c.get((1, 1)).is_none(), "LRU entry evicted");
        assert!(c.get((1, 0)).is_some(), "recently used entry survives");
        assert!(c.get((1, 2)).is_some());
        let s = c.stats();
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.bytes, 6400, "8 bytes per cached address");
        assert_eq!(s.cap, 8000);
    }

    #[test]
    fn evicts_oldest_of_many_small_frames() {
        // Small frames mean thousands of entries: eviction must still
        // follow recency exactly.
        let c = SegmentCache::new(1000 * 8);
        for f in 0..1000u64 {
            c.insert((9, f), frame(1, f));
        }
        assert!(c.get((9, 0)).is_some(), "refresh the oldest");
        c.insert((9, 1000), frame(1, 1000));
        assert!(c.get((9, 1)).is_none(), "second oldest went first");
        assert!(c.get((9, 0)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().bytes, 1000 * 8);
    }

    #[test]
    fn oversized_entries_bypass() {
        let c = SegmentCache::new(800);
        c.insert((0, 0), frame(50, 1));
        c.insert((0, 1), frame(101, 2)); // 808 bytes: larger than the whole cap
        assert!(c.get((0, 1)).is_none());
        assert!(c.get((0, 0)).is_some(), "bypass must not evict anything");
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn duplicate_insert_keeps_incumbent_and_accounting() {
        let c = SegmentCache::new(8000);
        c.insert((3, 7), frame(100, 1));
        c.insert((3, 7), frame(100, 2)); // racing reader's copy
        assert_eq!(c.stats().bytes, 800, "one entry's bytes, not two");
        assert_eq!(c.get((3, 7)).unwrap()[0], 1, "first insert wins");
    }

    #[test]
    fn clear_releases_bytes() {
        let c = SegmentCache::new(8000);
        c.insert((0, 0), frame(600, 1));
        c.clear();
        assert_eq!(c.stats().bytes, 0);
        assert!(c.get((0, 0)).is_none());
        c.insert((0, 1), frame(900, 2)); // full capacity is available again
        assert_eq!(c.stats().bytes, 7200);
    }

    #[test]
    fn evicted_entries_stay_alive_for_holders() {
        let c = SegmentCache::new(800);
        c.insert((0, 0), frame(80, 7));
        let held = c.get((0, 0)).unwrap();
        c.insert((0, 1), frame(80, 8)); // evicts (0,0)
        assert!(c.get((0, 0)).is_none());
        assert_eq!(held.len(), 80, "the Arc keeps an evicted frame alive");
        assert!(held.iter().all(|&b| b == 7));
    }

    #[test]
    fn isolated_instances_do_not_share_counters() {
        let a = SegmentCache::isolated(1 << 20);
        let b = SegmentCache::isolated(1 << 20);
        a.insert((1, 0), frame(64, 1));
        assert!(a.get((1, 0)).is_some());
        assert!(b.get((1, 0)).is_none(), "no entry sharing");
        assert_eq!(a.stats().hits, 1);
        assert_eq!(b.stats().hits, 0, "no counter bleed");
        assert_eq!(b.stats().misses, 1);
    }

    #[test]
    fn stats_since_subtracts_counters_keeps_gauges() {
        let c = SegmentCache::isolated(1 << 20);
        c.insert((1, 0), frame(8, 1));
        c.get((1, 9));
        let base = c.stats();
        c.get((1, 0));
        c.get((1, 0));
        c.get((1, 7));
        let delta = c.stats().since(&base);
        assert_eq!(delta.hits, 2);
        assert_eq!(delta.misses, 1);
        assert_eq!(delta.evictions, 0);
        assert_eq!(delta.bytes, 64, "bytes is a gauge, not a delta");
        assert_eq!(delta.cap, 1 << 20);
        // A baseline from elsewhere saturates instead of underflowing.
        let skewed = SegmentCacheStats {
            hits: u64::MAX,
            ..base
        };
        assert_eq!(c.stats().since(&skewed).hits, 0);
    }

    #[test]
    fn trace_id_stable_across_spellings() {
        let dir = std::env::temp_dir().join(format!("atc-seg-id-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spelled = dir
            .parent()
            .unwrap()
            .join(format!("./{}", dir.file_name().unwrap().to_string_lossy()));
        assert_eq!(trace_id(&dir), trace_id(&spelled));
        assert_ne!(trace_id(&dir), trace_id(Path::new("/nonexistent/other")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shared_across_threads() {
        let c = Arc::new(SegmentCache::new(1 << 20));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        let key = (1, i % 8);
                        match c.get(key) {
                            Some(f) => assert_eq!(f.len(), 8),
                            None => c.insert(key, frame(8, t)),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.stats().bytes <= 8 * 64);
    }
}
