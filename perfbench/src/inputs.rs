//! Input generation from the workload seed: raw access streams of the
//! `atc_trace::spec` profiles, their L1-filtered traces, and the skewed
//! range starts of the serving workload.

use atc_cache::CacheFilter;
use atc_trace::Access;

/// Raw accesses per ingest block, as `bin2atc --filter` reads them.
pub const BLOCK: usize = 1 << 16;

/// The first `len` raw accesses of `profile` under `seed`.
pub fn raw_accesses(profile: &str, seed: u64, len: usize) -> Vec<Access> {
    let p = atc_trace::spec::profile(profile).expect("benchmark profiles exist in atc_trace::spec");
    p.workload(seed).take(len).collect()
}

/// `raw` through the paper's L1 filter, in [`BLOCK`]-access blocks.
pub fn filter(raw: &[Access]) -> Vec<u64> {
    let mut f = CacheFilter::paper();
    let mut out = Vec::with_capacity(raw.len() / 2);
    for block in raw.chunks(BLOCK) {
        f.filter_batch(block, &mut out);
    }
    out
}

/// FNV-1a over the values, to compare traces without keeping copies.
pub fn fingerprint(values: &[u64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64: a small, seedable generator for request streams.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is negligible for the
    /// trace lengths used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Range starts skewed toward a hot head: a share `hot_share` of the
/// windows start in `0..hot_len`, the rest anywhere in the cold tail.
#[derive(Debug, Clone)]
pub struct RangeStarts {
    rng: SplitMix,
    len: u64,
    window: u64,
    hot_len: u64,
    hot_per_mille: u64,
}

impl RangeStarts {
    /// Starts for windows of `window` values over a `len`-value trace,
    /// one independent stream per `(seed, client)`.
    ///
    /// # Panics
    ///
    /// Panics unless `window <= hot_len` and `hot_len + window < len`.
    pub fn new(
        seed: u64,
        client: u64,
        len: u64,
        window: u64,
        hot_len: u64,
        hot_share: f64,
    ) -> Self {
        assert!(
            window <= hot_len && hot_len + window < len,
            "hot head must hold a window and leave a tail"
        );
        Self {
            rng: SplitMix::new(seed ^ client.wrapping_mul(0xa076_1d64_78bd_642f)),
            len,
            window,
            hot_len,
            hot_per_mille: (hot_share * 1000.0).round() as u64,
        }
    }
}

impl Iterator for RangeStarts {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let start = if self.rng.below(1000) < self.hot_per_mille {
            self.rng.below(self.hot_len - self.window + 1)
        } else {
            self.hot_len + self.rng.below(self.len - self.window - self.hot_len + 1)
        };
        Some(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_starts_are_deterministic_per_seed_and_client() {
        let take = |seed, client| -> Vec<u64> {
            RangeStarts::new(seed, client, 1_000_000, 10_000, 100_000, 0.9)
                .take(500)
                .collect()
        };
        assert_eq!(take(7, 0), take(7, 0));
        assert_ne!(take(7, 0), take(7, 1));
        assert_ne!(take(7, 0), take(8, 0));
    }

    #[test]
    fn range_starts_are_skewed_and_in_bounds() {
        let starts: Vec<u64> = RangeStarts::new(3, 0, 1_000_000, 10_000, 100_000, 0.9)
            .take(10_000)
            .collect();
        assert!(starts.iter().all(|&s| s + 10_000 <= 1_000_000));
        let hot = starts.iter().filter(|&&s| s + 10_000 <= 100_000).count();
        assert!((8_800..=9_200).contains(&hot), "hot windows: {hot}");
        assert!(starts
            .iter()
            .any(|&s| s + 10_000 == 1_000_000 || s > 900_000));
    }

    #[test]
    fn inputs_repeat_per_seed() {
        let a = filter(&raw_accesses("482.sphinx3", 5, 100_000));
        let b = filter(&raw_accesses("482.sphinx3", 5, 100_000));
        let c = filter(&raw_accesses("482.sphinx3", 6, 100_000));
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }
}
