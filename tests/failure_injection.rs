//! Failure injection: randomized corruption of every file in the ATC
//! container must produce a clean error — never a panic, never silently
//! wrong data.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use atc::core::{AtcOptions, AtcReader, AtcWriter, LossyConfig, Mode};

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("atc-fi-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds a lossy container with a few chunks and imitations.
fn build(dir: &std::path::Path) -> Vec<u64> {
    let mut trace = Vec::new();
    for lap in 0u64..6 {
        let base = (lap % 3) << 32; // three recurring phases
        trace.extend((0..500u64).map(|i| base + i * 64));
    }
    let mut w = AtcWriter::with_options(
        dir,
        Mode::Lossy(LossyConfig {
            interval_len: 500,
            ..LossyConfig::default()
        }),
        AtcOptions {
            codec: "bzip".into(),
            buffer: 100,
            threads: 1,
        },
    )
    .unwrap();
    w.code_all(trace.iter().copied()).unwrap();
    w.finish().unwrap();
    trace
}

/// Decodes; returns Ok(values) or the error. Must never panic.
fn try_decode(dir: &std::path::Path) -> Result<Vec<u64>, atc::core::AtcError> {
    AtcReader::open(dir)?.decode_all()
}

#[test]
fn random_single_byte_corruptions_never_panic_or_lie() {
    let dir = scratch("flip");
    let original = build(&dir);
    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut outcomes = (0u32, 0u32); // (errors, silent-identical)
    for round in 0..60 {
        // Corrupt one random byte of one random file.
        let file = &files[rng.random_range(0..files.len())];
        let mut bytes = std::fs::read(file).unwrap();
        if bytes.is_empty() {
            continue;
        }
        let pos = rng.random_range(0..bytes.len());
        let orig_byte = bytes[pos];
        let flip = 1u8 << rng.random_range(0..8);
        bytes[pos] ^= flip;
        std::fs::write(file, &bytes).unwrap();

        match try_decode(&dir) {
            Err(_) => outcomes.0 += 1,
            Ok(values) => {
                // Some corruptions are benign (e.g. flipping a byte of a
                // translation table changes lossy content legitimately, or
                // meta whitespace). What is NEVER acceptable is a lossless
                // payload silently changing; here the container is lossy,
                // so we only require: no panic, and the value count intact
                // unless an error was reported.
                assert_eq!(
                    values.len(),
                    original.len(),
                    "round {round}: silent length change after corrupting {file:?} at {pos}"
                );
                outcomes.1 += 1;
            }
        }

        // Restore.
        bytes[pos] = orig_byte;
        std::fs::write(file, &bytes).unwrap();
    }
    // Sanity: the harness exercised both paths and the restored container
    // still decodes exactly.
    assert!(
        outcomes.0 > 0,
        "no corruption was ever detected: {outcomes:?}"
    );
    assert_eq!(try_decode(&dir).unwrap().len(), original.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lossless_corruption_is_always_detected_or_exact() {
    let dir = scratch("lossless-flip");
    let trace: Vec<u64> = (0..20_000u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9) >> 8)
        .collect();
    let mut w = AtcWriter::with_options(
        &dir,
        Mode::Lossless,
        AtcOptions {
            codec: "bzip".into(),
            buffer: 4000,
            threads: 1,
        },
    )
    .unwrap();
    w.code_all(trace.iter().copied()).unwrap();
    w.finish().unwrap();

    let data_file = dir.join("data.atc");
    let original_bytes = std::fs::read(&data_file).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..40 {
        let mut bytes = original_bytes.clone();
        let pos = rng.random_range(0..bytes.len());
        bytes[pos] ^= 1 << rng.random_range(0..8);
        std::fs::write(&data_file, &bytes).unwrap();
        // CRC-32 per block: a flipped payload bit must surface as an error,
        // not as silently different data.
        if let Ok(values) = try_decode(&dir) {
            assert_eq!(values, trace, "corruption at byte {pos} went undetected");
        }
    }
    std::fs::write(&data_file, &original_bytes).unwrap();
    assert_eq!(try_decode(&dir).unwrap(), trace);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_files_error_cleanly() {
    let dir = scratch("trunc");
    build(&dir);
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let bytes = std::fs::read(&path).unwrap();
        for cut in [0, bytes.len() / 2] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            // Either a clean error, or (for e.g. a truncated unused tail) a
            // successful decode — never a panic.
            let _ = try_decode(&dir);
        }
        std::fs::write(&path, &bytes).unwrap();
    }
    assert!(try_decode(&dir).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn swapped_chunk_files_detected_by_length_or_content() {
    let dir = scratch("swap");
    // Two chunks with different lengths: interval 700 then partial 300.
    let mut w = AtcWriter::with_options(
        &dir,
        Mode::Lossy(LossyConfig {
            interval_len: 700,
            ..LossyConfig::default()
        }),
        AtcOptions {
            codec: "bzip".into(),
            buffer: 100,
            threads: 1,
        },
    )
    .unwrap();
    w.code_all((0..700u64).map(|i| i * 64)).unwrap();
    w.code_all(std::iter::repeat_n(99u64, 300)).unwrap();
    w.finish().unwrap();
    let a = dir.join("chunk-000000.atc");
    let b = dir.join("chunk-000001.atc");
    let (ba, bb) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    std::fs::write(&a, &bb).unwrap();
    std::fs::write(&b, &ba).unwrap();
    assert!(
        try_decode(&dir).is_err(),
        "length mismatch must be reported"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Reads `dir` from frame 1 on, then from the start, through a frame
/// cache: the random-access miss path, which builds frames from the
/// segments the seek sidecar delimits.
fn try_cached(dir: &std::path::Path) -> Result<Vec<u64>, atc::core::AtcError> {
    let options = atc::core::ReadOptions {
        segment_cache: Some(atc::cache::SegmentCache::isolated(64 << 20)),
        ..atc::core::ReadOptions::default()
    };
    let mut r = AtcReader::open_with(dir, options)?;
    r.seek(1)?;
    r.decode_all()?;
    r.seek(0)?;
    r.decode_all()
}

#[test]
fn forged_sidecar_lengths_error_cleanly_on_the_frame_cache_path() {
    use atc::codec::SegmentRecord;
    use atc::core::format::{SeekTable, FRAME_MAX_ADDRS};

    // 300k addresses = 2.4 MB raw: three codec segments, frames of 1000
    // straddling their boundaries.
    let dir = scratch("forged-sidecar");
    let trace: Vec<u64> = (0..300_000u64).map(|i| i.wrapping_mul(0x517C)).collect();
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
    w.code_all(trace.iter().copied()).unwrap();
    w.finish().unwrap();
    assert_eq!(try_cached(&dir).unwrap(), trace);

    let seek_path = dir.join("seek.atc");
    let meta_path = dir.join("meta");
    let (seek_bytes, meta_text) = (
        std::fs::read(&seek_path).unwrap(),
        std::fs::read_to_string(&meta_path).unwrap(),
    );
    let segments = SeekTable::decode(&seek_bytes).unwrap().segments().to_vec();
    assert!(segments.len() >= 3);
    // Rewrites the sidecar with a valid CRC around forged lengths.
    let forge = |edit: &dyn Fn(&mut [SegmentRecord])| {
        let mut segs = segments.clone();
        edit(&mut segs);
        let mut offset = 0;
        for s in &mut segs {
            s.file_offset = offset;
            offset += s.compressed_len;
        }
        let table = SeekTable::from_records(segs).unwrap();
        std::fs::write(&seek_path, table.encode()).unwrap();
    };
    let last = segments.len() - 1;
    type Edit<'a> = &'a dyn Fn(&mut [SegmentRecord]);
    let cases: [(&str, Edit); 4] = [
        ("raw total disagrees with meta", &|s| {
            s[last].raw_len += 4096
        }),
        ("raw lengths shifted, total kept", &|s| {
            s[0].raw_len -= 8002;
            s[1].raw_len += 8002;
        }),
        ("raw length forged huge", &|s| s[0].raw_len = 1 << 40),
        ("compressed length past the file", &|s| {
            s[last].compressed_len += 1 << 40
        }),
    ];
    for (what, edit) in cases {
        forge(edit);
        assert!(try_cached(&dir).is_err(), "{what}: must be a clean error");
        // The sidecar is advisory for a linear read, which stays exact.
        assert_eq!(try_decode(&dir).unwrap(), trace, "{what}: linear read");
    }

    // A forged meta declaring one frame above the cap, with a sidecar
    // forged to agree on the payload size: the frame size is refused
    // before anything is allocated for it.
    let n = FRAME_MAX_ADDRS + 1;
    std::fs::write(
        &meta_path,
        meta_text
            .replace("count=300000", &format!("count={n}"))
            .replace("buffer=1000", &format!("buffer={n}")),
    )
    .unwrap();
    let need = 4 + 8 * n; // varint(n) is 4 bytes
    forge(&|s| {
        let rest: u64 = s[..last].iter().map(|r| r.raw_len).sum();
        s[last].raw_len = need - rest;
    });
    let err = try_cached(&dir).unwrap_err().to_string();
    assert!(err.contains("cap"), "frame cap must fire first: {err}");

    std::fs::write(&meta_path, &meta_text).unwrap();
    std::fs::write(&seek_path, &seek_bytes).unwrap();
    assert_eq!(try_cached(&dir).unwrap(), trace);
    std::fs::remove_dir_all(&dir).unwrap();
}
