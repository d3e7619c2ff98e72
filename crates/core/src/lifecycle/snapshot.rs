//! The crash-safe on-disk snapshot container: a versioned, checksummed
//! segment file per cache shard.
//!
//! ```text
//! shard_<i>.fpsnap := header segment*
//! header           := magic "FPSNAP01" (8) · version u32 LE · epoch u64 LE
//! segment          := len u32 LE · crc32 u32 LE · payload (len bytes)
//! ```
//!
//! Each payload is one cache entry's XML document (the same serialization
//! `persist` uses, extended with lifecycle attributes). The format is
//! deliberately recoverable from the front: a truncated file yields the
//! intact prefix of segments, and a segment whose CRC32 does not match is
//! skipped — the length prefix keeps the stream aligned — so corruption
//! costs the damaged entries, never the snapshot. Files are written to a
//! temporary sibling and atomically renamed into place, so a crash
//! mid-write leaves the previous snapshot untouched.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Leading magic bytes of every snapshot file.
pub const MAGIC: &[u8; 8] = b"FPSNAP01";
/// Current snapshot format version; bumped on layout changes.
pub const VERSION: u32 = 1;

const HEADER_LEN: usize = 8 + 4 + 8;
const SEGMENT_HEADER_LEN: usize = 4 + 4;

const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `CRC_TABLES[k][b]` is the CRC state after byte `b`
/// followed by `k` zero bytes, so eight input bytes fold into the state
/// with eight independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the same
/// checksum gzip and PNG use, eight bytes per step over tables built at
/// compile time, to stay dependency-free.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(c[4])]
            ^ t[2][usize::from(c[5])]
            ^ t[1][usize::from(c[6])]
            ^ t[0][usize::from(c[7])];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// Writes one snapshot file atomically: header + one checksummed segment
/// per payload, staged in `<path>.tmp` and renamed over the target.
pub fn write_snapshot_file(path: &Path, epoch: u64, segments: &[Vec<u8>]) -> io::Result<()> {
    let tmp = path.with_extension("fpsnap.tmp");
    {
        let mut out = io::BufWriter::new(fs::File::create(&tmp)?);
        out.write_all(MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&epoch.to_le_bytes())?;
        for payload in segments {
            let len = u32::try_from(payload.len())
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "segment too large"))?;
            out.write_all(&len.to_le_bytes())?;
            out.write_all(&crc32(payload).to_le_bytes())?;
            out.write_all(payload)?;
        }
        out.flush()?;
    }
    fs::rename(&tmp, path)
}

/// A decoded snapshot file: the intact segments plus how many were lost
/// to corruption or truncation.
#[derive(Debug, Default)]
pub struct SnapshotFile {
    /// Epoch recorded in the file header.
    pub epoch: u64,
    /// Payloads whose checksum verified.
    pub segments: Vec<Vec<u8>>,
    /// Segments dropped: CRC mismatch, impossible length, or a
    /// truncated tail.
    pub corrupt_segments: usize,
}

/// Reads a snapshot file, salvaging every intact segment. Corruption
/// inside the stream is tolerated and counted; only a missing or
/// unrecognisable header (wrong magic/version) is an error, which the
/// caller should treat as "this file contributes nothing".
pub fn read_snapshot_file(path: &Path) -> io::Result<SnapshotFile> {
    let data = fs::read(path)?;
    if data.len() < HEADER_LEN || &data[..8] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a snapshot file (bad magic)",
        ));
    }
    let version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported snapshot version {version}"),
        ));
    }
    let epoch = u64::from_le_bytes(data[12..HEADER_LEN].try_into().expect("8 bytes"));

    let mut file = SnapshotFile {
        epoch,
        ..SnapshotFile::default()
    };
    let mut off = HEADER_LEN;
    while off < data.len() {
        if off + SEGMENT_HEADER_LEN > data.len() {
            file.corrupt_segments += 1; // truncated mid-header
            break;
        }
        let len = u32::from_le_bytes(data[off..off + 4].try_into().expect("4 bytes")) as usize;
        let want_crc = u32::from_le_bytes(data[off + 4..off + 8].try_into().expect("4 bytes"));
        off += SEGMENT_HEADER_LEN;
        if off + len > data.len() {
            file.corrupt_segments += 1; // truncated mid-payload (or length bit-rot)
            break;
        }
        let payload = &data[off..off + len];
        off += len;
        if crc32(payload) == want_crc {
            file.segments.push(payload.to_vec());
        } else {
            file.corrupt_segments += 1; // damaged payload; stream stays aligned
        }
    }
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition `crc32` replaced.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_equals_the_bitwise_definition_at_every_length() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut random = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as u8
                })
                .collect()
        };
        // Every tail length, at every alignment of the 8-byte step.
        let data = random(72);
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "start {start} len {len}"
                );
            }
        }
        let big = random(1 << 20);
        assert_eq!(crc32(&big), crc32_bitwise(&big));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trips_segments() {
        let dir = std::env::temp_dir().join("fpsnap_roundtrip_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("shard_0.fpsnap");
        let segs = vec![b"<CacheEntry/>".to_vec(), vec![0u8; 1024], Vec::new()];
        write_snapshot_file(&path, 7, &segs).expect("writes");
        let read = read_snapshot_file(&path).expect("reads");
        assert_eq!(read.epoch, 7);
        assert_eq!(read.segments, segs);
        assert_eq!(read.corrupt_segments, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_skipped_and_truncation_keeps_the_prefix() {
        let dir = std::env::temp_dir().join("fpsnap_corrupt_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("shard_0.fpsnap");
        let segs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 64]).collect();
        write_snapshot_file(&path, 1, &segs).expect("writes");

        // Flip a byte inside segment 1's payload: only that segment dies.
        let mut data = std::fs::read(&path).expect("read back");
        let seg1_payload = HEADER_LEN + SEGMENT_HEADER_LEN + 64 + SEGMENT_HEADER_LEN + 3;
        data[seg1_payload] ^= 0xFF;
        std::fs::write(&path, &data).expect("rewrite");
        let read = read_snapshot_file(&path).expect("reads despite corruption");
        assert_eq!(read.segments.len(), 3);
        assert_eq!(read.corrupt_segments, 1);
        assert_eq!(read.segments[0], segs[0]);
        assert_eq!(read.segments[1], segs[2]);

        // Truncate mid-payload: the intact prefix survives.
        write_snapshot_file(&path, 1, &segs).expect("writes");
        let data = std::fs::read(&path).expect("read back");
        // 75 bytes removes segment 3 entirely and cuts into segment 2's
        // payload; segments 0 and 1 survive.
        std::fs::write(&path, &data[..data.len() - 75]).expect("truncate");
        let read = read_snapshot_file(&path).expect("reads despite truncation");
        assert_eq!(read.segments.len(), 2);
        assert_eq!(read.corrupt_segments, 1);

        // Garbage file: hard error, caller skips the whole file.
        std::fs::write(&path, b"not a snapshot").expect("garbage");
        assert!(read_snapshot_file(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
