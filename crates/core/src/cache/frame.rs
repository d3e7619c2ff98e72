//! The one on-disk frame codec. Both files the cache writes have the
//! same shape: the slab (`slab_<i>.fpslab`, the entries themselves) and
//! its metadata (`shard_<i>.fpmeta`, where each live entry's segment
//! sits and how old it is).
//!
//! ```text
//! file  := magic (8) · version u32 LE · frame*
//! frame := len u32 LE · crc32 u32 LE · payload (len bytes)
//! ```
//!
//! [`frame_header`] encodes every frame header that is written and
//! [`scan`] is the one reader. A writer need not hold the payload in one
//! buffer: [`crc32_parts`] checksums it across its parts, so a slab
//! append borrows the row slab where it lies. The reader recovers from
//! the front: a frame whose CRC32 does not match is skipped (the length
//! prefix keeps the stream aligned) and a torn tail stops the scan, so
//! damage costs the damaged frames, never the file. [`write_staged`] is
//! the one file replacer: a fill closure writes `<path>.tmp` (one frame
//! at a time, if it likes), then `sync_all`, then a rename over the
//! target — a crash leaves the old file or the new one, never a mix.

use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};

use crate::cache::tier::{IoOp, SlabIo};

/// Bytes of a file header: magic · version.
pub(crate) const HEADER_LEN: usize = 8 + 4;
/// Bytes of a frame header: len · crc32.
pub(crate) const FRAME_LEN: usize = 4 + 4;

/// A file header: `magic` then `version`, little-endian.
pub(crate) fn header(magic: &[u8; 8], version: u32) -> [u8; HEADER_LEN] {
    let mut head = [0u8; HEADER_LEN];
    head[..8].copy_from_slice(magic);
    head[8..].copy_from_slice(&version.to_le_bytes());
    head
}

/// Whether `data` starts with [`header`]`(magic, version)`.
pub(crate) fn has_header(data: &[u8], magic: &[u8; 8], version: u32) -> bool {
    data.get(..HEADER_LEN) == Some(&header(magic, version)[..])
}

/// The length field of a frame whose payload is `len` bytes.
///
/// # Errors
/// `InvalidInput` when the payload does not fit a `u32` length.
pub(crate) fn payload_len(len: usize) -> io::Result<u32> {
    u32::try_from(len).map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "segment too large"))
}

/// A frame header: the payload's length, then its CRC32.
pub(crate) fn frame_header(len: u32, crc: u32) -> [u8; FRAME_LEN] {
    let mut head = [0u8; FRAME_LEN];
    head[..4].copy_from_slice(&len.to_le_bytes());
    head[4..].copy_from_slice(&crc.to_le_bytes());
    head
}

/// Appends one frame (`len · crc32 · payload`) to `out` and returns the
/// payload length.
///
/// # Errors
/// `InvalidInput` when the payload does not fit a `u32` length.
pub(crate) fn push_frame(out: &mut Vec<u8>, payload: &[u8]) -> io::Result<u32> {
    let len = payload_len(payload.len())?;
    out.extend_from_slice(&frame_header(len, crc32(payload)));
    out.extend_from_slice(payload);
    Ok(len)
}

/// Splits a frame header into (payload length, expected CRC32).
pub(crate) fn frame_head(head: &[u8; FRAME_LEN]) -> (u32, u32) {
    let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(head[4..].try_into().expect("4 bytes"));
    (len, crc)
}

/// What [`scan`] salvaged from a stream of frames.
#[derive(Debug, Default)]
pub(crate) struct Scan<'a> {
    /// Every intact frame in file order: (payload offset, payload).
    pub frames: Vec<(usize, &'a [u8])>,
    /// Frames lost: CRC mismatches plus a torn tail.
    pub corrupt: usize,
    /// Where a torn tail begins (the end of the last whole frame), when
    /// the scan stopped on one.
    pub torn_at: Option<usize>,
}

/// Front-recoverable scan of the frames in `data[from..]`: a CRC
/// mismatch skips that frame, and a tail cut inside a frame header or
/// payload (or a length running past the end) stops the scan.
pub(crate) fn scan(data: &[u8], from: usize) -> Scan<'_> {
    let mut out = Scan::default();
    let mut pos = from;
    while pos < data.len() {
        let Some(head) = data.get(pos..pos + FRAME_LEN) else {
            out.corrupt += 1; // the crash cut the length/CRC fields themselves
            out.torn_at = Some(pos);
            break;
        };
        let (len, want_crc) = frame_head(head.try_into().expect("FRAME_LEN bytes"));
        let start = pos + FRAME_LEN;
        let Some(payload) = start
            .checked_add(len as usize)
            .and_then(|end| data.get(start..end))
        else {
            out.corrupt += 1; // torn payload (crash mid-write, or length bit-rot)
            out.torn_at = Some(pos);
            break;
        };
        if crc32(payload) == want_crc {
            out.frames.push((start, payload));
        } else {
            out.corrupt += 1; // damaged payload; stream stays aligned
        }
        pos = start + payload.len();
    }
    out
}

/// The staging sibling of `path`: `<path>.tmp`.
pub(crate) fn staging_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Replaces `path` atomically and durably with what `fill` writes: it
/// writes the staging file [`staging_path`] (opened empty, for reading
/// and appending), which is then `sync_all`ed and renamed over `path`.
/// Every step consults the fault seam — `stage` before the staging file
/// is opened, [`IoOp::Fsync`] before the barrier, and `commit` (when
/// given) before the rename. On any error the previous file at `path` is
/// untouched.
///
/// Returns the staged file, which the rename made `path` (the rename is
/// the last step, so nothing can fail once it is done), and what `fill`
/// returned.
///
/// # Errors
/// Injected faults, `fill`'s errors and filesystem errors.
pub(crate) fn write_staged<T>(
    path: &Path,
    io: &SlabIo,
    stage: IoOp,
    commit: Option<IoOp>,
    fill: impl FnOnce(&mut File) -> io::Result<T>,
) -> io::Result<(File, T)> {
    let tmp = staging_path(path);
    io.check(stage)?;
    let mut file = OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(&tmp)?;
    file.set_len(0)?; // a stale staging file from an earlier attempt
    let filled = fill(&mut file)?;
    io.check(IoOp::Fsync)?;
    file.sync_all()?;
    if let Some(op) = commit {
        io.check(op)?;
    }
    std::fs::rename(&tmp, path)?;
    Ok((file, filled))
}

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
pub(crate) fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// [`crc32`] of the concatenation of `parts`, without concatenating
/// them.
pub(crate) fn crc32_parts<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u32 {
    !parts.into_iter().fold(!0, crc32_update)
}

/// Folds `data` into a running (pre-inversion) CRC state.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
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
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"FPTEST01";

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

    fn file_of(segs: &[Vec<u8>]) -> Vec<u8> {
        let mut data = header(MAGIC, 1).to_vec();
        for s in segs {
            push_frame(&mut data, s).unwrap();
        }
        data
    }

    fn payloads(scan: &Scan<'_>) -> Vec<Vec<u8>> {
        scan.frames.iter().map(|(_, p)| p.to_vec()).collect()
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
    fn crc32_parts_equals_crc32_of_the_concatenation() {
        let data: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        for cut in [0, 1, 7, 8, 9, 150, 299, 300] {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_parts([a, b]), crc32(&data), "cut {cut}");
            assert_eq!(crc32_parts([&[][..], a, &[][..], b]), crc32(&data));
        }
        assert_eq!(crc32_parts([]), crc32(b""));
    }

    #[test]
    fn round_trips_frames() {
        let segs = vec![b"<CacheEntry/>".to_vec(), vec![0u8; 1024], Vec::new()];
        let data = file_of(&segs);
        assert!(has_header(&data, MAGIC, 1));
        let read = scan(&data, HEADER_LEN);
        assert_eq!(payloads(&read), segs);
        assert_eq!(read.corrupt, 0);
        assert_eq!(read.torn_at, None);
        // Offsets point at the payloads themselves.
        assert_eq!(read.frames[0].0, HEADER_LEN + FRAME_LEN);
        assert_eq!(&data[read.frames[1].0..][..1024], &segs[1][..]);
    }

    #[test]
    fn corruption_is_skipped_and_truncation_keeps_the_prefix() {
        let segs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 64]).collect();
        let clean = file_of(&segs);

        // Flip a byte inside frame 1's payload: only that frame dies.
        let mut data = clean.clone();
        data[HEADER_LEN + FRAME_LEN + 64 + FRAME_LEN + 3] ^= 0xFF;
        let read = scan(&data, HEADER_LEN);
        assert_eq!(
            payloads(&read),
            vec![segs[0].clone(), segs[2].clone(), segs[3].clone()]
        );
        assert_eq!(read.corrupt, 1);
        assert_eq!(read.torn_at, None);

        // Truncate mid-payload: 75 bytes removes frame 3 entirely and
        // cuts into frame 2's payload; frames 0 and 1 survive, and the
        // tear is where frame 2 began.
        let data = &clean[..clean.len() - 75];
        let read = scan(data, HEADER_LEN);
        assert_eq!(payloads(&read), segs[..2].to_vec());
        assert_eq!(read.corrupt, 1);
        assert_eq!(read.torn_at, Some(HEADER_LEN + 2 * (FRAME_LEN + 64)));

        // Cut inside a frame header: counted and torn at that frame.
        let data = &clean[..HEADER_LEN + FRAME_LEN + 64 + 3];
        let read = scan(data, HEADER_LEN);
        assert_eq!(read.frames.len(), 1);
        assert_eq!(read.corrupt, 1);
        assert_eq!(read.torn_at, Some(HEADER_LEN + FRAME_LEN + 64));

        // A foreign file, a short one, or another version has no header.
        assert!(!has_header(b"not a framed file", MAGIC, 1));
        assert!(!has_header(b"FPTEST", MAGIC, 1));
        assert!(!has_header(&clean, MAGIC, 2));
    }
}
