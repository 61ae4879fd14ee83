//! The versioned frame format shared by spill files and the network shuffle
//! transport: a fixed 16-byte header (magic, version, frame kind, flags,
//! payload length, CRC-32) followed by the payload bytes.
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"TRNC"
//!      4     2  format version (little-endian u16, currently 1)
//!      6     1  frame kind (producer-defined: spill chunk, shuffle data,
//!               credit grant, control message, ...)
//!      7     1  flags (reserved, must be 0)
//!      8     4  payload length (little-endian u32)
//!     12     4  CRC-32 (IEEE) of the payload (little-endian u32)
//!     16     …  payload
//! ```
//!
//! The decoder treats every field as untrusted: the magic, version and flags
//! must match, the length must fit the caller's frame cap *and* the bytes
//! still available in the stream (when known), and the payload must match
//! its checksum. Violations surface as [`io::ErrorKind::InvalidData`] — a
//! corrupt or malicious frame is a recoverable protocol error, never a
//! panic. Payload buffers grow only as bytes actually arrive
//! (`Read::take` + `read_to_end`), so a forged length cannot balloon memory
//! beyond what the peer really sends.

use std::io::{self, IoSlice, Read, Write};

/// The leading frame magic.
pub const WIRE_MAGIC: [u8; 4] = *b"TRNC";

/// Current format version.
pub const WIRE_VERSION: u16 = 1;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 16;

/// Default per-frame payload cap for spill files: generous (one spilled
/// chunk) but finite, so a corrupt length prefix cannot ask for the moon.
pub const DEFAULT_MAX_FRAME: usize = 256 * 1024 * 1024;

/// Frame kind used by spill files.
pub const FRAME_SPILL: u8 = 0x01;

/// The decoded fixed header of one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Producer-defined frame kind.
    pub kind: u8,
    /// Reserved; always 0 in version 1.
    pub flags: u8,
    /// Payload length in bytes.
    pub len: u32,
    /// CRC-32 (IEEE) of the payload.
    pub crc: u32,
}

impl FrameHeader {
    /// Total encoded size of the frame (header + payload).
    pub fn frame_len(&self) -> u64 {
        HEADER_LEN as u64 + u64::from(self.len)
    }
}

/// The slicing-by-8 tables of the IEEE 802.3 polynomial (reflected):
/// `TABLES[0]` is the classic byte-at-a-time table, and `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so eight table lookups fold
/// eight input bytes at once. Built at compile time: `std` ships no checksum
/// and the workspace takes no external crates.
static TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Folds `bytes` into a running (pre-inverted) CRC-32 state, eight bytes at
/// a time, then byte by byte.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `bytes`, slicing-by-8.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes one frame (header + payload), returning the total bytes written.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<u64> {
    write_frame_parts(w, kind, &[payload])
}

/// Writes one frame whose payload is the concatenation of `parts`, without
/// building that concatenation: the checksum runs across the parts, and the
/// header and parts go out as one vectored write (one `writev` on a socket).
/// The bytes are those of [`write_frame`] of the concatenated payload.
/// Returns the total bytes written.
pub fn write_frame_parts(w: &mut impl Write, kind: u8, parts: &[&[u8]]) -> io::Result<u64> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let crc = !parts.iter().fold(!0, |crc, p| crc32_update(crc, p));
    let len32 = u32::try_from(len)
        .map_err(|_| invalid(format!("frame payload of {len} bytes exceeds u32")))?;
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&WIRE_MAGIC);
    header[4..6].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    header[6] = kind;
    header[7] = 0;
    header[8..12].copy_from_slice(&len32.to_le_bytes());
    header[12..16].copy_from_slice(&crc.to_le_bytes());
    let mut slices: Vec<IoSlice<'_>> = std::iter::once(&header[..])
        .chain(parts.iter().copied())
        .filter(|p| !p.is_empty())
        .map(IoSlice::new)
        .collect();
    let mut pending = &mut slices[..];
    while !pending.is_empty() {
        match w.write_vectored(pending) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "frame write stalled",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut pending, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(HEADER_LEN as u64 + len as u64)
}

/// Parses and validates a frame header against the caller's payload cap and
/// (when known) the bytes still available in the stream.
pub fn decode_header(
    bytes: &[u8; HEADER_LEN],
    max_len: usize,
    stream_remaining: Option<u64>,
) -> io::Result<FrameHeader> {
    if bytes[0..4] != WIRE_MAGIC {
        return Err(invalid("bad frame magic"));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != WIRE_VERSION {
        return Err(invalid(format!(
            "unsupported frame version {version} (expected {WIRE_VERSION})"
        )));
    }
    let kind = bytes[6];
    let flags = bytes[7];
    if flags != 0 {
        return Err(invalid(format!("unknown frame flags {flags:#04x}")));
    }
    let len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    let crc = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    if len as usize > max_len {
        return Err(invalid(format!(
            "frame payload of {len} bytes exceeds the {max_len}-byte cap"
        )));
    }
    let header = FrameHeader {
        kind,
        flags,
        len,
        crc,
    };
    if let Some(remaining) = stream_remaining {
        if header.frame_len() > remaining {
            return Err(invalid(format!(
                "frame claims {} payload bytes but only {} bytes remain in the stream",
                len,
                remaining.saturating_sub(HEADER_LEN as u64)
            )));
        }
    }
    Ok(header)
}

/// Reads the next frame from `r`.
///
/// Returns `Ok(None)` on a clean end of stream (EOF exactly at a frame
/// boundary); anything else that prevents a full, checksum-valid frame —
/// bad magic or version, a length beyond `max_len` or beyond
/// `stream_remaining`, a short payload, a CRC mismatch — is an
/// [`io::ErrorKind::InvalidData`] error.
pub fn read_frame(
    r: &mut impl Read,
    max_len: usize,
    stream_remaining: Option<u64>,
) -> io::Result<Option<(FrameHeader, Vec<u8>)>> {
    let mut header_bytes = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        match r.read(&mut header_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(invalid("truncated frame header")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let header = decode_header(&header_bytes, max_len, stream_remaining)?;
    // Grow the buffer only as bytes actually arrive: a forged length cannot
    // reserve more memory than the peer really transmits.
    let mut payload = Vec::new();
    let got = r
        .by_ref()
        .take(u64::from(header.len))
        .read_to_end(&mut payload)?;
    if got as u64 != u64::from(header.len) {
        return Err(invalid(format!(
            "truncated frame payload: expected {} bytes, got {got}",
            header.len
        )));
    }
    if crc32(&payload) != header.crc {
        return Err(invalid("frame checksum mismatch"));
    }
    Ok(Some((header, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// The byte-at-a-time CRC the slicing-by-8 kernel must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic bytes that are not periodic in 8.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slicing_by_8_equals_the_bytewise_reference() {
        let buf = noise(64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start}, len {len}"
                );
            }
        }
        let big = noise(1 << 20);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn a_frame_written_in_parts_is_the_frame_of_the_whole() {
        let payload = noise(300);
        let mut whole = Vec::new();
        write_frame(&mut whole, 0x21, &payload).unwrap();
        let splits: [&[usize]; 5] = [&[], &[0], &[300], &[9], &[1, 8, 9, 150, 299]];
        for cuts in splits {
            let mut bounds = vec![0];
            bounds.extend_from_slice(cuts);
            bounds.push(payload.len());
            let parts: Vec<&[u8]> = bounds.windows(2).map(|w| &payload[w[0]..w[1]]).collect();
            let mut framed = Vec::new();
            let written = write_frame_parts(&mut framed, 0x21, &parts).unwrap();
            assert_eq!(framed, whole, "cut at {cuts:?}");
            assert_eq!(written, whole.len() as u64);
        }
        let mut empty = Vec::new();
        write_frame(&mut empty, 3, b"").unwrap();
        let mut no_parts = Vec::new();
        write_frame_parts(&mut no_parts, 3, &[]).unwrap();
        assert_eq!(no_parts, empty);
    }

    /// A writer that takes at most `step` bytes per call and is interrupted
    /// every other call: the frame still goes out whole and in order.
    struct Trickle {
        out: Vec<u8>,
        step: usize,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(self.step);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_in_parts_survives_short_and_interrupted_writes() {
        let payload = noise(100);
        let mut whole = Vec::new();
        write_frame(&mut whole, 5, &payload).unwrap();
        for step in [1, 7, 16, 64] {
            let mut w = Trickle {
                out: Vec::new(),
                step,
                calls: 0,
            };
            write_frame_parts(&mut w, 5, &[&payload[..9], &payload[9..]]).unwrap();
            assert_eq!(w.out, whole, "step {step}");
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"hello").unwrap();
        write_frame(&mut buf, 9, b"").unwrap();
        let total = buf.len() as u64;
        let mut cur = Cursor::new(&buf);
        let (h1, p1) = read_frame(&mut cur, 1024, Some(total)).unwrap().unwrap();
        assert_eq!((h1.kind, p1.as_slice()), (7, &b"hello"[..]));
        let (h2, p2) = read_frame(&mut cur, 1024, Some(total - h1.frame_len()))
            .unwrap()
            .unwrap();
        assert_eq!((h2.kind, p2.as_slice()), (9, &b""[..]));
        assert!(read_frame(&mut cur, 1024, Some(0)).unwrap().is_none());
    }

    #[test]
    fn bad_magic_version_flags_and_cap_are_invalid_data() {
        let mut good = Vec::new();
        write_frame(&mut good, 1, b"payload").unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let mut bad_version = good.clone();
        bad_version[4] = 0xFF;
        let mut bad_flags = good.clone();
        bad_flags[7] = 1;
        for bytes in [&bad_magic, &bad_version, &bad_flags] {
            let err = read_frame(&mut Cursor::new(bytes), 1024, None).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        // Cap: the same valid frame, read under a smaller payload cap.
        let err = read_frame(&mut Cursor::new(&good), 3, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_payload_and_header_are_invalid_data() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"some payload").unwrap();
        // Cut into the payload.
        let cut = &buf[..buf.len() - 4];
        let err = read_frame(&mut Cursor::new(cut), 1024, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Cut into the header.
        let cut = &buf[..HEADER_LEN - 3];
        let err = read_frame(&mut Cursor::new(cut), 1024, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn length_is_validated_against_stream_remaining() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, &[0u8; 64]).unwrap();
        // The stream claims to hold fewer bytes than the frame needs: the
        // header alone must be rejected, before any payload allocation.
        let err = read_frame(&mut Cursor::new(&buf), 1024, Some(32)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn checksum_mismatch_is_invalid_data() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"checksummed").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40; // flip one payload bit
        let err = read_frame(&mut Cursor::new(&buf), 1024, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"));
    }
}
