//! The durable snapshot codec.
//!
//! Long parameter sweeps over the paper's `(n, w, u, v, s)` grids can be
//! interrupted — a crash, an OOM kill, an operator `^C` — and the
//! checkpoint/restart subsystem (DESIGN.md, docs/ROBUSTNESS.md "Durability
//! & resume") persists enough state to resume instead of recomputing.
//! Because every run in this workspace is a pure function of its seeds,
//! "resumed ≡ uninterrupted" is a *provable* byte-identity, and the codec
//! here is the trusted base of that proof chain: a versioned, checksummed,
//! dependency-free binary format with strict decode errors. Corrupt input
//! yields a typed [`SnapshotError`] — never a panic, and never a
//! plausible-but-wrong state.
//!
//! # Container format
//!
//! ```text
//! MAGIC "MPHS" (4 bytes) ‖ VERSION (u16 LE) ‖ sections… ‖ CRC32 (u32 LE)
//! section := TAG (4 ASCII bytes) ‖ LEN (u64 LE) ‖ LEN body bytes
//! ```
//!
//! The trailing CRC32 (IEEE polynomial, as in gzip/PNG) covers everything
//! before it, so *any* single-bit mutation of a framed snapshot is caught
//! at [`SnapshotReader::new`] before field decoding begins. Within a
//! section, primitives are fixed-width little-endian; variable-length data
//! is length-prefixed. [`mph_bits::BitVec`] values are encoded as a `u64`
//! bit length followed by their byte image and decoded through
//! `BitVec::slice`, which guarantees clean trailing bits.

use mph_bits::BitVec;

/// File magic: "MPHS" (MPc-Hardness Snapshot).
pub const MAGIC: [u8; 4] = *b"MPHS";

/// Current container version. Bump on any layout change; old readers must
/// reject newer snapshots rather than misparse them.
pub const VERSION: u16 = 1;

/// Why a snapshot failed to decode. Every malformed input maps onto one of
/// these — decoding never panics and never fabricates state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before a field was complete.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that remained.
        available: usize,
    },
    /// The leading magic bytes were not [`MAGIC`].
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The container version is newer than this reader understands.
    UnsupportedVersion {
        /// The version found in the container.
        found: u16,
        /// The newest version this reader supports.
        supported: u16,
    },
    /// The trailing CRC32 did not match the framed bytes.
    ChecksumMismatch {
        /// The checksum recorded in the container.
        stored: u32,
        /// The checksum recomputed over the framed bytes.
        computed: u32,
    },
    /// The frame was intact but a field violated the format's invariants
    /// (wrong section tag, out-of-range value, inconsistent lengths).
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated { needed, available } => {
                write!(f, "snapshot truncated: needed {needed} bytes, {available} available")
            }
            SnapshotError::BadMagic { found } => {
                write!(f, "bad snapshot magic {found:?} (expected {MAGIC:?})")
            }
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (this reader supports ≤ {supported})"
                )
            }
            SnapshotError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "snapshot checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            SnapshotError::Malformed(why) => write!(f, "malformed snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// CRC32 (IEEE 802.3 polynomial, reflected), computed bitwise — the same
/// checksum gzip and PNG frame with, implemented dependency-free. Snapshot
/// payloads are small relative to the trials they checkpoint, so the
/// bitwise form is fast enough and keeps the codec table-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Builds a framed snapshot: magic and version up front, sections appended
/// through the `put_*` primitives, and the global CRC32 sealed on by
/// [`SnapshotWriter::finish`].
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotWriter {
    /// A writer with the magic and current version already framed.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        SnapshotWriter { buf }
    }

    /// Opens a section: 4-byte ASCII `tag` plus a length placeholder that
    /// [`SnapshotWriter::end_section`] backfills. Returns the patch offset.
    pub fn begin_section(&mut self, tag: &[u8; 4]) -> usize {
        self.buf.extend_from_slice(tag);
        let patch_at = self.buf.len();
        self.buf.extend_from_slice(&0u64.to_le_bytes());
        patch_at
    }

    /// Closes the section opened at `patch_at`, backfilling its byte
    /// length.
    pub fn end_section(&mut self, patch_at: usize) {
        let body_len = (self.buf.len() - patch_at - 8) as u64;
        self.buf[patch_at..patch_at + 8].copy_from_slice(&body_len.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends an `f64` via its IEEE-754 bit image, so round-trips are
    /// bit-exact (including signed zeros and NaN payloads).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes with a `u64` length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a UTF-8 string with a `u64` length prefix.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Appends a [`BitVec`]: `u64` bit length, then its byte image.
    pub fn put_bitvec(&mut self, bits: &BitVec) {
        self.put_u64(bits.len() as u64);
        self.buf.extend_from_slice(&bits.to_bytes());
    }

    /// Seals the frame: appends the CRC32 of everything written so far and
    /// returns the finished byte stream.
    pub fn finish(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

/// Decodes a framed snapshot. Construction verifies magic, version, and
/// the global checksum; the `get_*` primitives then read fields with
/// strict bounds checking, returning [`SnapshotError::Truncated`] instead
/// of slicing out of range.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Verifies the frame (magic → version → trailing CRC32) and positions
    /// the reader at the first section.
    pub fn new(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        // Smallest legal frame: magic + version + CRC.
        if bytes.len() < MAGIC.len() + 2 + 4 {
            return Err(SnapshotError::Truncated {
                needed: MAGIC.len() + 2 + 4,
                available: bytes.len(),
            });
        }
        if bytes[..4] != MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(&bytes[..4]);
            return Err(SnapshotError::BadMagic { found });
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version > VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version, supported: VERSION });
        }
        let body_end = bytes.len() - 4;
        let stored = u32::from_le_bytes(bytes[body_end..].try_into().expect("4 bytes"));
        let computed = crc32(&bytes[..body_end]);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        Ok(SnapshotReader { bytes: &bytes[..body_end], pos: 6 })
    }

    /// Bytes remaining before the checksum trailer.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads the next section's 4-byte tag without consuming it, so a
    /// dispatcher can branch on the kind of frame it received (the shard
    /// wire protocol does this) and reject unknown kinds with a typed
    /// error instead of misparsing them.
    pub fn peek_section_tag(&self) -> Result<[u8; 4], SnapshotError> {
        if self.remaining() < 4 {
            return Err(SnapshotError::Truncated { needed: 4, available: self.remaining() });
        }
        let mut tag = [0u8; 4];
        tag.copy_from_slice(&self.bytes[self.pos..self.pos + 4]);
        Ok(tag)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated { needed: n, available: self.remaining() });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a section header, checking its tag; returns the body length.
    pub fn begin_section(&mut self, tag: &[u8; 4]) -> Result<u64, SnapshotError> {
        let found = self.take(4)?;
        if found != tag {
            return Err(SnapshotError::Malformed(format!(
                "expected section {:?}, found {:?}",
                String::from_utf8_lossy(tag),
                String::from_utf8_lossy(found)
            )));
        }
        let len = self.get_u64()?;
        if len > self.remaining() as u64 {
            return Err(SnapshotError::Truncated {
                needed: len as usize,
                available: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Reads a `u64`, little-endian.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a `u32`, little-endian.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a `u16`, little-endian.
    pub fn get_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0 or 1 is malformed.
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Malformed(format!("bool byte {other} (expected 0 or 1)"))),
        }
    }

    /// Reads an `f64` from its bit image.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.get_u64()?;
        if len > self.remaining() as u64 {
            return Err(SnapshotError::Truncated {
                needed: len as usize,
                available: self.remaining(),
            });
        }
        self.take(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SnapshotError> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| SnapshotError::Malformed(format!("invalid UTF-8 string: {e}")))
    }

    /// Reads a [`BitVec`]: bit length, then exactly `⌈len/8⌉` image bytes.
    pub fn get_bitvec(&mut self) -> Result<BitVec, SnapshotError> {
        let len = self.get_u64()?;
        let Ok(len) = usize::try_from(len) else {
            return Err(SnapshotError::Malformed(format!("BitVec length {len} exceeds usize")));
        };
        let byte_len = len.div_ceil(8);
        if byte_len > self.remaining() {
            return Err(SnapshotError::Truncated { needed: byte_len, available: self.remaining() });
        }
        let image = self.take(byte_len)?;
        let full = BitVec::from_bytes(image);
        if len == 0 {
            return Ok(BitVec::new());
        }
        // slice() (not truncate) so trailing garbage bits in the final
        // image byte can never leak into the decoded value.
        Ok(full.slice(0, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapshotWriter::new();
        let patch = w.begin_section(b"TEST");
        w.put_u64(u64::MAX);
        w.put_u32(7);
        w.put_u16(300);
        w.put_u8(9);
        w.put_bool(true);
        w.put_bool(false);
        w.put_f64(-0.0);
        w.put_f64(std::f64::consts::PI);
        w.put_bytes(b"abc");
        w.put_str("héllo");
        w.put_bitvec(&BitVec::from_u64(0b1011, 4));
        w.put_bitvec(&BitVec::new());
        w.end_section(patch);
        let bytes = w.finish();

        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section(b"TEST").unwrap();
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_u32().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u8().unwrap(), 9);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap(), std::f64::consts::PI);
        assert_eq!(r.get_bytes().unwrap(), b"abc");
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_bitvec().unwrap(), BitVec::from_u64(0b1011, 4));
        assert_eq!(r.get_bitvec().unwrap(), BitVec::new());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = SnapshotWriter::new().finish();
        bytes[0] = b'X';
        match SnapshotReader::new(&bytes) {
            Err(SnapshotError::BadMagic { found }) => assert_eq!(found[0], b'X'),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = SnapshotWriter::new().finish();
        // Patch the version field, then re-seal the checksum so version
        // skew (not the CRC) is what the reader reports.
        bytes[4] = (VERSION + 1) as u8;
        let body_end = bytes.len() - 4;
        let crc = crc32(&bytes[..body_end]).to_le_bytes();
        bytes[body_end..].copy_from_slice(&crc);
        match SnapshotReader::new(&bytes) {
            Err(err) => assert_eq!(
                err,
                SnapshotError::UnsupportedVersion { found: VERSION + 1, supported: VERSION }
            ),
            Ok(_) => panic!("future version accepted"),
        }
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let mut w = SnapshotWriter::new();
        let patch = w.begin_section(b"TEST");
        w.put_u64(12345);
        w.end_section(patch);
        let bytes = w.finish();
        for bit in 0..bytes.len() * 8 {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert!(SnapshotReader::new(&corrupt).is_err(), "bit flip at {bit} went undetected");
        }
    }

    #[test]
    fn truncation_at_every_length_is_caught() {
        let mut w = SnapshotWriter::new();
        let patch = w.begin_section(b"TEST");
        w.put_str("payload");
        w.end_section(patch);
        let bytes = w.finish();
        for len in 0..bytes.len() {
            let r = SnapshotReader::new(&bytes[..len]);
            assert!(r.is_err(), "truncation to {len} bytes went undetected");
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut w = SnapshotWriter::new();
        let patch = w.begin_section(b"PEEK");
        w.put_u64(5);
        w.end_section(patch);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        assert_eq!(r.peek_section_tag().unwrap(), *b"PEEK");
        assert_eq!(r.peek_section_tag().unwrap(), *b"PEEK");
        r.begin_section(b"PEEK").unwrap();
        assert_eq!(r.get_u64().unwrap(), 5);
        assert_eq!(r.peek_section_tag(), Err(SnapshotError::Truncated { needed: 4, available: 0 }));
    }

    #[test]
    fn wrong_section_tag_is_malformed() {
        let mut w = SnapshotWriter::new();
        let patch = w.begin_section(b"AAAA");
        w.end_section(patch);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        assert!(matches!(r.begin_section(b"BBBB"), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn overrun_reads_return_truncated() {
        let mut w = SnapshotWriter::new();
        w.put_u8(1);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.get_u8().unwrap();
        assert_eq!(r.get_u64(), Err(SnapshotError::Truncated { needed: 8, available: 0 }));
    }

    #[test]
    fn bitvec_decode_never_exposes_dirty_tail_bits() {
        // Hand-frame a 3-bit BitVec whose image byte has high garbage bits
        // set; the decoded value must mask them off.
        let mut w = SnapshotWriter::new();
        w.put_u64(3);
        w.put_u8(0b1111_1111);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        let bits = r.get_bitvec().unwrap();
        assert_eq!(bits.len(), 3);
        assert_eq!(bits, BitVec::from_u64(0b111, 3));
    }
}
