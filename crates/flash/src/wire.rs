//! Versioned binary checkpoint codec: the wire primitives every layer's
//! snapshot support is built from.
//!
//! No serde is vendored, so the format is hand-rolled and deliberately
//! boring: little-endian fixed-width integers, floats as IEEE-754 bit
//! patterns (`f64::to_bits` — restores are bit-exact, never re-parsed
//! through decimal), length-prefixed byte strings, and tagged
//! length-prefixed **sections** so containers can evolve without breaking
//! old readers. A top-level container is
//!
//! ```text
//! magic (8 bytes) | version (u32) | payload … | CRC32 (u32, IEEE)
//! ```
//!
//! where the CRC covers everything before the trailer. [`open`] verifies
//! length, magic, CRC, and version in that order and returns a typed
//! [`SnapError`] — corrupt or truncated checkpoints are rejected, never
//! panicked on. Inside the payload, each section is
//! `tag (u32) | len (u64) | body`, read back in writing order via
//! [`Reader::section`].
//!
//! The codec promises **bit-exact round trips**: every value a layer
//! serializes (including RNG streams and derived floating-point caches) is
//! restored to the identical bit pattern, which is what makes a resumed
//! run's FNV digest equal to an uninterrupted run's.

use std::fmt;

/// Current container format version shared by every rd-* snapshot kind.
/// Version 2: an engine checkpoint carries its latency histogram, not
/// every request's latency.
/// Version 3: every fidelity tier writes its block ledger lane by lane,
/// and a die's page map is its packed `l2p` table (one `u32` per logical
/// page).
pub const SNAP_VERSION: u32 = 3;

/// Typed decode failure. Every malformed input maps to one of these —
/// the codec never panics on untrusted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The input ended before the announced structure did.
    Truncated,
    /// The container's leading magic did not match the expected kind.
    BadMagic {
        /// The 8 bytes actually found at the head of the input.
        found: [u8; 8],
    },
    /// The container's format version is not the one this build reads.
    BadVersion {
        /// Version stamped in the container.
        found: u32,
        /// Version this reader understands.
        expected: u32,
    },
    /// The CRC32 trailer did not match the container body (corruption).
    BadCrc,
    /// A section tag was out of order or unknown.
    BadTag {
        /// Tag found in the stream.
        found: u32,
        /// Tag the reader expected next.
        expected: u32,
    },
    /// The checkpoint is well-formed but disagrees with the live object it
    /// is being restored into (geometry, fidelity tier, config fingerprint).
    Mismatch(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "snapshot truncated"),
            Self::BadMagic { found } => write!(f, "bad snapshot magic {found:?}"),
            Self::BadVersion { found, expected } => {
                write!(f, "snapshot version {found} (this build reads {expected})")
            }
            Self::BadCrc => write!(f, "snapshot CRC mismatch (corrupt)"),
            Self::BadTag { found, expected } => {
                write!(f, "snapshot section tag {found:#x} where {expected:#x} expected")
            }
            Self::Mismatch(why) => write!(f, "snapshot does not match this object: {why}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup table.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes` — the container trailer checksum.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Append-only encode buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes (no length prefix).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact restore).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends an `f32` as its IEEE-754 bit pattern.
    pub(crate) fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.put_raw(bytes);
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn put_u64s(&mut self, vs: &[u64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn put_u32s(&mut self, vs: &[u32]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u32(v);
        }
    }

    /// Appends a length-prefixed `f64` slice (bit patterns).
    pub fn put_f64s(&mut self, vs: &[f64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Appends a length-prefixed `f32` slice (bit patterns).
    pub(crate) fn put_f32s(&mut self, vs: &[f32]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_f32(v);
        }
    }

    /// Appends a length-prefixed `bool` slice (one byte per element).
    pub fn put_bools(&mut self, vs: &[bool]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_bool(v);
        }
    }

    /// Writes a tagged length-prefixed section: `tag | len | body`, where
    /// `body` is whatever `f` writes. The length is patched after `f` runs,
    /// so sections nest freely.
    pub fn section<F: FnOnce(&mut Writer)>(&mut self, tag: u32, f: F) {
        self.put_u32(tag);
        let len_at = self.buf.len();
        self.put_u64(0);
        f(self);
        let body_len = (self.buf.len() - len_at - 8) as u64;
        self.buf[len_at..len_at + 8].copy_from_slice(&body_len.to_le_bytes());
    }
}

/// Checked decode cursor over an encoded byte slice.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `data`, positioned at the start.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads an `f32` bit pattern.
    pub(crate) fn get_f32(&mut self) -> Result<f32, SnapError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads a `bool` byte; any value other than 0/1 is corruption.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::BadCrc),
        }
    }

    /// Announced element count for a length-prefixed sequence, bounded by
    /// the bytes actually remaining (`elem_size` bytes per element) so a
    /// corrupt length cannot trigger a huge allocation.
    fn get_len(&mut self, elem_size: usize) -> Result<usize, SnapError> {
        let n = self.get_u64()?;
        let need = (n as usize).checked_mul(elem_size).ok_or(SnapError::Truncated)?;
        if need > self.remaining() {
            return Err(SnapError::Truncated);
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.get_len(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed `u64` sequence.
    pub fn get_u64s(&mut self) -> Result<Vec<u64>, SnapError> {
        let n = self.get_len(8)?;
        (0..n).map(|_| self.get_u64()).collect()
    }

    /// Reads a length-prefixed `u32` sequence.
    pub fn get_u32s(&mut self) -> Result<Vec<u32>, SnapError> {
        let n = self.get_len(4)?;
        (0..n).map(|_| self.get_u32()).collect()
    }

    /// Reads a length-prefixed `f64` sequence.
    pub fn get_f64s(&mut self) -> Result<Vec<f64>, SnapError> {
        let n = self.get_len(8)?;
        (0..n).map(|_| self.get_f64()).collect()
    }

    /// Reads a length-prefixed `f32` sequence.
    pub(crate) fn get_f32s(&mut self) -> Result<Vec<f32>, SnapError> {
        let n = self.get_len(4)?;
        (0..n).map(|_| self.get_f32()).collect()
    }

    /// Reads a length-prefixed `bool` sequence.
    pub(crate) fn get_bools(&mut self) -> Result<Vec<bool>, SnapError> {
        let n = self.get_len(1)?;
        (0..n).map(|_| self.get_bool()).collect()
    }

    /// Enters the next section, which must carry `expected` as its tag.
    /// Returns a sub-reader scoped to the section body; the parent cursor
    /// advances past the whole section.
    pub fn section(&mut self, expected: u32) -> Result<Reader<'a>, SnapError> {
        let found = self.get_u32()?;
        if found != expected {
            return Err(SnapError::BadTag { found, expected });
        }
        let len = self.get_u64()? as usize;
        let body = self.take(len)?;
        Ok(Reader::new(body))
    }
}

/// Seals `payload` into a container: magic, version, payload, CRC32 trailer.
pub fn seal(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 4 + payload.len() + 4);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Opens a container, verifying (in order) length, magic, CRC trailer, and
/// version, and returns the payload slice.
///
/// # Errors
///
/// [`SnapError::Truncated`] on short input, [`SnapError::BadMagic`] /
/// [`SnapError::BadCrc`] / [`SnapError::BadVersion`] as named.
pub fn open<'a>(bytes: &'a [u8], magic: &[u8; 8], version: u32) -> Result<&'a [u8], SnapError> {
    if bytes.len() < 8 + 4 + 4 {
        return Err(SnapError::Truncated);
    }
    if &bytes[..8] != magic {
        let mut found = [0u8; 8];
        found.copy_from_slice(&bytes[..8]);
        return Err(SnapError::BadMagic { found });
    }
    let body = &bytes[..bytes.len() - 4];
    let trailer = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if crc32(body) != trailer {
        return Err(SnapError::BadCrc);
    }
    let found = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if found != version {
        return Err(SnapError::BadVersion { found, expected: version });
    }
    Ok(&bytes[12..bytes.len() - 4])
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"RDTESTSN";

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789" under CRC32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn scalar_and_sequence_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_f32(1.5e-30);
        w.put_bool(true);
        w.put_bytes(b"abc");
        w.put_u64s(&[1, 2, 3]);
        w.put_u32s(&[9, 8]);
        w.put_f64s(&[0.1, f64::INFINITY]);
        w.put_f32s(&[2.5]);
        w.put_bools(&[true, false, true]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_f32().unwrap(), 1.5e-30);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_bytes().unwrap(), b"abc");
        assert_eq!(r.get_u64s().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_u32s().unwrap(), vec![9, 8]);
        assert_eq!(r.get_f64s().unwrap(), vec![0.1, f64::INFINITY]);
        assert_eq!(r.get_f32s().unwrap(), vec![2.5]);
        assert_eq!(r.get_bools().unwrap(), vec![true, false, true]);
        assert!(r.is_empty());
    }

    #[test]
    fn sections_nest_and_check_tags() {
        let mut w = Writer::new();
        w.section(1, |w| {
            w.put_u64(42);
            w.section(2, |w| w.put_u32(7));
        });
        w.section(3, |w| w.put_bytes(b"tail"));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let mut s1 = r.section(1).unwrap();
        assert_eq!(s1.get_u64().unwrap(), 42);
        let mut s2 = s1.section(2).unwrap();
        assert_eq!(s2.get_u32().unwrap(), 7);
        let mut s3 = r.section(3).unwrap();
        assert_eq!(s3.get_bytes().unwrap(), b"tail");
        assert!(r.is_empty());
        // Wrong expected tag is a typed error.
        let mut r = Reader::new(&bytes);
        assert_eq!(r.section(9).err(), Some(SnapError::BadTag { found: 1, expected: 9 }));
    }

    #[test]
    fn container_round_trip_and_rejections() {
        let mut w = Writer::new();
        w.put_u64(0x1234_5678_9ABC_DEF0);
        let sealed = seal(MAGIC, SNAP_VERSION, &w.into_bytes());
        let payload = open(&sealed, MAGIC, SNAP_VERSION).unwrap();
        assert_eq!(Reader::new(payload).get_u64().unwrap(), 0x1234_5678_9ABC_DEF0);

        // Truncation at any length must be rejected, never panic.
        for cut in 0..sealed.len() {
            assert!(open(&sealed[..cut], MAGIC, SNAP_VERSION).is_err(), "cut {cut}");
        }
        // Any single-bit flip in the body is caught by the CRC (or magic).
        for byte in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[byte] ^= 0x10;
            assert!(open(&bad, MAGIC, SNAP_VERSION).is_err(), "flip at {byte}");
        }
        // Wrong magic is typed.
        assert!(matches!(
            open(&sealed, b"WRONGMAG", SNAP_VERSION),
            Err(SnapError::BadMagic { .. })
        ));
        // A version bump with a valid CRC is a typed version error.
        let mut next = sealed.clone();
        next[8..12].copy_from_slice(&(SNAP_VERSION + 1).to_le_bytes());
        let crc = crc32(&next[..next.len() - 4]);
        let at = next.len() - 4;
        next[at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            open(&next, MAGIC, SNAP_VERSION),
            Err(SnapError::BadVersion { found: SNAP_VERSION + 1, expected: SNAP_VERSION })
        );
    }

    #[test]
    fn corrupt_lengths_do_not_allocate_or_panic() {
        // A sequence length far beyond the buffer must fail fast.
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).get_u64s(), Err(SnapError::Truncated));
        assert_eq!(Reader::new(&bytes).get_bytes(), Err(SnapError::Truncated));
        assert_eq!(Reader::new(&bytes).get_bools(), Err(SnapError::Truncated));
    }
}
