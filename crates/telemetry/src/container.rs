//! The one durable-container codec every on-disk artifact uses.
//!
//! Tracker checkpoints (`PIMVOCKP`), fleet manifests (`PIMVOFLT`),
//! flight-recorder dumps (`PIMVOFDR`) and op traces (`PIMVOTRC`) share
//! one frame:
//!
//! ```text
//! offset  size  field
//! 0       8     magic (identifies the format)
//! 8       2     version (u16 LE; must match exactly)
//! 10      8     payload length n (u64 LE)
//! 18      n     payload (format-specific, little-endian)
//! 18+n    4     CRC-32 (IEEE) over bytes [8, 18+n)
//! ```
//!
//! A [`Writer`] builds the payload in place and [`Writer::seal`]s it;
//! [`open`] validates a frame and hands back the payload for a
//! bounds-checked [`Reader`]. Every failure, framing or payload, is one
//! typed [`ContainerError`]; foreign or damaged bytes never panic.
//! [`write_atomic`] is the one crash-safe file writer and [`crc32`]
//! the one checksum (the DMA descriptors use it too).

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Bytes before the payload: magic + version + payload length.
const HEADER_LEN: usize = 8 + 2 + 8;
/// Bytes of framing around the payload: header + trailing CRC.
const FRAMING_LEN: usize = HEADER_LEN + 4;

/// Why a container could not be written or decoded.
#[derive(Debug)]
pub enum ContainerError {
    /// Filesystem failure reading or writing the file.
    Io(std::io::Error),
    /// The bytes end before the frame (or a payload field) does.
    Truncated,
    /// The bytes do not start with the expected magic.
    BadMagic,
    /// The frame was written in a different layout version.
    Version {
        /// Version stored in the frame.
        got: u16,
        /// The only version this build decodes.
        want: u16,
    },
    /// The stored CRC-32 does not match the frame contents.
    Crc,
    /// The payload is internally inconsistent (invalid tag, absurd
    /// count, trailing bytes, ...).
    Malformed(&'static str),
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::Io(e) => write!(f, "I/O: {e}"),
            ContainerError::Truncated => write!(f, "truncated"),
            ContainerError::BadMagic => write!(f, "bad magic"),
            ContainerError::Version { got, want } => {
                write!(f, "version {got} unsupported (this build reads {want})")
            }
            ContainerError::Crc => write!(f, "CRC mismatch"),
            ContainerError::Malformed(what) => write!(f, "malformed: {what}"),
        }
    }
}

impl std::error::Error for ContainerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ContainerError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ContainerError {
    fn from(e: std::io::Error) -> Self {
        ContainerError::Io(e)
    }
}

// ---------------------------------------------------------------- CRC32

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the bytewise table of the
/// reflected polynomial `0xEDB88320`, and `CRC_TABLES[k][b]` advances
/// `CRC_TABLES[k - 1][b]` by one more zero byte, so a byte followed by
/// `k` bytes folds in with one lookup.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected) of the data whose CRC is `crc` (0
/// for none) followed by `bytes`, as zlib's `crc32(crc, buf)`: feeding
/// bytes in pieces, `crc32(crc32(0, a), b)`, equals the one-shot
/// `crc32(0, a ++ b)`. Eight bytes fold in per step (slicing-by-8),
/// the tail one at a time.
pub fn crc32(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = c ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// -------------------------------------------------------------- framing

/// Builds one frame: the header is reserved up front, the payload is
/// written in place, and [`Writer::seal`] fills in the length and
/// appends the CRC.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts a frame of format `magic`, layout `version`.
    pub fn new(magic: &[u8; 8], version: u16) -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(magic);
        buf.extend_from_slice(&version.to_le_bytes());
        buf.extend_from_slice(&[0; 8]);
        Writer { buf }
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends a byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends an `f64` by its bit pattern (exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Finishes the frame: payload length, then CRC over `[8, end)`.
    pub fn seal(mut self) -> Vec<u8> {
        let len = (self.buf.len() - HEADER_LEN) as u64;
        self.buf[10..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(0, &self.buf[8..]);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

/// Validates a frame of format `magic`, layout `version` and returns
/// its payload. Checks run in order — length ≥ framing, magic, exact
/// version, declared against actual length, CRC — so an older layout
/// reports [`ContainerError::Version`] rather than a misleading length
/// or CRC error. Trailing bytes after the frame are
/// [`ContainerError::Malformed`].
pub fn open<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u16,
) -> Result<&'a [u8], ContainerError> {
    if bytes.len() < FRAMING_LEN {
        return Err(ContainerError::Truncated);
    }
    let mut header = Reader::new(&bytes[..HEADER_LEN]);
    if header.take(8)? != magic {
        return Err(ContainerError::BadMagic);
    }
    let got = header.u16()?;
    if got != version {
        return Err(ContainerError::Version { got, want: version });
    }
    let total = usize::try_from(header.u64()?)
        .ok()
        .and_then(|n| n.checked_add(FRAMING_LEN))
        .unwrap_or(usize::MAX);
    if bytes.len() < total {
        return Err(ContainerError::Truncated);
    }
    if bytes.len() > total {
        return Err(ContainerError::Malformed("trailing bytes after the frame"));
    }
    let (body, tail) = bytes.split_at(total - 4);
    if Reader::new(tail).u32()? != crc32(0, &body[8..]) {
        return Err(ContainerError::Crc);
    }
    Ok(&body[HEADER_LEN..])
}

/// Bounds-checked little-endian cursor over a payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The next `n` bytes ([`ContainerError::Truncated`] if fewer
    /// remain).
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ContainerError> {
        if n > self.remaining() {
            return Err(ContainerError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ContainerError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// Reads a byte.
    pub fn u8(&mut self) -> Result<u8, ContainerError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `0`/`1` flag byte; anything else is
    /// [`ContainerError::Malformed`].
    pub fn bool(&mut self) -> Result<bool, ContainerError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ContainerError::Malformed("invalid flag byte")),
        }
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ContainerError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ContainerError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ContainerError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, ContainerError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64` element count and checks that `count` elements of
    /// at least `min_len` bytes each fit in what remains, so a corrupt
    /// count can never size an allocation.
    pub fn count(&mut self, min_len: usize) -> Result<usize, ContainerError> {
        let n = usize::try_from(self.u64()?).unwrap_or(usize::MAX);
        if n.saturating_mul(min_len) > self.remaining() {
            return Err(ContainerError::Truncated);
        }
        Ok(n)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Ends the decode ([`ContainerError::Malformed`] if payload bytes
    /// are left over).
    pub fn finish(self) -> Result<(), ContainerError> {
        if self.remaining() != 0 {
            return Err(ContainerError::Malformed("trailing payload bytes"));
        }
        Ok(())
    }
}

// --------------------------------------------------------- atomic write

/// The temp sibling [`write_atomic`] stages `path` in: `<file name>.tmp`.
fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Writes `bytes` to `path` crash-safely: the bytes go to
/// `<file name>.tmp`, are fsynced, and the temp file is renamed over
/// `path`. A crash at any instant leaves either the previous file or
/// the new one under the real name, never a torn one. On Unix the
/// parent directory is fsynced too, so the rename itself is durable.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    #[cfg(unix)]
    {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise table loop: one lookup per byte, the reference the
    /// slicing-by-8 [`crc32`] must match.
    fn crc32_bytewise(crc: u32, bytes: &[u8]) -> u32 {
        let mut c = !crc;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_is_the_ieee_checksum_and_chains() {
        // the standard CRC-32/IEEE check value
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(0, b""), 0);
        assert_eq!(crc32(crc32(0, b"1234"), b"56789"), 0xCBF4_3926);
        assert_eq!(crc32(crc32(0, b""), b"123456789"), 0xCBF4_3926);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// For every length 0..=1024, random bytes: the sliced CRC
        /// equals the bytewise loop, from a random running CRC too, and
        /// feeding the bytes in two pieces split anywhere equals one
        /// pass.
        #[test]
        fn crc32_matches_the_bytewise_loop(seed in any::<u64>(), running in any::<u32>()) {
            let mut s = seed | 1;
            let mut next = || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            for len in 0..=1024usize {
                let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                let whole = crc32(0, &bytes);
                prop_assert_eq!(whole, crc32_bytewise(0, &bytes), "length {}", len);
                prop_assert_eq!(crc32(running, &bytes), crc32_bytewise(running, &bytes));
                let split = next() as usize % (len + 1);
                let (a, b) = bytes.split_at(split);
                prop_assert_eq!(crc32(crc32(0, a), b), whole, "length {} split {}", len, split);
            }
        }
    }

    #[test]
    fn version_is_checked_before_length_and_crc() {
        // an older layout with a damaged length and CRC still reports
        // the version, the one error that explains it
        let mut w = Writer::new(b"PIMVOTST", 3);
        w.bytes(b"payload");
        let mut bytes = w.seal();
        bytes[10] ^= 0xFF;
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        assert!(matches!(
            open(&bytes, b"PIMVOTST", 4),
            Err(ContainerError::Version { got: 3, want: 4 })
        ));
    }

    #[test]
    fn temp_paths_keep_the_whole_file_name() {
        // with_extension would map both to "fleet.fleet.tmp"
        let a = tmp_path(Path::new("dir/fleet.a"));
        let b = tmp_path(Path::new("dir/fleet.b"));
        assert_ne!(a, b);
        assert_eq!(a, Path::new("dir/fleet.a.tmp"));
    }
}
