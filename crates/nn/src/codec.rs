//! The little-endian byte codec shared by the serving wire protocol and
//! the binary checkpoint format.
//!
//! Floats travel as raw bit patterns ([`f32::to_le_bytes`] /
//! [`f32::from_le_bytes`]), so every round trip is bitwise. [`Dec`]
//! never panics on malformed input: every read is bounds-checked, and
//! [`Dec::remaining`] is the budget any count field must fit in before a
//! caller allocates for it.

use std::io;

/// An `InvalidData` error with `msg`.
pub fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// FNV-1a-64 over bytes: the lane hash for expression text and the
/// checkpoint checksum. Any single-byte change alters the digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Byte-wise little-endian encoder.
#[derive(Debug, Default)]
pub struct Enc {
    /// The encoded bytes so far.
    pub buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    #[inline]
    pub fn new() -> Enc {
        Enc::default()
    }
    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Appends a `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends an `f32` bit pattern.
    #[inline]
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends an `f64` bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `u32` length prefix and the UTF-8 bytes of `s`.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Byte-wise little-endian decoder over a borrowed buffer. Every read
/// fails with `InvalidData`, never a panic, when the buffer runs out.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, at: 0 }
    }
    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("truncated payload"))?;
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }
    /// Bytes left in the buffer — the budget any count field must fit
    /// in, so a hostile count can't drive an allocation the buffer could
    /// never back with data.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }
    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    /// Reads a `u32`.
    #[inline]
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    /// Reads a `u64`.
    #[inline]
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    /// Reads an `f32` bit pattern.
    #[inline]
    pub fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    /// Reads an `f64` bit pattern.
    #[inline]
    pub fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    /// Reads a `u32`-length-prefixed UTF-8 string of at most 1 MiB.
    pub fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        if len > 1 << 20 {
            return Err(bad("string field over 1 MiB"));
        }
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| bad("string field not UTF-8"))
    }
    /// Consumes the decoder; errors if any byte was left unread.
    pub fn finish(self) -> io::Result<()> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(bad("trailing bytes after payload"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
