//! Minimal binary codec: the [`Persist`] trait plus a bounds-checked
//! [`ByteReader`].
//!
//! Encoding rules are fixed so snapshots are byte-reproducible across
//! runs and machines: integers are little-endian, `f64` is encoded via
//! `to_bits` (bit-exact, NaN-preserving), lengths are `u64`, and every
//! composite type writes its fields in declaration order. There is no
//! padding and no alignment; the format is a plain byte stream.

use crate::error::CkptError;

/// Cursor over a byte slice with bounds-checked primitive reads.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consume exactly `n` bytes, failing with `Truncated` if the buffer
    /// is too short.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Assert the reader consumed its entire input; decoders call this
    /// to reject snapshots with trailing garbage.
    pub fn expect_end(&self) -> Result<(), CkptError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CkptError::Decode(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )))
        }
    }

    #[inline]
    pub fn read_u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn read_u32(&mut self) -> Result<u32, CkptError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    #[inline]
    pub fn read_u64(&mut self) -> Result<u64, CkptError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a `u64` length prefix and check it against the remaining
    /// bytes (`min_elem_size` per element) so corrupt lengths fail fast
    /// instead of attempting enormous allocations.
    pub fn read_len(&mut self, min_elem_size: usize) -> Result<usize, CkptError> {
        let len = self.read_u64()?;
        let len: usize = len
            .try_into()
            .map_err(|_| CkptError::Decode(format!("length {len} overflows usize")))?;
        if min_elem_size > 0 && self.remaining() / min_elem_size < len {
            return Err(CkptError::Truncated);
        }
        Ok(len)
    }
}

/// Types that can round-trip through the snapshot byte stream.
pub trait Persist: Sized {
    fn persist(&self, out: &mut Vec<u8>);
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError>;

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.persist(&mut out);
        out
    }

    /// Decode from a buffer, requiring that every byte is consumed.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut r = ByteReader::new(bytes);
        let v = Self::restore(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

impl Persist for () {
    fn persist(&self, _out: &mut Vec<u8>) {}
    fn restore(_r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(())
    }
}

impl Persist for u8 {
    #[inline]
    fn persist(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    #[inline]
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        r.read_u8()
    }
}

impl Persist for bool {
    #[inline]
    fn persist(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    #[inline]
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        match r.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CkptError::Decode(format!("invalid bool byte {b:#04x}"))),
        }
    }
}

impl Persist for u32 {
    #[inline]
    fn persist(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        r.read_u32()
    }
}

impl Persist for u64 {
    #[inline]
    fn persist(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        r.read_u64()
    }
}

impl Persist for i64 {
    #[inline]
    fn persist(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        r.read_u64().map(|v| v as i64)
    }
}

impl Persist for usize {
    #[inline]
    fn persist(&self, out: &mut Vec<u8>) {
        (*self as u64).persist(out);
    }
    #[inline]
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        let v = r.read_u64()?;
        v.try_into()
            .map_err(|_| CkptError::Decode(format!("usize value {v} overflows platform")))
    }
}

impl Persist for f64 {
    #[inline]
    fn persist(&self, out: &mut Vec<u8>) {
        self.to_bits().persist(out);
    }
    #[inline]
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(f64::from_bits(r.read_u64()?))
    }
}

impl Persist for std::time::Duration {
    #[inline]
    fn persist(&self, out: &mut Vec<u8>) {
        self.as_secs().persist(out);
        self.subsec_nanos().persist(out);
    }
    #[inline]
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        let secs = u64::restore(r)?;
        let nanos = u32::restore(r)?;
        if nanos >= 1_000_000_000 {
            return Err(CkptError::Decode(format!(
                "invalid subsecond nanos {nanos}"
            )));
        }
        Ok(std::time::Duration::new(secs, nanos))
    }
}

impl Persist for String {
    fn persist(&self, out: &mut Vec<u8>) {
        (self.len() as u64).persist(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        let len = r.read_len(1)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CkptError::Decode(format!("invalid utf-8 string: {e}")))
    }
}

impl<T: Persist> Persist for Option<T> {
    #[inline]
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.persist(out);
            }
        }
    }
    #[inline]
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        match r.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::restore(r)?)),
            b => Err(CkptError::Decode(format!("invalid Option tag {b:#04x}"))),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn persist(&self, out: &mut Vec<u8>) {
        (self.len() as u64).persist(out);
        for item in self {
            item.persist(out);
        }
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        // Every non-zero-sized element encodes at least one byte, so a
        // declared length larger than the remaining byte count is corrupt;
        // checking up front avoids huge speculative allocations. Zero-sized
        // elements (`()`) encode nothing, so the guard does not apply.
        let min_elem = usize::from(std::mem::size_of::<T>() != 0);
        let len = r.read_len(min_elem)?;
        let mut out = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            out.push(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    #[inline]
    fn persist(&self, out: &mut Vec<u8>) {
        self.0.persist(out);
        self.1.persist(out);
    }
    #[inline]
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok((A::restore(r)?, B::restore(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    #[inline]
    fn persist(&self, out: &mut Vec<u8>) {
        self.0.persist(out);
        self.1.persist(out);
        self.2.persist(out);
    }
    #[inline]
    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok((A::restore(r)?, B::restore(r)?, C::restore(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(true);
        round_trip(false);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(-12345i64);
        round_trip(i64::MIN);
        round_trip(usize::MAX);
        round_trip(std::f64::consts::PI);
        round_trip(-0.0f64);
        round_trip(Duration::new(12, 345_678_901));
        round_trip(String::from("héllo wörld"));
        round_trip(String::new());
    }

    #[test]
    fn nan_bits_survive() {
        let weird = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let back = f64::from_bytes(&weird.to_bytes()).unwrap();
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn composites_round_trip() {
        round_trip(Some(42u64));
        round_trip(Option::<u64>::None);
        round_trip(vec![1i64, -2, 3]);
        round_trip(Vec::<u32>::new());
        round_trip(vec![(); 7]);
        round_trip((1u32, -5i64));
        round_trip((true, 2.5f64, String::from("x")));
        round_trip(vec![vec![1u8], vec![], vec![2, 3]]);
    }

    #[test]
    fn invalid_bool_and_tag_rejected() {
        assert!(matches!(bool::from_bytes(&[2]), Err(CkptError::Decode(_))));
        assert!(matches!(
            Option::<u8>::from_bytes(&[9]),
            Err(CkptError::Decode(_))
        ));
    }

    #[test]
    fn truncation_detected() {
        let bytes = 7u64.to_bytes();
        assert!(matches!(
            u64::from_bytes(&bytes[..5]),
            Err(CkptError::Truncated)
        ));
        // A Vec claiming 1M elements with a 2-byte body must not allocate.
        let mut evil = (1_000_000u64).to_bytes();
        evil.extend_from_slice(&[0, 0]);
        assert!(matches!(
            Vec::<u64>::from_bytes(&evil),
            Err(CkptError::Truncated)
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 1u32.to_bytes();
        bytes.push(0);
        assert!(matches!(u32::from_bytes(&bytes), Err(CkptError::Decode(_))));
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = (vec![1.5f64, 2.5], String::from("k"), Some(9u64));
        assert_eq!(a.to_bytes(), a.to_bytes());
    }
}
