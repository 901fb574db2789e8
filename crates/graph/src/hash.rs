//! The workspace's one non-cryptographic hash.
//!
//! FNV-1a 64 (Fowler, Noll, Vo): XOR each byte into the state, then
//! multiply by the 64-bit FNV prime. Like [`crate::rng`], it needs no
//! crate and gives the same value on every platform and in every build,
//! so what it names can be persisted: property-test case seeds, the
//! program identity a snapshot carries, and the fingerprints of result
//! columns.

/// A running FNV-1a 64 hash over a byte stream.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// The hash of no bytes: the FNV-1a 64 offset basis.
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// The hash of `bytes`.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::default();
        h.update(bytes);
        h.finish()
    }

    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers() {
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x8594_4171_f739_67e8);
        let mut split = Fnv1a::default();
        split.update(b"foo");
        split.update(b"bar");
        assert_eq!(split.finish(), Fnv1a::hash(b"foobar"));
    }
}
