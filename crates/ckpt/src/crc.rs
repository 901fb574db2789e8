//! CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the same
//! parameterization as zlib's `crc32`, implemented with compile-time
//! lookup tables so the crate stays dependency-free.
//!
//! The kernel is slicing-by-8: eight 256-entry tables (8 KiB), where
//! `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, let
//! one step fold eight input bytes with eight independent loads instead
//! of eight dependent ones. Every spilled bucket, snapshot and journal
//! record is checksummed whole, so this loop bounds the durable path.
//! The values are the standard CRC-32/IEEE ones that the `GMSP`, `GMCK`
//! and `GMJL` formats store; the hardware `crc32` instructions compute
//! CRC-32C (another polynomial), so using them would change every one of
//! those formats.

const fn build_tables() -> [[u32; 256]; 8] {
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
    // One more zero byte pushed through the one-byte step per table.
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

static TABLES: [[u32; 256]; 8] = build_tables();

/// Streaming CRC-32 state. `Crc32::new().update(a).update(b).finish()`
/// equals `crc32(a ++ b)`.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    pub fn update(mut self, bytes: &[u8]) -> Self {
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        // The <8-byte tail, one byte per step.
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
        self
    }

    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot convenience over [`Crc32`].
pub fn crc32(bytes: &[u8]) -> u32 {
    Crc32::new().update(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference oracle: the whole buffer one byte — eight shift
    /// steps — at a time, straight from the polynomial, sharing no table
    /// with the kernel under test.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    /// Repeatable filler: a multiplicative hash of the index and a seed.
    fn seeded_bytes(len: u32, seed: u32) -> Vec<u8> {
        (0..len)
            .map(|i| ((i ^ seed).wrapping_mul(0x9E37_79B1) >> 24) as u8)
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let whole = crc32(b"hello world");
        let split = Crc32::new().update(b"hello").update(b" world").finish();
        assert_eq!(whole, split);
    }

    #[test]
    fn slicing_matches_bytewise_at_every_length_and_offset() {
        // Every length across several 8-byte strides, at every alignment
        // of the first byte: head, main loop and tail in all combinations.
        let buf = seeded_bytes(8 + 257, 0x5EED);
        for offset in 0..8 {
            for len in 0..=257 {
                let slice = &buf[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn update_split_anywhere_matches_one_shot() {
        let buf = seeded_bytes(64, 42);
        let whole = crc32(&buf);
        assert_eq!(whole, crc32_bytewise(&buf));
        for cut in 0..=buf.len() {
            let (a, b) = buf.split_at(cut);
            assert_eq!(
                Crc32::new().update(a).update(b).finish(),
                whole,
                "split at {cut}"
            );
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = b"superstep frontier".to_vec();
        let before = crc32(&data);
        data[7] ^= 0x20;
        assert_ne!(before, crc32(&data));
    }
}
