//! CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the same
//! parameterization as zlib's `crc32`, computed without dependencies.
//!
//! Two kernels compute the same value:
//!
//! - **Carry-less-multiply folding** (x86-64 with `pclmulqdq` and
//!   `sse4.1`, detected at run time; inputs of `FOLD_MIN` bytes or
//!   more). Following Gopal et al., "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), four 128-bit
//!   lanes absorb 64 bytes per step: each lane is multiplied by
//!   x^(4·128±32) mod P and XORed with the next 16 input bytes. The lanes
//!   then fold into one, 16 bytes at a time, and the 128-bit remainder
//!   is reduced to 64 and then 32 bits, the last step by Barrett
//!   reduction. Nothing in the method is specific to one polynomial:
//!   every constant it uses is derived at compile time from `POLY`, so
//!   the result is the CRC-32/IEEE value bit for bit.
//! - **Slicing-by-8 tables** for the under-16-byte tail of a fold, for
//!   short inputs, and for every other platform. Eight 256-entry tables
//!   (8 KiB), where `TABLES[k][b]` is the CRC of byte `b` followed by `k`
//!   zero bytes, let one step fold eight input bytes with eight
//!   independent loads instead of eight dependent ones. The tests hold
//!   the fold to this kernel and both to a one-bit-at-a-time oracle.
//!
//! Every spilled bucket, snapshot and journal record is checksummed
//! whole, so these kernels bound the durable path. The values are the
//! standard CRC-32/IEEE ones that the `GMSP`, `GMCK` and `GMJL` formats
//! store. (The SSE4.2 `crc32` instruction computes CRC-32C, another
//! polynomial, and would change every one of those formats; folding does
//! not.)

/// The IEEE generator polynomial, bit-reflected and without its x^32 term.
const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
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

/// Inputs shorter than this stay on the table kernel: below two folding
/// steps the lane set-up and the final reduction cost more than they save.
#[cfg(target_arch = "x86_64")]
const FOLD_MIN: usize = 128;

/// The slicing-by-8 kernel: advances the raw CRC register `crc` (not
/// inverted) over `bytes`.
fn update_table(mut crc: u32, bytes: &[u8]) -> u32 {
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
    crc
}

/// The folding kernel. Constants are bit-reflected, like the CRC
/// register, and each is one bit wider than the remainder it encodes
/// (`<< 1`), as the reflected form of the method requires.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The generator polynomial P(x) with its x^32 term, unreflected.
    const P: u64 = (1 << 32) | super::POLY.reverse_bits() as u64;

    /// x^n mod P(x), unreflected.
    const fn xpow_mod(n: u32) -> u32 {
        let mut r: u64 = 1;
        let mut i = 0;
        while i < n {
            r <<= 1;
            if r & (1 << 32) != 0 {
                r ^= P;
            }
            i += 1;
        }
        r as u32
    }

    /// The reflected folding constant for a shift of `n` bits.
    const fn key(n: u32) -> i64 {
        ((xpow_mod(n).reverse_bits() as u64) << 1) as i64
    }

    /// floor(x^64 / P(x)), reflected over its 33 bits: Barrett's μ.
    const fn mu() -> i64 {
        let mut rem: u128 = 1 << 64;
        let mut q: u64 = 0;
        let mut i = 33;
        while i > 0 {
            i -= 1;
            if rem & (1 << (i + 32)) != 0 {
                rem ^= (P as u128) << i;
                q |= 1 << i;
            }
        }
        (q.reverse_bits() >> 31) as i64
    }

    /// Fold four lanes forward by 4·128 bits.
    const K1: i64 = key(4 * 128 + 32);
    const K2: i64 = key(4 * 128 - 32);
    /// Fold one lane forward by 128 bits.
    const K3: i64 = key(128 + 32);
    const K4: i64 = key(128 - 32);
    /// Reduce 96 bits to 64.
    const K5: i64 = key(64);
    /// P(x), reflected over its 33 bits.
    const P_REFLECTED: i64 = (P.reverse_bits() >> 31) as i64;
    const MU: i64 = mu();

    /// Whether the running CPU has the features [`fold`] is built for.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// One 16-byte lane, loaded little-endian.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn lane(b: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        let hi = u64::from_le_bytes([b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15]]);
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// `acc` carried forward by the shift `keys` encodes, plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_lane(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Advances the raw CRC register `crc` over `bytes`: the whole
    /// 16-byte blocks by folding, the rest on the table kernel.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, bytes: &[u8]) -> u32 {
        let mut blocks = bytes.chunks_exact(64);
        let Some(first) = blocks.next() else {
            return super::update_table(crc, bytes);
        };
        let mut x = [
            lane(&first[..16]),
            lane(&first[16..32]),
            lane(&first[32..48]),
            lane(&first[48..]),
        ];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in &mut blocks {
            for (acc, next) in x.iter_mut().zip(block.chunks_exact(16)) {
                *acc = fold_lane(*acc, lane(next), k1k2);
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold_lane(x[0], x[1], k3k4);
        acc = fold_lane(acc, x[2], k3k4);
        acc = fold_lane(acc, x[3], k3k4);
        let mut rest = blocks.remainder().chunks_exact(16);
        for next in &mut rest {
            acc = fold_lane(acc, lane(next), k3k4);
        }

        // 128 -> 96 -> 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
            _mm_srli_si128::<8>(acc),
        );
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(acc),
        );

        // Barrett reduction, 64 -> 32 bits: T1 = (R mod x^32)·μ,
        // T2 = (T1 mod x^32)·P, and the reflected remainder is the upper
        // half of R ^ T2.
        let pmu = _mm_set_epi64x(MU, P_REFLECTED);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        let folded = _mm_extract_epi32::<1>(_mm_xor_si128(acc, t2)) as u32;

        super::update_table(folded, rest.remainder())
    }
}

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
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= FOLD_MIN && clmul::available() {
            // SAFETY: `fold` only requires the `pclmulqdq` and `sse4.1`
            // target features, and `available` just detected both on the
            // running CPU.
            self.state = unsafe { clmul::fold(self.state, bytes) };
            return self;
        }
        self.state = update_table(self.state, bytes);
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

    /// The table kernel alone, from the same init and xor-out.
    fn crc32_table(bytes: &[u8]) -> u32 {
        update_table(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    #[test]
    fn slicing_matches_bytewise_at_every_length_and_offset() {
        // Every length up to 1100 at every alignment of the first byte:
        // the table kernel's head, main loop and tail in all combinations,
        // and, where the CPU folds, inputs below the fold threshold, the
        // 64-byte fold loop, the 16-byte fold loop and the table tail.
        let buf = seeded_bytes(16 + 1100, 0x5EED);
        for offset in 0..16 {
            for len in 0..=1100 {
                let slice = &buf[offset..offset + len];
                let want = crc32_bytewise(slice);
                assert_eq!(crc32(slice), want, "offset {offset}, length {len}");
                assert_eq!(
                    crc32_table(slice),
                    want,
                    "table: offset {offset}, length {len}"
                );
            }
        }
        // One spill-bucket-sized input: the dispatching kernel, the table
        // kernel called directly and the bytewise oracle agree.
        let big = seeded_bytes(1 << 20, 0x0DD5_EED5);
        let want = crc32_bytewise(&big);
        assert_eq!(crc32(&big), want);
        assert_eq!(crc32_table(&big), want);
    }

    #[test]
    fn update_split_anywhere_matches_one_shot() {
        // Longer than two fold thresholds, so split streams cross the
        // threshold mid-buffer on either side of the cut.
        let buf = seeded_bytes(320, 42);
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
