//! Bloom filter over composite keys.

use std::io::{self, Read, Write};

/// Serialised header: `num_bits u64 | num_hashes u32`.
const HEADER_LEN: usize = 12;

/// A classic bloom filter with double hashing.
///
/// Built once per SSTable over all its keys; a negative answer proves the
/// key is absent, letting point queries skip the table without touching
/// disk (counted as `bloom_negatives` in the I/O statistics).
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    num_hashes: u32,
}

/// 64-bit finalizer from SplitMix64 — good avalanche behaviour, no
/// dependencies.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl BloomFilter {
    /// Creates a filter sized for `expected` keys at `bits_per_key`
    /// (10 bits/key ≈ 1 % false-positive rate with 7 hashes).
    pub fn with_capacity(expected: usize, bits_per_key: usize) -> Self {
        let num_bits = (expected.max(1) * bits_per_key.max(1)).max(64) as u64;
        let num_bits = num_bits.next_multiple_of(64);
        // k = ln2 * bits/key, clamped to a sane range.
        let num_hashes = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30);
        Self {
            bits: vec![0u64; (num_bits / 64) as usize],
            num_bits,
            num_hashes,
        }
    }

    /// Double-hash probe positions for a key.
    #[inline]
    fn probes(&self, key: u64) -> impl Iterator<Item = u64> + '_ {
        let h1 = mix64(key);
        let h2 = mix64(key ^ 0xA5A5_A5A5_A5A5_A5A5) | 1;
        let n = self.num_bits;
        (0..self.num_hashes as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % n)
    }

    /// Inserts a key (as its 64-bit representation).
    pub fn insert(&mut self, key: u64) {
        let positions: Vec<u64> = self.probes(key).collect();
        for pos in positions {
            self.bits[(pos / 64) as usize] |= 1 << (pos % 64);
        }
    }

    /// May the key be present? `false` is definitive.
    pub fn may_contain(&self, key: u64) -> bool {
        self.probes(key)
            .all(|pos| self.bits[(pos / 64) as usize] & (1 << (pos % 64)) != 0)
    }

    /// Byte length of the serialised filter.
    pub fn serialized_len(&self) -> usize {
        HEADER_LEN + self.bits.len() * 8
    }

    /// Streams the serialised filter —
    /// `num_bits u64 | num_hashes u32 | words…`, little-endian — into `w`
    /// word by word, so a large filter is never held twice in memory.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.num_bits.to_le_bytes())?;
        w.write_all(&self.num_hashes.to_le_bytes())?;
        for word in &self.bits {
            w.write_all(&word.to_le_bytes())?;
        }
        Ok(())
    }

    /// Reads a filter serialised in `len` bytes from `r`, decoding in
    /// small chunks straight into one exact-size word array — the inverse
    /// of [`write_to`](Self::write_to). `Ok(None)` on malformed input:
    /// a header that is cut short, inconsistent, or disagrees with `len`
    /// (checked before anything is allocated for the words).
    pub fn read_from(r: &mut impl Read, len: u64) -> io::Result<Option<Self>> {
        if len < HEADER_LEN as u64 {
            return Ok(None);
        }
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        let num_bits = u64::from_le_bytes(header[0..8].try_into().expect("8 bytes"));
        let num_hashes = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        let words = num_bits / 64;
        if num_bits % 64 != 0
            || num_hashes == 0
            || words.checked_mul(8) != Some(len - HEADER_LEN as u64)
        {
            return Ok(None);
        }
        let mut bits = vec![0u64; words as usize];
        let mut chunk = [0u8; 8192];
        for part in bits.chunks_mut(chunk.len() / 8) {
            let bytes = &mut chunk[..part.len() * 8];
            r.read_exact(bytes)?;
            for (word, raw) in part.iter_mut().zip(bytes.chunks_exact(8)) {
                *word = u64::from_le_bytes(raw.try_into().expect("8 bytes"));
            }
        }
        Ok(Some(Self {
            bits,
            num_bits,
            num_hashes,
        }))
    }

    /// Size of the bit array in bits.
    pub fn num_bits(&self) -> u64 {
        self.num_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_bytes(f: &BloomFilter) -> Vec<u8> {
        let mut out = Vec::new();
        f.write_to(&mut out).unwrap();
        out
    }

    fn from_bytes(bytes: &[u8]) -> Option<BloomFilter> {
        BloomFilter::read_from(&mut &bytes[..], bytes.len() as u64)
            .ok()
            .flatten()
    }

    #[test]
    fn inserted_keys_are_found() {
        let mut f = BloomFilter::with_capacity(1000, 10);
        for k in 0..1000u64 {
            f.insert(k * 7919);
        }
        for k in 0..1000u64 {
            assert!(f.may_contain(k * 7919));
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut f = BloomFilter::with_capacity(10_000, 10);
        for k in 0..10_000u64 {
            f.insert(k);
        }
        let fp = (10_000..110_000u64).filter(|&k| f.may_contain(k)).count();
        let rate = fp as f64 / 100_000.0;
        assert!(rate < 0.03, "false-positive rate {rate} too high");
    }

    #[test]
    fn serialisation_round_trip() {
        let mut f = BloomFilter::with_capacity(100, 10);
        for k in [1u64, 99, 12345, u64::MAX] {
            f.insert(k);
        }
        let g = from_bytes(&to_bytes(&f)).unwrap();
        assert_eq!(g.num_bits(), f.num_bits());
        for k in [1u64, 99, 12345, u64::MAX] {
            assert!(g.may_contain(k));
        }
        assert_eq!(g.may_contain(7), f.may_contain(7));
    }

    #[test]
    fn streamed_form_equals_the_buffered_one() {
        // Large enough to span several read chunks, with a ragged tail.
        let mut f = BloomFilter::with_capacity(5000, 10);
        for k in 0..5000u64 {
            f.insert(k.wrapping_mul(0x9E37_79B9));
        }
        let bytes = to_bytes(&f);
        assert_eq!(bytes.len(), f.serialized_len());
        let g = BloomFilter::read_from(&mut &bytes[..], bytes.len() as u64)
            .unwrap()
            .unwrap();
        assert_eq!(to_bytes(&g), bytes);
        // A length that disagrees with the header is malformed, not an
        // allocation request.
        assert!(BloomFilter::read_from(&mut &bytes[..], u64::MAX)
            .unwrap()
            .is_none());
        // A source that runs dry is an I/O error.
        let cut = &bytes[..bytes.len() - 1];
        assert!(BloomFilter::read_from(&mut &cut[..], bytes.len() as u64).is_err());
    }

    #[test]
    fn malformed_bytes_rejected() {
        assert!(from_bytes(&[1, 2, 3]).is_none());
        let mut good = to_bytes(&BloomFilter::with_capacity(10, 10));
        good.pop();
        assert!(from_bytes(&good).is_none());
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::with_capacity(100, 10);
        assert!(!f.may_contain(42));
    }
}
