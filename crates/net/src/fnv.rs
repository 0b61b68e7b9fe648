//! Two hashes, deterministic across runs and platforms.
//!
//! FNV-1a 64 ([`Fnv`]) is behind the handshake
//! [`fingerprint`](crate::event::fingerprint), the centers hash of a
//! [`RunDigest`](crate::RunDigest), and `ekm-core`'s executor state
//! fingerprints. It makes one serial multiply per byte, which suits a
//! config string or a handful of centers.
//!
//! [`digest_f64s`] is the word-parallel digest `ekm-core`'s stage-cache
//! keys take of their bulk inputs: on a 2-vCPU Xeon it reads a
//! 10000 × 196 shard in about 2 ms, one pass over memory, where FNV-1a
//! takes 23.5 ms.

/// Streaming FNV-1a 64-bit hasher. [`Fnv::write_bytes`] hashes raw
/// bytes; the typed writers encode integers little-endian and prefix
/// variable-length fields with their length.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl Fnv {
    /// A hasher over the empty input.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Hashes `bytes`; split writes hash like one concatenated write.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hashes `v` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Hashes `v` as a `u64`.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Hashes `v` as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[v as u8]);
    }

    /// Hashes the length, then the UTF-8 bytes.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// Independent accumulators of [`digest_f64s`]: 32 words (256 bytes)
/// per stripe keep enough multiplies in flight to read a large input at
/// memory speed, and the lane loop vectorizes where the target has
/// 64-bit vector multiplies.
const LANES: usize = 32;

/// XXH64's round: folds one word into an accumulator. A bijection of
/// the accumulator for a fixed word, and of the word for a fixed
/// accumulator.
#[inline(always)]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// XXH64's merge round: folds a finished lane (or a tail word) into the
/// running hash; a bijection of either input for a fixed other one.
#[inline(always)]
fn merge(h: u64, word: u64) -> u64 {
    (h ^ round(0, word)).wrapping_mul(P1).wrapping_add(P4)
}

/// A 64-bit digest of `vs`' bit patterns (`f64::to_bits`, so `0.0` and
/// `-0.0`, or two NaN payloads, digest differently), built from XXH64's
/// round, merge and avalanche steps over 32 independent lanes.
///
/// Word `i` goes to lane `i % 32` until fewer than 32 words remain; the
/// lanes are then merged in order into a hash seeded with the length,
/// the remaining words are folded in one by one, and the result is
/// avalanched. Every step is a bijection of the word it takes and of
/// the state it updates, so inputs of one length that differ in a
/// single word always digest differently; other distinct inputs
/// collide about as often as under any 64-bit hash (the digest is not
/// meant to resist inputs crafted to collide). With 32 lanes and no
/// seed this is not XXH64's value for the same bytes (XXH64 runs four
/// lanes). The digest has no notion of shape: a caller hashing a
/// matrix writes its rows and columns beside it.
pub fn digest_f64s(vs: &[f64]) -> u64 {
    let stripes = vs.chunks_exact(LANES);
    let tail = stripes.remainder();
    let mut h = P5.wrapping_add(vs.len() as u64);
    if vs.len() >= LANES {
        // Distinct starting states, so equal lanes do not merge alike.
        let mut lanes: [u64; LANES] =
            std::array::from_fn(|j| (j as u64).wrapping_mul(P1).wrapping_add(P2));
        for stripe in stripes {
            for (acc, v) in lanes.iter_mut().zip(stripe) {
                *acc = round(*acc, v.to_bits());
            }
        }
        h = lanes.into_iter().fold(h, merge);
    }
    // XXH64's step for a trailing 8-byte word.
    for v in tail {
        h = (h ^ round(0, v.to_bits()))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(write: impl FnOnce(&mut Fnv)) -> u64 {
        let mut h = Fnv::new();
        write(&mut h);
        h.finish()
    }

    #[test]
    fn known_answers() {
        for (input, want) in [
            ("", 0xcbf2_9ce4_8422_2325),
            ("a", 0xaf63_dc4c_8601_ec8c),
            ("foobar", 0x8594_4171_f739_67e8),
        ] {
            assert_eq!(hash(|h| h.write_bytes(input.as_bytes())), want);
            assert_eq!(crate::event::fingerprint(input), want);
        }
        let split = hash(|h| {
            h.write_bytes(b"foo");
            h.write_bytes(b"bar");
        });
        assert_eq!(split, 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv_distinguishes_inputs_and_is_stable() {
        let write_bits = |vs: &[f64]| {
            hash(|h| {
                for v in vs {
                    h.write_u64(v.to_bits());
                }
            })
        };
        let a = write_bits(&[1.0, 2.0]);
        assert_eq!(a, write_bits(&[1.0, 2.0]));
        assert_ne!(a, write_bits(&[2.0, 1.0]));
        // 0.0 and -0.0 hash differently (bit fingerprint, not value).
        assert_ne!(write_bits(&[0.0]), write_bits(&[-0.0]));
    }

    #[test]
    fn fnv_length_prefixing_avoids_concat_collisions() {
        let ab_c = hash(|h| {
            h.write_str("ab");
            h.write_str("c");
        });
        let a_bc = hash(|h| {
            h.write_str("a");
            h.write_str("bc");
        });
        assert_ne!(ab_c, a_bc);
    }

    /// `n` distinct, irregular words: word `i` is `(i · φ·2⁶⁴ + 1)` as
    /// a bit pattern.
    fn words(n: usize) -> Vec<f64> {
        (0..n as u64)
            .map(|i| f64::from_bits(i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1)))
            .collect()
    }

    #[test]
    fn digest_known_answers() {
        // Pinned values, also computed by an independent model of the
        // same steps: the empty input (XXH64's own empty-input value,
        // since no lane runs), tails alone, one stripe, and stripes
        // plus a tail.
        for (n, want) in [
            (0, 0xef46_db37_51d8_e999),
            (1, 0x4843_673b_0c83_56bf),
            (9, 0x3169_99bf_79d5_0817),
            (32, 0x4db6_aae9_b3dc_2d62),
            (77, 0x8207_a51d_6f2f_06de),
        ] {
            assert_eq!(digest_f64s(&words(n)), want, "{n} words");
        }
    }

    #[test]
    fn digest_sees_every_single_bit_flip() {
        // Tail-only inputs of 1–9 words, one stripe with a tail of 0–9
        // words, and two stripes with a tail of 0–9 words.
        let lengths = (1..=9).chain(32..=41).chain(64..=73);
        for n in lengths {
            let base = words(n);
            let d = digest_f64s(&base);
            for i in 0..n {
                for bit in 0..64 {
                    let mut flipped = base.clone();
                    flipped[i] = f64::from_bits(base[i].to_bits() ^ (1 << bit));
                    assert_ne!(digest_f64s(&flipped), d, "{n} words, word {i}, bit {bit}");
                }
            }
        }
        // The sign of a zero and the last significand bit, by value.
        let mut zeros = vec![0.0; 40];
        let unsigned = digest_f64s(&zeros);
        zeros[39] = -0.0;
        assert_ne!(digest_f64s(&zeros), unsigned);
        let mut ones = vec![1.0; 33];
        let exact = digest_f64s(&ones);
        ones[32] = f64::from_bits(1.0f64.to_bits() + 1);
        assert_ne!(digest_f64s(&ones), exact);
    }

    #[test]
    fn digest_sees_length() {
        // Every prefix of one input, zero-padded or not, digests apart
        // from every other: appending a word (even an all-zero one)
        // changes the digest.
        let base = words(80);
        let zeros = vec![0.0; 80];
        let mut seen = std::collections::HashSet::new();
        for n in 0..=80 {
            assert!(seen.insert(digest_f64s(&base[..n])), "prefix {n}");
            assert!(seen.insert(digest_f64s(&zeros[..n])) || n == 0, "zeros {n}");
        }
        // Deterministic.
        assert_eq!(digest_f64s(&base), digest_f64s(&words(80)));
    }
}
