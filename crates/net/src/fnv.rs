//! FNV-1a 64, the one hash behind the handshake
//! [`fingerprint`](crate::event::fingerprint), the centers hash of a
//! [`RunDigest`](crate::RunDigest), and `ekm-core`'s stage-cache keys and
//! executor state fingerprints. Deterministic across runs and platforms.

use ekm_linalg::Matrix;

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

    /// Hashes the length, then each value's bit pattern.
    pub fn write_f64s(&mut self, vs: &[f64]) {
        self.write_usize(vs.len());
        for v in vs {
            self.write_u64(v.to_bits());
        }
    }

    /// Hashes the length, then the UTF-8 bytes.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Hashes the shape, then the entries as [`Fnv::write_f64s`].
    pub fn write_matrix(&mut self, m: &Matrix) {
        self.write_usize(m.rows());
        self.write_usize(m.cols());
        self.write_f64s(m.as_slice());
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
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
        let a = hash(|h| h.write_f64s(&[1.0, 2.0]));
        assert_eq!(a, hash(|h| h.write_f64s(&[1.0, 2.0])));
        assert_ne!(a, hash(|h| h.write_f64s(&[2.0, 1.0])));
        // 0.0 and -0.0 hash differently (bit fingerprint, not value).
        assert_ne!(
            hash(|h| h.write_f64s(&[0.0])),
            hash(|h| h.write_f64s(&[-0.0]))
        );
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
}
