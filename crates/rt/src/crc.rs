//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`).
//!
//! Bundle files and journal records carry a checksum over their payload,
//! so a truncated or bit-flipped file is rejected with a typed error
//! instead of being half-parsed into a wrong model. The classic
//! byte-at-a-time table algorithm is plenty: bundles are
//! kilobytes-to-megabytes.
//!
//! The table is built at compile time (`const fn`), so there is no runtime
//! initialisation and no locking.
//!
//! [`Crc32`] is the streaming form: feed the bytes in any number of
//! [`Crc32::update`] calls and [`Crc32::finish`] gives the same value as
//! [`crc32`] over their concatenation. A register is `Copy`, so a writer
//! can checksum a fixed prefix once and finish copies of it over different
//! tails.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = make_table();

/// A running CRC-32 register.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crc32(u32);

impl Crc32 {
    /// The register before any byte.
    pub const fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Feed `bytes` into the register.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.0;
        for &b in bytes {
            let idx = ((crc ^ b as u32) & 0xFF) as usize;
            crc = (crc >> 8) ^ TABLE[idx];
        }
        self.0 = crc;
    }

    /// The CRC-32 of every byte fed so far.
    pub const fn finish(self) -> u32 {
        !self.0
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

/// CRC-32 of `bytes` (same value as zlib's `crc32` / POSIX `cksum -o 3`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for the IEEE CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = b"privim checkpoint payload".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut corrupted = base.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), reference, "flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn sensitive_to_truncation() {
        let base = b"0123456789abcdef".to_vec();
        let reference = crc32(&base);
        for cut in 0..base.len() {
            assert_ne!(crc32(&base[..cut]), reference, "truncated to {cut}");
        }
    }

    /// Every split of `bytes` into a prefix and a suffix, streamed in two
    /// updates, gives the one-shot value.
    fn assert_splits_match(bytes: &[u8]) {
        let whole = crc32(bytes);
        for cut in 0..=bytes.len() {
            let mut crc = Crc32::new();
            crc.update(&bytes[..cut]);
            crc.update(&bytes[cut..]);
            assert_eq!(crc.finish(), whole, "split at {cut} of {}", bytes.len());
        }
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        for v in [&b"123456789"[..], b"", b"a", b"The quick brown fox jumps over the lazy dog"] {
            assert_splits_match(v);
        }
        let mut rng = <crate::ChaCha8Rng as crate::SeedableRng>::seed_from_u64(0xC3C3);
        let mut buf = vec![0u8; 4096];
        crate::RngCore::fill_bytes(&mut rng, &mut buf);
        assert_splits_match(&buf);
    }

    #[test]
    fn a_copied_register_finishes_each_tail_independently() {
        let mut head = Crc32::new();
        head.update(b"shared prefix|");
        for tail in [&b""[..], b"one", b"two, longer"] {
            let mut crc = head;
            crc.update(tail);
            assert_eq!(crc.finish(), crc32(&[&b"shared prefix|"[..], tail].concat()));
        }
        assert_eq!(Crc32::default().finish(), crc32(b""));
    }
}
