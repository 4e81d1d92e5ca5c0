//! Shared 64-bit FNV-1a content digests.
//!
//! One implementation for every content digest computed above the VM
//! layer: the difftest sweep digest and the serve artifact-cache keys.
//! (`narada-vm` keeps its own private FNV folds in
//! `event.rs`/`schedule.rs` — it sits *below* this crate in the
//! dependency order and cannot import it.)
//!
//! The digests are *content addresses*, not cryptographic hashes: two
//! artifacts with equal digests are treated as interchangeable by the
//! serve cache, which is sound for trusted in-process inputs and the
//! corpus-scale key spaces involved.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher.
///
/// ```
/// use narada_core::digest::Fnv1a;
/// let mut h = Fnv1a::new();
/// h.write(b"abc");
/// assert_eq!(h.finish(), Fnv1a::digest(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(OFFSET)
    }

    /// Folds raw bytes into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Folds a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a string, length-prefixed so `("ab","c")` ≠ `("a","bc")`.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// One-shot digest of a byte string.
    pub fn digest(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write(bytes);
        h.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(Fnv1a::digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::digest(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn str_is_length_prefixed() {
        let d = |parts: &[&str]| {
            let mut h = Fnv1a::new();
            for p in parts {
                h.write_str(p);
            }
            h.finish()
        };
        assert_ne!(d(&["ab", "c"]), d(&["a", "bc"]));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), Fnv1a::digest(b"foobar"));
    }
}
