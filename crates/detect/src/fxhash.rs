//! A small Fx-style hasher (the multiply-rotate hash of rustc's
//! `FxHasher`) for the detectors' integer-keyed maps.
//!
//! The detectors look up a thread, lock or location on every event, so
//! SipHash's per-lookup cost shows in every trial. The keys are object,
//! field and thread ids the VM assigns, plus array indices the analyzed
//! program computes. The hash is unkeyed: a program could choose indices
//! that collide, but its accesses are bounded by the trial's step budget.
//! No map's iteration order reaches a report: race lists are kept in
//! discovery order.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const K: u64 = 0x517c_c1b7_2722_0a95;

/// One word of state, folded per integer written.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        // A multiply carries input bits only upward, and the table indexes
        // by the low bits: rotate the well-mixed high bits down, so keys
        // differing only above the index width (strided array elements)
        // still spread.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use narada_vm::{FieldKey, ObjId};
    use std::hash::BuildHasher;

    #[test]
    fn strided_elements_spread_over_low_bits() {
        let build = BuildHasherDefault::<FxHasher>::default();
        let buckets: HashSet<u64> = (0..64i64)
            .map(|i| build.hash_one((ObjId(3), FieldKey::Elem(i << 20))) & 0xfff)
            .collect();
        assert!(buckets.len() >= 56, "{} of 64 distinct", buckets.len());
    }
}
