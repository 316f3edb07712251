//! [`IdHash`], the one hasher for node and object ids.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// A map keyed by ids, hashed with [`IdHash`].
pub type IdMap<K, V> = HashMap<K, V, IdHash>;

/// A seeded hash for ids, and its own [`Hasher`]: each word is XORed into
/// the state and folded with the multiplier, and `finish` folds again. A
/// fold, a 64×64→128-bit product's high half XOR its low half, carries
/// every input bit to the low bits a `HashMap` buckets by; after one fold,
/// 4 096 ids `k << 20` fill under 3 000 of 8 192 buckets for one seed in
/// four. Both words are drawn per instance, so the ids a remainder from
/// outside the program names cannot be chosen to collide.
#[derive(Clone, Copy, Debug)]
pub struct IdHash {
    state: u64,
    mult: u64,
}

impl Default for IdHash {
    fn default() -> Self {
        let random = RandomState::new();
        let (state, mult) = (random.hash_one(0u64), random.hash_one(1u64));
        IdHash { state, mult }
    }
}

impl BuildHasher for IdHash {
    type Hasher = IdHash;

    #[inline]
    fn build_hasher(&self) -> IdHash {
        *self
    }
}

impl Hasher for IdHash {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.state = fold(self.state ^ x, self.mult);
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        fold(self.state, self.mult)
    }
}

#[inline]
fn fold(x: u64, mult: u64) -> u64 {
    let product = u128::from(x) * u128::from(mult);
    (product >> 64) as u64 ^ product as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use std::collections::HashSet;

    /// Node ids that share their low 20 bits still spread over the low 13
    /// bits, the buckets of an 8 192-bucket table, as a uniform hash would
    /// (~3 220 of 8 192 for 4 096 ids); a bare `id * odd` fills one.
    #[test]
    fn ids_that_share_their_low_bits_fill_the_low_buckets() {
        for _ in 0..16 {
            let hash = IdHash::default();
            let buckets: HashSet<u64> = (0..4096u32)
                .map(|k| hash.hash_one(NodeId(k << 20)) & 8191)
                .collect();
            assert!(buckets.len() >= 3000, "{} buckets: {hash:?}", buckets.len());
        }
    }
}
