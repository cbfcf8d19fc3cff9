//! Seeded, stable value hashing for sketches.
//!
//! Sketches need families of independent hash functions that are stable
//! across runs and platforms (the std `RandomState` is neither). This
//! module provides FNV-1a over a canonical byte encoding of [`Value`],
//! finalised with the splitmix64 avalanche and salted by a seed, giving a
//! cheap approximation of an independent family indexed by seed.

use std::hash::{BuildHasherDefault, Hasher};

use fungus_types::Value;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

#[inline]
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[inline]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Hashes a value with a seed. Equal values hash equal (including
/// `Int(7)` vs `Float(7.0)`, mirroring [`Value`]'s `Hash`/`Eq` contract).
pub fn hash_value(value: &Value, seed: u64) -> u64 {
    let base = FNV_OFFSET ^ avalanche(seed);
    let h = match value {
        Value::Null => fnv1a(&[0u8], base),
        Value::Bool(b) => fnv1a(&[1u8, u8::from(*b)], base),
        // Numeric values hash by their f64 bit pattern so Int/Float agree.
        Value::Int(i) => {
            let bits = (*i as f64).to_bits();
            let mut buf = [0u8; 9];
            buf[0] = 2;
            buf[1..].copy_from_slice(&bits.to_le_bytes());
            fnv1a(&buf, base)
        }
        Value::Float(f) => {
            let f = if *f == 0.0 { 0.0 } else { *f };
            let mut buf = [0u8; 9];
            buf[0] = 2;
            buf[1..].copy_from_slice(&f.to_bits().to_le_bytes());
            fnv1a(&buf, base)
        }
        Value::Str(s) => fnv1a(s.as_bytes(), fnv1a(&[3u8], base)),
        Value::Bytes(b) => fnv1a(b, fnv1a(&[4u8], base)),
    };
    avalanche(h)
}

/// The keyless [`BuildHasher`](std::hash::BuildHasher) of a sketch's own
/// key table: FNV-1a over the bytes `Hash` feeds it, avalanche-finalised.
/// `RandomState` draws a key per process, and with it the table's probe
/// order, its tombstone history, when it regrows and so what a copy of it
/// costs; a table hashed here is the same table on every run. Nothing is
/// lost to a chosen-key flood: the tables are capped at the sketch's
/// capacity.
pub type StableState = BuildHasherDefault<StableHasher>;

/// The hasher [`StableState`] builds.
#[derive(Debug, Clone, Copy)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher(FNV_OFFSET)
    }
}

impl Hasher for StableHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(bytes, self.0);
    }

    #[inline]
    fn finish(&self) -> u64 {
        avalanche(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_key_table_hashes_the_same_in_every_process() {
        use std::hash::BuildHasher;
        let h = |v: &Value| StableState::default().hash_one(v);
        assert_eq!(h(&Value::Int(7)), h(&Value::Int(7)));
        assert_ne!(h(&Value::Int(7)), h(&Value::Int(8)));
        // Pinned: no per-process key goes in, so this is the value on
        // every run (`RandomState` would give a new one each time).
        assert_eq!(h(&Value::from("hello")), 17_980_513_979_230_428_978);
    }

    #[test]
    fn stable_and_seed_sensitive() {
        let v = Value::from("hello");
        assert_eq!(hash_value(&v, 1), hash_value(&v, 1));
        assert_ne!(hash_value(&v, 1), hash_value(&v, 2));
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(
            hash_value(&Value::Int(7), 5),
            hash_value(&Value::Float(7.0), 5)
        );
        assert_eq!(
            hash_value(&Value::Float(0.0), 5),
            hash_value(&Value::Float(-0.0), 5)
        );
    }

    #[test]
    fn distinct_values_mostly_differ() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000i64 {
            seen.insert(hash_value(&Value::Int(i), 0));
        }
        assert_eq!(seen.len(), 10_000, "no collisions among 10k small ints");
    }

    #[test]
    fn type_tags_separate_domains() {
        // "1" as a string must not collide with int 1 systematically.
        assert_ne!(
            hash_value(&Value::from("1"), 0),
            hash_value(&Value::Int(1), 0)
        );
        assert_ne!(
            hash_value(&Value::Bytes(vec![49]), 0),
            hash_value(&Value::from("1"), 0)
        );
    }

    #[test]
    fn bits_are_well_distributed() {
        // Crude avalanche check: flipping the input should flip ~half the
        // output bits on average.
        let mut total = 0u32;
        for i in 0..1000i64 {
            let a = hash_value(&Value::Int(i), 0);
            let b = hash_value(&Value::Int(i + 1), 0);
            total += (a ^ b).count_ones();
        }
        let mean = total as f64 / 1000.0;
        assert!((24.0..40.0).contains(&mean), "mean flipped bits {mean}");
    }
}
