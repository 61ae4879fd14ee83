//! Stable structural fingerprints for plan-cache keying.
//!
//! The serving layer caches compiled plans keyed by the *structure* of what
//! was compiled: the NRC program, the strategy, the physical representation.
//! The fingerprint must be stable across runs of the same process and across
//! equal-but-not-identical values (two structurally equal `Expr`s hash the
//! same), and it must change whenever any node of the tree changes.
//!
//! The implementation hashes the `Debug` rendering of the value with FNV-1a
//! (64-bit): every plan-layer and NRC type derives `Debug` with full
//! structural fidelity (variant names, field names, nested values), so the
//! rendering is an injective-enough structural encoding, and the hasher
//! consumes it through a streaming `fmt::Write` adapter — no intermediate
//! string is ever materialized. This is *not* `std::hash::Hash` (whose
//! output is explicitly unstable across releases) and not a cryptographic
//! hash: collisions are possible in principle, and the cache treats a
//! fingerprint match as an identity only together with the catalog epoch.

use std::fmt::{self, Debug, Write};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a (64-bit) hasher over byte/str chunks.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }

    /// Absorbs a chunk of bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Hashes raw bytes with FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// The structural fingerprint of any `Debug` value: FNV-1a over its debug
/// rendering, streamed (never materialized). Structurally equal values —
/// plans, NRC expressions, scalar expressions, kernel op lists — fingerprint
/// identically; any structural change changes the digest.
pub fn fingerprint<T: Debug + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv1a::new();
    // Writing into Fnv1a cannot fail; a formatter error would mean a broken
    // Debug impl, which `debug_assert` would catch in tests.
    let _ = write!(h, "{value:?}");
    h.finish()
}

/// Folds several fingerprints into one (order-sensitive): chains each
/// component's digest bytes through FNV-1a, so composite cache keys
/// (program ⊕ strategy ⊕ repr) stay one `u64`.
pub fn combine(parts: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    for p in parts {
        h.update(&p.to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;

    #[test]
    fn equal_structures_fingerprint_identically() {
        let a = Plan::scan("R").add_index("id").unnest_as("items", "i");
        let b = Plan::scan("R").add_index("id").unnest_as("items", "i");
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn any_structural_change_changes_the_digest() {
        let base = Plan::scan("R").add_index("id").unnest_as("items", "i");
        let renamed = Plan::scan("S").add_index("id").unnest_as("items", "i");
        let attr = Plan::scan("R").add_index("id").unnest_as("item", "i");
        assert_ne!(fingerprint(&base), fingerprint(&renamed));
        assert_ne!(fingerprint(&base), fingerprint(&attr));
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine(&[1, 2]), combine(&[2, 1]));
        assert_ne!(combine(&[1]), combine(&[1, 0]));
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // Known FNV-1a 64-bit test vector.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
