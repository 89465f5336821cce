//! Splitmix64 seed derivation.
//!
//! Independent trials must draw from *independent* random streams, and the
//! mapping from trial index to stream must not depend on execution order.
//! The splitmix64 finalizer (Steele, Lea & Flood, OOPSLA '14 — the same
//! mixer `java.util.SplittableRandom` and many PRNG seeders use) gives
//! every `(seed, index)` pair a well-avalanched 64-bit value: flipping any
//! input bit flips each output bit with probability ~1/2. In particular the
//! low 32 bits differ between consecutive indices, which the previous
//! `seed ^ (index << 32)` scheme in `pm-sim` failed to guarantee.

/// Odd constant `2^64 / φ`, the "golden gamma" increment of the splitmix64
/// sequence. Odd ⇒ `index ↦ index·γ (mod 2^64)` is a bijection, so
/// distinct indices can never collide before mixing.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 step: advance by the golden gamma, then finalize with
/// two xor-shift-multiply rounds. A full-period bijection on `u64` with
/// strong avalanche behaviour; zero is not a fixed point.
#[inline]
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the RNG seed for the `index`-th independent unit of work (trial,
/// sweep point, Monte Carlo sample) from a run-level `seed`.
///
/// Equivalent to the `index`-th output of a splitmix64 generator seeded at
/// `seed`: the base advances by `index` gammas before the finalizer runs.
/// Distinct indices always enter the mixer at distinct states, and the
/// finalizer spreads a change in either argument across all 64 output
/// bits.
#[inline]
#[must_use]
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed.wrapping_add(index.wrapping_mul(GOLDEN_GAMMA)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn matches_reference_vectors() {
        // Reference outputs of the canonical splitmix64 next() from state 0
        // (as published with xoshiro/xoroshiro seeding code).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        let s1 = 0u64.wrapping_add(super::GOLDEN_GAMMA);
        assert_eq!(splitmix64(s1), 0x6E78_9E6A_A1B9_65F4);
        let s2 = s1.wrapping_add(super::GOLDEN_GAMMA);
        assert_eq!(splitmix64(s2), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn mix_seed_is_the_splitmix_stream() {
        // mix_seed(seed, i) must equal the i-th output of a splitmix64
        // generator started at `seed`.
        let seed = 0xDEAD_BEEF_u64;
        let mut state = seed;
        for i in 0..64 {
            let out = splitmix64(state);
            assert_eq!(mix_seed(seed, i), out, "index {i}");
            state = state.wrapping_add(super::GOLDEN_GAMMA);
        }
    }

    #[test]
    fn low_bits_differ_across_indices() {
        // The regression the old `seed ^ (d << 32)` mixer had: identical
        // low 32 bits for every index. Every pair of the first 256 derived
        // seeds must differ in their low word.
        let lows: BTreeSet<u32> = (0..256).map(|i| mix_seed(42, i) as u32).collect();
        assert_eq!(lows.len(), 256, "low 32 bits must not collide");
    }

    #[test]
    fn no_collisions_in_a_large_window() {
        let mut seen = BTreeSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix_seed(7, i)), "collision at index {i}");
        }
    }

    #[test]
    fn avalanche_on_seed_bit_flips() {
        // Flipping one seed bit should flip roughly half the output bits.
        for bit in [0u32, 17, 33, 63] {
            let a = mix_seed(0x1234_5678, 5);
            let b = mix_seed(0x1234_5678 ^ (1u64 << bit), 5);
            let flipped = (a ^ b).count_ones();
            assert!(
                (16..=48).contains(&flipped),
                "bit {bit}: only {flipped} output bits flipped"
            );
        }
    }
}
