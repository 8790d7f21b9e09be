//! Kernel-tier bit-identity: every operation in `xpath_xml::simd` must
//! return the same bits on the `Scalar`, `Unrolled` and (when the CPU
//! supports it) `Vector` tiers, on adversarial buffer shapes — empty,
//! single-word, unaligned tails straddling the 4-wide and 32-byte lane
//! boundaries, all-ones, alternating masks, and zero-holed words.
//!
//! Every case is deterministic: fixed shapes, plus 512 arbitrary buffers
//! per property from a seeded splitmix64 stream.

use gkp_xpath::xml::rng::{splitmix64, Rng};
use gkp_xpath::xml::simd;
use gkp_xpath::xml::NodeId;

/// The tiers to cross-check: vector only where the CPU supports it
/// (`effective` would silently downgrade it, hiding a missing case).
fn tiers() -> Vec<simd::Tier> {
    let mut t = vec![simd::Tier::Scalar, simd::Tier::Unrolled];
    if simd::vector_available() {
        t.push(simd::Tier::Vector);
    }
    t
}

/// A deterministic word buffer of length `len` with shape `kind`.
fn words(seed: u64, len: usize, kind: u64) -> Vec<u64> {
    (0..len as u64)
        .map(|i| {
            let w = splitmix64(seed ^ splitmix64(i));
            match kind % 5 {
                0 => w,
                1 => u64::MAX,
                2 => 0xAAAA_AAAA_AAAA_AAAA,
                // Zero-holed: ~1/3 of words vanish entirely.
                3 => w * u64::from(!w.is_multiple_of(3)),
                _ => w & splitmix64(w),
            }
        })
        .collect()
}

/// Lengths that straddle every dispatch boundary: the 4-word unroll and
/// the 4-lane AVX2 step.
const LENGTHS: &[usize] = &[0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 100];

#[test]
fn unary_ops_are_bit_identical_across_tiers() {
    for &len in LENGTHS {
        for kind in 0..5 {
            let w = words(splitmix64(len as u64 ^ kind), len, kind);
            let pop = simd::popcount_with(simd::Tier::Scalar, &w);
            for tier in tiers() {
                assert_eq!(simd::popcount_with(tier, &w), pop, "popcount {tier:?} len {len}");
            }
        }
    }
}

#[test]
fn binary_ops_are_bit_identical_across_tiers() {
    for &len in LENGTHS {
        for &other in &[len, len / 2, len + 3] {
            let a = words(0xA5A5 ^ len as u64, len, 0);
            let b = words(0x5A5A ^ other as u64, other, 4);
            // Reference results from the scalar tier.
            let mut or_ref = a.clone();
            let or_count = simd::or_assign_count_with(simd::Tier::Scalar, &mut or_ref, &b);
            let mut andnot_ref = a.clone();
            let andnot_count =
                simd::andnot_assign_count_with(simd::Tier::Scalar, &mut andnot_ref, &b);
            let mut and_into_ref = vec![0u64; len];
            let and_into_count =
                simd::and_into_count_with(simd::Tier::Scalar, &a, &b, &mut and_into_ref);
            let mut andnot_into_ref = vec![0u64; len];
            let andnot_into_count =
                simd::andnot_into_count_with(simd::Tier::Scalar, &a, &b, &mut andnot_into_ref);
            for tier in tiers() {
                let mut dst = a.clone();
                assert_eq!(simd::or_assign_count_with(tier, &mut dst, &b), or_count);
                assert_eq!(dst, or_ref, "or {tier:?} len {len}/{other}");
                let mut dst = a.clone();
                assert_eq!(simd::andnot_assign_count_with(tier, &mut dst, &b), andnot_count);
                assert_eq!(dst, andnot_ref, "andnot {tier:?} len {len}/{other}");
                let mut out = vec![0u64; len];
                assert_eq!(simd::and_into_count_with(tier, &a, &b, &mut out), and_into_count);
                assert_eq!(out, and_into_ref, "and_into {tier:?} len {len}/{other}");
                let mut out = vec![0u64; len];
                assert_eq!(simd::andnot_into_count_with(tier, &a, &b, &mut out), andnot_into_count);
                assert_eq!(out, andnot_into_ref, "andnot_into {tier:?} len {len}/{other}");
            }
        }
    }
}

#[test]
fn id_run_writer_is_bit_identical_across_tiers() {
    // Runs crossing the 8-lane step, 1-element runs, and empty runs.
    let cases: &[(u32, u32)] = &[(0, 0), (0, 1), (5, 13), (60, 68), (100, 356), (7, 7), (1, 64)];
    for &(lo, hi) in cases {
        let mut reference: Vec<NodeId> = vec![NodeId(42)];
        simd::extend_id_run_with(simd::Tier::Scalar, &mut reference, lo, hi);
        for tier in tiers() {
            let mut out: Vec<NodeId> = vec![NodeId(42)];
            simd::extend_id_run_with(tier, &mut out, lo, hi);
            assert_eq!(out, reference, "extend_id_run {tier:?} [{lo}, {hi})");
        }
    }
}

/// Arbitrary word buffers (any length below `max`, any bits), 512 draws.
fn random_buffers(seed: u64, max: usize) -> impl Iterator<Item = Vec<u64>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..512).map(move |_| {
        let len = rng.random_range(0..max);
        (0..len).map(|_| rng.next_u64()).collect()
    })
}

/// Popcount agrees across tiers on arbitrary words.
#[test]
fn unary_ops_agree_on_random_buffers() {
    for w in random_buffers(1, 200) {
        let pop = simd::popcount_with(simd::Tier::Scalar, &w);
        for tier in tiers() {
            assert_eq!(simd::popcount_with(tier, &w), pop, "{tier:?} len {}", w.len());
        }
    }
}

/// The fused assign-and-count ops agree across tiers on arbitrary word
/// buffers of independent lengths.
#[test]
fn binary_ops_agree_on_random_buffers() {
    for (a, b) in random_buffers(2, 120).zip(random_buffers(3, 120)) {
        let mut or_ref = a.clone();
        let or_count = simd::or_assign_count_with(simd::Tier::Scalar, &mut or_ref, &b);
        let mut an_ref = a.clone();
        let an_count = simd::andnot_assign_count_with(simd::Tier::Scalar, &mut an_ref, &b);
        for tier in tiers() {
            let mut dst = a.clone();
            assert_eq!(simd::or_assign_count_with(tier, &mut dst, &b), or_count);
            assert_eq!(dst, or_ref, "or {tier:?} len {}/{}", a.len(), b.len());
            let mut dst = a.clone();
            assert_eq!(simd::andnot_assign_count_with(tier, &mut dst, &b), an_count);
            assert_eq!(dst, an_ref, "andnot {tier:?} len {}/{}", a.len(), b.len());
        }
    }
}
