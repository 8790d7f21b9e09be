//! Vectorized bitset kernels behind runtime feature detection — the word
//! sweeps under every [`NodeSet`](crate::NodeSet) set operation,
//! cardinality count and range fill.
//!
//! # Dispatch tiers
//!
//! Every kernel exists in three bit-identical implementations
//! ([`Tier`]):
//!
//! * **scalar** — the plain one-word-at-a-time loops the engine shipped
//!   with; the reference the other tiers are differential-tested
//!   against (here and in the workspace `simd_kernels` suite).
//! * **unrolled** — portable 4-wide unrolled `u64` blocks with
//!   independent accumulators. No `unsafe`, no platform assumptions;
//!   this is the floor on every architecture and the fallback whenever
//!   vector support is absent.
//! * **vector** — `std::arch` SIMD: AVX2 256-bit sweeps with a
//!   `vpshufb` nibble-LUT popcount for the set operations (the default
//!   x86-64 target has no POPCNT, so scalar `count_ones` compiles to a
//!   ~12-op SWAR sequence — the LUT popcount is where most of the ≥2×
//!   win comes from).
//!
//! The active tier is chosen once per process ([`active_tier`]):
//! `vector` when the CPU reports the needed features, `unrolled`
//! otherwise, overridable through the [`NO_SIMD_ENV`] environment
//! variable (`GKP_NO_SIMD=1` forces the portable unrolled tier,
//! `GKP_NO_SIMD=scalar` forces the reference loops; `0`/`false`/`auto`
//! keep auto-detection). Under Miri the vector tier is disabled
//! entirely — the interpreter does not model vendor intrinsics.
//!
//! # Safety
//!
//! This module is the **only** place in the workspace allowed to use
//! `unsafe` (the workspace pins `unsafe_code = deny`; the scoped allow
//! below is the documented exemption). The argument:
//!
//! * the vector kernels are *safe* `#[target_feature]` functions; the
//!   only `unsafe` at the call boundary is the dispatcher invoking them
//!   after checking `is_x86_feature_detected!` for exactly the features
//!   they enable, so no illegal instruction can execute;
//! * all pointer arithmetic is derived from slices via
//!   `chunks_exact`/`as_ptr` with in-bounds offsets only, and unaligned
//!   load/store intrinsics (`loadu`/`storeu`) are used throughout, so
//!   no alignment or bounds assumption exists beyond what the borrow
//!   checker already proved;
//! * [`extend_id_run`] writes into a `Vec`'s spare capacity after an
//!   explicit `reserve` and only then `set_len`s to the number of
//!   elements actually written ([`NodeId`] is `#[repr(transparent)]`
//!   over `u32`, so the `*mut NodeId → *mut u32` cast is layout-exact).
#![allow(unsafe_code)]

use std::sync::OnceLock;

use crate::node::NodeId;

/// Environment variable selecting the kernel tier: `1`/`true` forces
/// [`Tier::Unrolled`], `scalar` forces [`Tier::Scalar`], unset (or
/// `0`/`false`/`auto`) auto-detects.
pub const NO_SIMD_ENV: &str = "GKP_NO_SIMD";

/// Which kernel implementation family runs (see the [module docs](self)).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tier {
    /// Reference one-word-at-a-time loops.
    Scalar,
    /// Portable 4-wide unrolled `u64` blocks.
    Unrolled,
    /// `std::arch` SIMD (AVX2).
    Vector,
}

impl Tier {
    /// Stable lowercase name (used by `xpq --bench-info` and the
    /// `BENCH_axes.json` `simd` section).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Unrolled => "unrolled",
            Tier::Vector => "vector",
        }
    }
}

/// Is the AVX2 vector tier usable on this CPU (and not under Miri)?
pub fn vector_available() -> bool {
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| {
        if cfg!(miri) {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// The CPU features relevant to kernel selection, with their runtime
/// detection results — `xpq --bench-info` provenance.
pub fn detected_features() -> Vec<(&'static str, bool)> {
    #[cfg(target_arch = "x86_64")]
    {
        if cfg!(miri) {
            return Vec::new();
        }
        macro_rules! probe {
            ($($f:tt),*) => { vec![$(($f, std::arch::is_x86_feature_detected!($f))),*] };
        }
        probe!("sse2", "ssse3", "sse4.2", "popcnt", "avx", "avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// The process-wide kernel tier: [`NO_SIMD_ENV`] consulted once, vector
/// support detected once.
pub fn active_tier() -> Tier {
    static TIER: OnceLock<Tier> = OnceLock::new();
    *TIER.get_or_init(|| {
        let auto = || if vector_available() { Tier::Vector } else { Tier::Unrolled };
        match std::env::var(NO_SIMD_ENV) {
            Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
                "" | "0" | "false" | "auto" => auto(),
                "scalar" => Tier::Scalar,
                _ => Tier::Unrolled,
            },
            Err(_) => auto(),
        }
    })
}

/// The raw [`NO_SIMD_ENV`] value, if set (for `xpq --bench-info`).
pub fn no_simd_env_value() -> Option<String> {
    std::env::var(NO_SIMD_ENV).ok()
}

/// Downgrade an explicitly requested tier to what the platform can run.
#[inline]
fn effective(tier: Tier) -> Tier {
    match tier {
        Tier::Vector if !vector_available() => Tier::Unrolled,
        t => t,
    }
}

// ----- dispatched kernel entry points -----
//
// Each `op` uses the process-wide tier; each `op_with` runs a specific
// tier (downgraded if unsupported) for differential tests and the
// scalar-vs-unrolled-vs-vector benchmarks. SAFETY for every vector arm:
// `effective` only returns `Tier::Vector` after `vector_available()`
// confirmed AVX2 at runtime, which is exactly what the safe
// `#[target_feature(enable = "avx2")]` kernels require.

/// Total set bits in `words`.
#[inline]
pub fn popcount(words: &[u64]) -> u64 {
    popcount_with(active_tier(), words)
}

/// [`popcount`] on an explicit tier.
pub fn popcount_with(tier: Tier, words: &[u64]) -> u64 {
    match effective(tier) {
        Tier::Scalar => scalar::popcount(words),
        Tier::Unrolled => unrolled::popcount(words),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified by `effective` (see above).
        Tier::Vector => unsafe { avx2::popcount(words) },
        #[cfg(not(target_arch = "x86_64"))]
        Tier::Vector => unrolled::popcount(words),
    }
}

/// `dst[i] |= src[i]` over the common prefix; returns the popcount of
/// all of `dst` afterwards (the union cardinality when `dst` is at
/// least as long as `src`).
#[inline]
pub fn or_assign_count(dst: &mut [u64], src: &[u64]) -> u64 {
    or_assign_count_with(active_tier(), dst, src)
}

/// [`or_assign_count`] on an explicit tier.
pub fn or_assign_count_with(tier: Tier, dst: &mut [u64], src: &[u64]) -> u64 {
    match effective(tier) {
        Tier::Scalar => scalar::or_assign_count(dst, src),
        Tier::Unrolled => unrolled::or_assign_count(dst, src),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified by `effective` (see above).
        Tier::Vector => unsafe { avx2::or_assign_count(dst, src) },
        #[cfg(not(target_arch = "x86_64"))]
        Tier::Vector => unrolled::or_assign_count(dst, src),
    }
}

/// `dst[i] &= !src[i]` over the common prefix; returns the popcount of
/// all of `dst` afterwards (in-place difference / mask subtraction).
#[inline]
pub fn andnot_assign_count(dst: &mut [u64], src: &[u64]) -> u64 {
    andnot_assign_count_with(active_tier(), dst, src)
}

/// [`andnot_assign_count`] on an explicit tier.
pub fn andnot_assign_count_with(tier: Tier, dst: &mut [u64], src: &[u64]) -> u64 {
    match effective(tier) {
        Tier::Scalar => scalar::andnot_assign_count(dst, src),
        Tier::Unrolled => unrolled::andnot_assign_count(dst, src),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified by `effective` (see above).
        Tier::Vector => unsafe { avx2::andnot_assign_count(dst, src) },
        #[cfg(not(target_arch = "x86_64"))]
        Tier::Vector => unrolled::andnot_assign_count(dst, src),
    }
}

/// `out[i] = a[i] & b[i]` over the common prefix, zero beyond it
/// (`out.len() == a.len()` required); returns the popcount of `out`.
#[inline]
pub fn and_into_count(a: &[u64], b: &[u64], out: &mut [u64]) -> u64 {
    and_into_count_with(active_tier(), a, b, out)
}

/// [`and_into_count`] on an explicit tier.
pub fn and_into_count_with(tier: Tier, a: &[u64], b: &[u64], out: &mut [u64]) -> u64 {
    assert_eq!(a.len(), out.len(), "intersection output must cover the receiver");
    match effective(tier) {
        Tier::Scalar => scalar::and_into_count(a, b, out),
        Tier::Unrolled => unrolled::and_into_count(a, b, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified by `effective` (see above).
        Tier::Vector => unsafe { avx2::and_into_count(a, b, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Tier::Vector => unrolled::and_into_count(a, b, out),
    }
}

/// `out[i] = a[i] & !b[i]` over the common prefix, `a[i]` beyond it
/// (`out.len() == a.len()` required); returns the popcount of `out`.
#[inline]
pub fn andnot_into_count(a: &[u64], b: &[u64], out: &mut [u64]) -> u64 {
    andnot_into_count_with(active_tier(), a, b, out)
}

/// [`andnot_into_count`] on an explicit tier.
pub fn andnot_into_count_with(tier: Tier, a: &[u64], b: &[u64], out: &mut [u64]) -> u64 {
    assert_eq!(a.len(), out.len(), "difference output must cover the receiver");
    match effective(tier) {
        Tier::Scalar => scalar::andnot_into_count(a, b, out),
        Tier::Unrolled => unrolled::andnot_into_count(a, b, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified by `effective` (see above).
        Tier::Vector => unsafe { avx2::andnot_into_count(a, b, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Tier::Vector => unrolled::andnot_into_count(a, b, out),
    }
}

/// Set every word of `dst` to all-ones; returns how many bits were
/// previously zero (the cardinality a full range fill adds).
pub fn fill_ones_count_added(dst: &mut [u64]) -> u64 {
    let added = dst.len() as u64 * 64 - popcount(dst);
    dst.fill(u64::MAX);
    added
}

/// `dst.copy_from_slice(src)` plus the popcount of the copied words.
pub fn copy_into_count(src: &[u64], dst: &mut [u64]) -> u64 {
    dst.copy_from_slice(src);
    popcount(src)
}

/// Append the consecutive ids `lo..hi` to `out` — the staircase
/// descendant/following sparse materialization kernel.
#[inline]
pub fn extend_id_run(out: &mut Vec<NodeId>, lo: u32, hi: u32) {
    extend_id_run_with(active_tier(), out, lo, hi);
}

/// [`extend_id_run`] on an explicit tier.
pub fn extend_id_run_with(tier: Tier, out: &mut Vec<NodeId>, lo: u32, hi: u32) {
    if lo >= hi {
        return;
    }
    match effective(tier) {
        Tier::Scalar | Tier::Unrolled => out.extend((lo..hi).map(NodeId)),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified by `effective` (see above).
        Tier::Vector => unsafe { avx2::extend_id_run(out, lo, hi) },
        #[cfg(not(target_arch = "x86_64"))]
        Tier::Vector => out.extend((lo..hi).map(NodeId)),
    }
}

// ----- scalar reference kernels -----

mod scalar {
    pub fn popcount(words: &[u64]) -> u64 {
        words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    pub fn or_assign_count(dst: &mut [u64], src: &[u64]) -> u64 {
        let n = dst.len().min(src.len());
        let mut count = 0u64;
        for (w, &o) in dst[..n].iter_mut().zip(src) {
            *w |= o;
            count += u64::from(w.count_ones());
        }
        count + popcount(&dst[n..])
    }

    pub fn andnot_assign_count(dst: &mut [u64], src: &[u64]) -> u64 {
        let n = dst.len().min(src.len());
        let mut count = 0u64;
        for (w, &o) in dst[..n].iter_mut().zip(src) {
            *w &= !o;
            count += u64::from(w.count_ones());
        }
        count + popcount(&dst[n..])
    }

    pub fn and_into_count(a: &[u64], b: &[u64], out: &mut [u64]) -> u64 {
        let n = a.len().min(b.len());
        let mut count = 0u64;
        for i in 0..n {
            let w = a[i] & b[i];
            out[i] = w;
            count += u64::from(w.count_ones());
        }
        out[n..].fill(0);
        count
    }

    pub fn andnot_into_count(a: &[u64], b: &[u64], out: &mut [u64]) -> u64 {
        let n = a.len().min(b.len());
        let mut count = 0u64;
        for i in 0..n {
            let w = a[i] & !b[i];
            out[i] = w;
            count += u64::from(w.count_ones());
        }
        for i in n..a.len() {
            out[i] = a[i];
            count += u64::from(a[i].count_ones());
        }
        count
    }
}

// ----- portable 4-wide unrolled kernels -----

mod unrolled {
    pub fn popcount(words: &[u64]) -> u64 {
        let mut acc = [0u64; 4];
        let mut chunks = words.chunks_exact(4);
        for c in &mut chunks {
            acc[0] += u64::from(c[0].count_ones());
            acc[1] += u64::from(c[1].count_ones());
            acc[2] += u64::from(c[2].count_ones());
            acc[3] += u64::from(c[3].count_ones());
        }
        let mut total = acc[0] + acc[1] + acc[2] + acc[3];
        for &w in chunks.remainder() {
            total += u64::from(w.count_ones());
        }
        total
    }

    pub fn or_assign_count(dst: &mut [u64], src: &[u64]) -> u64 {
        let n = dst.len().min(src.len());
        let (head, tail) = dst.split_at_mut(n);
        let mut acc = [0u64; 4];
        let mut d = head.chunks_exact_mut(4);
        let mut s = src[..n].chunks_exact(4);
        for (dc, sc) in (&mut d).zip(&mut s) {
            for l in 0..4 {
                dc[l] |= sc[l];
                acc[l] += u64::from(dc[l].count_ones());
            }
        }
        let mut total = acc[0] + acc[1] + acc[2] + acc[3];
        for (w, &o) in d.into_remainder().iter_mut().zip(s.remainder()) {
            *w |= o;
            total += u64::from(w.count_ones());
        }
        total + popcount(tail)
    }

    pub fn andnot_assign_count(dst: &mut [u64], src: &[u64]) -> u64 {
        let n = dst.len().min(src.len());
        let (head, tail) = dst.split_at_mut(n);
        let mut acc = [0u64; 4];
        let mut d = head.chunks_exact_mut(4);
        let mut s = src[..n].chunks_exact(4);
        for (dc, sc) in (&mut d).zip(&mut s) {
            for l in 0..4 {
                dc[l] &= !sc[l];
                acc[l] += u64::from(dc[l].count_ones());
            }
        }
        let mut total = acc[0] + acc[1] + acc[2] + acc[3];
        for (w, &o) in d.into_remainder().iter_mut().zip(s.remainder()) {
            *w &= !o;
            total += u64::from(w.count_ones());
        }
        total + popcount(tail)
    }

    pub fn and_into_count(a: &[u64], b: &[u64], out: &mut [u64]) -> u64 {
        let n = a.len().min(b.len());
        let mut acc = [0u64; 4];
        let mut i = 0;
        while i + 4 <= n {
            for l in 0..4 {
                let w = a[i + l] & b[i + l];
                out[i + l] = w;
                acc[l] += u64::from(w.count_ones());
            }
            i += 4;
        }
        let mut total = acc[0] + acc[1] + acc[2] + acc[3];
        for j in i..n {
            let w = a[j] & b[j];
            out[j] = w;
            total += u64::from(w.count_ones());
        }
        out[n..].fill(0);
        total
    }

    pub fn andnot_into_count(a: &[u64], b: &[u64], out: &mut [u64]) -> u64 {
        let n = a.len().min(b.len());
        let mut acc = [0u64; 4];
        let mut i = 0;
        while i + 4 <= n {
            for l in 0..4 {
                let w = a[i + l] & !b[i + l];
                out[i + l] = w;
                acc[l] += u64::from(w.count_ones());
            }
            i += 4;
        }
        let mut total = acc[0] + acc[1] + acc[2] + acc[3];
        for j in i..n {
            let w = a[j] & !b[j];
            out[j] = w;
            total += u64::from(w.count_ones());
        }
        for j in n..a.len() {
            out[j] = a[j];
            total += u64::from(a[j].count_ones());
        }
        total
    }
}

// ----- AVX2 vector kernels -----

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256,
        _mm256_andnot_si256, _mm256_loadu_si256, _mm256_or_si256, _mm256_sad_epu8,
        _mm256_set1_epi32, _mm256_set1_epi8, _mm256_setr_epi32, _mm256_setr_epi8,
        _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_srli_epi16, _mm256_storeu_si256,
    };

    use crate::node::NodeId;

    /// `vpshufb` nibble-LUT popcount of one 256-bit lane (4 words),
    /// accumulated into 4×u64 via `vpsadbw`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn lane_popcount(v: __m256i, acc: __m256i) -> __m256i {
        #[rustfmt::skip]
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, _mm256_setzero_si256()))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn hsum(acc: __m256i) -> u64 {
        let mut lanes = [0u64; 4];
        // SAFETY: `lanes` is 32 bytes; `storeu` has no alignment needs.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc) };
        lanes[0] + lanes[1] + lanes[2] + lanes[3]
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load4(c: &[u64]) -> __m256i {
        debug_assert!(c.len() >= 4);
        // SAFETY: the slice holds ≥ 4 words = 32 bytes; unaligned load.
        unsafe { _mm256_loadu_si256(c.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store4(c: &mut [u64], v: __m256i) {
        debug_assert!(c.len() >= 4);
        // SAFETY: the slice holds ≥ 4 words = 32 bytes; unaligned store.
        unsafe { _mm256_storeu_si256(c.as_mut_ptr().cast(), v) };
    }

    #[target_feature(enable = "avx2")]
    pub fn popcount(words: &[u64]) -> u64 {
        let mut acc = _mm256_setzero_si256();
        let mut chunks = words.chunks_exact(4);
        for c in &mut chunks {
            acc = lane_popcount(load4(c), acc);
        }
        let mut total = hsum(acc);
        for &w in chunks.remainder() {
            total += u64::from(w.count_ones());
        }
        total
    }

    #[target_feature(enable = "avx2")]
    pub fn or_assign_count(dst: &mut [u64], src: &[u64]) -> u64 {
        let n = dst.len().min(src.len());
        let (head, tail) = dst.split_at_mut(n);
        let mut acc = _mm256_setzero_si256();
        let mut d = head.chunks_exact_mut(4);
        let mut s = src[..n].chunks_exact(4);
        for (dc, sc) in (&mut d).zip(&mut s) {
            let r = _mm256_or_si256(load4(dc), load4(sc));
            store4(dc, r);
            acc = lane_popcount(r, acc);
        }
        let mut total = hsum(acc);
        for (w, &o) in d.into_remainder().iter_mut().zip(s.remainder()) {
            *w |= o;
            total += u64::from(w.count_ones());
        }
        total + popcount(tail)
    }

    #[target_feature(enable = "avx2")]
    pub fn andnot_assign_count(dst: &mut [u64], src: &[u64]) -> u64 {
        let n = dst.len().min(src.len());
        let (head, tail) = dst.split_at_mut(n);
        let mut acc = _mm256_setzero_si256();
        let mut d = head.chunks_exact_mut(4);
        let mut s = src[..n].chunks_exact(4);
        for (dc, sc) in (&mut d).zip(&mut s) {
            // andnot(b, a) = !b & a
            let r = _mm256_andnot_si256(load4(sc), load4(dc));
            store4(dc, r);
            acc = lane_popcount(r, acc);
        }
        let mut total = hsum(acc);
        for (w, &o) in d.into_remainder().iter_mut().zip(s.remainder()) {
            *w &= !o;
            total += u64::from(w.count_ones());
        }
        total + popcount(tail)
    }

    #[target_feature(enable = "avx2")]
    pub fn and_into_count(a: &[u64], b: &[u64], out: &mut [u64]) -> u64 {
        let n = a.len().min(b.len());
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n {
            let r = _mm256_and_si256(load4(&a[i..]), load4(&b[i..]));
            store4(&mut out[i..], r);
            acc = lane_popcount(r, acc);
            i += 4;
        }
        let mut total = hsum(acc);
        for j in i..n {
            let w = a[j] & b[j];
            out[j] = w;
            total += u64::from(w.count_ones());
        }
        out[n..].fill(0);
        total
    }

    #[target_feature(enable = "avx2")]
    pub fn andnot_into_count(a: &[u64], b: &[u64], out: &mut [u64]) -> u64 {
        let n = a.len().min(b.len());
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n {
            let r = _mm256_andnot_si256(load4(&b[i..]), load4(&a[i..]));
            store4(&mut out[i..], r);
            acc = lane_popcount(r, acc);
            i += 4;
        }
        let mut total = hsum(acc);
        for j in i..n {
            let w = a[j] & !b[j];
            out[j] = w;
            total += u64::from(w.count_ones());
        }
        for j in n..a.len() {
            out[j] = a[j];
            total += u64::from(a[j].count_ones());
        }
        total
    }

    /// Append `lo..hi` as consecutive ids via 8×u32 vector stores into
    /// the `Vec`'s reserved spare capacity.
    #[target_feature(enable = "avx2")]
    pub fn extend_id_run(out: &mut Vec<NodeId>, lo: u32, hi: u32) {
        let count = (hi - lo) as usize;
        out.reserve(count);
        let start = out.len();
        // SAFETY: `reserve` guaranteed `count` elements of spare
        // capacity; `NodeId` is `#[repr(transparent)]` over `u32`, so
        // writing raw u32 ids is layout-exact. `set_len` only covers
        // the `count` elements all written below.
        unsafe {
            let base: *mut u32 = out.as_mut_ptr().add(start).cast();
            let mut v = _mm256_add_epi32(
                _mm256_set1_epi32(lo as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            );
            let step = _mm256_set1_epi32(8);
            let mut i = 0usize;
            while i + 8 <= count {
                _mm256_storeu_si256(base.add(i).cast(), v);
                v = _mm256_add_epi32(v, step);
                i += 8;
            }
            while i < count {
                base.add(i).write(lo + i as u32);
                i += 1;
            }
            out.set_len(start + count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    const TIERS: [Tier; 3] = [Tier::Scalar, Tier::Unrolled, Tier::Vector];

    /// Adversarial word-buffer shapes: empty, single word, unaligned
    /// tails around the 4- and 8-word chunk boundaries, all-ones,
    /// alternating masks, sparse single bits.
    fn shapes() -> Vec<Vec<u64>> {
        let mut out: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![u64::MAX],
            vec![1],
            vec![0x8000_0000_0000_0000],
            vec![0xAAAA_AAAA_AAAA_AAAA; 7],
            vec![0x5555_5555_5555_5555; 9],
            vec![u64::MAX; 16],
            vec![0; 16],
        ];
        for len in [2usize, 3, 4, 5, 7, 8, 11, 15, 31, 33, 64, 100] {
            let mut rng = Rng::seed_from_u64(len as u64);
            out.push((0..len).map(|_| rng.next_u64()).collect());
            // Same length with zero holes punched in.
            out.push(
                (0..len).map(|i| if i % 3 == 0 { 0 } else { rng.next_u64() }).collect::<Vec<_>>(),
            );
        }
        out
    }

    #[test]
    fn all_tiers_agree_on_popcount() {
        for words in shapes() {
            let want_pop = popcount_with(Tier::Scalar, &words);
            for t in TIERS {
                assert_eq!(
                    popcount_with(t, &words),
                    want_pop,
                    "{t:?} popcount len {}",
                    words.len()
                );
            }
        }
    }

    #[test]
    fn all_tiers_agree_on_binary_ops() {
        let shapes = shapes();
        for (si, a) in shapes.iter().enumerate() {
            // Pair each shape with a same-length, a shorter and a longer
            // partner to exercise every prefix/tail combination.
            let mut rng = Rng::seed_from_u64(si as u64 ^ 0xDEAD);
            for blen in [a.len(), a.len() / 2, a.len() + 3] {
                let b: Vec<u64> = (0..blen).map(|_| rng.next_u64()).collect();
                // Reference results from the scalar kernels.
                let mut or_ref = a.clone();
                let or_count = or_assign_count_with(Tier::Scalar, &mut or_ref, &b);
                let mut andnot_ref = a.clone();
                let andnot_count = andnot_assign_count_with(Tier::Scalar, &mut andnot_ref, &b);
                let mut and_out_ref = vec![0u64; a.len()];
                let and_count = and_into_count_with(Tier::Scalar, a, &b, &mut and_out_ref);
                let mut diff_out_ref = vec![0u64; a.len()];
                let diff_count = andnot_into_count_with(Tier::Scalar, a, &b, &mut diff_out_ref);
                for t in TIERS {
                    let mut d = a.clone();
                    assert_eq!(or_assign_count_with(t, &mut d, &b), or_count, "{t:?} or count");
                    assert_eq!(d, or_ref, "{t:?} or words, |a|={} |b|={}", a.len(), b.len());
                    let mut d = a.clone();
                    assert_eq!(
                        andnot_assign_count_with(t, &mut d, &b),
                        andnot_count,
                        "{t:?} andnot count"
                    );
                    assert_eq!(d, andnot_ref, "{t:?} andnot words");
                    let mut out = vec![u64::MAX; a.len()];
                    assert_eq!(and_into_count_with(t, a, &b, &mut out), and_count, "{t:?} and");
                    assert_eq!(out, and_out_ref, "{t:?} and words");
                    let mut out = vec![u64::MAX; a.len()];
                    assert_eq!(
                        andnot_into_count_with(t, a, &b, &mut out),
                        diff_count,
                        "{t:?} diff"
                    );
                    assert_eq!(out, diff_out_ref, "{t:?} diff words");
                }
            }
        }
    }

    #[test]
    fn id_runs_match_the_scalar_writer() {
        for (lo, hi) in
            [(0u32, 0u32), (5, 5), (0, 1), (3, 10), (0, 8), (1, 9), (100, 163), (7, 200)]
        {
            let want: Vec<NodeId> = (lo..hi).map(NodeId).collect();
            for t in TIERS {
                let mut out = vec![NodeId(42)];
                extend_id_run_with(t, &mut out, lo, hi);
                assert_eq!(out[0], NodeId(42), "{t:?} preserves the prefix");
                assert_eq!(&out[1..], &want[..], "{t:?} run {lo}..{hi}");
            }
        }
    }

    #[test]
    fn composite_helpers_count_correctly() {
        let mut words = vec![0u64, u64::MAX, 0xF0F0];
        let added = fill_ones_count_added(&mut words);
        assert_eq!(added, 64 + 56);
        assert!(words.iter().all(|&w| w == u64::MAX));
        let src = vec![1u64, 2, 3];
        let mut dst = vec![0u64; 3];
        assert_eq!(copy_into_count(&src, &mut dst), 4);
        assert_eq!(dst, src);
    }

    #[test]
    fn tier_names_and_detection_are_consistent() {
        assert_eq!(Tier::Scalar.name(), "scalar");
        assert_eq!(Tier::Unrolled.name(), "unrolled");
        assert_eq!(Tier::Vector.name(), "vector");
        // The active tier is always runnable: requesting it explicitly
        // must not downgrade.
        let t = active_tier();
        assert_eq!(effective(t), t, "active tier must be supported");
        // Feature detection returns a stable probe list on x86-64.
        if cfg!(all(target_arch = "x86_64", not(miri))) {
            assert!(detected_features().iter().any(|&(n, _)| n == "avx2"));
        }
    }
}
