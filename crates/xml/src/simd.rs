//! Vectorized bitset kernels behind runtime feature detection — the word
//! sweeps under every [`NodeSet`](crate::NodeSet) set operation,
//! cardinality count and range fill.
//!
//! # Dispatch tiers
//!
//! Every kernel exists in two bit-identical implementations ([`Tier`]):
//!
//! * **scalar** ([`scalar`]) — plain one-word-at-a-time loops: the
//!   reference the vector kernels are differential-tested against, and
//!   what every CPU without AVX2 (and every non-x86-64 target) runs.
//! * **vector** — `std::arch` SIMD: AVX2 256-bit sweeps with a
//!   `vpshufb` nibble-LUT popcount for the set operations (the default
//!   x86-64 target has no POPCNT, so scalar `count_ones` compiles to a
//!   ~12-op SWAR sequence — the LUT popcount is where most of the ≥2×
//!   win comes from).
//!
//! The tier is chosen once per process ([`active_tier`]): `vector` when
//! the CPU reports AVX2, `scalar` otherwise. The [`NO_SIMD_ENV`]
//! environment variable pins `scalar` on any value but unset, `""`, `0`,
//! `false` or `auto` (which auto-detect), so the code a CPU without AVX2
//! runs can be exercised on one that has it. Under Miri the vector tier
//! is disabled entirely — the interpreter does not model vendor
//! intrinsics. The six dispatched kernels ([`popcount`],
//! [`or_assign_count`], [`andnot_assign_count`], [`and_into_count`],
//! [`andnot_into_count`], [`extend_id_run`]) are the one place that
//! branches on the tier.
//!
//! # Safety
//!
//! This module is the **only** place in the workspace allowed to use
//! `unsafe` (the workspace pins `unsafe_code = deny`; the scoped allow
//! below is the documented exemption). The argument:
//!
//! * the vector kernels are *safe* `#[target_feature]` functions; the
//!   only `unsafe` at the call boundary is a dispatcher invoking them
//!   after [`active_tier`] returned [`Tier::Vector`], which it does only
//!   after `is_x86_feature_detected!("avx2")` confirmed exactly the
//!   feature they enable, so no illegal instruction can execute;
//! * all pointer arithmetic is derived from slices via
//!   `chunks_exact`/`as_ptr` with in-bounds offsets only, and unaligned
//!   load/store intrinsics (`loadu`/`storeu`) are used throughout, so
//!   no alignment or bounds assumption exists beyond what the borrow
//!   checker already proved (the `*_into_count` dispatchers assert that
//!   `out` covers `a` before any kernel writes it);
//! * [`extend_id_run`] writes into a `Vec`'s spare capacity after an
//!   explicit `reserve` and only then `set_len`s to the number of
//!   elements actually written ([`NodeId`] is `#[repr(transparent)]`
//!   over `u32`, so the `*mut NodeId → *mut u32` cast is layout-exact).
#![allow(unsafe_code)]

use std::sync::OnceLock;

use crate::node::NodeId;

/// Environment variable pinning the kernel tier: unset, `""`, `0`,
/// `false` or `auto` auto-detect; any other value (`1`, `scalar`, …)
/// pins [`Tier::Scalar`].
pub const NO_SIMD_ENV: &str = "GKP_NO_SIMD";

/// Which kernel implementation runs (see the [module docs](self)).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tier {
    /// Reference one-word-at-a-time loops ([`scalar`]).
    Scalar,
    /// `std::arch` SIMD (AVX2).
    Vector,
}

impl Tier {
    /// Stable lowercase name (used by `xpq --bench-info` and the
    /// `BENCH_axes.json` `simd` section).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
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

/// The process-wide kernel tier: [`NO_SIMD_ENV`] read once, vector
/// support detected once. [`Tier::Vector`] implies
/// [`vector_available`].
pub fn active_tier() -> Tier {
    static TIER: OnceLock<Tier> = OnceLock::new();
    *TIER.get_or_init(|| parse_no_simd_env(no_simd_env_value().as_deref(), vector_available()))
}

/// Resolve a [`NO_SIMD_ENV`] value: unset, blank, `0`, `false` or `auto`
/// (any case) picks [`Tier::Vector`] when `vector` is true; every other
/// value, or no vector support, picks [`Tier::Scalar`].
fn parse_no_simd_env(value: Option<&str>, vector: bool) -> Tier {
    let auto = value.is_none_or(|v| {
        matches!(v.trim().to_ascii_lowercase().as_str(), "" | "0" | "false" | "auto")
    });
    if auto && vector {
        Tier::Vector
    } else {
        Tier::Scalar
    }
}

/// The raw [`NO_SIMD_ENV`] value, if set (for `xpq --bench-info`).
pub fn no_simd_env_value() -> Option<String> {
    std::env::var(NO_SIMD_ENV).ok()
}

// ----- dispatched kernel entry points -----
//
// Each runs the AVX2 kernel when the process tier is `Vector` and the
// scalar reference otherwise.

/// Total set bits in `words`.
#[inline]
pub fn popcount(words: &[u64]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if active_tier() == Tier::Vector {
        // SAFETY: `Tier::Vector` is only active once AVX2 was detected
        // at runtime, all the `#[target_feature(enable = "avx2")]`
        // kernel needs.
        return unsafe { avx2::popcount(words) };
    }
    scalar::popcount(words)
}

/// `dst[i] |= src[i]` over the common prefix; returns the popcount of
/// all of `dst` afterwards (the union cardinality when `dst` is at
/// least as long as `src`).
#[inline]
pub fn or_assign_count(dst: &mut [u64], src: &[u64]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if active_tier() == Tier::Vector {
        // SAFETY: AVX2 detected at runtime (see `popcount`).
        return unsafe { avx2::or_assign_count(dst, src) };
    }
    scalar::or_assign_count(dst, src)
}

/// `dst[i] &= !src[i]` over the common prefix; returns the popcount of
/// all of `dst` afterwards (in-place difference / mask subtraction).
#[inline]
pub fn andnot_assign_count(dst: &mut [u64], src: &[u64]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if active_tier() == Tier::Vector {
        // SAFETY: AVX2 detected at runtime (see `popcount`).
        return unsafe { avx2::andnot_assign_count(dst, src) };
    }
    scalar::andnot_assign_count(dst, src)
}

/// `out[i] = a[i] & b[i]` over the common prefix, zero beyond it
/// (`out.len() == a.len()` required); returns the popcount of `out`.
#[inline]
pub fn and_into_count(a: &[u64], b: &[u64], out: &mut [u64]) -> u64 {
    assert_eq!(a.len(), out.len(), "intersection output must cover the receiver");
    #[cfg(target_arch = "x86_64")]
    if active_tier() == Tier::Vector {
        // SAFETY: AVX2 detected at runtime (see `popcount`); `out`
        // covers every word the kernel stores (asserted above).
        return unsafe { avx2::and_into_count(a, b, out) };
    }
    scalar::and_into_count(a, b, out)
}

/// `out[i] = a[i] & !b[i]` over the common prefix, `a[i]` beyond it
/// (`out.len() == a.len()` required); returns the popcount of `out`.
#[inline]
pub fn andnot_into_count(a: &[u64], b: &[u64], out: &mut [u64]) -> u64 {
    assert_eq!(a.len(), out.len(), "difference output must cover the receiver");
    #[cfg(target_arch = "x86_64")]
    if active_tier() == Tier::Vector {
        // SAFETY: AVX2 detected at runtime (see `popcount`); `out`
        // covers every word the kernel stores (asserted above).
        return unsafe { avx2::andnot_into_count(a, b, out) };
    }
    scalar::andnot_into_count(a, b, out)
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
    if lo >= hi {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if active_tier() == Tier::Vector {
        // SAFETY: AVX2 detected at runtime (see `popcount`).
        return unsafe { avx2::extend_id_run(out, lo, hi) };
    }
    scalar::extend_id_run(out, lo, hi);
}

/// The scalar reference kernels: the semantics of each dispatched
/// kernel of the same name, one word (or id) at a time.
pub mod scalar {
    use crate::node::NodeId;

    /// Total set bits in `words`.
    pub fn popcount(words: &[u64]) -> u64 {
        words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// See [`super::or_assign_count`].
    pub fn or_assign_count(dst: &mut [u64], src: &[u64]) -> u64 {
        let n = dst.len().min(src.len());
        let mut count = 0u64;
        for (w, &o) in dst[..n].iter_mut().zip(src) {
            *w |= o;
            count += u64::from(w.count_ones());
        }
        count + popcount(&dst[n..])
    }

    /// See [`super::andnot_assign_count`].
    pub fn andnot_assign_count(dst: &mut [u64], src: &[u64]) -> u64 {
        let n = dst.len().min(src.len());
        let mut count = 0u64;
        for (w, &o) in dst[..n].iter_mut().zip(src) {
            *w &= !o;
            count += u64::from(w.count_ones());
        }
        count + popcount(&dst[n..])
    }

    /// See [`super::and_into_count`].
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

    /// See [`super::andnot_into_count`].
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

    /// See [`super::extend_id_run`].
    pub fn extend_id_run(out: &mut Vec<NodeId>, lo: u32, hi: u32) {
        out.extend((lo..hi).map(NodeId));
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

// The kernel differential suite: every implementation must return the
// scalar reference's bits on fixed adversarial shapes and on 512 seeded
// random draws per kernel family.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{splitmix64, Rng};

    /// One implementation of the six dispatched kernels, as plain function
    /// pointers so one loop can run each against the scalar reference.
    struct Kernels {
        name: &'static str,
        popcount: fn(&[u64]) -> u64,
        or_assign_count: fn(&mut [u64], &[u64]) -> u64,
        andnot_assign_count: fn(&mut [u64], &[u64]) -> u64,
        and_into_count: fn(&[u64], &[u64], &mut [u64]) -> u64,
        andnot_into_count: fn(&[u64], &[u64], &mut [u64]) -> u64,
        extend_id_run: fn(&mut Vec<NodeId>, u32, u32),
    }

    /// The implementations under test: the dispatched entry points, plus
    /// the AVX2 kernels called directly whenever the CPU has AVX2,
    /// whatever `GKP_NO_SIMD` pins.
    fn implementations() -> Vec<Kernels> {
        let mut out = vec![Kernels {
            name: "dispatched",
            popcount,
            or_assign_count,
            andnot_assign_count,
            and_into_count,
            andnot_into_count,
            extend_id_run,
        }];
        #[cfg(target_arch = "x86_64")]
        if vector_available() {
            // SAFETY (every closure below): `vector_available()` just
            // confirmed AVX2 at runtime, all the `#[target_feature]`
            // kernels need; the into-kernels are only handed an `out` as
            // long as `a` (`check_binary`), and id runs have `lo <= hi`.
            out.push(Kernels {
                name: "avx2",
                popcount: |w| unsafe { avx2::popcount(w) },
                or_assign_count: |d, s| unsafe { avx2::or_assign_count(d, s) },
                andnot_assign_count: |d, s| unsafe { avx2::andnot_assign_count(d, s) },
                and_into_count: |a, b, o| unsafe { avx2::and_into_count(a, b, o) },
                andnot_into_count: |a, b, o| unsafe { avx2::andnot_into_count(a, b, o) },
                extend_id_run: |v, lo, hi| unsafe { avx2::extend_id_run(v, lo, hi) },
            });
        }
        out
    }

    /// Every implementation's popcount of `words` equals the scalar one.
    fn check_unary(words: &[u64]) {
        let want = scalar::popcount(words);
        for k in implementations() {
            assert_eq!((k.popcount)(words), want, "{} popcount len {}", k.name, words.len());
        }
    }

    /// Every implementation of the four binary kernels leaves the scalar
    /// reference's words and count on `a`, `b`. Outputs start all-ones, so
    /// a word the kernel should write but skips shows.
    fn check_binary(a: &[u64], b: &[u64]) {
        let lens = format!("|a|={} |b|={}", a.len(), b.len());
        let mut or_ref = a.to_vec();
        let or_count = scalar::or_assign_count(&mut or_ref, b);
        let mut andnot_ref = a.to_vec();
        let andnot_count = scalar::andnot_assign_count(&mut andnot_ref, b);
        let mut and_ref = vec![u64::MAX; a.len()];
        let and_count = scalar::and_into_count(a, b, &mut and_ref);
        let mut diff_ref = vec![u64::MAX; a.len()];
        let diff_count = scalar::andnot_into_count(a, b, &mut diff_ref);
        for k in implementations() {
            let name = k.name;
            let mut dst = a.to_vec();
            assert_eq!((k.or_assign_count)(&mut dst, b), or_count, "{name} or count {lens}");
            assert_eq!(dst, or_ref, "{name} or words {lens}");
            let mut dst = a.to_vec();
            let count = (k.andnot_assign_count)(&mut dst, b);
            assert_eq!(count, andnot_count, "{name} andnot count {lens}");
            assert_eq!(dst, andnot_ref, "{name} andnot words {lens}");
            let mut out = vec![u64::MAX; a.len()];
            assert_eq!((k.and_into_count)(a, b, &mut out), and_count, "{name} and count {lens}");
            assert_eq!(out, and_ref, "{name} and words {lens}");
            let mut out = vec![u64::MAX; a.len()];
            let count = (k.andnot_into_count)(a, b, &mut out);
            assert_eq!(count, diff_count, "{name} andnot_into count {lens}");
            assert_eq!(out, diff_ref, "{name} andnot_into words {lens}");
        }
    }

    /// Every implementation appends exactly `lo..hi` after an existing
    /// element.
    fn check_id_run(lo: u32, hi: u32) {
        let mut want = vec![NodeId(42)];
        scalar::extend_id_run(&mut want, lo, hi);
        for k in implementations() {
            let mut out = vec![NodeId(42)];
            (k.extend_id_run)(&mut out, lo, hi);
            assert_eq!(out, want, "{} run {lo}..{hi}", k.name);
        }
    }

    /// Adversarial word-buffer shapes: empty, single word, unaligned
    /// tails around the 4- and 8-word chunk boundaries, all-ones,
    /// alternating masks, sparse single bits, zero holes.
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

    /// Lengths that straddle every lane boundary of the AVX2 step.
    const LENGTHS: &[usize] = &[0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 100];

    /// A deterministic word buffer of length `len` with shape `kind`
    /// (random, all-ones, alternating, zero-holed, sparse).
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

    /// Arbitrary word buffers (any length below `max`, any bits), 512 draws.
    fn random_buffers(seed: u64, max: usize) -> impl Iterator<Item = Vec<u64>> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..512).map(move |_| {
            let len = rng.random_range(0..max);
            (0..len).map(|_| rng.next_u64()).collect()
        })
    }

    #[test]
    fn popcount_matches_scalar_on_fixed_shapes() {
        for w in shapes() {
            check_unary(&w);
        }
        for &len in LENGTHS {
            for kind in 0..5 {
                check_unary(&words(splitmix64(len as u64 ^ kind), len, kind));
            }
        }
    }

    #[test]
    fn binary_kernels_match_scalar_on_fixed_shapes() {
        // Each buffer meets a same-length, a shorter and a longer partner,
        // covering every prefix/tail combination.
        for (si, a) in shapes().iter().enumerate() {
            let mut rng = Rng::seed_from_u64(si as u64 ^ 0xDEAD);
            for blen in [a.len(), a.len() / 2, a.len() + 3] {
                let b: Vec<u64> = (0..blen).map(|_| rng.next_u64()).collect();
                check_binary(a, &b);
            }
        }
        for &len in LENGTHS {
            for other in [len, len / 2, len + 3] {
                let a = words(0xA5A5 ^ len as u64, len, 0);
                check_binary(&a, &words(0x5A5A ^ other as u64, other, 4));
            }
        }
    }

    #[test]
    fn id_runs_match_scalar() {
        // Runs crossing the 8-lane step, 1-element runs and empty runs.
        let cases: &[(u32, u32)] = &[(0, 0), (5, 5), (7, 7), (0, 1), (3, 10), (5, 13), (0, 8)];
        let more: &[(u32, u32)] = &[(1, 9), (1, 64), (60, 68), (100, 163), (7, 200), (100, 356)];
        for &(lo, hi) in cases.iter().chain(more) {
            check_id_run(lo, hi);
        }
    }

    #[test]
    fn kernels_match_scalar_on_random_buffers() {
        for w in random_buffers(1, 200) {
            check_unary(&w);
        }
        // Independent lengths, so the common prefix and both tails vary.
        for (a, b) in random_buffers(2, 120).zip(random_buffers(3, 120)) {
            check_binary(&a, &b);
        }
        let mut rng = Rng::seed_from_u64(4);
        for _ in 0..512 {
            let lo = rng.random_range(0..1_000u32);
            check_id_run(lo, lo + rng.random_range(0..300u32));
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
    fn no_simd_env_pins_scalar_on_anything_but_auto() {
        for (value, want) in [
            (None, Tier::Vector),
            (Some(""), Tier::Vector),
            (Some(" "), Tier::Vector),
            (Some("0"), Tier::Vector),
            (Some("false"), Tier::Vector),
            (Some("FALSE"), Tier::Vector),
            (Some("auto"), Tier::Vector),
            (Some(" Auto "), Tier::Vector),
            (Some("1"), Tier::Scalar),
            (Some("scalar"), Tier::Scalar),
            (Some("yes"), Tier::Scalar),
        ] {
            assert_eq!(parse_no_simd_env(value, true), want, "{value:?} with AVX2");
            // Without vector support every value resolves to scalar.
            assert_eq!(parse_no_simd_env(value, false), Tier::Scalar, "{value:?} without AVX2");
        }
    }

    #[test]
    fn tier_names_and_detection_are_consistent() {
        assert_eq!(Tier::Scalar.name(), "scalar");
        assert_eq!(Tier::Vector.name(), "vector");
        // The vector tier is only ever active where it can run.
        assert!(active_tier() == Tier::Scalar || vector_available());
        // Feature detection returns a stable probe list on x86-64.
        if cfg!(all(target_arch = "x86_64", not(miri))) {
            assert!(detected_features().iter().any(|&(n, _)| n == "avx2"));
        }
    }
}
