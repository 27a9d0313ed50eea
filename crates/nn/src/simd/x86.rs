//! The workspace's single `unsafe` module: `std::arch::x86_64`
//! instantiations of the lane-kernel table.
//!
//! Safety architecture:
//!
//! * Tables are only handed out by [`avx2_kernels`]/[`fma_kernels`] after
//!   `is_x86_feature_detected!` confirms every feature the tier needs, so
//!   the `#[target_feature]` implementations can never run on a host that
//!   lacks the instructions.
//! * Every pointer-width memory access goes through the `load`/`store`
//!   helpers, which carry debug bounds asserts; release callers only pass
//!   offsets their loop bounds keep in range.
//! * `#![deny(unsafe_op_in_unsafe_fn)]` keeps each unsafe operation
//!   inside an explicit block with its own SAFETY justification.
//!
//! Both tiers come out of one macro ([`lane_tier!`](macro@self)): the
//! AVX2 tier composes unfused `mul`+`add` so each output element repeats
//! the scalar tier's ascending-`k` sequence exactly (bitwise equal); the
//! FMA tier swaps the composition for `fmadd` (one rounding) and is
//! opt-in only.

#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use super::SimdKernels;

/// The AVX2 table when the host supports it.
pub(super) fn avx2_kernels() -> Option<&'static SimdKernels> {
    if is_x86_feature_detected!("avx2") {
        Some(&avx2::KERNELS)
    } else {
        None
    }
}

/// The FMA table when the host supports avx2+fma.
pub(super) fn fma_kernels() -> Option<&'static SimdKernels> {
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        Some(&fma::KERNELS)
    } else {
        None
    }
}

/// Generates one tier module: kernel table + `#[target_feature]`
/// implementations. `$fma` selects fused (`true`) or exactly-scalar
/// unfused (`false`) multiply-add composition.
macro_rules! lane_tier {
    ($modname:ident, $feat:literal, $tier:expr, $fma:literal) => {
        mod $modname {
            use crate::simd::{
                scalar, AdamParams, LnBwdStats, SimdKernels, SimdTier, BT_CT, LANES, MM_CT, MM_RT,
                SPMM_CT,
            };
            use core::arch::x86_64::*;

            const USE_FMA: bool = $fma;

            pub(in crate::simd) static KERNELS: SimdKernels = SimdKernels {
                tier: $tier,
                axpy,
                add_assign,
                scale_add,
                mm_tile,
                mm_edge,
                bt_row,
                spmm_tile,
                ln_fwd_row,
                ln_bwd_row,
                adam_update,
            };

            // ---- lane helpers ------------------------------------------------

            #[target_feature(enable = $feat)]
            #[inline]
            fn load(x: &[f32], i: usize) -> __m256 {
                debug_assert!(i + LANES <= x.len(), "simd load out of bounds");
                // SAFETY: in-bounds by the assert above; release callers'
                // loop limits guarantee the same range.
                unsafe { _mm256_loadu_ps(x.as_ptr().add(i)) }
            }

            #[target_feature(enable = $feat)]
            #[inline]
            fn store(x: &mut [f32], i: usize, v: __m256) {
                debug_assert!(i + LANES <= x.len(), "simd store out of bounds");
                // SAFETY: in-bounds by the assert above; release callers'
                // loop limits guarantee the same range.
                unsafe { _mm256_storeu_ps(x.as_mut_ptr().add(i), v) }
            }

            /// Lane mask selecting the first `valid` (`1..=LANES`) lanes.
            #[target_feature(enable = $feat)]
            #[inline]
            fn mask(valid: usize) -> __m256i {
                debug_assert!((1..=LANES).contains(&valid), "mask width");
                _mm256_cmpgt_epi32(
                    _mm256_set1_epi32(valid as i32),
                    _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                )
            }

            /// Loads the first `valid` lanes at `x[i..]` (the rest read as
            /// zero) through `m = mask(valid)`.
            #[target_feature(enable = $feat)]
            #[inline]
            fn load_masked(x: &[f32], i: usize, m: __m256i, valid: usize) -> __m256 {
                debug_assert!(i + valid <= x.len(), "simd masked load out of bounds");
                // SAFETY: `i + valid <= x.len()` with `valid >= 1` (the
                // assert above; in release, the operand bounds `mm_edge`
                // asserts), so the pointer is in bounds and the enabled
                // lanes stay inside `x[i..i + valid]`; masked-off lanes are
                // neither read nor faulted (VMASKMOVPS).
                unsafe { _mm256_maskload_ps(x.as_ptr().add(i), m) }
            }

            /// Stores the first `valid` lanes of `v` to `x[i..]` through
            /// `m = mask(valid)`; the rest of `x` is not touched.
            #[target_feature(enable = $feat)]
            #[inline]
            fn store_masked(x: &mut [f32], i: usize, m: __m256i, valid: usize, v: __m256) {
                debug_assert!(i + valid <= x.len(), "simd masked store out of bounds");
                // SAFETY: as for `load_masked`: only the enabled lanes,
                // all inside `x[i..i + valid]`, are written; masked-off
                // lanes are not touched.
                unsafe { _mm256_maskstore_ps(x.as_mut_ptr().add(i), m, v) }
            }

            /// Fused multiply-add, only reachable when `USE_FMA` is true
            /// (i.e. from the tier whose features include `fma`).
            #[target_feature(enable = "avx2,fma")]
            #[inline]
            unsafe fn fused(a: __m256, b: __m256, c: __m256) -> __m256 {
                _mm256_fmadd_ps(a, b, c)
            }

            /// `c + a*b`. Unfused composition in the AVX2 tier (bitwise
            /// equal to the scalar `acc += a*b`), `fmadd` in the FMA tier.
            #[target_feature(enable = $feat)]
            #[inline]
            fn madd(a: __m256, b: __m256, c: __m256) -> __m256 {
                if USE_FMA {
                    // SAFETY: USE_FMA is true only in the tier whose
                    // `$feat` includes "fma", and the table is only handed
                    // out after runtime detection of avx2+fma.
                    unsafe { fused(a, b, c) }
                } else {
                    _mm256_add_ps(c, _mm256_mul_ps(a, b))
                }
            }

            #[target_feature(enable = $feat)]
            #[inline]
            fn splat(v: f32) -> __m256 {
                _mm256_set1_ps(v)
            }

            // ---- kernels -----------------------------------------------------
            //
            // Each safe wrapper is the fn-pointer entry; the SAFETY
            // argument is identical for all of them: this module's table
            // is only reachable through the feature-detected constructors
            // above, so the target features are known present.

            fn axpy(out: &mut [f32], a: f32, x: &[f32]) {
                // SAFETY: features runtime-detected (see module docs).
                unsafe { axpy_impl(out, a, x) }
            }

            #[target_feature(enable = $feat)]
            fn axpy_impl(out: &mut [f32], a: f32, x: &[f32]) {
                let n = out.len().min(x.len());
                let av = splat(a);
                let mut i = 0;
                while i + LANES <= n {
                    store(out, i, madd(av, load(x, i), load(out, i)));
                    i += LANES;
                }
                while i < n {
                    out[i] += a * x[i];
                    i += 1;
                }
            }

            fn add_assign(out: &mut [f32], x: &[f32]) {
                // SAFETY: features runtime-detected (see module docs).
                unsafe { add_assign_impl(out, x) }
            }

            #[target_feature(enable = $feat)]
            fn add_assign_impl(out: &mut [f32], x: &[f32]) {
                let n = out.len().min(x.len());
                let mut i = 0;
                while i + LANES <= n {
                    store(out, i, _mm256_add_ps(load(out, i), load(x, i)));
                    i += LANES;
                }
                while i < n {
                    out[i] += x[i];
                    i += 1;
                }
            }

            fn scale_add(out: &mut [f32], s: f32, x: &[f32]) {
                // SAFETY: features runtime-detected (see module docs).
                unsafe { scale_add_impl(out, s, x) }
            }

            #[target_feature(enable = $feat)]
            fn scale_add_impl(out: &mut [f32], s: f32, x: &[f32]) {
                let n = out.len().min(x.len());
                let sv = splat(s);
                let mut i = 0;
                while i + LANES <= n {
                    // out*s + x == x + out*s bitwise (IEEE add commutes).
                    store(out, i, madd(load(out, i), sv, load(x, i)));
                    i += LANES;
                }
                while i < n {
                    out[i] = out[i] * s + x[i];
                    i += 1;
                }
            }

            fn mm_tile(
                arows: &[&[f32]; MM_RT],
                b: &[f32],
                bstride: usize,
                out: &mut [f32],
                ostride: usize,
            ) {
                // SAFETY: features runtime-detected (see module docs).
                unsafe { mm_tile_impl(arows, b, bstride, out, ostride) }
            }

            #[target_feature(enable = $feat)]
            fn mm_tile_impl(
                arows: &[&[f32]; MM_RT],
                b: &[f32],
                bstride: usize,
                out: &mut [f32],
                ostride: usize,
            ) {
                let inner = arows[0].len();
                debug_assert!(
                    (MM_RT - 1) * ostride + MM_CT <= out.len(),
                    "mm_tile out slice too short"
                );
                debug_assert!(
                    inner == 0 || (inner - 1) * bstride + MM_CT <= b.len(),
                    "mm_tile b slice too short"
                );
                let mut acc = [[_mm256_setzero_ps(); 2]; MM_RT];
                for (r, row) in acc.iter_mut().enumerate() {
                    row[0] = load(out, r * ostride);
                    row[1] = load(out, r * ostride + LANES);
                }
                for k in 0..inner {
                    let b0 = load(b, k * bstride);
                    let b1 = load(b, k * bstride + LANES);
                    for (row, arow) in acc.iter_mut().zip(arows.iter()) {
                        let av = splat(arow[k]);
                        row[0] = madd(av, b0, row[0]);
                        row[1] = madd(av, b1, row[1]);
                    }
                }
                for (r, row) in acc.iter().enumerate() {
                    store(out, r * ostride, row[0]);
                    store(out, r * ostride + LANES, row[1]);
                }
            }

            fn mm_edge(
                arows: &[&[f32]],
                b: &[f32],
                bstride: usize,
                out: &mut [f32],
                ostride: usize,
                width: usize,
            ) {
                // The table is public, so these bounds are checked in
                // release builds too: the masked loads and stores rely on
                // them.
                let inner = arows.first().map_or(0, |r| r.len());
                assert!(
                    (1..=MM_RT).contains(&arows.len()) && (1..=MM_CT).contains(&width),
                    "mm_edge tile shape"
                );
                assert!(
                    (arows.len() - 1) * ostride + width <= out.len()
                        && (inner == 0 || (inner - 1) * bstride + width <= b.len()),
                    "mm_edge operand too short"
                );
                // The row count and the vector count (one or two
                // registers of columns) are const parameters, so each
                // shape's accumulators stay in registers.
                // SAFETY: features runtime-detected (see module docs).
                unsafe {
                    match (arows.len(), width > LANES) {
                        (1, false) => mm_edge_impl::<1, 1>(arows, b, bstride, out, ostride, width),
                        (2, false) => mm_edge_impl::<2, 1>(arows, b, bstride, out, ostride, width),
                        (3, false) => mm_edge_impl::<3, 1>(arows, b, bstride, out, ostride, width),
                        (4, false) => mm_edge_impl::<4, 1>(arows, b, bstride, out, ostride, width),
                        (1, true) => mm_edge_impl::<1, 2>(arows, b, bstride, out, ostride, width),
                        (2, true) => mm_edge_impl::<2, 2>(arows, b, bstride, out, ostride, width),
                        (3, true) => mm_edge_impl::<3, 2>(arows, b, bstride, out, ostride, width),
                        (4, true) => mm_edge_impl::<4, 2>(arows, b, bstride, out, ostride, width),
                        _ => unreachable!("row count checked above"),
                    }
                }
            }

            /// `R` rows by `V` vectors of `width` columns, the lanes past
            /// `width` masked off: per element the same ascending-`k`
            /// mul-then-add as [`scalar::mm_edge`].
            #[target_feature(enable = $feat)]
            fn mm_edge_impl<const R: usize, const V: usize>(
                arows: &[&[f32]],
                b: &[f32],
                bstride: usize,
                out: &mut [f32],
                ostride: usize,
                width: usize,
            ) {
                debug_assert!(arows.len() == R, "mm_edge row count");
                debug_assert!(
                    width > (V - 1) * LANES && width <= V * LANES,
                    "mm_edge width"
                );
                let inner = arows[0].len();
                // Valid lanes of each vector: full ones, then the rest.
                let mut valid = [LANES; V];
                valid[V - 1] = width - (V - 1) * LANES;
                let masks = valid.map(|w| mask(w));
                let mut acc = [[_mm256_setzero_ps(); V]; R];
                for (r, row) in acc.iter_mut().enumerate() {
                    for (v, a) in row.iter_mut().enumerate() {
                        *a = load_masked(out, r * ostride + v * LANES, masks[v], valid[v]);
                    }
                }
                for k in 0..inner {
                    let mut bk = [_mm256_setzero_ps(); V];
                    for (v, bv) in bk.iter_mut().enumerate() {
                        *bv = load_masked(b, k * bstride + v * LANES, masks[v], valid[v]);
                    }
                    for (row, arow) in acc.iter_mut().zip(arows.iter()) {
                        let av = splat(arow[k]);
                        for (a, &bv) in row.iter_mut().zip(bk.iter()) {
                            *a = madd(av, bv, *a);
                        }
                    }
                }
                for (r, row) in acc.iter().enumerate() {
                    for (v, &a) in row.iter().enumerate() {
                        store_masked(out, r * ostride + v * LANES, masks[v], valid[v], a);
                    }
                }
            }

            fn bt_row(a: &[f32], bpack: &[f32], out: &mut [f32]) {
                // Checked in release builds too: the panel loads rely on it.
                assert!(
                    out.len() % BT_CT == 0 && bpack.len() >= out.len() * a.len(),
                    "bt_row operand shape"
                );
                // SAFETY: features runtime-detected (see module docs).
                unsafe { bt_row_impl(a, bpack, out) }
            }

            /// One vector of [`BT_CT`] output columns per panel, four
            /// lane accumulators plus a tail accumulator: column `t` of
            /// each is [`scalar::dot`]'s `l0..l3`/`tail` for that column,
            /// so the same combine gives its bits. (Four lanes of
            /// partial sums per column, not an 8-wide reduction: that
            /// would change the reduction tree and break bitwise parity.)
            #[target_feature(enable = $feat)]
            fn bt_row_impl(a: &[f32], bpack: &[f32], out: &mut [f32]) {
                const _: () = assert!(BT_CT == LANES);
                let inner = a.len();
                let body = inner - inner % 4;
                for (p, o) in out.chunks_exact_mut(BT_CT).enumerate() {
                    let base = p * inner * BT_CT;
                    let mut l = [_mm256_setzero_ps(); 4];
                    let mut k = 0;
                    while k < body {
                        for (j, lane) in l.iter_mut().enumerate() {
                            let bk = load(bpack, base + (k + j) * BT_CT);
                            *lane = madd(splat(a[k + j]), bk, *lane);
                        }
                        k += 4;
                    }
                    let mut tail = _mm256_setzero_ps();
                    while k < inner {
                        tail = madd(splat(a[k]), load(bpack, base + k * BT_CT), tail);
                        k += 1;
                    }
                    let sum = _mm256_add_ps(
                        _mm256_add_ps(_mm256_add_ps(l[0], l[1]), _mm256_add_ps(l[2], l[3])),
                        tail,
                    );
                    store(o, 0, sum);
                }
            }

            fn spmm_tile(cols: &[u32], ws: &[f32], x: &[f32], stride: usize, out: &mut [f32]) {
                // SAFETY: features runtime-detected (see module docs).
                unsafe { spmm_tile_impl(cols, ws, x, stride, out) }
            }

            #[target_feature(enable = $feat)]
            fn spmm_tile_impl(cols: &[u32], ws: &[f32], x: &[f32], stride: usize, out: &mut [f32]) {
                debug_assert!(SPMM_CT <= out.len(), "spmm_tile out slice too short");
                let mut a0 = load(out, 0);
                let mut a1 = load(out, LANES);
                for (&c, &wt) in cols.iter().zip(ws.iter()) {
                    let base = c as usize * stride;
                    let wv = splat(wt);
                    a0 = madd(wv, load(x, base), a0);
                    a1 = madd(wv, load(x, base + LANES), a1);
                }
                store(out, 0, a0);
                store(out, LANES, a1);
            }

            fn ln_fwd_row(
                out: &mut [f32],
                xhat: &mut [f32],
                x: &[f32],
                gain: &[f32],
                bias: &[f32],
                mean: f32,
                istd: f32,
            ) {
                // SAFETY: features runtime-detected (see module docs).
                unsafe { ln_fwd_row_impl(out, xhat, x, gain, bias, mean, istd) }
            }

            #[target_feature(enable = $feat)]
            fn ln_fwd_row_impl(
                out: &mut [f32],
                xhat: &mut [f32],
                x: &[f32],
                gain: &[f32],
                bias: &[f32],
                mean: f32,
                istd: f32,
            ) {
                let n = out.len();
                debug_assert!(
                    xhat.len() >= n && x.len() >= n && gain.len() >= n && bias.len() >= n,
                    "ln_fwd_row operand too short"
                );
                let mv = splat(mean);
                let sv = splat(istd);
                let mut i = 0;
                while i + LANES <= n {
                    let xh = _mm256_mul_ps(_mm256_sub_ps(load(x, i), mv), sv);
                    store(xhat, i, xh);
                    // xh*gain + bias == bias + xh*gain bitwise.
                    store(out, i, madd(xh, load(gain, i), load(bias, i)));
                    i += LANES;
                }
                while i < n {
                    let xh = (x[i] - mean) * istd;
                    xhat[i] = xh;
                    out[i] = xh * gain[i] + bias[i];
                    i += 1;
                }
            }

            fn ln_bwd_row(dx: &mut [f32], g: &[f32], gain: &[f32], xhat: &[f32], st: &LnBwdStats) {
                // SAFETY: features runtime-detected (see module docs).
                unsafe { ln_bwd_row_impl(dx, g, gain, xhat, st) }
            }

            #[target_feature(enable = $feat)]
            fn ln_bwd_row_impl(
                dx: &mut [f32],
                g: &[f32],
                gain: &[f32],
                xhat: &[f32],
                st: &LnBwdStats,
            ) {
                let n = dx.len();
                debug_assert!(
                    g.len() >= n && gain.len() >= n && xhat.len() >= n,
                    "ln_bwd_row operand too short"
                );
                // sum_gdy/cols is loop-invariant, so hoisting the division
                // keeps the exact per-element bits; xhat*s2/cols must stay
                // per-element mul-then-div.
                let s1 = st.sum_gdy / st.cols;
                let s1v = splat(s1);
                let s2v = splat(st.sum_gdy_xhat);
                let cv = splat(st.cols);
                let iv = splat(st.istd);
                let mut i = 0;
                while i + LANES <= n {
                    let t = _mm256_sub_ps(_mm256_mul_ps(load(g, i), load(gain, i)), s1v);
                    let u = _mm256_div_ps(_mm256_mul_ps(load(xhat, i), s2v), cv);
                    store(dx, i, madd(iv, _mm256_sub_ps(t, u), load(dx, i)));
                    i += LANES;
                }
                while i < n {
                    let gdy = g[i] * gain[i];
                    dx[i] += st.istd * (gdy - s1 - xhat[i] * st.sum_gdy_xhat / st.cols);
                    i += 1;
                }
            }

            fn adam_update(
                value: &mut [f32],
                m: &mut [f32],
                v: &mut [f32],
                g: &[f32],
                h: &AdamParams,
            ) {
                // SAFETY: features runtime-detected (see module docs).
                unsafe { adam_update_impl(value, m, v, g, h) }
            }

            #[target_feature(enable = $feat)]
            fn adam_update_impl(
                value: &mut [f32],
                m: &mut [f32],
                v: &mut [f32],
                g: &[f32],
                h: &AdamParams,
            ) {
                let n = value.len();
                debug_assert!(
                    m.len() >= n && v.len() >= n && g.len() >= n,
                    "adam_update operand too short"
                );
                let clip = splat(h.clip_scale);
                let b1 = splat(h.beta1);
                let ob1 = splat(1.0 - h.beta1);
                let b2 = splat(h.beta2);
                let ob2 = splat(1.0 - h.beta2);
                let bc1 = splat(h.bc1);
                let bc2 = splat(h.bc2);
                let lrv = splat(h.lr);
                let epsv = splat(h.eps);
                // lr*wd is loop-invariant ((lr * wd) * value matches the
                // scalar parse); the branch must stay a branch — an
                // unconditional `+ 0.0` would flip -0.0 parameter signs.
                let wdv = splat(h.lr * h.weight_decay);
                let decay = h.weight_decay > 0.0;
                let mut i = 0;
                while i + LANES <= n {
                    let gi = _mm256_mul_ps(load(g, i), clip);
                    // beta1*m + (1-beta1)*gi, the two products combined by
                    // one add (commutes bitwise with the scalar order).
                    let mi = madd(b1, load(m, i), _mm256_mul_ps(ob1, gi));
                    store(m, i, mi);
                    let vi = madd(b2, load(v, i), _mm256_mul_ps(_mm256_mul_ps(ob2, gi), gi));
                    store(v, i, vi);
                    let mhat = _mm256_div_ps(mi, bc1);
                    let vhat = _mm256_div_ps(vi, bc2);
                    let mut upd = _mm256_div_ps(
                        _mm256_mul_ps(lrv, mhat),
                        _mm256_add_ps(_mm256_sqrt_ps(vhat), epsv),
                    );
                    if decay {
                        upd = madd(wdv, load(value, i), upd);
                    }
                    store(value, i, _mm256_sub_ps(load(value, i), upd));
                    i += LANES;
                }
                scalar::adam_update(&mut value[i..], &mut m[i..], &mut v[i..], &g[i..], h);
            }
        }
    };
}

lane_tier!(avx2, "avx2", SimdTier::Avx2, false);
lane_tier!(fma, "avx2,fma", SimdTier::Fma, true);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::SimdTier;

    #[test]
    fn detection_is_consistent() {
        // fma implies avx2 in our tiering: if the FMA table exists the
        // AVX2 table must too.
        if fma_kernels().is_some() {
            assert!(avx2_kernels().is_some());
        }
        if let Some(k) = avx2_kernels() {
            assert_eq!(k.tier, SimdTier::Avx2);
        }
        if let Some(k) = fma_kernels() {
            assert_eq!(k.tier, SimdTier::Fma);
        }
    }
}
