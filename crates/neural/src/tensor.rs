//! Minimal dense row-major matrices, plus the blocked minibatch GEMM
//! kernels behind the batched LM/MLP training paths.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Row-tile size for the blocked GEMM kernels: a tile of weight rows
/// (`GEMM_TILE × cols` floats) stays L1-resident while the whole batch
/// streams against it.
const GEMM_TILE: usize = 32;

/// A dense row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Xavier-style uniform initialization in `[-s, s]` with
    /// `s = sqrt(6 / (rows + cols))`.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols).map(|_| rng.gen_range(-s..s)).collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    /// A row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row access.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Underlying storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable underlying storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `y = W x` (matrix-vector product).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let row = self.row(r);
            let mut acc = 0.0;
            for (w, xi) in row.iter().zip(x.iter()) {
                acc += w * xi;
            }
            *yr = acc;
        }
        y
    }

    /// `y = W^T x` (transposed matrix-vector product).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_t(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for (r, xr) in x.iter().enumerate() {
            let row = self.row(r);
            let xr = *xr;
            for (c, w) in row.iter().enumerate() {
                y[c] += w * xr;
            }
        }
        y
    }

    /// Rank-1 accumulation `self += a * u v^T` (outer product), the core
    /// of weight-gradient updates.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add_outer(&mut self, a: f32, u: &[f32], v: &[f32]) {
        assert_eq!(u.len(), self.rows, "outer product row mismatch");
        assert_eq!(v.len(), self.cols, "outer product col mismatch");
        for (r, ur) in u.iter().enumerate() {
            let row = self.row_mut(r);
            let ur = a * ur;
            for (c, w) in row.iter_mut().enumerate() {
                *w += ur * v[c];
            }
        }
    }

    /// Fills with zeros.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// `C = self · B^T` for `self: m×k`, `b: n×k` — the minibatch
    /// forward kernel (`H = X · W^T` with weight rows contiguous).
    ///
    /// On x86-64 with AVX2+FMA this runs a lane-parallel SIMD
    /// microkernel (within ~1e-6 relative of the scalar summation
    /// order); elsewhere every output element is a row-dot with
    /// ascending `k`, bitwise identical to [`Matrix::matvec`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != b.cols()`.
    pub fn matmul_nt(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.cols, b.cols, "matmul_nt inner dimension mismatch");
        let m = self.rows;
        let n = b.rows;
        let k_len = self.cols;
        let mut out = Matrix::zeros(m, n);
        #[cfg(target_arch = "x86_64")]
        if simd::fma_available() && k_len >= 8 {
            // SAFETY: feature-detected above; kernel only reads within
            // the asserted `m×k` / `n×k` bounds.
            unsafe { simd::matmul_nt_fma(&self.data, &b.data, &mut out.data, m, n, k_len) };
            return out;
        }
        // Scalar fallback: register-block over 8 of b's rows so eight
        // independent dot-product chains advance together. Each element
        // is one ascending-k dot product — bitwise equal to the
        // per-example `matvec` path.
        const JW: usize = 8;
        for j0 in (0..n).step_by(JW) {
            let jw = JW.min(n - j0);
            for i in 0..m {
                let a_row = &self.data[i * k_len..(i + 1) * k_len];
                let mut acc = [0.0f32; JW];
                if jw == JW {
                    let rows: [&[f32]; JW] = std::array::from_fn(|jj| b.row(j0 + jj));
                    for (k, av) in a_row.iter().enumerate() {
                        for jj in 0..JW {
                            acc[jj] += av * rows[jj][k];
                        }
                    }
                } else {
                    for (jj, a) in acc.iter_mut().enumerate().take(jw) {
                        *a = dot(a_row, b.row(j0 + jj));
                    }
                }
                out.data[i * n + j0..i * n + j0 + jw].copy_from_slice(&acc[..jw]);
            }
        }
        out
    }

    /// `C = self · B` for `self: m×k`, `b: k×n` — the minibatch backward
    /// kernel (`dH = dLogits · W`). Row-major friendly: each output row
    /// accumulates axpy contributions from `b`'s rows in ascending `k`,
    /// the order [`Matrix::matvec_t`] uses (FMA-fused on x86-64).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != b.rows()`.
    pub fn matmul_nn(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.cols, b.rows, "matmul_nn inner dimension mismatch");
        let m = self.rows;
        let n = b.cols;
        let mut out = Matrix::zeros(m, n);
        #[cfg(target_arch = "x86_64")]
        if simd::fma_available() && n >= 8 {
            // SAFETY: feature-detected; kernel stays within the asserted
            // `m×k` / `k×n` / `m×n` bounds.
            unsafe { simd::matmul_nn_fma(&self.data, &b.data, &mut out.data, m, n, self.cols) };
            return out;
        }
        // Tile over the contraction dimension so a tile of b's rows
        // stays L1-hot across the whole batch; per output element the
        // contributions still accumulate in ascending k (tiles ascend,
        // inner k ascends), matching `matvec_t` bitwise.
        for k0 in (0..self.cols).step_by(GEMM_TILE) {
            let k1 = (k0 + GEMM_TILE).min(self.cols);
            for i in 0..m {
                let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (k, ak) in a_row[k0..k1].iter().enumerate() {
                    for (o, bk) in out_row.iter_mut().zip(b.row(k0 + k).iter()) {
                        *o += ak * bk;
                    }
                }
            }
        }
        out
    }

    /// `self += a · U^T · V` for `u: B×m`, `v: B×n`, `self: m×n` — the
    /// minibatch weight-gradient kernel. Accumulates example-by-example
    /// in ascending batch order, i.e. the same sequence of rank-1
    /// updates [`Matrix::add_outer`] performs per example.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add_matmul_tn(&mut self, a: f32, u: &Matrix, v: &Matrix) {
        assert_eq!(u.rows, v.rows, "add_matmul_tn batch dimension mismatch");
        assert_eq!(u.cols, self.rows, "add_matmul_tn row mismatch");
        assert_eq!(v.cols, self.cols, "add_matmul_tn col mismatch");
        #[cfg(target_arch = "x86_64")]
        if simd::fma_available() && self.cols >= 8 {
            // SAFETY: feature-detected; kernel stays within the asserted
            // `B×m` / `B×n` / `m×n` bounds.
            unsafe {
                simd::add_matmul_tn_fma(
                    &mut self.data,
                    a,
                    &u.data,
                    &v.data,
                    u.rows,
                    self.rows,
                    self.cols,
                )
            };
            return;
        }
        // Tile over the output rows so the accumulator tile stays
        // L1-hot across the batch (the full accumulator streams through
        // cache once per call, not once per example); per element the
        // batch contributions still sum in ascending example order,
        // matching a sequence of `add_outer` calls.
        let cols = self.cols;
        for r0 in (0..self.rows).step_by(GEMM_TILE) {
            let r1 = (r0 + GEMM_TILE).min(self.rows);
            for e in 0..u.rows {
                let u_row = u.row(e);
                let v_row = v.row(e);
                for (r, uval) in u_row.iter().enumerate().take(r1).skip(r0) {
                    let scaled = a * uval;
                    let out_row = &mut self.data[r * cols..(r + 1) * cols];
                    for (o, vc) in out_row.iter_mut().zip(v_row.iter()) {
                        *o += scaled * vc;
                    }
                }
            }
        }
    }

    /// Adds `bias` to every row (batched bias application).
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols()`.
    pub fn add_row_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (x, b) in self.row_mut(r).iter_mut().zip(bias.iter()) {
                *x += b;
            }
        }
    }

    /// Column sums (batched bias gradient), accumulated in ascending row
    /// order to match per-example accumulation.
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, x) in out.iter_mut().zip(self.row(r).iter()) {
                *o += x;
            }
        }
        out
    }

    /// `self += a * other`, elementwise.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, a: f32, other: &Matrix) {
        assert_eq!(self.rows, other.rows, "add_scaled row mismatch");
        assert_eq!(self.cols, other.cols, "add_scaled col mismatch");
        for (x, y) in self.data.iter_mut().zip(other.data.iter()) {
            *x += a * y;
        }
    }
}

/// AVX2+FMA microkernel for the batched forward GEMM. Lane-parallel
/// accumulation reorders the per-element float sums (within ~1e-6
/// relative of the scalar order — the kernel parity suite bounds end
/// results at 1e-5); the scalar fallback keeps the exact `matvec`
/// summation order.
#[cfg(target_arch = "x86_64")]
mod simd {
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Whether the FMA kernel may be used on this machine.
    pub fn fma_available() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    /// `out[i][..] = Σ_k a[i][k] · b[k][..]` for row-major `a: m×k`,
    /// `b: k×n`, `out: m×n`: the output row tile lives in registers
    /// while `k` streams (one store per tile instead of a read-modify-
    /// write per `k`).
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA (check [`fma_available`]) and slices sized
    /// exactly `m*k`, `k*n`, `m*n`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul_nn_fma(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        n: usize,
        k: usize,
    ) {
        const NW: usize = 4; // 4 × 8 lanes = 32 output columns in flight
        let simd_n = n - n % 8;
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let mut j0 = 0;
            while j0 < simd_n {
                let tile = ((simd_n - j0) / 8).min(NW);
                let mut acc = [_mm256_setzero_ps(); NW];
                for (kk, av_s) in a_row.iter().enumerate() {
                    let av = _mm256_set1_ps(*av_s);
                    for (t, accv) in acc.iter_mut().enumerate().take(tile) {
                        let bv = _mm256_loadu_ps(b.as_ptr().add(kk * n + j0 + t * 8));
                        *accv = _mm256_fmadd_ps(av, bv, *accv);
                    }
                }
                for (t, accv) in acc.iter().enumerate().take(tile) {
                    _mm256_storeu_ps(out.as_mut_ptr().add(i * n + j0 + t * 8), *accv);
                }
                j0 += tile * 8;
            }
            // Scalar tail columns.
            for j in simd_n..n {
                let mut total = 0.0f32;
                for (kk, av) in a_row.iter().enumerate() {
                    total = av.mul_add(b[kk * n + j], total);
                }
                out[i * n + j] = total;
            }
        }
    }

    /// `out[r][..] += a · Σ_e u[e][r] · v[e][..]` for row-major
    /// `u: bsz×m`, `v: bsz×n`, `out: m×n`: the output row tile lives in
    /// registers while the batch streams.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA (check [`fma_available`]) and slices sized
    /// exactly `bsz*m`, `bsz*n`, `m*n`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn add_matmul_tn_fma(
        out: &mut [f32],
        a: f32,
        u: &[f32],
        v: &[f32],
        bsz: usize,
        m: usize,
        n: usize,
    ) {
        let simd_n = n - n % 8;
        for r in 0..m {
            let mut j0 = 0;
            while j0 < simd_n {
                let mut acc = _mm256_setzero_ps();
                for e in 0..bsz {
                    let scaled = _mm256_set1_ps(a * u[e * m + r]);
                    let vv = _mm256_loadu_ps(v.as_ptr().add(e * n + j0));
                    acc = _mm256_fmadd_ps(scaled, vv, acc);
                }
                let cur = _mm256_loadu_ps(out.as_ptr().add(r * n + j0));
                _mm256_storeu_ps(out.as_mut_ptr().add(r * n + j0), _mm256_add_ps(cur, acc));
                j0 += 8;
            }
            for j in simd_n..n {
                let mut total = 0.0f32;
                for e in 0..bsz {
                    total = (a * u[e * m + r]).mul_add(v[e * n + j], total);
                }
                out[r * n + j] += total;
            }
        }
    }

    /// `out[i][j] = dot(a[i][..], b[j][..])` for row-major `a: m×k`,
    /// `b: n×k`, `out: m×n`: four b-rows × 8 SIMD lanes per step.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA (check [`fma_available`]) and slices sized
    /// exactly `m*k`, `n*k`, `m*n`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul_nt_fma(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        n: usize,
        k: usize,
    ) {
        const JW: usize = 4;
        let simd_k = k - k % 8;
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let mut j0 = 0;
            while j0 + JW <= n {
                let mut acc = [_mm256_setzero_ps(); JW];
                let mut kk = 0;
                while kk < simd_k {
                    let av = _mm256_loadu_ps(a_row.as_ptr().add(kk));
                    for (jj, accv) in acc.iter_mut().enumerate() {
                        let bv = _mm256_loadu_ps(b.as_ptr().add((j0 + jj) * k + kk));
                        *accv = _mm256_fmadd_ps(av, bv, *accv);
                    }
                    kk += 8;
                }
                for (jj, accv) in acc.iter().enumerate() {
                    // Horizontal sum of the 8 lanes.
                    let hi = _mm256_extractf128_ps(*accv, 1);
                    let lo = _mm256_castps256_ps128(*accv);
                    let sum4 = _mm_add_ps(hi, lo);
                    let sum2 = _mm_add_ps(sum4, _mm_movehl_ps(sum4, sum4));
                    let sum1 = _mm_add_ss(sum2, _mm_shuffle_ps(sum2, sum2, 1));
                    let mut total = _mm_cvtss_f32(sum1);
                    for kk in simd_k..k {
                        total += a_row[kk] * b[(j0 + jj) * k + kk];
                    }
                    out[i * n + j0 + jj] = total;
                }
                j0 += JW;
            }
            while j0 < n {
                let b_row = &b[j0 * k..(j0 + 1) * k];
                out[i * n + j0] = super::dot(a_row, b_row);
                j0 += 1;
            }
        }
    }
}

/// 8-lane parallel sum: a vectorizable reduction (independent lane
/// accumulators, fixed combine order — deterministic, but not the same
/// float-order as a serial `iter().sum()`).
pub fn sum_lanes(xs: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let chunks = xs.chunks_exact(8);
    let rem = chunks.remainder();
    for ch in chunks {
        for (a, x) in acc.iter_mut().zip(ch.iter()) {
            *a += x;
        }
    }
    let mut total = 0.0;
    for a in acc {
        total += a;
    }
    for x in rem {
        total += x;
    }
    total
}

/// 8-lane parallel max (deterministic; `max` over f32 lanes).
pub fn max_lanes(xs: &[f32]) -> f32 {
    let mut acc = [f32::NEG_INFINITY; 8];
    let chunks = xs.chunks_exact(8);
    let rem = chunks.remainder();
    for ch in chunks {
        for (a, x) in acc.iter_mut().zip(ch.iter()) {
            *a = a.max(*x);
        }
    }
    let mut total = f32::NEG_INFINITY;
    for a in acc {
        total = total.max(a);
    }
    for x in rem {
        total = total.max(*x);
    }
    total
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean norm, `dot(v, v).sqrt()`.
pub fn norm(v: &[f32]) -> f32 {
    dot(v, v).sqrt()
}

/// Cosine similarity; zero vectors yield 0.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot(a, b) / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_computes_products() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "matvec dimension mismatch")]
    fn matvec_checks_dimensions() {
        let m = Matrix::zeros(2, 3);
        let _ = m.matvec(&[1.0, 2.0]);
    }

    #[test]
    fn outer_product_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(2.0, &[1.0, 0.0], &[3.0, 4.0]);
        assert_eq!(m.get(0, 0), 6.0);
        assert_eq!(m.get(0, 1), 8.0);
        assert_eq!(m.get(1, 0), 0.0);
    }

    #[test]
    fn xavier_is_seeded_and_bounded() {
        let a = Matrix::xavier(4, 4, 1);
        let b = Matrix::xavier(4, 4, 1);
        let c = Matrix::xavier(4, 4, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let bound = (6.0f32 / 8.0).sqrt();
        assert!(a.data().iter().all(|x| x.abs() <= bound));
    }

    #[test]
    fn matmul_nt_matches_per_row_matvec() {
        // Wide enough to exercise the SIMD kernel's main loop + tail.
        let x = Matrix::xavier(5, 19, 1);
        let w = Matrix::xavier(7, 19, 2);
        let h = x.matmul_nt(&w);
        assert_eq!(h.rows(), 5);
        assert_eq!(h.cols(), 7);
        for e in 0..5 {
            let per_example = w.matvec(x.row(e));
            for (a, b) in h.row(e).iter().zip(per_example.iter()) {
                assert!((a - b).abs() < 1e-5, "row {e}: batched {a} vs matvec {b}");
            }
        }
    }

    #[test]
    fn matmul_nn_matches_per_row_matvec_t() {
        // Wide enough to exercise the SIMD kernel's tiles + tail.
        let dz = Matrix::xavier(5, 21, 3);
        let w = Matrix::xavier(21, 43, 4);
        let dx = dz.matmul_nn(&w);
        for e in 0..5 {
            let per_example = w.matvec_t(dz.row(e));
            for (a, b) in dx.row(e).iter().zip(per_example.iter()) {
                assert!((a - b).abs() < 1e-5, "row {e}: batched {a} vs matvec_t {b}");
            }
        }
    }

    #[test]
    fn add_matmul_tn_matches_per_example_outer() {
        let u = Matrix::xavier(6, 14, 5);
        let v = Matrix::xavier(6, 21, 6);
        let mut batched = Matrix::zeros(14, 21);
        batched.add_matmul_tn(2.0, &u, &v);
        let mut reference = Matrix::zeros(14, 21);
        for e in 0..6 {
            reference.add_outer(2.0, u.row(e), v.row(e));
        }
        for (a, b) in batched.data().iter().zip(reference.data().iter()) {
            assert!((a - b).abs() < 1e-5, "batched {a} vs per-example {b}");
        }
    }

    #[test]
    fn lane_reductions_match_serial() {
        let xs: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();
        let serial_sum: f32 = xs.iter().sum();
        let serial_max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert!((sum_lanes(&xs) - serial_sum).abs() < 1e-5);
        assert_eq!(max_lanes(&xs), serial_max);
        assert_eq!(sum_lanes(&[]), 0.0);
        assert_eq!(max_lanes(&[1.5]), 1.5);
    }

    #[test]
    fn bias_and_col_sum_helpers() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        m.add_row_bias(&[10.0, 20.0, 30.0]);
        assert_eq!(m.row(1), &[14.0, 25.0, 36.0]);
        assert_eq!(m.col_sums(), vec![25.0, 47.0, 69.0]);
        let mut acc = Matrix::zeros(2, 3);
        acc.add_scaled(0.5, &m);
        assert_eq!(acc.get(0, 0), 5.5);
    }

    #[test]
    fn cosine_similarity_properties() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }
}
