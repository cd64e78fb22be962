//! The DarKnight encoding/decoding scheme (§4 of the paper).
//!
//! One [`EncodingScheme`] instance covers one virtual batch:
//!
//! * **Forward** (Eq. 1/10): `x̄_j = Σ_i A[i][j]·x_i + Σ_t A[K+t][j]·r_t`
//!   for `j = 1..S(+1)`, with `A = [A1; A2]` secret inside the TEE and
//!   the noise block `A2` built as an MDS (Vandermonde) matrix so any
//!   `≤ M` of its columns are full rank — the §5 collusion condition.
//! * **Forward decode** (Eq. 2): `Y = Ȳ·A_sq^{-1}`; the first `K`
//!   columns are the true outputs, the remaining `M` are `⟨W, r_t⟩` and
//!   are dropped (the paper's "that value is just dropped").
//! * **Integrity** (§4.4): with one extra masked equation, the decoded
//!   `Y` must also satisfy the redundant column; any additive error from
//!   up to `K'−1` workers breaks that consistency with probability
//!   `1 − 1/p` per element.
//! * **Backward** (Eq. 4–6/11–13): public `B` and secret diagonal `Γ`
//!   satisfy `Bᵀ·Γ·Aᵀ = [I_K | 0]`, so
//!   `Σ_j γ_j·Eq_j = Σ_i ⟨δ_i, x_i⟩` — the aggregate weight update —
//!   decodes with a single γ-weighted sum.
//!
//! # One shape
//!
//! A scheme is small on purpose — the paper finds `K = 4` best, `K > 4`
//! losing to enclave paging, and uses `M = 1–2` — and its size is said
//! once, here: [`EncodingScheme::generate`] (and
//! [`crate::DarknightConfig::new`] before it) refuses
//! `K+M > MAX_TERMS = 16`. Everything below then has one form. Each of
//! the four passes is **one** call into [`dk_linalg::coded`] over the
//! rows in place, written straight into recycled buffers that are never
//! zeroed or read: the encoder and the single-row encoder are a
//! `coded_combine_write` of `Aᵀ` over the stack table of the `K+M`
//! input and noise rows (the fused-noise encoder writes the input part
//! and streams the noise through `coded_axpy_acc`); the forward decode
//! is `coded_combine_check_write` — outputs and the §4.4 check in the
//! same pass — with integrity and `coded_combine_write` without; the
//! backward decode is a one-row `coded_combine_write` of `γ`.

use crate::error::DarknightError;
use dk_field::{F25, FieldMatrix, FieldRng, P25};
use dk_linalg::coded::MAX_TERMS;
use dk_linalg::{coded_axpy_acc, coded_combine_check_write, coded_combine_write, Workspace};

/// Columns per fused-noise draw: one `FieldRng` chunk is generated,
/// applied to every encoding row while cache-hot, then overwritten by
/// the next chunk — the full noise row never exists. Sized well inside
/// L1/L2 (32 KiB of `F25`s).
const NOISE_CHUNK: usize = 4096;

/// The `K+M` rows a scheme stacks — inputs, then noise — as one table
/// of slices on the stack, in the order `Aᵀ`'s columns expect them.
fn stacked_rows<'a>(inputs: &'a [Vec<F25>], noise: &'a [Vec<F25>]) -> [&'a [F25]; MAX_TERMS] {
    let mut rows: [&[F25]; MAX_TERMS] = [&[]; MAX_TERMS];
    for (d, s) in rows.iter_mut().zip(inputs.iter().chain(noise)) {
        *d = s.as_slice();
    }
    rows
}

/// Takes `rows` empty row buffers with capacity `n` plus their outer
/// vector from the workspace — the output shape of every streaming
/// coded combine. The rows are **not** zeroed: the `_write` kernels
/// store every element, so pre-zeroing would only add a `memset` plus a
/// read-back of zeroes to a memory-bound pass.
fn take_row_bufs(ws: &mut Workspace, rows: usize, n: usize) -> Vec<Vec<F25>> {
    let mut out: Vec<Vec<F25>> = ws.take_cleared(rows);
    for _ in 0..rows {
        let row = ws.take_cleared::<F25>(n);
        out.push(row);
    }
    out
}

/// Reusable buffers for in-place scheme regeneration. No semantic
/// content — just warm capacity carried across virtual batches so
/// resampling `A`, `B`, `Γ` every batch stops touching the allocator.
#[derive(Debug, Clone, Default)]
struct SchemeScratch {
    a_sq: FieldMatrix<P25>,
    a_sq_inv: FieldMatrix<P25>,
    inv_work: FieldMatrix<P25>,
    pivots: Vec<F25>,
    prefix: Vec<F25>,
    points: Vec<F25>,
    scales: Vec<F25>,
    gamma_inv: Vec<F25>,
}

/// The per-virtual-batch masking scheme.
#[derive(Debug, Clone)]
pub struct EncodingScheme {
    k: usize,
    m: usize,
    integrity: bool,
    /// `A ∈ F^{(K+M) × S_cols}`; columns are encodings.
    a: FieldMatrix<P25>,
    /// `Aᵀ`, cached so each encoding row is one contiguous
    /// coefficient-row × stacked-input matmul.
    a_t: FieldMatrix<P25>,
    /// `(A_sq⁻¹)ᵀ`, cached for row-at-a-time forward decoding.
    a_sq_inv_t: FieldMatrix<P25>,
    /// `A_sq⁻¹ · a_last`: folds the §4.4 integrity prediction into a
    /// single row-matmul against the *raw* worker outputs
    /// (`a_lastᵀ·Y = (A_sq⁻¹·a_last)ᵀ·Ȳ`, exactly, in the field).
    /// Empty when integrity is off.
    integrity_w: Vec<F25>,
    /// Public `B ∈ F^{S_cols × K}` (the redundant row, if any, is zero).
    b: FieldMatrix<P25>,
    /// Secret diagonal `Γ` entries.
    gamma: Vec<F25>,
    /// Regeneration scratch (see [`SchemeScratch`]).
    scratch: SchemeScratch,
}

impl EncodingScheme {
    /// Samples a fresh scheme (the paper regenerates `A`, `B`, `Γ` for
    /// every virtual batch — §4.1 "dynamically generated for each
    /// virtual batch").
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `m == 0` or `k + m > MAX_TERMS` (16): the
    /// coded kernels every encode and decode runs on are built for one
    /// register group of stacked rows ([`dk_linalg::coded`]), and the
    /// size of a scheme is the operator's choice, not the wire's.
    pub fn generate(k: usize, m: usize, integrity: bool, rng: &mut FieldRng) -> Self {
        assert!(k > 0 && m > 0, "k and m must be positive");
        assert!(k + m <= MAX_TERMS, "k + m must not exceed MAX_TERMS = {MAX_TERMS}");
        let s_sq = k + m;
        let s_cols = s_sq + usize::from(integrity);
        let mut scheme = Self {
            k,
            m,
            integrity,
            a: FieldMatrix::zeros(s_sq, s_cols),
            a_t: FieldMatrix::zeros(s_cols, s_sq),
            a_sq_inv_t: FieldMatrix::zeros(s_sq, s_sq),
            integrity_w: Vec::new(),
            b: FieldMatrix::zeros(s_cols, k),
            gamma: Vec::new(),
            scratch: SchemeScratch::default(),
        };
        scheme.regenerate(rng);
        scheme
    }

    /// Resamples `A`, `B`, `Γ` in place for the next virtual batch —
    /// the same draw as [`EncodingScheme::generate`] (bit-identical
    /// output and RNG consumption given the same RNG state), but reusing
    /// every coefficient buffer, so a warm session's per-batch key
    /// refresh performs zero heap allocations.
    pub fn regenerate(&mut self, rng: &mut FieldRng) {
        let (k, m, integrity) = (self.k, self.m, self.integrity);
        let s_sq = k + m;
        let s_cols = s_sq + usize::from(integrity);
        let scr = &mut self.scratch;
        if scr.a_sq.rows() != s_sq {
            scr.a_sq = FieldMatrix::zeros(s_sq, s_sq);
            scr.a_sq_inv = FieldMatrix::zeros(s_sq, s_sq);
            scr.inv_work = FieldMatrix::zeros(s_sq, s_sq);
        }
        // Rejection-sample A = [A1; A2] until its leading square block
        // is invertible, drawing in the historical order: A1's
        // k·s_cols uniforms, then the Vandermonde points of the MDS
        // noise block, then its column scales.
        loop {
            for v in self.a.as_mut_slice()[..k * s_cols].iter_mut() {
                *v = rng.uniform();
            }
            // Inline mds_matrix(m, s_cols): distinct nonzero points
            // (rejection), then one nonzero scale per column.
            scr.points.clear();
            while scr.points.len() < s_cols {
                let x = rng.uniform_nonzero::<P25>();
                if !scr.points.contains(&x) {
                    scr.points.push(x);
                }
            }
            scr.scales.clear();
            scr.scales.extend((0..s_cols).map(|_| rng.uniform_nonzero::<P25>()));
            for r in 0..m {
                for c in 0..s_cols {
                    self.a[(k + r, c)] = scr.points[c].pow(r as u64) * scr.scales[c];
                }
            }
            for r in 0..s_sq {
                for c in 0..s_sq {
                    scr.a_sq[(r, c)] = self.a[(r, c)];
                }
            }
            let ok = scr.a_sq.inverse_into(
                &mut scr.a_sq_inv,
                &mut scr.inv_work,
                &mut scr.pivots,
                &mut scr.prefix,
            );
            if ok {
                break;
            }
        }
        self.gamma.clear();
        self.gamma.extend((0..s_cols).map(|_| rng.uniform_nonzero::<P25>()));
        // (Aᵀ_sq)⁻¹ = (A_sq⁻¹)ᵀ — reuse the inverse the sampling loop
        // already produced instead of running Gauss–Jordan a second time.
        for r in 0..s_sq {
            for c in 0..s_sq {
                self.a_sq_inv_t[(r, c)] = scr.a_sq_inv[(c, r)];
            }
        }
        // Bᵀ = [I_K | 0] · (Aᵀ_sq)^{-1} · Γ^{-1}, so Bᵀ·Γ·Aᵀ_sq = [I | 0].
        // The identity selector keeps the first K rows of (A_sq⁻¹)ᵀ and
        // the diagonal right-factor is a column scaling, so the product
        // collapses to one multiply per entry — exact in the field,
        // bit-identical to materializing the sparse matrix products.
        scr.gamma_inv.clear();
        scr.gamma_inv.extend_from_slice(&self.gamma[..s_sq]);
        F25::batch_invert_with(&mut scr.gamma_inv, &mut scr.prefix);
        self.b.as_mut_slice().fill(F25::ZERO);
        for j in 0..s_sq {
            for i in 0..k {
                self.b[(j, i)] = self.a_sq_inv_t[(i, j)] * scr.gamma_inv[j];
            }
        }
        // Redundant row (if any) stays zero: the spare worker is the
        // integrity watchdog, not a gradient contributor.
        for r in 0..s_sq {
            for c in 0..s_cols {
                self.a_t[(c, r)] = self.a[(r, c)];
            }
        }
        self.integrity_w.clear();
        if integrity {
            let last = s_cols - 1;
            scr.points.clear(); // reused as a_last
            scr.points.extend((0..s_sq).map(|c| self.a[(c, last)]));
            scr.a_sq_inv.mul_vec_into(&scr.points, &mut self.integrity_w);
        }
    }

    /// Virtual batch size `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Noise vector count `M`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Total encodings produced (`K+M`, `+1` with integrity).
    pub fn num_encodings(&self) -> usize {
        self.a.cols()
    }

    /// Whether a redundant integrity column exists.
    pub fn has_integrity(&self) -> bool {
        self.integrity
    }

    /// The public `B` row for worker `j` (what the paper ships to GPUs).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn beta_row(&self, j: usize) -> &[F25] {
        self.b.row(j)
    }

    /// The secret noise block `A2` columns (white-box collusion audits
    /// only; a deployment never reveals this).
    pub fn a2_block(&self) -> FieldMatrix<P25> {
        let rows: Vec<usize> = (self.k..self.k + self.m).collect();
        let cols: Vec<usize> = (0..self.a.cols()).collect();
        self.a.submatrix(&rows, &cols)
    }

    /// Encodes a virtual batch: `K` input vectors and `M` noise vectors,
    /// all of length `n`, into `num_encodings()` masked vectors. The one
    /// allocating form in the scheme: the end-to-end benchmark and the
    /// privacy audit (`crate::privacy`) call it; the session encodes
    /// through [`EncodingScheme::encode_fused_ws`].
    ///
    /// # Panics
    ///
    /// Panics if counts or lengths are inconsistent.
    pub fn encode(&self, inputs: &[Vec<F25>], noise: &[Vec<F25>]) -> Vec<Vec<F25>> {
        self.encode_ws(inputs, noise, &mut Workspace::new())
    }

    /// [`EncodingScheme::encode`] with the encoding rows and their outer
    /// vector drawn from `ws`. The rows leave the TEE for the accelerators, but the
    /// session recycles them back into this pool once the workers'
    /// jobs retire, so the steady state allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if counts or lengths are inconsistent.
    pub fn encode_ws(
        &self,
        inputs: &[Vec<F25>],
        noise: &[Vec<F25>],
        ws: &mut Workspace,
    ) -> Vec<Vec<F25>> {
        assert_eq!(inputs.len(), self.k, "expected K input vectors");
        assert_eq!(noise.len(), self.m, "expected M noise vectors");
        let n = inputs[0].len();
        let kdim = self.k + self.m;
        // X̄ = Aᵀ[s_cols × (K+M)] · X[(K+M) × n], streamed: the input
        // and noise rows are referenced in place (no stacking copy) and
        // every column chunk of them is read exactly once while **all**
        // s_cols encodings are produced in that pass — the coefficient
        // matrix is the thing that stays resident, not the data. Write
        // mode: the recycled output rows are never zeroed or read.
        let mut enc = take_row_bufs(ws, self.a.cols(), n);
        let rows = stacked_rows(inputs, noise);
        coded_combine_write(self.a_t.as_slice(), kdim, 0, &rows[..kdim], &mut enc, n);
        enc
    }

    /// [`EncodingScheme::encode_ws`] with the noise rows **fused into
    /// the stream**: instead of materializing `M` noise vectors, the
    /// caller's RNG is drawn in row-major, ascending-column chunks and
    /// each chunk is applied to every encoding while still in cache.
    ///
    /// Draw-order faithful: the chunks consume exactly the draws (count
    /// and order) that filling `M` length-`n` rows with
    /// `uniform_extend` would, so the RNG stream position afterwards
    /// and every output bit match the materialized path.
    ///
    /// # Panics
    ///
    /// Panics if counts or lengths are inconsistent.
    pub fn encode_fused_ws(
        &self,
        inputs: &[Vec<F25>],
        nrng: &mut FieldRng,
        ws: &mut Workspace,
    ) -> Vec<Vec<F25>> {
        assert_eq!(inputs.len(), self.k, "expected K input vectors");
        let n = inputs[0].len();
        let kdim = self.k + self.m;
        let mut enc = take_row_bufs(ws, self.a.cols(), n);
        coded_combine_write(self.a_t.as_slice(), kdim, 0, inputs, &mut enc, n);
        let mut chunk = ws.take_cleared::<F25>(NOISE_CHUNK.min(n));
        for t in 0..self.m {
            let mut j0 = 0;
            while j0 < n {
                let w = (n - j0).min(NOISE_CHUNK);
                chunk.clear();
                nrng.uniform_extend::<P25>(w, &mut chunk);
                coded_axpy_acc(self.a_t.as_slice(), kdim, self.k + t, &chunk, &mut enc, j0);
                j0 += w;
            }
        }
        ws.give(chunk);
        enc
    }

    /// Computes a single encoding `x̄_j` — bit-identical to
    /// `encode(...)[j]`, at `1/num_encodings()` of the work. The
    /// backward spot check regenerates exactly one TEE-chosen encoding,
    /// so it calls this instead of materializing the whole batch. The
    /// row is written into a workspace buffer; give it back when done.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range or counts/lengths are inconsistent.
    pub fn encode_row_ws(
        &self,
        j: usize,
        inputs: &[Vec<F25>],
        noise: &[Vec<F25>],
        ws: &mut Workspace,
    ) -> Vec<F25> {
        assert!(j < self.a.cols(), "encoding index out of range");
        assert_eq!(inputs.len(), self.k, "expected K input vectors");
        assert_eq!(noise.len(), self.m, "expected M noise vectors");
        let n = inputs[0].len();
        let kdim = self.k + self.m;
        let mut row = ws.take_cleared::<F25>(n);
        let rows = stacked_rows(inputs, noise);
        coded_combine_write(
            self.a_t.row(j),
            kdim,
            0,
            &rows[..kdim],
            std::slice::from_mut(&mut row),
            n,
        );
        row
    }

    /// Decodes GPU outputs `ȳ_j = ⟨W, x̄_j⟩` back to the `K` true
    /// outputs, verifying the redundant equation when enabled. The `K`
    /// decoded rows and their outer vector are drawn from `ws`: give
    /// them back once consumed to keep the steady state allocation-free.
    ///
    /// # Errors
    ///
    /// [`DarknightError::IntegrityViolation`] if the redundant equation
    /// is inconsistent (some worker tampered with its result).
    ///
    /// # Panics
    ///
    /// Panics if the output count or lengths are inconsistent.
    pub fn decode_forward_ws<S: AsRef<[F25]> + Sync>(
        &self,
        outputs: &[S],
        layer_id: u64,
        ws: &mut Workspace,
    ) -> Result<Vec<Vec<F25>>, DarknightError> {
        let s_sq = self.k + self.m;
        assert_eq!(outputs.len(), self.num_encodings(), "one output per encoding");
        let n = outputs[0].as_ref().len();
        for o in outputs {
            assert_eq!(o.as_ref().len(), n, "all outputs must have equal length");
        }
        // Y = (A_sq⁻¹)ᵀ · Ȳ, streamed over the worker output rows in
        // place (no stacking copy). Only the K true-output rows are ever
        // computed, and the §4.4 integrity check — the precomputed
        // `w = A_sq⁻¹·a_last` dotted against the same Ȳ rows and
        // compared to the redundant output (exactly `a_lastᵀ·Y`; field
        // arithmetic is associative and exact) — is fused into the same
        // pass, so every column chunk of Ȳ is read exactly once while
        // it is in cache.
        let ybar = &outputs[..s_sq];
        let mut decoded = take_row_bufs(ws, self.k, n);
        if !self.integrity {
            coded_combine_write(self.a_sq_inv_t.as_slice(), s_sq, 0, ybar, &mut decoded, n);
            return Ok(decoded);
        }
        let mismatches = coded_combine_check_write(
            self.a_sq_inv_t.as_slice(),
            s_sq,
            0,
            ybar,
            &mut decoded,
            n,
            &self.integrity_w,
            outputs[s_sq].as_ref(),
        );
        if mismatches > 0 {
            for row in decoded.drain(..) {
                ws.give(row);
            }
            ws.give(decoded);
            return Err(DarknightError::IntegrityViolation {
                layer_id,
                phase: "forward",
                mismatches,
            });
        }
        Ok(decoded)
    }

    /// Decodes the aggregate backward term: `Σ_j γ_j·Eq_j` over the
    /// `K+M` gradient-bearing equations (Eq. 6). The result is
    /// `Σ_i ⟨δ_i, x_i⟩` at product scale; the `1/K` averaging happens in
    /// the float domain after dequantization. The row is drawn from
    /// `ws` (give it back once dequantized).
    ///
    /// # Panics
    ///
    /// Panics if the equation count or lengths are inconsistent.
    pub fn decode_backward_ws<S: AsRef<[F25]> + Sync>(&self, eqs: &[S], ws: &mut Workspace) -> Vec<F25> {
        let s_sq = self.k + self.m;
        assert!(eqs.len() >= s_sq, "need at least K+M equations");
        let n = eqs[0].as_ref().len();
        // γᵀ[1 × s_sq] · Eq[s_sq × n]: the γ-weighted sum as one
        // streamed pass over the equation rows in place.
        let mut out = ws.take_cleared::<F25>(n);
        coded_combine_write(
            &self.gamma[..s_sq],
            s_sq,
            0,
            &eqs[..s_sq],
            std::slice::from_mut(&mut out),
            n,
        );
        out
    }

    /// Verifies the defining relation `Bᵀ·Γ·Aᵀ = [I_K | 0]` (Eq. 5/13).
    /// Exposed so tests can check every sampled instance.
    pub fn verify_relation(&self) -> bool {
        let s_cols = self.a.cols();
        let gamma_diag = FieldMatrix::diagonal(&self.gamma);
        let bt = self.b.transpose(); // K × S_cols
        let product = &(&bt * &gamma_diag) * &self.a.transpose(); // K × (K+M)
        for i in 0..self.k {
            for c in 0..self.k + self.m {
                let expect = if i == c { F25::ONE } else { F25::ZERO };
                if product[(i, c)] != expect {
                    return false;
                }
            }
        }
        let _ = s_cols;
        true
    }

    /// White-box view of `Aᵀ` for equivalence tests (coefficient row
    /// `j` = encoding `j`). Not part of the stable API.
    #[doc(hidden)]
    pub fn a_transpose(&self) -> &FieldMatrix<P25> {
        &self.a_t
    }

    /// White-box view of `(A_sq⁻¹)ᵀ` for equivalence tests. Not part of
    /// the stable API.
    #[doc(hidden)]
    pub fn a_sq_inv_transpose(&self) -> &FieldMatrix<P25> {
        &self.a_sq_inv_t
    }

    /// White-box view of the precomputed `A_sq⁻¹·a_last` integrity row
    /// (empty when integrity is off). Not part of the stable API.
    #[doc(hidden)]
    pub fn integrity_weights(&self) -> &[F25] {
        &self.integrity_w
    }

    /// White-box view of the secret `Γ` diagonal for equivalence tests.
    /// Not part of the stable API.
    #[doc(hidden)]
    pub fn gamma_coeffs(&self) -> &[F25] {
        &self.gamma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_field::vandermonde::is_mds;

    fn rng() -> FieldRng {
        FieldRng::seed_from(0xC0DE)
    }

    /// Builds synthetic "GPU outputs" for a *scalar linear functional*
    /// `f(v) = Σ_e w_e v_e`, which commutes with the encoding exactly
    /// like any bilinear op.
    fn apply_functional(w: &[F25], v: &[F25]) -> F25 {
        w.iter().zip(v).map(|(&a, &b)| a * b).sum()
    }

    #[test]
    fn encode_decode_round_trip_no_integrity() {
        let mut ws = Workspace::new();
        let mut r = rng();
        for (k, m) in [(1, 1), (2, 1), (4, 1), (2, 3), (3, 2)] {
            let scheme = EncodingScheme::generate(k, m, false, &mut r);
            let n = 16;
            let inputs: Vec<Vec<F25>> = (0..k).map(|_| r.uniform_vec::<P25>(n)).collect();
            let noise: Vec<Vec<F25>> = (0..m).map(|_| r.uniform_vec::<P25>(n)).collect();
            let encodings = scheme.encode(&inputs, &noise);
            assert_eq!(encodings.len(), k + m);
            // "GPU" applies a random linear functional elementwise — here
            // we simply treat identity: ȳ_j = x̄_j (identity is bilinear
            // with W = I).
            let decoded = scheme.decode_forward_ws(&encodings, 0, &mut ws).unwrap();
            assert_eq!(decoded, inputs, "k={k} m={m}");
        }
    }

    /// The bound is inclusive: a scheme of exactly `MAX_TERMS` stacked
    /// rows encodes, row-encodes, checks and decodes.
    #[test]
    fn scheme_at_the_bound_round_trips() {
        let mut r = rng();
        let (k, m, n) = (12, MAX_TERMS - 12, 2 * 16 + 5);
        let scheme = EncodingScheme::generate(k, m, true, &mut r);
        let inputs: Vec<Vec<F25>> = (0..k).map(|_| r.uniform_vec::<P25>(n)).collect();
        let noise: Vec<Vec<F25>> = (0..m).map(|_| r.uniform_vec::<P25>(n)).collect();
        let mut outputs = scheme.encode(&inputs, &noise);
        assert_eq!(outputs.len(), MAX_TERMS + 1);
        let mut ws = Workspace::new();
        assert_eq!(scheme.encode_row_ws(MAX_TERMS, &inputs, &noise, &mut ws), outputs[MAX_TERMS]);
        assert_eq!(scheme.decode_forward_ws(&outputs, 0, &mut ws).unwrap(), inputs);
        outputs[MAX_TERMS - 1][n - 1] += F25::ONE;
        assert!(scheme.decode_forward_ws(&outputs, 0, &mut ws).is_err());
    }

    /// One row past it is refused where the scheme is built.
    #[test]
    #[should_panic(expected = "MAX_TERMS")]
    fn scheme_past_the_bound_rejected() {
        let _ = EncodingScheme::generate(12, 5, true, &mut rng());
    }

    #[test]
    fn decode_commutes_with_linear_op() {
        let mut ws = Workspace::new();
        let mut r = rng();
        let (k, m, n, out_n) = (3, 2, 12, 5);
        let scheme = EncodingScheme::generate(k, m, true, &mut r);
        let inputs: Vec<Vec<F25>> = (0..k).map(|_| r.uniform_vec::<P25>(n)).collect();
        let noise: Vec<Vec<F25>> = (0..m).map(|_| r.uniform_vec::<P25>(n)).collect();
        let encodings = scheme.encode(&inputs, &noise);
        // W is an out_n x n matrix; GPUs compute W · x̄_j.
        let w: Vec<Vec<F25>> = (0..out_n).map(|_| r.uniform_vec::<P25>(n)).collect();
        let gpu = |v: &Vec<F25>| -> Vec<F25> { w.iter().map(|row| apply_functional(row, v)).collect() };
        let outputs: Vec<Vec<F25>> = encodings.iter().map(gpu).collect();
        let decoded = scheme.decode_forward_ws(&outputs, 0, &mut ws).unwrap();
        for i in 0..k {
            assert_eq!(decoded[i], gpu(&inputs[i]), "input {i}");
        }
    }

    #[test]
    fn integrity_detects_single_corruption() {
        let mut ws = Workspace::new();
        let mut r = rng();
        let scheme = EncodingScheme::generate(2, 1, true, &mut r);
        let n = 8;
        let inputs: Vec<Vec<F25>> = (0..2).map(|_| r.uniform_vec::<P25>(n)).collect();
        let noise = vec![r.uniform_vec::<P25>(n)];
        let mut outputs = scheme.encode(&inputs, &noise); // identity op
        // Corrupt one element of one worker's output.
        outputs[1][3] += F25::ONE;
        let err = scheme.decode_forward_ws(&outputs, 7, &mut ws).unwrap_err();
        match err {
            DarknightError::IntegrityViolation { layer_id, phase, mismatches } => {
                assert_eq!(layer_id, 7);
                assert_eq!(phase, "forward");
                assert!(mismatches >= 1);
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn integrity_detects_corruption_of_every_worker() {
        let mut ws = Workspace::new();
        let mut r = rng();
        let scheme = EncodingScheme::generate(2, 2, true, &mut r);
        let n = 6;
        let inputs: Vec<Vec<F25>> = (0..2).map(|_| r.uniform_vec::<P25>(n)).collect();
        let noise: Vec<Vec<F25>> = (0..2).map(|_| r.uniform_vec::<P25>(n)).collect();
        let clean = scheme.encode(&inputs, &noise);
        for victim in 0..clean.len() {
            let mut outputs = clean.clone();
            outputs[victim][0] += F25::new(42);
            assert!(
                scheme.decode_forward_ws(&outputs, 0, &mut ws).is_err(),
                "corruption of worker {victim} undetected"
            );
        }
    }

    #[test]
    fn integrity_detects_multi_worker_corruption() {
        let mut ws = Workspace::new();
        // (K'-1)-security: corrupt all but one worker.
        let mut r = rng();
        let scheme = EncodingScheme::generate(3, 1, true, &mut r);
        let n = 6;
        let inputs: Vec<Vec<F25>> = (0..3).map(|_| r.uniform_vec::<P25>(n)).collect();
        let noise = vec![r.uniform_vec::<P25>(n)];
        let mut outputs = scheme.encode(&inputs, &noise);
        for out in outputs.iter_mut().take(4) {
            for v in out.iter_mut() {
                *v += r.uniform_nonzero::<P25>();
            }
        }
        assert!(scheme.decode_forward_ws(&outputs, 0, &mut ws).is_err());
    }

    #[test]
    fn clean_outputs_pass_integrity() {
        let mut ws = Workspace::new();
        let mut r = rng();
        for _ in 0..20 {
            let scheme = EncodingScheme::generate(2, 1, true, &mut r);
            let inputs: Vec<Vec<F25>> = (0..2).map(|_| r.uniform_vec::<P25>(10)).collect();
            let noise = vec![r.uniform_vec::<P25>(10)];
            let outputs = scheme.encode(&inputs, &noise);
            assert!(scheme.decode_forward_ws(&outputs, 0, &mut ws).is_ok());
        }
    }

    #[test]
    fn relation_eq5_holds_for_every_instance() {
        let mut r = rng();
        for (k, m, integ) in [(1, 1, false), (2, 1, true), (4, 2, true), (3, 3, false)] {
            for _ in 0..5 {
                let scheme = EncodingScheme::generate(k, m, integ, &mut r);
                assert!(scheme.verify_relation(), "k={k} m={m} integ={integ}");
            }
        }
    }

    #[test]
    fn backward_decode_recovers_aggregate() {
        let mut ws = Workspace::new();
        // Scalar model: x_i, delta_i are vectors; Eq_j = ⟨Σ_i β_ji δ_i, x̄_j⟩
        // as an outer-product-free scalar: use elementwise product then sum
        // — i.e., the bilinear form is the dot product.
        let mut r = rng();
        let (k, m, n) = (3, 2, 10);
        let scheme = EncodingScheme::generate(k, m, false, &mut r);
        let inputs: Vec<Vec<F25>> = (0..k).map(|_| r.uniform_vec::<P25>(n)).collect();
        let noise: Vec<Vec<F25>> = (0..m).map(|_| r.uniform_vec::<P25>(n)).collect();
        let deltas: Vec<Vec<F25>> = (0..k).map(|_| r.uniform_vec::<P25>(n)).collect();
        let encodings = scheme.encode(&inputs, &noise);
        // Worker j computes Eq_j[e] = δ̃_j[e] * x̄_j[e] (elementwise
        // bilinear form; decoding is elementwise too).
        let eqs: Vec<Vec<F25>> = (0..scheme.num_encodings())
            .map(|j| {
                let beta = scheme.beta_row(j);
                let mut dt = vec![F25::ZERO; n];
                for (i, d) in deltas.iter().enumerate() {
                    for (o, &v) in dt.iter_mut().zip(d) {
                        *o = F25::mul_add(beta[i], v, *o);
                    }
                }
                dt.iter().zip(&encodings[j]).map(|(&a, &b)| a * b).collect()
            })
            .collect();
        let decoded = scheme.decode_backward_ws(&eqs, &mut ws);
        // Expected: Σ_i δ_i ⊙ x_i elementwise.
        let mut expect = vec![F25::ZERO; n];
        for i in 0..k {
            for e in 0..n {
                expect[e] = F25::mul_add(deltas[i][e], inputs[i][e], expect[e]);
            }
        }
        assert_eq!(decoded, expect);
    }

    #[test]
    fn a2_block_is_mds() {
        let mut r = rng();
        for (k, m) in [(2, 1), (2, 3), (4, 2)] {
            let scheme = EncodingScheme::generate(k, m, true, &mut r);
            assert!(is_mds(&scheme.a2_block()), "k={k} m={m}");
        }
    }

    #[test]
    fn beta_rows_public_shape() {
        let mut r = rng();
        let scheme = EncodingScheme::generate(3, 1, true, &mut r);
        assert_eq!(scheme.num_encodings(), 5);
        for j in 0..5 {
            assert_eq!(scheme.beta_row(j).len(), 3);
        }
        // The watchdog row is zero: it contributes no gradient.
        assert!(scheme.beta_row(4).iter().all(|v| v.is_zero()));
    }

    #[test]
    fn encode_row_matches_full_encode() {
        let mut r = rng();
        let mut ws = Workspace::new();
        for (k, m, integ) in [(2, 1, false), (3, 2, true)] {
            let scheme = EncodingScheme::generate(k, m, integ, &mut r);
            let inputs: Vec<Vec<F25>> = (0..k).map(|_| r.uniform_vec::<P25>(9)).collect();
            let noise: Vec<Vec<F25>> = (0..m).map(|_| r.uniform_vec::<P25>(9)).collect();
            let full = scheme.encode(&inputs, &noise);
            for (j, want) in full.iter().enumerate() {
                let row = scheme.encode_row_ws(j, &inputs, &noise, &mut ws);
                assert_eq!(&row, want, "k={k} m={m} row {j}");
                ws.give(row);
            }
        }
    }

    #[test]
    fn ws_decode_recycles_without_misses() {
        let mut r = rng();
        let scheme = EncodingScheme::generate(3, 2, true, &mut r);
        let inputs: Vec<Vec<F25>> = (0..3).map(|_| r.uniform_vec::<P25>(32)).collect();
        let noise: Vec<Vec<F25>> = (0..2).map(|_| r.uniform_vec::<P25>(32)).collect();
        let mut ws = Workspace::new();
        let recycle = |ws: &mut Workspace, mut rows: Vec<Vec<F25>>| {
            for row in rows.drain(..) {
                ws.give(row);
            }
            ws.give(rows);
        };
        // Warm-up, then the pool must stop missing.
        let enc = scheme.encode_ws(&inputs, &noise, &mut ws);
        let dec = scheme.decode_forward_ws(&enc, 0, &mut ws).unwrap();
        recycle(&mut ws, dec);
        let misses = ws.stats().misses;
        for round in 0..5 {
            let dec = scheme.decode_forward_ws(&enc, round, &mut ws).unwrap();
            assert_eq!(dec.len(), 3);
            recycle(&mut ws, dec);
        }
        assert_eq!(ws.stats().misses, misses, "warm decode must not allocate");
    }

    #[test]
    fn regenerate_matches_generate_bitwise() {
        for (k, m, integ) in [(1, 1, false), (2, 1, true), (3, 2, true), (2, 3, false)] {
            let mut r1 = FieldRng::seed_from(0x5EED);
            let mut r2 = FieldRng::seed_from(0x5EED);
            let fresh = EncodingScheme::generate(k, m, integ, &mut r1);
            // A stale scheme of the same shape, re-keyed in place, must
            // land on the identical coefficients from the same RNG state.
            let mut reused = EncodingScheme::generate(k, m, integ, &mut FieldRng::seed_from(999));
            reused.regenerate(&mut r2);
            assert_eq!(fresh.a.as_slice(), reused.a.as_slice(), "k={k} m={m}");
            assert_eq!(fresh.a_t.as_slice(), reused.a_t.as_slice());
            assert_eq!(fresh.a_sq_inv_t.as_slice(), reused.a_sq_inv_t.as_slice());
            assert_eq!(fresh.b.as_slice(), reused.b.as_slice());
            assert_eq!(fresh.gamma, reused.gamma);
            assert_eq!(fresh.integrity_w, reused.integrity_w);
            assert!(reused.verify_relation());
            // And both RNG streams stay in lockstep afterwards.
            assert_eq!(r1.uniform_vec::<P25>(4), r2.uniform_vec::<P25>(4));
        }
    }

    #[test]
    fn decode_accepts_tensor_rows() {
        let mut ws = Workspace::new();
        use dk_linalg::Tensor;
        let mut r = rng();
        let scheme = EncodingScheme::generate(2, 1, true, &mut r);
        let inputs: Vec<Vec<F25>> = (0..2).map(|_| r.uniform_vec::<P25>(8)).collect();
        let noise = vec![r.uniform_vec::<P25>(8)];
        let outputs = scheme.encode(&inputs, &noise);
        let as_tensors: Vec<Tensor<F25>> =
            outputs.iter().map(|o| Tensor::from_vec(&[o.len()], o.clone())).collect();
        assert_eq!(
            scheme.decode_forward_ws(&outputs, 0, &mut ws).unwrap(),
            scheme.decode_forward_ws(&as_tensors, 0, &mut ws).unwrap(),
        );
    }

    #[test]
    fn schemes_are_fresh_per_generation() {
        let mut r = rng();
        let s1 = EncodingScheme::generate(2, 1, false, &mut r);
        let s2 = EncodingScheme::generate(2, 1, false, &mut r);
        let x = vec![r.uniform_vec::<P25>(4), r.uniform_vec::<P25>(4)];
        let noise = vec![r.uniform_vec::<P25>(4)];
        assert_ne!(s1.encode(&x, &noise), s2.encode(&x, &noise));
    }
}
