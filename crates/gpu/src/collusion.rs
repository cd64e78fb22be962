//! Empirical privacy analysis of colluding workers.
//!
//! The paper's §5 proves perfect privacy for coalitions of at most `M`
//! workers: their observations `X·A1_I + R·A2_I` look uniform because
//! any ≤M columns of the MDS matrix `A2` are full rank, so no linear
//! combination cancels the noise. This module provides the matching
//! *empirical* machinery:
//!
//! * [`uniformity_chi_square`] — a goodness-of-fit statistic over
//!   observed masked values (Lemma 1 says they are uniform on `F_p`).
//! * [`noise_cancellation_attack`] — a white-box audit: given the secret
//!   `A2` block (leaked, for analysis), find coefficients that cancel
//!   the noise across a coalition's observations. For coalitions of size
//!   `≤ M` this must fail; for size `M+1` it succeeds and reconstructs a
//!   raw linear combination of private inputs — demonstrating the exact
//!   tolerance boundary rather than asserting it.

use dk_field::{F25, FieldMatrix, P25};

/// Chi-square statistic of observed field values against the uniform
/// distribution over `F_p`, using `buckets` equal-width bins.
/// Degrees of freedom = `buckets − 1`.
///
/// # Panics
///
/// Panics if `buckets < 2` or no values are given.
pub fn uniformity_chi_square(values: &[F25], buckets: usize) -> f64 {
    assert!(buckets >= 2, "need at least 2 buckets");
    assert!(!values.is_empty(), "need at least one observation");
    let mut counts = vec![0usize; buckets];
    for v in values {
        let b = (v.value() as u128 * buckets as u128 / P25 as u128) as usize;
        counts[b.min(buckets - 1)] += 1;
    }
    let expected = values.len() as f64 / buckets as f64;
    counts.iter().map(|&c| (c as f64 - expected).powi(2) / expected).sum()
}

/// The 99.9th percentile of a chi-square distribution with `df` degrees
/// of freedom (Wilson–Hilferty approximation) — the acceptance threshold
/// used by uniformity tests.
pub fn chi_square_threshold_999(df: usize) -> f64 {
    let df = df as f64;
    let z = 3.09; // z-score of 0.999
    let t = 1.0 - 2.0 / (9.0 * df) + z * (2.0 / (9.0 * df)).sqrt();
    df * t * t * t
}

/// Result of a white-box noise-cancellation attempt.
#[derive(Debug, Clone)]
pub enum AttackOutcome {
    /// No coefficient vector cancels the noise — the coalition learns
    /// nothing (privacy holds).
    NoiseUncancellable,
    /// The attack found coefficients `c` with `A2_I · c = 0`; the
    /// returned vector is `Σ c_j · x̄_j = X·(A1_I·c)` — a *noise-free*
    /// linear combination of private inputs (privacy broken).
    InputCombinationRecovered {
        /// The cancelling coefficients, one per coalition member.
        coefficients: Vec<F25>,
        /// The recovered masked-noise-free combination.
        recovered: Vec<F25>,
    },
}

impl AttackOutcome {
    /// True if the coalition broke privacy.
    pub fn is_breach(&self) -> bool {
        matches!(self, AttackOutcome::InputCombinationRecovered { .. })
    }
}

/// Attempts the noise-cancellation attack.
///
/// * `a2_coalition` — the columns of the secret `A2 ∈ F^{M×S}` indexed
///   by the coalition (shape `M × |I|`). Supplying it models a white-box
///   audit of the encoding, not an adversary capability.
/// * `observations` — the coalition's masked vectors `x̄_j`, one per
///   member, all the same length.
///
/// Finds a nonzero `c` in the null space of `A2_I` if one exists and
/// applies it to the observations.
///
/// # Panics
///
/// Panics if observation lengths are inconsistent with the coalition
/// size.
pub fn noise_cancellation_attack(
    a2_coalition: &FieldMatrix<P25>,
    observations: &[Vec<F25>],
) -> AttackOutcome {
    let coalition = a2_coalition.cols();
    assert_eq!(observations.len(), coalition, "one observation per coalition member");
    let Some(c) = null_space_vector(a2_coalition) else {
        return AttackOutcome::NoiseUncancellable;
    };
    let n = observations[0].len();
    let mut recovered = vec![F25::ZERO; n];
    for (obs, &cj) in observations.iter().zip(&c) {
        assert_eq!(obs.len(), n, "inconsistent observation lengths");
        for (r, &o) in recovered.iter_mut().zip(obs) {
            *r += o * cj;
        }
    }
    AttackOutcome::InputCombinationRecovered { coefficients: c, recovered }
}

/// Finds a nonzero vector in the null space of `m` (columns > rank), or
/// `None` if the columns are linearly independent.
pub fn null_space_vector(m: &FieldMatrix<P25>) -> Option<Vec<F25>> {
    let rows = m.rows();
    let cols = m.cols();
    // Row-reduce a copy, tracking pivot columns.
    let mut a = m.clone();
    let mut pivot_cols = Vec::new();
    let mut r = 0usize;
    for c in 0..cols {
        if r >= rows {
            break;
        }
        let Some(p) = (r..rows).find(|&i| !a[(i, c)].is_zero()) else {
            continue;
        };
        // swap rows p, r
        if p != r {
            for cc in 0..cols {
                let tmp = a[(p, cc)];
                a[(p, cc)] = a[(r, cc)];
                a[(r, cc)] = tmp;
            }
        }
        // `p` was chosen with a nonzero entry, so this always inverts.
        let Some(inv) = a[(r, c)].inv() else { continue };
        for cc in 0..cols {
            a[(r, cc)] *= inv;
        }
        for i in 0..rows {
            if i != r && !a[(i, c)].is_zero() {
                let f = a[(i, c)];
                for cc in 0..cols {
                    let v = a[(r, cc)];
                    a[(i, cc)] -= f * v;
                }
            }
        }
        pivot_cols.push(c);
        r += 1;
    }
    // A free column exists iff rank < cols.
    let free_col = (0..cols).find(|c| !pivot_cols.contains(c))?;
    // Back-substitute: x[free] = 1, x[pivot_col of row i] = -a[i][free].
    let mut x = vec![F25::ZERO; cols];
    x[free_col] = F25::ONE;
    for (row, &pc) in pivot_cols.iter().enumerate() {
        x[pc] = -a[(row, free_col)];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_field::{FieldRng, vandermonde::mds_matrix};

    #[test]
    fn chi_square_uniform_passes() {
        let mut rng = FieldRng::seed_from(1);
        let values: Vec<F25> = (0..32_000).map(|_| rng.uniform()).collect();
        let chi2 = uniformity_chi_square(&values, 16);
        assert!(chi2 < chi_square_threshold_999(15), "chi2={chi2}");
    }

    #[test]
    fn chi_square_nonuniform_fails() {
        // Raw small-magnitude quantized data is wildly non-uniform.
        let values: Vec<F25> = (0..32_000).map(|i| F25::new(i % 500)).collect();
        let chi2 = uniformity_chi_square(&values, 16);
        assert!(chi2 > chi_square_threshold_999(15) * 100.0, "chi2={chi2}");
    }

    #[test]
    fn threshold_is_sane() {
        // chi2_0.999 for df=15 is ~37.7.
        let t = chi_square_threshold_999(15);
        assert!((35.0..41.0).contains(&t), "t={t}");
    }

    #[test]
    fn null_space_of_full_rank_is_empty() {
        let mut rng = FieldRng::seed_from(2);
        let m = mds_matrix::<P25>(3, 3, &mut rng);
        assert!(null_space_vector(&m).is_none());
    }

    #[test]
    fn null_space_found_for_wide_matrix() {
        let mut rng = FieldRng::seed_from(3);
        let m = mds_matrix::<P25>(2, 4, &mut rng);
        let c = null_space_vector(&m).expect("wide matrix has null space");
        // Verify A·c = 0.
        let prod = m.mul_vec(&c);
        assert!(prod.iter().all(|v| v.is_zero()));
        assert!(c.iter().any(|v| !v.is_zero()));
    }

    #[test]
    fn attack_fails_at_or_below_tolerance() {
        // M = 2 noise vectors; coalition of 2 sees full-rank A2 columns.
        let mut rng = FieldRng::seed_from(4);
        let a2 = mds_matrix::<P25>(2, 5, &mut rng);
        let coalition = a2.submatrix(&[0, 1], &[1, 3]);
        let obs = vec![rng.uniform_vec::<P25>(10), rng.uniform_vec::<P25>(10)];
        let outcome = noise_cancellation_attack(&coalition, &obs);
        assert!(!outcome.is_breach());
    }

    #[test]
    fn attack_succeeds_beyond_tolerance() {
        // Coalition of 3 > M=2: noise cancellable.
        let mut rng = FieldRng::seed_from(5);
        let a2 = mds_matrix::<P25>(2, 5, &mut rng);
        let coalition = a2.submatrix(&[0, 1], &[0, 2, 4]);
        let obs = vec![
            rng.uniform_vec::<P25>(10),
            rng.uniform_vec::<P25>(10),
            rng.uniform_vec::<P25>(10),
        ];
        let outcome = noise_cancellation_attack(&coalition, &obs);
        assert!(outcome.is_breach());
    }

    #[test]
    fn recovered_combination_is_noise_free() {
        // Construct real encodings x̄ = X·A1 + R·A2 and verify the attack
        // output equals X·(A1·c) exactly (no noise residue).
        let mut rng = FieldRng::seed_from(6);
        let n = 8; // input dimension
        let k = 2; // inputs
        let m = 1; // noise vectors
        let s = k + m + 1; // one extra column so a coalition of m+1 < s exists
        let a1 = FieldMatrix::<P25>::random(k, s, &mut rng);
        let a2 = mds_matrix::<P25>(m, s, &mut rng);
        let x: Vec<Vec<F25>> = (0..k).map(|_| rng.uniform_vec::<P25>(n)).collect();
        let r: Vec<Vec<F25>> = (0..m).map(|_| rng.uniform_vec::<P25>(n)).collect();
        // x̄_j = Σ_i x_i A1[i][j] + Σ_t r_t A2[t][j]
        let encode = |j: usize| -> Vec<F25> {
            let mut out = vec![F25::ZERO; n];
            for (i, xi) in x.iter().enumerate() {
                for (o, &v) in out.iter_mut().zip(xi) {
                    *o += v * a1[(i, j)];
                }
            }
            for (t, rt) in r.iter().enumerate() {
                for (o, &v) in out.iter_mut().zip(rt) {
                    *o += v * a2[(t, j)];
                }
            }
            out
        };
        // Coalition of size m+1 = 2: workers 0 and 1.
        let coalition_cols = [0usize, 1];
        let a2_coal = a2.submatrix(&[0], &coalition_cols);
        let obs: Vec<Vec<F25>> = coalition_cols.iter().map(|&j| encode(j)).collect();
        let AttackOutcome::InputCombinationRecovered { coefficients, recovered } =
            noise_cancellation_attack(&a2_coal, &obs)
        else {
            panic!("attack should succeed for coalition > M");
        };
        // Expected: X·(A1_I·c)
        let mut expect = vec![F25::ZERO; n];
        for (i, xi) in x.iter().enumerate() {
            let mut coeff = F25::ZERO;
            for (ci, &j) in coalition_cols.iter().enumerate() {
                coeff += a1[(i, j)] * coefficients[ci];
            }
            for (e, &v) in expect.iter_mut().zip(xi) {
                *e += v * coeff;
            }
        }
        assert_eq!(recovered, expect);
    }
}
