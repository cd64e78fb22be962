//! Edge-case tests for the field scalar and matrix code: the boundary
//! elements `0`, `1`, `p−1` and singular-matrix handling. These pin
//! down behavior the proptest suites only hit probabilistically.

use dk_field::{F25, FieldMatrix, FieldRng, Fp, P25};

// ---------------------------------------------------------------------
// Scalar inverse edges
// ---------------------------------------------------------------------

#[test]
fn zero_has_no_inverse() {
    assert_eq!(F25::ZERO.inv(), None);
}

#[test]
fn one_is_self_inverse() {
    assert_eq!(F25::ONE.inv(), Some(F25::ONE));
}

#[test]
fn p_minus_one_is_self_inverse() {
    // p−1 ≡ −1, and (−1)·(−1) = 1, so it must be its own inverse.
    let top = F25::new(P25 - 1);
    assert_eq!(top.inv(), Some(top));
    assert_eq!(top * top, F25::ONE);
}

#[test]
fn batch_invert_matches_inv_on_edge_values() {
    let mut xs = vec![F25::ONE, F25::new(P25 - 1), F25::new(2), F25::new(12345)];
    let expect: Vec<F25> = xs.iter().map(|x| x.inv().unwrap()).collect();
    F25::batch_invert(&mut xs);
    assert_eq!(xs, expect);
}

#[test]
#[should_panic(expected = "zero element")]
fn batch_invert_rejects_zero() {
    let mut xs = vec![F25::ONE, F25::ZERO, F25::new(2)];
    F25::batch_invert(&mut xs);
}

// ---------------------------------------------------------------------
// Negation edges
// ---------------------------------------------------------------------

#[test]
fn negation_of_zero_is_zero() {
    assert_eq!(-F25::ZERO, F25::ZERO);
    assert_eq!((-F25::ZERO).value(), 0, "−0 must be canonical 0, not p");
}

#[test]
fn negation_of_one_is_p_minus_one() {
    assert_eq!(-F25::ONE, F25::new(P25 - 1));
}

#[test]
fn negation_of_p_minus_one_is_one() {
    assert_eq!(-F25::new(P25 - 1), F25::ONE);
}

#[test]
fn negation_is_involutive_on_edges() {
    for v in [0u64, 1, 2, P25 / 2, P25 - 2, P25 - 1] {
        let x = F25::new(v);
        assert_eq!(-(-x), x, "v={v}");
        assert_eq!(x + (-x), F25::ZERO, "v={v}");
    }
}

#[test]
fn centered_lift_edges() {
    assert_eq!(F25::ZERO.to_centered_i64(), 0);
    assert_eq!(F25::new(P25 - 1).to_centered_i64(), -1);
    assert_eq!(F25::from_i64(-1).value(), P25 - 1);
    let half = (P25 / 2) as i64;
    assert_eq!(F25::from_i64(half).to_centered_i64(), half);
    assert_eq!(F25::from_i64(-half).to_centered_i64(), -half);
}

// ---------------------------------------------------------------------
// Gauss–Jordan inversion on singular inputs: must report failure via
// `None`, never panic or return garbage.
// ---------------------------------------------------------------------

#[test]
fn zero_matrix_is_singular() {
    for n in 1..=5 {
        let z = FieldMatrix::<P25>::zeros(n, n);
        assert_eq!(z.inverse(), None, "n={n}");
        assert_eq!(z.rank(), 0, "n={n}");
    }
}

#[test]
fn duplicate_row_matrix_is_singular() {
    let mut rng = FieldRng::seed_from(11);
    for n in 2..=6 {
        let mut m = FieldMatrix::<P25>::random(n, n, &mut rng);
        // Overwrite the last row with a copy of the first.
        for c in 0..n {
            m[(n - 1, c)] = m[(0, c)];
        }
        assert_eq!(m.inverse(), None, "n={n}");
        assert!(m.rank() < n, "n={n}");
    }
}

#[test]
fn scaled_row_matrix_is_singular() {
    // A row that is a nonzero scalar multiple of another (not merely
    // equal) must also be caught.
    let mut rng = FieldRng::seed_from(12);
    let n = 4;
    let mut m = FieldMatrix::<P25>::random(n, n, &mut rng);
    let s = rng.uniform_nonzero::<P25>();
    for c in 0..n {
        m[(2, c)] = m[(0, c)] * s;
    }
    assert_eq!(m.inverse(), None);
}

#[test]
fn rank_one_outer_product_is_singular() {
    let mut rng = FieldRng::seed_from(13);
    let n = 5;
    let u: Vec<Fp<P25>> = (0..n).map(|_| rng.uniform_nonzero()).collect();
    let v: Vec<Fp<P25>> = (0..n).map(|_| rng.uniform_nonzero()).collect();
    let m = FieldMatrix::<P25>::from_fn(n, n, |r, c| u[r] * v[c]);
    assert_eq!(m.rank(), 1);
    assert_eq!(m.inverse(), None);
}

#[test]
fn singular_detection_does_not_corrupt_nearby_invertible_path() {
    // Regression guard: after a failed inversion, the same code path
    // must still invert a perturbed (invertible) matrix correctly.
    let mut rng = FieldRng::seed_from(14);
    let n = 4;
    let mut m = FieldMatrix::<P25>::random(n, n, &mut rng);
    for c in 0..n {
        m[(1, c)] = m[(0, c)];
    }
    assert_eq!(m.inverse(), None);
    // Perturb the duplicated row with fresh randomness until invertible.
    loop {
        for c in 0..n {
            m[(1, c)] = rng.uniform();
        }
        if let Some(inv) = m.inverse() {
            assert_eq!(&m * &inv, FieldMatrix::identity(n));
            break;
        }
    }
}

#[test]
fn one_by_one_zero_is_singular_and_one_by_one_unit_inverts() {
    let z = FieldMatrix::<P25>::zeros(1, 1);
    assert_eq!(z.inverse(), None);
    let mut u = FieldMatrix::<P25>::zeros(1, 1);
    u[(0, 0)] = F25::new(7);
    let inv = u.inverse().expect("nonzero 1x1 is invertible");
    assert_eq!(inv[(0, 0)], F25::new(7).inv().unwrap());
}
