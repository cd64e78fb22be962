//! Serial ≡ pooled equivalence of the persistent worker pool.
//!
//! The fan-out must be invisible in the results: the task-index →
//! output-range mapping (column-strip ranges for `A·B` and `Aᵀ·B`, row
//! ranges for `A·Bᵀ`) is fixed by the shape alone, so for every kernel
//! orientation and element type, running under the pool at any thread
//! cap must produce **bit-for-bit** the serial output — floats
//! included (no accumulation order ever crosses a partition boundary).
//! Property cases sweep three regimes:
//!
//! * degenerate shapes (`m/k/n ∈ {0, 1}` among them) that stay on the
//!   serial fallback regardless of the cap;
//! * shapes pushed above the `PAR_MAC_THRESHOLD` fan-out point so the
//!   pool genuinely partitions the output;
//! * `k > 2^14`, which crosses the `F25` u64-accumulator fold boundary
//!   *inside* each partition.
//!
//! Everything runs from a single `#[test]` because the thread cap is
//! process-global: the property functions are generated without
//! `#[test]` attributes and driven sequentially, ending with a
//! shutdown/re-init sweep that churns the cap up, down to serial, and
//! back while the pool keeps answering.

use dk_field::{FieldRng, P25, P61};
use dk_linalg::{matmul, matmul_a_bt, matmul_at_b, matvec, set_max_threads, Scalar};
use proptest::prelude::*;

/// Field generator with a sprinkling of zeros (exercises zero-skip).
fn field_gen<const P: u64>(seed: u64) -> impl FnMut() -> dk_field::Fp<P> {
    let mut rng = FieldRng::seed_from(seed);
    move || {
        let v = rng.uniform::<P>();
        if v.value().is_multiple_of(7) {
            dk_field::Fp::ZERO
        } else {
            v
        }
    }
}

/// Finite float generator (integers scaled down), also with zeros.
fn float_gen(seed: u64) -> impl FnMut() -> f32 {
    let mut rng = FieldRng::seed_from(seed);
    move || {
        let v = rng.uniform::<P25>().value();
        if v.is_multiple_of(7) {
            0.0
        } else {
            (v % 2001) as f32 * 0.125 - 125.0
        }
    }
}

/// All three matmul orientations plus matvec on one operand set.
#[allow(clippy::too_many_arguments)]
fn outputs<T: Scalar>(
    a: &[T],
    b: &[T],
    a_t: &[T],
    b_t: &[T],
    x: &[T],
    m: usize,
    k: usize,
    n: usize,
) -> [Vec<T>; 4] {
    [
        matmul(a, b, m, k, n),
        matmul_at_b(a_t, b, m, k, n),
        matmul_a_bt(a, b_t, m, k, n),
        matvec(a, x, m, k),
    ]
}

/// Computes every kernel serially, then again under `threads` pool
/// lanes, and demands bit-identity.
fn assert_pooled_matches_serial<T: Scalar>(
    mut gen: impl FnMut() -> T,
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    let a: Vec<T> = (0..m * k).map(|_| gen()).collect();
    let b: Vec<T> = (0..k * n).map(|_| gen()).collect();
    let a_t: Vec<T> = (0..k * m).map(|_| gen()).collect();
    let b_t: Vec<T> = (0..n * k).map(|_| gen()).collect();
    let x: Vec<T> = (0..k).map(|_| gen()).collect();
    set_max_threads(1);
    let serial = outputs(&a, &b, &a_t, &b_t, &x, m, k, n);
    set_max_threads(threads);
    assert_eq!(
        outputs(&a, &b, &a_t, &b_t, &x, m, k, n),
        serial,
        "pooled ({threads} threads) diverged from serial at {m}x{k}x{n}"
    );
}

/// One property case across all three element types.
fn check_all_types(seed: u64, m: usize, k: usize, n: usize, threads: usize) {
    assert_pooled_matches_serial(field_gen::<P25>(seed), m, k, n, threads);
    assert_pooled_matches_serial(field_gen::<P61>(seed ^ 0x5EED), m, k, n, threads);
    assert_pooled_matches_serial(float_gen(seed ^ 0xF10A7), m, k, n, threads);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Degenerate and small shapes: the serial fallback must hold its
    // edges (empty outputs, single rows/columns) at any cap.
    fn pooled_matches_serial_small(
        seed in any::<u64>(),
        m in 0usize..4,
        k in 0usize..24,
        n in 0usize..4,
        threads in 2usize..9,
    ) {
        check_all_types(seed, m, k, n, threads);
    }

    // Shapes forced over PAR_MAC_THRESHOLD: the pool genuinely fans
    // out, with enough rows — and, past n = 16, enough column strips —
    // that several lanes own a partition.
    fn pooled_matches_serial_threaded(
        seed in any::<u64>(),
        m in 8usize..33,
        n in 8usize..100,
        extra in 1usize..64,
        threads in 2usize..9,
    ) {
        let k = dk_linalg::PAR_MAC_THRESHOLD / (m * n) + extra;
        check_all_types(seed, m, k, n, threads);
    }

    // k past the F25 fold boundary (2^14 unreduced MACs per u64
    // accumulator), sized so the fan-out still engages (n past one
    // strip for the packed-panel products): each lane must reduce
    // exactly where the serial path does.
    fn pooled_matches_serial_fold_boundary(
        seed in any::<u64>(),
        m in 4usize..7,
        n in 4usize..40,
        extra in 1usize..128,
        threads in 2usize..9,
    ) {
        let k = (1usize << 14) + extra;
        check_all_types(seed, m, k, n, threads);
    }
}

#[test]
fn pool_is_invisible_and_survives_cap_churn() {
    pooled_matches_serial_small();
    pooled_matches_serial_threaded();
    pooled_matches_serial_fold_boundary();

    // Shutdown/re-init sweep: drop to serial, grow past the physical
    // core count, shrink again — the grow-only pool must keep serving
    // identical results through every transition (idle workers park;
    // a lowered cap just narrows the fan-out).
    let (m, k, n) = (24usize, 512, 24); // 294912 MACs: above the fan-out point
    let mut gen = field_gen::<P25>(0xCAB1E);
    let a: Vec<_> = (0..m * k).map(|_| gen()).collect();
    let b: Vec<_> = (0..k * n).map(|_| gen()).collect();
    set_max_threads(1);
    let want = matmul(&a, &b, m, k, n);
    for cap in [4, 1, 2, 16, 3, 1, 8, 4] {
        set_max_threads(cap);
        assert_eq!(matmul(&a, &b, m, k, n), want, "cap {cap} diverged after churn");
    }
    set_max_threads(0);
}
