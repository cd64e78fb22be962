//! Seeded inputs. Everything the program sees is generated here, up
//! front, as a pure function of `--seed`; the program receives tensors
//! and a schedule, never the seed.

use dk_field::{derive_seed, FieldRng};
use dk_linalg::Tensor;

/// Domain labels, so the streams of one seed never overlap.
const DOMAIN_IMAGES: u64 = 0x494d_4753;
const DOMAIN_ARRIVALS: u64 = 0x4152_5256;

/// `count` tensors of `shape`, entries uniform in `[-1, 1)`: the range
/// the synthetic dataset clamps to, so quantization stays conditioned.
pub fn tensors(seed: u64, count: usize, shape: &[usize]) -> Vec<Tensor<f32>> {
    let mut rng = FieldRng::seed_from(derive_seed(seed, DOMAIN_IMAGES));
    (0..count)
        .map(|_| Tensor::from_fn(shape, |_| rng.uniform_f32(-1.0, 1.0)))
        .collect()
}

/// The schedule is stratified in blocks of this many seconds. Measured
/// segments are whole multiples of it.
pub const SCHEDULE_BLOCK_S: f64 = 0.5;

/// Due times, in seconds from the schedule's start, of Poisson arrivals
/// at `rate_per_s` for `horizon_s` seconds, conditioned on the count:
/// every block of [`SCHEDULE_BLOCK_S`] holds exactly its share of
/// arrivals, at uniformly random instants. Locally that is a Poisson
/// process (a Poisson process given its count is a uniform sample), but
/// every seed and every segment is offered the same load, so the seed
/// moves the gaps and not the rate.
pub fn poisson_schedule(seed: u64, rate_per_s: usize, horizon_s: usize) -> Vec<f64> {
    let mut rng = FieldRng::seed_from(derive_seed(seed, DOMAIN_ARRIVALS));
    let per_block = (rate_per_s as f64 * SCHEDULE_BLOCK_S) as usize;
    let blocks = (horizon_s as f64 / SCHEDULE_BLOCK_S) as usize;
    let mut due = Vec::with_capacity(per_block * blocks);
    for block in 0..blocks {
        let from = due.len();
        // 53 uniform bits in [0, 1).
        due.extend((0..per_block).map(|_| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            (block as f64 + u) * SCHEDULE_BLOCK_S
        }));
        due[from..].sort_by(f64::total_cmp);
    }
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(11, 200, 10);
        assert_eq!(a, poisson_schedule(11, 200, 10));
        assert_ne!(a, poisson_schedule(12, 200, 10));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        for block in 0..20 {
            let n = a
                .iter()
                .filter(|&&t| (t / SCHEDULE_BLOCK_S).floor() == block as f64)
                .count();
            assert_eq!(n, 100, "block {block}");
        }
        // Gaps look exponential: their median is near ln 2 / rate.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let median = crate::stats::median(&gaps).unwrap();
        assert!((0.0028..0.0042).contains(&median), "median gap {median}");
    }

    #[test]
    fn the_inputs_are_a_pure_function_of_the_seed() {
        let a = tensors(11, 3, &[2, 4]);
        assert_eq!(a, tensors(11, 3, &[2, 4]));
        assert_ne!(a, tensors(12, 3, &[2, 4]));
        assert!(a
            .iter()
            .flat_map(|t| t.as_slice())
            .all(|v| (-1.0..1.0).contains(v)));
        assert_ne!(a[0], a[1]);
    }
}
