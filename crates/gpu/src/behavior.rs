//! Adversarial worker behaviours.
//!
//! The paper's threat model (§3) is a *dynamic malicious adversary*:
//! GPUs "may also inject faults in the computation to sabotage training
//! or inference". These behaviours model the fault classes DarKnight's
//! redundant-equation integrity check must detect.

use dk_field::{F25, FieldRng};
use dk_linalg::Tensor;

/// How a worker treats the results it returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behavior {
    /// Faithful execution.
    Honest,
    /// Adds a uniformly random field element to every output element —
    /// a gross corruption.
    AdditiveNoise,
    /// Corrupts exactly one output element (the hardest fault to catch
    /// with coarse checks).
    SingleElement,
    /// Returns all zeros (a lazy/free-riding worker).
    ZeroOutput,
    /// Scales every element by a constant (a "almost right" adversary,
    /// defeats sanity checks that only look at magnitudes of change).
    Scale(u64),
    /// Returns stale results, modelling a worker that skips the fresh
    /// data: its output is all zeros, what a bilinear op yields on a
    /// zeroed input, and the job's MACs are counted as if it had run.
    StaleInput,
    /// Executes `after` jobs honestly, then dies: the execution backends
    /// interpret this as worker loss (a dispatcher thread exits, a
    /// blocking cluster reports [`crate::GpuError::WorkerLost`]) — the
    /// fail-stop fault class, as opposed to the Byzantine ones above.
    Crash {
        /// Jobs executed honestly before the simulated death.
        after: u64,
    },
}

impl Behavior {
    /// True for [`Behavior::Honest`].
    pub fn is_honest(self) -> bool {
        self == Behavior::Honest
    }

    /// Applies the behaviour's corruption to an honestly-computed
    /// output. `StaleInput` acts like `ZeroOutput` (a zeroed input to a
    /// bilinear op produces a zero output). `Crash` never corrupts — up
    /// to the moment the backend declares the worker dead, its answers
    /// are honest.
    pub fn corrupt(self, mut honest: Tensor<F25>, rng: &mut FieldRng) -> Tensor<F25> {
        match self {
            Behavior::Honest | Behavior::Crash { .. } => honest,
            Behavior::AdditiveNoise => {
                for v in honest.as_mut_slice() {
                    *v += rng.uniform::<{ dk_field::P25 }>();
                }
                honest
            }
            Behavior::SingleElement => {
                if !honest.is_empty() {
                    let idx = rng.index(honest.len());
                    let bump = rng.uniform_nonzero::<{ dk_field::P25 }>();
                    let s = honest.as_mut_slice();
                    s[idx] += bump;
                }
                honest
            }
            Behavior::ZeroOutput | Behavior::StaleInput => {
                for v in honest.as_mut_slice() {
                    *v = F25::ZERO;
                }
                honest
            }
            Behavior::Scale(k) => {
                let k = F25::new(k);
                for v in honest.as_mut_slice() {
                    *v *= k;
                }
                honest
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tensor<F25> {
        Tensor::from_fn(&[8], |i| F25::new(i as u64 + 1))
    }

    #[test]
    fn honest_is_identity() {
        let mut rng = FieldRng::seed_from(1);
        let t = sample();
        assert_eq!(Behavior::Honest.corrupt(t.clone(), &mut rng), t);
    }

    #[test]
    fn additive_changes_everything_whp() {
        let mut rng = FieldRng::seed_from(2);
        let t = sample();
        let c = Behavior::AdditiveNoise.corrupt(t.clone(), &mut rng);
        let changed = t.as_slice().iter().zip(c.as_slice()).filter(|(a, b)| a != b).count();
        assert!(changed >= 7, "changed={changed}");
    }

    #[test]
    fn single_element_changes_exactly_one() {
        let mut rng = FieldRng::seed_from(3);
        let t = sample();
        let c = Behavior::SingleElement.corrupt(t.clone(), &mut rng);
        let changed = t.as_slice().iter().zip(c.as_slice()).filter(|(a, b)| a != b).count();
        assert_eq!(changed, 1);
    }

    #[test]
    fn zero_output_zeroes() {
        let mut rng = FieldRng::seed_from(4);
        let c = Behavior::ZeroOutput.corrupt(sample(), &mut rng);
        assert!(c.as_slice().iter().all(|v| v.is_zero()));
    }

    #[test]
    fn scale_multiplies() {
        let mut rng = FieldRng::seed_from(5);
        let c = Behavior::Scale(3).corrupt(sample(), &mut rng);
        assert_eq!(c.as_slice()[1], F25::new(6));
    }

    #[test]
    fn honesty_predicate() {
        assert!(Behavior::Honest.is_honest());
        assert!(!Behavior::Scale(2).is_honest());
    }
}
