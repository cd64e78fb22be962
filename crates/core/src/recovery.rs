//! Fault localization and recovery — an extension beyond the paper.
//!
//! §4.4 detects an integrity violation but leaves "corrective action,
//! such as executing on another GPU worker" out of scope. This module
//! and the session's routing implement it in two steps:
//!
//! 1. **First detection: full localization.** The redundant equation
//!    says *some* answer in the layer's result set is wrong, not whose.
//!    The TEE recomputes every worker's bilinear job itself (it can — it
//!    holds the quantized weights and the explicit job it dispatched),
//!    substitutes the correct results, and *convicts* each worker whose
//!    answer differed. That is `K+M+1` bilinear ops inside the TEE plus
//!    a second decode — roughly one SGX-only execution of the layer.
//! 2. **Steady state: one TEE job per convicted worker per layer.** A
//!    convicted worker is never sent anything again by that session
//!    (see [`dk_gpu::exec`]): the sparse dispatch skips it, the TEE runs
//!    just that one job, and the fused §4.4 check still covers the
//!    complete `K+M+1`-slot set on every layer — so a *second* worker
//!    that starts lying later is caught exactly as the first was. The
//!    check is neither skipped nor narrowed; only the known-bad answer
//!    is no longer asked for.
//!
//! So honest executions pay nothing, the layer on which a liar is
//! first caught pays `O(K')` once, and a fleet that keeps running with
//! a known liar pays `1/(K+M+1)` of an SGX-only layer per layer instead
//! of all of it. On the benchmark of record (`infer_repair`: mini-VGG,
//! K = 4, one liar) that moved the degraded fleet from 210 to 355
//! samples/s, where the same fleet with nobody lying does about 350.
//!
//! **Lying versus loss.** Only a worker contradicted by the TEE's own
//! recomputation is convicted. A worker that was lost or timed out is
//! quarantined but still offered work: its slot already costs one TEE
//! job per layer (a fault arrives instead of an answer, so there is
//! nothing to localize), and being offered work is what lets a
//! transport's redial re-admit it.
//!
//! **Privacy accounting.** Conviction only ever removes disclosure: a
//! convicted worker receives no further encodings, stored or in a job.
//! The TEE-computed slot uses the encoding the TEE made anyway, which
//! now never leaves it. The collusion bound `M` is untouched — every
//! other worker still sees exactly its own one encoding per layer (plus
//! one neighbour's in the backward duplicate check, as before).

use dk_field::F25;
use dk_gpu::{LinearJob, WorkerId};
use dk_linalg::{Tensor, Workspace};

/// Recomputes every job inside the TEE, compares with the worker
/// outputs, and repairs `outputs` in place. Returns which workers lied.
/// Scratch and recomputed outputs cycle through `ws`; each repaired
/// slot ends up holding a `ws` buffer (and the lie it replaced goes into
/// the pool), so the caller returns those slots to `ws`, not to the
/// worker.
///
/// `jobs[j]` must be the exact job dispatched to worker `j` (non-stored
/// variants only — the caller reconstructs stored-encoding jobs into
/// explicit ones before localization).
///
/// # Panics
///
/// Panics if `jobs.len() != outputs.len()` or a job is a `*Stored`
/// variant.
pub fn localize_and_repair(
    jobs: &[LinearJob],
    outputs: &mut [Tensor<F25>],
    ws: &mut Workspace,
) -> Vec<WorkerId> {
    assert_eq!(jobs.len(), outputs.len(), "one output per job");
    let mut liars = Vec::new();
    for (j, (job, out)) in jobs.iter().zip(outputs.iter_mut()).enumerate() {
        let mut expected = job.execute_ws(ws);
        if expected.as_slice() != out.as_slice() {
            liars.push(WorkerId(j));
            std::mem::swap(out, &mut expected);
        }
        ws.give_tensor(expected);
    }
    record_verdicts(jobs.len(), &liars);
    liars
}

/// Recovery verdict counters on the global registry. Cold path (runs
/// only after a detected violation), so the lazy handle lookup here is
/// fine; the `enabled` guard keeps the disabled cost to one load.
fn record_verdicts(jobs: usize, liars: &[WorkerId]) {
    if !dk_obs::enabled() {
        return;
    }
    use std::sync::OnceLock;
    static PASSES: OnceLock<dk_obs::Counter> = OnceLock::new();
    static RECOMPUTED: OnceLock<dk_obs::Counter> = OnceLock::new();
    static FAULTY: OnceLock<dk_obs::Counter> = OnceLock::new();
    static CLEARED: OnceLock<dk_obs::Counter> = OnceLock::new();
    PASSES.get_or_init(|| dk_obs::global().counter("dk_recovery_passes_total")).inc();
    RECOMPUTED
        .get_or_init(|| dk_obs::global().counter("dk_recovery_jobs_recomputed_total"))
        .add(jobs as u64);
    FAULTY
        .get_or_init(|| dk_obs::global().counter("dk_recovery_faulty_jobs_total"))
        .add(liars.len() as u64);
    CLEARED
        .get_or_init(|| dk_obs::global().counter("dk_recovery_cleared_jobs_total"))
        .add((jobs - liars.len()) as u64);
    for w in liars {
        dk_obs::fleet().worker(w.0).repaired(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_field::{FieldRng, P25};
    use std::sync::Arc;

    fn jobs_and_outputs(n: usize) -> (Vec<LinearJob>, Vec<Tensor<F25>>) {
        let mut rng = FieldRng::seed_from(5);
        let weights = Arc::new(Tensor::from_fn(&[4, 6], |i| F25::new(i as u64 + 1)));
        let jobs: Vec<LinearJob> = (0..n)
            .map(|_| LinearJob::DenseForward {
                weights: weights.clone(),
                x: Tensor::from_vec(&[1, 6], rng.uniform_vec::<P25>(6)),
            })
            .collect();
        let outputs: Vec<Tensor<F25>> = jobs.iter().map(|j| j.execute()).collect();
        (jobs, outputs)
    }

    #[test]
    fn honest_outputs_report_no_faults() {
        let (jobs, mut outputs) = jobs_and_outputs(4);
        assert!(localize_and_repair(&jobs, &mut outputs, &mut Workspace::new()).is_empty());
    }

    #[test]
    fn single_fault_located_and_repaired() {
        let (jobs, mut outputs) = jobs_and_outputs(4);
        let clean = outputs.clone();
        outputs[2].as_mut_slice()[1] += F25::ONE;
        let liars = localize_and_repair(&jobs, &mut outputs, &mut Workspace::new());
        assert_eq!(liars, vec![WorkerId(2)]);
        assert_eq!(outputs, clean, "repair must restore honest outputs");
    }

    #[test]
    fn multiple_faults_located() {
        let (jobs, mut outputs) = jobs_and_outputs(5);
        outputs[0].as_mut_slice()[0] += F25::new(7);
        outputs[4].as_mut_slice()[2] += F25::new(9);
        let liars = localize_and_repair(&jobs, &mut outputs, &mut Workspace::new());
        assert_eq!(liars, vec![WorkerId(0), WorkerId(4)]);
    }
}
