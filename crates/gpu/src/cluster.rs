//! A cluster of `K'` workers and the dispatch logic.

use crate::behavior::Behavior;
use crate::job::LinearJob;
use crate::worker::{GpuWorker, WorkerId};
use dk_field::F25;
use dk_linalg::{Tensor, Workspace};

/// A fleet of simulated accelerators.
///
/// DarKnight requires `K' >= K + M + 1` workers for a virtual batch of
/// `K`, collusion tolerance `M` and one integrity-check equation (§4.5
/// summary). The cluster enforces nothing itself — sizing is checked by
/// the `dk-core` session — it just executes.
#[derive(Debug, Clone)]
pub struct GpuCluster {
    workers: Vec<GpuWorker>,
    /// Encodings the workers released, and the emptied vectors stores
    /// arrived in, until [`crate::GpuExec::reclaim_stored`] hands them
    /// back.
    released: Vec<Tensor<F25>>,
    spent: Vec<Vec<Tensor<F25>>>,
}

impl GpuCluster {
    /// Creates `n` honest workers.
    pub fn honest(n: usize, seed: u64) -> Self {
        Self::with_behaviors(&vec![Behavior::Honest; n], seed)
    }

    /// Creates workers with per-worker behaviours.
    pub fn with_behaviors(behaviors: &[Behavior], seed: u64) -> Self {
        let workers = behaviors
            .iter()
            .enumerate()
            .map(|(i, &b)| GpuWorker::new(WorkerId(i), b, seed))
            .collect();
        Self::from_workers(workers)
    }

    /// Reassembles a cluster from workers previously moved into a
    /// dispatcher (state intact).
    pub(crate) fn from_workers(workers: Vec<GpuWorker>) -> Self {
        Self { workers, released: Vec::new(), spent: Vec::new() }
    }

    /// Attaches a modeled accelerator latency profile to every worker
    /// (see [`crate::LatencyModel`]); `None` removes it. Used by the
    /// pipeline experiments so wall-clock comparisons reflect device
    /// occupancy rather than simulation speed.
    pub fn with_latency(mut self, latency: Option<crate::LatencyModel>) -> Self {
        for w in &mut self.workers {
            w.set_latency(latency);
        }
        self
    }

    /// Moves the fleet into a [`crate::GpuDispatcher`]: one persistent
    /// OS thread per worker behind a `queue_depth`-bounded inbox. This
    /// is how the `K'` workers run concurrently (as the real deployment
    /// drives its GPUs) — the cluster's own [`crate::GpuExec`] impl runs
    /// them one after another. [`crate::GpuDispatcher::join`] returns
    /// the fleet with all accumulated state.
    ///
    /// # Panics
    ///
    /// Panics if `queue_depth == 0`.
    pub fn into_dispatcher(self, queue_depth: usize) -> crate::GpuDispatcher {
        crate::GpuDispatcher::spawn(self.workers, queue_depth)
    }

    /// Creates a fresh cluster over the *same fleet* — identical worker
    /// count and per-worker behaviours — but with reseeded worker RNGs
    /// and no accumulated state (stored encodings, observations,
    /// counters). Serving pools use this so every session thread drives
    /// its own independent view of one shared deployment: behaviours
    /// (including adversarial ones) follow the fleet, while execution
    /// state stays per-session. Use [`Clone`] instead when the
    /// accumulated state should travel too.
    pub fn fork(&self, seed: u64) -> Self {
        let behaviors: Vec<Behavior> = self.workers.iter().map(|w| w.behavior()).collect();
        let mut fork = Self::with_behaviors(&behaviors, seed);
        for (w, old) in fork.workers.iter_mut().zip(&self.workers) {
            w.set_latency(old.latency());
        }
        fork
    }

    /// Number of workers (`K'`).
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// True if the cluster has no workers.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Immutable access to a worker.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn worker(&self, id: WorkerId) -> &GpuWorker {
        &self.workers[id.0]
    }

    /// Mutable access to a worker.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn worker_mut(&mut self, id: WorkerId) -> &mut GpuWorker {
        &mut self.workers[id.0]
    }

    /// All workers.
    pub fn workers(&self) -> &[GpuWorker] {
        &self.workers
    }

    /// Clears all stored encodings (virtual batch boundary).
    pub fn clear_encodings(&mut self) {
        for w in &mut self.workers {
            w.clear_encodings();
        }
    }

    /// Total MACs executed across all workers.
    pub fn total_macs(&self) -> u64 {
        self.workers.iter().map(|w| w.macs_executed()).sum()
    }
}

/// The blocking reference backend: one virtual batch in flight, jobs run
/// inline and to completion inside the call. A [`Behavior::Crash`] worker
/// whose honest-job budget is spent is reported as
/// [`GpuError::WorkerLost`](crate::GpuError::WorkerLost) — the blocking
/// backend's rendition of a dead accelerator.
impl crate::GpuExec for GpuCluster {
    fn num_workers(&self) -> usize {
        self.len()
    }

    fn execute(
        &mut self,
        tag: u64,
        jobs: &[LinearJob],
    ) -> Result<Vec<crate::WorkerResult>, crate::GpuError> {
        let mut out = Vec::with_capacity(jobs.len());
        self.execute_round_into(tag, jobs, &[], &[], &mut out)?;
        Ok(out)
    }

    fn execute_into(
        &mut self,
        tag: u64,
        jobs: &[LinearJob],
        out: &mut Vec<crate::WorkerResult>,
    ) -> Result<(), crate::GpuError> {
        self.execute_round_into(tag, jobs, &[], &[], out)
    }

    /// The one native dispatch: slots run serially, in round order.
    fn execute_round_into(
        &mut self,
        _tag: u64,
        jobs: &[LinearJob],
        withheld: &[WorkerId],
        extra: &[(WorkerId, &LinearJob)],
        out: &mut Vec<crate::WorkerResult>,
    ) -> Result<(), crate::GpuError> {
        if jobs.len() > self.workers.len() {
            return Err(crate::GpuError::Oversubscribed {
                jobs: jobs.len(),
                workers: self.workers.len(),
            });
        }
        for s in 0..jobs.len() + extra.len() {
            out.push(match crate::exec::round_slot(jobs, withheld, extra, s) {
                (w, Some(job)) => self.execute_on(w, job),
                (worker, None) => Err(crate::GpuError::Withheld { worker }),
            });
        }
        Ok(())
    }

    fn recycle_outputs(&mut self, outputs: &mut Vec<Tensor<F25>>) {
        // Worker `i` produced `outputs[i]`; hand each buffer back to the
        // workspace it was drawn from.
        for (i, t) in outputs.drain(..).enumerate() {
            if let Some(w) = self.workers.get_mut(i) {
                w.recycle_output(t);
            }
        }
    }

    fn recycle_output_of(&mut self, worker: WorkerId, output: Tensor<F25>) {
        if let Some(w) = self.workers.get_mut(worker.0) {
            w.recycle_output(output);
        }
    }

    fn execute_on(&mut self, id: WorkerId, job: &LinearJob) -> crate::WorkerResult {
        let w = &mut self.workers[id.0];
        if w.crash_pending() {
            return Err(crate::GpuError::lost(id, "worker crashed (simulated fail-stop)"));
        }
        w.try_execute(job)
    }

    fn store_encodings(&mut self, ctx_id: u64, encodings: Vec<Tensor<F25>>) {
        self.store_encodings_sparse(ctx_id, encodings, &[]);
    }

    fn store_encodings_sparse(
        &mut self,
        ctx_id: u64,
        mut encodings: Vec<Tensor<F25>>,
        withheld: &[WorkerId],
    ) {
        assert!(encodings.len() <= self.workers.len(), "more encodings than workers");
        for (w, e) in self.workers.iter_mut().zip(encodings.drain(..)) {
            if withheld.contains(&w.id()) {
                self.released.push(e);
            } else {
                w.store_encoding(ctx_id, e);
            }
        }
        self.spent.push(encodings);
    }

    fn release_contexts(&mut self, ctx_ids: &[u64]) {
        for w in &mut self.workers {
            self.released.extend(ctx_ids.iter().filter_map(|&c| w.take_encoding(c)));
        }
    }

    fn reclaim_stored(&mut self, into: &mut Workspace) {
        for t in self.released.drain(..) {
            into.give_tensor(t);
        }
        for v in self.spent.drain(..) {
            into.give(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpuError, GpuExec};
    use std::sync::Arc;

    fn dense_job(scale: u64) -> LinearJob {
        LinearJob::DenseForward {
            weights: Arc::new(Tensor::from_fn(&[2, 3], |i| F25::new(i as u64 + 1))),
            x: Tensor::from_fn(&[1, 3], move |i| F25::new((i as u64 + 1) * scale)),
        }
    }

    #[test]
    fn dispatch_in_worker_order() {
        let mut cluster = GpuCluster::honest(3, 1);
        let jobs: Vec<_> = (1..=3).map(dense_job).collect();
        let outs = cluster.execute(0, &jobs).unwrap();
        assert_eq!(outs.len(), 3);
        // Output scales linearly with the input scale.
        for k in 0..3 {
            assert_eq!(outs[k], Ok(jobs[k].execute()));
        }
    }

    #[test]
    fn mixed_behaviors() {
        let mut cluster = GpuCluster::with_behaviors(
            &[Behavior::Honest, Behavior::ZeroOutput, Behavior::Honest],
            3,
        );
        let jobs: Vec<_> = (1..=3).map(dense_job).collect();
        let outs = cluster.execute(0, &jobs).unwrap();
        assert_eq!(outs[0], Ok(jobs[0].execute()));
        assert!(outs[1].as_ref().unwrap().as_slice().iter().all(|v| v.is_zero()));
        assert_eq!(outs[2], Ok(jobs[2].execute()));
    }

    #[test]
    fn fork_preserves_fleet_but_not_state() {
        let mut cluster = GpuCluster::with_behaviors(
            &[Behavior::Honest, Behavior::Scale(3), Behavior::Honest],
            6,
        );
        let jobs: Vec<_> = (1..=3).map(dense_job).collect();
        let _ = cluster.execute(0, &jobs).unwrap();
        cluster.store_encodings(0, vec![Tensor::from_fn(&[1, 2], |i| F25::new(i as u64))]);

        let fork = cluster.fork(99);
        assert_eq!(fork.len(), cluster.len());
        for (a, b) in fork.workers().iter().zip(cluster.workers()) {
            assert_eq!(a.behavior(), b.behavior());
            assert_eq!(a.jobs_executed(), 0, "fork must start with fresh counters");
            assert!(a.observations().is_empty(), "fork must not inherit observations");
        }
        assert!(fork.worker(WorkerId(0)).stored_encoding(0).is_none());
        // A clone, by contrast, carries the accumulated state.
        let clone = cluster.clone();
        assert_eq!(clone.worker(WorkerId(0)).jobs_executed(), 1);
        assert_eq!(
            clone.worker(WorkerId(0)).stored_encoding(0),
            cluster.worker(WorkerId(0)).stored_encoding(0)
        );
    }

    #[test]
    fn too_many_jobs_is_a_typed_error() {
        let mut cluster = GpuCluster::honest(1, 4);
        let jobs: Vec<_> = (1..=2).map(dense_job).collect();
        let err = cluster.execute(0, &jobs).unwrap_err();
        assert_eq!(err, GpuError::Oversubscribed { jobs: 2, workers: 1 });
    }

    #[test]
    fn encoding_storage_per_worker() {
        let mut cluster = GpuCluster::honest(2, 5);
        let encs = vec![
            Tensor::from_fn(&[1, 2], |i| F25::new(i as u64)),
            Tensor::from_fn(&[1, 2], |i| F25::new(i as u64 + 10)),
        ];
        cluster.store_encodings(3, encs.clone());
        assert_eq!(cluster.worker(WorkerId(0)).stored_encoding(3), Some(&encs[0]));
        assert_eq!(cluster.worker(WorkerId(1)).stored_encoding(3), Some(&encs[1]));
        cluster.clear_encodings();
        assert!(cluster.worker(WorkerId(0)).stored_encoding(3).is_none());
    }
}
