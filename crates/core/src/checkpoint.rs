//! Sealed, deterministic training checkpoints.
//!
//! The companion training paper assumes long multi-epoch jobs, which
//! demands restartability: a run killed at a batch boundary must resume
//! and land **bit-identical** to an uninterrupted run. Determinism by
//! derivation (every per-batch mask, scheme and spot check is a pure
//! function of `(seed, batch#, layer)` via `derive_seed`) makes that
//! possible with a tiny cursor: a checkpoint only needs the mutable
//! training state — weights, optimizer velocity, BatchNorm running
//! statistics — plus the virtual-batch cursor and the session seed. The
//! entire RNG future is re-derived from those two integers.
//!
//! Checkpoints travel as [`dk_tee::crypto::SealedBlob`]s: the enclave
//! seals (encrypts + MACs) the serialized state before it is evicted to
//! untrusted storage, and unseals it on resume. The seal key is derived
//! from the enclave *code identity*, so a freshly started process with
//! the same enclave build can unseal a dead process's checkpoint —
//! exactly the SGX sealing model.

use crate::config::DarknightConfig;
use crate::error::DarknightError;
use dk_nn::layers::Layer;
use dk_nn::optim::Sgd;
use dk_nn::Sequential;
use dk_linalg::Tensor;

/// Format magic + version, leading every serialized checkpoint.
const MAGIC: u64 = 0x444B_434B_5054_0001; // "DKCKPT" v1

/// The complete mutable state of a large-batch training run at a step
/// boundary. Everything else (masks, schemes, spot checks, noise) is
/// re-derived from `seed` and `next_batch`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingCheckpoint {
    /// Session master seed — resume must re-create the identical
    /// derived-stream universe.
    pub seed: u64,
    /// Virtual batch size `K` (config validation on resume).
    pub k: u32,
    /// Collusion tolerance `M`.
    pub m: u32,
    /// Whether the redundant integrity equation was on.
    pub integrity: bool,
    /// Whether TEE-side recovery was on.
    pub recovery: bool,
    /// Quantization fractional bits `l`.
    pub frac_bits: u32,
    /// Virtual batches consumed so far — the next pass begins batch
    /// `next_batch + 1`.
    pub next_batch: u64,
    /// Large-batch steps completed so far.
    pub steps: u64,
    /// All model parameters, flattened in visit order.
    pub params: Vec<f32>,
    /// Per-BatchNorm-layer `(running_mean, running_var)` in execution
    /// order (leaf traversal, descending residual blocks).
    pub bn_stats: Vec<(Vec<f32>, Vec<f32>)>,
    /// Optimizer learning rate at capture time (schedules resume too).
    pub lr: f32,
    /// Optimizer momentum coefficient (validated on resume).
    pub momentum: f32,
    /// Optimizer weight decay (validated on resume).
    pub weight_decay: f32,
    /// Momentum velocity buffers, flattened per parameter in visit
    /// order. May hold fewer entries than there are parameters if the
    /// optimizer had not yet touched them all.
    pub velocity: Vec<Vec<f32>>,
}

impl TrainingCheckpoint {
    /// Captures the training state at a step boundary.
    pub fn capture(
        cfg: &DarknightConfig,
        next_batch: u64,
        steps: u64,
        model: &mut Sequential,
        sgd: &Sgd,
    ) -> Self {
        let mut params = Vec::with_capacity(model.num_params());
        model.visit_params(&mut |p, _| params.extend_from_slice(p.as_slice()));
        let mut bn_stats = Vec::new();
        model.visit_leaf_layers_mut(&mut |l| {
            if let Layer::BatchNorm2d(bn) = l {
                let (mean, var) = bn.running_stats();
                bn_stats.push((mean.to_vec(), var.to_vec()));
            }
        });
        Self {
            seed: cfg.seed(),
            k: cfg.k() as u32,
            m: cfg.m() as u32,
            integrity: cfg.integrity(),
            recovery: cfg.recovery(),
            frac_bits: cfg.quant().frac_bits(),
            next_batch,
            steps,
            params,
            bn_stats,
            lr: sgd.learning_rate(),
            momentum: sgd.momentum(),
            weight_decay: sgd.weight_decay(),
            velocity: sgd.velocity().iter().map(|t| t.as_slice().to_vec()).collect(),
        }
    }

    /// Rejects a checkpoint captured under a different session
    /// configuration — resuming it would silently change every derived
    /// mask stream.
    ///
    /// # Errors
    ///
    /// [`DarknightError::Checkpoint`] naming the mismatched field.
    pub fn validate_config(&self, cfg: &DarknightConfig) -> Result<(), DarknightError> {
        let fail = |reason| Err(DarknightError::Checkpoint { reason });
        if self.seed != cfg.seed() {
            return fail("session seed differs");
        }
        if self.k != cfg.k() as u32 || self.m != cfg.m() as u32 {
            return fail("K/M configuration differs");
        }
        if self.integrity != cfg.integrity() || self.recovery != cfg.recovery() {
            return fail("integrity/recovery configuration differs");
        }
        if self.frac_bits != cfg.quant().frac_bits() {
            return fail("quantization configuration differs");
        }
        Ok(())
    }

    /// Installs the captured state into `model` and `sgd`.
    ///
    /// # Errors
    ///
    /// [`DarknightError::Checkpoint`] if the model's parameter count,
    /// BatchNorm layout, or the optimizer's hyperparameters do not
    /// match the captured run.
    pub fn install(&self, model: &mut Sequential, sgd: &mut Sgd) -> Result<(), DarknightError> {
        if model.num_params() != self.params.len() {
            return Err(DarknightError::Checkpoint { reason: "model parameter count differs" });
        }
        if sgd.momentum().to_bits() != self.momentum.to_bits()
            || sgd.weight_decay().to_bits() != self.weight_decay.to_bits()
        {
            return Err(DarknightError::Checkpoint { reason: "optimizer hyperparameters differ" });
        }
        // Weights + velocity, keyed by the same visit order capture used.
        let mut off = 0usize;
        let mut velocity: Vec<Tensor<f32>> = Vec::with_capacity(self.velocity.len());
        let mut shape_err = false;
        let mut idx = 0usize;
        model.visit_params(&mut |p, _| {
            let n = p.as_slice().len();
            p.as_mut_slice().copy_from_slice(&self.params[off..off + n]);
            off += n;
            if idx < self.velocity.len() {
                if self.velocity[idx].len() == n {
                    velocity.push(Tensor::from_vec(p.shape(), self.velocity[idx].clone()));
                } else {
                    shape_err = true;
                }
            }
            idx += 1;
        });
        if shape_err || self.velocity.len() > idx {
            return Err(DarknightError::Checkpoint { reason: "velocity layout differs" });
        }
        // BatchNorm running statistics, in the same leaf order.
        let mut bi = 0usize;
        let mut bn_err = false;
        model.visit_leaf_layers_mut(&mut |l| {
            if let Layer::BatchNorm2d(bn) = l {
                match self.bn_stats.get(bi) {
                    Some((mean, var)) if mean.len() == bn.channels() => {
                        bn.set_running_stats(mean, var);
                    }
                    _ => bn_err = true,
                }
                bi += 1;
            }
        });
        if bn_err || bi != self.bn_stats.len() {
            return Err(DarknightError::Checkpoint { reason: "BatchNorm layout differs" });
        }
        sgd.set_learning_rate(self.lr);
        sgd.set_velocity(velocity);
        Ok(())
    }

    /// Serializes to the sealed-payload byte format (little-endian,
    /// versioned by [`MAGIC`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.params.len() * 4);
        put_u64(&mut out, MAGIC);
        put_u64(&mut out, self.seed);
        put_u32(&mut out, self.k);
        put_u32(&mut out, self.m);
        out.push(u8::from(self.integrity) | (u8::from(self.recovery) << 1));
        put_u32(&mut out, self.frac_bits);
        put_u64(&mut out, self.next_batch);
        put_u64(&mut out, self.steps);
        put_f32s(&mut out, &self.params);
        put_u64(&mut out, self.bn_stats.len() as u64);
        for (mean, var) in &self.bn_stats {
            put_f32s(&mut out, mean);
            put_f32s(&mut out, var);
        }
        put_u32(&mut out, self.lr.to_bits());
        put_u32(&mut out, self.momentum.to_bits());
        put_u32(&mut out, self.weight_decay.to_bits());
        put_u64(&mut out, self.velocity.len() as u64);
        for v in &self.velocity {
            put_f32s(&mut out, v);
        }
        out
    }

    /// Parses a serialized checkpoint.
    ///
    /// # Errors
    ///
    /// [`DarknightError::Checkpoint`] on truncation, trailing garbage,
    /// or a format-version mismatch. (Bit flips inside the sealed blob
    /// never reach this code — the enclave's MAC check rejects them
    /// during unsealing.)
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DarknightError> {
        let mut cur = Cursor { bytes, pos: 0 };
        if cur.u64()? != MAGIC {
            return Err(DarknightError::Checkpoint { reason: "bad magic/version" });
        }
        let seed = cur.u64()?;
        let k = cur.u32()?;
        let m = cur.u32()?;
        let flags = cur.u8()?;
        let frac_bits = cur.u32()?;
        let next_batch = cur.u64()?;
        let steps = cur.u64()?;
        let params = cur.f32s()?;
        // A count reserves no more entries than the bytes left could
        // encode: a `(mean, var)` pair takes at least two 8-byte
        // lengths, a velocity row one.
        let bn_count = cur.u64()? as usize;
        let mut bn_stats = Vec::with_capacity(bn_count.min(cur.remaining() / 16));
        for _ in 0..bn_count {
            let mean = cur.f32s()?;
            let var = cur.f32s()?;
            bn_stats.push((mean, var));
        }
        let lr = f32::from_bits(cur.u32()?);
        let momentum = f32::from_bits(cur.u32()?);
        let weight_decay = f32::from_bits(cur.u32()?);
        let v_count = cur.u64()? as usize;
        let mut velocity = Vec::with_capacity(v_count.min(cur.remaining() / 8));
        for _ in 0..v_count {
            velocity.push(cur.f32s()?);
        }
        if cur.pos != bytes.len() {
            return Err(DarknightError::Checkpoint { reason: "trailing bytes" });
        }
        Ok(Self {
            seed,
            k,
            m,
            integrity: flags & 1 != 0,
            recovery: flags & 2 != 0,
            frac_bits,
            next_batch,
            steps,
            params,
            bn_stats,
            lr,
            momentum,
            weight_decay,
            velocity,
        })
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32s(out: &mut Vec<u8>, vals: &[f32]) {
    put_u64(out, vals.len() as u64);
    for v in vals {
        put_u32(out, v.to_bits());
    }
}

const TRUNCATED: DarknightError = DarknightError::Checkpoint { reason: "truncated payload" };

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&[u8], DarknightError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(TRUNCATED)?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DarknightError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DarknightError> {
        Ok(u32::from_le_bytes(*self.take(4)?.first_chunk().ok_or(TRUNCATED)?))
    }

    fn u64(&mut self) -> Result<u64, DarknightError> {
        Ok(u64::from_le_bytes(*self.take(8)?.first_chunk().ok_or(TRUNCATED)?))
    }

    fn f32s(&mut self) -> Result<Vec<f32>, DarknightError> {
        let n = self.u64()? as usize;
        if n > self.remaining() / 4 {
            // Bound before allocating: each f32 costs 4 bytes, so `n`
            // can never exceed a quarter of the remaining byte count.
            return Err(TRUNCATED);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f32::from_bits(self.u32()?));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_linalg::Conv2dShape;
    use dk_nn::layers::{BatchNorm2d, Conv2d, Dense, Flatten, Layer, Relu};

    fn bn_model(seed: u64) -> Sequential {
        Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(Conv2dShape::simple(1, 2, 3, 1, 1), seed)),
            Layer::BatchNorm2d(BatchNorm2d::new(2)),
            Layer::Relu(Relu::new()),
            Layer::Flatten(Flatten::new()),
            Layer::Dense(Dense::new(2 * 4 * 4, 3, seed ^ 9)),
        ])
    }

    fn trained_state() -> (Sequential, Sgd) {
        let mut m = bn_model(5);
        let mut sgd = Sgd::new(0.05).with_momentum(0.9).with_weight_decay(1e-4);
        for step in 0..3 {
            m.zero_grad();
            let x = Tensor::from_fn(&[2, 1, 4, 4], |i| ((i + step) % 7) as f32 * 0.1);
            let y = m.forward(&x, true);
            m.backward(&Tensor::ones(y.shape()));
            sgd.step(&mut m);
        }
        (m, sgd)
    }

    #[test]
    fn roundtrip_is_lossless() {
        let (mut m, sgd) = trained_state();
        let cfg = DarknightConfig::new(2, 1).with_seed(42);
        let ckpt = TrainingCheckpoint::capture(&cfg, 17, 3, &mut m, &sgd);
        assert!(!ckpt.bn_stats.is_empty(), "model must exercise BatchNorm");
        assert!(!ckpt.velocity.is_empty(), "momentum must have velocity");
        let back = TrainingCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(ckpt, back);
    }

    #[test]
    fn install_restores_bitwise() {
        let (mut m, sgd) = trained_state();
        let cfg = DarknightConfig::new(2, 1).with_seed(42);
        let ckpt = TrainingCheckpoint::capture(&cfg, 4, 1, &mut m, &sgd);
        let snap = m.snapshot_params();

        let mut fresh = bn_model(5);
        let mut fresh_sgd = Sgd::new(0.5).with_momentum(0.9).with_weight_decay(1e-4);
        ckpt.install(&mut fresh, &mut fresh_sgd).unwrap();
        assert_eq!(fresh.max_param_diff(&snap), 0.0);
        assert_eq!(fresh_sgd.learning_rate(), sgd.learning_rate());
        assert_eq!(fresh_sgd.velocity().len(), sgd.velocity().len());
        for (a, b) in fresh_sgd.velocity().iter().zip(sgd.velocity()) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        // Running stats came back bit-for-bit too.
        let reloaded = TrainingCheckpoint::capture(&cfg, 4, 1, &mut fresh, &fresh_sgd);
        assert_eq!(reloaded.bn_stats, ckpt.bn_stats);
    }

    #[test]
    fn config_mismatch_is_typed() {
        let (mut m, sgd) = trained_state();
        let cfg = DarknightConfig::new(2, 1).with_seed(42);
        let ckpt = TrainingCheckpoint::capture(&cfg, 4, 1, &mut m, &sgd);
        for bad in [
            DarknightConfig::new(2, 1).with_seed(43),
            DarknightConfig::new(4, 1).with_seed(42),
            DarknightConfig::new(2, 2).with_seed(42),
            DarknightConfig::new(2, 1).with_seed(42).with_integrity(true),
        ] {
            assert!(matches!(
                ckpt.validate_config(&bad),
                Err(DarknightError::Checkpoint { .. })
            ));
        }
        ckpt.validate_config(&cfg).unwrap();
    }

    #[test]
    fn wrong_model_rejected() {
        let (mut m, sgd) = trained_state();
        let cfg = DarknightConfig::new(2, 1).with_seed(42);
        let ckpt = TrainingCheckpoint::capture(&cfg, 4, 1, &mut m, &sgd);
        let mut other = Sequential::new(vec![
            Layer::Flatten(Flatten::new()),
            Layer::Dense(Dense::new(16, 3, 1)),
        ]);
        let mut sgd2 = Sgd::new(0.05).with_momentum(0.9).with_weight_decay(1e-4);
        assert!(matches!(
            ckpt.install(&mut other, &mut sgd2),
            Err(DarknightError::Checkpoint { reason: "model parameter count differs" })
        ));
        // Hyperparameter drift is rejected before any state moves.
        let mut sgd3 = Sgd::new(0.05);
        assert!(matches!(
            ckpt.install(&mut bn_model(5), &mut sgd3),
            Err(DarknightError::Checkpoint { reason: "optimizer hyperparameters differ" })
        ));
    }

    #[test]
    fn truncation_and_garbage_rejected() {
        let (mut m, sgd) = trained_state();
        let cfg = DarknightConfig::new(2, 1).with_seed(42);
        let bytes = TrainingCheckpoint::capture(&cfg, 4, 1, &mut m, &sgd).to_bytes();
        for cut in [0, 7, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(TrainingCheckpoint::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            TrainingCheckpoint::from_bytes(&long),
            Err(DarknightError::Checkpoint { reason: "trailing bytes" })
        ));
        let mut wrong_magic = bytes;
        wrong_magic[0] ^= 1;
        assert!(TrainingCheckpoint::from_bytes(&wrong_magic).is_err());
    }
}
