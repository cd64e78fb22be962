//! Per-layer probes: after the measured window, each layer's public
//! function is called alone, from outside, on exactly the shapes one
//! operation of the workload produces, and timed.
//!
//! The shapes come from a layer-by-layer plain forward walk of the
//! workload's model over one of its input batches. A probe reports the
//! median over [`REPS`] repetitions of the per-operation sum (all
//! linear layers, all virtual batches of one operation). Probes use the
//! public API only, so where the session calls a crate-private,
//! non-allocating variant (`normalize_quantize_into`) the probe times
//! its public sibling; the README says which.

use crate::stats::{median, median_ms, try_median_ms};
use crate::trace;
use crate::workloads::session::{self, SessionInputs};
use crate::workloads::train::TrainInputs;
use crate::workloads::{err, Inputs, Spec, WorkloadId, LEARNING_RATE, SHARD_ELEMS};
use dk_baselines::gpu_plain::PlainGpuRunner;
use dk_baselines::{SgxOnlyRunner, SlalomSession};
use dk_core::{
    DarknightError, EncodingScheme, EngineOptions, PipelineEngine, QuantizedReference, StepPlan,
};
use dk_field::{FieldRng, QuantConfig, F25, P25};
use dk_gpu::wire::{read_msg, write_msg, WireMsg};
use dk_gpu::{BatchTag, GpuCluster, GpuExec, LinearJob};
use dk_linalg::{Conv2dShape, Tensor, Workspace};
use dk_nn::layers::Layer;
use dk_nn::loss::softmax_cross_entropy;
use dk_nn::optim::Sgd;
use dk_nn::Sequential;
use dk_tee::crypto::f32s_to_bytes;
use dk_tee::{Enclave, EpcConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions behind every probe's median.
pub const REPS: usize = 50;
/// Repetitions for probes whose single call takes tens of milliseconds
/// (whole training steps, the baselines).
pub const REPS_SLOW: usize = 12;

/// Probe results by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// One offloaded linear layer, as one virtual batch meets it.
struct Site {
    /// The layer's float input `[K, ...]`.
    x: Tensor<f32>,
    /// The layer's float weights.
    weights: Tensor<f32>,
    kind: SiteKind,
}

#[derive(Clone, Copy)]
enum SiteKind {
    Conv(Conv2dShape),
    Dense,
}

/// A non-linear (TEE-side) layer and the input it sees.
struct NonLinear {
    layer: Layer,
    x: Tensor<f32>,
}

fn walk(
    layers: &[Layer],
    x: &Tensor<f32>,
    sites: &mut Vec<Site>,
    tee: &mut Vec<NonLinear>,
) -> Tensor<f32> {
    let mut cur = x.clone();
    for layer in layers {
        cur = match layer {
            Layer::Conv2d(c) => {
                sites.push(Site {
                    x: cur.clone(),
                    weights: c.weights().clone(),
                    kind: SiteKind::Conv(*c.shape()),
                });
                layer.clone().forward(&cur, false)
            }
            Layer::Dense(d) => {
                sites.push(Site {
                    x: cur.clone(),
                    weights: d.weights().clone(),
                    kind: SiteKind::Dense,
                });
                layer.clone().forward(&cur, false)
            }
            Layer::Residual(r) => {
                let mut main = walk(r.main(), &cur, sites, tee);
                if r.shortcut().is_empty() {
                    main.add_assign(&cur);
                } else {
                    main.add_assign(&walk(r.shortcut(), &cur, sites, tee));
                }
                main
            }
            other => {
                tee.push(NonLinear {
                    layer: other.clone(),
                    x: cur.clone(),
                });
                other.clone().forward(&cur, false)
            }
        };
    }
    cur
}

/// The field-domain view of one site: what the TEE and the wire handle.
struct FieldSite {
    /// `K` quantized input rows.
    inputs_q: Vec<Vec<F25>>,
    /// `M` noise rows of the same length.
    noise: Vec<Vec<F25>>,
    /// Worker outputs consistent with the scheme (the §4.4 check holds).
    outputs: Vec<Vec<F25>>,
    /// `K + M + 1` weight-gradient equations.
    eqs: Vec<Vec<F25>>,
    /// The jobs the forward pass sends, one per encoding.
    jobs: Vec<LinearJob>,
    /// And what comes back.
    job_outputs: Vec<Tensor<F25>>,
}

fn quantize_rows(quant: QuantConfig, x: &Tensor<f32>, k: usize) -> Result<Vec<Vec<F25>>, String> {
    let mut flat = x.as_slice().to_vec();
    quant.normalize(&mut flat, 1.0);
    let q = quant.quantize_slice::<P25>(&flat).map_err(err)?;
    let n = q.len() / k;
    Ok(q.chunks(n).map(<[F25]>::to_vec).collect())
}

fn field_site(
    site: &Site,
    spec: &Spec,
    quant: QuantConfig,
    scheme: &EncodingScheme,
    rng: &mut FieldRng,
) -> Result<FieldSite, String> {
    let (k, m) = (spec.k, spec.m);
    let inputs_q = quantize_rows(quant, &site.x, k)?;
    let n_in = inputs_q[0].len();
    let noise: Vec<Vec<F25>> = (0..m).map(|_| rng.uniform_vec::<P25>(n_in)).collect();
    let mut w = site.weights.as_slice().to_vec();
    quant.normalize(&mut w, 1.0);
    let weights_q = Arc::new(Tensor::from_vec(
        site.weights.shape(),
        quant.quantize_slice::<P25>(&w).map_err(err)?,
    ));
    let enc_shape: Vec<usize> = std::iter::once(1)
        .chain(site.x.shape()[1..].iter().copied())
        .collect();
    let jobs: Vec<LinearJob> = scheme
        .encode(&inputs_q, &noise)
        .into_iter()
        .map(|row| {
            let x = Tensor::from_vec(&enc_shape, row);
            match site.kind {
                SiteKind::Conv(shape) => LinearJob::ConvForward {
                    weights: weights_q.clone(),
                    x,
                    shape,
                },
                SiteKind::Dense => LinearJob::DenseForward {
                    weights: weights_q.clone(),
                    x,
                },
            }
        })
        .collect();
    let job_outputs: Vec<Tensor<F25>> = jobs.iter().map(LinearJob::execute).collect();
    let outputs = job_outputs.iter().map(|t| t.as_slice().to_vec()).collect();
    let eqs = (0..scheme.num_encodings())
        .map(|_| rng.uniform_vec::<P25>(site.weights.len()))
        .collect();
    Ok(FieldSite {
        inputs_q,
        noise,
        outputs,
        eqs,
        jobs,
        job_outputs,
    })
}

/// Everything the probes of one workload share.
pub struct ProbeCtx<'a> {
    id: WorkloadId,
    spec: Spec,
    inputs: &'a Inputs,
    seed: u64,
    /// Repetitions of fast and slow probes (`--smoke` lowers both).
    reps: usize,
    reps_slow: usize,
    /// Virtual batches per operation.
    v: usize,
    /// One virtual batch `[K, ...]`.
    x_vb: Tensor<f32>,
    /// One operation's input (`[N, ...]` for training, else `x_vb`).
    x_op: Tensor<f32>,
    labels_op: Vec<usize>,
    model: Sequential,
    sites: Vec<Site>,
    tee: Vec<NonLinear>,
}

impl<'a> ProbeCtx<'a> {
    /// Walks the model once and keeps the shapes.
    pub fn new(id: WorkloadId, inputs: &'a Inputs, seed: u64, smoke: bool) -> Self {
        let spec = id.spec();
        let x_op = inputs.probe_batch();
        let v = x_op.shape()[0] / spec.k;
        let mut shape = x_op.shape().to_vec();
        shape[0] = spec.k;
        let per_vb: usize = shape.iter().product();
        let x_vb = Tensor::from_vec(&shape, x_op.as_slice()[..per_vb].to_vec());
        let labels_op = match inputs {
            Inputs::Train(t) => t.batch(0).1,
            _ => Vec::new(),
        };
        let model = inputs.model().clone();
        let (mut sites, mut tee) = (Vec::new(), Vec::new());
        walk(model.layers(), &x_vb, &mut sites, &mut tee);
        let (reps, reps_slow) = if smoke { (10, 3) } else { (REPS, REPS_SLOW) };
        Self {
            id,
            spec,
            inputs,
            seed,
            reps,
            reps_slow,
            v,
            x_vb,
            x_op,
            labels_op,
            model,
            sites,
            tee,
        }
    }

    fn is_train(&self) -> bool {
        self.id == WorkloadId::TrainPipelined
    }

    /// Runs every probe that applies to the workload.
    pub fn run(&self) -> Result<Metrics, String> {
        let mut out = Metrics::new();
        self.field_probes(&mut out)?;
        self.model_probes(&mut out)?;
        self.fleet_probes(&mut out)?;
        self.baseline_probes(&mut out)?;
        if self.is_train() {
            if let Inputs::Train(t) = self.inputs {
                self.train_probes(t, &mut out)?;
            }
        } else {
            self.engine_probe(&mut out)?;
        }
        Ok(out)
    }

    /// `dk_field` and `dk_core::scheme` on this workload's shapes.
    fn field_probes(&self, out: &mut Metrics) -> Result<(), String> {
        let spec = &self.spec;
        let quant = spec.config(self.seed).quant();
        let mut rng = FieldRng::seed_from(self.seed ^ 0x5052_4f42);
        let mut scheme = EncodingScheme::generate(spec.k, spec.m, true, &mut rng);
        let sites: Vec<FieldSite> = self
            .sites
            .iter()
            .map(|s| field_site(s, spec, quant, &scheme, &mut rng))
            .collect::<Result<_, _>>()?;
        let v = self.v as f64;
        let mut ws = Workspace::new();

        // Quantize: normalize + quantize_slice over each layer's K x n
        // input. `normalize` rewrites its input, so the scratch copy is
        // refilled outside the clock.
        let mut scratch: Vec<Vec<f32>> =
            self.sites.iter().map(|s| s.x.as_slice().to_vec()).collect();
        let quantize_ms = try_median_ms(self.reps, || {
            for (buf, s) in scratch.iter_mut().zip(&self.sites) {
                buf.copy_from_slice(s.x.as_slice());
            }
            let t = Instant::now();
            for buf in &mut scratch {
                quant.normalize(buf, 1.0);
                black_box(quant.quantize_slice::<P25>(buf).map_err(err)?);
            }
            Ok::<_, String>(t.elapsed())
        })?;
        out.insert("dk_field.quantize_ms_per_op", v * quantize_ms);

        out.insert(
            "dk_field.dequantize_ms_per_op",
            v * median_ms(self.reps, || {
                for s in &sites {
                    for row in &s.outputs[..spec.k] {
                        black_box(quant.dequantize_product_slice(row));
                    }
                }
            }),
        );

        const NOISE_ELEMS: usize = 1 << 16;
        let mut noise = Vec::with_capacity(NOISE_ELEMS);
        let noise_ms = median_ms(self.reps, || {
            noise.clear();
            rng.uniform_extend::<P25>(NOISE_ELEMS, &mut noise);
            black_box(&noise);
        });
        out.insert(
            "dk_field.noise_melems_per_s",
            NOISE_ELEMS as f64 / 1e6 / (noise_ms / 1e3),
        );

        let give = |ws: &mut Workspace, mut rows: Vec<Vec<F25>>| {
            for r in rows.drain(..) {
                ws.give(r);
            }
            ws.give(rows);
        };
        let mut nrng = FieldRng::seed_from(self.seed ^ 0x4e4f_4953);
        out.insert(
            "dk_core.encode_ms_per_op",
            v * median_ms(self.reps, || {
                for s in &sites {
                    let enc = scheme.encode_fused_ws(&s.inputs_q, &mut nrng, &mut ws);
                    give(&mut ws, enc);
                }
            }),
        );
        let decode_ms = self.timed(self.reps, || {
            for (i, s) in sites.iter().enumerate() {
                let rows = scheme.decode_forward_ws(&s.outputs, i as u64, &mut ws)?;
                give(&mut ws, rows);
            }
            Ok::<(), DarknightError>(())
        })?;
        out.insert("dk_core.decode_ms_per_op", v * decode_ms);
        if self.is_train() {
            out.insert(
                "dk_core.decode_backward_ms_per_op",
                v * median_ms(self.reps, || {
                    for s in &sites {
                        let g = scheme.decode_backward_ws(&s.eqs, &mut ws);
                        ws.give(g);
                    }
                }),
            );
            out.insert(
                "dk_core.spot_check_ms_per_op",
                v * median_ms(self.reps, || {
                    for s in &sites {
                        let row = scheme.encode_row_ws(1, &s.inputs_q, &s.noise, &mut ws);
                        ws.give(row);
                    }
                }),
            );
        }
        // One key refresh per virtual batch.
        out.insert(
            "dk_core.scheme_regen_us_per_op",
            v * 1e3 * median_ms(self.reps * 4, || scheme.regenerate(&mut rng)),
        );

        // Serialisation alone: every frame of one operation's forward
        // pass written into a buffer and parsed back.
        let frames: Vec<WireMsg> = sites
            .iter()
            .flat_map(|s| {
                let runs = s.jobs.iter().map(|job| WireMsg::Run { job: job.clone() });
                let outputs = s.job_outputs.iter();
                runs.chain(outputs.map(|t| WireMsg::Output { tensor: t.clone() }))
            })
            .collect();
        let mut buf: Vec<u8> = Vec::new();
        let codec_ms = self.timed(self.reps, || {
            buf.clear();
            for f in &frames {
                write_msg(&mut buf, f)?;
            }
            let mut r = buf.as_slice();
            for _ in &frames {
                black_box(read_msg(&mut r)?);
            }
            Ok::<(), std::io::Error>(())
        })?;
        out.insert("dk_gpu.wire_codec_ms_per_op", v * codec_ms);
        Ok(())
    }

    /// The median time of `reps` whole calls of `f`, the error as text.
    fn timed<E: std::fmt::Display>(
        &self,
        reps: usize,
        mut f: impl FnMut() -> Result<(), E>,
    ) -> Result<f64, String> {
        try_median_ms(reps, || {
            let t = Instant::now();
            f().map(|()| t.elapsed())
        })
        .map_err(err)
    }

    /// `dk_nn` alone and `StepPlan::extract`.
    fn model_probes(&self, out: &mut Metrics) -> Result<(), String> {
        let v = self.v as f64;
        let mut tee: Vec<(Layer, &Tensor<f32>)> =
            self.tee.iter().map(|n| (n.layer.clone(), &n.x)).collect();
        let mut ws = Workspace::new();
        out.insert(
            "dk_nn.nonlinear_ms_per_op",
            v * median_ms(self.reps, || {
                for (layer, x) in &mut tee {
                    let y = layer.forward_ws(x, false, &mut ws);
                    ws.give_tensor(y);
                }
            }),
        );
        let mut model = self.model.clone();
        out.insert(
            "dk_nn.plain_forward_ms_per_op",
            median_ms(self.reps, || {
                let y = model.forward(&self.x_op, false);
                model.give_back(y);
            }),
        );
        let quant = self.spec.config(self.seed).quant();
        let plan_ms = self.timed(self.reps, || {
            StepPlan::extract(&self.model, quant).map(|p| drop(black_box(p)))
        })?;
        out.insert("dk_core.plan_extract_ms_per_op", plan_ms);
        Ok(())
    }

    /// `GpuDispatcher` hand-off cost on a job with no work in it.
    fn fleet_probes(&self, out: &mut Metrics) -> Result<(), String> {
        let dispatcher = GpuCluster::honest(1, 1).into_dispatcher(8);
        let job = LinearJob::DenseForward {
            weights: Arc::new(Tensor::from_vec(&[1, 1], vec![F25::ONE])),
            x: Tensor::from_vec(&[1, 1], vec![F25::ONE]),
        };
        let roundtrip_ms = self.timed(self.reps * 4, || {
            let ticket = dispatcher.submit(BatchTag(0), vec![job.clone()])?;
            dispatcher
                .complete(ticket)
                .into_iter()
                .try_for_each(|r| r.map(drop))
        });
        drop(dispatcher.join());
        out.insert("dk_gpu.dispatch_roundtrip_us", roundtrip_ms? * 1e3);
        Ok(())
    }

    /// The comparison systems on the same inputs: the denominators of
    /// the paper's Table 3/4 ratios.
    fn baseline_probes(&self, out: &mut Metrics) -> Result<(), String> {
        if self.is_train() {
            self.training_baselines(out)
        } else {
            self.inference_baselines(out)
        }
    }

    fn training_baselines(&self, out: &mut Metrics) -> Result<(), String> {
        let spec = &self.spec;
        let (x, labels) = (&self.x_op, &self.labels_op);
        let fresh = || (self.model.clone(), Sgd::new(LEARNING_RATE));

        let mut plain = PlainGpuRunner::new();
        let (mut model, mut sgd) = fresh();
        let plain_ms = median_ms(self.reps_slow, || {
            black_box(plain.train_step(&mut model, x, labels, &mut sgd));
        });
        out.insert("dk_nn.plain_train_ms_per_op", plain_ms);
        out.insert("dk_baselines.plain_ms_per_op", plain_ms);
        out.insert(
            "dk_nn.optimizer_ms_per_op",
            median_ms(self.reps, || sgd.step(&mut model)),
        );

        let mut sgx = SgxOnlyRunner::sgx_v1();
        let (mut model, mut sgd) = fresh();
        sgx.load_model(&mut model);
        out.insert(
            "dk_baselines.sgx_only_ms_per_op",
            median_ms(self.reps_slow, || {
                black_box(sgx.train_step(&mut model, x, labels, &mut sgd));
            }),
        );

        // The quantized clear-text reference: V virtual batches of
        // forward + backward, then one optimizer step.
        let mut reference = QuantizedReference::new(spec.k, spec.config(self.seed).quant());
        let (mut model, mut sgd) = fresh();
        let per_vb = self.x_vb.len();
        let reference_ms = self.timed(self.reps_slow, || {
            model.zero_grad();
            for b in 0..self.v {
                let rows = x.as_slice()[b * per_vb..(b + 1) * per_vb].to_vec();
                let xb = Tensor::from_vec(self.x_vb.shape(), rows);
                let logits = reference.forward(&mut model, &xb, true)?;
                let (_, d) = softmax_cross_entropy(&logits, &labels[b * spec.k..(b + 1) * spec.k]);
                reference.backward(&mut model, &d)?;
            }
            sgd.step(&mut model);
            Ok::<(), DarknightError>(())
        })?;
        out.insert("dk_baselines.reference_ms_per_op", reference_ms);
        // Slalom cannot train (weight updates invalidate its precomputed
        // unblinding factors): no measurement.
        Ok(())
    }

    fn inference_baselines(&self, out: &mut Metrics) -> Result<(), String> {
        let spec = &self.spec;
        let cfg = spec.config(self.seed);
        let x = &self.x_op;

        let mut plain = PlainGpuRunner::new();
        let mut model = self.model.clone();
        out.insert(
            "dk_baselines.plain_ms_per_op",
            median_ms(self.reps, || {
                let y = plain.forward(&mut model, x, false);
                model.give_back(y);
            }),
        );
        let mut sgx = SgxOnlyRunner::sgx_v1();
        let mut model = self.model.clone();
        sgx.load_model(&mut model);
        out.insert(
            "dk_baselines.sgx_only_ms_per_op",
            median_ms(self.reps, || {
                black_box(sgx.forward(&mut model, x, false));
            }),
        );
        let mut reference = QuantizedReference::new(spec.k, cfg.quant());
        let mut model = self.model.clone();
        let reference_ms = self.timed(self.reps_slow, || {
            reference
                .forward(&mut model, x, false)
                .map(|y| drop(black_box(y)))
        })?;
        out.insert("dk_baselines.reference_ms_per_op", reference_ms);

        // Slalom: blinding pairs refilled on demand, Freivalds checks
        // on (integrity everywhere). It handles sequential CNNs only.
        let sequential = !self
            .model
            .layers()
            .iter()
            .any(|l| matches!(l, Layer::Residual(_)));
        if sequential {
            let fleet = GpuCluster::honest(cfg.workers_required(), spec.fleet_seed(self.seed));
            let mut slalom = SlalomSession::new(fleet, true, self.seed).with_auto_refill(true);
            let mut model = self.model.clone();
            slalom.precompute(&mut model, spec.k * 2).map_err(err)?;
            let slalom_ms = self.timed(self.reps_slow, || {
                slalom.inference(&mut model, x).map(|y| drop(black_box(y)))
            })?;
            out.insert("dk_baselines.slalom_ms_per_op", slalom_ms);
        }
        Ok(())
    }

    /// The engine on pre-formed full batches: the ceiling `dk_serve`
    /// works under.
    fn engine_probe(&self, out: &mut Metrics) -> Result<(), String> {
        const BATCHES: usize = 32;
        let spec = &self.spec;
        let cfg = spec.config(self.seed);
        let fleet = GpuCluster::honest(cfg.workers_required(), spec.fleet_seed(self.seed));
        let mut engine = PipelineEngine::new(cfg, fleet, EngineOptions::default()).map_err(err)?;
        let batches = vec![self.x_vb.clone(); BATCHES];
        let ms_per_call = self.timed(self.reps_slow.min(5), || {
            let outcomes = engine.infer_batches(&self.model, &batches, true)?;
            outcomes.into_iter().try_for_each(|o| o.output.map(drop))
        })?;
        out.insert(
            "dk_core.engine_infer_sps",
            (BATCHES * spec.k) as f64 / (ms_per_call / 1e3),
        );
        Ok(())
    }

    /// What only training exercises: the sequential trainer, sealing,
    /// stored encodings, checkpoints.
    fn train_probes(&self, t: &TrainInputs, out: &mut Metrics) -> Result<(), String> {
        let mut trainer = t.sequential_trainer()?;
        let (mut model, mut sgd) = (t.model.clone(), Sgd::new(LEARNING_RATE));
        let mut step = 0;
        let sequential_ms = self.timed(self.reps_slow, || {
            let (x, labels) = t.batch(step);
            step += 1;
            trainer
                .train_large_batch(&mut model, &x, &labels, &mut sgd)
                .map(drop)
        })?;
        out.insert("dk_core.sequential_ms_per_op", sequential_ms);
        let mut bytes = 0usize;
        out.insert(
            "dk_core.checkpoint_ms",
            median_ms(self.reps_slow, || {
                bytes = trainer.checkpoint(&mut model, &sgd).len()
            }),
        );
        out.insert("dk_core.checkpoint_bytes", bytes as f64);

        // One step's gradient shards through seal + unseal: V virtual
        // batches each evict and reload the whole gradient vector.
        let grads = model.grad_vector();
        let mut enclave = Enclave::new(EpcConfig::default(), b"benchmark-seal-probe");
        let seal_ms = self.timed(self.reps, || {
            grads.chunks(SHARD_ELEMS).try_for_each(|shard| {
                let blob = enclave.seal(&f32s_to_bytes(shard));
                enclave.unseal(&blob).map(drop)
            })
        })?;
        out.insert("dk_tee.seal_ms_per_op", self.v as f64 * seal_ms);

        // Stored forward encodings (§6): each layer's K+M+1 encodings
        // handed to the fleet and released again, per virtual batch. The
        // call consumes the tensors, so they are cloned outside the clock.
        let n = self.spec.config(self.seed).workers_required();
        let mut fleet = GpuCluster::honest(n, 1);
        let encodings: Vec<Vec<Tensor<F25>>> = self
            .sites
            .iter()
            .map(|s| {
                let shape: Vec<usize> = [&[1], &s.x.shape()[1..]].concat();
                (0..n).map(|_| Tensor::zeros(&shape)).collect()
            })
            .collect();
        let ids: Vec<u64> = (0..encodings.len() as u64).collect();
        let store_ms = try_median_ms(self.reps, || {
            let fresh = encodings.clone();
            let t = Instant::now();
            for (id, enc) in ids.iter().zip(fresh) {
                GpuExec::store_encodings(&mut fleet, *id, enc);
            }
            let stored = t.elapsed();
            fleet.release_contexts(&ids);
            Ok::<_, String>(stored)
        })?;
        out.insert("dk_gpu.store_ms_per_op", self.v as f64 * store_ms);
        Ok(())
    }
}

/// `infer_tcp` only: backend time of the same model and inputs on an
/// in-process `GpuCluster`, so the wire's share can be taken as a
/// difference. Returns the median `execute` time per operation.
pub fn in_process_execute_ms(inputs: &SessionInputs, dur: Duration) -> Result<f64, String> {
    let mut inst = session::setup_in_process(inputs)?;
    inst.run(dur / 4);
    trace::start();
    inst.run(dur);
    let (spans, _) = trace::stop();
    inst.finish();
    let exec: Vec<f64> = trace::per_op(&spans).iter().map(|o| o.execute_ms).collect();
    median(&exec).ok_or_else(|| "in-process probe recorded no operations".to_string())
}
