//! The two `dk_serve` workloads. Same server, two regimes:
//! `serve_saturated` keeps eight requests outstanding from one client
//! thread (closed loop: full batches, the batch wait never fires);
//! `serve_sparse` sends on a seeded Poisson schedule at 200 requests a
//! second from one sender thread, with one collector thread (open loop:
//! arrivals are further apart than the batch wait, so almost every
//! batch is deadline-dispatched with padding). An operation is one
//! request; open-loop latency is taken from the request's due time.

use super::{
    bits_eq, err, Counters, Finish, Instance, ServeObs, Spec, Window, WorkloadId, MAX_BATCH_WAIT,
    OUTSTANDING, SPARSE_RPS,
};
use crate::gen;
use crate::stats::{ms, OpSample};
use crate::trace::{self, Kind};
use dk_core::QuantizedReference;
use dk_gpu::GpuCluster;
use dk_linalg::workspace::alloc_counts;
use dk_linalg::Tensor;
use dk_nn::Sequential;
use dk_serve::{InferenceRequest, Server, ServerConfig, ServerHandle, Ticket};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Distinct request samples a run cycles through.
const POOL: usize = 64;

/// Inputs of a serve workload and what the oracle expects for them.
#[derive(Debug)]
pub struct ServeInputs {
    /// Which of the two.
    pub id: WorkloadId,
    /// The run's seed.
    pub seed: u64,
    /// Sizing.
    pub spec: Spec,
    /// The model.
    pub model: Sequential,
    /// Request samples `[3, hw, hw]`.
    pub samples: Vec<Tensor<f32>>,
    /// `QuantizedReference::forward_solo` of each sample.
    pub expected: Vec<Tensor<f32>>,
    /// `serve_sparse`: due times in seconds, for all windows of the run
    /// laid end to end.
    pub schedule: Vec<f64>,
}

impl ServeInputs {
    /// Generates samples, expected outputs and the arrival schedule.
    pub fn generate(id: WorkloadId, seed: u64, seconds: f64) -> Result<Self, String> {
        let spec = id.spec();
        let model = spec.build_model(seed);
        let samples = gen::tensors(seed, POOL, &spec.sample_shape());
        let quant = spec.config(seed).quant();
        let expected = samples
            .iter()
            .map(|x| QuantizedReference::forward_solo(&model, x, quant).map_err(err))
            .collect::<Result<_, _>>()?;
        let schedule = match id {
            // Warm-up, the window, and the traced run's extra windows.
            WorkloadId::ServeSparse => {
                gen::poisson_schedule(seed, SPARSE_RPS, (2.0 * seconds) as usize + 10)
            }
            _ => Vec::new(),
        };
        Ok(Self {
            id,
            seed,
            spec,
            model,
            samples,
            expected,
            schedule,
        })
    }

    /// `K` samples stacked into one virtual batch, for the probes.
    pub fn probe_batch(&self) -> Tensor<f32> {
        let mut x = Tensor::zeros(&self.spec.batch_shape());
        for i in 0..self.spec.k {
            x.batch_item_mut(i)
                .copy_from_slice(self.samples[i].as_slice());
        }
        x
    }

    /// The server configuration both workloads use.
    pub fn server_config(&self) -> ServerConfig {
        ServerConfig::new(self.spec.config(self.seed), &self.spec.sample_shape())
            .with_workers(1)
            .with_pipeline_lanes(2)
            .with_queue_capacity(256)
            .with_max_batch_wait(MAX_BATCH_WAIT)
    }

    /// The fleet the server forks its workers' clusters from.
    pub fn fleet(&self) -> GpuCluster {
        let n = self.spec.config(self.seed).workers_required();
        GpuCluster::honest(n, self.spec.fleet_seed(self.seed))
    }
}

/// A request in flight, as the harness tracks it.
struct InFlight {
    ticket: Ticket,
    /// Pool index of the input.
    sample: usize,
    /// Request number (the span id).
    op: u64,
    /// When latency starts: submit start (closed loop) or due time.
    from: Instant,
    submit_start: Instant,
    submit_us: f64,
    late_ms: f64,
}

/// A serve workload, set up.
pub struct ServeRun<'a> {
    inputs: &'a ServeInputs,
    server: Option<Server>,
    handle: ServerHandle,
    /// `(pool index, output)` of every response, compared at the end.
    responses: Vec<(usize, Tensor<f32>)>,
    requests: u64,
    /// Seconds of the schedule consumed by earlier windows.
    schedule_offset: f64,
    /// `Server::start` time of this instance.
    start_ms: f64,
}

/// Submits request number `op` and reports how long the call took.
fn submit(
    handle: &ServerHandle,
    samples: &[Tensor<f32>],
    op: u64,
) -> (Result<Ticket, ()>, Instant, f64) {
    let request = InferenceRequest::new(samples[op as usize % samples.len()].clone());
    let t0 = Instant::now();
    let ticket = handle.submit(request).map_err(|_shed| ());
    let submit_us = t0.elapsed().as_secs_f64() * 1e6;
    if trace::on() {
        trace::record_for(op, Kind::Submit, t0, 0, 0, 0);
    }
    (ticket, t0, submit_us)
}

/// Waits for one response and books it.
fn collect(
    f: InFlight,
    window_start: Instant,
    w: &mut Window,
    responses: &mut Vec<(usize, Tensor<f32>)>,
) {
    let response = f.ticket.wait();
    let observed = Instant::now();
    if trace::on() {
        trace::record_for(f.op, Kind::Op, f.submit_start, 0, 0, 0);
    }
    let at_s = f.from.saturating_duration_since(window_start).as_secs_f64();
    let latency_ms = ms(observed.saturating_duration_since(f.from));
    let Some(r) = response else {
        w.failed += 1;
        w.samples.push(OpSample {
            at_s,
            latency_ms,
            samples: 0,
        });
        return;
    };
    w.serve.push(ServeObs {
        queue_wait_ms: ms(r.queue_wait),
        service_ms: ms(r.service_time),
        total_ms: ms(observed.saturating_duration_since(f.submit_start)),
        submit_us: f.submit_us,
        late_ms: f.late_ms,
    });
    match r.output {
        Ok(y) => {
            responses.push((f.sample, y));
            w.samples.push(OpSample {
                at_s,
                latency_ms,
                samples: 1,
            });
        }
        Err(_) => {
            w.failed += 1;
            w.samples.push(OpSample {
                at_s,
                latency_ms,
                samples: 0,
            });
        }
    }
}

impl ServeRun<'_> {
    /// Closed loop: one client, `OUTSTANDING` requests in flight,
    /// responses awaited in submission order.
    fn run_saturated(&mut self, dur: Duration) -> Window {
        let mut w = Window::default();
        let mut pending: VecDeque<InFlight> = VecDeque::with_capacity(OUTSTANDING);
        let start = Instant::now();
        while start.elapsed() < dur {
            while pending.len() < OUTSTANDING {
                let op = self.requests;
                self.requests += 1;
                let (ticket, t0, submit_us) = submit(&self.handle, &self.inputs.samples, op);
                match ticket {
                    Ok(ticket) => pending.push_back(InFlight {
                        ticket,
                        sample: op as usize % self.inputs.samples.len(),
                        op,
                        from: t0,
                        submit_start: t0,
                        submit_us,
                        late_ms: 0.0,
                    }),
                    Err(()) => {
                        w.failed += 1;
                        w.samples.push(OpSample {
                            at_s: t0.saturating_duration_since(start).as_secs_f64(),
                            latency_ms: 0.0,
                            samples: 0,
                        });
                    }
                }
            }
            if let Some(f) = pending.pop_front() {
                collect(f, start, &mut w, &mut self.responses);
            }
        }
        for f in pending {
            collect(f, start, &mut w, &mut self.responses);
        }
        w
    }

    /// Open loop: a sender thread follows the schedule whatever the
    /// server does; a collector thread observes the responses.
    fn run_sparse(&mut self, dur: Duration) -> Window {
        let lo = self.schedule_offset;
        let hi = lo + dur.as_secs_f64();
        self.schedule_offset = hi;
        let due: Vec<f64> = self
            .inputs
            .schedule
            .iter()
            .filter(|&&t| t >= lo && t < hi)
            .map(|&t| t - lo)
            .collect();
        let first_op = self.requests;
        self.requests += due.len() as u64;
        let (tx, rx) = mpsc::channel::<Result<InFlight, OpSample>>();
        // The model is not `Sync`; the sender needs the samples only.
        let (handle, samples) = (&self.handle, self.inputs.samples.as_slice());
        let responses = &mut self.responses;
        let mut w = Window::default();
        let start = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for (i, &t) in due.iter().enumerate() {
                    let due_at = start + Duration::from_secs_f64(t);
                    let wait = due_at.saturating_duration_since(Instant::now());
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                    let op = first_op + i as u64;
                    let (ticket, t0, submit_us) = submit(handle, samples, op);
                    let sent = tx.send(match ticket {
                        Ok(ticket) => Ok(InFlight {
                            ticket,
                            sample: op as usize % samples.len(),
                            op,
                            from: due_at,
                            submit_start: t0,
                            submit_us,
                            late_ms: ms(t0.saturating_duration_since(due_at)),
                        }),
                        Err(()) => Err(OpSample {
                            at_s: t,
                            latency_ms: 0.0,
                            samples: 0,
                        }),
                    });
                    if sent.is_err() {
                        return;
                    }
                }
            });
            let w = &mut w;
            scope.spawn(move || {
                for item in rx {
                    match item {
                        Ok(f) => collect(f, start, w, responses),
                        Err(shed) => {
                            w.failed += 1;
                            w.samples.push(shed);
                        }
                    }
                }
            });
        });
        w
    }
}

impl Instance for ServeRun<'_> {
    fn run(&mut self, dur: Duration) -> Window {
        let (a0, b0) = alloc_counts();
        let mut w = match self.inputs.id {
            WorkloadId::ServeSparse => self.run_sparse(dur),
            _ => self.run_saturated(dur),
        };
        let (a1, b1) = alloc_counts();
        (w.allocs, w.alloc_bytes) = (a1 - a0, b1 - b0);
        w
    }

    fn counters(&self) -> Counters {
        Counters {
            server: Some(self.handle.metrics()),
            server_start_ms: Some(self.start_ms),
            ..Counters::default()
        }
    }

    fn finish(mut self: Box<Self>) -> Finish {
        let t0 = Instant::now();
        let server = self.server.take().map(Server::shutdown);
        let shutdown_ms = ms(t0.elapsed());
        let mismatches = self
            .responses
            .iter()
            .filter(|(i, y)| !bits_eq(y, &self.inputs.expected[*i]))
            .count() as u64;
        Finish {
            compared: self.responses.len() as u64,
            mismatches,
            shutdown_ms: Some(shutdown_ms),
            server,
            error: None,
        }
    }
}

/// Starts the server and serves one verified request.
pub fn setup(id: WorkloadId, inputs: &ServeInputs) -> Result<Box<dyn Instance + '_>, String> {
    if !id.is_serve() {
        return Err(format!("{} is not a serve workload", id.name()));
    }
    let t0 = Instant::now();
    let server =
        Server::start(inputs.server_config(), &inputs.model, &inputs.fleet()).map_err(err)?;
    let start_ms = ms(t0.elapsed());
    let handle = server.handle();
    let run = Box::new(ServeRun {
        inputs,
        server: Some(server),
        handle,
        responses: Vec::new(),
        requests: 1,
        schedule_offset: 0.0,
        start_ms,
    });
    let first = submit(&run.handle, &inputs.samples, 0)
        .0
        .ok()
        .and_then(Ticket::wait)
        .and_then(|r| r.output.ok());
    match first {
        Some(y) if bits_eq(&y, &inputs.expected[0]) => Ok(run),
        _ => {
            run.finish();
            Err(format!("{}: first request failed its check", id.name()))
        }
    }
}
