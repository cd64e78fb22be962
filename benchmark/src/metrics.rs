//! The metric catalogue: every name the benchmark prints, with unit and
//! direction. `BENCHMARK.json` lists the same names (a unit test keeps
//! the two in step); the README gives each one's source and the
//! end-to-end number it is expected to move.

use crate::stats::Better;
use Better::{Higher, Lower};

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// `layer.metric`, or a bare name for end-to-end metrics.
    pub name: &'static str,
    /// Unit, in the character set `BENCHMARK.json` allows.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// What a user of the system sees. Bounds live in `BENCHMARK.json`.
/// `failed_share` is not here: the driver's contract carries failures
/// as `failed` / `attempted` beside the metrics, and a metric that is 0
/// on every healthy run cannot have a relative bound; `compare` holds
/// the failed share to "no increase". Nor is the p90: it does not exist
/// for `train_pipelined`, and on two other workloads its run-to-run
/// spread on this host exceeds the largest bound the contract allows.
/// It is in every end-to-end result file, and `compare` gates it there
/// (`unresolved` where the runs disagree).
pub const END_TO_END: [MetricSpec; 3] = [
    m("setup_s", "s", Lower),
    m("throughput_sps", "samples/s", Higher),
    m("latency_ms_p50", "ms", Lower),
];

/// One row per layer metric. A workload a metric does not apply to
/// reports 0 for it.
pub const PER_LAYER: [MetricSpec; 87] = [
    m("dk_field.quantize_ms_per_op", "ms", Lower),
    m("dk_field.dequantize_ms_per_op", "ms", Lower),
    m("dk_field.noise_melems_per_s", "Melem/s", Higher),
    m("dk_linalg.field_mmacs_per_s", "MMAC/s", Higher),
    m("dk_linalg.allocs_per_op", "count", Lower),
    m("dk_linalg.alloc_bytes_per_op", "B", Lower),
    m("dk_linalg.workspace_misses_per_op", "count", Lower),
    m("dk_core.encode_ms_per_op", "ms", Lower),
    m("dk_core.decode_ms_per_op", "ms", Lower),
    m("dk_core.decode_backward_ms_per_op", "ms", Lower),
    m("dk_core.spot_check_ms_per_op", "ms", Lower),
    m("dk_core.scheme_regen_us_per_op", "us", Lower),
    m("dk_core.plan_extract_ms_per_op", "ms", Lower),
    m("dk_core.tee_ms_per_op", "ms", Lower),
    m("dk_core.tee_share", "ratio", Lower),
    m("dk_core.unattributed_ms_per_op", "ms", Lower),
    m("dk_core.linear_jobs_per_op", "count", Lower),
    m("dk_core.encoded_elems_per_op", "count", Lower),
    m("dk_core.decoded_elems_per_op", "count", Lower),
    m("dk_core.bytes_to_gpus_per_op", "B", Lower),
    m("dk_core.bytes_from_gpus_per_op", "B", Lower),
    m("dk_core.integrity_checks_per_op", "count", Higher),
    m("dk_core.nonlinear_elems_per_op", "count", Lower),
    m("dk_core.recoveries_per_op", "count", Lower),
    m("dk_core.sequential_ms_per_op", "ms", Lower),
    m("dk_core.lane_overlap_x", "x", Higher),
    m("dk_core.engine_infer_sps", "samples/s", Higher),
    m("dk_core.checkpoint_ms", "ms", Lower),
    m("dk_core.checkpoint_bytes", "B", Lower),
    m("dk_gpu.execute_ms_per_op", "ms", Lower),
    m("dk_gpu.store_ms_per_op", "ms", Lower),
    m("dk_gpu.jobs_per_op", "count", Lower),
    m("dk_gpu.mmacs_per_op", "MMAC", Lower),
    m("dk_gpu.wire_ms_per_op", "ms", Lower),
    m("dk_gpu.wire_bytes_per_op", "B", Lower),
    m("dk_gpu.wire_frames_per_op", "count", Lower),
    m("dk_gpu.reconnects", "count", Lower),
    m("dk_gpu.wire_codec_ms_per_op", "ms", Lower),
    m("dk_gpu.dispatch_roundtrip_us", "us", Lower),
    m("dk_gpu.worker_busy_share", "ratio", Higher),
    m("dk_nn.nonlinear_ms_per_op", "ms", Lower),
    m("dk_nn.plain_forward_ms_per_op", "ms", Lower),
    m("dk_nn.plain_train_ms_per_op", "ms", Lower),
    m("dk_nn.optimizer_ms_per_op", "ms", Lower),
    m("dk_tee.seal_ms_per_op", "ms", Lower),
    m("dk_tee.sealed_bytes_per_op", "B", Lower),
    m("dk_tee.seal_count_per_op", "count", Lower),
    m("dk_tee.paging_events_per_op", "count", Lower),
    m("dk_tee.peak_epc_bytes", "B", Lower),
    m("dk_serve.queue_wait_ms_p50", "ms", Lower),
    m("dk_serve.queue_wait_ms_p99", "ms", Lower),
    m("dk_serve.service_ms_p50", "ms", Lower),
    m("dk_serve.service_ms_p99", "ms", Lower),
    m("dk_serve.route_ms_p50", "ms", Lower),
    m("dk_serve.submit_us_p50", "us", Lower),
    m("dk_serve.batch_fill_ratio", "ratio", Higher),
    m("dk_serve.padded_rows_share", "ratio", Lower),
    m("dk_serve.batches_per_s", "1/s", Higher),
    m("dk_serve.shed_share", "ratio", Lower),
    m("dk_serve.latency_ms_p99", "ms", Lower),
    m("dk_serve.start_ms", "ms", Lower),
    m("dk_serve.shutdown_ms", "ms", Lower),
    m("dk_obs.overhead_x", "x", Lower),
    m("dk_obs.stage_quantize_ms_per_op", "ms", Lower),
    m("dk_obs.stage_encode_ms_per_op", "ms", Lower),
    m("dk_obs.stage_dispatch_ms_per_op", "ms", Lower),
    m("dk_obs.stage_decode_ms_per_op", "ms", Lower),
    m("dk_obs.stage_verify_ms_per_op", "ms", Lower),
    m("dk_obs.stage_repair_ms_per_op", "ms", Lower),
    m("dk_baselines.plain_ms_per_op", "ms", Lower),
    m("dk_baselines.sgx_only_ms_per_op", "ms", Lower),
    m("dk_baselines.slalom_ms_per_op", "ms", Lower),
    m("dk_baselines.reference_ms_per_op", "ms", Lower),
    m("dk_baselines.private_over_plain_x", "x", Lower),
    m("dk_baselines.private_over_reference_x", "x", Lower),
    m("dk_baselines.private_over_sgx_only_x", "x", Lower),
    m("dk_baselines.private_over_slalom_x", "x", Lower),
    m("phase.linear_share", "ratio", Higher),
    m("phase.nonlinear_share", "ratio", Lower),
    m("phase.maskio_share", "ratio", Lower),
    m("phase.comm_share", "ratio", Lower),
    m("bench.latency_ms_p90", "ms", Lower),
    m("bench.gen_late_ms_p99", "ms", Lower),
    m("bench.gen_late_ms_max", "ms", Lower),
    m("bench.segment_spread_x", "x", Lower),
    m("bench.ops", "count", Higher),
    m("bench.trace_overhead_x", "x", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::ALL;

    /// The contract's character sets, so a bad name fails here and not
    /// in the driver.
    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let all: Vec<&MetricSpec> = END_TO_END.iter().chain(&PER_LAYER).collect();
        for s in &all {
            assert!(name_ok(s.name), "{}", s.name);
            assert!(unit_ok(s.unit), "{} unit {}", s.name, s.unit);
        }
        let mut names: Vec<&str> = all
            .iter()
            .map(|s| s.name)
            .chain(ALL.iter().map(|w| w.name()))
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| {
                    let f = |k| e.get(k).and_then(Json::as_str).unwrap().to_string();
                    (f("name"), f("unit"), f("better"))
                })
                .collect()
        };
        let want = |specs: &[MetricSpec]| -> Vec<(String, String, String)> {
            specs
                .iter()
                .map(|s| {
                    let better = if s.better == Better::Higher {
                        "higher"
                    } else {
                        "lower"
                    };
                    (s.name.to_string(), s.unit.to_string(), better.to_string())
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), want(&END_TO_END));
        assert_eq!(listed("per_layer"), want(&PER_LAYER));
        for e in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = e.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, ALL.map(|w| w.name()));
        for w in doc.get("workloads").and_then(Json::as_arr).unwrap() {
            assert!(w.get("why").and_then(Json::as_str).unwrap().len() <= 200);
        }
        let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
