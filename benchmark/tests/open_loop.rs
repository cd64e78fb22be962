//! `serve_sparse` times a request from its due time: an operation sits
//! in the window where the schedule put it, whatever the sender and the
//! server did, and its latency is what the caller saw from the submit
//! call plus how late the sender made that call.

use dk_benchmark::workloads::{self, Inputs, WorkloadId};
use std::time::Duration;

#[test]
fn open_loop_latency_counts_from_the_due_time() {
    dk_linalg::set_max_threads(1);
    let id = WorkloadId::ServeSparse;
    let inputs = Inputs::generate(id, 11, 1.0).expect("inputs");
    let Inputs::Serve(serve) = &inputs else {
        panic!("serve_sparse has serve inputs");
    };
    let mut instance = workloads::setup(id, &inputs, false).expect("set-up");
    let w = instance.run(Duration::from_millis(500));
    let fin = instance.finish();
    assert_eq!((w.failed, fin.mismatches), (0, 0));

    let due: Vec<f64> = serve
        .schedule
        .iter()
        .copied()
        .filter(|&t| t < 0.5)
        .collect();
    assert_eq!(due.len(), 100, "half a second at 200 a second");
    assert_eq!((w.samples.len(), w.serve.len()), (due.len(), due.len()));
    for ((op, seen), due) in w.samples.iter().zip(&w.serve).zip(&due) {
        assert!((op.at_s - due).abs() < 2e-9, "{} vs {due}", op.at_s);
        assert!(seen.late_ms >= 0.0);
        let from_due = seen.total_ms + seen.late_ms;
        assert!(
            (op.latency_ms - from_due).abs() < 1e-5,
            "{} vs {from_due}",
            op.latency_ms
        );
    }
}
