//! The plaintext reference training loop.
//!
//! This is the "Raw Data" curve of the paper's Figure 4: ordinary
//! float-domain SGD. DarKnight's private loop (in `dk-core`) is validated
//! against this one — both per-step (weight updates must agree to
//! quantization error) and end-to-end (final accuracy must match to
//! within the paper's reported <0.01 degradation).

use crate::data::Dataset;
use crate::loss::{accuracy, softmax_cross_entropy};
use crate::model::Sequential;
use crate::optim::Sgd;

/// Per-epoch training metrics.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_loss: Vec<f32>,
    /// Training accuracy per epoch.
    pub epoch_train_acc: Vec<f32>,
    /// Evaluation accuracy per epoch (if an eval set was supplied).
    pub epoch_eval_acc: Vec<f32>,
}

impl TrainReport {
    /// The final evaluation accuracy (or train accuracy when no eval set
    /// was used).
    pub fn final_accuracy(&self) -> f32 {
        self.epoch_eval_acc
            .last()
            .or(self.epoch_train_acc.last())
            .copied()
            .unwrap_or(0.0)
    }
}

/// Runs one training epoch, returning `(mean_loss, train_accuracy)`.
pub fn train_epoch(
    model: &mut Sequential,
    data: &Dataset,
    batch_size: usize,
    sgd: &mut Sgd,
) -> (f32, f32) {
    let mut total_loss = 0.0;
    let mut total_correct = 0.0;
    let mut batches = 0;
    for (x, labels) in data.batches(batch_size) {
        model.zero_grad();
        let logits = model.forward(&x, true);
        let (loss, dlogits) = softmax_cross_entropy(&logits, labels);
        model.backward(&dlogits);
        sgd.step(model);
        total_loss += loss;
        total_correct += accuracy(&logits, labels);
        batches += 1;
    }
    if batches == 0 {
        (0.0, 0.0)
    } else {
        (total_loss / batches as f32, total_correct / batches as f32)
    }
}

/// Evaluates classification accuracy without updating parameters.
pub fn evaluate(model: &mut Sequential, data: &Dataset, batch_size: usize) -> f32 {
    let mut total = 0.0;
    let mut batches = 0;
    for (x, labels) in data.batches(batch_size) {
        let logits = model.forward(&x, false);
        total += accuracy(&logits, labels);
        batches += 1;
    }
    if batches == 0 {
        0.0
    } else {
        total / batches as f32
    }
}

/// Full training run over multiple epochs.
pub fn train(
    model: &mut Sequential,
    train_data: &Dataset,
    eval_data: Option<&Dataset>,
    epochs: usize,
    batch_size: usize,
    sgd: &mut Sgd,
) -> TrainReport {
    let mut report = TrainReport::default();
    for _ in 0..epochs {
        let (loss, train_acc) = train_epoch(model, train_data, batch_size, sgd);
        report.epoch_loss.push(loss);
        report.epoch_train_acc.push(train_acc);
        if let Some(ev) = eval_data {
            report.epoch_eval_acc.push(evaluate(model, ev, batch_size));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Layer, Relu};

    fn tiny_model(classes: usize, inputs: usize) -> Sequential {
        Sequential::new(vec![
            Layer::Flatten(crate::layers::Flatten::new()),
            Layer::Dense(Dense::new(inputs, 32, 1)),
            Layer::Relu(Relu::new()),
            Layer::Dense(Dense::new(32, classes, 2)),
        ])
    }

    #[test]
    fn training_reduces_loss() {
        let data = Dataset::synthetic(3, 30, (1, 6, 6), 0.1, 11);
        let mut model = tiny_model(3, 36);
        let mut sgd = Sgd::new(0.1);
        let (first_loss, _) = train_epoch(&mut model, &data, 10, &mut sgd);
        let mut last_loss = first_loss;
        for _ in 0..10 {
            let (l, _) = train_epoch(&mut model, &data, 10, &mut sgd);
            last_loss = l;
        }
        assert!(last_loss < first_loss * 0.5, "first={first_loss} last={last_loss}");
    }

    #[test]
    fn training_reaches_high_accuracy_on_easy_task() {
        let data = Dataset::synthetic(3, 40, (1, 6, 6), 0.05, 12);
        let (train_set, test_set) = data.split(0.8);
        let mut model = tiny_model(3, 36);
        let mut sgd = Sgd::new(0.1).with_momentum(0.9);
        let report = train(&mut model, &train_set, Some(&test_set), 15, 12, &mut sgd);
        assert!(report.final_accuracy() > 0.9, "acc={}", report.final_accuracy());
    }

    #[test]
    fn evaluate_does_not_update() {
        let data = Dataset::synthetic(2, 10, (1, 4, 4), 0.1, 13);
        let mut model = tiny_model(2, 16);
        let snap = model.snapshot_params();
        let _ = evaluate(&mut model, &data, 5);
        assert_eq!(model.max_param_diff(&snap), 0.0);
    }

    #[test]
    fn report_bookkeeping() {
        let data = Dataset::synthetic(2, 10, (1, 4, 4), 0.1, 14);
        let mut model = tiny_model(2, 16);
        let mut sgd = Sgd::new(0.05);
        let report = train(&mut model, &data, Some(&data), 3, 5, &mut sgd);
        assert_eq!(report.epoch_loss.len(), 3);
        assert_eq!(report.epoch_eval_acc.len(), 3);
    }
}
