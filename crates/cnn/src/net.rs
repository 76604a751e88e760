//! A small fixed-point CNN (conv → pool → conv → pool → dense) with a
//! trainable dense head, demonstrating end-to-end inference on the PIM.
//!
//! The convolutional feature extractor uses fixed, hand-designed
//! kernels (edge and blob detectors — in keeping with the crate's
//! inference-on-PIM scope); only the linear head is trained, with a
//! simple multi-class perceptron whose float weights are then quantized
//! to the signed 8-bit format the PIM consumes.

use crate::layer::{Conv3x3, Dense, FeatureMap, MaxPool2x2};
use crate::pim::PimCnn;
use crate::shapes::{render_shape, Shape};
use pimvo_pim::PimMachine;

/// The demo network: 32x32 input → conv3x3 → pool → conv3x3 → pool →
/// dense(3).
#[derive(Debug, Clone, PartialEq)]
pub struct SmallNet {
    /// First convolution (blob/average detector).
    pub conv1: Conv3x3,
    /// Second convolution (edge detector).
    pub conv2: Conv3x3,
    /// Classifier head (8x8 = 64 inputs, 3 logits).
    pub dense: Dense,
}

/// Training summary of the dense head.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Training samples used.
    pub train_samples: usize,
    /// Accuracy on the held-out set, `[0, 1]`.
    pub test_accuracy: f64,
}

impl SmallNet {
    /// Fixed feature extractor with an untrained (zero) head.
    pub fn untrained() -> SmallNet {
        SmallNet {
            // binomial smoother: reduces render noise
            conv1: Conv3x3::new([[1, 2, 1], [2, 4, 2], [1, 2, 1]], 0, 4),
            // Laplacian-like contrast detector
            conv2: Conv3x3::new([[0, -1, 0], [-1, 4, -1], [0, -1, 0]], 0, 1),
            dense: Dense::new(vec![vec![0; 64]; 3], vec![0; 3]),
        }
    }

    /// Runs the feature extractor (scalar path) and returns the
    /// flattened 64-value embedding.
    fn features_scalar(&self, img: &FeatureMap) -> Vec<u8> {
        let x = self.conv1.forward_scalar(img);
        let x = MaxPool2x2.forward_scalar(&x);
        let x = self.conv2.forward_scalar(&x);
        let x = MaxPool2x2.forward_scalar(&x);
        x.flatten()
    }

    /// Full scalar forward pass: logits.
    pub fn forward_scalar(&self, img: &FeatureMap) -> Vec<i64> {
        self.dense.forward_scalar(&self.features_scalar(img))
    }

    /// Full forward pass on the PIM machine: logits.
    pub fn forward_pim(&self, machine: &mut PimMachine, base: usize, img: &FeatureMap) -> Vec<i64> {
        let mut cnn = PimCnn::new(machine, base);
        let x = cnn.conv3x3(&self.conv1, img);
        let x = cnn.maxpool2x2(&x);
        let x = cnn.conv3x3(&self.conv2, &x);
        let x = cnn.maxpool2x2(&x);
        cnn.dense(&self.dense, &x.flatten())
    }

    /// Predicted class (argmax of the logits).
    fn classify_scalar(&self, img: &FeatureMap) -> usize {
        argmax(&self.forward_scalar(img))
    }

    /// Trains the dense head with a multi-class perceptron on shape
    /// renders `0..train_seeds`, evaluates on the following
    /// `test_seeds`, and quantizes the learned weights to i8.
    pub fn train_head(&mut self, train_seeds: u32, test_seeds: u32, epochs: usize) -> TrainReport {
        // gather embeddings once (the extractor is fixed)
        let mut train: Vec<(Vec<u8>, usize)> = Vec::new();
        for seed in 0..train_seeds {
            for shape in Shape::all() {
                let img = render_shape(shape, seed);
                train.push((self.features_scalar(&img), shape.label()));
            }
        }
        // perceptron in f64
        let n_in = 64usize;
        let mut w = vec![vec![0.0f64; n_in]; 3];
        let mut b = [0.0f64; 3];
        let lr = 0.01;
        for _ in 0..epochs {
            for (x, label) in &train {
                let logits: Vec<f64> = (0..3)
                    .map(|o| {
                        b[o] + w[o]
                            .iter()
                            .zip(x)
                            .map(|(wi, &xi)| wi * xi as f64)
                            .sum::<f64>()
                    })
                    .collect();
                let pred = argmax_f(&logits);
                if pred != *label {
                    for (i, &xi) in x.iter().enumerate() {
                        w[*label][i] += lr * xi as f64;
                        w[pred][i] -= lr * xi as f64;
                    }
                    b[*label] += lr * 255.0;
                    b[pred] -= lr * 255.0;
                }
            }
        }
        // quantize to i8 (scale so the largest weight is ~100)
        let wmax = w
            .iter()
            .flatten()
            .fold(0.0f64, |acc, &v| acc.max(v.abs()))
            .max(1e-9);
        let scale = 100.0 / wmax;
        let wq: Vec<Vec<i8>> = w
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&v| (v * scale).round().clamp(-127.0, 127.0) as i8)
                    .collect()
            })
            .collect();
        let bq: Vec<i32> = b
            .iter()
            .map(|&v| (v * scale).round().clamp(i32::MIN as f64, i32::MAX as f64) as i32)
            .collect();
        self.dense = Dense::new(wq, bq);

        // held-out evaluation with the quantized head
        let mut correct = 0usize;
        let mut total = 0usize;
        for seed in train_seeds..train_seeds + test_seeds {
            for shape in Shape::all() {
                let img = render_shape(shape, seed);
                total += 1;
                if self.classify_scalar(&img) == shape.label() {
                    correct += 1;
                }
            }
        }
        TrainReport {
            train_samples: train.len(),
            test_accuracy: correct as f64 / total as f64,
        }
    }
}

fn argmax(v: &[i64]) -> usize {
    v.iter()
        .enumerate()
        .max_by_key(|(_, &x)| x)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

fn argmax_f(v: &[f64]) -> usize {
    let mut best = 0;
    for i in 1..v.len() {
        if v[i] > v[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimvo_pim::ArrayConfig;

    #[test]
    fn head_trains_to_high_accuracy() {
        let mut net = SmallNet::untrained();
        let report = net.train_head(60, 15, 25);
        assert_eq!(report.train_samples, 180);
        assert!(
            report.test_accuracy >= 0.85,
            "accuracy {}",
            report.test_accuracy
        );
    }

    #[test]
    fn pim_forward_matches_scalar_bit_for_bit() {
        let mut net = SmallNet::untrained();
        let _ = net.train_head(20, 5, 8);
        let mut m = PimMachine::new(ArrayConfig::qvga());
        for (i, shape) in Shape::all().iter().enumerate() {
            let img = render_shape(*shape, 100 + i as u32);
            let scalar = net.forward_scalar(&img);
            let pim = net.forward_pim(&mut m, 0, &img);
            assert_eq!(scalar, pim, "{shape:?}");
        }
    }

    #[test]
    fn classification_works_on_pim() {
        let mut net = SmallNet::untrained();
        let report = net.train_head(60, 10, 25);
        assert!(report.test_accuracy > 0.8);
        let mut m = PimMachine::new(ArrayConfig::qvga());
        let mut correct = 0;
        let mut total = 0;
        for seed in 200..210u32 {
            for shape in Shape::all() {
                let img = render_shape(shape, seed);
                let logits = net.forward_pim(&mut m, 0, &img);
                total += 1;
                correct += (argmax(&logits) == shape.label()) as usize;
            }
        }
        assert!(
            correct as f64 / total as f64 >= 0.75,
            "{correct}/{total} on PIM"
        );
    }
}
