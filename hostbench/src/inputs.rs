//! Seeded workload inputs: a window of distinct rendered RGB-D frames,
//! replayed forward and backward as one continuous trajectory.
//!
//! The window always starts at the beginning of the profile's 30 Hz
//! trajectory; the seed sets every frame's sensor noise. Two seeds thus
//! film the same camera path with independent noise, so their runs do
//! the same kind and amount of work: the benchmark's spread across
//! seeds must stay below its bounds, and moving the window along the
//! path changes the LM cost per frame by more than that. Every frame is
//! rendered before any timer starts; the program under test receives
//! only these images.

use pimvo_kernels::{DepthImage, GrayImage};
use pimvo_scene::{ate_rmse, build_scene, pose_at, RenderOptions, SequenceKind, Trajectory};
use pimvo_vomath::{Pinhole, SE3};

/// One rendered frame with its ground-truth camera-to-world pose.
pub struct Frame {
    pub gray: GrayImage,
    pub depth: DepthImage,
    pub gt_wc: SE3,
}

/// A window of distinct frames of one sequence profile.
pub struct Window {
    frames: Vec<Frame>,
}

impl Window {
    /// Renders the first `len` 30 Hz frames of `kind` with the sensor
    /// noise of `seed` and `stream` (streams of one run differ).
    ///
    /// # Panics
    ///
    /// Panics if `len < 2`: a ping-pong replay needs two frames.
    pub fn render(kind: SequenceKind, seed: u64, stream: u64, len: usize) -> Window {
        assert!(len >= 2, "a replay window needs at least two frames");
        let camera = Pinhole::qvga();
        let scene = build_scene(kind);
        let opts = RenderOptions::default();
        let frames = (0..len as u64)
            .map(|index| {
                let gt_wc = pose_at(kind, index as f64 / 30.0);
                let noise = noise_seed(seed, stream, index);
                let (gray, depth) = scene.render(&camera, &gt_wc, &opts, noise);
                Frame { gray, depth, gt_wc }
            })
            .collect();
        Window { frames }
    }

    /// Frames of one forward/backward lap.
    pub fn lap(&self) -> usize {
        2 * (self.frames.len() - 1)
    }

    /// Frame `k` of the endless forward/backward replay
    /// `0, 1, .., len-1, len-2, .., 1, 0, 1, ..`.
    pub fn at(&self, k: usize) -> &Frame {
        let p = k % self.lap();
        &self.frames[if p < self.frames.len() {
            p
        } else {
            self.lap() - p
        }]
    }
}

/// Per-frame sensor-noise seed (splitmix64 of seed, stream and frame
/// index).
fn noise_seed(seed: u64, stream: u64, index: u64) -> u32 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream << 32)
        .wrapping_add(index);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as u32
}

/// Estimated and ground-truth poses of one tracked stream, plus an
/// FNV-1a digest over every estimated pose's bits.
#[derive(Clone, Default)]
pub struct PoseLog {
    estimate: Trajectory,
    truth: Trajectory,
    digest: u64,
}

impl PoseLog {
    pub fn new() -> Self {
        PoseLog {
            digest: FNV_OFFSET,
            ..Default::default()
        }
    }

    pub fn push(&mut self, estimate: SE3, truth: SE3) {
        let t = self.estimate.len() as f64 / 30.0;
        self.estimate.push(t, estimate);
        self.truth.push(t, truth);
        let r = &estimate.rotation.matrix().m;
        let tr = estimate.translation;
        for v in r.iter().flatten().chain(&[tr.x, tr.y, tr.z]) {
            self.mix(v.to_bits());
        }
    }

    /// Folds `v` into the digest.
    pub fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Absolute trajectory error after first-pose alignment, mm.
    pub fn ate_mm(&self) -> f64 {
        if self.estimate.is_empty() {
            return 0.0;
        }
        1000.0 * ate_rmse(&self.estimate, &self.truth)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;
