use pimvo_kernels::EdgeConfig;
use pimvo_vomath::{LmConfig, Pinhole};

/// When to promote the current frame to a new keyframe.
///
/// The Q1.15 pose quantization relies on keyframe-relative translations
/// staying well inside `(-1, 1)` m, so the policy bounds them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyframePolicy {
    /// Maximum keyframe-relative translation (meters).
    pub max_translation: f64,
    /// Maximum keyframe-relative rotation (radians).
    pub max_rotation: f64,
    /// Minimum fraction of features that must land inside the keyframe
    /// image after warping; below this, switch keyframes.
    pub min_overlap: f64,
}

impl Default for KeyframePolicy {
    fn default() -> Self {
        KeyframePolicy {
            max_translation: 0.30,
            max_rotation: 0.30,
            min_overlap: 0.55,
        }
    }
}

/// Graceful-degradation thresholds of the tracker's
/// [`crate::TrackingState`] machine.
///
/// A frame is *bad* when the LM solve diverged, produced no residuals,
/// warped too few features into the keyframe, or left an implausibly
/// large mean residual. Bad frames fall back to the constant-velocity /
/// gyro motion prior instead of trusting the solver, and after
/// [`RecoveryConfig::max_bad_frames`] of them the tracker declares
/// itself Lost and re-seeds at the last keyframe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Mean squared residual (pixels²) above which a solve is rejected
    /// as corrupted rather than merely poor.
    pub max_mean_residual: f64,
    /// Minimum fraction of extracted features that must contribute a
    /// residual; below it the alignment has too little support.
    pub min_valid_fraction: f64,
    /// Consecutive bad frames tolerated (coasting on the motion prior)
    /// before the state machine drops to Lost and re-seeds from the
    /// last keyframe.
    pub max_bad_frames: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            max_mean_residual: 1e4,
            min_valid_fraction: 0.15,
            max_bad_frames: 3,
        }
    }
}

/// Configuration of the EBVO tracker.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerConfig {
    /// Camera intrinsics.
    pub camera: Pinhole,
    /// Edge-detection thresholds.
    pub edge: EdgeConfig,
    /// LM solver configuration (the paper iterates within 10).
    pub lm: LmConfig,
    /// Keyframe promotion policy.
    pub keyframe: KeyframePolicy,
    /// Graceful-degradation thresholds (tracking-lost recovery).
    pub recovery: RecoveryConfig,
    /// Coarse-to-fine pyramid levels (1 = the paper's single-level
    /// tracking; 2-3 enlarge the convergence basin for faster motion at
    /// ~1/4 extra edge-detection cost per level).
    pub pyramid_levels: usize,
    /// Feature cap per frame (paper: 3000-6000 at QVGA).
    pub max_features: usize,
    /// Build the semi-dense 3D edge map (Fig. 8's reconstruction):
    /// keyframe features are lifted to world coordinates into an
    /// [`crate::EdgeMap3d`], retrievable via `Tracker::map`.
    pub build_map: bool,
    /// Voxel size (meters) for map deduplication.
    pub map_voxel_m: f64,
    /// Minimum usable depth, meters.
    pub min_depth: f64,
    /// Maximum usable depth, meters.
    pub max_depth: f64,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            camera: Pinhole::qvga(),
            edge: EdgeConfig::default(),
            lm: LmConfig::default(),
            keyframe: KeyframePolicy::default(),
            recovery: RecoveryConfig::default(),
            pyramid_levels: 1,
            build_map: false,
            map_voxel_m: 0.02,
            max_features: 6000,
            min_depth: 0.3,
            max_depth: 7.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_respect_q_format_ranges() {
        let c = TrackerConfig::default();
        // Q1.15 translation range
        assert!(c.keyframe.max_translation < 1.0);
        // Q4.12 inverse depth range: 1/min_depth < 8
        assert!(1.0 / c.min_depth < 8.0);
        assert!(c.max_features >= 3000);
    }
}
