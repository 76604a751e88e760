//! Edge-feature extraction (Fig. 5-a).

use crate::quant::{QFeature, FEAT_FRAC};
use pimvo_kernels::{DepthImage, GrayImage};
use pimvo_vomath::Pinhole;

/// A 3D edge feature in inverse-depth coordinates on its anchor frame.
///
/// A feature carries its float coordinates and their Q4.12 form `q`,
/// quantized once by [`Feature::new`]: a frame's features do not change
/// while the LM solver evaluates them, so no linearization re-quantizes
/// them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Feature {
    /// Pixel column on the anchor frame.
    pub u: f64,
    /// Pixel row on the anchor frame.
    pub v: f64,
    /// Depth in meters.
    pub depth: f64,
    /// `(u - cx) / f`.
    pub a: f64,
    /// `(v - cy) / f`.
    pub b: f64,
    /// Inverse depth `1 / d`.
    pub c: f64,
    /// `a`, `b`, `c` at the paper's Q4.12 ([`QFeature::quantize`]).
    pub q: QFeature,
}

impl Feature {
    /// The feature at pixel `(u, v)` with depth `depth` meters on a
    /// frame seen by `cam`, with its inverse-depth coordinates and
    /// their Q4.12 form.
    pub fn new(u: f64, v: f64, depth: f64, cam: &Pinhole) -> Feature {
        let (a, b, c) = cam.inverse_depth_coords(u, v, depth);
        let unset = QFeature {
            a: 0,
            b: 0,
            c: 0,
            frac: FEAT_FRAC,
        };
        let mut f = Feature {
            u,
            v,
            depth,
            a,
            b,
            c,
            q: unset,
        };
        f.q = QFeature::quantize(&f);
        f
    }
}

/// Extracts features from an edge mask + depth image: every edge pixel
/// with a valid depth in `[min_depth, max_depth]` becomes a feature;
/// when more than `max_features` qualify, a uniform subsample is taken
/// (deterministic striding, preserving spatial coverage).
///
/// # Panics
///
/// Panics if the mask and depth dimensions differ.
pub fn extract_features(
    mask: &GrayImage,
    depth: &DepthImage,
    cam: &Pinhole,
    max_features: usize,
    min_depth: f64,
    max_depth: f64,
) -> Vec<Feature> {
    assert_eq!(mask.width(), depth.width(), "mask/depth width mismatch");
    assert_eq!(mask.height(), depth.height(), "mask/depth height mismatch");
    // candidates stay pixel indices until the subsample picks them, so
    // only the kept ones pay for (and hold) their coordinates
    let w = mask.width();
    let mut candidates = Vec::new();
    for y in 0..mask.height() {
        for x in 0..w {
            if mask.get(x, y) == 0 {
                continue;
            }
            let d = depth.get(x, y) as f64;
            if !(min_depth..=max_depth).contains(&d) {
                continue;
            }
            candidates.push(y * w + x);
        }
    }
    let feature = |&i: &u32| {
        let (x, y) = (i % w, i / w);
        Feature::new(x as f64, y as f64, depth.get(x, y) as f64, cam)
    };
    if candidates.len() <= max_features {
        return candidates.iter().map(feature).collect();
    }
    // uniform stride subsample (keeps spatial distribution)
    let stride = candidates.len() as f64 / max_features as f64;
    (0..max_features)
        .map(|i| feature(&candidates[(i as f64 * stride) as usize]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_mask_with_n(w: u32, h: u32, n: u32) -> GrayImage {
        let mut img = GrayImage::new(w, h);
        let mut placed = 0;
        'outer: for y in (2..h - 2).step_by(3) {
            for x in (2..w - 2).step_by(3) {
                if placed >= n {
                    break 'outer;
                }
                img.set(x, y, 255);
                placed += 1;
            }
        }
        img
    }

    #[test]
    fn extracts_all_when_under_cap() {
        let cam = Pinhole::qvga();
        let mask = edge_mask_with_n(320, 240, 100);
        let depth = DepthImage::from_fn(320, 240, |_, _| 2.0);
        let feats = extract_features(&mask, &depth, &cam, 6000, 0.3, 8.0);
        assert_eq!(feats.len(), 100);
        let f = &feats[0];
        assert!((f.c - 0.5).abs() < 1e-12);
        assert!((f.a - (f.u - cam.cx) / cam.f).abs() < 1e-12);
    }

    #[test]
    fn subsamples_when_over_cap() {
        let cam = Pinhole::qvga();
        let mask = edge_mask_with_n(320, 240, 5000);
        let depth = DepthImage::from_fn(320, 240, |_, _| 1.5);
        let feats = extract_features(&mask, &depth, &cam, 1000, 0.3, 8.0);
        assert_eq!(feats.len(), 1000);
        // spatial coverage preserved: both early and late rows present
        assert!(feats.first().unwrap().v < 40.0);
        assert!(feats.last().unwrap().v > 100.0);
    }

    #[test]
    fn rejects_invalid_depth() {
        let cam = Pinhole::qvga();
        let mut mask = GrayImage::new(16, 16);
        mask.set(4, 4, 255);
        mask.set(8, 8, 255);
        mask.set(12, 12, 255);
        let mut depth = DepthImage::new(16, 16);
        depth.set(4, 4, 2.0); // valid
        depth.set(8, 8, 0.0); // invalid
        depth.set(12, 12, 20.0); // too far
        let feats = extract_features(&mask, &depth, &cam, 100, 0.3, 8.0);
        assert_eq!(feats.len(), 1);
        assert_eq!(feats[0].u, 4.0);
    }
}
