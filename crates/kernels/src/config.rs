//! Pipeline configuration: the edge thresholds the scalar reference
//! and the IR builders share, and the IR builders' stencil shift
//! distances and border-padding row helper.

use crate::pim_util::Regions;

/// Default NMS margin threshold (`th1` of Fig. 4).
pub const DEFAULT_TH1: u8 = 2;

/// Default high-pass magnitude threshold (`th2` of Fig. 4).
pub const DEFAULT_TH2: u8 = 10;

/// Default border margin (pixels) cleared in the edge mask.
pub const DEFAULT_BORDER: u32 = 2;

/// Lane shift aligning a 3x3 neighbourhood's opposing corner/edge
/// pixels (two pixels apart) onto the same lane: the `x-1`-anchored
/// operand alignment of the HPF and NMS stencils.
pub const NEIGHBOR_SHIFT: i32 = 2;

/// Lane shift re-centring an `x-1`-anchored whole-row result back onto
/// the output anchor `x`.
pub const RECENTER_SHIFT: i32 = -1;

/// Row operand for row `y` of a map at `base`, substituting the zero
/// row outside `0..height` (zero padding at the top/bottom borders).
pub fn row_or_zero(regions: &Regions, base: usize, y: i64, height: u32) -> usize {
    if y < 0 || y >= height as i64 {
        regions.zero_row()
    } else {
        base + y as usize
    }
}

/// Thresholds of the edge-detection pipeline.
///
/// `th2` gates the absolute high-pass response; `th1` is the
/// non-maximum-suppression margin by which a pixel must exceed its
/// strongest opposing neighbour pair (Fig. 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeConfig {
    /// NMS margin threshold.
    pub th1: u8,
    /// High-pass magnitude threshold.
    pub th2: u8,
    /// Border margin (pixels) cleared in the edge mask; kernels cannot
    /// produce valid responses where their neighbourhood leaves the
    /// image.
    pub border: u32,
}

impl EdgeConfig {
    /// Defaults tuned to yield the paper's 3000-6000 features on a QVGA
    /// frame with moderate texture.
    pub fn new(th1: u8, th2: u8) -> Self {
        EdgeConfig {
            th1,
            th2,
            border: DEFAULT_BORDER,
        }
    }
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig::new(DEFAULT_TH1, DEFAULT_TH2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = EdgeConfig::default();
        assert!(c.th2 > c.th1);
        assert_eq!(c.border, DEFAULT_BORDER);
        assert_eq!((c.th1, c.th2), (DEFAULT_TH1, DEFAULT_TH2));
    }
}
