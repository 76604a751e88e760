//! Scalar reference implementations of the edge-detection kernels.
//!
//! These definitions are the *specification*: the PIM mappings in
//! [`crate::ir`] (at every lowering level) must reproduce them
//! bit-for-bit. They use zero padding outside the image (what a PIM lane
//! shift produces at word-line borders), truncating averages (the
//! hardware `avg` drops the LSB) and saturating 8-bit sums.

use crate::{EdgeConfig, EdgeMaps, GrayImage};

/// Average with truncation: `(a + b) >> 1` on unsigned 8-bit pixels.
#[inline]
fn avg_u8(a: u8, b: u8) -> u8 {
    (((a as u16) + (b as u16)) >> 1) as u8
}

/// Branch-free max via the saturating identity the paper cites:
/// `max(a, b) = sat(a - b) + b` (unsigned saturation clamps at 0).
#[inline]
fn max_u8(a: u8, b: u8) -> u8 {
    a.saturating_sub(b).wrapping_add(b)
}

/// Branch-free min: `min(a, b) = a - sat(a - b)`.
#[inline]
fn min_u8(a: u8, b: u8) -> u8 {
    a.wrapping_sub(a.saturating_sub(b))
}

/// Low-pass filter: the 3x3 binomial kernel `[1 2 1; 2 4 2; 1 2 1]/16`
/// decomposed into two 2x2 averaging passes (Fig. 2), with truncation
/// after every average exactly as the in-memory pipeline computes it.
pub fn lpf(img: &GrayImage) -> GrayImage {
    let (w, h) = (img.width(), img.height());
    // pass 1, anchored top-left: vertical then horizontal 2-average
    let mut p1 = GrayImage::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let c0 = avg_u8(
                img.get_zero(x as i64, y as i64),
                img.get_zero(x as i64, y as i64 + 1),
            );
            let c1 = avg_u8(
                img.get_zero(x as i64 + 1, y as i64),
                img.get_zero(x as i64 + 1, y as i64 + 1),
            );
            p1.set(x, y, avg_u8(c0, c1));
        }
    }
    // pass 2, anchored bottom-right: re-centres the composite 3x3 kernel
    let mut out = GrayImage::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let c0 = avg_u8(
                p1.get_zero(x as i64 - 1, y as i64 - 1),
                p1.get_zero(x as i64 - 1, y as i64),
            );
            let c1 = avg_u8(
                p1.get_zero(x as i64, y as i64 - 1),
                p1.get_zero(x as i64, y as i64),
            );
            out.set(x, y, avg_u8(c0, c1));
        }
    }
    out
}

/// High-pass filter: the absolute differences over the four opposing
/// neighbour pairs through the centre (Fig. 3) — the paper's low-cost
/// replacement for the Sobel gradient magnitude.
///
/// The four differences are combined with the averaging tree
/// `avg(avg(d_diag1, d_diag2), avg(d_vert, d_horiz))`, i.e. `SAD / 4`
/// with per-step truncation. This uses the same single-cycle `avg`
/// primitive as the plain saturated sum but cannot saturate: a response
/// plateau at 255 would make the non-maximum suppression discard the
/// strongest edges entirely (every neighbour ties at the clamp).
/// Thresholds are calibrated to the `/4` scale.
///
/// Column 0 is defined as zero: the row-parallel PIM mapping anchors the
/// aligned operands at `x - 1`, so the leftmost output pixel has no
/// anchor lane (the detector's border margin discards it regardless).
pub fn hpf(lpf_map: &GrayImage) -> GrayImage {
    let (w, h) = (lpf_map.width(), lpf_map.height());
    let mut out = GrayImage::new(w, h);
    for y in 0..h {
        for x in 1..w {
            let (xi, yi) = (x as i64, y as i64);
            let d_diag1 = lpf_map
                .get_zero(xi - 1, yi - 1)
                .abs_diff(lpf_map.get_zero(xi + 1, yi + 1));
            let d_diag2 = lpf_map
                .get_zero(xi + 1, yi - 1)
                .abs_diff(lpf_map.get_zero(xi - 1, yi + 1));
            let d_vert = lpf_map
                .get_zero(xi, yi - 1)
                .abs_diff(lpf_map.get_zero(xi, yi + 1));
            let d_horiz = lpf_map
                .get_zero(xi - 1, yi)
                .abs_diff(lpf_map.get_zero(xi + 1, yi));
            let s = avg_u8(avg_u8(d_diag1, d_diag2), avg_u8(d_vert, d_horiz));
            out.set(x, y, s);
        }
    }
    out
}

/// Reference Sobel-based high-pass filter (the *original* kernel the
/// paper's SAD formulation replaces): two orthogonal 3x3 Sobel
/// convolutions and the saturated magnitude `|gx| + |gy|`.
///
/// Only used for qualitative comparison — the SAD kernel is expected to
/// produce a *similar* (not identical) response.
#[cfg(test)]
fn hpf_sobel(lpf_map: &GrayImage) -> GrayImage {
    let (w, h) = (lpf_map.width(), lpf_map.height());
    let mut out = GrayImage::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let (xi, yi) = (x as i64, y as i64);
            let p = |dx: i64, dy: i64| lpf_map.get_zero(xi + dx, yi + dy) as i32;
            let gx = (p(1, -1) + 2 * p(1, 0) + p(1, 1)) - (p(-1, -1) + 2 * p(-1, 0) + p(-1, 1));
            let gy = (p(-1, 1) + 2 * p(0, 1) + p(1, 1)) - (p(-1, -1) + 2 * p(0, -1) + p(1, -1));
            let mag = (gx.abs() + gy.abs()).min(255) as u8;
            out.set(x, y, mag);
        }
    }
    out
}

/// Non-maximum suppression, simplified branch-free form (Fig. 4):
///
/// ```text
/// edge(x, y) <=> H > th2  AND  sat(H - th1) > min over the four
///                opposing neighbour pairs of max(pair)
/// ```
pub fn nms(hpf_map: &GrayImage, cfg: &EdgeConfig) -> GrayImage {
    let (w, h) = (hpf_map.width(), hpf_map.height());
    let mut out = GrayImage::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let (xi, yi) = (x as i64, y as i64);
            let b2 = hpf_map.get_zero(xi, yi);
            let m1 = max_u8(
                hpf_map.get_zero(xi - 1, yi - 1),
                hpf_map.get_zero(xi + 1, yi + 1),
            );
            let m2 = max_u8(hpf_map.get_zero(xi, yi - 1), hpf_map.get_zero(xi, yi + 1));
            let m3 = max_u8(
                hpf_map.get_zero(xi + 1, yi - 1),
                hpf_map.get_zero(xi - 1, yi + 1),
            );
            let m4 = max_u8(hpf_map.get_zero(xi - 1, yi), hpf_map.get_zero(xi + 1, yi));
            let k = min_u8(min_u8(m1, m2), min_u8(m3, m4));
            let l = b2.saturating_sub(cfg.th1);
            let edge = b2 > cfg.th2 && l > k;
            out.set(x, y, if edge { 255 } else { 0 });
        }
    }
    out
}

/// Non-maximum suppression in the *original* compound-branch form the
/// paper starts from (9 threshold comparisons and 8 branches). Exists to
/// prove the algebraic simplification: [`nms`] must produce identical
/// output (property-tested).
pub fn nms_branchy(hpf_map: &GrayImage, cfg: &EdgeConfig) -> GrayImage {
    let (w, h) = (hpf_map.width(), hpf_map.height());
    let mut out = GrayImage::new(w, h);
    let th1 = cfg.th1 as i32;
    for y in 0..h {
        for x in 0..w {
            let (xi, yi) = (x as i64, y as i64);
            let p = |dx: i64, dy: i64| hpf_map.get_zero(xi + dx, yi + dy) as i32;
            let b2 = p(0, 0);
            let exceeds = |a: i32, b: i32| (b2 - a) > th1 && (b2 - b) > th1;
            let edge = b2 > cfg.th2 as i32
                && (exceeds(p(-1, -1), p(1, 1))
                    || exceeds(p(0, -1), p(0, 1))
                    || exceeds(p(1, -1), p(-1, 1))
                    || exceeds(p(-1, 0), p(1, 0)));
            out.set(x, y, if edge { 255 } else { 0 });
        }
    }
    out
}

/// Full edge-detection pipeline: LPF → HPF → NMS → border clearing.
pub fn edge_detect(img: &GrayImage, cfg: &EdgeConfig) -> EdgeMaps {
    let lpf_map = lpf(img);
    let hpf_map = hpf(&lpf_map);
    let mut mask = nms(&hpf_map, cfg);
    mask.clear_border(cfg.border);
    EdgeMaps {
        lpf: lpf_map,
        hpf: hpf_map,
        mask,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn u8_primitives() {
        assert_eq!(avg_u8(3, 4), 3);
        assert_eq!(avg_u8(255, 255), 255);
    }

    #[test]
    fn branch_free_min_max_match_std() {
        for a in (0u16..=255).step_by(7) {
            for b in (0u16..=255).step_by(11) {
                let (a, b) = (a as u8, b as u8);
                assert_eq!(max_u8(a, b), a.max(b), "max({a},{b})");
                assert_eq!(min_u8(a, b), a.min(b), "min({a},{b})");
            }
        }
    }

    proptest! {
        /// Branch-free u8 min/max identities hold for all inputs.
        #[test]
        fn u8_minmax_identity(a in any::<u8>(), b in any::<u8>()) {
            prop_assert_eq!(max_u8(a, b), a.max(b));
            prop_assert_eq!(min_u8(a, b), a.min(b));
            prop_assert_eq!(
                max_u8(a, b) as u16 + min_u8(a, b) as u16,
                a as u16 + b as u16
            );
        }
    }

    fn ramp(w: u32, h: u32) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| ((x * 7 + y * 13) % 251) as u8)
    }

    #[test]
    fn lpf_smooths_constant_region() {
        let img = GrayImage::from_fn(16, 16, |_, _| 100);
        let out = lpf(&img);
        // interior stays 100 (away from the zero-padded border)
        for y in 2..14 {
            for x in 2..14 {
                assert_eq!(out.get(x, y), 100, "({x},{y})");
            }
        }
    }

    #[test]
    fn lpf_matches_binomial_convolution_up_to_truncation() {
        let img = ramp(24, 20);
        let out = lpf(&img);
        for y in 2..18i64 {
            for x in 2..22i64 {
                let mut sum = 0u32;
                let weights = [[1, 2, 1], [2, 4, 2], [1, 2, 1]];
                for dy in -1..=1i64 {
                    for dx in -1..=1i64 {
                        sum += weights[(dy + 1) as usize][(dx + 1) as usize]
                            * img.get_zero(x + dx, y + dy) as u32;
                    }
                }
                let exact = (sum / 16) as i32;
                let got = out.get(x as u32, y as u32) as i32;
                // three truncating averages lose at most 3 LSBs total
                assert!(
                    (got - exact).abs() <= 3,
                    "({x},{y}) got {got} want ~{exact}"
                );
            }
        }
    }

    #[test]
    fn hpf_zero_on_flat_high_on_step() {
        let img = GrayImage::from_fn(20, 20, |x, _| if x < 10 { 20 } else { 220 });
        let l = lpf(&img);
        let h = hpf(&l);
        // flat interior regions: zero response
        assert_eq!(h.get(4, 10), 0);
        assert_eq!(h.get(16, 10), 0);
        // step column: strong response
        assert!(h.get(10, 10) > 60);
    }

    #[test]
    fn hpf_tracks_sobel_qualitatively() {
        let img = ramp(32, 32);
        let l = lpf(&img);
        let sad = hpf(&l);
        let sobel = hpf_sobel(&l);
        // responses correlate: compare rank at strong-vs-flat pixels
        let mut agree = 0;
        let mut total = 0;
        for y in 2..30 {
            for x in 2..30 {
                let strong_sad = sad.get(x, y) > 15;
                let strong_sobel = sobel.get(x, y) > 120;
                total += 1;
                if strong_sad == strong_sobel {
                    agree += 1;
                }
            }
        }
        assert!(agree as f64 / total as f64 > 0.8, "{agree}/{total}");
    }

    #[test]
    fn nms_simplification_is_exact() {
        // the algebraic identity (x>y AND x>z) <=> x>max(y,z) etc.
        let cfg = EdgeConfig::default();
        for seed in 0..4u32 {
            let img = GrayImage::from_fn(24, 24, |x, y| {
                ((x * 31 + y * 17 + seed * 101).wrapping_mul(2654435761) >> 13) as u8
            });
            assert_eq!(nms(&img, &cfg), nms_branchy(&img, &cfg), "seed {seed}");
        }
    }

    #[test]
    fn nms_keeps_ridge_suppresses_neighbours() {
        // vertical ridge of high response at x == 8
        let h = GrayImage::from_fn(16, 16, |x, _| match x {
            7 => 60,
            8 => 200,
            9 => 60,
            _ => 0,
        });
        let cfg = EdgeConfig::new(4, 24);
        let m = nms(&h, &cfg);
        assert_eq!(m.get(8, 8), 255);
        assert_eq!(m.get(7, 8), 0);
        assert_eq!(m.get(9, 8), 0);
    }

    #[test]
    fn edge_detect_finds_box_outline() {
        // box with a 1-px anti-aliased boundary ring, as a real camera
        // would produce; a perfectly pixel-aligned step yields a
        // two-pixel response plateau that strict NMS suppresses
        let img = GrayImage::from_fn(40, 40, |x, y| {
            let inside = (11..29).contains(&x) && (11..29).contains(&y);
            let ring = !inside && (10..30).contains(&x) && (10..30).contains(&y);
            if inside {
                200
            } else if ring {
                115
            } else {
                30
            }
        });
        let maps = edge_detect(&img, &EdgeConfig::default());
        let n = maps.edge_count();
        // roughly the box perimeter (4 * 20 = 80), give or take corners
        assert!(n > 40 && n < 400, "edge count {n}");
        // border cleared
        assert_eq!(maps.mask.get(0, 0), 0);
    }
}

/// Downsamples by 2 with 2x2 block averaging (truncating, matching the
/// PIM `avg` primitive applied vertically then horizontally) — the
/// pyramid-construction kernel for coarse-to-fine tracking.
///
/// Odd trailing rows/columns are dropped.
pub fn downsample2x(img: &GrayImage) -> GrayImage {
    let (w, h) = (img.width() / 2, img.height() / 2);
    assert!(w > 0 && h > 0, "image too small to downsample");
    let mut out = GrayImage::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let v0 = avg_u8(img.get(2 * x, 2 * y), img.get(2 * x, 2 * y + 1));
            let v1 = avg_u8(img.get(2 * x + 1, 2 * y), img.get(2 * x + 1, 2 * y + 1));
            out.set(x, y, avg_u8(v0, v1));
        }
    }
    out
}
