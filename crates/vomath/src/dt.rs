//! Euclidean distance transform of a binary edge mask.
//!
//! EBVO pre-computes, for every keyframe, the distance from each pixel
//! to the nearest edge pixel (`DT_k`) plus its gradient maps, so that
//! the warp residual and part of the Jacobian become table lookups.
//!
//! The paper builds `DT_k` with Felzenszwalb & Huttenlocher's lower
//! envelope of parabolas (*Distance Transforms of Sampled Functions*,
//! its reference [6]), which is exact for unbounded distances. The map
//! here is clamped at [`DistanceMap::MAX_DIST`] = 30 px, and that clamp
//! allows a cheaper method that is exact in integers:
//!
//! 1. **Column pass**: two row-major scans (down, then up) give every
//!    pixel its vertical distance `g` to the nearest site in its
//!    column, capped at 30.
//! 2. **Row pass**: the squared distance is the minimum of
//!    `g[x + dx]² + dx²` over the window `|dx| < 30`, capped at 900.
//! 3. **Root**: a 901-entry table maps the squared distance to the
//!    `f32` distance, rounded as `(d² as f64).sqrt() as f32`.
//!
//! The result equals the exact transform clamped at 30. A site 30 or
//! more pixels away in x or in y lies at least 30 px away, so it can
//! only produce the clamp. A nearest site closer than 30 px lies
//! inside the window and below the column cap, and its term is exact.
//! Every other term is either exact or at least 900, so none can
//! undercut it. Both passes are short integer loops over rows, which
//! the compiler vectorizes.

/// A distance map over an image grid: for every pixel, the Euclidean
/// distance (in pixels) to the nearest edge pixel, clamped to
/// [`DistanceMap::MAX_DIST`].
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMap {
    width: u32,
    height: u32,
    data: Vec<f32>,
}

impl DistanceMap {
    /// Distances are clamped here; residuals beyond this are
    /// uninformative for alignment (and the clamp bounds the Q-format
    /// range needed on the PIM side).
    pub const MAX_DIST: f32 = 30.0;

    /// Map width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Map height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Distance at an integer pixel.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> f32 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[(y * self.width + x) as usize]
    }

    /// Bilinearly interpolated distance at a sub-pixel location.
    /// Coordinates are clamped to the valid interpolation region; on a
    /// map one pixel wide (or high) the interpolation support clamps to
    /// that edge.
    pub fn sample(&self, u: f64, v: f64) -> f32 {
        let u = u.clamp(0.0, (self.width - 1) as f64);
        let v = v.clamp(0.0, (self.height - 1) as f64);
        let x0 = (u.floor() as u32).min(self.width.saturating_sub(2));
        let y0 = (v.floor() as u32).min(self.height.saturating_sub(2));
        let x1 = (x0 + 1).min(self.width - 1);
        let y1 = (y0 + 1).min(self.height - 1);
        let fx = (u - x0 as f64) as f32;
        let fy = (v - y0 as f64) as f32;
        let d00 = self.get(x0, y0);
        let d10 = self.get(x1, y0);
        let d01 = self.get(x0, y1);
        let d11 = self.get(x1, y1);
        d00 * (1.0 - fx) * (1.0 - fy)
            + d10 * fx * (1.0 - fy)
            + d01 * (1.0 - fx) * fy
            + d11 * fx * fy
    }

    /// Raw data, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }
}

/// The column cap and the row pass's window: a site this many pixels
/// away in x or in y is at least [`DistanceMap::MAX_DIST`] away.
const WINDOW: usize = 30;
const _: () = assert!(WINDOW as f32 == DistanceMap::MAX_DIST);
/// The clamp on squared distances, `MAX_DIST²`.
const CLAMP_SQ: i16 = (WINDOW * WINDOW) as i16;

/// Computes the Euclidean distance transform of `mask` (nonzero pixels
/// are sites), clamped at [`DistanceMap::MAX_DIST`]: exact integer
/// squared distances from a column pass and a windowed row pass, then
/// square roots (see the module doc).
///
/// # Panics
///
/// Panics if `mask.len() != width * height` or either dimension is 0.
pub fn distance_transform(mask: &[u8], width: u32, height: u32) -> DistanceMap {
    assert!(width > 0 && height > 0, "dimensions must be nonzero");
    assert_eq!(mask.len(), (width * height) as usize, "mask size mismatch");
    let (w, h) = (width as usize, height as usize);
    let cap = WINDOW as u8;

    // column pass: vertical distance to the nearest site, capped
    let mut g = vec![0u8; w * h];
    let mut run = vec![cap; w];
    for (g_row, m_row) in g.chunks_exact_mut(w).zip(mask.chunks_exact(w)) {
        for ((gv, &m), r) in g_row.iter_mut().zip(m_row).zip(&mut run) {
            *r = if m != 0 { 0 } else { (*r + 1).min(cap) };
            *gv = *r;
        }
    }
    run.fill(cap);
    for (g_row, m_row) in g.chunks_exact_mut(w).zip(mask.chunks_exact(w)).rev() {
        for ((gv, &m), r) in g_row.iter_mut().zip(m_row).zip(&mut run) {
            *r = if m != 0 { 0 } else { (*r + 1).min(cap) };
            *gv = (*gv).min(*r);
        }
    }

    // row pass: windowed minimum of g² + dx² over |dx| < WINDOW, on a
    // row padded with the clamp so every window stays in bounds
    let mut sqrt = [0.0f32; CLAMP_SQ as usize + 1];
    for (d2, s) in sqrt.iter_mut().enumerate() {
        *s = (d2 as f64).sqrt() as f32;
    }
    let pad = WINDOW - 1;
    let mut row = vec![CLAMP_SQ; w + 2 * pad];
    let mut best = vec![0i16; w];
    let mut out = vec![0.0f32; w * h];
    for (g_row, out_row) in g.chunks_exact(w).zip(out.chunks_exact_mut(w)) {
        for (r, &gv) in row[pad..pad + w].iter_mut().zip(g_row) {
            *r = i16::from(gv) * i16::from(gv);
        }
        best.copy_from_slice(&row[pad..pad + w]);
        for dx in 1..WINDOW {
            let dx2 = (dx * dx) as i16;
            let left = &row[pad - dx..pad - dx + w];
            let right = &row[pad + dx..pad + dx + w];
            for ((b, &l), &r) in best.iter_mut().zip(left).zip(right) {
                *b = (*b).min(l.min(r) + dx2);
            }
        }
        for (o, &b) in out_row.iter_mut().zip(&best) {
            *o = sqrt[b as usize];
        }
    }
    DistanceMap {
        width,
        height,
        data: out,
    }
}

/// Central-difference gradient maps `(∂DT/∂u, ∂DT/∂v)` of a distance
/// map — pre-computed per keyframe so the Jacobian's `(I_u, I_v)` terms
/// become lookups. Border pixels take the one-sided difference; a map
/// one pixel wide (or high) has a zero gradient along that axis.
pub fn gradient_maps(dt: &DistanceMap) -> (Vec<f32>, Vec<f32>) {
    let (w, h) = (dt.width as usize, dt.height as usize);
    let mut gx = vec![0.0f32; w * h];
    let mut gy = vec![0.0f32; w * h];
    for y in 0..h {
        let (ym, yp) = (y.saturating_sub(1), (y + 1).min(h - 1));
        let row = &dt.data[y * w..(y + 1) * w];
        let above = &dt.data[ym * w..(ym + 1) * w];
        let below = &dt.data[yp * w..(yp + 1) * w];
        let dy = (yp - ym).max(1) as f32;
        for ((g, &a), &b) in gy[y * w..(y + 1) * w].iter_mut().zip(above).zip(below) {
            *g = (b - a) / dy;
        }
        let gx_row = &mut gx[y * w..(y + 1) * w];
        if w > 1 {
            gx_row[0] = row[1] - row[0];
            gx_row[w - 1] = row[w - 1] - row[w - 2];
        }
        for (g, pair) in gx_row[1..].iter_mut().zip(row.windows(3)) {
            *g = (pair[2] - pair[0]) / 2.0;
        }
    }
    (gx, gy)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The clamped exact transform by search: for each pixel, the
    /// nearest site over every site row, visited outward from the
    /// pixel's row until the row offset alone is no closer.
    fn brute_force(mask: &[u8], w: u32, h: u32) -> Vec<f32> {
        let (w, h) = (w as i64, h as i64);
        let rows: Vec<Vec<i64>> = (0..h)
            .map(|y| {
                (0..w)
                    .filter(|&x| mask[(y * w + x) as usize] != 0)
                    .collect()
            })
            .collect();
        let mut out = Vec::with_capacity((w * h) as usize);
        for y in 0..h {
            for x in 0..w {
                let mut best = i64::MAX;
                for dy in 0..h {
                    if dy * dy >= best {
                        break;
                    }
                    for sy in [y - dy, y + dy] {
                        for &sx in rows
                            .get(sy as usize)
                            .filter(|_| sy >= 0)
                            .into_iter()
                            .flatten()
                        {
                            best = best.min((x - sx) * (x - sx) + dy * dy);
                        }
                    }
                }
                out.push(if best == i64::MAX {
                    DistanceMap::MAX_DIST
                } else {
                    ((best as f64).sqrt() as f32).min(DistanceMap::MAX_DIST)
                });
            }
        }
        out
    }

    /// A mask with about one site in `every` pixels, from a seeded
    /// xorshift stream.
    fn random_mask(w: u32, h: u32, every: u32, seed: u32) -> Vec<u8> {
        let mut s = seed.wrapping_mul(0x9E37_79B9) | 1;
        (0..w * h)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                u8::from(s % every == 0)
            })
            .collect()
    }

    fn assert_bit_exact(mask: &[u8], w: u32, h: u32, what: &str) {
        let dt = distance_transform(mask, w, h);
        let bf = brute_force(mask, w, h);
        for (i, (&got, &want)) in dt.data().iter().zip(&bf).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{what} {w}x{h} pixel {i}: {got} vs {want}"
            );
        }
    }

    /// Bit-exact against brute force at every size from 1x1 to 45x45
    /// (wider and taller than the 30 px window), each with a random
    /// mask (densities 1/40, 1/6 and 1/2 in turn) and a single site;
    /// full masks at a few sizes; and one QVGA mask.
    #[test]
    fn matches_brute_force_on_random_masks() {
        for w in 1..=45u32 {
            for h in 1..=45u32 {
                let every = [40, 6, 2][((w + h) % 3) as usize];
                assert_bit_exact(&random_mask(w, h, every, w * 100 + h), w, h, "random");
                let (sx, sy) = (w * 2 / 3, h / 3);
                let mut single = vec![0u8; (w * h) as usize];
                single[(sy * w + sx) as usize] = 255;
                let dt = distance_transform(&single, w, h);
                for (i, &got) in dt.data().iter().enumerate() {
                    let (dx, dy) = ((i as u32 % w).abs_diff(sx), (i as u32 / w).abs_diff(sy));
                    let want =
                        (f64::from(dx * dx + dy * dy).sqrt() as f32).min(DistanceMap::MAX_DIST);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "single site {w}x{h} pixel {i}"
                    );
                }
            }
        }
        for (w, h) in [(1, 1), (1, 45), (45, 1), (45, 45)] {
            let full = distance_transform(&vec![1u8; (w * h) as usize], w, h);
            assert!(
                full.data().iter().all(|&d| d.to_bits() == 0),
                "full {w}x{h}"
            );
        }
        assert_bit_exact(&random_mask(320, 240, 25, 7), 320, 240, "qvga");
    }

    #[test]
    fn zero_at_sites() {
        let (w, h) = (10u32, 10u32);
        let mut mask = vec![0u8; 100];
        mask[5 * 10 + 5] = 255;
        let dt = distance_transform(&mask, w, h);
        assert_eq!(dt.get(5, 5), 0.0);
        assert!((dt.get(5, 8) - 3.0).abs() < 1e-6);
        assert!((dt.get(8, 9) - 25.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn empty_mask_clamps_to_max() {
        for (w, h) in [(8, 8), (1, 1), (1, 45), (45, 1), (61, 61)] {
            let dt = distance_transform(&vec![0u8; (w * h) as usize], w, h);
            assert!(dt.data().iter().all(|&d| d == DistanceMap::MAX_DIST));
        }
    }

    #[test]
    fn bilinear_sampling_interpolates() {
        let mut mask = vec![0u8; 64];
        mask[0] = 1; // site at (0,0)
        let dt = distance_transform(&mask, 8, 8);
        let mid = dt.sample(1.5, 0.0);
        assert!((mid - 1.5).abs() < 1e-5);
        // clamps outside
        let far = dt.sample(-3.0, -3.0);
        assert_eq!(far, dt.get(0, 0));
    }

    /// A map one pixel wide or high samples its edge instead of reading
    /// past it.
    #[test]
    fn sampling_clamps_on_maps_narrower_than_two_pixels() {
        let dt = distance_transform(&[1], 1, 1);
        assert_eq!(dt.sample(0.0, 0.0), 0.0);
        assert_eq!(dt.sample(5.0, -2.0), 0.0);
        let column = distance_transform(&[1, 0, 0, 0], 1, 4);
        assert_eq!(column.sample(0.7, 2.0), 2.0);
        assert!((column.sample(0.0, 2.5) - 2.5).abs() < 1e-6);
        let row = distance_transform(&[0, 0, 0, 1], 4, 1);
        assert_eq!(row.sample(1.0, 0.3), 2.0);
        assert_eq!(row.sample(9.0, 9.0), 0.0);
    }

    #[test]
    fn gradient_points_away_from_site() {
        let mut mask = vec![0u8; 15 * 15];
        mask[7 * 15 + 7] = 1;
        let dt = distance_transform(&mask, 15, 15);
        let (gx, gy) = gradient_maps(&dt);
        // right of the site: distance increases with x
        assert!(gx[(7 * 15 + 10) as usize] > 0.5);
        // above the site (smaller y): distance decreases with y
        assert!(gy[(4 * 15 + 7) as usize] < -0.5);
    }
}
