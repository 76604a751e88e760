use std::fmt;

/// An 8-bit grayscale image in row-major order.
///
/// Out-of-bounds reads through [`GrayImage::get_zero`] return 0 — the
/// same zero-padding the PIM lane shifts produce at word-line borders —
/// so the scalar reference kernels and the PIM mappings share one
/// border semantics.
#[derive(Clone, PartialEq, Eq)]
pub struct GrayImage {
    width: u32,
    height: u32,
    data: Vec<u8>,
}

impl GrayImage {
    /// Creates a zero-filled image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        GrayImage {
            width,
            height,
            data: vec![0; (width * height) as usize],
        }
    }

    /// Builds an image from a per-pixel function `f(x, y)`.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> u8) -> Self {
        let mut img = GrayImage::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.data[(y * width + x) as usize] = f(x, y);
            }
        }
        img
    }

    /// Builds an image from raw row-major pixels.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    pub fn from_raw(width: u32, height: u32, data: Vec<u8>) -> Self {
        assert_eq!(
            data.len(),
            (width * height) as usize,
            "pixel buffer does not match dimensions"
        );
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        GrayImage {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[(y * self.width + x) as usize]
    }

    /// Pixel at signed coordinates, 0 outside the image (zero padding).
    #[inline]
    pub fn get_zero(&self, x: i64, y: i64) -> u8 {
        if x < 0 || y < 0 || x >= self.width as i64 || y >= self.height as i64 {
            0
        } else {
            self.data[(y as u32 * self.width + x as u32) as usize]
        }
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, v: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[(y * self.width + x) as usize] = v;
    }

    /// All pixels, row-major.
    #[inline]
    pub fn pixels(&self) -> &[u8] {
        &self.data
    }

    /// Mutable pixel access, row-major.
    #[inline]
    pub fn pixels_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// One image row as a slice.
    #[inline]
    pub fn row(&self, y: u32) -> &[u8] {
        assert!(y < self.height, "row out of bounds");
        let w = self.width as usize;
        &self.data[y as usize * w..(y as usize + 1) * w]
    }

    /// One image row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, y: u32) -> &mut [u8] {
        assert!(y < self.height, "row out of bounds");
        let w = self.width as usize;
        &mut self.data[y as usize * w..(y as usize + 1) * w]
    }

    /// Clears a `margin`-pixel border to zero (the valid-region policy
    /// shared by all kernel implementations).
    pub fn clear_border(&mut self, margin: u32) {
        let (w, h) = (self.width, self.height);
        for y in 0..h {
            for x in 0..w {
                if x < margin || y < margin || x >= w - margin || y >= h - margin {
                    self.data[(y * w + x) as usize] = 0;
                }
            }
        }
    }
}

impl fmt::Debug for GrayImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GrayImage({}x{})", self.width, self.height)
    }
}

/// A depth image in meters, row-major `f32`. Depth `<= 0` or non-finite
/// marks an invalid measurement.
#[derive(Clone, PartialEq)]
pub struct DepthImage {
    width: u32,
    height: u32,
    data: Vec<f32>,
}

impl DepthImage {
    /// Creates a depth image filled with invalid (0) depth.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        DepthImage {
            width,
            height,
            data: vec![0.0; (width * height) as usize],
        }
    }

    /// Builds a depth image from a per-pixel function.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> f32) -> Self {
        let mut img = DepthImage::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.data[(y * width + x) as usize] = f(x, y);
            }
        }
        img
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Depth at `(x, y)` in meters.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> f32 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[(y * self.width + x) as usize]
    }

    /// Sets the depth at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, v: f32) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[(y * self.width + x) as usize] = v;
    }

    /// True when the pixel holds a usable depth.
    #[inline]
    pub fn is_valid(&self, x: u32, y: u32) -> bool {
        let d = self.get(x, y);
        d.is_finite() && d > 0.0
    }

    /// All depths, row-major.
    #[inline]
    pub fn pixels(&self) -> &[f32] {
        &self.data
    }
}

impl fmt::Debug for DepthImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DepthImage({}x{})", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_get() {
        let img = GrayImage::from_fn(4, 3, |x, y| (x + 10 * y) as u8);
        assert_eq!(img.get(3, 2), 23);
        assert_eq!(img.get_zero(-1, 0), 0);
        assert_eq!(img.get_zero(4, 0), 0);
        assert_eq!(img.get_zero(1, 1), 11);
    }

    #[test]
    fn clear_border_zeroes_margin() {
        let mut img = GrayImage::from_fn(6, 6, |_, _| 9);
        img.clear_border(2);
        assert_eq!(img.get(0, 0), 0);
        assert_eq!(img.get(1, 3), 0);
        assert_eq!(img.get(2, 2), 9);
        assert_eq!(img.get(3, 3), 9);
        assert_eq!(img.get(4, 4), 0);
    }

    #[test]
    fn row_slice() {
        let img = GrayImage::from_fn(3, 2, |x, y| (x + y * 3) as u8);
        assert_eq!(img.row(1), &[3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_oob_panics() {
        GrayImage::new(2, 2).get(2, 0);
    }

    #[test]
    fn depth_validity() {
        let mut d = DepthImage::new(2, 2);
        assert!(!d.is_valid(0, 0));
        d.set(0, 0, 1.5);
        assert!(d.is_valid(0, 0));
        d.set(1, 1, f32::NAN);
        assert!(!d.is_valid(1, 1));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_raw_validates_len() {
        GrayImage::from_raw(2, 2, vec![0; 3]);
    }
}
