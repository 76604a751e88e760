//! Shared helpers for mapping image kernels onto the PIM machine.

use crate::GrayImage;
use pimvo_pim::{ArrayConfig, LaneWidth, PimMachine, Signedness};

/// Row-region layout used by the edge-detection mappings.
///
/// The paper's single `(320*8) x 256` array holds exactly one 8-bit QVGA
/// image; intermediate maps either overwrite consumed rows or live in
/// additional banks. We model the banked variant (identical op counts
/// and access energies, simpler bookkeeping): each region is one 256-row
/// bank holding one full-height map.
#[derive(Debug, Clone, Copy)]
pub struct Regions {
    /// Input image rows.
    pub input: usize,
    /// First intermediate map (LPF pass 1 / scratch).
    pub aux1: usize,
    /// Second intermediate map (LPF output).
    pub aux2: usize,
    /// Third intermediate map (HPF output).
    pub aux3: usize,
    /// Output mask rows.
    pub out: usize,
    /// Scratch rows (per-row temporaries, threshold rows, zero row).
    pub scratch: usize,
}

impl Regions {
    /// Region size in rows (one bank).
    pub const BANK: usize = 256;

    /// Builds the standard 6-bank layout.
    ///
    /// # Panics
    ///
    /// Panics if the machine has fewer than `6 * 256` rows or the image
    /// is taller than one bank.
    pub fn for_machine(m: &PimMachine, img_height: u32) -> Regions {
        assert!(
            m.config().rows >= 6 * Self::BANK,
            "edge-detection mapping needs a 6-bank array \
             (ArrayConfig::qvga_banks(6)); machine has {} rows",
            m.config().rows
        );
        assert!(
            img_height as usize <= Self::BANK,
            "image height {img_height} exceeds the {}-row bank",
            Self::BANK
        );
        Regions {
            input: 0,
            aux1: Self::BANK,
            aux2: 2 * Self::BANK,
            aux3: 3 * Self::BANK,
            out: 4 * Self::BANK,
            scratch: 5 * Self::BANK,
        }
    }

    /// A dedicated always-zero row (image border padding).
    pub fn zero_row(&self) -> usize {
        self.scratch
    }

    /// Scratch row `i` (temporaries within one row's processing).
    pub fn s(&self, i: usize) -> usize {
        self.scratch + 1 + i
    }

    /// Threshold broadcast row `i`.
    pub fn th(&self, i: usize) -> usize {
        self.scratch + 16 + i
    }
}

/// Loads image rows `y0..y1` into rows `base + y0 .. base + y1`, one
/// image row per word line (8-bit lanes). Rows keep their global
/// indices, so a strip-loaded shard is row-for-row identical to a full
/// load. Returns the image width.
///
/// # Panics
///
/// Panics if the image is wider than the word line or `y1` exceeds its
/// height.
pub fn load_image_rows(
    m: &mut PimMachine,
    base: usize,
    img: &GrayImage,
    y0: u32,
    y1: u32,
) -> usize {
    m.set_lanes(LaneWidth::W8, Signedness::Unsigned);
    let w = img.width() as usize;
    assert!(
        w <= m.lanes(),
        "image width {w} exceeds {} lanes",
        m.lanes()
    );
    assert!(y1 <= img.height(), "strip {y0}..{y1} exceeds image height");
    for y in y0..y1 {
        let lanes = img.row(y).iter().map(|&p| i64::from(p));
        m.host_write_lanes_iter(base + y as usize, lanes)
            .expect("host I/O row in range");
    }
    w
}

/// Partitions `h` rows into `n` contiguous strips `[y0, y1)` of
/// near-equal height (the first `h % n` strips get one extra row).
/// Strips beyond the row count come out empty, so a pool larger than
/// the image degrades gracefully.
pub fn partition_rows(h: u32, n: usize) -> Vec<(i64, i64)> {
    assert!(n >= 1, "at least one strip");
    let (h, n) = (h as i64, n as i64);
    let (base, extra) = (h / n, h % n);
    let mut strips = Vec::with_capacity(n as usize);
    let mut y = 0;
    for i in 0..n {
        let len = base + i64::from(i < extra);
        strips.push((y, y + len));
        y += len;
    }
    strips
}

pub use crate::config::row_or_zero;

/// Sets up the ghost-lane mask for images narrower than the word line.
///
/// At the native QVGA width the image occupies every lane, and a
/// negative pixel shift simply drops data off the word-line edge. For
/// narrower images (tests, crops) the same shift would smear valid data
/// into lanes beyond the image width, breaking the zero-padding
/// invariant the kernels rely on. This broadcasts a `0xFF`-below-width /
/// `0`-beyond mask into a scratch row; returns `None` when the image is
/// full-width and no masking is needed.
pub fn ghost_mask(m: &mut PimMachine, regions: &Regions, width: usize) -> Option<usize> {
    m.set_lanes(LaneWidth::W8, Signedness::Unsigned);
    let row = ghost_mask_row(m.config(), regions, width)?;
    let vals = (0..m.lanes()).map(|i| if i < width { 0xFF } else { 0 });
    m.host_write_lanes_iter(row, vals)
        .expect("host I/O row in range");
    Some(row)
}

/// The row [`ghost_mask`] writes its mask to on arrays of geometry
/// `config` for an image `width` pixels wide, or `None` when the image
/// fills the word line — without touching a machine.
pub(crate) fn ghost_mask_row(
    config: &ArrayConfig,
    regions: &Regions,
    width: usize,
) -> Option<usize> {
    (width < config.lanes(LaneWidth::W8)).then(|| regions.th(8))
}
