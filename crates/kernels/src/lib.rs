#![warn(missing_docs)]

//! Edge-detection kernels of the EBVO pipeline (§3.2 of the paper).
//!
//! Each kernel is defined **twice**: once as a plain-Rust reference
//! ([`scalar`], fixing the exact output semantics — zero padding
//! outside the image, truncating averages, saturating sums) and once
//! as a macro-op IR program ([`ir`]) lowered onto the PIM machine by
//! [`pimvo_pim::lower()`] at a chosen [`pimvo_pim::LowerLevel`]:
//!
//! * `Naive` — the paper's unoptimized mapping (stand-alone shifts,
//!   every intermediate written back to SRAM), the Fig. 9-b comparison
//!   point;
//! * `Opt` — the paper's optimized mapping (Figs. 2-4): fused pixel
//!   shifts, Tmp-Reg chaining and the simplified branch-free NMS;
//! * `MultiReg(n)` — the §5.4 scaling study: spills held in extra
//!   temporary registers instead of SRAM scratch rows.
//!
//! [`pim_pool::EdgeKernels`] is the one front end: it lowers the
//! programs at a level and runs them sharded across a
//! [`pimvo_pim::PimArrayPool`] (one machine is a pool of one). All
//! levels produce **bit-identical** edge maps at every pool size; they
//! differ only in cycle and energy cost. Integration and property tests
//! enforce the equivalence.
//!
//! ```
//! use pimvo_kernels::{scalar, EdgeConfig, GrayImage};
//!
//! let img = GrayImage::from_fn(32, 24, |x, y| ((x * 8) ^ (y * 8)) as u8);
//! let maps = scalar::edge_detect(&img, &EdgeConfig::default());
//! assert_eq!(maps.mask.width(), 32);
//! ```

mod config;
mod image;
pub mod ir;
pub mod pim_pool;
pub mod pim_util;
pub mod scalar;

pub use config::{
    row_or_zero, EdgeConfig, DEFAULT_BORDER, DEFAULT_TH1, DEFAULT_TH2, NEIGHBOR_SHIFT,
    RECENTER_SHIFT,
};
pub use image::{DepthImage, GrayImage};

/// Output of the edge-detection pipeline: the intermediate low-pass and
/// high-pass maps plus the final binary edge mask (0 or 255).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeMaps {
    /// Low-pass filtered image.
    pub lpf: GrayImage,
    /// High-pass (gradient-magnitude approximation) map.
    pub hpf: GrayImage,
    /// Binary edge mask: 255 where an edge pixel was detected.
    pub mask: GrayImage,
}

impl EdgeMaps {
    /// Number of detected edge pixels.
    pub fn edge_count(&self) -> usize {
        self.mask.pixels().iter().filter(|&&p| p != 0).count()
    }
}
