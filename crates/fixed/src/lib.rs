#![warn(missing_docs)]

//! Q-format fixed-point arithmetic for the pimvo stack.
//!
//! The DAC'22 paper quantizes every stage of the EBVO pipeline to a
//! specific two's-complement Q-format so that it can be evaluated on the
//! bit-parallel SRAM-PIM datapath:
//!
//! * 3D features in inverse-depth coordinates: **Q4.12** (16-bit),
//! * rotation/translation entries (all within (-1, 1)): **Q1.15** (16-bit),
//! * Jacobian entries: **Q14.2** (16-bit),
//! * Hessian and steepest-descent accumulators: **Q29.3** (32-bit).
//!
//! This crate provides a const-generic [`Q`] type covering those formats
//! (and any other that fits in 64 bits), with saturating conversions,
//! wrapping/saturating arithmetic and explicit rescaling — exactly the
//! operations the PIM ISA offers, so the quantized algorithm layer and the
//! hardware value model share one arithmetic definition.
//!
//! ```
//! use pimvo_fixed::{Q4_12, Q1_15};
//!
//! let a = Q4_12::from_f64(1.5);
//! let r = Q1_15::from_f64(0.25);
//! // Multiply a Q4.12 by a Q1.15: the raw product is Q5.27; rescale back.
//! let prod = a.mul_rescale::<4, 12>(r);
//! assert!((prod.to_f64() - 0.375).abs() < 2.0 / 4096.0);
//! ```

mod q;
pub mod sat;

pub use q::Q;

/// 16-bit feature coordinate format (4 integer bits incl. sign, 12 fractional).
pub type Q4_12 = Q<4, 12>;
/// 16-bit rotation/translation format (values in (-1, 1)).
pub type Q1_15 = Q<1, 15>;
/// 16-bit Jacobian entry format.
pub type Q14_2 = Q<14, 2>;
/// 32-bit Hessian/steepest-descent accumulator format.
pub type Q29_3 = Q<29, 3>;
/// 8-bit signed sample (integer only).
pub type Q8_0 = Q<8, 0>;
/// 16-bit signed integer sample.
pub type Q16_0 = Q<16, 0>;
/// A 32-bit intermediate with 12 fractional bits (warp X/Y/Z accumulators).
pub type Q20_12 = Q<20, 12>;
