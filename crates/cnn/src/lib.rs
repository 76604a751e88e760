#![warn(missing_docs)]

//! CNN inference on the bit-parallel SRAM-PIM.
//!
//! The paper closes (§6) with: *"The proposed SRAM-PIM architecture has
//! developed a general-purpose SIMD computing scheme for image
//! processing and state estimation, and it may also benefit the
//! integration of a broader range of applications such as CNN."* This
//! crate substantiates that claim: quantized convolution, ReLU,
//! max-pooling and dense layers written as IR programs
//! ([`pimvo_pim::PimProgram`]), lowered and run on the same
//! [`pimvo_pim::PimMachine`] the EBVO pipeline uses, with scalar
//! reference implementations that the PIM mappings must match
//! bit-for-bit.
//!
//! Quantization scheme (deliberately aligned with the EBVO datapath):
//! unsigned 8-bit activations, signed 8-bit weights, 32-bit
//! accumulators, power-of-two output rescaling with a fused
//! ReLU/clamp — all realizable with the machine's mul/add/shift/max
//! primitives.
//!
//! ```
//! use pimvo_cnn::{Conv3x3, FeatureMap};
//!
//! let input = FeatureMap::from_fn(8, 8, |x, y| ((x + y) * 16) as u8);
//! let conv = Conv3x3::new([[0, 0, 0], [0, 1, 0], [0, 0, 0]], 0, 0); // identity
//! let out = conv.forward_scalar(&input);
//! assert_eq!(out.get(3, 3), input.get(3, 3));
//! ```

mod layer;
mod net;
mod pim;
mod shapes;

pub use layer::{Conv3x3, Dense, FeatureMap, MaxPool2x2};
pub use net::{SmallNet, TrainReport};
pub use pim::{PimCnn, CNN_BASE_ROW};
pub use shapes::{render_shape, Shape};
