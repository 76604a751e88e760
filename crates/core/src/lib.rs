#![warn(missing_docs)]

//! `pimvo-core` — edge-based visual odometry (EBVO) accelerated on a
//! bit-parallel SRAM processing-in-memory architecture: the primary
//! contribution of the DAC'22 paper this workspace reproduces.
//!
//! The tracker follows Fig. 1 of the paper:
//!
//! 1. **Edge detection** on every input frame (LPF → HPF → NMS), run on
//!    the PIM array with the optimized lowering of the IR kernels in
//!    [`pimvo_kernels::ir`].
//! 2. **Keyframe tables**: the distance transform of the keyframe edge
//!    mask and its gradient maps, pre-computed so the warp residual and
//!    part of the Jacobian become lookups.
//! 3. **Pose estimation**: every current-frame feature is warped to the
//!    keyframe in quantized inverse-depth coordinates (features Q4.12,
//!    pose Q1.15), the Jacobian is evaluated in Q14.2 with the
//!    shared-subexpression pipeline of Fig. 5-d, the normal equations
//!    are reduced in 32-bit Q29.3, and a CPU-side Levenberg-Marquardt
//!    step solves the 6x6 system.
//!
//! Two interchangeable backends drive the pipeline:
//!
//! * [`FloatBackend`] — the PicoVO-class baseline: `f64` math with the
//!   MCU cost model of [`pimvo_mcu`];
//! * [`PimBackend`] — the quantized pipeline with PIM cycle/energy
//!   accounting (edge detection executes on the simulated array for
//!   real; pose estimation runs the value-exact fast path, charged at
//!   the price of one machine-executed batch,
//!   [`pim_exec::BatchRunner::batch_cost`], times the batch count —
//!   see [`pim_exec`]).
//!
//! ```
//! use pimvo_core::{Tracker, TrackerConfig, BackendKind};
//! use pimvo_kernels::{GrayImage, DepthImage};
//!
//! let config = TrackerConfig::default();
//! let mut tracker = Tracker::new(config, BackendKind::Pim);
//! let gray = GrayImage::from_fn(320, 240, |x, y| ((x ^ y) & 0xFF) as u8);
//! let depth = DepthImage::from_fn(320, 240, |_, _| 2.0);
//! let result = tracker.process_frame(&gray, &depth);
//! assert!(result.is_keyframe); // the first frame always is
//! ```

pub mod ablation;
mod backend;
pub mod checkpoint;
mod config;
mod feature;
mod hessian;
mod jacobian;
mod keyframe;
pub mod mapping;
pub mod pim_exec;
mod qmath;
mod quant;
pub mod supervisor;
mod tracker;
mod warp;

pub use backend::{
    linearize_q, BackendKind, BackendStats, FloatBackend, PimBackend, TrackerBackend,
};
pub use checkpoint::{Checkpoint, CheckpointError};
pub use config::{KeyframePolicy, RecoveryConfig, TrackerConfig};
pub use feature::{extract_features, Feature};
pub use hessian::QNormalEquations;
pub use jacobian::{jacobian_float, jacobian_q};
pub use keyframe::Keyframe;
pub use mapping::EdgeMap3d;
pub use quant::{Interp, QCamera, QFeature, QKeyframe, QPose, GRAD_FRAC, PIX_FRAC, RES_FRAC};
pub use supervisor::{transition_legal, BudgetStatus, DegradeRung};
pub use tracker::{FrameResult, KeptPyramid, Tracker, TrackingState};
pub use warp::{project_q, warp_float, warp_q, WarpQ};
