#![warn(missing_docs)]

//! Visual-odometry math substrate: small fixed-size linear algebra,
//! SO(3)/SE(3) Lie groups, the pinhole camera model, an exact clamped
//! distance transform, a 6x6 symmetric solver and a Levenberg-Marquardt
//! driver.
//!
//! Everything here is implemented from scratch (no external linear
//! algebra dependency) and sized for the EBVO problem: poses are 6-DOF
//! twists, the normal equations are 6x6, and the distance transform runs
//! on QVGA-scale binary edge masks.
//!
//! ```
//! use pimvo_vomath::{SE3, Vec3};
//!
//! let pose = SE3::exp(&[0.1, 0.0, 0.0, 0.0, 0.02, 0.0]);
//! let p = pose.transform(Vec3::new(1.0, 2.0, 3.0));
//! let back = pose.inverse().transform(p);
//! assert!((back.x - 1.0).abs() < 1e-12);
//! ```

mod camera;
mod dt;
mod linsolve;
mod lm;
mod mat;
mod se3;

pub use camera::Pinhole;
pub use dt::{distance_transform, gradient_maps, DistanceMap};
pub use linsolve::{solve_sym6, LinSolveError};
pub use lm::{LmConfig, LmOutcome, LmProblem, LmSolver, NormalEquations};
pub use mat::{Mat3, Vec3};
pub use se3::{Quaternion, SE3, SO3};

/// A 6-DOF twist `[v; w]`: translational velocity then rotational
/// (axis-angle rate), the tangent-space parameterization used by the LM
/// pose update `ξ' = exp(Δξ) ∘ ξ`.
pub type Twist = [f64; 6];
