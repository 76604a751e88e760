#![warn(missing_docs)]

//! Umbrella crate re-exporting the pimvo workspace.
pub use pimvo_cnn as cnn;
pub use pimvo_core as core;
pub use pimvo_kernels as kernels;
pub use pimvo_mcu as mcu;
pub use pimvo_pim as pim;
pub use pimvo_scene as scene;
pub use pimvo_serve as serve;
pub use pimvo_telemetry as telemetry;
pub use pimvo_vomath as vomath;
