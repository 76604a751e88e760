//! Versioned, checksummed tracker snapshots — zero-external-dep binary
//! serialization for kill-and-restore.
//!
//! A [`Checkpoint`] captures everything the tracker needs to resume a
//! sequence mid-stream: poses, motion prior, recovery state, the
//! degradation-ladder rung, the keyframe edge masks (the quantized
//! lookup tables are *rebuilt* deterministically from the masks by
//! [`crate::Keyframe::build`], so the snapshot stays compact and the
//! restored tables are bit-identical), the 3D map points, and the
//! array pool's [`PoolSnapshot`]: each array's state (quarantine and
//! probation included) and the recovery counters, in the one encoding
//! the fleet manifest uses too. All floating-point state round-trips
//! through `f64::to_bits`, so a restored run replays the uninterrupted
//! run exactly.
//!
//! Rebuilding instead of storing costs time on a restore. A QVGA
//! keyframe's tables take ~1 ms of host time: a clamped-window
//! distance transform (~0.3 ms), the gradient maps and the quantized
//! tables. Storing them would add six `320 × 240` tables (~1.4 MB) to a
//! ~77 KB snapshot, and the CRC over the whole frame (~1 ns/byte) is
//! already most of a snapshot's encode and decode time. A process that
//! still holds the tables keeps them beside the snapshot instead
//! ([`crate::Tracker::into_pyramid`], as the serving fleet's eviction
//! does), and [`crate::Tracker::restore_reusing`] adopts them when they
//! match the snapshot's masks byte for byte.
//!
//! # On-disk format (version 3)
//!
//! One [`pimvo_telemetry::container`] frame with magic `PIMVOCKP`. The
//! payload opens with the estimator config hash (u64 LE, FNV-1a over
//! the estimator config); the field list follows in the source, and
//! the pool section is [`PoolSnapshot::encode`].
//!
//! Writers go through the container's atomic writer (temp file, fsync,
//! rename), so a crash mid-write never leaves a truncated snapshot
//! under the real name. Readers reject framing damage with a typed
//! [`ContainerError`] and a snapshot of another configuration with
//! [`CheckpointError::ConfigMismatch`]; foreign bytes never panic.

use crate::supervisor::DegradeRung;
use crate::tracker::TrackingState;
use pimvo_kernels::GrayImage;
use pimvo_pim::PoolSnapshot;
use pimvo_telemetry::container::{self, ContainerError, Reader, Writer};
use pimvo_vomath::{Mat3, Vec3, SE3, SO3};
use std::fmt;
use std::path::Path;

/// Magic prefix of every checkpoint file.
pub const MAGIC: [u8; 8] = *b"PIMVOCKP";
/// Current (and only) format version.
pub const VERSION: u16 = 3;
/// Sanity bound on keyframe pyramid levels in a snapshot.
const MAX_LEVELS: usize = 8;
/// Sanity bound on image dimensions in a snapshot.
const MAX_DIM: u32 = 1 << 14;

/// Why a snapshot could not be written or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// The snapshot was taken under a different tracker configuration.
    ConfigMismatch {
        /// Config hash stored in the snapshot.
        snapshot: u64,
        /// Config hash of the restoring tracker.
        current: u64,
    },
    /// The file could not be written, read or decoded, or its payload
    /// does not fit the restoring tracker.
    Container(ContainerError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::ConfigMismatch { snapshot, current } => {
                write!(
                    f,
                    "checkpoint config hash {snapshot:#018x} does not match tracker {current:#018x}"
                )
            }
            CheckpointError::Container(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Container(e) => Some(e),
            CheckpointError::ConfigMismatch { .. } => None,
        }
    }
}

impl From<ContainerError> for CheckpointError {
    fn from(e: ContainerError) -> Self {
        CheckpointError::Container(e)
    }
}

/// Keyframe state in a snapshot: the per-level edge masks plus the
/// shared pose. Lookup tables (distance transform, gradients, quantized
/// forms) are rebuilt deterministically on restore, unless a kept,
/// byte-identical pyramid is handed back
/// ([`crate::Tracker::restore_reusing`]).
#[derive(Debug, Clone, PartialEq)]
pub struct KeyframeSnapshot {
    /// Frame index the keyframe was promoted at.
    pub frame_index: usize,
    /// World-from-keyframe pose.
    pub pose_wk: SE3,
    /// Per-pyramid-level binary edge masks (index 0 = full resolution).
    pub masks: Vec<GrayImage>,
}

/// Map state in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MapSnapshot {
    /// Deduplication voxel size (meters).
    pub voxel_m: f64,
    /// World-frame map points.
    pub points: Vec<Vec3>,
}

/// A complete tracker snapshot — build with [`crate::Tracker::checkpoint`],
/// apply with [`crate::Tracker::restore`].
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Hash of the estimator configuration the snapshot was taken
    /// under; restore refuses a mismatch.
    pub config_hash: u64,
    /// Next frame index the tracker will process.
    pub frame_index: usize,
    /// Tracking quality state.
    pub state: TrackingState,
    /// Consecutive bad frames in the current degraded stretch.
    pub bad_frames: usize,
    /// World-from-camera pose of the latest frame.
    pub pose_wc: SE3,
    /// Keyframe-from-camera pose of the latest frame.
    pub pose_kc: SE3,
    /// World-from-camera pose of the previous frame.
    pub prev_pose_wc: SE3,
    /// Constant-velocity motion prior.
    pub motion: SE3,
    /// Degradation-ladder rung the supervisor will start the next
    /// frame at.
    pub rung: DegradeRung,
    /// Deadline misses accumulated so far.
    pub deadline_misses: u64,
    /// Frames coasted by the supervisor so far.
    pub coasted_frames: u64,
    /// Keyframe state (absent before bootstrap).
    pub keyframes: Option<KeyframeSnapshot>,
    /// 3D map state (absent when map building is off).
    pub map: Option<MapSnapshot>,
    /// Array-pool health (absent on backends without a pool).
    pub pool: Option<PoolSnapshot>,
}

// ------------------------------------------------------- config hashing

/// FNV-1a accumulator for the config hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Deterministic, RNG-free hash of the *estimator* configuration —
/// every field that affects what poses a sequence produces. The
/// deadline budget is not part of it: it is a runtime QoS knob on the
/// tracker ([`crate::Tracker::set_frame_budget_cycles`]; chaos
/// harnesses and `--frame-budget-cycles` adjust it mid-run), and a
/// snapshot taken under a squeezed budget must restore into a tracker
/// whose budget has since changed.
pub fn config_hash(cfg: &crate::TrackerConfig) -> u64 {
    let mut h = Fnv::new();
    // camera
    h.f64(cfg.camera.f);
    h.f64(cfg.camera.cx);
    h.f64(cfg.camera.cy);
    h.u64(cfg.camera.width as u64);
    h.u64(cfg.camera.height as u64);
    // edge thresholds
    h.bytes(&[cfg.edge.th1, cfg.edge.th2]);
    h.u64(cfg.edge.border as u64);
    // LM solver
    h.u64(cfg.lm.max_iterations as u64);
    h.f64(cfg.lm.initial_lambda);
    h.f64(cfg.lm.lambda_up);
    h.f64(cfg.lm.lambda_down);
    h.f64(cfg.lm.min_delta_norm);
    h.f64(cfg.lm.min_rel_decrease);
    h.f64(cfg.lm.lambda_max);
    // keyframe policy
    h.f64(cfg.keyframe.max_translation);
    h.f64(cfg.keyframe.max_rotation);
    h.f64(cfg.keyframe.min_overlap);
    // recovery
    h.f64(cfg.recovery.max_mean_residual);
    h.f64(cfg.recovery.min_valid_fraction);
    h.u64(cfg.recovery.max_bad_frames as u64);
    // pipeline shape
    h.u64(cfg.pyramid_levels as u64);
    h.u64(cfg.max_features as u64);
    h.bytes(&[cfg.build_map as u8]);
    h.f64(cfg.map_voxel_m);
    h.f64(cfg.min_depth);
    h.f64(cfg.max_depth);
    h.0
}

// --------------------------------------------------------------- codec

fn put_vec3(w: &mut Writer, v: &Vec3) {
    w.f64(v.x);
    w.f64(v.y);
    w.f64(v.z);
}

fn put_se3(w: &mut Writer, p: &SE3) {
    for row in &p.rotation.matrix().m {
        for &e in row {
            w.f64(e);
        }
    }
    put_vec3(w, &p.translation);
}

fn read_vec3(r: &mut Reader) -> Result<Vec3, ContainerError> {
    Ok(Vec3::new(r.f64()?, r.f64()?, r.f64()?))
}

fn read_se3(r: &mut Reader) -> Result<SE3, ContainerError> {
    let mut m = [[0.0f64; 3]; 3];
    for row in &mut m {
        for e in row.iter_mut() {
            *e = r.f64()?;
        }
    }
    let t = read_vec3(r)?;
    let pose = SE3::new(SO3::from_matrix_unchecked(Mat3 { m }), t);
    if !pose_finite(&pose) {
        return Err(ContainerError::Malformed("non-finite pose"));
    }
    Ok(pose)
}

/// Every component of the pose is a finite number.
pub fn pose_finite(p: &SE3) -> bool {
    p.rotation
        .matrix()
        .m
        .iter()
        .flatten()
        .all(|e| e.is_finite())
        && p.translation.x.is_finite()
        && p.translation.y.is_finite()
        && p.translation.z.is_finite()
}

impl Checkpoint {
    /// Serializes the snapshot into its container frame (see the
    /// module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(&MAGIC, VERSION);
        w.u64(self.config_hash);
        w.u64(self.frame_index as u64);
        w.u8(match self.state {
            TrackingState::Ok => 0,
            TrackingState::Degraded => 1,
            TrackingState::Lost => 2,
        });
        w.u64(self.bad_frames as u64);
        put_se3(&mut w, &self.pose_wc);
        put_se3(&mut w, &self.pose_kc);
        put_se3(&mut w, &self.prev_pose_wc);
        put_se3(&mut w, &self.motion);
        w.u8(self.rung.index() as u8);
        w.u64(self.deadline_misses);
        w.u64(self.coasted_frames);

        match &self.keyframes {
            None => w.u8(0),
            Some(kf) => {
                w.u8(1);
                w.u64(kf.frame_index as u64);
                put_se3(&mut w, &kf.pose_wk);
                w.u8(kf.masks.len() as u8);
                for mask in &kf.masks {
                    w.u32(mask.width());
                    w.u32(mask.height());
                    w.bytes(mask.pixels());
                }
            }
        }
        match &self.map {
            None => w.u8(0),
            Some(m) => {
                w.u8(1);
                w.f64(m.voxel_m);
                w.u64(m.points.len() as u64);
                for p in &m.points {
                    put_vec3(&mut w, p);
                }
            }
        }
        match &self.pool {
            None => w.u8(0),
            Some(p) => {
                w.u8(1);
                p.encode(&mut w);
            }
        }
        w.seal()
    }

    /// Parses and validates a snapshot: the container checks first
    /// ([`container::open`]), then the payload's structure.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let mut r = Reader::new(container::open(bytes, &MAGIC, VERSION)?);
        let ckpt = Self::decode(&mut r)?;
        r.finish()?;
        Ok(ckpt)
    }

    fn decode(r: &mut Reader) -> Result<Checkpoint, ContainerError> {
        let config_hash = r.u64()?;
        let frame_index = r.u64()? as usize;
        let state = match r.u8()? {
            0 => TrackingState::Ok,
            1 => TrackingState::Degraded,
            2 => TrackingState::Lost,
            _ => return Err(ContainerError::Malformed("invalid tracking state")),
        };
        let bad_frames = r.u64()? as usize;
        let pose_wc = read_se3(r)?;
        let pose_kc = read_se3(r)?;
        let prev_pose_wc = read_se3(r)?;
        let motion = read_se3(r)?;
        let rung = *DegradeRung::LADDER
            .get(r.u8()? as usize)
            .ok_or(ContainerError::Malformed("invalid degrade rung"))?;
        let deadline_misses = r.u64()?;
        let coasted_frames = r.u64()?;

        let keyframes = match r.u8()? {
            0 => None,
            1 => {
                let kf_index = r.u64()? as usize;
                let pose_wk = read_se3(r)?;
                let levels = r.u8()? as usize;
                if levels == 0 || levels > MAX_LEVELS {
                    return Err(ContainerError::Malformed("invalid pyramid level count"));
                }
                let mut masks = Vec::with_capacity(levels);
                for _ in 0..levels {
                    let w = r.u32()?;
                    let h = r.u32()?;
                    if w == 0 || h == 0 || w > MAX_DIM || h > MAX_DIM {
                        return Err(ContainerError::Malformed("invalid mask dimensions"));
                    }
                    let data = r.take((w as usize) * (h as usize))?.to_vec();
                    masks.push(GrayImage::from_raw(w, h, data));
                }
                Some(KeyframeSnapshot {
                    frame_index: kf_index,
                    pose_wk,
                    masks,
                })
            }
            _ => return Err(ContainerError::Malformed("invalid keyframe tag")),
        };

        let map = match r.u8()? {
            0 => None,
            1 => {
                let voxel_m = r.f64()?;
                if !(voxel_m.is_finite() && voxel_m > 0.0) {
                    return Err(ContainerError::Malformed("invalid voxel size"));
                }
                let count = r.count(24)?;
                let mut points = Vec::with_capacity(count);
                for _ in 0..count {
                    points.push(read_vec3(r)?);
                }
                Some(MapSnapshot { voxel_m, points })
            }
            _ => return Err(ContainerError::Malformed("invalid map tag")),
        };

        let pool = match r.u8()? {
            0 => None,
            1 => Some(PoolSnapshot::decode(r)?),
            _ => return Err(ContainerError::Malformed("invalid pool tag")),
        };

        Ok(Checkpoint {
            config_hash,
            frame_index,
            state,
            bad_frames,
            pose_wc,
            pose_kc,
            prev_pose_wc,
            motion,
            rung,
            deadline_misses,
            coasted_frames,
            keyframes,
            map,
            pool,
        })
    }

    /// Reads and validates a snapshot file.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Checkpoint, CheckpointError> {
        let bytes = std::fs::read(path).map_err(ContainerError::Io)?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimvo_pim::ArrayState;

    fn sample() -> Checkpoint {
        let pose = SE3::exp(&[0.1, -0.2, 0.05, 0.01, 0.02, -0.03]);
        let mask = GrayImage::from_fn(8, 6, |x, y| if (x + y) % 3 == 0 { 255 } else { 0 });
        Checkpoint {
            config_hash: 0xDEAD_BEEF_CAFE_F00D,
            frame_index: 42,
            state: TrackingState::Degraded,
            bad_frames: 2,
            pose_wc: pose,
            pose_kc: SE3::IDENTITY,
            prev_pose_wc: pose,
            motion: SE3::exp(&[0.0, 0.0, 0.001, 0.0, 0.0, 0.0]),
            rung: DegradeRung::ReduceFeatures,
            deadline_misses: 3,
            coasted_frames: 1,
            keyframes: Some(KeyframeSnapshot {
                frame_index: 40,
                pose_wk: pose,
                masks: vec![mask],
            }),
            map: Some(MapSnapshot {
                voxel_m: 0.02,
                points: vec![Vec3::new(1.0, -2.0, 3.0), Vec3::new(0.5, 0.25, 7.0)],
            }),
            pool: Some(PoolSnapshot {
                states: vec![
                    ArrayState::Active { scrubbed: true },
                    ArrayState::Quarantined,
                    ArrayState::Probation { left: 2 },
                ],
                retries: 5,
                redispatches: 1,
                dirty_accepted: 0,
            }),
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let ckpt = sample();
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(ckpt, back);
    }

    #[test]
    fn non_finite_pose_rejected() {
        let mut ckpt = sample();
        ckpt.pose_wc.translation.x = f64::NAN;
        let bytes = ckpt.to_bytes();
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Container(ContainerError::Malformed(
                "non-finite pose"
            )))
        ));
    }

    #[test]
    fn config_hash_is_stable_and_sensitive() {
        let a = crate::TrackerConfig::default();
        let mut b = a.clone();
        assert_eq!(config_hash(&a), config_hash(&b));
        b.max_features -= 1;
        assert_ne!(config_hash(&a), config_hash(&b));
        let mut c = a.clone();
        c.lm.initial_lambda *= 2.0;
        assert_ne!(config_hash(&a), config_hash(&c));
    }
}
