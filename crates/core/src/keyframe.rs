//! Keyframe state: edge mask, distance transform, gradient maps, and
//! their quantized forms for the PIM backend.

use crate::quant::QKeyframe;
use pimvo_kernels::GrayImage;
use pimvo_mcu::KeyframeTables;
use pimvo_vomath::{distance_transform, gradient_maps, Pinhole, SE3};

/// A keyframe with its pre-computed lookup tables (Fig. 1-a: the
/// distance-transform map and its gradient are built once per keyframe
/// so per-iteration residuals and Jacobian terms are lookups).
#[derive(Debug, Clone)]
pub struct Keyframe {
    /// Index of the frame this keyframe was built from.
    pub frame_index: usize,
    /// World-from-keyframe pose (estimated at promotion time).
    pub pose_wk: SE3,
    /// Binary edge mask of the keyframe.
    pub edge_mask: GrayImage,
    /// Float lookup tables (baseline backend).
    pub tables: KeyframeTables,
    /// Quantized lookup tables (PIM backend).
    pub q_tables: QKeyframe,
}

impl Keyframe {
    /// Builds a keyframe from an edge mask: computes the distance
    /// transform, its gradients and the quantized tables.
    pub fn build(frame_index: usize, pose_wk: SE3, edge_mask: GrayImage, cam: &Pinhole) -> Self {
        let dt = distance_transform(edge_mask.pixels(), edge_mask.width(), edge_mask.height());
        let (grad_x, grad_y) = gradient_maps(&dt);
        let tables = KeyframeTables { dt, grad_x, grad_y };
        let q_tables = QKeyframe::quantize(&tables, cam);
        Keyframe {
            frame_index,
            pose_wk,
            edge_mask,
            tables,
            q_tables,
        }
    }

    /// Number of edge pixels in the keyframe.
    pub fn edge_count(&self) -> usize {
        self.edge_mask.pixels().iter().filter(|&&p| p != 0).count()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn build_produces_consistent_tables() {
        let cam = Pinhole::qvga();
        let mut mask = GrayImage::new(64, 48);
        for y in 5..43 {
            mask.set(30, y, 255);
        }
        let kf = Keyframe::build(7, SE3::IDENTITY, mask, &cam);
        assert_eq!(kf.frame_index, 7);
        assert_eq!(kf.edge_count(), 38);
        // DT zero on the edge, grows away from it
        assert_eq!(kf.tables.dt.get(30, 20), 0.0);
        assert!(kf.tables.dt.get(35, 20) > 4.0);
        // quantized tables agree with the float ones
        let q = &kf.q_tables;
        assert_eq!(q.dt[(20 * 64 + 30) as usize], 0);
        assert!(q.dt[(20 * 64 + 35) as usize] >= 4 << 4);
    }

    /// FNV-1a over every table `Keyframe::build` produces, in a fixed
    /// order: f32 DT, `∂DT/∂u`, `∂DT/∂v` (bit patterns), then the Q12.4
    /// DT and the Q14.2 gradients.
    pub(crate) fn tables_digest(kf: &Keyframe) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for table in [kf.tables.dt.data(), &kf.tables.grad_x, &kf.tables.grad_y] {
            for v in table {
                eat(&v.to_bits().to_le_bytes());
            }
        }
        let q = &kf.q_tables;
        for table in [&q.dt, &q.gx, &q.gy] {
            for v in table {
                eat(&v.to_le_bytes());
            }
        }
        h
    }

    /// The tables built from the first rendered xyz frame's edge mask
    /// are pinned bit for bit: a faster distance transform, gradient or
    /// quantization pass must reproduce them exactly.
    #[test]
    fn build_tables_are_pinned() {
        let seq = pimvo_scene::Sequence::generate(pimvo_scene::SequenceKind::Xyz, 1);
        let maps = pimvo_kernels::scalar::edge_detect(
            &seq.frames[0].gray,
            &pimvo_kernels::EdgeConfig::default(),
        );
        let kf = Keyframe::build(0, SE3::IDENTITY, maps.mask, &seq.camera);
        assert!(kf.edge_count() > 1000, "{}", kf.edge_count());
        assert_eq!(
            tables_digest(&kf),
            0xd9ac_8da8_60a4_8218,
            "digest {:#018x}",
            tables_digest(&kf)
        );
    }
}
