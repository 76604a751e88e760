//! CNN layers executed on the PIM machine.
//!
//! Every mapping reproduces the scalar semantics of [`crate::layer`]
//! instruction by instruction (tests assert bit-equality). Feature maps
//! are stored one image row per word line in 32-bit lanes, so maps up
//! to 80 pixels wide fit a single `(320·8)`-bit row — ample for the
//! small-input CNN regime the paper's extension targets.
//!
//! Host I/O (loading inputs, reading results, the lane decimation
//! between a pooling layer and the next) is tracked separately from
//! compute, matching the EBVO pipeline's accounting. The final dense
//! head accumulates its handful of logits on the CPU, mirroring the
//! paper's treatment of the 6x6 solver.

#[cfg(test)]
use crate::layer::MaxPool2x2;
use crate::layer::{Conv3x3, Dense, FeatureMap};
use pimvo_pim::{AluOp, LaneWidth, LogicFunc, Operand, PimError, PimMachine, Shift, Signedness};

use Operand::{Row, Tmp};

/// Default base row for the CNN's staging area (above the EBVO
/// regions when sharing a machine).
pub const CNN_BASE_ROW: usize = 0;

/// Row-region offsets within the staging area.
struct CnnRows {
    base: usize,
}

impl CnnRows {
    const INPUT: usize = 0; // input feature map rows (up to 80)
    const OUTPUT: usize = 80; // output feature map rows
    const WEIGHTS: usize = 160; // 9 broadcast weight rows
    const BIAS: usize = 169;
    const ZERO: usize = 170;
    const C255: usize = 171;
    const ACC: usize = 172;
    const SHIFTED: usize = 173;
    /// Total rows the mapping needs.
    const SPAN: usize = 174;

    fn r(&self, off: usize) -> usize {
        self.base + off
    }
}

/// CNN layer execution on a [`PimMachine`].
#[derive(Debug)]
pub struct PimCnn<'m> {
    machine: &'m mut PimMachine,
    rows: CnnRows,
}

impl std::fmt::Debug for CnnRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CnnRows(base={})", self.base)
    }
}

impl<'m> PimCnn<'m> {
    /// Wraps a machine, staging CNN data starting at `base_row`.
    ///
    /// # Panics
    ///
    /// Panics if the machine lacks `base_row + 174` rows.
    pub fn new(machine: &'m mut PimMachine, base_row: usize) -> Self {
        assert!(
            base_row + CnnRows::SPAN <= machine.config().rows,
            "machine too small for the CNN staging area"
        );
        PimCnn {
            machine,
            rows: CnnRows { base: base_row },
        }
    }

    /// The wrapped machine (stats inspection).
    pub fn machine(&self) -> &PimMachine {
        self.machine
    }

    fn load_map(&mut self, base: usize, map: &FeatureMap) {
        self.machine.set_lanes(LaneWidth::W32, Signedness::Signed);
        for y in 0..map.height() {
            let lanes: Vec<i64> = (0..map.width()).map(|x| map.get(x, y) as i64).collect();
            self.machine
                .host_write_lanes(base + y as usize, &lanes)
                .expect(SPAN_CHECKED);
        }
    }

    fn read_map(&mut self, base: usize, width: u32, height: u32) -> FeatureMap {
        self.machine.set_lanes(LaneWidth::W32, Signedness::Signed);
        let mut out = FeatureMap::new(width, height);
        for y in 0..height {
            let lanes = self
                .machine
                .host_read_lanes(base + y as usize)
                .expect(SPAN_CHECKED);
            for x in 0..width {
                out.set(x, y, lanes[x as usize].clamp(0, 255) as u8);
            }
        }
        out
    }

    /// Runs a 3x3 convolution (+ fused ReLU/clamp) on the machine.
    ///
    /// # Panics
    ///
    /// Panics for maps wider than 80 pixels or taller than 80 rows.
    pub fn conv3x3(&mut self, conv: &Conv3x3, input: &FeatureMap) -> FeatureMap {
        let (w, h) = (input.width(), input.height());
        assert!(w <= 80 && h <= 80, "map exceeds the staging area");
        self.load_map(self.rows.r(CnnRows::INPUT), input);
        conv_rows(self.machine, &self.rows, conv, h).expect(SPAN_CHECKED);
        self.read_map(self.rows.r(CnnRows::OUTPUT), w, h)
    }

    /// Runs 2x2 max pooling on the machine. The in-row maxima are
    /// computed in the array; the lane decimation (keeping every second
    /// lane) is a host-side repack between layers, tracked as I/O.
    ///
    /// # Panics
    ///
    /// Panics for odd dimensions or maps wider than 80 pixels.
    pub fn maxpool2x2(&mut self, input: &FeatureMap) -> FeatureMap {
        let (w, h) = (input.width(), input.height());
        assert!(w % 2 == 0 && h % 2 == 0, "pooling needs even dimensions");
        assert!(w <= 80 && h <= 80, "map exceeds the staging area");
        self.load_map(self.rows.r(CnnRows::INPUT), input);
        pool_rows(self.machine, &self.rows, w, h).expect(SPAN_CHECKED)
    }

    /// Runs a dense layer: per output, a lane-parallel multiply and an
    /// in-array reduction; the few biased logits are summed on the CPU
    /// (as the paper does for its small 6x6 solve).
    ///
    /// # Panics
    ///
    /// Panics if the input exceeds 80 values.
    pub fn dense(&mut self, layer: &Dense, input: &[u8]) -> Vec<i64> {
        assert!(input.len() <= 80, "dense input exceeds one word line");
        assert_eq!(input.len(), layer.inputs(), "input size mismatch");
        dense_logits(self.machine, &self.rows, layer, input).expect(SPAN_CHECKED)
    }
}

/// Every row the mappings address lies inside the staging span that
/// [`PimCnn::new`] checked against the machine geometry, and every
/// Tmp-Reg read follows a write, so the machine ops cannot fail.
const SPAN_CHECKED: &str = "CNN rows inside the span PimCnn::new validated";

fn conv_rows(m: &mut PimMachine, rows: &CnnRows, conv: &Conv3x3, h: u32) -> Result<(), PimError> {
    // broadcast constants once per layer (host I/O)
    for (ky, wrow) in conv.weights.iter().enumerate() {
        for (kx, &wt) in wrow.iter().enumerate() {
            m.host_broadcast(rows.r(CnnRows::WEIGHTS + 3 * ky + kx), wt as i64)?;
        }
    }
    m.host_broadcast(rows.r(CnnRows::BIAS), conv.bias as i64)?;
    m.host_broadcast(rows.r(CnnRows::ZERO), 0)?;
    m.host_broadcast(rows.r(CnnRows::C255), 255)?;

    let bias = Row(rows.r(CnnRows::BIAS));
    for y in 0..h as i64 {
        // acc starts at the bias (an OR with itself loads the Tmp Reg)
        m.alu(AluOp::Logic(LogicFunc::Or), bias, bias, Shift::None)?;
        m.writeback(rows.r(CnnRows::ACC))?;
        for ky in 0..3i64 {
            let src_y = y + ky - 1;
            if src_y < 0 || src_y >= h as i64 {
                continue; // zero-padded row contributes nothing
            }
            let in_row = rows.r(CnnRows::INPUT) + src_y as usize;
            for kx in 0..3i64 {
                let wt = conv.weights[ky as usize][kx as usize];
                if wt == 0 {
                    continue; // zero taps are elided at compile time
                }
                m.shift_pix(Row(in_row), (kx - 1) as i32)?;
                m.writeback(rows.r(CnnRows::SHIFTED))?;
                m.mul_signed(
                    Row(rows.r(CnnRows::WEIGHTS + (3 * ky + kx) as usize)),
                    Row(rows.r(CnnRows::SHIFTED)),
                )?;
                m.alu(AluOp::Add, Tmp, Row(rows.r(CnnRows::ACC)), Shift::None)?;
                m.writeback(rows.r(CnnRows::ACC))?;
            }
        }
        // rescale + fused ReLU/clamp
        m.shr_bits(Row(rows.r(CnnRows::ACC)), conv.shift)?;
        m.alu(AluOp::Max, Tmp, Row(rows.r(CnnRows::ZERO)), Shift::None)?;
        m.alu(AluOp::Min, Tmp, Row(rows.r(CnnRows::C255)), Shift::None)?;
        m.writeback(rows.r(CnnRows::OUTPUT) + y as usize)?;
    }
    Ok(())
}

fn pool_rows(m: &mut PimMachine, rows: &CnnRows, w: u32, h: u32) -> Result<FeatureMap, PimError> {
    m.set_lanes(LaneWidth::W32, Signedness::Signed);
    let mut out = FeatureMap::new(w / 2, h / 2);
    for oy in 0..h / 2 {
        let r0 = rows.r(CnnRows::INPUT) + (2 * oy) as usize;
        let r1 = r0 + 1;
        m.alu(AluOp::Max, Row(r0), Row(r1), Shift::None)?; // vertical pair max
        m.alu(AluOp::Max, Tmp, Tmp, Shift::Pix(1))?; // horizontal pair max (lane 2x)
        m.writeback(rows.r(CnnRows::ACC))?;
        let lanes = m.host_read_lanes(rows.r(CnnRows::ACC))?;
        for ox in 0..w / 2 {
            out.set(ox, oy, lanes[(2 * ox) as usize].clamp(0, 255) as u8);
        }
    }
    Ok(out)
}

fn dense_logits(
    m: &mut PimMachine,
    rows: &CnnRows,
    layer: &Dense,
    input: &[u8],
) -> Result<Vec<i64>, PimError> {
    m.set_lanes(LaneWidth::W32, Signedness::Signed);
    let in_lanes: Vec<i64> = input.iter().map(|&v| v as i64).collect();
    m.host_write_lanes(rows.r(CnnRows::INPUT), &in_lanes)?;
    layer
        .weights
        .iter()
        .zip(&layer.bias)
        .map(|(wrow, &b)| {
            let w_lanes: Vec<i64> = wrow.iter().map(|&w| w as i64).collect();
            m.host_write_lanes(rows.r(CnnRows::SHIFTED), &w_lanes)?;
            m.mul_signed(Row(rows.r(CnnRows::INPUT)), Row(rows.r(CnnRows::SHIFTED)))?;
            Ok(b as i64 + m.reduce_sum()?)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimvo_pim::ArrayConfig;

    fn test_map() -> FeatureMap {
        FeatureMap::from_fn(16, 16, |x, y| {
            ((x * 37 + y * 11).wrapping_mul(2654435761) >> 24) as u8
        })
    }

    #[test]
    fn conv_matches_scalar_exactly() {
        let input = test_map();
        for conv in [
            Conv3x3::new([[1, 2, 1], [2, 4, 2], [1, 2, 1]], 0, 4),
            Conv3x3::new([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], 32, 1),
            Conv3x3::new([[0, -1, 0], [-1, 5, -1], [0, -1, 0]], -100, 0),
        ] {
            let want = conv.forward_scalar(&input);
            let mut m = PimMachine::new(ArrayConfig::qvga());
            let got = PimCnn::new(&mut m, 0).conv3x3(&conv, &input);
            assert_eq!(got, want, "conv {:?}", conv.weights);
        }
    }

    #[test]
    fn pool_matches_scalar_exactly() {
        let input = test_map();
        let want = MaxPool2x2.forward_scalar(&input);
        let mut m = PimMachine::new(ArrayConfig::qvga());
        let got = PimCnn::new(&mut m, 0).maxpool2x2(&input);
        assert_eq!(got, want);
    }

    #[test]
    fn dense_matches_scalar_exactly() {
        let input: Vec<u8> = (0..64).map(|i| (i * 4) as u8).collect();
        let layer = Dense::new(
            vec![
                (0..64).map(|i| ((i % 7) as i8) - 3).collect(),
                (0..64).map(|i| ((i % 5) as i8) - 2).collect(),
                (0..64).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect(),
            ],
            vec![100, -50, 7],
        );
        let want = layer.forward_scalar(&input);
        let mut m = PimMachine::new(ArrayConfig::qvga());
        let got = PimCnn::new(&mut m, 0).dense(&layer, &input);
        assert_eq!(got, want);
    }

    #[test]
    fn conv_cycle_cost_scales_with_nonzero_taps() {
        let input = test_map();
        let sparse = Conv3x3::new([[0, 0, 0], [0, 3, 0], [0, 0, 0]], 0, 0);
        let full = Conv3x3::new([[1; 3]; 3], 0, 3);
        let mut ms = PimMachine::new(ArrayConfig::qvga());
        let _ = PimCnn::new(&mut ms, 0).conv3x3(&sparse, &input);
        let mut mf = PimMachine::new(ArrayConfig::qvga());
        let _ = PimCnn::new(&mut mf, 0).conv3x3(&full, &input);
        assert!(
            mf.stats().cycles > 3 * ms.stats().cycles,
            "{} vs {}",
            mf.stats().cycles,
            ms.stats().cycles
        );
    }
}
