//! CNN layers executed on the PIM machine as IR programs.
//!
//! Each layer is one [`PimProgram`] over the CNN staging rows, lowered
//! at [`LowerLevel::Opt`] through the [`LoweredCache`] and run with
//! [`PimMachine::run_program`], like the edge and pose kernels. Every
//! mapping reproduces the scalar semantics of [`crate::layer`] (tests
//! assert bit-equality). Feature maps are stored one image row per word
//! line in 32-bit lanes, so maps up to 80 pixels wide fit a single
//! `(320·8)`-bit row — ample for the small-input CNN regime the paper's
//! extension targets.
//!
//! Host I/O (inputs, weights, results, the lane decimation between a
//! pooling layer and the next) stays outside the programs and is
//! tracked separately from compute, matching the EBVO pipeline's
//! accounting. The dense head reduces each logit's products in the
//! array; the CPU adds the biases, as the paper does for its 6x6 solve.

#[cfg(test)]
use crate::layer::MaxPool2x2;
use crate::layer::{Conv3x3, Dense, FeatureMap};
use pimvo_pim::{
    LaneWidth, LowerLevel, LoweredCache, PimMachine, PimProgram, ScratchRows, Signedness, Val,
};

use Val::Row;

/// Default base row for the CNN's staging area (above the EBVO
/// regions when sharing a machine).
pub const CNN_BASE_ROW: usize = 0;

/// Row-region offsets within the staging area.
#[derive(Debug)]
struct CnnRows {
    base: usize,
}

impl CnnRows {
    const INPUT: usize = 0; // input feature map rows (up to 80)
    const OUTPUT: usize = 80; // output feature map rows; dense weight rows
    const WEIGHTS: usize = 160; // 9 broadcast weight rows
    const BIAS: usize = 169;
    const ZERO: usize = 170;
    const C255: usize = 171;
    /// Spill rows of the lowering: the schedule can hold all but one
    /// of an output row's nine products at once.
    const SCRATCH: usize = 172;
    /// Total rows the mapping needs.
    const SPAN: usize = 181;

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

impl<'m> PimCnn<'m> {
    /// Wraps a machine, staging CNN data starting at row `base`.
    ///
    /// # Panics
    ///
    /// Panics if the machine lacks `base + 181` rows.
    pub fn new(machine: &'m mut PimMachine, base: usize) -> Self {
        assert!(
            base + CnnRows::SPAN <= machine.config().rows,
            "machine too small for the CNN staging area"
        );
        PimCnn {
            machine,
            rows: CnnRows { base },
        }
    }

    /// The wrapped machine (stats inspection).
    pub fn machine(&self) -> &PimMachine {
        self.machine
    }

    fn write_lanes(&mut self, row: usize, values: impl ExactSizeIterator<Item = i64>) {
        self.machine.set_lanes(LaneWidth::W32, Signedness::Signed);
        self.machine
            .host_write_lanes_iter(row, values)
            .expect(SPAN_CHECKED);
    }

    fn load_map(&mut self, map: &FeatureMap) {
        for y in 0..map.height() {
            let row = self.rows.r(CnnRows::INPUT) + y as usize;
            self.write_lanes(row, (0..map.width()).map(|x| i64::from(map.get(x, y))));
        }
    }

    /// Reads output rows `0..height`, keeping every `stride`-th lane of
    /// each clamped to a pixel.
    fn read_map(&mut self, width: u32, height: u32, stride: usize) -> FeatureMap {
        self.machine.set_lanes(LaneWidth::W32, Signedness::Signed);
        let mut out = FeatureMap::new(width, height);
        for y in 0..height {
            let lanes = self
                .machine
                .host_read_lanes(self.rows.r(CnnRows::OUTPUT) + y as usize)
                .expect(SPAN_CHECKED);
            for x in 0..width {
                out.set(x, y, lanes[stride * x as usize].clamp(0, 255) as u8);
            }
        }
        out
    }

    /// Lowers `prog` over the CNN scratch rows and runs it, returning
    /// its reduce sums.
    fn run(&mut self, prog: &PimProgram) -> Vec<i64> {
        let scratch = ScratchRows::contiguous(
            self.rows.r(CnnRows::SCRATCH),
            CnnRows::SPAN - CnnRows::SCRATCH,
        );
        let lowered = LoweredCache::global()
            .get_or_lower(prog, LowerLevel::Opt, &scratch, self.machine.config())
            .expect("CNN programs lower within their scratch rows");
        self.machine.run_program(&lowered).expect(SPAN_CHECKED)
    }

    /// Runs a 3x3 convolution (+ fused ReLU/clamp) on the machine.
    ///
    /// # Panics
    ///
    /// Panics for maps wider than 80 pixels or taller than 80 rows.
    pub fn conv3x3(&mut self, conv: &Conv3x3, input: &FeatureMap) -> FeatureMap {
        let (w, h) = (input.width(), input.height());
        assert!(w <= 80 && h <= 80, "map exceeds the staging area");
        self.load_map(input);
        // broadcast constants once per layer (host I/O)
        let weights = conv.weights.iter().flatten().map(|&w| i64::from(w));
        let consts = [
            (CnnRows::BIAS, i64::from(conv.bias)),
            (CnnRows::ZERO, 0),
            (CnnRows::C255, 255),
        ];
        for (off, value) in (CnnRows::WEIGHTS..).zip(weights).chain(consts) {
            let row = self.rows.r(off);
            self.machine.host_broadcast(row, value).expect(SPAN_CHECKED);
        }
        self.run(&conv_program(&self.rows, conv, h));
        self.read_map(w, h, 1)
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
        self.load_map(input);
        self.run(&pool_program(&self.rows, h));
        self.read_map(w / 2, h / 2, 2)
    }

    /// Runs a dense layer: per output, a lane-parallel multiply and an
    /// in-array reduction; the CPU adds the biases.
    ///
    /// # Panics
    ///
    /// Panics if the input exceeds 80 values or the layer has more than
    /// 80 outputs.
    pub fn dense(&mut self, layer: &Dense, input: &[u8]) -> Vec<i64> {
        assert!(input.len() <= 80, "dense input exceeds one word line");
        assert!(layer.weights.len() <= 80, "more dense outputs than rows");
        assert_eq!(input.len(), layer.inputs(), "input size mismatch");
        let row = self.rows.r(CnnRows::INPUT);
        self.write_lanes(row, input.iter().map(|&v| i64::from(v)));
        for (o, wrow) in layer.weights.iter().enumerate() {
            let row = self.rows.r(CnnRows::OUTPUT) + o;
            self.write_lanes(row, wrow.iter().map(|&w| i64::from(w)));
        }
        let sums = self.run(&dense_program(&self.rows, layer.weights.len()));
        layer
            .bias
            .iter()
            .zip(sums)
            .map(|(&b, s)| i64::from(b) + s)
            .collect()
    }
}

/// Every row the mappings address lies inside the staging span that
/// [`PimCnn::new`] checked against the machine geometry, and every
/// program writes the Tmp Reg before reading it, so neither host I/O
/// nor the programs can fail.
const SPAN_CHECKED: &str = "CNN rows inside the span PimCnn::new validated";

/// The 3x3 convolution of an `h`-row map: per output row, the bias plus
/// one signed product per nonzero tap whose input row lies inside the
/// map (zero padding contributes nothing), rescaled and clamped to a
/// pixel. Zero taps are elided when the program is built.
fn conv_program(rows: &CnnRows, conv: &Conv3x3, h: u32) -> PimProgram {
    let mut p = PimProgram::new("cnn_conv3x3");
    p.set_lanes(LaneWidth::W32, Signedness::Signed);
    for y in 0..h as usize {
        let mut acc = Row(rows.r(CnnRows::BIAS));
        for (ky, wrow) in conv.weights.iter().enumerate() {
            let src = match (y + ky).checked_sub(1) {
                Some(src) if src < h as usize => rows.r(CnnRows::INPUT) + src,
                _ => continue,
            };
            for (kx, _) in wrow.iter().enumerate().filter(|&(_, &wt)| wt != 0) {
                let tap = match kx {
                    1 => Row(src),
                    _ => p.shift_pix(Row(src), kx as i32 - 1).into(),
                };
                let weight = Row(rows.r(CnnRows::WEIGHTS + 3 * ky + kx));
                let prod = p.mul_signed(weight, tap);
                acc = p.add(prod.into(), acc).into();
            }
        }
        // no zero shifts: the lowering turns them into a load, whose
        // logic-op copy holds a signed lane's raw bit pattern
        if conv.shift > 0 {
            acc = p.shr_bits(acc, conv.shift).into();
        }
        let out = p.max(acc, Row(rows.r(CnnRows::ZERO)));
        let out = p.min(out.into(), Row(rows.r(CnnRows::C255)));
        p.store(out, rows.r(CnnRows::OUTPUT) + y);
    }
    p
}

/// 2x2 max pooling of an `h`-row map: the vertical pair maximum, then
/// the horizontal one in every even lane, one output row per input
/// row pair.
fn pool_program(rows: &CnnRows, h: u32) -> PimProgram {
    let mut p = PimProgram::new("cnn_maxpool2x2");
    p.set_lanes(LaneWidth::W32, Signedness::Signed);
    for oy in 0..h as usize / 2 {
        let top = rows.r(CnnRows::INPUT) + 2 * oy;
        let pair = p.max(Row(top), Row(top + 1));
        let quad = p.max_sh(pair.into(), pair.into(), 1);
        p.store(quad, rows.r(CnnRows::OUTPUT) + oy);
    }
    p
}

/// A dense layer of `outputs` logits: the input row times each weight
/// row, reduced to one sum per output.
fn dense_program(rows: &CnnRows, outputs: usize) -> PimProgram {
    let mut p = PimProgram::new("cnn_dense");
    p.set_lanes(LaneWidth::W32, Signedness::Signed);
    for o in 0..outputs {
        let weights = Row(rows.r(CnnRows::OUTPUT) + o);
        let prod = p.mul_signed(Row(rows.r(CnnRows::INPUT)), weights);
        p.reduce(prod.into());
    }
    p
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
            // the top output row has no tap inside the map: the bias
            // alone, negative and unshifted, clamps to 0
            Conv3x3::new([[1, 1, 1], [0, 0, 0], [0, 0, 0]], -300, 0),
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
