//! Host-speed correction of measured host times.
//!
//! A shared host's speed drifts by 10% and more for tens of seconds at
//! a time with what else runs on it: more than the bounds a change is
//! held to. So a fixed calibration kernel, code no program under test
//! runs, is timed every [`PROBE_EVERY`] between two units of work,
//! outside every timed span, and each host time the benchmark reports
//! is scaled by [`NOMINAL_MS`] over the kernel's median time in the
//! preceding [`WINDOW`]: the time the work would have taken at the
//! host's nominal speed. Raw times are printed beside the corrected
//! ones.
//!
//! The kernel has one part for each kind of work the workloads spend
//! host time on, each about a quarter of a millisecond: a bytecode
//! interpreter (the array simulator), a floating-point image stencil
//! (the tracker), and scattered accesses beyond a core's own caches
//! (neighbours on a shared host contend mostly for those).
//!
//! A probe runs only while the process has a single thread: a thread of
//! the program under test left running between frames would slow the
//! kernel and so inflate the correction.

use crate::report::median;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time on a quiet host (2-vCPU Xeon VM with 2 MiB of
/// second-level cache per core), ms.
const NOMINAL_MS: f64 = 0.6;
/// Least time between two probes.
const PROBE_EVERY: Duration = Duration::from_millis(100);
/// Probes older than this no longer count.
const WINDOW: Duration = Duration::from_secs(2);
/// Side of the stencil's square image.
const SIDE: usize = 256;

pub struct HostSpeed {
    /// (when, kernel ms) of the probes in the window.
    probes: VecDeque<(Instant, f64)>,
    /// Interpreter program: (opcode, operand, operand) triples.
    code: Vec<u8>,
    image: Vec<f32>,
    blurred: Vec<f32>,
    /// 8 MiB, beyond a core's own caches.
    far: Vec<u32>,
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut speed = HostSpeed {
            probes: VecDeque::new(),
            code: (0..3000_u32)
                .map(|k| (k.wrapping_mul(2_654_435_761) >> 13) as u8)
                .collect(),
            image: (0..SIDE * SIDE).map(|k| (k % 251) as f32).collect(),
            blurred: vec![0.0; SIDE * SIDE],
            far: vec![1; 1 << 21],
        };
        speed.probe();
        speed
    }

    /// Times the kernel if [`PROBE_EVERY`] has passed since the last
    /// probe and the process runs a single thread.
    pub fn probe(&mut self) {
        let now = Instant::now();
        if self
            .probes
            .back()
            .is_some_and(|&(at, _)| now.duration_since(at) < PROBE_EVERY)
            || threads() != Some(1)
        {
            return;
        }
        while self
            .probes
            .front()
            .is_some_and(|&(at, _)| now.duration_since(at) > WINDOW)
        {
            self.probes.pop_front();
        }
        // the untimed pass brings the cache-sized parts' data back into
        // cache, so the timed one does not depend on what the program
        // under test touched before it
        self.near_work();
        let start = Instant::now();
        self.near_work();
        black_box(scatter(&mut self.far));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.probes.push_back((now, ms));
    }

    /// What a host time measured now is multiplied by to give the time
    /// at nominal speed; 1 before any probe.
    pub fn factor(&self) -> f64 {
        if self.probes.is_empty() {
            return 1.0;
        }
        let times: Vec<f64> = self.probes.iter().map(|&(_, ms)| ms).collect();
        NOMINAL_MS / median(&times)
    }

    fn near_work(&mut self) {
        black_box(interpret(&self.code));
        for _ in 0..4 {
            blur(black_box(&self.image), &mut self.blurred);
            black_box(&self.blurred);
        }
    }
}

/// Runs `code` 120 times on sixteen 64-bit registers.
fn interpret(code: &[u8]) -> u64 {
    let mut r = [0x9e37_79b9_7f4a_7c15_u64; 16];
    for (k, v) in r.iter_mut().enumerate() {
        *v = v.wrapping_mul(k as u64 + 1);
    }
    for _ in 0..120 {
        for op in code.chunks_exact(3) {
            let (a, b) = (usize::from(op[1] & 15), usize::from(op[2] & 15));
            match op[0] & 7 {
                0 => r[a] &= r[b] | 1,
                1 => r[a] |= r[b] >> 3,
                2 => r[a] ^= r[b],
                3 => r[a] = r[a].rotate_left(1),
                4 => {
                    if r[a] & 1 == 1 {
                        r[b] = r[b].wrapping_add(1);
                    }
                }
                5 => r[a] = !r[a],
                6 => r[a] = r[a].wrapping_add(r[b]),
                _ => r[a] >>= 1,
            }
        }
    }
    r.iter().fold(0, |x, v| x ^ v)
}

/// 3×3 binomial blur of the interior of a `SIDE`² image.
fn blur(src: &[f32], dst: &mut [f32]) {
    let w = SIDE;
    for y in 1..SIDE - 1 {
        for x in 1..w - 1 {
            let i = y * w + x;
            dst[i] = 0.25 * src[i]
                + 0.125 * (src[i - 1] + src[i + 1] + src[i - w] + src[i + w])
                + 0.0625 * (src[i - w - 1] + src[i - w + 1] + src[i + w - 1] + src[i + w + 1]);
        }
    }
}

/// Read-modify-writes scattered over `buf`, each folded into a
/// floating-point accumulation.
fn scatter(buf: &mut [u32]) -> f64 {
    let mask = buf.len() - 1;
    let (mut x, mut acc) = (0x2545_f491_u32, 0.0_f64);
    for _ in 0..15_000 {
        x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
        let i = (x as usize).wrapping_mul(2_654_435_761) & mask;
        buf[i] = buf[i].wrapping_add(x ^ buf[(i + 17) & mask]);
        acc = acc * 0.999_999 + f64::from(buf[i] & 0xff);
    }
    acc
}

/// Threads of this process, from `/proc/self/status`.
fn threads() -> Option<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))?
        .trim()
        .parse()
        .ok()
}
