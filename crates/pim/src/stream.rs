//! The seeded pseudo-random stream behind the array fault model
//! ([`crate::fault`]) and the DMA transfer-fault model ([`crate::dma`]).

/// splitmix64: derives well-mixed stream states from seeds and salts.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// An xorshift64* stream seeded through splitmix64. Its state is
/// always nonzero.
#[derive(Debug, Clone)]
pub(crate) struct FaultStream(u64);

impl FaultStream {
    pub(crate) fn new(seed: u64) -> Self {
        FaultStream(splitmix64(seed) | 1)
    }

    /// Forks the stream with `salt`, so units stamped from one model
    /// (pool member arrays, their channels) draw independent patterns.
    pub(crate) fn reseed(&mut self, salt: u64) {
        self.0 = (self.0 ^ splitmix64(salt.wrapping_add(0x5bd1e995))) | 1;
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }
}
