//! Property tests for the binary op-trace codec: arbitrary record
//! batches round-trip byte-identically. Corruption rejection is tested
//! for every container format at once in
//! `crates/serve/tests/container_corruption.rs`.

use pimvo_telemetry::optrace::{OpRecord, OpTrace, NO_LABEL, OPTRACE_MAGIC, OP_KINDS};
use proptest::prelude::*;

/// Expands one fuzz seed into derived material (splitmix64 step), so a
/// `vec(any::<u64>(), ..)` strategy drives every record field.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds a structurally valid trace from raw fuzz seeds: ids are made
/// unique and non-zero, kinds valid, label indices in range.
fn build_trace(seeds: &[u64], nlabels: u64, dropped: u64) -> OpTrace {
    let mut t = OpTrace::new();
    for i in 0..nlabels {
        t.intern(&format!("kernel_{i}"));
    }
    for (i, &seed) in seeds.iter().enumerate() {
        let (a, b, c) = (mix(seed), mix(seed ^ 0xA5A5), mix(seed ^ 0x5A5A));
        t.records.push(OpRecord {
            id: ((i as u64 + 1) << 20) | (seed & 0xF_FFFF),
            deps: [a & 0x3FF, b & 0x3FF, c & 0x3FF],
            start: a >> 10,
            cycles: b >> 24,
            sram: c as u32,
            size: (a >> 32) as u32,
            rows: [b as u32, (b >> 32) as u32],
            dst: (c >> 32) as u32,
            session: (a >> 16) as u32,
            label: if nlabels == 0 || seed & 1 == 0 {
                NO_LABEL
            } else {
                ((c >> 8) % nlabels) as u32
            },
            kind: OP_KINDS[(seed >> 5) as usize % OP_KINDS.len()],
            array: seed as u16,
        });
    }
    t.dropped = dropped;
    t
}

proptest! {
    #[test]
    fn roundtrip_byte_identical(
        seeds in prop::collection::vec(any::<u64>(), 0..64),
        nlabels in 0u64..6,
        dropped in any::<u64>(),
    ) {
        let t = build_trace(&seeds, nlabels, dropped);
        let bytes = t.encode();
        let back = OpTrace::decode(&bytes).expect("valid container decodes");
        prop_assert_eq!(&back, &t);
        prop_assert_eq!(back.encode(), bytes);
    }
}

#[test]
fn magic_is_stable() {
    // the on-disk magic is a compatibility contract; changing it breaks
    // every recorded flight dump
    assert_eq!(OPTRACE_MAGIC, b"PIMVOTRC");
}
