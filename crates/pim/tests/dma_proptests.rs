//! DMA descriptor integrity properties: the CRC over payload + header
//! rejects arbitrary single-bit corruption, and a machine under a
//! seeded transfer-fault model delivers every host write intact —
//! flips are caught by CRC and retried, never read back.

use pimvo_pim::{TransferDescriptor, TransferKind};
use proptest::prelude::*;

fn kind_for(sel: u8) -> TransferKind {
    if sel % 2 == 0 {
        TransferKind::StripIn
    } else {
        TransferKind::StripOut
    }
}

proptest! {
    /// An intact descriptor verifies; the same payload with any single
    /// bit flipped in flight does not.
    #[test]
    fn crc_rejects_any_single_payload_bit_flip(
        payload in prop::collection::vec(any::<u8>(), 1..320),
        bit_seed in any::<u64>(),
        kind_sel in any::<u8>(),
        row in 0u32..1536,
        seq in any::<u64>(),
    ) {
        let d = TransferDescriptor::new(kind_for(kind_sel), row, seq, &payload);
        prop_assert!(d.verify(&payload), "intact payload must verify");

        let bit = (bit_seed as usize) % (payload.len() * 8);
        let mut corrupted = payload.clone();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            !d.verify(&corrupted),
            "flipped bit {bit} slipped past the CRC"
        );
    }

    /// The CRC covers the header too: a descriptor whose routing fields
    /// were corrupted in flight no longer matches its own payload.
    #[test]
    fn crc_covers_header_fields(
        payload in prop::collection::vec(any::<u8>(), 1..64),
        kind_sel in any::<u8>(),
        row in 0u32..1535,
        seq in any::<u64>(),
    ) {
        let kind = kind_for(kind_sel);
        let d = TransferDescriptor::new(kind, row, seq, &payload);
        let wrong_row = TransferDescriptor::new(kind, row + 1, seq, &payload);
        let wrong_seq =
            TransferDescriptor::new(kind, row, seq.wrapping_add(1), &payload);
        prop_assert_ne!(d.payload_crc(&payload), wrong_row.payload_crc(&payload));
        prop_assert_ne!(d.payload_crc(&payload), wrong_seq.payload_crc(&payload));
    }
}

mod faulted {
    use super::*;
    use pimvo_pim::{ArrayConfig, DmaConfig, DmaFaultModel, LaneWidth, PimMachine, Signedness};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Flip-only transfer faults are invisible in the value domain:
        /// every host write lands intact (the CRC catches each injected
        /// flip and the channel retries or, past the ladder, degrades
        /// to the synchronous port) — no flip is ever delivered.
        #[test]
        fn flips_are_always_caught_and_retried(
            seed in any::<u64>(),
            rate in 0.05f64..0.45,
            rows in prop::collection::vec(
                prop::collection::vec(-128i64..128, 4..32), 2..8),
        ) {
            let mut m = PimMachine::builder(ArrayConfig::qvga_banks(6))
                .dma(DmaConfig::default())
                .build();
            m.set_lanes(LaneWidth::W16, Signedness::Signed);
            m.set_dma_fault(DmaFaultModel::flips(seed, rate));

            for (i, vals) in rows.iter().enumerate() {
                m.host_write_lanes(i, vals).unwrap();
            }
            for (i, vals) in rows.iter().enumerate() {
                let got = m.host_read_lanes(i).unwrap();
                prop_assert_eq!(&got[..vals.len()], &vals[..], "row {} corrupted", i);
            }

            let h = m.dma_health().expect("channel installed");
            prop_assert_eq!(h.timeouts, 0, "flip-only model produced timeouts");
            // one retry per CRC rejection, except the final attempt of
            // a descriptor that exhausted its ladder (it is not
            // retried — the channel quarantines instead)
            prop_assert!(h.crc_errors >= h.retries, "retries without CRC cause");
            prop_assert!(
                h.crc_errors - h.retries <= h.quarantines,
                "CRC rejection neither retried nor quarantined: {} errors, {} retries, {} quarantines",
                h.crc_errors, h.retries, h.quarantines
            );
        }
    }
}
