//! Corruption tests for every on-disk format at once. Tracker
//! checkpoints, fleet manifests, flight dumps and op traces share one
//! container frame (`pimvo_telemetry::container`), so each damage
//! class must give the same typed error in all four — never a panic
//! and never `Ok`:
//!
//! * truncation at every byte → `Truncated`;
//! * every single-bit flip → `BadMagic` / `Version` / a length error /
//!   `Crc`, by the field the bit lands in;
//! * a wrong version, validly re-sealed → `Version`;
//! * trailing garbage → `Malformed`;
//! * arbitrary garbage → some error.
//!
//! Each format also still round-trips byte-identically.

use pimvo_core::{BackendKind, Checkpoint, CheckpointError, Tracker, TrackerConfig};
use pimvo_pim::{ArrayConfig, ArrayState, PimMachine, PoolSnapshot, SessionId, PROBATION_PHASES};
use pimvo_serve::{DumpReason, FleetScheduler, FlightDump, FlightFrame, SessionSpec};
use pimvo_telemetry::container::{self, crc32, ContainerError, Writer};
use pimvo_telemetry::optrace::{OpKind, OpRecord, OpTrace, NO_ROW, NO_SESSION};
use proptest::prelude::*;

type Decode = Box<dyn Fn(&[u8]) -> Result<Vec<u8>, ContainerError>>;

/// One format under test: a valid encoding, and a decoder that returns
/// the re-encoding of whatever it decoded.
struct Format {
    name: &'static str,
    bytes: Vec<u8>,
    decode: Decode,
}

fn trace(cycles: u64) -> OpTrace {
    let mut t = OpTrace::new();
    let label = t.intern("hpf");
    t.records.push(OpRecord {
        id: 1,
        deps: [0, 0, 0],
        start: 0,
        cycles,
        sram: 2,
        size: 40,
        rows: [0, NO_ROW],
        dst: 3,
        session: NO_SESSION,
        label,
        kind: OpKind::AddSub,
        array: 0,
    });
    t
}

/// A tracker checkpoint whose pool section holds every kind of array
/// state, a probation last.
fn checkpoint() -> Format {
    let mut ckpt = Tracker::new(TrackerConfig::default(), BackendKind::Float).checkpoint();
    ckpt.pool = Some(PoolSnapshot {
        states: vec![
            ArrayState::Active { scrubbed: true },
            ArrayState::Quarantined,
            ArrayState::Probation {
                left: PROBATION_PHASES,
            },
        ],
        retries: 4,
        redispatches: 2,
        dirty_accepted: 1,
    });
    Format {
        name: "checkpoint",
        bytes: ckpt.to_bytes(),
        decode: Box::new(|b| match Checkpoint::from_bytes(b) {
            Ok(c) => Ok(c.to_bytes()),
            Err(CheckpointError::Container(e)) => Err(e),
            Err(e) => panic!("checkpoint decode gave a non-container error: {e}"),
        }),
    }
}

/// The fleet manifest decodes only through `FleetScheduler::recover`
/// on a file, so the decoder stages the bytes in a per-test temp file.
/// Its three arrays are active, quarantined and in probation.
fn manifest(test: &str) -> Format {
    let builder = PimMachine::builder(ArrayConfig::qvga_banks(6));
    let specs = vec![(SessionId(3), SessionSpec::new(TrackerConfig::default()))];
    let mut fleet = FleetScheduler::from_builder(&builder, 3);
    let pool = fleet.pool_mut();
    pool.try_quarantine(2).unwrap();
    assert_eq!(pool.scrub_now(), 1);
    pool.try_quarantine(1).unwrap();
    fleet.add_session(specs[0].0, specs[0].1.clone());
    let path = std::env::temp_dir().join(format!("pimvo_container_{test}_{}", std::process::id()));
    fleet.save_manifest(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    Format {
        name: "fleet manifest",
        bytes,
        decode: Box::new(move |b| {
            std::fs::write(&path, b)?;
            let got = FleetScheduler::recover(&path, &builder, 3, &specs).and_then(|f| {
                f.save_manifest(&path)?;
                Ok(std::fs::read(&path)?)
            });
            std::fs::remove_file(&path).ok();
            got
        }),
    }
}

fn flight_dump() -> Format {
    let frames = vec![FlightFrame {
        frame: 2,
        wall_delta: 12,
        trace: trace(12),
    }];
    let dump = FlightDump {
        session: 7,
        reason: DumpReason::DeadlineMiss,
        frames,
    };
    Format {
        name: "flight dump",
        bytes: dump.encode(),
        decode: Box::new(|b| FlightDump::decode(b).map(|d| d.encode())),
    }
}

fn op_trace() -> Format {
    let mut t = trace(5);
    t.dropped = 3;
    Format {
        name: "op trace",
        bytes: t.encode(),
        decode: Box::new(|b| OpTrace::decode(b).map(|t| t.encode())),
    }
}

fn all_formats(test: &str) -> Vec<Format> {
    vec![checkpoint(), manifest(test), flight_dump(), op_trace()]
}

/// The frame's magic and version, read from its header.
fn magic_and_version(bytes: &[u8]) -> ([u8; 8], u16) {
    let magic = bytes[..8].try_into().unwrap();
    (magic, u16::from_le_bytes([bytes[8], bytes[9]]))
}

fn reseal(magic: &[u8; 8], version: u16, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new(magic, version);
    w.bytes(payload);
    w.seal()
}

#[test]
fn the_one_crc_matches_the_ieee_check_value() {
    // the classic check value for CRC-32/IEEE
    assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
}

#[test]
fn every_format_round_trips_byte_identically() {
    for f in all_formats("roundtrip") {
        let again = (f.decode)(&f.bytes).unwrap_or_else(|e| panic!("{}: {e}", f.name));
        assert_eq!(again, f.bytes, "{}", f.name);
    }
}

#[test]
fn truncation_at_every_byte_is_typed() {
    for f in all_formats("truncate") {
        for cut in 0..f.bytes.len() {
            match (f.decode)(&f.bytes[..cut]) {
                Err(ContainerError::Truncated) => {}
                other => panic!("{} cut at {cut}: {:?}", f.name, other.map(|_| ())),
            }
        }
    }
}

#[test]
fn every_single_bit_flip_is_typed() {
    for f in all_formats("bitflip") {
        for pos in 0..f.bytes.len() {
            for bit in 0..8 {
                let mut b = f.bytes.clone();
                b[pos] ^= 1 << bit;
                let got = (f.decode)(&b);
                let ok = match pos {
                    0..=7 => matches!(got, Err(ContainerError::BadMagic)),
                    8..=9 => matches!(got, Err(ContainerError::Version { .. })),
                    // declared length: longer is short input, shorter
                    // leaves trailing bytes
                    10..=17 => matches!(
                        got,
                        Err(ContainerError::Truncated | ContainerError::Malformed(_))
                    ),
                    _ => matches!(got, Err(ContainerError::Crc)),
                };
                assert!(ok, "{} flip {pos}.{bit}: {:?}", f.name, got.map(|_| ()));
            }
        }
    }
}

#[test]
fn a_wrong_version_resealed_is_a_version_error() {
    for f in all_formats("version") {
        let (magic, version) = magic_and_version(&f.bytes);
        let payload = container::open(&f.bytes, &magic, version).unwrap();
        for wrong in [0, version - 1, version + 1, u16::MAX] {
            let got = (f.decode)(&reseal(&magic, wrong, payload));
            assert!(
                matches!(got, Err(ContainerError::Version { got, want }) if got == wrong && want == version),
                "{} version {wrong}: {:?}",
                f.name,
                got.map(|_| ())
            );
        }
    }
}

#[test]
fn trailing_garbage_is_malformed() {
    for f in all_formats("trailing") {
        for tail in [&[0u8][..], b"garbage", &f.bytes] {
            let mut b = f.bytes.clone();
            b.extend_from_slice(tail);
            assert!(
                matches!((f.decode)(&b), Err(ContainerError::Malformed(_))),
                "{} + {} trailing bytes",
                f.name,
                tail.len()
            );
        }
    }
}

/// The format's payload, as its container frame holds it.
fn payload(f: &Format) -> Vec<u8> {
    let (magic, version) = magic_and_version(&f.bytes);
    container::open(&f.bytes, &magic, version).unwrap().to_vec()
}

/// Decodes `f` with payload byte `at` set to `value` and the frame
/// validly re-sealed.
fn edited(f: &Format, at: usize, value: u8) -> Result<Vec<u8>, ContainerError> {
    let (magic, version) = magic_and_version(&f.bytes);
    let mut p = payload(f);
    p[at] = value;
    (f.decode)(&reseal(&magic, version, &p))
}

// Manifest payload offsets. The payload opens with the wall clock u64
// and the pool snapshot: the array count u64, then per array a state
// tag u8 followed by its fields (active: a scrubbed flag u8;
// quarantined: none; probation: phases left u64), then three pool
// counters u64. The session count u64 follows, and per session its id
// u32 and shed rung u8.
const MANIFEST_STATES: usize = 16;
/// Array 0 (active): tag and scrubbed flag.
const MANIFEST_SCRUBBED: usize = MANIFEST_STATES + 1;
/// Array 2 (probation): the u64 phases left, after its tag.
const MANIFEST_LEFT: usize = MANIFEST_STATES + 2 + 1 + 1;
const MANIFEST_RUNG: usize = MANIFEST_LEFT + 8 + 24 + 8 + 4;

#[test]
fn manifest_rejects_an_out_of_range_shed_rung() {
    let got = edited(&manifest("rung"), MANIFEST_RUNG, 200);
    assert!(matches!(
        got,
        Err(ContainerError::Malformed("invalid degrade rung"))
    ));
}

#[test]
fn manifest_rejects_an_unknown_array_state() {
    let m = manifest("state");
    assert!(matches!(
        edited(&m, MANIFEST_STATES, 3),
        Err(ContainerError::Malformed("invalid array state"))
    ));
    assert!(matches!(
        edited(&m, MANIFEST_SCRUBBED, 2),
        Err(ContainerError::Malformed("invalid flag byte"))
    ));
}

/// A probation owes `1..=PROBATION_PHASES` clean phases; zero, one too
/// many and a huge count are states no pool can be in, in either
/// container that carries a pool snapshot.
#[test]
fn a_probation_out_of_range_is_malformed_in_both_containers() {
    let m = manifest("probation");
    let c = checkpoint();
    // the checkpoint's pool section ends its payload: the probation's
    // phases left, then the three counters
    let c_left = payload(&c).len() - 24 - 8;
    for (f, at) in [(&m, MANIFEST_LEFT), (&c, c_left)] {
        assert_eq!(payload(f)[at], PROBATION_PHASES as u8, "{}", f.name);
        for (byte, value) in [(0, 0), (0, PROBATION_PHASES as u8 + 1), (7, 0xFF)] {
            let got = edited(f, at + byte, value);
            assert!(
                matches!(
                    got,
                    Err(ContainerError::Malformed("probation phases out of range"))
                ),
                "{} byte {byte} = {value}: {:?}",
                f.name,
                got.map(|_| ())
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_garbage_is_an_error(
        garbage in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        for f in all_formats("garbage") {
            // raw garbage, and garbage behind the format's own header
            let (magic, version) = magic_and_version(&f.bytes);
            let mut headed = f.bytes[..10].to_vec();
            headed.extend_from_slice(&garbage);
            prop_assert!((f.decode)(&garbage).is_err(), "{} raw", f.name);
            prop_assert!((f.decode)(&headed).is_err(), "{} headed", f.name);
            // a validly sealed garbage payload reaches the payload
            // decoder, which must return rather than panic
            let _ = (f.decode)(&reseal(&magic, version, &garbage));
        }
    }
}
