//! Machine-side op-trace recorder: the producer half of the
//! [`pimvo_telemetry::optrace`] flight-recorder format.
//!
//! An [`OpRecorder`] is a fixed-capacity ring of
//! [`OpRecord`]s with a drop counter. It is **off by default** — the
//! machine holds an `Option` and every hook is one `is_some` branch, so
//! an unarmed machine is bit- and cycle-identical to a build without
//! the recorder (the same contract `pimvo-telemetry` makes, and a test
//! asserts it).
//!
//! # Dependency edges
//!
//! Each record carries up to three explicit dependency ids:
//!
//! 1. **serial** — the previous record in the same stream. A machine
//!    executes macro-ops one at a time on one accumulator, so this
//!    chain subsumes intra-machine ordering. After a pool sync point
//!    the chain restarts from the barrier record
//!    ([`OpRecorder::set_pending_dep`]), which is how job ordering
//!    across waves enters the graph.
//! 2. **RAW** — the most recent record that *wrote* any row this
//!    record reads (host upload → compute, compute → compute).
//! 3. **WAR/WAW** — the most recent record that read or wrote the row
//!    this record writes (compute → host readout ordering and row
//!    reuse).
//!
//! Ids are namespaced per stream (`(stream + 1) << 40 | seq`), so the
//! per-array streams of a pool are recorded independently, one per
//! array, and merged afterwards without renumbering. Draining ([`OpRecorder::drain_into`]) hands the records
//! off but keeps sequence counters and row tables, so ids stay unique
//! across frames and cross-frame edges simply dangle (the profiler
//! treats a missing dependency as already finished).
//!
//! # Cost when armed
//!
//! The last reader and last writer of each row live in two dense
//! tables indexed by row, sized once from the machine's row count
//! (`0` = no record yet; ids are never 0), so an edge lookup is one
//! bounds-checked load. A row at or past the table length is
//! **rejected**: it takes part in no RAW/WAR edge and is never stored,
//! so a bad row index can neither panic nor grow the table. The
//! machine only records logical rows (every row operand is checked
//! against [`crate::ArrayConfig::rows`] before it is charged), so this
//! never drops an edge of a machine stream. The record ring keeps its
//! allocation across drains, and a drain copies the records in one
//! block straight into the caller's trace, so a recorded op is written
//! once into the ring and copied once per frame.

use pimvo_telemetry::optrace::{OpKind, OpRecord, OpTrace, NO_LABEL, NO_ROW, NO_SESSION};
use std::collections::VecDeque;

/// Default ring capacity for a recorder armed without an explicit
/// bound: large enough to hold several VGA tracker frames per array,
/// and an allocation bound of `2^18` records ×
/// `size_of::<OpRecord>()` (80 B) = 20 MiB per stream. The ring grows
/// to what a frame records, so a QVGA frame (~10⁴ records per stream)
/// holds under 1 MiB.
pub const DEFAULT_OP_RING_CAPACITY: usize = 1 << 18;

// the 20 MiB bound above is 2^18 records of exactly 80 bytes
const _: () = assert!(std::mem::size_of::<OpRecord>() == 80);

/// Fixed-capacity op-record ring with dependency tracking. See the
/// module docs for the edge rules.
#[derive(Debug, Clone)]
pub struct OpRecorder {
    buf: VecDeque<OpRecord>,
    capacity: usize,
    dropped: u64,
    /// High id bits: `(stream + 1) << 40`.
    base: u64,
    /// Low id bits: next sequence number (never reset by drain).
    seq: u64,
    /// `array` field stamped on records (may be
    /// [`pimvo_telemetry::optrace::POOL_STREAM`] for the pool stream).
    array: u16,
    session: u32,
    label: u32,
    labels: Vec<String>,
    /// Tail of the serial chain (0 = none yet).
    last_id: u64,
    /// Barrier id injected as the next record's serial dep.
    pending_dep: u64,
    /// Row → id of its most recent writer (0 = none yet).
    row_writer: Vec<u64>,
    /// Row → id of its most recent reader (0 = none yet).
    row_reader: Vec<u64>,
}

impl OpRecorder {
    /// A recorder for stream `stream` (the id namespace *and* the
    /// record `array` field), holding at most `capacity` records and
    /// tracking row edges for rows `0..rows`.
    pub fn new(stream: u16, capacity: usize, rows: usize) -> Self {
        let mut r = Self::with_stream(stream, stream, capacity);
        r.row_writer = vec![0; rows];
        r.row_reader = vec![0; rows];
        r
    }

    /// A recorder whose id namespace (`stream`) differs from the
    /// stamped `array` field and which tracks no rows: the pool sync
    /// stream and the DMA lanes, whose records carry explicit edges
    /// ([`OpRecorder::record_explicit`]). The sync stream needs a
    /// namespace index but renders as
    /// [`pimvo_telemetry::optrace::POOL_STREAM`].
    pub fn with_stream(stream: u16, array: u16, capacity: usize) -> Self {
        OpRecorder {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
            base: (stream as u64 + 1) << 40,
            seq: 0,
            array,
            session: NO_SESSION,
            label: NO_LABEL,
            labels: Vec::new(),
            last_id: 0,
            pending_dep: 0,
            row_writer: Vec::new(),
            row_reader: Vec::new(),
        }
    }

    /// Stamps subsequent records with a session id (serving layer).
    pub fn set_session(&mut self, session: u32) {
        self.session = session;
    }

    /// Sets (or clears) the kernel label stamped on subsequent
    /// records. Labels are interned per recorder and remapped on
    /// merge.
    pub fn set_label(&mut self, label: Option<&str>) {
        self.label = match label {
            None => NO_LABEL,
            Some(l) => match self.labels.iter().position(|x| x == l) {
                Some(i) => i as u32,
                None => {
                    self.labels.push(l.to_string());
                    (self.labels.len() - 1) as u32
                }
            },
        };
    }

    /// Id of the last record emitted in this stream (0 = none).
    pub fn tail(&self) -> u64 {
        self.last_id
    }

    /// Injects `id` (a pool barrier) as the serial dependency of the
    /// next record, restarting the chain from the sync point.
    pub fn set_pending_dep(&mut self, id: u64) {
        self.pending_dep = id;
    }

    /// Records the ring has dropped so far (capacity overflow).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring currently holds no records.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Most recent writer of `row` (0 = none, or a rejected row).
    fn writer(&self, row: u32) -> u64 {
        self.row_writer.get(row as usize).copied().unwrap_or(0)
    }

    /// Most recent reader of `row` (0 = none, or a rejected row).
    fn reader(&self, row: u32) -> u64 {
        self.row_reader.get(row as usize).copied().unwrap_or(0)
    }

    /// Appends one record, computing its dependency edges from the
    /// serial chain and the row tables. `reads`/`writes` list the SRAM
    /// rows touched; `start` is the stream clock at op start. Returns
    /// the record id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        kind: OpKind,
        reads: &[u32],
        writes: &[u32],
        start: u64,
        cycles: u64,
        sram: u32,
        size: u32,
    ) -> u64 {
        self.seq += 1;
        let id = self.base | self.seq;

        let serial = if self.pending_dep != 0 {
            std::mem::take(&mut self.pending_dep)
        } else {
            self.last_id
        };
        let mut raw = 0u64;
        for &r in reads {
            raw = raw.max(self.writer(r));
        }
        let mut war = 0u64;
        for &w in writes {
            war = war.max(self.writer(w)).max(self.reader(w));
        }
        if raw == serial {
            raw = 0;
        }
        if war == serial || war == raw {
            war = 0;
        }

        for &r in reads {
            if let Some(slot) = self.row_reader.get_mut(r as usize) {
                *slot = id;
            }
        }
        for &w in writes {
            if let Some(slot) = self.row_writer.get_mut(w as usize) {
                *slot = id;
            }
        }
        self.last_id = id;

        self.push(OpRecord {
            id,
            deps: [serial, raw, war],
            start,
            cycles,
            sram,
            size,
            rows: [
                reads.first().copied().unwrap_or(NO_ROW),
                reads.get(1).copied().unwrap_or(NO_ROW),
            ],
            dst: writes.first().copied().unwrap_or(NO_ROW),
            session: self.session,
            label: self.label,
            kind,
            array: self.array,
        });
        id
    }

    /// Appends a barrier record with explicit dependency ids (the pool
    /// sync stream bypasses the row tables). Returns the record id.
    pub fn record_barrier(&mut self, deps: [u64; 3], start: u64, cycles: u64, size: u32) -> u64 {
        self.record_explicit(
            OpKind::Barrier,
            deps,
            start,
            cycles,
            [NO_ROW, NO_ROW],
            NO_ROW,
            size,
        )
    }

    /// Appends a record of `kind` with explicit dependency ids, row
    /// operands and destination, bypassing the row tables — the DMA
    /// channel lanes use this: their cross-stream edges (issuing
    /// machine record, channel serial chain) are known to the caller,
    /// not derivable from this stream's row history. Returns the
    /// record id.
    #[allow(clippy::too_many_arguments)]
    pub fn record_explicit(
        &mut self,
        kind: OpKind,
        deps: [u64; 3],
        start: u64,
        cycles: u64,
        rows: [u32; 2],
        dst: u32,
        size: u32,
    ) -> u64 {
        self.seq += 1;
        let id = self.base | self.seq;
        self.last_id = id;
        self.push(OpRecord {
            id,
            deps,
            start,
            cycles,
            sram: 0,
            size,
            rows,
            dst,
            session: self.session,
            label: self.label,
            kind,
            array: self.array,
        });
        id
    }

    /// Pushes `rec`, dropping (and counting) the oldest record when
    /// the ring is full.
    fn push(&mut self, rec: OpRecord) {
        if self.buf.len() >= self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }

    /// Marks `row` as last written by a record of *another* stream
    /// (an inbound DMA descriptor): the next record reading the row
    /// picks up a cross-stream RAW edge onto the channel lane. A
    /// rejected row (past the row table) is ignored.
    pub fn note_external_write(&mut self, row: u32, id: u64) {
        if let Some(slot) = self.row_writer.get_mut(row as usize) {
            *slot = id;
        }
    }

    /// Folds extra cycles/SRAM traffic of a multi-step macro-op into
    /// the most recent record (protection checks, mul/div steps).
    pub fn extend_last(&mut self, cycles: u64, sram: u32) {
        if let Some(last) = self.buf.back_mut() {
            last.cycles += cycles;
            last.sram += sram;
        }
    }

    /// Hands the buffered records off as an [`OpTrace`] and clears the
    /// ring and the drop counter; see [`OpRecorder::drain_into`].
    pub fn drain(&mut self) -> OpTrace {
        let mut trace = OpTrace::new();
        self.drain_into(&mut trace);
        trace
    }

    /// Copies the buffered records onto the end of `trace` (labels
    /// remapped into its table, drop counter added) and clears the
    /// ring and the drop counter. The ring keeps its allocation;
    /// sequence counters, row tables and the serial tail survive, so
    /// ids stay unique across drains and cross-drain dependencies
    /// dangle instead of colliding.
    pub fn drain_into(&mut self, trace: &mut OpTrace) {
        // contiguous already unless the ring dropped records (a clear
        // rewinds it to the start of its buffer)
        trace.append(self.buf.make_contiguous(), &self.labels, self.dropped);
        self.clear();
    }

    /// Discards the buffered records, leaving the recorder in exactly
    /// the state [`OpRecorder::drain_into`] leaves it in, without
    /// building a trace: the drop counter is zeroed and the label table
    /// shrinks to the active label, re-interned at index 0, so later
    /// records don't index labels of a window that is gone.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.dropped = 0;
        if self.label == NO_LABEL {
            self.labels.clear();
        } else {
            self.labels.swap(0, self.label as usize);
            self.labels.truncate(1);
            self.label = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The recorder as it was with `BTreeMap` row maps and a ring that
    /// is handed off whole on drain: the oracle the dense tables and
    /// the reused ring must reproduce record for record.
    struct MapRecorder {
        buf: VecDeque<OpRecord>,
        capacity: usize,
        dropped: u64,
        base: u64,
        seq: u64,
        array: u16,
        label: u32,
        labels: Vec<String>,
        last_id: u64,
        pending_dep: u64,
        row_writer: BTreeMap<u32, u64>,
        row_reader: BTreeMap<u32, u64>,
    }

    impl MapRecorder {
        fn new(stream: u16, capacity: usize) -> Self {
            MapRecorder {
                buf: VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
                base: (stream as u64 + 1) << 40,
                seq: 0,
                array: stream,
                label: NO_LABEL,
                labels: Vec::new(),
                last_id: 0,
                pending_dep: 0,
                row_writer: BTreeMap::new(),
                row_reader: BTreeMap::new(),
            }
        }

        fn set_label(&mut self, label: Option<&str>) {
            self.label = match label {
                None => NO_LABEL,
                Some(l) => match self.labels.iter().position(|x| x == l) {
                    Some(i) => i as u32,
                    None => {
                        self.labels.push(l.to_string());
                        (self.labels.len() - 1) as u32
                    }
                },
            };
        }

        fn record(&mut self, kind: OpKind, reads: &[u32], writes: &[u32], start: u64) -> u64 {
            self.seq += 1;
            let id = self.base | self.seq;
            let serial = if self.pending_dep != 0 {
                std::mem::take(&mut self.pending_dep)
            } else {
                self.last_id
            };
            let mut raw = 0u64;
            for r in reads {
                if let Some(&w) = self.row_writer.get(r) {
                    raw = raw.max(w);
                }
            }
            let mut war = 0u64;
            for w in writes {
                if let Some(&x) = self.row_writer.get(w) {
                    war = war.max(x);
                }
                if let Some(&x) = self.row_reader.get(w) {
                    war = war.max(x);
                }
            }
            if raw == serial {
                raw = 0;
            }
            if war == serial || war == raw {
                war = 0;
            }
            for &r in reads {
                self.row_reader.insert(r, id);
            }
            for &w in writes {
                self.row_writer.insert(w, id);
            }
            let rows = [
                reads.first().copied().unwrap_or(NO_ROW),
                reads.get(1).copied().unwrap_or(NO_ROW),
            ];
            let dst = writes.first().copied().unwrap_or(NO_ROW);
            self.push(kind, [serial, raw, war], start, 1, 1, rows, dst, id)
        }

        fn record_explicit(&mut self, kind: OpKind, deps: [u64; 3], start: u64) -> u64 {
            self.seq += 1;
            let id = self.base | self.seq;
            self.push(kind, deps, start, 2, 0, [NO_ROW, NO_ROW], NO_ROW, id)
        }

        #[allow(clippy::too_many_arguments)]
        fn push(
            &mut self,
            kind: OpKind,
            deps: [u64; 3],
            start: u64,
            cycles: u64,
            sram: u32,
            rows: [u32; 2],
            dst: u32,
            id: u64,
        ) -> u64 {
            self.last_id = id;
            if self.buf.len() >= self.capacity {
                self.buf.pop_front();
                self.dropped += 1;
            }
            self.buf.push_back(OpRecord {
                id,
                deps,
                start,
                cycles,
                sram,
                size: 4,
                rows,
                dst,
                session: NO_SESSION,
                label: self.label,
                kind,
                array: self.array,
            });
            id
        }

        fn drain(&mut self) -> OpTrace {
            let active = if self.label == NO_LABEL {
                None
            } else {
                self.labels.get(self.label as usize).cloned()
            };
            let trace = OpTrace {
                records: std::mem::take(&mut self.buf).into(),
                labels: std::mem::take(&mut self.labels),
                dropped: std::mem::take(&mut self.dropped),
            };
            self.label = NO_LABEL;
            self.set_label(active.as_deref());
            trace
        }
    }

    /// Rows of the recorders under test: few enough that random ops
    /// keep hitting rows with history.
    const ROWS: u32 = 12;

    /// A row drawn from `bits`, biased towards the first and last row.
    fn row_of(bits: u64) -> u32 {
        match bits % 4 {
            0 => 0,
            1 => ROWS - 1,
            _ => (bits >> 2) as u32 % ROWS,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn dense_tables_match_the_map_oracle(
            ops in prop::collection::vec(any::<u64>(), 0..300),
            capacity in 1usize..40,
        ) {
            let mut new = OpRecorder::new(3, capacity, ROWS as usize);
            let mut old = MapRecorder::new(3, capacity);
            let kinds = [OpKind::AddSub, OpKind::Logic, OpKind::HostWrite, OpKind::WriteBack];
            for (step, &op) in ops.iter().enumerate() {
                let start = step as u64;
                let arg = op >> 4;
                match op % 16 {
                    0..=7 => {
                        let reads: Vec<u32> =
                            (0..arg % 3).map(|k| row_of(arg >> (2 + 8 * k))).collect();
                        let writes: Vec<u32> =
                            (0..(arg >> 1) % 2).map(|_| row_of(arg >> 30)).collect();
                        let kind = kinds[(arg >> 40) as usize % kinds.len()];
                        let a = new.record(kind, &reads, &writes, start, 1, 1, 4);
                        let b = old.record(kind, &reads, &writes, start);
                        prop_assert_eq!(a, b);
                    }
                    8 => {
                        let deps = [arg & 0xFF, (arg >> 8) & 0xFF, 0];
                        let a = new.record_explicit(
                            OpKind::DmaIn, deps, start, 2, [NO_ROW, NO_ROW], NO_ROW, 4,
                        );
                        prop_assert_eq!(a, old.record_explicit(OpKind::DmaIn, deps, start));
                    }
                    9 => {
                        let deps = [new.tail(), arg & 0xFF, 0];
                        let a = new.record_barrier(deps, start, 2, 4);
                        prop_assert_eq!(a, old.record_explicit(OpKind::Barrier, deps, start));
                    }
                    10 => {
                        let (row, id) = (row_of(arg), (9 << 40) | (arg >> 8) % 50 + 1);
                        new.note_external_write(row, id);
                        old.row_writer.insert(row, id);
                    }
                    11 => {
                        let id = (8 << 40) | (arg % 50 + 1);
                        new.set_pending_dep(id);
                        old.pending_dep = id;
                    }
                    12 => {
                        let label = [None, Some("lpf"), Some("hpf"), Some("nms")][arg as usize % 4];
                        new.set_label(label);
                        old.set_label(label);
                    }
                    13 => prop_assert_eq!(new.drain(), old.drain()),
                    14 => {
                        // clearing must leave what a dropped drain leaves
                        new.clear();
                        let _ = old.drain();
                    }
                    _ => {
                        let mut merged = OpTrace::new();
                        merged.intern("padding");
                        let mut expect = merged.clone();
                        new.drain_into(&mut merged);
                        expect.merge(old.drain());
                        prop_assert_eq!(merged, expect);
                    }
                }
                prop_assert_eq!(new.tail(), old.last_id);
                prop_assert_eq!(new.len(), old.buf.len());
                prop_assert_eq!(new.dropped(), old.dropped);
            }
            prop_assert_eq!(new.drain(), old.drain());
        }
    }

    #[test]
    fn rows_past_the_table_are_rejected_without_panicking() {
        let mut r = OpRecorder::new(0, 8, 4);
        let w = r.record(OpKind::HostWrite, &[], &[u32::MAX], 0, 0, 0, 1);
        r.note_external_write(4, 0xABCD);
        r.set_pending_dep(0xBEEF);
        let x = r.record(OpKind::AddSub, &[4, u32::MAX], &[4], 0, 1, 1, 1);
        let t = r.drain();
        assert_eq!(t.records[1].id, x);
        assert_eq!(t.records[1].deps, [0xBEEF, 0, 0], "no row edge onto {w}");
        assert_eq!(t.records[1].rows, [4, u32::MAX], "rows are still stamped");
    }

    #[test]
    fn clear_keeps_ids_tail_and_the_active_label() {
        let mut r = OpRecorder::new(0, 2, 8);
        r.set_label(Some("lpf"));
        r.set_label(Some("hpf"));
        let a = r.record(OpKind::HostWrite, &[], &[5], 0, 0, 0, 1);
        for _ in 0..3 {
            r.record(OpKind::Logic, &[], &[], 0, 1, 0, 1);
        }
        assert_eq!(r.dropped(), 2);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        let b = r.record(OpKind::AddSub, &[5], &[], 1, 1, 1, 1);
        let t = r.drain();
        assert_eq!(t.labels, ["hpf"]);
        assert_eq!(t.records[0].label, 0);
        assert_eq!(b & 0xFF, 5, "ids continue across a clear");
        assert_eq!(t.records[0].deps[1], a, "row tables survive a clear");
    }

    #[test]
    fn serial_chain_and_row_edges() {
        let mut r = OpRecorder::new(0, 16, 8);
        let a = r.record(OpKind::HostWrite, &[], &[3], 0, 0, 0, 40); // write r3
        let b = r.record(OpKind::AddSub, &[3, 4], &[], 0, 1, 1, 40); // read r3
        let c = r.record(OpKind::WriteBack, &[], &[3], 1, 1, 1, 40); // overwrite r3
        let t = r.drain();
        assert_eq!(t.records[1].deps, [a, 0, 0], "RAW folds into serial dep");
        let rec_c = &t.records[2];
        assert_eq!(rec_c.deps[0], b);
        assert_eq!(rec_c.deps[2], 0, "WAR vs the serial dep deduplicates");
        assert_eq!(rec_c.id, c);
    }

    #[test]
    fn pending_dep_restarts_the_chain() {
        let mut r = OpRecorder::new(2, 16, 8);
        r.record(OpKind::AddSub, &[], &[], 0, 1, 0, 8);
        r.set_pending_dep(0xBEEF);
        let id = r.record(OpKind::AddSub, &[], &[], 1, 1, 0, 8);
        let t = r.drain();
        assert_eq!(t.records[1].deps[0], 0xBEEF);
        assert_eq!(t.records[1].id, id);
        assert_eq!(id >> 40, 3, "ids are namespaced by stream + 1");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = OpRecorder::new(0, 2, 8);
        for i in 0..5 {
            r.record(OpKind::Logic, &[], &[], i, 1, 0, 1);
        }
        assert_eq!(r.dropped(), 3);
        let t = r.drain();
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped, 3);
        assert_eq!(t.records[0].id & 0xFF, 4, "oldest records were dropped");
    }

    #[test]
    fn drain_keeps_ids_unique_and_labels_fresh() {
        let mut r = OpRecorder::new(1, 8, 8);
        r.set_label(Some("lpf"));
        let a = r.record(OpKind::Mul, &[], &[], 0, 3, 0, 1);
        let t1 = r.drain();
        assert_eq!(t1.label(t1.records[0].label), Some("lpf"));
        r.set_label(Some("hpf"));
        let b = r.record(OpKind::Mul, &[], &[], 3, 3, 0, 1);
        let t2 = r.drain();
        assert_ne!(a, b);
        assert_eq!(t2.records[0].deps[0], a, "serial tail survives the drain");
        assert_eq!(t2.label(t2.records[0].label), Some("hpf"));
    }
}
