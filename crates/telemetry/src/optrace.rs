//! Dependency-tracked binary op trace: the flight-recorder format.
//!
//! The simulator's [`crate::Telemetry`] spans answer *"how long did
//! this phase take"*; this module answers *"which macro-ops, rows and
//! host transfers burned the budget, and in what order"*. Producers
//! (the `pimvo-pim` machine/pool/executor layer) emit one fixed-size
//! [`OpRecord`] per macro-op with explicit dependency edges — row RAW /
//! WAR within an array, wave barriers and job ordering across arrays,
//! host load/store ↔ compute — and this module owns everything
//! downstream of that stream:
//!
//! * the **binary codec** ([`OpTrace::encode`] / [`OpTrace::decode`]),
//!   byte-deterministic, in the shared [`crate::container`] frame
//!   (magic `PIMVOTRC`) with this payload:
//!
//!   ```text
//!   record_len u16 | dropped u64 | count u64 | records (80 B each) |
//!   nlabels u64 | (len u64, utf8 bytes)*
//!   ```
//!
//! * the **critical-path profiler** ([`profile`]): a longest-path walk
//!   over the dependency DAG, attributing cycles/energy per op kind,
//!   per kernel label, per array and per session.
//!
//! Corrupt input never panics: every decode failure is a typed
//! [`ContainerError`].

use crate::container::{open, ContainerError, Reader, Writer};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Container magic: "PIMVOTRC" (trace), distinct from the fleet
/// manifest ("PIMVOFLT") and tracker checkpoint ("PIMVOCKP") magics.
pub const OPTRACE_MAGIC: &[u8; 8] = b"PIMVOTRC";
/// Container version; bumped on layout changes.
pub const OPTRACE_VERSION: u16 = 2;
/// Encoded size of one [`OpRecord`], embedded in the payload so a
/// decoder can reject records from a different layout outright.
pub const OP_RECORD_LEN: u16 = 80;

/// Sentinel row index: the record reads/writes no SRAM row there.
pub const NO_ROW: u32 = u32::MAX;
/// Sentinel label index: the record carries no kernel label.
pub const NO_LABEL: u32 = u32::MAX;
/// Sentinel session id: the record is not attributed to a session.
pub const NO_SESSION: u32 = u32::MAX;
/// Array index of the pool-level stream (wave barriers / sync points).
pub const POOL_STREAM: u16 = u16::MAX;
/// High bit of [`OpRecord::array`] marking a DMA channel lane: channel
/// `c` of array `a` records as `DMA_LANE_BASE | a`, rendering as
/// `dma a` in the profile tables and Perfetto tracks. Distinct from
/// [`POOL_STREAM`] (all 16 bits set).
pub const DMA_LANE_BASE: u16 = 0x8000;
/// Dependency slots per record; `0` marks an empty slot (record ids
/// start at 1).
pub const DEPS_PER_RECORD: usize = 3;

/// What one [`OpRecord`] did. The first fourteen variants mirror the
/// machine's macro-op classes; the rest cover the host port, array
/// maintenance and pool synchronisation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u16)]
pub enum OpKind {
    /// Bitwise logic through the dual sense amplifiers.
    Logic = 0,
    /// Add / subtract.
    AddSub = 1,
    /// Saturating add / subtract / narrow.
    SatAddSub = 2,
    /// Average.
    Avg = 3,
    /// Absolute difference.
    AbsDiff = 4,
    /// Min / max.
    MinMax = 5,
    /// Lane or bit shift.
    Shift = 6,
    /// Comparison.
    Cmp = 7,
    /// Select / register move.
    Select = 8,
    /// Multiplication (shift-accumulate steps folded in).
    Mul = 9,
    /// Division (subtract-restore steps folded in).
    Div = 10,
    /// Tmp-Reg write-back to an SRAM row.
    WriteBack = 11,
    /// Lane-tree reduction.
    Reduce = 12,
    /// Serialized random-access gather.
    Gather = 13,
    /// Host port → SRAM row transfer (image upload, constants).
    HostWrite = 14,
    /// SRAM row → host port transfer (result readout).
    HostRead = 15,
    /// Scrub (march-test) pass over a row.
    Scrub = 16,
    /// Verify-on-read patrol charge (probation mode).
    Patrol = 17,
    /// Spare-row remap migration.
    Remap = 18,
    /// Pool synchronisation point: joins the member streams of one
    /// wave (carries the inter-array sync cost) or serializes a
    /// recovery/patrol step against the pool's wall clock.
    Barrier = 19,
    /// DMA descriptor host → SRAM (strip input):
    /// setup + per-beat + completion cycles on a channel lane.
    DmaIn = 20,
    /// DMA descriptor SRAM → host (strip/result readout).
    DmaOut = 21,
    /// Compute stream stalled waiting on an inbound DMA completion
    /// (includes retry/backoff/timeout penalties under faults).
    DmaStall = 22,
}

/// Every kind, in discriminant order (profile table order).
pub const OP_KINDS: [OpKind; 23] = [
    OpKind::Logic,
    OpKind::AddSub,
    OpKind::SatAddSub,
    OpKind::Avg,
    OpKind::AbsDiff,
    OpKind::MinMax,
    OpKind::Shift,
    OpKind::Cmp,
    OpKind::Select,
    OpKind::Mul,
    OpKind::Div,
    OpKind::WriteBack,
    OpKind::Reduce,
    OpKind::Gather,
    OpKind::HostWrite,
    OpKind::HostRead,
    OpKind::Scrub,
    OpKind::Patrol,
    OpKind::Remap,
    OpKind::Barrier,
    OpKind::DmaIn,
    OpKind::DmaOut,
    OpKind::DmaStall,
];

impl OpKind {
    /// Stable wire/display name.
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::Logic => "logic",
            OpKind::AddSub => "addsub",
            OpKind::SatAddSub => "sat",
            OpKind::Avg => "avg",
            OpKind::AbsDiff => "absdiff",
            OpKind::MinMax => "minmax",
            OpKind::Shift => "shift",
            OpKind::Cmp => "cmp",
            OpKind::Select => "select",
            OpKind::Mul => "mul",
            OpKind::Div => "div",
            OpKind::WriteBack => "writeback",
            OpKind::Reduce => "reduce",
            OpKind::Gather => "gather",
            OpKind::HostWrite => "host_write",
            OpKind::HostRead => "host_read",
            OpKind::Scrub => "scrub",
            OpKind::Patrol => "patrol",
            OpKind::Remap => "remap",
            OpKind::Barrier => "barrier",
            OpKind::DmaIn => "dma_in",
            OpKind::DmaOut => "dma_out",
            OpKind::DmaStall => "dma_stall",
        }
    }

    /// Decodes a wire discriminant.
    fn from_u16(v: u16) -> Option<OpKind> {
        OP_KINDS.get(v as usize).copied()
    }
}

/// One traced macro-op: what ran, where, what it cost, and which
/// earlier records it depended on. Fixed 80-byte wire encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpRecord {
    /// Globally unique id (> 0; producers namespace ids per stream).
    pub id: u64,
    /// Dependency edges: ids of records that must finish before this
    /// one starts. Slot order: serial predecessor in the same stream,
    /// row RAW (last writer of a read row), row WAR/WAW (last
    /// reader/writer of the written row). `0` = empty slot.
    pub deps: [u64; DEPS_PER_RECORD],
    /// Stream-local cycle counter at op start (machine cycles for
    /// array streams, pool wall cycles for the [`POOL_STREAM`]).
    pub start: u64,
    /// Cycles charged, protection/multi-step overhead included.
    pub cycles: u64,
    /// SRAM accesses charged (reads + writes), for energy attribution.
    pub sram: u32,
    /// Operation size: lanes touched, gather elements, scrubbed rows.
    pub size: u32,
    /// Rows read (`[a, b]`; [`NO_ROW`] = operand was not a row).
    pub rows: [u32; 2],
    /// Row written ([`NO_ROW`] = result stayed in the Tmp Reg).
    pub dst: u32,
    /// Owning session id ([`NO_SESSION`] outside the serving layer).
    pub session: u32,
    /// Kernel label as an index into [`OpTrace::labels`]
    /// ([`NO_LABEL`] = unlabeled).
    pub label: u32,
    /// What the op did.
    pub kind: OpKind,
    /// Array index, or [`POOL_STREAM`] for pool synchronisation.
    pub array: u16,
}

impl OpRecord {
    fn encode_into(&self, w: &mut Writer) {
        w.u64(self.id);
        for &d in &self.deps {
            w.u64(d);
        }
        w.u64(self.start);
        w.u64(self.cycles);
        w.u32(self.sram);
        w.u32(self.size);
        w.u32(self.rows[0]);
        w.u32(self.rows[1]);
        w.u32(self.dst);
        w.u32(self.session);
        w.u32(self.label);
        w.u16(self.kind as u16);
        w.u16(self.array);
    }

    fn decode_from(r: &mut Reader) -> Result<OpRecord, ContainerError> {
        let id = r.u64()?;
        if id == 0 {
            return Err(ContainerError::Malformed("record id zero"));
        }
        Ok(OpRecord {
            id,
            deps: [r.u64()?, r.u64()?, r.u64()?],
            start: r.u64()?,
            cycles: r.u64()?,
            sram: r.u32()?,
            size: r.u32()?,
            rows: [r.u32()?, r.u32()?],
            dst: r.u32()?,
            session: r.u32()?,
            label: r.u32()?,
            kind: OpKind::from_u16(r.u16()?).ok_or(ContainerError::Malformed("unknown op kind"))?,
            array: r.u16()?,
        })
    }
}

/// A batch of [`OpRecord`]s plus the interned kernel-label table and
/// the producer's ring-buffer drop counter.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpTrace {
    /// Records, in emission order per stream (streams concatenate on
    /// [`OpTrace::merge`]; dependency ids remain valid across streams).
    pub records: Vec<OpRecord>,
    /// Kernel label strings, indexed by [`OpRecord::label`].
    pub labels: Vec<String>,
    /// Records the producer's bounded ring dropped (oldest-first).
    /// Non-zero means dependency edges may dangle; the profiler treats
    /// a missing dependency as already finished.
    pub dropped: u64,
}

impl OpTrace {
    /// An empty trace.
    pub fn new() -> Self {
        OpTrace::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The label string behind an [`OpRecord::label`] index.
    pub fn label(&self, idx: u32) -> Option<&str> {
        if idx == NO_LABEL {
            return None;
        }
        self.labels.get(idx as usize).map(String::as_str)
    }

    /// Interns `label`, returning its index.
    pub fn intern(&mut self, label: &str) -> u32 {
        if let Some(i) = self.labels.iter().position(|l| l == label) {
            return i as u32;
        }
        self.labels.push(label.to_string());
        (self.labels.len() - 1) as u32
    }

    /// Appends another trace (a per-array or pool stream), remapping
    /// its label indices into this trace's table and accumulating its
    /// drop counter. Record ids are producer-namespaced and stay
    /// valid unchanged.
    pub fn merge(&mut self, other: OpTrace) {
        self.append(&other.records, &other.labels, other.dropped);
    }

    /// Appends one producer stream given as its parts — records, their
    /// label table and drop counter — exactly as [`OpTrace::merge`]
    /// would append the trace they form, without building that trace:
    /// the records are copied in one block, then relabeled in place.
    pub fn append(&mut self, records: &[OpRecord], labels: &[String], dropped: u64) {
        let remap: Vec<u32> = labels.iter().map(|l| self.intern(l)).collect();
        let at = self.records.len();
        self.records.extend_from_slice(records);
        for r in &mut self.records[at..] {
            if r.label != NO_LABEL {
                r.label = remap.get(r.label as usize).copied().unwrap_or(NO_LABEL);
            }
        }
        self.dropped += dropped;
    }

    /// A disassembly-style listing, one line per record: kind, kernel
    /// label, rows read → row written, start cycle, cycles and SRAM
    /// accesses. A leading notice reports records the producer's ring
    /// dropped.
    pub fn listing(&self) -> String {
        let row = |r: u32| (r != NO_ROW).then(|| format!("r{r}"));
        let mut out = String::new();
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "... {} earlier record(s) dropped by the ring buffer ...",
                self.dropped
            );
        }
        for r in &self.records {
            let reads: Vec<String> = r.rows.iter().filter_map(|&x| row(x)).collect();
            let reads = if reads.is_empty() {
                "-".to_string()
            } else {
                reads.join(",")
            };
            let _ = writeln!(
                out,
                "{:<10} {:<14} {:>9} -> {:<5} @{:<8} {:>4} cyc {:>3} sram",
                r.kind.as_str(),
                self.label(r.label).unwrap_or("-"),
                reads,
                row(r.dst).unwrap_or_else(|| "-".to_string()),
                r.start,
                r.cycles,
                r.sram
            );
        }
        out
    }

    /// Serializes the trace into its [`crate::container`] frame.
    /// Byte-deterministic: the same trace always encodes identically.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(OPTRACE_MAGIC, OPTRACE_VERSION);
        w.u16(OP_RECORD_LEN);
        w.u64(self.dropped);
        w.u64(self.records.len() as u64);
        for r in &self.records {
            r.encode_into(&mut w);
        }
        w.u64(self.labels.len() as u64);
        for l in &self.labels {
            w.u64(l.len() as u64);
            w.bytes(l.as_bytes());
        }
        w.seal()
    }

    /// Parses a container produced by [`OpTrace::encode`].
    ///
    /// # Errors
    ///
    /// A typed [`ContainerError`] on any corruption: framing damage,
    /// an unsupported version or record layout, or a structurally
    /// invalid payload. Never panics.
    pub fn decode(bytes: &[u8]) -> Result<OpTrace, ContainerError> {
        let mut r = Reader::new(open(bytes, OPTRACE_MAGIC, OPTRACE_VERSION)?);
        if r.u16()? != OP_RECORD_LEN {
            return Err(ContainerError::Malformed("unsupported op record size"));
        }
        let dropped = r.u64()?;
        let count = r.count(OP_RECORD_LEN as usize)?;
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            records.push(OpRecord::decode_from(&mut r)?);
        }
        let nlabels = r.count(8)?;
        let mut labels = Vec::with_capacity(nlabels);
        for _ in 0..nlabels {
            let len = r.count(1)?;
            let s = std::str::from_utf8(r.take(len)?)
                .map_err(|_| ContainerError::Malformed("label not utf-8"))?;
            labels.push(s.to_string());
        }
        r.finish()?;
        if records
            .iter()
            .any(|rec| rec.label != NO_LABEL && rec.label as usize >= labels.len())
        {
            return Err(ContainerError::Malformed("label index out of range"));
        }
        Ok(OpTrace {
            records,
            labels,
            dropped,
        })
    }
}

// ---------------------------------------------------------------------
// Critical-path profiler
// ---------------------------------------------------------------------

/// Per-record energy weights for the profile's attribution columns.
/// Callers derive them from their `CostModel` (the trace itself stays
/// cost-model-free): `op_pj` per charged cycle (shifter/adder +
/// Tmp-Reg traffic), `sram_pj` per SRAM access.
#[derive(Clone, Copy, Debug)]
pub struct EnergyWeights {
    /// Picojoules per charged cycle.
    pub op_pj: f64,
    /// Picojoules per SRAM access.
    pub sram_pj: f64,
}

/// One aggregation bucket of a [`Profile`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfileRow {
    /// Records in the bucket.
    pub count: u64,
    /// Cycles charged by the bucket.
    pub cycles: u64,
    /// SRAM accesses charged by the bucket.
    pub sram: u64,
    /// Cycles the bucket contributes to the critical path.
    pub crit_cycles: u64,
}

impl ProfileRow {
    fn add(&mut self, r: &OpRecord, on_path: bool) {
        self.count += 1;
        self.cycles += r.cycles;
        self.sram += r.sram as u64;
        if on_path {
            self.crit_cycles += r.cycles;
        }
    }

    /// Energy attributed to the bucket under `w`.
    fn energy_pj(&self, w: &EnergyWeights) -> f64 {
        self.cycles as f64 * w.op_pj + self.sram as f64 * w.sram_pj
    }
}

/// The dependency-DAG profile of one [`OpTrace`]: critical path plus
/// cycle/energy attribution per op kind, kernel, array and session.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Records profiled.
    pub records: u64,
    /// Producer-side ring drops (dangling edges possible when > 0).
    pub dropped: u64,
    /// Sum of all record cycles (the serial, one-array-at-a-time cost).
    pub total_cycles: u64,
    /// Longest dependency chain through the DAG, weighted by record
    /// cycles. With pool barriers in the trace this equals the pool's
    /// wall-cycle delta over the traced window.
    pub critical_path_cycles: u64,
    /// Records on the critical path.
    pub critical_path_records: u64,
    /// Attribution per op kind (keyed by [`OpKind::as_str`]).
    pub by_kind: BTreeMap<&'static str, ProfileRow>,
    /// Attribution per kernel label (`"(unlabeled)"` bucket for none).
    pub by_kernel: BTreeMap<String, ProfileRow>,
    /// Attribution per array ([`POOL_STREAM`] renders as `pool`).
    pub by_array: BTreeMap<u16, ProfileRow>,
    /// Attribution per session ([`NO_SESSION`] renders as `-`).
    pub by_session: BTreeMap<u32, ProfileRow>,
}

/// Walks the trace's dependency DAG: computes the cycle-weighted
/// critical path and aggregates cycles/SRAM traffic into the profile's
/// attribution tables. Dependencies on records missing from the trace
/// (dropped by a bounded ring) are treated as already finished.
pub fn profile(trace: &OpTrace) -> Profile {
    let index: BTreeMap<u64, usize> = trace
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| (r.id, i))
        .collect();
    let n = trace.records.len();
    // finish[i] = r.cycles + max(finish[deps]); iterative DFS so deep
    // serial chains (every machine stream is one) cannot overflow the
    // host stack.
    let mut finish: Vec<u64> = vec![u64::MAX; n];
    let mut stack: Vec<usize> = Vec::new();
    for root in 0..n {
        if finish[root] != u64::MAX {
            continue;
        }
        stack.push(root);
        while let Some(&i) = stack.last() {
            if finish[i] != u64::MAX {
                stack.pop();
                continue;
            }
            let mut ready = true;
            let mut best = 0u64;
            for &d in &trace.records[i].deps {
                if d == 0 {
                    continue;
                }
                let Some(&j) = index.get(&d) else { continue };
                if j == i {
                    continue; // self-edge: corrupt input, ignore
                }
                if finish[j] == u64::MAX {
                    // unvisited dependency: defer unless it is already
                    // on the stack (a cycle, only possible in corrupt
                    // input) — then treat it as finished at 0
                    if stack.contains(&j) {
                        continue;
                    }
                    stack.push(j);
                    ready = false;
                } else {
                    best = best.max(finish[j]);
                }
            }
            if ready {
                stack.pop();
                finish[i] = trace.records[i].cycles.saturating_add(best);
            }
        }
    }

    // walk the path back from the latest finisher, marking its records
    let mut on_path = vec![false; n];
    let mut crit_cycles = 0u64;
    let mut crit_records = 0u64;
    if let Some(mut i) = (0..n).max_by_key(|&i| (finish[i], std::cmp::Reverse(i))) {
        crit_cycles = finish[i];
        loop {
            on_path[i] = true;
            crit_records += 1;
            let want = finish[i] - trace.records[i].cycles;
            let mut next = None;
            for &d in &trace.records[i].deps {
                if d == 0 {
                    continue;
                }
                if let Some(&j) = index.get(&d) {
                    if j != i && finish[j] == want && !on_path[j] {
                        next = Some(j);
                        break;
                    }
                }
            }
            match next {
                Some(j) if want > 0 => i = j,
                _ => break,
            }
        }
    }

    let mut p = Profile {
        records: n as u64,
        dropped: trace.dropped,
        critical_path_cycles: crit_cycles,
        critical_path_records: crit_records,
        ..Profile::default()
    };
    for (i, r) in trace.records.iter().enumerate() {
        p.total_cycles += r.cycles;
        p.by_kind
            .entry(r.kind.as_str())
            .or_default()
            .add(r, on_path[i]);
        let kernel = trace.label(r.label).unwrap_or("(unlabeled)").to_string();
        p.by_kernel.entry(kernel).or_default().add(r, on_path[i]);
        p.by_array.entry(r.array).or_default().add(r, on_path[i]);
        p.by_session
            .entry(r.session)
            .or_default()
            .add(r, on_path[i]);
    }
    p
}

impl Profile {
    /// Renders the attribution tables as deterministic fixed-width
    /// text (the `out/profile_*.txt` golden format).
    pub fn render(&self, w: &EnergyWeights) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "op trace profile");
        let _ = writeln!(
            out,
            "  records        : {} ({} dropped)",
            self.records, self.dropped
        );
        let _ = writeln!(out, "  total cycles   : {} (serial sum)", self.total_cycles);
        let _ = writeln!(
            out,
            "  critical path  : {} cycles over {} records",
            self.critical_path_cycles, self.critical_path_records
        );
        for (title, rows) in [
            ("kind", fmt_keys(&self.by_kind, |k| k.to_string())),
            ("kernel", fmt_keys(&self.by_kernel, |k| k.clone())),
            ("array", fmt_keys(&self.by_array, |&a| stream_name(a))),
            (
                "session",
                fmt_keys(&self.by_session, |&s| {
                    if s == NO_SESSION {
                        "-".to_string()
                    } else {
                        format!("session {s}")
                    }
                }),
            ),
        ] {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "  by {title:<18} {:>10} {:>14} {:>12} {:>14} {:>16}",
                "count", "cycles", "sram", "crit-cycles", "energy-pJ"
            );
            for (name, row) in rows {
                let _ = writeln!(
                    out,
                    "    {name:<19} {:>10} {:>14} {:>12} {:>14} {:>16.1}",
                    row.count,
                    row.cycles,
                    row.sram,
                    row.crit_cycles,
                    row.energy_pj(w)
                );
            }
        }
        out
    }
}

/// Display name of an [`OpRecord::array`] stream index: `pool` for the
/// sync stream, `dma a` for array `a`'s DMA channel lane
/// ([`DMA_LANE_BASE`]), `array a` otherwise.
fn stream_name(a: u16) -> String {
    if a == POOL_STREAM {
        "pool".to_string()
    } else if a & DMA_LANE_BASE != 0 {
        format!("dma {}", a & !DMA_LANE_BASE)
    } else {
        format!("array {a}")
    }
}

fn fmt_keys<K: Ord + Clone, F: Fn(&K) -> String>(
    map: &BTreeMap<K, ProfileRow>,
    f: F,
) -> Vec<(String, ProfileRow)> {
    map.iter().map(|(k, v)| (f(k), *v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, deps: [u64; 3], cycles: u64) -> OpRecord {
        OpRecord {
            id,
            deps,
            start: 0,
            cycles,
            sram: 1,
            size: 320,
            rows: [0, NO_ROW],
            dst: NO_ROW,
            session: NO_SESSION,
            label: NO_LABEL,
            kind: OpKind::AddSub,
            array: 0,
        }
    }

    fn sample() -> OpTrace {
        let mut t = OpTrace::new();
        let l = t.intern("lpf_pass1");
        t.records = vec![
            rec(1, [0; 3], 3),
            rec(2, [1, 0, 0], 5),
            OpRecord {
                label: l,
                kind: OpKind::Mul,
                ..rec(3, [1, 0, 0], 7)
            },
            OpRecord {
                kind: OpKind::Barrier,
                array: POOL_STREAM,
                ..rec(4, [2, 3, 0], 2)
            },
        ];
        t
    }

    #[test]
    fn merge_remaps_labels() {
        let mut a = OpTrace::new();
        let la = a.intern("hpf");
        a.records.push(OpRecord {
            label: la,
            ..rec(1, [0; 3], 1)
        });
        let mut b = OpTrace::new();
        b.intern("padding");
        let lb = b.intern("hpf");
        b.records.push(OpRecord {
            label: lb,
            ..rec(10, [0; 3], 1)
        });
        b.dropped = 2;
        a.merge(b);
        assert_eq!(a.dropped, 2);
        assert_eq!(a.label(a.records[1].label), Some("hpf"));
        assert_eq!(a.labels.len(), 2, "shared labels deduplicate");
    }

    #[test]
    fn listing_has_one_line_per_record_and_a_drop_notice() {
        let mut t = sample();
        let listing = t.listing();
        assert_eq!(listing.lines().count(), t.len());
        let mul = listing.lines().nth(2).unwrap();
        assert!(mul.starts_with("mul"), "{mul}");
        assert!(mul.contains("lpf_pass1"), "{mul}");
        assert!(mul.contains("r0 -> -"), "{mul}");
        assert!(!listing.contains("dropped"));

        t.dropped = 2;
        let listing = t.listing();
        assert_eq!(listing.lines().count(), t.len() + 1);
        assert!(listing
            .lines()
            .next()
            .unwrap()
            .contains("2 earlier record(s) dropped"));
    }

    #[test]
    fn critical_path_takes_the_longest_branch() {
        // diamond: 1 -> {2 (5cy), 3 (7cy)} -> 4; path = 3 + 7 + 2 = 12
        let t = sample();
        let p = profile(&t);
        assert_eq!(p.total_cycles, 17);
        assert_eq!(p.critical_path_cycles, 12);
        assert_eq!(p.critical_path_records, 3);
        assert_eq!(p.by_kind["mul"].crit_cycles, 7);
        assert_eq!(p.by_kind["addsub"].crit_cycles, 3, "only record 1");
        assert_eq!(p.by_kernel["lpf_pass1"].cycles, 7);
        assert_eq!(p.by_array[&POOL_STREAM].count, 1);
    }

    #[test]
    fn dangling_deps_profile_without_panicking() {
        let mut t = OpTrace::new();
        t.records = vec![rec(5, [4, 0, 0], 6)]; // dep 4 was dropped
        t.dropped = 4;
        let p = profile(&t);
        assert_eq!(p.critical_path_cycles, 6);
        assert_eq!(p.dropped, 4);
    }

    #[test]
    fn render_is_deterministic() {
        let t = sample();
        let w = EnergyWeights {
            op_pj: 0.5,
            sram_pj: 2.0,
        };
        let p = profile(&t);
        let s = p.render(&w);
        assert_eq!(s, profile(&t).render(&w));
        assert!(s.contains("critical path  : 12 cycles"));
        assert!(s.contains("lpf_pass1"));
        assert!(s.contains("pool"));
    }

    #[test]
    fn dma_kinds_roundtrip_and_name_channel_lanes() {
        for k in [OpKind::DmaIn, OpKind::DmaOut, OpKind::DmaStall] {
            assert_eq!(OpKind::from_u16(k as u16), Some(k));
        }
        assert_eq!(stream_name(DMA_LANE_BASE | 3), "dma 3");
        assert_eq!(stream_name(POOL_STREAM), "pool");
        assert_eq!(stream_name(2), "array 2");

        let mut t = OpTrace::new();
        t.records = vec![OpRecord {
            kind: OpKind::DmaIn,
            array: DMA_LANE_BASE | 1,
            ..rec(1, [0; 3], 22)
        }];
        let back = OpTrace::decode(&t.encode()).unwrap();
        assert_eq!(back, t);
    }
}
