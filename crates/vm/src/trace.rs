//! Record-once / replay-many trace storage.
//!
//! A [`TraceBuffer`] is a [`TraceSink`] that packs every event into one
//! `u64` (8 bytes per executed instruction) instead of the 16-byte
//! in-memory records [`RecordingSink`] stores. Freezing it yields a
//! [`FrozenTrace`] — an `Arc`-shared, immutable event array that any
//! number of threads can [`replay`](FrozenTrace::replay) concurrently
//! into their own sinks. Replaying reproduces the exact record sequence
//! the machine emitted, so a simulator fed by replay is bit-identical
//! to one that observed the live run.
//!
//! Production runs stream their events live into the simulators and
//! record nothing; a frozen trace is the tests' oracle (a recorded run
//! replayed into serial simulators) and the input of the benchmark's
//! sweep probes.
//!
//! [`RecordingSink`]: crate::RecordingSink

use crate::sink::{DataRecord, FetchRecord, TraceSink};
use std::sync::Arc;

// One event per u64:
//   bit  0      kind: 0 = fetch, 1 = data
//   bit  1      kernel flag
//   bit  2      write flag (data events; always 0 for fetches)
//   bits 3..11  cpu
//   bits 11..19 pid
//   bits 19..64 byte address (45 bits)
const KIND_DATA: u64 = 1 << 0;
const KERNEL: u64 = 1 << 1;
const WRITE: u64 = 1 << 2;
const CPU_SHIFT: u32 = 3;
const PID_SHIFT: u32 = 11;
const ADDR_SHIFT: u32 = 19;

/// Largest byte address a packed trace event can carry (45 bits). All
/// of the VM's address spaces (text, shared data, per-process private
/// data) lie far below this.
pub const MAX_TRACE_ADDR: u64 = (1 << (64 - ADDR_SHIFT)) - 1;

#[inline]
fn pack(addr: u64, cpu: u8, pid: u8, flags: u64) -> u64 {
    debug_assert!(addr <= MAX_TRACE_ADDR, "address {addr:#x} exceeds 45 bits");
    flags | ((cpu as u64) << CPU_SHIFT) | ((pid as u64) << PID_SHIFT) | (addr << ADDR_SHIFT)
}

/// An appendable compact trace; a [`TraceSink`] for the recording pass.
///
/// ```
/// use codelayout_vm::{FetchRecord, RecordingSink, TraceBuffer, TraceSink};
///
/// let mut buf = TraceBuffer::new();
/// buf.fetch(FetchRecord { addr: 0x40_0000, cpu: 1, pid: 2, kernel: false });
/// let frozen = buf.freeze();
/// let mut replayed = RecordingSink::default();
/// frozen.replay(&mut replayed);
/// assert_eq!(replayed.fetches[0].addr, 0x40_0000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    events: Vec<u64>,
    fetch_only: bool,
}

impl TraceBuffer {
    /// An empty buffer recording both fetch and data events.
    pub fn new() -> Self {
        TraceBuffer::default()
    }

    /// An empty buffer that drops data events at record time. The
    /// instruction-cache sweeps only consume fetches, and skipping data
    /// records keeps the buffer at 8 bytes per executed instruction.
    pub fn fetch_only() -> Self {
        TraceBuffer {
            events: Vec::new(),
            fetch_only: true,
        }
    }

    /// Pre-reserves room for `events` packed events. Growth reallocs
    /// (and the copying they imply) land inside the recording run, so
    /// callers that know the expected instruction count up front should
    /// size the buffer once here.
    pub fn reserve(&mut self, events: usize) {
        self.events.reserve(events);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Bytes of backing storage in use.
    pub fn size_bytes(&self) -> usize {
        self.events.len() * std::mem::size_of::<u64>()
    }

    /// Appends `n` pre-packed fetch events stepping by one instruction.
    /// Out of line so the short-run path of `fetch_run` stays small
    /// enough to inline into the engines' emit sites.
    fn bulk_fetches(&mut self, ev: u64, n: u64) {
        const STEP: u64 = codelayout_ir::INSTR_BYTES << ADDR_SHIFT;
        // Exact-size iterator: one reservation, no per-push growth
        // checks, and the addition vectorizes.
        self.events.extend((0..n).map(|i| ev + i * STEP));
    }

    /// Seals the buffer into an immutable, `Arc`-shared trace. The
    /// recorded events keep their allocation: freezing never copies them.
    pub fn freeze(self) -> FrozenTrace {
        let m = codelayout_obs::metrics();
        m.add("trace.frozen", 1);
        m.add("trace.events", self.events.len() as u64);
        m.add("trace.bytes", self.size_bytes() as u64);
        FrozenTrace {
            events: Arc::new(self.events),
        }
    }
}

impl TraceSink for TraceBuffer {
    #[inline]
    fn fetch(&mut self, rec: FetchRecord) {
        let flags = if rec.kernel { KERNEL } else { 0 };
        self.events.push(pack(rec.addr, rec.cpu, rec.pid, flags));
    }

    #[inline]
    fn fetch_run(&mut self, first: FetchRecord, n: u64) {
        // Pack once; consecutive instructions differ only in the address
        // field, so the whole run is one add per event.
        let flags = if first.kernel { KERNEL } else { 0 };
        let ev = pack(first.addr, first.cpu, first.pid, flags);
        const STEP: u64 = codelayout_ir::INSTR_BYTES << ADDR_SHIFT;
        debug_assert!(
            first.addr + n.saturating_sub(1) * codelayout_ir::INSTR_BYTES <= MAX_TRACE_ADDR
        );
        if n <= 4 {
            // The block engine folds pending fetches into memory-op
            // records, so short runs dominate; keep this path as cheap
            // as a plain `fetch` so it inlines at the emit sites.
            for i in 0..n {
                self.events.push(ev + i * STEP);
            }
        } else {
            self.bulk_fetches(ev, n);
        }
    }

    #[inline]
    fn data(&mut self, rec: DataRecord) {
        if self.fetch_only {
            return;
        }
        let mut flags = KIND_DATA;
        if rec.kernel {
            flags |= KERNEL;
        }
        if rec.write {
            flags |= WRITE;
        }
        self.events.push(pack(rec.addr, rec.cpu, rec.pid, flags));
    }
}

/// An immutable recorded trace, cheap to clone and share across
/// threads (`Arc`-backed). See the module docs for the intended
/// record-once / replay-in-parallel pattern.
///
/// Equality compares the full packed event streams, so two traces are
/// equal exactly when they replay identical record sequences — this is
/// what the cross-VM-engine oracle in the bench harness asserts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenTrace {
    events: Arc<Vec<u64>>,
}

impl FrozenTrace {
    /// FNV-1a digest of the packed event stream, as a lowercase hex
    /// string. Stable across processes and machines; used by benchmark
    /// artifacts to prove two engines produced byte-identical traces.
    pub fn digest(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &e in self.events.iter() {
            for b in e.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!("{h:016x}")
    }
    /// Number of events in the trace.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True for a trace with no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Bytes of shared backing storage.
    pub fn size_bytes(&self) -> usize {
        self.events.len() * std::mem::size_of::<u64>()
    }

    /// Replays every event, in recorded order, into `sink`. The records
    /// delivered are identical to the ones the original run emitted.
    pub fn replay<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        for &e in self.events.iter() {
            let addr = e >> ADDR_SHIFT;
            let cpu = (e >> CPU_SHIFT) as u8;
            let pid = (e >> PID_SHIFT) as u8;
            let kernel = e & KERNEL != 0;
            if e & KIND_DATA == 0 {
                sink.fetch(FetchRecord {
                    addr,
                    cpu,
                    pid,
                    kernel,
                });
            } else {
                sink.data(DataRecord {
                    addr,
                    cpu,
                    pid,
                    kernel,
                    write: e & WRITE != 0,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RecordingSink;

    fn fetch(addr: u64, cpu: u8, pid: u8, kernel: bool) -> FetchRecord {
        FetchRecord {
            addr,
            cpu,
            pid,
            kernel,
        }
    }

    fn data(addr: u64, cpu: u8, pid: u8, kernel: bool, write: bool) -> DataRecord {
        DataRecord {
            addr,
            cpu,
            pid,
            kernel,
            write,
        }
    }

    #[test]
    fn replay_reproduces_interleaved_records_exactly() {
        let mut buf = TraceBuffer::new();
        let mut direct = RecordingSink::default();
        let evs_f = [
            fetch(0x40_0000, 0, 0, false),
            fetch(crate::KERNEL_TEXT_BASE, 3, 7, true),
            fetch(MAX_TRACE_ADDR, 255, 255, false),
        ];
        let evs_d = [
            data(crate::SHARED_DATA_BASE, 1, 2, false, true),
            data(crate::PRIVATE_DATA_BASE + 8, 2, 5, true, false),
        ];
        buf.fetch(evs_f[0]);
        direct.fetch(evs_f[0]);
        buf.data(evs_d[0]);
        direct.data(evs_d[0]);
        buf.fetch(evs_f[1]);
        direct.fetch(evs_f[1]);
        buf.data(evs_d[1]);
        direct.data(evs_d[1]);
        buf.fetch(evs_f[2]);
        direct.fetch(evs_f[2]);

        assert_eq!(buf.len(), 5);
        assert_eq!(buf.size_bytes(), 40);
        let frozen = buf.freeze();
        let mut replayed = RecordingSink::default();
        frozen.replay(&mut replayed);
        assert_eq!(replayed.fetches, direct.fetches);
        assert_eq!(replayed.data, direct.data);
    }

    #[test]
    fn fetch_only_drops_data_events() {
        let mut buf = TraceBuffer::fetch_only();
        buf.fetch(fetch(0x1000, 0, 0, false));
        buf.data(data(0x2000, 0, 0, false, true));
        buf.fetch(fetch(0x1004, 0, 0, false));
        let frozen = buf.freeze();
        assert_eq!(frozen.len(), 2);
        let mut replayed = RecordingSink::default();
        frozen.replay(&mut replayed);
        assert_eq!(replayed.fetches.len(), 2);
        assert!(replayed.data.is_empty());
    }

    #[test]
    fn freezing_keeps_the_recorded_allocation() {
        let mut buf = TraceBuffer::new();
        buf.reserve(1_000);
        for i in 0..1_000u64 {
            buf.fetch(fetch(0x40_0000 + i * 4, 0, 0, false));
        }
        let recorded = buf.events.as_ptr();
        let frozen = buf.freeze();
        assert_eq!(frozen.events.as_ptr(), recorded);
        assert_eq!(frozen.len(), 1_000);
    }

    #[test]
    fn replay_is_repeatable_and_clones_share_storage() {
        let mut buf = TraceBuffer::new();
        for i in 0..100u64 {
            buf.fetch(fetch(0x40_0000 + i * 4, (i % 4) as u8, 0, i % 3 == 0));
        }
        let frozen = buf.freeze();
        let clone = frozen.clone();
        assert_eq!(clone.size_bytes(), frozen.size_bytes());
        let (mut a, mut b) = (RecordingSink::default(), RecordingSink::default());
        frozen.replay(&mut a);
        clone.replay(&mut b);
        assert_eq!(a.fetches, b.fetches);
        assert_eq!(a.fetches.len(), 100);
    }

    #[test]
    fn batched_fetch_run_is_bit_identical_to_per_record_stream() {
        // The block engine records straight-line runs via fetch_run; the
        // interpreter records one fetch per instruction. Both must pack
        // to the same events or the cross-engine oracle would be vacuous.
        let mut batched = TraceBuffer::new();
        let mut single = TraceBuffer::new();
        batched.fetch_run(fetch(0x40_0010, 2, 3, false), 5);
        for i in 0..5 {
            single.fetch(fetch(0x40_0010 + i * 4, 2, 3, false));
        }
        // Kernel-mode run, interleaved with a data record on both sides.
        batched.data(data(crate::SHARED_DATA_BASE, 2, 3, true, true));
        single.data(data(crate::SHARED_DATA_BASE, 2, 3, true, true));
        batched.fetch_run(fetch(crate::KERNEL_TEXT_BASE, 2, 3, true), 2);
        for i in 0..2 {
            single.fetch(fetch(crate::KERNEL_TEXT_BASE + i * 4, 2, 3, true));
        }
        let (a, b) = (batched.freeze(), single.freeze());
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let (mut ra, mut rb) = (RecordingSink::default(), RecordingSink::default());
        a.replay(&mut ra);
        b.replay(&mut rb);
        assert_eq!(ra.fetches, rb.fetches);
        assert_eq!(ra.data, rb.data);
        // Kernel/user attribution survives the batched path.
        assert!(ra.fetches[..5].iter().all(|r| !r.kernel));
        assert!(ra.fetches[5..].iter().all(|r| r.kernel));
    }

    #[test]
    fn digest_distinguishes_different_traces() {
        let mut a = TraceBuffer::new();
        let mut b = TraceBuffer::new();
        a.fetch(fetch(0x40_0000, 0, 0, false));
        b.fetch(fetch(0x40_0004, 0, 0, false));
        let (fa, fb) = (a.freeze(), b.freeze());
        assert_ne!(fa, fb);
        assert_ne!(fa.digest(), fb.digest());
        assert_eq!(fa.digest().len(), 16);
    }

    #[test]
    fn empty_buffer_freezes_to_empty_trace() {
        let buf = TraceBuffer::new();
        assert!(buf.is_empty());
        let frozen = buf.freeze();
        assert!(frozen.is_empty());
        assert_eq!(frozen.len(), 0);
        let mut sink = RecordingSink::default();
        frozen.replay(&mut sink);
        assert!(sink.fetches.is_empty());
    }
}
