//! Spans recorded from the benchmark's own code, around its calls into
//! each layer's public functions.
//!
//! A span is (name, start, end, parent, call id, thread, allocations on its
//! thread, detail). Spans go into one buffer preallocated before the traced
//! phase: [`enter`] claims a slot with one atomic add, [`exit`] fills it.
//! Recording is off unless [`set_on`] turned it on, and a full buffer
//! records nothing more, so a run never allocates for tracing mid-phase.
//!
//! Parents come from the thread's innermost open span. A handler running
//! on an engine worker thread has none; its parent is the span the
//! generator thread has in flight ([`enter`] publishes it), which is
//! unambiguous because each workload has one generator.

use crate::alloc;
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Span names. Zero marks an unwritten slot.
pub const CALL: u64 = 1;
pub const TRANSPORT: u64 = 2;
pub const HANDLER: u64 = 3;
pub const BATCH: u64 = 4;
pub const ENCODE: u64 = 5;
pub const FLUSH: u64 = 6;
pub const SETUP_PARSE: u64 = 7;
pub const SETUP_COMPILE: u64 = 8;
pub const SETUP_SERVE: u64 = 9;
pub const SETUP_CONNECT: u64 = 10;

const NAMES: [&str; 11] = [
    "",
    "call",
    "transport",
    "handler",
    "batch",
    "pipe.encode",
    "pipe.flush",
    "setup.parse",
    "setup.compile",
    "setup.serve",
    "setup.connect",
];

/// The printable name of a span name code.
fn name_of(name: u64) -> &'static str {
    NAMES.get(name as usize).copied().unwrap_or("?")
}

/// "No span": a root's parent, or no open span on this thread.
pub const NONE: u64 = u64::MAX;

const FIELDS: usize = 8;

struct Buf {
    slots: Box<[[AtomicU64; FIELDS]]>,
    next: AtomicUsize,
}

static BUF: OnceLock<Buf> = OnceLock::new();
static ON: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static IN_FLIGHT: AtomicU64 = AtomicU64::new(NONE);
static IN_FLIGHT_CALL: AtomicU64 = AtomicU64::new(NONE);
static THREADS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(NONE) };
    static CURRENT_CALL: Cell<u64> = const { Cell::new(NONE) };
    static THREAD_ID: Cell<u64> = const { Cell::new(NONE) };
}

/// Nanoseconds since the process's trace epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn thread_id() -> u64 {
    THREAD_ID.with(|t| {
        if t.get() == NONE {
            t.set(THREADS.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Preallocates the span buffer. Call once, before the traced phase.
pub fn install(capacity: usize) {
    now_ns();
    BUF.get_or_init(|| Buf {
        slots: (0..capacity).map(|_| std::array::from_fn(|_| AtomicU64::new(0))).collect(),
        next: AtomicUsize::new(0),
    });
}

/// Turns recording on or off.
pub fn set_on(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Free slots left in the buffer (0 when none is installed).
pub fn room() -> usize {
    BUF.get().map_or(0, |b| b.slots.len().saturating_sub(b.next.load(Ordering::Relaxed)))
}

/// An open span, closed by [`exit`].
pub struct Open {
    idx: usize,
    name: u64,
    detail: u64,
    parent: u64,
    call: u64,
    prev: u64,
    prev_call: u64,
    publish: bool,
    allocs0: u64,
    start: u64,
}

fn open(name: u64, detail: u64, publish: bool) -> Option<Open> {
    if !ON.load(Ordering::Relaxed) {
        return None;
    }
    let buf = BUF.get()?;
    let idx = buf.next.fetch_add(1, Ordering::Relaxed);
    if idx >= buf.slots.len() {
        return None;
    }
    let prev = CURRENT.get();
    let prev_call = CURRENT_CALL.get();
    let (parent, call) = if prev != NONE {
        (prev, prev_call)
    } else if publish {
        (NONE, idx as u64)
    } else {
        (IN_FLIGHT.load(Ordering::Relaxed), IN_FLIGHT_CALL.load(Ordering::Relaxed))
    };
    let call = if call == NONE { idx as u64 } else { call };
    CURRENT.set(idx as u64);
    CURRENT_CALL.set(call);
    if publish {
        IN_FLIGHT.store(idx as u64, Ordering::Relaxed);
        IN_FLIGHT_CALL.store(call, Ordering::Relaxed);
    }
    Some(Open {
        idx,
        name,
        detail,
        parent,
        call,
        prev,
        prev_call,
        publish,
        allocs0: alloc::thread(),
        start: now_ns(),
    })
}

/// Opens a span on the generator thread and publishes it as the span in
/// flight for worker threads. `None` while recording is off or full.
#[inline]
pub fn enter(name: u64, detail: u64) -> Option<Open> {
    open(name, detail, true)
}

/// Opens a `handler` span from inside a registered handler, on whatever
/// thread runs it.
#[inline]
pub fn enter_handler() -> Option<Open> {
    open(HANDLER, 0, false)
}

/// Closes a span opened by [`enter`] or [`enter_handler`].
#[inline]
pub fn exit(open: Option<Open>) {
    let Some(o) = open else { return };
    let end = now_ns();
    let allocs = alloc::thread() - o.allocs0;
    CURRENT.set(o.prev);
    CURRENT_CALL.set(o.prev_call);
    if o.publish {
        IN_FLIGHT.store(o.prev, Ordering::Relaxed);
        IN_FLIGHT_CALL.store(o.prev_call, Ordering::Relaxed);
    }
    let Some(buf) = BUF.get() else { return };
    let slot = &buf.slots[o.idx];
    let fields = [0, o.start, end, o.parent, o.call, thread_id(), allocs, o.detail];
    for (cell, v) in slot.iter().zip(fields).skip(1) {
        cell.store(v, Ordering::Relaxed);
    }
    // The name goes last: a slot with a name is complete.
    slot[0].store(o.name, Ordering::Release);
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Slot index; what `parent` refers to.
    pub id: u64,
    pub name: u64,
    pub start: u64,
    pub end: u64,
    pub parent: u64,
    pub call: u64,
    pub thread: u64,
    pub allocs: u64,
    pub detail: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Every completed span in the buffer. Call after the threads that record
/// have finished (the generator returned, worker replies were waited on).
pub fn collect() -> Vec<Span> {
    let Some(buf) = BUF.get() else { return Vec::new() };
    let n = buf.next.load(Ordering::Relaxed).min(buf.slots.len());
    buf.slots[..n]
        .iter()
        .enumerate()
        .filter_map(|(i, s)| {
            let name = s[0].load(Ordering::Acquire);
            (name != 0).then(|| Span {
                id: i as u64,
                name,
                start: s[1].load(Ordering::Relaxed),
                end: s[2].load(Ordering::Relaxed),
                parent: s[3].load(Ordering::Relaxed),
                call: s[4].load(Ordering::Relaxed),
                thread: s[5].load(Ordering::Relaxed),
                allocs: s[6].load(Ordering::Relaxed),
                detail: s[7].load(Ordering::Relaxed),
            })
        })
        .collect()
}

/// Self time and self allocations of one span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfCost {
    /// Duration minus the part of the span's interval its children cover
    /// (the union of the children's intervals, clipped to the span).
    pub ns: u64,
    /// Allocations on the span's thread minus those of its children on
    /// the same thread.
    pub allocs: u64,
}

/// The self cost of every span, parallel to `spans`. A span whose parent
/// is not in `spans` counts as a root.
pub fn self_costs(spans: &[Span]) -> Vec<SelfCost> {
    let pos: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut child_allocs = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = pos.get(&s.parent) {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
            if s.thread == parent.thread {
                child_allocs[p] += s.allocs;
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let iv = &mut children[i];
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in iv.iter() {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += cb - ca;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            SelfCost {
                ns: s.duration().saturating_sub(covered),
                allocs: s.allocs.saturating_sub(child_allocs[i]),
            }
        })
        .collect()
}

/// Writes `spans` as JSON lines, one object per span, after a first line
/// holding `header` (a JSON object describing the run).
pub fn write_jsonl(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{header}")?;
    for s in spans {
        let parent = if s.parent == NONE { "null".to_string() } else { s.parent.to_string() };
        writeln!(
            w,
            "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"call\":{},\"thread\":{},\
             \"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"detail\":{}}}",
            s.id,
            name_of(s.name),
            parent,
            s.call,
            s.thread,
            s.start,
            s.end,
            s.allocs,
            s.detail
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: u64, parent: u64, thread: u64, start: u64, end: u64) -> Span {
        Span { id, name, start, end, parent, call: 0, thread, allocs: 0, detail: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100]; two overlapping children [10,40] and [30,60]; a
        // grandchild [15,20] under the first; a child that spills past the
        // root's end is clipped to it.
        let spans = [
            span(0, CALL, NONE, 0, 0, 100),
            span(1, TRANSPORT, 0, 0, 10, 40),
            span(2, HANDLER, 0, 1, 30, 60),
            span(3, HANDLER, 1, 0, 15, 20),
            span(4, HANDLER, 0, 1, 90, 120),
        ];
        let c = self_costs(&spans);
        let ns: Vec<u64> = c.iter().map(|s| s.ns).collect();
        assert_eq!(ns, vec![100 - 50 - 10, 30 - 5, 30, 5, 30]);
        // Σ self − root = the overlap of [10,40] and [30,60] plus the
        // part of span 4 outside the root: that is the residual.
        let total: u64 = ns.iter().sum();
        assert_eq!(total - 100, 10 + 20);
    }

    #[test]
    fn self_allocations_subtract_same_thread_children_only() {
        let mut spans = [
            span(0, CALL, NONE, 0, 0, 100),
            span(1, TRANSPORT, 0, 0, 10, 90),
            span(2, HANDLER, 1, 0, 20, 30),
            span(3, HANDLER, 1, 7, 40, 50),
        ];
        spans[0].allocs = 9;
        spans[1].allocs = 6;
        spans[2].allocs = 2;
        spans[3].allocs = 5;
        let a: Vec<u64> = self_costs(&spans).iter().map(|s| s.allocs).collect();
        assert_eq!(a, vec![3, 4, 2, 5]);
    }

    #[test]
    fn a_span_without_children_keeps_its_whole_duration() {
        let spans = [span(5, BATCH, NONE, 0, 7, 19)];
        assert_eq!(self_costs(&spans)[0], SelfCost { ns: 12, allocs: 0 });
    }
}
