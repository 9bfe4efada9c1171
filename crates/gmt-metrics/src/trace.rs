//! Ring-buffer event tracing with Chrome `trace_event` export.
//!
//! One `Lane` per runtime thread (worker / helper / communication
//! server), each a fixed-capacity single-producer ring: the owning thread
//! writes events with no synchronization beyond one release store of the
//! ring head, so tracing never introduces cross-thread contention. When
//! the ring fills, the oldest events are overwritten — a trace is a
//! sliding window over the run's tail, which is what post-mortem
//! debugging wants.
//!
//! Export ([`TraceSink::chrome_trace_json`]) produces the Chrome
//! `trace_event` JSON array format: one `pid` per node, one `tid` per
//! thread, `ph:"X"` complete events for spans and `ph:"i"` instants, with
//! `process_name`/`thread_name` metadata so `chrome://tracing` and
//! Perfetto label every lane. Export requires `&mut self` — i.e. every
//! writer handle dropped (runtime threads joined) — which is what makes
//! the unsynchronized ring reads sound.

use crate::json::JsonWriter;
use crossbeam::utils::CachePadded;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Phase byte of a complete event (span with duration).
pub const PH_COMPLETE: u8 = b'X';
/// Phase byte of an instant event.
pub const PH_INSTANT: u8 = b'i';

/// One recorded event. `arg` is a free payload (bytes, slot index, …)
/// exported as `args.v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub ts_ns: u64,
    pub dur_ns: u64,
    pub name: &'static str,
    pub ph: u8,
    pub arg: u64,
}

const EMPTY: TraceEvent = TraceEvent { ts_ns: 0, dur_ns: 0, name: "", ph: 0, arg: 0 };

struct Lane {
    name: String,
    /// Chrome process id — the node the thread belongs to.
    pid: u64,
    /// Chrome thread id — the thread's index within the node.
    tid: u64,
    /// Total events ever written; slot `i % capacity` holds event `i`.
    head: CachePadded<AtomicUsize>,
    claimed: AtomicBool,
    slots: Box<[UnsafeCell<TraceEvent>]>,
}

// SAFETY: slot access is single-writer (enforced by `claimed`: at most one
// `LaneWriter` exists per lane) and reads happen only through
// `TraceSink::chrome_trace_json(&mut self)`, which requires every writer
// handle to have been dropped.
unsafe impl Sync for Lane {}
unsafe impl Send for Lane {}

/// The per-process (or per-cluster) trace collector.
pub struct TraceSink {
    start: Instant,
    capacity: usize,
    lanes: Vec<Lane>,
}

impl TraceSink {
    /// `capacity` = events retained per lane (rounded up to at least 16).
    pub fn new(capacity: usize) -> Self {
        TraceSink { start: Instant::now(), capacity: capacity.max(16), lanes: Vec::new() }
    }

    /// Adds a lane before the sink is shared. Returns its index.
    pub fn add_lane(&mut self, name: impl Into<String>, pid: u64, tid: u64) -> usize {
        self.lanes.push(Lane {
            name: name.into(),
            pid,
            tid,
            head: CachePadded::new(AtomicUsize::new(0)),
            claimed: AtomicBool::new(false),
            slots: (0..self.capacity).map(|_| UnsafeCell::new(EMPTY)).collect(),
        });
        self.lanes.len() - 1
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Nanoseconds since the sink was created (the trace timebase).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Claims the single writer handle for `lane`; `None` if already
    /// claimed.
    pub fn writer(self: &Arc<Self>, lane: usize) -> Option<LaneWriter> {
        if self.lanes[lane].claimed.swap(true, Ordering::AcqRel) {
            return None;
        }
        Some(LaneWriter { sink: Arc::clone(self), lane })
    }

    /// Events overwritten (lost to ring wrap-around) across all lanes.
    pub fn dropped(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.head.load(Ordering::Acquire).saturating_sub(self.capacity) as u64)
            .sum()
    }

    /// Retained events of one lane, oldest first, sorted by timestamp.
    /// Requires `&mut self`: every [`LaneWriter`] must be gone.
    pub fn lane_events(&mut self, lane: usize) -> Vec<TraceEvent> {
        let cap = self.capacity;
        let l = &self.lanes[lane];
        let head = l.head.load(Ordering::Acquire);
        let (first, len) = if head <= cap { (0, head) } else { (head % cap, cap) };
        let mut events: Vec<TraceEvent> = (0..len)
            // SAFETY: `&mut self` means no writer handle exists, so the
            // slots are quiescent.
            .map(|i| unsafe { *l.slots[(first + i) % cap].get() })
            .collect();
        // Span events are recorded at their *end* but stamped with their
        // start time, so raw ring order is not time order.
        events.sort_by_key(|e| e.ts_ns);
        events
    }

    /// Exports every lane as a Chrome `trace_event` JSON document
    /// (object format: `{"traceEvents":[...],"displayTimeUnit":"ns"}`).
    /// `ts`/`dur` are microseconds with nanosecond decimals, per the
    /// format spec.
    pub fn chrome_trace_json(&mut self) -> String {
        let lanes = self.lanes.len();
        let mut w = JsonWriter::new();
        let mut per_lane: Vec<Vec<TraceEvent>> = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            per_lane.push(self.lane_events(lane));
        }
        w.obj(|w| {
            w.key("traceEvents");
            w.arr(|w| {
                // Metadata: name processes (nodes) and threads (lanes).
                let mut named_pids: Vec<u64> = Vec::new();
                for l in &self.lanes {
                    if !named_pids.contains(&l.pid) {
                        named_pids.push(l.pid);
                        w.obj(|w| {
                            w.key("name");
                            w.str("process_name");
                            w.key("ph");
                            w.str("M");
                            w.key("pid");
                            w.num_u64(l.pid);
                            w.key("args");
                            w.obj(|w| {
                                w.key("name");
                                w.str(&format!("node{}", l.pid));
                            });
                        });
                    }
                    w.obj(|w| {
                        w.key("name");
                        w.str("thread_name");
                        w.key("ph");
                        w.str("M");
                        w.key("pid");
                        w.num_u64(l.pid);
                        w.key("tid");
                        w.num_u64(l.tid);
                        w.key("args");
                        w.obj(|w| {
                            w.key("name");
                            w.str(&l.name);
                        });
                    });
                }
                for (lane, events) in per_lane.iter().enumerate() {
                    let l = &self.lanes[lane];
                    for e in events {
                        w.obj(|w| {
                            w.key("name");
                            w.str(e.name);
                            w.key("cat");
                            w.str("gmt");
                            w.key("ph");
                            w.str(match e.ph {
                                PH_COMPLETE => "X",
                                _ => "i",
                            });
                            w.key("ts");
                            w.num_ns_as_us(e.ts_ns);
                            if e.ph == PH_COMPLETE {
                                w.key("dur");
                                w.num_ns_as_us(e.dur_ns);
                            } else {
                                // Instant scope: thread.
                                w.key("s");
                                w.str("t");
                            }
                            w.key("pid");
                            w.num_u64(l.pid);
                            w.key("tid");
                            w.num_u64(l.tid);
                            w.key("args");
                            w.obj(|w| {
                                w.key("v");
                                w.num_u64(e.arg);
                            });
                        });
                    }
                }
            });
            w.key("displayTimeUnit");
            w.str("ns");
        });
        w.finish()
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("lanes", &self.lanes.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

/// The single producer handle of one lane. Not `Clone`; owning it is the
/// permission to write the lane's ring.
pub struct LaneWriter {
    sink: Arc<TraceSink>,
    lane: usize,
}

impl LaneWriter {
    /// Nanoseconds since the sink epoch — pair with [`Self::span`].
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.sink.now_ns()
    }

    #[inline]
    fn record(&self, ev: TraceEvent) {
        let l = &self.sink.lanes[self.lane];
        let head = l.head.load(Ordering::Relaxed);
        // SAFETY: this is the lane's only writer (claimed in
        // `TraceSink::writer`), and readers require `&mut TraceSink`.
        unsafe { *l.slots[head % self.sink.capacity].get() = ev };
        l.head.store(head + 1, Ordering::Release);
    }

    /// Records a complete span that started at `start_ns` (from
    /// [`Self::now_ns`]) and ends now.
    #[inline]
    pub fn span(&self, name: &'static str, start_ns: u64, arg: u64) {
        let now = self.sink.now_ns();
        self.record(TraceEvent {
            ts_ns: start_ns,
            dur_ns: now.saturating_sub(start_ns),
            name,
            ph: PH_COMPLETE,
            arg,
        });
    }

    /// Records an instant event happening now.
    #[inline]
    pub fn instant(&self, name: &'static str, arg: u64) {
        self.record(TraceEvent { ts_ns: self.sink.now_ns(), dur_ns: 0, name, ph: PH_INSTANT, arg });
    }
}

impl std::fmt::Debug for LaneWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneWriter").field("lane", &self.lane).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sink_with_lanes(cap: usize, lanes: &[(&str, u64, u64)]) -> TraceSink {
        let mut s = TraceSink::new(cap);
        for &(name, pid, tid) in lanes {
            s.add_lane(name, pid, tid);
        }
        s
    }

    #[test]
    fn lane_writer_is_exclusive() {
        let sink = Arc::new(sink_with_lanes(64, &[("w0", 0, 0)]));
        let w = sink.writer(0).expect("first claim");
        assert!(sink.writer(0).is_none(), "second claim must fail");
        drop(w);
    }

    #[test]
    fn ring_keeps_the_newest_events() {
        let mut s = sink_with_lanes(16, &[("w0", 0, 0)]);
        let sink = Arc::new(s);
        let w = sink.writer(0).unwrap();
        for i in 0..50u64 {
            w.record(TraceEvent { ts_ns: i, dur_ns: 0, name: "e", ph: PH_INSTANT, arg: i });
        }
        drop(w);
        assert_eq!(sink.dropped(), 50 - 16);
        s = Arc::into_inner(sink).expect("writers all dropped");
        let events = s.lane_events(0);
        assert_eq!(events.len(), 16);
        assert_eq!(events.first().unwrap().arg, 34);
        assert_eq!(events.last().unwrap().arg, 49);
    }

    #[test]
    fn concurrent_lanes_do_not_interfere() {
        let sink = Arc::new(sink_with_lanes(1024, &[("w0", 0, 0), ("w1", 0, 1), ("c", 1, 0)]));
        let threads: Vec<_> = (0..3)
            .map(|lane| {
                let w = sink.writer(lane).unwrap();
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let t0 = w.now_ns();
                        w.span("work", t0, i);
                        w.instant("tick", i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut s = Arc::into_inner(sink).expect("writers dropped");
        for lane in 0..3 {
            assert_eq!(s.lane_events(lane).len(), 1000);
        }
        assert_eq!(s.dropped(), 0);
    }

    /// The exported document must parse, carry the metadata Perfetto
    /// needs, and keep `ts` monotone within every (pid, tid) lane.
    #[test]
    fn chrome_export_is_schema_valid_and_monotone_per_lane() {
        let sink = Arc::new(sink_with_lanes(256, &[("worker0", 0, 0), ("comm", 1, 9)]));
        for lane in 0..2 {
            let w = sink.writer(lane).unwrap();
            for i in 0..40 {
                let t0 = w.now_ns();
                if i % 3 == 0 {
                    w.instant("park", i);
                }
                w.span("task", t0, i);
            }
        }
        let mut s = Arc::into_inner(sink).expect("writers dropped");
        let text = s.chrome_trace_json();
        let v = json::parse(&text).expect("well-formed JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array");
        assert!(!events.is_empty());

        let mut last_ts: std::collections::BTreeMap<(u64, u64), f64> = Default::default();
        let mut thread_names = 0;
        let mut spans = 0;
        for e in events {
            let ph = e.get("ph").and_then(|p| p.as_str()).expect("ph present");
            let pid = e.get("pid").and_then(|p| p.as_u64()).expect("pid present");
            assert!(e.get("name").and_then(|n| n.as_str()).is_some(), "name present");
            match ph {
                "M" => {
                    if e.get("name").unwrap().as_str() == Some("thread_name") {
                        thread_names += 1;
                    }
                }
                "X" | "i" => {
                    let tid = e.get("tid").and_then(|t| t.as_u64()).expect("tid present");
                    let ts = e.get("ts").and_then(|t| t.as_f64()).expect("ts present");
                    if ph == "X" {
                        assert!(e.get("dur").and_then(|d| d.as_f64()).is_some(), "dur on spans");
                        spans += 1;
                    }
                    let prev = last_ts.insert((pid, tid), ts);
                    if let Some(prev) = prev {
                        assert!(ts >= prev, "ts regressed within lane ({pid},{tid})");
                    }
                }
                other => panic!("unexpected phase {other:?}"),
            }
        }
        assert_eq!(thread_names, 2, "one thread_name metadata event per lane");
        assert_eq!(spans, 80);
    }
}
