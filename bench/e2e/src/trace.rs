//! The benchmark's own spans, kept in memory and written as Chrome
//! `trace_event` JSON when the child ends.
//!
//! Spans are recorded around the calls into the runtime — `workload` →
//! `setup` | `round[i]` → `run_call` → one `op` per blocking unit — with
//! a counter event at every round boundary. Spans inside the runtime are
//! a later change.

use crate::json::write_str;
use crate::layers::{counters_delta, Boundary};
use crate::procfs::ROLES;
use crate::workloads::{now_ns, Sample};
use std::fmt::Write as _;

/// `op` events written per trace; a viewer cannot load millions. All ops
/// of the traced rounds are recorded and counted, the earliest are written.
pub const MAX_OP_EVENTS: usize = 200_000;

/// The thread lane harness spans are drawn on; op spans of task `t` are
/// drawn on lane `TASK_LANE_BASE + t`.
const HARNESS_LANE: u64 = 0;
const TASK_LANE_BASE: u64 = 100;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// `round[3]`'s 3.
    index: Option<u64>,
    start_ns: u64,
    end_ns: u64,
    /// 0 for the root.
    parent: u64,
}

#[derive(Debug, Clone, Copy)]
struct OpSpan {
    parent: u64,
    task: u64,
    sample: Sample,
}

#[derive(Debug, Default)]
pub struct Trace {
    /// Span `id` is `spans[id - 1]`.
    spans: Vec<Span>,
    ops: Vec<OpSpan>,
    ops_recorded: u64,
    /// Per traced round: when it ended, and what it added to every
    /// counter that moved and to each thread role's CPU time.
    round_counters: Vec<(u64, Vec<(String, u64)>)>,
}

impl Trace {
    /// Opens a span now; returns its id.
    pub fn open(&mut self, name: &'static str, index: Option<u64>, parent: u64) -> u64 {
        self.add(name, index, parent, now_ns(), 0)
    }

    /// Closes a span now; returns its duration.
    pub fn close(&mut self, id: u64) -> u64 {
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now_ns();
        span.end_ns - span.start_ns
    }

    /// Records a span whose start and end were taken elsewhere.
    pub fn add(
        &mut self,
        name: &'static str,
        index: Option<u64>,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        self.spans.push(Span { name, index, start_ns, end_ns, parent });
        self.spans.len() as u64
    }

    /// Records one blocking unit as a child of `parent`.
    pub fn op(&mut self, parent: u64, task: u64, sample: Sample) {
        self.ops_recorded += 1;
        if self.ops.len() < MAX_OP_EVENTS {
            self.ops.push(OpSpan { parent, task, sample });
        }
    }

    /// Records the counter event of the round between two boundaries.
    pub fn round_counters(&mut self, before: &Boundary, now: &Boundary) {
        let cpu = ROLES.iter().enumerate().map(|(i, r)| {
            (format!("cpu_ns.{}", r.name()), now.cpu_ns[i].saturating_sub(before.cpu_ns[i]))
        });
        let moved = counters_delta(&before.counters, &now.counters)
            .into_iter()
            .chain(cpu)
            .filter(|&(_, v)| v != 0)
            .collect();
        self.round_counters.push((now.at_ns, moved));
    }

    /// The whole trace as one Chrome `trace_event` JSON document.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(256 + 160 * (self.spans.len() + self.ops.len()));
        out.push_str("{\"displayTimeUnit\": \"ns\", \"otherData\": {\"workload\": ");
        write_str(&mut out, workload).expect("writing to a String");
        writeln!(
            out,
            ", \"op_spans_recorded\": {}, \"op_spans_written\": {}}}, \"traceEvents\": [",
            self.ops_recorded,
            self.ops.len()
        )
        .expect("writing to a String");
        let mut lanes = vec![(HARNESS_LANE, "benchmark".to_string())];
        let mut tasks: Vec<u64> = self.ops.iter().map(|o| o.task).collect();
        tasks.sort_unstable();
        tasks.dedup();
        lanes.extend(tasks.iter().map(|&t| (TASK_LANE_BASE + t, format!("task {t}"))));
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
        };
        for (tid, name) in lanes {
            sep(&mut out);
            write!(
                out,
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"{name}\"}}}}"
            )
            .expect("writing to a String");
        }
        for (i, s) in self.spans.iter().enumerate() {
            sep(&mut out);
            let name = match s.index {
                Some(n) => format!("{}[{n}]", s.name),
                None => s.name.to_string(),
            };
            complete_event(
                &mut out,
                &name,
                HARNESS_LANE,
                s.start_ns,
                s.end_ns,
                i as u64 + 1,
                s.parent,
            );
        }
        let first_op_id = self.spans.len() as u64 + 1;
        for (i, o) in self.ops.iter().enumerate() {
            sep(&mut out);
            let end_ns = o.sample.start_ns + o.sample.dur_ns;
            let tid = TASK_LANE_BASE + o.task;
            complete_event(
                &mut out,
                "op",
                tid,
                o.sample.start_ns,
                end_ns,
                first_op_id + i as u64,
                o.parent,
            );
        }
        for (at_ns, moved) in &self.round_counters {
            sep(&mut out);
            counter_event(&mut out, *at_ns, moved);
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Nanoseconds as the fractional microseconds Chrome's `ts`/`dur` use.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn complete_event(
    out: &mut String,
    name: &str,
    tid: u64,
    start_ns: u64,
    end_ns: u64,
    id: u64,
    parent: u64,
) {
    write!(
        out,
        "{{\"name\": \"{name}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"ts\": {}, \
         \"dur\": {}, \"args\": {{\"id\": {id}, \"parent\": {parent}}}}}",
        us(start_ns),
        us(end_ns.saturating_sub(start_ns)),
    )
    .expect("writing to a String");
}

fn counter_event(out: &mut String, at_ns: u64, moved: &[(String, u64)]) {
    write!(
        out,
        "{{\"name\": \"round_counters\", \"ph\": \"C\", \"pid\": 1, \"ts\": {}, \"args\": {{",
        us(at_ns)
    )
    .expect("writing to a String");
    for (i, (name, v)) in moved.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_str(out, name).expect("writing to a String");
        write!(out, ": {v}").expect("writing to a String");
    }
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_metrics::json::parse;

    fn boundary(at_ns: u64, commands: u64, worker_ns: u64) -> Boundary {
        Boundary {
            at_ns,
            counters: [("agg.commands".to_string(), commands), ("idle".to_string(), 7)].into(),
            cpu_ns: [worker_ns, 0, 0, 0, 0],
            process_cpu_ns: worker_ns,
        }
    }

    #[test]
    fn trace_loads_and_links_spans_to_parents() {
        let mut t = Trace::default();
        let root = t.add("workload", None, 0, 0, 10_000);
        let round = t.add("round", Some(3), root, 1_000, 9_000);
        let call = t.add("run_call", None, round, 2_000, 8_500);
        t.op(call, 5, Sample { start_ns: 2_100, dur_ns: 1_234 });
        t.round_counters(&boundary(1_000, 10, 100), &boundary(9_000, 74, 5_100));

        let doc = parse(&t.to_chrome_json("chase_tcp")).unwrap();
        assert_eq!(
            doc.get("otherData").unwrap().get("op_spans_recorded").unwrap().as_u64(),
            Some(1)
        );
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let named =
            |n: &str| events.iter().find(|e| e.get("name").unwrap().as_str() == Some(n)).unwrap();
        let arg =
            |e: &gmt_metrics::json::Value, k: &str| e.get("args").unwrap().get(k).unwrap().as_u64();
        assert_eq!(arg(named("round[3]"), "parent"), arg(named("workload"), "id"));
        assert_eq!(arg(named("run_call"), "parent"), arg(named("round[3]"), "id"));
        let op = named("op");
        assert_eq!(arg(op, "parent"), arg(named("run_call"), "id"));
        assert_eq!(op.get("dur").unwrap().as_f64(), Some(1.234));
        assert_eq!(op.get("tid").unwrap().as_u64(), Some(105));
        // The counter event carries the round's deltas, not totals, and
        // skips what did not move.
        let counters = named("round_counters").get("args").unwrap();
        assert_eq!(counters.get("agg.commands").unwrap().as_u64(), Some(64));
        assert_eq!(counters.get("cpu_ns.worker").unwrap().as_u64(), Some(5_000));
        assert!(counters.get("idle").is_none());
    }

    #[test]
    fn op_events_are_capped_but_counted() {
        let mut t = Trace::default();
        for i in 0..(MAX_OP_EVENTS as u64 + 5) {
            t.op(1, 0, Sample { start_ns: i, dur_ns: 1 });
        }
        assert_eq!(t.ops.len(), MAX_OP_EVENTS);
        assert_eq!(t.ops_recorded, MAX_OP_EVENTS as u64 + 5);
    }
}
