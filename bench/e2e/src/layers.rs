//! The metric catalogue, and per-layer attribution from counter deltas.
//!
//! Layers are the runtime's modules; everything here is taken from
//! outside them: `metrics_snapshot()` counters looked up by string name
//! and per-thread CPU time from `/proc`. A counter a refactor removed
//! makes its metrics absent (`None`), never an error.

use crate::procfs::Role;
use gmt_core::{Cluster, MetricsSnapshot};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the runtime sees, measured with tracing off. The
/// regression bound of each lives in `BENCHMARK.json`.
pub const END_TO_END: [MetricDef; 5] = [
    def("ops_per_s", "1/s", Higher),
    def("cpu_us_per_op", "us", Lower),
    def("lat_p50_us", "us", Lower),
    def("lat_p90_us", "us", Lower),
    def("setup_s", "s", Lower),
];

/// Group A: attribution of one workload's traced rounds to layers.
pub const ATTRIBUTION: [MetricDef; 31] = [
    def("worker.cpu_ns_per_op", "ns", Lower),
    def("worker.ctx_switches_per_op", "count", Lower),
    def("worker.parks_per_op", "count", Lower),
    def("worker.tasks_spawned_per_op", "count", Lower),
    def("agg.commands_per_op", "count", Lower),
    def("agg.cmds_per_buffer", "count", Higher),
    def("agg.fill_ratio", "ratio", Higher),
    def("agg.timeout_flush_share", "ratio", Lower),
    def("agg.combine_hit_share", "ratio", Higher),
    def("agg.pool_waits_per_kop", "count", Lower),
    def("comm.cpu_ns_per_op", "ns", Lower),
    def("comm.buffers_per_sweep", "count", Higher),
    def("comm.bytes_per_op", "B", Lower),
    def("reliable.standalone_ack_share", "ratio", Lower),
    def("reliable.retransmits", "count", Lower),
    def("net.flow.holds_per_kop", "count", Lower),
    def("net.cpu_ns_per_op", "ns", Lower),
    def("net.msgs_per_op", "count", Lower),
    def("net.wire_bytes_per_op", "B", Lower),
    def("net.shm.doorbell_wakes_per_kop", "count", Lower),
    def("net.shm.full_waits_per_kop", "count", Lower),
    def("helper.cpu_ns_per_op", "ns", Lower),
    def("helper.cmds_per_buffer", "count", Higher),
    def("helper.run_len_mean", "count", Higher),
    def("helper.rmw_merged_share", "ratio", Higher),
    def("driver.cpu_ns_per_op", "ns", Lower),
    def("driver.lat_p99_us", "us", Lower),
    def("driver.stuck_warnings", "count", Lower),
    def("driver.peak_rss_mb", "MiB", Lower),
    def("trace.overhead_share", "ratio", Lower),
    def("cpu.unattributed_share", "ratio", Lower),
];

/// Group B, tier U: one layer driven alone through the user-level API.
pub const CEILINGS_USER: [MetricDef; 4] = [
    def("context.ceil.yield_ns", "ns", Lower),
    def("worker.ceil.spawn_ns", "ns", Lower),
    def("api.ceil.local_op_ns", "ns", Lower),
    def("bfs.seq_ref_edges_per_s", "1/s", Higher),
];

/// Group B, tier I: public functions of single layers, each through one
/// adapter in `adapters.rs` (cargo feature `internal-ceilings`).
pub const CEILINGS_INTERNAL: [MetricDef; 12] = [
    def("context.ceil.switch_ns", "ns", Lower),
    def("command.ceil.encode_ns_per_cmd", "ns", Lower),
    def("command.ceil.decode_stage_ns_per_cmd", "ns", Lower),
    def("aggregation.ceil.emit_ns_per_cmd", "ns", Lower),
    def("memory.ceil.add_batch_ns_per_op", "ns", Lower),
    def("memory.ceil.copy_gbps", "GB/s", Higher),
    def("net.ceil.sim_frame_us", "us", Lower),
    def("net.ceil.tcp_frame_us", "us", Lower),
    def("net.ceil.shm_frame_us", "us", Lower),
    def("net.ceil.sim_rtt_us", "us", Lower),
    def("net.ceil.tcp_rtt_us", "us", Lower),
    def("net.ceil.shm_rtt_us", "us", Lower),
];

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
pub fn per_layer() -> impl Iterator<Item = &'static MetricDef> {
    ATTRIBUTION.iter().chain(&CEILINGS_USER).chain(&CEILINGS_INTERNAL)
}

/// Cluster-wide counter totals by name: every node's counters summed,
/// plus `<histogram>.count`, the number of recordings of each histogram.
pub type Counters = BTreeMap<String, u64>;

pub fn fold_snapshot(totals: &mut Counters, snap: &MetricsSnapshot) {
    for (name, v) in &snap.counters {
        *totals.entry(name.clone()).or_insert(0) += v;
    }
    for h in &snap.histograms {
        *totals.entry(format!("{}.count", h.name)).or_insert(0) += h.count();
    }
}

pub fn cluster_counters(cluster: &Cluster) -> Counters {
    let mut totals = Counters::new();
    for n in 0..cluster.nodes() {
        fold_snapshot(&mut totals, &cluster.node(n).metrics_snapshot());
    }
    totals
}

/// `after - before` for every counter of `after`.
pub fn counters_delta(before: &Counters, after: &Counters) -> Counters {
    after
        .iter()
        .map(|(k, &v)| (k.clone(), v.saturating_sub(before.get(k).copied().unwrap_or(0))))
        .collect()
}

/// One cluster-wide observation at a round boundary.
#[derive(Debug, Clone)]
pub struct Boundary {
    pub at_ns: u64,
    pub counters: Counters,
    /// On-CPU nanoseconds by thread role, indexed like [`ROLES`].
    pub cpu_ns: [u64; 5],
    /// `utime + stime` of the process, nanoseconds.
    pub process_cpu_ns: u64,
}

/// What the traced rounds of a workload did: counter and CPU-time
/// deltas between round boundaries, summed over every traced section of
/// the run (each on its own freshly started cluster).
#[derive(Debug, Default)]
pub struct Section {
    counters: Counters,
    cpu_ns: [u64; 5],
    process_cpu_ns: u64,
    ops: u64,
}

fn ratio(num: Option<f64>, den: Option<f64>) -> Option<f64> {
    match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => Some(n / d),
        _ => None,
    }
}

impl Section {
    /// Adds what happened between two boundaries of one cluster, during
    /// which `ops` ops ran.
    pub fn add(&mut self, first: &Boundary, last: &Boundary, ops: u64) {
        for (name, v) in counters_delta(&first.counters, &last.counters) {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (sum, (a, b)) in self.cpu_ns.iter_mut().zip(first.cpu_ns.iter().zip(&last.cpu_ns)) {
            *sum += b.saturating_sub(*a);
        }
        self.process_cpu_ns += last.process_cpu_ns.saturating_sub(first.process_cpu_ns);
        self.ops += ops;
    }

    fn count(&self, name: &str) -> Option<f64> {
        self.counters.get(name).map(|&v| v as f64)
    }

    /// Sum of every counter whose name starts with `prefix`.
    fn count_prefixed(&self, prefix: &str) -> Option<f64> {
        let mut matching = self.counters.iter().filter(|(k, _)| k.starts_with(prefix)).peekable();
        matching.peek()?;
        Some(matching.map(|(_, &v)| v as f64).sum())
    }

    fn per_op(&self, name: &str) -> Option<f64> {
        ratio(self.count(name), Some(self.ops as f64))
    }

    fn per_kop(&self, name: &str) -> Option<f64> {
        self.per_op(name).map(|v| v * 1000.0)
    }

    fn cpu_ns(&self, role: Role) -> f64 {
        self.cpu_ns[role.index()] as f64
    }

    fn cpu_per_op(&self, role: Role) -> Option<f64> {
        ratio(Some(self.cpu_ns(role)), Some(self.ops as f64))
    }

    /// Share of the process's CPU time over the section that no thread
    /// role accounts for. Beyond 5% some thread escaped attribution,
    /// which is itself a finding.
    pub fn unattributed_share(&self) -> Option<f64> {
        let total = self.process_cpu_ns as f64;
        let by_role: f64 = self.cpu_ns.iter().map(|&ns| ns as f64).sum();
        ratio(Some((total - by_role).abs()), Some(total))
    }

    /// The group-A metrics the traced sections determine, by name. Those
    /// that need more than counters (`driver.lat_p99_us`,
    /// `driver.stuck_warnings`, `driver.peak_rss_mb`,
    /// `trace.overhead_share`) are the caller's.
    pub fn attribute(&self) -> Vec<(&'static str, Option<f64>)> {
        let buffer_bytes = crate::workloads::bench_config().buffer_size as f64;
        let sent_buffers = self.count("comm.buffers_sent");
        let acks_standalone = self.count("reliable.acks_standalone");
        let acks = acks_standalone.zip(self.count("reliable.acks_piggybacked")).map(|(s, p)| s + p);
        let combine_hits = self.count("agg.combine_hits");
        let fire_and_forget =
            combine_hits.zip(self.count("agg.combine_flushes")).map(|(h, f)| h + f);
        let helper_cmds = self.count_prefixed("helper.cmd.");
        let helper_adds =
            self.count("helper.cmd.add").zip(self.count("helper.cmd.add-n")).map(|(a, n)| a + n);
        // Requests are what the batched datapath groups into runs;
        // replies complete tasks one by one.
        let helper_requests = ["put", "get", "cas"]
            .iter()
            .map(|op| self.count(&format!("helper.cmd.{op}")))
            .chain([helper_adds])
            .sum::<Option<f64>>();
        vec![
            ("worker.cpu_ns_per_op", self.cpu_per_op(Role::Worker)),
            ("worker.ctx_switches_per_op", self.per_op("worker.ctx_switches")),
            ("worker.parks_per_op", self.per_op("worker.task_parks")),
            ("worker.tasks_spawned_per_op", self.per_op("worker.tasks_spawned")),
            ("agg.commands_per_op", self.per_op("agg.commands")),
            (
                "agg.cmds_per_buffer",
                ratio(self.count("agg.commands"), self.count("agg.buffers_filled")),
            ),
            (
                "agg.fill_ratio",
                ratio(self.count("comm.bytes_sent"), sent_buffers.map(|b| b * buffer_bytes)),
            ),
            (
                "agg.timeout_flush_share",
                ratio(self.count("agg.timeout_flushes"), self.count("agg.buffers_filled")),
            ),
            ("agg.combine_hit_share", ratio(combine_hits, fire_and_forget)),
            ("agg.pool_waits_per_kop", self.per_kop("agg.pool_waits")),
            ("comm.cpu_ns_per_op", self.cpu_per_op(Role::Comm)),
            ("comm.buffers_per_sweep", ratio(sent_buffers, self.count("comm.sweep_buffers.count"))),
            ("comm.bytes_per_op", self.per_op("comm.bytes_sent")),
            ("reliable.standalone_ack_share", ratio(acks_standalone, acks)),
            ("reliable.retransmits", self.count("reliable.retransmits")),
            ("net.flow.holds_per_kop", self.per_kop("net.flow.holds")),
            ("net.cpu_ns_per_op", self.cpu_per_op(Role::Net)),
            ("net.msgs_per_op", self.per_op("net.sent_msgs")),
            ("net.wire_bytes_per_op", self.per_op("net.sent_bytes")),
            ("net.shm.doorbell_wakes_per_kop", self.per_kop("net.shm.doorbell_wakes")),
            ("net.shm.full_waits_per_kop", self.per_kop("net.shm.full_waits")),
            ("helper.cpu_ns_per_op", self.cpu_per_op(Role::Helper)),
            ("helper.cmds_per_buffer", ratio(helper_cmds, self.count("comm.buffers_recv"))),
            (
                "helper.run_len_mean",
                ratio(helper_requests, self.count("helper.batch.run_len.count")),
            ),
            ("helper.rmw_merged_share", ratio(self.count("helper.batch.rmw_merged"), helper_adds)),
            ("driver.cpu_ns_per_op", self.cpu_per_op(Role::Driver)),
            ("cpu.unattributed_share", self.unattributed_share()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn boundary(at_ns: u64, counters: &[(&str, u64)], cpu_ns: [u64; 5], process: u64) -> Boundary {
        Boundary {
            at_ns,
            counters: counters.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            cpu_ns,
            process_cpu_ns: process,
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names: Vec<&str> = END_TO_END.iter().chain(per_layer()).map(|m| m.name).collect();
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
        assert!(per_layer().count() <= 128);
        for m in END_TO_END.iter().chain(per_layer()) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn attribution_divides_deltas_by_ops() {
        let first = boundary(
            0,
            &[("agg.commands", 100), ("agg.buffers_filled", 10), ("worker.ctx_switches", 50)],
            [1_000, 0, 0, 0, 0],
            1_000,
        );
        let last = boundary(
            9,
            &[
                ("agg.commands", 2_100),
                ("agg.buffers_filled", 20),
                ("agg.timeout_flushes", 5),
                ("worker.ctx_switches", 4_050),
                ("helper.cmd.put", 600),
                ("helper.cmd.get", 400),
                ("comm.buffers_recv", 10),
            ],
            [501_000, 200_000, 100_000, 0, 200_000],
            1_001_000,
        );
        let mut section = Section::default();
        section.add(&first, &last, 1_000);
        let got: BTreeMap<&str, Option<f64>> = section.attribute().into_iter().collect();
        assert_eq!(got["agg.commands_per_op"], Some(2.0));
        assert_eq!(got["agg.cmds_per_buffer"], Some(200.0));
        assert_eq!(got["agg.timeout_flush_share"], Some(0.5));
        assert_eq!(got["worker.ctx_switches_per_op"], Some(4.0));
        assert_eq!(got["worker.cpu_ns_per_op"], Some(500.0));
        assert_eq!(got["helper.cmds_per_buffer"], Some(100.0));
        assert_eq!(got["cpu.unattributed_share"], Some(0.0));
        // A counter that does not exist any more is absent, not an error.
        assert_eq!(got["net.shm.full_waits_per_kop"], None);
        assert_eq!(got["agg.combine_hit_share"], None);
        // Every attributed name is in the catalogue.
        let catalogue: BTreeSet<&str> = ATTRIBUTION.iter().map(|m| m.name).collect();
        assert!(got.keys().all(|k| catalogue.contains(k)));
    }

    #[test]
    fn unattributed_cpu_is_a_share_of_the_process_total() {
        let first = boundary(0, &[], [0; 5], 0);
        let last = boundary(1, &[], [400, 100, 100, 100, 200], 1_000);
        let mut s = Section::default();
        s.add(&first, &last, 1);
        // A second traced section, on a fresh cluster, adds up.
        s.add(&first, &last, 1);
        assert_eq!(s.unattributed_share(), Some(0.1));
        assert_eq!(s.cpu_per_op(Role::Worker), Some(400.0));
    }
}
