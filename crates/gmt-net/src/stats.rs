//! Per-node traffic accounting.
//!
//! The benchmark harness computes effective bandwidths from these counters
//! plus the cost model, so results reflect *modeled* network behaviour
//! rather than host scheduling noise (the reproduction host has one core;
//! the paper's Olympus nodes had 32).

use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// Declares the per-node counters once: the atomics the transports bump,
/// the [`NodeTraffic`] copy readers get, and the name each one carries in
/// a metrics snapshot ([`NodeTraffic::counters`]).
macro_rules! traffic_counters {
    ($($(#[$doc:meta])* $field:ident => $name:literal,)*) => {
        /// One node's counters.
        #[derive(Debug, Default)]
        struct NodeCounters {
            $($field: AtomicU64,)*
        }

        /// A point-in-time copy of one node's counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct NodeTraffic {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl NodeCounters {
            fn load(&self) -> NodeTraffic {
                NodeTraffic { $($field: self.$field.load(Ordering::Relaxed),)* }
            }
        }

        impl NodeTraffic {
            /// Every counter under its metrics-snapshot name.
            pub fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$(($name, self.$field),)*]
            }
        }

        impl std::ops::AddAssign for NodeTraffic {
            fn add_assign(&mut self, other: NodeTraffic) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

traffic_counters! {
    sent_msgs => "net.sent_msgs",
    sent_bytes => "net.sent_bytes",
    recv_msgs => "net.recv_msgs",
    recv_bytes => "net.recv_bytes",
    /// Packets from this node silently dropped by fault injection (lossy
    /// links, flap windows, killed nodes).
    dropped_msgs => "net.dropped_msgs",
    /// Extra deliveries fault injection made of this node's packets.
    duplicated_msgs => "net.duplicated_msgs",
    /// Packets from this node whose serialization a throttle fault
    /// inflated (throttled delivery only).
    throttled_msgs => "net.throttled_msgs",
    /// Packets from this node a stall fault held up (throttled delivery
    /// only).
    stalled_msgs => "net.stalled_msgs",
    /// Peer connections this node lost mid-run, once per peer: EOF, a
    /// reset or a write failure over TCP; a severed ring, a clean
    /// shutdown or a vanished process over shm. The sim has no
    /// connections to lose.
    conn_lost => "net.conn_lost",
}

/// Traffic counters for every node of a fabric.
#[derive(Debug)]
pub struct TrafficStats {
    nodes: Vec<CachePadded<NodeCounters>>,
}

impl TrafficStats {
    pub fn new(nodes: usize) -> Self {
        TrafficStats {
            nodes: (0..nodes).map(|_| CachePadded::new(NodeCounters::default())).collect(),
        }
    }

    #[inline]
    pub fn record_send(&self, node: usize, bytes: usize) {
        let c = &self.nodes[node];
        c.sent_msgs.fetch_add(1, Ordering::Relaxed);
        c.sent_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    #[inline]
    pub fn record_recv(&self, node: usize, bytes: usize) {
        let c = &self.nodes[node];
        c.recv_msgs.fetch_add(1, Ordering::Relaxed);
        c.recv_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records a packet from `node` silently dropped by fault injection.
    #[inline]
    pub fn record_drop(&self, node: usize) {
        self.nodes[node].dropped_msgs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duplicate delivery injected on a packet from `node`.
    #[inline]
    pub fn record_dup(&self, node: usize) {
        self.nodes[node].duplicated_msgs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a throttle-inflated serialization on a packet from `node`.
    #[inline]
    pub fn record_throttle(&self, node: usize) {
        self.nodes[node].throttled_msgs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a stall fault on a packet from `node`.
    #[inline]
    pub fn record_stall(&self, node: usize) {
        self.nodes[node].stalled_msgs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a peer connection `node` lost mid-run.
    #[inline]
    pub fn record_conn_lost(&self, node: usize) {
        self.nodes[node].conn_lost.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of one node's counters.
    pub fn node(&self, node: usize) -> NodeTraffic {
        self.nodes[node].load()
    }

    /// Sum over all nodes.
    pub fn total(&self) -> NodeTraffic {
        let mut t = NodeTraffic::default();
        for c in &self.nodes {
            t += c.load();
        }
        t
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let s = TrafficStats::new(3);
        s.record_send(0, 100);
        s.record_send(0, 28);
        s.record_recv(2, 128);
        assert_eq!(
            s.node(0),
            NodeTraffic { sent_msgs: 2, sent_bytes: 128, ..NodeTraffic::default() }
        );
        s.record_drop(0);
        s.record_dup(0);
        s.record_conn_lost(0);
        let n0 = s.node(0);
        assert_eq!((n0.dropped_msgs, n0.duplicated_msgs), (1, 1));
        assert_eq!(n0.conn_lost, 1);
        assert_eq!(s.total().conn_lost, 1);
        assert!(n0.counters().contains(&("net.conn_lost", 1)));
        assert_eq!(s.node(1), NodeTraffic::default());
        let t = s.total();
        assert_eq!(t.sent_bytes, 128);
        assert_eq!(t.recv_bytes, 128);
        assert_eq!(t.recv_msgs, 1);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let s = std::sync::Arc::new(TrafficStats::new(1));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record_send(0, 8);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.node(0).sent_msgs, 4000);
        assert_eq!(s.node(0).sent_bytes, 32000);
    }
}
