//! Helpers shared by the fault suites of this directory.

use gmt_core::aggregation::AggShared;
use gmt_core::Cluster;
use std::sync::Arc;

/// Snapshot of every node's aggregation pools, checkable after the
/// cluster (and thus every runtime thread) is gone.
pub fn pool_handles(cluster: &Cluster) -> Vec<Arc<AggShared>> {
    (0..cluster.nodes()).map(|i| Arc::clone(&cluster.node(i).shared().agg)).collect()
}

/// Asserts that every channel of every node has all its pooled buffers
/// back — i.e. the fault run leaked nothing, not even buffers that were
/// sitting in retransmit queues when the cluster stopped.
pub fn assert_pools_whole(aggs: &[Arc<AggShared>]) {
    for (node, agg) in aggs.iter().enumerate() {
        for chan in 0..agg.channels() {
            let q = agg.channel(chan);
            assert_eq!(
                q.free_buffers(),
                q.pool_capacity(),
                "node {node} channel {chan} leaked pooled buffers"
            );
        }
    }
}
