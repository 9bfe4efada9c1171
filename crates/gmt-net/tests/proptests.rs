//! Property-based tests: cost-model laws and fabric delivery guarantees.

use gmt_net::{DeliveryMode, Fabric, NetworkModel, Transport};
use proptest::prelude::*;

fn arb_model() -> impl Strategy<Value = NetworkModel> {
    (1u64..100_000, 1u64..u64::MAX / 4, 0u64..1_000_000).prop_map(
        |(overhead, bandwidth, latency)| NetworkModel {
            per_msg_overhead_ns: overhead,
            bandwidth_bytes_per_sec: bandwidth.max(1_000),
            wire_latency_ns: latency,
        },
    )
}

proptest! {
    /// Serialization time is monotone in size and superadditive-safe:
    /// sending one big message never costs more than the same bytes in
    /// two messages (that is the whole premise of aggregation).
    #[test]
    fn model_laws(model in arb_model(), a in 0usize..1_000_000, b in 0usize..1_000_000) {
        let (small, big) = (a.min(b), a.max(b));
        prop_assert!(model.serialization_ns(small) <= model.serialization_ns(big));
        let split = model.serialization_ns(a) as u128 + model.serialization_ns(b) as u128;
        let fused = model.serialization_ns(a + b) as u128;
        prop_assert!(fused <= split, "aggregation hurt: {fused} > {split}");
        // Delivery adds exactly the wire latency.
        prop_assert_eq!(
            model.delivery_ns(a),
            model.serialization_ns(a).saturating_add(model.wire_latency_ns)
        );
    }

    /// Windowed (ack-every-k) bandwidth is below streaming bandwidth and
    /// grows with the window.
    #[test]
    fn windowed_below_stream(model in arb_model(), size in 1usize..100_000) {
        let stream = model.stream_bandwidth(size);
        let w4 = model.windowed_bandwidth(size, 4);
        let w16 = model.windowed_bandwidth(size, 16);
        prop_assert!(w4 <= stream);
        prop_assert!(w16 <= stream);
        prop_assert!(w4 <= w16 * 1.0000001);
    }

    /// Instant-mode fabric: every sent packet arrives exactly once, with
    /// per-(src,dst) FIFO order, and the stats match.
    #[test]
    fn fabric_delivers_exactly_once(
        sends in proptest::collection::vec((0usize..4, 0usize..4, any::<u16>()), 0..200),
    ) {
        let fabric = Fabric::new(4, DeliveryMode::Instant);
        let eps = fabric.endpoints();
        let mut sent_bytes = 0u64;
        // Sequence numbers per (src,dst) pair to verify FIFO.
        let mut seq = [[0u32; 4]; 4];
        for &(src, dst, val) in &sends {
            let s = seq[src][dst];
            seq[src][dst] += 1;
            let mut payload = s.to_le_bytes().to_vec();
            payload.extend_from_slice(&val.to_le_bytes());
            sent_bytes += payload.len() as u64;
            eps[src].send(dst, 0, payload).unwrap();
        }
        let mut received = 0usize;
        let mut next = [[0u32; 4]; 4];
        for dst in 0..4 {
            while let Some(pkt) = eps[dst].try_recv() {
                let s = u32::from_le_bytes(pkt.payload[..4].try_into().unwrap());
                prop_assert_eq!(s, next[pkt.src][dst], "FIFO violated {}->{}", pkt.src, dst);
                next[pkt.src][dst] += 1;
                received += 1;
            }
        }
        prop_assert_eq!(received, sends.len());
        prop_assert_eq!(fabric.stats().total().sent_msgs, sends.len() as u64);
        prop_assert_eq!(fabric.stats().total().sent_bytes, sent_bytes);
    }
}
