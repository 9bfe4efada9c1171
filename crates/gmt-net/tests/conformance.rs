//! The [`Transport`] contract as one suite, instantiated per backend.
//!
//! Every body below is written once against `dyn Transport` and run over
//! the sim fabric, the TCP loopback mesh and the shared-memory ring mesh
//! (`sim::*`, `tcp::*`, `shm::*`). Three bodies run on the two real wires
//! only: the sim's kill cuts no link, it learns that a peer shut down
//! only by sending to it, and it has no processes to wait for at a done
//! barrier.

use gmt_net::{
    connect, loopback_mesh, shm_mesh, Bootstrap, DeliveryMode, DownCause, Fabric, FaultPlan,
    LinkState, NetError, Payload, Transport,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
enum Backend {
    Sim,
    Tcp,
    Shm,
}

/// An N-node in-process mesh, index = node id.
struct Mesh {
    nodes: Vec<Arc<dyn Transport>>,
    /// The sim's inboxes stay open while their fabric or endpoint lives.
    _fabric: Option<Fabric>,
}

impl std::ops::Deref for Mesh {
    type Target = [Arc<dyn Transport>];
    fn deref(&self) -> &Self::Target {
        &self.nodes
    }
}

fn erase<T: Transport + 'static>(mesh: Vec<T>) -> Vec<Arc<dyn Transport>> {
    mesh.into_iter().map(|t| Arc::new(t) as Arc<dyn Transport>).collect()
}

impl Backend {
    fn mesh(self, nodes: usize) -> Mesh {
        match self {
            Backend::Sim => {
                let fabric = Fabric::new(nodes, DeliveryMode::Instant);
                Mesh { nodes: erase(fabric.endpoints()), _fabric: Some(fabric) }
            }
            Backend::Tcp => Mesh { nodes: erase(loopback_mesh(nodes).unwrap()), _fabric: None },
            Backend::Shm => Mesh { nodes: erase(shm_mesh(nodes).unwrap()), _fabric: None },
        }
    }

    /// Real wires hand up every frame in bytes they take back on drop
    /// (TCP a pooled receive buffer, shm the ring bytes themselves); the
    /// sim hands the sender's payload through.
    fn pools_receives(self) -> bool {
        !matches!(self, Backend::Sim)
    }
}

const ARRIVES: Duration = Duration::from_secs(10);

/// Polls until `cond` holds, failing the test at the deadline.
fn poll_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + ARRIVES;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn lost(state: LinkState) -> bool {
    matches!(state, LinkState::Down(DownCause::Lost(_)))
}

fn frames_roundtrip(backend: Backend) {
    let mesh = backend.mesh(2);
    for len in [0usize, 1, 7, 4096, 100_000] {
        let bytes: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        mesh[0].send(1, 42, Payload::from(bytes.clone())).expect("send");
        let got = mesh[1].recv_timeout(ARRIVES).expect("frame arrives");
        assert_eq!((got.src, got.dst, got.tag), (0, 1, 42));
        assert_eq!(got.payload.as_slice(), &bytes[..]);
        assert_eq!(got.payload.is_pooled(), backend.pools_receives());
    }
    assert!(mesh[0].try_recv().is_none(), "nothing was sent to the sender");
    let (sent, recv) = (mesh[0].stats().node(0), mesh[1].stats().node(1));
    assert_eq!((sent.sent_msgs, recv.recv_msgs), (5, 5));
    assert_eq!((sent.sent_bytes, recv.recv_bytes), (104_104, 104_104));
    assert_eq!(
        mesh[0].send(5, 0, Payload::from(vec![1])),
        Err(NetError::NoSuchNode { dst: 5, nodes: 2 })
    );
}

fn self_send_loops_back(backend: Backend) {
    let mesh = backend.mesh(1);
    mesh[0].send(0, 7, Payload::from(vec![1, 2, 3])).expect("send");
    let got = mesh[0].recv_timeout(ARRIVES).expect("self packet");
    assert_eq!((got.src, got.dst, got.tag), (0, 0, 7));
    assert_eq!(got.payload.as_slice(), &[1, 2, 3]);
}

fn per_link_fifo_is_preserved(backend: Backend) {
    let mesh = backend.mesh(2);
    for i in 0..500u32 {
        mesh[0].send(1, i, Payload::from(i.to_le_bytes().to_vec())).expect("send");
    }
    for i in 0..500u32 {
        let got = mesh[1].recv_timeout(ARRIVES).expect("packet");
        assert_eq!(got.tag, i, "frames arrived out of order");
        assert_eq!(got.payload.as_slice(), &i.to_le_bytes());
    }
}

fn shim_drop_blackholes_and_counts(backend: Backend) {
    let mesh = backend.mesh(2);
    mesh[0].install_faults(FaultPlan::new(0xD0D0).drop(0, 1, 1.0));
    for i in 0..10u32 {
        mesh[0].send(1, i, Payload::from(vec![0u8; 64])).expect("drop is a successful send");
    }
    assert_eq!(mesh[0].stats().node(0).dropped_msgs, 10);
    assert!(mesh[1].recv_timeout(Duration::from_millis(200)).is_none());
    mesh[0].clear_faults();
    mesh[0].send(1, 99, Payload::from(vec![4])).expect("send");
    let got = mesh[1].recv_timeout(ARRIVES).expect("clear_faults restores the link");
    assert_eq!(got.tag, 99);
}

fn shim_dup_delivers_twice(backend: Backend) {
    let mesh = backend.mesh(2);
    mesh[0].install_faults(FaultPlan::new(0xD1D1).dup(0, 1, 1.0));
    mesh[0].send(1, 5, Payload::from(vec![9u8; 33])).expect("send");
    let first = mesh[1].recv_timeout(ARRIVES).expect("first copy");
    let second = mesh[1].recv_timeout(ARRIVES).expect("second copy");
    assert_eq!((first.tag, second.tag), (5, 5));
    assert_eq!(first.payload, second.payload);
    assert_eq!(mesh[0].stats().node(0).duplicated_msgs, 1);
    assert_eq!(mesh[1].stats().node(1).recv_msgs, 2);
}

fn killed_peer_is_observed_and_blackholed(backend: Backend) {
    let mesh = backend.mesh(3);
    mesh[0].install_faults(FaultPlan::new(0xC0DE).kill(1));
    // Through the plan, or already through the link the kill severed.
    assert!(matches!(mesh[0].link_state(1), LinkState::Down(_)));
    assert_eq!(mesh[0].link_state(0), LinkState::Up);
    assert_eq!(mesh[0].link_state(2), LinkState::Up);
    // Blackholed sends still succeed (the shim drops them silently),
    // and nothing arrives.
    mesh[0].send(1, 0, Payload::from(vec![1])).expect("blackholed send succeeds");
    assert!(mesh[1].recv_timeout(Duration::from_millis(200)).is_none());
    // The victim's own sends vanish too, once the plan is on its side.
    mesh[1].install_faults(FaultPlan::new(0xC0DE).kill(1));
    mesh[1].send(0, 0, Payload::from(vec![3])).expect("blackholed send succeeds");
    assert!(mesh[0].recv_timeout(Duration::from_millis(200)).is_none());
    // The unrelated link still works.
    mesh[0].send(2, 1, Payload::from(vec![2])).expect("send");
    assert!(mesh[2].recv_timeout(ARRIVES).is_some());
}

fn flap_window_drops_frames_then_recovers(backend: Backend) {
    let mesh = backend.mesh(2);
    // Link 0->1 is down for the first 200 ms after install.
    mesh[0].install_faults(FaultPlan::new(0xF1A9).flap(0, 1, 0, 200_000_000));
    mesh[0].send(1, 5, Payload::from(vec![2u8; 16])).expect("flapped send succeeds");
    assert_eq!(mesh[0].stats().node(0).dropped_msgs, 1, "in-window frame must drop");
    assert!(mesh[1].recv_timeout(Duration::from_millis(100)).is_none());
    std::thread::sleep(Duration::from_millis(150));
    mesh[0].send(1, 6, Payload::from(vec![3u8; 16])).expect("send");
    let got = mesh[1].recv_timeout(ARRIVES).expect("post-window frame");
    assert_eq!(got.tag, 6, "the dropped frame must not reappear");
    // A flap is not a kill: no evidence, nothing severed.
    assert_eq!(mesh[0].link_state(1), LinkState::Up);
    assert_eq!(mesh[1].link_state(0), LinkState::Up);
}

fn kill_fault_severs_the_link_and_the_surviving_side_observes_it(backend: Backend) {
    let mesh = backend.mesh(2);
    mesh[0].install_faults(FaultPlan::new(0xDEAD).kill(1));
    // The killer's view: the kill is observed, sends are blackholed.
    assert!(matches!(mesh[0].link_state(1), LinkState::Down(_)));
    mesh[0].send(1, 1, Payload::from(vec![1])).expect("blackholed send succeeds");
    assert!(mesh[1].recv_timeout(Duration::from_millis(200)).is_none());
    // The victim's view: the link died under it — exactly what a real
    // crash of node 0 would look like — and that loss is first-hand
    // evidence, with no fault plan installed on its side.
    poll_until("victim to observe the severed link", || lost(mesh[1].link_state(0)));
    assert!(mesh[1].stats().node(1).conn_lost >= 1);
}

fn lost_peer_becomes_evidence_and_is_counted_once(backend: Backend) {
    let mesh = backend.mesh(2);
    let (a, b) = (&mesh[0], &mesh[1]);
    a.send(1, 0, Payload::from(vec![1])).expect("send");
    b.recv_timeout(ARRIVES).expect("frame arrives");
    assert_eq!(a.link_state(1), LinkState::Up, "no evidence before the loss");

    // b dies (shutdown closes its links like a process exit would).
    b.shutdown();
    poll_until("b's exit to become loss evidence", || lost(a.link_state(1)));
    assert_eq!(a.link_state(0), LinkState::Up, "a node never loses the connection to itself");

    // The send path hits the dead link too; the loss stays counted once
    // per peer no matter how many paths observe it.
    loop {
        match a.send(1, 0, Payload::from(vec![7u8; 64])) {
            Ok(()) => std::thread::sleep(Duration::from_millis(1)),
            Err(NetError::LinkDown { src: 0, dst: 1 }) => break,
            Err(e) => panic!("unexpected send error: {e:?}"),
        }
    }
    assert_eq!(a.stats().node(0).conn_lost, 1);
    a.shutdown();
    // Neither node's own shutdown counts as losing its peers.
    assert_eq!(a.stats().node(0).conn_lost, 1);
    assert_eq!(a.stats().node(1).conn_lost, 0);
}

fn shutdown_mid_traffic_neither_hangs_nor_errors_the_receiver(backend: Backend) {
    let mesh = backend.mesh(2);
    let (a, b) = (Arc::clone(&mesh[0]), Arc::clone(&mesh[1]));
    drop(mesh);
    let sender = std::thread::spawn(move || {
        // Hammer until the transport reports closed/down.
        loop {
            match a.send(1, 0, Payload::from(vec![5u8; 512])) {
                Ok(()) => {}
                Err(NetError::Closed) | Err(NetError::LinkDown { .. }) => break,
                Err(e) => panic!("unexpected send error: {e:?}"),
            }
        }
        a.shutdown();
    });
    // Receive some traffic, then shut down while the peer still sends.
    for _ in 0..50 {
        if b.recv_timeout(ARRIVES).is_none() {
            break;
        }
    }
    b.shutdown();
    b.shutdown(); // idempotent
    assert!(matches!(b.send(0, 0, Payload::from(vec![1])), Err(NetError::Closed)));
    // Already-queued packets stay receivable after shutdown.
    while b.try_recv().is_some() {}
    drop(b); // the peer sees the loss (if it had not already hit LinkDown)
    sender.join().expect("sender thread");
}

fn done_barrier_names_the_missing_nodes(backend: Backend) {
    const NODES: usize = 4;
    // A directory per wire: the two instances of this test run at once.
    let (dir, boot): (_, fn(_) -> Bootstrap) = match backend {
        Backend::Shm => ("gmt-conformance-shm", |d: PathBuf| Bootstrap::Shm(d.join("mesh.seg"))),
        _ => ("gmt-conformance-tcp", |d: PathBuf| Bootstrap::File(d.join("bootstrap"))),
    };
    let dir = std::env::temp_dir().join(format!("{dir}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let boot = boot(dir.clone());
    let handles: Vec<_> = (0..NODES)
        .map(|node| {
            let boot = boot.clone();
            std::thread::spawn(move || connect(node, NODES, &boot).expect("connect"))
        })
        .collect();
    let mut ends: Vec<_> = handles.into_iter().map(|h| Some(h.join().unwrap())).collect();
    let mut done = |node: usize| ends[node].take().expect("still attached");
    let (_t0, mut coordinator) = done(0);
    let (_t1, mut one) = done(1);
    let (_t2, mut two) = done(2);
    let three = done(3);

    // A peer waits on node 0 only.
    assert_eq!(one.wait_done_timeout(Duration::from_millis(50)), Err(vec![0]));
    // Node 1 signals, nodes 2 and 3 stay silent: the coordinator's
    // barrier names exactly them instead of hanging.
    one.signal_done();
    let t0 = Instant::now();
    assert_eq!(coordinator.wait_done_timeout(Duration::from_millis(300)), Err(vec![2, 3]));
    assert!(t0.elapsed() < Duration::from_secs(5));
    two.signal_done();
    assert_eq!(coordinator.wait_done_timeout(Duration::from_millis(300)), Err(vec![3]));
    // Node 3 goes away without a word: a peer that is gone counts as
    // done, it cannot be waited on.
    drop(three);
    assert_eq!(coordinator.wait_done_timeout(ARRIVES), Ok(()));
    coordinator.signal_done();
    assert_eq!(one.wait_done_timeout(ARRIVES), Ok(()));
    std::fs::remove_dir_all(&dir).ok();
}

macro_rules! suite {
    ($module:ident, $backend:expr, [$($test:ident),* $(,)?]) => {
        mod $module {
            use super::Backend;
            $(
                #[test]
                fn $test() {
                    super::$test($backend);
                }
            )*
        }
    };
}

suite!(
    sim,
    Backend::Sim,
    [
        frames_roundtrip,
        self_send_loops_back,
        per_link_fifo_is_preserved,
        shim_drop_blackholes_and_counts,
        shim_dup_delivers_twice,
        killed_peer_is_observed_and_blackholed,
        flap_window_drops_frames_then_recovers,
        shutdown_mid_traffic_neither_hangs_nor_errors_the_receiver,
    ]
);

macro_rules! real_wire_suite {
    ($module:ident, $backend:expr) => {
        suite!(
            $module,
            $backend,
            [
                frames_roundtrip,
                self_send_loops_back,
                per_link_fifo_is_preserved,
                shim_drop_blackholes_and_counts,
                shim_dup_delivers_twice,
                killed_peer_is_observed_and_blackholed,
                flap_window_drops_frames_then_recovers,
                kill_fault_severs_the_link_and_the_surviving_side_observes_it,
                lost_peer_becomes_evidence_and_is_counted_once,
                shutdown_mid_traffic_neither_hangs_nor_errors_the_receiver,
                done_barrier_names_the_missing_nodes,
            ]
        );
    };
}

real_wire_suite!(tcp, Backend::Tcp);
real_wire_suite!(shm, Backend::Shm);
