//! A UDP host for the sans-IO [`TreePNode`] state machine.
//!
//! One thread, the receive loop, drives the protocol as the discrete-event
//! simulator does, only against the wall clock: it feeds each datagram's
//! messages to `Protocol::on_message` in one callback and, once every
//! [`TIMER_PERIOD`] (its socket's read timeout), fires the timers that fell
//! due in another. The node, its RNG and its pending timers sit behind one
//! lock, so the state machine sees the single-threaded semantics it has
//! under simulation; what a callback sends is packed and written after it.

use crate::codec::{decode_datagram_into, pack_datagrams};
use simnet::{Action, Context, NodeAddr, Protocol, SimDuration, SimRng, SimTime, TimerToken};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use treep::{
    DhtOutcome, LookupOutcome, NodeCharacteristics, NodeId, PeerInfo, RoutingAlgorithm,
    TreePConfig, TreePMessage, TreePNode,
};

/// Pack an IPv4 socket address into a [`NodeAddr`] (upper 32 bits: address,
/// lower 16 bits: port). The mapping is lossless, so overlay messages can
/// carry real transport addresses inside their `PeerInfo` entries.
pub(crate) fn addr_to_node_addr(addr: SocketAddr) -> NodeAddr {
    match addr {
        SocketAddr::V4(v4) => {
            let ip = u32::from(*v4.ip()) as u64;
            NodeAddr((ip << 16) | v4.port() as u64)
        }
        SocketAddr::V6(_) => panic!("treep-net currently supports IPv4 only"),
    }
}

/// Inverse of [`addr_to_node_addr`].
pub(crate) fn node_addr_to_socket(addr: NodeAddr) -> SocketAddr {
    let ip = Ipv4Addr::from(((addr.0 >> 16) & 0xFFFF_FFFF) as u32);
    let port = (addr.0 & 0xFFFF) as u16;
    SocketAddr::V4(SocketAddrV4::new(ip, port))
}

/// Lock `mutex`, recovering a poisoned lock rather than propagating it: the
/// node state machine is a plain data structure, so the worst a panicking
/// holder can leave behind is stale routing data the protocol already
/// tolerates.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wire-level counters for one UDP node. The overlay's [`treep::NodeStats`]
/// counts protocol *messages*; these count what actually hits the socket,
/// so the batching win (messages per datagram) is measurable.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TransportStats {
    /// UDP datagrams written to the socket (bare frames + batch envelopes).
    pub datagrams_sent: u64,
    /// Protocol messages sent, counting each message once whether it left
    /// bare or inside a batch envelope.
    pub messages_sent: u64,
    /// The subset of `messages_sent` that travelled inside a tag-255 batch
    /// envelope.
    pub batched_messages: u64,
    /// The subset of `datagrams_sent` that were tag-255 batch envelopes.
    pub batch_datagrams: u64,
}

impl TransportStats {
    /// Mean messages per datagram — the batching win (1.0 when nothing
    /// batched).
    pub fn messages_per_datagram(&self) -> f64 {
        if self.datagrams_sent == 0 {
            0.0
        } else {
            self.messages_sent as f64 / self.datagrams_sent as f64
        }
    }

    /// Count one datagram carrying `messages` messages.
    fn record(&mut self, messages: usize) {
        let messages = messages as u64;
        self.datagrams_sent += 1;
        self.messages_sent += messages;
        if messages > 1 {
            self.batch_datagrams += 1;
            self.batched_messages += messages;
        }
    }

    /// Add `other`'s counts to these.
    fn add(&mut self, other: TransportStats) {
        self.datagrams_sent += other.datagrams_sent;
        self.messages_sent += other.messages_sent;
        self.batched_messages += other.batched_messages;
        self.batch_datagrams += other.batch_datagrams;
    }
}

/// Pending timers, earliest deadline on top. The `u64` numbers them in the
/// order they were set, so equal deadlines fire first in, first out.
type Timers = BinaryHeap<Reverse<(SimTime, u64, TimerToken)>>;

/// The state machine, the RNG its callbacks draw from and the timers they
/// set (with how many were set): one lock guards them all.
struct Hosted {
    node: TreePNode,
    rng: SimRng,
    timers: Timers,
    timers_set: u64,
}

thread_local! {
    /// The buffers this thread's callbacks record actions in and pack
    /// datagrams into: [`Shared::run`] takes them and puts them back, so a
    /// nested `run` allocates its own.
    static BUFFERS: Cell<(Vec<Action<TreePMessage>>, Vec<u8>)> =
        const { Cell::new((Vec::new(), Vec::new())) };
}

struct Shared {
    hosted: Mutex<Hosted>,
    started_at: Instant,
    self_addr: NodeAddr,
    socket: UdpSocket,
    running: AtomicBool,
    stats: Mutex<TransportStats>,
}

impl Shared {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.started_at.elapsed().as_micros() as u64)
    }

    /// Fire every timer whose deadline has passed, in one context.
    fn fire_due(&self) {
        self.run(|node, timers, ctx| {
            let now = ctx.now();
            while timers.peek().is_some_and(|&Reverse((due, ..))| due <= now) {
                let Reverse((_, _, token)) = timers.pop().expect("peeked");
                node.on_timer(token, ctx);
            }
        });
    }

    /// Run `f` under the node lock in a context recording into this
    /// thread's buffer, queue the timers it set on the node's clock, and
    /// send its messages once the lock is released, grouped per destination
    /// in order of first appearance: one callback may send several to one
    /// peer (`ParentAccept` and `ChildReport` when a child registers,
    /// `ChildReport` and `FilterReport` on a tick with pub/sub on, multicast
    /// fan-out), and one datagram per destination beats one per message.
    fn run<R>(
        &self,
        f: impl FnOnce(&mut TreePNode, &mut Timers, &mut Context<'_, TreePMessage>) -> R,
    ) -> R {
        let now = self.now();
        let (actions, mut datagram) = BUFFERS.take();
        let mut guard = lock(&self.hosted);
        let hosted = &mut *guard;
        let mut ctx = Context::with_buffer(now, self.self_addr, &mut hosted.rng, actions);
        let out = f(&mut hosted.node, &mut hosted.timers, &mut ctx);
        let mut actions = ctx.into_actions();
        for action in &actions {
            if let Action::SetTimer { delay, token } = *action {
                hosted.timers_set += 1;
                let seq = hosted.timers_set;
                hosted.timers.push(Reverse((now + delay, seq, token)));
            }
        }
        drop(guard);
        let mut sent = TransportStats::default();
        let sends = || actions.iter().filter_map(send_of);
        for (at, (dest, _)) in sends().enumerate() {
            if sends().take(at).any(|(d, _)| d == dest) {
                continue;
            }
            let msgs = sends().skip(at).filter(|s| s.0 == dest).map(|s| s.1);
            let to = node_addr_to_socket(dest);
            pack_datagrams(&mut datagram, msgs, MAX_DATAGRAM_BYTES, |bytes, count| {
                sent.record(count);
                let _ = self.socket.send_to(bytes, to);
            });
        }
        if sent.datagrams_sent > 0 {
            lock(&self.stats).add(sent);
        }
        actions.clear();
        BUFFERS.set((actions, datagram));
        out
    }
}

/// Where `action` sends what, if it is a send.
fn send_of(action: &Action<TreePMessage>) -> Option<(NodeAddr, &TreePMessage)> {
    match action {
        Action::Send { dest, msg } => Some((*dest, msg)),
        Action::SetTimer { .. } => None,
    }
}

/// Upper bound on an outgoing datagram, batch envelope included. Loopback
/// and modern LANs handle 64 KiB UDP; staying a little under keeps each
/// datagram within the receive buffer used by the read loop.
const MAX_DATAGRAM_BYTES: usize = 60 * 1024;

/// How often the receive loop fires due timers, and its socket's read
/// timeout: a quiet socket still wakes the loop once a period.
const TIMER_PERIOD: SimDuration = SimDuration::from_millis(10);

/// A TreeP peer bound to a real UDP socket.
///
/// Dropping the handle stops the receive loop and closes the node.
pub struct UdpNode {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl UdpNode {
    /// Bind a node to `bind_addr` (e.g. `"127.0.0.1:0"`), give it `id` and
    /// `characteristics`, and start it. `bootstrap` lists peers the node
    /// joins through (their `PeerInfo` as returned by
    /// [`UdpNode::peer_info`]).
    pub fn bind(
        bind_addr: impl ToSocketAddrs,
        config: TreePConfig,
        id: NodeId,
        characteristics: NodeCharacteristics,
        bootstrap: Vec<PeerInfo>,
    ) -> std::io::Result<UdpNode> {
        let socket = UdpSocket::bind(bind_addr)?;
        socket.set_read_timeout(Some(Duration::from_micros(TIMER_PERIOD.as_micros())))?;
        let local = socket.local_addr()?;
        let self_addr = addr_to_node_addr(local);
        let node = TreePNode::new(config, id, characteristics)
            .with_addr(self_addr)
            .with_bootstrap(bootstrap);
        let shared = Arc::new(Shared {
            hosted: Mutex::new(Hosted {
                node,
                rng: SimRng::seed_from(self_addr.0 ^ id.0),
                timers: Timers::new(),
                timers_set: 0,
            }),
            started_at: Instant::now(),
            self_addr,
            socket,
            running: AtomicBool::new(true),
            stats: Mutex::new(TransportStats::default()),
        });

        // Start the protocol (arms the first keep-alive and sends the join
        // requests).
        shared.run(|node, _, ctx| node.on_start(ctx));

        // The node's only thread: one callback per datagram received, and
        // the due timers once a period, after a datagram or a timeout.
        let receiver = Arc::clone(&shared);
        let thread = std::thread::spawn(move || {
            let mut buf = vec![0u8; 64 * 1024];
            let mut msgs = Vec::new();
            let mut next_firing = SimTime::ZERO;
            while receiver.running.load(Ordering::SeqCst) {
                match receiver.socket.recv_from(&mut buf) {
                    Ok((len, from)) => {
                        if decode_datagram_into(&buf[..len], &mut msgs).is_ok() {
                            let from = addr_to_node_addr(from);
                            receiver.run(|node, _, ctx| {
                                msgs.drain(..)
                                    .for_each(|msg| node.on_message(from, msg, ctx))
                            });
                        }
                    }
                    Err(ref e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(_) => break,
                }
                let now = receiver.now();
                if now >= next_firing {
                    receiver.fire_due();
                    next_firing = now + TIMER_PERIOD;
                }
            }
        });

        Ok(UdpNode {
            shared,
            thread: Some(thread),
        })
    }

    /// The node's overlay identifier.
    pub fn id(&self) -> NodeId {
        lock(&self.shared.hosted).node.id()
    }

    /// The node's transport address as a socket address.
    pub fn local_addr(&self) -> SocketAddr {
        node_addr_to_socket(self.shared.self_addr)
    }

    /// The node's contact information, suitable as a bootstrap entry for
    /// other [`UdpNode::bind`] calls.
    pub fn peer_info(&self) -> PeerInfo {
        lock(&self.shared.hosted).node.peer_info()
    }

    /// Inspect the protocol state under the lock.
    pub fn with_node<R>(&self, f: impl FnOnce(&TreePNode) -> R) -> R {
        f(&lock(&self.shared.hosted).node)
    }

    /// Run `f` against the node with a context on the wall clock and send
    /// whatever it produced: every operation [`TreePNode`] offers
    /// (`node.dht_put_versioned(key, value, ctx)`, `node.start_aggregate(..)`,
    /// `node.drain_read_outcomes()`, …) under this host, exactly as
    /// `Simulation::invoke` offers it under the simulator.
    pub fn invoke<R>(
        &self,
        f: impl FnOnce(&mut TreePNode, &mut Context<'_, TreePMessage>) -> R,
    ) -> R {
        self.shared.run(|node, _, ctx| f(node, ctx))
    }

    /// Originate a lookup for `target`.
    pub fn lookup(&self, target: NodeId, algorithm: RoutingAlgorithm) {
        self.invoke(|node, ctx| node.start_lookup(target, algorithm, ctx));
    }

    /// Store a value in the DHT.
    pub fn dht_put(&self, key: &[u8], value: Vec<u8>) {
        self.invoke(|node, ctx| node.dht_put(key, value, ctx));
    }

    /// Query the DHT.
    pub fn dht_get(&self, key: &[u8]) {
        self.invoke(|node, ctx| node.dht_get(key, ctx));
    }

    /// Collect the lookup outcomes recorded so far.
    pub fn drain_lookup_outcomes(&self) -> Vec<LookupOutcome> {
        self.invoke(|node, _| node.drain_lookup_outcomes())
    }

    /// Collect the DHT outcomes recorded so far.
    pub fn drain_dht_outcomes(&self) -> Vec<DhtOutcome> {
        self.invoke(|node, _| node.drain_dht_outcomes())
    }

    /// Wire-level send counters accumulated since bind.
    pub fn transport_stats(&self) -> TransportStats {
        *lock(&self.shared.stats)
    }

    /// Stop the receive loop and close the socket, as dropping the handle
    /// does.
    pub fn shutdown(self) {}
}

impl Drop for UdpNode {
    fn drop(&mut self) {
        self.shared.running.store(false, Ordering::SeqCst);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> TreePConfig {
        TreePConfig {
            keepalive_interval: SimDuration::from_millis(100),
            entry_ttl: SimDuration::from_millis(600),
            election_base: SimDuration::from_millis(80),
            demotion_base: SimDuration::from_millis(200),
            lookup_timeout: SimDuration::from_millis(800),
            ..TreePConfig::default()
        }
    }

    #[test]
    fn transport_stats_count_batched_messages_per_message() {
        let msg = TreePMessage::JoinRequest {
            joiner: PeerInfo {
                id: NodeId(9),
                addr: NodeAddr(9),
                max_level: 0,
                summary: treep::CharacteristicsSummary::UNKNOWN,
            },
        };
        let frame = crate::encode_message(&msg).len();
        // Three framed messages fill the envelope; the fourth goes out bare.
        let max = 5 + 3 * (4 + frame);
        let mut sent = TransportStats::default();
        pack_datagrams(&mut Vec::new(), &vec![msg; 4], max, |_, count| {
            sent.record(count)
        });
        let mut total = TransportStats::default();
        total.add(sent);
        total.add(sent);
        assert_eq!(
            sent,
            TransportStats {
                datagrams_sent: 2,
                messages_sent: 4,
                batched_messages: 3,
                batch_datagrams: 1,
            }
        );
        assert_eq!(total.messages_sent, 8);
        assert!((total.messages_per_datagram() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn node_addr_round_trips_socket_addrs() {
        for (ip, port) in [
            ([127, 0, 0, 1], 8080u16),
            ([192, 168, 1, 42], 65535),
            ([10, 0, 0, 1], 1),
        ] {
            let sock = SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::from(ip), port));
            assert_eq!(node_addr_to_socket(addr_to_node_addr(sock)), sock);
        }
    }

    #[test]
    fn two_nodes_learn_about_each_other_over_udp() {
        let config = fast_config();
        let seed = UdpNode::bind(
            "127.0.0.1:0",
            config,
            NodeId(1_000_000),
            NodeCharacteristics::strong(),
            vec![],
        )
        .expect("bind seed");
        let joiner = UdpNode::bind(
            "127.0.0.1:0",
            config,
            NodeId(3_000_000_000),
            NodeCharacteristics::default(),
            vec![seed.peer_info()],
        )
        .expect("bind joiner");

        // Give the join handshake and a couple of keep-alive rounds time to
        // complete over the loopback interface.
        std::thread::sleep(Duration::from_millis(600));

        let seed_knows = seed.with_node(|n| n.tables().is_level0_neighbor(NodeId(3_000_000_000)));
        let joiner_knows = joiner.with_node(|n| n.tables().is_level0_neighbor(NodeId(1_000_000)));
        assert!(seed_knows, "seed never learned about the joiner");
        assert!(joiner_knows, "joiner never learned about the seed");

        joiner.lookup(NodeId(1_000_000), RoutingAlgorithm::Greedy);
        std::thread::sleep(Duration::from_millis(300));
        let outcomes = joiner.drain_lookup_outcomes();
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].status.is_success(), "{:?}", outcomes[0]);

        joiner.shutdown();
        seed.shutdown();
    }

    #[test]
    fn dht_put_get_works_over_udp() {
        let config = fast_config();
        let seed = UdpNode::bind(
            "127.0.0.1:0",
            config,
            NodeId(500_000),
            NodeCharacteristics::strong(),
            vec![],
        )
        .expect("bind seed");
        let peer = UdpNode::bind(
            "127.0.0.1:0",
            config,
            NodeId(2_500_000_000),
            NodeCharacteristics::default(),
            vec![seed.peer_info()],
        )
        .expect("bind peer");
        std::thread::sleep(Duration::from_millis(500));

        peer.dht_put(b"service/registry", b"udp works".to_vec());
        std::thread::sleep(Duration::from_millis(300));
        assert!(
            peer.drain_dht_outcomes().iter().any(|o| o.is_success()),
            "put must be acknowledged"
        );

        peer.dht_get(b"service/registry");
        std::thread::sleep(Duration::from_millis(300));
        let gets = peer.drain_dht_outcomes();
        let found = gets.iter().any(|o| match o {
            DhtOutcome::GetAnswered { value: Some(v), .. } => v == b"udp works",
            _ => false,
        });
        assert!(found, "stored value must be retrievable: {gets:?}");

        peer.shutdown();
        seed.shutdown();
    }

    #[test]
    fn a_panicking_caller_poisons_the_node_lock_and_the_node_keeps_running() {
        let config = fast_config();
        let seed = UdpNode::bind(
            "127.0.0.1:0",
            config,
            NodeId(1_000_000),
            NodeCharacteristics::strong(),
            vec![],
        )
        .expect("bind seed");
        let joiner = UdpNode::bind(
            "127.0.0.1:0",
            config,
            NodeId(3_000_000_000),
            NodeCharacteristics::default(),
            vec![seed.peer_info()],
        )
        .expect("bind joiner");
        std::thread::sleep(Duration::from_millis(600));

        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            joiner.invoke::<()>(|_, _| panic!("caller bug inside invoke"))
        }));
        assert!(caught.is_err(), "the closure's panic reaches the caller");
        assert!(
            joiner.shared.hosted.is_poisoned(),
            "the panic unwound through the node lock"
        );

        let rounds_before = joiner.with_node(|n| n.stats().keepalive_rounds);
        joiner.lookup(NodeId(1_000_000), RoutingAlgorithm::Greedy);
        std::thread::sleep(Duration::from_millis(300));
        let outcomes = joiner.drain_lookup_outcomes();
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].status.is_success(), "{:?}", outcomes[0]);
        let rounds_after = joiner.with_node(|n| n.stats().keepalive_rounds);
        assert!(
            rounds_after > rounds_before,
            "the receive loop must keep firing timers past the poisoned lock: {rounds_before} -> {rounds_after} keep-alive rounds"
        );

        joiner.shutdown();
        seed.shutdown();
    }

    #[test]
    fn a_lone_node_fires_its_timers_on_the_read_timeout() {
        // No peer, so no datagram ever arrives: only the socket's read
        // timeout wakes the receive loop to fire the keep-alive timer.
        let node = UdpNode::bind(
            "127.0.0.1:0",
            fast_config(),
            NodeId(7),
            NodeCharacteristics::default(),
            vec![],
        )
        .expect("bind");
        std::thread::sleep(Duration::from_millis(500));
        let rounds = node.with_node(|n| n.stats().keepalive_rounds);
        assert!(
            rounds >= 3,
            "{rounds} keep-alive rounds in 500 ms at 100 ms"
        );
        node.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_fast() {
        let node = UdpNode::bind(
            "127.0.0.1:0",
            fast_config(),
            NodeId(42),
            NodeCharacteristics::default(),
            vec![],
        )
        .expect("bind");
        let started = Instant::now();
        node.shutdown();
        assert!(started.elapsed() < Duration::from_secs(2));
    }
}
