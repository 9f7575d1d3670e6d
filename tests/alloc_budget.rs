//! The allocation budget of overlay maintenance, asserted.
//!
//! A settled, idle overlay does nothing but keep-alives, their acks, child
//! reports and the maintenance tick. Their payloads cycle through the
//! thread's free lists (`treep`'s `pool` module): the tick builds its
//! routing updates once and copies them into spare buffers that receiving
//! handlers gave back, so in steady state most events allocate nothing.
//! Before the lists every keep-alive cloned its updates into a fresh
//! buffer, every child-report ack grew its superiors from empty, and every
//! ack built its updates in a 14-slot template: this test read 1.077
//! allocations per event there and reads 0.334 with them (seed 2005,
//! 500 nodes, 2 s idle).
//!
//! A lookup from a warm origin allocates once, for the `visited` path its
//! request carries: the origin's table of open requests and its outcome
//! queue keep their capacity, its one deadline timer is already armed, and
//! the engine stores the hops' messages in slots it reuses.
//!
//! A `UdpNode` call that sends is held to a budget too: it records the
//! callback's actions and packs its datagrams into two buffers of the
//! calling thread that outlive the call. While the actions were kept per
//! node and every send built its own lists, frames and batch plan, a call
//! sending one message made 6 allocations; it makes none now. Its receive
//! loop decodes every datagram into one message vector it owns and drains
//! into the node; while each datagram was decoded into a fresh vector, a
//! lone keep-alive cost one allocation to receive.
//!
//! The file is a test binary of its own because it installs a global
//! allocator. The allocator counts calls on the calling thread only, so
//! whatever else the harness runs does not enter the count.

use simnet::{LatencyModel, LinkModel, LossModel, SimConfig, SimDuration, Simulation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use treep::{NodeCharacteristics, NodeId, RoutingAlgorithm, TreePConfig, TreePMessage, TreePNode};
use treep_net::codec::{decode_datagram_into, encode_message};
use treep_net::UdpNode;
use workloads::TopologyBuilder;

/// Allocations per dispatched event that the idle window may cost.
const BUDGET: f64 = 0.6;

thread_local! {
    /// Allocation calls made on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls per thread.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the count is a plain statistic in a
// const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are the caller's, passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, passed
        // through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn an_idle_overlay_allocates_under_its_budget_per_event() {
    // Built and settled for the builder's three virtual seconds.
    let (mut sim, _topo) = TopologyBuilder::new(500).build_simulation(2005);
    let (events, allocs) = (sim.metrics().events_dispatched, ALLOCS.get());
    sim.run_for(SimDuration::from_secs(2));
    let events = sim.metrics().events_dispatched - events;
    let allocs = ALLOCS.get() - allocs;
    let per_event = allocs as f64 / events as f64;
    println!("idle window: {events} events, {allocs} allocations, {per_event:.3} per event");
    assert!(
        events > 10_000,
        "the window dispatched only {events} events"
    );
    assert!(
        per_event <= BUDGET,
        "{per_event:.3} allocations per event, budget {BUDGET}"
    );
}

#[test]
fn a_warm_lookup_allocates_once_for_its_path() {
    // One microsecond a hop: the lookup's few events run between two
    // maintenance events of the 500 nodes.
    let link = LinkModel {
        latency: LatencyModel::Fixed(SimDuration::from_micros(1)),
        loss: LossModel::None,
    };
    let config = SimConfig {
        link,
        ..SimConfig::default()
    };
    let (mut sim, topo) = TopologyBuilder::new(500).build_simulation_with(config, 2005);
    let pairs = topo.pairs();
    let (origin, target) = (pairs[0].0, pairs[pairs.len() / 2].1);
    let lookup = |sim: &mut Simulation<TreePNode>| {
        let before = (sim.metrics(), ALLOCS.get());
        sim.invoke(origin, |node, ctx| {
            node.start_lookup(target, RoutingAlgorithm::Greedy, ctx)
        });
        while sim.node(origin).expect("origin").pending_request_count() > 0 {
            assert!(sim.step(), "the queue drained under an open lookup");
        }
        let allocs = ALLOCS.get() - before.1;
        let metrics = sim.metrics();
        let events = metrics.events_dispatched - before.0.events_dispatched;
        assert_eq!(
            metrics.timers_fired, before.0.timers_fired,
            "a timer fired inside the lookup"
        );
        (events, allocs)
    };
    // The first lookup grows the origin's request table and outcome queue
    // and arms its deadline timer; the second finds all three in place.
    lookup(&mut sim);
    let (events, allocs) = lookup(&mut sim);
    let outcomes = sim
        .node_mut(origin)
        .expect("origin")
        .drain_lookup_outcomes();
    let hops = outcomes[1].hops;
    println!("a warm lookup: {hops} hops, {events} events, {allocs} allocations");
    assert!(
        outcomes.iter().all(|o| o.status.is_success()),
        "{outcomes:?}"
    );
    assert_eq!(
        events,
        u64::from(hops) + 1,
        "only the lookup's own events ran"
    );
    assert_eq!(allocs, 1, "a warm lookup allocates its visited path only");
}

/// Allocations per sending `UdpNode::invoke` the calling thread may make.
const UDP_SEND_BUDGET: f64 = 0.01;

#[test]
fn a_udp_invoke_that_sends_allocates_nothing_once_warm() {
    let bind = |id, bootstrap| {
        UdpNode::bind(
            "127.0.0.1:0",
            TreePConfig::default(),
            NodeId(id),
            NodeCharacteristics::strong(),
            bootstrap,
        )
        .expect("bind on loopback")
    };
    let seed = bind(1_000_000, Vec::new());
    let peer = bind(3_000_000_000, vec![seed.peer_info()]);
    let dest = seed.peer_info().addr;
    // A keep-alive without updates owns no heap memory, so whatever the
    // call allocates is the host's.
    let send = || {
        peer.invoke(|node, ctx| {
            let sender = node.peer_info();
            ctx.send(
                dest,
                TreePMessage::KeepAlive {
                    sender,
                    updates: Vec::new(),
                },
            );
        })
    };
    for _ in 0..100 {
        send();
    }
    const CALLS: u64 = 2_000;
    let before = ALLOCS.get();
    for _ in 0..CALLS {
        send();
    }
    let allocs = ALLOCS.get() - before;
    let per_call = allocs as f64 / CALLS as f64;
    println!("{CALLS} sending invokes, {allocs} allocations, {per_call:.3} per call");
    assert!(
        per_call <= UDP_SEND_BUDGET,
        "{per_call:.3} allocations per sending invoke, budget {UDP_SEND_BUDGET}"
    );
    peer.shutdown();
    seed.shutdown();
}

#[test]
fn a_warm_datagram_decode_allocates_nothing() {
    // A keep-alive without updates owns no heap memory: decoding it needs
    // none beyond the vector the receive loop keeps.
    let sender = treep::PeerInfo {
        id: NodeId(7),
        addr: simnet::NodeAddr(7),
        max_level: 1,
        summary: treep::CharacteristicsSummary::UNKNOWN,
    };
    let datagram = encode_message(&TreePMessage::KeepAlive {
        sender,
        updates: Vec::new(),
    });
    let mut msgs = Vec::new();
    let mut decode = || {
        decode_datagram_into(&datagram, &mut msgs).expect("a keep-alive decodes");
        assert_eq!(msgs.len(), 1);
        msgs.clear();
    };
    for _ in 0..100 {
        decode();
    }
    const DATAGRAMS: u64 = 2_000;
    let before = ALLOCS.get();
    for _ in 0..DATAGRAMS {
        decode();
    }
    let allocs = ALLOCS.get() - before;
    println!("{DATAGRAMS} warm decodes, {allocs} allocations");
    assert_eq!(allocs, 0, "{allocs} allocations in {DATAGRAMS} decodes");
}
