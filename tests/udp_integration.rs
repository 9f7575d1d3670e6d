//! Cross-crate integration: the same protocol code that powers the simulator
//! experiments runs over real UDP sockets (loopback cluster).

use std::net::UdpSocket;
use std::time::{Duration, Instant};
use treep::{
    hash_key, AggregateQuery, DhtOutcome, KeyRange, NodeCharacteristics, NodeId, ReadOutcome,
    RoutingAlgorithm, TreePConfig, TreePMessage,
};
use treep_net::{encode_message, UdpNode};

fn fast_config() -> TreePConfig {
    TreePConfig {
        keepalive_interval: simnet::SimDuration::from_millis(100),
        entry_ttl: simnet::SimDuration::from_millis(700),
        election_base: simnet::SimDuration::from_millis(100),
        demotion_base: simnet::SimDuration::from_millis(300),
        lookup_timeout: simnet::SimDuration::from_secs(1),
        ..TreePConfig::default()
    }
}

#[test]
fn udp_cluster_self_organises_and_routes() {
    let config = fast_config();
    let seed = UdpNode::bind(
        "127.0.0.1:0",
        config,
        NodeId(100_000_000),
        NodeCharacteristics::strong(),
        vec![],
    )
    .expect("bind seed");

    let ids = [900_000_000u64, 1_800_000_000, 2_700_000_000, 3_600_000_000];
    let peers: Vec<UdpNode> = ids
        .iter()
        .map(|&id| {
            UdpNode::bind(
                "127.0.0.1:0",
                config,
                NodeId(id),
                NodeCharacteristics::default(),
                vec![seed.peer_info()],
            )
            .expect("bind peer")
        })
        .collect();

    // Let joins, keep-alives and at least one election round run for real.
    std::thread::sleep(Duration::from_millis(1_200));

    // Every peer knows the seed, and a hierarchy started to form somewhere.
    for peer in &peers {
        assert!(peer.with_node(|n| n.tables().level0_degree() >= 1));
    }
    let any_promoted = std::iter::once(&seed)
        .chain(peers.iter())
        .any(|n| n.with_node(|node| node.max_level() > 0 || node.tables().parent().is_some()));
    assert!(
        any_promoted,
        "after a second of real time some hierarchy structure must exist"
    );

    // Lookups across the real network resolve.
    peers[3].lookup(NodeId(900_000_000), RoutingAlgorithm::Greedy);
    peers[3].lookup(NodeId(100_000_000), RoutingAlgorithm::NonGreedy);
    std::thread::sleep(Duration::from_millis(1_200));
    let outcomes = peers[3].drain_lookup_outcomes();
    assert_eq!(outcomes.len(), 2);
    let successes = outcomes.iter().filter(|o| o.status.is_success()).count();
    assert!(
        successes >= 1,
        "at least one UDP lookup must resolve: {outcomes:?}"
    );

    for p in peers {
        p.shutdown();
    }
    seed.shutdown();
}

/// The receive loop is the only code between the open socket and the state
/// machine: whatever arrives, it must drop what does not decode and keep
/// serving what does.
#[test]
fn receive_loop_survives_hostile_datagrams() {
    let config = fast_config();
    let bind = |id, characteristics, bootstrap| {
        UdpNode::bind(
            "127.0.0.1:0",
            config,
            NodeId(id),
            characteristics,
            bootstrap,
        )
        .expect("bind")
    };
    let victim = bind(1_000_000_000, NodeCharacteristics::strong(), vec![]);
    let client = bind(
        3_000_000_000,
        NodeCharacteristics::default(),
        vec![victim.peer_info()],
    );
    std::thread::sleep(Duration::from_millis(600));

    let batch_of = |frames: u32, rest: &[u8]| [&[255u8][..], &frames.to_le_bytes(), rest].concat();
    let valid = encode_message(&TreePMessage::JoinRequest {
        joiner: client.peer_info(),
    });
    let mut hostile = vec![
        Vec::new(),
        // An envelope claiming u32::MAX frames and holding none.
        batch_of(u32::MAX, &[]),
        // An envelope whose only frame claims 1000 bytes and holds three.
        batch_of(1, &[&1000u32.to_le_bytes()[..], &[1, 2, 3]].concat()),
        // A frame that decodes, followed by garbage.
        [&valid[..], &[0xAB; 64]].concat(),
        // A frame under a retired tag (31 was `Subscribe`).
        [&[31u8][..], &[0; 8], &valid[1..], &[0; 12]].concat(),
    ];
    let mut state = 0x5eed_2005u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..64 {
        let len = 1 + next() as usize % 512;
        hostile.push((0..len).map(|_| next() as u8).collect());
    }

    let attacker = UdpSocket::bind("127.0.0.1:0").expect("bind attacker");
    let sent_before = victim.transport_stats();
    let received_before = victim.with_node(|n| n.stats().received.total());
    for datagram in &hostile {
        attacker
            .send_to(datagram, victim.local_addr())
            .expect("send hostile datagram");
    }
    std::thread::sleep(Duration::from_millis(300));

    client.lookup(victim.id(), RoutingAlgorithm::Greedy);
    std::thread::sleep(Duration::from_millis(600));
    let outcomes = client.drain_lookup_outcomes();
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].status.is_success(), "{:?}", outcomes[0]);
    assert!(
        victim.with_node(|n| n.stats().received.total()) > received_before,
        "the victim's receive loop stopped taking messages"
    );
    let sent_after = victim.transport_stats();
    assert!(sent_after.datagrams_sent > sent_before.datagrams_sent);
    assert!(sent_after.messages_sent > sent_before.messages_sent);

    client.shutdown();
    victim.shutdown();
}

/// Call `f` every 20 ms until it yields, for at most five seconds.
fn poll<T>(mut f: impl FnMut() -> Option<T>) -> Option<T> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(found) = f() {
            return Some(found);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// `UdpNode::invoke` gives the socket host every operation the simulator
/// has: a versioned write and read, an aggregation, and a request whose
/// deadline fires on the wall clock.
#[test]
fn invoke_runs_versioned_ops_aggregates_and_deadlines_over_udp() {
    let config = fast_config();
    let bind = |id, characteristics, bootstrap| {
        UdpNode::bind(
            "127.0.0.1:0",
            config,
            NodeId(id),
            characteristics,
            bootstrap,
        )
        .expect("bind")
    };
    let seed = bind(2_000_000_000, NodeCharacteristics::strong(), vec![]);
    let writer = bind(
        500_000_000,
        NodeCharacteristics::default(),
        vec![seed.peer_info()],
    );
    let reader = bind(
        3_500_000_000,
        NodeCharacteristics::default(),
        vec![seed.peer_info()],
    );
    poll(|| {
        seed.with_node(|n| n.tables().level0_degree() == 2)
            .then_some(())
    })
    .expect("the seed never learned both joiners");

    let put = writer.invoke(|n, ctx| n.dht_put_versioned(b"job/42", b"running".to_vec(), ctx));
    let written = poll(|| {
        writer
            .invoke(|n, _| n.drain_read_outcomes())
            .into_iter()
            .find_map(|o| match o {
                ReadOutcome::PutAcked {
                    request_id, stamp, ..
                } if request_id == put => Some(stamp),
                _ => None,
            })
    })
    .expect("the versioned put was never acknowledged");

    let get = reader.invoke(|n, ctx| n.dht_get_versioned(b"job/42", ctx));
    let read = poll(|| {
        reader
            .invoke(|n, _| n.drain_read_outcomes())
            .into_iter()
            .find_map(|o| match o {
                ReadOutcome::Got {
                    request_id, value, ..
                } if request_id == get => Some(value),
                _ => None,
            })
    })
    .expect("the versioned get was never answered")
    .expect("the value written is not there");
    assert_eq!((read.stamp, &read.value[..]), (written, &b"running"[..]));

    let everyone = KeyRange::full(config.space);
    let census = seed.invoke(|n, ctx| n.start_aggregate(everyone, AggregateQuery::CountNodes, ctx));
    let counted = poll(|| {
        seed.invoke(|n, _| n.drain_aggregate_outcomes())
            .into_iter()
            .find(|o| o.request_id() == census)
    })
    .expect("the aggregation never resolved");
    let count = counted.partial().and_then(|p| p.as_count());
    assert!(matches!(count, Some(1..=3)), "{counted:?}");

    // A get toward a peer that is gone: nobody answers, so only the request
    // deadline can end it — on this host, a wall-clock timer. The lone
    // node's one contact sits on the key's coordinate, its socket closed.
    let key = b"gone/1";
    let gone = bind(
        hash_key(config.space, key).0,
        NodeCharacteristics::default(),
        vec![],
    );
    let contact = gone.peer_info();
    gone.shutdown();
    let lonely = bind(1_000_000_000, NodeCharacteristics::default(), vec![contact]);
    let opened = Instant::now();
    let get = lonely.invoke(|n, ctx| n.dht_get(key, ctx));
    poll(|| {
        lonely
            .invoke(|n, _| n.drain_dht_outcomes())
            .into_iter()
            .find(|o| matches!(o, DhtOutcome::TimedOut { request_id, .. } if *request_id == get))
    })
    .expect("the deadline never fired");
    assert!(opened.elapsed() >= Duration::from_micros(config.lookup_timeout.as_micros()));
    for node in [&seed, &writer, &reader, &lonely] {
        assert_eq!(node.with_node(|n| n.pending_request_count()), 0);
    }

    lonely.shutdown();
    reader.shutdown();
    writer.shutdown();
    seed.shutdown();
}

/// A node keeps one wall-clock deadline timer for all its open requests:
/// each request that times out re-arms it for the next, and a request
/// opened after the last one ended arms it afresh.
#[test]
fn consecutive_deadlines_fire_on_the_wall_clock() {
    // Deadlines short beside the default keep-alive round, so the node does
    // not suspect its one contact before the last get is sent.
    let config = TreePConfig {
        lookup_timeout: simnet::SimDuration::from_millis(200),
        ..TreePConfig::default()
    };
    let timeout = Duration::from_micros(config.lookup_timeout.as_micros());
    // Gets toward a peer that is gone, as above: only deadlines end them.
    let key = b"gone/2";
    let gone = UdpNode::bind(
        "127.0.0.1:0",
        config,
        hash_key(config.space, key),
        NodeCharacteristics::default(),
        vec![],
    )
    .expect("bind");
    let contact = gone.peer_info();
    gone.shutdown();
    let lonely = UdpNode::bind(
        "127.0.0.1:0",
        config,
        NodeId(1_000_000_000),
        NodeCharacteristics::default(),
        vec![contact],
    )
    .expect("bind");
    // Every outcome drained so far: one poll may drain two timeouts.
    let drained = std::cell::RefCell::new(Vec::new());
    let timed_out = |get| {
        poll(|| {
            let mut drained = drained.borrow_mut();
            drained.extend(lonely.invoke(|n, _| n.drain_dht_outcomes()));
            drained
                .iter()
                .any(|o| matches!(o, DhtOutcome::TimedOut { request_id, .. } if *request_id == get))
                .then_some(())
        })
        .is_some()
    };

    // The second get opens while the first is open: its deadline is the
    // re-armed timer's.
    let first_opened = Instant::now();
    let first = lonely.invoke(|n, ctx| n.dht_get(key, ctx));
    std::thread::sleep(timeout / 4);
    let second_opened = Instant::now();
    let second = lonely.invoke(|n, ctx| n.dht_get(key, ctx));
    assert!(timed_out(first), "the first deadline never fired");
    assert!(first_opened.elapsed() >= timeout);
    assert!(timed_out(second), "the re-armed deadline never fired");
    assert!(second_opened.elapsed() >= timeout);
    assert_eq!(lonely.with_node(|n| n.pending_request_count()), 0);

    // Nothing is open now: the next get arms the timer again.
    let third_opened = Instant::now();
    let third = lonely.invoke(|n, ctx| n.dht_get(key, ctx));
    assert!(
        timed_out(third),
        "a deadline after the last one never fired"
    );
    assert!(third_opened.elapsed() >= timeout);
    lonely.shutdown();
}
