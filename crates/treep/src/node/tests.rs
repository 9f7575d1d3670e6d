//! Unit tests for the node's protocol layers, driven through the public
//! [`Protocol`] surface (messages and timers) against hand-seeded tables.

use super::*;
use crate::config::ChildPolicy;
use crate::id::hash_key;
use crate::lookup::{LookupRequest, LookupStatus};
use crate::messages::{MessageKind, RoutingUpdate};
use crate::multicast::{AggregatePartial, AggregateQuery, MulticastPayload, MulticastPhase};
use crate::routing::RoutingAlgorithm;

fn peer(id: u64, level: u32) -> PeerInfo {
    PeerInfo {
        id: NodeId(id),
        addr: NodeAddr(id),
        max_level: level,
        summary: CharacteristicsSummary::of(&NodeCharacteristics::default(), ChildPolicy::Fixed(4)),
    }
}

fn started_node(id: u64) -> (TreePNode, simnet::SimRng) {
    let node = TreePNode::new(
        TreePConfig::default(),
        NodeId(id),
        NodeCharacteristics::default(),
    )
    .with_addr(NodeAddr(id));
    (node, simnet::SimRng::seed_from(1))
}

/// A self-span child report, as a leaf with no children would send.
fn leaf_report(id: u64) -> TreePMessage {
    TreePMessage::ChildReport {
        child: peer(id, 0),
        span: KeyRange::new(NodeId(id), NodeId(id)),
    }
}

#[test]
fn timer_token_round_trip() {
    for kind in 0..5u64 {
        for payload in [0u64, 1, 7, 12345] {
            let t = encode_timer(kind, payload);
            assert_eq!(decode_timer(t), (kind, payload));
        }
    }
}

#[test]
fn peer_info_reflects_state() {
    let (mut node, _) = started_node(42);
    node.seed_max_level(3);
    let info = node.peer_info();
    assert_eq!(info.id, NodeId(42));
    assert_eq!(info.addr, NodeAddr(42));
    assert_eq!(info.max_level, 3);
}

#[test]
fn seeding_populates_tables() {
    let (mut node, _) = started_node(10);
    node.seed_level0_neighbor(peer(1, 0), SimTime::ZERO);
    node.seed_level0_neighbor(peer(2, 0), SimTime::ZERO);
    node.seed_parent(peer(3, 1), SimTime::ZERO);
    node.seed_child(peer(4, 0), true, SimTime::ZERO);
    node.seed_superior(peer(5, 2), SimTime::ZERO);
    node.seed_level_neighbor(1, peer(6, 1), SimTime::ZERO);
    assert_eq!(node.tables().level0_degree(), 2);
    assert_eq!(node.tables().parent().unwrap().id, NodeId(3));
    assert_eq!(node.tables().own_children_count(), 1);
    assert!(node.tables().has_superiors());
    assert!(node.tables().find(NodeId(6)).is_some());
    node.tables().validate_invariants().unwrap();
}

#[test]
fn start_lookup_resolves_locally_when_target_known() {
    let (mut node, mut rng) = started_node(10);
    node.seed_level0_neighbor(peer(99, 0), SimTime::ZERO);
    let mut ctx = Context::new(SimTime::ZERO, NodeAddr(10), &mut rng);
    node.start_lookup(NodeId(99), RoutingAlgorithm::Greedy, &mut ctx);
    let outcomes = node.drain_lookup_outcomes();
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].status, LookupStatus::Found);
    assert_eq!(outcomes[0].hops, 0);
}

#[test]
fn start_lookup_forwards_toward_target() {
    let (mut node, mut rng) = started_node(10);
    // A neighbour much closer to the target.
    node.seed_level0_neighbor(peer(4_000_000_000, 0), SimTime::ZERO);
    let mut ctx = Context::new(SimTime::ZERO, NodeAddr(10), &mut rng);
    node.start_lookup(NodeId(4_000_000_100), RoutingAlgorithm::Greedy, &mut ctx);
    let actions = ctx.into_actions();
    // One timer (timeout) + one forwarded lookup.
    let sends: Vec<_> = actions
        .iter()
        .filter_map(|a| match a {
            simnet::Action::Send { dest, msg } => Some((*dest, msg.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(sends.len(), 1);
    assert_eq!(sends[0].0, NodeAddr(4_000_000_000));
    assert!(matches!(sends[0].1, TreePMessage::Lookup(_)));
    assert_eq!(node.pending_request_count(), 1);
}

#[test]
fn lookup_with_empty_tables_fails_immediately() {
    let (mut node, mut rng) = started_node(10);
    let mut ctx = Context::new(SimTime::ZERO, NodeAddr(10), &mut rng);
    node.start_lookup(NodeId(12345), RoutingAlgorithm::NonGreedy, &mut ctx);
    let outcomes = node.drain_lookup_outcomes();
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].status, LookupStatus::NotFound);
}

#[test]
fn lookup_timeout_records_outcome() {
    let (mut node, mut rng) = started_node(10);
    node.seed_level0_neighbor(peer(4_000_000_000, 0), SimTime::ZERO);
    let mut ctx = Context::new(SimTime::ZERO, NodeAddr(10), &mut rng);
    let req_id = node.start_lookup(NodeId(4_000_000_100), RoutingAlgorithm::Greedy, &mut ctx);
    drop(ctx);
    assert_eq!(node.pending_request_count(), 1);
    let mut ctx2 = Context::new(SimTime::from_secs(20), NodeAddr(10), &mut rng);
    node.on_timer(encode_timer(TIMER_REQUEST, req_id.0), &mut ctx2);
    let outcomes = node.drain_lookup_outcomes();
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].status, LookupStatus::TimedOut);
}

#[test]
fn lookup_found_reply_completes_pending() {
    let (mut node, mut rng) = started_node(10);
    node.seed_level0_neighbor(peer(4_000_000_000, 0), SimTime::ZERO);
    let mut ctx = Context::new(SimTime::ZERO, NodeAddr(10), &mut rng);
    let req_id = node.start_lookup(NodeId(4_000_000_100), RoutingAlgorithm::Greedy, &mut ctx);
    drop(ctx);
    let mut ctx2 = Context::new(SimTime::from_millis(50), NodeAddr(10), &mut rng);
    node.on_message(
        NodeAddr(77),
        TreePMessage::LookupFound {
            request_id: req_id,
            target: NodeId(4_000_000_100),
            result: peer(4_000_000_100, 0),
            hops: 4,
            algorithm: RoutingAlgorithm::Greedy,
        },
        &mut ctx2,
    );
    let outcomes = node.drain_lookup_outcomes();
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].status, LookupStatus::Found);
    assert_eq!(outcomes[0].hops, 4);
    // A late timeout for the same request is ignored.
    let mut ctx3 = Context::new(SimTime::from_secs(20), NodeAddr(10), &mut rng);
    node.on_timer(encode_timer(TIMER_REQUEST, req_id.0), &mut ctx3);
    assert!(node.drain_lookup_outcomes().is_empty());
}

#[test]
fn forwarded_lookup_answers_when_target_is_self() {
    let (mut node, mut rng) = started_node(500);
    let mut ctx = Context::new(SimTime::ZERO, NodeAddr(500), &mut rng);
    let mut req = LookupRequest::new(
        RequestId(9),
        peer(1, 0),
        NodeId(500),
        RoutingAlgorithm::Greedy,
    );
    req.advance(NodeAddr(1));
    node.on_message(NodeAddr(1), TreePMessage::Lookup(req), &mut ctx);
    let actions = ctx.into_actions();
    let found = actions.iter().any(|a| {
        matches!(a, simnet::Action::Send { dest, msg: TreePMessage::LookupFound { hops: 1, .. } } if *dest == NodeAddr(1))
    });
    assert!(found, "node must answer the origin with LookupFound");
}

#[test]
fn maintenance_and_lookups_never_allocate_the_feature_state() {
    let (mut node, mut rng) = started_node(10);
    node.seed_max_level(1);
    node.seed_level0_neighbor(peer(3, 0), SimTime::ZERO);
    node.seed_level0_neighbor(peer(4_000_000_000, 0), SimTime::ZERO);
    node.seed_child(peer(12, 0), true, SimTime::ZERO);
    let mut ctx = Context::new(SimTime::from_millis(5), NodeAddr(10), &mut rng);
    node.on_timer(encode_timer(TIMER_KEEPALIVE, 0), &mut ctx);
    let keep_alive = TreePMessage::KeepAlive {
        sender: peer(3, 0),
        updates: vec![RoutingUpdate::Contact { peer: peer(7, 0) }],
    };
    node.on_message(NodeAddr(3), keep_alive, &mut ctx);
    node.on_message(NodeAddr(12), leaf_report(12), &mut ctx);
    node.start_lookup(NodeId(4_000_000_100), RoutingAlgorithm::Greedy, &mut ctx);
    let mut req = LookupRequest::new(
        RequestId(9),
        peer(3, 0),
        NodeId(10),
        RoutingAlgorithm::Greedy,
    );
    req.advance(NodeAddr(3));
    node.on_message(NodeAddr(3), TreePMessage::Lookup(req), &mut ctx);
    assert!(node.features.is_none(), "overlay work allocated the box");
    assert_eq!(node.dht_store().len(), 0);
    assert!(node.drain_dht_outcomes().is_empty());

    node.start_multicast(KeyRange::full(node.config.space), vec![1], &mut ctx);
    assert!(node.features.is_some(), "a multicast is feature work");
    assert_eq!(node.multicast_deliveries().len(), 1);
}

#[test]
fn keep_alive_learns_sender_and_updates() {
    let (mut node, mut rng) = started_node(10);
    let mut ctx = Context::new(SimTime::from_millis(5), NodeAddr(10), &mut rng);
    let updates = vec![
        RoutingUpdate::ParentOf { peer: peer(100, 1) },
        RoutingUpdate::Contact { peer: peer(7, 0) },
    ];
    node.on_message(
        NodeAddr(3),
        TreePMessage::KeepAlive {
            sender: peer(3, 0),
            updates,
        },
        &mut ctx,
    );
    assert!(node.tables().is_level0_neighbor(NodeId(3)));
    assert!(node.tables().is_level0_neighbor(NodeId(7)));
    assert!(node.tables().find(NodeId(100)).is_some());
    // The sender was unknown until now, so this node has never pinged it:
    // the ack is the only thing the sender will hear back on this edge.
    assert_eq!(keep_alive_acks(&ctx.into_actions()), vec![NodeAddr(3)]);
}

#[test]
fn keep_alives_send_the_own_summary_and_relay_unknown_ones() {
    // The registry keeps no resource summary: a node sends its own as the
    // keep-alive's sender and with its level membership, and every peer it
    // relays goes out with the placeholder.
    let config = TreePConfig::default();
    let characteristics = NodeCharacteristics::strong();
    let own = CharacteristicsSummary::of(&characteristics, config.child_policy);
    assert_ne!(own, CharacteristicsSummary::UNKNOWN);
    let mut node =
        TreePNode::new(config, NodeId(10_000), characteristics).with_addr(NodeAddr(10_000));
    node.seed_max_level(1);
    let heard = SimTime::from_millis(400);
    node.seed_parent(peer(50_000, 2), heard);
    node.seed_child(peer(20_000, 0), true, heard);
    node.seed_superior(peer(60_000, 3), heard);
    for neighbour in [9_000, 11_000] {
        node.seed_level0_neighbor(peer(neighbour, 0), heard);
    }
    let mut rng = simnet::SimRng::seed_from(1);
    let mut ctx = Context::new(SimTime::from_millis(500), NodeAddr(10_000), &mut rng);
    node.on_timer(encode_timer(TIMER_KEEPALIVE, 0), &mut ctx);
    let (mut keep_alives, mut relayed) = (0, 0);
    for action in ctx.into_actions() {
        let simnet::Action::Send {
            msg: TreePMessage::KeepAlive { sender, updates },
            ..
        } = action
        else {
            continue;
        };
        keep_alives += 1;
        assert_eq!(sender.summary, own);
        for peer in updates.iter().map(RoutingUpdate::peer) {
            if peer.id == node.id() {
                assert_eq!(peer.summary, own);
            } else {
                assert_eq!(peer.summary, CharacteristicsSummary::UNKNOWN, "{peer:?}");
                relayed += 1;
            }
        }
    }
    assert!(
        keep_alives > 0 && relayed > 0,
        "{keep_alives} keep-alives relayed {relayed} peers"
    );
}

/// The superiors advertised by the keep-alives and acks among `actions`.
fn superiors_advertised(actions: &[simnet::Action<TreePMessage>]) -> Vec<NodeId> {
    actions
        .iter()
        .filter_map(|a| match a {
            simnet::Action::Send {
                msg:
                    TreePMessage::KeepAlive { updates, .. } | TreePMessage::KeepAliveAck { updates, .. },
                ..
            } => Some(updates),
            _ => None,
        })
        .flatten()
        .filter_map(|u| match u {
            RoutingUpdate::Superior { peer } => Some(peer.id),
            _ => None,
        })
        .collect()
}

/// `node` hears of superior 900 from a peer it has never heard from, at
/// `now`; returns what it sends in answer.
fn learn_superior_second_hand(
    node: &mut TreePNode,
    now: SimTime,
    rng: &mut simnet::SimRng,
) -> Vec<simnet::Action<TreePMessage>> {
    let mut ctx = Context::new(now, NodeAddr(10), rng);
    let keep_alive = TreePMessage::KeepAlive {
        sender: peer(3, 0),
        updates: vec![RoutingUpdate::Superior { peer: peer(900, 2) }],
    };
    node.on_message(NodeAddr(3), keep_alive, &mut ctx);
    assert!(
        node.tables().find(NodeId(900)).is_some(),
        "the superior is learned"
    );
    ctx.into_actions()
}

#[test]
fn the_ack_of_the_keep_alive_that_taught_a_superior_does_not_echo_it() {
    let (mut node, mut rng) = started_node(10);
    // Long after the first gossip penalty: the entry is stamped exactly
    // on the horizon, and the ack is built in the same instant.
    let actions = learn_superior_second_hand(&mut node, SimTime::from_secs(5), &mut rng);
    assert_eq!(keep_alive_acks(&actions), vec![NodeAddr(3)]);
    assert_eq!(superiors_advertised(&actions), vec![]);
}

#[test]
fn a_superior_learned_second_hand_in_the_first_second_is_not_advertised() {
    let (mut node, mut rng) = started_node(10);
    let now = SimTime::from_millis(200);
    let actions = learn_superior_second_hand(&mut node, now, &mut rng);
    assert_eq!(superiors_advertised(&actions), vec![]);
    // The horizon is still time zero at the next tick: the stamp it gave
    // the gossip must not pass for a direct contact there either.
    let interval = TreePConfig::default().keepalive_interval;
    let mut ctx = Context::new(now + interval, NodeAddr(10), &mut rng);
    node.on_timer(encode_timer(TIMER_KEEPALIVE, 0), &mut ctx);
    let actions = ctx.into_actions();
    assert!(actions.iter().any(|a| matches!(
        a,
        simnet::Action::Send {
            msg: TreePMessage::KeepAlive { .. },
            ..
        }
    )));
    assert_eq!(superiors_advertised(&actions), vec![]);
}

/// The destinations of the `KeepAliveAck`s among `actions`.
fn keep_alive_acks(actions: &[simnet::Action<TreePMessage>]) -> Vec<NodeAddr> {
    actions
        .iter()
        .filter_map(|a| match a {
            simnet::Action::Send {
                dest,
                msg: TreePMessage::KeepAliveAck { .. },
            } => Some(*dest),
            _ => None,
        })
        .collect()
}

#[test]
fn keep_alive_from_a_level0_neighbour_is_learned_but_not_acked() {
    let (mut node, mut rng) = started_node(10);
    node.seed_level0_neighbor(peer(3, 0), SimTime::ZERO);
    let now = SimTime::from_millis(5);
    let mut ctx = Context::new(now, NodeAddr(10), &mut rng);
    let updates = vec![
        RoutingUpdate::ParentOf { peer: peer(100, 1) },
        RoutingUpdate::Contact { peer: peer(7, 0) },
    ];
    node.on_message(
        NodeAddr(3),
        TreePMessage::KeepAlive {
            sender: peer(3, 2),
            updates,
        },
        &mut ctx,
    );
    // Everything but the ack happens as for any keep-alive: the sender is
    // refreshed, the gossip applied, the advertised parent adopted.
    let sender = node.tables().find(NodeId(3)).unwrap();
    assert_eq!((sender.last_seen, sender.max_level), (now, 2));
    assert!(node.tables().is_level0_neighbor(NodeId(7)));
    assert_eq!(node.tables().parent().unwrap().id, NodeId(100));
    let actions = ctx.into_actions();
    assert!(actions.iter().any(|a| matches!(
        a,
        simnet::Action::Send { dest, msg: TreePMessage::ParentAccept { .. } } if *dest == NodeAddr(100)
    )));
    // We ping this neighbour at every tick of our own: no ack.
    assert_eq!(keep_alive_acks(&actions), vec![]);
}

#[test]
fn keep_alive_from_a_direct_bus_neighbour_is_not_acked() {
    // A level-2 node between two direct bus neighbours, with one more bus
    // member further out. None of them is a level-0 neighbour.
    let (mut node, mut rng) = started_node(10_000);
    node.seed_max_level(2);
    node.seed_level_neighbor(2, peer(3_000, 2), SimTime::ZERO);
    node.seed_level_neighbor(2, peer(5_000, 2), SimTime::ZERO);
    node.seed_level_neighbor(2, peer(15_000, 2), SimTime::ZERO);
    for (sender, acked) in [(5_000, false), (15_000, false), (3_000, true)] {
        let mut ctx = Context::new(SimTime::from_millis(5), NodeAddr(10_000), &mut rng);
        node.on_message(
            NodeAddr(sender),
            TreePMessage::KeepAlive {
                sender: peer(sender, 2),
                updates: vec![],
            },
            &mut ctx,
        );
        // Step 5 of the tick pings the direct neighbours only; the member
        // beyond them hears from us through this ack or not at all.
        let expected = if acked {
            vec![NodeAddr(sender)]
        } else {
            vec![]
        };
        assert_eq!(keep_alive_acks(&ctx.into_actions()), expected, "{sender}");
    }
}

#[test]
fn a_contact_is_filed_against_the_ring_as_the_keep_alive_left_it() {
    // Four ring neighbours at 100–400 from the node; the sender lies far
    // outside them. The first contact tightens the ring, and the fourth
    // nearest is now 300 away: the second, at 350, no longer does.
    let (mut node, mut rng) = started_node(10_000);
    for id in [9_900, 10_200, 9_700, 10_400] {
        node.seed_level0_neighbor(peer(id, 0), SimTime::ZERO);
    }
    let mut ctx = Context::new(SimTime::from_millis(5), NodeAddr(10_000), &mut rng);
    node.on_message(
        NodeAddr(50_000),
        TreePMessage::KeepAlive {
            sender: peer(50_000, 0),
            updates: vec![
                RoutingUpdate::Contact {
                    peer: peer(10_050, 0),
                },
                RoutingUpdate::Contact {
                    peer: peer(10_350, 0),
                },
            ],
        },
        &mut ctx,
    );
    assert!(node.tables().is_level0_neighbor(NodeId(10_050)));
    assert!(node.tables().find(NodeId(10_350)).is_none());
}

#[test]
fn keep_alive_from_the_parent_or_an_own_child_is_not_acked() {
    // Neither is a level-0 or bus neighbour here: what keeps the link alive
    // is the child report one way and its acknowledgement the other.
    let (mut node, mut rng) = started_node(10_000);
    node.seed_max_level(1);
    node.seed_parent(peer(50_000, 2), SimTime::ZERO);
    node.seed_child(peer(20_000, 0), true, SimTime::ZERO);
    for (sender, level, acked) in [(50_000, 2, false), (20_000, 0, false), (70_000, 0, true)] {
        let mut ctx = Context::new(SimTime::from_millis(5), NodeAddr(10_000), &mut rng);
        node.on_message(
            NodeAddr(sender),
            TreePMessage::KeepAlive {
                sender: peer(sender, level),
                updates: vec![],
            },
            &mut ctx,
        );
        let expected = if acked {
            vec![NodeAddr(sender)]
        } else {
            vec![]
        };
        assert_eq!(keep_alive_acks(&ctx.into_actions()), expected, "{sender}");
    }
}

#[test]
fn one_tick_pings_each_peer_once_and_neither_parent_nor_own_children() {
    // A level-2 node. Its parent and both own children are level-0
    // neighbours as well; peer 9 000 is a level-0 neighbour and the direct
    // left bus neighbour at levels 1 and 2; 11 000 is a plain neighbour.
    let (mut node, mut rng) = started_node(10_000);
    node.seed_max_level(2);
    node.seed_parent(peer(50_000, 3), SimTime::ZERO);
    for child in [20_000, 30_000] {
        node.seed_child(peer(child, 1), true, SimTime::ZERO);
    }
    for (neighbour, level) in [
        (9_000, 2),
        (11_000, 0),
        (20_000, 1),
        (30_000, 1),
        (50_000, 3),
    ] {
        node.seed_level0_neighbor(peer(neighbour, level), SimTime::ZERO);
    }
    node.seed_level_neighbor(1, peer(9_000, 2), SimTime::ZERO);
    node.seed_level_neighbor(2, peer(9_000, 2), SimTime::ZERO);
    let mut ctx = Context::new(SimTime::from_millis(500), NodeAddr(10_000), &mut rng);
    node.on_timer(encode_timer(TIMER_KEEPALIVE, 0), &mut ctx);
    let actions = ctx.into_actions();
    let sent_to = |wanted: MessageKind| {
        let mut dests: Vec<NodeAddr> = actions
            .iter()
            .filter_map(|a| match a {
                simnet::Action::Send { dest, msg } if msg.kind() == wanted => Some(*dest),
                _ => None,
            })
            .collect();
        dests.sort();
        dests
    };
    assert_eq!(
        sent_to(MessageKind::KeepAlive),
        vec![NodeAddr(9_000), NodeAddr(11_000)]
    );
    assert_eq!(sent_to(MessageKind::ChildReport), vec![NodeAddr(50_000)]);
}

#[test]
fn asymmetric_edge_stays_fresh_through_acks() {
    // A (1000) keeps B (2000) as its nearest peer; B holds eight peers
    // nearer than A, so every tick of B prunes A again and B never pings
    // it. The ack is the only message A ever gets from B.
    let (mut a, mut rng) = started_node(1_000);
    let (mut b, _) = started_node(2_000);
    a.seed_level0_neighbor(peer(2_000, 0), SimTime::ZERO);
    let interval = TreePConfig::default().keepalive_interval;
    // The keep-alive traffic (pings and acks) among `actions` bound for `to`;
    // election calls and the like are none of this test's business.
    let sends_to = |actions: Vec<simnet::Action<TreePMessage>>, to: u64| {
        actions
            .into_iter()
            .filter_map(move |a| match a {
                simnet::Action::Send {
                    dest,
                    msg: msg @ (TreePMessage::KeepAlive { .. } | TreePMessage::KeepAliveAck { .. }),
                } if dest == NodeAddr(to) => Some(msg),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    let mut now = SimTime::ZERO;
    for round in 0..10 {
        now += interval;
        // The eight nearer peers stay alive (this harness stands in for them).
        for near in 2_001..=2_008 {
            b.seed_level0_neighbor(peer(near, 0), now);
        }
        let mut ctx = Context::new(now, NodeAddr(2_000), &mut rng);
        b.on_timer(encode_timer(TIMER_KEEPALIVE, 0), &mut ctx);
        assert!(!b.tables().is_level0_neighbor(NodeId(1_000)));
        assert!(
            sends_to(ctx.into_actions(), 1_000).is_empty(),
            "round {round}: B never pings the peer it pruned"
        );

        let mut ctx = Context::new(now, NodeAddr(1_000), &mut rng);
        a.on_timer(encode_timer(TIMER_KEEPALIVE, 0), &mut ctx);
        let pings = sends_to(ctx.into_actions(), 2_000);
        assert_eq!(pings.len(), 1, "round {round}: A pings B");
        let mut ctx = Context::new(now, NodeAddr(2_000), &mut rng);
        for ping in pings {
            b.on_message(NodeAddr(1_000), ping, &mut ctx);
        }
        let acks = sends_to(ctx.into_actions(), 1_000);
        assert!(
            matches!(acks[..], [TreePMessage::KeepAliveAck { .. }]),
            "round {round}: B acks the peer it does not ping, got {acks:?}"
        );
        let mut ctx = Context::new(now, NodeAddr(1_000), &mut rng);
        for ack in acks {
            a.on_message(NodeAddr(2_000), ack, &mut ctx);
        }
    }
    // Ten intervals are two entry lifetimes: without the acks B would have
    // expired at A long ago.
    assert!(a.tables().is_level0_neighbor(NodeId(2_000)));
    assert_eq!(a.tables().find(NodeId(2_000)).unwrap().last_seen, now);
}

#[test]
fn demoted_parent_is_dropped_at_the_next_tick() {
    // A level-5 node whose level-6 parent has demoted to level 0. The
    // ex-parent keeps sending keep-alives, which refresh the entry the
    // `PARENT` role lives on, so expiry alone would never end the link.
    let (mut node, mut rng) = started_node(10);
    node.seed_max_level(5);
    node.seed_parent(peer(50, 6), SimTime::ZERO);
    node.seed_level0_neighbor(peer(1, 0), SimTime::ZERO);
    node.seed_level0_neighbor(peer(2, 0), SimTime::ZERO);
    let mut ctx = Context::new(SimTime::from_millis(5), NodeAddr(10), &mut rng);
    node.on_message(
        NodeAddr(50),
        TreePMessage::KeepAlive {
            sender: peer(50, 0),
            updates: vec![],
        },
        &mut ctx,
    );
    drop(ctx);
    assert_eq!(node.tables().parent().unwrap().max_level, 0);
    let mut ctx = Context::new(SimTime::from_millis(500), NodeAddr(10), &mut rng);
    node.on_timer(encode_timer(TIMER_KEEPALIVE, 0), &mut ctx);
    assert!(node.tables().parent().is_none());
    assert!(node.tables().is_level0_neighbor(NodeId(50)));
    // Parentless below the top with two connections: it calls an election.
    assert_eq!(node.election.election().unwrap().level, 6);
    assert!(ctx.into_actions().iter().any(|a| matches!(
        a,
        simnet::Action::Send {
            msg: TreePMessage::ElectionCall { level: 6, .. },
            ..
        }
    )));
    node.tables().validate_invariants().unwrap();
}

#[test]
fn keep_alive_with_an_absurd_level_is_absorbed() {
    // A malformed (or hostile) keep-alive claims levels no hierarchy has.
    // No bus beyond the node's own levels is ever opened for it, no bit
    // shifts out of range and no level arithmetic overflows.
    for own_level in [0, 2] {
        let (mut node, mut rng) = started_node(10);
        node.seed_max_level(own_level);
        node.seed_child(peer(3, 0), true, SimTime::ZERO);
        let mut ctx = Context::new(SimTime::from_millis(5), NodeAddr(10), &mut rng);
        let updates = vec![
            RoutingUpdate::LevelMember {
                level: u32::MAX,
                peer: peer(50, u32::MAX),
            },
            RoutingUpdate::LevelMember {
                level: 64,
                peer: peer(51, 64),
            },
        ];
        node.on_message(
            NodeAddr(3),
            TreePMessage::KeepAlive {
                sender: peer(3, u32::MAX),
                updates,
            },
            &mut ctx,
        );
        let tables = node.tables();
        tables.validate_invariants().unwrap();
        assert!(tables.is_level0_neighbor(NodeId(3)));
        assert_eq!(tables.find(NodeId(3)).unwrap().max_level, u32::MAX);
        // Members of levels above our own are superiors, whatever the level.
        let superiors: Vec<u64> = tables.superiors().map(|e| e.id.0).collect();
        assert_eq!(superiors, vec![50, 51]);
        assert_eq!(tables.level_members(u32::MAX).count(), 0);
        assert_eq!(tables.level_members(64).count(), 0);
        assert!(tables.known_levels().next().is_none());
        // The own child now claims level u32::MAX: the fan-out window and
        // the subtree extent saturate instead of overflowing.
        let config = TreePConfig::default();
        let everything = KeyRange::new(NodeId(0), config.space.max_id());
        let fanout = tables.multicast_fanout(config.space, config.height, everything, 0);
        assert_eq!(fanout.len(), 1);
        assert_eq!(node.subtree_span(), everything);
    }
}

#[test]
fn keep_alive_ack_does_not_reply() {
    let (mut node, mut rng) = started_node(10);
    let mut ctx = Context::new(SimTime::from_millis(5), NodeAddr(10), &mut rng);
    node.on_message(
        NodeAddr(3),
        TreePMessage::KeepAliveAck {
            sender: peer(3, 0),
            updates: vec![],
        },
        &mut ctx,
    );
    let actions = ctx.into_actions();
    assert!(actions
        .iter()
        .all(|a| !matches!(a, simnet::Action::Send { .. })));
}

#[test]
fn parentless_node_adopts_advertised_parent() {
    let (mut node, mut rng) = started_node(10);
    assert!(node.tables().parent().is_none());
    let mut ctx = Context::new(SimTime::from_millis(5), NodeAddr(10), &mut rng);
    let updates = vec![RoutingUpdate::ParentOf { peer: peer(100, 1) }];
    node.on_message(
        NodeAddr(3),
        TreePMessage::KeepAlive {
            sender: peer(3, 0),
            updates,
        },
        &mut ctx,
    );
    assert_eq!(node.tables().parent().unwrap().id, NodeId(100));
    let actions = ctx.into_actions();
    assert!(actions.iter().any(|a| matches!(
        a,
        simnet::Action::Send { dest, msg: TreePMessage::ParentAccept { .. } } if *dest == NodeAddr(100)
    )));
}

#[test]
fn child_report_registers_child_and_acks() {
    let (mut node, mut rng) = started_node(10);
    node.seed_max_level(1);
    let mut ctx = Context::new(SimTime::from_millis(5), NodeAddr(10), &mut rng);
    node.on_message(NodeAddr(4), leaf_report(4), &mut ctx);
    assert!(node.tables().is_own_child(NodeId(4)));
    let actions = ctx.into_actions();
    assert!(actions.iter().any(|a| matches!(
        a,
        simnet::Action::Send { dest, msg: TreePMessage::ChildReportAck { .. } } if *dest == NodeAddr(4)
    )));
}

#[test]
fn child_report_records_exact_subtree_span() {
    let (mut node, mut rng) = started_node(10);
    node.seed_max_level(2);
    let mut ctx = Context::new(SimTime::from_millis(5), NodeAddr(10), &mut rng);
    node.on_message(
        NodeAddr(4),
        TreePMessage::ChildReport {
            child: peer(4, 1),
            span: KeyRange::new(NodeId(2), NodeId(9)),
        },
        &mut ctx,
    );
    assert_eq!(
        node.tables().child_span(NodeId(4)),
        Some(KeyRange::new(NodeId(2), NodeId(9))),
        "accepted own child's span is recorded"
    );
    node.tables().validate_invariants().unwrap();
}

#[test]
fn maintenance_child_report_carries_subtree_span() {
    let (mut node, mut rng) = started_node(1_000);
    node.seed_max_level(1);
    node.seed_parent(peer(5_000, 2), SimTime::ZERO);
    node.seed_child(peer(800, 0), true, SimTime::ZERO);
    node.seed_child(peer(1_200, 0), true, SimTime::ZERO);
    let mut ctx = Context::new(SimTime::from_millis(500), NodeAddr(1_000), &mut rng);
    node.on_timer(encode_timer(TIMER_KEEPALIVE, 0), &mut ctx);
    let actions = ctx.into_actions();
    let span = actions
        .iter()
        .find_map(|a| match a {
            simnet::Action::Send {
                dest,
                msg: TreePMessage::ChildReport { span, .. },
            } if *dest == NodeAddr(5_000) => Some(*span),
            _ => None,
        })
        .expect("a parented node reports to its parent");
    // Level-0 children contribute their exact coordinates.
    assert_eq!(span, KeyRange::new(NodeId(800), NodeId(1_200)));
}

#[test]
fn child_report_to_level0_node_is_not_acked() {
    let (mut node, mut rng) = started_node(10);
    let mut ctx = Context::new(SimTime::from_millis(5), NodeAddr(10), &mut rng);
    node.on_message(NodeAddr(4), leaf_report(4), &mut ctx);
    assert_eq!(node.tables().own_children_count(), 0);
    let actions = ctx.into_actions();
    assert!(actions
        .iter()
        .all(|a| !matches!(a, simnet::Action::Send { .. })));
}

#[test]
fn capacity_limits_own_children() {
    let cfg = TreePConfig {
        child_policy: ChildPolicy::Fixed(2),
        ..TreePConfig::default()
    };
    let mut node =
        TreePNode::new(cfg, NodeId(10), NodeCharacteristics::default()).with_addr(NodeAddr(10));
    node.seed_max_level(1);
    let mut rng = simnet::SimRng::seed_from(1);
    for child in [1u64, 2, 3] {
        let mut ctx = Context::new(SimTime::from_millis(5), NodeAddr(10), &mut rng);
        node.on_message(NodeAddr(child), leaf_report(child), &mut ctx);
    }
    assert_eq!(
        node.tables().own_children_count(),
        2,
        "third child exceeds capacity"
    );
    // But it is still known as a neighbour child.
    assert!(node.tables().find(NodeId(3)).is_some());
}

#[test]
fn parent_announce_is_adopted_by_orphans() {
    let (mut node, mut rng) = started_node(10);
    let mut ctx = Context::new(SimTime::from_millis(5), NodeAddr(10), &mut rng);
    node.on_message(
        NodeAddr(9),
        TreePMessage::ParentAnnounce {
            level: 1,
            parent: peer(9, 1),
        },
        &mut ctx,
    );
    assert_eq!(node.tables().parent().unwrap().id, NodeId(9));
    // A second announcement at a non-adjacent level goes to the superiors.
    let mut ctx2 = Context::new(SimTime::from_millis(6), NodeAddr(10), &mut rng);
    node.on_message(
        NodeAddr(20),
        TreePMessage::ParentAnnounce {
            level: 3,
            parent: peer(20, 3),
        },
        &mut ctx2,
    );
    assert_eq!(node.tables().parent().unwrap().id, NodeId(9));
    assert!(node.tables().superiors().any(|s| s.id == NodeId(20)));
}

#[test]
fn demotion_message_removes_peer_from_hierarchy_tables() {
    let (mut node, mut rng) = started_node(10);
    node.seed_parent(peer(50, 1), SimTime::ZERO);
    let mut ctx = Context::new(SimTime::from_millis(5), NodeAddr(10), &mut rng);
    node.on_message(
        NodeAddr(50),
        TreePMessage::Demotion {
            node: peer(50, 1),
            from_level: 1,
        },
        &mut ctx,
    );
    assert!(node.tables().parent().is_none());
    // Still known as a level-0 contact.
    assert!(node.tables().is_level0_neighbor(NodeId(50)));
}

#[test]
fn election_call_starts_countdown_for_eligible_nodes() {
    let (mut node, mut rng) = started_node(10);
    node.seed_level0_neighbor(peer(1, 0), SimTime::ZERO);
    node.seed_level0_neighbor(peer(2, 0), SimTime::ZERO);
    let mut ctx = Context::new(SimTime::from_millis(5), NodeAddr(10), &mut rng);
    node.on_message(
        NodeAddr(1),
        TreePMessage::ElectionCall {
            level: 1,
            caller: peer(1, 0),
        },
        &mut ctx,
    );
    assert!(node.election.election().is_some());
    assert_eq!(node.stats().elections_joined, 1);
    // A node that already has a parent does not participate.
    let (mut node2, mut rng2) = started_node(11);
    node2.seed_parent(peer(50, 1), SimTime::ZERO);
    let mut ctx2 = Context::new(SimTime::from_millis(5), NodeAddr(11), &mut rng2);
    node2.on_message(
        NodeAddr(1),
        TreePMessage::ElectionCall {
            level: 1,
            caller: peer(1, 0),
        },
        &mut ctx2,
    );
    assert!(node2.election.election().is_none());
}

#[test]
fn winning_an_election_promotes_and_announces() {
    let (mut node, mut rng) = started_node(10);
    node.seed_level0_neighbor(peer(1, 0), SimTime::ZERO);
    node.seed_level0_neighbor(peer(2, 0), SimTime::ZERO);
    let mut ctx = Context::new(SimTime::from_millis(5), NodeAddr(10), &mut rng);
    node.on_message(
        NodeAddr(1),
        TreePMessage::ElectionCall {
            level: 1,
            caller: peer(1, 0),
        },
        &mut ctx,
    );
    drop(ctx);
    let round = node.election.election().unwrap().round;
    let mut ctx2 = Context::new(SimTime::from_millis(500), NodeAddr(10), &mut rng);
    node.on_timer(encode_timer(TIMER_ELECTION, round), &mut ctx2);
    assert_eq!(node.max_level(), 1);
    assert_eq!(node.stats().promotions, 1);
    let actions = ctx2.into_actions();
    let announces = actions
        .iter()
        .filter(|a| {
            matches!(
                a,
                simnet::Action::Send {
                    msg: TreePMessage::ParentAnnounce { .. },
                    ..
                }
            )
        })
        .count();
    assert_eq!(announces, 2, "announce to both level-0 neighbours");
}

#[test]
fn stale_election_timer_is_ignored() {
    let (mut node, mut rng) = started_node(10);
    node.seed_level0_neighbor(peer(1, 0), SimTime::ZERO);
    node.seed_level0_neighbor(peer(2, 0), SimTime::ZERO);
    let mut ctx = Context::new(SimTime::from_millis(5), NodeAddr(10), &mut rng);
    node.on_message(
        NodeAddr(1),
        TreePMessage::ElectionCall {
            level: 1,
            caller: peer(1, 0),
        },
        &mut ctx,
    );
    drop(ctx);
    let round = node.election.election().unwrap().round;
    // Someone else wins first.
    let mut ctx2 = Context::new(SimTime::from_millis(100), NodeAddr(10), &mut rng);
    node.on_message(
        NodeAddr(2),
        TreePMessage::ParentAnnounce {
            level: 1,
            parent: peer(2, 1),
        },
        &mut ctx2,
    );
    drop(ctx2);
    let mut ctx3 = Context::new(SimTime::from_millis(500), NodeAddr(10), &mut rng);
    node.on_timer(encode_timer(TIMER_ELECTION, round), &mut ctx3);
    assert_eq!(node.max_level(), 0, "losing node must not promote itself");
}

#[test]
fn demotion_timer_demotes_underpopulated_parent() {
    let (mut node, mut rng) = started_node(10);
    node.seed_max_level(2);
    node.seed_child(peer(1, 0), true, SimTime::ZERO);
    node.seed_parent(peer(90, 3), SimTime::ZERO);
    let now = SimTime::from_millis(5);
    let (_, round) = node.election.start_demotion(
        &NodeCharacteristics::default(),
        SimDuration::from_millis(800),
        now,
    );
    let mut ctx = Context::new(SimTime::from_secs(5), NodeAddr(10), &mut rng);
    node.on_timer(encode_timer(TIMER_DEMOTION, round), &mut ctx);
    assert_eq!(node.max_level(), 0);
    assert_eq!(node.stats().demotions, 1);
    assert!(node.tables().parent().is_none());
    let actions = ctx.into_actions();
    assert!(actions.iter().any(|a| matches!(
        a,
        simnet::Action::Send {
            msg: TreePMessage::Demotion { .. },
            ..
        }
    )));
    node.tables().validate_invariants().unwrap();
}

#[test]
fn demotion_timer_cancelled_by_recovered_children() {
    let (mut node, mut rng) = started_node(10);
    node.seed_max_level(1);
    node.seed_child(peer(1, 0), true, SimTime::ZERO);
    node.seed_child(peer(2, 0), true, SimTime::ZERO);
    let (_, round) = node.election.start_demotion(
        &NodeCharacteristics::default(),
        SimDuration::from_millis(800),
        SimTime::ZERO,
    );
    let mut ctx = Context::new(SimTime::from_secs(5), NodeAddr(10), &mut rng);
    node.on_timer(encode_timer(TIMER_DEMOTION, round), &mut ctx);
    assert_eq!(node.max_level(), 1, "two children keep the parent in place");
    assert_eq!(node.stats().demotions, 0);
}

#[test]
fn maintenance_tick_sends_keepalives_and_child_report() {
    let (mut node, mut rng) = started_node(10);
    node.seed_level0_neighbor(peer(1, 0), SimTime::ZERO);
    node.seed_level0_neighbor(peer(2, 0), SimTime::ZERO);
    node.seed_parent(peer(50, 1), SimTime::ZERO);
    let mut ctx = Context::new(SimTime::from_millis(500), NodeAddr(10), &mut rng);
    node.on_timer(encode_timer(TIMER_KEEPALIVE, 0), &mut ctx);
    let actions = ctx.into_actions();
    let keepalives = actions
        .iter()
        .filter(|a| {
            matches!(
                a,
                simnet::Action::Send {
                    msg: TreePMessage::KeepAlive { .. },
                    ..
                }
            )
        })
        .count();
    let reports = actions
        .iter()
        .filter(|a| {
            matches!(
                a,
                simnet::Action::Send {
                    msg: TreePMessage::ChildReport { .. },
                    ..
                }
            )
        })
        .count();
    let timers = actions
        .iter()
        .filter(|a| matches!(a, simnet::Action::SetTimer { .. }))
        .count();
    assert_eq!(keepalives, 2);
    assert_eq!(reports, 1);
    assert!(timers >= 1, "the periodic tick must be re-armed");
    assert_eq!(node.stats().keepalive_rounds, 1);
}

#[test]
fn maintenance_tick_expires_stale_entries_and_triggers_election() {
    let (mut node, mut rng) = started_node(10);
    // Neighbours last seen at t=0; parent also stale.
    node.seed_level0_neighbor(peer(1, 0), SimTime::ZERO);
    node.seed_level0_neighbor(peer(2, 0), SimTime::from_secs(100));
    node.seed_level0_neighbor(peer(3, 0), SimTime::from_secs(100));
    node.seed_parent(peer(50, 1), SimTime::ZERO);
    let now = SimTime::from_secs(100);
    let mut ctx = Context::new(now, NodeAddr(10), &mut rng);
    node.on_timer(encode_timer(TIMER_KEEPALIVE, 0), &mut ctx);
    // Stale entries (1 and the parent) are gone, fresh ones remain.
    assert!(!node.tables().is_level0_neighbor(NodeId(1)));
    assert!(node.tables().is_level0_neighbor(NodeId(2)));
    assert!(node.tables().parent().is_none());
    assert!(node.stats().entries_expired >= 2);
    // Having lost the parent with degree >= 2, an election is triggered.
    assert!(node.election.election().is_some());
    let actions = ctx.into_actions();
    assert!(actions.iter().any(|a| matches!(
        a,
        simnet::Action::Send {
            msg: TreePMessage::ElectionCall { .. },
            ..
        }
    )));
}

#[test]
fn dht_put_and_get_resolve_locally_on_isolated_node() {
    let (mut node, mut rng) = started_node(10);
    let mut ctx = Context::new(SimTime::ZERO, NodeAddr(10), &mut rng);
    node.dht_put(b"service/web", b"10.0.0.1:80".to_vec(), &mut ctx);
    node.dht_get(b"service/web", &mut ctx);
    let outcomes = node.drain_dht_outcomes();
    assert_eq!(outcomes.len(), 2);
    assert!(outcomes.iter().all(|o| o.is_success()));
    match &outcomes[1] {
        DhtOutcome::GetAnswered { value, .. } => {
            assert_eq!(value.as_deref(), Some(b"10.0.0.1:80".as_slice()));
        }
        other => panic!("expected GetAnswered, got {other:?}"),
    }
    assert_eq!(node.dht_store().len(), 1);
}

#[test]
fn dht_request_is_forwarded_to_closer_peer() {
    let (mut node, mut rng) = started_node(10);
    let key_coord = hash_key(TreePConfig::default().space, b"k");
    // A peer whose id is exactly the key coordinate is certainly closer.
    let closer = PeerInfo {
        id: key_coord,
        addr: NodeAddr(777),
        max_level: 0,
        summary: CharacteristicsSummary::of(&NodeCharacteristics::default(), ChildPolicy::Fixed(4)),
    };
    node.seed_level0_neighbor(closer, SimTime::ZERO);
    let mut ctx = Context::new(SimTime::ZERO, NodeAddr(10), &mut rng);
    node.dht_put(b"k", b"v".to_vec(), &mut ctx);
    let actions = ctx.into_actions();
    assert!(actions.iter().any(|a| matches!(
        a,
        simnet::Action::Send { dest, msg: TreePMessage::DhtPut { .. } } if *dest == NodeAddr(777)
    )));
    assert_eq!(node.dht_store().len(), 0, "value is not stored locally");
}

#[test]
fn on_start_joins_through_bootstrap() {
    let node = TreePNode::new(
        TreePConfig::default(),
        NodeId(5),
        NodeCharacteristics::default(),
    )
    .with_bootstrap(vec![peer(1, 0), peer(2, 0)]);
    let mut node = node;
    let mut rng = simnet::SimRng::seed_from(3);
    let mut ctx = Context::new(SimTime::ZERO, NodeAddr(5), &mut rng);
    node.on_start(&mut ctx);
    assert_eq!(node.addr(), Some(NodeAddr(5)));
    let actions = ctx.into_actions();
    let joins = actions
        .iter()
        .filter(|a| {
            matches!(
                a,
                simnet::Action::Send {
                    msg: TreePMessage::JoinRequest { .. },
                    ..
                }
            )
        })
        .count();
    assert_eq!(joins, 2);
}

#[test]
fn multicast_on_isolated_node_delivers_locally_when_in_range() {
    let (mut node, mut rng) = started_node(100);
    let mut ctx = Context::new(SimTime::ZERO, NodeAddr(100), &mut rng);
    node.start_multicast(
        KeyRange::new(NodeId(50), NodeId(150)),
        b"hi".to_vec(),
        &mut ctx,
    );
    let deliveries = node.drain_multicast_deliveries();
    assert_eq!(deliveries.len(), 1);
    assert_eq!(deliveries[0].payload, b"hi".to_vec());
    assert_eq!(deliveries[0].hops, 0);

    // Out-of-range multicast delivers nothing.
    let mut ctx2 = Context::new(SimTime::ZERO, NodeAddr(100), &mut rng);
    node.start_multicast(
        KeyRange::new(NodeId(500), NodeId(600)),
        b"no".to_vec(),
        &mut ctx2,
    );
    assert!(node.drain_multicast_deliveries().is_empty());
    assert_eq!(node.stats().multicasts_initiated, 2);
}

#[test]
fn exhausted_budget_still_delivers_locally() {
    // The hop budget limits forwarding, never receipt: a node receiving
    // a descending multicast with budget 0 delivers the payload but
    // forwards nothing — and a fold cut short there is not a complete one.
    let origin = peer(7, 0);
    let arrives_spent = |payload| {
        let (mut node, mut rng) = started_node(1000);
        node.seed_max_level(1);
        node.seed_child(peer(500, 0), true, SimTime::ZERO);
        let mut ctx = Context::new(SimTime::ZERO, NodeAddr(1000), &mut rng);
        node.on_message(
            NodeAddr(7),
            TreePMessage::MulticastDown {
                origin,
                request_id: RequestId(1),
                range: KeyRange::new(NodeId(0), NodeId(2000)),
                payload,
                budget: 0,
                hops: 9,
                phase: MulticastPhase::Down,
                bus_level: 3,
            },
            &mut ctx,
        );
        assert_eq!(node.stats().multicast_budget_dropped, 1);
        (node.drain_multicast_deliveries().len(), sends(ctx))
    };
    let (delivered, sent) = arrives_spent(MulticastPayload::Data(b"last-hop".to_vec()));
    assert_eq!(delivered, 1);
    assert!(sent.is_empty(), "no forwarding on an exhausted budget");

    let count = AggregateQuery::CountNodes;
    let (_, sent) = arrives_spent(MulticastPayload::Aggregate(count));
    let partial_count = TreePMessage::AggregateUp {
        origin,
        request_id: RequestId(1),
        query: count,
        partial: AggregatePartial::Count(1),
        truncated: true,
        final_answer: false,
    };
    assert_eq!(
        sent,
        vec![(NodeAddr(7), partial_count)],
        "the subtree below the cut was not counted"
    );
}

#[test]
fn aggregate_on_isolated_node_completes_immediately() {
    let (mut node, mut rng) = started_node(100);
    let mut ctx = Context::new(SimTime::ZERO, NodeAddr(100), &mut rng);
    node.start_aggregate(
        KeyRange::new(NodeId(0), NodeId(200)),
        AggregateQuery::CountNodes,
        &mut ctx,
    );
    let outcomes = node.drain_aggregate_outcomes();
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].is_success());
    assert_eq!(outcomes[0].partial().unwrap().as_count(), Some(1));

    // A range that excludes the node itself counts zero but still
    // completes.
    let mut ctx2 = Context::new(SimTime::ZERO, NodeAddr(100), &mut rng);
    node.start_aggregate(
        KeyRange::new(NodeId(500), NodeId(600)),
        AggregateQuery::CountNodes,
        &mut ctx2,
    );
    let outcomes = node.drain_aggregate_outcomes();
    assert_eq!(outcomes[0].partial().unwrap().as_count(), Some(0));
}

#[test]
fn multicast_with_parent_climbs_first() {
    let (mut node, mut rng) = started_node(100);
    node.seed_parent(peer(900, 1), SimTime::ZERO);
    let mut ctx = Context::new(SimTime::ZERO, NodeAddr(100), &mut rng);
    node.start_multicast(
        KeyRange::new(NodeId(0), NodeId(5000)),
        b"up".to_vec(),
        &mut ctx,
    );
    let actions = ctx.into_actions();
    let ups: Vec<_> = actions
        .iter()
        .filter_map(|a| match a {
            simnet::Action::Send {
                dest,
                msg:
                    TreePMessage::MulticastDown {
                        phase: MulticastPhase::Up,
                        hops,
                        ..
                    },
            } => Some((*dest, *hops)),
            _ => None,
        })
        .collect();
    assert_eq!(ups, vec![(NodeAddr(900), 1)]);
    // Nothing delivered locally during the ascent.
    assert!(node.drain_multicast_deliveries().is_empty());
}

#[test]
fn ascent_around_a_parent_cycle_is_absorbed() {
    // Three nodes whose parent links form a cycle (0 -> 1 -> 2 -> 0), so an
    // ascent finds no root. With acks on and a lossy link every lost ack
    // re-sends a copy; unless a node refuses to forward a second climbing
    // copy of the same multicast, each of them circles for the whole hop
    // budget and spawns more on the way. The event cap turns that storm
    // into a failure instead of a hang.
    use simnet::{LinkModel, LossModel, SimConfig, Simulation};
    let sim_config = SimConfig {
        link: LinkModel {
            loss: LossModel::Bernoulli { p: 0.10 },
            ..LinkModel::default()
        },
        max_events: 50_000,
    };
    let mut sim: Simulation<TreePNode> = Simulation::new(sim_config, 7);
    let config = TreePConfig::default().with_reliability(3);
    for id in 0..3 {
        let mut node = TreePNode::new(config, NodeId(id), NodeCharacteristics::default());
        node.seed_parent(peer((id + 1) % 3, 1), SimTime::ZERO);
        assert_eq!(sim.add_node(node), NodeAddr(id));
    }
    // Start the three nodes, then multicast before any of them ticks.
    for _ in 0..3 {
        sim.step();
    }
    let everything = KeyRange::full(config.space);
    sim.invoke(NodeAddr(0), |node, ctx| {
        node.start_multicast(everything, b"around".to_vec(), ctx)
    });
    sim.run_for(SimDuration::from_secs(20));

    let nodes: Vec<&TreePNode> = (0..3).map(|a| sim.node(NodeAddr(a)).unwrap()).collect();
    let sent: u64 = nodes
        .iter()
        .map(|n| n.stats().sent.get(MessageKind::MulticastDown))
        .sum();
    // One hop per node, plus at most three retransmissions of each.
    assert!(sent <= 3 * 4, "{sent} MulticastDown for one multicast");
    let suppressed: u64 = nodes
        .iter()
        .map(|n| n.stats().multicast_duplicates_suppressed)
        .sum();
    assert!(suppressed >= 1, "the copy that came back around is dropped");
    for node in nodes {
        assert_eq!(node.pending_retransmit_count(), 0);
        assert!(node.multicast_deliveries().len() <= 1);
    }
}

#[test]
fn descent_root_fans_out_to_children_in_range_only() {
    let (mut node, mut rng) = started_node(1000);
    node.seed_max_level(1);
    node.seed_child(peer(500, 0), true, SimTime::ZERO);
    node.seed_child(peer(1500, 0), true, SimTime::ZERO);
    node.seed_child(peer(4_000_000_000, 0), true, SimTime::ZERO);
    let mut ctx = Context::new(SimTime::ZERO, NodeAddr(1000), &mut rng);
    node.start_multicast(
        KeyRange::new(NodeId(0), NodeId(2000)),
        b"m".to_vec(),
        &mut ctx,
    );
    let actions = ctx.into_actions();
    let downs: Vec<NodeAddr> = actions
        .iter()
        .filter_map(|a| match a {
            simnet::Action::Send {
                dest,
                msg:
                    TreePMessage::MulticastDown {
                        phase: MulticastPhase::Down,
                        ..
                    },
            } => Some(*dest),
            _ => None,
        })
        .collect();
    assert_eq!(
        downs,
        vec![NodeAddr(500), NodeAddr(1500)],
        "out-of-range child pruned"
    );
    // The root itself is in range: delivered locally, exactly once.
    assert_eq!(node.drain_multicast_deliveries().len(), 1);
}

#[test]
fn aggregate_convergecast_folds_children_partials() {
    let (mut node, mut rng) = started_node(1000);
    node.seed_max_level(1);
    node.seed_child(peer(500, 0), true, SimTime::ZERO);
    node.seed_child(peer(1500, 0), true, SimTime::ZERO);
    let range = KeyRange::new(NodeId(0), NodeId(2000));
    let mut ctx = Context::new(SimTime::ZERO, NodeAddr(1000), &mut rng);
    let req = node.start_aggregate(range, AggregateQuery::CountNodes, &mut ctx);
    drop(ctx);
    // Two branches outstanding: no outcome yet.
    assert!(node.drain_aggregate_outcomes().is_empty());
    let me = node.peer_info();
    for child in [500u64, 1500] {
        let mut cctx = Context::new(SimTime::from_millis(5), NodeAddr(1000), &mut rng);
        node.on_message(
            NodeAddr(child),
            TreePMessage::AggregateUp {
                origin: me,
                request_id: req,
                query: AggregateQuery::CountNodes,
                partial: AggregatePartial::Count(1),
                truncated: false,
                final_answer: false,
            },
            &mut cctx,
        );
    }
    let outcomes = node.drain_aggregate_outcomes();
    assert_eq!(outcomes.len(), 1);
    // Own contribution (1) + the two children (1 each).
    assert_eq!(outcomes[0].partial().unwrap().as_count(), Some(3));
    assert!(outcomes[0].is_complete(), "no branch was lost");
    assert_eq!(node.pending_request_count(), 0);
}

#[test]
fn aggregate_relay_timer_folds_up_partial_results() {
    let (mut node, mut rng) = started_node(1000);
    node.seed_max_level(1);
    node.seed_child(peer(500, 0), true, SimTime::ZERO);
    node.seed_child(peer(1500, 0), true, SimTime::ZERO);
    let range = KeyRange::new(NodeId(0), NodeId(2000));
    let mut ctx = Context::new(SimTime::ZERO, NodeAddr(1000), &mut rng);
    let req = node.start_aggregate(range, AggregateQuery::CountNodes, &mut ctx);
    drop(ctx);
    let me = node.peer_info();
    // Only one child answers; the other branch is lost.
    let mut cctx = Context::new(SimTime::from_millis(5), NodeAddr(1000), &mut rng);
    node.on_message(
        NodeAddr(500),
        TreePMessage::AggregateUp {
            origin: me,
            request_id: req,
            query: AggregateQuery::CountNodes,
            partial: AggregatePartial::Count(1),
            truncated: false,
            final_answer: false,
        },
        &mut cctx,
    );
    drop(cctx);
    assert!(node.drain_aggregate_outcomes().is_empty());
    // The relay hold timer fires: the fold completes with what arrived.
    let mut tctx = Context::new(SimTime::from_secs(1), NodeAddr(1000), &mut rng);
    node.on_timer(encode_timer(TIMER_AGG_RELAY, 0), &mut tctx);
    let outcomes = node.drain_aggregate_outcomes();
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].partial().unwrap().as_count(), Some(2));
    assert!(
        !outcomes[0].is_complete(),
        "a fold missing a branch must be marked truncated"
    );
}

#[test]
fn aggregate_origin_timeout_records_failure() {
    let (mut node, mut rng) = started_node(100);
    node.seed_parent(peer(900, 1), SimTime::ZERO);
    let mut ctx = Context::new(SimTime::ZERO, NodeAddr(100), &mut rng);
    let req = node.start_aggregate(
        KeyRange::new(NodeId(0), NodeId(5000)),
        AggregateQuery::CountNodes,
        &mut ctx,
    );
    drop(ctx);
    assert_eq!(node.pending_request_count(), 1);
    let mut tctx = Context::new(SimTime::from_secs(20), NodeAddr(100), &mut rng);
    node.on_timer(encode_timer(TIMER_REQUEST, req.0), &mut tctx);
    let outcomes = node.drain_aggregate_outcomes();
    assert_eq!(outcomes.len(), 1);
    assert!(!outcomes[0].is_success());
}

#[test]
fn bus_walk_continues_in_one_direction() {
    // A level-2 node in the middle of its bus, visited by a rightward
    // walk: it must continue right only and fan out its children.
    let (mut node, mut rng) = started_node(10_000);
    node.seed_max_level(2);
    node.seed_level_neighbor(2, peer(5_000, 2), SimTime::ZERO);
    node.seed_level_neighbor(2, peer(15_000, 2), SimTime::ZERO);
    node.seed_child(peer(9_000, 1), true, SimTime::ZERO);
    let range = KeyRange::new(NodeId(0), NodeId(4_000_000_000));
    let mut ctx = Context::new(SimTime::ZERO, NodeAddr(10_000), &mut rng);
    node.on_message(
        NodeAddr(5_000),
        TreePMessage::MulticastDown {
            origin: peer(1, 0),
            request_id: RequestId(3),
            range,
            payload: MulticastPayload::Data(b"walk".to_vec()),
            budget: 16,
            hops: 3,
            phase: MulticastPhase::BusRight,
            bus_level: 2,
        },
        &mut ctx,
    );
    let actions = ctx.into_actions();
    let sends: Vec<(NodeAddr, MulticastPhase)> = actions
        .iter()
        .filter_map(|a| match a {
            simnet::Action::Send {
                dest,
                msg: TreePMessage::MulticastDown { phase, .. },
            } => Some((*dest, *phase)),
            _ => None,
        })
        .collect();
    assert!(
        sends.contains(&(NodeAddr(15_000), MulticastPhase::BusRight)),
        "{sends:?}"
    );
    assert!(
        sends.contains(&(NodeAddr(9_000), MulticastPhase::Down)),
        "{sends:?}"
    );
    assert!(
        !sends.iter().any(|(d, _)| *d == NodeAddr(5_000)),
        "the walk never goes back where it came from: {sends:?}"
    );
    assert_eq!(node.drain_multicast_deliveries().len(), 1);
}

#[test]
fn ascent_hop_resets_the_bus_level_and_spends_one_hop() {
    let (mut node, mut rng) = started_node(100);
    node.seed_parent(peer(900, 1), SimTime::ZERO);
    let climbing = |budget, hops, bus_level| TreePMessage::MulticastDown {
        origin: peer(7, 0),
        request_id: RequestId(4),
        range: KeyRange::new(NodeId(0), NodeId(5000)),
        payload: MulticastPayload::Data(b"up".to_vec()),
        budget,
        hops,
        phase: MulticastPhase::Up,
        bus_level,
    };
    let mut ctx = Context::new(SimTime::ZERO, NodeAddr(100), &mut rng);
    node.on_message(NodeAddr(7), climbing(16, 2, 5), &mut ctx);
    assert_eq!(sends(ctx), vec![(NodeAddr(900), climbing(15, 3, 0))]);
    assert!(node.drain_multicast_deliveries().is_empty());
}

#[test]
fn an_ack_ends_the_pending_hop_of_its_own_kind_only() {
    // A descent root reached by its own child's ascent delegates the descent
    // to that child and later sends it the final fold (the child is the
    // origin): two unacknowledged hops with one (peer, origin, request).
    let mut node = TreePNode::new(
        TreePConfig::default().with_reliability(2),
        NodeId(1000),
        NodeCharacteristics::default(),
    )
    .with_addr(NodeAddr(1000));
    let mut rng = simnet::SimRng::seed_from(1);
    node.seed_max_level(1);
    node.seed_child(peer(500, 0), true, SimTime::ZERO);
    let (origin, request_id) = (peer(500, 0), RequestId(9));
    let deliver = |node: &mut TreePNode, rng: &mut simnet::SimRng, msg| {
        let mut ctx = Context::new(SimTime::ZERO, NodeAddr(1000), rng);
        node.on_message(origin.addr, msg, &mut ctx);
        sends(ctx)
    };
    let sent = deliver(
        &mut node,
        &mut rng,
        TreePMessage::MulticastDown {
            origin,
            request_id,
            range: KeyRange::new(NodeId(0), NodeId(2000)),
            payload: MulticastPayload::Aggregate(AggregateQuery::CountNodes),
            budget: 16,
            hops: 1,
            phase: MulticastPhase::Up,
            bus_level: 0,
        },
    );
    assert_eq!(sent[1].1.kind(), MessageKind::MulticastDown, "{sent:?}");
    let sent = deliver(
        &mut node,
        &mut rng,
        TreePMessage::AggregateUp {
            origin,
            request_id,
            query: AggregateQuery::CountNodes,
            partial: AggregatePartial::Count(1),
            truncated: false,
            final_answer: false,
        },
    );
    assert_eq!(sent[1].1.kind(), MessageKind::AggregateUp, "{sent:?}");
    assert_eq!(node.pending_retransmit_count(), 2);

    let origin = origin.addr;
    for _ in 0..2 {
        deliver(
            &mut node,
            &mut rng,
            TreePMessage::AggregateAck { origin, request_id },
        );
        assert_eq!(node.pending_retransmit_count(), 1);
    }
    // What is left is the delegated descent (queued first, so timer 0): its
    // timer retransmits it, the acknowledged fold's timer finds nothing.
    let fire = |node: &mut TreePNode, rng: &mut simnet::SimRng, retx_id| {
        let mut ctx = Context::new(SimTime::from_millis(120), NodeAddr(1000), rng);
        node.on_timer(encode_timer(TIMER_RETX, retx_id), &mut ctx);
        sends(ctx)
    };
    assert!(fire(&mut node, &mut rng, 1).is_empty());
    let again = fire(&mut node, &mut rng, 0);
    assert_eq!(again.len(), 1);
    assert_eq!(again[0].1.kind(), MessageKind::MulticastDown);
    assert_eq!(node.stats().multicast_retransmits, 1);
    for _ in 0..2 {
        deliver(
            &mut node,
            &mut rng,
            TreePMessage::MulticastAck { origin, request_id },
        );
        assert_eq!(node.pending_retransmit_count(), 0);
    }
}

#[test]
fn join_handshake_establishes_mutual_contact() {
    let (mut responder, mut rng) = started_node(100);
    responder.seed_max_level(1);
    // Heard from directly a moment before the join: a contact the
    // responder may suggest (one stamped at time zero it may not — that is
    // where the gossip horizon sits during a run's first second).
    responder.seed_level0_neighbor(peer(7, 0), SimTime::from_millis(10));
    let mut ctx = Context::new(SimTime::from_millis(20), NodeAddr(100), &mut rng);
    // The responder covers the whole space at level 1? Only if close; use
    // a joiner near the responder's id.
    let joiner = peer(101, 0);
    responder.on_message(
        NodeAddr(101),
        TreePMessage::JoinRequest { joiner },
        &mut ctx,
    );
    assert!(responder.tables().is_level0_neighbor(NodeId(101)));
    let actions = ctx.into_actions();
    let ack = actions.iter().find_map(|a| match a {
        simnet::Action::Send {
            dest,
            msg: TreePMessage::JoinAck {
                contacts, parent, ..
            },
        } => Some((*dest, contacts.clone(), *parent)),
        _ => None,
    });
    let (dest, contacts, parent) = ack.expect("JoinAck must be sent");
    assert_eq!(dest, NodeAddr(101));
    assert!(contacts.iter().any(|c| c.id == NodeId(7)));
    assert!(
        parent.is_some(),
        "covering parent with capacity offers itself"
    );
    assert!(responder.tables().is_own_child(NodeId(101)));
}

#[test]
fn put_versioned_pass_through_refreshes_hop_cache() {
    use crate::readpath::{ReadSource, StampedValue};
    use crate::VersionStamp;

    let config = TreePConfig::default().with_read_path(8);
    let mut node =
        TreePNode::new(config, NodeId(10), NodeCharacteristics::default()).with_addr(NodeAddr(10));
    let mut rng = simnet::SimRng::seed_from(1);
    // A neighbour much closer to the key, so this node is a forwarding hop.
    node.seed_level0_neighbor(peer(4_000_000_000, 0), SimTime::ZERO);
    let key = NodeId(4_000_000_100);
    let v1 = VersionStamp {
        version: 1,
        origin: NodeId(9),
    };
    let v2 = VersionStamp {
        version: 2,
        origin: NodeId(9),
    };

    // A reply relaying through this hop fills its cache line with v1.
    let mut ctx = Context::new(SimTime::from_millis(1), NodeAddr(10), &mut rng);
    node.on_message(
        NodeAddr(4_000_000_000),
        TreePMessage::GetVersionedReply {
            request_id: RequestId(77),
            origin: NodeAddr(9),
            key,
            value: Some(StampedValue {
                stamp: v1,
                value: b"v1".to_vec(),
            }),
            source: ReadSource::Responsible,
            hops: 2,
            responder: peer(4_000_000_000, 0),
            path: vec![],
        },
        &mut ctx,
    );
    assert_eq!(node.stats().cache_fills, 1);

    // A v2 put passes through; the hop must forward it AND refresh the line.
    let mut ctx = Context::new(SimTime::from_millis(2), NodeAddr(10), &mut rng);
    node.on_message(
        NodeAddr(9),
        TreePMessage::PutVersioned {
            request_id: RequestId(78),
            origin: peer(9, 0),
            key,
            stamp: v2,
            value: b"v2".to_vec(),
            ttl: 0,
        },
        &mut ctx,
    );
    let forwarded = ctx.into_actions().into_iter().any(|a| {
        matches!(
            a,
            simnet::Action::Send {
                dest: NodeAddr(4_000_000_000),
                msg: TreePMessage::PutVersioned { .. },
            }
        )
    });
    assert!(forwarded, "the hop still forwards toward the key");

    // A get through the same hop right after the bump is served from the
    // cache at v2 — without write-through it would serve the stale v1.
    let mut ctx = Context::new(SimTime::from_millis(3), NodeAddr(10), &mut rng);
    node.on_message(
        NodeAddr(9),
        TreePMessage::GetVersioned {
            request_id: RequestId(79),
            origin: peer(9, 0),
            key,
            ttl: 0,
            min_stamp: None,
            path: vec![],
        },
        &mut ctx,
    );
    let served = ctx
        .into_actions()
        .into_iter()
        .find_map(|a| match a {
            simnet::Action::Send {
                dest: NodeAddr(9),
                msg:
                    TreePMessage::GetVersionedReply {
                        value: Some(sv),
                        source,
                        ..
                    },
            } => Some((sv, source)),
            _ => None,
        })
        .expect("the hop serves the read from its cache");
    assert_eq!(served.1, ReadSource::Cache);
    assert_eq!(served.0.stamp, v2);
    assert_eq!(served.0.value, b"v2".to_vec());
}

// ---- replication: the pairwise digest exchange -------------------------------

/// Replicating nodes (k = 3) at `ids`, each knowing every other as a
/// level-0 neighbour; a node's address is its identifier.
fn replicas(ids: &[u64]) -> Vec<TreePNode> {
    let config = TreePConfig {
        replication_factor: 3,
        ..TreePConfig::default()
    };
    ids.iter()
        .map(|&id| {
            let mut node = TreePNode::new(config, NodeId(id), NodeCharacteristics::default())
                .with_addr(NodeAddr(id));
            for &other in ids.iter().filter(|&&other| other != id) {
                node.seed_level0_neighbor(peer(other, 0), SimTime::ZERO);
            }
            node
        })
        .collect()
}

fn replica(nodes: &mut [TreePNode], id: u64) -> &mut TreePNode {
    nodes.iter_mut().find(|n| n.id == NodeId(id)).unwrap()
}

/// Run `first` on node `at`, then deliver every message it and its
/// receivers send — replies to replies included — until none is left,
/// except those `lose` picks. Returns what was delivered, in order.
fn exchange(
    nodes: &mut [TreePNode],
    at: u64,
    first: impl FnOnce(&mut TreePNode, &mut Context<'_, TreePMessage>),
    lose: impl FnMut(&TreePMessage) -> bool,
) -> Vec<(NodeAddr, TreePMessage)> {
    exchange_at(SimTime::from_millis(900), nodes, at, first, lose)
}

/// [`exchange`] with every callback running at the instant `now`.
fn exchange_at(
    now: SimTime,
    nodes: &mut [TreePNode],
    at: u64,
    first: impl FnOnce(&mut TreePNode, &mut Context<'_, TreePMessage>),
    mut lose: impl FnMut(&TreePMessage) -> bool,
) -> Vec<(NodeAddr, TreePMessage)> {
    let mut rng = simnet::SimRng::seed_from(1);
    let mut ctx = Context::new(now, NodeAddr(at), &mut rng);
    first(replica(nodes, at), &mut ctx);
    let mut queue = std::collections::VecDeque::from([(NodeAddr(at), ctx.into_actions())]);
    let mut delivered = Vec::new();
    while let Some((from, actions)) = queue.pop_front() {
        for action in actions {
            let simnet::Action::Send { dest, msg } = action else {
                continue;
            };
            if lose(&msg) {
                continue;
            }
            delivered.push((dest, msg.clone()));
            let mut ctx = Context::new(now, dest, &mut rng);
            replica(nodes, dest.0).on_message(from, msg, &mut ctx);
            queue.push_back((dest, ctx.into_actions()));
        }
    }
    delivered
}

/// One anti-entropy round on every node, nothing lost.
fn replica_round(nodes: &mut [TreePNode]) -> Vec<(NodeAddr, TreePMessage)> {
    let ids: Vec<u64> = nodes.iter().map(|n| n.id.0).collect();
    ids.into_iter()
        .flat_map(|id| {
            exchange(
                nodes,
                id,
                |node, ctx| node.on_timer(encode_timer(TIMER_REPLICA, 0), ctx),
                |_| false,
            )
        })
        .collect()
}

fn audit(nodes: &[TreePNode]) -> crate::replication::ReplicationAudit {
    crate::replication::audit_replication(nodes.iter().map(|n| (n.id, n.dht_store())), 3)
}

fn count_kind(delivered: &[(NodeAddr, TreePMessage)], kind: MessageKind) -> usize {
    delivered.iter().filter(|(_, m)| m.kind() == kind).count()
}

#[test]
fn a_matching_replica_digest_is_not_answered() {
    let mut nodes = replicas(&[100, 200, 300]);
    for node in &mut nodes {
        node.features().store.put(NodeId(210), b"v".to_vec());
    }
    let range = KeyRange::new(NodeId(150), NodeId(250));
    let (xor, count) = nodes[0].dht_store().digest_range(range);
    let mut rng = simnet::SimRng::seed_from(1);
    let mut ctx = Context::new(SimTime::from_millis(900), NodeAddr(200), &mut rng);
    nodes[1].on_message(
        NodeAddr(100),
        TreePMessage::ReplicaDigest {
            sender: peer(100, 0),
            range,
            xor,
            count,
        },
        &mut ctx,
    );
    assert!(ctx.into_actions().is_empty(), "agreement is silent");
    assert_eq!(nodes[1].stats().replica_digest_mismatches, 0);
    assert_eq!(
        nodes[1].stats().sent.get(MessageKind::ReplicaSyncRequest),
        0
    );
}

#[test]
fn a_mismatching_replica_digest_opens_one_sync_over_the_same_range() {
    let mut nodes = replicas(&[100, 200, 300]);
    nodes[1].features().store.put(NodeId(210), b"v".to_vec());
    nodes[1]
        .features()
        .store
        .put(NodeId(900), b"outside".to_vec());
    let range = KeyRange::new(NodeId(150), NodeId(250));
    let mut rng = simnet::SimRng::seed_from(1);
    let mut ctx = Context::new(SimTime::from_millis(900), NodeAddr(200), &mut rng);
    // The sender holds nothing in the range; this node holds key 210.
    nodes[1].on_message(
        NodeAddr(100),
        TreePMessage::ReplicaDigest {
            sender: peer(100, 0),
            range,
            xor: 0,
            count: 0,
        },
        &mut ctx,
    );
    let actions = ctx.into_actions();
    assert_eq!(actions.len(), 1, "exactly one message: {actions:?}");
    match &actions[0] {
        simnet::Action::Send {
            dest,
            msg:
                TreePMessage::ReplicaSyncRequest {
                    sender,
                    range: asked,
                    keys,
                },
        } => {
            assert_eq!(*dest, NodeAddr(100));
            assert_eq!(sender.id, NodeId(200));
            assert_eq!(*asked, range);
            assert_eq!(keys, &vec![NodeId(210)], "the keys of the range, only");
        }
        other => panic!("expected a ReplicaSyncRequest, got {other:?}"),
    }
    assert_eq!(nodes[1].stats().replica_digest_mismatches, 1);
    assert_eq!(
        nodes[1].stats().sent.get(MessageKind::ReplicaSyncRequest),
        1
    );
}

#[test]
fn a_dropped_replica_put_is_restored_within_two_rounds() {
    let mut nodes = replicas(&[100, 200, 300, 400, 500]);
    // Key 310 lands at its responsible node 300, which places copies on
    // 200 and 400; the first of the two is lost.
    let mut lost = false;
    let delivered = exchange(
        &mut nodes,
        300,
        |node, ctx| {
            let put = TreePMessage::DhtPut {
                request_id: RequestId(1),
                origin: peer(100, 0),
                key: NodeId(310),
                value: b"v".to_vec(),
                ttl: 0,
            };
            node.on_message(NodeAddr(100), put, ctx)
        },
        |msg| matches!(msg, TreePMessage::ReplicaPut { .. }) && !std::mem::replace(&mut lost, true),
    );
    assert_eq!(count_kind(&delivered, MessageKind::ReplicaPut), 1);
    assert!(!audit(&nodes).is_converged(), "one copy is missing");
    replica_round(&mut nodes);
    replica_round(&mut nodes);
    let after = audit(&nodes);
    assert!(after.is_converged(), "{after:?}");
    assert_eq!(after.total_copies, 3, "repaired, not over-replicated");
}

#[test]
fn a_fresh_node_pulls_its_share_from_its_predecessors_digest() {
    // 100..400 hold a converged key set; 250 has just joined, empty, and
    // every registry knows it.
    let mut nodes = replicas(&[100, 200, 250, 300, 400]);
    let keys: Vec<u64> = (60..460).step_by(20).collect();
    for &key in &keys {
        let mut holders: Vec<u64> = vec![100, 200, 300, 400];
        holders.sort_by_key(|id| (id.abs_diff(key), *id));
        for &id in &holders[..3] {
            replica(&mut nodes, id)
                .features()
                .store
                .put(NodeId(key), key.to_le_bytes().to_vec());
        }
    }
    // Only the predecessor's round runs: its digest to 250 mismatches, 250
    // asks with an empty key list, 200 answers with the values.
    let delivered = exchange(
        &mut nodes,
        200,
        |node, ctx| node.on_timer(encode_timer(TIMER_REPLICA, 0), ctx),
        |_| false,
    );
    assert_eq!(count_kind(&delivered, MessageKind::ReplicaDigest), 2);
    let space = TreePConfig::default().space;
    let predecessor = replica(&mut nodes, 200);
    let (partner, shared) = predecessor
        .tables
        .replica_pair_range(space, NodeId(200), 3, 1)
        .unwrap();
    assert_eq!(partner.id, NodeId(250));
    let expected = predecessor.dht_store().keys_in_range(shared);
    assert!(!expected.is_empty());
    let fresh = replica(&mut nodes, 250);
    assert_eq!(
        fresh.dht_store().keys_in_range(KeyRange::full(space)),
        expected
    );
    assert_eq!(fresh.stats().replica_digest_mismatches, 1);
    assert_eq!(fresh.stats().replica_values_received, expected.len() as u64);
    // Every one of them is a key 250 is among the three nearest nodes of.
    for key in expected {
        let mut ids = [100u64, 200, 250, 300, 400];
        ids.sort_by_key(|id| (id.abs_diff(key.0), *id));
        assert!(ids[..3].contains(&250), "{key:?} is not 250's to hold");
    }
}

#[test]
fn a_stamped_value_crosses_as_read_repair_with_its_stamp() {
    // The second stamp is one only a decoded datagram can carry: version 0,
    // yet not the floor. Sender and receiver must agree that it is a stamp.
    for (version, origin) in [(7, 100), (0, 5)] {
        let mut nodes = replicas(&[100, 200, 300]);
        let stamp = VersionStamp {
            version,
            origin: NodeId(origin),
        };
        let now = SimTime::from_millis(1);
        replica(&mut nodes, 100).apply_write(NodeId(210), stamp, b"v7".to_vec(), now);
        let delivered = replica_round(&mut nodes);
        assert!(
            delivered.iter().any(|(dest, msg)| *dest == NodeAddr(200)
                && matches!(msg, TreePMessage::ReadRepair { key, stamp: s, .. }
                    if *key == NodeId(210) && *s == stamp)),
            "{delivered:?}"
        );
        assert_eq!(count_kind(&delivered, MessageKind::ReplicaPut), 0);
        for node in &nodes {
            assert_eq!(node.stored_stamp(NodeId(210)), Some(stamp), "{:?}", node.id);
            assert_eq!(node.dht_store().get(NodeId(210)), Some(&b"v7".to_vec()));
        }
    }
}

#[test]
fn a_node_with_empty_tables_sends_no_digest() {
    // A replicating node that knows nobody has no replica partner: its
    // rounds are silent, leave nothing in flight and never reach the
    // embedder's aggregate outcomes (the tree-wide probe this replaced
    // folded inside the call and once leaked there).
    let config = TreePConfig {
        replication_factor: 3,
        ..TreePConfig::default()
    };
    let mut node =
        TreePNode::new(config, NodeId(10), NodeCharacteristics::default()).with_addr(NodeAddr(10));
    node.features().store.put(NodeId(11), b"v".to_vec());
    let mut rng = simnet::SimRng::seed_from(1);
    for round in 1..=6u64 {
        let now = SimTime::from_millis(900 * round);
        let mut ctx = Context::new(now, NodeAddr(10), &mut rng);
        node.on_timer(encode_timer(TIMER_REPLICA, 0), &mut ctx);
        let sends = ctx
            .into_actions()
            .into_iter()
            .filter(|a| matches!(a, simnet::Action::Send { .. }))
            .count();
        assert_eq!(sends, 0, "round {round}");
        assert!(node.drain_aggregate_outcomes().is_empty(), "round {round}");
        assert_eq!(node.pending_request_count(), 0, "round {round}");
    }
    assert_eq!(node.stats().replica_sync_rounds, 6);
    assert_eq!(node.stats().sent.get(MessageKind::ReplicaDigest), 0);
    assert_eq!(node.stats().replica_digest_mismatches, 0);
    assert_eq!(node.dht_store().len(), 1, "nowhere to hand off to: kept");
}

// ---- the in-flight table: what five typed maps gave for free ----------------

/// True when not one outcome or delivery queue of `node` holds anything.
fn nothing_to_drain(node: &mut TreePNode) -> bool {
    node.drain_lookup_outcomes().is_empty()
        && node.drain_dht_outcomes().is_empty()
        && node.drain_read_outcomes().is_empty()
        && node.drain_aggregate_outcomes().is_empty()
        && node.drain_multicast_deliveries().is_empty()
        && node.drain_topic_deliveries().is_empty()
}

/// A node whose every request leaves it: a parent (aggregations climb) and
/// a peer sitting exactly on the coordinate of key `k` (gets, puts and
/// lookups toward it are forwarded).
fn forwarding_node() -> (TreePNode, simnet::SimRng, NodeId) {
    let (mut node, rng) = started_node(10);
    let key = hash_key(TreePConfig::default().space, b"k");
    node.seed_parent(peer(900, 1), SimTime::ZERO);
    node.seed_level0_neighbor(
        PeerInfo {
            id: key,
            ..peer(777, 0)
        },
        SimTime::ZERO,
    );
    (node, rng, key)
}

#[test]
fn a_reply_of_the_wrong_kind_resolves_nothing() {
    use crate::readpath::ReadSource;
    let (mut node, mut rng, key) = forwarding_node();
    let mut ctx = Context::new(SimTime::ZERO, NodeAddr(10), &mut rng);
    let lookup = node.start_lookup(NodeId(key.0 + 1), RoutingAlgorithm::Greedy, &mut ctx);
    let get = node.dht_get_versioned(b"k", &mut ctx);
    let everything = KeyRange::full(TreePConfig::default().space);
    let aggregate = node.start_aggregate(everything, AggregateQuery::CountNodes, &mut ctx);
    drop(ctx);
    assert_eq!(node.pending_request_count(), 3);
    let me = node.peer_info();

    // Request identifiers are one counter for every kind, so each of these
    // names a live request — of another kind.
    let strays = [
        TreePMessage::DhtPutAck {
            request_id: lookup,
            key,
            stored_at: peer(777, 0),
        },
        TreePMessage::LookupFound {
            request_id: get,
            target: key,
            result: peer(777, 0),
            hops: 1,
            algorithm: RoutingAlgorithm::Greedy,
        },
        TreePMessage::PutVersionedAck {
            request_id: aggregate,
            key,
            stamp: crate::VersionStamp::LEGACY,
            stored_at: peer(777, 0),
        },
        // The right kind of message, but a branch partial: it belongs to a
        // relay (there is none here), never to the origin's request.
        TreePMessage::AggregateUp {
            origin: me,
            request_id: aggregate,
            query: AggregateQuery::CountNodes,
            partial: AggregatePartial::Count(7),
            truncated: false,
            final_answer: false,
        },
    ];
    for stray in strays {
        let mut ctx = Context::new(SimTime::from_millis(5), NodeAddr(10), &mut rng);
        node.on_message(NodeAddr(777), stray.clone(), &mut ctx);
        assert_eq!(node.pending_request_count(), 3, "{stray:?}");
        assert!(nothing_to_drain(&mut node), "{stray:?}");
    }

    // The right replies still find their requests.
    let replies = [
        TreePMessage::LookupFound {
            request_id: lookup,
            target: NodeId(key.0 + 1),
            result: peer(778, 0),
            hops: 2,
            algorithm: RoutingAlgorithm::Greedy,
        },
        TreePMessage::GetVersionedReply {
            request_id: get,
            origin: NodeAddr(10),
            key,
            value: None,
            source: ReadSource::Responsible,
            hops: 1,
            responder: peer(777, 0),
            path: vec![],
        },
        TreePMessage::AggregateUp {
            origin: me,
            request_id: aggregate,
            query: AggregateQuery::CountNodes,
            partial: AggregatePartial::Count(7),
            truncated: false,
            final_answer: true,
        },
    ];
    for reply in replies {
        let mut ctx = Context::new(SimTime::from_millis(9), NodeAddr(10), &mut rng);
        node.on_message(NodeAddr(777), reply, &mut ctx);
    }
    assert_eq!(node.pending_request_count(), 0);
    assert_eq!(node.drain_lookup_outcomes()[0].status, LookupStatus::Found);
    assert!(matches!(
        node.drain_read_outcomes()[..],
        [crate::ReadOutcome::Got { value: None, .. }]
    ));
    assert_eq!(
        node.drain_aggregate_outcomes()[0].partial(),
        Some(AggregatePartial::Count(7))
    );
}

#[test]
fn a_request_ends_exactly_once() {
    use crate::readpath::ReadSource;
    let (mut node, mut rng, key) = forwarding_node();
    let mut ctx = Context::new(SimTime::ZERO, NodeAddr(10), &mut rng);
    let put = node.dht_put(b"k", b"v".to_vec(), &mut ctx);
    let get = node.dht_get_versioned(b"k", &mut ctx);
    drop(ctx);
    assert_eq!(node.pending_request_count(), 2);

    // Answered: the duplicate of the reply and the deadline find nothing.
    let ack = TreePMessage::DhtPutAck {
        request_id: put,
        key,
        stored_at: peer(777, 0),
    };
    for _ in 0..2 {
        let mut ctx = Context::new(SimTime::from_millis(40), NodeAddr(10), &mut rng);
        node.on_message(NodeAddr(777), ack.clone(), &mut ctx);
    }
    let mut ctx = Context::new(SimTime::from_secs(10), NodeAddr(10), &mut rng);
    node.on_timer(encode_timer(TIMER_REQUEST, put.0), &mut ctx);
    let outcomes = node.drain_dht_outcomes();
    assert!(
        matches!(outcomes[..], [DhtOutcome::PutAcked { .. }]),
        "{outcomes:?}"
    );

    // Timed out: the reply that arrives afterwards finds nothing.
    let mut ctx = Context::new(SimTime::from_secs(10), NodeAddr(10), &mut rng);
    node.on_timer(encode_timer(TIMER_REQUEST, get.0), &mut ctx);
    let mut ctx = Context::new(SimTime::from_secs(11), NodeAddr(10), &mut rng);
    node.on_message(
        NodeAddr(777),
        TreePMessage::GetVersionedReply {
            request_id: get,
            origin: NodeAddr(10),
            key,
            value: None,
            source: ReadSource::Responsible,
            hops: 1,
            responder: peer(777, 0),
            path: vec![],
        },
        &mut ctx,
    );
    let outcomes = node.drain_read_outcomes();
    assert!(
        matches!(outcomes[..], [crate::ReadOutcome::TimedOut { .. }]),
        "{outcomes:?}"
    );
    assert_eq!(node.pending_request_count(), 0);
    assert!(nothing_to_drain(&mut node));
}

/// The request-deadline timers one callback armed, as `(instant, token)`.
fn deadline_timers(ctx: Context<'_, TreePMessage>) -> Vec<(SimTime, TimerToken)> {
    let now = ctx.now();
    ctx.into_actions()
        .into_iter()
        .filter_map(|a| match a {
            simnet::Action::SetTimer { delay, token } if decode_timer(token).0 == TIMER_REQUEST => {
                Some((now + delay, token))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn one_deadline_timer_ends_every_overdue_request_at_its_own_deadline() {
    let (mut node, mut rng, key) = forwarding_node();
    let timeout = TreePConfig::default().lookup_timeout;
    // Every request-deadline timer the node has armed and that has not
    // fired yet, fired here in time order as an engine would.
    let mut armed: Vec<(SimTime, TimerToken)> = Vec::new();
    let mut gets = Vec::new();
    for ms in 0..3 {
        let mut ctx = Context::new(SimTime::from_millis(ms), NodeAddr(10), &mut rng);
        gets.push(node.dht_get(b"k", &mut ctx));
        armed.extend(deadline_timers(ctx));
        assert_eq!(armed.len(), 1, "one deadline timer per node");
    }
    let mut ctx = Context::new(SimTime::from_millis(5), NodeAddr(10), &mut rng);
    let reply = TreePMessage::DhtGetReply {
        request_id: gets[1],
        key,
        value: None,
        responder: peer(777, 0),
    };
    node.on_message(NodeAddr(777), reply, &mut ctx);
    armed.extend(deadline_timers(ctx));
    assert_eq!(node.pending_request_count(), 2);

    let mut fired = 0;
    while let Some((at, token)) = armed.pop() {
        let mut ctx = Context::new(at, NodeAddr(10), &mut rng);
        node.on_timer(token, &mut ctx);
        armed.extend(deadline_timers(ctx));
        assert!(armed.len() <= 1, "one deadline timer per node");
        fired += 1;
    }
    assert_eq!(fired, 2, "the first request's deadline, then the third's");
    assert_eq!(node.pending_request_count(), 0);
    let timed_out: Vec<_> = node
        .drain_dht_outcomes()
        .into_iter()
        .filter_map(|o| match o {
            DhtOutcome::TimedOut {
                request_id,
                completed_at,
                ..
            } => Some((request_id, completed_at)),
            _ => None,
        })
        .collect();
    assert_eq!(
        timed_out,
        [
            (gets[0], SimTime::ZERO + timeout),
            (gets[2], SimTime::from_millis(2) + timeout)
        ]
    );
}

// ---- suspicion: fresh, suspect, expired -----------------------------------------

/// Sends of one callback, as `(destination, message)`.
fn sends(ctx: Context<'_, TreePMessage>) -> Vec<(NodeAddr, TreePMessage)> {
    ctx.into_actions()
        .into_iter()
        .filter_map(|a| match a {
            simnet::Action::Send { dest, msg } => Some((dest, msg)),
            _ => None,
        })
        .collect()
}

#[test]
fn suspicion_age_is_derived_from_the_keepalive_interval() {
    let (node, _) = started_node(10);
    assert_eq!(node.suspect_after(), SimDuration::from_millis(1_750));
    let config = TreePConfig {
        keepalive_interval: SimDuration::from_millis(200),
        entry_ttl: SimDuration::from_millis(1_000),
        ..TreePConfig::default()
    };
    let node = TreePNode::new(config, NodeId(10), NodeCharacteristics::default());
    // Gossip penalty (two rounds) plus a round and a half.
    assert_eq!(node.suspect_after(), SimDuration::from_millis(700));
}

#[test]
fn key_descent_passes_over_suspects_and_answers_when_only_suspects_are_nearer() {
    let (mut node, mut rng) = started_node(10);
    let key = hash_key(TreePConfig::default().space, b"k");
    let at = |id: u64, addr: u64| PeerInfo {
        id: NodeId(id),
        ..peer(addr, 0)
    };
    // On the key: silent since 0. One step off it: heard at 0.5 s.
    node.seed_level0_neighbor(at(key.0, 777), SimTime::ZERO);
    node.seed_level0_neighbor(at(key.0 + 1, 778), SimTime::from_millis(500));

    // 1.7 s: nobody has been silent for 1.75 s; the nearest peer is taken.
    let mut ctx = Context::new(SimTime::from_millis(1_700), NodeAddr(10), &mut rng);
    node.dht_put(b"k", b"v".to_vec(), &mut ctx);
    assert_eq!(sends(ctx)[0].0, NodeAddr(777));

    // 1.8 s: the nearest peer is a suspect, the request goes to the next.
    let mut ctx = Context::new(SimTime::from_millis(1_800), NodeAddr(10), &mut rng);
    node.dht_put(b"k", b"v".to_vec(), &mut ctx);
    assert_eq!(sends(ctx)[0].0, NodeAddr(778));
    assert_eq!(node.stats().forwards_suspect_skipped, 1);

    // 2.4 s: both are suspects (neither is forgotten before 2.5 s); the
    // node answers as the responsible one, as it will once they expire.
    let mut ctx = Context::new(SimTime::from_millis(2_400), NodeAddr(10), &mut rng);
    node.dht_put(b"k", b"v".to_vec(), &mut ctx);
    assert!(sends(ctx).is_empty());
    assert_eq!(node.dht_store().len(), 1);
    assert_eq!(node.stats().responsible_by_suspicion, 1);
    assert!(node.tables().find(key).is_some(), "suspected, not dropped");

    // Heard from directly, a peer stops being a suspect at once.
    let mut ctx = Context::new(SimTime::from_millis(2_450), NodeAddr(10), &mut rng);
    let ping = TreePMessage::KeepAlive {
        sender: at(key.0, 777),
        updates: vec![],
    };
    node.on_message(NodeAddr(777), ping, &mut ctx);
    let mut ctx = Context::new(SimTime::from_millis(2_460), NodeAddr(10), &mut rng);
    node.dht_get(b"k", &mut ctx);
    assert_eq!(sends(ctx)[0].0, NodeAddr(777));
}

#[test]
fn lookup_is_not_resolved_from_a_suspect_entry() {
    let (mut node, mut rng) = started_node(10);
    node.seed_level0_neighbor(peer(4_000_000_100, 0), SimTime::ZERO);
    node.seed_level0_neighbor(peer(4_000_000_000, 0), SimTime::from_secs(1));
    let mut ctx = Context::new(SimTime::from_secs(2), NodeAddr(10), &mut rng);
    node.start_lookup(NodeId(4_000_000_100), RoutingAlgorithm::NonGreedy, &mut ctx);
    let out = sends(ctx);
    assert_eq!(
        out.len(),
        1,
        "forwarded, not answered from the silent entry"
    );
    assert_eq!(out[0].0, NodeAddr(4_000_000_000));
    assert!(node.drain_lookup_outcomes().is_empty());
    assert_eq!(node.stats().forwards_suspect_skipped, 1);
}

#[test]
fn reply_skips_a_suspect_hop_of_its_path_and_fills_the_caches_it_passes() {
    use crate::readpath::{ReadSource, StampedValue};
    use crate::VersionStamp;

    let config = TreePConfig::default().with_read_path(8);
    let mut node =
        TreePNode::new(config, NodeId(10), NodeCharacteristics::default()).with_addr(NodeAddr(10));
    let mut rng = simnet::SimRng::seed_from(1);
    node.seed_level0_neighbor(peer(20, 0), SimTime::from_secs(2)); // live
    node.seed_level0_neighbor(peer(30, 0), SimTime::ZERO); // silent
    let reply = |path: Vec<NodeAddr>| TreePMessage::GetVersionedReply {
        request_id: RequestId(77),
        origin: NodeAddr(9),
        key: NodeId(4_000_000_100),
        value: Some(StampedValue {
            stamp: VersionStamp {
                version: 1,
                origin: NodeId(9),
            },
            value: b"v1".to_vec(),
        }),
        source: ReadSource::Responsible,
        hops: 3,
        responder: peer(40, 0),
        path,
    };
    let relayed_to = |node: &mut TreePNode, rng: &mut simnet::SimRng, path: Vec<NodeAddr>| {
        let mut ctx = Context::new(SimTime::from_secs(2), NodeAddr(10), rng);
        node.on_message(NodeAddr(40), reply(path), &mut ctx);
        let out = sends(ctx);
        assert_eq!(out.len(), 1);
        let TreePMessage::GetVersionedReply { path, .. } = &out[0].1 else {
            panic!("a relayed reply, got {:?}", out[0].1)
        };
        (out[0].0, path.clone())
    };
    // The hop before this one (30) is a suspect: the reply goes to the hop
    // before that, and the rest of the path is kept for it.
    let (dest, rest) = relayed_to(
        &mut node,
        &mut rng,
        vec![NodeAddr(50), NodeAddr(20), NodeAddr(30)],
    );
    assert_eq!((dest, rest), (NodeAddr(20), vec![NodeAddr(50)]));
    // Only suspects left on the path: straight to the origin.
    let (dest, rest) = relayed_to(&mut node, &mut rng, vec![NodeAddr(30)]);
    assert_eq!((dest, rest), (NodeAddr(9), vec![]));
    // A hop this node knows nothing about is not held in suspicion.
    let (dest, _) = relayed_to(&mut node, &mut rng, vec![NodeAddr(60)]);
    assert_eq!(dest, NodeAddr(60));
    assert_eq!(node.stats().replies_rerouted, 2);
    assert_eq!(
        node.stats().cache_fills,
        3,
        "this hop cached what it relayed"
    );
    assert_eq!(node.hot_cache_len(), 1);
}

#[test]
fn copies_and_digests_go_to_live_replicas_only() {
    let mut nodes = replicas(&[100, 200, 300, 400, 500]);
    let now = SimTime::from_secs(2);
    // 300 has heard 100 and 500 lately, 200 and 400 not since 0.
    for heard in [100, 500] {
        replica(&mut nodes, 300).seed_level0_neighbor(peer(heard, 0), now);
    }
    let delivered = exchange_at(
        now,
        &mut nodes,
        300,
        |node, ctx| {
            let put = TreePMessage::DhtPut {
                request_id: RequestId(1),
                origin: peer(100, 0),
                key: NodeId(310),
                value: b"v".to_vec(),
                ttl: 0,
            };
            node.on_message(NodeAddr(100), put, ctx)
        },
        |msg| !matches!(msg, TreePMessage::ReplicaPut { .. }),
    );
    let copies: Vec<NodeAddr> = delivered.iter().map(|(dest, _)| *dest).collect();
    assert_eq!(copies, vec![NodeAddr(500), NodeAddr(100)], "nearest live");

    // The round's digests: the first successor (400) is silent and skipped,
    // the second (500) is compared with as usual.
    let mut rng = simnet::SimRng::seed_from(1);
    let mut ctx = Context::new(now, NodeAddr(300), &mut rng);
    replica(&mut nodes, 300).on_timer(encode_timer(TIMER_REPLICA, 0), &mut ctx);
    let digests: Vec<NodeAddr> = sends(ctx)
        .into_iter()
        .filter(|(_, msg)| msg.kind() == MessageKind::ReplicaDigest)
        .map(|(dest, _)| dest)
        .collect();
    assert_eq!(digests, vec![NodeAddr(500)]);
}

#[test]
fn a_put_accepted_under_false_suspicion_is_handed_off_once_the_peers_are_heard_again() {
    use crate::VersionStamp;

    // Nine replicas; every one of them is nearer to key 510 than node 100,
    // and at 5 s node 100 has heard none of them since 0.
    let ids = [100, 200, 300, 400, 500, 600, 700, 800, 900];
    let mut nodes = replicas(&ids);
    let key = NodeId(510);
    let stamp = VersionStamp {
        version: 1,
        origin: NodeId(100),
    };
    let delivered = exchange_at(
        SimTime::from_secs(5),
        &mut nodes,
        100,
        |node, ctx| {
            let put = TreePMessage::PutVersioned {
                request_id: RequestId(1),
                origin: peer(100, 0),
                key,
                stamp,
                value: b"v".to_vec(),
                ttl: 0,
            };
            node.on_message(NodeAddr(100), put, ctx)
        },
        |_| false,
    );
    assert!(delivered.is_empty(), "no live peer to forward or copy to");
    assert_eq!(replica(&mut nodes, 100).stats().responsible_by_suspicion, 1);
    assert_eq!(replica(&mut nodes, 100).stored_stamp(key), Some(stamp));
    assert!(
        !audit(&nodes).is_converged(),
        "the replica set lacks the key"
    );

    // The suspicion was false: everybody pings node 100 in the next round.
    let heard = SimTime::from_millis(5_100);
    for id in ids.into_iter().filter(|id| *id != 100) {
        let mut rng = simnet::SimRng::seed_from(1);
        let mut ctx = Context::new(heard, NodeAddr(100), &mut rng);
        let ping = TreePMessage::KeepAliveAck {
            sender: peer(id, 0),
            updates: vec![],
        };
        replica(&mut nodes, 100).on_message(NodeAddr(id), ping, &mut ctx);
    }

    // The next anti-entropy round of node 100 hands the key to its replica
    // set — 500, 600, 400 — and drops the misplaced copy.
    let delivered = exchange_at(
        SimTime::from_millis(5_200),
        &mut nodes,
        100,
        |node, ctx| node.on_timer(encode_timer(TIMER_REPLICA, 0), ctx),
        |_| false,
    );
    assert_eq!(count_kind(&delivered, MessageKind::ReadRepair), 3);
    assert_eq!(replica(&mut nodes, 100).stats().replica_handoffs, 1);
    assert_eq!(replica(&mut nodes, 100).stored_stamp(key), None);
    let after = audit(&nodes);
    assert!(after.is_converged(), "{after:?}");
    assert_eq!(after.total_copies, 3);
    for id in [400, 500, 600] {
        assert_eq!(replica(&mut nodes, id).stored_stamp(key), Some(stamp));
    }
}
