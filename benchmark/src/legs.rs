//! Legs: timed calls into one layer's public functions, on state cloned
//! from the settled run, plus the engine-only runs (`NullProto`) and the
//! per-kind handler timings the attribution is built from.
//!
//! Every leg is measured from outside the layer it times, is repeated
//! [`LEG_REPS`] times, and reports the fastest repetition in calibrated
//! nanoseconds per call.

use crate::host::SegmentTimer;
use crate::sim::PerKind;
use crate::trace::Tracer;
use crate::udp;
use simnet::{
    Action, Context, EventKind, LinkModel, NodeAddr, Protocol, Scheduler, SimConfig, SimDuration,
    SimRng, SimTime, Simulation, TimerToken,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use treep::{
    CharacteristicsSummary, DhtStore, HierarchicalDistance, HotKeyCache, KeyRange, LookupRequest,
    MessageKind, MulticastPayload, MulticastPhase, NodeCharacteristics, NodeId, PeerInfo,
    RequestId, RouterView, RoutingAlgorithm, RoutingTables, RoutingUpdate, TreePConfig,
    TreePMessage, TreePNode, VersionStamp,
};

/// Repetitions of every leg; the fastest counts.
pub const LEG_REPS: usize = 3;

/// Named leg results, in nanoseconds per call unless the name says otherwise.
pub type LegResults = BTreeMap<&'static str, f64>;

/// Time `iters` calls of `body` as one segment, [`LEG_REPS`] times; return
/// the fastest repetition's calibrated nanoseconds per call.
pub fn leg_ns(
    timer: &mut SegmentTimer,
    tracer: &mut Tracer,
    name: &'static str,
    iters: usize,
    mut body: impl FnMut(usize),
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..LEG_REPS {
        let span = tracer.begin(name);
        let ((), seg) = timer.time(|| {
            for i in 0..iters {
                body(i);
            }
        });
        tracer.end(span);
        best = best.min(seg.calibrated_ns() / iters.max(1) as f64);
    }
    best
}

// ---- state cloned from the settled run ------------------------------------------

/// One node's routing state, cloned out of a run.
pub struct NodeView {
    /// The node's registry and role indexes.
    pub tables: RoutingTables,
    /// Its identifier.
    pub id: NodeId,
    /// Its address.
    pub addr: NodeAddr,
    /// Its maximum level.
    pub level: u32,
    /// Identifiers it knows (registry keys).
    pub known: Vec<NodeId>,
}

impl NodeView {
    /// Clone the view of `node`.
    pub fn of(node: &TreePNode, addr: NodeAddr) -> Self {
        let tables = node.tables().clone();
        let known = tables.all_peers().iter().map(|e| e.id).collect();
        NodeView {
            tables,
            id: node.id(),
            addr,
            level: node.max_level(),
            known,
        }
    }
}

/// Views of up to `count` live nodes of `sim`, evenly spread over the
/// address space (the same nodes for the same run).
pub fn sample_views(sim: &Simulation<TreePNode>, count: usize) -> Vec<NodeView> {
    let alive = sim.alive_nodes();
    let step = (alive.len() / count.max(1)).max(1);
    alive
        .iter()
        .step_by(step)
        .take(count)
        .filter_map(|&a| sim.node(a).map(|n| NodeView::of(n, a)))
        .filter(|v| !v.known.is_empty())
        .collect()
}

/// The `treep.tables.*_ns` and `treep.routing.route_ns.*` legs over `views`.
pub fn table_and_routing_legs(
    views: &mut [NodeView],
    config: &TreePConfig,
    targets: &[NodeId],
    now: SimTime,
    timer: &mut SegmentTimer,
    tracer: &mut Tracer,
) -> LegResults {
    let mut out = LegResults::new();
    if views.is_empty() || targets.is_empty() {
        return out;
    }
    let space = config.space;
    let n = views.len();
    let iters = 40_000;
    let key_of = |i: usize| targets[(i * 7919) % targets.len()];

    out.insert(
        "treep.tables.find_ns",
        leg_ns(timer, tracer, "treep.tables/find", iters, |i| {
            let v = &views[i % n];
            black_box(v.tables.find(v.known[i % v.known.len()]));
        }),
    );
    out.insert(
        "treep.tables.touch_ns",
        leg_ns(timer, tracer, "treep.tables/touch", iters, |i| {
            let v = &mut views[i % n];
            let id = v.known[i % v.known.len()];
            black_box(v.tables.touch(id, now));
        }),
    );
    out.insert(
        "treep.tables.upsert_ns",
        leg_ns(timer, tracer, "treep.tables/upsert_level0", iters, |i| {
            let v = &mut views[i % n];
            // Re-upsert a peer that already is a level-0 neighbour: the
            // merge path every keep-alive takes.
            let neighbour = v.tables.level0().nth(i % 2).copied();
            if let Some(mut entry) = neighbour {
                entry.touch(now);
                v.tables.upsert_level0(entry);
            }
        }),
    );
    out.insert(
        "treep.tables.expire_ns",
        leg_ns(timer, tracer, "treep.tables/expire", iters / 4, |i| {
            // `now` is the run's clock, so nothing is stale: the sweep a
            // maintenance tick pays when every neighbour is alive.
            black_box(views[i % n].tables.expire(now, config.entry_ttl).len());
        }),
    );
    out.insert(
        "treep.tables.closest_peer_ns",
        leg_ns(timer, tracer, "treep.tables/closest_peer", iters, |i| {
            let v = &views[i % n];
            black_box(v.tables.closest_peer(space, key_of(i), v.addr));
        }),
    );
    out.insert(
        "treep.tables.outward8_ns",
        leg_ns(
            timer,
            tracer,
            "treep.tables/peers_outward_from",
            iters,
            |i| {
                black_box(
                    views[i % n]
                        .tables
                        .peers_outward_from(key_of(i))
                        .take(8)
                        .count(),
                );
            },
        ),
    );
    out.insert(
        "treep.tables.nearest3_ns",
        leg_ns(timer, tracer, "treep.tables/nearest_peers", iters, |i| {
            let v = &views[i % n];
            black_box(v.tables.nearest_peers(space, key_of(i), 3, v.addr).len());
        }),
    );
    out.insert(
        "treep.tables.bus_neighbors_ns",
        leg_ns(timer, tracer, "treep.tables/bus_neighbors", iters, |i| {
            let v = &views[i % n];
            black_box(v.tables.bus_neighbors(v.level.max(1), v.id));
        }),
    );
    let parents: Vec<usize> = (0..n)
        .filter(|&i| views[i].tables.own_children_count() > 0)
        .collect();
    if !parents.is_empty() {
        let width = space.size() / 20;
        out.insert(
            "treep.tables.fanout_ns",
            leg_ns(
                timer,
                tracer,
                "treep.tables/multicast_fanout",
                iters / 4,
                |i| {
                    let v = &views[parents[i % parents.len()]];
                    let lo = key_of(i).0.min(space.size() - width);
                    let range = KeyRange::new(NodeId(lo), NodeId(lo + width - 1));
                    black_box(
                        v.tables
                            .multicast_fanout(space, config.height, range, 0)
                            .len(),
                    );
                },
            ),
        );
    }

    let dist = HierarchicalDistance::new(space, config.height);
    let origin = PeerInfo {
        id: views[0].id,
        addr: views[0].addr,
        max_level: 0,
        summary: CharacteristicsSummary::of(&NodeCharacteristics::default(), config.child_policy),
    };
    for (name, span, algorithm) in [
        (
            "treep.routing.route_ns.g",
            "treep.routing/route(G)",
            RoutingAlgorithm::Greedy,
        ),
        (
            "treep.routing.route_ns.ng",
            "treep.routing/route(NG)",
            RoutingAlgorithm::NonGreedy,
        ),
        (
            "treep.routing.route_ns.ngsa",
            "treep.routing/route(NGSA)",
            RoutingAlgorithm::NonGreedyFallback,
        ),
    ] {
        out.insert(
            name,
            leg_ns(timer, tracer, span, iters, |i| {
                let v = &views[i % n];
                let view = RouterView {
                    tables: &v.tables,
                    dist: &dist,
                    self_id: v.id,
                    self_level: v.level,
                    self_addr: v.addr,
                    max_ttl: config.max_ttl,
                };
                let mut req = LookupRequest::new(RequestId(i as u64), origin, key_of(i), algorithm);
                req.ttl = 2;
                black_box(treep::routing::route(&view, &mut req));
            }),
        );
    }
    out
}

/// The read-path and DHT legs (`stack_churn` only): a 32-line hot-key cache
/// and a store holding the benchmark's key corpus.
pub fn readpath_and_dht_legs(
    keys: &[NodeId],
    value_len: usize,
    now: SimTime,
    timer: &mut SegmentTimer,
    tracer: &mut Tracer,
) -> LegResults {
    let mut out = LegResults::new();
    if keys.is_empty() {
        return out;
    }
    let iters = 40_000;
    let value = vec![7u8; value_len];
    let stamp = |i: usize| VersionStamp {
        version: 1 + (i / keys.len()) as u64,
        origin: NodeId(1),
    };
    let mut cache = HotKeyCache::new(32, SimDuration::from_secs(30));
    out.insert(
        "treep.readpath.hotcache_fill_ns",
        leg_ns(
            timer,
            tracer,
            "treep.readpath/HotKeyCache::fill",
            iters,
            |i| {
                // 48 hot keys over 32 lines: fills, refreshes and evictions.
                black_box(cache.fill(keys[i % 48.min(keys.len())], stamp(i), &value, now));
            },
        ),
    );
    out.insert(
        "treep.readpath.hotcache_get_ns",
        leg_ns(
            timer,
            tracer,
            "treep.readpath/HotKeyCache::get",
            iters,
            |i| {
                black_box(cache.get(keys[i % 48.min(keys.len())], now).is_some());
            },
        ),
    );
    let mut store = DhtStore::new();
    out.insert(
        "treep.dht.store_put_ns",
        leg_ns(timer, tracer, "treep.dht/DhtStore::put", iters, |i| {
            black_box(store.put(keys[i % keys.len()], value.clone()));
        }),
    );
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    out.insert(
        "treep.dht.digest_range_ns",
        leg_ns(
            timer,
            tracer,
            "treep.dht/DhtStore::digest_range",
            iters / 4,
            |i| {
                // A range holding about a sixteenth of the corpus.
                let lo = i % (sorted.len() - sorted.len() / 16).max(1);
                let hi = (lo + sorted.len() / 16).min(sorted.len() - 1);
                black_box(store.digest_range(KeyRange::new(sorted[lo], sorted[hi])));
            },
        ),
    );
    out
}

// ---- codec -------------------------------------------------------------------------

/// A representative message and the names its three codec metrics go by.
pub struct CodecSample {
    /// `codec.encode_ns.<kind>`.
    pub encode: &'static str,
    /// `codec.decode_ns.<kind>`.
    pub decode: &'static str,
    /// `codec.bytes.<kind>`.
    pub bytes: &'static str,
    /// The message.
    pub msg: TreePMessage,
}

/// Representative messages of the five kinds the codec legs time, built
/// around `peers` (at least one).
pub fn codec_samples(peers: &[PeerInfo], space: treep::IdSpace) -> Vec<CodecSample> {
    let p = |i: usize| peers[i % peers.len()];
    let updates = vec![
        RoutingUpdate::ParentOf { peer: p(1) },
        RoutingUpdate::Superior { peer: p(2) },
        RoutingUpdate::Contact { peer: p(3) },
        RoutingUpdate::Contact { peer: p(4) },
        RoutingUpdate::Contact { peer: p(5) },
        RoutingUpdate::Contact { peer: p(6) },
    ];
    let mut lookup = LookupRequest::new(RequestId(41), p(0), p(3).id, RoutingAlgorithm::NonGreedy);
    lookup.advance(p(0).addr);
    lookup.advance(p(1).addr);
    vec![
        CodecSample {
            encode: "codec.encode_ns.keepalive",
            decode: "codec.decode_ns.keepalive",
            bytes: "codec.bytes.keepalive",
            msg: TreePMessage::KeepAlive {
                sender: p(0),
                updates,
            },
        },
        CodecSample {
            encode: "codec.encode_ns.lookup",
            decode: "codec.decode_ns.lookup",
            bytes: "codec.bytes.lookup",
            msg: TreePMessage::Lookup(lookup),
        },
        CodecSample {
            encode: "codec.encode_ns.dht_get",
            decode: "codec.decode_ns.dht_get",
            bytes: "codec.bytes.dht_get",
            msg: TreePMessage::DhtGet {
                request_id: RequestId(42),
                origin: p(0),
                key: p(2).id,
                ttl: 1,
            },
        },
        CodecSample {
            encode: "codec.encode_ns.dht_put_8k",
            decode: "codec.decode_ns.dht_put_8k",
            bytes: "codec.bytes.dht_put_8k",
            msg: TreePMessage::DhtPut {
                request_id: RequestId(43),
                origin: p(0),
                key: p(2).id,
                value: vec![0xA5; 8 * 1024],
                ttl: 1,
            },
        },
        CodecSample {
            encode: "codec.encode_ns.multicast_down",
            decode: "codec.decode_ns.multicast_down",
            bytes: "codec.bytes.multicast_down",
            msg: TreePMessage::MulticastDown {
                origin: p(0),
                request_id: RequestId(44),
                range: KeyRange::full(space),
                payload: MulticastPayload::Data(vec![1, 2, 3, 4]),
                budget: 500,
                hops: 3,
                phase: MulticastPhase::Up,
                bus_level: 1,
            },
        },
    ]
}

/// The `codec.*` legs: encode and decode each sample, and an 8-message
/// batch datagram.
pub fn codec_legs(
    samples: &[CodecSample],
    timer: &mut SegmentTimer,
    tracer: &mut Tracer,
) -> LegResults {
    let mut out = LegResults::new();
    let iters = 20_000;
    for sample in samples {
        let bytes = treep_net::encode_message(&sample.msg);
        out.insert(sample.bytes, bytes.len() as f64);
        out.insert(
            sample.encode,
            leg_ns(
                timer,
                tracer,
                "treep-net.codec/encode_message",
                iters,
                |_| {
                    black_box(treep_net::encode_message(black_box(&sample.msg)).len());
                },
            ),
        );
        out.insert(
            sample.decode,
            leg_ns(
                timer,
                tracer,
                "treep-net.codec/decode_message",
                iters,
                |_| {
                    black_box(treep_net::decode_message(black_box(&bytes)).is_ok());
                },
            ),
        );
    }
    // Eight small messages in one datagram: what per-destination batching
    // puts on the wire.
    let small: Vec<TreePMessage> = samples
        .iter()
        .filter(|s| s.bytes != "codec.bytes.dht_put_8k")
        .map(|s| s.msg.clone())
        .cycle()
        .take(8)
        .collect();
    let datagram = treep_net::codec::encode_batch(&small);
    out.insert(
        "codec.batch8.encode_ns",
        leg_ns(
            timer,
            tracer,
            "treep-net.codec/encode_batch",
            iters / 4,
            |_| {
                black_box(treep_net::codec::encode_batch(black_box(&small)).len());
            },
        ),
    );
    out.insert(
        "codec.batch8.decode_ns",
        leg_ns(
            timer,
            tracer,
            "treep-net.codec/decode_datagram",
            iters / 4,
            |_| {
                black_box(treep_net::codec::decode_datagram(black_box(&datagram)).is_ok());
            },
        ),
    );
    out
}

/// Bytes the sends counted in `sent` take on the wire: per-kind send counts
/// times the encoded size of a representative message of the kind. Values
/// are sized by `udp_kv`'s op mix: 10 of 45 puts are large, and
/// `large_get_share` of the gets hit a large key.
pub fn estimated_wire_bytes(
    sent: &PerKind,
    peers: &[PeerInfo],
    space: treep::IdSpace,
    large_get_share: f64,
) -> f64 {
    let p = |i: usize| peers[i % peers.len()];
    let len = |msg: &TreePMessage| treep_net::encode_message(msg).len() as f64;
    let mix = |share: f64, of_len: &dyn Fn(usize) -> TreePMessage| {
        (1.0 - share) * len(&of_len(udp::SMALL_VALUE)) + share * len(&of_len(udp::LARGE_VALUE))
    };
    let keepalive = len(&codec_samples(peers, space)[0].msg);
    let mut lookup = LookupRequest::new(RequestId(1), p(0), p(3).id, RoutingAlgorithm::NonGreedy);
    lookup.advance(p(0).addr);
    let (request_id, algorithm) = (RequestId(1), RoutingAlgorithm::NonGreedy);
    let sizes = [
        (MessageKind::KeepAlive, keepalive),
        (MessageKind::KeepAliveAck, keepalive),
        (
            MessageKind::ChildReport,
            len(&TreePMessage::ChildReport {
                child: p(0),
                span: KeyRange::full(space),
            }),
        ),
        (
            MessageKind::ChildReportAck,
            len(&TreePMessage::ChildReportAck {
                parent: p(0),
                superiors: vec![p(1), p(2)],
            }),
        ),
        (MessageKind::Lookup, len(&TreePMessage::Lookup(lookup))),
        (
            MessageKind::LookupFound,
            len(&TreePMessage::LookupFound {
                request_id,
                target: p(3).id,
                result: p(3),
                hops: 2,
                algorithm,
            }),
        ),
        (
            MessageKind::LookupNotFound,
            len(&TreePMessage::LookupNotFound {
                request_id,
                target: p(3).id,
                hops: 2,
                algorithm,
            }),
        ),
        (
            MessageKind::DhtPut,
            mix(10.0 / 45.0, &|n| TreePMessage::DhtPut {
                request_id,
                origin: p(0),
                key: p(2).id,
                value: vec![0; n],
                ttl: 1,
            }),
        ),
        (
            MessageKind::DhtPutAck,
            len(&TreePMessage::DhtPutAck {
                request_id,
                key: p(2).id,
                stored_at: p(2),
            }),
        ),
        (
            MessageKind::DhtGet,
            len(&TreePMessage::DhtGet {
                request_id,
                origin: p(0),
                key: p(2).id,
                ttl: 1,
            }),
        ),
        (
            MessageKind::DhtGetReply,
            mix(large_get_share, &|n| TreePMessage::DhtGetReply {
                request_id,
                key: p(2).id,
                value: Some(vec![0; n]),
                responder: p(2),
            }),
        ),
    ];
    sizes
        .iter()
        .map(|(kind, bytes)| sent.0[kind.index()] as f64 * bytes)
        .sum()
}

// ---- simnet: engine-only legs ----------------------------------------------------

/// Words of a [`NullProto`] message, sized like a `TreePMessage` so the
/// scheduler moves as many bytes per event as it does for the overlay.
const NULL_WORDS: usize = std::mem::size_of::<TreePMessage>() / 8;

/// Neighbours every [`NullProto`] node pings per tick.
const NULL_FANOUT: u64 = 8;

/// A protocol that does nothing but keep the engine as busy as the overlay
/// does: every node pings eight neighbours twice a second and each ping is
/// answered, so events per node-second, sends per event and queue depth
/// match a settled TreeP population of the same size.
pub struct NullProto {
    n: u64,
}

/// A [`NullProto`] message.
#[derive(Clone)]
pub enum NullMsg {
    /// Answered with a pong.
    Ping([u64; NULL_WORDS]),
    /// Not answered.
    Pong([u64; NULL_WORDS]),
}

impl Protocol for NullProto {
    type Message = NullMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, NullMsg>) {
        let jitter = ctx.rng().gen_range_u64(0..500_000);
        ctx.set_timer(SimDuration::from_micros(jitter), TimerToken(0));
    }

    fn on_message(&mut self, from: NodeAddr, msg: NullMsg, ctx: &mut Context<'_, NullMsg>) {
        if let NullMsg::Ping(words) = msg {
            ctx.send(from, NullMsg::Pong(words));
        }
    }

    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_, NullMsg>) {
        let me = ctx.self_addr().0;
        for k in 1..=NULL_FANOUT {
            // Four ring neighbours on each side.
            let offset = if k % 2 == 0 {
                k / 2
            } else {
                self.n - k.div_ceil(2)
            };
            ctx.send(
                NodeAddr((me + offset) % self.n),
                NullMsg::Ping([me; NULL_WORDS]),
            );
        }
        ctx.set_timer(SimDuration::from_millis(500), TimerToken(0));
    }
}

/// Run [`NullProto`] at population `n`: one virtual second to fill the
/// queue, then `slices` measured slices of 50 ms. Returns calibrated
/// nanoseconds per dispatched event (one pass, so a plain calibrated mean).
pub fn null_ns_per_event(
    n: usize,
    slices: u64,
    seed: u64,
    timer: &mut SegmentTimer,
    tracer: &mut Tracer,
) -> f64 {
    let mut sim: Simulation<NullProto> = Simulation::new(SimConfig::default(), seed);
    sim.reserve_nodes(n);
    for _ in 0..n {
        sim.add_node(NullProto { n: n as u64 });
    }
    sim.run_for(SimDuration::from_secs(1));
    let before = sim.metrics().events_dispatched;
    let mut ns = 0.0;
    for _ in 0..slices {
        let span = tracer.begin("simnet/run_for(NullProto)");
        let ((), seg) = timer.time(|| sim.run_for(SimDuration::from_millis(50)));
        tracer.end(span);
        ns += seg.calibrated_ns();
    }
    let events = sim.metrics().events_dispatched - before;
    ns / events.max(1) as f64
}

/// The `simnet.scheduler`, `simnet.rng` and `simnet.link` legs.
pub fn simnet_micro_legs(
    depth: usize,
    timer: &mut SegmentTimer,
    tracer: &mut Tracer,
) -> LegResults {
    let mut out = LegResults::new();
    let iters = 200_000;
    let mut rng = SimRng::seed_from(99);
    // Hold the queue at the run's depth: pop the earliest event, push one a
    // link latency later.
    let mut scheduler: Scheduler<NullMsg> = Scheduler::new();
    let link = LinkModel::default();
    for i in 0..depth.max(1) as u64 {
        let at = SimTime::from_micros(rng.gen_range_u64(0..500_000));
        scheduler.schedule(
            at,
            EventKind::Timer {
                node: NodeAddr(i),
                token: TimerToken(0),
            },
        );
    }
    out.insert(
        "simnet.scheduler.push_pop_ns",
        leg_ns(
            timer,
            tracer,
            "simnet.scheduler/schedule+pop",
            iters,
            |_| {
                let event = scheduler.pop().expect("queue is held at depth");
                let delay = SimDuration::from_micros(5_000 + rng.gen_range_u64(0..45_000));
                scheduler.schedule(
                    event.at + delay,
                    EventKind::Deliver {
                        src: NodeAddr(0),
                        dest: event.target(),
                        msg: NullMsg::Pong([0; NULL_WORDS]),
                    },
                );
            },
        ),
    );
    out.insert(
        "simnet.rng.draw_ns",
        leg_ns(timer, tracer, "simnet.rng/next_u64", iters * 4, |_| {
            black_box(rng.next_u64());
        }),
    );
    out.insert(
        "simnet.link.transmit_ns",
        leg_ns(timer, tracer, "simnet.link/transmit", iters * 4, |_| {
            black_box(link.transmit(NodeAddr(1), NodeAddr(2), &mut rng));
        }),
    );
    out
}

// ---- handler timings: what a node does per message kind --------------------------

/// Calibrated nanoseconds the node handler takes per received message of
/// each kind, per maintenance tick and per op issue, measured by
/// delivering real messages to real nodes of the finished run.
#[derive(Debug, Clone, Default)]
pub struct HandlerTimes {
    /// Per message kind: `(calls timed, calibrated ns per call)`.
    pub per_kind: BTreeMap<MessageKind, (u64, f64)>,
    /// Calibrated ns per maintenance tick.
    pub tick_ns: f64,
    /// Ticks timed.
    pub ticks: u64,
}

/// A message waiting to be delivered by hand.
struct Pending {
    from: NodeAddr,
    dest: NodeAddr,
    msg: TreePMessage,
}

/// Move the sends among `actions` to `out`; the buffer comes back empty.
fn sends_of(from: NodeAddr, actions: &mut Vec<Action<TreePMessage>>, out: &mut Vec<Pending>) {
    for action in actions.drain(..) {
        if let Action::Send { dest, msg } = action {
            out.push(Pending { from, dest, msg });
        }
    }
}

/// Deliver `batch` to its destinations through `Protocol::on_message`, the
/// way the engine does (one recycled action buffer), and collect what the
/// nodes send in `out`.
fn deliver(
    sim: &mut Simulation<TreePNode>,
    batch: Vec<Pending>,
    rng: &mut SimRng,
    buffer: &mut Vec<Action<TreePMessage>>,
    out: &mut Vec<Pending>,
) {
    let now = sim.now();
    for p in batch {
        let Some(node) = sim.node_mut(p.dest) else {
            continue;
        };
        let mut ctx = Context::with_buffer(now, p.dest, rng, std::mem::take(buffer));
        node.on_message(p.from, p.msg, &mut ctx);
        *buffer = ctx.into_actions();
        sends_of(p.dest, buffer, out);
    }
}

/// The token of the periodic maintenance timer, learned the way a host
/// learns it: it is the first timer a starting node arms.
fn maintenance_token(config: &TreePConfig) -> Option<TimerToken> {
    let mut node = TreePNode::new(*config, NodeId(1), NodeCharacteristics::default());
    let mut rng = SimRng::seed_from(1);
    let mut ctx = Context::new(SimTime::ZERO, NodeAddr(0), &mut rng);
    node.on_start(&mut ctx);
    ctx.into_actions().into_iter().find_map(|a| match a {
        Action::SetTimer { token, .. } => Some(token),
        _ => None,
    })
}

/// Rounds of [`handler_times`].
const HANDLER_ROUNDS: usize = 12;

/// Waves of replies [`handler_times`] follows in a round.
const HANDLER_WAVES: usize = 40;

/// Time the handlers on the finished run `sim`. Destructive: nodes handle
/// messages whose replies are never scheduled, so `sim` must not be run
/// afterwards.
///
/// The work is done in [`HANDLER_ROUNDS`] rounds, each on its own `ticks`
/// sampled nodes and its own share of the op-issue messages in `seeds`: a
/// maintenance tick on every sampled node, then every produced message is
/// delivered to its destination by hand, kind by kind, for up to
/// [`HANDLER_WAVES`] waves, each kind's deliveries timed as one segment. A
/// kind's time is the median over the rounds (one round is a single pass of
/// a few tens of milliseconds).
pub fn handler_times(
    sim: &mut Simulation<TreePNode>,
    config: &TreePConfig,
    ticks: usize,
    seeds: Vec<(NodeAddr, NodeAddr, TreePMessage)>,
    timer: &mut SegmentTimer,
    tracer: &mut Tracer,
) -> HandlerTimes {
    let now = sim.now();
    let mut rng = SimRng::seed_from(0x7E57);
    let alive = sim.alive_nodes();
    let token = maintenance_token(config);
    let step = (alive.len() / ticks.max(1)).max(HANDLER_ROUNDS);
    let mut seeds = seeds
        .into_iter()
        .map(|(from, dest, msg)| Pending { from, dest, msg });
    let seeds_per_round = seeds.len().div_ceil(HANDLER_ROUNDS);
    let mut tick_ns: Vec<f64> = Vec::new();
    let mut ticks_timed = 0u64;
    // Per kind: calls timed, and each round's nanoseconds per call.
    let mut per_kind: BTreeMap<MessageKind, (u64, Vec<f64>)> = BTreeMap::new();
    let mut buffer: Vec<Action<TreePMessage>> = Vec::new();
    // Room for a round's largest wave, so the timed deliveries never grow it.
    let mut wave: Vec<Pending> = Vec::with_capacity(1 << 16);

    for round in 0..HANDLER_ROUNDS {
        wave.extend(seeds.by_ref().take(seeds_per_round));
        if let Some(token) = token {
            let sampled: Vec<NodeAddr> = alive
                .iter()
                .copied()
                .skip(round)
                .step_by(step)
                .take(ticks)
                .collect();
            let span = tracer.begin("treep.node/on_timer(maintenance)");
            let ((), seg) = timer.time(|| {
                for &addr in &sampled {
                    let Some(node) = sim.node_mut(addr) else {
                        continue;
                    };
                    let mut ctx =
                        Context::with_buffer(now, addr, &mut rng, std::mem::take(&mut buffer));
                    node.on_timer(token, &mut ctx);
                    buffer = ctx.into_actions();
                    sends_of(addr, &mut buffer, &mut wave);
                }
            });
            tracer.end(span);
            ticks_timed += sampled.len() as u64;
            tick_ns.push(seg.calibrated_ns() / sampled.len().max(1) as f64);
        }

        let mut totals: BTreeMap<MessageKind, (u64, f64)> = BTreeMap::new();
        for _ in 0..HANDLER_WAVES {
            if wave.is_empty() {
                break;
            }
            let mut by_kind: BTreeMap<MessageKind, Vec<Pending>> = BTreeMap::new();
            for p in wave.drain(..) {
                if sim.is_alive(p.dest) {
                    by_kind.entry(p.msg.kind()).or_default().push(p);
                }
            }
            for (kind, mut batch) in by_kind {
                // In the run, two messages for one node arrive thousands of
                // events apart; delivered in the order they were produced,
                // the replies to one sender would find its tables in L1.
                rng.shuffle(&mut batch);
                let count = batch.len() as u64;
                let span = tracer.begin("treep.node/on_message");
                let ((), seg) =
                    timer.time(|| deliver(sim, batch, &mut rng, &mut buffer, &mut wave));
                tracer.end(span);
                let slot = totals.entry(kind).or_insert((0, 0.0));
                slot.0 += count;
                slot.1 += seg.calibrated_ns();
            }
        }
        wave.clear();
        for (kind, (count, ns)) in totals {
            let slot = per_kind.entry(kind).or_default();
            slot.0 += count;
            slot.1.push(ns / count.max(1) as f64);
        }
    }
    HandlerTimes {
        per_kind: per_kind
            .into_iter()
            .map(|(k, (count, rounds))| (k, (count, crate::host::median(&rounds))))
            .collect(),
        tick_ns: crate::host::median(&tick_ns),
        ticks: ticks_timed,
    }
}
