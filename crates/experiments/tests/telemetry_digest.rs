//! Digest-pinned proof that the telemetry subsystem is behaviourally inert.
//!
//! The ring constant below was captured from the engine **before** the
//! telemetry subsystem existed; the TreeP one moves with the protocol and
//! is captured with telemetry off. Two scenarios — a lossy ring workload
//! and a full TreeP topology with pub/sub + read path — must replay those
//! exact FNV event digests with telemetry disabled (default) *and* with
//! telemetry enabled: tracing allocates ids from plain counters, never the
//! simulation RNG, and schedules no events of its own, so turning it on may
//! not move a single event.

use simnet::{
    Context, LatencyModel, LinkModel, LossModel, NodeAddr, Protocol, SimConfig, SimDuration,
    Simulation, TelemetryConfig, TimerToken,
};
use treep::TreePConfig;
use workloads::TopologyBuilder;

/// Lossy ring ping/ack workload: enough RNG traffic (jitter, latency and
/// loss draws) that any perturbation of the stream shows in the digest.
struct RingProto {
    n: u64,
    acks: u64,
}

const PING_US: u64 = 200_000;

impl Protocol for RingProto {
    type Message = u8;

    fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
        let jitter = ctx.rng().gen_range_u64(0..PING_US);
        ctx.set_timer(SimDuration::from_micros(jitter), TimerToken(1));
    }

    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_, u8>) {
        let next = NodeAddr((ctx.self_addr().0 + 1) % self.n);
        ctx.send(next, 0);
        ctx.set_timer(SimDuration::from_micros(PING_US), TimerToken(1));
    }

    fn on_message(&mut self, from: NodeAddr, msg: u8, ctx: &mut Context<'_, u8>) {
        if msg == 0 {
            ctx.send(from, 1);
        } else {
            self.acks += 1;
        }
    }
}

fn ring_config() -> SimConfig {
    SimConfig {
        link: LinkModel {
            latency: LatencyModel::Uniform {
                min: SimDuration::from_millis(2),
                max: SimDuration::from_millis(20),
            },
            loss: LossModel::Bernoulli { p: 0.05 },
        },
        ..SimConfig::default()
    }
}

const RING_N: u64 = 256;
const RING_SEED: u64 = 0x7e1e_0010;
fn horizon() -> SimDuration {
    SimDuration::from_millis(4_000)
}

/// Pre-telemetry digest of the ring scenario.
const PIN_WHEEL: u64 = 0x178f_1fb0_64b5_9f44;
/// Digest of the TreeP pub/sub + read-path topology scenario. Unlike the
/// ring pin it follows the TreeP protocol: captured pre-telemetry as
/// `0x4a4b_6849_c770_b106`, re-pinned (with telemetry off) when keep-alives
/// stopped being acknowledged by nodes that ping the sender themselves, and
/// again (`0xb6db_9563_e4af_bb01` before) when an entry stamped on the gossip
/// horizon stopped being advertised, and again (`0xa8d7_b4b6_0d74_64f3`
/// before) when the tick stopped pinging a peer twice and pinging the parent
/// and own children at all.
const PIN_TREEP: u64 = 0x618e_ae80_acaf_7e61;

fn run_ring_wheel(telemetry: bool) -> u64 {
    let mut sim = Simulation::new(ring_config(), RING_SEED);
    sim.enable_digest();
    if telemetry {
        sim.enable_telemetry(TelemetryConfig::default());
    }
    for _ in 0..RING_N {
        sim.add_node(RingProto { n: RING_N, acks: 0 });
    }
    sim.run_for(horizon());
    sim.event_digest().unwrap()
}

fn run_treep(telemetry: bool) -> u64 {
    let config = TreePConfig::paper_case_fixed()
        .with_read_path(32)
        .with_pubsub();
    let builder = TopologyBuilder::new(48).with_config(config);
    let mut sim = Simulation::new(SimConfig::default(), RING_SEED);
    sim.enable_digest();
    if telemetry {
        sim.enable_telemetry(TelemetryConfig::default());
    }
    let _topo = builder.build(&mut sim);
    sim.run_for(horizon());
    sim.event_digest().unwrap()
}

#[test]
fn wheel_ring_digest_matches_pre_telemetry_engine() {
    let got = run_ring_wheel(false);
    println!("wheel ring digest: {got:#018x}");
    assert_eq!(got, PIN_WHEEL);
}

#[test]
fn treep_topology_digest_matches_pre_telemetry_engine() {
    let got = run_treep(false);
    println!("treep digest: {got:#018x}");
    assert_eq!(got, PIN_TREEP);
}

#[test]
fn telemetry_on_is_event_identical() {
    assert_eq!(run_ring_wheel(true), PIN_WHEEL);
    assert_eq!(run_treep(true), PIN_TREEP);
}
