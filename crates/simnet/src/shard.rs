//! Sharded (multi-threaded) simulation: a `Vec<Simulation>` and a barrier
//! loop.
//!
//! [`ShardedSimulation`] partitions the node population across OS threads by
//! **address range**: with `s` shards and capacity `n`, shard `k` owns
//! addresses `[k·⌈n/s⌉, (k+1)·⌈n/s⌉)`. TreeP's tree topology keeps most
//! traffic inside a subtree, so range sharding makes cross-shard messages
//! sparse.
//!
//! Each shard **is** a [`Simulation`] placed on its address range (see the
//! [`sim`](crate::sim) module docs): it pops, gates, dispatches and
//! digests events with the one engine this crate has, and parks sends to
//! addresses it does not own in a per-peer outbox. This module adds only
//! what a stand-alone engine lacks — the choice of how far each shard may
//! run, and the carrying of outboxes between shards.
//!
//! # Conservative time-barrier protocol
//!
//! The engine is a conservative parallel discrete-event simulator whose
//! *lookahead* is the minimum link latency `L`
//! ([`LatencyModel::min`](crate::link::LatencyModel::min)): a
//! message sent at time `t` can never arrive before `t + L`, so two shards
//! whose clocks are within `L` of each other cannot violate causality.
//! Execution proceeds in epochs of three [`std::sync::Barrier`] phases:
//!
//! 1. **Publish + window.** Every shard publishes the timestamp of its
//!    earliest pending event into a shared slot and waits. The leader
//!    (shard 0) takes the global minimum `T` and announces the window
//!    `[T, T + L)` — or the done flag when all queues are empty.
//! 2. **Process.** Each shard runs its own queue up to the window edge, in
//!    exact `(time, seq)` order. Sends to a remote shard land in its
//!    outbox with their arrival time already drawn (sender-side RNG, so
//!    replay is deterministic). After the window each shard flushes its
//!    outboxes into the mailbox matrix `mailbox[dst][src]` and waits.
//! 3. **Drain.** Each shard ingests `mailbox[self][src]` in ascending `src`
//!    order, scheduling one `Deliver` per message. Arrival times are
//!    provably `≥ T + L`, i.e. at-or-after the window edge every shard has
//!    reached, so no shard ever receives an event in its past.
//!
//! Determinism: each shard owns a seeded RNG stream, local events pop in
//! `(time, seq)` order, and mailbox drains are ordered by source shard, so
//! a run is a pure function of `(seed, capacity, shards, workload)`. Two
//! runs with the same parameters produce identical [`event_digest`]s — the
//! property asserted by `reproduce --scale`.
//!
//! A sharded run is *not* event-for-event identical to a stand-alone
//! [`Simulation`] with the same seed (RNG draws interleave differently
//! across shard streams, ties break on a shard-local `seq`), with one
//! exception: a **single-shard** `ShardedSimulation` is a stand-alone
//! engine behind a one-party barrier and replays it exactly — the tests
//! pin that.
//!
//! [`event_digest`]: ShardedSimulation::event_digest

use crate::metrics::SimMetrics;
use crate::protocol::{NodeAddr, Protocol};
use crate::sim::{fnv_fold, Outgoing, SimConfig, Simulation, FNV_OFFSET};
use crate::telemetry::{Telemetry, TelemetryConfig};
use crate::time::SimTime;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// One destination shard's row of the mailbox matrix: a locked inbox per
/// source shard.
type MailboxRow<M> = Vec<Mutex<Vec<Outgoing<M>>>>;

/// A simulation partitioned across OS threads by node address range.
///
/// The barrier protocol and the determinism argument are in the module
/// notes of `shard.rs`. The population must be added before the first `run_*` call;
/// node addition mid-run is not supported (a stand-alone [`Simulation`]
/// covers that use case).
pub struct ShardedSimulation<P: Protocol> {
    shards: Vec<Simulation<P>>,
    /// Addresses per shard.
    block: u64,
    /// Conservative lookahead (minimum link latency), in microseconds.
    lookahead_us: u64,
    next_addr: u64,
    capacity: u64,
}

impl<P: Protocol> ShardedSimulation<P> {
    /// Create a sharded simulation for up to `capacity` nodes split over
    /// `shards` threads.
    ///
    /// Shard RNG streams derive from `seed`; shard 0 uses `seed` itself so
    /// a single-shard run replays the stand-alone engine exactly.
    ///
    /// # Panics
    ///
    /// When `shards == 0`, `capacity == 0`, or (for `shards > 1`) the link
    /// model's minimum latency is zero — a conservative parallel simulation
    /// has no lookahead without a positive lower latency bound.
    pub fn new(config: SimConfig, seed: u64, capacity: usize, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(capacity > 0, "need a nonzero node capacity");
        let lookahead_us = config.link.latency.min().as_micros();
        assert!(
            shards == 1 || lookahead_us > 0,
            "sharded simulation requires a positive minimum link latency (lookahead)"
        );
        let block = (capacity as u64).div_ceil(shards as u64);
        ShardedSimulation {
            shards: (0..shards)
                .map(|index| Simulation::new_shard(config, seed, index, shards, block))
                .collect(),
            block,
            lookahead_us,
            next_addr: 0,
            capacity: capacity as u64,
        }
    }

    /// Add a node (start scheduled at time zero, before the first run).
    /// Panics past `capacity`.
    pub fn add_node(&mut self, proto: P) -> NodeAddr {
        assert!(
            self.next_addr < self.capacity,
            "sharded simulation is at capacity ({})",
            self.capacity
        );
        let shard = &mut self.shards[(self.next_addr / self.block) as usize];
        let addr = shard.add_node(proto);
        debug_assert_eq!(addr.0, self.next_addr, "shards fill in address order");
        self.next_addr += 1;
        addr
    }

    /// Turn telemetry on: one [`Telemetry`] sink per shard, with the shard
    /// index tagged into the high bits of trace/span ids. Behaviourally
    /// inert.
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        for shard in &mut self.shards {
            shard.enable_telemetry(config);
        }
    }

    /// Per-shard telemetry sinks, in shard order; empty when telemetry is
    /// off. Merge span logs with [`crate::chrome_trace`].
    pub fn telemetries(&self) -> Vec<&Telemetry> {
        self.shards.iter().filter_map(|s| s.telemetry()).collect()
    }

    /// Barrier-stall observations summed over all shards.
    pub fn barrier_stall_samples(&self) -> u64 {
        self.telemetries()
            .iter()
            .map(|t| t.barrier_stall_histogram().count())
            .sum()
    }

    /// Start folding dispatched events into per-shard FNV-1a digests.
    pub fn enable_digest(&mut self) {
        for shard in &mut self.shards {
            shard.enable_digest();
        }
    }

    /// Combined event digest: per-shard digests folded in shard order.
    /// `None` until [`ShardedSimulation::enable_digest`] is called.
    pub fn event_digest(&self) -> Option<u64> {
        self.shards.iter().try_fold(FNV_OFFSET, |d, shard| {
            Some(fnv_fold(d, shard.event_digest()?))
        })
    }

    /// Aggregate metrics summed over all shards.
    pub fn metrics(&self) -> SimMetrics {
        self.shards
            .iter()
            .fold(SimMetrics::default(), |sum, shard| {
                sum.plus(&shard.metrics())
            })
    }
}

impl<P> ShardedSimulation<P>
where
    P: Protocol + Send,
    P::Message: Send,
{
    /// Run until virtual time reaches `deadline` (events at exactly
    /// `deadline` are processed) or all queues drain. Spawns one OS thread
    /// per shard for the duration of the call.
    pub fn run_until(&mut self, deadline: SimTime) {
        let nshards = self.shards.len();
        let deadline_us = deadline.as_micros();
        let limit_us = deadline_us.saturating_add(1);
        let lookahead_us = self.lookahead_us.max(1);

        // mailbox[dst][src]: written by src during the process phase,
        // drained by dst after the post-process barrier.
        let mailboxes: Vec<MailboxRow<P::Message>> = (0..nshards)
            .map(|_| (0..nshards).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        let next_times: Vec<AtomicU64> = (0..nshards).map(|_| AtomicU64::new(u64::MAX)).collect();
        let window_end = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let barrier = Barrier::new(nshards);

        std::thread::scope(|scope| {
            for (index, shard) in self.shards.iter_mut().enumerate() {
                let mailboxes = &mailboxes;
                let next_times = &next_times;
                let window_end = &window_end;
                let done = &done;
                let barrier = &barrier;
                scope.spawn(move || loop {
                    // Wrap each barrier wait with a wall-clock stall histogram
                    // when telemetry is on (the wait time is where a
                    // load-imbalanced epoch shows up).
                    let timed = shard.telemetry().is_some();
                    let wait = |shard: &mut Simulation<P>| {
                        if timed {
                            let started = std::time::Instant::now();
                            barrier.wait();
                            let nanos = started.elapsed().as_nanos() as u64;
                            if let Some(t) = shard.telemetry_mut() {
                                t.record_barrier_stall(nanos);
                            }
                        } else {
                            barrier.wait();
                        }
                    };
                    // Phase 1: publish earliest pending time; leader picks
                    // the window.
                    next_times[index].store(
                        shard.next_event_time().map_or(u64::MAX, |t| t.as_micros()),
                        Ordering::SeqCst,
                    );
                    wait(shard);
                    if index == 0 {
                        let t = next_times
                            .iter()
                            .map(|a| a.load(Ordering::SeqCst))
                            .min()
                            .expect("at least one shard");
                        if t == u64::MAX || t > deadline_us {
                            done.store(true, Ordering::SeqCst);
                        } else {
                            window_end.store(
                                t.saturating_add(lookahead_us).min(limit_us),
                                Ordering::SeqCst,
                            );
                        }
                    }
                    wait(shard);
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                    // Phase 2: process the window — events strictly before
                    // its end — then flush cross-shard sends into the
                    // mailbox matrix.
                    let w_end = window_end.load(Ordering::SeqCst);
                    shard.run_until(SimTime::from_micros(w_end - 1));
                    for (dst, buf) in shard.outboxes_mut().iter_mut().enumerate() {
                        if !buf.is_empty() {
                            mailboxes[dst][index].lock().expect("mailbox").append(buf);
                        }
                    }
                    wait(shard);
                    // Phase 3: drain our mailbox in source-shard order.
                    // Arrivals are >= window end, so nothing lands in the
                    // past of any shard.
                    for slot in &mailboxes[index] {
                        let incoming = std::mem::take(&mut *slot.lock().expect("mailbox"));
                        for out in incoming {
                            debug_assert!(out.arrival.as_micros() >= w_end.min(limit_us - 1));
                            shard.schedule_delivery(out);
                        }
                    }
                });
            }
        });
    }
}

#[cfg(test)]
impl<P: Protocol> ShardedSimulation<P> {
    /// The shard owning `addr`, if any.
    fn owner(&self, addr: NodeAddr) -> Option<&Simulation<P>> {
        self.shards.get((addr.0 / self.block) as usize)
    }

    /// Is the node currently alive?
    pub(crate) fn is_alive(&self, addr: NodeAddr) -> bool {
        self.owner(addr).is_some_and(|s| s.is_alive(addr))
    }

    /// Total events still queued across all shards.
    pub(crate) fn pending_events(&self) -> usize {
        self.shards.iter().map(Simulation::pending_events).sum()
    }
}

#[cfg(test)]
impl<P> ShardedSimulation<P>
where
    P: Protocol + Send,
    P::Message: Send,
{
    /// Run until every shard's queue drains.
    pub(crate) fn run_until_idle(&mut self) {
        self.run_until(SimTime::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LatencyModel, LinkModel, LossModel};
    use crate::protocol::{Context, TimerToken};
    use crate::time::SimDuration;

    /// Chatty test protocol: every node pings its successor on start; each
    /// ping is answered; node 0 also re-pings on a timer a few times.
    #[derive(Clone, Default)]
    struct Chatter {
        n: u64,
        pings: u32,
        pongs: u32,
        rounds: u32,
    }

    #[derive(Clone, Debug)]
    enum Msg {
        Ping,
        Pong,
    }

    impl Protocol for Chatter {
        type Message = Msg;

        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            let next = NodeAddr((ctx.self_addr().0 + 1) % self.n);
            ctx.send(next, Msg::Ping);
            ctx.set_timer(SimDuration::from_millis(200), TimerToken(1));
        }

        fn on_message(&mut self, from: NodeAddr, msg: Msg, ctx: &mut Context<'_, Msg>) {
            match msg {
                Msg::Ping => {
                    self.pings += 1;
                    ctx.send(from, Msg::Pong);
                }
                Msg::Pong => self.pongs += 1,
            }
        }

        fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_, Msg>) {
            self.rounds += 1;
            if self.rounds < 3 {
                let next = NodeAddr((ctx.self_addr().0 + 1) % self.n);
                ctx.send(next, Msg::Ping);
                ctx.set_timer(SimDuration::from_millis(200), TimerToken(1));
            }
        }
    }

    fn config() -> SimConfig {
        SimConfig {
            link: LinkModel {
                latency: LatencyModel::Uniform {
                    min: SimDuration::from_millis(5),
                    max: SimDuration::from_millis(50),
                },
                loss: LossModel::None,
            },
            max_events: 1_000_000,
        }
    }

    fn run_sharded(seed: u64, n: u64, shards: usize) -> (SimMetrics, u64) {
        let mut sim: ShardedSimulation<Chatter> =
            ShardedSimulation::new(config(), seed, n as usize, shards);
        sim.enable_digest();
        for _ in 0..n {
            sim.add_node(Chatter {
                n,
                ..Default::default()
            });
        }
        sim.run_until_idle();
        (sim.metrics(), sim.event_digest().unwrap())
    }

    #[test]
    fn cross_shard_messages_are_delivered() {
        let n = 16u64;
        let (m, _) = run_sharded(11, n, 4);
        // Every node pings its ring successor 3 times (start + 2 timer
        // rounds) and every ping is answered.
        assert_eq!(m.messages_sent, n * 6);
        assert_eq!(m.messages_delivered, n * 6);
        assert_eq!(m.messages_lost, 0);
        assert_eq!(m.nodes_started, n);
    }

    #[test]
    fn sharded_run_is_deterministic() {
        let a = run_sharded(42, 24, 4);
        let b = run_sharded(42, 24, 4);
        assert_eq!(a, b, "same seed/shape must replay identically");
        let c = run_sharded(43, 24, 4);
        assert_ne!(a.1, c.1, "different seed should change the digest");
    }

    #[test]
    fn single_shard_replays_single_threaded_engine() {
        // Shard 0's RNG stream is `seed` itself, so a 1-shard run and the
        // plain Simulation dispatch identical events in identical order.
        let n = 12u64;
        let seed = 7;
        let (sharded_metrics, sharded_digest) = run_sharded(seed, n, 1);

        let mut sim: Simulation<Chatter> = Simulation::new(config(), seed);
        sim.enable_digest();
        for _ in 0..n {
            sim.add_node(Chatter {
                n,
                ..Default::default()
            });
        }
        sim.run_until_idle();
        // The sharded digest folds each shard's digest into a fresh FNV, so
        // wrap the single-threaded digest the same way before comparing.
        let wrapped = fnv_fold(FNV_OFFSET, sim.event_digest().unwrap());
        assert_eq!(wrapped, sharded_digest);
        assert_eq!(sim.metrics(), sharded_metrics);
    }

    #[test]
    fn run_until_respects_deadline() {
        let n = 8u64;
        let mut sim: ShardedSimulation<Chatter> =
            ShardedSimulation::new(config(), 3, n as usize, 2);
        for _ in 0..n {
            sim.add_node(Chatter {
                n,
                ..Default::default()
            });
        }
        // At 100ms the start pings/pongs are done but no 200ms timer round
        // has fired yet.
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(sim.metrics().timers_fired, 0);
        assert!(sim.metrics().messages_delivered >= n);
        sim.run_until_idle();
        assert_eq!(sim.metrics().timers_fired, n * 3);
        assert!((0..n).all(|a| sim.is_alive(NodeAddr(a))));
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    #[should_panic(expected = "positive minimum link latency")]
    fn zero_lookahead_is_rejected() {
        let cfg = SimConfig {
            link: LinkModel {
                latency: LatencyModel::Fixed(SimDuration::ZERO),
                loss: LossModel::None,
            },
            max_events: 1000,
        };
        let _sim: ShardedSimulation<Chatter> = ShardedSimulation::new(cfg, 1, 4, 2);
    }
}
