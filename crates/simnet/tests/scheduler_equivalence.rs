//! Property test: the hierarchical timer wheel ([`Scheduler`]) replays the
//! exact event order of the retained binary-heap reference
//! ([`HeapScheduler`]) — including FIFO `(time, seq)` tie-breaking — on
//! seeded random schedule/pop traces spanning every tier of the wheel
//! (current granule, level-0, level-1 and the far heap). The wheel's
//! `peek`, which the engine looks one event ahead with, is checked against
//! every pop: it names the event's `(at, seq, target)` and, for a delivery
//! only, its message.

use simnet::{
    Event, EventKind, HeapScheduler, NextEvent, NodeAddr, Scheduler, SimRng, SimTime, TimerToken,
};

/// A total fingerprint of one popped event, used for exact comparison
/// (`EventKind` intentionally does not implement `PartialEq`).
fn fingerprint(event: &Event<u32>) -> String {
    format!("{event:?}")
}

/// What `peek` should show of `event`.
fn view_of(event: &Event<u32>) -> (SimTime, u64, NodeAddr, Option<u32>) {
    let message = match event.kind {
        EventKind::Deliver { msg, .. } => Some(msg),
        _ => None,
    };
    (event.at, event.seq, event.target(), message)
}

/// The same of a peeked view.
fn seen(next: NextEvent<'_, u32>) -> (SimTime, u64, NodeAddr, Option<u32>) {
    (next.at, next.seq, next.target, next.message.copied())
}

fn random_kind(rng: &mut SimRng) -> EventKind<u32> {
    match rng.gen_range_u64(0..4) {
        0 => EventKind::Deliver {
            src: NodeAddr(rng.gen_range_u64(0..64)),
            dest: NodeAddr(rng.gen_range_u64(0..64)),
            msg: rng.next_u64() as u32,
        },
        1 => EventKind::Timer {
            node: NodeAddr(rng.gen_range_u64(0..64)),
            token: TimerToken(rng.gen_range_u64(0..8)),
        },
        2 => EventKind::Start {
            node: NodeAddr(rng.gen_range_u64(0..64)),
        },
        _ => EventKind::Fail {
            node: NodeAddr(rng.gen_range_u64(0..64)),
        },
    }
}

/// Offsets are drawn from ranges that land in every tier of the wheel:
/// the current granule (< 256 µs), the level-0 wheel (< 65.5 ms), the
/// level-1 wheel (< 16.8 s) and the far heap beyond it. A coarse
/// quantisation bucket forces frequent equal-timestamp collisions so the
/// FIFO tie-break is genuinely exercised.
fn random_offset_us(rng: &mut SimRng) -> u64 {
    let raw = match rng.gen_range_u64(0..4) {
        0 => rng.gen_range_u64(0..256),
        1 => rng.gen_range_u64(0..65_536),
        2 => rng.gen_range_u64(0..16_800_000),
        _ => rng.gen_range_u64(16_800_000..60_000_000),
    };
    if rng.gen_bool(0.3) {
        // Quantise to provoke ties.
        raw / 1000 * 1000
    } else {
        raw
    }
}

fn run_trace(seed: u64, ops: usize) {
    let mut rng = SimRng::seed_from(seed);
    let mut wheel: Scheduler<u32> = Scheduler::new();
    let mut heap: HeapScheduler<u32> = HeapScheduler::new();

    for op in 0..ops {
        if rng.gen_bool(0.6) {
            // Schedule a burst of 1–4 events at offsets from the shared
            // clock (both schedulers advance `now` identically because
            // they pop identically).
            for _ in 0..rng.gen_range_u64(1..5) {
                let at = SimTime::from_micros(
                    wheel
                        .now()
                        .as_micros()
                        .saturating_add(random_offset_us(&mut rng)),
                );
                let kind = random_kind(&mut rng);
                let seq_w = wheel.schedule(at, kind.clone());
                let seq_h = heap.schedule(at, kind);
                assert_eq!(seq_w, seq_h, "seq divergence at op {op} (seed {seed})");
            }
        } else {
            assert_eq!(
                wheel.peek_time(),
                heap.peek_time(),
                "peek divergence at op {op} (seed {seed})"
            );
            let peeked = wheel.peek().map(seen);
            let w = wheel.pop();
            assert_eq!(
                peeked,
                w.as_ref().map(view_of),
                "peek is not the next pop at op {op} (seed {seed})"
            );
            let h = heap.pop();
            match (&w, &h) {
                (Some(w), Some(h)) => assert_eq!(
                    fingerprint(w),
                    fingerprint(h),
                    "pop divergence at op {op} (seed {seed})"
                ),
                (None, None) => {}
                _ => panic!("emptiness divergence at op {op} (seed {seed}): {w:?} vs {h:?}"),
            }
        }
        assert_eq!(wheel.len(), heap.len(), "len divergence at op {op}");
    }

    // Drain both completely: the tails must match event-for-event.
    loop {
        let peeked = wheel.peek().map(seen);
        match (wheel.pop(), heap.pop()) {
            (Some(w), Some(h)) => {
                assert_eq!(peeked, Some(view_of(&w)), "seed {seed}");
                assert_eq!(fingerprint(&w), fingerprint(&h), "seed {seed}");
            }
            (None, None) => break,
            (w, h) => panic!("drain divergence (seed {seed}): {w:?} vs {h:?}"),
        }
    }
    assert!(wheel.is_empty() && heap.is_empty());
    assert_eq!(wheel.scheduled_total(), heap.scheduled_total());
}

#[test]
fn wheel_replays_heap_reference_on_random_traces() {
    for seed in [1, 7, 42, 2005, 0xdead_beef] {
        run_trace(seed, 4000);
    }
}

#[test]
fn equal_timestamps_pop_in_fifo_order_on_both() {
    let mut wheel: Scheduler<u32> = Scheduler::new();
    let mut heap: HeapScheduler<u32> = HeapScheduler::new();
    let at = SimTime::from_micros(1_234_567);
    for i in 0..100u64 {
        wheel.schedule(at, EventKind::Start { node: NodeAddr(i) });
        heap.schedule(at, EventKind::Start { node: NodeAddr(i) });
    }
    for i in 0..100u64 {
        let w = wheel.pop().expect("wheel event");
        let h = heap.pop().expect("heap event");
        assert_eq!(fingerprint(&w), fingerprint(&h));
        match w.kind {
            EventKind::Start { node } => assert_eq!(node, NodeAddr(i), "FIFO order broken"),
            other => panic!("unexpected kind {other:?}"),
        }
    }
}
