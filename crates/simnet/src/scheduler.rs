//! The event queue: a hierarchical timer wheel with exact `(time, seq)`
//! FIFO ordering.
//!
//! # Why a wheel
//!
//! The original scheduler was a single `BinaryHeap` over every pending
//! event. At million-node scale the queue holds one keep-alive timer per
//! node plus every in-flight message, so each `schedule`/`pop` paid
//! `O(log n)` comparisons over a cache-hostile heap of ~10⁶ entries. The
//! wheel replaces that with `O(1)` amortized bucket pushes for the
//! near-horizon timers that dominate keep-alive traffic, while an explicit
//! far-horizon heap keeps arbitrarily distant timers correct.
//!
//! # Layout
//!
//! Each pending event is stored once, in one of two stores with a LIFO
//! list of their empty slots each, so neither holds more slots than the
//! peak number of events of its own kinds pending at once:
//!
//! * the **slab** holds deliveries, one `Option<Event<M>>` each: a slot is
//!   as large as the largest message (160 B for `TreePMessage`);
//! * the **control table** holds timers, starts and crashes, 24 B a record
//!   (the node and the timer token; the key holds the time and `seq`).
//!
//! At 10⁴ nodes most pending events are control records — a maintenance
//! tick per node and a deadline per open request — and a build starts every
//! node at once, so a single store sized for messages would spend most of
//! its bytes on events that carry 16. The tiers hold only 24-byte keys
//! `(time, seq, slot)`, where `slot` names a slab slot or, with its top bit
//! set, a control record; `pop` takes the event out of its store,
//! rebuilding a control record's [`Event`]. An event therefore costs its
//! store's slot once, however many tiers its key cascades through, and a
//! bucket's spare capacity costs 24 bytes a key instead of a whole event.
//!
//! Virtual time is bucketed into **granules** of `2^8` µs (256 µs). Pending
//! keys live in exactly one of four tiers, ordered by distance from the
//! cursor:
//!
//! 1. **`current`** — a small binary heap holding every key whose granule
//!    is at or before the cursor granule. This is the only tier that pops,
//!    so global `(time, seq)` order reduces to the heap's comparator.
//! 2. **Level 0** — 256 slots of one granule each (a 65.5 ms span). A slot
//!    is an unordered `Vec`; it is heapified wholesale into `current` when
//!    the cursor reaches it.
//! 3. **Level 1** — 256 slots of 256 granules each (a 16.8 s span). When
//!    the level-0 window is exhausted, the next non-empty level-1 slot is
//!    redistributed into level-0 slots (each key cascades at most once).
//! 4. **Far heap** — a `BinaryHeap` for everything beyond the level-1
//!    window. When both wheel levels drain, the far heap re-seeds the
//!    level-1 window around its earliest key.
//!
//! Scheduling routes an event to the outermost tier that can hold it;
//! popping always takes the minimum of `current`, which is the global
//! minimum because every other tier only holds strictly later granules.
//! Events scheduled *behind* the cursor granule (the clamped-to-now case,
//! and sub-granule message latencies) fall into `current` directly, where
//! the comparator restores exact ordering — so the wheel's pop sequence is
//! byte-identical to the reference heap's, ties included (pinned by
//! `tests/scheduler_equivalence.rs`).
//!
//! When a level-0 granule becomes `current`, the wheel hints that
//! granule's slots, in whichever store each key names, into cache
//! ([`prefetch`]). The events were written
//! when they were scheduled, thousands of events earlier at 10⁴ nodes, and
//! are cold by now; the engine's one-event look-ahead
//! ([`Scheduler::peek`]) reads each of them before it is popped, and
//! without the hint it would wait on memory every time.

use crate::event::{Event, EventKind, EventSeq};
use crate::prefetch::prefetch;
use crate::protocol::{NodeAddr, TimerToken};
use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A pending event's place in the wheel: its `(time, seq)` and the slot
/// that holds it, in the slab or, with [`CONTROL`] set, in the control
/// table. The derived order compares `(at, seq)` first, and `seq` is
/// unique, so the slot never decides; the tiers hold `Reverse<Key>` so the
/// `BinaryHeap`s (max-heaps) pop the earliest first.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: EventSeq,
    slot: usize,
}

/// The bit of [`Key::slot`] that says the event is a control record.
const CONTROL: usize = 1 << (usize::BITS - 1);

/// Which store holds a key's event, and where.
enum Store {
    Slab(usize),
    Control(usize),
}

impl Key {
    fn store(&self) -> Store {
        if self.slot & CONTROL == 0 {
            Store::Slab(self.slot)
        } else {
            Store::Control(self.slot & !CONTROL)
        }
    }
}

/// A pending timer, start or crash: the event less its `(at, seq)`, which
/// its key holds.
#[derive(Clone, Copy)]
enum Control {
    Timer { node: NodeAddr, token: TimerToken },
    Start { node: NodeAddr },
    Fail { node: NodeAddr },
}

impl Control {
    fn node(self) -> NodeAddr {
        match self {
            Control::Timer { node, .. } | Control::Start { node } | Control::Fail { node } => node,
        }
    }

    fn kind<M>(self) -> EventKind<M> {
        match self {
            Control::Timer { node, token } => EventKind::Timer { node, token },
            Control::Start { node } => EventKind::Start { node },
            Control::Fail { node } => EventKind::Fail { node },
        }
    }
}

const _: () = assert!(std::mem::size_of::<Key>() == 24);
const _: () = assert!(std::mem::size_of::<Control>() <= 24);
// An empty slab slot costs nothing beyond the event it once held.
const _: () =
    assert!(std::mem::size_of::<Option<Event<u64>>>() == std::mem::size_of::<Event<u64>>());

/// Put `item` into `store`, in the most recently freed slot if there is
/// one, and return its index.
fn put<T>(store: &mut Vec<T>, free: &mut Vec<usize>, item: T) -> usize {
    match free.pop() {
        Some(slot) => {
            store[slot] = item;
            slot
        }
        None => {
            store.push(item);
            store.len() - 1
        }
    }
}

/// What [`Scheduler::peek`] shows of the next event: its place in the
/// order, the node it targets and, for a delivery, the message.
#[derive(Debug)]
pub struct NextEvent<'a, M> {
    /// Virtual time at which the event is dispatched.
    pub at: SimTime,
    /// FIFO tie-breaker for events scheduled at the same time.
    pub seq: EventSeq,
    /// The node the event targets ([`Event::target`]).
    pub target: NodeAddr,
    /// The message a delivery carries; `None` for a timer, a start or a
    /// crash.
    pub message: Option<&'a M>,
}

/// [`HeapScheduler`]'s entry: the whole event, reverse-ordered by
/// `(time, seq)` so the `BinaryHeap` (a max-heap) pops the earliest first.
struct Entry<M> {
    event: Event<M>,
}

impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.event.at == other.event.at && self.event.seq == other.event.seq
    }
}
impl<M> Eq for Entry<M> {}

impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: smallest (time, seq) should be the "greatest" heap entry.
        (other.event.at, other.event.seq).cmp(&(self.event.at, self.event.seq))
    }
}

/// log2 of the level-0 granule in microseconds (256 µs).
const L0_SHIFT: u32 = 8;
/// log2 of the level-1 granule in microseconds (65.536 ms).
const L1_SHIFT: u32 = 16;
/// Slots per wheel level (so level 0 spans one level-1 granule exactly).
const SLOTS: usize = 1 << (L1_SHIFT - L0_SHIFT);

#[inline]
fn g0(at: SimTime) -> u64 {
    at.as_micros() >> L0_SHIFT
}

#[inline]
fn g1(at: SimTime) -> u64 {
    at.as_micros() >> L1_SHIFT
}

/// Discrete-event scheduler (hierarchical timer wheel).
///
/// Events inserted with [`Scheduler::schedule`] are popped in non-decreasing
/// time order; events with equal timestamps are popped in insertion (FIFO)
/// order, which keeps simulations deterministic. The pop sequence is exactly
/// that of [`HeapScheduler`], the retained reference implementation.
pub struct Scheduler<M> {
    /// Every pending delivery, in the slot its key names.
    slab: Vec<Option<Event<M>>>,
    /// The empty slots of `slab`, the most recently freed last.
    free: Vec<usize>,
    /// Every pending timer, start and crash, in the record its key names.
    control: Vec<Control>,
    /// The unused records of `control`, the most recently freed last.
    control_free: Vec<usize>,
    /// Keys with granule ≤ `cursor0`, popped directly.
    current: BinaryHeap<Reverse<Key>>,
    /// Level-0 slots: one granule each, window `[base0, base0 + SLOTS)`.
    level0: Vec<Vec<Reverse<Key>>>,
    /// Level-1 slots: `SLOTS` granules each, window `[base1, base1 + SLOTS)`
    /// in level-1 granule units.
    level1: Vec<Vec<Reverse<Key>>>,
    /// Everything at or beyond the end of the level-1 window.
    far: BinaryHeap<Reverse<Key>>,
    /// All level-0 granules ≤ `cursor0` have been routed to `current`.
    cursor0: u64,
    /// Start of the level-0 window, in level-0 granules.
    base0: u64,
    /// Start of the level-1 window, in level-1 granules.
    base1: u64,
    len: usize,
    next_seq: EventSeq,
    now: SimTime,
}

impl<M> Default for Scheduler<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Scheduler<M> {
    /// Create an empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            slab: Vec::new(),
            free: Vec::new(),
            control: Vec::new(),
            control_free: Vec::new(),
            current: BinaryHeap::new(),
            level0: (0..SLOTS).map(|_| Vec::new()).collect(),
            level1: (0..SLOTS).map(|_| Vec::new()).collect(),
            far: BinaryHeap::new(),
            cursor0: 0,
            base0: 0,
            base1: 0,
            len: 0,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current virtual time (time of the most recently popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Schedule `kind` for dispatch at time `at`.
    ///
    /// Scheduling in the past is clamped to the current time: the event will
    /// be dispatched "now", after any events already scheduled for the
    /// current instant.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind<M>) -> EventSeq {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let slot = match kind {
            EventKind::Timer { node, token } => self.put_control(Control::Timer { node, token }),
            EventKind::Start { node } => self.put_control(Control::Start { node }),
            EventKind::Fail { node } => self.put_control(Control::Fail { node }),
            deliver => put(
                &mut self.slab,
                &mut self.free,
                Some(Event::new(at, seq, deliver)),
            ),
        };
        let key = Reverse(Key { at, seq, slot });
        let eg0 = g0(at);
        if eg0 <= self.cursor0 {
            self.current.push(key);
        } else if eg0 < self.base0 + SLOTS as u64 {
            self.level0[(eg0 as usize) & (SLOTS - 1)].push(key);
        } else {
            let eg1 = g1(at);
            if eg1 < self.base1 + SLOTS as u64 {
                self.level1[(eg1 as usize) & (SLOTS - 1)].push(key);
            } else {
                self.far.push(key);
            }
        }
        // Keep the invariant "`current` is non-empty whenever the scheduler
        // is non-empty" so `peek_time` stays O(1) with `&self`.
        if self.current.is_empty() {
            self.advance();
        }
        seq
    }

    /// Store a control record; returns the key slot that names it.
    fn put_control(&mut self, control: Control) -> usize {
        CONTROL | put(&mut self.control, &mut self.control_free, control)
    }

    /// Pull the next non-empty tier into `current`. Called only when
    /// `current` is empty; afterwards `current` is non-empty iff any event
    /// is pending.
    ///
    /// Window invariants maintained here and relied on by `schedule`:
    /// `base0` is always a multiple of `SLOTS` (so slot indices never
    /// alias), `base0 >= (base1 << (L1_SHIFT - L0_SHIFT)) - SLOTS` (so an
    /// event past the level-0 window is never below the level-1 window),
    /// and level-0 slots at granules `<= cursor0` are empty (they route to
    /// `current` instead).
    fn advance(&mut self) {
        debug_assert!(self.current.is_empty());
        if self.len == 0 {
            return;
        }
        loop {
            // Phase 1: scan the remainder of the level-0 window.
            let w0_end = self.base0 + SLOTS as u64;
            let start = (self.cursor0 + 1).max(self.base0);
            for g in start..w0_end {
                let idx = (g as usize) & (SLOTS - 1);
                if !self.level0[idx].is_empty() {
                    // Recycle the drained heap's buffer into the slot so
                    // steady-state operation stops allocating.
                    let bucket = std::mem::take(&mut self.level0[idx]);
                    let spare = std::mem::replace(&mut self.current, BinaryHeap::from(bucket));
                    self.level0[idx] = spare.into_vec();
                    self.cursor0 = g;
                    for Reverse(key) in self.current.iter() {
                        match key.store() {
                            Store::Slab(i) => prefetch(std::slice::from_ref(&self.slab[i])),
                            Store::Control(i) => prefetch(std::slice::from_ref(&self.control[i])),
                        }
                    }
                    return;
                }
            }
            self.cursor0 = self.cursor0.max(w0_end - 1);
            // Phase 2: level 0 exhausted — cascade the next non-empty
            // level-1 slot into fresh level-0 slots (each event cascades at
            // most once).
            let w1_end = self.base1 + SLOTS as u64;
            let start1 = (w0_end >> (L1_SHIFT - L0_SHIFT)).max(self.base1);
            let mut cascaded = false;
            for gg in start1..w1_end {
                let idx = (gg as usize) & (SLOTS - 1);
                if !self.level1[idx].is_empty() {
                    let items = std::mem::take(&mut self.level1[idx]);
                    self.base0 = gg << (L1_SHIFT - L0_SHIFT);
                    self.cursor0 = self.cursor0.max(self.base0 - 1);
                    for key in items {
                        let eg0 = g0(key.0.at);
                        debug_assert!(eg0 >= self.base0 && eg0 < self.base0 + SLOTS as u64);
                        self.level0[(eg0 as usize) & (SLOTS - 1)].push(key);
                    }
                    cascaded = true;
                    break;
                }
            }
            if cascaded {
                continue;
            }
            // Phase 3: both wheel levels exhausted — re-seed the level-1
            // window at the far heap's earliest event (each event migrates
            // out of `far` at most once).
            let Some(Reverse(first)) = self.far.peek() else {
                debug_assert_eq!(self.len, 0, "events lost outside every tier");
                return;
            };
            self.base1 = g1(first.at);
            let new_w1_end = self.base1 + SLOTS as u64;
            while let Some(Reverse(next)) = self.far.peek() {
                if g1(next.at) >= new_w1_end {
                    break;
                }
                let key = self.far.pop().expect("peeked");
                let idx = (g1(key.0.at) as usize) & (SLOTS - 1);
                self.level1[idx].push(key);
            }
            // Park the level-0 window one span *before* the new level-1
            // window, so the next phase-2 scan starts exactly at `base1`
            // and finds the slot just seeded.
            self.base0 = (self.base1 << (L1_SHIFT - L0_SHIFT)) - SLOTS as u64;
        }
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.current.peek().map(|Reverse(key)| key.at)
    }

    /// The event the next [`Scheduler::pop`] returns, unless something
    /// earlier is scheduled first. `O(1)`: `current` always holds the
    /// global minimum.
    pub fn peek(&self) -> Option<NextEvent<'_, M>> {
        let Reverse(key) = self.current.peek()?;
        let (target, message) = match key.store() {
            Store::Slab(i) => {
                let event = self.slab[i].as_ref().expect("a key names a full slot");
                (event.target(), event.message())
            }
            Store::Control(i) => (self.control[i].node(), None),
        };
        Some(NextEvent {
            at: key.at,
            seq: key.seq,
            target,
            message,
        })
    }

    /// Pop the next event, advancing the current time to its timestamp.
    pub fn pop(&mut self) -> Option<Event<M>> {
        let Reverse(key) = self.current.pop()?;
        let event = match key.store() {
            Store::Slab(i) => {
                self.free.push(i);
                self.slab[i].take().expect("a key names a full slot")
            }
            Store::Control(i) => {
                self.control_free.push(i);
                Event::new(key.at, key.seq, self.control[i].kind())
            }
        };
        self.len -= 1;
        if self.current.is_empty() {
            self.advance();
        }
        debug_assert!(event.at >= self.now, "time went backwards");
        self.now = event.at;
        Some(event)
    }
}

/// The retained `BinaryHeap` reference scheduler (the pre-wheel engine).
///
/// It exists only as the reference that
/// `crates/simnet/tests/scheduler_equivalence.rs` replays seeded random
/// traces against, to pin the wheel's exact pop order. Its semantics are
/// the documented contract: pop in `(time, seq)` order, clamp past
/// schedules to `now`.
pub struct HeapScheduler<M> {
    heap: BinaryHeap<Entry<M>>,
    next_seq: EventSeq,
    now: SimTime,
}

impl<M> Default for HeapScheduler<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> HeapScheduler<M> {
    /// Create an empty scheduler at time zero.
    pub fn new() -> Self {
        HeapScheduler {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Schedule `kind` for dispatch at time `at` (past times clamp to now).
    pub fn schedule(&mut self, at: SimTime, kind: EventKind<M>) -> EventSeq {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            event: Event::new(at, seq, kind),
        });
        seq
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.event.at)
    }

    /// Pop the next event, advancing the current time to its timestamp.
    pub fn pop(&mut self) -> Option<Event<M>> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.event.at >= self.now, "time went backwards");
        self.now = entry.event.at;
        Some(entry.event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(n: u64) -> EventKind<()> {
        EventKind::Start { node: NodeAddr(n) }
    }

    #[test]
    fn pops_in_time_order() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule(SimTime::from_millis(30), start(3));
        s.schedule(SimTime::from_millis(10), start(1));
        s.schedule(SimTime::from_millis(20), start(2));
        let order: Vec<u64> = std::iter::from_fn(|| s.pop())
            .map(|e| e.target().0)
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(s.now(), SimTime::from_millis(30));
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut s: Scheduler<()> = Scheduler::new();
        for n in 0..10 {
            s.schedule(SimTime::from_millis(5), start(n));
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.pop())
            .map(|e| e.target().0)
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn scheduling_in_the_past_is_clamped() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule(SimTime::from_millis(10), start(1));
        s.pop().unwrap();
        assert_eq!(s.now(), SimTime::from_millis(10));
        s.schedule(SimTime::from_millis(1), start(2));
        let e = s.pop().unwrap();
        assert_eq!(e.at, SimTime::from_millis(10));
        assert_eq!(e.target(), NodeAddr(2));
    }

    #[test]
    fn bookkeeping() {
        let mut s: Scheduler<()> = Scheduler::new();
        assert!(s.is_empty());
        assert_eq!(s.peek_time(), None);
        s.schedule(SimTime::from_millis(1), start(0));
        s.schedule(SimTime::from_millis(2), start(1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.scheduled_total(), 2);
        assert_eq!(s.peek_time(), Some(SimTime::from_millis(1)));
        s.pop();
        s.pop();
        assert!(s.is_empty());
        assert_eq!(s.scheduled_total(), 2);
    }

    #[test]
    fn events_across_every_tier_pop_in_order() {
        // One event per tier: current granule, level 0, level 1, far — plus
        // ties at each boundary.
        let mut s: Scheduler<()> = Scheduler::new();
        let times: Vec<u64> = vec![
            0,              // current (granule 0)
            100,            // current (granule 0, 256 µs granule)
            1_000,          // level 0
            60_000,         // level 0 (near window end)
            100_000,        // level 1
            10_000_000,     // level 1 (10 s)
            20_000_000_000, // far (20000 s)
            20_000_000_001, // far tie-breaker neighbour
        ];
        // Schedule in reverse so insertion order disagrees with time order.
        for (i, &t) in times.iter().enumerate().rev() {
            s.schedule(SimTime::from_micros(t), start(i as u64));
        }
        // Equal-time FIFO probes at a few of those instants.
        s.schedule(SimTime::from_micros(100), start(100));
        s.schedule(SimTime::from_micros(10_000_000), start(101));
        let popped: Vec<(u64, u64)> = std::iter::from_fn(|| s.pop())
            .map(|e| (e.at.as_micros(), e.target().0))
            .collect();
        let expect: Vec<(u64, u64)> = vec![
            (0, 0),
            (100, 1),
            (100, 100),
            (1_000, 2),
            (60_000, 3),
            (100_000, 4),
            (10_000_000, 5),
            (10_000_000, 101),
            (20_000_000_000, 6),
            (20_000_000_001, 7),
        ];
        assert_eq!(popped, expect);
    }

    #[test]
    fn interleaved_schedule_pop_keeps_order() {
        // Pop a far event, then schedule behind the advanced cursor: the
        // late event must still pop in correct time order.
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule(SimTime::from_secs(5), start(1));
        let e = s.pop().unwrap();
        assert_eq!(e.target(), NodeAddr(1));
        // now = 5 s; schedule 5 s + 10 µs and 5 s + 300 ms: one lands behind
        // the (rebased) cursor granule, one ahead.
        s.schedule(SimTime::from_micros(5_000_010), start(2));
        s.schedule(SimTime::from_micros(5_300_000), start(3));
        s.schedule(SimTime::from_micros(5_000_010), start(4));
        let order: Vec<u64> = std::iter::from_fn(|| s.pop())
            .map(|e| e.target().0)
            .collect();
        assert_eq!(order, vec![2, 4, 3]);
    }

    fn deliver(n: u64) -> EventKind<()> {
        EventKind::Deliver {
            src: NodeAddr(n),
            dest: NodeAddr(n + 1),
            msg: (),
        }
    }

    /// Occupied slab slots and control records in use.
    fn occupancy(s: &Scheduler<()>) -> (usize, usize) {
        let slab = s.slab.iter().filter(|e| e.is_some()).count();
        (slab, s.control.len() - s.control_free.len())
    }

    #[test]
    fn the_slab_holds_one_slot_per_pending_event_and_no_more() {
        let mut rng = crate::rng::SimRng::seed_from(7);
        let mut s: Scheduler<()> = Scheduler::new();
        // Pending deliveries and control events, and the peak of each.
        let (mut pending, mut peak) = ([0usize; 2], [0usize; 2]);
        let mut check = |s: &Scheduler<()>, pending: [usize; 2], op: usize| {
            peak = [peak[0].max(pending[0]), peak[1].max(pending[1])];
            assert_eq!(occupancy(s), (pending[0], pending[1]), "op {op}");
            assert_eq!(s.len(), pending[0] + pending[1], "op {op}");
            assert!(s.slab.len() <= peak[0], "op {op}: a slab slot leaked");
            assert!(s.control.len() <= peak[1], "op {op}: a record leaked");
            peak
        };
        // Grow the queue, then shrink it, so freed slots are reused and the
        // drain below starts from a deep queue.
        for op in 0..8_000 {
            if rng.gen_bool(if op < 3_000 { 0.7 } else { 0.4 }) {
                let now = s.now().as_micros();
                let at = match rng.gen_range_u64(0..5) {
                    0 => now.saturating_sub(rng.gen_range_u64(1..1_000)), // clamped to now
                    1 => now + rng.gen_range_u64(0..256),                 // sub-granule
                    2 => now + rng.gen_range_u64(256..65_536),            // level 0
                    3 => now + rng.gen_range_u64(65_536..16_800_000),     // level 1
                    _ => now + rng.gen_range_u64(16_800_000..60_000_000), // far
                };
                let is_control = rng.gen_bool(0.5);
                let kind = if is_control {
                    start(op as u64)
                } else {
                    deliver(op as u64)
                };
                s.schedule(SimTime::from_micros(at), kind);
                pending[usize::from(is_control)] += 1;
            } else if let Some(e) = s.pop() {
                pending[usize::from(e.message().is_none())] -= 1;
            }
            check(&s, pending, op);
        }
        while let Some(e) = s.pop() {
            pending[usize::from(e.message().is_none())] -= 1;
            check(&s, pending, usize::MAX);
        }
        let peak = check(&s, pending, usize::MAX);
        assert!(
            peak[0] > 250 && peak[1] > 250,
            "the trace never built a deep queue"
        );
        assert_eq!((s.slab.len(), s.control.len()), (peak[0], peak[1]));
        assert_eq!(s.free.len(), s.slab.len());
        assert_eq!(s.control_free.len(), s.control.len());
    }

    #[test]
    fn timers_starts_and_fails_take_no_slab_slot() {
        let mut s: Scheduler<()> = Scheduler::new();
        for n in 0..3_000u64 {
            let at = SimTime::from_micros(n * 997 % 20_000_000);
            s.schedule(at, start(n));
            s.schedule(at, EventKind::Fail { node: NodeAddr(n) });
            let token = TimerToken(n << 32 | 5);
            s.schedule(
                at,
                EventKind::Timer {
                    node: NodeAddr(n),
                    token,
                },
            );
        }
        s.schedule(SimTime::from_millis(7), deliver(41));
        assert_eq!(s.slab.len(), 1, "only the delivery is in the slab");
        assert_eq!(occupancy(&s), (1, 9_000));
        // Every event comes back whole: the delivery from the slab, the
        // others rebuilt from their records.
        let mut seen = [0; 4];
        while let Some(e) = s.pop() {
            let n = e.target().0;
            let tag = match e.kind {
                EventKind::Deliver { src, .. } => {
                    assert_eq!((src, e.at), (NodeAddr(41), SimTime::from_millis(7)));
                    0
                }
                EventKind::Start { .. } => 1,
                EventKind::Fail { .. } => 2,
                EventKind::Timer { token, .. } => {
                    assert_eq!(token, TimerToken(n << 32 | 5));
                    3
                }
            };
            if tag > 0 {
                assert_eq!(e.at, SimTime::from_micros(n * 997 % 20_000_000));
            }
            seen[tag] += 1;
        }
        assert_eq!(seen, [1, 3_000, 3_000, 3_000]);
    }

    #[test]
    fn heap_reference_matches_basic_contract() {
        let mut s: HeapScheduler<()> = HeapScheduler::new();
        s.schedule(SimTime::from_millis(2), start(2));
        s.schedule(SimTime::from_millis(1), start(1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(s.pop().unwrap().target(), NodeAddr(1));
        assert_eq!(s.pop().unwrap().target(), NodeAddr(2));
        assert!(s.pop().is_none());
        assert_eq!(s.scheduled_total(), 2);
    }
}
