//! The six-table routing-table system of Section III.c, kept as a single
//! **flat peer registry**: one vector of peers sorted by identifier, each
//! carrying a bit mask of the tables it appears in.
//!
//! Every peer maintains, conceptually:
//!
//! 1. **Level-0 table** — its direct level-0 neighbours (every node has one).
//! 2. **Level-i tables** (`i > 0`) — direct and indirect bus neighbours at
//!    each level the node belongs to, plus peers of that level learned from
//!    level-0 neighbours.
//! 3. **Children table** — for nodes at level `i > 0`: the nodes covered by
//!    the own tessellation plus the children of direct bus neighbours.
//! 4. **Level-1 parent** — every node has a parent entry once the hierarchy
//!    has formed.
//! 5. **Superior-node list** — the ancestors of the node and the direct
//!    neighbours of its immediate parent ("This replication of information
//!    provides a higher degree of robustness at minimum cost").
//! 6. Every entry carries a freshness **timestamp** and is deleted when it
//!    expires (the sixth "table" of the paper is this timestamp bookkeeping).
//!
//! ## Registry design
//!
//! Each known peer is stored **exactly once**, as a slot
//! `{ `[`PeerEntry`]`, roles }` in one `Vec` kept in ascending
//! [`NodeId`] order. The six tables are *role bits* on the slot, not
//! containers of their own:
//!
//! | role | bit | set by |
//! |---|---|---|
//! | level-0 neighbour | `levels` bit 0 | [`RoutingTables::upsert_level0`] |
//! | bus member at level `L` (1 ≤ L ≤ 31) | `levels` bit `L` | [`RoutingTables::upsert_level`] |
//! | child (own or a bus neighbour's) | `tree` bit 0 | [`RoutingTables::upsert_child`] |
//! | own child (implies child) | `tree` bit 1 | [`RoutingTables::upsert_child`] with `own` |
//! | parent (at most one slot) | `tree` bit 2 | [`RoutingTables::set_parent`] |
//! | superior | `tree` bit 3 | [`RoutingTables::upsert_superior`] |
//!
//! One metadata record per peer means [`RoutingTables::find`] and
//! [`RoutingTables::touch`] always see the one freshest address, level and
//! timestamp, and [`RoutingTables::expire`] removes a stale peer from all
//! of its roles at once — roles cannot desynchronize. Nothing is mirrored
//! beside the bits: the parent, the level-0 degree and the own-child count
//! are read from them, and a removal reports only whether the peer was
//! known. A slot whose last role bit is cleared is dropped, so memory is
//! bounded by the number of peers, not of (peer, role) pairs.
//!
//! **Why a sorted vector.** TreeP's point is that these tables stay small
//! (Section III.e). In the benchmark's `maint` workload (n = 10⁴, seed
//! 2005) a node holds 9.4 slots on average when the overlay is built, 33.9
//! at the peak of the settle transient (≈ 2.5 s), 27.5 at the end of
//! set-up and 22.4 at 7 s. At that size an ordered tree per table buys
//! nothing — seven B-trees are seven sets of heap nodes to miss the cache
//! on and to allocate and free as peers come and go — while a sorted
//! vector is one contiguous block of a few dozen cache lines:
//!
//! * the **point read** a handler opens the registry with is one
//!   **count**: the number of slots whose identifier is below the key,
//!   summed over the whole vector, not bisected. These are `find`,
//!   `touch`, the role tests (`is_level0_neighbor`, `is_own_child`),
//!   `kth_neighbor_ids`, `remove_peer` and the keep-alive's ack test
//!   `is_round_partner` (the count finds the sender's slot, and at most a
//!   walk over the slots between it and the owner follows). They open an
//!   event, and their caller may be cold: the engine hints the vector one
//!   event ahead, but an `invoke`d operation, the UDP host and the
//!   benchmark's hand-timed legs get no hint, and each step of a bisection
//!   must wait for the previous step's miss. The count's loads are
//!   independent, so the whole vector streams in at once. Bisecting these
//!   too made the cold hand-timed `keep_alive` leg about 30 % slower
//!   (median 774 → 997 ns on `maint`, seeds 2005–2009, 2-CPU host), and
//!   the ack handler, while it opened with a bisecting upsert, read 551 →
//!   798 ns (seed 2005) until it asked `is_round_partner` first;
//! * what follows in the same event **bisects** with std's branch-free
//!   search: [`RoutingTables::upsert_level0`] and every other upsert
//!   (`binary_search_by_key`), and the rank the range probes start from
//!   (`partition_point`). By then the vector is warm, from the hint and
//!   from the opening count, so about five dependent loads of cached
//!   lines replace a count over a few dozen slots;
//! * range probes (`closest_peer`, `peers_outward_from`, `nearest_peers`,
//!   `bus_neighbors`, `closest_child`, `multicast_fanout`) are that
//!   bisection plus a walk over adjacent slots, skipping the ones without
//!   the wanted role bit;
//! * role iterators (`level0`, `children`, `superiors`, …) are a filtered
//!   scan of the whole vector, in the same ascending-ID order the indexes
//!   had.
//!
//! The identifiers are not split into a column of their own: counting over
//! a separate `Vec<NodeId>` touches fewer lines but was measured slower,
//! because the gain is streaming the slots the handler reads next. The
//! owning node also hints the vector into cache one event ahead, through
//! [`simnet::Protocol::prefetch`].
//!
//! **What is `O(n)`.** Inserting a peer not yet known, or dropping one
//! ([`RoutingTables::remove_peer`], a parent change that orphans the old
//! parent), shifts the slots behind it — a `memmove` of at most
//! `n × size_of::<Slot>()` bytes, 40 a slot: under 1.4 KB at the peak mean
//! above. A role-filtered probe for a role nobody holds scans every slot,
//! and so does a role count ([`RoutingTables::level0_degree`],
//! [`RoutingTables::own_children_count`], [`RoutingTables::parent`]).
//! Batch removals stay linear, never quadratic:
//! [`RoutingTables::expire`] is one `retain` sweep and
//! [`RoutingTables::prune_level0`] one pass that clears bits followed by
//! at most one `retain`. The `treep.tables.*_ns` legs of the benchmark
//! (`benchmark/src/legs.rs`) time these operations.
//!
//! The registry additionally records the **exact subtree extent** each own
//! child reported ([`RoutingTables::record_child_span`], piggy-backed on
//! `ChildReport`); `multicast_fanout` prefers the exact span over the
//! tessellation-radius estimate. Spans and topic filters exist only on
//! parents and only per own child, so they stay in small side maps keyed by
//! the child's identifier.

use crate::entry::RoutingEntry;
use crate::id::{IdSpace, NodeId};
use crate::multicast::KeyRange;
use crate::pubsub::TopicFilter;
use serde::{Deserialize, Serialize};
use simnet::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// The canonical registry record: one per known peer, holding the peer's
/// address, maximum level and freshness timestamp exactly once (role
/// membership lives in the role bits next to it).
pub type PeerEntry = RoutingEntry;

/// The highest bus level the registry can represent: each slot has one
/// membership bit per level in a `u32` whose bit 0 is the level-0 table.
/// Even at `nc = 2`, 31 levels tessellate 2³¹ cells, more than any
/// population this crate is run at (≤ 10⁷ nodes); a `u64` mask would cost
/// every slot 8 bytes (48 instead of 40). [`crate::TreePConfig::validate`]
/// rejects a greater `height`.
pub(crate) const MAX_BUS_LEVEL: u32 = 31;

/// Minimum number of level-0 connections every node keeps alive ("Each node
/// needs to maintain a minimum of two connections", Section III.a): a node
/// with fewer neither calls nor joins an election.
pub(crate) const MIN_LEVEL0_CONNECTIONS: usize = 2;

/// Maximum number of level-0 neighbours a node actively maintains.
/// Entries learned through gossip beyond this budget are pruned during
/// the maintenance tick, keeping the ID-closest peers ("If they stop
/// interacting and have more than two edges, each node can safely delete
/// the other from their routing table"). This is what keeps the per-node
/// keep-alive fan-out — and therefore the maintenance overhead — bounded
/// independently of the network size.
pub const MAX_LEVEL0_CONNECTIONS: usize = 8;
const _: () = assert!(MAX_LEVEL0_CONNECTIONS >= MIN_LEVEL0_CONNECTIONS);

/// `Slot::levels` bit of the level-0 table.
const LEVEL0: u32 = 1;
/// `Slot::tree` bits.
const CHILD: u8 = 1 << 0;
const OWN_CHILD: u8 = 1 << 1;
const PARENT: u8 = 1 << 2;
const SUPERIOR: u8 = 1 << 3;

/// The `Slot::levels` bit of the level-`level` bus, or 0 — a mask no slot
/// matches — for a level that is not a bus (`0`, or beyond
/// [`MAX_BUS_LEVEL`]).
fn bus_bit(level: u32) -> u32 {
    if (1..=MAX_BUS_LEVEL).contains(&level) {
        1 << level
    } else {
        0
    }
}

/// The `Slot::levels` bits of the buses at levels `1..=max_level`.
fn buses_through(max_level: u32) -> u32 {
    (u32::MAX >> (MAX_BUS_LEVEL - max_level.min(MAX_BUS_LEVEL))) & !LEVEL0
}

/// True for a slot whose link to the owner the child report refreshes every
/// round: the parent, or an own child.
fn by_report(s: &Slot) -> bool {
    s.tree & (PARENT | OWN_CHILD) != 0
}

/// The direct bus neighbours among `slots`, walked outward from the owner
/// on one side, that hold no level-0 or report role: the first slot met
/// with a bit of `buses` is that bus's direct neighbour on this side.
fn bus_only_neighbours<'a>(
    slots: impl Iterator<Item = &'a Slot>,
    buses: u32,
) -> impl Iterator<Item = &'a PeerEntry> {
    slots
        .scan(0, move |passed: &mut u32, s| {
            let direct = s.levels & buses & !*passed != 0;
            *passed |= s.levels;
            Some((s, direct))
        })
        .filter(|(s, direct)| *direct && s.levels & LEVEL0 == 0 && !by_report(s))
        .map(|(s, _)| &s.entry)
}

/// One known peer and the roles it holds.
#[derive(Debug, Clone, Copy)]
struct Slot {
    entry: PeerEntry,
    /// Bit 0: level-0 neighbour; bit `L`: member of the level-`L` bus.
    levels: u32,
    /// `CHILD | OWN_CHILD | PARENT | SUPERIOR`.
    tree: u8,
}
// The registry is the largest per-node structure: a slot that grows past
// 40 bytes shows in every node's resident size (see the module docs).
const _: () = assert!(std::mem::size_of::<Slot>() == 40);
const _: () = assert!(std::mem::size_of::<RoutingEntry>() == 32);

impl Slot {
    fn roleless(&self) -> bool {
        self.levels == 0 && self.tree == 0
    }
}

/// Size breakdown used by the Section III.e routing-table audit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableSizes {
    /// `l0`: level-0 connections.
    pub level0: usize,
    /// `li`: bus neighbours summed over levels `i > 0`.
    pub level_neighbors: usize,
    /// `ca`: own children.
    pub own_children: usize,
    /// `ci`: replicated children of direct bus neighbours.
    pub neighbor_children: usize,
    /// 1 when a parent entry is present.
    pub parent: usize,
    /// Superior-node list length.
    pub superiors: usize,
}

impl TableSizes {
    /// Total number of entries across all tables.
    pub fn total(&self) -> usize {
        self.level0
            + self.level_neighbors
            + self.own_children
            + self.neighbor_children
            + self.parent
            + self.superiors
    }
}

/// The complete routing-table state of one peer: a flat, identifier-sorted
/// peer registry with role bits (see the module documentation).
#[derive(Debug, Clone, Default)]
pub struct RoutingTables {
    /// Every known peer exactly once, in strictly ascending identifier
    /// order; every slot holds at least one role.
    slots: Vec<Slot>,
    /// Exact subtree extents reported by own children (`ChildReport`).
    child_spans: BTreeMap<NodeId, KeyRange>,
    /// Topic-subscription summaries reported by own children
    /// (`FilterReport`); consulted by the pub/sub fan-out pruning (see
    /// [`crate::pubsub`]). Only populated when the pub/sub layer is on.
    child_filters: BTreeMap<NodeId, TopicFilter>,
    /// Largest one-sided reach (`max(id - lo, hi - id)`) over
    /// `child_spans`; monotone over-approximation used to bound the
    /// `multicast_fanout` range query. Recomputed when a span is dropped.
    span_reach: u64,
    /// Highest `max_level` ever seen on an own child; monotone
    /// over-approximation, recomputed when an own child is removed.
    max_child_level: u32,
    /// An entry last heard before this instant is a **suspect** (see
    /// [`RoutingTables::is_suspect`]). The owner moves it forward before it
    /// consults a probe; [`SimTime::ZERO`], the default, suspects nobody.
    suspect_before: SimTime,
}

impl RoutingTables {
    /// Empty tables.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- registry core ---------------------------------------------------

    /// The number of slots whose identifier is below `key`: where `key` is,
    /// or would be inserted. Bisected: its callers walk on from the answer,
    /// and the vector is warm by then (see the module documentation).
    fn rank(&self, key: NodeId) -> usize {
        self.slots.partition_point(|s| s.entry.id < key)
    }

    /// Position of `id` in the vector, or where it would be inserted: the
    /// point read a handler opens the registry with. Counted over every
    /// slot rather than bisected (see the module documentation): the loads
    /// do not depend on one another, so a cold vector streams in at once.
    fn position(&self, id: NodeId) -> Result<usize, usize> {
        let i: usize = self
            .slots
            .iter()
            .map(|s| usize::from(s.entry.id < id))
            .sum();
        match self.slots.get(i) {
            Some(s) if s.entry.id == id => Ok(i),
            _ => Err(i),
        }
    }

    /// The number of slots whose identifier is at or below `key`. Bisected,
    /// like [`RoutingTables::rank`].
    fn rank_through(&self, key: NodeId) -> usize {
        self.slots.partition_point(|s| s.entry.id <= key)
    }

    fn slot(&self, id: NodeId) -> Option<&Slot> {
        self.position(id).ok().map(|i| &self.slots[i])
    }

    /// Merge `entry` into the registry (insert, or fold newer information
    /// into the canonical record) and add the given role bits to it.
    fn grant(&mut self, entry: PeerEntry, levels: u32, tree: u8) {
        // Bisected: by the time a handler upserts, the engine's hint or the
        // event's opening read has brought the vector in.
        let slot = match self.slots.binary_search_by_key(&entry.id, |s| s.entry.id) {
            Ok(i) => {
                let slot = &mut self.slots[i];
                slot.entry.merge(&entry);
                slot
            }
            Err(i) => {
                let fresh = Slot {
                    entry,
                    levels: 0,
                    tree: 0,
                };
                // Grow by a quarter, not by doubling: this vector exists once
                // per node. The settle transient's peak, not this rule, sets
                // what stays reserved: 40.6 slots a node (1.62 KB) in `maint`
                // at n = 10⁴, against 22.4 in use once it has settled.
                if self.slots.len() == self.slots.capacity() {
                    self.slots.reserve_exact(self.slots.len() / 4 + 4);
                }
                self.slots.insert(i, fresh);
                &mut self.slots[i]
            }
        };
        slot.levels |= levels;
        slot.tree |= tree;
        // An own child's level can rise through *any* role's upsert (a
        // keep-alive, a gossip update); the fan-out window bound must keep
        // covering it.
        if slot.tree & OWN_CHILD != 0 {
            self.max_child_level = self.max_child_level.max(slot.entry.max_level);
        }
    }

    /// Bookkeeping for own children that have left the vector: their side
    /// map records go, and the caches those bounded are recomputed once.
    /// `ids` may name other peers too; the maps hold own children only.
    fn drop_children(&mut self, ids: &[NodeId]) {
        for id in ids {
            self.child_spans.remove(id);
            self.child_filters.remove(id);
        }
        self.recompute_child_caches();
    }

    /// Canonical lookup: the single freshest entry for `id`, whatever roles
    /// it holds ("IF target X is in the routing table"). One count over the
    /// registry.
    pub fn find(&self, id: NodeId) -> Option<&PeerEntry> {
        self.slot(id).map(|s| &s.entry)
    }

    /// Refresh the canonical timestamp of `id`. Returns true if the peer was
    /// known. One count over the registry, regardless of role count.
    pub fn touch(&mut self, id: NodeId, now: SimTime) -> bool {
        match self.position(id) {
            Ok(i) => {
                self.slots[i].entry.touch(now);
                true
            }
            Err(_) => false,
        }
    }

    // ---- suspicion ----------------------------------------------------------
    //
    // Between "heard a moment ago" and "expired" an entry has a third age:
    // its peer has missed enough keep-alive rounds to be probably gone, not
    // yet enough to be forgotten. A suspect keeps every role and leaves only
    // through `expire`; what it loses is being *chosen* by the probes a
    // request, a reply or a copy is handed over with (`nearest_live_walk`,
    // `closest_child`, `highest_superior`, the scans of `crate::routing`).
    // The cut-off is held as an instant, so the probes need no clock; the
    // owning node moves it forward before it reads them.

    /// Move the suspicion cut-off: from now on an entry whose `last_seen`
    /// lies before `instant` is a suspect.
    pub(crate) fn set_suspect_before(&mut self, instant: SimTime) {
        self.suspect_before = instant;
    }

    /// True when `entry` has been silent past the suspicion cut-off: its
    /// peer has missed its keep-alive rounds and is not handed anything
    /// while a live alternative exists. Hearing from the peer again (a
    /// newer `last_seen`) ends the suspicion at once.
    pub fn is_suspect(&self, entry: &PeerEntry) -> bool {
        entry.last_seen < self.suspect_before
    }

    /// True when the peer known at transport address `addr` is a suspect.
    /// An address the registry does not know is not: nothing is held
    /// against it. A scan — reply paths name hops by address, and the
    /// registry is a few dozen slots.
    pub(crate) fn is_suspect_addr(&self, addr: simnet::NodeAddr) -> bool {
        self.slots
            .iter()
            .any(|s| s.entry.addr == addr && self.is_suspect(&s.entry))
    }

    /// The number of known peers (slots).
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Ask the CPU to start loading the slot vector, ahead of the event that
    /// will probe it (a hint: it changes nothing, see [`simnet::prefetch`]).
    pub(crate) fn prefetch(&self) {
        simnet::prefetch(&self.slots);
    }

    /// Every distinct peer known, each exactly once (the canonical entry).
    pub fn all_peers(&self) -> Vec<PeerEntry> {
        self.slots.iter().map(|s| s.entry).collect()
    }

    /// Every slot, walked outward from `key` in `(distance, id)` order: two
    /// cursors moving apart from the partition point of `key`, the nearer
    /// side first and the lower side on a tie. Every distance-ordered probe
    /// of the registry is this walk with a filter, so the tie-break lives
    /// in one place. The distance is the paper's `|a - b|`
    /// ([`IdSpace::distance`]), which needs no parameter of the space.
    fn outward(&self, key: NodeId) -> impl Iterator<Item = &Slot> {
        let slots = self.slots.as_slice();
        let mut lo = self.rank_through(key);
        let mut hi = lo;
        std::iter::from_fn(move || {
            let below = lo.checked_sub(1).map(|i| &slots[i]);
            let above = slots.get(hi);
            let take_below = match (below, above) {
                (Some(b), Some(a)) => b.entry.id.0.abs_diff(key.0) <= a.entry.id.0.abs_diff(key.0),
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_below {
                lo -= 1;
                below
            } else {
                hi += 1;
                above
            }
        })
    }

    /// Every known peer, walked **outward from `key` in 1-D distance
    /// order** (nearest first; ties prefer the smaller identifier, matching
    /// every other probe of the registry). A two-cursor merge over the
    /// sorted vector: no allocation, no copy, and a consumer that stops
    /// early — like the non-greedy next-hop scan, which only wants peers
    /// strictly closer to the target than the local node — pays only for
    /// the prefix it reads.
    pub fn peers_outward_from(&self, key: NodeId) -> impl Iterator<Item = &PeerEntry> {
        self.outward(key).map(|s| &s.entry)
    }

    /// The known peer closest to `key` in the 1-D space (excluding the one
    /// at `exclude_addr`), found by an ordered neighbour probe around `key`
    /// instead of a full scan. Ties prefer the smaller identifier.
    pub fn closest_peer(
        &self,
        _space: IdSpace,
        key: NodeId,
        exclude_addr: simnet::NodeAddr,
    ) -> Option<&PeerEntry> {
        self.nearest_walk(key, exclude_addr).next()
    }

    /// The borrowed walk behind [`RoutingTables::nearest_peers`]: every
    /// known peer except the one at `exclude_addr`, nearest to `key` first,
    /// ties preferring the smaller identifier. Nothing is allocated or
    /// copied; take as many as needed.
    pub fn nearest_walk(
        &self,
        key: NodeId,
        exclude_addr: simnet::NodeAddr,
    ) -> impl Iterator<Item = &PeerEntry> {
        self.peers_outward_from(key)
            .filter(move |e| e.addr != exclude_addr)
    }

    /// Up to `count` known peers nearest to `key` in the 1-D space
    /// (excluding the one at `exclude_addr`), ordered by `(distance, id)` —
    /// ties prefer the smaller identifier, matching every other probe of the
    /// registry. The first `count` steps of
    /// [`RoutingTables::nearest_walk`], copied out, so the cost is one
    /// bisection plus `count` steps.
    ///
    /// This is the successor query the replication subsystem places replicas
    /// with: the `k` nearest registry neighbours of a key coordinate are the
    /// key's replica set.
    pub fn nearest_peers(
        &self,
        _space: IdSpace,
        key: NodeId,
        count: usize,
        exclude_addr: simnet::NodeAddr,
    ) -> Vec<PeerEntry> {
        let mut out = Vec::with_capacity(count.min(self.slots.len()));
        out.extend(self.nearest_walk(key, exclude_addr).take(count));
        out
    }

    /// [`RoutingTables::nearest_walk`] without the suspects: the peers a
    /// request, a reply or a copy may be handed to, nearest to `key` first.
    pub(crate) fn nearest_live_walk(
        &self,
        key: NodeId,
        exclude_addr: simnet::NodeAddr,
    ) -> impl Iterator<Item = &PeerEntry> {
        self.nearest_walk(key, exclude_addr)
            .filter(|e| !self.is_suspect(e))
    }

    /// The identifiers of the `k`-th registry neighbour strictly below and
    /// strictly above `own` (`None` when fewer than `k` exist on that side).
    /// Any key for which `own` is among the `k` nearest known peers must lie
    /// between these two identifiers, so the pair bounds a node's **replica
    /// range** — the interval of the key space it can be responsible for
    /// replicating.
    pub fn kth_neighbor_ids(&self, own: NodeId, k: usize) -> (Option<NodeId>, Option<NodeId>) {
        if k == 0 {
            return (None, None);
        }
        let id_at = |i: usize| self.slots.get(i).map(|s| s.entry.id);
        let (first_not_below, first_above) = match self.position(own) {
            Ok(i) => (i, i + 1),
            Err(i) => (i, i),
        };
        (
            first_not_below.checked_sub(k).and_then(id_at),
            first_above.checked_add(k - 1).and_then(id_at),
        )
    }

    /// The `j`-th registry neighbour above `own` (`1 <= j < k`) and the
    /// interval of keys **both** of them are among the `k` nearest known
    /// peers of — what the two must agree on as replicas. The `k` nearest
    /// peers of a key are `k` adjacent identifiers, so with `L_i` / `R_i`
    /// the `i`-th neighbour below / above `own` the interval is
    /// `[midpoint(L_{k-j}, R_j) + 1, midpoint(own, R_k)]`: above the first
    /// bound `R_j` beats `L_{k-j}` into the set, up to the second `own`
    /// still beats `R_k` (midpoint ties go to the smaller identifier, as in
    /// every ordered probe). A missing `L` or `R_k` runs the interval to
    /// that edge of the space. `None` when there is no such neighbour, or
    /// when the bounds cross: distinct identifiers inside `space` keep them
    /// in order, and for anything else no range is better than the one
    /// [`KeyRange::new`] would make by swapping them.
    pub(crate) fn replica_pair_range(
        &self,
        space: IdSpace,
        own: NodeId,
        k: usize,
        j: usize,
    ) -> Option<(&PeerEntry, KeyRange)> {
        debug_assert!((1..k).contains(&j), "partner {j} of a {k}-replica set");
        let partner = self.find(self.kth_neighbor_ids(own, j).1?)?;
        let lo = match self.kth_neighbor_ids(own, k - j).0 {
            Some(below) => NodeId(space.midpoint(below, partner.id).0 + 1),
            None => NodeId::MIN,
        };
        let hi = match self.kth_neighbor_ids(own, k).1 {
            Some(above) => space.midpoint(own, above),
            None => space.max_id(),
        };
        (lo <= hi).then(|| (partner, KeyRange::new(lo, hi)))
    }

    /// The entries of the slots holding any of the `levels` bits, by ID.
    fn on_levels(&self, levels: u32) -> impl Iterator<Item = &PeerEntry> {
        self.slots
            .iter()
            .filter(move |s| s.levels & levels != 0)
            .map(|s| &s.entry)
    }

    /// The entries of the slots holding any of the `tree` bits, by ID.
    fn in_tree(&self, tree: u8) -> impl Iterator<Item = &PeerEntry> {
        self.slots
            .iter()
            .filter(move |s| s.tree & tree != 0)
            .map(|s| &s.entry)
    }

    // ---- level 0 ---------------------------------------------------------

    /// Insert or refresh a level-0 neighbour.
    pub fn upsert_level0(&mut self, entry: PeerEntry) {
        self.grant(entry, LEVEL0, 0);
    }

    /// Insert or refresh a peer heard from directly: a level-0 neighbour,
    /// and a member of the level-`level` bus as well (a `level` that is not
    /// a bus adds nothing). One merge where [`RoutingTables::upsert_level0`]
    /// and [`RoutingTables::upsert_level`] would make two of the same entry.
    pub(crate) fn upsert_heard(&mut self, level: u32, entry: PeerEntry) {
        self.grant(entry, LEVEL0 | bus_bit(level), 0);
    }

    /// All level-0 neighbours, ordered by ID.
    pub fn level0(&self) -> impl Iterator<Item = &PeerEntry> {
        self.on_levels(LEVEL0)
    }

    /// Number of level-0 connections (`l0` in Section III.e).
    pub fn level0_degree(&self) -> usize {
        self.level0().count()
    }

    /// True when `id` is a direct level-0 neighbour.
    pub fn is_level0_neighbor(&self, id: NodeId) -> bool {
        self.slot(id).is_some_and(|s| s.levels & LEVEL0 != 0)
    }

    // ---- levels i > 0 ------------------------------------------------------

    /// Insert or refresh a bus neighbour at `level` (> 0). A level beyond
    /// `MAX_BUS_LEVEL` names no bus this registry can hold (it can only
    /// come from a malformed message): the entry is ignored.
    pub fn upsert_level(&mut self, level: u32, entry: PeerEntry) {
        assert!(
            level > 0,
            "level tables start at 1; level 0 has its own table"
        );
        let bit = bus_bit(level);
        if bit != 0 {
            self.grant(entry, bit, 0);
        }
    }

    /// Members of the level-`level` bus known to this node, ordered by ID
    /// (none for a level that is not a bus).
    pub fn level_members(&self, level: u32) -> impl Iterator<Item = &PeerEntry> {
        self.on_levels(bus_bit(level))
    }

    /// Levels (> 0) for which we know at least one bus neighbour.
    pub fn known_levels(&self) -> impl Iterator<Item = u32> + '_ {
        let known = self.slots.iter().fold(0, |acc, s| acc | s.levels);
        (1..=MAX_BUS_LEVEL).filter(move |level| known & bus_bit(*level) != 0)
    }

    /// Direct left (largest ID below `own`) and right (smallest ID above
    /// `own`) bus neighbours at `level`: the nearest slot with the bus bit
    /// on either side of `own`'s position (none for a level that is not a
    /// bus, whose mask no slot matches).
    pub fn bus_neighbors(
        &self,
        level: u32,
        own: NodeId,
    ) -> (Option<&PeerEntry>, Option<&PeerEntry>) {
        let bit = bus_bit(level);
        let (below, rest) = self.slots.split_at(self.rank(own));
        let left = below.iter().rev().find(|s| s.levels & bit != 0);
        let right = rest
            .iter()
            .find(|s| s.levels & bit != 0 && s.entry.id != own);
        (left.map(|s| &s.entry), right.map(|s| &s.entry))
    }

    /// The peers `own` is in touch with every maintenance round, each once:
    /// its level-0 neighbours, its parent and own children (in identifier
    /// order), then its direct bus neighbours at levels `1..=max_level` (the
    /// [`RoutingTables::bus_neighbors`] of each) that hold none of those
    /// roles. The flag is true for the parent and own children: the child
    /// report and its acknowledgement refresh that link, so no keep-alive
    /// needs to. A peer holding several of these roles is one slot, so it
    /// comes out once.
    pub(crate) fn round_partners(
        &self,
        own: NodeId,
        max_level: u32,
    ) -> impl Iterator<Item = (&PeerEntry, bool)> {
        let near = self
            .slots
            .iter()
            .filter(|s| s.levels & LEVEL0 != 0 || by_report(s))
            .map(|s| (&s.entry, by_report(s)));
        let buses = buses_through(max_level);
        let (below, rest) = self.slots.split_at(self.rank(own));
        let rest = rest.iter().filter(move |s| s.entry.id != own);
        let bus =
            bus_only_neighbours(below.iter().rev(), buses).chain(bus_only_neighbours(rest, buses));
        near.chain(bus.map(|e| (e, false)))
    }

    /// True when `peer` is one of the [`RoutingTables::round_partners`] of
    /// `own`: the same rule as a point query, for the keep-alive handler's
    /// ack test. One count finds the peer's slot, and a level-0 or report
    /// role answers at once. Otherwise the peer is a direct bus neighbour
    /// when one of its bus bits at levels `1..=max_level` is held by no slot
    /// between it and `own`: the walk `round_partners` makes outward from
    /// `own`, taken from the other end.
    pub(crate) fn is_round_partner(&self, own: NodeId, max_level: u32, peer: NodeId) -> bool {
        let Ok(i) = self.position(peer) else {
            return false;
        };
        let s = &self.slots[i];
        if s.levels & LEVEL0 != 0 || by_report(s) {
            return true;
        }
        let held = |m: u32, t: &Slot| m | t.levels;
        let passed = match peer.cmp(&own) {
            std::cmp::Ordering::Less => self.slots[i + 1..]
                .iter()
                .take_while(|t| t.entry.id < own)
                .fold(0, held),
            std::cmp::Ordering::Greater => self.slots[..i]
                .iter()
                .rev()
                .take_while(|t| t.entry.id > own)
                .fold(0, held),
            std::cmp::Ordering::Equal => return false,
        };
        s.levels & buses_through(max_level) & !passed != 0
    }

    /// Total number of bus-neighbour entries over all levels `> 0`.
    pub fn level_neighbor_count(&self) -> usize {
        self.sizes().level_neighbors
    }

    // ---- children ----------------------------------------------------------

    /// Insert or refresh a child entry. `own` marks children of this node's
    /// tessellation (as opposed to replicated children of bus neighbours).
    pub fn upsert_child(&mut self, entry: PeerEntry, own: bool) {
        self.grant(entry, 0, if own { CHILD | OWN_CHILD } else { CHILD });
    }

    /// All known children (own and neighbours'), ordered by ID.
    pub fn children(&self) -> impl Iterator<Item = &PeerEntry> {
        self.in_tree(CHILD)
    }

    /// This node's own children, ordered by ID.
    pub fn own_children(&self) -> impl Iterator<Item = &PeerEntry> + '_ {
        self.in_tree(OWN_CHILD)
    }

    /// Number of own children (`ca` in Section III.e).
    pub fn own_children_count(&self) -> usize {
        self.own_children().count()
    }

    /// True when `id` is one of this node's own children.
    pub fn is_own_child(&self, id: NodeId) -> bool {
        self.slot(id).is_some_and(|s| s.tree & OWN_CHILD != 0)
    }

    /// The own child closest to `target` (the `Closest_Child(X)` primitive of
    /// the routing algorithm in Figure 3): the first own child on the
    /// outward walk from `target` that is not a suspect, ties preferring
    /// the smaller identifier.
    pub fn closest_child(&self, target: NodeId) -> Option<&PeerEntry> {
        self.outward(target)
            .find(|s| s.tree & OWN_CHILD != 0 && !self.is_suspect(&s.entry))
            .map(|s| &s.entry)
    }

    // ---- subtree spans -----------------------------------------------------

    /// Record the exact subtree extent an own child reported (piggy-backed on
    /// `ChildReport`). Ignored for peers that are not own children. Returns
    /// true when the span was recorded.
    ///
    /// Spans are as fresh as the last report. A child reports at once when
    /// it adopts this node as its parent, but a descendant that joins
    /// deeper in the child's subtree *since* is covered only after one
    /// periodic report round per tree level between it and the child (the
    /// same eventual-consistency window as every other table entry in the
    /// protocol's lazy maintenance). Until then a multicast into the
    /// not-yet-reported sliver of the subtree can be pruned; the
    /// steady-state exactly-once/full-coverage guarantees are unaffected.
    pub fn record_child_span(&mut self, child: NodeId, span: KeyRange) -> bool {
        if !self.is_own_child(child) {
            return false;
        }
        let reach = (child.0.saturating_sub(span.lo.0)).max(span.hi.0.saturating_sub(child.0));
        self.span_reach = self.span_reach.max(reach);
        self.child_spans.insert(child, span);
        true
    }

    /// The exact subtree extent reported by own child `id`, if any.
    pub fn child_span(&self, id: NodeId) -> Option<KeyRange> {
        self.child_spans.get(&id).copied()
    }

    /// Record the topic-subscription summary an own child reported
    /// (piggy-backed on `FilterReport`). Ignored for peers that are not own
    /// children — the pruning decision may only rely on summaries from the
    /// node's own tessellation. Returns true when the filter was recorded.
    ///
    /// Same freshness contract as [`RoutingTables::record_child_span`]:
    /// the filter is as current as the child's last report, and the
    /// reporting side sends event-driven updates on every summary change,
    /// so a subscriber is only invisible for the one-hop propagation delay
    /// of its subscribe. An *over*-stale filter (extra topics) merely
    /// forwards a publish down an empty branch; only a missing topic could
    /// lose a delivery, which event-driven reporting prevents.
    pub fn record_child_filter(&mut self, child: NodeId, filter: TopicFilter) -> bool {
        if !self.is_own_child(child) {
            return false;
        }
        self.child_filters.insert(child, filter);
        true
    }

    /// The topic-subscription summary reported by own child `id`, if any.
    pub fn child_filter(&self, id: NodeId) -> Option<&TopicFilter> {
        self.child_filters.get(&id)
    }

    /// The union of this node's local subscriptions (`local_topics`) and
    /// every recorded child filter, bounded by `max_topics`: the summary
    /// the node reports to its own parent.
    pub(crate) fn subtree_filter<'a, I>(&self, local_topics: I, max_topics: usize) -> TopicFilter
    where
        I: IntoIterator<Item = &'a NodeId>,
    {
        let mut filter = TopicFilter::from_topics(local_topics.into_iter().copied(), max_topics);
        for child in self.child_filters.values() {
            filter.merge(child, max_topics);
        }
        filter
    }

    /// The identifier interval an own child's subtree can intersect, and
    /// whether the level-0 visiting slack applies to it: the exact reported
    /// span when known, the child's own coordinate for level-0 children, or
    /// the generous tessellation-radius estimate otherwise.
    fn child_extent(&self, child: &PeerEntry, space: IdSpace, height: u32) -> (u64, u64, bool) {
        if let Some(span) = self.child_spans.get(&child.id) {
            return (span.lo.0, span.hi.0, true);
        }
        if child.max_level == 0 {
            return (child.id.0, child.id.0, true);
        }
        let radius = space.coverage_radius(height, child.max_level.saturating_add(1).min(height));
        (
            child.id.0.saturating_sub(radius),
            child.id.0.saturating_add(radius),
            false,
        )
    }

    /// The extent of this node's own subtree: its own coordinate joined with
    /// every own child's extent (exact span when reported, estimate
    /// otherwise), clipped to the identifier space. This is the span a node
    /// piggy-backs on its `ChildReport` so its parent can prune fan-outs
    /// exactly.
    pub(crate) fn own_subtree_extent(&self, own: NodeId, space: IdSpace, height: u32) -> KeyRange {
        let mut lo = own.0;
        let mut hi = own.0;
        for child in self.own_children() {
            let (clo, chi, _) = self.child_extent(child, space, height);
            lo = lo.min(clo);
            hi = hi.max(chi);
        }
        KeyRange::new(NodeId(lo), NodeId(hi.min(space.max_id().0)))
    }

    /// Recompute the caches invalidated by removing an own child (the cached
    /// values are monotone over-approximations, so staleness only ever costs
    /// a slightly wider pre-filter, never a missed child).
    fn recompute_child_caches(&mut self) {
        self.span_reach = self
            .child_spans
            .iter()
            .map(|(id, span)| (id.0.saturating_sub(span.lo.0)).max(span.hi.0.saturating_sub(id.0)))
            .max()
            .unwrap_or(0);
        self.max_child_level = self
            .own_children()
            .map(|child| child.max_level)
            .max()
            .unwrap_or(0);
    }

    /// Multicast fan-out selection: the own children whose subtree could
    /// intersect `range`, in identifier order.
    ///
    /// Implemented as a range query on the sorted vector: only own children
    /// whose coordinate lies within the maximum possible reach of the range
    /// are examined at all, then each candidate is filtered by its exact
    /// extent. A child's extent is its **reported subtree span** when
    /// one arrived via `ChildReport` (exact bookkeeping); otherwise the
    /// deliberately generous estimate that a level-`j` child's descendants
    /// lie within one tessellation radius of the level above it,
    /// `L / 2^(h - (j+1))`, around the child's coordinate. Level-0 children
    /// without a span are filtered by their own coordinate widened by
    /// `level0_slack` — pass 0 for exact scoping (payload delivery), or a
    /// positive slack when *visiting* a node just outside the range matters
    /// (DHT key digests: a key inside the range can be stored at the closest
    /// node slightly outside it); the slack also widens exact spans, since
    /// such a node can live anywhere in a subtree. Over-approximation costs
    /// one extra message down a branch that turns out to be empty; it can
    /// never cause a duplicate (each node has one parent) — only an
    /// under-approximation could cause a miss.
    pub fn multicast_fanout(
        &self,
        space: IdSpace,
        height: u32,
        range: KeyRange,
        level0_slack: u64,
    ) -> Vec<PeerEntry> {
        let estimate_reach = if self.max_child_level == 0 {
            0
        } else {
            space.coverage_radius(height, self.max_child_level.saturating_add(1).min(height))
        };
        let reach = estimate_reach
            .max(self.span_reach)
            .saturating_add(level0_slack);
        let window_lo = range.lo.0.saturating_sub(reach);
        let window_hi = range.hi.0.saturating_add(reach);
        self.slots[self.rank(NodeId(window_lo))..]
            .iter()
            .take_while(|s| s.entry.id.0 <= window_hi)
            .filter(|s| s.tree & OWN_CHILD != 0)
            .map(|s| &s.entry)
            .filter(|child| {
                let (lo, hi, slack_applies) = self.child_extent(child, space, height);
                let slack = if slack_applies { level0_slack } else { 0 };
                range.overlaps_interval(lo.saturating_sub(slack), hi.saturating_add(slack))
            })
            .copied()
            .collect()
    }

    // ---- parent ------------------------------------------------------------

    /// Record `entry` as the immediate parent.
    pub fn set_parent(&mut self, entry: PeerEntry) {
        if self.parent().is_some_and(|p| p.id != entry.id) {
            self.clear_parent();
        }
        self.grant(entry, 0, PARENT);
    }

    /// Forget the parent (it left or expired).
    pub fn clear_parent(&mut self) -> Option<PeerEntry> {
        let i = self.slots.iter().position(|s| s.tree & PARENT != 0)?;
        let slot = &mut self.slots[i];
        slot.tree &= !PARENT;
        let entry = slot.entry;
        if slot.roleless() {
            self.slots.remove(i);
        }
        Some(entry)
    }

    /// The immediate parent, if known: the one slot holding the parent bit.
    pub fn parent(&self) -> Option<&PeerEntry> {
        self.in_tree(PARENT).next()
    }

    // ---- superiors ---------------------------------------------------------

    /// Insert or refresh an entry of the superior-node list (ancestors and
    /// direct neighbours of the immediate parent).
    pub fn upsert_superior(&mut self, entry: PeerEntry) {
        self.grant(entry, 0, SUPERIOR);
    }

    /// The superior-node list, ordered by ID.
    pub fn superiors(&self) -> impl Iterator<Item = &PeerEntry> {
        self.in_tree(SUPERIOR)
    }

    /// True when the superior-node list is non-empty (the
    /// `Superior_Node_List_Not_empty()` predicate of Figure 3).
    pub fn has_superiors(&self) -> bool {
        self.superiors().next().is_some()
    }

    /// The superior with the highest known level that is not a suspect
    /// ("send the request to the superior node with the highest level").
    pub fn highest_superior(&self) -> Option<&PeerEntry> {
        self.superiors()
            .filter(|e| !self.is_suspect(e))
            .max_by_key(|e| (e.max_level, std::cmp::Reverse(e.id)))
    }

    // ---- cross-table operations ---------------------------------------------

    /// Remove `id` from every role and the registry; returns whether the
    /// peer was known.
    pub fn remove_peer(&mut self, id: NodeId) -> bool {
        let Ok(i) = self.position(id) else {
            return false;
        };
        if self.slots.remove(i).tree & OWN_CHILD != 0 {
            self.drop_children(&[id]);
        }
        true
    }

    /// Keep only the `keep` level-0 neighbours closest to `own` in the 1-D
    /// identifier space, removing the rest **from the level-0 table only**
    /// (peers that are also a parent, child, bus neighbour or superior keep
    /// those roles and their registry entry). Returns the number of pruned
    /// entries.
    ///
    /// This implements the paper's "avoid maintaining unnecessary edges"
    /// rule: contacts picked up through gossip beyond the configured budget
    /// are dropped so the keep-alive fan-out stays bounded. The survivors
    /// are the first `keep` level-0 slots of the outward walk from `own`
    /// (ties preferring the smaller identifier); one pass clears the bit on
    /// everything past the last survivor and one `retain` drops the slots
    /// that held no other role, so the cost is linear whatever the number
    /// of victims.
    pub fn prune_level0(&mut self, space: IdSpace, own: NodeId, keep: usize) -> usize {
        let degree = self.level0_degree();
        if degree <= keep {
            return 0;
        }
        let rank = |id: NodeId| (space.distance(id, own), id);
        let last_kept = keep.checked_sub(1).and_then(|k| {
            self.outward(own)
                .filter(|s| s.levels & LEVEL0 != 0)
                .nth(k)
                .map(|s| rank(s.entry.id))
        });
        let mut orphaned = false;
        for slot in &mut self.slots {
            if slot.levels & LEVEL0 != 0 && last_kept.is_none_or(|k| rank(slot.entry.id) > k) {
                slot.levels &= !LEVEL0;
                orphaned |= slot.roleless();
            }
        }
        if orphaned {
            self.slots.retain(|s| !s.roleless());
        }
        degree - keep
    }

    /// Expire every peer not refreshed within `ttl` of `now` ("The entry
    /// will be deleted after the expiration of the timestamp"). One
    /// `retain` sweep over the vector: each peer has exactly one timestamp,
    /// so it either stays in all of its roles or leaves all of them — the
    /// roles can never desynchronize (the seed's bug where one stale gossip
    /// copy severed a live parent link is structurally impossible). Returns
    /// the removed identifiers, ascending.
    pub fn expire(&mut self, now: SimTime, ttl: SimDuration) -> Vec<NodeId> {
        let mut removed = Vec::new();
        let mut lost_own_child = false;
        self.slots.retain(|slot| {
            let stale = slot.entry.is_stale(now, ttl);
            if stale {
                removed.push(slot.entry.id);
                lost_own_child |= slot.tree & OWN_CHILD != 0;
            }
            !stale
        });
        if lost_own_child {
            self.drop_children(&removed);
        }
        removed
    }

    /// Per-table sizes for the Section III.e audit.
    pub fn sizes(&self) -> TableSizes {
        let mut sizes = TableSizes::default();
        for slot in &self.slots {
            sizes.level0 += usize::from(slot.levels & LEVEL0 != 0);
            sizes.own_children += usize::from(slot.tree & OWN_CHILD != 0);
            sizes.parent += usize::from(slot.tree & PARENT != 0);
            sizes.level_neighbors += (slot.levels & !LEVEL0).count_ones() as usize;
            sizes.neighbor_children += usize::from(slot.tree & (CHILD | OWN_CHILD) == CHILD);
            sizes.superiors += usize::from(slot.tree & SUPERIOR != 0);
        }
        sizes
    }

    /// Number of **actively maintained** connections, per the accounting of
    /// Section III.e: level-0 connections plus, for nodes in the hierarchy,
    /// own children, direct bus neighbours and the parent link.
    pub fn active_connections(&self, own: NodeId, max_level: u32) -> usize {
        let mut n = self.level0_degree();
        if max_level > 0 {
            n += self.own_children_count();
            for lvl in 1..=max_level.min(MAX_BUS_LEVEL) {
                let (l, r) = self.bus_neighbors(lvl, own);
                n += usize::from(l.is_some()) + usize::from(r.is_some());
            }
        }
        n + usize::from(self.parent().is_some())
    }

    /// Check the structural invariants of the registry design; returns a
    /// description of the first violation found. Used by the property tests
    /// (and available to embedders for debugging):
    ///
    /// 1. slots are in strictly ascending identifier order,
    /// 2. every slot holds at least one role,
    /// 3. own children are children,
    /// 4. at most one slot holds the parent bit,
    /// 5. spans and topic filters belong to own children.
    pub fn validate_invariants(&self) -> Result<(), String> {
        for pair in self.slots.windows(2) {
            if pair[0].entry.id >= pair[1].entry.id {
                return Err(format!(
                    "slots out of order: {:?} before {:?}",
                    pair[0].entry.id, pair[1].entry.id
                ));
            }
        }
        for slot in &self.slots {
            let id = slot.entry.id;
            if slot.roleless() {
                return Err(format!("registry entry {id:?} holds no role"));
            }
            if slot.tree & OWN_CHILD != 0 && slot.tree & CHILD == 0 {
                return Err(format!("own child {id:?} lacks the child role"));
            }
        }
        if self.in_tree(PARENT).nth(1).is_some() {
            let parents: Vec<NodeId> = self.in_tree(PARENT).map(|e| e.id).collect();
            return Err(format!("more than one parent: {parents:?}"));
        }
        for id in self.child_spans.keys() {
            if !self.is_own_child(*id) {
                return Err(format!("span recorded for non-own-child {id:?}"));
            }
        }
        for id in self.child_filters.keys() {
            if !self.is_own_child(*id) {
                return Err(format!("topic filter recorded for non-own-child {id:?}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NodeAddr;

    fn entry(id: u64, level: u32, at_ms: u64) -> RoutingEntry {
        entry_at_addr(id, id, level, at_ms)
    }

    fn entry_at_addr(id: u64, addr: u64, level: u32, at_ms: u64) -> RoutingEntry {
        RoutingEntry::new(
            NodeId(id),
            NodeAddr(addr),
            level,
            SimTime::from_millis(at_ms),
        )
    }

    #[test]
    fn suspects_keep_their_roles_and_lose_only_being_chosen() {
        let mut t = RoutingTables::new();
        t.upsert_level0(entry(10, 0, 100));
        t.upsert_level0(entry(20, 0, 500));
        t.upsert_child(entry(30, 0, 100), true);
        t.upsert_child(entry(40, 0, 500), true);
        t.upsert_superior(entry(50, 3, 100));
        t.upsert_superior(entry(60, 2, 500));
        let quiet = *t.find(NodeId(10)).unwrap();
        assert!(!t.is_suspect(&quiet), "no cut-off set: nobody is a suspect");
        assert_eq!(t.highest_superior().unwrap().id, NodeId(50));

        t.set_suspect_before(SimTime::from_millis(500));
        assert!(t.is_suspect(&quiet));
        assert!(
            !t.is_suspect(t.find(NodeId(20)).unwrap()),
            "heard at the cut-off"
        );
        assert!(t.is_suspect_addr(NodeAddr(10)) && !t.is_suspect_addr(NodeAddr(20)));
        assert!(
            !t.is_suspect_addr(NodeAddr(99)),
            "an unknown address is not held"
        );
        // Chosen: only the live ones.
        let live: Vec<u64> = t
            .nearest_live_walk(NodeId(0), NodeAddr(0))
            .map(|e| e.id.0)
            .collect();
        assert_eq!(live, vec![20, 40, 60]);
        assert_eq!(t.closest_child(NodeId(31)).unwrap().id, NodeId(40));
        assert_eq!(t.highest_superior().unwrap().id, NodeId(60));
        // Kept: every role, every unfiltered probe, until `expire`.
        assert_eq!(t.level0_degree(), 2);
        assert_eq!(t.own_children_count(), 2);
        assert_eq!(t.superiors().count(), 2);
        assert_eq!(
            t.closest_peer(IdSpace::new(16), NodeId(0), NodeAddr(0))
                .unwrap()
                .id,
            NodeId(10)
        );
        // Heard again: no longer a suspect.
        t.touch(NodeId(10), SimTime::from_millis(600));
        assert!(!t.is_suspect_addr(NodeAddr(10)));
        t.validate_invariants().unwrap();
    }

    #[test]
    fn level0_upsert_and_degree() {
        let mut t = RoutingTables::new();
        t.upsert_level0(entry(10, 0, 1));
        t.upsert_level0(entry(20, 0, 1));
        t.upsert_level0(entry(10, 0, 5)); // refresh, not duplicate
        assert_eq!(t.level0_degree(), 2);
        assert!(t.is_level0_neighbor(NodeId(10)));
        assert!(!t.is_level0_neighbor(NodeId(30)));
        let ids: Vec<u64> = t.level0().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![10, 20]);
        t.validate_invariants().unwrap();
    }

    #[test]
    fn bus_neighbors_are_nearest_by_id() {
        let mut t = RoutingTables::new();
        for id in [100u64, 200, 300, 400] {
            t.upsert_level(2, entry(id, 2, 1));
        }
        let (l, r) = t.bus_neighbors(2, NodeId(250));
        assert_eq!(l.unwrap().id, NodeId(200));
        assert_eq!(r.unwrap().id, NodeId(300));
        // Endpoints of the bus have only one direct neighbour.
        let (l, r) = t.bus_neighbors(2, NodeId(50));
        assert!(l.is_none());
        assert_eq!(r.unwrap().id, NodeId(100));
        let (l, r) = t.bus_neighbors(2, NodeId(500));
        assert_eq!(l.unwrap().id, NodeId(400));
        assert!(r.is_none());
        // Unknown level.
        let (l, r) = t.bus_neighbors(7, NodeId(250));
        assert!(l.is_none() && r.is_none());
        assert_eq!(t.level_members(2).count(), 4);
        assert_eq!(t.level_members(7).count(), 0);
    }

    #[test]
    fn an_out_of_range_level_is_no_bus() {
        let mut t = RoutingTables::new();
        t.upsert_level(MAX_BUS_LEVEL, entry(100, MAX_BUS_LEVEL, 1));
        t.upsert_level(1, entry(200, 1, 1));
        t.upsert_level0(entry(300, 0, 1));
        let sizes = t.sizes();
        // Beyond the last bus bit (63 was a bus while the mask was a `u64`):
        // nothing is recorded, nothing shifts out of range, and no roleless
        // entry is left behind.
        for level in [MAX_BUS_LEVEL + 1, 63, 100, u32::MAX] {
            t.upsert_level(level, entry(400, 0, 1));
            assert!(t.find(NodeId(400)).is_none());
            assert_eq!(t.sizes(), sizes, "level {level} granted a role");
            assert_eq!(t.level_members(level).count(), 0);
            let (l, r) = t.bus_neighbors(level, NodeId(150));
            assert!(l.is_none() && r.is_none());
        }
        // Level 0 is the level-0 table, not a bus: its bit must not leak.
        assert_eq!(t.level_members(0).count(), 0);
        let (l, r) = t.bus_neighbors(0, NodeId(350));
        assert!(l.is_none() && r.is_none());
        // The top bus works like any other.
        assert_eq!(t.level_members(MAX_BUS_LEVEL).count(), 1);
        let (l, r) = t.bus_neighbors(MAX_BUS_LEVEL, NodeId(150));
        assert_eq!(l.unwrap().id, NodeId(100));
        assert!(r.is_none());
        assert_eq!(t.known_levels().collect::<Vec<_>>(), vec![1, MAX_BUS_LEVEL]);
        assert_eq!(t.active_connections(NodeId(150), u32::MAX), 1 + 2);
        t.validate_invariants().unwrap();
    }

    #[test]
    fn children_distinguish_own_from_neighbors() {
        let mut t = RoutingTables::new();
        t.upsert_child(entry(5, 0, 1), true);
        t.upsert_child(entry(6, 0, 1), true);
        t.upsert_child(entry(7, 0, 1), false);
        assert_eq!(t.own_children_count(), 2);
        assert_eq!(t.children().count(), 3);
        assert!(t.is_own_child(NodeId(5)));
        assert!(!t.is_own_child(NodeId(7)));
        assert_eq!(t.closest_child(NodeId(100)).unwrap().id, NodeId(6));
        assert_eq!(t.closest_child(NodeId(0)).unwrap().id, NodeId(5));
        // Equidistant targets prefer the smaller identifier, like the old
        // (distance, id) ordering.
        t.upsert_child(entry(10, 0, 1), true);
        assert_eq!(t.closest_child(NodeId(8)).unwrap().id, NodeId(6));
        t.validate_invariants().unwrap();
    }

    #[test]
    fn multicast_fanout_prunes_disjoint_children() {
        let mut t = RoutingTables::new();
        let space = IdSpace::new(16); // 65536 ids, height 6 below
                                      // Level-0 children: filtered exactly by membership.
        t.upsert_child(entry(1_000, 0, 1), true);
        t.upsert_child(entry(5_000, 0, 1), true);
        // A level-2 child: kept whenever the range overlaps its (generous)
        // subtree estimate of +/- radius(3) = 8192 around id 40_000.
        t.upsert_child(entry(40_000, 2, 1), true);
        // A replicated neighbour child never participates in the fan-out.
        t.upsert_child(entry(2_000, 0, 1), false);

        let fanout = t.multicast_fanout(space, 6, KeyRange::new(NodeId(900), NodeId(1_100)), 0);
        assert_eq!(
            fanout.iter().map(|e| e.id.0).collect::<Vec<_>>(),
            vec![1_000]
        );

        let wide = t.multicast_fanout(space, 6, KeyRange::new(NodeId(0), NodeId(65_535)), 0);
        assert_eq!(
            wide.iter().map(|e| e.id.0).collect::<Vec<_>>(),
            vec![1_000, 5_000, 40_000]
        );

        // 33_000 is 7_000 away from the level-2 child: inside its 8192
        // estimate, so the branch is explored even though the child's own id
        // is outside the range.
        let near = t.multicast_fanout(space, 6, KeyRange::new(NodeId(32_000), NodeId(33_000)), 0);
        assert_eq!(
            near.iter().map(|e| e.id.0).collect::<Vec<_>>(),
            vec![40_000]
        );

        // 20_000 is far outside every estimate.
        let far = t.multicast_fanout(space, 6, KeyRange::new(NodeId(20_000), NodeId(20_100)), 0);
        assert!(far.is_empty());

        // A level-0 slack widens only the level-0 filter: the child at
        // 1_000 is 100 outside the range but within slack 150.
        let slacky = t.multicast_fanout(space, 6, KeyRange::new(NodeId(1_100), NodeId(1_200)), 150);
        assert_eq!(
            slacky.iter().map(|e| e.id.0).collect::<Vec<_>>(),
            vec![1_000]
        );
        let exact = t.multicast_fanout(space, 6, KeyRange::new(NodeId(1_100), NodeId(1_200)), 0);
        assert!(exact.is_empty());
    }

    #[test]
    fn fanout_window_tracks_child_level_learned_through_other_roles() {
        // Regression: the fan-out window bound is derived from the cached
        // maximum own-child level. A child adopted at level 0 whose real
        // level is later learned through a *keep-alive* (an `upsert_level0`
        // merge, not an `upsert_child`) must still widen the window, or its
        // whole subtree silently misses narrow multicasts.
        let mut t = RoutingTables::new();
        let space = IdSpace::new(16);
        t.upsert_child(entry(40_000, 0, 1), true);
        // Level 2 arrives via gossip refresh of the level-0 role.
        t.upsert_level0(entry(40_000, 2, 2));
        assert_eq!(t.find(NodeId(40_000)).unwrap().max_level, 2);
        // Range outside the child's coordinate but inside its level-2
        // estimate (radius(3) = 8192): the branch must be explored.
        let fanout = t.multicast_fanout(space, 6, KeyRange::new(NodeId(32_000), NodeId(33_000)), 0);
        assert_eq!(
            fanout.iter().map(|e| e.id.0).collect::<Vec<_>>(),
            vec![40_000],
            "window bound must cover the child's gossip-learned level"
        );
    }

    #[test]
    fn exact_spans_prune_tighter_than_estimates() {
        let mut t = RoutingTables::new();
        let space = IdSpace::new(16);
        // A level-2 child whose estimate (radius 8192) would match almost
        // anything nearby...
        t.upsert_child(entry(40_000, 2, 1), true);
        let estimated =
            t.multicast_fanout(space, 6, KeyRange::new(NodeId(32_000), NodeId(33_000)), 0);
        assert_eq!(estimated.len(), 1, "estimate explores the branch");

        // ...until it reports its exact subtree span [38_000, 42_000]: the
        // same range is now provably disjoint and the branch is pruned.
        assert!(t.record_child_span(
            NodeId(40_000),
            KeyRange::new(NodeId(38_000), NodeId(42_000))
        ));
        assert_eq!(t.child_span(NodeId(40_000)).unwrap().lo, NodeId(38_000));
        let pruned = t.multicast_fanout(space, 6, KeyRange::new(NodeId(32_000), NodeId(33_000)), 0);
        assert!(pruned.is_empty(), "exact span prunes the empty branch");
        // A range inside the span is still explored.
        let kept = t.multicast_fanout(space, 6, KeyRange::new(NodeId(41_000), NodeId(41_500)), 0);
        assert_eq!(kept.len(), 1);

        // Spans are only accepted for own children.
        assert!(!t.record_child_span(NodeId(9_999), KeyRange::new(NodeId(0), NodeId(1))));
        t.validate_invariants().unwrap();
    }

    #[test]
    fn child_filters_follow_own_children() {
        let mut t = RoutingTables::new();
        t.upsert_child(entry(40_000, 1, 1), true);
        t.upsert_child(entry(20_000, 0, 1), false);
        // Filters are only accepted for own children, like spans.
        assert!(t.record_child_filter(NodeId(40_000), TopicFilter::from_topics([NodeId(7)], 8)));
        assert!(!t.record_child_filter(NodeId(20_000), TopicFilter::from_topics([NodeId(7)], 8)));
        assert!(t
            .child_filter(NodeId(40_000))
            .unwrap()
            .may_contain(NodeId(7)));
        assert!(t.child_filter(NodeId(20_000)).is_none());
        t.validate_invariants().unwrap();
        // Removing the own child drops its filter with it.
        t.remove_peer(NodeId(40_000));
        assert!(t.child_filter(NodeId(40_000)).is_none());
        t.validate_invariants().unwrap();
    }

    #[test]
    fn subtree_filter_unions_local_and_children() {
        let mut t = RoutingTables::new();
        t.upsert_child(entry(40_000, 1, 1), true);
        t.upsert_child(entry(41_000, 1, 1), true);
        t.record_child_filter(NodeId(40_000), TopicFilter::from_topics([NodeId(1)], 8));
        t.record_child_filter(NodeId(41_000), TopicFilter::from_topics([NodeId(2)], 8));
        let local = [NodeId(2), NodeId(3)];
        let summary = t.subtree_filter(local.iter(), 8);
        assert!(!summary.overflow);
        assert_eq!(
            summary.topics,
            [NodeId(1), NodeId(2), NodeId(3)].into_iter().collect()
        );
        // A tiny bound degrades the union to overflow.
        assert!(t.subtree_filter(local.iter(), 2).overflow);
        // An overflowed child poisons the summary regardless of the bound.
        t.record_child_filter(
            NodeId(41_000),
            TopicFilter {
                topics: Default::default(),
                overflow: true,
            },
        );
        assert!(t.subtree_filter(local.iter(), 8).overflow);
    }

    #[test]
    fn own_subtree_extent_joins_children() {
        let mut t = RoutingTables::new();
        let space = IdSpace::new(16);
        let own = NodeId(30_000);
        // Leaf: the extent is the node itself.
        assert_eq!(t.own_subtree_extent(own, space, 6), KeyRange::new(own, own));
        // A level-0 child extends the extent to its coordinate exactly.
        t.upsert_child(entry(29_000, 0, 1), true);
        assert_eq!(
            t.own_subtree_extent(own, space, 6),
            KeyRange::new(NodeId(29_000), own)
        );
        // A level-1 child without a reported span contributes its generous
        // estimate (radius(2) = 4096 on both sides)...
        t.upsert_child(entry(33_000, 1, 1), true);
        assert_eq!(
            t.own_subtree_extent(own, space, 6),
            KeyRange::new(NodeId(28_904), NodeId(37_096))
        );
        // ...and its exact span once it reported one.
        t.record_child_span(
            NodeId(33_000),
            KeyRange::new(NodeId(32_500), NodeId(34_000)),
        );
        assert_eq!(
            t.own_subtree_extent(own, space, 6),
            KeyRange::new(NodeId(29_000), NodeId(34_000))
        );
    }

    #[test]
    fn parent_and_superiors() {
        let mut t = RoutingTables::new();
        assert!(t.parent().is_none());
        assert!(!t.has_superiors());
        t.set_parent(entry(50, 1, 1));
        assert_eq!(t.parent().unwrap().id, NodeId(50));
        t.upsert_superior(entry(60, 2, 1));
        t.upsert_superior(entry(70, 3, 1));
        t.upsert_superior(entry(80, 1, 1));
        assert!(t.has_superiors());
        assert_eq!(t.highest_superior().unwrap().id, NodeId(70));
        assert_eq!(t.clear_parent().unwrap().id, NodeId(50));
        assert!(t.parent().is_none());
        // The old parent held no other role: its registry record is gone.
        assert!(t.find(NodeId(50)).is_none());
        t.validate_invariants().unwrap();
    }

    #[test]
    fn replacing_the_parent_releases_the_old_record() {
        let mut t = RoutingTables::new();
        t.set_parent(entry(50, 1, 1));
        t.set_parent(entry(60, 1, 2));
        assert_eq!(t.parent().unwrap().id, NodeId(60));
        assert!(t.find(NodeId(50)).is_none(), "roleless peer is dropped");
        // A peer with another role survives a parent change.
        t.upsert_level0(entry(60, 1, 2));
        t.set_parent(entry(70, 1, 3));
        assert!(t.find(NodeId(60)).is_some());
        t.validate_invariants().unwrap();
    }

    #[test]
    fn find_searches_every_role() {
        let mut t = RoutingTables::new();
        t.upsert_level0(entry(1, 0, 1));
        t.upsert_level(1, entry(2, 1, 1));
        t.upsert_child(entry(3, 0, 1), true);
        t.set_parent(entry(4, 1, 1));
        t.upsert_superior(entry(5, 2, 1));
        for id in 1..=5 {
            assert!(t.find(NodeId(id)).is_some(), "id {id} should be found");
        }
        assert!(t.find(NodeId(99)).is_none());
    }

    #[test]
    fn touch_refreshes_the_canonical_entry() {
        let mut t = RoutingTables::new();
        t.upsert_level0(entry(1, 0, 1));
        t.upsert_child(entry(1, 0, 1), true);
        assert!(t.touch(NodeId(1), SimTime::from_millis(100)));
        assert!(!t.touch(NodeId(9), SimTime::from_millis(100)));
        // Every role observes the same refreshed timestamp: there is only
        // one entry.
        assert_eq!(
            t.level0().next().unwrap().last_seen,
            SimTime::from_millis(100)
        );
        assert_eq!(
            t.children().next().unwrap().last_seen,
            SimTime::from_millis(100)
        );
    }

    #[test]
    fn registry_returns_one_canonical_freshest_entry() {
        // Regression test for duplicate-entry drift: a peer known in several
        // roles used to keep an independent copy per table, and `find` /
        // `all_peers` surfaced whichever table was scanned first — possibly
        // a stale address. The registry must hold exactly one entry carrying
        // the newest address/level/timestamp, whatever the upsert order.
        let mut t = RoutingTables::new();
        t.upsert_level0(entry_at_addr(7, 700, 0, 10));
        // The same peer re-appears as a superior with a *newer* address.
        t.upsert_superior(entry_at_addr(7, 701, 2, 20));
        let found = t.find(NodeId(7)).unwrap();
        assert_eq!(found.addr, NodeAddr(701), "newest address wins");
        assert_eq!(found.max_level, 2);
        assert_eq!(found.last_seen, SimTime::from_millis(20));
        // Every role surfaces the same canonical record.
        assert_eq!(t.level0().next().unwrap().addr, NodeAddr(701));
        assert_eq!(t.superiors().next().unwrap().addr, NodeAddr(701));
        // Stale information arriving later does not roll the address back.
        t.upsert_child(entry_at_addr(7, 700, 0, 5), false);
        assert_eq!(t.find(NodeId(7)).unwrap().addr, NodeAddr(701));
        assert_eq!(t.find(NodeId(7)).unwrap().max_level, 2);
        // And all_peers reports the peer exactly once.
        let peers = t.all_peers();
        assert_eq!(peers.len(), 1);
        assert_eq!(peers[0].addr, NodeAddr(701));
        t.validate_invariants().unwrap();
    }

    #[test]
    fn remove_peer_reports_roles() {
        let mut t = RoutingTables::new();
        t.upsert_level0(entry(1, 0, 1));
        t.upsert_level(1, entry(1, 1, 1));
        t.upsert_child(entry(1, 0, 1), true);
        t.set_parent(entry(1, 1, 1));
        t.upsert_superior(entry(1, 2, 1));
        assert!(t.remove_peer(NodeId(1)));
        assert!(t.find(NodeId(1)).is_none());
        assert_eq!(t.sizes(), TableSizes::default(), "every role is gone");
        assert!(!t.remove_peer(NodeId(1)));
        t.validate_invariants().unwrap();
    }

    #[test]
    fn expire_is_a_single_canonical_sweep() {
        let mut t = RoutingTables::new();
        t.upsert_level0(entry(1, 0, 0));
        t.upsert_level0(entry(2, 0, 900));
        t.set_parent(entry(3, 1, 0));
        t.upsert_superior(entry(4, 2, 900));
        let removed = t.expire(SimTime::from_millis(1000), SimDuration::from_millis(500));
        assert_eq!(removed, vec![NodeId(1), NodeId(3)]);
        assert!(t.find(NodeId(2)).is_some());
        assert!(t.find(NodeId(4)).is_some());
        assert!(t.parent().is_none());
        t.validate_invariants().unwrap();
    }

    #[test]
    fn a_touched_peer_survives_expiry_in_every_role() {
        // The seed bug this design closes for good: a peer whose gossip
        // entry went stale while its parent link stayed fresh used to lose
        // the role whose copy happened to be stale. With one canonical
        // timestamp, a refresh through *any* channel keeps the peer alive in
        // *all* roles.
        let mut t = RoutingTables::new();
        t.upsert_superior(entry(5, 1, 0)); // learned via gossip at t=0
        t.set_parent(entry(5, 1, 0)); // adopted as parent
        t.touch(NodeId(5), SimTime::from_millis(950)); // keep-alive refresh
        let removed = t.expire(SimTime::from_millis(1000), SimDuration::from_millis(500));
        assert!(removed.is_empty());
        assert!(t.parent().is_some());
        assert!(t.has_superiors());
    }

    #[test]
    fn prune_keeps_the_closest_and_preserves_other_roles() {
        let mut t = RoutingTables::new();
        let space = IdSpace::default();
        for id in [100u64, 200, 300, 400, 500] {
            t.upsert_level0(entry(id, 0, 1));
        }
        // 400 is also our parent: pruning must not lose the registry entry.
        t.set_parent(entry(400, 1, 1));
        let pruned = t.prune_level0(space, NodeId(250), 2);
        assert_eq!(pruned, 3);
        let ids: Vec<u64> = t.level0().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![200, 300]);
        assert!(t.find(NodeId(100)).is_none(), "roleless peer dropped");
        assert!(t.find(NodeId(400)).is_some(), "parent entry survives");
        assert_eq!(t.parent().unwrap().id, NodeId(400));
        t.validate_invariants().unwrap();
    }

    #[test]
    fn all_peers_reports_each_peer_once_with_canonical_level() {
        let mut t = RoutingTables::new();
        t.upsert_level0(entry(1, 0, 1));
        t.upsert_superior(entry(1, 3, 1)); // same peer known as a superior at level 3
        t.upsert_child(entry(2, 0, 1), true);
        let peers = t.all_peers();
        assert_eq!(peers.len(), 2);
        let p1 = peers.iter().find(|e| e.id == NodeId(1)).unwrap();
        assert_eq!(p1.max_level, 3);
    }

    #[test]
    fn closest_peer_probes_ordered_neighbors() {
        let mut t = RoutingTables::new();
        let space = IdSpace::default();
        t.upsert_level0(entry(100, 0, 1));
        t.upsert_superior(entry(900, 2, 1));
        t.upsert_child(entry(520, 0, 1), true);
        let c = t
            .closest_peer(space, NodeId(510), NodeAddr(u64::MAX))
            .unwrap();
        assert_eq!(c.id, NodeId(520));
        // Excluding the nearest falls back to the next-nearest.
        let c2 = t.closest_peer(space, NodeId(510), NodeAddr(520)).unwrap();
        assert_eq!(c2.id, NodeId(900));
        // Ties prefer the smaller identifier.
        t.upsert_level0(entry(500, 0, 1));
        let tie = t
            .closest_peer(space, NodeId(510), NodeAddr(u64::MAX))
            .unwrap();
        assert_eq!(tie.id, NodeId(500));
        assert!(RoutingTables::new()
            .closest_peer(space, NodeId(1), NodeAddr(0))
            .is_none());
    }

    #[test]
    fn nearest_peers_walks_outward_in_distance_order() {
        let mut t = RoutingTables::new();
        let space = IdSpace::default();
        for id in [100u64, 480, 520, 560, 900] {
            t.upsert_level0(entry(id, 0, 1));
        }
        let near = t.nearest_peers(space, NodeId(500), 3, NodeAddr(u64::MAX));
        assert_eq!(
            near.iter().map(|e| e.id.0).collect::<Vec<_>>(),
            vec![480, 520, 560]
        );
        // Ties prefer the smaller identifier (the peer below).
        let tie = t.nearest_peers(space, NodeId(500), 2, NodeAddr(u64::MAX));
        assert_eq!(tie[0].id, NodeId(480));
        // Exclusion skips the excluded address but keeps walking.
        let excl = t.nearest_peers(space, NodeId(500), 2, NodeAddr(480));
        assert_eq!(
            excl.iter().map(|e| e.id.0).collect::<Vec<_>>(),
            vec![520, 560]
        );
        // Asking for more than exist returns everything.
        assert_eq!(
            t.nearest_peers(space, NodeId(0), 10, NodeAddr(u64::MAX))
                .len(),
            5
        );
        assert!(RoutingTables::new()
            .nearest_peers(space, NodeId(1), 3, NodeAddr(0))
            .is_empty());
    }

    #[test]
    fn peers_outward_walk_is_distance_ordered() {
        let mut t = RoutingTables::new();
        for id in [100u64, 480, 520, 560, 900] {
            t.upsert_level0(entry(id, 0, 1));
        }
        // Distances from 500: 480 and 520 tie at 20 (below wins), then 560
        // (60), then 100 and 900 tie at 400 (below wins).
        let ids: Vec<u64> = t.peers_outward_from(NodeId(500)).map(|e| e.id.0).collect();
        assert_eq!(ids, vec![480, 520, 560, 100, 900]);
        // An exact hit comes first.
        let ids: Vec<u64> = t.peers_outward_from(NodeId(520)).map(|e| e.id.0).collect();
        assert_eq!(ids[0], 520);
        assert_eq!(ids.len(), 5, "the walk visits every peer exactly once");
        assert!(RoutingTables::new()
            .peers_outward_from(NodeId(1))
            .next()
            .is_none());
    }

    #[test]
    fn kth_neighbor_ids_bound_the_replica_range() {
        let mut t = RoutingTables::new();
        for id in [100u64, 200, 300, 400, 500] {
            t.upsert_level0(entry(id, 0, 1));
        }
        assert_eq!(
            t.kth_neighbor_ids(NodeId(300), 2),
            (Some(NodeId(100)), Some(NodeId(500)))
        );
        assert_eq!(
            t.kth_neighbor_ids(NodeId(300), 1),
            (Some(NodeId(200)), Some(NodeId(400)))
        );
        // Fewer than k on a side: unbounded there.
        assert_eq!(
            t.kth_neighbor_ids(NodeId(150), 2),
            (None, Some(NodeId(300)))
        );
        assert_eq!(t.kth_neighbor_ids(NodeId(300), 0), (None, None));
    }

    /// The `k` identifiers nearest `key` by `(distance, id)` — the
    /// replication audit's definition of a replica set.
    fn k_nearest(ids: &[u64], key: u64, k: usize) -> Vec<u64> {
        let mut ids = ids.to_vec();
        ids.sort_by_key(|id| (id.abs_diff(key), *id));
        ids.truncate(k);
        ids
    }

    #[test]
    fn replica_pair_range_is_where_both_ends_are_among_the_k_nearest() {
        // A 7-bit space, so every key can be asked; populations from 2 to 9
        // nodes, so most nodes have fewer than k neighbours on a side, and
        // every third population sits on both edges of the space.
        let space = IdSpace::new(7);
        let max = space.max_id().0;
        let mut state = 0x5eed_0020_u64;
        let mut draw = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut pairs = 0;
        for trial in 0..120 {
            let mut ids: Vec<u64> = (0..2 + draw() % 8).map(|_| draw() % (max + 1)).collect();
            if trial % 3 == 0 {
                ids.extend([0, max]);
            }
            ids.sort_unstable();
            ids.dedup();
            for (at, &own) in ids.iter().enumerate() {
                let mut t = RoutingTables::new();
                for &id in ids.iter().filter(|&&id| id != own) {
                    t.upsert_level0(entry(id, 0, 1));
                }
                for k in 2..=4usize {
                    for j in 1..k {
                        let got = t.replica_pair_range(space, NodeId(own), k, j);
                        let Some(&partner) = ids.get(at + j) else {
                            assert!(got.is_none(), "{ids:?} own {own} k {k} j {j}");
                            continue;
                        };
                        let (entry, range) = got.expect("distinct identifiers share a key");
                        assert_eq!(entry.id, NodeId(partner));
                        assert!(range.lo <= range.hi && range.hi.0 <= max);
                        for key in 0..=max {
                            let nearest = k_nearest(&ids, key, k);
                            assert_eq!(
                                range.contains(NodeId(key)),
                                nearest.contains(&own) && nearest.contains(&partner),
                                "{ids:?} own {own} partner {partner} k {k} key {key}: {range:?}"
                            );
                        }
                        pairs += 1;
                    }
                }
            }
        }
        assert!(pairs > 1_000, "only {pairs} pairs drawn");
    }

    #[test]
    fn crossed_replica_pair_bounds_are_skipped_not_swapped() {
        // Identifiers beyond the space the caller names: the lower bound
        // (past the midpoint of 100 and 400) lies above the space's last
        // identifier, which is the upper bound for want of a third
        // neighbour above. `KeyRange::new` would answer [127, 251].
        let mut t = RoutingTables::new();
        for id in [100u64, 200, 400] {
            t.upsert_level0(entry(id, 0, 1));
        }
        assert!(t
            .replica_pair_range(IdSpace::new(7), NodeId(300), 3, 1)
            .is_none());
        assert!(t
            .replica_pair_range(IdSpace::default(), NodeId(300), 3, 1)
            .is_some());
    }

    #[test]
    fn sizes_and_active_connections() {
        let mut t = RoutingTables::new();
        t.upsert_level0(entry(1, 0, 1));
        t.upsert_level0(entry(2, 0, 1));
        t.upsert_level(1, entry(3, 1, 1));
        t.upsert_level(1, entry(4, 1, 1));
        t.upsert_child(entry(5, 0, 1), true);
        t.upsert_child(entry(6, 0, 1), false);
        t.set_parent(entry(7, 2, 1));
        t.upsert_superior(entry(8, 3, 1));
        let s = t.sizes();
        assert_eq!(s.level0, 2);
        assert_eq!(s.level_neighbors, 2);
        assert_eq!(s.own_children, 1);
        assert_eq!(s.neighbor_children, 1);
        assert_eq!(s.parent, 1);
        assert_eq!(s.superiors, 1);
        assert_eq!(s.total(), 8);

        // Level-0 node: l0 + parent.
        assert_eq!(t.active_connections(NodeId(10), 0), 3);
        // Level-1 node at id 3.5 (direct bus neighbours 3 and 4): l0 + ca + bus + parent.
        let conns = t.active_connections(NodeId(3), 1);
        assert_eq!(conns, 2 + 1 + 1 + 1); // right neighbour 4 only (3 is own id)
    }

    #[test]
    fn the_bisection_answers_what_the_count_answered() {
        // The count of the slots below a key is the reference: for `rank`,
        // `rank_through` and `grant`, which bisect, and for `position`,
        // `kth_neighbor_ids`, `bus_neighbors` and `multicast_fanout`. The
        // outward walk is held to a sort by distance.
        let mut state = 0x5eed_0026_u64;
        let mut draw = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let space = IdSpace::default();
        for size in [0usize, 1, 2, 5, 20, 40, 150] {
            for trial in 0..6 {
                let mut ids: Vec<u64> = (0..size).map(|_| draw()).collect();
                // Small identifiers, so neighbours and exact hits collide.
                if trial % 2 == 1 {
                    ids.iter_mut().for_each(|id| *id %= 4 * size as u64 + 1);
                }
                if trial % 3 == 0 && size > 0 {
                    ids[0] = 0;
                    ids[size - 1] = u64::MAX - (trial as u64 % 2);
                }
                // Every entry at level 0, so an own child's extent is its
                // coordinate and the fan-out has an exact reference.
                let mut t = RoutingTables::new();
                for (n, &id) in ids.iter().enumerate() {
                    match n % 3 {
                        0 => t.upsert_level0(entry(id, 0, 1)),
                        1 => t.upsert_level(2, entry(id, 0, 1)),
                        _ => t.upsert_child(entry(id, 0, 1), true),
                    }
                }
                t.validate_invariants().unwrap();
                let slots = &t.slots;
                let count = |key: u64| slots.iter().filter(|s| s.entry.id.0 < key).count();
                let mut keys = vec![0, 1, u64::MAX - 1, u64::MAX, draw()];
                for &id in &ids {
                    keys.extend([id.saturating_sub(1), id, id.saturating_add(1)]);
                }
                for key in keys.into_iter().map(NodeId) {
                    let below = count(key.0);
                    let hit = slots.get(below).is_some_and(|s| s.entry.id == key);
                    let through = below + usize::from(hit);
                    let position = if hit { Ok(below) } else { Err(below) };
                    assert_eq!(t.position(key), position, "{key:?} in {size} slots");
                    assert_eq!(t.rank(key), below);
                    assert_eq!(t.rank_through(key), through);

                    let mut granted = t.clone();
                    granted.grant(entry(key.0, 0, 2), LEVEL0, 0);
                    assert_eq!(granted.slots.len(), slots.len() + usize::from(!hit));
                    assert_eq!(granted.slots[below].entry.id, key);
                    granted.validate_invariants().unwrap();

                    let id_at = |i: usize| slots.get(i).map(|s| s.entry.id);
                    for k in 1..=3 {
                        assert_eq!(
                            t.kth_neighbor_ids(key, k),
                            (below.checked_sub(k).and_then(id_at), id_at(through + k - 1)),
                            "{key:?} k {k} in {size} slots"
                        );
                    }

                    let bus = |s: &&Slot| s.levels & bus_bit(2) != 0;
                    let left = slots[..below].iter().rev().find(bus);
                    let right = slots[below..].iter().find(|s| bus(s) && s.entry.id != key);
                    let (l, r) = t.bus_neighbors(2, key);
                    assert_eq!(
                        (l.map(|e| e.id), r.map(|e| e.id)),
                        (left.map(|s| s.entry.id), right.map(|s| s.entry.id))
                    );

                    let mut walk: Vec<NodeId> = slots.iter().map(|s| s.entry.id).collect();
                    walk.sort_by_key(|id| (id.0.abs_diff(key.0), *id));
                    assert!(t.peers_outward_from(key).map(|e| e.id).eq(walk));

                    let hi = NodeId(key.0.saturating_add(draw() % 1_000));
                    let range = KeyRange::new(key, hi);
                    let slack = draw() % 64;
                    let fanout: Vec<NodeId> = t
                        .multicast_fanout(space, 6, range, slack)
                        .iter()
                        .map(|e| e.id)
                        .collect();
                    let window = count(key.0.saturating_sub(slack));
                    let reference: Vec<NodeId> = slots[window..]
                        .iter()
                        .filter(|s| s.tree & OWN_CHILD != 0)
                        .map(|s| s.entry.id)
                        .filter(|id| {
                            range.overlaps_interval(
                                id.0.saturating_sub(slack),
                                id.0.saturating_add(slack),
                            )
                        })
                        .collect();
                    assert_eq!(fanout, reference, "{range:?} slack {slack} in {size} slots");
                }
            }
        }
    }

    #[test]
    fn the_point_query_answers_what_the_walk_answered() {
        // The keep-alive's ack test and the tick read one rule through two
        // code paths; the tick's walk is the reference.
        let mut state = 0x5eed_0041_u64;
        let mut draw = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Partners that are direct bus neighbours and nothing else: the
        // branch the walk between the peer and `own` decides.
        let mut bus_only = 0;
        for trial in 0..300 {
            let size = draw() % 24;
            // Small identifiers, so `own` and the absent probes land between
            // the slots and on them.
            let span = 3 * size + 2;
            let mut t = RoutingTables::new();
            for _ in 0..size {
                let id = draw() % span;
                // Buses 1–3 mostly, so slots cover one another's bits; now
                // and then one up to `MAX_BUS_LEVEL`.
                let mut levels = ((draw() % 16) as u32) & !LEVEL0;
                if draw() % 4 == 0 {
                    levels |= bus_bit(1 + (draw() % u64::from(MAX_BUS_LEVEL)) as u32);
                }
                if draw() % 3 == 0 {
                    levels |= LEVEL0;
                }
                let tree = match draw() % 6 {
                    0 => CHILD,
                    1 => CHILD | OWN_CHILD,
                    2 => SUPERIOR,
                    _ => 0,
                };
                if levels == 0 && tree == 0 {
                    continue;
                }
                t.grant(entry(id, 1, 1), levels, tree);
            }
            if trial % 4 == 0 {
                t.set_parent(entry(draw() % span, 2, 1));
            }
            t.validate_invariants().unwrap();
            let ids: Vec<u64> = t.slots.iter().map(|s| s.entry.id.0).collect();
            // `own` is a slot of its own registry in a third of the trials.
            let own = match ids.len() {
                n if n > 0 && trial % 3 == 0 => ids[draw() as usize % n],
                _ => draw() % span,
            };
            let mut probes = ids.clone();
            probes.extend([own, span, draw() % span, draw() % span]);
            for max_level in 0..=MAX_BUS_LEVEL {
                for &p in &probes {
                    let (own, p) = (NodeId(own), NodeId(p));
                    let walked = t.round_partners(own, max_level).any(|(e, _)| e.id == p);
                    assert_eq!(
                        t.is_round_partner(own, max_level, p),
                        walked,
                        "peer {p:?} of {own:?} at max level {max_level} in {ids:?}"
                    );
                    let roles = t.slot(p).map(|s| s.levels & LEVEL0 != 0 || by_report(s));
                    bus_only += usize::from(walked && roles == Some(false));
                }
            }
        }
        assert!(bus_only > 5_000, "only {bus_only} bus-only partners drawn");
    }

    #[test]
    fn emptied_bus_levels_are_dropped() {
        let mut t = RoutingTables::new();
        t.upsert_level(3, entry(9, 3, 1));
        assert_eq!(t.known_levels().collect::<Vec<_>>(), vec![3]);
        t.remove_peer(NodeId(9));
        assert!(t.known_levels().next().is_none());
        t.validate_invariants().unwrap();
    }
}
