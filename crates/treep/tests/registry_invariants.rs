//! Property-style tests for the indexed peer registry behind
//! [`RoutingTables`].
//!
//! Randomized operation traces (seeded [`simnet::SimRng`], so failures are
//! reproducible) are replayed simultaneously against the registry and
//! against a deliberately naive reference model that stores one canonical
//! record per peer plus plain role sets and implements every query by
//! linear scan. After each operation the registry's structural invariants
//! are checked ([`RoutingTables::validate_invariants`]) and the observable
//! behaviour — find, role membership, sizes, closest-child and fan-out
//! selection, expiry — must match the model exactly. So must every probe
//! the flat registry derives from slice bounds (`closest_peer`,
//! `nearest_peers` and the borrowed `nearest_walk`, `peers_outward_from`,
//! `kth_neighbor_ids`, `bus_neighbors`), asked at keys equal to, just below
//! and just above a stored identifier, with and without the nearest entry
//! excluded by address. One operation re-inserts a copy taken out of the
//! registry after its peer left: the copy still carries the role bits it
//! held there, and the registry must file it by the role it is given.

use simnet::{NodeAddr, SimDuration, SimRng, SimTime};
use treep::{IdSpace, KeyRange, NodeId, RoutingEntry, RoutingTables, TopicFilter};

fn space() -> IdSpace {
    IdSpace::new(16)
}
const HEIGHT: u32 = 6;
const TTL_MS: u64 = 500;

/// The naive reference: canonical entries + role sets, every query a scan.
#[derive(Default)]
struct Model {
    peers: std::collections::BTreeMap<NodeId, RoutingEntry>,
    level0: std::collections::BTreeSet<NodeId>,
    levels: std::collections::BTreeMap<u32, std::collections::BTreeSet<NodeId>>,
    children: std::collections::BTreeSet<NodeId>,
    own_children: std::collections::BTreeSet<NodeId>,
    parent: Option<NodeId>,
    superiors: std::collections::BTreeSet<NodeId>,
    /// Spans / topic filters recorded for own children.
    spans: std::collections::BTreeMap<NodeId, KeyRange>,
    filters: std::collections::BTreeSet<NodeId>,
}

impl Model {
    fn upsert(&mut self, entry: RoutingEntry) {
        match self.peers.get_mut(&entry.id) {
            Some(existing) => existing.merge(&entry),
            None => {
                self.peers.insert(entry.id, entry);
            }
        }
    }

    fn has_role(&self, id: NodeId) -> bool {
        self.level0.contains(&id)
            || self.children.contains(&id)
            || self.superiors.contains(&id)
            || self.parent == Some(id)
            || self.levels.values().any(|s| s.contains(&id))
    }

    fn gc(&mut self, id: NodeId) {
        if !self.has_role(id) {
            self.peers.remove(&id);
        }
    }

    fn remove(&mut self, id: NodeId) {
        self.level0.remove(&id);
        for s in self.levels.values_mut() {
            s.remove(&id);
        }
        self.levels.retain(|_, s| !s.is_empty());
        self.children.remove(&id);
        self.own_children.remove(&id);
        if self.parent == Some(id) {
            self.parent = None;
        }
        self.superiors.remove(&id);
        self.peers.remove(&id);
        self.spans.remove(&id);
        self.filters.remove(&id);
    }

    fn expire(&mut self, now: SimTime, ttl: SimDuration) -> Vec<NodeId> {
        let stale: Vec<NodeId> = self
            .peers
            .values()
            .filter(|e| e.is_stale(now, ttl))
            .map(|e| e.id)
            .collect();
        for id in &stale {
            self.remove(*id);
        }
        stale
    }

    fn prune_level0(&mut self, own: NodeId, keep: usize) {
        if self.level0.len() <= keep {
            return;
        }
        let mut by_distance: Vec<(u64, NodeId)> = self
            .level0
            .iter()
            .map(|&id| (space().distance(id, own), id))
            .collect();
        by_distance.sort_unstable();
        for &(_, id) in &by_distance[keep..] {
            self.level0.remove(&id);
            self.gc(id);
        }
    }

    /// Every peer not at `exclude`, sorted by `(distance to key, id)`: the
    /// order every distance probe of the registry must reproduce.
    fn by_distance(&self, key: NodeId, exclude: NodeAddr) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self
            .peers
            .values()
            .filter(|e| e.addr != exclude)
            .map(|e| e.id)
            .collect();
        ids.sort_by_key(|id| (space().distance(*id, key), *id));
        ids
    }

    fn kth_neighbor_ids(&self, own: NodeId, k: usize) -> (Option<NodeId>, Option<NodeId>) {
        if k == 0 {
            return (None, None);
        }
        let below: Vec<NodeId> = self.peers.keys().copied().filter(|id| *id < own).collect();
        let above: Vec<NodeId> = self.peers.keys().copied().filter(|id| *id > own).collect();
        (
            below.iter().rev().nth(k - 1).copied(),
            above.get(k - 1).copied(),
        )
    }

    fn bus_neighbors(&self, level: u32, own: NodeId) -> (Option<NodeId>, Option<NodeId>) {
        let bus = || self.levels.get(&level).into_iter().flatten().copied();
        (
            bus().filter(|id| *id < own).max(),
            bus().filter(|id| *id > own).min(),
        )
    }

    fn active_connections(&self, own: NodeId, max_level: u32) -> usize {
        let mut n = self.level0.len() + usize::from(self.parent.is_some());
        if max_level > 0 {
            n += self.own_children.len();
            for level in 1..=max_level {
                let (l, r) = self.bus_neighbors(level, own);
                n += usize::from(l.is_some()) + usize::from(r.is_some());
            }
        }
        n
    }

    fn highest_superior(&self) -> Option<NodeId> {
        self.superiors
            .iter()
            .copied()
            .max_by_key(|id| (self.peers[id].max_level, std::cmp::Reverse(*id)))
    }

    /// The own children a multicast over `range` descends to, by the
    /// paper's extent rule: the recorded span, else a level-0 child's own
    /// coordinate (both widened by `slack`), else the tessellation radius
    /// `L >> (h - (level + 1))` around a higher child.
    fn fanout(&self, range: KeyRange, slack: u64) -> Vec<NodeId> {
        self.own_children
            .iter()
            .copied()
            .filter(|id| {
                let level = self.peers[id].max_level;
                let (lo, hi) = match self.spans.get(id) {
                    Some(span) => (
                        span.lo.0.saturating_sub(slack),
                        span.hi.0.saturating_add(slack),
                    ),
                    None if level == 0 => (id.0.saturating_sub(slack), id.0.saturating_add(slack)),
                    None => {
                        let radius = space().size() >> HEIGHT.saturating_sub(level + 1);
                        (id.0.saturating_sub(radius), id.0.saturating_add(radius))
                    }
                };
                range.lo.0 <= hi && lo <= range.hi.0
            })
            .collect()
    }

    fn closest_child(&self, target: NodeId) -> Option<NodeId> {
        self.own_children
            .iter()
            .copied()
            .min_by_key(|id| (space().distance(*id, target), *id))
    }
}

/// The probes re-derived from slice bounds, at one key.
fn compare_probes(tables: &RoutingTables, model: &Model, key: NodeId, op: &str) {
    let nobody = NodeAddr(u64::MAX);
    assert_eq!(
        tables.find(key).map(|e| e.id),
        model.peers.get(&key).map(|e| e.id),
        "find({key:?}) after {op}"
    );
    assert_eq!(
        tables.is_own_child(key),
        model.own_children.contains(&key),
        "is_own_child({key:?}) after {op}"
    );
    assert_eq!(
        tables.is_level0_neighbor(key),
        model.level0.contains(&key),
        "is_level0_neighbor({key:?}) after {op}"
    );
    assert_eq!(
        tables.child_span(key),
        model.spans.get(&key).copied(),
        "child_span({key:?}) after {op}"
    );
    assert_eq!(
        tables.child_filter(key).is_some(),
        model.filters.contains(&key),
        "child_filter({key:?}) after {op}"
    );

    let walked: Vec<NodeId> = tables.peers_outward_from(key).map(|e| e.id).collect();
    assert_eq!(
        walked,
        model.by_distance(key, nobody),
        "outward walk from {key:?} after {op}"
    );

    // Once with nobody excluded, once with the nearest entry's address
    // excluded (the probe must step over it, on whichever side it sits).
    let nearest_addr = walked.first().map(|id| model.peers[id].addr);
    for exclude in [Some(nobody), nearest_addr].into_iter().flatten() {
        let want = model.by_distance(key, exclude);
        assert_eq!(
            tables.closest_peer(space(), key, exclude).map(|e| e.id),
            want.first().copied(),
            "closest_peer({key:?}, {exclude:?}) after {op}"
        );
        let walk: Vec<NodeId> = tables.nearest_walk(key, exclude).map(|e| e.id).collect();
        assert_eq!(walk, want, "nearest_walk({key:?}, {exclude:?}) after {op}");
        for count in [0, 1, 4, want.len() + 2] {
            let got: Vec<NodeId> = tables
                .nearest_peers(space(), key, count, exclude)
                .iter()
                .map(|e| e.id)
                .collect();
            let want = &want[..count.min(want.len())];
            assert_eq!(got, want, "nearest_peers({key:?}, {count}) after {op}");
        }
    }

    for k in [0, 1, 2, 5] {
        assert_eq!(
            tables.kth_neighbor_ids(key, k),
            model.kth_neighbor_ids(key, k),
            "kth_neighbor_ids({key:?}, {k}) after {op}"
        );
    }
    for level in 0..=4 {
        let (l, r) = tables.bus_neighbors(level, key);
        assert_eq!(
            (l.map(|e| e.id), r.map(|e| e.id)),
            model.bus_neighbors(level, key),
            "bus_neighbors({level}, {key:?}) after {op}"
        );
        assert_eq!(
            tables.active_connections(key, level),
            model.active_connections(key, level),
            "active_connections({key:?}, {level}) after {op}"
        );
    }
}

fn compare(tables: &RoutingTables, model: &Model, keys: &[NodeId], op: &str) {
    tables
        .validate_invariants()
        .unwrap_or_else(|e| panic!("invariant violated after {op}: {e}"));

    let got_l0: Vec<NodeId> = tables.level0().map(|e| e.id).collect();
    let want_l0: Vec<NodeId> = model.level0.iter().copied().collect();
    assert_eq!(got_l0, want_l0, "level0 mismatch after {op}");

    let got_children: Vec<NodeId> = tables.children().map(|e| e.id).collect();
    let want_children: Vec<NodeId> = model.children.iter().copied().collect();
    assert_eq!(got_children, want_children, "children mismatch after {op}");

    let got_own: Vec<NodeId> = tables.own_children().map(|e| e.id).collect();
    let want_own: Vec<NodeId> = model.own_children.iter().copied().collect();
    assert_eq!(got_own, want_own, "own children mismatch after {op}");

    assert_eq!(
        tables.parent().map(|e| e.id),
        model.parent,
        "parent mismatch after {op}"
    );

    let got_sup: Vec<NodeId> = tables.superiors().map(|e| e.id).collect();
    let want_sup: Vec<NodeId> = model.superiors.iter().copied().collect();
    assert_eq!(got_sup, want_sup, "superiors mismatch after {op}");

    // Per-level bus indexes, in both directions: every model bus matches
    // member-for-member, and the tables know no extra levels.
    let got_levels: Vec<u32> = tables.known_levels().collect();
    let want_levels: Vec<u32> = model.levels.keys().copied().collect();
    assert_eq!(got_levels, want_levels, "bus level set mismatch after {op}");
    for (lvl, want_bus) in &model.levels {
        let got_bus: Vec<NodeId> = tables.level_members(*lvl).map(|e| e.id).collect();
        let want_bus: Vec<NodeId> = want_bus.iter().copied().collect();
        assert_eq!(got_bus, want_bus, "bus {lvl} mismatch after {op}");
    }

    // Canonical lookups: one freshest entry per peer, everywhere.
    assert_eq!(
        tables.all_peers().len(),
        model.peers.len(),
        "all_peers length mismatch after {op}"
    );
    for (id, want) in &model.peers {
        let got = tables
            .find(*id)
            .unwrap_or_else(|| panic!("{id:?} missing from registry after {op}"));
        assert_eq!(got.addr, want.addr, "stale addr for {id:?} after {op}");
        assert_eq!(got.max_level, want.max_level, "level drift after {op}");
        assert_eq!(got.last_seen, want.last_seen, "timestamp drift after {op}");
    }

    assert_eq!(
        tables.highest_superior().map(|e| e.id),
        model.highest_superior(),
        "highest_superior after {op}"
    );
    assert_eq!(
        tables.has_superiors(),
        !model.superiors.is_empty(),
        "has_superiors after {op}"
    );
    assert_eq!(
        tables.level0_degree(),
        model.level0.len(),
        "level0_degree after {op}"
    );
    assert_eq!(
        tables.own_children_count(),
        model.own_children.len(),
        "own_children_count after {op}"
    );
    assert_eq!(
        tables.level_neighbor_count(),
        model.levels.values().map(|s| s.len()).sum::<usize>(),
        "level_neighbor_count after {op}"
    );
    for key in keys {
        compare_probes(tables, model, *key, op);
    }

    let sizes = tables.sizes();
    assert_eq!(sizes.level0, model.level0.len(), "sizes.level0 after {op}");
    assert_eq!(
        sizes.parent,
        usize::from(model.parent.is_some()),
        "sizes.parent after {op}"
    );
    assert_eq!(
        sizes.own_children,
        model.own_children.len(),
        "sizes.own_children after {op}"
    );
    assert_eq!(
        sizes.superiors,
        model.superiors.len(),
        "sizes.superiors after {op}"
    );
    assert_eq!(
        sizes.neighbor_children,
        model.children.len() - model.own_children.len(),
        "sizes.neighbor_children after {op}"
    );
    assert_eq!(
        sizes.level_neighbors,
        model.levels.values().map(|s| s.len()).sum::<usize>(),
        "sizes.level_neighbors after {op}"
    );
}

fn random_trace(seed: u64, steps: usize) {
    let mut rng = SimRng::seed_from(seed);
    let mut tables = RoutingTables::new();
    let mut model = Model::default();
    let mut now_ms: u64 = 0;

    for step in 0..steps {
        // Mostly-forward clock with occasional stale-information arrivals.
        now_ms += rng.gen_range_u64(0..40);
        // Stored identifiers are multiples of ten, so `id - 1` and `id + 1`
        // probe just beside a stored slot without hitting another.
        let id = NodeId(10 * (1 + rng.gen_range_u64(0..48)));
        // Addresses drift over time so canonical-freshness is exercised.
        let addr = NodeAddr(id.0 * 1000 + rng.gen_range_u64(0..3));
        let level = rng.gen_range_u64(0..4) as u32;
        let at_ms = if rng.gen_range_u64(0..5) == 0 {
            now_ms.saturating_sub(rng.gen_range_u64(0..200))
        } else {
            now_ms
        };
        let entry = RoutingEntry::new(id, addr, level, SimTime::from_millis(at_ms));

        let op = rng.gen_range_u64(0..16);
        let name = match op {
            0 | 1 => {
                tables.upsert_level0(entry);
                model.upsert(entry);
                model.level0.insert(id);
                "upsert_level0"
            }
            2 => {
                let lvl = 1 + rng.gen_range_u64(0..3) as u32;
                tables.upsert_level(lvl, entry);
                model.upsert(entry);
                model.levels.entry(lvl).or_default().insert(id);
                "upsert_level"
            }
            3 | 4 => {
                let own = rng.gen_range_u64(0..2) == 0;
                tables.upsert_child(entry, own);
                model.upsert(entry);
                model.children.insert(id);
                if own {
                    model.own_children.insert(id);
                }
                "upsert_child"
            }
            5 => {
                tables.set_parent(entry);
                model.upsert(entry);
                let old = model.parent.replace(id);
                if let Some(old) = old {
                    if old != id {
                        model.gc(old);
                    }
                }
                "set_parent"
            }
            6 => {
                tables.upsert_superior(entry);
                model.upsert(entry);
                model.superiors.insert(id);
                "upsert_superior"
            }
            7 => {
                let t = SimTime::from_millis(now_ms);
                let got = tables.touch(id, t);
                let want = model.peers.contains_key(&id);
                assert_eq!(got, want, "touch known-ness diverged");
                if let Some(e) = model.peers.get_mut(&id) {
                    e.touch(t);
                }
                "touch"
            }
            8 => {
                let known = tables.remove_peer(id);
                assert_eq!(
                    known,
                    model.peers.contains_key(&id),
                    "remove_peer known-ness diverged"
                );
                model.remove(id);
                "remove_peer"
            }
            9 => {
                let t = SimTime::from_millis(now_ms);
                let ttl = SimDuration::from_millis(TTL_MS);
                let removed = tables.expire(t, ttl);
                let want = model.expire(t, ttl);
                assert_eq!(removed, want, "expire victim set diverged");
                "expire"
            }
            10 => {
                let keep = rng.gen_range_usize(0..12);
                let pruned = tables.prune_level0(space(), id, keep);
                let before = model.level0.len();
                model.prune_level0(id, keep);
                assert_eq!(pruned, before - model.level0.len(), "prune count diverged");
                "prune_level0"
            }
            11 => {
                let got = tables.clear_parent().map(|e| e.id);
                let want = model.parent.take();
                assert_eq!(got, want, "clear_parent diverged");
                if let Some(old) = want {
                    model.gc(old);
                }
                "clear_parent"
            }
            12 => {
                // Spans are accepted for own children only, and vanish with
                // their child (checked by `compare_probes` ever after).
                let span = KeyRange::new(NodeId(id.0 - 5), NodeId(id.0 + 5));
                let accepted = tables.record_child_span(id, span);
                assert_eq!(
                    accepted,
                    model.own_children.contains(&id),
                    "span acceptance"
                );
                if accepted {
                    model.spans.insert(id, span);
                }
                "record_child_span"
            }
            13 => {
                let accepted =
                    tables.record_child_filter(id, TopicFilter::from_topics([NodeId(7)], 8));
                assert_eq!(
                    accepted,
                    model.own_children.contains(&id),
                    "filter acceptance"
                );
                if accepted {
                    model.filters.insert(id);
                }
                "record_child_filter"
            }
            14 => {
                // A copy taken out of the registry still carries the roles
                // it held there. Drop the peer (the parent by `clear_parent`,
                // as the tick demotes one), then re-insert the copy in one
                // role: the registry must file it as the model does.
                let from_parent = rng.gen_range_u64(0..2) == 0;
                let copy = if from_parent {
                    tables.parent().copied()
                } else {
                    tables.find(id).copied()
                };
                if let Some(copy) = copy {
                    if from_parent {
                        tables.clear_parent();
                        model.parent = None;
                        model.gc(copy.id);
                    } else {
                        tables.remove_peer(copy.id);
                        model.remove(copy.id);
                    }
                    model.upsert(copy);
                    match rng.gen_range_u64(0..4) {
                        0 => {
                            tables.upsert_level0(copy);
                            model.level0.insert(copy.id);
                        }
                        1 => {
                            tables.upsert_level(2, copy);
                            model.levels.entry(2).or_default().insert(copy.id);
                        }
                        2 => {
                            tables.upsert_child(copy, false);
                            model.children.insert(copy.id);
                        }
                        _ => {
                            tables.upsert_superior(copy);
                            model.superiors.insert(copy.id);
                        }
                    }
                }
                "reinsert_copy"
            }
            _ => {
                // Half the ranges are narrow and among the stored
                // identifiers, where spans, slack and levels decide.
                let (reach, width) = if rng.gen_range_u64(0..2) == 0 {
                    (1_500, 100)
                } else {
                    (50_000, 5_000)
                };
                let a = NodeId(rng.gen_range_u64(0..reach));
                let b = NodeId(a.0 + rng.gen_range_u64(0..width));
                let range = KeyRange::new(a, b);
                // Fan-out selection: exactly the own children the extent
                // rule admits, in identifier order, with and without the
                // level-0 visiting slack.
                let slack = if rng.gen_range_u64(0..2) == 0 { 0 } else { 700 };
                let fanout: Vec<NodeId> = tables
                    .multicast_fanout(space(), HEIGHT, range, slack)
                    .iter()
                    .map(|e| e.id)
                    .collect();
                assert_eq!(
                    fanout,
                    model.fanout(range, slack),
                    "multicast_fanout({range:?}, slack {slack})"
                );
                // Closest-child agreement with the naive scan.
                let target = NodeId(rng.gen_range_u64(0..60_000));
                assert_eq!(
                    tables.closest_child(target).map(|e| e.id),
                    model.closest_child(target),
                    "closest_child diverged"
                );
                "queries"
            }
        };
        let keys = [
            id,
            NodeId(id.0 - 1),
            NodeId(id.0 + 1),
            NodeId(rng.gen_range_u64(0..600)),
        ];
        compare(
            &tables,
            &model,
            &keys,
            &format!("step {step}: {name} (seed {seed})"),
        );
    }
}

#[test]
fn randomized_traces_uphold_registry_invariants() {
    for seed in 1..=20 {
        random_trace(seed, 400);
    }
}

#[test]
fn long_trace_with_heavy_churn() {
    random_trace(0xC0FFEE, 3_000);
}

#[test]
fn expiry_never_severs_roles_of_touched_peers() {
    // Directed property on top of the random traces: whatever roles a peer
    // holds, touching it through any channel protects all of them from the
    // next sweep, and letting it go stale removes all of them at once.
    let mut rng = SimRng::seed_from(7);
    for _ in 0..200 {
        let mut t = RoutingTables::new();
        let id = NodeId(1 + rng.gen_range_u64(0..1000));
        let entry = RoutingEntry::new(id, NodeAddr(id.0), 1, SimTime::ZERO);
        let mut roles = 0;
        if rng.gen_range_u64(0..2) == 0 {
            t.upsert_level0(entry);
            roles += 1;
        }
        if rng.gen_range_u64(0..2) == 0 {
            t.upsert_child(entry, true);
            roles += 1;
        }
        if rng.gen_range_u64(0..2) == 0 {
            t.set_parent(entry);
            roles += 1;
        }
        if rng.gen_range_u64(0..2) == 0 || roles == 0 {
            t.upsert_superior(entry);
        }
        let touched = rng.gen_range_u64(0..2) == 0;
        if touched {
            t.touch(id, SimTime::from_millis(900));
        }
        let removed = t.expire(SimTime::from_millis(1000), SimDuration::from_millis(TTL_MS));
        if touched {
            assert!(removed.is_empty());
            assert!(t.find(id).is_some());
        } else {
            assert_eq!(removed.len(), 1);
            assert!(t.find(id).is_none(), "all roles leave together");
            assert!(t.parent().is_none());
        }
        t.validate_invariants().unwrap();
    }
}
