//! Promotion layer: countdown elections, promotions and demotions.
//!
//! This layer grows and shrinks the hierarchy (Section III.b): a node that
//! reaches degree ≥ 2 without a parent calls an election; eligible
//! neighbours start capability-weighted countdowns and the first to fire
//! wins the seat ([`TreePMessage::ElectionCall`] /
//! [`TreePMessage::ParentAnnounce`] / [`TreePMessage::ParentAccept`]);
//! parents left with fewer than two children count down to demotion and
//! broadcast [`TreePMessage::Demotion`] when they step down. The
//! [`super::TIMER_ELECTION`] and [`super::TIMER_DEMOTION`] countdown timers
//! are owned here; round numbers carried in the timer payload invalidate
//! stale countdowns.

use super::*;

impl TreePNode {
    pub(super) fn trigger_election(&mut self, ctx: &mut Context<'_, TreePMessage>) {
        let level = self.max_level + 1;
        let now = ctx.now();
        let (delay, round) = self.election.start_election(
            level,
            &self.characteristics,
            self.config.election_base,
            now,
        );
        self.stats.elections_joined += 1;
        ctx.set_timer(delay, encode_timer(TIMER_ELECTION, round));
        let me = self.peer_info();
        let neighbors: Vec<NodeAddr> = self.tables.level0().map(|e| e.addr).collect();
        for addr in neighbors {
            if addr != me.addr {
                self.send(ctx, addr, TreePMessage::ElectionCall { level, caller: me });
            }
        }
    }

    fn win_election(&mut self, level: u32, ctx: &mut Context<'_, TreePMessage>) {
        let level = level.min(self.config.height);
        let prior_level = self.max_level;
        self.max_level = self.max_level.max(level);
        self.stats.promotions += 1;
        let me = self.peer_info();
        // Announce to the level-0 neighbours *and* to the bus neighbours of
        // every level held before the promotion: a same-level ex-peer is
        // exactly the node that needs the new parent (it can only adopt a
        // parent one level above itself), and it is often not a level-0
        // neighbour of the winner.
        let mut notify: Vec<NodeAddr> = self.tables.level0().map(|e| e.addr).collect();
        for lvl in 1..=prior_level {
            let (l, r) = self.tables.bus_neighbors(lvl, self.id);
            notify.extend([l, r].into_iter().flatten().map(|e| e.addr));
        }
        notify.sort_unstable();
        notify.dedup();
        for addr in notify {
            if addr != me.addr {
                self.send(
                    ctx,
                    addr,
                    TreePMessage::ParentAnnounce { level, parent: me },
                );
            }
        }
    }

    fn demote(&mut self, ctx: &mut Context<'_, TreePMessage>) {
        let from_level = self.max_level;
        if from_level == 0 {
            return;
        }
        self.max_level = 0;
        self.stats.demotions += 1;
        let me = self.peer_info();
        let mut notify: Vec<NodeAddr> = Vec::new();
        notify.extend(self.tables.children().map(|e| e.addr));
        for level in 1..=from_level {
            let (l, r) = self.tables.bus_neighbors(level, self.id);
            notify.extend([l, r].into_iter().flatten().map(|e| e.addr));
        }
        if let Some(p) = self.tables.parent() {
            notify.push(p.addr);
        }
        notify.sort_unstable();
        notify.dedup();
        for addr in notify {
            if addr != me.addr {
                self.send(
                    ctx,
                    addr,
                    TreePMessage::Demotion {
                        node: me,
                        from_level,
                    },
                );
            }
        }
        // Back to an ordinary level-0 node: the hierarchy-specific state goes
        // away; the old parent is kept only as a superior hint.
        if let Some(old_parent) = self.tables.clear_parent() {
            self.tables.upsert_superior(old_parent);
        }
        let own_children: Vec<NodeId> = self.tables.own_children().map(|e| e.id).collect();
        for child in own_children {
            self.tables.remove_peer(child);
        }
    }

    // ---- timers ----------------------------------------------------------------

    pub(super) fn election_timer_fired(&mut self, round: u64, ctx: &mut Context<'_, TreePMessage>) {
        if self.election.election_timer_is_current(round) {
            if let Some(level) = self.election.win_election() {
                self.win_election(level, ctx);
            }
        }
    }

    pub(super) fn demotion_timer_fired(&mut self, round: u64, ctx: &mut Context<'_, TreePMessage>) {
        if self.election.demotion_timer_is_current(round)
            && self.tables.own_children_count() < 2
            && self.election.complete_demotion()
        {
            self.demote(ctx);
        } else {
            self.election.cancel_demotion();
        }
    }

    // ---- message handlers -------------------------------------------------------

    pub(super) fn handle_election_call(
        &mut self,
        level: u32,
        caller: PeerInfo,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        let now = ctx.now();
        self.learn_peer(caller, now);
        // Only nodes one level below the seat being filled, without a parent
        // and with enough connections, participate.
        let eligible = self.max_level + 1 == level
            && level <= self.config.height
            && self.tables.parent().is_none()
            && self.tables.level0_degree() >= crate::tables::MIN_LEVEL0_CONNECTIONS;
        if eligible && self.election.election().is_none() {
            let (delay, round) = self.election.start_election(
                level,
                &self.characteristics,
                self.config.election_base,
                now,
            );
            self.stats.elections_joined += 1;
            ctx.set_timer(delay, encode_timer(TIMER_ELECTION, round));
        }
    }

    pub(super) fn handle_parent_announce(
        &mut self,
        level: u32,
        parent: PeerInfo,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        let now = ctx.now();
        self.learn_peer(parent, now);
        // The election is decided.
        self.election.cancel_election();
        if parent.id == self.id {
            return;
        }
        if level == self.max_level + 1 && self.tables.parent().is_none() {
            self.tables.set_parent(parent.into_entry(now));
            self.register_with_parent(parent.addr, ctx);
        } else {
            self.tables.upsert_superior(parent.into_entry(now));
        }
    }

    pub(super) fn handle_parent_accept(
        &mut self,
        child: PeerInfo,
        _ctx: &mut Context<'_, TreePMessage>,
        now: SimTime,
    ) {
        if self.max_level == 0 {
            // We announced and then demoted in the meantime; treat as contact.
            self.tables.upsert_level0(child.into_entry(now));
            return;
        }
        self.tables.upsert_child(child.into_entry(now), true);
        if self.tables.own_children_count() >= 2 {
            self.election.cancel_demotion();
        }
    }

    pub(super) fn handle_demotion(&mut self, node: PeerInfo, _from_level: u32, now: SimTime) {
        self.tables.remove_peer(node.id);
        // It is still a live level-0 peer.
        let mut downgraded = node;
        downgraded.max_level = 0;
        self.tables.upsert_level0(downgraded.into_entry(now));
    }
}
