//! Pub/sub layer: topic subscriptions, filter reporting and topic
//! publishes.
//!
//! See [`crate::pubsub`] for the design (topic hashing, filter summaries,
//! pruning rules). This layer owns:
//!
//! * **Subscription state** — `local_topics` drives both delivery (the
//!   multicast descent delivers a [`MulticastPayload::Topic`] payload only
//!   to locally subscribed nodes) and the subtree filter summary. A
//!   [`TreePNode::start_subscribe`] or [`TreePNode::start_unsubscribe`]
//!   changes it at once and sends nothing but the filter report it causes:
//!   no node keeps a directory of a topic's subscribers.
//! * **Filter reports** — the node's subtree summary
//!   ([`RoutingTables::subtree_filter`]) is sent to the parent
//!   event-driven on every change (local subscribe/unsubscribe, a child's
//!   report changing the union) and periodically from the maintenance tick
//!   next to the `ChildReport` span, bounding the propagation of a new
//!   subscription to one tree ascent.
//!
//! Everything here is inert while `pubsub_enabled` is off: the handlers
//! ignore stray pub/sub messages, no filter state is kept and no timers are
//! armed, keeping the off-mode wire byte-identical.

use super::*;
use crate::multicast::{AggregateQuery, MulticastPayload};
use crate::pubsub::MAX_FILTER_TOPICS;

impl TreePNode {
    /// Subscribe this node to `topic` (a coordinate from
    /// [`crate::pubsub::topic_key`]). Delivery starts at once: the local
    /// subscription takes effect now and the changed filter goes to the
    /// parent in the same event. Requires `pubsub_enabled`.
    pub fn start_subscribe(&mut self, topic: NodeId, ctx: &mut Context<'_, TreePMessage>) {
        ctx.start_trace("subscribe");
        self.features().local_topics.insert(topic);
        self.filters_changed(ctx);
    }

    /// Drop this node's subscription of `topic`: the mirror of
    /// [`TreePNode::start_subscribe`].
    pub fn start_unsubscribe(&mut self, topic: NodeId, ctx: &mut Context<'_, TreePMessage>) {
        ctx.start_trace("unsubscribe");
        self.features().local_topics.remove(&topic);
        self.filters_changed(ctx);
    }

    /// Publish `data` on `topic`: one scoped multicast over the whole
    /// identifier space whose descent is pruned by the recorded
    /// subscription filters and delivered only to subscribed nodes.
    /// Exactly-once per live subscriber is structural (one parent per
    /// node, directional bus walk, seen-window dedup under churn); with
    /// `max_retransmits > 0` every hop additionally rides the reliability
    /// layer.
    pub fn start_publish(
        &mut self,
        topic: NodeId,
        data: Vec<u8>,
        ctx: &mut Context<'_, TreePMessage>,
    ) -> RequestId {
        ctx.start_trace("publish");
        let request_id = self.fresh_request_id();
        let payload = MulticastPayload::Topic { topic, data };
        self.originate(request_id, KeyRange::full(self.config.space), payload, ctx)
    }

    /// The DHT keys stored anywhere in `range`: one scoped aggregation
    /// whose fan-out visits only subtrees whose spans, widened by one
    /// level-1 radius, intersect the range (the node storing a key can sit
    /// just outside it) and whose convergecast folds the per-node key lists into one
    /// deduplicated, sorted answer (see
    /// [`crate::AggregatePartial::Keys`]). The outcome lands in
    /// [`TreePNode::drain_aggregate_outcomes`]; a result at the
    /// `crate::pubsub::MAX_RANGE_KEYS` bound arrives flagged truncated.
    pub fn start_range_query(
        &mut self,
        range: KeyRange,
        ctx: &mut Context<'_, TreePMessage>,
    ) -> RequestId {
        self.start_aggregate(range, AggregateQuery::KeysInRange, ctx)
    }

    // ---- filter reporting --------------------------------------------------------

    /// Recompute the subtree filter and report it to the parent when it
    /// differs from the last reported one — called after every event that
    /// can change the summary (local subscribe/unsubscribe, a child filter
    /// recorded or dropped). No-op while the layer is off.
    pub(super) fn filters_changed(&mut self, ctx: &mut Context<'_, TreePMessage>) {
        if !self.config.pubsub_enabled {
            return;
        }
        let filter = self
            .tables
            .subtree_filter(self.subscribed_topics().iter(), MAX_FILTER_TOPICS);
        if self.features().last_reported_filter.as_ref() == Some(&filter) {
            return;
        }
        self.report_filter(filter, ctx);
    }

    /// Unconditionally (re-)send the current subtree filter to the parent:
    /// the periodic refresh next to the `ChildReport`, and the
    /// adoption-time report that closes the churn window of a child moving
    /// between parents. No-op while the layer is off.
    pub(super) fn report_filter_to_parent(&mut self, ctx: &mut Context<'_, TreePMessage>) {
        if !self.config.pubsub_enabled {
            return;
        }
        let filter = self
            .tables
            .subtree_filter(self.subscribed_topics().iter(), MAX_FILTER_TOPICS);
        self.report_filter(filter, ctx);
    }

    fn report_filter(&mut self, filter: TopicFilter, ctx: &mut Context<'_, TreePMessage>) {
        let Some(parent) = self.tables.parent().map(|p| p.addr) else {
            // A root has nobody to prune for it; remember the summary so a
            // later adoption-time report starts from the right baseline.
            self.features().last_reported_filter = Some(filter);
            return;
        };
        let me = self.peer_info();
        self.send(
            ctx,
            parent,
            TreePMessage::FilterReport {
                child: me,
                topics: filter.topics.iter().copied().collect(),
                overflow: filter.overflow,
            },
        );
        self.features().last_reported_filter = Some(filter);
    }

    /// A child reported its subtree's topic summary: record it (only own
    /// children are accepted) and propagate the changed union up the
    /// ancestor chain.
    pub(super) fn handle_filter_report(
        &mut self,
        child: PeerInfo,
        topics: Vec<NodeId>,
        overflow: bool,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        if !self.config.pubsub_enabled {
            return;
        }
        let filter = if overflow {
            TopicFilter {
                topics: Default::default(),
                overflow: true,
            }
        } else {
            // Re-bound on receipt: a report larger than this node's bound
            // (mixed configurations) degrades to overflow instead of
            // growing the table.
            TopicFilter::from_topics(topics, MAX_FILTER_TOPICS)
        };
        if self.tables.record_child_filter(child.id, filter) {
            self.filters_changed(ctx);
        }
    }
}
