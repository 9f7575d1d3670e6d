//! Countdown-based parent election and demotion (Section III.b).
//!
//! "When a node reaches a degree of 2 and does not have a parent, it will
//! search for a parent by contacting its neighbours. … When the election is
//! triggered, each participating node starts a countdown. The initial value
//! of the countdown is calculated according to the node characteristics. …
//! When the countdown of a node reaches 0 and if no other node was elected
//! during this time, it will signal to its neighbours that it is their new
//! parent. Similarly, if a parent has less than two children, it will start
//! a countdown, but this time, the higher is the characteristic the longer
//! is the countdown. At the end of the countdown, if it still has less than
//! two children it will leave its current level and will become an ordinary
//! node of the level 0."

use crate::characteristics::NodeCharacteristics;
use serde::{Deserialize, Serialize};
use simnet::{SimDuration, SimTime};

/// State of an ongoing election this node participates in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct ElectionRound {
    /// The level the elected parent will occupy.
    pub level: u32,
    /// When this node's countdown expires.
    pub expires_at: SimTime,
    /// Monotonically increasing round number; timer tokens embed it so a
    /// cancelled round's stale timer can be recognised and ignored.
    pub round: u64,
}

/// State of a pending self-demotion (parent with fewer than two children).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct DemotionCountdown {
    /// When the countdown expires.
    pub expires_at: SimTime,
    /// Round number used to invalidate stale timers.
    pub round: u64,
}

/// Election / demotion bookkeeping for one node.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct ElectionState {
    election: Option<ElectionRound>,
    demotion: Option<DemotionCountdown>,
    next_round: u64,
}

impl ElectionState {
    /// No election or demotion pending.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The election round in progress, if any.
    pub(crate) fn election(&self) -> Option<&ElectionRound> {
        self.election.as_ref()
    }

    /// The demotion countdown in progress, if any.
    pub(crate) fn demotion(&self) -> Option<&DemotionCountdown> {
        self.demotion.as_ref()
    }

    /// Begin (or restart) an election countdown for a parent at `level`.
    /// Returns the countdown delay and the round number to embed in the
    /// timer token.
    pub(crate) fn start_election(
        &mut self,
        level: u32,
        characteristics: &NodeCharacteristics,
        base: SimDuration,
        now: SimTime,
    ) -> (SimDuration, u64) {
        let delay = characteristics.election_countdown(base);
        let round = self.next_round;
        self.next_round += 1;
        self.election = Some(ElectionRound {
            level,
            expires_at: now + delay,
            round,
        });
        (delay, round)
    }

    /// A parent announcement arrived: the election is over, cancel any
    /// pending countdown. Returns true when a countdown was actually
    /// cancelled.
    pub(crate) fn cancel_election(&mut self) -> bool {
        self.election.take().is_some()
    }

    /// Does the expiring timer with `round` correspond to the live election
    /// countdown? (Stale timers from cancelled rounds must be ignored.)
    pub(crate) fn election_timer_is_current(&self, round: u64) -> bool {
        self.election.map(|e| e.round == round).unwrap_or(false)
    }

    /// The countdown expired with no winner announced: this node wins.
    /// Returns the level it should promote itself to.
    pub(crate) fn win_election(&mut self) -> Option<u32> {
        self.election.take().map(|e| e.level)
    }

    /// Begin (or restart) a demotion countdown.
    pub(crate) fn start_demotion(
        &mut self,
        characteristics: &NodeCharacteristics,
        base: SimDuration,
        now: SimTime,
    ) -> (SimDuration, u64) {
        let delay = characteristics.demotion_countdown(base);
        let round = self.next_round;
        self.next_round += 1;
        self.demotion = Some(DemotionCountdown {
            expires_at: now + delay,
            round,
        });
        (delay, round)
    }

    /// Enough children again: cancel the pending demotion.
    pub(crate) fn cancel_demotion(&mut self) -> bool {
        self.demotion.take().is_some()
    }

    /// Does the expiring timer with `round` correspond to the live demotion
    /// countdown?
    pub(crate) fn demotion_timer_is_current(&self, round: u64) -> bool {
        self.demotion.map(|d| d.round == round).unwrap_or(false)
    }

    /// The demotion countdown expired; clear it (the caller performs the
    /// actual demotion).
    pub(crate) fn complete_demotion(&mut self) -> bool {
        self.demotion.take().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn election_lifecycle() {
        let mut st = ElectionState::new();
        assert!(st.election().is_none());
        let strong = NodeCharacteristics::strong();
        let (delay, round) = st.start_election(
            1,
            &strong,
            SimDuration::from_millis(400),
            SimTime::from_millis(0),
        );
        assert!(delay <= SimDuration::from_millis(400));
        assert!(st.election_timer_is_current(round));
        assert!(!st.election_timer_is_current(round + 1));
        assert_eq!(st.election().unwrap().level, 1);
        assert_eq!(st.win_election(), Some(1));
        assert!(st.election().is_none());
        assert!(st.win_election().is_none());
    }

    #[test]
    fn cancelled_election_invalidates_timer() {
        let mut st = ElectionState::new();
        let c = NodeCharacteristics::default();
        let (_, round) = st.start_election(2, &c, SimDuration::from_millis(400), SimTime::ZERO);
        assert!(st.cancel_election());
        assert!(!st.cancel_election());
        assert!(!st.election_timer_is_current(round));
        assert!(st.win_election().is_none());
    }

    #[test]
    fn restarting_election_invalidates_previous_round() {
        let mut st = ElectionState::new();
        let c = NodeCharacteristics::default();
        let (_, round1) = st.start_election(1, &c, SimDuration::from_millis(400), SimTime::ZERO);
        let (_, round2) = st.start_election(
            1,
            &c,
            SimDuration::from_millis(400),
            SimTime::from_millis(10),
        );
        assert_ne!(round1, round2);
        assert!(!st.election_timer_is_current(round1));
        assert!(st.election_timer_is_current(round2));
    }

    #[test]
    fn demotion_lifecycle() {
        let mut st = ElectionState::new();
        let weak = NodeCharacteristics::weak();
        let strong = NodeCharacteristics::strong();
        let base = SimDuration::from_millis(800);
        let (weak_delay, _) = st.start_demotion(&weak, base, SimTime::ZERO);
        st.cancel_demotion();
        let (strong_delay, round) = st.start_demotion(&strong, base, SimTime::ZERO);
        assert!(
            strong_delay > weak_delay,
            "strong parents linger longer before demoting"
        );
        assert!(st.demotion_timer_is_current(round));
        assert!(st.complete_demotion());
        assert!(!st.complete_demotion());
        assert!(st.demotion().is_none());
    }

    #[test]
    fn election_and_demotion_are_independent() {
        let mut st = ElectionState::new();
        let c = NodeCharacteristics::default();
        let (_, er) = st.start_election(1, &c, SimDuration::from_millis(400), SimTime::ZERO);
        let (_, dr) = st.start_demotion(&c, SimDuration::from_millis(800), SimTime::ZERO);
        assert_ne!(er, dr);
        assert!(st.election_timer_is_current(er));
        assert!(st.demotion_timer_is_current(dr));
        st.cancel_election();
        assert!(
            st.demotion_timer_is_current(dr),
            "cancelling one must not affect the other"
        );
    }
}
