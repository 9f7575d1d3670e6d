//! Link model: per-message latency and loss.
//!
//! TreeP is evaluated on message/hop counts rather than wall-clock numbers,
//! but the simulator still models latency (so keep-alive and election timers
//! interleave realistically) and loss (UDP gives no delivery guarantee).

use crate::protocol::NodeAddr;
use crate::rng::SimRng;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// How per-message latency is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Fixed(SimDuration),
    /// Uniformly distributed in `[min, max]`.
    Uniform {
        /// Minimum one-way latency.
        min: SimDuration,
        /// Maximum one-way latency.
        max: SimDuration,
    },
}

impl LatencyModel {
    /// Draw a latency sample.
    pub(crate) fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Uniform { min, max } => {
                if max.0 <= min.0 {
                    min
                } else {
                    SimDuration(rng.gen_range_u64(min.0..max.0 + 1))
                }
            }
        }
    }
}

/// How message loss is decided.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LossModel {
    /// No message is ever dropped.
    None,
    /// Each message is independently dropped with probability `p`.
    Bernoulli {
        /// Drop probability in `[0, 1]`.
        p: f64,
    },
}

impl LossModel {
    /// Returns true when the message should be dropped.
    pub(crate) fn drops(&self, rng: &mut SimRng) -> bool {
        match *self {
            LossModel::None => false,
            LossModel::Bernoulli { p } => rng.gen_bool(p),
        }
    }
}

/// Combined link model applied to every (src, dest) pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// Latency distribution.
    pub latency: LatencyModel,
    /// Loss distribution.
    pub loss: LossModel,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel {
            latency: LatencyModel::Uniform {
                min: SimDuration::from_millis(5),
                max: SimDuration::from_millis(50),
            },
            loss: LossModel::None,
        }
    }
}

impl LinkModel {
    /// Decide the fate of one message: `None` if dropped, otherwise the
    /// one-way delivery latency.
    pub fn transmit(
        &self,
        _src: NodeAddr,
        _dest: NodeAddr,
        rng: &mut SimRng,
    ) -> Option<SimDuration> {
        if self.loss.drops(rng) {
            None
        } else {
            Some(self.latency.sample(rng))
        }
    }
}

#[cfg(test)]
impl LatencyModel {
    /// The largest latency this model can produce.
    pub(crate) fn max(&self) -> SimDuration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Uniform { max, .. } => max,
        }
    }
}

#[cfg(test)]
impl LinkModel {
    /// A zero-latency, lossless model, handy for unit tests.
    pub(crate) fn ideal() -> Self {
        LinkModel {
            latency: LatencyModel::Fixed(SimDuration::from_micros(1)),
            loss: LossModel::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_latency_is_constant() {
        let mut rng = SimRng::seed_from(1);
        let m = LatencyModel::Fixed(SimDuration::from_millis(7));
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_millis(7));
        }
        assert_eq!(m.max(), SimDuration::from_millis(7));
    }

    #[test]
    fn uniform_latency_stays_in_bounds() {
        let mut rng = SimRng::seed_from(2);
        let m = LatencyModel::Uniform {
            min: SimDuration::from_millis(5),
            max: SimDuration::from_millis(50),
        };
        for _ in 0..1000 {
            let d = m.sample(&mut rng);
            assert!(d >= SimDuration::from_millis(5) && d <= SimDuration::from_millis(50));
        }
        assert_eq!(m.max(), SimDuration::from_millis(50));
    }

    #[test]
    fn degenerate_uniform_returns_min() {
        let mut rng = SimRng::seed_from(3);
        let m = LatencyModel::Uniform {
            min: SimDuration::from_millis(9),
            max: SimDuration::from_millis(9),
        };
        assert_eq!(m.sample(&mut rng), SimDuration::from_millis(9));
    }

    #[test]
    fn loss_models() {
        let mut rng = SimRng::seed_from(4);
        assert!(!LossModel::None.drops(&mut rng));
        let always = LossModel::Bernoulli { p: 1.0 };
        let never = LossModel::Bernoulli { p: 0.0 };
        for _ in 0..50 {
            assert!(always.drops(&mut rng));
            assert!(!never.drops(&mut rng));
        }
        // Roughly half the messages should drop at p = 0.5.
        let half = LossModel::Bernoulli { p: 0.5 };
        let dropped = (0..10_000).filter(|_| half.drops(&mut rng)).count();
        assert!((4_000..6_000).contains(&dropped), "dropped = {dropped}");
    }

    #[test]
    fn link_transmit_combines_latency_and_loss() {
        let mut rng = SimRng::seed_from(5);
        let lossless = LinkModel::ideal();
        assert!(lossless
            .transmit(NodeAddr(0), NodeAddr(1), &mut rng)
            .is_some());
        let lossy = LinkModel {
            latency: LatencyModel::Fixed(SimDuration::from_millis(1)),
            loss: LossModel::Bernoulli { p: 1.0 },
        };
        assert!(lossy.transmit(NodeAddr(0), NodeAddr(1), &mut rng).is_none());
    }
}
