//! # simnet — deterministic discrete-event network simulator
//!
//! `simnet` is the evaluation substrate used by the TreeP reproduction. The
//! original paper evaluates the overlay on a custom packet-switching
//! simulator; this crate provides an equivalent, fully deterministic
//! replacement.
//!
//! The simulator is *protocol agnostic*: any type implementing [`Protocol`]
//! can be hosted. A protocol is a pure state machine that reacts to
//! messages, timers, and lifecycle events through a [`Context`] which
//! collects the outgoing messages and timer requests. The simulator owns
//! virtual time, the event queue, the link model (latency and loss), and the
//! per-run random number generator, so a run is entirely reproducible from
//! its seed.
//!
//! ```
//! use simnet::{Simulation, SimConfig, Protocol, Context, NodeAddr};
//!
//! /// A trivial protocol: every node greets node 0 on start-up.
//! #[derive(Default)]
//! struct Hello { greeted: usize }
//!
//! impl Protocol for Hello {
//!     type Message = String;
//!     fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
//!         if ctx.self_addr() != NodeAddr(0) {
//!             ctx.send(NodeAddr(0), "hello".to_string());
//!         }
//!     }
//!     fn on_message(&mut self, _from: NodeAddr, _msg: Self::Message,
//!                   _ctx: &mut Context<'_, Self::Message>) {
//!         self.greeted += 1;
//!     }
//! }
//!
//! let mut sim = Simulation::new(SimConfig::default(), 42);
//! for _ in 0..4 { sim.add_node(Hello::default()); }
//! sim.run_until_idle();
//! assert_eq!(sim.node(NodeAddr(0)).unwrap().greeted, 3);
//! ```

#![warn(missing_docs, unreachable_pub)]
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod event;
mod link;
mod metrics;
mod prefetch;
mod protocol;
mod rng;
mod scheduler;
mod sim;
mod telemetry;
mod time;

pub use event::{Event, EventKind};
pub use link::{LatencyModel, LinkModel, LossModel};
pub use metrics::SimMetrics;
pub use prefetch::prefetch;
pub use protocol::{Action, Context, NodeAddr, Protocol, TimerToken};
pub use rng::SimRng;
pub use scheduler::{HeapScheduler, NextEvent, Scheduler};
pub use sim::{SimConfig, Simulation};
pub use telemetry::{chrome_trace, Telemetry, TelemetryConfig, TraceCtx};
pub use time::{SimDuration, SimTime};
