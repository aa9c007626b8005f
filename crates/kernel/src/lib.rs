//! Cycle-driven simulation substrate for the Rosebud reproduction.
//!
//! The Rosebud paper evaluates a hardware framework clocked at 250 MHz. This
//! crate provides the building blocks every simulated hardware component is
//! made of:
//!
//! * [`Clock`] — the cycle counter,
//! * [`Fifo`] — a bounded queue with backpressure and occupancy statistics,
//!   modelling the register/BRAM FIFOs used throughout the design,
//! * [`Serializer`] — a width-limited link that charges serialization delay
//!   (bytes-per-cycle), modelling MAC interfaces and the distribution
//!   switches' 512-bit/128-bit datapaths,
//! * [`Counters`] — the per-interface byte/frame/drop/stall counters the host
//!   can read back (paper §4.3),
//! * [`LatencyStats`] — latency sample aggregation for round-trip-time
//!   experiments (paper §6.2),
//! * [`SimRng`] — a small deterministic PRNG so that every experiment is
//!   reproducible from a seed,
//! * [`IngressPort`]/[`EgressPort`] and [`PortClock`] — the packet-port
//!   contract every traffic producer/consumer at a device edge implements
//!   (cycle-stamped delivery, bounded capacity, explicit backpressure),
//!   with [`StampedIngress`] and [`LinkPort`] as the reusable
//!   implementations,
//! * [`json`] — the one JSON writer every export goes through.
//!
//! # Examples
//!
//! ```
//! use rosebud_kernel::{Clock, Fifo};
//!
//! let mut clock = Clock::default();
//! let mut fifo: Fifo<u32> = Fifo::new(4);
//! fifo.push(7).unwrap();
//! clock.advance(16);
//! assert_eq!(clock.cycle(), 16); // 64 ns at the paper's 250 MHz
//! assert_eq!(fifo.pop(), Some(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod clock;
mod delay;
mod fifo;
pub mod json;
mod port;
mod rng;
mod serializer;
mod stats;

pub use clock::{Clock, Cycle};
pub use delay::DelayLine;
pub use fifo::Fifo;
pub use port::{EgressPort, IngressPort, LinkPort, PortClock, StampedIngress};
pub use rng::SimRng;
pub use serializer::Serializer;
pub use stats::{Counters, LatencyStats, RateSample, RateWindow};
