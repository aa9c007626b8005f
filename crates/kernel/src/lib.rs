//! Cycle-driven simulation substrate for the Rosebud reproduction.
//!
//! The Rosebud paper evaluates a hardware framework clocked at 250 MHz. This
//! crate provides the building blocks every simulated hardware component is
//! made of:
//!
//! * [`Clock`] — the cycle counter and cycle/wall-time conversions,
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
//!   implementations.
//!
//! # Examples
//!
//! ```
//! use rosebud_kernel::{Clock, Fifo};
//!
//! let mut clock = Clock::default(); // 250 MHz, like the paper's FPGA designs
//! let mut fifo: Fifo<u32> = Fifo::new(4);
//! fifo.push(7).unwrap();
//! clock.advance(16);
//! assert_eq!(clock.ns(), 64.0); // 16 cycles at 4 ns per cycle
//! assert_eq!(fifo.pop(), Some(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod delay;
mod fifo;
mod port;
mod rng;
mod serializer;
mod stats;

pub use clock::{Clock, Cycle, DEFAULT_CLOCK_HZ};
pub use delay::DelayLine;
pub use fifo::Fifo;
pub use port::{EgressPort, IngressPort, LinkPort, PortClock, StampedIngress};
pub use rng::SimRng;
pub use serializer::Serializer;
pub use stats::{Counters, Histogram, LatencyStats, RateSample, RateWindow};

/// Converts a cycle count at `freq_hz` into nanoseconds.
///
/// # Examples
///
/// ```
/// use rosebud_kernel::{cycles_to_ns, DEFAULT_CLOCK_HZ};
/// assert_eq!(cycles_to_ns(250, DEFAULT_CLOCK_HZ), 1000.0);
/// ```
pub fn cycles_to_ns(cycles: Cycle, freq_hz: u64) -> f64 {
    cycles as f64 * 1e9 / freq_hz as f64
}

/// Converts nanoseconds into a (rounded-up) cycle count at `freq_hz`.
///
/// # Examples
///
/// ```
/// use rosebud_kernel::{ns_to_cycles, DEFAULT_CLOCK_HZ};
/// assert_eq!(ns_to_cycles(1000.0, DEFAULT_CLOCK_HZ), 250);
/// assert_eq!(ns_to_cycles(4.1, DEFAULT_CLOCK_HZ), 2);
/// ```
pub fn ns_to_cycles(ns: f64, freq_hz: u64) -> Cycle {
    (ns * freq_hz as f64 / 1e9).ceil() as Cycle
}

/// Number of cycles a transfer of `bytes` occupies on a link moving
/// `bytes_per_cycle` bytes each cycle (always at least one cycle).
///
/// # Examples
///
/// ```
/// // A 64-byte frame on a 128-bit (16 B/cycle) RPU link takes 4 cycles.
/// assert_eq!(rosebud_kernel::serialize_cycles(64, 16), 4);
/// // Even a zero-length transfer occupies the link for one cycle.
/// assert_eq!(rosebud_kernel::serialize_cycles(0, 16), 1);
/// ```
pub fn serialize_cycles(bytes: u64, bytes_per_cycle: u64) -> Cycle {
    debug_assert!(bytes_per_cycle > 0, "link width must be non-zero");
    bytes.div_ceil(bytes_per_cycle).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialize_cycles_rounds_up() {
        assert_eq!(serialize_cycles(1, 16), 1);
        assert_eq!(serialize_cycles(16, 16), 1);
        assert_eq!(serialize_cycles(17, 16), 2);
        assert_eq!(serialize_cycles(1500, 50), 30);
    }

    #[test]
    fn ns_cycle_round_trip() {
        for c in [0u64, 1, 16, 250, 10_000] {
            let ns = cycles_to_ns(c, DEFAULT_CLOCK_HZ);
            assert_eq!(ns_to_cycles(ns, DEFAULT_CLOCK_HZ), c);
        }
    }
}
