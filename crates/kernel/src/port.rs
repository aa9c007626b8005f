//! The packet-port abstraction: how traffic enters and leaves a simulated
//! device.
//!
//! The simulation core is deterministic and cycle-driven; everything outside
//! it — traffic generators, pcap replays, inter-box links, live sockets — is
//! a *port*. A port delivers (or accepts) cycle-stamped items with bounded
//! capacity and an explicit backpressure signal, so the core never needs to
//! know what is actually on the far side. This is the ZynqParrot-style
//! split: a pure core behind host-driven edges.
//!
//! Three contracts make the layer safe to drive from anything:
//!
//! * **Cycle stamps** — [`IngressPort::poll`] only surfaces items whose
//!   stamp has been reached; the consumer passes its current cycle and the
//!   port decides what is due.
//! * **Backpressure, not drops** — a refused item goes back through
//!   [`IngressPort::give_back`] and *must* be re-offered before anything
//!   later; [`EgressPort::offer`] hands the item back when capacity is
//!   exhausted. Nothing in the port layer silently discards traffic, which
//!   is what lets the conservation ledger balance end to end.
//! * **[`PortClock`]** — "when may the core advance?" is explicit: a
//!   driver holding only replay/scheduled sources can fast-forward to the
//!   next due cycle; a driver holding a live source must keep polling.

use crate::delay::DelayLine;
use crate::serializer::Serializer;
use crate::Cycle;
use std::collections::VecDeque;

/// When an ingress port can next produce an item — the contract that makes
/// "may the core advance without consulting this port again?" explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortClock {
    /// An item is deliverable at the current cycle; poll before advancing.
    Ready,
    /// Nothing before this cycle; the core may advance to it unpolled.
    NotBefore(Cycle),
    /// Nothing scheduled, but external arrivals may appear at any cycle
    /// (a live socket); the driver must keep polling as it advances.
    Idle,
    /// The source is finished; it will never produce another item.
    Exhausted,
}

/// A source of cycle-stamped items feeding a device edge.
///
/// The driving loop is always the same shape:
///
/// ```text
/// while let Some(item) = port.poll(now) {
///     match device.accept(item) {
///         Ok(()) => {}
///         Err(item) => { port.give_back(item); break-or-continue }
///     }
/// }
/// ```
///
/// `give_back` is the backpressure edge: only the most recently polled item
/// may be handed back, and the port must re-deliver it before any later
/// item so arrival order is preserved under retry.
pub trait IngressPort<T> {
    /// The next item due at `now`, if any. Items are delivered in stamp
    /// order; an item is only offered once its stamp is reached.
    fn poll(&mut self, now: Cycle) -> Option<T>;

    /// Returns the most recently polled item after the consumer refused it.
    /// The port re-offers it before anything later (possibly not until a
    /// later cycle, modelling a paced source moving on).
    fn give_back(&mut self, item: T);

    /// When the port can next produce an item, viewed at `now`.
    fn clock(&self, now: Cycle) -> PortClock;

    /// Items queued behind the edge — the backpressure signal an upstream
    /// stage (or an operator's dashboard) reads to see congestion.
    fn backlog(&self) -> usize;

    /// A short label for diagnostics.
    fn name(&self) -> &'static str {
        "ingress"
    }
}

/// A sink accepting delivered items at a device edge, with bounded capacity.
pub trait EgressPort<T> {
    /// Whether an item of `len_bytes` would be accepted right now. A
    /// `false` here is the wire-side backpressure signal: the device holds
    /// the item in its MAC instead of dropping it.
    fn can_accept(&self, len_bytes: u64) -> bool;

    /// Delivers an item at `now`. `Err` hands it back (capacity exhausted);
    /// after `can_accept` returned `true` with no intervening offer, this
    /// must succeed.
    fn offer(&mut self, item: T, len_bytes: u64, now: Cycle) -> Result<(), T>;

    /// Items queued inside the port awaiting the far side.
    fn backlog(&self) -> usize {
        0
    }

    /// A short label for diagnostics.
    fn name(&self) -> &'static str {
        "egress"
    }
}

/// A queue of explicitly cycle-stamped items — the building block for
/// replay sources and in-process rings. Stamps must be pushed in
/// non-decreasing order.
///
/// # Examples
///
/// ```
/// use rosebud_kernel::{IngressPort, PortClock, StampedIngress};
///
/// let mut port = StampedIngress::new();
/// port.push_at(5, "early");
/// port.push_at(9, "late");
/// port.finish();
/// assert_eq!(port.clock(0), PortClock::NotBefore(5));
/// assert_eq!(port.poll(5), Some("early"));
/// port.give_back("early"); // refused: re-offered first
/// assert_eq!(port.poll(9), Some("early"));
/// assert_eq!(port.poll(9), Some("late"));
/// assert_eq!(port.clock(9), PortClock::Exhausted);
/// ```
#[derive(Debug, Clone)]
pub struct StampedIngress<T> {
    queue: VecDeque<(Cycle, T)>,
    /// The refused item, re-offered before the queue.
    held: Option<T>,
    finished: bool,
}

impl<T> Default for StampedIngress<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> StampedIngress<T> {
    /// An empty, still-open queue.
    pub fn new() -> Self {
        Self {
            queue: VecDeque::new(),
            held: None,
            finished: false,
        }
    }

    /// Schedules `item` for delivery at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is below the last pushed stamp (stamp order is the
    /// delivery order).
    pub fn push_at(&mut self, cycle: Cycle, item: T) {
        if let Some(&(last, _)) = self.queue.back() {
            assert!(cycle >= last, "stamps must be non-decreasing");
        }
        self.queue.push_back((cycle, item));
    }

    /// Marks the source complete: once drained it reports
    /// [`PortClock::Exhausted`] instead of [`PortClock::Idle`].
    pub fn finish(&mut self) {
        self.finished = true;
    }

    /// `true` once finished and fully drained.
    pub fn is_exhausted(&self) -> bool {
        self.finished && self.queue.is_empty() && self.held.is_none()
    }
}

impl<T> IngressPort<T> for StampedIngress<T> {
    fn poll(&mut self, now: Cycle) -> Option<T> {
        if let Some(item) = self.held.take() {
            return Some(item);
        }
        if self.queue.front().is_some_and(|&(at, _)| at <= now) {
            return self.queue.pop_front().map(|(_, item)| item);
        }
        None
    }

    fn give_back(&mut self, item: T) {
        debug_assert!(self.held.is_none(), "only the last polled item returns");
        self.held = Some(item);
    }

    fn clock(&self, now: Cycle) -> PortClock {
        if self.held.is_some() {
            return PortClock::Ready;
        }
        match self.queue.front() {
            Some(&(at, _)) if at <= now => PortClock::Ready,
            Some(&(at, _)) => PortClock::NotBefore(at),
            None if self.finished => PortClock::Exhausted,
            None => PortClock::Idle,
        }
    }

    fn backlog(&self) -> usize {
        self.queue.len() + usize::from(self.held.is_some())
    }

    fn name(&self) -> &'static str {
        "stamped"
    }
}

/// A point-to-point link: a serialization stage into a propagation stage,
/// with a single retry slot on the far side — the shape of every inter-box
/// front link in the fleet (switch egress → cable → DUT MAC).
///
/// Upstream offers items with [`LinkPort::push`]; a full serializer hands
/// the item back *and counts the refusal*, so capacity backpressure is a
/// visible signal rather than a silent drop. Downstream consumes through
/// the [`IngressPort`] trait; a refused item parks in the hold slot and is
/// re-offered before the wire is popped again, preserving order.
///
/// # Examples
///
/// ```
/// use rosebud_kernel::{IngressPort, LinkPort};
///
/// // 50 B/cycle serializer, 2-deep, 10-cycle propagation.
/// let mut link: LinkPort<&str> = LinkPort::new(50, 2, 10);
/// link.push("frame", 100, 0).unwrap();
/// for now in 0..=12 {
///     link.advance(now);
///     if let Some(item) = link.poll(now) {
///         assert_eq!(item, "frame");
///         assert_eq!(now, 12); // 2 cycles serialization + 10 propagation
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct LinkPort<T> {
    ser: Serializer<T>,
    wire: DelayLine<T>,
    hold: Option<T>,
    refused: u64,
}

impl<T> LinkPort<T> {
    /// A link serializing at `bytes_per_cycle` with `capacity` queued items
    /// and `latency` cycles of propagation delay.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` or `capacity` is zero.
    pub fn new(bytes_per_cycle: u64, capacity: usize, latency: Cycle) -> Self {
        Self {
            ser: Serializer::new(bytes_per_cycle, capacity),
            wire: DelayLine::new(latency),
            hold: None,
            refused: 0,
        }
    }

    /// Offers `item` of `len_bytes` to the link at `now`. A full serializer
    /// returns the item and increments [`LinkPort::refused`] — the
    /// backpressure the upstream stage must honor by retrying.
    pub fn push(&mut self, item: T, len_bytes: u64, now: Cycle) -> Result<(), T> {
        self.ser.push(item, len_bytes, now).inspect_err(|_| {
            self.refused += 1;
        })
    }

    /// Moves fully-serialized items onto the propagation stage. Call once
    /// per cycle; skipping a cycle models a flapped (dark) link.
    pub fn advance(&mut self, now: Cycle) {
        while let Some(item) = self.ser.pop_ready(now) {
            self.wire.push(item, now);
        }
    }

    /// How many pushes the link has refused for capacity so far.
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// `true` when no item is serializing, propagating, or held.
    pub fn is_empty(&self) -> bool {
        self.ser.is_empty() && self.wire.is_empty() && self.hold.is_none()
    }

    /// Discards everything in flight, returning the count.
    pub fn flush(&mut self) -> usize {
        self.ser.flush() + self.wire.flush() + usize::from(self.hold.take().is_some())
    }
}

impl<T> IngressPort<T> for LinkPort<T> {
    fn poll(&mut self, now: Cycle) -> Option<T> {
        if let Some(item) = self.hold.take() {
            return Some(item);
        }
        self.wire.pop_ready(now)
    }

    fn give_back(&mut self, item: T) {
        debug_assert!(self.hold.is_none(), "only the last polled item returns");
        self.hold = Some(item);
    }

    fn clock(&self, now: Cycle) -> PortClock {
        if self.hold.is_some() {
            return PortClock::Ready;
        }
        if let Some(at) = self.wire.head_at() {
            return if at <= now {
                PortClock::Ready
            } else {
                PortClock::NotBefore(at)
            };
        }
        match self.ser.head_ready_at() {
            // Serialization finish + propagation, assuming advance() runs
            // every cycle.
            Some(at) => PortClock::NotBefore(at.max(now) + self.wire.delay()),
            None => PortClock::Idle,
        }
    }

    fn backlog(&self) -> usize {
        self.ser.len() + self.wire.len() + usize::from(self.hold.is_some())
    }

    fn name(&self) -> &'static str {
        "link"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamped_ingress_delivers_in_stamp_order() {
        let mut port = StampedIngress::new();
        port.push_at(2, 'a');
        port.push_at(2, 'b');
        port.push_at(7, 'c');
        assert_eq!(port.clock(0), PortClock::NotBefore(2));
        assert_eq!(port.poll(1), None);
        assert_eq!(port.poll(2), Some('a'));
        assert_eq!(port.poll(2), Some('b'));
        assert_eq!(port.clock(2), PortClock::NotBefore(7));
        assert_eq!(port.poll(7), Some('c'));
        assert_eq!(port.clock(7), PortClock::Idle);
        port.finish();
        assert_eq!(port.clock(7), PortClock::Exhausted);
        assert!(port.is_exhausted());
    }

    #[test]
    fn give_back_re_offers_before_later_items() {
        let mut port = StampedIngress::new();
        port.push_at(0, 1);
        port.push_at(0, 2);
        assert_eq!(port.poll(0), Some(1));
        port.give_back(1);
        assert_eq!(port.clock(0), PortClock::Ready);
        assert_eq!(port.backlog(), 2);
        assert_eq!(port.poll(0), Some(1));
        assert_eq!(port.poll(0), Some(2));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn stamps_must_be_monotone() {
        let mut port = StampedIngress::new();
        port.push_at(5, 'x');
        port.push_at(4, 'y');
    }

    #[test]
    fn link_port_charges_both_stages_and_counts_refusals() {
        let mut link: LinkPort<u32> = LinkPort::new(16, 1, 8);
        link.push(1, 32, 0).unwrap(); // 2 cycles serialization
        assert_eq!(link.push(2, 32, 0), Err(2)); // capacity 1
        assert_eq!(link.refused(), 1);
        assert_eq!(link.backlog(), 1);
        let mut got = None;
        for now in 0..=16 {
            link.advance(now);
            if let Some(item) = link.poll(now) {
                got = Some((item, now));
                break;
            }
        }
        assert_eq!(got, Some((1, 10))); // 2 + 8 cycles
        assert!(link.is_empty());
    }

    #[test]
    fn link_port_hold_preserves_order_under_refusal() {
        let mut link: LinkPort<u32> = LinkPort::new(64, 4, 0);
        link.push(1, 64, 0).unwrap();
        link.push(2, 64, 0).unwrap();
        for now in 0..4 {
            link.advance(now);
        }
        let first = link.poll(3).unwrap();
        link.give_back(first);
        assert_eq!(link.clock(3), PortClock::Ready);
        assert_eq!(link.poll(3), Some(first));
        assert_eq!(link.poll(3), Some(2));
    }

    #[test]
    fn link_port_clock_sees_through_the_serializer() {
        let mut link: LinkPort<u32> = LinkPort::new(16, 4, 5);
        assert_eq!(link.clock(0), PortClock::Idle);
        link.push(9, 16, 0).unwrap(); // serialized at 1, surfaces at 6
        assert_eq!(link.clock(0), PortClock::NotBefore(6));
        link.advance(1);
        assert_eq!(link.clock(1), PortClock::NotBefore(6));
        assert_eq!(link.poll(5), None);
        assert_eq!(link.poll(6), Some(9));
    }

    #[test]
    fn link_flush_counts_every_stage() {
        let mut link: LinkPort<u32> = LinkPort::new(64, 4, 2);
        link.push(1, 64, 0).unwrap();
        link.push(2, 64, 0).unwrap();
        link.advance(1);
        link.push(3, 64, 1).unwrap();
        let held = link.poll(3).unwrap();
        link.give_back(held);
        assert_eq!(link.flush(), 3);
        assert!(link.is_empty());
    }
}
