//! Width-limited links that charge serialization delay.

use std::collections::VecDeque;

use crate::Cycle;

/// A link moving `bytes_per_cycle` bytes each cycle.
///
/// This models the serialization stages the paper's latency equation (Eq. 1)
/// is built from: a packet entering a 100 Gbps MAC (50 B/cycle at 250 MHz) or
/// a 32 Gbps RPU link (16 B/cycle) only becomes visible downstream after its
/// full length has crossed the link. Items carry an explicit byte length so
/// descriptors, frames, and DMA bursts can all ride the same abstraction.
///
/// The wire is *continuous*: byte-times accumulate fractionally, so
/// back-to-back 88-byte wire frames on a 50 B/cycle MAC average 1.76 cycles
/// each rather than rounding each frame up to 2 cycles — the difference
/// between 284 Mpps and 250 Mpps of 64-byte frames on 2×100 G. Items are
/// released in order once fully serialized; a downstream stall lets the wire
/// run on into the link's internal buffer (bounded by `capacity`).
///
/// # Examples
///
/// ```
/// use rosebud_kernel::Serializer;
///
/// // A 32 Gbps RPU link at 250 MHz moves 16 bytes per cycle.
/// let mut link: Serializer<&str> = Serializer::new(16, 4);
/// link.push("frame", 64, 100).unwrap();
/// assert!(link.pop_ready(103).is_none()); // 64 B needs 4 cycles
/// assert_eq!(link.pop_ready(104), Some("frame"));
/// ```
#[derive(Debug, Clone)]
pub struct Serializer<T> {
    bytes_per_cycle: u64,
    queue: VecDeque<Entry<T>>,
    capacity: usize,
    /// Fractional cycle at which the wire finishes its last scheduled byte.
    wire_free: f64,
    busy_bytes: u64,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    item: T,
    /// Cycle at which the item has fully crossed the wire.
    ready_at: Cycle,
}

impl<T> Serializer<T> {
    /// Creates a link of the given width holding at most `capacity` queued
    /// items (including those in flight).
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` or `capacity` is zero.
    pub fn new(bytes_per_cycle: u64, capacity: usize) -> Self {
        assert!(bytes_per_cycle > 0, "link width must be non-zero");
        assert!(capacity > 0, "link capacity must be non-zero");
        Self {
            bytes_per_cycle,
            queue: VecDeque::new(),
            capacity,
            wire_free: 0.0,
            busy_bytes: 0,
        }
    }

    /// Offers `item` of `len_bytes` to the link at cycle `now`. Returns the
    /// item back if the link queue is full.
    pub fn push(&mut self, item: T, len_bytes: u64, now: Cycle) -> Result<(), T> {
        if self.queue.len() >= self.capacity {
            return Err(item);
        }
        let start = self.wire_free.max(now as f64);
        let finish = start + len_bytes as f64 / self.bytes_per_cycle as f64;
        self.wire_free = finish;
        self.busy_bytes += len_bytes;
        // A zero-length transfer still occupies the wire for one cycle
        // (descriptor beat).
        let ready_at = (finish.ceil() as Cycle).max(now + 1);
        self.queue.push_back(Entry { item, ready_at });
        Ok(())
    }

    /// `true` when another push would be rejected.
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.capacity
    }

    /// Number of queued (including in-flight) items.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when nothing is queued or in flight.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Returns the head item if its serialization has completed by `now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.queue.front()?.ready_at > now {
            return None;
        }
        let entry = self.queue.pop_front().expect("front checked above");
        Some(entry.item)
    }

    /// The cycle at which the head item becomes available, if any is in
    /// flight. Useful for event-skipping simulation loops.
    pub fn head_ready_at(&self) -> Option<Cycle> {
        self.queue.front().map(|e| e.ready_at)
    }

    /// A reference to the head item (whether or not its serialization has
    /// completed), for routing decisions that must precede the pop.
    pub fn front(&self) -> Option<&T> {
        self.queue.front().map(|e| &e.item)
    }

    /// `true` when the head item's serialization has completed by `now`.
    pub fn head_ready(&self, now: Cycle) -> bool {
        self.head_ready_at().is_some_and(|at| at <= now)
    }

    /// Drops everything queued, returning the number of items discarded.
    pub fn flush(&mut self) -> usize {
        let n = self.queue.len();
        self.queue.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_serialization_delay() {
        let mut link: Serializer<u32> = Serializer::new(50, 8); // 100G MAC
        link.push(1, 1500, 0).unwrap();
        // 1500 B at 50 B/cycle = 30 cycles.
        assert!(link.pop_ready(29).is_none());
        assert_eq!(link.pop_ready(30), Some(1));
    }

    #[test]
    fn back_to_back_items_release_in_order() {
        let mut link: Serializer<u32> = Serializer::new(16, 8);
        link.push(1, 64, 0).unwrap(); // ready at 4
        link.push(2, 64, 0).unwrap(); // ready at 8
        assert!(link.pop_ready(3).is_none());
        assert_eq!(link.pop_ready(4), Some(1));
        assert!(link.pop_ready(7).is_none());
        assert_eq!(link.pop_ready(8), Some(2));
    }

    #[test]
    fn fractional_wire_sustains_line_rate() {
        // 88-byte wire frames at 50 B/cycle: 1.76 cycles each. Over 100
        // frames the wire must finish at cycle 176, not 200.
        let mut link: Serializer<u32> = Serializer::new(50, 256);
        for i in 0..100 {
            link.push(i, 88, 0).unwrap();
        }
        let mut last_ready = 0;
        for now in 0..300 {
            while link.pop_ready(now).is_some() {
                last_ready = now;
            }
        }
        assert_eq!(last_ready, 176);
    }

    #[test]
    fn wire_runs_on_while_downstream_stalls() {
        let mut link: Serializer<u32> = Serializer::new(16, 8);
        link.push(1, 16, 0).unwrap();
        link.push(2, 16, 0).unwrap();
        // Nobody pops until cycle 10; both frames have crossed by then and
        // drain back-to-back.
        assert_eq!(link.pop_ready(10), Some(1));
        assert_eq!(link.pop_ready(10), Some(2));
    }

    #[test]
    fn idle_gap_resets_wire_time() {
        let mut link: Serializer<u32> = Serializer::new(16, 8);
        link.push(1, 16, 0).unwrap();
        assert_eq!(link.pop_ready(1), Some(1));
        // Pushing long after the wire idled starts from `now`, not from the
        // stale wire_free.
        link.push(2, 16, 100).unwrap();
        assert!(link.pop_ready(100).is_none());
        assert_eq!(link.pop_ready(101), Some(2));
    }

    #[test]
    fn respects_capacity() {
        let mut link: Serializer<u32> = Serializer::new(16, 2);
        link.push(1, 16, 0).unwrap();
        link.push(2, 16, 0).unwrap();
        assert_eq!(link.push(3, 16, 0), Err(3));
    }

    #[test]
    fn zero_length_takes_one_cycle() {
        let mut link: Serializer<u32> = Serializer::new(16, 2);
        link.push(9, 0, 5).unwrap();
        assert!(link.pop_ready(5).is_none());
        assert_eq!(link.pop_ready(6), Some(9));
    }
}
