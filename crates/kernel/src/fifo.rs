//! Bounded FIFOs with backpressure and occupancy accounting.

use std::collections::VecDeque;

/// A bounded first-in first-out queue with backpressure.
///
/// Every hardware queue in the Rosebud design — the per-input switch FIFOs
/// that provide non-blocking width conversion (paper §4.3), the MAC FIFOs,
/// the 18-slot broadcast-message FIFOs (paper §6.3) — is an instance of this
/// type. A full FIFO refuses pushes, which is how backpressure propagates
/// through the simulated datapath.
///
/// # Examples
///
/// ```
/// use rosebud_kernel::Fifo;
///
/// let mut fifo = Fifo::new(2);
/// assert!(fifo.push('a').is_ok());
/// assert!(fifo.push('b').is_ok());
/// assert_eq!(fifo.push('c'), Err('c')); // full: the item bounces back
/// assert_eq!(fifo.pop(), Some('a'));
/// ```
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    items: VecDeque<T>,
    capacity: usize,
    pushes: u64,
    pops: u64,
}

impl<T> Fifo<T> {
    /// Creates a FIFO holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero: a zero-depth queue cannot exist in
    /// hardware and would deadlock the simulation.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "FIFO capacity must be non-zero");
        Self {
            items: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            pushes: 0,
            pops: 0,
        }
    }

    /// Attempts to enqueue `item`; returns it back if the FIFO is full.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.items.len() >= self.capacity {
            return Err(item);
        }
        self.items.push_back(item);
        self.pushes += 1;
        Ok(())
    }

    /// Dequeues the oldest item, if any.
    pub fn pop(&mut self) -> Option<T> {
        let item = self.items.pop_front();
        if item.is_some() {
            self.pops += 1;
        }
        item
    }

    /// A reference to the oldest item without dequeuing it.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `true` when a push would be rejected.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Remaining free slots.
    pub fn free(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// Total number of successful pushes.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Total number of successful pops.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Removes all queued items, returning how many were dropped. Used when
    /// the host flushes load-balancer slots before a partial reconfiguration
    /// (paper §4.2).
    pub fn flush(&mut self) -> usize {
        let n = self.items.len();
        self.items.clear();
        n
    }

    /// Iterates over queued items from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut fifo = Fifo::new(8);
        for i in 0..5 {
            fifo.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(fifo.pop(), Some(i));
        }
        assert_eq!(fifo.pop(), None);
    }

    #[test]
    fn backpressure_refuses_pushes() {
        let mut fifo = Fifo::new(1);
        fifo.push(1).unwrap();
        assert!(fifo.is_full());
        assert_eq!(fifo.push(2), Err(2));
        assert_eq!(fifo.push(3), Err(3));
        assert_eq!(fifo.pushes(), 1);
    }

    #[test]
    fn flush_empties_and_reports() {
        let mut fifo = Fifo::new(4);
        fifo.push('x').unwrap();
        fifo.push('y').unwrap();
        assert_eq!(fifo.flush(), 2);
        assert!(fifo.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _: Fifo<u8> = Fifo::new(0);
    }
}
