//! Fixed-latency pipeline stages.

use std::collections::VecDeque;

use crate::Cycle;

/// A fixed-latency, order-preserving pipeline stage: items become visible
/// `delay` cycles after insertion. Models the pipeline registers and
/// die-crossing stages of the packet distribution subsystem (paper §4.3/§5:
/// "the switching infrastructure uses 54.7 % of the FPGA's die crossing
/// registers").
///
/// # Examples
///
/// ```
/// use rosebud_kernel::DelayLine;
/// let mut dl = DelayLine::new(10);
/// dl.push('x', 100);
/// assert_eq!(dl.pop_ready(109), None);
/// assert_eq!(dl.pop_ready(110), Some('x'));
/// ```
#[derive(Debug, Clone)]
pub struct DelayLine<T> {
    delay: Cycle,
    items: VecDeque<(Cycle, T)>,
}

impl<T> DelayLine<T> {
    /// Creates a stage with the given latency in cycles.
    pub fn new(delay: Cycle) -> Self {
        Self {
            delay,
            items: VecDeque::new(),
        }
    }

    /// The configured latency.
    pub(crate) fn delay(&self) -> Cycle {
        self.delay
    }

    /// Inserts `item` at cycle `now`; it surfaces at `now + delay`.
    pub fn push(&mut self, item: T, now: Cycle) {
        self.items.push_back((now + self.delay, item));
    }

    /// Pops the oldest item if it has surfaced by `now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.items.front().is_some_and(|(at, _)| *at <= now) {
            self.items.pop_front().map(|(_, item)| item)
        } else {
            None
        }
    }

    /// A reference to the oldest item if it has surfaced by `now`.
    pub fn peek_ready(&self, now: Cycle) -> Option<&T> {
        match self.items.front() {
            Some((at, item)) if *at <= now => Some(item),
            _ => None,
        }
    }

    /// The cycle at which the oldest item surfaces, if any is in flight.
    /// Useful for event-skipping drivers and port-clock queries.
    pub fn head_at(&self) -> Option<Cycle> {
        self.items.front().map(|(at, _)| *at)
    }

    /// Number of items in flight.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Discards everything in flight, returning the count.
    pub(crate) fn flush(&mut self) -> usize {
        let n = self.items.len();
        self.items.clear();
        n
    }

    /// Keeps only items satisfying `pred`, returning how many were
    /// discarded. Used by forced-eviction paths that must destroy in-flight
    /// work bound for a region being reloaded.
    pub fn retain(&mut self, mut pred: impl FnMut(&T) -> bool) -> usize {
        let before = self.items.len();
        self.items.retain(|(_, item)| pred(item));
        before - self.items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_preserved_across_delay() {
        let mut dl = DelayLine::new(5);
        dl.push(1, 0);
        dl.push(2, 1);
        assert_eq!(dl.pop_ready(4), None);
        assert_eq!(dl.pop_ready(5), Some(1));
        assert_eq!(dl.pop_ready(5), None);
        assert_eq!(dl.pop_ready(6), Some(2));
    }

    #[test]
    fn zero_delay_is_immediate() {
        let mut dl = DelayLine::new(0);
        dl.push('a', 7);
        assert_eq!(dl.pop_ready(7), Some('a'));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut dl = DelayLine::new(1);
        dl.push(9, 0);
        assert_eq!(dl.peek_ready(1), Some(&9));
        assert_eq!(dl.len(), 1);
        assert_eq!(dl.pop_ready(1), Some(9));
        assert!(dl.is_empty());
    }
}
