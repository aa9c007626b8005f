//! In-memory packet traces.

use crate::packet::Packet;

/// An ordered collection of packets — the in-memory analogue of the pcap
/// traces the paper's scripts generate and replay (Appendix D).
///
/// # Examples
///
/// ```
/// use rosebud_net::{FixedSizeGen, Trace, TrafficGen};
/// let mut gen = FixedSizeGen::new(64, 2);
/// let trace: Trace = (0..100).map(|id| gen.generate(id, 0)).collect();
/// assert_eq!(trace.len(), 100);
/// assert_eq!(trace.total_bytes(), 6400);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    packets: Vec<Packet>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a packet.
    pub fn push(&mut self, pkt: Packet) {
        self.packets.push(pkt);
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// `true` when the trace holds no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Sum of in-memory frame lengths.
    pub fn total_bytes(&self) -> u64 {
        self.packets.iter().map(Packet::len).sum()
    }

    /// The packets, in order.
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// Iterates over the packets.
    pub fn iter(&self) -> std::slice::Iter<'_, Packet> {
        self.packets.iter()
    }
}

impl IntoIterator for Trace {
    type Item = Packet;
    type IntoIter = std::vec::IntoIter<Packet>;

    fn into_iter(self) -> Self::IntoIter {
        self.packets.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Packet;
    type IntoIter = std::slice::Iter<'a, Packet>;

    fn into_iter(self) -> Self::IntoIter {
        self.packets.iter()
    }
}

impl FromIterator<Packet> for Trace {
    fn from_iter<I: IntoIterator<Item = Packet>>(iter: I) -> Self {
        Self {
            packets: iter.into_iter().collect(),
        }
    }
}

impl Extend<Packet> for Trace {
    fn extend<I: IntoIterator<Item = Packet>>(&mut self, iter: I) {
        self.packets.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FixedSizeGen, TrafficGen};

    #[test]
    fn collect_and_extend() {
        let mut gen = FixedSizeGen::new(64, 1);
        let mut trace: Trace = (0..5).map(|i| gen.generate(i, 0)).collect();
        trace.extend((5..8).map(|i| gen.generate(i, 0)));
        assert_eq!(trace.len(), 8);
        assert_eq!(trace.total_bytes(), 8 * 64);
    }
}
