//! Firmware for the inter-RPU broadcast-messaging experiments (§6.3).
//!
//! "We time-stamp each message by writing the time-stamp value in the
//! broadcast region, and upon arrival compare the current time against the
//! transmit time." Two scenarios: a fixed rate of sparse messages
//! (72–92 ns observed), and every RPU blasting as fast as it can
//! (1596–1680 ns for 16 RPUs, dominated by the 18-slot outbox drained once
//! per 16-cycle round-robin grant).

use rosebud_core::{Firmware, Rosebud, RosebudConfig, RoundRobinLb, RpuIo, RpuProgram};

/// Native firmware that writes a broadcast message every `period` cycles
/// (0 = as fast as the outbox accepts), using its RPU id to pick a distinct
/// region word.
pub struct BcastSender {
    period: u64,
    next_at: u64,
    /// Messages sent.
    pub(crate) sent: u64,
}

impl BcastSender {
    /// Creates a sender with the given inter-message period in cycles.
    pub fn new(period: u64) -> Self {
        Self {
            period,
            next_at: 0,
            sent: 0,
        }
    }
}

impl Firmware for BcastSender {
    fn name(&self) -> &str {
        "bcast-sender"
    }

    fn tick(&mut self, io: &mut RpuIo<'_>) {
        let now = io.now();
        if now < self.next_at {
            return;
        }
        // Each RPU owns one word of the semi-coherent region; the value is
        // the transmit timestamp (§6.3's measurement method). The write
        // blocks (charges stall) when the 18-entry outbox is full.
        let offset = (io.rpu_id() as u32) * 4;
        io.broadcast(offset, now as u32);
        self.sent += 1;
        self.next_at = now + self.period.max(1);
    }
}

/// Builds a system of broadcast senders for the §6.3 latency experiments.
/// Delivery latency is recorded centrally by
/// [`Rosebud::bcast_latency`](rosebud_core::Rosebud::bcast_latency).
///
/// # Errors
///
/// Propagates configuration-validation errors from the builder.
pub fn build_bcast_system(rpus: usize, period: u64) -> Result<Rosebud, String> {
    Rosebud::builder(RosebudConfig::with_rpus(rpus))
        .load_balancer(Box::new(RoundRobinLb::new()))
        .firmware(move |_| RpuProgram::Native(Box::new(BcastSender::new(period))))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_broadcast_latency_is_tens_of_ns() {
        // §6.3: "In the normal scenario of sparse messages, we observed a
        // latency between 72 to 92 ns."
        let mut sys = build_bcast_system(16, 1000).unwrap();
        sys.run(50_000);
        let stats = sys.bcast_latency();
        assert!(stats.count() > 100, "only {} deliveries", stats.count());
        let (min, max) = (stats.min(), stats.max());
        assert!(
            min >= 40.0 && max <= 150.0,
            "sparse latency {min:.0}–{max:.0} ns, paper: 72–92"
        );
    }

    #[test]
    fn saturated_broadcast_latency_is_microseconds() {
        // §6.3: flat-out senders see 1596–1680 ns on 16 RPUs (outbox depth
        // × round-robin grant period dominates).
        let mut sys = build_bcast_system(16, 0).unwrap();
        sys.run(60_000);
        let stats = sys.bcast_latency();
        // Skip the cold-start ramp: take the last half of samples.
        let samples = stats.samples();
        let steady = &samples[samples.len() / 2..];
        let mean = steady.iter().sum::<f64>() / steady.len() as f64;
        assert!(
            (1100.0..2000.0).contains(&mean),
            "saturated latency {mean:.0} ns, paper: 1596–1680"
        );
    }

    #[test]
    fn eight_rpu_saturated_latency_halves() {
        // The grant period is num_rpus cycles, so 8 RPUs wait half as long.
        let mut sys = build_bcast_system(8, 0).unwrap();
        sys.run(60_000);
        let samples = sys.bcast_latency().samples().to_vec();
        let steady = &samples[samples.len() / 2..];
        let mean = steady.iter().sum::<f64>() / steady.len() as f64;
        assert!(
            (500.0..1100.0).contains(&mean),
            "8-RPU saturated latency {mean:.0} ns"
        );
    }

    #[test]
    fn broadcast_values_visible_in_every_mirror() {
        let mut sys = build_bcast_system(4, 500).unwrap();
        sys.run(5_000);
        // Every RPU's mirror should hold a timestamp from every sender.
        for r in 0..4 {
            let rpus = sys.rpus();
            let mirror = rpus[r].inner().bcast_mirror();
            for sender in 0..4 {
                let word =
                    u32::from_le_bytes(mirror[sender * 4..sender * 4 + 4].try_into().unwrap());
                assert!(word > 0, "RPU {r} mirror missing sender {sender}");
            }
        }
    }
}
