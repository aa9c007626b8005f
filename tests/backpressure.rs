//! What backpressure costs the host, counted exactly: `pump` asks the
//! source and the box before it offers a frame, so a saturated box hands
//! back fewer frames than it takes, where polling until dry every cycle had
//! it hand back about 30 per frame on this shape once warm (two a cycle).
//! `SimStats` counts every refusal on the receive MAC's side; a driver
//! counting on its own side must agree with it to the frame.

use rosebud::apps::forwarder::build_forwarding_system;
use rosebud::core::ports::{pump, Device};
use rosebud::core::Rosebud;
use rosebud::kernel::Cycle;
use rosebud::net::{FixedSizeGen, GenPort, Packet};

/// A box behind a driver-side count of the frames it handed back.
struct Counted {
    sys: Rosebud,
    refused: u64,
}

impl Device for Counted {
    fn now(&self) -> Cycle {
        self.sys.now()
    }

    fn ns_per_cycle(&self) -> f64 {
        self.sys.ns_per_cycle()
    }

    fn inject(&mut self, pkt: Packet) -> Result<(), Packet> {
        self.sys.inject(pkt).inspect_err(|_| self.refused += 1)
    }

    fn can_inject(&self) -> bool {
        Device::can_inject(&self.sys)
    }

    fn tick(&mut self) {
        self.sys.tick();
    }

    fn drain(&mut self, sink: &mut dyn FnMut(usize, Packet)) {
        self.sys.drain(sink);
    }
}

/// Cycles until every pacing lane's budget is full and both receive MACs
/// stay full: refusals only begin after about 60 000.
const WARM_UP: u64 = 300_000;
const MEASURED: u64 = 100_000;

#[test]
fn a_saturated_box_refuses_under_one_offer_per_frame() {
    // The `fwd1500_sat` shape: 16 busy-poll RPUs, 1500-B frames at 205 Gbps
    // over two 100 G ports.
    let mut dev = Counted {
        sys: build_forwarding_system(16).unwrap(),
        refused: 0,
    };
    let ns_per_cycle = dev.ns_per_cycle();
    let gen = Box::new(FixedSizeGen::new(1500, 2));
    let mut source = GenPort::per_port(gen, 205.0, ns_per_cycle, 2);
    let mut run = |dev: &mut Counted, cycles: u64| {
        for _ in 0..cycles {
            pump(dev, &mut source);
            dev.tick();
            dev.drain(&mut |_, _| {});
        }
    };
    run(&mut dev, WARM_UP);
    let (refused, taken) = (dev.refused, dev.sys.ledger().injected);
    run(&mut dev, MEASURED);
    let (refused, taken) = (dev.refused - refused, dev.sys.ledger().injected - taken);
    assert!(taken > 6_000, "only {taken} frames taken");
    assert!(
        refused < taken,
        "{refused} offers refused for {taken} frames taken"
    );

    let stats = dev.sys.sim_stats();
    let all = dev.sys.ledger().injected;
    assert_eq!(
        stats.refused_per_inject(),
        dev.refused as f64 / all as f64,
        "the box counted {} refusals over {all} frames, the driver {}",
        stats.refused_per_inject() * all as f64,
        dev.refused
    );
}
