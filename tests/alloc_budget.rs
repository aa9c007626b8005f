//! The allocation budget of the data path: a frame's bytes are one
//! allocation at the device edge and move from there on, so in steady state
//! `Rosebud::tick` allocates nothing, a generated frame costs one
//! allocation, and an idle live shell costs none (DESIGN.md, "Who owns a
//! frame's bytes"). Set-up is budgeted too: the lanes of an IDS box share
//! one compiled rule set, so handing one to another lane allocates nothing.
//!
//! Counted with a per-thread counting `GlobalAlloc`, so the test harness's
//! other threads do not pollute a measurement. This is the only `unsafe` in
//! the repository's tests; `src/` and `crates/*` forbid it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::os::unix::net::UnixDatagram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rosebud::accel::RuleSet;
use rosebud::apps::forwarder::{build_duty_cycle_forwarding_system, build_forwarding_system};
use rosebud::apps::rules::synthetic_rules;
use rosebud::core::ports::{pump, Device};
use rosebud::core::{HostOp, Rosebud};
use rosebud::kernel::{Cycle, EgressPort};
use rosebud::net::{FixedSizeGen, GenPort, Packet, TrafficGen};
use rosebud::shell::{RingBackend, Shell, ShellBackend, UdsBackend};

struct Counting;

thread_local! {
    // `const` initialisation and no destructor: touching this from inside
    // the allocator never allocates and never registers a TLS dtor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect that
// neither allocates nor unwinds (`try_with`: the allocator also runs during
// thread teardown).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr`/`layout` describe a live block of this allocator
        // (the caller's obligation), and `System` allocated it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls (alloc + alloc_zeroed + realloc) this thread makes
/// inside `f`.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The wire's far side: counts a delivered frame and drops it.
struct CountingSink(Arc<AtomicU64>);

impl EgressPort<Packet> for CountingSink {
    fn can_accept(&self, _len_bytes: u64) -> bool {
        true
    }

    fn offer(&mut self, _pkt: Packet, _len_bytes: u64, _now: Cycle) -> Result<(), Packet> {
        self.0.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "counting-sink"
    }
}

const WARM_UP: u64 = 50_000;
const MEASURED: u64 = 50_000;

/// Drives `sys` with `size`-byte frames at `gbps` through the benchmark's
/// loop (`pump` → `tick` → `take_host_packets`), and after the warm-up
/// returns `(allocations inside tick, frames delivered)` over the measured
/// cycles.
fn tick_allocs(mut sys: Rosebud, size: usize, gbps: f64) -> (u64, u64) {
    let delivered = Arc::new(AtomicU64::new(0));
    let (ns_per_cycle, ports) = (sys.config().ns_per_cycle(), sys.config().num_ports);
    for p in 0..ports {
        sys.bind_egress(p, Box::new(CountingSink(delivered.clone())));
    }
    let gen = Box::new(FixedSizeGen::new(size, ports as u8));
    let mut source = GenPort::per_port(gen, gbps, ns_per_cycle, ports);

    let mut in_tick = 0;
    let mut delivered_before = 0;
    for cycle in 0..WARM_UP + MEASURED {
        if cycle == WARM_UP {
            delivered_before = delivered.load(Ordering::Relaxed);
        }
        pump(&mut sys, &mut source);
        let (allocs, ()) = allocs_in(|| sys.tick());
        if cycle >= WARM_UP {
            in_tick += allocs;
        }
        assert!(sys.take_host_packets().is_empty());
    }
    sys.assert_conservation();
    (
        in_tick,
        delivered.load(Ordering::Relaxed) - delivered_before,
    )
}

#[test]
fn tick_allocates_nothing_once_warm() {
    // The benchmark's three forwarding workloads: 64 B and 1500 B
    // saturation on the busy-poll forwarder, 256 B at 5 Gbps on the
    // duty-cycled one.
    let forwarder = || build_forwarding_system(16).unwrap();
    let duty = build_duty_cycle_forwarding_system(16, 2000).unwrap();
    for (name, sys, size, gbps, at_least) in [
        ("fwd64_sat", forwarder(), 64, 205.0, 40_000),
        ("fwd1500_sat", forwarder(), 1500, 205.0, 3_000),
        ("duty256_light", duty, 256, 5.0, 400),
    ] {
        let (allocs, frames) = tick_allocs(sys, size, gbps);
        assert!(frames >= at_least, "{name}: only {frames} frames delivered");
        assert_eq!(
            allocs, 0,
            "{name}: allocations inside tick, {frames} frames"
        );
    }
}

#[test]
fn draining_unbound_ports_every_cycle_allocates_nothing() {
    // The `Harness` / `replay` / live-shell loop over ports nothing is bound
    // to: `drain` empties the delivery buffers in place, so once they have
    // grown the only allocation left in a cycle is the generated frame.
    let mut sys = build_forwarding_system(16).unwrap();
    let (ns_per_cycle, ports) = (sys.config().ns_per_cycle(), sys.config().num_ports);
    let gen = Box::new(FixedSizeGen::new(64, ports as u8));
    let mut source = GenPort::per_port(gen, 205.0, ns_per_cycle, ports);
    let mut delivered = 0u64;
    let mut run = |cycles: u64, source: &mut GenPort, delivered: &mut u64| {
        for _ in 0..cycles {
            pump(&mut sys, source);
            sys.tick();
            sys.drain(&mut |_, _| *delivered += 1);
        }
    };
    run(WARM_UP, &mut source, &mut delivered);
    let (generated, before) = (source.generated(), delivered);
    let (allocs, ()) = allocs_in(|| run(MEASURED, &mut source, &mut delivered));
    assert!(
        delivered - before >= 40_000,
        "only {} frames",
        delivered - before
    );
    assert_eq!(allocs, source.generated() - generated);
}

#[test]
fn parked_buffers_are_bounded_and_purged() {
    let mut sys = build_forwarding_system(4).unwrap();
    let mut source = GenPort::per_port(Box::new(FixedSizeGen::new(64, 2)), 205.0, 4.0, 2);
    let slots = sys.config().slots_per_rpu;
    let mut most = 0;
    for _ in 0..5_000 {
        pump(&mut sys, &mut source);
        sys.tick();
        sys.drain(&mut |_, _| {});
        for rpu in sys.rpus().iter() {
            most = most.max(rpu.inner().parked_buffers());
        }
    }
    assert!(most > 0, "saturation must park ingress buffers");
    assert!(most <= slots, "{most} parked buffers for {slots} slots");

    assert!(sys.rpus()[1].inner().parked_buffers() > 0);
    sys.apply(HostOp::ForceReload { rpu: 1 }).unwrap();
    assert_eq!(sys.rpus()[1].inner().parked_buffers(), 0);
    assert!(
        sys.rpus()[0].inner().parked_buffers() > 0,
        "others keep theirs"
    );
}

#[test]
fn a_generated_frame_is_one_exact_allocation() {
    for size in [64, 256, 1500] {
        let mut gen = FixedSizeGen::new(size, 2);
        let (allocs, frames) = allocs_in(|| {
            let mut frames = [const { None }; 100];
            for (id, slot) in frames.iter_mut().enumerate() {
                *slot = Some(gen.generate(id as u64, 0));
            }
            frames
        });
        assert_eq!(allocs, 100, "{size}-byte frames");
        for pkt in frames.iter().flatten() {
            assert_eq!((pkt.data.len(), pkt.data.capacity()), (size, size));
        }
    }
}

#[test]
fn an_idle_shell_step_allocates_nothing() {
    let (backend, peer) = RingBackend::pair();
    let mut shell = Shell::new(build_forwarding_system(4).unwrap(), backend);
    for i in 0..32u8 {
        peer.send(i % 2, vec![i; 128]);
        shell.pump(50);
    }
    shell.pump(5_000);
    assert_eq!(shell.forwarded(), 32);
    assert_eq!(peer.recv().len(), 32);

    let (allocs, ()) = allocs_in(|| shell.pump(10_000));
    assert_eq!(allocs, 0);
}

#[test]
fn idle_sockets_cost_no_allocation() {
    let dir = std::env::temp_dir().join(format!("rb-alloc-budget-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths = [dir.join("port0.sock"), dir.join("port1.sock")];
    let mut backend = UdsBackend::bind(&paths).unwrap();
    let client = UnixDatagram::bind(dir.join("client.sock")).unwrap();

    // The receive buffer is the backend's, not each call's.
    let (allocs, empty) = allocs_in(|| (0..1_000).all(|_| backend.recv_frames().is_empty()));
    assert!(empty);
    assert_eq!(allocs, 0);

    // The first datagram also learns the peer's path; one more from the
    // same peer costs the frame and the returned list, nothing else.
    client.send_to(&[1; 256], &paths[0]).unwrap();
    assert_eq!(backend.recv_frames(), vec![(0, vec![1; 256])]);
    client.send_to(&[2; 256], &paths[0]).unwrap();
    let (allocs, frames) = allocs_in(|| backend.recv_frames());
    assert_eq!(frames, vec![(0, vec![2; 256])]);
    assert_eq!(allocs, 2);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lanes_share_one_compiled_rule_set() {
    let rules = synthetic_rules(128, 1);
    // One trie state per distinct non-empty pattern prefix, plus the root.
    let prefixes: std::collections::HashSet<&[u8]> = rules
        .iter()
        .flat_map(|r| (1..=r.pattern.len()).map(|n| &r.pattern[..n]))
        .collect();
    let states = prefixes.len() + 1;
    assert_eq!(states, 1477, "the benchmark's IDS rules, seed 1");

    let compiled = RuleSet::compile(rules);
    let (allocs, lane) = allocs_in(|| compiled.clone());
    assert_eq!(allocs, 0, "a lane's rule set must share the box's table");
    // The URAM model stays dense: 1 KiB per state, however it is shared.
    assert_eq!(lane.automaton().table_bytes(), states * 1024);
}
