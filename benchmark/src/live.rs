//! The live workload: the firewall behind `Shell` on two real Unix datagram
//! sockets, driven closed-loop by a client in the same thread.
//!
//! One thread on purpose. The client sends, the shell steps 32 cycles, the
//! client drains; a datagram is in the receiver's queue when `send_to`
//! returns, so which cycle accepts which frame depends only on this
//! sequence, never on timing — the simulated side of a live run repeats
//! exactly, and only its wall-clock cost is noisy.

use std::os::unix::net::UnixDatagram;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Arc;

use crate::alloc::AllocCount;
use crate::dut::{self, DevSnapshot, Device, LiveClient, LiveDut, Probes};
use crate::harness::{
    self, check_ledger, close_probes, ratio, reset_probes, total_calls, total_work, Plan,
    ProbeCounts, Recording, Stop, Timed, Windowed,
};
use crate::outcome::Outcome;
use crate::span::{now_ns, work_ns, Span, SpanRec};
use crate::stats::{median, Hist};
use crate::sys::rss_kb;
use crate::workloads::{Workload, WARM_CYCLES};

const W: Workload = Workload::Fw256LiveUds;
/// Frames a client keeps in flight per port. Linux queues at most
/// `net.unix.max_dgram_qlen` = 10 datagrams per socket and a non-blocking
/// sender loses the rest, so stay below that.
const IN_FLIGHT: u32 = 8;
/// Shell cycles between a client's send round and its drain round.
const STEPS_PER_ROUND: u64 = 32;
const FRAME: usize = 256;
/// The sequence number lives in the frame's last 8 bytes (UDP payload, which
/// the firewall neither reads nor rewrites).
const SEQ_AT: usize = FRAME - 8;
/// Send timestamps are kept per sequence number modulo this.
const SENT_RING: usize = 1024;

/// The socket directory of one live set-up, removed when dropped. Paths are
/// relative to the working directory (the benchmark's own directory): a
/// Unix socket address holds 108 bytes, and a checkout can sit anywhere.
struct SockDir(PathBuf);

impl SockDir {
    fn new() -> std::io::Result<Self> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = PathBuf::from(format!(
            "out/sock-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for SockDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct UdsClient {
    socks: Vec<UnixDatagram>,
    dests: Vec<PathBuf>,
    _dir: SockDir,
}

impl LiveClient for UdsClient {
    fn send(&mut self, port: usize, frame: &[u8]) -> bool {
        self.socks[port].send_to(frame, &self.dests[port]).is_ok()
    }

    fn recv(&mut self, port: usize, buf: &mut [u8]) -> Option<usize> {
        self.socks[port].recv_from(buf).ok().map(|(n, _)| n)
    }
}

/// One live set-up over real sockets: socket directory, the device's two
/// bound sockets, the `Deny`-gated build, the shell, the client's sockets.
fn setup_uds(seed: u64, probes: Option<Arc<Probes>>) -> (Box<dyn LiveDut>, Box<dyn LiveClient>) {
    let dir = SockDir::new().expect("socket directory under out/");
    let dests: Vec<PathBuf> = (0..2).map(|p| dir.0.join(format!("p{p}"))).collect();
    let dut = dut::live_uds(seed, &dests, probes).expect("bind device sockets");
    let socks = (0..2)
        .map(|p| {
            let s = UnixDatagram::bind(dir.0.join(format!("c{p}"))).expect("bind client socket");
            s.set_nonblocking(true).expect("non-blocking client");
            s
        })
        .collect();
    let client = UdsClient {
        socks,
        dests,
        _dir: dir,
    };
    (dut, Box::new(client))
}

/// The closed-loop client: everything it needs is allocated here, so its
/// send and drain rounds allocate nothing inside a timed window.
struct Client {
    pool: Vec<Vec<u8>>,
    /// Which pool frames the firewall must drop (ground truth).
    dropped: Vec<bool>,
    next_seq: u64,
    in_flight: [u32; 2],
    sent_at: Vec<u64>,
    send_buf: Vec<u8>,
    recv_buf: Vec<u8>,
    sent: u64,
    received: u64,
    expected_drops: u64,
    /// Frames the transport refused (`EAGAIN`): lost operations.
    refused: u64,
    /// Frames that came back altered, twice, or on the wrong port.
    wrong: u64,
    rtt_ns: Hist,
}

impl Client {
    fn new(seed: u64) -> Self {
        let (pool, dropped) = dut::live_pool(seed);
        assert!(pool.iter().all(|f| f.len() == FRAME));
        Self {
            pool,
            dropped,
            next_seq: 0,
            in_flight: [0; 2],
            sent_at: vec![0; SENT_RING],
            send_buf: vec![0; FRAME],
            recv_buf: vec![0; 4096],
            sent: 0,
            received: 0,
            expected_drops: 0,
            refused: 0,
            wrong: 0,
            rtt_ns: Hist::wall_ns(),
        }
    }

    /// Tops every port up to [`IN_FLIGHT`] frames. A frame the firewall
    /// will drop takes a place in the burst but is not waited for.
    fn send_round(&mut self, link: &mut dyn LiveClient) {
        for port in 0..2 {
            for _ in self.in_flight[port]..IN_FLIGHT {
                let seq = self.next_seq;
                self.next_seq += 1;
                let idx = seq as usize % self.pool.len();
                self.send_buf.copy_from_slice(&self.pool[idx]);
                self.send_buf[SEQ_AT..].copy_from_slice(&seq.to_le_bytes());
                if !link.send(port, &self.send_buf) {
                    self.refused += 1;
                    continue;
                }
                self.sent += 1;
                if self.dropped[idx] {
                    self.expected_drops += 1;
                } else {
                    self.in_flight[port] += 1;
                    self.sent_at[seq as usize % SENT_RING] = now_ns();
                }
            }
        }
    }

    /// Receives everything the device has emitted, checking each frame.
    fn drain_round(&mut self, link: &mut dyn LiveClient) {
        for port in 0..2 {
            while let Some(n) = link.recv(port, &mut self.recv_buf) {
                let now = now_ns();
                self.received += 1;
                let got = &self.recv_buf[..n];
                if n != FRAME {
                    self.wrong += 1;
                    continue;
                }
                let seq = u64::from_le_bytes(got[SEQ_AT..].try_into().expect("8 bytes"));
                let idx = seq as usize % self.pool.len();
                // The firewall forwards on the other port, bytes untouched.
                let from = port ^ 1;
                let intact = seq < self.next_seq
                    && !self.dropped[idx]
                    && got[..SEQ_AT] == self.pool[idx][..SEQ_AT]
                    && self.in_flight[from] > 0;
                if !intact {
                    self.wrong += 1;
                    continue;
                }
                self.in_flight[from] -= 1;
                self.rtt_ns
                    .record(now - self.sent_at[seq as usize % SENT_RING]);
            }
        }
    }
}

/// Spans of the traced live loop.
#[derive(Default)]
struct LiveSpans {
    send: Span,
    step: Span,
    drain: Span,
}

/// One round: client sends, the shell steps, client drains.
fn round(
    dut: &mut dyn LiveDut,
    link: &mut dyn LiveClient,
    client: &mut Client,
    spans: Option<&mut LiveSpans>,
    sending: bool,
) {
    match spans {
        None => {
            if sending {
                client.send_round(link);
            }
            for _ in 0..STEPS_PER_ROUND {
                dut.step();
            }
            client.drain_round(link);
        }
        Some(spans) => {
            let mut t = now_ns();
            if sending {
                client.send_round(link);
                let t1 = now_ns();
                spans.send.add(t, t1);
                t = t1;
            }
            for _ in 0..STEPS_PER_ROUND {
                dut.step();
                let t1 = now_ns();
                spans.step.add(t, t1);
                t = t1;
            }
            client.drain_round(link);
            spans.drain.add(t, now_ns());
        }
    }
}

/// What a live session produced beyond the common [`Timed`] part.
struct Session {
    timed: Timed,
    /// The log and device state at the end of the deterministic windows.
    recording: Recording,
    rtt_ns: Hist,
    /// Resident-set growth per logged event over the timed windows.
    rss_bytes_per_event: f64,
}

/// The shell, the transport and the client as the window loop sees them.
struct LiveLoop<'a> {
    dut: &'a mut dyn LiveDut,
    link: &'a mut dyn LiveClient,
    client: Client,
    probes: Option<&'a Probes>,
    spans: LiveSpans,
    /// The log and device state at the end of the deterministic windows.
    recording: Option<Recording>,
}

impl LiveLoop<'_> {
    fn round(&mut self, traced: bool, sending: bool) {
        let spans = traced.then_some(&mut self.spans);
        round(self.dut, self.link, &mut self.client, spans, sending);
    }
}

impl Windowed for LiveLoop<'_> {
    fn run_window(&mut self, cycles: u64) {
        for _ in 0..cycles / STEPS_PER_ROUND {
            self.round(self.probes.is_some(), true);
        }
    }

    fn delivered(&self) -> (u64, u64) {
        (self.client.received, self.client.received * FRAME as u64)
    }

    fn snapshot(&self) -> DevSnapshot {
        self.dut.snapshot()
    }

    fn close_spans(&mut self, window: u32, spans: &mut Vec<SpanRec>) {
        let l = &mut self.spans;
        spans.push(l.send.close("bench.client_send", "window", window));
        spans.push(l.step.close("shell.step", "window", window));
        spans.push(l.drain.close("bench.client_drain", "window", window));
        if let Some(p) = self.probes {
            close_probes(p, W, window, "shell.step", "", spans);
        }
    }

    fn at_det_end(&mut self, out: &mut Outcome) {
        // Every frame the shell forwarded has been drained by now, so the
        // client's count is the device's delivered count.
        let (forwarded, received) = (self.dut.forwarded(), self.client.received);
        out.check(forwarded == received, forwarded.abs_diff(received), || {
            format!("live: shell forwarded {forwarded} frames, client received {received}")
        });
        self.recording = Some(Recording {
            log: self.dut.recording(),
            end: self.dut.snapshot(),
            delivered: (forwarded, forwarded * FRAME as u64, 0),
        });
    }
}

/// Warm-up, fixed-length windows until `stop`, then a drain. Checks that
/// nothing was lost, refused or altered on the way.
fn run_session(
    mut dut: Box<dyn LiveDut>,
    mut link: Box<dyn LiveClient>,
    plan: &Plan,
    probes: Option<&Probes>,
    stop: Stop,
    out: &mut Outcome,
) -> Session {
    let mut s = LiveLoop {
        dut: &mut *dut,
        link: &mut *link,
        client: Client::new(plan.seed),
        probes,
        spans: LiveSpans::default(),
        recording: None,
    };
    for _ in 0..WARM_CYCLES / STEPS_PER_ROUND {
        s.round(false, true);
    }
    if let Some(p) = probes {
        reset_probes(p, W);
    }
    s.client.rtt_ns.clear();
    // The last round drained everything, so this drain finds nothing — and
    // must allocate nothing: the client's side of the loop is free of it.
    let before = AllocCount::now();
    s.client.drain_round(s.link);
    assert_eq!(
        AllocCount::since(before).allocs,
        0,
        "the live client allocated in an empty drain round"
    );

    let (rss0, logged0) = (rss_kb(), s.dut.logged());
    let (windows, det, spans) =
        harness::timed_windows(&mut s, W, plan, probes.is_some(), stop, out);
    let counts = probes.map(ProbeCounts::take).unwrap_or_default();
    let logged = s.dut.logged() - logged0;
    let rss_bytes_per_event = ratio(rss_kb().saturating_sub(rss0) as f64 * 1024.0, logged as f64);

    // Drain: stop sending, keep stepping until everything in flight is back.
    for _ in 0..2_000 {
        if s.client.in_flight == [0, 0] && s.dut.backlog() == 0 {
            break;
        }
        s.round(false, false);
    }
    // A dropped frame frees its slot a few hundred cycles after the last
    // forwarded one has left.
    for _ in 0..harness::DRAIN_ROUNDS {
        s.round(false, false);
    }
    let end = s.dut.snapshot();
    let client = s.client;
    let lost = u64::from(client.in_flight[0] + client.in_flight[1]);
    out.check(lost == 0, lost, || {
        format!("live: {lost} frames never came back")
    });
    out.check(client.refused == 0, client.refused, || {
        format!("live: transport refused {} frames (EAGAIN)", client.refused)
    });
    out.check(client.wrong == 0, client.wrong, || {
        format!("live: {} frames came back altered", client.wrong)
    });
    check_ledger(out, "live", &end, client.expected_drops);

    Session {
        timed: Timed {
            windows,
            det,
            offered: client.sent + client.refused,
            end,
            spans,
            counts,
        },
        recording: s
            .recording
            .expect("taken at the end of the deterministic windows"),
        rtt_ns: client.rtt_ns,
        rss_bytes_per_event,
    }
}

/// Replays the recorded deterministic windows and reads the simulated
/// round-trip latency off the replay device's sink.
fn replay_and_latency(plan: &Plan, session: &Session, out: &mut Outcome) -> (f64, Device) {
    let (times, fresh) = harness::run_replay(W, plan, &session.recording, out);
    let (p50, p99, samples) = {
        let sink = fresh.sink();
        (
            sink.latency.percentile(0.5),
            sink.latency.percentile(0.99),
            sink.latency.count(),
        )
    };
    out.check(plan.quick || samples >= 1000, 1, || {
        format!("live: only {samples} latency samples in the replay")
    });
    out.set("dev_p50_cycles", p50.unwrap_or(f64::NAN));
    out.set("dev_p99_cycles", p99.unwrap_or(f64::NAN));
    (times.replay_s * 1e9 / times.cycles.max(1) as f64, fresh)
}

/// Times the live workload's cold set-ups (the `--setups-only` child).
pub fn setup_times(plan: &Plan) -> Vec<f64> {
    harness::timed_setups(plan.setups(), || setup_uds(plan.seed, None)).1
}

/// The untraced run of the live workload: every end-to-end metric but
/// `setup_s` and `peak_rss_mb`, which `main` measures around it.
pub fn run_untraced(plan: &Plan, out: &mut Outcome) {
    let (dut, link) = setup_uds(plan.seed, None);
    let session = run_session(dut, link, plan, None, Stop::Seconds(plan.seconds), out);
    out.attempted += session.timed.offered;
    harness::set_timed_metrics(out, &session.timed);
    replay_and_latency(plan, &session, out);
}

/// The traced run: untraced reference windows, the traced session (which
/// must simulate the same thing), replay, the same session over the
/// in-process ring, and the layer micro-measures.
pub fn run_traced(plan: &Plan, out: &mut Outcome) {
    let ((dut, link), setups) =
        harness::timed_setups(plan.setups().min(3), || setup_uds(plan.seed, None));
    out.set("core.build_ms", median(&setups) * 1e3);
    let base = run_session(
        dut,
        link,
        plan,
        None,
        Stop::Windows(plan.det_windows()),
        out,
    );

    let probes = Arc::new(Probes::default());
    let (dut, link) = setup_uds(plan.seed, Some(probes.clone()));
    let session = run_session(
        dut,
        link,
        plan,
        Some(&probes),
        Stop::Seconds(plan.seconds),
        out,
    );
    let timed = &session.timed;
    out.attempted += base.timed.offered + timed.offered;
    out.check(
        timed.det.same_simulation(&base.timed.det) && session.recording.log == base.recording.log,
        timed.offered,
        || {
            format!(
                "the traced live run simulated something else than the untraced one: \
                 {} vs {} frames, ledger {:?} vs {:?}",
                timed.det.frames,
                base.timed.det.frames,
                timed.det.end.ledger,
                base.timed.det.end.ledger
            )
        },
    );

    let spans = &timed.spans;
    let per_cycle = |name: &str| -> Vec<f64> {
        timed
            .windows
            .iter()
            .enumerate()
            .map(|(i, win)| work_ns(spans, i as u32, name) / win.cycles as f64)
            .collect()
    };
    let step = per_cycle("shell.step");
    out.set_median("shell.step_ns_per_cycle", &step);
    // In the live loop the shell's step is where the core ticks.
    out.set_median("core.tick_ns_per_cycle", &step);
    let client: Vec<f64> = per_cycle("bench.client_send")
        .iter()
        .zip(per_cycle("bench.client_drain"))
        .map(|(a, b)| a + b)
        .collect();
    out.set_median("bench.client_ns_per_cycle", &client);
    let covered: Vec<f64> = step.iter().zip(&client).map(|(a, b)| a + b).collect();
    let wall = timed.ns_per_cycle();
    out.set(
        "bench.top_span_coverage_pct",
        covered
            .iter()
            .zip(&wall)
            .map(|(c, w)| 100.0 * c / w)
            .fold(f64::INFINITY, f64::min),
    );
    let cycles: f64 = timed.windows.iter().map(|w| w.cycles as f64).sum();
    out.set(
        "shell.backend_recv_ns_per_cycle",
        ratio(total_work(spans, "shell.backend_recv"), cycles),
    );
    out.set(
        "shell.backend_send_ns_per_frame",
        ratio(
            total_work(spans, "shell.backend_send"),
            total_calls(spans, "shell.backend_send"),
        ),
    );
    out.set(
        "shell.recv_empty_share",
        100.0
            * ratio(
                timed.counts.backend_recv_empty as f64,
                total_calls(spans, "shell.backend_recv"),
            ),
    );
    harness::device_layer_metrics(W, out, timed);
    out.set(
        "bench.trace_overhead_pct",
        (median(&timed.ns_per_cycle()) / median(&base.timed.ns_per_cycle()) - 1.0) * 100.0,
    );
    let us = |p: f64| session.rtt_ns.percentile(p).unwrap_or(f64::NAN) / 1e3;
    out.set("shell.live_rtt_us_p50", us(0.50));
    out.set("shell.live_rtt_us_p90", us(0.90));
    out.set("shell.live_rtt_us_p99", us(0.99));
    out.set("core.eventlog_bytes_per_event", session.rss_bytes_per_event);

    let (replay_ns_per_cycle, fresh) = replay_and_latency(plan, &session, out);
    out.set("shell.rtt_cycles_p50", out.get("dev_p50_cycles"));
    drop(fresh);
    out.set(
        "shell.overhead_ns_per_cycle",
        (median(&step) - replay_ns_per_cycle).max(0.0),
    );

    // The same session over the in-process ring: what is left of the
    // shell's cost once the syscalls are gone.
    let ring_probes = Arc::new(Probes::default());
    let (dut, link) = dut::live_ring(plan.seed, ring_probes.clone());
    let ring = run_session(
        dut,
        link,
        plan,
        Some(&ring_probes),
        Stop::Windows(plan.det_windows()),
        out,
    );
    out.attempted += ring.timed.offered;
    let ring_step: Vec<f64> = ring
        .timed
        .windows
        .iter()
        .enumerate()
        .map(|(i, win)| work_ns(&ring.timed.spans, i as u32, "shell.step") / win.cycles as f64)
        .collect();
    out.set_median("shell.ring_step_ns_per_cycle", &ring_step);

    harness::micro_metrics(W, plan, out);
    harness::set_iss_estimates(W, out, timed, "shell.step");
    out.spans.extend(session.timed.spans);
}
