//! Frame transports between the shell and the outside world.
//!
//! A backend is deliberately dumb: it moves raw Ethernet frames tagged with
//! a physical-port index, with no notion of cycles. The [`Shell`]
//! (crate::Shell) owns the cycle domain; the backend owns the bytes.

use std::collections::VecDeque;
use std::io;
use std::os::unix::net::UnixDatagram;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Largest frame a backend will accept from the outside (jumbo + slack).
pub(crate) const MAX_FRAME: usize = 16 * 1024;

/// A transport carrying raw frames between the shell and real endpoints.
///
/// Both directions are non-blocking: `recv_frames` returns whatever has
/// arrived since the last call (possibly nothing), `send_frame` hands a
/// delivered frame to the far side and never waits.
pub trait ShellBackend {
    /// Drains every frame that arrived since the last call, as
    /// `(port, bytes)` pairs in arrival order.
    fn recv_frames(&mut self) -> Vec<(u8, Vec<u8>)>;

    /// Emits one delivered frame on `port`. Errors are the backend's to
    /// swallow (a live sink with no receiver is not the simulation's
    /// problem).
    fn send_frame(&mut self, port: u8, frame: &[u8]);

    /// A short label for diagnostics.
    fn name(&self) -> &'static str;
}

type FrameQueue = Arc<Mutex<VecDeque<(u8, Vec<u8>)>>>;

fn drain(q: &FrameQueue) -> Vec<(u8, Vec<u8>)> {
    q.lock().expect("ring poisoned").drain(..).collect()
}

fn push(q: &FrameQueue, port: u8, frame: Vec<u8>) {
    q.lock().expect("ring poisoned").push_back((port, frame));
}

/// The receive side of a datagram backend: one buffer for the backend's
/// lifetime and the one loop that drains a non-blocking source.
struct Receiver {
    /// `MAX_FRAME + 1` bytes, so a datagram the kernel had to truncate is
    /// told apart from one that fits exactly.
    buf: Box<[u8]>,
}

impl Receiver {
    fn new() -> Self {
        Self {
            buf: vec![0; MAX_FRAME + 1].into_boxed_slice(),
        }
    }

    /// Calls `recv` (one non-blocking datagram read into the buffer) until
    /// it fails — `WouldBlock` is the empty queue, any other error is the
    /// far side's problem — appending each datagram to `out` as a frame on
    /// `port`. One longer than [`MAX_FRAME`] is dropped.
    fn drain(
        &mut self,
        port: u8,
        out: &mut Vec<(u8, Vec<u8>)>,
        mut recv: impl FnMut(&mut [u8]) -> io::Result<usize>,
    ) {
        while let Ok(n) = recv(&mut self.buf) {
            if n <= MAX_FRAME {
                out.push((port, self.buf[..n].to_vec()));
            }
        }
    }
}

/// An in-process ring-buffer transport — the CI backend. [`RingBackend::pair`]
/// returns the shell side and a [`RingPeer`] the test (or another thread)
/// drives like a cable cross-connect.
///
/// # Examples
///
/// ```
/// use rosebud_shell::{RingBackend, ShellBackend};
///
/// let (mut shell_side, peer) = RingBackend::pair();
/// peer.send(0, vec![0xAA; 64]);
/// let got = shell_side.recv_frames();
/// assert_eq!(got, vec![(0, vec![0xAA; 64])]);
/// shell_side.send_frame(1, &[0xBB; 64]);
/// assert_eq!(peer.recv().len(), 1);
/// ```
pub struct RingBackend {
    /// Frames from the peer toward the shell.
    rx: FrameQueue,
    /// Frames from the shell toward the peer.
    tx: FrameQueue,
}

/// The far end of a [`RingBackend`] pair.
#[derive(Clone)]
pub struct RingPeer {
    /// Frames toward the shell.
    tx: FrameQueue,
    /// Frames from the shell.
    rx: FrameQueue,
}

impl RingBackend {
    /// A connected (shell side, peer side) pair.
    pub fn pair() -> (Self, RingPeer) {
        let a: FrameQueue = Arc::default();
        let b: FrameQueue = Arc::default();
        (
            Self {
                rx: a.clone(),
                tx: b.clone(),
            },
            RingPeer { tx: a, rx: b },
        )
    }
}

impl ShellBackend for RingBackend {
    fn recv_frames(&mut self) -> Vec<(u8, Vec<u8>)> {
        drain(&self.rx)
    }

    fn send_frame(&mut self, port: u8, frame: &[u8]) {
        push(&self.tx, port, frame.to_vec());
    }

    fn name(&self) -> &'static str {
        "ring"
    }
}

impl RingPeer {
    /// Offers a frame to the shell on `port`.
    pub fn send(&self, port: u8, frame: Vec<u8>) {
        push(&self.tx, port, frame);
    }

    /// Drains frames the shell has emitted since the last call.
    pub fn recv(&self) -> Vec<(u8, Vec<u8>)> {
        drain(&self.rx)
    }
}

/// A Unix-domain-datagram transport: one socket per physical port. Clients
/// bind their own path and send datagrams (one frame each) to the port's
/// path; the shell learns each port's peer from the first datagram it
/// receives and emits deliveries back to it.
pub struct UdsBackend {
    socks: Vec<UnixDatagram>,
    /// Last-seen peer per port (datagram sends need an explicit address).
    peers: Vec<Option<PathBuf>>,
    rx: Receiver,
}

impl UdsBackend {
    /// Binds one datagram socket per path in `paths` (port `i` ↔
    /// `paths[i]`), all non-blocking. Existing socket files are removed
    /// first.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind<P: AsRef<Path>>(paths: &[P]) -> io::Result<Self> {
        let mut socks = Vec::with_capacity(paths.len());
        for p in paths {
            let p = p.as_ref();
            let _ = std::fs::remove_file(p);
            let s = UnixDatagram::bind(p)?;
            s.set_nonblocking(true)?;
            socks.push(s);
        }
        let peers = vec![None; socks.len()];
        Ok(Self {
            socks,
            peers,
            rx: Receiver::new(),
        })
    }
}

impl ShellBackend for UdsBackend {
    fn recv_frames(&mut self) -> Vec<(u8, Vec<u8>)> {
        let mut out = Vec::new();
        for (port, (sock, peer)) in self.socks.iter().zip(&mut self.peers).enumerate() {
            self.rx.drain(port as u8, &mut out, |buf| {
                let (n, from) = sock.recv_from(buf)?;
                // Re-stored only when the sender changes: no `PathBuf` per
                // datagram from a steady peer.
                if let Some(path) = from.as_pathname() {
                    if peer.as_deref() != Some(path) {
                        *peer = Some(path.to_path_buf());
                    }
                }
                Ok(n)
            });
        }
        out
    }

    fn send_frame(&mut self, port: u8, frame: &[u8]) {
        let p = port as usize;
        if let Some(Some(peer)) = self.peers.get(p) {
            // A vanished receiver is the receiver's problem.
            let _ = self.socks[p].send_to(frame, peer);
        }
    }

    fn name(&self) -> &'static str {
        "uds"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pair_crosses_frames() {
        let (mut shell, peer) = RingBackend::pair();
        assert!(shell.recv_frames().is_empty());
        peer.send(1, vec![1, 2, 3]);
        peer.send(0, vec![4]);
        assert_eq!(shell.recv_frames(), vec![(1, vec![1, 2, 3]), (0, vec![4])]);
        shell.send_frame(0, &[9; 10]);
        let back = peer.recv();
        assert_eq!(back, vec![(0, vec![9; 10])]);
        assert!(peer.tx.lock().unwrap().is_empty());
    }

    #[test]
    fn uds_backend_learns_peers_and_echoes() {
        let dir = std::env::temp_dir().join(format!("rbshell-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p0 = dir.join("port0.sock");
        let mut be = UdsBackend::bind(&[&p0]).unwrap();
        assert_eq!(be.socks.len(), 1);

        // Sends with no learned peer go nowhere, without erroring.
        be.send_frame(0, &[0xFF; 32]);

        let client_path = dir.join("client.sock");
        let _ = std::fs::remove_file(&client_path);
        let client = UnixDatagram::bind(&client_path).unwrap();
        client.send_to(&[7; 60], &p0).unwrap();

        let got = be.recv_frames();
        assert_eq!(got, vec![(0, vec![7; 60])]);

        be.send_frame(0, &[8; 64]);
        let mut buf = [0u8; 128];
        let (n, _) = client.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..n], &[8; 64][..]);

        // A 17 KiB datagram is dropped, not injected as a truncated frame;
        // one of exactly MAX_FRAME still fits.
        client.send_to(&[9; 17 * 1024], &p0).unwrap();
        client.send_to(&[6; MAX_FRAME], &p0).unwrap();
        assert_eq!(be.recv_frames(), vec![(0, vec![6; MAX_FRAME])]);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
