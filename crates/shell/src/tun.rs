//! TUN/TAP attachment (feature `tun`): a backend over a pre-opened device
//! file descriptor.
//!
//! Opening `/dev/net/tun` and wiring the interface needs root, so this
//! module does neither: a supervisor (script, systemd unit, test harness)
//! opens the device, sets it `O_NONBLOCK`, and hands the raw fd down via
//! the `ROSEBUD_TUN_FD` environment variable. CI never exercises this path
//! — the contract-level behavior is covered by the ring and socket
//! backends, which share the [`ShellBackend`] surface.

use std::fs::File;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::io::FromRawFd;

use crate::backend::{Receiver, ShellBackend};

/// Environment variable carrying the pre-opened TUN/TAP fd.
pub const TUN_FD_ENV: &str = "ROSEBUD_TUN_FD";

/// A single-port backend over a pre-opened TUN/TAP file descriptor. All
/// frames arrive on (and are sent as) port 0.
pub struct TunBackend {
    dev: File,
    rx: Receiver,
}

impl TunBackend {
    /// Adopts the fd named by `ROSEBUD_TUN_FD`. The fd must already be
    /// non-blocking; this process takes ownership of it.
    ///
    /// # Errors
    ///
    /// Reports a missing or malformed environment variable.
    pub fn from_env() -> Result<Self, String> {
        let raw = std::env::var(TUN_FD_ENV)
            .map_err(|_| format!("{TUN_FD_ENV} is not set"))?
            .parse::<i32>()
            .map_err(|e| format!("{TUN_FD_ENV} is not an fd number: {e}"))?;
        if raw < 0 {
            return Err(format!("{TUN_FD_ENV} is negative"));
        }
        // SAFETY: the supervisor contract is that this fd is a live, owned,
        // non-blocking TUN/TAP descriptor passed down for exactly this
        // adoption; nothing else in the process holds it.
        let dev = unsafe { File::from_raw_fd(raw) };
        Ok(Self {
            dev,
            rx: Receiver::new(),
        })
    }
}

impl ShellBackend for TunBackend {
    fn recv_frames(&mut self) -> Vec<(u8, Vec<u8>)> {
        let mut out = Vec::new();
        // A zero-length read is the device's end of input, not a frame.
        self.rx.drain(0, &mut out, |buf| match self.dev.read(buf)? {
            0 => Err(ErrorKind::WouldBlock.into()),
            n => Ok(n),
        });
        out
    }

    fn send_frame(&mut self, _port: u8, frame: &[u8]) {
        let _ = self.dev.write(frame);
    }

    fn name(&self) -> &'static str {
        "tun"
    }
}
