//! The line-protocol control service: a minimal HTTP/1.0 endpoint on a
//! Unix-domain socket, speakable with `curl --unix-socket`.
//!
//! The service is polled from the shell's own event loop — no threads touch
//! the simulation, so control actions land at a well-defined cycle and the
//! run stays replayable.
//!
//! | Request                     | Effect                                             |
//! |-----------------------------|----------------------------------------------------|
//! | `GET /stats`                | cycle, injected/forwarded/rejected, backlog        |
//! | `GET /ledger`               | the packet-conservation ledger                     |
//! | `GET /counters`             | full diagnostics render                            |
//! | `GET /events`               | the event log in its versioned text format         |
//! | `GET /perfetto`             | Perfetto JSON trace (one-shot: drains the tracer)  |
//! | `POST /rpu/{r}/enable`      | re-enable RPU `r`                                  |
//! | `POST /rpu/{r}/disable`     | drain and disable RPU `r`                          |
//! | `POST /rpu/{r}/reload`      | gated partial reconfiguration of RPU `r`           |
//! | `POST /firmware/{r}`        | assemble the body and hot-load it into RPU `r`     |

use std::io::{self, ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::time::{Duration, Instant};

use rosebud_riscv::assemble;

use crate::backend::ShellBackend;
use crate::shell::Shell;

/// Longest request (headers + body) the service will read.
const MAX_REQUEST: usize = 1 << 20;

/// Wall-clock budget for one connection, from `accept` to the last response
/// byte. The service runs inside the data-path loop, so this bounds how long
/// one slow client can hold up forwarding.
const REQUEST_BUDGET: Duration = Duration::from_millis(500);

/// A control endpoint bound to a Unix socket, polled between shell steps.
pub struct ControlServer {
    listener: UnixListener,
}

impl ControlServer {
    /// Binds the control socket at `path` (an existing socket file is
    /// replaced) and sets it non-blocking.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let path = path.as_ref();
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        Ok(Self { listener })
    }

    /// Accepts and serves every pending connection, returning how many
    /// requests were handled. Each connection carries one request and is
    /// closed after the response (HTTP/1.0 semantics).
    pub fn poll<B: ShellBackend>(&mut self, shell: &mut Shell<B>) -> usize {
        let mut handled = 0;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Ignore per-connection failures: a client that hung up
                    // mid-request must not take the middlebox down.
                    if Self::serve_one(stream, shell).is_ok() {
                        handled += 1;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        handled
    }

    fn serve_one<B: ShellBackend>(mut stream: UnixStream, shell: &mut Shell<B>) -> io::Result<()> {
        let deadline = Instant::now() + REQUEST_BUDGET;
        stream.set_nonblocking(false)?;
        let request = read_request(&mut stream, deadline)?;
        let (status, content_type, body) = dispatch(&request, shell);
        let response = format!(
            "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        write_by(&mut stream, response.as_bytes(), deadline)?;
        write_by(&mut stream, body.as_bytes(), deadline)
    }
}

/// The socket timeout that expires at `deadline`, or `TimedOut` once it has
/// passed (a zero timeout would mean "block for ever").
fn time_left(deadline: Instant) -> io::Result<Duration> {
    deadline
        .checked_duration_since(Instant::now())
        .filter(|left| !left.is_zero())
        .ok_or_else(|| io::Error::new(ErrorKind::TimedOut, "control request over budget"))
}

/// One `read` that gives up at `deadline`, however the client paces its
/// bytes.
fn read_by(stream: &mut UnixStream, chunk: &mut [u8], deadline: Instant) -> io::Result<usize> {
    stream.set_read_timeout(Some(time_left(deadline)?))?;
    stream.read(chunk)
}

/// `write_all` that gives up at `deadline`: a client that stops reading (or
/// reads a byte at a time) cannot hold the writer past it.
fn write_by(stream: &mut UnixStream, mut bytes: &[u8], deadline: Instant) -> io::Result<()> {
    while !bytes.is_empty() {
        stream.set_write_timeout(Some(time_left(deadline)?))?;
        match stream.write(bytes)? {
            0 => return Err(ErrorKind::WriteZero.into()),
            n => bytes = &bytes[n..],
        }
    }
    Ok(())
}

/// A parsed request: method, path, body.
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

/// Reads one HTTP request: headers to the blank line, then exactly
/// `Content-Length` body bytes — all of it before `deadline`.
fn read_request(stream: &mut UnixStream, deadline: Instant) -> io::Result<Request> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_REQUEST {
            return Err(io::Error::new(ErrorKind::InvalidData, "request too large"));
        }
        let n = read_by(stream, &mut chunk, deadline)?;
        if n == 0 {
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "truncated request",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut lines = head.lines();
    let request_line = lines
        .next()
        .ok_or_else(|| io::Error::new(ErrorKind::InvalidData, "empty request"))?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let path = parts.next().unwrap_or("").to_string();

    let mut content_length = 0usize;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().unwrap_or(0);
            }
        }
    }
    if content_length > MAX_REQUEST {
        return Err(io::Error::new(ErrorKind::InvalidData, "body too large"));
    }

    let mut body: Vec<u8> = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = read_by(stream, &mut chunk, deadline)?;
        if n == 0 {
            break;
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request { method, path, body })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Routes a request to its handler. Returns (status, content type, body).
fn dispatch<B: ShellBackend>(
    req: &Request,
    shell: &mut Shell<B>,
) -> (&'static str, &'static str, String) {
    const TEXT: &str = "text/plain";
    const JSON: &str = "application/json";
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/stats") => {
            let body = format!(
                "cycle={} injected={} forwarded={} rejected={} backlog={} backend={}\n",
                shell.sys().now(),
                shell.log().events.len(),
                shell.forwarded(),
                shell.rejected(),
                shell.backlog(),
                shell.backend().name(),
            );
            ("200 OK", TEXT, body)
        }
        ("GET", "/ledger") => {
            let l = shell.sys().ledger();
            let body = format!(
                "injected={} originated={} delivered={} dropped={} corrupted={} purged={} in_flight={}\n",
                l.injected,
                l.originated,
                l.delivered,
                l.dropped,
                l.corrupted,
                l.purged,
                shell.sys().ledger_in_flight(),
            );
            ("200 OK", TEXT, body)
        }
        ("GET", "/counters") => ("200 OK", TEXT, shell.sys().diagnostics().render()),
        ("GET", "/events") => ("200 OK", TEXT, shell.log().to_text()),
        ("GET", "/perfetto") => {
            // `take_tracer` consumes the tracer: this endpoint drains the
            // trace accumulated so far, exactly once per enable_tracing.
            let ns = shell.sys().config().ns_per_cycle();
            match shell.sys_mut().take_tracer() {
                Some(tracer) => ("200 OK", JSON, tracer.perfetto_json(ns)),
                None => ("404 Not Found", TEXT, "tracing not enabled\n".to_string()),
            }
        }
        ("POST", path) => {
            if let Some(rest) = path.strip_prefix("/rpu/") {
                return rpu_action(rest, shell);
            }
            if let Some(r) = path.strip_prefix("/firmware/") {
                return load_firmware(r, &req.body, shell);
            }
            ("404 Not Found", TEXT, format!("no such endpoint: {path}\n"))
        }
        (_, path) => ("404 Not Found", TEXT, format!("no such endpoint: {path}\n")),
    }
}

/// Handles `POST /rpu/{r}/{enable|disable|reload}`.
fn rpu_action<B: ShellBackend>(
    rest: &str,
    shell: &mut Shell<B>,
) -> (&'static str, &'static str, String) {
    let Some((rpu, action)) = rest.split_once('/') else {
        return (
            "400 Bad Request",
            "text/plain",
            "want /rpu/{r}/{action}\n".to_string(),
        );
    };
    let Ok(rpu) = rpu.parse::<usize>() else {
        return (
            "400 Bad Request",
            "text/plain",
            format!("bad rpu index: {rpu}\n"),
        );
    };
    if rpu >= shell.sys().config().num_rpus {
        return (
            "400 Bad Request",
            "text/plain",
            format!("rpu {rpu} out of range\n"),
        );
    }
    let sys = shell.sys_mut();
    match action {
        "enable" => {
            sys.enable_rpu(rpu);
            ("200 OK", "text/plain", format!("rpu {rpu} enabled\n"))
        }
        "disable" => {
            sys.disable_rpu(rpu);
            ("200 OK", "text/plain", format!("rpu {rpu} disabled\n"))
        }
        "reload" => {
            sys.reconfigure_rpu_gated(rpu);
            ("200 OK", "text/plain", format!("rpu {rpu} reconfiguring\n"))
        }
        other => (
            "400 Bad Request",
            "text/plain",
            format!("unknown action: {other}\n"),
        ),
    }
}

/// Handles `POST /firmware/{r}`: the body is RV32 assembly, assembled and
/// handed to `Rosebud::load_rpu_firmware` — the plain A.6 load: no drain and
/// no PR write, the RPU reboots on the new image at once. A refusal (no
/// such RPU, an image larger than instruction memory, a `LoadPolicy::Deny`
/// lint error) leaves the RPU as it was and answers `400`.
fn load_firmware<B: ShellBackend>(
    rpu: &str,
    body: &[u8],
    shell: &mut Shell<B>,
) -> (&'static str, &'static str, String) {
    let Ok(rpu) = rpu.parse::<usize>() else {
        return (
            "400 Bad Request",
            "text/plain",
            format!("bad rpu index: {rpu}\n"),
        );
    };
    let Ok(source) = std::str::from_utf8(body) else {
        return (
            "400 Bad Request",
            "text/plain",
            "body is not UTF-8\n".to_string(),
        );
    };
    let image = match assemble(source) {
        Ok(image) => image,
        Err(e) => {
            return (
                "400 Bad Request",
                "text/plain",
                format!("assembly error: {e}\n"),
            )
        }
    };
    match shell.sys_mut().load_rpu_firmware(rpu, &image) {
        Ok(()) => (
            "200 OK",
            "text/plain",
            format!("rpu {rpu} firmware loaded\n"),
        ),
        Err(e) => ("400 Bad Request", "text/plain", format!("{e}\n")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::RingBackend;
    use rosebud_core::{Rosebud, RosebudConfig, RpuProgram};

    fn shell() -> Shell<RingBackend> {
        let image = assemble("spin: j spin").unwrap();
        let sys = Rosebud::builder(RosebudConfig::with_rpus(2))
            .firmware(move |_| RpuProgram::Riscv(image.clone()))
            .build()
            .unwrap();
        let (backend, _peer) = RingBackend::pair();
        Shell::new(sys, backend)
    }

    fn request(method: &str, path: &str, body: &[u8]) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            body: body.to_vec(),
        }
    }

    #[test]
    fn dispatch_covers_the_surface() {
        let mut sh = shell();
        let (s, _, body) = dispatch(&request("GET", "/stats", b""), &mut sh);
        assert_eq!(s, "200 OK");
        assert!(body.contains("cycle=0"));
        let (s, _, body) = dispatch(&request("GET", "/ledger", b""), &mut sh);
        assert_eq!(s, "200 OK");
        assert!(body.contains("injected=0"));
        let (s, _, _) = dispatch(&request("GET", "/counters", b""), &mut sh);
        assert_eq!(s, "200 OK");
        let (s, _, body) = dispatch(&request("GET", "/events", b""), &mut sh);
        assert_eq!(s, "200 OK");
        assert!(body.starts_with("rosebud-events v1"));
        let (s, _, _) = dispatch(&request("GET", "/perfetto", b""), &mut sh);
        assert_eq!(s, "404 Not Found"); // tracing not enabled
        let (s, _, _) = dispatch(&request("GET", "/nope", b""), &mut sh);
        assert_eq!(s, "404 Not Found");
    }

    #[test]
    fn rpu_actions_round_trip() {
        let mut sh = shell();
        let (s, _, _) = dispatch(&request("POST", "/rpu/1/disable", b""), &mut sh);
        assert_eq!(s, "200 OK");
        assert_eq!(sh.sys().enabled_mask() & 0b10, 0);
        let (s, _, _) = dispatch(&request("POST", "/rpu/1/enable", b""), &mut sh);
        assert_eq!(s, "200 OK");
        assert_ne!(sh.sys().enabled_mask() & 0b10, 0);
        let (s, _, _) = dispatch(&request("POST", "/rpu/99/enable", b""), &mut sh);
        assert_eq!(s, "400 Bad Request");
        let (s, _, _) = dispatch(&request("POST", "/rpu/1/frob", b""), &mut sh);
        assert_eq!(s, "400 Bad Request");
    }

    #[test]
    fn firmware_post_assembles_and_loads() {
        let mut sh = shell();
        let (s, _, body) = dispatch(&request("POST", "/firmware/0", b"spin: j spin"), &mut sh);
        assert_eq!(s, "200 OK", "{body}");
        let (s, _, _) = dispatch(&request("POST", "/firmware/0", b"bogus ??"), &mut sh);
        assert_eq!(s, "400 Bad Request");
    }

    #[test]
    fn perfetto_is_a_one_shot_drain() {
        let mut sh = shell();
        sh.sys_mut()
            .enable_tracing(rosebud_core::TraceConfig::default());
        let (s, ct, _) = dispatch(&request("GET", "/perfetto", b""), &mut sh);
        assert_eq!(s, "200 OK");
        assert_eq!(ct, "application/json");
        let (s, _, _) = dispatch(&request("GET", "/perfetto", b""), &mut sh);
        assert_eq!(s, "404 Not Found");
    }

    #[test]
    fn end_to_end_over_the_socket() {
        let dir = std::env::temp_dir().join(format!("rbctl-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("control.sock");
        let mut server = ControlServer::bind(&sock).unwrap();
        let mut sh = shell();
        assert_eq!(server.poll(&mut sh), 0);

        let response = exchange(&mut server, &sock, &mut sh, b"GET /stats HTTP/1.0\r\n\r\n");
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("cycle=0"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One request over the real socket; returns the raw response.
    fn exchange(
        server: &mut ControlServer,
        sock: &Path,
        sh: &mut Shell<RingBackend>,
        request: &[u8],
    ) -> String {
        let mut client = UnixStream::connect(sock).unwrap();
        client.write_all(request).unwrap();
        assert_eq!(server.poll(sh), 1);
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        response
    }

    fn post(path: &str, body: &str) -> Vec<u8> {
        format!(
            "POST {path} HTTP/1.0\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    /// Firmware the box cannot load is refused with a `400`, not a panic in
    /// the live process: an RPU index past the end, and an image larger
    /// than instruction memory (the service accepts bodies up to 1 MiB).
    #[test]
    fn unloadable_firmware_is_refused_and_the_shell_lives_on() {
        let dir = std::env::temp_dir().join(format!("rbctl-fw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("control.sock");
        let mut server = ControlServer::bind(&sock).unwrap();
        let mut sh = shell();

        let r = exchange(
            &mut server,
            &sock,
            &mut sh,
            &post("/firmware/99", "spin: j spin"),
        );
        assert!(r.starts_with("HTTP/1.0 400 Bad Request\r\n"), "{r}");
        assert!(r.contains("no RPU 99"), "{r}");

        let big = "nop\n".repeat(10_000); // 40 000 bytes of code, 32 KiB of imem
        let r = exchange(&mut server, &sock, &mut sh, &post("/firmware/0", &big));
        assert!(r.starts_with("HTTP/1.0 400 Bad Request\r\n"), "{r}");
        assert!(r.contains("does not fit"), "{r}");

        // Both RPUs still run what they booted with, and the service answers.
        let r = exchange(&mut server, &sock, &mut sh, b"GET /stats HTTP/1.0\r\n\r\n");
        assert!(r.starts_with("HTTP/1.0 200 OK\r\n"), "{r}");
        sh.pump(100);
        assert_eq!(sh.sys().now(), 100);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The service runs inside the data-path loop: a client that paces its
    /// request so that no single `read` ever times out must still be cut off.
    #[test]
    fn a_trickling_client_cannot_stall_the_poll() {
        let dir = std::env::temp_dir().join(format!("rbctl-slow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("control.sock");
        let mut server = ControlServer::bind(&sock).unwrap();
        let mut sh = shell();

        // Connected before the poll, so `accept` finds it; the bytes then
        // arrive 100 ms apart for 2 s and never finish the header.
        let mut client = UnixStream::connect(&sock).unwrap();
        let trickle = std::thread::spawn(move || {
            for byte in b"GET /stats HTTP/1.0\r" {
                // The server hangs up part-way through: ignore the error.
                let _ = client.write_all(&[*byte]);
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let started = Instant::now();
        let handled = server.poll(&mut sh);
        let elapsed = started.elapsed();
        trickle.join().unwrap();
        assert_eq!(handled, 0);
        assert!(
            elapsed < Duration::from_secs(1),
            "poll held the data path for {elapsed:?}"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}
