//! The line-protocol control service: a minimal HTTP/1.0 endpoint on a
//! Unix-domain socket, speakable with `curl --unix-socket`.
//!
//! The service is polled from the shell's own event loop — no threads touch
//! the simulation, so control actions land at a well-defined cycle. A `GET`
//! reads and changes nothing; a `POST` is parsed into one
//! [`HostOp`](rosebud_core::HostOp) and goes through [`Shell::apply`], which
//! records it — so the run stays replayable whatever was posted.
//!
//! | Request                     | Effect                                             |
//! |-----------------------------|----------------------------------------------------|
//! | `GET /stats`                | cycle, injected/forwarded/rejected, backlog; `sim` |
//! | `GET /ledger`               | the packet-conservation ledger                     |
//! | `GET /counters`             | full diagnostics render                            |
//! | `GET /events`               | the event log (frames and ops), versioned text     |
//! | `GET /perfetto`             | Perfetto JSON of the trace so far; tracing goes on |
//! | `POST /rpu/{r}/enable`      | `Enable`: RPU `r` gets traffic again               |
//! | `POST /rpu/{r}/disable`     | `Disable`: the LB stops sending to RPU `r`         |
//! | `POST /rpu/{r}/reload`      | `Reload`, gated: drain, PR, stay disabled          |
//! | `POST /firmware/{r}`        | `LoadFirmware`: assemble the body, boot `r` on it  |
//!
//! A refused op answers `400` with the reason and is not recorded. A request
//! whose body stops short of its `Content-Length` is dropped unanswered, and
//! nothing is applied.

use std::io::{self, ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::time::{Duration, Instant};

use rosebud_core::HostOp;
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
        let (status, content_type, body) = match read_request(&mut stream, deadline) {
            Ok(request) => dispatch(&request, shell),
            // Framed well enough to answer, not to act on.
            Err(e) if e.kind() == ErrorKind::InvalidInput => {
                ("400 Bad Request", "text/plain", format!("{e}\n"))
            }
            Err(e) => return Err(e),
        };
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
/// `Content-Length` body bytes — all of it before `deadline`. A body that
/// ends early is `UnexpectedEof`; a `Content-Length` that is not a number is
/// `InvalidInput`.
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
                content_length = v.trim().parse().map_err(|_| {
                    io::Error::new(
                        ErrorKind::InvalidInput,
                        format!("bad Content-Length: {}", v.trim()),
                    )
                })?;
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
            return Err(io::Error::new(ErrorKind::UnexpectedEof, "truncated body"));
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
                "cycle={} injected={} forwarded={} rejected={} backlog={} backend={}\n{}\n",
                shell.sys().now(),
                shell.log().events.len(),
                shell.forwarded(),
                shell.rejected(),
                shell.backlog(),
                shell.backend().name(),
                shell.sys().sim_stats(),
            );
            ("200 OK", TEXT, body)
        }
        ("GET", "/ledger") => {
            let sys = shell.sys();
            let body = format!("{} in_flight={}\n", sys.ledger(), sys.ledger_in_flight());
            ("200 OK", TEXT, body)
        }
        ("GET", "/counters") => ("200 OK", TEXT, shell.sys().diagnostics().render()),
        ("GET", "/events") => ("200 OK", TEXT, shell.log().to_text()),
        ("GET", "/perfetto") => match shell.sys().tracer() {
            Some(tracer) => {
                let ns = shell.sys().config().ns_per_cycle();
                ("200 OK", JSON, tracer.perfetto_json(ns))
            }
            None => ("404 Not Found", TEXT, "tracing not enabled\n".to_string()),
        },
        ("POST", path) => {
            let cycle = shell.sys().now();
            match parse_op(req).and_then(|op| shell.apply(op)) {
                Ok(_) => (
                    "200 OK",
                    TEXT,
                    format!("POST {path} applied at cycle {cycle}\n"),
                ),
                Err(e) => ("400 Bad Request", TEXT, format!("{e}\n")),
            }
        }
        (_, path) => ("404 Not Found", TEXT, format!("no such endpoint: {path}\n")),
    }
}

/// The operation a `POST` asks for. `/firmware/{r}` carries RV32 assembly:
/// the plain A.6 load — no drain and no PR write, the RPU reboots on the
/// assembled image at once.
fn parse_op(req: &Request) -> Result<HostOp, String> {
    let index = |r: &str| {
        r.parse::<usize>()
            .map_err(|_| format!("bad rpu index: {r}"))
    };
    let path: Vec<&str> = req.path.split('/').collect();
    Ok(match path[..] {
        ["", "rpu", r, "enable"] => HostOp::Enable { rpu: index(r)? },
        ["", "rpu", r, "disable"] => HostOp::Disable { rpu: index(r)? },
        ["", "rpu", r, "reload"] => HostOp::Reload {
            rpu: index(r)?,
            gated: true,
        },
        ["", "firmware", r] => {
            let rpu = index(r)?;
            let source = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8")?;
            let image = assemble(source).map_err(|e| format!("assembly error: {e}"))?;
            HostOp::LoadFirmware { rpu, image }
        }
        _ => return Err(format!("no such operation: POST {}", req.path)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::RingBackend;
    use rosebud_core::{Rosebud, RosebudConfig, RpuProgram};

    fn spinning_box() -> Rosebud {
        let image = assemble("spin: j spin").unwrap();
        Rosebud::builder(RosebudConfig::with_rpus(2))
            .firmware(move |_| RpuProgram::Riscv(image.clone()))
            .build()
            .unwrap()
    }

    fn shell() -> Shell<RingBackend> {
        let (backend, _peer) = RingBackend::pair();
        Shell::new(spinning_box(), backend)
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
        assert!(body
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("sim full_ticks=0 "));
        let (s, _, body) = dispatch(&request("GET", "/ledger", b""), &mut sh);
        assert_eq!(s, "200 OK");
        assert_eq!(
            body,
            "injected=0 originated=0 delivered=0 dropped=0 corrupted=0 purged=0 in_flight=0\n"
        );
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
    fn two_perfetto_reads_return_the_same_trace() {
        let mut sys = spinning_box();
        sys.enable_tracing(rosebud_core::TraceConfig::default());
        let (backend, _peer) = RingBackend::pair();
        let mut sh = Shell::new(sys, backend);
        sh.pump(50);
        let (s, ct, first) = dispatch(&request("GET", "/perfetto", b""), &mut sh);
        assert_eq!(s, "200 OK");
        assert_eq!(ct, "application/json");
        let (s, _, second) = dispatch(&request("GET", "/perfetto", b""), &mut sh);
        assert_eq!(s, "200 OK");
        assert_eq!(first, second, "a read leaves the tracer as it found it");
        assert!(sh.sys().tracer().is_some(), "and tracing stays on");
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

    /// A firmware post is assembled before anything vets it, so the
    /// assembler reads untrusted input. At the parent of this test the
    /// 17-byte `.space 4294967292` asked for a 4 GiB image and `.org
    /// 0xffffffff` overflowed the layout — an abort of the live process
    /// either way, under a memory limit or in a debug build.
    #[test]
    fn a_hostile_firmware_layout_is_refused_and_the_shell_lives_on() {
        let dir = std::env::temp_dir().join(format!("rbctl-asm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("control.sock");
        let mut server = ControlServer::bind(&sock).unwrap();
        let mut sh = shell();

        for body in [".space 4294967292", ".org 0xffffffff\nnop"] {
            let r = exchange(&mut server, &sock, &mut sh, &post("/firmware/0", body));
            assert!(r.starts_with("HTTP/1.0 400 Bad Request\r\n"), "{r}");
            assert!(r.contains("code window"), "{r}");
        }

        assert!(sh.log().ops.is_empty());
        let r = exchange(&mut server, &sock, &mut sh, b"GET /stats HTTP/1.0\r\n\r\n");
        assert!(r.starts_with("HTTP/1.0 200 OK\r\n"), "{r}");
        sh.pump(100);
        assert_eq!(sh.sys().now(), 100);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The service acts only on requests it received whole. At the parent of
    /// this test a 13-byte prefix of a 400-byte firmware post was assembled
    /// and booted, and an unparsable `Content-Length` booted an empty image —
    /// both answered `200`.
    #[test]
    fn a_truncated_or_misframed_post_applies_nothing() {
        let dir = std::env::temp_dir().join(format!("rbctl-frame-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("control.sock");
        let mut server = ControlServer::bind(&sock).unwrap();
        let mut sh = shell();
        let booted = sh
            .sys()
            .read_rpu_mem(0, rosebud_core::MemRegion::Imem, 0, 64);

        // Announces 400 bytes, sends 13, hangs up: dropped unanswered.
        let mut client = UnixStream::connect(&sock).unwrap();
        client
            .write_all(b"POST /firmware/0 HTTP/1.0\r\nContent-Length: 400\r\n\r\nspin: j spin\n")
            .unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        assert_eq!(server.poll(&mut sh), 0);
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        assert_eq!(response, "", "a truncated request gets no answer");

        let r = exchange(
            &mut server,
            &sock,
            &mut sh,
            b"POST /firmware/0 HTTP/1.0\r\nContent-Length: lots\r\n\r\nspin: j spin\n",
        );
        assert!(r.starts_with("HTTP/1.0 400 Bad Request\r\n"), "{r}");
        assert!(r.contains("bad Content-Length: lots"), "{r}");

        // Nothing was applied, RPU 0 runs what it booted with, and the
        // service still answers.
        assert!(sh.log().ops.is_empty());
        assert_eq!(
            sh.sys()
                .read_rpu_mem(0, rosebud_core::MemRegion::Imem, 0, 64),
            booted
        );
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
