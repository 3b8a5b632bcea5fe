//! Minimal HTTP/1.1 metrics endpoint over a [`SharedDatabase`].
//!
//! Serves exactly two read-only routes, hand-rolled over `TcpListener`
//! (no HTTP dependency — the request parser reads one request line plus
//! headers and ignores everything but the method and path):
//!
//! - `GET /metrics` — the full metric registry in Prometheus text
//!   exposition format ([`Database::metrics_text`](crate::Database::metrics_text)),
//!   ready to be scraped.
//! - `GET /statements` — the per-statement statistics store as a JSON
//!   array ([`Database::statements_json`](crate::Database::statements_json)),
//!   sorted by total execution time.
//!
//! Everything else is `404`; non-`GET` methods are `405`; a request
//! line over 8 KiB (`MAX_HEADER_BYTES`) is `400` and a header block that takes
//! the request past it `431`. Responses always carry `Content-Length`
//! and `Connection: close`, and each request is served on the accept
//! thread — metrics scrapes are rare and cheap, so there is no
//! per-connection thread pool to manage. Reads hold only the database
//! read lock, so scrapes never block writers.

use crate::server::read_line_bounded;
use crate::SharedDatabase;
use std::io::{BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Most bytes a request (request line plus headers) may take; scrapers
/// send a few hundred.
const MAX_HEADER_BYTES: usize = 8 * 1024;

/// HTTP metrics server builder: binds and spawns the accept loop.
pub struct MetricsServer;

impl MetricsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve scrapes until
    /// [`MetricsHandle::shutdown`] (or drop).
    pub fn start(shared: SharedDatabase, addr: &str) -> std::io::Result<MetricsHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = stop.clone();
        let accept = std::thread::spawn(move || {
            while !accept_stop.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = serve_request(stream, &shared);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(MetricsHandle {
            addr: local,
            stop,
            accept: Mutex::new(Some(accept)),
        })
    }
}

/// Handle to a running metrics server: bound address plus shutdown knob.
pub struct MetricsHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl MetricsHandle {
    /// The address the server actually bound (port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join it. Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept.lock().unwrap().take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve a single HTTP request on `stream` and close the connection.
fn serve_request(stream: TcpStream, shared: &SharedDatabase) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut out = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // Request line, then headers, accumulate in one buffer so the bound
    // covers the request as a whole.
    let mut head = Vec::new();
    match read_line_bounded(&mut reader, &mut head, MAX_HEADER_BYTES) {
        Ok(_) => {}
        Err(e) if e.kind() == ErrorKind::InvalidData => {
            return write_response(
                &mut out,
                "400 Bad Request",
                "text/plain",
                "request line too long\n",
            );
        }
        Err(e) => return Err(e),
    }
    let request_line = String::from_utf8_lossy(&head).into_owned();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    // Drain headers up to the blank line; the routes take no body.
    loop {
        let start = head.len();
        match read_line_bounded(&mut reader, &mut head, MAX_HEADER_BYTES) {
            Ok(true) if matches!(&head[start..], b"\r\n" | b"\n") => break,
            Ok(true) => {}
            Ok(false) => break,
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                return write_response(
                    &mut out,
                    "431 Request Header Fields Too Large",
                    "text/plain",
                    "headers too large\n",
                );
            }
            Err(_) => break,
        }
    }
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            String::from("GET only\n"),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4",
                shared.with_read(|db| db.metrics_text()),
            ),
            "/statements" => (
                "200 OK",
                "application/json",
                shared.with_read(|db| db.statements_json()),
            ),
            _ => (
                "404 Not Found",
                "text/plain",
                String::from("routes: /metrics /statements\n"),
            ),
        }
    };
    write_response(&mut out, status, content_type, &body)
}

fn write_response(
    out: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    out.write_all(response.as_bytes())
}
