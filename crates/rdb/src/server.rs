//! Line-protocol TCP front-end over a [`SharedDatabase`].
//!
//! One session per connection, one statement per line. Responses:
//!
//! - `ROWS <n>` followed by `n` tab-separated rows, for a result set
//! - `OK <n>` for DML (`n` rows affected)
//! - `OK` for DDL and transaction control
//! - `ERR <message>` on failure (the connection stays usable)
//!
//! `BEGIN`/`COMMIT`/`ROLLBACK` scope a per-connection transaction via
//! [`Session`]; a connection that drops mid-transaction is rolled back
//! by the session's `Drop`. `QUIT` (or EOF) closes the connection, and a
//! line longer than [`MAX_LINE_BYTES`] is answered `ERR line too long`
//! and closes it too.
//! Lines starting with `.stat` are control commands handled by the
//! server itself: `statements`/`sessions`/`tables` run a `SELECT` over
//! the matching system view, `on`/`off` toggle statement tracking, and
//! `reset` clears the statement store.
//!
//! Shutdown is graceful: the accept loop stops admitting connections,
//! handler threads finish their in-flight statement and close, and the
//! final drain forces the pending group-commit window to disk
//! ([`Database::wal_sync`](crate::Database::wal_sync)) so every
//! acknowledged commit is durable before [`ServerHandle::shutdown`]
//! returns.

use crate::session::{Session, SqlOutcome};
use crate::SharedDatabase;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest statement line a connection may send, newline included. The
/// widest statements the translation layer issues (256-row `INSERT`s,
/// `IN`-lists) are tens of kilobytes.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Append input up to and including the next `\n` to `line`, which
/// never grows past `max` bytes. `Ok(true)`: `line` ends a line (or the
/// input ended mid-line); `Ok(false)`: end of input, nothing pending. A
/// line that would exceed `max` is `InvalidData`. A read timeout
/// surfaces as the reader's own error and leaves the bytes received so
/// far in `line`, so the caller retries with the same buffer and clears
/// it only once a whole line was handled.
pub(crate) fn read_line_bounded(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<bool> {
    loop {
        let avail = reader.fill_buf()?;
        if avail.is_empty() {
            return Ok(!line.is_empty());
        }
        let newline = avail.iter().position(|&b| b == b'\n');
        let take = newline.map_or(avail.len(), |i| i + 1);
        if line.len() + take > max {
            return Err(std::io::Error::new(ErrorKind::InvalidData, "line too long"));
        }
        line.extend_from_slice(&avail[..take]);
        reader.consume(take);
        if newline.is_some() {
            return Ok(true);
        }
    }
}

/// TCP server builder: binds and spawns the accept loop.
pub struct Server;

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve `shared` until
    /// [`ServerHandle::shutdown`]. Each connection gets its own session
    /// and handler thread.
    pub fn start(shared: SharedDatabase, addr: &str) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = stop.clone();
        let accept_shared = shared.clone();
        let accept = std::thread::spawn(move || {
            let mut handlers: Vec<JoinHandle<()>> = Vec::new();
            while !accept_stop.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let shared = accept_shared.clone();
                        let stop = accept_stop.clone();
                        handlers.push(std::thread::spawn(move || {
                            let _ = serve_connection(stream, &shared, &stop);
                        }));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
                handlers.retain(|h| !h.is_finished());
            }
            for h in handlers {
                let _ = h.join();
            }
        });
        Ok(ServerHandle {
            shared,
            addr: local,
            stop,
            accept: Mutex::new(Some(accept)),
        })
    }
}

/// Handle to a running server: its bound address and the shutdown knob.
pub struct ServerHandle {
    shared: SharedDatabase,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The address the server actually bound (port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, let in-flight statements finish, join every
    /// handler, then drain the group-commit window to disk. Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept.lock().unwrap().take() {
            let _ = h.join();
        }
        // Drain: any commits still waiting on the group-commit sync
        // ticket are fsynced and acknowledged before shutdown returns.
        let _ = self.shared.wal_sync();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve one connection: read statements line by line, write responses.
fn serve_connection(
    stream: TcpStream,
    shared: &SharedDatabase,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    // Short read timeouts let the handler notice shutdown between
    // statements without a dedicated control channel.
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut session = shared.session();
    let mut line = Vec::new();
    loop {
        match read_line_bounded(&mut reader, &mut line, MAX_LINE_BYTES) {
            Ok(false) => break, // EOF
            Ok(true) => {}
            // A slow client: the part of the line received so far stays
            // in `line` for the next attempt.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                writer.write_all(b"ERR line too long\n")?;
                break;
            }
            Err(e) => return Err(e),
        }
        let text = String::from_utf8_lossy(&line).into_owned();
        line.clear();
        let sql = text.trim();
        if sql.is_empty() {
            continue;
        }
        if sql.eq_ignore_ascii_case("quit") {
            break;
        }
        if let Some(cmd) = sql.strip_prefix(".stat") {
            stat_command(&mut writer, shared, &mut session, cmd.trim())?;
            continue;
        }
        respond(&mut writer, &mut session, sql)?;
        // In-flight work finished; shut down between statements only.
        if stop.load(Ordering::Acquire) && !session.in_transaction() {
            break;
        }
    }
    Ok(())
}

/// Handle a `.stat` control command: introspection without leaving the
/// line protocol. Sub-commands either run a `SELECT *` over the matching
/// system view (replying `ROWS` like any query) or flip the
/// statement-tracking switches:
///
/// - `.stat statements` / `.stat sessions` / `.stat tables`
/// - `.stat on` / `.stat off` — enable or disable per-statement tracking
/// - `.stat reset` — clear the statement store
fn stat_command(
    out: &mut TcpStream,
    shared: &SharedDatabase,
    session: &mut Session,
    cmd: &str,
) -> std::io::Result<()> {
    match cmd.to_ascii_lowercase().as_str() {
        "statements" => respond(out, session, "SELECT * FROM rdb_statements"),
        "sessions" => respond(out, session, "SELECT * FROM rdb_sessions"),
        "tables" => respond(out, session, "SELECT * FROM rdb_tables"),
        // The tracking switches take `&Database` (interior mutability),
        // so a read guard suffices and writers are never blocked.
        "on" => {
            shared.with_read(|db| db.set_statement_tracking(true));
            out.write_all(b"OK\n")
        }
        "off" => {
            shared.with_read(|db| db.set_statement_tracking(false));
            out.write_all(b"OK\n")
        }
        "reset" => {
            shared.with_read(|db| db.reset_statement_statistics());
            out.write_all(b"OK\n")
        }
        _ => {
            out.write_all(b"ERR unknown .stat command (statements|sessions|tables|on|off|reset)\n")
        }
    }
}

fn respond(out: &mut TcpStream, session: &mut Session, sql: &str) -> std::io::Result<()> {
    match session.execute(sql) {
        Ok(SqlOutcome::Rows(rs)) => {
            let mut buf = format!("ROWS {}\n", rs.rows.len());
            for row in &rs.rows {
                let mut first = true;
                for v in row {
                    if !first {
                        buf.push('\t');
                    }
                    first = false;
                    buf.push_str(&v.to_string());
                }
                buf.push('\n');
            }
            out.write_all(buf.as_bytes())
        }
        Ok(SqlOutcome::Affected(n)) => out.write_all(format!("OK {n}\n").as_bytes()),
        Ok(SqlOutcome::Done) => out.write_all(b"OK\n"),
        Err(e) => {
            let msg = e.to_string().replace('\n', " ");
            out.write_all(format!("ERR {msg}\n").as_bytes())
        }
    }
}
