//! TCP server tests: the line protocol, per-connection transactions,
//! rollback on connection drop, slow and over-long input on both
//! listeners, and graceful shutdown draining the group-commit window.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use xmlup_rdb::{Database, Server, SharedDatabase};

struct Client {
    out: TcpStream,
    lines: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let out = TcpStream::connect(addr).unwrap();
        let lines = BufReader::new(out.try_clone().unwrap());
        Client { out, lines }
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.lines.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    /// Send one statement; collect the full response.
    fn send(&mut self, sql: &str) -> (String, Vec<String>) {
        writeln!(self.out, "{sql}").unwrap();
        let head = self.read_line();
        let mut rows = Vec::new();
        if let Some(n) = head.strip_prefix("ROWS ") {
            for _ in 0..n.parse::<usize>().unwrap() {
                rows.push(self.read_line());
            }
        }
        (head, rows)
    }
}

fn serve() -> (xmlup_rdb::ServerHandle, SharedDatabase) {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE t (id INTEGER, v VARCHAR(10));
         INSERT INTO t VALUES (1, 'a'), (2, 'b');",
    )
    .unwrap();
    let shared = SharedDatabase::new(db);
    let handle = Server::start(shared.clone(), "127.0.0.1:0").unwrap();
    (handle, shared)
}

#[test]
fn protocol_round_trips_rows_dml_and_errors() {
    let (handle, _shared) = serve();
    let mut c = Client::connect(handle.addr());

    let (head, rows) = c.send("SELECT id, v FROM t ORDER BY id");
    assert_eq!(head, "ROWS 2");
    assert_eq!(rows, vec!["1\ta", "2\tb"]);

    let (head, _) = c.send("INSERT INTO t VALUES (3, 'c')");
    assert_eq!(head, "OK 1");

    let (head, _) = c.send("CREATE INDEX t_id ON t (id)");
    assert_eq!(head, "OK");

    let (head, _) = c.send("SELECT nope FROM t");
    assert!(head.starts_with("ERR "), "{head}");

    // The connection survives an error.
    let (head, rows) = c.send("SELECT COUNT(*) FROM t");
    assert_eq!(head, "ROWS 1");
    assert_eq!(rows, vec!["3"]);

    handle.shutdown();
}

#[test]
fn a_statement_split_over_two_slow_writes_runs_once_and_whole() {
    let (handle, _shared) = serve();
    let mut c = Client::connect(handle.addr());
    // The pause outlasts several of the handler's 50 ms read timeouts;
    // the first half must still be there when the second arrives.
    c.out
        .write_all(b"SELECT id FROM t WHERE id = 1 OR ")
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(200));
    let (head, rows) = c.send("id = 2 ORDER BY id");
    assert_eq!(head, "ROWS 2");
    assert_eq!(rows, vec!["1", "2"]);
    // Exactly one reply was sent: the next statement gets its own.
    let (head, rows) = c.send("SELECT COUNT(*) FROM t");
    assert_eq!((head.as_str(), rows), ("ROWS 1", vec!["2".to_string()]));
    handle.shutdown();
}

/// Everything the peer sent until it closed or reset the connection
/// (or, so that a server that never hangs up fails the test instead of
/// hanging it, went quiet for five seconds).
fn read_until_closed(stream: &mut TcpStream) -> String {
    use std::io::Read;
    let quiet = std::time::Duration::from_secs(5);
    stream.set_read_timeout(Some(quiet)).unwrap();
    let mut buf = Vec::new();
    // A reset after the reply still leaves the reply in `buf`.
    let _ = stream.read_to_end(&mut buf);
    String::from_utf8_lossy(&buf).into_owned()
}

#[test]
fn an_overlong_line_is_refused_and_the_server_keeps_serving() {
    let (handle, _shared) = serve();
    let mut bystander = Client::connect(handle.addr());
    let mut flood = TcpStream::connect(handle.addr()).unwrap();
    // 2 MiB with no newline: the server stops reading at its bound and
    // hangs up, so late chunks may fail to send.
    let chunk = vec![b'x'; 64 * 1024];
    for _ in 0..32 {
        if flood.write_all(&chunk).is_err() {
            break;
        }
    }
    assert_eq!(read_until_closed(&mut flood), "ERR line too long\n");

    let (head, rows) = bystander.send("SELECT COUNT(*) FROM t");
    assert_eq!((head.as_str(), rows), ("ROWS 1", vec!["2".to_string()]));
    let (head, _) = Client::connect(handle.addr()).send("SELECT id FROM t");
    assert_eq!(head, "ROWS 2");
    handle.shutdown();
}

#[test]
fn transactions_are_per_connection_and_dropped_connections_roll_back() {
    let (handle, shared) = serve();

    {
        let mut a = Client::connect(handle.addr());
        let (head, _) = a.send("BEGIN");
        assert_eq!(head, "OK");
        let (head, _) = a.send("DELETE FROM t");
        assert_eq!(head, "OK 2");
        // Inside the transaction, connection A sees its own delete…
        let (_, rows) = a.send("SELECT COUNT(*) FROM t");
        assert_eq!(rows, vec!["0"]);
        // …while connection B still sees committed state.
        let mut b = Client::connect(handle.addr());
        let (_, rows) = b.send("SELECT COUNT(*) FROM t");
        assert_eq!(rows, vec!["2"]);
        // A's connection drops without COMMIT.
    }

    // The dropped transaction rolled back; new connections see the
    // original rows and can open a write transaction immediately (the
    // writer token was released).
    let mut c = Client::connect(handle.addr());
    let (_, rows) = c.send("SELECT COUNT(*) FROM t");
    assert_eq!(rows, vec!["2"]);
    let (head, _) = c.send("BEGIN");
    assert_eq!(head, "OK");
    let (head, _) = c.send("UPDATE t SET v = 'z' WHERE id = 1");
    assert_eq!(head, "OK 1");
    let (head, _) = c.send("COMMIT");
    assert_eq!(head, "OK");

    handle.shutdown();
    assert_eq!(
        shared.query("SELECT v FROM t WHERE id = 1").unwrap().rows[0][0],
        xmlup_rdb::Value::Str("z".into())
    );
}

// ---------------------------------------------------------------------
// .stat dot-commands and the HTTP metrics endpoint
// ---------------------------------------------------------------------

#[test]
fn stat_commands_drive_tracking_and_views() {
    let (handle, _shared) = serve();
    let mut c = Client::connect(handle.addr());

    let (head, _) = c.send(".stat on");
    assert_eq!(head, "OK");
    c.send("SELECT COUNT(*) FROM t");
    c.send("SELECT COUNT(*) FROM t");

    // `.stat statements` is sugar for SELECT * FROM rdb_statements.
    let (head, rows) = c.send(".stat statements");
    assert!(head.starts_with("ROWS "), "{head}");
    assert!(
        rows.iter().any(|r| r.contains("SELECT COUNT ( * ) FROM t")),
        "normalized statement missing: {rows:?}"
    );
    // calls column reads 2 for the repeated statement.
    assert!(
        rows.iter().any(|r| r.contains("\t2\t")),
        "aggregated call count missing: {rows:?}"
    );

    let (head, rows) = c.send(".stat sessions");
    assert!(head.starts_with("ROWS "), "{head}");
    // This connection observes itself executing the view query.
    assert!(
        rows.iter().any(|r| r.contains("executing")),
        "own session not visible: {rows:?}"
    );

    let (head, _) = c.send(".stat reset");
    assert_eq!(head, "OK");
    let (head, _) = c.send(".stat statements");
    assert_eq!(head, "ROWS 0", "reset must clear the store");

    let (head, _) = c.send(".stat off");
    assert_eq!(head, "OK");
    let (head, _) = c.send(".stat bogus");
    assert!(head.starts_with("ERR "), "{head}");

    handle.shutdown();
}

/// One blocking HTTP GET against the metrics endpoint.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::Read;
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn metrics_endpoint_serves_prometheus_and_json() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE t (id INTEGER, v VARCHAR(10));
         INSERT INTO t VALUES (1, 'a'), (2, 'b');",
    )
    .unwrap();
    db.set_statement_tracking(true);
    let shared = SharedDatabase::new(db);
    let mut sess = shared.session();
    sess.execute("SELECT COUNT(*) FROM t").unwrap();

    let http = xmlup_rdb::MetricsServer::start(shared.clone(), "127.0.0.1:0").unwrap();

    let metrics = http_get(http.addr(), "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
    assert!(metrics.contains("Content-Type: text/plain; version=0.0.4"));
    assert!(
        metrics.contains("# TYPE rdb_uptime_seconds gauge"),
        "{metrics}"
    );
    assert!(
        metrics.contains("rdb_statement_tracking_enabled 1"),
        "{metrics}"
    );

    let statements = http_get(http.addr(), "/statements");
    assert!(statements.starts_with("HTTP/1.1 200 OK"), "{statements}");
    assert!(statements.contains("Content-Type: application/json"));
    assert!(
        statements.contains("\"sql\":\"SELECT COUNT ( * ) FROM t\""),
        "{statements}"
    );
    assert!(statements.contains("\"calls\":1"), "{statements}");

    let missing = http_get(http.addr(), "/nope");
    assert!(missing.starts_with("HTTP/1.1 404 Not Found"), "{missing}");

    // Non-GET methods are rejected.
    use std::io::Read;
    let mut stream = TcpStream::connect(http.addr()).unwrap();
    write!(stream, "POST /metrics HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 405"), "{response}");

    http.shutdown();
}

#[test]
fn metrics_endpoint_bounds_the_request_head() {
    let shared = SharedDatabase::new(Database::new());
    let http = xmlup_rdb::MetricsServer::start(shared, "127.0.0.1:0").unwrap();

    // An endless header stream (capped here at 1 MiB so a server that
    // never cuts it off fails the test instead of hanging it).
    let mut flood = TcpStream::connect(http.addr()).unwrap();
    flood.write_all(b"GET /metrics HTTP/1.1\r\n").unwrap();
    let header = format!("X-Flood: {}\r\n", "a".repeat(1000));
    for _ in 0..1024 {
        if flood.write_all(header.as_bytes()).is_err() {
            break;
        }
    }
    let response = read_until_closed(&mut flood);
    assert!(response.starts_with("HTTP/1.1 431 "), "{response}");

    let mut long = TcpStream::connect(http.addr()).unwrap();
    let _ = long.write_all(format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(16 * 1024)).as_bytes());
    let response = read_until_closed(&mut long);
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");

    // The accept thread is free again.
    let metrics = http_get(http.addr(), "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
    http.shutdown();
}
