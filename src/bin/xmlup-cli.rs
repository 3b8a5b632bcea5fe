//! `xmlup-cli` — interactive shell for the *Updating XML* system.
//!
//! Runs XQuery update statements against in-memory documents and,
//! optionally, against a relational repository (shredded storage with the
//! paper's update strategies).
//!
//! ```text
//! xmlup-cli [--relational] [--ordered] [--dtd FILE] [--root NAME]
//!           [--db-path DIR] [--load NAME=FILE]... [--serve ADDR]
//!           [--metrics-addr ADDR] [SCRIPT]
//! ```
//!
//! `--db-path DIR` makes the relational store durable (a WAL plus a full
//! snapshot per checkpoint, rooted at DIR; implies `--relational`,
//! requires `--dtd`).
//!
//! `--serve ADDR` switches the CLI into server mode after any `--load`s:
//! the relational store is shared behind the engine's session layer
//! (MVCC snapshot reads, serialized writers) and served over the
//! line-based SQL protocol on `ADDR` (e.g. `127.0.0.1:7878`) until stdin
//! closes or reads `quit`; shutdown joins the connections, and every
//! commit a client was answered for was already synced.
//! Server mode enables per-statement tracking (`rdb_statements`), and
//! `--metrics-addr ADDR` additionally serves `GET /metrics` (Prometheus
//! text) and `GET /statements` (JSON) over HTTP.
//!
//! Without a SCRIPT file, reads commands from stdin. Statements may span
//! lines and end with `;;`. Dot-commands:
//!
//! ```text
//! .load NAME FILE    parse FILE and register it as document NAME
//! .show NAME         print a document
//! .sql STATEMENT     run raw SQL against the relational store
//! .tables            list relational tables with row counts
//! .stats             engine statistics
//! .strategy delete per-tuple|per-stm|cascade|asr
//! .strategy insert tuple|table|asr
//! .metrics           metrics registry (Prometheus text format)
//! .trace on|off      toggle span tracing; off prints the phase table
//! .trace dump FILE   write buffered spans as chrome://tracing JSON
//! .help              this text
//! .quit
//! ```

use std::io::{BufRead, Write};
use xmlup::core::{DeleteStrategy, InsertStrategy, RepoConfig, XmlRepository};
use xmlup::shred::Mapping;
use xmlup::xml::dtd::Dtd;
use xmlup::xml::{parse_with, serializer, ParseOptions};
use xmlup::xquery::{Outcome, Store};

struct Cli {
    store: Store,
    repo: Option<XmlRepository>,
    repo_doc: Option<String>,
    dtd: Option<Dtd>,
    root_name: Option<String>,
    ordered: bool,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut relational = false;
    let mut ordered = false;
    let mut dtd_file: Option<String> = None;
    let mut root_name: Option<String> = None;
    let mut loads: Vec<(String, String)> = Vec::new();
    let mut script: Option<String> = None;
    let mut serve_addr: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut db_path: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--relational" => relational = true,
            "--ordered" => ordered = true,
            "--dtd" => dtd_file = args.next(),
            "--root" => root_name = args.next(),
            "--serve" => serve_addr = args.next(),
            "--metrics-addr" => metrics_addr = args.next(),
            "--db-path" => db_path = args.next(),
            "--load" => {
                if let Some(spec) = args.next() {
                    if let Some((n, f)) = spec.split_once('=') {
                        loads.push((n.to_string(), f.to_string()));
                    } else {
                        eprintln!("--load expects NAME=FILE");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                print_help();
                return;
            }
            other if !other.starts_with('-') => script = Some(other.to_string()),
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }

    let mut cli = Cli {
        store: Store::new(),
        repo: None,
        repo_doc: None,
        dtd: None,
        root_name,
        ordered,
    };
    if let Some(f) = dtd_file {
        match std::fs::read_to_string(&f)
            .map_err(|e| e.to_string())
            .and_then(|s| Dtd::parse(&s).map_err(|e| e.to_string()))
        {
            Ok(d) => cli.dtd = Some(d),
            Err(e) => {
                eprintln!("cannot load DTD {f}: {e}");
                std::process::exit(1);
            }
        }
    }
    if db_path.is_some() {
        // A durable store is necessarily relational.
        relational = true;
    }
    if relational && cli.dtd.is_none() {
        eprintln!("--relational requires --dtd (the inlining mapping is DTD-driven)");
        std::process::exit(2);
    }
    if relational {
        let dtd = cli.dtd.as_ref().unwrap();
        let root = cli
            .root_name
            .clone()
            .unwrap_or_else(|| dtd.element_names().first().cloned().unwrap_or_default());
        let built: Result<XmlRepository, String> = match &db_path {
            Some(path) => {
                let mapping = if cli.ordered {
                    Mapping::from_dtd_ordered(dtd, &root)
                } else {
                    Mapping::from_dtd(dtd, &root)
                };
                mapping.map_err(|e| e.to_string()).and_then(|m| {
                    XmlRepository::open_durable(path, m, RepoConfig::default())
                        .map_err(|e| e.to_string())
                })
            }
            None => {
                let mk = if cli.ordered {
                    XmlRepository::new_ordered
                } else {
                    XmlRepository::new
                };
                mk(dtd, &root, RepoConfig::default()).map_err(|e| e.to_string())
            }
        };
        match built {
            Ok(r) => {
                if let Some(path) = &db_path {
                    println!("durable store at {path}: {} tuples", r.tuple_count());
                    if r.tuple_count() > 0 {
                        // A recovered store already holds the document;
                        // block a second `--load` from doubling it.
                        cli.repo_doc = Some("db".to_string());
                    }
                }
                cli.repo = Some(r)
            }
            Err(e) => {
                eprintln!("cannot build repository: {e}");
                std::process::exit(1);
            }
        }
    }
    for (name, file) in loads {
        if let Err(e) = cli.load(&name, &file) {
            eprintln!("cannot load {file}: {e}");
            std::process::exit(1);
        }
    }

    if metrics_addr.is_some() && serve_addr.is_none() {
        eprintln!("--metrics-addr requires --serve (the endpoint scrapes the shared store)");
        std::process::exit(2);
    }
    if let Some(addr) = serve_addr {
        serve(&mut cli, &addr, metrics_addr.as_deref());
        return;
    }

    match script {
        Some(f) => {
            let text = match std::fs::read_to_string(&f) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {f}: {e}");
                    std::process::exit(1);
                }
            };
            let mut ok = true;
            for chunk in split_statements(&text) {
                ok &= cli.dispatch(&chunk);
            }
            if !ok {
                std::process::exit(1);
            }
        }
        None => cli.repl(),
    }
}

fn print_help() {
    println!(
        "xmlup-cli [--relational] [--ordered] [--dtd FILE] [--root NAME] \
         [--db-path DIR] [--load NAME=FILE]... [--serve ADDR] \
         [--metrics-addr ADDR] [SCRIPT]\n\
         Statements end with `;;`. Dot-commands: .load .show .sql .tables \
         .stats .metrics .trace .strategy .help .quit\n\
         --db-path DIR makes the store durable (implies --relational).\n\
         --serve ADDR shares the store over the line-based SQL protocol \
         (one session per connection; BEGIN/COMMIT/ROLLBACK per session); \
         --metrics-addr ADDR adds an HTTP endpoint serving /metrics \
         (Prometheus text) and /statements (JSON)."
    );
}

/// Server mode: hand the relational store (schema, triggers, any loaded
/// document) to the engine's session layer and serve SQL over TCP until
/// stdin closes. Statement tracking is enabled so `rdb_statements` and
/// the `.stat` commands report live data; `--metrics-addr` additionally
/// starts the HTTP scrape endpoint (`/metrics`, `/statements`).
/// Shutdown joins every connection before returning; every commit a
/// client was answered for was already synced to disk.
fn serve(cli: &mut Cli, addr: &str, metrics_addr: Option<&str>) {
    let db = match cli.repo.as_mut() {
        // The repository facade stays behind; connections speak SQL
        // directly to the shredded store.
        Some(repo) => std::mem::replace(&mut repo.db, xmlup::rdb::Database::new()),
        None => xmlup::rdb::Database::new(),
    };
    db.set_statement_tracking(true);
    let shared = xmlup::rdb::SharedDatabase::new(db);
    let metrics = metrics_addr.map(
        |m| match xmlup::rdb::MetricsServer::start(shared.clone(), m) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("cannot listen on {m}: {e}");
                std::process::exit(1);
            }
        },
    );
    let handle = match xmlup::rdb::Server::start(shared, addr) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot listen on {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "serving SQL on {} (close stdin or type `quit` to stop)",
        handle.addr()
    );
    if let Some(m) = &metrics {
        println!("metrics on http://{}/metrics", m.addr());
    }
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "quit" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    handle.shutdown();
    if let Some(m) = metrics {
        m.shutdown();
    }
    println!("server stopped");
}

/// Split a script into units: dot-command lines stand alone; anything else
/// accumulates until a line ending with `;;`.
fn split_statements(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut buf = String::new();
    for line in text.lines() {
        let trimmed = line.trim();
        if buf.is_empty() && (trimmed.starts_with('.') || trimmed.is_empty()) {
            if !trimmed.is_empty() {
                out.push(trimmed.to_string());
            }
            continue;
        }
        buf.push_str(line);
        buf.push('\n');
        if trimmed.ends_with(";;") {
            let stmt = buf.trim().trim_end_matches(";;").trim().to_string();
            if !stmt.is_empty() {
                out.push(stmt);
            }
            buf.clear();
        }
    }
    let tail = buf.trim().trim_end_matches(";;").trim().to_string();
    if !tail.is_empty() {
        out.push(tail);
    }
    out
}

impl Cli {
    fn repl(&mut self) {
        let stdin = std::io::stdin();
        let mut buf = String::new();
        print!("xmlup> ");
        let _ = std::io::stdout().flush();
        for line in stdin.lock().lines() {
            let line = match line {
                Ok(l) => l,
                Err(_) => break,
            };
            let trimmed = line.trim();
            if buf.is_empty() && trimmed.starts_with('.') {
                if trimmed == ".quit" || trimmed == ".exit" {
                    return;
                }
                self.dispatch(trimmed);
            } else {
                buf.push_str(&line);
                buf.push('\n');
                if trimmed.ends_with(";;") {
                    let stmt = buf.trim().trim_end_matches(";;").trim().to_string();
                    buf.clear();
                    if !stmt.is_empty() {
                        self.dispatch(&stmt);
                    }
                }
            }
            let prompt = if buf.is_empty() { "xmlup> " } else { "   ... " };
            print!("{prompt}");
            let _ = std::io::stdout().flush();
        }
    }

    /// Execute one unit; returns false on error (REPL keeps going).
    fn dispatch(&mut self, input: &str) -> bool {
        let result = if let Some(rest) = input.strip_prefix('.') {
            self.dot_command(rest.trim())
        } else {
            self.xquery(input)
        };
        match result {
            Ok(()) => true,
            Err(e) => {
                eprintln!("error: {e}");
                false
            }
        }
    }

    fn dot_command(&mut self, cmd: &str) -> Result<(), String> {
        let mut parts = cmd.split_whitespace();
        match parts.next() {
            Some("load") => {
                let name = parts.next().ok_or(".load NAME FILE")?.to_string();
                let file = parts.next().ok_or(".load NAME FILE")?;
                self.load(&name, file)
            }
            Some("show") => {
                let name = parts.next().ok_or(".show NAME")?;
                // Prefer the relational copy when it is the loaded doc.
                if self.repo_doc.as_deref() == Some(name) {
                    let repo = self.repo.as_mut().expect("repo_doc implies repo");
                    let doc = xmlup::shred::loader::unshred(&mut repo.db, &repo.mapping)
                        .map_err(|e| e.to_string())?;
                    println!("{}", serializer::to_string(&doc));
                    return Ok(());
                }
                let doc = self
                    .store
                    .document(name)
                    .ok_or_else(|| format!("no document `{name}`"))?;
                println!("{}", serializer::to_string(doc));
                Ok(())
            }
            Some("sql") => {
                let stmt: Vec<&str> = parts.collect();
                let repo = self.repo.as_mut().ok_or("not in --relational mode")?;
                match repo
                    .db
                    .execute(&stmt.join(" "))
                    .map_err(|e| e.to_string())?
                {
                    xmlup::rdb::ExecResult::Rows(rs) => {
                        println!("{}", rs.columns.join("\t"));
                        for row in &rs.rows {
                            let cells: Vec<String> = row.iter().map(|v| v.render()).collect();
                            println!("{}", cells.join("\t"));
                        }
                    }
                    xmlup::rdb::ExecResult::Affected(n) => println!("{n} row(s) affected"),
                    xmlup::rdb::ExecResult::Ddl => println!("ok"),
                    xmlup::rdb::ExecResult::Txn => println!("ok"),
                    xmlup::rdb::ExecResult::Checkpoint => println!("checkpoint"),
                }
                Ok(())
            }
            Some("tables") => {
                let repo = self.repo.as_ref().ok_or("not in --relational mode")?;
                for t in repo.db.table_names() {
                    let n = repo.db.table(&t).map(|t| t.len()).unwrap_or(0);
                    println!("{t}\t{n} rows");
                }
                Ok(())
            }
            Some("stats") => {
                let repo = self.repo.as_ref().ok_or("not in --relational mode")?;
                let s = repo.stats();
                println!(
                    "client statements: {}\ntotal statements:  {}\nrows scanned:      {}\n\
                     rows ins/del/upd:  {}/{}/{}\ntrigger firings:   {}\nindex lookups:     {}\n\
                     plans built:       {}\nseq scans:         {}\nindex scans:       {}\n\
                     predicates pushed: {}",
                    s.client_statements,
                    s.total_statements,
                    s.rows_scanned,
                    s.rows_inserted,
                    s.rows_deleted,
                    s.rows_updated,
                    s.trigger_firings,
                    s.index_lookups,
                    s.plans_built,
                    s.seq_scans,
                    s.index_scans,
                    s.predicates_pushed
                );
                Ok(())
            }
            Some("metrics") => {
                let repo = self.repo.as_ref().ok_or("not in --relational mode")?;
                print!("{}", repo.metrics_text());
                Ok(())
            }
            Some("trace") => match parts.next() {
                Some("on") => {
                    xmlup::rdb::obs::set_tracing(true);
                    println!("tracing on");
                    Ok(())
                }
                Some("off") => {
                    xmlup::rdb::obs::set_tracing(false);
                    print!("{}", xmlup::rdb::obs::render_phase_table());
                    Ok(())
                }
                Some("dump") => {
                    let path = parts.next().ok_or(".trace dump FILE")?;
                    let json = xmlup::rdb::obs::trace_json();
                    std::fs::write(path, &json).map_err(|e| e.to_string())?;
                    let dropped = xmlup::rdb::obs::trace_events_dropped();
                    println!(
                        "wrote {} event(s) to {path}{}",
                        xmlup::rdb::obs::trace_events().len(),
                        if dropped > 0 {
                            format!(" ({dropped} dropped)")
                        } else {
                            String::new()
                        }
                    );
                    Ok(())
                }
                _ => Err(".trace on|off or .trace dump FILE".into()),
            },
            Some("strategy") => {
                let repo_cfg = self.repo.as_ref().map(|r| r.config());
                let which = parts.next().ok_or(".strategy delete|insert NAME")?;
                let name = parts.next().ok_or(".strategy delete|insert NAME")?;
                let mut cfg = repo_cfg.ok_or("not in --relational mode")?;
                match which {
                    "delete" => {
                        cfg.delete_strategy = match name {
                            "per-tuple" => DeleteStrategy::PerTupleTrigger,
                            "per-stm" => DeleteStrategy::PerStatementTrigger,
                            "cascade" => DeleteStrategy::Cascading,
                            "asr" => DeleteStrategy::Asr,
                            other => return Err(format!("unknown delete strategy {other}")),
                        }
                    }
                    "insert" => {
                        cfg.insert_strategy = match name {
                            "tuple" => InsertStrategy::Tuple,
                            "table" => InsertStrategy::Table,
                            "asr" => InsertStrategy::Asr,
                            other => return Err(format!("unknown insert strategy {other}")),
                        }
                    }
                    other => return Err(format!("unknown target {other}")),
                }
                // Rebuild the repository with the new strategy, reloading
                // the current document.
                let dtd = self.dtd.as_ref().ok_or("no DTD loaded")?;
                let root = self
                    .root_name
                    .clone()
                    .unwrap_or_else(|| dtd.element_names().first().cloned().unwrap_or_default());
                let mk = if self.ordered {
                    XmlRepository::new_ordered
                } else {
                    XmlRepository::new
                };
                let mut fresh = mk(dtd, &root, cfg).map_err(|e| e.to_string())?;
                if let Some(name) = &self.repo_doc {
                    if let Some(doc) = self.store.document(name) {
                        fresh.load(doc).map_err(|e| e.to_string())?;
                    }
                }
                self.repo = Some(fresh);
                println!("strategy updated (repository reloaded)");
                Ok(())
            }
            Some("help") => {
                print_help();
                Ok(())
            }
            Some("quit") | Some("exit") => std::process::exit(0),
            other => Err(format!("unknown command .{}", other.unwrap_or(""))),
        }
    }

    fn load(&mut self, name: &str, file: &str) -> Result<(), String> {
        let text = std::fs::read_to_string(file).map_err(|e| e.to_string())?;
        let parsed = parse_with(&text, &ParseOptions::default()).map_err(|e| e.to_string())?;
        if let (Some(dtd), Some(_)) = (&self.dtd, &self.repo) {
            dtd.validate(&parsed.doc).map_err(|e| e.to_string())?;
        }
        if let Some(repo) = &mut self.repo {
            if self.repo_doc.is_none() {
                let n = repo.load(&parsed.doc).map_err(|e| e.to_string())?;
                self.repo_doc = Some(name.to_string());
                println!("loaded `{name}` into the relational store ({n} tuples)");
            } else {
                println!("loaded `{name}` (in-memory only; store already holds a document)");
            }
        } else {
            println!("loaded `{name}` (in-memory)");
        }
        self.store.add_document(name, parsed.doc);
        Ok(())
    }

    /// Does the statement reference only the document loaded into the
    /// relational store?
    fn targets_repo_doc(&self, stmt: &str) -> bool {
        let repo_doc = match &self.repo_doc {
            Some(d) => d,
            None => return false,
        };
        match xmlup::xquery::parse_statement(stmt) {
            Ok(parsed) => {
                let mut names = Vec::new();
                for f in parsed.fors.iter().chain(std::iter::empty()) {
                    if let xmlup::xquery::PathStart::Document(n) = &f.path.start {
                        names.push(n.clone());
                    }
                }
                for l in &parsed.lets {
                    if let xmlup::xquery::PathStart::Document(n) = &l.path.start {
                        names.push(n.clone());
                    }
                }
                !names.is_empty() && names.iter().all(|n| n == repo_doc)
            }
            Err(_) => false,
        }
    }

    fn xquery(&mut self, stmt: &str) -> Result<(), String> {
        // Relational first when the statement targets the loaded document.
        if !self.targets_repo_doc(stmt) {
            return self.xquery_in_memory(stmt);
        }
        if let (Some(repo), Some(_)) = (&mut self.repo, &self.repo_doc) {
            // Queries answer through the Sorted Outer Union when the path
            // is translatable.
            if let Ok((doc, roots)) = repo.query_xml(stmt) {
                println!("{} subtree(s) via the sorted outer union:", roots.len());
                for r in roots.iter().take(20) {
                    println!(
                        "{}",
                        serializer::subtree_to_string(&doc, *r, &Default::default())
                    );
                }
                if roots.len() > 20 {
                    println!("… and {} more", roots.len() - 20);
                }
                return Ok(());
            }
            match repo.execute_xquery(stmt) {
                Ok(n) => {
                    println!("relational store: {n} object(s) affected");
                    // Mirror on the in-memory copy so .show stays in sync.
                    let _ = self.store.execute_str(stmt);
                    return Ok(());
                }
                Err(xmlup::core::CoreError::Unsupported(reason)) => {
                    // Fall through to the in-memory evaluator — and say so:
                    // the relational store will NOT see this update.
                    eprintln!(
                        "warning: statement is not translatable to SQL ({reason}); \
                         applying to the in-memory copy ONLY — the relational \
                         store is unchanged"
                    );
                }
                Err(e) => return Err(e.to_string()),
            }
        }
        self.xquery_in_memory(stmt)
    }

    fn xquery_in_memory(&mut self, stmt: &str) -> Result<(), String> {
        match self.store.execute_str(stmt).map_err(|e| e.to_string())? {
            Outcome::Bindings(b) => {
                println!("{} binding(s):", b.len());
                for t in b.iter().take(20) {
                    let doc = self.store.document_at(t.doc);
                    match &t.obj {
                        xmlup::xml::ObjectRef::Node(n) => println!(
                            "{}",
                            serializer::subtree_to_string(doc, *n, &Default::default())
                        ),
                        other => println!("{other:?} = {}", self.store.string_value(t)),
                    }
                }
                if b.len() > 20 {
                    println!("… and {} more", b.len() - 20);
                }
            }
            Outcome::Updated {
                ops_applied,
                ops_skipped,
            } => {
                println!("in-memory: {ops_applied} op(s) applied, {ops_skipped} skipped");
            }
        }
        Ok(())
    }
}
