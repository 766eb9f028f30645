//! The TCP server: accept loop, per-connection request loop, admission
//! control, and event streaming.
//!
//! One OS thread per connection; each connection runs at most one
//! session at a time (requests on a connection are served serially, in
//! order). All sessions share one [`OracleHub`] and one worker pool —
//! the daemon's whole point — and the number of concurrently running
//! sessions is capped by [`ServerConfig::max_sessions`]: a `submit`
//! past the cap is shed immediately with a typed `busy` error rather
//! than queued, so clients can fail over instead of hanging.
//!
//! Nothing a client sends can panic this module: request parsing,
//! validation, and grid construction all return typed errors
//! ([`crate::proto::ProtoError`]), and the sweep engine underneath
//! contains worker panics per cell.

use crate::proto::{
    error_response, event_response, parse_request, Call, ErrorCode, ProtoError, Request,
    MAX_REQUEST_BYTES, PROTOCOL_VERSION,
};
use crate::session::{self, SessionControl};
use mph_metrics::json::Json;
use mph_oracle::OracleHub;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How a daemon instance is configured. `Default` gives the documented
/// production shape; tests bind port 0 and shrink the limits.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7171`. Port 0 picks a free port
    /// (read it back via [`Server::local_addr`]).
    pub addr: String,
    /// Concurrent session cap. `0` sheds every submit — useful for
    /// drills and for pinning the busy path in tests.
    pub max_sessions: usize,
    /// Capacity of the shared warm-oracle-table hub (entries).
    pub hub_capacity: usize,
    /// Root of the durable session checkpoint directories; `None`
    /// disables durability server-wide (sessions still run, nothing
    /// persists).
    pub ckpt_root: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7171".into(),
            max_sessions: 4,
            hub_capacity: 64,
            ckpt_root: Some(PathBuf::from("target/checkpoints/serve")),
        }
    }
}

/// State shared by every connection thread.
struct Shared {
    hub: Arc<OracleHub>,
    active: Mutex<usize>,
    max_sessions: usize,
    ckpt_root: Option<PathBuf>,
    /// Cancel flags of the sessions currently running, keyed by session
    /// key. A `cancel` request (from any connection) sets the flag; the
    /// running session observes it before its next batch of cells.
    cancels: Mutex<BTreeMap<String, Arc<AtomicBool>>>,
}

/// Registration of a running session in the cancel registry; dropping it
/// removes the entry on every exit path (done, cancelled, or error), so
/// stale keys cannot accumulate.
struct CancelRegistration<'a> {
    shared: &'a Shared,
    key: String,
    flag: Arc<AtomicBool>,
}

impl<'a> CancelRegistration<'a> {
    fn new(shared: &'a Shared, key: String) -> Self {
        let flag = Arc::new(AtomicBool::new(false));
        shared.cancels.lock().insert(key.clone(), Arc::clone(&flag));
        CancelRegistration { shared, key, flag }
    }
}

impl Drop for CancelRegistration<'_> {
    fn drop(&mut self) {
        let mut cancels = self.shared.cancels.lock();
        // Two concurrent submits of the same grid share a key; only
        // remove the entry if it is still ours.
        if cancels.get(&self.key).is_some_and(|f| Arc::ptr_eq(f, &self.flag)) {
            cancels.remove(&self.key);
        }
    }
}

/// An acquired admission slot; dropping it releases the slot even if the
/// session errors out.
struct SessionSlot<'a> {
    shared: &'a Shared,
}

impl<'a> SessionSlot<'a> {
    fn acquire(shared: &'a Shared) -> Option<Self> {
        let mut active = shared.active.lock();
        if *active >= shared.max_sessions {
            return None;
        }
        *active += 1;
        Some(SessionSlot { shared })
    }
}

impl Drop for SessionSlot<'_> {
    fn drop(&mut self) {
        let mut active = self.shared.active.lock();
        *active = active.saturating_sub(1);
    }
}

/// A bound `mphd` instance: the listener plus the shared session state.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and builds the shared state. No connection is
    /// accepted until [`Server::serve`].
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                hub: Arc::new(OracleHub::new(config.hub_capacity.max(1))),
                active: Mutex::new(0),
                max_sessions: config.max_sessions,
                ckpt_root: config.ckpt_root,
                cancels: Mutex::new(BTreeMap::new()),
            }),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections forever, one thread per connection. Returns
    /// only if the listener itself dies.
    pub fn serve(&self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            match stream {
                Ok(stream) => {
                    let shared = Arc::clone(&self.shared);
                    let spawned = std::thread::Builder::new()
                        .name("mphd-conn".into())
                        .spawn(move || handle_connection(stream, shared));
                    if let Err(e) = spawned {
                        eprintln!("mphd: could not spawn connection thread: {e}");
                    }
                }
                Err(e) => eprintln!("mphd: accept failed: {e}"),
            }
        }
        Ok(())
    }
}

/// What one bounded line read produced.
enum LineRead {
    /// A complete request line (newline stripped).
    Line(String),
    /// The peer closed the connection.
    Eof,
    /// The line exceeded [`MAX_REQUEST_BYTES`]; the rest of it has been
    /// drained so the connection can keep serving.
    TooLong,
}

/// Reads one `\n`-terminated line without ever buffering more than the
/// protocol's line cap — a client cannot run the server out of memory by
/// streaming an endless line.
fn read_request_line(reader: &mut impl BufRead) -> io::Result<LineRead> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if line.is_empty() {
                LineRead::Eof
            } else {
                // A final unterminated line still gets served.
                LineRead::Line(String::from_utf8_lossy(&line).into_owned())
            });
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&chunk[..pos]);
            reader.consume(pos + 1);
            if line.len() > MAX_REQUEST_BYTES {
                return Ok(LineRead::TooLong);
            }
            return Ok(LineRead::Line(String::from_utf8_lossy(&line).into_owned()));
        }
        line.extend_from_slice(chunk);
        let n = chunk.len();
        reader.consume(n);
        if line.len() > MAX_REQUEST_BYTES {
            line.clear();
            line.shrink_to_fit();
            loop {
                let chunk = reader.fill_buf()?;
                if chunk.is_empty() {
                    return Ok(LineRead::TooLong);
                }
                if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
                    reader.consume(pos + 1);
                    return Ok(LineRead::TooLong);
                }
                let n = chunk.len();
                reader.consume(n);
            }
        }
    }
}

/// Writes one response line and flushes it. `false` means the peer is
/// gone and the connection loop should end.
fn send_line(writer: &mut impl Write, text: &str) -> bool {
    writer
        .write_all(text.as_bytes())
        .and_then(|_| writer.write_all(b"\n"))
        .and_then(|_| writer.flush())
        .is_ok()
}

/// Serves one connection until EOF or a write failure.
fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mphd: could not clone connection stream: {e}");
            return;
        }
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = BufWriter::new(stream);
    loop {
        match read_request_line(&mut reader) {
            Err(_) | Ok(LineRead::Eof) => return,
            Ok(LineRead::TooLong) => {
                let err = ProtoError::bad(format!("request longer than {MAX_REQUEST_BYTES} bytes"));
                if !send_line(&mut writer, &error_response(&Json::Null, &err, &[])) {
                    return;
                }
            }
            Ok(LineRead::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                if !serve_request(&line, &shared, &mut writer) {
                    return;
                }
            }
        }
    }
}

/// Parses and answers one request line. `false` ends the connection.
fn serve_request(line: &str, shared: &Shared, writer: &mut impl Write) -> bool {
    let request = match parse_request(line) {
        Err((id, err)) => return send_line(writer, &error_response(&id, &err, &[])),
        Ok(request) => request,
    };
    match request {
        Request { id, call: Call::Ping } => {
            let active = *shared.active.lock();
            let fields = vec![
                ("protocol".to_string(), Json::u64(PROTOCOL_VERSION)),
                ("sessions_active".to_string(), Json::u64(active as u64)),
                ("max_sessions".to_string(), Json::u64(shared.max_sessions as u64)),
            ];
            send_line(writer, &event_response(&id, "pong", fields))
        }
        Request { id, call: Call::Submit(spec) } => {
            let Some(slot) = SessionSlot::acquire(shared) else {
                let err = ProtoError {
                    code: ErrorCode::Busy,
                    message: format!(
                        "all {} session slots are in use; retry later",
                        shared.max_sessions
                    ),
                };
                let extra = [("max_sessions", Json::u64(shared.max_sessions as u64))];
                return send_line(writer, &error_response(&id, &err, &extra));
            };
            let durable = session::checkpoint_config(&spec, shared.ckpt_root.as_deref()).is_some();
            let accepted = event_response(
                &id,
                "accepted",
                vec![
                    ("session".to_string(), Json::str(spec.session_key())),
                    ("cells".to_string(), Json::u64(spec.windows.len() as u64)),
                    ("durable".to_string(), Json::Bool(durable)),
                ],
            );
            if !send_line(writer, &accepted) {
                return false;
            }
            // Stream progress as cells finalize. A mid-session write
            // failure must not abort the sweep: durable work keeps
            // checkpointing so the client's retry resumes it.
            let registration = CancelRegistration::new(shared, spec.session_key());
            let mut peer_gone = false;
            let outcome = session::run_session_with(
                &spec,
                Some(&shared.hub),
                shared.ckpt_root.as_deref(),
                Some(&registration.flag),
                &mut |index, result| {
                    if !peer_gone {
                        let event =
                            event_response(&id, "cell", session::cell_event_fields(index, result));
                        peer_gone = !send_line(writer, &event);
                    }
                },
            );
            drop(registration);
            drop(slot);
            match outcome {
                Ok(SessionControl::Done(out)) => {
                    let done = event_response(
                        &id,
                        "done",
                        vec![
                            ("degraded".to_string(), Json::Bool(out.degraded)),
                            ("report".to_string(), out.report),
                            ("markdown".to_string(), Json::Str(out.markdown)),
                        ],
                    );
                    !peer_gone && send_line(writer, &done)
                }
                Ok(SessionControl::Cancelled { completed }) => {
                    let cancelled = event_response(
                        &id,
                        "cancelled",
                        vec![
                            ("session".to_string(), Json::str(spec.session_key())),
                            ("cells_completed".to_string(), Json::u64(completed as u64)),
                        ],
                    );
                    !peer_gone && send_line(writer, &cancelled)
                }
                Err(err) => !peer_gone && send_line(writer, &error_response(&id, &err, &[])),
            }
        }
        Request { id, call: Call::Cancel { session } } => {
            let flag = shared.cancels.lock().get(&session).cloned();
            match flag {
                Some(flag) => {
                    flag.store(true, Ordering::Relaxed);
                    let fields = vec![("session".to_string(), Json::str(&session))];
                    send_line(writer, &event_response(&id, "cancelling", fields))
                }
                None => {
                    let err = ProtoError {
                        code: ErrorCode::NotFound,
                        message: format!("no running session with key {session:?}"),
                    };
                    send_line(writer, &error_response(&id, &err, &[]))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonio;
    use crate::proto::GridSpec;
    use std::io::BufRead;

    fn start(max_sessions: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_sessions,
            hub_capacity: 16,
            ckpt_root: None,
        })
        .expect("bind");
        let addr = server.local_addr().expect("local addr");
        let handle = std::thread::spawn(move || {
            let _ = server.serve();
        });
        (addr, handle)
    }

    fn talk(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut out = Vec::new();
        for line in lines {
            writer.write_all(line.as_bytes()).expect("write");
            writer.write_all(b"\n").expect("write");
            writer.flush().expect("flush");
            // Read until this request's terminal response (pong, done, or
            // error) before sending the next.
            loop {
                let mut response = String::new();
                assert!(reader.read_line(&mut response).expect("read") > 0, "server hung up");
                let response = response.trim_end().to_string();
                let doc = jsonio::parse(&response).expect("server output parses");
                let terminal = jsonio::get(&doc, "error").is_some()
                    || matches!(
                        jsonio::get(&doc, "event").and_then(jsonio::as_str),
                        Some("pong" | "done" | "cancelled" | "cancelling")
                    );
                out.push(response);
                if terminal {
                    break;
                }
            }
        }
        out
    }

    #[test]
    fn ping_pongs() {
        let (addr, _h) = start(2);
        let out = talk(addr, &[r#"{"v":1,"id":"p","method":"ping"}"#]);
        assert_eq!(out.len(), 1);
        assert!(out[0].contains(r#""event":"pong""#), "got: {}", out[0]);
        assert!(out[0].contains(r#""protocol":1"#));
    }

    #[test]
    fn malformed_requests_get_typed_errors_and_the_connection_survives() {
        let (addr, _h) = start(2);
        let out = talk(
            addr,
            &[
                "this is not json",
                r#"{"id":"x","method":"frobnicate"}"#,
                r#"{"v":1,"id":"p","method":"ping"}"#,
            ],
        );
        assert!(out[0].contains(r#""code":"parse""#), "got: {}", out[0]);
        assert!(out[1].contains(r#""code":"bad_request""#), "got: {}", out[1]);
        assert!(out[2].contains(r#""event":"pong""#), "got: {}", out[2]);
    }

    #[test]
    fn submits_past_the_session_cap_are_shed_with_busy() {
        let (addr, _h) = start(0);
        let out = talk(
            addr,
            &[r#"{"v":1,"id":"s","method":"submit","params":{"trials":1,"windows":[2]}}"#],
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].contains(r#""code":"busy""#), "got: {}", out[0]);
        assert!(out[0].contains(r#""max_sessions":0"#));
    }

    #[test]
    fn a_session_streams_cells_and_matches_the_local_run() {
        let (addr, _h) = start(2);
        let params = r#"{"windows":[2,3],"trials":2}"#;
        let request = format!(r#"{{"v":1,"id":"s","method":"submit","params":{params}}}"#);
        let out = talk(addr, &[&request]);
        // accepted + 2 cells + done.
        assert_eq!(out.len(), 4, "events: {out:#?}");
        assert!(out[0].contains(r#""event":"accepted""#));
        assert!(out[0].contains(r#""cells":2"#));
        assert!(out[1].contains(r#""event":"cell""#) && out[1].contains(r#""index":0"#));
        assert!(out[2].contains(r#""event":"cell""#) && out[2].contains(r#""index":1"#));
        let done = jsonio::parse(&out[3]).expect("done parses");
        assert_eq!(jsonio::get(&done, "event").and_then(jsonio::as_str), Some("done"));

        let spec_params = jsonio::parse(params).expect("params parse");
        let spec = GridSpec::from_params(&spec_params).expect("spec");
        let local = session::run_local(&spec).expect("local run");
        let served = jsonio::get(&done, "report").expect("report field").to_string();
        assert_eq!(served, local.report.to_string(), "daemon and local reports must match");
        assert_eq!(
            jsonio::get(&done, "markdown").and_then(jsonio::as_str),
            Some(local.markdown.as_str())
        );
    }

    #[test]
    fn cancelling_an_unknown_session_is_not_found() {
        let (addr, _h) = start(2);
        let out =
            talk(addr, &[r#"{"v":1,"id":"c","method":"cancel","params":{"session":"feed"}}"#]);
        assert_eq!(out.len(), 1);
        assert!(out[0].contains(r#""code":"not_found""#), "got: {}", out[0]);
    }

    #[test]
    fn cancel_from_another_connection_stops_a_running_session() {
        let (addr, _h) = start(2);
        // Enough cells and trials that plenty of cell boundaries remain
        // after the first `cell` event reaches the client.
        let params = r#"{"windows":[2,3,4,5,6,7,8],"trials":16,"durable":false}"#;
        let request = format!(r#"{{"v":1,"id":"s","method":"submit","params":{params}}}"#);

        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        writer.write_all(request.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("write");
        writer.flush().expect("flush");

        let mut read_event = || {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("read") > 0, "server hung up");
            jsonio::parse(line.trim_end()).expect("server output parses")
        };
        let accepted = read_event();
        assert_eq!(jsonio::get(&accepted, "event").and_then(jsonio::as_str), Some("accepted"));
        let session = jsonio::get(&accepted, "session")
            .and_then(jsonio::as_str)
            .expect("accepted carries the session key")
            .to_string();
        let first = read_event();
        assert_eq!(jsonio::get(&first, "event").and_then(jsonio::as_str), Some("cell"));

        // Cancel from a second connection, by key.
        let cancel =
            format!(r#"{{"v":1,"id":"c","method":"cancel","params":{{"session":"{session}"}}}}"#);
        let out = talk(addr, &[&cancel]);
        assert!(out[0].contains(r#""event":"cancelling""#), "got: {}", out[0]);

        // The submit stream ends with a typed `cancelled` event.
        let terminal = loop {
            let doc = read_event();
            match jsonio::get(&doc, "event").and_then(jsonio::as_str) {
                Some("cell") => continue,
                _ => break doc,
            }
        };
        assert_eq!(jsonio::get(&terminal, "event").and_then(jsonio::as_str), Some("cancelled"));
        assert_eq!(jsonio::get(&terminal, "session").and_then(jsonio::as_str), Some(&*session));
        let completed = jsonio::get(&terminal, "cells_completed").and_then(jsonio::as_u64);
        assert!(completed.is_some_and(|c| (1..7).contains(&c)), "completed: {completed:?}");

        // The registry entry is gone: a late cancel is not_found.
        let out = talk(addr, &[&cancel]);
        assert!(out[0].contains(r#""code":"not_found""#), "got: {}", out[0]);
    }

    #[test]
    fn oversized_lines_are_rejected_without_killing_the_connection() {
        let (addr, _h) = start(2);
        let huge = format!(r#"{{"id":"a","pad":"{}"}}"#, "x".repeat(MAX_REQUEST_BYTES + 10));
        let out = talk(addr, &[huge.as_str(), r#"{"v":1,"id":"p","method":"ping"}"#]);
        assert!(out[0].contains(r#""code":"bad_request""#), "got: {}", out[0]);
        assert!(out[1].contains(r#""event":"pong""#));
    }
}
