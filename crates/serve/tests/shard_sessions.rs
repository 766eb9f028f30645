//! Sharded daemon sessions: `shards > 1` routes a session through the
//! multi-process shard supervisor, and the resulting report is
//! byte-identical to the single-process run of the same grid — the
//! contract the CI `shard-smoke` job `cmp`s end to end.
//!
//! Sharded sessions honor `durable` like every other session: they
//! checkpoint, resume and cancel through the same cell loop — except
//! that a sharded cell that failed or degraded is never checkpointed.
//!
//! Workers here are real OS processes: `mphd --shard-worker`, the same
//! self-exec fallback a deployed daemon uses, wired up via the
//! `MPH_WORKER_BIN` override.

use mph_experiments::checkpoint;
use mph_metrics::json::Json;
use mph_serve::jsonio;
use mph_serve::proto::{Call, GridSpec};
use mph_serve::server::{Server, ServerConfig};
use mph_serve::session::{self, SessionControl};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};

fn use_mphd_as_worker() {
    std::env::set_var("MPH_WORKER_BIN", format!("{} --shard-worker", env!("CARGO_BIN_EXE_mphd")));
}

fn spec_from(params: &str) -> GridSpec {
    let doc = jsonio::parse(params).expect("params parse");
    GridSpec::from_params(&doc).expect("valid spec")
}

fn temp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mph_shard_{name}_{}", std::process::id()));
    checkpoint::clean_dir(&dir);
    dir
}

/// Binds an in-process server on a free port and serves it on a thread.
fn start_server(ckpt_root: Option<PathBuf>) -> SocketAddr {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_sessions: 2,
        hub_capacity: 16,
        ckpt_root,
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    std::thread::spawn(move || {
        let _ = server.serve();
    });
    addr
}

/// Submits `params` and returns every event up to and including `done`.
fn submit(addr: SocketAddr, params: &str) -> Vec<Json> {
    let request = format!(r#"{{"v":1,"id":"s","method":"submit","params":{params}}}"#);
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer.write_all(request.as_bytes()).expect("write");
    writer.write_all(b"\n").expect("write");
    writer.flush().expect("flush");
    let mut events = Vec::new();
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("read") > 0, "server hung up");
        let doc = jsonio::parse(line.trim_end()).expect("server output parses");
        let kind = jsonio::get(&doc, "event").and_then(jsonio::as_str).map(str::to_string);
        assert!(jsonio::get(&doc, "error").is_none(), "unexpected error: {line}");
        let done = kind.as_deref() == Some("done");
        events.push(doc);
        if done {
            return events;
        }
    }
}

#[test]
fn sharded_sessions_render_byte_identical_reports() {
    use_mphd_as_worker();
    let sharded = spec_from(r#"{"windows":[2,3],"trials":2,"shards":4,"durable":false}"#);
    let baseline = spec_from(r#"{"windows":[2,3],"trials":2,"durable":false}"#);
    assert_eq!(sharded.session_key(), baseline.session_key());

    let reference = session::run_local(&baseline).expect("in-process run");
    let mut seen = Vec::new();
    let got = session::run_session(&sharded, None, None, |i, res| {
        seen.push((i, res.label.clone()));
    })
    .expect("sharded run");
    assert_eq!(seen, vec![(0, "window=2".to_string()), (1, "window=3".to_string())]);
    assert_eq!(got.report.to_string(), reference.report.to_string());
    assert_eq!(got.markdown, reference.markdown);
    assert!(!got.degraded);
}

#[test]
fn tcp_chaos_sessions_render_byte_identical_reports() {
    // Exercise the whole robustness surface through public params: TCP
    // transport, live seeded chaos on every link, a tightened liveness
    // deadline, and a respawn budget big enough that the fleet always
    // recovers (so the report carries no degradation) — and the report
    // must still match the plain in-process baseline byte for byte.
    use_mphd_as_worker();
    let chaotic = spec_from(
        r#"{"windows":[2,3],"trials":2,"shards":2,"durable":false,
            "transport":"tcp","chaos_corrupt_rate":0.01,"chaos_duplicate_rate":0.02,
            "chaos_delay_rate":0.05,"chaos_seed":11,"chaos_delay_ms":2,
            "round_deadline_ms":3000,"respawns":16}"#,
    );
    let baseline = spec_from(r#"{"windows":[2,3],"trials":2,"durable":false}"#);
    assert_eq!(chaotic.session_key(), baseline.session_key());

    let reference = session::run_local(&baseline).expect("in-process run");
    let got = session::run_session(&chaotic, None, None, |_, _| {}).expect("chaotic run");
    assert_eq!(got.report.to_string(), reference.report.to_string());
    assert_eq!(got.markdown, reference.markdown);
    assert!(!got.degraded, "budget 16 must absorb every injected fault");
}

#[test]
fn sharded_submits_stream_through_the_daemon() {
    use_mphd_as_worker();
    let addr = start_server(None);
    let params = r#"{"windows":[2,3],"trials":2,"shards":2,"durable":false}"#;
    let events = submit(addr, params);
    // accepted + one cell per window + done.
    assert_eq!(events.len(), 4, "events: {events:?}");

    // The sharded report must match the single-process baseline of the
    // same grid, byte for byte.
    let request_doc = jsonio::parse(params).expect("params parse");
    let mut baseline = GridSpec::from_params(&request_doc).expect("spec");
    baseline.shards = 1;
    let local = session::run_local(&baseline).expect("local run");
    let done = events.last().expect("done event");
    assert_eq!(
        jsonio::get(done, "report").expect("report field").to_string(),
        local.report.to_string()
    );
    assert_eq!(
        jsonio::get(done, "markdown").and_then(jsonio::as_str),
        Some(local.markdown.as_str())
    );

    // The cell events carry worker-lifecycle telemetry: the sharded
    // session really spawned processes.
    let cell = &events[1];
    let snapshot = jsonio::get(cell, "snapshot").expect("snapshot field").to_string();
    assert!(snapshot.contains(r#""workers""#), "snapshot: {snapshot}");
    assert!(snapshot.contains(r#""spawn""#), "snapshot: {snapshot}");

    // Keep the parse surface honest: the same params parse to a Submit.
    let full = format!(r#"{{"v":1,"id":"x","method":"submit","params":{params}}}"#);
    let parsed = mph_serve::proto::parse_request(&full).expect("parses");
    assert!(matches!(parsed.call, Call::Submit(_)));
}

#[test]
fn durable_sharded_submits_checkpoint_under_the_session_key() {
    // The `accepted` event and the session loop read one durability
    // rule: a sharded session on a server with a checkpoint root says
    // `"durable":true`, and its checkpoint really lands on disk.
    use_mphd_as_worker();
    let root = temp_root("durable_submit");
    let addr = start_server(Some(root.clone()));
    let events = submit(addr, r#"{"shards":2}"#);
    let accepted = events[0].to_string();
    assert!(accepted.contains(r#""event":"accepted""#), "got: {accepted}");
    assert!(accepted.contains(r#""durable":true"#), "got: {accepted}");
    let key = spec_from(r#"{"shards":2}"#).session_key();
    assert!(root.join(&key).join("manifest.bin").exists(), "no manifest under {key}");
    checkpoint::clean_dir(&root);
}

#[test]
fn cancelled_durable_sharded_sessions_resume_byte_identically() {
    use_mphd_as_worker();
    // A sharded session flushes after every cell whatever its
    // `checkpoint_every`, so its stream and its cancel stay per cell.
    for every in [1, 4] {
        let spec = spec_from(&format!(
            r#"{{"windows":[2,3],"trials":2,"shards":2,"checkpoint_every":{every}}}"#
        ));
        let root = temp_root(&format!("cancel_resume_{every}"));
        let reference = session::run_local(&GridSpec { shards: 1, ..spec.clone() }).expect("local");

        // Cancel as soon as the first cell streams: the loop stops before
        // the next batch, with cell 0 already flushed.
        let flag = AtomicBool::new(false);
        let control =
            session::run_session_with(&spec, None, Some(&root), Some(&flag), &mut |_, _| {
                flag.store(true, Ordering::Relaxed);
            })
            .expect("session");
        let SessionControl::Cancelled { completed } = control else {
            panic!("session must observe the cancel");
        };
        assert_eq!(completed, 1);
        assert!(root.join(spec.session_key()).join("cell_0.bin").exists(), "cell 0 not flushed");

        // The resubmission resumes cell 0 from disk, computes cell 1 on
        // the fleet, and renders the in-process report byte for byte.
        let mut seen = Vec::new();
        let resumed = session::run_session(&spec, None, Some(&root), |i, _| seen.push(i))
            .expect("resumed session");
        assert_eq!(seen, vec![0, 1]);
        assert_eq!(resumed.report.to_string(), reference.report.to_string());
        assert_eq!(resumed.markdown, reference.markdown);
        checkpoint::clean_dir(&root);
    }
}

#[test]
fn failed_sharded_cells_are_recomputed_on_resubmit() {
    // A sharded cell whose workers cannot start fails for a reason of
    // the machine, not of the grid: it streams and renders `failed`, but
    // never reaches the checkpoint, so a resubmit of the grid — sharded
    // with working workers, or in process — matches the in-process run.
    // The failing daemon is its own process so its worker override does
    // not leak into the other tests.
    let root = temp_root("machine_failure");
    let params = r#"{"windows":[2,3],"trials":2,"shards":2}"#;
    let spec = spec_from(params);
    let mut mphd = Command::new(env!("CARGO_BIN_EXE_mphd"))
        .args(["--addr", "127.0.0.1:0", "--ckpt-root"])
        .arg(&root)
        .env("MPH_WORKER_BIN", "/bin/false")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mphd");
    let mut banner = BufReader::new(mphd.stdout.take().expect("mphd stdout"));
    let mut line = String::new();
    banner.read_line(&mut line).expect("read banner");
    let addr = line.trim_end().strip_prefix("mphd listening on ").expect("banner").parse();
    let events = submit(addr.expect("bound address"), params);
    mphd.kill().expect("kill mphd");
    mphd.wait().expect("reap mphd");
    let statuses: Vec<String> = events
        .iter()
        .filter(|e| jsonio::get(e, "event").and_then(jsonio::as_str) == Some("cell"))
        .filter_map(|e| jsonio::get(e, "status").and_then(jsonio::as_str).map(str::to_string))
        .collect();
    assert_eq!(statuses, ["failed", "failed"], "events: {events:?}");
    let dir = root.join(spec.session_key());
    assert!(dir.join("manifest.bin").exists(), "the session ran durably");
    assert!(!dir.join("cell_0.bin").exists() && !dir.join("cell_1.bin").exists());

    use_mphd_as_worker();
    let reference = session::run_local(&spec).expect("in-process run");
    for resubmit in [spec.clone(), GridSpec { shards: 1, ..spec.clone() }] {
        let got = session::run_session(&resubmit, None, Some(&root), |_, _| {}).expect("resubmit");
        assert_eq!(got.report.to_string(), reference.report.to_string());
        assert_eq!(got.markdown, reference.markdown);
    }
    checkpoint::clean_dir(&root);
}
