//! End-to-end daemon determinism: the real `mphd` binary, spawned as a
//! child process, must serve many concurrent clients byte-identical
//! reports that match the single-process sweep — and resume a partially
//! checkpointed session byte-identically after a "restart" (here: a
//! fresh server over a pre-populated checkpoint directory, the same
//! state a SIGKILL leaves behind; CI's `serve-smoke` job performs the
//! literal kill).

use mph_serve::jsonio;
use mph_serve::proto::GridSpec;
use mph_serve::session;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

/// A running `mphd` child, killed on drop so failed tests don't leak
/// daemons.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(extra_args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mphd"))
            .arg("--addr")
            .arg("127.0.0.1:0")
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn mphd");
        // The first stdout line announces the bound address.
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines.next().expect("mphd printed a banner").expect("banner read");
        let addr = banner
            .strip_prefix("mphd listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
            .to_string();
        Daemon { child, addr }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Submits `params` and returns every response line until the terminal
/// one (`done` or `error`).
fn submit(addr: &str, params: &str) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writeln!(writer, r#"{{"v":1,"id":"t","method":"submit","params":{params}}}"#).expect("send");
    let mut out = Vec::new();
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("read") > 0, "server hung up early");
        let line = line.trim_end().to_string();
        let doc = jsonio::parse(&line).expect("server line parses");
        let terminal = jsonio::get(&doc, "error").is_some()
            || jsonio::get(&doc, "event").and_then(jsonio::as_str) == Some("done");
        out.push(line);
        if terminal {
            return out;
        }
    }
}

/// The `report` document of a session's terminal `done` line, rendered
/// canonically, plus the markdown.
fn final_report(lines: &[String]) -> (String, String) {
    let done = jsonio::parse(lines.last().expect("at least one line")).expect("parses");
    assert_eq!(
        jsonio::get(&done, "event").and_then(jsonio::as_str),
        Some("done"),
        "terminal line was not done: {:?}",
        lines.last()
    );
    let report = jsonio::get(&done, "report").expect("report field").to_string();
    let markdown = jsonio::get(&done, "markdown")
        .and_then(jsonio::as_str)
        .expect("markdown field")
        .to_string();
    (report, markdown)
}

const PARAMS: &str = r#"{"windows":[2,3,4],"trials":2}"#;

fn reference_outcome() -> (String, String) {
    let params = jsonio::parse(PARAMS).expect("params parse");
    let spec = GridSpec::from_params(&params).expect("spec");
    let local = session::run_local(&spec).expect("local run");
    (local.report.to_string(), local.markdown)
}

#[test]
fn concurrent_clients_get_byte_identical_reports_matching_the_cli_sweep() {
    let daemon = Daemon::start(&["--max-sessions", "4", "--no-durability"]);
    let (want_report, want_md) = reference_outcome();
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let addr = daemon.addr.clone();
            std::thread::spawn(move || submit(&addr, PARAMS))
        })
        .collect();
    for client in clients {
        let lines = client.join().expect("client thread");
        // accepted + 3 cells + done, all correlated to the request id.
        assert_eq!(lines.len(), 5, "events: {lines:#?}");
        assert!(lines[0].contains(r#""event":"accepted""#));
        let (report, markdown) = final_report(&lines);
        assert_eq!(report, want_report, "daemon report must match the single-process sweep");
        assert_eq!(markdown, want_md);
    }
}

#[test]
fn a_prepopulated_checkpoint_resumes_byte_identically_through_the_daemon() {
    let root = std::env::temp_dir().join(format!("mphd_resume_root_{}", std::process::id()));
    mph_experiments::checkpoint::clean_dir(&root);

    // The state a SIGKILL mid-grid leaves behind: the first cell durably
    // completed, the rest absent.
    let params = jsonio::parse(PARAMS).expect("params parse");
    let spec = GridSpec::from_params(&params).expect("spec");
    let cells = session::grid_for_spec(&spec, None).expect("grid");
    let ckpt = mph_experiments::checkpoint::CheckpointConfig {
        dir: root.join(spec.session_key()),
        every: 1,
    };
    assert!(
        mph_experiments::checkpoint::run_sweep_checkpointed_observed(
            cells,
            &ckpt,
            Some(1),
            &mut |_, _| {}
        )
        .is_none(),
        "the aborted pre-population run must stop mid-grid"
    );

    let daemon = Daemon::start(&["--ckpt-root", root.to_str().expect("utf8 root")]);
    let lines = submit(&daemon.addr, PARAMS);
    let (report, markdown) = final_report(&lines);
    let (want_report, want_md) = reference_outcome();
    assert_eq!(report, want_report, "resumed session must match an uninterrupted run");
    assert_eq!(markdown, want_md);
    // The accepted event marks the session durable and keyed.
    assert!(lines[0].contains(r#""durable":true"#), "got: {}", lines[0]);
    assert!(lines[0].contains(&spec.session_key()));
    mph_experiments::checkpoint::clean_dir(&root);
}

#[test]
fn sessions_shed_with_busy_never_disturb_running_ones() {
    let daemon = Daemon::start(&["--max-sessions", "0", "--no-durability"]);
    let lines = submit(&daemon.addr, PARAMS);
    assert_eq!(lines.len(), 1);
    assert!(lines[0].contains(r#""code":"busy""#), "got: {}", lines[0]);

    // The shed connection still serves pings.
    let stream = TcpStream::connect(&daemon.addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writeln!(writer, r#"{{"v":1,"id":"p","method":"ping"}}"#).expect("send");
    let mut pong = String::new();
    reader.read_line(&mut pong).expect("read");
    assert!(pong.contains(r#""event":"pong""#), "got: {pong}");
}

#[test]
fn reports_are_stable_across_worker_pool_widths() {
    // The daemon inherits the sweep engine's thread-count independence:
    // a server constrained to one worker thread serves the same bytes
    // as the unconstrained reference run in this process.
    // RAYON_NUM_THREADS must reach the child before its pool is built —
    // set it in the spawn, not the test process.
    let mut child = Command::new(env!("CARGO_BIN_EXE_mphd"))
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--no-durability")
        .env("RAYON_NUM_THREADS", "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mphd");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().expect("banner").expect("banner read");
    let addr = banner.strip_prefix("mphd listening on ").expect("banner shape").to_string();

    let served = submit(&addr, PARAMS);
    let (report, markdown) = final_report(&served);
    let (want_report, want_md) = reference_outcome();
    assert_eq!(report, want_report, "single-threaded daemon must serve identical bytes");
    assert_eq!(markdown, want_md);
    let _ = child.kill();
    let _ = child.wait();
}
