//! `mphd_smoke` — a minimal `mphd` client for smoke tests and CI.
//!
//! Two modes producing byte-comparable output:
//!
//! * `--addr HOST:PORT` — submit a grid to a running daemon, echo
//!   progress events to stderr, and print the final report JSON
//!   document (exactly as served) to stdout.
//! * `--local` — run the same grid in-process through the sweep engine
//!   (`run_sweep`) and the same report renderer, no daemon, checkpoint
//!   or session loop involved, and print the same report to stdout.
//!
//! The CI `serve-smoke` job diffs the two stdouts: the daemon must be
//! observationally identical to the single-process sweep. `--ping`
//! doubles as a readiness probe.
//!
//! Exit codes: 0 success, 1 protocol/IO failure, 2 usage, 3 shed with
//! `busy`.

use mph_serve::jsonio;
use mph_serve::proto::GridSpec;
use mph_serve::session;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

const USAGE: &str = "usage: mphd_smoke (--addr HOST:PORT [--ping] | --local) \
                     [--params JSON] [--md PATH]";

struct Args {
    addr: Option<String>,
    local: bool,
    ping: bool,
    params: String,
    md_path: Option<String>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out =
        Args { addr: None, local: false, ping: false, params: "{}".into(), md_path: None };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => out.addr = Some(value("--addr")?),
            "--local" => out.local = true,
            "--ping" => out.ping = true,
            "--params" => out.params = value("--params")?,
            "--md" => out.md_path = Some(value("--md")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if out.local == out.addr.is_some() {
        return Err("pass exactly one of --addr and --local".into());
    }
    if out.ping && out.local {
        return Err("--ping needs --addr".into());
    }
    Ok(out)
}

fn fail(msg: impl std::fmt::Display, code: i32) -> ! {
    eprintln!("mphd_smoke: {msg}");
    std::process::exit(code);
}

fn write_md(path: &Option<String>, markdown: &str) {
    if let Some(path) = path {
        if let Err(e) = std::fs::write(path, markdown) {
            fail(format!("could not write {path}: {e}"), 1);
        }
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("mphd_smoke: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let params = match jsonio::parse(&args.params) {
        Ok(doc) => doc,
        Err(e) => fail(format!("--params is not valid JSON: {e}"), 2),
    };
    // Validate locally in both modes so a typo fails fast with the same
    // message the server would send.
    let spec = match GridSpec::from_params(&params) {
        Ok(spec) => spec,
        Err(e) => fail(format!("--params rejected: {e}"), 2),
    };

    if args.local {
        match session::run_local(&spec) {
            Ok(out) => {
                println!("{}", out.report);
                write_md(&args.md_path, &out.markdown);
            }
            Err(e) => fail(e, 1),
        }
        return;
    }

    let addr = args.addr.expect("checked by parse_args");
    let stream = match TcpStream::connect(&addr) {
        Ok(stream) => stream,
        Err(e) => fail(format!("connect {addr}: {e}"), 1),
    };
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => fail(format!("clone stream: {e}"), 1),
    };
    let mut reader = BufReader::new(stream);

    let request = if args.ping {
        r#"{"v":1,"id":"smoke","method":"ping"}"#.to_string()
    } else {
        format!(r#"{{"v":1,"id":"smoke","method":"submit","params":{params}}}"#)
    };
    if let Err(e) = writer.write_all(request.as_bytes()).and_then(|_| writer.write_all(b"\n")) {
        fail(format!("send request: {e}"), 1);
    }

    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => fail("server closed the connection before finishing", 1),
            Ok(_) => {}
            Err(e) => fail(format!("read response: {e}"), 1),
        }
        let line = line.trim_end();
        let doc = match jsonio::parse(line) {
            Ok(doc) => doc,
            Err(e) => fail(format!("unparseable server line ({e}): {line}"), 1),
        };
        if let Some(err) = jsonio::get(&doc, "error") {
            eprintln!("mphd_smoke: server error: {err}");
            let code = jsonio::get(err, "code").and_then(jsonio::as_str);
            std::process::exit(if code == Some("busy") { 3 } else { 1 });
        }
        match jsonio::get(&doc, "event").and_then(jsonio::as_str) {
            Some("pong") => {
                eprintln!("{line}");
                return;
            }
            Some("done") => {
                let report = jsonio::get(&doc, "report")
                    .unwrap_or_else(|| fail("done event without a report", 1));
                println!("{report}");
                if let Some(md) = jsonio::get(&doc, "markdown").and_then(jsonio::as_str) {
                    write_md(&args.md_path, md);
                }
                return;
            }
            _ => eprintln!("{line}"),
        }
    }
}
