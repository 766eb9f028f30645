//! The `serve` workload: a real `mphd` child process (port 0, a fresh
//! checkpoint root, pool width 2) driven closed-loop by two clients, each
//! keeping one connection for all of its sessions.
//!
//! Sessions submit demo-family grids (simline or line, w ∈ {48, 128,
//! 256}, v = 16, m = 4, windows ⊆ {2, 4, 8}, 3–5 trials) on base seeds
//! from a pool of 16, so later sessions reuse warm `OracleHub` tables.
//! One request in every five resubmits a grid the client already
//! completed, which the daemon resumes from its checkpoint. Every `done`
//! report is checked byte for byte against the single-process reference
//! (`session::run_local`'s path), computed after the timed window.
//!
//! The traced run replays the same sessions against a fresh daemon with
//! per-line client timestamps, then once more in process through
//! `grid_for_spec`, `run_sweep` / `run_sweep_checkpointed_observed` and
//! `render_report`.

use crate::common::{self, Gen, Options, Outcome};
use crate::trace::{self, SpanBuf, Trace};
use mph_experiments::checkpoint::{self, CheckpointConfig};
use mph_experiments::sweep::{run_sweep, CellResult};
use mph_metrics::json::Json;
use mph_oracle::OracleHub;
use mph_serve::jsonio;
use mph_serve::proto::GridSpec;
use mph_serve::session;
use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;

/// Daemons started to time `setup_s`; the last one serves the workload.
const SETUP_REPS: usize = 9;

/// One generated request.
#[derive(Clone)]
struct Request {
    /// The `params` object, as sent.
    params: String,
    /// Whether this resubmits a grid the client already completed.
    resume: bool,
    /// Trials the grid runs (cells × trials per cell).
    trials: u64,
    /// The grid's base seed and trials per cell: its cells walk seeds
    /// `seed .. seed + trials_per_cell`.
    seed: u64,
    trials_per_cell: u64,
}

/// The deterministic request stream of one client.
struct Plan {
    gen: Gen,
    pool: Vec<u64>,
    client: usize,
    done: Vec<Request>,
    next: usize,
    /// The resubmit slot of the current block of five.
    slot: usize,
}

impl Plan {
    fn new(seed: u64, client: usize) -> Self {
        let mut pool_gen = Gen::new(seed, 0x5EED);
        let pool = (0..16).map(|_| 1000 + pool_gen.below(1 << 30)).collect();
        Plan {
            gen: Gen::new(seed, 0xC11E + client as u64),
            pool,
            client,
            done: Vec::new(),
            next: 0,
            slot: 0,
        }
    }

    /// The client's next request: in each block of five, one seeded slot
    /// resubmits one of the client's completed fresh grids.
    fn next(&mut self) -> Request {
        let i = self.next;
        self.next += 1;
        if i.is_multiple_of(5) {
            self.slot = self.gen.below(5) as usize;
        }
        if i % 5 == self.slot && !self.done.is_empty() {
            let pick = self.gen.below(self.done.len() as u64) as usize;
            return Request { resume: true, ..self.done[pick].clone() };
        }
        let g = &mut self.gen;
        let target = if g.below(2) == 0 { "simline" } else { "line" };
        let w = [48, 128, 256][g.below(3) as usize];
        let windows: Vec<u64> = loop {
            let mask = g.below(8);
            if mask != 0 {
                break [2, 4, 8]
                    .into_iter()
                    .enumerate()
                    .filter(|(b, _)| mask >> b & 1 == 1)
                    .map(|(_, x)| x)
                    .collect();
            }
        };
        let trials = 3 + g.below(3);
        let seed = self.pool[g.below(16) as usize];
        let list = windows.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let params = format!(
            "{{\"exp\":\"pb{}n{i}\",\"target\":\"{target}\",\"w\":{w},\"v\":16,\"m\":4,\"windows\":[{list}],\"trials\":{trials},\"seed\":{seed}}}",
            self.client
        );
        let req = Request {
            params,
            resume: false,
            trials: trials * windows.len() as u64,
            seed,
            trials_per_cell: trials,
        };
        self.done.push(req.clone());
        req
    }
}

/// A running `mphd`.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns `mphd` on port 0 with `root` as its checkpoint root and
    /// waits for its first `pong`. Returns the daemon and the time taken.
    fn start(bin: &Path, root: &Path) -> Result<(Daemon, Duration), String> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--ckpt-root"])
            .arg(root)
            .env("RAYON_NUM_THREADS", "2")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let _ = BufReader::new(stdout).read_line(&mut line);
        let mut daemon = Daemon { child, addr: String::new() };
        let Some(addr) = line.trim().strip_prefix("mphd listening on ") else {
            daemon.stop();
            return Err(format!("mphd did not report its address: {line:?}"));
        };
        daemon.addr = addr.to_string();
        let mut conn = Conn::open(&daemon.addr).map_err(|e| format!("connecting to mphd: {e}"))?;
        let pong = conn
            .call("{\"v\":1,\"id\":0,\"method\":\"ping\"}\n", |_, _| {})
            .map_err(|e| format!("ping: {e}"))?;
        if !pong.contains("\"event\":\"pong\"") {
            return Err(format!("unexpected ping reply {pong:?}"));
        }
        Ok((daemon, start.elapsed()))
    }

    fn peak_rss_kib(&self) -> u64 {
        common::vm_hwm_kib(&self.child.id().to_string())
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    bytes: u64,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { writer: stream, reader, bytes: 0 })
    }

    /// Sends one request line in a single write call and reads response
    /// lines until a terminal one (`done`, `pong` or an error), calling
    /// `on_line(event, at)` for each. Returns the terminal line.
    fn call(
        &mut self,
        request: &str,
        mut on_line: impl FnMut(&str, Instant),
    ) -> std::io::Result<String> {
        self.writer.write_all(request.as_bytes())?;
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            let at = Instant::now();
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "mphd closed the connection",
                ));
            }
            self.bytes += n as u64;
            let event = event_name(&line);
            on_line(event, at);
            if matches!(event, "done" | "pong" | "error" | "cancelled") {
                return Ok(line);
            }
        }
    }
}

/// The `event` of a response line (`{"id":..,"event":"<name>",..}`), or
/// `"error"` for an error object.
fn event_name(line: &str) -> &str {
    match line.find("\"event\":\"") {
        Some(at) => {
            let rest = &line[at + 9..];
            &rest[..rest.find('"').unwrap_or(0)]
        }
        None => "error",
    }
}

/// What one session looked like from the client.
struct Session {
    request: Request,
    /// Submit to terminal line.
    latency: Duration,
    submitted: Instant,
    terminal: String,
    /// `(event, time since submit)` of every line, when recorded.
    lines: Vec<(String, Duration)>,
    bytes: u64,
}

/// Drives `clients` closed loops against `addr`. With `replay`, each
/// client submits exactly its given requests; otherwise it draws from its
/// plan until `budget` is spent.
fn drive(
    addr: &str,
    seed: u64,
    budget: Duration,
    replay: Option<&[Vec<Request>]>,
    record_lines: bool,
) -> Result<(Vec<Vec<Session>>, Duration), String> {
    let start = Instant::now();
    let results: Vec<Result<Vec<Session>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || -> Result<Vec<Session>, String> {
                    let mut conn =
                        Conn::open(addr).map_err(|e| format!("client {c}: connect: {e}"))?;
                    let mut plan = Plan::new(seed, c);
                    let mut sessions = Vec::new();
                    loop {
                        let request = match replay {
                            Some(lists) => match lists[c].get(sessions.len()) {
                                Some(r) => r.clone(),
                                None => break,
                            },
                            None if sessions.is_empty() || start.elapsed() < budget => plan.next(),
                            None => break,
                        };
                        let line = format!(
                            "{{\"v\":1,\"id\":{},\"method\":\"submit\",\"params\":{}}}\n",
                            sessions.len(),
                            request.params
                        );
                        let before = conn.bytes;
                        let mut lines = Vec::new();
                        let submitted = Instant::now();
                        let terminal = conn
                            .call(&line, |event, at| {
                                if record_lines {
                                    lines.push((event.to_string(), at - submitted));
                                }
                            })
                            .map_err(|e| format!("client {c}: session {}: {e}", sessions.len()))?;
                        sessions.push(Session {
                            request,
                            latency: submitted.elapsed(),
                            submitted,
                            terminal,
                            lines,
                            bytes: conn.bytes - before,
                        });
                    }
                    Ok(sessions)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let wall = start.elapsed();
    let sessions = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok((sessions, wall))
}

/// Reference reports, computed once per grid (the report's `exp` is the
/// only field a grid's sessions differ in, and it is rendered, not
/// computed): exactly `session::run_local`'s sweep and render.
#[derive(Default)]
struct References {
    grids: HashMap<String, Vec<CellResult>>,
}

impl References {
    fn report(&mut self, params: &str) -> Result<String, String> {
        let doc = jsonio::parse(params).map_err(|e| format!("params: {e}"))?;
        let spec = GridSpec::from_params(&doc).map_err(|e| format!("params: {}", e.message))?;
        let key = GridSpec { exp: String::new(), ..spec.clone() }.session_key();
        if !self.grids.contains_key(&key) {
            let cells = session::grid_for_spec(&spec, None).map_err(|e| e.message)?;
            self.grids.insert(key.clone(), run_sweep(cells));
        }
        Ok(session::render_report(&spec, &self.grids[&key]).report.to_string())
    }
}

/// Checks every session's terminal line against its reference report.
fn check(sessions: &[Vec<Session>], refs: &mut References, out: &mut Outcome) {
    for (c, list) in sessions.iter().enumerate() {
        for (i, s) in list.iter().enumerate() {
            out.attempted += 1;
            let served = jsonio::parse(s.terminal.trim_end())
                .ok()
                .filter(|doc| jsonio::get(doc, "event").and_then(jsonio::as_str) == Some("done"))
                .and_then(|doc| jsonio::get(&doc, "report").map(|r| r.to_string()));
            let Some(served) = served else {
                out.fail(
                    1,
                    format!("client {c} session {i}: no report: {}", s.terminal.trim_end()),
                );
                continue;
            };
            match refs.report(&s.request.params) {
                Ok(reference) if reference == served => {}
                Ok(_) => out
                    .fail(1, format!("client {c} session {i}: report differs from the reference")),
                Err(e) => out.fail(1, format!("client {c} session {i}: reference failed: {e}")),
            }
        }
    }
}

/// FNV-1a of a report, the exact fingerprint of a session's results.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Per-session fingerprints, interleaved across clients over the
/// sessions both completed, so runs of different lengths compare.
fn fingerprints(sessions: &[Vec<Session>]) -> Vec<Vec<u64>> {
    let n = sessions.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .flat_map(|i| sessions.iter().enumerate().map(move |(c, list)| (c, i, &list[i])))
        .map(|(c, i, s)| vec![c as u64, i as u64, fnv(&s.terminal)])
        .collect()
}

pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    match run_inner(opts, &mut out) {
        Ok(()) => {}
        Err(e) => out.fail(1, e),
    }
    out
}

fn start_daemons(opts: &Options, out: &mut Outcome) -> Result<(Daemon, f64), String> {
    let bin = opts.bin_dir.join("mphd");
    let mut samples = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPS {
        let root = opts.scratch_dir(&format!("ckpt{i}"));
        let (daemon, took) = Daemon::start(&bin, &root)?;
        samples.push(took.as_secs_f64());
        last = Some(daemon);
    }
    out.extra("setup_samples_s", Json::array(samples.iter().map(|&s| Json::f64(s))));
    Ok((last.expect("daemons started"), common::median(&samples)))
}

fn run_inner(opts: &Options, out: &mut Outcome) -> Result<(), String> {
    let (mut daemon, setup) = start_daemons(opts, out)?;
    let budget = if opts.trace { opts.budget() / 2 } else { opts.budget() };
    let (sessions, wall) = drive(&daemon.addr, opts.seed, budget, None, false)?;
    let rss_kib = daemon.peak_rss_kib();
    daemon.stop();
    let mut refs = References::default();
    check(&sessions, &mut refs, out);
    if let Some(diff) = common::compare_counts(opts, &fingerprints(&sessions)) {
        out.fail(0, diff);
    }
    let all: Vec<&Session> = sessions.iter().flatten().collect();
    let fresh: Vec<&Session> = all.iter().copied().filter(|s| !s.request.resume).collect();
    let resumed: Vec<&Session> = all.iter().copied().filter(|s| s.request.resume).collect();
    let fresh_ms: Vec<f64> = fresh.iter().map(|s| common::ms(s.latency)).collect();
    let resume_ms: Vec<f64> = resumed.iter().map(|s| common::ms(s.latency)).collect();
    let wall_s = wall.as_secs_f64();
    let trials: u64 = fresh.iter().map(|s| s.request.trials).sum();
    out.extra("sessions", Json::u64(all.len() as u64));
    out.extra("wall_s", Json::f64(wall_s));
    out.extra("resume_share", Json::f64(resumed.len() as f64 / all.len().max(1) as f64));
    out.extra("hub_reuse_share", Json::f64(hub_reuse(&sessions)));
    out.extra("trials_per_fresh_session", Json::f64(trials as f64 / fresh.len().max(1) as f64));
    out.extra("clients", Json::u64(CLIENTS as u64));
    common::latency_extra(out, "session", &fresh_ms);
    out.extra("resume_p50_ms", Json::f64(common::median(&resume_ms)));
    out.extra("resume_samples", Json::u64(resume_ms.len() as u64));
    out.extra("reference_grids", Json::u64(refs.grids.len() as u64));
    if !opts.trace {
        out.metric("setup_s", setup, "s");
        out.metric("peak_rss_mb", rss_kib as f64 / 1024.0, "MiB");
        out.metric("trials_per_s", trials as f64 / wall_s, "1/s");
        out.metric("sessions_per_s", all.len() as f64 / wall_s, "1/s");
        out.metric("latency_p50_ms", common::median(&fresh_ms), "ms");
        return Ok(());
    }
    traced(opts, &sessions, wall, &mut refs, out)
}

/// The share of fresh sessions whose base seed an earlier session (by
/// submit time) already walked.
fn hub_reuse(sessions: &[Vec<Session>]) -> f64 {
    let mut order: Vec<&Session> =
        sessions.iter().flatten().filter(|s| !s.request.resume).collect();
    order.sort_by_key(|s| s.submitted);
    let mut walked = BTreeSet::new();
    let mut reused = 0;
    for s in &order {
        let (seed, trials) = (s.request.seed, s.request.trials_per_cell);
        if walked.contains(&seed) {
            reused += 1;
        }
        walked.extend(seed..seed + trials);
    }
    reused as f64 / order.len().max(1) as f64
}

fn traced(
    opts: &Options,
    untraced: &[Vec<Session>],
    untraced_wall: Duration,
    refs: &mut References,
    out: &mut Outcome,
) -> Result<(), String> {
    // Client timestamps against a fresh daemon, same sessions.
    let root = opts.scratch_dir("ckpt-traced");
    let (mut daemon, _) = Daemon::start(&opts.bin_dir.join("mphd"), &root)?;
    let lists: Vec<Vec<Request>> =
        untraced.iter().map(|l| l.iter().map(|s| s.request.clone()).collect()).collect();
    let (sessions, wall) = drive(&daemon.addr, opts.seed, Duration::ZERO, Some(&lists), true)?;
    daemon.stop();
    let before = out.attempted;
    check(&sessions, refs, out);
    out.attempted = before;
    let mut accept = Vec::new();
    let mut first_cell = Vec::new();
    let mut gaps = Vec::new();
    let mut bytes = Vec::new();
    for s in sessions.iter().flatten() {
        bytes.push(s.bytes as f64);
        let at =
            |event: &str| s.lines.iter().find(|(e, _)| e == event).map(|(_, t)| common::ms(*t));
        accept.extend(at("accepted"));
        first_cell.extend(at("cell"));
        gaps.extend(s.lines.windows(2).map(|w| common::ms(w[1].1 - w[0].1)));
    }
    out.metric("serve.accept_ms", common::mean(&accept), "ms");
    out.metric("serve.first_cell_ms", common::mean(&first_cell), "ms");
    out.metric("serve.line_gap_ms", common::mean(&gaps), "ms");
    out.metric("serve.bytes_per_session", common::mean(&bytes), "B");
    out.metric("trace.overhead", wall.as_secs_f64() / untraced_wall.as_secs_f64(), "ratio");
    out.metric("oracle.hub_reuse_frac", hub_reuse(&sessions), "ratio");
    replay_in_process(opts, &sessions, refs, out)
}

/// Replays the sessions in submit order in this process: parse, compute
/// on a shared hub, render, and the checkpoint write and resume costs.
fn replay_in_process(
    opts: &Options,
    sessions: &[Vec<Session>],
    refs: &mut References,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut order: Vec<&Session> = sessions.iter().flatten().collect();
    order.sort_by_key(|s| s.submitted);
    let hub = Arc::new(OracleHub::new(64));
    let root: PathBuf = opts.scratch_dir("ckpt-replay");
    let trace = Trace::new();
    let mut reports: Vec<String> = Vec::new();
    let mut ckpt_bytes = Vec::new();
    let (mut trials, mut cells) = (0u64, 0u64);
    let mut counts = [0u64; 4];
    let phase = Instant::now();
    for (i, s) in order.iter().enumerate() {
        let mut buf = SpanBuf::new(&trace, i as u64);
        let session = buf.open("serve.session", None);
        let spec = buf.run("serve.parse", Some(0), None, || {
            jsonio::parse(&s.request.params).ok().and_then(|doc| GridSpec::from_params(&doc).ok())
        });
        let Some(spec) = spec else {
            return Err(format!("session {i}: generated params do not parse"));
        };
        let ckpt = CheckpointConfig {
            dir: root.join(spec.session_key()),
            every: spec.checkpoint_every.max(1),
        };
        let results = if s.request.resume {
            buf.run("checkpoint.resume", Some(0), None, || {
                checkpoint::run_sweep_checkpointed_observed(
                    grid(&spec, &hub),
                    &ckpt,
                    None,
                    &mut |_, _| {},
                )
            })
            .ok_or("resume returned no results")?
        } else {
            let results = buf.run("serve.compute", Some(0), None, || run_sweep(grid(&spec, &hub)));
            for r in &results {
                if let Some(snap) = &r.snapshot {
                    buf.run("metrics.snapshot", Some(0), None, || snap.to_json().to_string());
                    counts[0] += snap.totals.rounds;
                    counts[1] += snap.totals.messages;
                    counts[2] += snap.totals.bits_sent;
                    counts[3] += snap.totals.oracle_queries;
                }
                cells += 1;
            }
            trials += s.request.trials;
            // The durability cost on a warm hub: the same grid once
            // without and once with a checkpoint root.
            buf.run("checkpoint.plain", Some(0), None, || run_sweep(grid(&spec, &hub)));
            buf.run("checkpoint.durable", Some(0), None, || {
                checkpoint::run_sweep_checkpointed_observed(
                    grid(&spec, &hub),
                    &ckpt,
                    None,
                    &mut |_, _| {},
                )
            });
            ckpt_bytes.push(dir_bytes(&ckpt.dir) as f64);
            results
        };
        let report = buf.run("serve.render", Some(0), None, || {
            session::render_report(&spec, &results).report.to_string()
        });
        reports.push(report);
        buf.end(session);
        buf.finish(None);
    }
    let wall = phase.elapsed();
    for (s, report) in order.iter().zip(&reports) {
        let expected = refs.report(&s.request.params)?;
        if *report != expected {
            out.fail(0, "in-process replay report differs from the reference".into());
        }
    }
    let _ = trace.write(&opts.out_dir.join(format!("spans-serve-seed{}.jsonl", opts.seed)));
    let (by_name, acc) = trace.self_times(wall.as_nanos() as u64);
    let per = |name: &str, scale: f64| {
        by_name.get(name).map_or(0.0, |s| s.total_ns as f64 / scale / s.count.max(1) as f64)
    };
    out.metric("serve.parse_us", per("serve.parse", 1e3), "us");
    out.metric("serve.compute_ms", per("serve.compute", 1e6), "ms");
    out.metric("serve.render_us", per("serve.render", 1e3), "us");
    out.metric("metrics.snapshot_us", per("metrics.snapshot", 1e3), "us");
    out.metric(
        "checkpoint.write_ms",
        per("checkpoint.durable", 1e6) - per("checkpoint.plain", 1e6),
        "ms",
    );
    out.metric("checkpoint.bytes_per_session", common::mean(&ckpt_bytes), "B");
    out.metric("checkpoint.resume_ms", per("checkpoint.resume", 1e6), "ms");
    let t = trials.max(1) as f64;
    out.metric("mpc.rounds", counts[0] as f64 / t, "count");
    out.metric("mpc.messages", counts[1] as f64 / t, "count");
    out.metric("mpc.bits", counts[2] as f64 / t, "count");
    out.metric("oracle.queries", counts[3] as f64 / t, "count");
    out.extra(
        "exact_counts",
        Json::object(vec![
            ("fresh_trials", Json::u64(trials)),
            ("cells", Json::u64(cells)),
            ("rounds", Json::u64(counts[0])),
            ("messages", Json::u64(counts[1])),
            ("bits", Json::u64(counts[2])),
            ("oracle_queries", Json::u64(counts[3])),
        ]),
    );
    trace::check_accounting(out, &acc);
    Ok(())
}

fn grid(spec: &GridSpec, hub: &Arc<OracleHub>) -> Vec<mph_experiments::sweep::Cell> {
    session::grid_for_spec(spec, Some(hub)).expect("generated grids are valid")
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}
