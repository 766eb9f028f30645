//! Sharded multi-process sweep execution for the demo pipeline family.
//!
//! `mph_mpc::shard` is deliberately agnostic about what a worker
//! computes: the supervisor ships opaque spec bytes and the worker's
//! builder turns them into a [`Simulation`]. This module pins down the
//! concrete spec for the workspace's demo instances
//! ([`setup::demo_pipeline`]) — a `SPEC`-tagged snapshot container
//! carrying `(target, w, v, m, window, s_bits, q, seed)` — plus the
//! worker entry point ([`worker_main`], the body of the `mphd_worker`
//! binary and of `mphd --shard-worker`), and a sharded sweep cell
//! ([`run_cell_sharded`]) whose [`CellResult`] carries measurements
//! **byte-identical** to [`crate::sweep::run_sweep`] on the same cell.
//!
//! The identity argument stacks three layers, each pinned by tests:
//! the worker builds its simulation by the exact recipe
//! `TrialRunner::measure_with_faults` uses (same draw, same tape, same
//! build); `Simulation::step_shard` extracts rounds that reassemble the
//! in-process transcript (mpc shard tests); and the supervisor merges
//! shard statistics with the same sums/maxes the executor computes
//! (`shard_equivalence` integration test, over shard counts 1/2/4/7 and
//! under real SIGKILLs).

use crate::setup;
use crate::sweep::{CellResult, CellStatus};
use mph_core::algorithms::pipeline::{Pipeline, Target};
use mph_core::theorem::{
    self, draw_instance, reference_output, MeasurablePipeline, RetryPolicy, RoundMeasurement,
};
use mph_metrics::{MetricsSink, Recorder};
use mph_mpc::shard::{
    worker_serve, worker_serve_with, write_frame, Frame, ShardError, Supervisor, SupervisorConfig,
};
use mph_mpc::Simulation;
use mph_oracle::snapshot::{SnapshotReader, SnapshotWriter};
use mph_oracle::{CachedOracle, Oracle, OracleHub, RandomTape};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Section tag of the demo-family worker spec container.
pub const SECTION_SHARD_SPEC: [u8; 4] = *b"SPEC";

/// Everything a worker needs to rebuild one trial's simulation
/// deterministically: the demo-family pipeline geometry plus the trial
/// seed. Two processes decoding the same spec build bit-identical
/// simulations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// The function computed (`Line` or `SimLine`).
    pub target: Target,
    /// Line length `w`.
    pub w: u64,
    /// Number of input blocks `v`.
    pub v: usize,
    /// Machines in the simulation.
    pub m: usize,
    /// Blocks replicated per machine window.
    pub window: usize,
    /// Per-machine memory override; `None` uses the pipeline's required
    /// memory.
    pub s_bits: Option<usize>,
    /// Per-round query budget; `None` leaves it unenforced.
    pub q: Option<u64>,
    /// The `(RO, X)` draw seed (also seeds the random tape).
    pub seed: u64,
}

impl ShardSpec {
    /// Serializes the spec as one snapshot container (the `spec` bytes of
    /// a `SHARD_HELLO` frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        let patch = w.begin_section(&SECTION_SHARD_SPEC);
        w.put_u8(match self.target {
            Target::Line => 0,
            Target::SimLine => 1,
        });
        w.put_u64(self.w);
        w.put_u64(self.v as u64);
        w.put_u64(self.m as u64);
        w.put_u64(self.window as u64);
        w.put_bool(self.s_bits.is_some());
        w.put_u64(self.s_bits.unwrap_or(0) as u64);
        w.put_bool(self.q.is_some());
        w.put_u64(self.q.unwrap_or(0));
        w.put_u64(self.seed);
        w.end_section(patch);
        w.finish()
    }

    /// Decodes spec bytes produced by [`ShardSpec::encode`]. Errors are
    /// strings because they travel to the supervisor inside an
    /// `Ack::Error`.
    pub fn decode(bytes: &[u8]) -> Result<ShardSpec, String> {
        let mut r = SnapshotReader::new(bytes).map_err(|e| format!("spec container: {e}"))?;
        r.begin_section(&SECTION_SHARD_SPEC).map_err(|e| format!("spec section: {e}"))?;
        let inner = |e| format!("spec field: {e}");
        let target = match r.get_u8().map_err(inner)? {
            0 => Target::Line,
            1 => Target::SimLine,
            other => return Err(format!("unknown target discriminant {other}")),
        };
        let w = r.get_u64().map_err(inner)?;
        let v = r.get_u64().map_err(inner)? as usize;
        let m = r.get_u64().map_err(inner)? as usize;
        let window = r.get_u64().map_err(inner)? as usize;
        let has_s = r.get_bool().map_err(inner)?;
        let s_raw = r.get_u64().map_err(inner)? as usize;
        let has_q = r.get_bool().map_err(inner)?;
        let q_raw = r.get_u64().map_err(inner)?;
        let seed = r.get_u64().map_err(inner)?;
        Ok(ShardSpec {
            target,
            w,
            v,
            m,
            window,
            s_bits: has_s.then_some(s_raw),
            q: has_q.then_some(q_raw),
            seed,
        })
    }

    /// The demo pipeline this spec describes. Panics on inconsistent
    /// geometry exactly like [`setup::demo_pipeline`] — callers that
    /// handle untrusted specs wrap this in `catch_unwind`
    /// ([`build_from_spec`] does).
    pub fn pipeline(&self) -> Arc<Pipeline> {
        setup::demo_pipeline(self.w, self.v, self.m, self.window, self.target)
    }
}

/// Builds one trial's simulation from spec bytes — the worker-side half
/// of the identity contract, using the exact recipe of the in-process
/// `TrialRunner`: draw `(RO, X)` from the seed, warm the oracle cache
/// (from `hub` when given, observationally invisible either way), resolve
/// `s`, seed the tape, build.
pub fn build_from_spec(bytes: &[u8], hub: Option<&Arc<OracleHub>>) -> Result<Simulation, String> {
    let spec = ShardSpec::decode(bytes)?;
    let pipeline = catch_unwind(AssertUnwindSafe(|| spec.pipeline()))
        .map_err(|_| format!("inconsistent pipeline geometry in spec {spec:?}"))?;
    let (oracle, blocks) = draw_instance(pipeline.params(), spec.seed);
    let oracle: Arc<dyn Oracle> = match hub {
        Some(hub) => hub.oracle(oracle.seed(), oracle.n_in(), oracle.n_out()),
        None => Arc::new(CachedOracle::new(oracle)),
    };
    let s = spec.s_bits.unwrap_or_else(|| pipeline.required_s());
    let tape = RandomTape::new(spec.seed);
    catch_unwind(AssertUnwindSafe(|| {
        Arc::clone(&pipeline).build_simulation(oracle, tape, s, spec.q, &blocks)
    }))
    .map_err(|_| format!("simulation build panicked for spec {spec:?}"))
}

/// The worker-process main loop: serve shard frames on stdin/stdout
/// (pipe transport) or, with `--connect <addr> --session <hex nonce>
/// --worker <index>`, over a TCP connection back to the supervisor's
/// listener — the first frame on a TCP link is `SHARD_CONNECT`, and the
/// worker binds itself to the session nonce so a stray or stale
/// supervisor's hello is refused. Returns the process exit code.
///
/// The worker keeps one process-local [`OracleHub`] across hellos, so a
/// respawned worker replaying a seed another incarnation of this process
/// already walked — or consecutive trials of one sweep cell, rebound
/// onto the same warm fleet by [`ShardedRunner`] — answer from warm
/// tables, byte-identically.
pub fn worker_main() -> i32 {
    let hub = Arc::new(OracleHub::new(64));
    let args: Vec<String> = std::env::args().skip(1).filter(|a| a != "--shard-worker").collect();
    let mut connect: Option<String> = None;
    let mut session: Option<u64> = None;
    let mut worker: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => connect = it.next().cloned(),
            "--session" => session = it.next().and_then(|s| u64::from_str_radix(s, 16).ok()),
            "--worker" => worker = it.next().and_then(|s| s.parse().ok()),
            other => {
                eprintln!("mphd-worker: unknown argument {other:?}");
                return 2;
            }
        }
    }
    let served = match connect {
        Some(addr) => serve_tcp(&addr, session, worker, |bytes| build_from_spec(bytes, Some(&hub))),
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            worker_serve(stdin.lock(), stdout.lock(), |bytes| build_from_spec(bytes, Some(&hub)))
        }
    };
    match served {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("mphd-worker: {e}");
            1
        }
    }
}

/// Connects back to a supervisor listener, identifies this worker with a
/// `SHARD_CONNECT` frame, and serves the shard protocol bound to the
/// session nonce.
fn serve_tcp(
    addr: &str,
    session: Option<u64>,
    worker: Option<usize>,
    build: impl FnMut(&[u8]) -> Result<Simulation, String>,
) -> Result<(), ShardError> {
    let (Some(nonce), Some(index)) = (session, worker) else {
        return Err(ShardError::Protocol(
            "--connect requires --session <hex nonce> and --worker <index>".into(),
        ));
    };
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let mut out = stream.try_clone()?;
    write_frame(&mut out, &Frame::Connect { nonce, worker: index })?;
    worker_serve_with(stream, out, Some(nonce), build)
}

/// Minimum per-worker respawn budget: even a policy with a single attempt
/// gets a few respawns, because a worker crash is transient infrastructure
/// noise, not a failed measurement (replay reproduces the round exactly).
pub const MIN_RESPAWNS: usize = 3;

/// Derives a [`SupervisorConfig`] from the shared [`RetryPolicy`]: the
/// respawn budget is the larger of the policy's retry count and
/// [`MIN_RESPAWNS`]; everything else keeps [`SupervisorConfig::new`]'s
/// defaults.
pub fn supervisor_config(
    shards: usize,
    policy: &RetryPolicy,
    worker_cmd: Vec<String>,
) -> SupervisorConfig {
    let mut cfg = SupervisorConfig::new(shards, worker_cmd);
    cfg.max_respawns = (policy.effective_attempts() - 1).max(MIN_RESPAWNS);
    cfg
}

/// Locates the worker executable for supervised runs:
///
/// 1. `MPH_WORKER_BIN` (explicit override, whitespace-split so it can
///    carry flags — e.g. `"<path to mphd> --shard-worker"`; tests point
///    it at `CARGO_BIN_EXE_mphd_worker`);
/// 2. an `mphd_worker` binary next to the current executable (or one
///    directory up — integration tests run from `target/*/deps/`);
/// 3. when the current executable *is* `mphd`, the daemon re-executes
///    itself with the hidden `--shard-worker` flag;
/// 4. bare `mphd_worker`, resolved through `PATH`.
pub fn default_worker_cmd() -> Vec<String> {
    if let Ok(path) = std::env::var("MPH_WORKER_BIN") {
        let cmd: Vec<String> = path.split_whitespace().map(str::to_string).collect();
        if !cmd.is_empty() {
            return cmd;
        }
    }
    if let Ok(exe) = std::env::current_exe() {
        if let Some(dir) = exe.parent() {
            for dir in [Some(dir), dir.parent()].into_iter().flatten() {
                let candidate = dir.join("mphd_worker");
                if candidate.is_file() {
                    return vec![candidate.display().to_string()];
                }
            }
        }
        if exe.file_stem().is_some_and(|s| s == "mphd") {
            return vec![exe.display().to_string(), "--shard-worker".to_string()];
        }
    }
    vec!["mphd_worker".to_string()]
}

/// A reusable sharded-measurement engine: one warm worker fleet serves
/// consecutive trials of a sweep cell.
///
/// Between trials the supervisor *rebinds* the live fleet onto the next
/// trial's spec instead of respawning processes, so each worker's
/// process-local [`OracleHub`] stays warm across the cell — replays and
/// sibling seeds answer from cached tables. Reuse is strictly
/// observationally invisible: a rebind is attempted only when the
/// machine count matches and the fleet is undegraded, and any rebind
/// failure falls back to a fresh fleet. Measurements are byte-identical
/// either way (pinned by the fleet-reuse equivalence test).
///
/// Every supervisor gets [`build_from_spec`] installed as its in-process
/// fallback builder, so a fleet that loses *all* workers still completes
/// the cell — degraded, not dead — and [`ShardedRunner::last_degradation`]
/// reports the reason.
pub struct ShardedRunner {
    cfg: SupervisorConfig,
    sink: Option<Arc<dyn MetricsSink>>,
    sup: Option<Supervisor>,
    degraded: Option<String>,
}

impl ShardedRunner {
    /// Creates a runner; no workers are spawned until the first
    /// [`ShardedRunner::measure`] call.
    pub fn new(cfg: SupervisorConfig, sink: Option<Arc<dyn MetricsSink>>) -> Self {
        ShardedRunner { cfg, sink, sup: None, degraded: None }
    }

    /// The degradation reason of the most recent [`ShardedRunner::measure`]
    /// call, if its fleet shrank or fell back in-process.
    pub fn last_degradation(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// Runs one supervised trial and measures the paper's quantities —
    /// the sharded mirror of `TrialRunner::measure`, byte-identical on
    /// success: the supervisor's merged [`mph_mpc::RunResult`] equals
    /// the in-process one, so every derived field matches.
    pub fn measure(
        &mut self,
        spec: &ShardSpec,
        max_rounds: usize,
    ) -> Result<RoundMeasurement, ShardError> {
        let pipeline = spec.pipeline();
        let (oracle, blocks) = draw_instance(pipeline.params(), spec.seed);
        let oracle = Arc::new(CachedOracle::new(oracle));
        let expected = reference_output(&*pipeline, &*oracle, &blocks);
        let m = pipeline.machines();
        let bytes = spec.encode();
        let mut warm = None;
        if let Some(mut prev) = self.sup.take() {
            if prev.machine_count() == m && prev.rebind(bytes.clone()).is_ok() {
                warm = Some(prev);
            }
        }
        let mut sup = match warm {
            Some(sup) => sup,
            None => {
                let mut sup = Supervisor::new(self.cfg.clone(), bytes, m, self.sink.clone())?;
                sup.set_fallback_builder(Arc::new(|b: &[u8]| build_from_spec(b, None)));
                sup
            }
        };
        let run = sup.run_until_output(max_rounds);
        self.degraded = sup.degradation().map(str::to_string);
        if self.degraded.is_none() {
            self.sup = Some(sup);
        }
        Ok(RoundMeasurement::of(&run?, &expected))
    }
}

/// Runs one sweep cell on one supervised worker fleet and returns a
/// [`CellResult`] whose `measurements`, `mean_rounds` and `status` are
/// byte-identical to [`crate::sweep::run_sweep`] on the equivalent
/// in-process cell. Trial `t` runs at seed `spec.seed + t`, and all
/// trials share one warm fleet ([`ShardedRunner`]). The tagged telemetry
/// snapshot carries the worker-lifecycle tallies in its `workers` map.
///
/// A supervisor failure (respawn budget exhausted with no fallback,
/// deterministic worker error) fails the cell with the reason; a cell
/// whose fleet shrank or fell back in-process but still produced correct
/// measurements is reported [`CellStatus::Degraded`] — the sweep
/// engine's degrade-not-die contract.
pub fn run_cell_sharded(
    label: &str,
    spec: &ShardSpec,
    trials: usize,
    max_rounds: usize,
    cfg: &SupervisorConfig,
) -> CellResult {
    let recorder = Arc::new(Recorder::new());
    let pipeline = spec.pipeline();
    let s = spec.s_bits.unwrap_or_else(|| pipeline.required_s());
    theorem::run_tags(&recorder, pipeline.params(), s, spec.q);
    let mut runner = ShardedRunner::new(cfg.clone(), Some(recorder.clone()));
    let mut measurements = Vec::with_capacity(trials);
    let mut failure: Option<String> = None;
    let mut degradations: Vec<String> = Vec::new();
    for t in 0..trials as u64 {
        let trial = ShardSpec { seed: spec.seed.wrapping_add(t), ..spec.clone() };
        match runner.measure(&trial, max_rounds) {
            Ok(m) => {
                if let Some(d) = runner.last_degradation() {
                    degradations.push(format!("trial {t}: {d}"));
                }
                measurements.push(m);
            }
            Err(e) => {
                failure = Some(format!("trial {t}: {e}"));
                break;
            }
        }
    }
    let status = match failure {
        Some(reason) => CellStatus::Failed { reason },
        None => match measurements.iter().position(|m| !m.correct) {
            Some(t) => CellStatus::Failed { reason: format!("trial {t}: incorrect output") },
            None if !degradations.is_empty() => {
                CellStatus::Degraded { reason: degradations.join("; ") }
            }
            None => CellStatus::Ok,
        },
    };
    let correct: Vec<RoundMeasurement> =
        measurements.iter().filter(|m| m.correct).cloned().collect();
    CellResult {
        label: label.to_string(),
        status,
        mean_rounds: if correct.is_empty() { 0.0 } else { theorem::mean_of(&correct) },
        measurements,
        retries_used: 0,
        snapshot: Some(recorder.snapshot()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ShardSpec {
        ShardSpec {
            target: Target::SimLine,
            w: 48,
            v: 8,
            m: 4,
            window: 3,
            s_bits: None,
            q: None,
            seed: 100,
        }
    }

    #[test]
    fn spec_round_trips() {
        for s in [
            spec(),
            ShardSpec {
                target: Target::Line,
                s_bits: Some(4096),
                q: Some(64),
                seed: u64::MAX,
                ..spec()
            },
        ] {
            assert_eq!(ShardSpec::decode(&s.encode()).unwrap(), s);
        }
    }

    #[test]
    fn decode_rejects_corruption_and_unknown_target() {
        let bytes = spec().encode();
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        assert!(ShardSpec::decode(&corrupt).is_err(), "bit flip must not decode");
        assert!(ShardSpec::decode(&bytes[..bytes.len() - 3]).is_err(), "truncation");
    }

    #[test]
    fn build_from_spec_matches_trial_runner_build() {
        // The worker build must reproduce the in-process trial recipe
        // exactly: same m, same s, and a run from the built simulation
        // gives the measurement the in-process harness reports.
        let s = spec();
        let mut sim = build_from_spec(&s.encode(), None).expect("build");
        assert_eq!(sim.m(), 4);
        let expected = theorem::measure_rounds(&s.pipeline(), s.seed, s.s_bits, s.q, 10_000);
        let run = sim.run_until_output(10_000).expect("run");
        assert_eq!(run.rounds(), expected.rounds);
        assert_eq!(run.stats.total_queries(), expected.total_queries);
        assert_eq!(run.stats.peak_memory_bits(), expected.peak_memory_bits);
        assert_eq!(run.stats.total_bits(), expected.total_comm_bits);
    }

    #[test]
    fn build_from_spec_reports_bad_geometry_as_error() {
        // m = 0 trips the assignment's "degenerate assignment" assert;
        // the worker must surface a string error, not die on a panic.
        let bad = ShardSpec { m: 0, ..spec() };
        assert!(build_from_spec(&bad.encode(), None).is_err());
    }

    #[test]
    fn supervisor_config_honors_policy_and_floors() {
        let cfg = supervisor_config(4, &RetryPolicy::default(), vec!["w".into()]);
        assert_eq!(cfg.round_deadline, SupervisorConfig::new(4, Vec::new()).round_deadline);
        assert_eq!(cfg.max_respawns, MIN_RESPAWNS);
        let cfg = supervisor_config(2, &RetryPolicy::for_retries(9), vec!["w".into()]);
        assert_eq!(cfg.max_respawns, 9);
    }
}
