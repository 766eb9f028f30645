//! Measurement harnesses for the theorem's quantities.
//!
//! The lower-bound proof reasons about per-round query sets
//! (`Q^{(k)}`, their intersection with the correct-entry sets `C^{(k)}`)
//! and about how many *new* line nodes an algorithm learns per round.
//! These harnesses extract exactly those quantities from real simulator
//! runs: the oracle is wrapped in a transcript recorder drained between
//! rounds, so "queries of round `k`" is measured, not inferred.

use crate::algorithms::pipeline::Pipeline;
use crate::algorithms::pipeline::Target;
use crate::algorithms::replicated::ReplicatedPipeline;
use crate::line::Line;
use crate::params::LineParams;
use crate::simline::SimLine;
use mph_bits::{random_blocks, BitVec};
use mph_metrics::{emit, Event, MetricsSink, Recorder};
use mph_mpc::faults::derive_seed;
use mph_mpc::{FaultPlan, FaultSpec, Simulation};
use mph_oracle::{CachedOracle, LazyOracle, Oracle, OracleHub, RandomTape, TranscriptOracle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measured run of an algorithm on a fresh `(RO, X)` draw.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundMeasurement {
    /// Rounds executed.
    pub rounds: usize,
    /// Whether an output was produced within the cap.
    pub completed: bool,
    /// Whether the produced output equals the function value.
    pub correct: bool,
    /// Total oracle queries.
    pub total_queries: u64,
    /// Peak memory image observed, in bits.
    pub peak_memory_bits: usize,
    /// Total communication, in bits.
    pub total_comm_bits: usize,
}

/// Draws `(RO, X)` from `seed` for `params`.
pub fn draw_instance(params: &LineParams, seed: u64) -> (Arc<LazyOracle>, Vec<BitVec>) {
    let oracle = Arc::new(LazyOracle::square(seed, params.n));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let blocks = random_blocks(&mut rng, params.v, params.u);
    (oracle, blocks)
}

/// A pipeline configuration the measurement harnesses can run: anything
/// that can build (or re-seed) a [`Simulation`] from a drawn `(RO, X)`
/// instance and knows its own resource envelope. Implemented by the
/// plain [`Pipeline`] and the fault-tolerant [`ReplicatedPipeline`], so
/// [`TrialRunner`] and the sweep engine drive either through one code
/// path.
pub trait MeasurablePipeline: Send + Sync {
    /// The instance parameters `(RO, X)` are drawn from.
    fn params(&self) -> &LineParams;
    /// The function this configuration computes.
    fn target(&self) -> Target;
    /// Machines in the built simulation.
    fn machines(&self) -> usize;
    /// Default per-machine memory in bits.
    fn required_s(&self) -> usize;
    /// Builds a ready-to-run simulation on `(oracle, blocks)`.
    fn build_simulation(
        self: Arc<Self>,
        oracle: Arc<dyn Oracle>,
        tape: RandomTape,
        s_bits: usize,
        q: Option<u64>,
        blocks: &[BitVec],
    ) -> Simulation;
    /// Re-seeds an existing simulation of matching shape.
    fn reset_simulation(
        self: Arc<Self>,
        sim: &mut Simulation,
        oracle: Arc<dyn Oracle>,
        tape: RandomTape,
        q: Option<u64>,
        blocks: &[BitVec],
    );
}

impl MeasurablePipeline for Pipeline {
    fn params(&self) -> &LineParams {
        Pipeline::params(self)
    }
    fn target(&self) -> Target {
        Pipeline::target(self)
    }
    fn machines(&self) -> usize {
        self.assignment().m
    }
    fn required_s(&self) -> usize {
        Pipeline::required_s(self)
    }
    fn build_simulation(
        self: Arc<Self>,
        oracle: Arc<dyn Oracle>,
        tape: RandomTape,
        s_bits: usize,
        q: Option<u64>,
        blocks: &[BitVec],
    ) -> Simulation {
        Pipeline::build_simulation(&self, oracle, tape, s_bits, q, blocks)
    }
    fn reset_simulation(
        self: Arc<Self>,
        sim: &mut Simulation,
        oracle: Arc<dyn Oracle>,
        tape: RandomTape,
        q: Option<u64>,
        blocks: &[BitVec],
    ) {
        Pipeline::reset_simulation(&self, sim, oracle, tape, q, blocks)
    }
}

impl MeasurablePipeline for ReplicatedPipeline {
    fn params(&self) -> &LineParams {
        ReplicatedPipeline::params(self)
    }
    fn target(&self) -> Target {
        ReplicatedPipeline::target(self)
    }
    fn machines(&self) -> usize {
        self.m()
    }
    fn required_s(&self) -> usize {
        ReplicatedPipeline::required_s(self)
    }
    fn build_simulation(
        self: Arc<Self>,
        oracle: Arc<dyn Oracle>,
        tape: RandomTape,
        s_bits: usize,
        q: Option<u64>,
        blocks: &[BitVec],
    ) -> Simulation {
        ReplicatedPipeline::build_simulation(&self, oracle, tape, s_bits, q, blocks)
    }
    fn reset_simulation(
        self: Arc<Self>,
        sim: &mut Simulation,
        oracle: Arc<dyn Oracle>,
        tape: RandomTape,
        q: Option<u64>,
        blocks: &[BitVec],
    ) {
        ReplicatedPipeline::reset_simulation(&self, sim, oracle, tape, q, blocks)
    }
}

/// The reference function value for a pipeline's target on `(RO, X)`.
pub fn reference_output<P: MeasurablePipeline + ?Sized>(
    pipeline: &P,
    oracle: &dyn Oracle,
    blocks: &[BitVec],
) -> BitVec {
    match pipeline.target() {
        Target::Line => Line::new(*pipeline.params()).eval(&oracle, blocks),
        Target::SimLine => SimLine::new(*pipeline.params()).eval(&oracle, blocks),
    }
}

// The pipeline does not expose its target directly; recover it from
// behaviour-free configuration by probing the codec? Simpler: store it.
// (See `Pipeline::target()` accessor added for this harness.)
fn pipeline_target(pipeline: &Pipeline) -> Target {
    pipeline.target()
}

/// Runs `pipeline` on the `(RO, X)` drawn from `seed` and measures the
/// paper's quantities. `s_bits = None` uses exactly the configuration's
/// required memory.
pub fn measure_rounds<P: MeasurablePipeline + ?Sized>(
    pipeline: &Arc<P>,
    seed: u64,
    s_bits: Option<usize>,
    q: Option<u64>,
    max_rounds: usize,
) -> RoundMeasurement {
    measure_rounds_inner(pipeline, seed, s_bits, q, max_rounds, None)
}

/// [`measure_rounds`] with a telemetry sink attached to the simulator:
/// the run's round, message, memory, and violation events land in `sink`
/// (typically a [`Recorder`]) in addition to the returned summary.
pub fn measure_rounds_with<P: MeasurablePipeline + ?Sized>(
    pipeline: &Arc<P>,
    seed: u64,
    s_bits: Option<usize>,
    q: Option<u64>,
    max_rounds: usize,
    sink: Arc<dyn MetricsSink>,
) -> RoundMeasurement {
    measure_rounds_inner(pipeline, seed, s_bits, q, max_rounds, Some(sink))
}

/// Tags `recorder` with the instance parameters the theorem statements
/// quantify over: `n` (query width), `s` (per-machine memory in bits),
/// `q` (per-round query budget of Definition 2.1; `"unbounded"` when not
/// enforced), and the function-shape parameters `u` (block length), `v`
/// (number of blocks), `w` (line length `T`).
pub fn run_tags(recorder: &Recorder, params: &LineParams, s_bits: usize, q: Option<u64>) {
    recorder.set_tag("n", params.n.to_string());
    recorder.set_tag("s", s_bits.to_string());
    recorder.set_tag("q", q.map_or_else(|| "unbounded".to_string(), |q| q.to_string()));
    recorder.set_tag("u", params.u.to_string());
    recorder.set_tag("v", params.v.to_string());
    recorder.set_tag("w", params.w.to_string());
}

fn measure_rounds_inner<P: MeasurablePipeline + ?Sized>(
    pipeline: &Arc<P>,
    seed: u64,
    s_bits: Option<usize>,
    q: Option<u64>,
    max_rounds: usize,
    sink: Option<Arc<dyn MetricsSink>>,
) -> RoundMeasurement {
    TrialRunner::new().measure(pipeline, seed, s_bits, q, max_rounds, sink)
}

/// A bounded retry budget with an optional per-attempt wall-clock
/// deadline — the shared supervisor configuration for every harness that
/// re-runs failed trials.
///
/// Semantics are deliberately explicit to leave no room for off-by-one
/// readings:
///
/// * [`RetryPolicy::max_attempts`] counts **total attempts**. The first
///   attempt is *not* a retry, so a sweep cell configured with
///   `retries = r` maps to `max_attempts = r + 1` (see
///   [`RetryPolicy::for_retries`], which saturates rather than
///   overflows at `r = usize::MAX`). A policy constructed with
///   `max_attempts = 0` is normalized to 1 at use: **at least one
///   attempt always runs**, because a supervisor that executes zero
///   attempts would have to fabricate a measurement out of nothing (see
///   [`RetryPolicy::effective_attempts`]).
/// * The deadline applies to **each attempt separately**, and an attempt
///   survives while `elapsed <= deadline`: a trial finishing *exactly*
///   at the deadline counts as a success; only strictly exceeding it
///   trips the watchdog (see [`RetryPolicy::timed_out`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts allowed; the first attempt is not a retry. A value
    /// of 0 is normalized to 1 at use ([`RetryPolicy::effective_attempts`])
    /// — at least one attempt always runs.
    pub max_attempts: usize,
    /// Per-attempt wall-clock deadline. `None` disables the watchdog.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    /// One attempt, no deadline — exactly the behaviour of the
    /// policy-free harness entry points.
    fn default() -> Self {
        RetryPolicy { max_attempts: 1, deadline: None }
    }
}

impl RetryPolicy {
    /// The policy equivalent of "retry up to `retries` times": the
    /// initial attempt plus `retries` reseeded re-runs. Saturates at
    /// `usize::MAX` total attempts, so `for_retries(usize::MAX)` means
    /// "retry effectively forever" instead of overflowing to a
    /// zero-attempt policy.
    pub fn for_retries(retries: usize) -> Self {
        RetryPolicy { max_attempts: retries.saturating_add(1), ..Self::default() }
    }

    /// The attempt budget actually enforced: `max_attempts`, normalized
    /// so a (mis)configured `max_attempts = 0` still runs exactly one
    /// attempt. A client-supplied policy can therefore never panic the
    /// harness or skip measurement entirely.
    pub fn effective_attempts(&self) -> usize {
        self.max_attempts.max(1)
    }

    /// Returns `self` with a per-attempt wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Whether an attempt that has been running for `elapsed` has
    /// exceeded the deadline. Strict: `elapsed == deadline` is *not* a
    /// timeout, so a trial finishing exactly at the deadline succeeds.
    pub fn timed_out(&self, elapsed: Duration) -> bool {
        self.deadline.is_some_and(|d| elapsed > d)
    }
}

/// What [`TrialRunner::measure_with_policy`] observed: the final
/// attempt's measurement plus how the retry budget was spent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrialOutcome {
    /// The last attempt's measurement (the successful one, when any
    /// attempt succeeded).
    pub measurement: RoundMeasurement,
    /// Attempts actually executed (1 ≤ `attempts` ≤
    /// [`RetryPolicy::max_attempts`]).
    pub attempts: usize,
    /// Whether the *final* attempt was aborted by the watchdog.
    pub timed_out: bool,
}

/// A reusable per-worker trial context.
///
/// Holds the [`Simulation`] of the most recent trial and hands it back to
/// the next one via [`Pipeline::reset_simulation`] whenever the machine
/// count and memory bound match, so consecutive trials on one worker
/// retain every executor buffer instead of reallocating. Each trial's
/// oracle is wrapped in a per-seed [`CachedOracle`]: evaluating the
/// reference output walks exactly the line entries the honest simulation
/// will query, so the simulation's oracle work all hits the warm cache.
/// Both reuses are observationally invisible — measurements are
/// bit-identical to fresh-built, uncached runs.
///
/// A runner can additionally share warm oracle tables across trials (and,
/// in a daemon, across sessions) through an [`OracleHub`]: with a hub
/// attached, the per-seed cache comes from the hub's registry instead of
/// being rebuilt, so a seed another session already walked answers from
/// the warm table. The answers are bit-identical either way — see
/// [`OracleHub`] for the argument.
#[derive(Default)]
pub struct TrialRunner {
    sim: Option<Simulation>,
    hub: Option<Arc<OracleHub>>,
}

impl TrialRunner {
    /// A runner with no retained simulation yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a shared [`OracleHub`], builder-style: subsequent trials
    /// check their per-seed oracle cache out of `hub` instead of building
    /// a private one.
    pub fn with_hub(mut self, hub: Arc<OracleHub>) -> Self {
        self.hub = Some(hub);
        self
    }

    /// Runs one trial (the body of [`measure_rounds`]), reusing the
    /// retained simulation when its shape matches.
    pub fn measure<P: MeasurablePipeline + ?Sized>(
        &mut self,
        pipeline: &Arc<P>,
        seed: u64,
        s_bits: Option<usize>,
        q: Option<u64>,
        max_rounds: usize,
        sink: Option<Arc<dyn MetricsSink>>,
    ) -> RoundMeasurement {
        self.measure_with_faults(pipeline, seed, s_bits, q, max_rounds, sink, None)
    }

    /// [`TrialRunner::measure`] with an optional fault plan installed on
    /// the simulation. Fault-free trials keep the old contract — a
    /// [`mph_mpc::ModelViolation`] is a harness bug and panics. Under a
    /// fault plan a violation is a legitimate data point (a checksum
    /// failure surfaced as `AlgorithmError`, memory blown by straggler
    /// pile-up) and comes back as a failed measurement instead.
    #[allow(clippy::too_many_arguments)]
    pub fn measure_with_faults<P: MeasurablePipeline + ?Sized>(
        &mut self,
        pipeline: &Arc<P>,
        seed: u64,
        s_bits: Option<usize>,
        q: Option<u64>,
        max_rounds: usize,
        sink: Option<Arc<dyn MetricsSink>>,
        faults: Option<FaultPlan>,
    ) -> RoundMeasurement {
        self.run_trial(pipeline, seed, s_bits, q, max_rounds, sink, faults, None).0
    }

    /// Supervised measurement: runs up to [`RetryPolicy::max_attempts`]
    /// attempts of the trial, re-deriving the fault schedule per attempt
    /// via [`derive_seed`] (so retries are reproducible across thread
    /// counts), and aborting any attempt whose wall-clock time strictly
    /// exceeds the policy deadline. Each watchdog abort emits an
    /// [`Event::TrialTimeout`] into `sink`. Returns on the first correct
    /// attempt or once the budget is exhausted.
    ///
    /// `faults` carries the spec plus the cell-level fault seed the
    /// per-attempt schedules are derived from; `None` runs fault-free
    /// (retries then only make sense together with a deadline).
    #[allow(clippy::too_many_arguments)]
    pub fn measure_with_policy<P: MeasurablePipeline + ?Sized>(
        &mut self,
        pipeline: &Arc<P>,
        seed: u64,
        s_bits: Option<usize>,
        q: Option<u64>,
        max_rounds: usize,
        sink: Option<Arc<dyn MetricsSink>>,
        faults: Option<(FaultSpec, u64)>,
        policy: &RetryPolicy,
    ) -> TrialOutcome {
        let max_attempts = policy.effective_attempts();
        let mut attempt = 0u64;
        loop {
            let plan = faults.map(|(spec, fault_seed)| {
                FaultPlan::new(derive_seed(fault_seed, seed, attempt), spec)
            });
            let (measurement, timed_out) = self.run_trial(
                pipeline,
                seed,
                s_bits,
                q,
                max_rounds,
                sink.clone(),
                plan,
                policy.deadline,
            );
            if timed_out {
                let deadline_ms = policy.deadline.map_or(0, |d| d.as_millis() as u64);
                emit(&sink, || Event::TrialTimeout { attempt, deadline_ms });
            }
            let attempts = attempt as usize + 1;
            if measurement.correct || attempts >= max_attempts {
                return TrialOutcome { measurement, attempts, timed_out };
            }
            attempt += 1;
        }
    }

    /// One attempt: the body shared by [`TrialRunner::measure_with_faults`]
    /// (no deadline) and [`TrialRunner::measure_with_policy`]. With a
    /// deadline the simulation runs under the executor watchdog; the
    /// returned flag reports whether the watchdog fired.
    #[allow(clippy::too_many_arguments)]
    fn run_trial<P: MeasurablePipeline + ?Sized>(
        &mut self,
        pipeline: &Arc<P>,
        seed: u64,
        s_bits: Option<usize>,
        q: Option<u64>,
        max_rounds: usize,
        sink: Option<Arc<dyn MetricsSink>>,
        faults: Option<FaultPlan>,
        deadline: Option<Duration>,
    ) -> (RoundMeasurement, bool) {
        let (oracle, blocks) = draw_instance(pipeline.params(), seed);
        let oracle: Arc<dyn Oracle> = match &self.hub {
            Some(hub) => hub.oracle(oracle.seed(), oracle.n_in(), oracle.n_out()),
            None => Arc::new(CachedOracle::new(oracle)),
        };
        let expected = reference_output(&**pipeline, &*oracle, &blocks);
        let s = s_bits.unwrap_or_else(|| pipeline.required_s());
        let tape = RandomTape::new(seed);
        let mut sim = match self.sim.take() {
            Some(mut sim) if sim.m() == pipeline.machines() && sim.s_bits() == s => {
                pipeline.clone().reset_simulation(&mut sim, oracle, tape, q, &blocks);
                sim
            }
            _ => pipeline.clone().build_simulation(oracle, tape, s, q, &blocks),
        };
        match sink {
            Some(sink) => sim.set_metrics(sink),
            None => sim.clear_metrics(),
        };
        match faults {
            Some(plan) => sim.set_fault_plan(plan),
            None => sim.clear_fault_plan(),
        };
        let run = match deadline {
            None => sim.run_until_output(max_rounds).map(|result| (result, false)),
            Some(d) => {
                let start = Instant::now();
                sim.run_with_watchdog(max_rounds, &mut || start.elapsed() > d)
            }
        };
        let (measurement, timed_out) = match run {
            Ok((result, timed_out)) => {
                let correct = result.completed() && result.unanimous_output() == Some(&expected);
                let measurement = RoundMeasurement {
                    rounds: result.rounds(),
                    completed: result.completed(),
                    correct,
                    total_queries: result.stats.total_queries(),
                    peak_memory_bits: result.stats.peak_memory_bits(),
                    total_comm_bits: result.stats.total_bits(),
                };
                (measurement, timed_out)
            }
            Err(violation) => {
                assert!(faults.is_some(), "model violations are config bugs here: {violation}");
                let measurement = RoundMeasurement {
                    rounds: sim.round(),
                    completed: false,
                    correct: false,
                    total_queries: sim.stats().total_queries(),
                    peak_memory_bits: sim.stats().peak_memory_bits(),
                    total_comm_bits: sim.stats().total_bits(),
                };
                (measurement, false)
            }
        };
        self.sim = Some(sim);
        (measurement, timed_out)
    }
}

/// [`measure_rounds`] for `trials` consecutive seeds `base_seed..`,
/// batched through the worker pool: seeds are split into contiguous
/// chunks, each chunk runs on one pool worker with a [`TrialRunner`]
/// (reused simulation + per-seed warmed oracle cache), and results come
/// back in seed order — element `t` equals
/// `measure_rounds(pipeline, base_seed + t, ..)` exactly, independent of
/// thread count.
pub fn measure_rounds_batch<P: MeasurablePipeline + ?Sized>(
    pipeline: &Arc<P>,
    trials: usize,
    base_seed: u64,
    s_bits: Option<usize>,
    q: Option<u64>,
    max_rounds: usize,
) -> Vec<RoundMeasurement> {
    measure_rounds_batch_inner(pipeline, trials, base_seed, s_bits, q, max_rounds, None)
}

/// [`measure_rounds_batch`] with a shared telemetry sink attached to
/// every trial (a [`Recorder`]'s fold is order-independent, so the
/// aggregate is deterministic regardless of trial interleaving).
pub fn measure_rounds_batch_with<P: MeasurablePipeline + ?Sized>(
    pipeline: &Arc<P>,
    trials: usize,
    base_seed: u64,
    s_bits: Option<usize>,
    q: Option<u64>,
    max_rounds: usize,
    sink: Arc<dyn MetricsSink>,
) -> Vec<RoundMeasurement> {
    measure_rounds_batch_inner(pipeline, trials, base_seed, s_bits, q, max_rounds, Some(sink))
}

/// How many chunks each pool thread should see: oversplitting lets early
/// finishers pick up remaining chunks (load balance) while keeping
/// chunks long enough for simulation reuse to pay off.
const BATCH_CHUNKS_PER_THREAD: usize = 4;

fn measure_rounds_batch_inner<P: MeasurablePipeline + ?Sized>(
    pipeline: &Arc<P>,
    trials: usize,
    base_seed: u64,
    s_bits: Option<usize>,
    q: Option<u64>,
    max_rounds: usize,
    sink: Option<Arc<dyn MetricsSink>>,
) -> Vec<RoundMeasurement> {
    let seeds: Vec<u64> = (0..trials).map(|t| base_seed.wrapping_add(t as u64)).collect();
    let chunk_size =
        seeds.len().div_ceil(rayon::current_num_threads() * BATCH_CHUNKS_PER_THREAD).max(1);
    let per_chunk: Vec<Vec<RoundMeasurement>> = seeds
        .par_chunks(chunk_size)
        .map(|chunk| {
            let mut runner = TrialRunner::new();
            chunk
                .iter()
                .map(|&seed| runner.measure(pipeline, seed, s_bits, q, max_rounds, sink.clone()))
                .collect()
        })
        .collect();
    per_chunk.into_iter().flatten().collect()
}

/// Mean rounds over `trials` independent `(RO, X)` draws, in parallel.
pub fn mean_rounds<P: MeasurablePipeline + ?Sized>(
    pipeline: &Arc<P>,
    trials: usize,
    base_seed: u64,
    max_rounds: usize,
) -> f64 {
    mean_rounds_inner(pipeline, trials, base_seed, max_rounds, None)
}

/// [`mean_rounds`] with a shared telemetry sink: all trials record into
/// `sink` concurrently (a [`Recorder`]'s fold is order-independent, so
/// the aggregate is the same regardless of trial interleaving).
pub fn mean_rounds_with<P: MeasurablePipeline + ?Sized>(
    pipeline: &Arc<P>,
    trials: usize,
    base_seed: u64,
    max_rounds: usize,
    sink: Arc<dyn MetricsSink>,
) -> f64 {
    mean_rounds_inner(pipeline, trials, base_seed, max_rounds, Some(sink))
}

fn mean_rounds_inner<P: MeasurablePipeline + ?Sized>(
    pipeline: &Arc<P>,
    trials: usize,
    base_seed: u64,
    max_rounds: usize,
    sink: Option<Arc<dyn MetricsSink>>,
) -> f64 {
    let measurements =
        measure_rounds_batch_inner(pipeline, trials, base_seed, None, None, max_rounds, sink);
    let total: usize = measurements
        .iter()
        .map(|m| {
            assert!(m.correct, "honest pipeline must be correct");
            m.rounds
        })
        .sum();
    total as f64 / trials as f64
}

/// Mean rounds over an already-collected batch of measurements.
pub fn mean_of(measurements: &[RoundMeasurement]) -> f64 {
    assert!(!measurements.is_empty(), "mean of zero trials");
    let total: usize = measurements.iter().map(|m| m.rounds).sum();
    total as f64 / measurements.len() as f64
}

/// Per-round line advances: `advances[k]` is the number of new correct
/// entries queried in round `k` — the paper's `|Q^{(k)} ∩ C|`, measured by
/// draining a transcript oracle between simulator steps.
pub fn round_advances(pipeline: &Arc<Pipeline>, seed: u64, max_rounds: usize) -> Vec<usize> {
    let (oracle, blocks) = draw_instance(pipeline.params(), seed);
    let transcript = Arc::new(TranscriptOracle::new(oracle as Arc<dyn Oracle>));
    let mut sim = pipeline.build_simulation(
        transcript.clone() as Arc<dyn Oracle>,
        RandomTape::new(seed),
        pipeline.required_s(),
        None,
        &blocks,
    );
    let mut advances = Vec::new();
    for _ in 0..max_rounds {
        let outputs = sim.step().expect("honest run");
        // The honest pipeline queries exactly the correct entries, in
        // order; every query of a round is one line advance.
        advances.push(transcript.drain().len());
        if !outputs.is_empty() {
            break;
        }
    }
    advances
}

/// Aggregated advance distribution across seeds: `hist[p]` = number of
/// rounds that advanced exactly `p` nodes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdvanceDistribution {
    /// Histogram over advances per round (index = advance count).
    pub hist: Vec<u64>,
    /// Total rounds observed.
    pub rounds: u64,
}

impl AdvanceDistribution {
    /// Empirical `P(advance ≥ p)`.
    pub fn tail(&self, p: usize) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        let above: u64 = self.hist.iter().skip(p).sum();
        above as f64 / self.rounds as f64
    }

    /// Fits the geometric decay ratio from consecutive tails,
    /// `P(≥ p+1)/P(≥ p)`, averaged over `p ∈ [1, p_max)` where both tails
    /// have mass. For `Line` this estimates the local-hit fraction
    /// `window/v` — the `h/v` of Claim 3.9.
    pub fn decay_ratio(&self, p_max: usize) -> Option<f64> {
        let mut ratios = Vec::new();
        for p in 1..p_max {
            let a = self.tail(p);
            let b = self.tail(p + 1);
            if a > 0.0 && b > 0.0 {
                ratios.push(b / a);
            }
        }
        if ratios.is_empty() {
            None
        } else {
            Some(ratios.iter().sum::<f64>() / ratios.len() as f64)
        }
    }
}

/// A detected line-skip: a correct entry queried before its predecessor —
/// the event `E^{(k)}` of Lemma 3.3 (equivalently `E_{j,k}` of Lemma A.7).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SkipEvent {
    /// The node index whose correct entry was queried out of order.
    pub node: u64,
    /// The position of the offending query in the flattened transcript.
    pub query_position: usize,
}

/// Scans an ordered query transcript for Lemma 3.3's event: some node's
/// correct query appearing before its predecessor's.
///
/// `trace` supplies the correct entries `(i, x_{ℓ_i}, r_i, 0^*)`; `queries`
/// is the full ordered transcript of an algorithm's run. Node 1's entry is
/// always legal (its inputs are public). The lemma bounds the probability
/// of a nonempty result by `w·v^{log²w}·(k+1)·m·q·2^{-u}`; honest
/// algorithms must produce none, and the tests assert the guessing
/// adversary produces some at tiny `u`.
pub fn detect_skip_events(trace: &crate::trace::EvalTrace, queries: &[BitVec]) -> Vec<SkipEvent> {
    use std::collections::HashMap;
    let correct: HashMap<&BitVec, u64> = trace.nodes.iter().map(|n| (&n.query, n.i)).collect();
    let mut queried_nodes: Vec<bool> = vec![false; trace.nodes.len() + 2];
    let mut events = Vec::new();
    for (pos, q) in queries.iter().enumerate() {
        if let Some(&i) = correct.get(q) {
            if i > 1 && !queried_nodes[(i - 1) as usize] {
                events.push(SkipEvent { node: i, query_position: pos });
            }
            queried_nodes[i as usize] = true;
        }
    }
    events
}

/// Runs the pipeline and checks the whole transcript for skip events —
/// the empirical counterpart of Lemma 3.3's `Pr[E^{(k)}]` bound.
pub fn skip_events_in_run(pipeline: &Arc<Pipeline>, seed: u64) -> Vec<SkipEvent> {
    let (oracle, blocks) = draw_instance(pipeline.params(), seed);
    let trace = match pipeline_target(pipeline) {
        Target::Line => Line::new(*pipeline.params()).trace(&*oracle, &blocks),
        Target::SimLine => SimLine::new(*pipeline.params()).trace(&*oracle, &blocks),
    };
    let transcript = Arc::new(TranscriptOracle::new(oracle as Arc<dyn Oracle>));
    let mut sim = pipeline.build_simulation(
        transcript.clone() as Arc<dyn Oracle>,
        RandomTape::new(seed),
        pipeline.required_s(),
        None,
        &blocks,
    );
    let _ = sim.run_until_output(10 * pipeline.params().w as usize + 10);
    let queries: Vec<BitVec> = transcript.transcript().into_iter().map(|r| r.input).collect();
    detect_skip_events(&trace, &queries)
}

/// Measures the advance distribution over `trials` seeds.
pub fn advance_distribution(
    pipeline: &Arc<Pipeline>,
    trials: usize,
    base_seed: u64,
    max_rounds: usize,
) -> AdvanceDistribution {
    let all: Vec<Vec<usize>> = (0..trials)
        .into_par_iter()
        .map(|t| round_advances(pipeline, base_seed.wrapping_add(t as u64), max_rounds))
        .collect();
    let mut hist = Vec::new();
    let mut rounds = 0u64;
    for run in all {
        for adv in run {
            if hist.len() <= adv {
                hist.resize(adv + 1, 0);
            }
            hist[adv] += 1;
            rounds += 1;
        }
    }
    AdvanceDistribution { hist, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::BlockAssignment;

    fn pipeline(w: u64, v: usize, m: usize, window: usize, target: Target) -> Arc<Pipeline> {
        let params = LineParams::new(64, w, 16, v);
        Pipeline::new(params, BlockAssignment::new(v, m, window), target)
    }

    #[test]
    fn measure_rounds_reports_correctness() {
        let p = pipeline(40, 8, 4, 3, Target::Line);
        let m = measure_rounds(&p, 3, None, None, 1000);
        assert!(m.completed && m.correct);
        assert_eq!(m.total_queries, 40);
        assert!(m.peak_memory_bits <= p.required_s());
    }

    #[test]
    fn measure_rounds_with_records_matching_telemetry() {
        let p = pipeline(40, 8, 4, 3, Target::Line);
        let recorder = Arc::new(Recorder::new());
        run_tags(&recorder, p.params(), p.required_s(), None);
        let m = measure_rounds_with(&p, 3, None, None, 1000, recorder.clone());
        let snap = recorder.snapshot();
        assert_eq!(snap.totals.rounds as usize, m.rounds);
        assert_eq!(snap.totals.oracle_queries, m.total_queries);
        assert_eq!(snap.totals.bits_sent as usize, m.total_comm_bits);
        assert_eq!(snap.tags["w"], "40");
        assert_eq!(snap.tags["q"], "unbounded");
        assert!(snap.violations.is_empty());
    }

    #[test]
    fn advances_sum_to_w() {
        let p = pipeline(50, 8, 4, 3, Target::Line);
        let advances = round_advances(&p, 5, 1000);
        assert_eq!(advances.iter().sum::<usize>(), 50);
        // Some rounds are pure token hops (0 advances) in a line run.
        assert!(advances.len() >= 2);
    }

    #[test]
    fn line_advance_decay_matches_local_fraction() {
        // window/v = 4/16 = 0.25: P(advance >= p+1 | >= p) ≈ 0.25.
        let p = pipeline(300, 16, 4, 4, Target::Line);
        let dist = advance_distribution(&p, 30, 100, 10_000);
        let ratio = dist.decay_ratio(4).expect("enough mass");
        assert!((ratio - 0.25).abs() < 0.08, "decay ratio {ratio}, expected ≈ 0.25");
    }

    #[test]
    fn simline_advances_in_window_bursts() {
        // Contiguous schedule: most visits advance ≈ window nodes.
        let p = pipeline(96, 16, 4, 8, Target::SimLine);
        let advances = round_advances(&p, 6, 1000);
        let max = *advances.iter().max().unwrap();
        assert!(max >= 7, "SimLine should advance ~window per visit, got max {max}");
    }

    #[test]
    fn honest_runs_never_skip() {
        // Lemma 3.3's event has probability ~w·q·2^{-u}; the honest
        // pipeline produces it with probability 0 by construction.
        for seed in 0..5u64 {
            let p = pipeline(60, 8, 4, 3, Target::Line);
            assert!(skip_events_in_run(&p, seed).is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn detector_catches_planted_skips() {
        let params = LineParams::new(64, 20, 16, 8);
        let (oracle, blocks) = draw_instance(&params, 3);
        let trace = Line::new(params).trace(&*oracle, &blocks);
        // A transcript that jumps straight to node 5's correct entry.
        let queries = vec![trace.nodes[0].query.clone(), trace.nodes[4].query.clone()];
        let events = detect_skip_events(&trace, &queries);
        assert_eq!(events, vec![SkipEvent { node: 5, query_position: 1 }]);
        // In-order prefixes are clean.
        let queries: Vec<BitVec> = trace.nodes[..6].iter().map(|n| n.query.clone()).collect();
        assert!(detect_skip_events(&trace, &queries).is_empty());
    }

    #[test]
    fn detector_flags_guessed_entries_at_tiny_u() {
        // With u = 2 bits, a random-r guess hits the next correct entry
        // with probability 1/4 per try — the detector must see those hits.
        let params = LineParams::new(32, 8, 2, 4);
        let mut found = 0;
        for seed in 0..40u64 {
            let (oracle, blocks) = draw_instance(&params, seed);
            let trace = Line::new(params).trace(&*oracle, &blocks);
            // Adversary: guess node 3's entry without querying 1 and 2.
            let mut guesses = Vec::new();
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);
            for _ in 0..8 {
                let r_guess = mph_bits::random_bitvec(&mut rng, params.u);
                guesses.push(params.pack_query(3, &blocks[rng.gen_range(0..4usize)], &r_guess));
            }
            if !detect_skip_events(&trace, &guesses).is_empty() {
                found += 1;
            }
        }
        assert!(found >= 5, "expected several detections at u = 2, got {found}");
    }

    #[test]
    fn batch_measurements_match_singles_seed_for_seed() {
        let p = pipeline(60, 8, 4, 3, Target::Line);
        let batch = measure_rounds_batch(&p, 6, 900, None, None, 10_000);
        assert_eq!(batch.len(), 6);
        for (t, got) in batch.iter().enumerate() {
            let single = measure_rounds(&p, 900 + t as u64, None, None, 10_000);
            assert_eq!(*got, single, "trial {t}");
        }
    }

    #[test]
    fn batch_telemetry_matches_sequential_aggregate() {
        let p = pipeline(40, 8, 4, 3, Target::SimLine);
        let batched = Arc::new(Recorder::new());
        let batch = measure_rounds_batch_with(&p, 5, 70, None, None, 10_000, batched.clone());
        let sequential = Arc::new(Recorder::new());
        let singles: Vec<RoundMeasurement> = (0..5)
            .map(|t| measure_rounds_with(&p, 70 + t, None, None, 10_000, sequential.clone()))
            .collect();
        assert_eq!(batch, singles);
        assert_eq!(batched.snapshot().to_json_string(), sequential.snapshot().to_json_string());
    }

    #[test]
    fn trial_runner_reuse_matches_fresh_across_shapes() {
        // One runner across pipelines of equal and different shapes: shape
        // changes rebuild, matches reuse — results identical either way.
        let a = pipeline(40, 8, 4, 3, Target::Line);
        let b = pipeline(40, 8, 4, 3, Target::SimLine); // same m/s: reuse path
        let c = pipeline(40, 8, 2, 4, Target::Line); // different m: rebuild path
        let mut runner = TrialRunner::new();
        for p in [&a, &b, &a, &c, &b] {
            for seed in [5u64, 6] {
                let reused = runner.measure(p, seed, None, None, 10_000, None);
                let fresh = measure_rounds(p, seed, None, None, 10_000);
                assert_eq!(reused, fresh);
            }
        }
    }

    #[test]
    fn hub_backed_runner_matches_private_caches() {
        // Sharing warm oracle tables through a hub — including re-running
        // a seed whose table another runner already warmed — must be
        // observationally invisible.
        let p = pipeline(40, 8, 4, 3, Target::Line);
        let hub = Arc::new(OracleHub::new(8));
        let mut warm = TrialRunner::new().with_hub(hub.clone());
        let mut also_warm = TrialRunner::new().with_hub(hub.clone());
        for seed in [5u64, 6, 5] {
            let shared = warm.measure(&p, seed, None, None, 10_000, None);
            let shared_again = also_warm.measure(&p, seed, None, None, 10_000, None);
            let private = measure_rounds(&p, seed, None, None, 10_000);
            assert_eq!(shared, private, "seed {seed}");
            assert_eq!(shared_again, private, "seed {seed}");
        }
        assert!(!hub.is_empty(), "trials should have populated the hub");
    }

    #[test]
    fn zero_deadline_times_out_and_exhausts_the_budget() {
        // A deadline of zero fails fast: a multi-round pipeline can never
        // outrun the watchdog, every attempt is aborted, and each abort
        // lands in the recorder as a timeout tally.
        let p = pipeline(40, 8, 4, 3, Target::Line);
        let recorder = Arc::new(Recorder::new());
        let policy = RetryPolicy::for_retries(1).with_deadline(Duration::ZERO);
        let mut runner = TrialRunner::new();
        let outcome = runner.measure_with_policy(
            &p,
            3,
            None,
            None,
            10_000,
            Some(recorder.clone()),
            None,
            &policy,
        );
        assert!(outcome.timed_out);
        assert!(!outcome.measurement.completed);
        assert!(!outcome.measurement.correct);
        assert_eq!(outcome.attempts, policy.max_attempts);
        assert_eq!(recorder.snapshot().timeouts, policy.max_attempts as u64);
    }

    #[test]
    fn finishing_exactly_at_the_deadline_is_not_a_timeout() {
        // The watchdog predicate is strict: elapsed == deadline survives,
        // only strictly exceeding it trips.
        let policy = RetryPolicy::default().with_deadline(Duration::from_millis(5));
        assert!(!policy.timed_out(Duration::from_millis(5)));
        assert!(policy.timed_out(Duration::from_millis(5) + Duration::from_nanos(1)));
        // No deadline: nothing ever times out.
        assert!(!RetryPolicy::default().timed_out(Duration::from_secs(3600)));
    }

    #[test]
    fn default_policy_matches_the_policy_free_path() {
        let p = pipeline(40, 8, 4, 3, Target::SimLine);
        let mut runner = TrialRunner::new();
        let outcome = runner.measure_with_policy(
            &p,
            7,
            None,
            None,
            10_000,
            None,
            None,
            &RetryPolicy::default(),
        );
        assert_eq!(outcome.attempts, 1);
        assert!(!outcome.timed_out);
        assert_eq!(outcome.measurement, measure_rounds(&p, 7, None, None, 10_000));
    }

    #[test]
    fn policy_retries_match_the_manual_reseeded_loop() {
        // measure_with_policy must reproduce the historical ad-hoc loop
        // exactly: attempt a re-derives the fault schedule with
        // derive_seed(fault_seed, seed, a) and the loop stops at the
        // first correct attempt or after max_attempts total attempts.
        let p = pipeline(40, 8, 4, 3, Target::Line);
        let spec = FaultSpec { drop_rate: 0.2, ..FaultSpec::default() };
        let fault_seed = 11;
        for seed in 0..6u64 {
            let policy = RetryPolicy::for_retries(2);
            let mut runner = TrialRunner::new();
            let outcome = runner.measure_with_policy(
                &p,
                seed,
                None,
                None,
                10_000,
                None,
                Some((spec, fault_seed)),
                &policy,
            );
            let mut manual_runner = TrialRunner::new();
            let mut attempt = 0u64;
            let (manual, attempts) = loop {
                let plan = FaultPlan::new(derive_seed(fault_seed, seed, attempt), spec);
                let m = manual_runner.measure_with_faults(
                    &p,
                    seed,
                    None,
                    None,
                    10_000,
                    None,
                    Some(plan),
                );
                if m.correct || attempt as usize + 1 >= policy.max_attempts {
                    break (m, attempt as usize + 1);
                }
                attempt += 1;
            };
            assert_eq!(outcome.measurement, manual, "seed {seed}");
            assert_eq!(outcome.attempts, attempts, "seed {seed}");
        }
    }

    #[test]
    fn for_retries_saturates_instead_of_overflowing() {
        // retries = usize::MAX must not wrap `retries + 1` around to a
        // zero-attempt policy — it means "retry effectively forever".
        let policy = RetryPolicy::for_retries(usize::MAX);
        assert_eq!(policy.max_attempts, usize::MAX);
        assert_eq!(policy.effective_attempts(), usize::MAX);
        // The boundary below saturation still maps exactly.
        assert_eq!(RetryPolicy::for_retries(usize::MAX - 1).max_attempts, usize::MAX);
        assert_eq!(RetryPolicy::for_retries(0).max_attempts, 1);
    }

    #[test]
    fn zero_attempt_policies_still_run_one_attempt() {
        // A client-supplied policy with max_attempts = 0 must neither
        // panic nor skip measurement: it normalizes to one attempt.
        let zero = RetryPolicy { max_attempts: 0, ..RetryPolicy::default() };
        assert_eq!(zero.effective_attempts(), 1);
        let p = pipeline(40, 8, 4, 3, Target::Line);
        let mut runner = TrialRunner::new();
        let outcome = runner.measure_with_policy(&p, 3, None, None, 10_000, None, None, &zero);
        assert_eq!(outcome.attempts, 1);
        assert_eq!(outcome.measurement, measure_rounds(&p, 3, None, None, 10_000));
    }

    #[test]
    fn mean_rounds_orders_line_above_simline() {
        // Same memory, same w: Line needs far more rounds than SimLine —
        // the paper's central comparison.
        let line = pipeline(120, 16, 4, 8, Target::Line);
        let simline = pipeline(120, 16, 4, 8, Target::SimLine);
        let r_line = mean_rounds(&line, 8, 500, 10_000);
        let r_simline = mean_rounds(&simline, 8, 500, 10_000);
        assert!(r_line > 2.0 * r_simline, "line {r_line} rounds vs simline {r_simline}");
    }
}
