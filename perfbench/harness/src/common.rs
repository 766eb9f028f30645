//! Options, the metric tables, the outcome type and the statistics
//! helpers shared by every workload.

use mph_metrics::json::Json;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The end-to-end metrics every untraced run reports, in output order:
/// `(name, unit)`. Each one is defined on every workload (see
/// `perfbench/README.md` for the per-workload definitions).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("trials_per_s", "1/s"),
    ("sessions_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// One per-layer metric: its name and unit, the workloads it is measured
/// on, and the end-to-end metric (and workload) it should move.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub workloads: &'static [&'static str],
    pub moves: &'static str,
}

const ALL: &[&str] = &["sweep", "serve", "sharded", "sharded_tcp"];
const SWEEP: &[&str] = &["sweep"];
const SERVE: &[&str] = &["serve"];
const SHARDED: &[&str] = &["sharded", "sharded_tcp"];

macro_rules! layer {
    ($name:expr, $unit:expr, $workloads:expr, $moves:expr) => {
        LayerMetric { name: $name, unit: $unit, workloads: $workloads, moves: $moves }
    };
}

/// The per-layer metrics of the traced run, in output order.
pub const PER_LAYER: &[LayerMetric] = &[
    layer!("oracle.queries", "count", ALL, "trials_per_s on sweep (exact count per trial)"),
    layer!("oracle.query_us", "us", SWEEP, "trials_per_s on sweep"),
    layer!(
        "oracle.derive_queries",
        "count",
        SWEEP,
        "trials_per_s on sweep (exact count per trial)"
    ),
    layer!("oracle.derive_us", "us", SWEEP, "trials_per_s on sweep"),
    layer!("oracle.hit_frac", "ratio", SWEEP, "trials_per_s on sweep"),
    layer!("oracle.hub_reuse_frac", "ratio", SERVE, "latency_p50_ms on serve"),
    layer!("core.draw_us", "us", SWEEP, "trials_per_s on sweep"),
    layer!("core.reference_us", "us", SWEEP, "trials_per_s on sweep"),
    layer!("core.build_us", "us", SWEEP, "trials_per_s on sweep"),
    layer!("mpc.run_us", "us", SWEEP, "trials_per_s on sweep"),
    layer!("mpc.round_ns", "ns", SWEEP, "trials_per_s on sweep"),
    layer!("mpc.rounds", "count", ALL, "none: simulated statistic, must repeat exactly"),
    layer!("mpc.messages", "count", ALL, "none: simulated statistic, must repeat exactly"),
    layer!("mpc.bits", "count", ALL, "none: simulated statistic, must repeat exactly"),
    layer!(
        "metrics.snapshot_us",
        "us",
        &["sweep", "serve"],
        "trials_per_s on sweep; latency_p50_ms on serve"
    ),
    layer!("sweep.busy_frac", "ratio", SWEEP, "trials_per_s on sweep"),
    layer!("serve.accept_ms", "ms", SERVE, "latency_p50_ms and sessions_per_s on serve"),
    layer!("serve.first_cell_ms", "ms", SERVE, "latency_p50_ms and sessions_per_s on serve"),
    layer!("serve.line_gap_ms", "ms", SERVE, "latency_p50_ms and sessions_per_s on serve"),
    layer!("serve.bytes_per_session", "B", SERVE, "latency_p50_ms and sessions_per_s on serve"),
    layer!("serve.parse_us", "us", SERVE, "latency_p50_ms and sessions_per_s on serve"),
    layer!("serve.compute_ms", "ms", SERVE, "latency_p50_ms and sessions_per_s on serve"),
    layer!("serve.render_us", "us", SERVE, "latency_p50_ms and sessions_per_s on serve"),
    layer!("checkpoint.write_ms", "ms", SERVE, "latency_p50_ms on serve"),
    layer!("checkpoint.bytes_per_session", "B", SERVE, "latency_p50_ms on serve"),
    layer!("checkpoint.resume_ms", "ms", SERVE, "resume_p50_ms (result file) on serve"),
    layer!("shard.spawn_ms", "ms", SHARDED, "setup_s and trials_per_s on sharded, sharded_tcp"),
    layer!("shard.rebind_us", "us", SHARDED, "latency_p50_ms on sharded, sharded_tcp"),
    layer!("shard.reference_us", "us", SHARDED, "latency_p50_ms on sharded, sharded_tcp"),
    layer!("shard.round_us", "us", SHARDED, "latency_p50_ms on sharded, sharded_tcp"),
    layer!(
        "shard.recovery_ms",
        "ms",
        SHARDED,
        "recovery_p50_ms (result file) on sharded, sharded_tcp"
    ),
    layer!(
        "worker.build_us",
        "us",
        SHARDED,
        "latency_p50_ms and trial_p90_ms (result file) on sharded, sharded_tcp"
    ),
    layer!(
        "worker.busy_us",
        "us",
        SHARDED,
        "trial_p90_ms (result file) first, then latency_p50_ms, on sharded, sharded_tcp"
    ),
    layer!(
        "worker.read_wait_us",
        "us",
        SHARDED,
        "latency_p50_ms and trial_p90_ms (result file) on sharded, sharded_tcp"
    ),
    layer!(
        "worker.write_us",
        "us",
        SHARDED,
        "latency_p50_ms and trial_p90_ms (result file) on sharded, sharded_tcp"
    ),
    layer!(
        "transport.frames_per_round",
        "count",
        SHARDED,
        "latency_p50_ms on sharded, sharded_tcp"
    ),
    layer!("transport.bytes_per_round", "B", SHARDED, "latency_p50_ms on sharded, sharded_tcp"),
    layer!(
        "transport.barrier_bytes_per_round",
        "B",
        SHARDED,
        "latency_p50_ms; trades against recovery_p50_ms (result file)"
    ),
    layer!(
        "transport.writes_per_round",
        "count",
        SHARDED,
        "latency_p50_ms on sharded, sharded_tcp"
    ),
    layer!(
        "trace.overhead",
        "ratio",
        ALL,
        "none: traced wall time / untraced wall time of the same inputs"
    ),
];

/// Command-line options of one benchmark run.
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory holding the `mphd` and `mphd_worker` release binaries.
    pub bin_dir: PathBuf,
    /// Directory for result files, spans and count fingerprints.
    pub out_dir: PathBuf,
    /// Scratch directory for checkpoint roots and worker statistics.
    pub scratch: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload (sweep|serve|sharded|sharded_tcp) --seed N \
                     --seconds S --trace (0|1) --bin-dir DIR --out-dir DIR --scratch DIR";

impl Options {
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut it = args.iter();
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut bin_dir, mut out_dir, mut scratch) = (None, None, None);
        while let Some(arg) = it.next() {
            let mut value = || it.next().cloned().ok_or(format!("{arg} requires a value"));
            match arg.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed: not a u64")?),
                "--seconds" => {
                    seconds = Some(value()?.parse().map_err(|_| "--seconds: not a number")?)
                }
                "--trace" => trace = Some(value()? == "1"),
                "--bin-dir" => bin_dir = Some(PathBuf::from(value()?)),
                "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
                "--scratch" => scratch = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
            }
        }
        let workload: String = workload.ok_or(USAGE)?;
        if !ALL.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}\n{USAGE}"));
        }
        let seconds: f64 = seconds.ok_or(USAGE)?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Options {
            workload,
            seed: seed.ok_or(USAGE)?,
            seconds,
            trace: trace.ok_or(USAGE)?,
            bin_dir: bin_dir.ok_or(USAGE)?,
            out_dir: out_dir.ok_or(USAGE)?,
            scratch: scratch.ok_or(USAGE)?,
        })
    }

    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// A fresh, empty scratch subdirectory for this run.
    pub fn scratch_dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(format!("{}-{}-{}", self.workload, name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creating a scratch directory");
        dir
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Trials or sessions attempted.
    pub attempted: u64,
    /// Those that failed, were refused, or produced a wrong output.
    pub failed: u64,
    /// Descriptions of failed checks (capped).
    pub problems: Vec<String>,
    /// Reported metrics, `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
    /// Further fields for the result file: sample counts, traffic
    /// shares, the issue-named latency figures, count fingerprints.
    pub extra: Vec<(String, Json)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_string(), value, unit.to_string()));
    }

    pub fn extra(&mut self, key: &str, value: Json) {
        self.extra.push((key.to_string(), value));
    }

    /// Records a failed check; `count` is how many attempts it fails.
    pub fn fail(&mut self, count: u64, problem: String) {
        self.failed += count;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Records a check that fails the run without failing an attempt.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok && self.problems.len() < 20 {
            self.problems.push(problem());
        }
    }
}

/// A small deterministic generator (SplitMix64) for workload inputs.
pub struct Gen(u64);

impl Gen {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = Gen(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next();
        g
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The `p`-quantile (0..=1) of `values` by linear interpolation; 0 for an
/// empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f`, returning its value and elapsed time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// `VmHWM` (peak resident set) of process `pid` in KiB, 0 if unreadable.
pub fn vm_hwm_kib(pid: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Process ids of this process's live children.
pub fn child_pids() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut pids = Vec::new();
    for task in tasks.flatten() {
        if let Ok(children) = std::fs::read_to_string(task.path().join("children")) {
            pids.extend(children.split_whitespace().map(str::to_string));
        }
    }
    pids
}

/// Records the percentile figures of one latency sample set under
/// `<prefix>_p50_ms` / `<prefix>_p90_ms` plus its sample count.
pub fn latency_extra(out: &mut Outcome, prefix: &str, samples_ms: &[f64]) {
    out.extra(&format!("{prefix}_p50_ms"), Json::f64(median(samples_ms)));
    out.extra(&format!("{prefix}_p90_ms"), Json::f64(quantile(samples_ms, 0.9)));
    out.extra(&format!("{prefix}_samples"), Json::u64(samples_ms.len() as u64));
}

/// Compares this run's exact simulated counts with an earlier run of
/// the same workload and seed in the same output directory, over the
/// units both runs completed. Returns a description of the first
/// difference; the fingerprint of the longer run is kept.
pub fn compare_counts(opts: &Options, counts: &[Vec<u64>]) -> Option<String> {
    let dir = opts.out_dir.join("counts");
    let _ = std::fs::create_dir_all(&dir);
    let path =
        dir.join(format!("{}-seed{}-trace{}.txt", opts.workload, opts.seed, u8::from(opts.trace)));
    let earlier: Vec<Vec<u64>> = std::fs::read_to_string(&path)
        .map(|text| {
            text.lines()
                .map(|line| line.split_whitespace().filter_map(|x| x.parse().ok()).collect())
                .collect()
        })
        .unwrap_or_default();
    let mismatch = earlier.iter().zip(counts).position(|(a, b)| a != b).map(|unit| {
        format!(
            "simulated counts differ from an earlier run at seed {}: unit {unit}: {:?} vs {:?}",
            opts.seed, earlier[unit], counts[unit]
        )
    });
    if counts.len() > earlier.len() {
        let text: String = counts
            .iter()
            .map(|c| c.iter().map(u64::to_string).collect::<Vec<_>>().join(" ") + "\n")
            .collect();
        let _ = std::fs::write(&path, text);
    }
    mismatch
}
