//! `perfbench` — the repository benchmark's harness.
//!
//! `perfbench --workload W --seed N --seconds S --trace (0|1) ...` runs
//! one workload for `S` seconds on inputs generated from `N`, checks
//! every output, writes a result file, and prints one JSON result line
//! last on stdout. With `--trace 0` the line carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer metrics of a
//! traced replay of the same inputs. `perfbench/run.py` builds the
//! workspace and this harness, then runs it; see `perfbench/README.md`.
//!
//! `perfbench worker [--stats PATH] ...` is the benchmark's own shard
//! worker: the public `worker_serve` loop over counting streams, used by
//! the traced sharded runs. `perfbench setup-probe SEED` times the
//! `sweep` workload's set-up in a fresh process.

mod common;
mod serve;
mod sharded;
mod sweep;
mod trace;
mod worker;

use common::{Options, Outcome, END_TO_END, PER_LAYER};
use mph_metrics::json::Json;
use mph_mpc::TransportKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("worker") => std::process::exit(worker::main(&args[1..])),
        Some("setup-probe") => std::process::exit(sweep::setup_probe(&args[1..])),
        _ => {}
    }
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.out_dir.display());
        std::process::exit(2);
    }
    let outcome = match opts.workload.as_str() {
        "sweep" => sweep::run(&opts),
        "serve" => serve::run(&opts),
        "sharded" => sharded::run(&opts, TransportKind::Pipe),
        _ => sharded::run(&opts, TransportKind::Tcp),
    };
    let code = finish(&opts, outcome);
    remove_scratch(&opts);
    std::process::exit(code);
}

/// Removes the scratch directories this run created.
fn remove_scratch(opts: &Options) {
    let suffix = format!("-{}", std::process::id());
    for entry in std::fs::read_dir(&opts.scratch).into_iter().flatten().flatten() {
        if entry.file_name().to_string_lossy().ends_with(&suffix) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Prints every metric by name with its unit, writes the result file and
/// the result line, and returns the exit code: 1 when a check failed.
fn finish(opts: &Options, out: Outcome) -> i32 {
    let correct = out.failed == 0 && out.problems.is_empty();
    let wanted: Vec<(&str, &str)> = if opts.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.to_vec()
    };
    // A per-layer metric that does not apply to this workload reads 0
    // and is listed under `not_applicable` in the result file.
    let mut metrics = Vec::new();
    let mut not_applicable = Vec::new();
    for (name, unit) in &wanted {
        let value = match out.metrics.iter().find(|(n, _, _)| n == name) {
            Some((_, value, _)) => *value,
            None => {
                not_applicable.push(Json::str(*name));
                0.0
            }
        };
        eprintln!("{:<34} {value:>14.4} {unit}", format!("{}.{name}", opts.workload));
        metrics.push((
            name.to_string(),
            Json::object(vec![("value", Json::f64(value)), ("unit", Json::str(*unit))]),
        ));
    }
    for (key, value) in &out.extra {
        eprintln!("{:<34} {value}", format!("{}.{key}", opts.workload));
    }
    for problem in &out.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let line = Json::object(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::u64(out.attempted.max(1))),
        ("failed", Json::u64(out.failed)),
        ("metrics", Json::Object(metrics)),
    ]);
    let moves = Json::Object(
        PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::object(vec![
                        ("workloads", Json::array(m.workloads.iter().map(|w| Json::str(*w)))),
                        ("moves", Json::str(m.moves)),
                    ]),
                )
            })
            .collect(),
    );
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    let mut file = vec![
        ("workload".to_string(), Json::str(&opts.workload)),
        ("seed".to_string(), Json::u64(opts.seed)),
        ("seconds".to_string(), Json::f64(opts.seconds)),
        ("trace".to_string(), Json::Bool(opts.trace)),
        ("result".to_string(), line.clone()),
        ("failed_frac".to_string(), Json::f64(failed_frac)),
        ("problems".to_string(), Json::array(out.problems.iter().map(Json::str))),
        ("not_applicable".to_string(), Json::Array(not_applicable)),
        ("environment".to_string(), environment(opts)),
    ];
    file.extend(out.extra);
    if opts.trace {
        file.push(("per_layer_moves".to_string(), moves));
    }
    let path = opts.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) = std::fs::write(&path, Json::Object(file).to_string() + "\n") {
        eprintln!("perfbench: result file {} not written: {e}", path.display());
    }
    println!("{line}");
    if correct {
        0
    } else {
        1
    }
}

/// Where and how the run happened: host parallelism, pool width, the
/// binaries used and the source revision.
fn environment(opts: &Options) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let env = |key: &str| Json::str(std::env::var(key).unwrap_or_default());
    let bin = |name: &str| Json::str(opts.bin_dir.join(name).display().to_string());
    Json::object(vec![
        ("nproc", Json::u64(nproc)),
        ("RAYON_NUM_THREADS", env("RAYON_NUM_THREADS")),
        ("mphd", bin("mphd")),
        ("mphd_worker", bin("mphd_worker")),
        (
            "perfbench",
            Json::str(std::env::current_exe().map(|p| p.display().to_string()).unwrap_or_default()),
        ),
        ("revision", env("PERFBENCH_REVISION")),
    ])
}
