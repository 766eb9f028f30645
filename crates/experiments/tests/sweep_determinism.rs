//! The sweep engine's determinism contract, checked end-to-end: the
//! experiment binaries must produce byte-identical stdout *and*
//! byte-identical JSON reports regardless of `RAYON_NUM_THREADS` — the
//! pool only changes who computes each `(cell, seed)` trial, never what
//! is computed or the order results are assembled in (see
//! `mph_experiments::sweep` and docs/PERFORMANCE.md).
//!
//! Each invocation runs in its own directory under the target tmpdir,
//! named by the calling test's tag, so the relative
//! `target/reports/<exp>.json` artifacts cannot collide — not even
//! between tests running in parallel.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn bin_path(name: &str) -> &'static str {
    match name {
        "exp_simline_rounds" => env!("CARGO_BIN_EXE_exp_simline_rounds"),
        "exp_line_rounds" => env!("CARGO_BIN_EXE_exp_line_rounds"),
        "exp_baselines" => env!("CARGO_BIN_EXE_exp_baselines"),
        other => panic!("no such experiment binary: {other}"),
    }
}

/// Runs `name --quick --trials 2 [extra..]` with the given thread count
/// in a directory of its own (per `tag`, binary, thread count and
/// flags); returns `(stdout, report bytes)`.
fn run(tag: &str, name: &str, threads: &str, extra: &[&str]) -> (Vec<u8>, Vec<u8>) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("sweep_det_{tag}_{name}_t{threads}_{}", extra.join("_")));
    fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(bin_path(name))
        .args(["--quick", "--trials", "2"])
        .args(extra)
        .env("RAYON_NUM_THREADS", threads)
        .current_dir(&dir)
        .output()
        .expect("experiment binary runs");
    assert!(
        out.status.success(),
        "{name} (threads={threads}) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report =
        fs::read(dir.join("target/reports").join(format!("{name}.json"))).expect("json report");
    (out.stdout, report)
}

#[test]
fn reports_are_byte_identical_across_thread_counts() {
    for name in ["exp_simline_rounds", "exp_line_rounds", "exp_baselines"] {
        let (stdout_1, json_1) = run("threads", name, "1", &[]);
        let (stdout_4, json_4) = run("threads", name, "4", &[]);
        assert_eq!(stdout_1, stdout_4, "{name}: stdout differs between 1 and 4 threads");
        assert_eq!(json_1, json_4, "{name}: JSON report differs between 1 and 4 threads");
        assert!(!json_1.is_empty(), "{name}: report must not be empty");
    }
}

#[test]
fn seed_flag_reaches_the_sweep() {
    // A different --seed must actually change the drawn instances (and
    // with them the telemetry bytes); a silent no-op flag would let the
    // determinism test above pass vacuously. `Line`'s rounds follow the
    // seed-dependent pointer walk (`SimLine`'s schedule is oblivious, so
    // its counts would not budge).
    let (_, json_a) = run("seed", "exp_line_rounds", "1", &["--seed", "2000"]);
    let (_, json_b) = run("seed", "exp_line_rounds", "1", &["--seed", "4242"]);
    assert_ne!(json_a, json_b, "--seed must change the report");

    // And the default seed is 2000: passing it explicitly is a no-op.
    let (stdout_default, json_default) = run("seed", "exp_line_rounds", "1", &[]);
    let (stdout_explicit, json_explicit) = run("seed", "exp_line_rounds", "2", &["--seed", "2000"]);
    assert_eq!(stdout_default, stdout_explicit);
    assert_eq!(json_default, json_explicit);
}
