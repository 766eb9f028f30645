#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `mphd` and `mphd_worker` release
binaries and the harness under `perfbench/harness` (into
`$CARGO_TARGET_DIR`, default `.bench_build`), runs the harness, and passes
its output through: human-readable metrics on stderr, one JSON result
line last on stdout. Result files, spans and count fingerprints go to
`.perfbench/results`. Exits non-zero, without a result line, when the
repository sources are missing or a build fails; exits non-zero with a
`"correct": false` result line when an output check fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["sweep", "serve", "sharded", "sharded_tcp"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, env):
    """Builds the daemon and worker binaries and the harness."""
    commands = [
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(root / "Cargo.toml"),
         "-p", "mph-serve", "-p", "mph-experiments", "--bin", "mphd", "--bin", "mphd_worker"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(root / "perfbench" / "harness" / "Cargo.toml")],
    ]
    for command in commands:
        try:
            done = subprocess.run(command, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(command)}")


def revision(root):
    """The git revision, or a hash of the sources when there is no git."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                              timeout=10)
        if head.returncode == 0:
            return "git:" + head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "compat", "crates", "perfbench"]:
        path = root / top
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for file in files:
            if "target" in file.relative_to(root).parts:
                continue
            digest.update(str(file.relative_to(root)).encode())
            digest.update(file.read_bytes())
    return "tree-sha256:" + digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        fail(f"no repository sources under {root}: nothing to build")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build(root, env)

    state = root / ".perfbench"
    env["RAYON_NUM_THREADS"] = "2"
    env["PERFBENCH_REVISION"] = revision(root)
    command = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--bin-dir", str(target / "release"),
        "--out-dir", str(state / "results"),
        "--scratch", str(state / "scratch"),
    ]
    harness = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                               text=True, start_new_session=True)
    try:
        stdout, _ = harness.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        # Reap anything the harness left behind in its process group.
        try:
            os.killpg(harness.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result (exit {harness.returncode})", harness.returncode or 1)
    print(lines[-1], flush=True)
    sys.exit(harness.returncode)


if __name__ == "__main__":
    main()
