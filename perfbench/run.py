#!/usr/bin/env python3
"""Builds and runs the repo benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library, the CLI and the benchmark runner (Release) into .bench_build
($CARGO_TARGET_DIR when set); later runs only re-check the build. Build
output goes to stderr, so the last line of stdout is the runner's result
line. Exits non-zero when the build fails, a check fails or the runner
errors.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("embed_to_subset", "rounds_out_of_core", "serve_mixed")


def build(build_dir, env):
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env, timeout=600)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "subsel_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env, timeout=800)


def run_benchmark(command, env):
    """Runs subsel_perfbench in its own process group, so a timeout also stops the
    serving daemon it may have started."""
    runner = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env,
                              start_new_session=True)
    try:
        stdout, _ = runner.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(runner.pid, signal.SIGKILL)
        runner.communicate()
        raise
    return runner.returncode, stdout


def expected_metrics(trace):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    work_dir = os.path.relpath(os.path.join(build_dir, "work"))
    # Compiler and library temporaries stay inside the build directory.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        build(build_dir, env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    try:
        returncode, stdout = run_benchmark(
            [os.path.join(build_dir, "subsel_perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--daemon", os.path.join(build_dir, "subsel", "subsel_cli"),
             "--work-dir", work_dir], env)
    except subprocess.TimeoutExpired:
        print("perfbench: runner timed out", file=sys.stderr)
        return 2
    lines = stdout.strip().splitlines()
    if returncode not in (0, 1) or not lines:
        print(f"perfbench: runner exited {returncode}", file=sys.stderr)
        return 2
    result = json.loads(lines[-1])
    if list(result["metrics"]) != expected_metrics(args.trace):
        print("perfbench: runner metrics do not match BENCHMARK.json", file=sys.stderr)
        return 2
    print(stdout, end="")
    return returncode


if __name__ == "__main__":
    sys.exit(main())
