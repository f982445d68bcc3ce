#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds the `perfbench` package (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), runs one workload, prints the
binary's report followed by a manifest line, and prints as its last line
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json, with `--trace 1` its per-layer metrics; the traced run
also writes a Chrome trace of its spans under $CARGO_TARGET_DIR/perfbench/.

`--workload all` runs every workload of BENCHMARK.json in turn, one
process each, and prints each one's result line; it is for people, not
for the result contract. The binary also knows `llmsched-online-drift`,
which BENCHMARK.json leaves out (see README.md).

Exits non-zero without a result line if the build fails, and non-zero
after the result line if a correctness check fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def tool_output(cmd):
    """First line of a tool's output, or 'unknown' if it cannot run."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    line = out.stdout.strip().splitlines()[:1]
    return line[0] if out.returncode == 0 and line else "unknown"


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target_dir, "release", "perfbench")


def check_result(result, spec, trace):
    """Checks the result line against the contract; returns problems."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    if set(got) != set(units):
        problems.append(
            f"metric names differ: missing {sorted(set(units) - set(got))}, "
            f"extra {sorted(set(got) - set(units))}"
        )
    for name, m in got.items():
        if name in units and m.get("unit") != units[name]:
            problems.append(f"{name} has unit {m.get('unit')!r}, expected {units[name]!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} is not a finite number: {value!r}")
        elif not trace and value <= 0:
            problems.append(f"end-to-end metric {name} is not positive: {value!r}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted is {result['attempted']!r}")
    if not isinstance(result["failed"], int) or result["failed"] != 0:
        problems.append(f"failed is {result['failed']!r}: some jobs did not complete")
    return problems


def run_one(binary, spec, args, workload, target_dir, manifest):
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--trace-out", os.path.join(target_dir, "perfbench"),
        "--git-sha", manifest["git_sha"],
        "--rustc", manifest["rustc"],
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: the benchmark did not finish within 170 s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: no output (exit code {done.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail(f"{workload}: the last output line is not JSON (exit code {done.returncode})")
    problems = check_result(result, spec, args.trace == 1)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    result["correct"] = bool(result.get("correct")) and not problems and done.returncode == 0
    return result


def main():
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {spec_path}: {e}")
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # Any workload the binary knows can be named; "all" runs the ones
    # BENCHMARK.json lists.
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    target_dir = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    binary = build(target_dir)
    # Only this tree's own history names the commit; a checkout without
    # one (an exported tree) must not report an enclosing repository's.
    has_git = os.path.exists(os.path.join(ROOT, ".git"))
    manifest = {
        "git_sha": tool_output(["git", "rev-parse", "HEAD"]) if has_git else "unknown",
        "rustc": tool_output(["rustc", "-V"]),
    }

    results = []
    for workload in names if args.workload == "all" else [args.workload]:
        result = run_one(binary, spec, args, workload, target_dir, manifest)
        results.append(result)
        if args.workload == "all":
            print(json.dumps({"workload": workload, **result}))
    if args.workload != "all":
        print(json.dumps(results[0]))
    sys.exit(0 if all(r["correct"] for r in results) else 1)


if __name__ == "__main__":
    main()
