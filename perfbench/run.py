#!/usr/bin/env python3
"""Benchmark for contend: the contend_served daemon over its wire protocol
and scenario::Engine through its public API.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout. It builds the library, the daemon
and the benchmark programs from source into .bench_build/, generates the
workload's inputs from --seed, measures them, checks the outputs, and prints
one JSON result as the last line of standard output: the end-to-end metrics
with --trace 0, the per-layer metrics (from a separately traced run) with
--trace 1. A provenance record is printed on the line before it.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1
WORKLOADS = ("serve_hot", "serve_churn", "scenario_wide")

# Outcome digest of the scenario workload at the default seed (spawned,
# completed, migrations, makespan, mean/max stretch, per-tier tallies; see
# scenario.cpp). Any other seed must reproduce one digest across passes.
PINNED_DIGESTS = {
    "scenario_wide": "4e9bb904d72f87fd",
}

PROBE_TIMEOUT_S = 165


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures once, then (re)builds; all tool output goes to stderr."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        command = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        subprocess.run(command, check=True, stdout=sys.stderr, cwd=root)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, cwd=root)


def run_probe(args, cwd):
    """Runs the probe in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(args, cwd=cwd, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out: " + " ".join(args[:3]))
    if proc.returncode != 0:
        fail("probe exited %d: %s" % (proc.returncode, " ".join(args[:3])))
    return out


def source_digest(root):
    digest = hashlib.sha256()
    paths = []
    for top in ("src", "tools", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(root, top)):
            dirs.sort()
            paths += [os.path.join(base, name) for name in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def commit_of(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    root = os.path.dirname(HERE)
    for required in ("src", os.path.join("tools", "contend_served.cpp"),
                     "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, required)):
            fail("not a contend source checkout: %s is missing" % required)
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_root = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)
    probe = os.path.join(build_dir, "perfbench_probe")

    runs = os.path.join(build_root, "runs")
    os.makedirs(runs, exist_ok=True)
    work = tempfile.mkdtemp(prefix=args.workload + "-", dir=runs)
    try:
        common = [args.workload, str(args.seed), str(args.seconds), work]
        run_probe([probe, "gen"] + common, root)
        out = run_probe([probe, "run"] + common + [str(args.trace)], root)
        result = json.loads(out.strip().splitlines()[-1])
        spans = os.path.join(work, "spans.tsv")
        if os.path.exists(spans):
            traces = os.path.join(build_root, "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.move(spans, os.path.join(traces, args.workload + ".spans.tsv"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = result["info"]
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    notes = [info["failures"]] if "failures" in info else []
    pinned = PINNED_DIGESTS.get(args.workload)
    if pinned and args.seed == DEFAULT_SEED and info.get("digest") != pinned:
        failed = attempted
        notes.append("outcome digest %s != pinned %s" % (info.get("digest"), pinned))

    metrics = {}
    for metric in wanted:
        value = result["metrics"].get(metric["name"])
        if value is None or not math.isfinite(value):
            fail("metric %s was not measured" % metric["name"])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    provenance = {
        "commit": commit_of(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "compiler": info.get("compiler"),
        "build_type": info.get("build_type"),
        "engine": info.get("engine"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": {k: v for k, v in info.items() if k.endswith(("_samples", "passes"))},
    }
    for note in notes:
        print("perfbench: FAILED CHECK: " + note, file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
