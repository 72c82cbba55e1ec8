#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a source checkout:

    python3 perfbench/test_perfbench.py

They build the benchmark into .bench_build/ (as run.py does) and check:
generator determinism, metric names, span self-time arithmetic, and that the
in-process serve layers add up to no more than the client-side p50.
"""

import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
PROBE = os.path.join(BUILD_DIR, "perfbench_probe")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def setUpModule():
    run.build(ROOT, BUILD_DIR)


class Spec(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            self.spec = json.load(handle)

    def test_metric_and_workload_names(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for metric in self.spec[group]:
                names.append(metric["name"])
                self.assertRegex(metric["unit"], UNIT)
                self.assertIn(metric["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]),
                         sorted(run.WORKLOADS))

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        for bound in bounds.values():
            self.assertTrue(0 < bound <= 0.25)


class Probe(unittest.TestCase):
    def test_span_self_time_arithmetic(self):
        out = subprocess.run([PROBE, "selftest"], capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)

    def test_generator_is_deterministic(self):
        workdir = tempfile.mkdtemp(dir=BUILD_ROOT)
        try:
            for workload in run.WORKLOADS:
                dirs = []
                for attempt, seed in enumerate((5, 5, 6)):
                    path = os.path.join(workdir, "%s-%d" % (workload, attempt))
                    os.makedirs(path)
                    subprocess.run([PROBE, "gen", workload, str(seed), "1", path],
                                   check=True)
                    dirs.append(path)
                files = sorted(os.listdir(dirs[0]))
                self.assertEqual(files, sorted(os.listdir(dirs[1])))
                match, mismatch, errors = filecmp.cmpfiles(
                    dirs[0], dirs[1], files, shallow=False)
                self.assertEqual((mismatch, errors), ([], []), workload)
                # Another seed changes the seeded inputs (the profile is not
                # seeded, so at least one other file must differ).
                _, changed, _ = filecmp.cmpfiles(dirs[0], dirs[2], files,
                                                 shallow=False)
                self.assertTrue(set(changed) - {"profile.txt"}, workload)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def test_serve_layers_fit_inside_client_p50(self):
        workdir = tempfile.mkdtemp(dir=BUILD_ROOT)
        try:
            common = ["serve_hot", "2", "1", workdir]
            subprocess.run([PROBE, "gen"] + common, check=True)
            out = subprocess.run([PROBE, "run"] + common + ["1"],
                                 capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        metrics = result["metrics"]
        self.assertEqual(result["failed"], 0, result["info"])
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        for metric in spec["per_layer"] + spec["end_to_end"]:
            self.assertIn(metric["name"], metrics)
        layers = (metrics["protocol.parse_ns"] + metrics["tracker.predict_hit_ns"]
                  + metrics["protocol.encode_ns"]) / 1000.0
        self.assertLessEqual(layers, metrics["p50_us"])
        self.assertLessEqual(metrics["replay.request_ns"] / 1000.0,
                             metrics["p50_us"])
        self.assertGreater(metrics["transport.us"], 0.0)


if __name__ == "__main__":
    unittest.main()
