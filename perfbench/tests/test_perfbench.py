#!/usr/bin/env python3
"""Self-test of the spio benchmark at tiny size.

    python3 perfbench/tests/test_perfbench.py        # from the source root

Builds the benchmark through perfbench/run.py (first run compiles spio) and
checks, on tiny datasets and one-second runs:

  * every end-to-end metric (``--trace 0``) and every per-layer metric
    (``--trace 1``) of BENCHMARK.json is printed with its unit, on every
    workload, and per-layer metrics of idle layers are named in a note;
  * the traced replay of every pooled query is byte-identical to the entry
    point (the run stays correct and reports how many it checked);
  * two runs with one seed issue the same operations and produce the same
    result digests, and another seed changes them;
  * a ReadEngine fetch hook that throws makes the run count failures and
    exit non-zero with a result, instead of crashing;
  * without the spio sources the benchmark exits non-zero and prints no
    result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, seed=1, trace=0, extra=(), cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fingerprint = {}
    notes = []
    for line in lines[:-1]:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
        elif line.startswith("note "):
            notes.append(line[len("note "):])
    return result, fingerprint, notes


class SelfTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    proc = run(w, trace=trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result, fp, notes = parse(proc)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in BENCH[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertIn("metric failed_ratio 0 ratio", proc.stdout)
                    for field in ("nproc", "cpu_model", "simd_level",
                                  "compiler", "build_type", "data_fs"):
                        self.assertIn(field, fp)
                    if trace:
                        zero = [k for k, v in result["metrics"].items()
                                if v["value"] == 0]
                        idle = " ".join(n for n in notes if n.startswith("idle"))
                        for name in zero:
                            if name in ("query_service.coalesced",
                                        "read_engine.bytes_evicted",
                                        "read_engine.singleflight_followers",
                                        "read_engine.fetch_miss_us"):
                                continue  # legitimately 0 on a busy layer
                            self.assertIn(name, idle)

    def test_replay_is_identical_to_the_entry_point(self):
        for w in ("box_warm", "serve_distinct"):
            with self.subTest(workload=w):
                proc = run(w, trace=1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result, fp, notes = parse(proc)
                self.assertTrue(result["correct"], notes)
                self.assertEqual(fp["replay_identity_checked"],
                                 fp["pool_queries"])
                self.assertGreater(fp["traced_ops"], 0)

    def test_same_seed_same_operations_and_digests(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = parse(run(w, seed=7))[1]
                b = parse(run(w, seed=7))[1]
                c = parse(run(w, seed=8))[1]
                for key in ("sequence_digest", "result_digest"):
                    self.assertEqual(a[key], b[key])
                    self.assertNotEqual(a[key], c[key])

    def test_throwing_fetch_hook_counts_failures(self):
        proc = run("serve_distinct", extra=("--fail-every", "3"))
        self.assertEqual(proc.returncode, 1, proc.stderr)
        result, _, notes = parse(proc)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["attempted"], result["failed"])
        self.assertTrue(any("injected fetch fault" in n for n in notes), notes)

    def test_no_sources_no_result(self):
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in BENCH["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("box_warm", cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
