#!/usr/bin/env python3
"""Run-to-run spread and held-out-seed check of the spio benchmark.

Spread: run one workload once per seed and report, for every end-to-end
metric, the median and the interquartile distance as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
BENCHMARK.json. A metric is steady when its spread is below a third of its
bound (setup_s is reported but not held to that).

    python3 perfbench/spread.py --workload box_warm --seeds 1-10

Held-out seed: run the main seed and a held-out seed ``--repeats`` times each
(alternating) and check that every end-to-end metric's median on the held-out
seed is within the metric's bound of the main seed's median.

    python3 perfbench/spread.py --workload box_warm --main 1 --heldout 9001 --repeats 5

Run from the root of the source tree. Each run goes through perfbench/run.py
with the run length from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"run failed (seed {seed}, exit {out.returncode}):\n"
                 f"{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"incorrect run (seed {seed}): {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--main", type=int, default=1)
    ap.add_argument("--heldout", type=int)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    bench = load_bench()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    ok = True

    if args.seeds:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(args.workload, seed, seconds))
            print(f"seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        print(f"\n{args.workload}: {len(runs)} seeds")
        print(f"{'metric':<18}{'median':>12}{'spread':>9}{'bound/3':>9}  steady")
        summary = {}
        for name, bound in bounds.items():
            vals = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            steady = spread < bound / 3 or name == "setup_s"
            ok &= steady
            summary[name] = {"median": med, "spread": spread}
            print(f"{name:<18}{med:>12.6g}{spread:>9.3%}{bound / 3:>9.3%}  "
                  f"{'yes' if steady else 'NO'}")
        print(json.dumps({"workload": args.workload, "spread": summary}))

    if args.heldout is not None:
        main_runs, held_runs = [], []
        for i in range(args.repeats):
            order = [(args.main, main_runs), (args.heldout, held_runs)]
            for seed, sink in (order if i % 2 == 0 else order[::-1]):
                sink.append(run_once(args.workload, seed, seconds))
        print(f"\n{args.workload}: seed {args.main} vs held-out seed "
              f"{args.heldout}, {args.repeats} runs each")
        print(f"{'metric':<18}{'main':>12}{'held-out':>12}{'diff':>9}"
              f"{'bound':>8}  agree")
        summary = {}
        for name, bound in bounds.items():
            a = statistics.median(r[name] for r in main_runs)
            b = statistics.median(r[name] for r in held_runs)
            diff = (b - a) / a
            agree = abs(diff) <= bound
            ok &= agree
            summary[name] = {"main": a, "heldout": b, "diff": diff}
            print(f"{name:<18}{a:>12.6g}{b:>12.6g}{diff:>9.3%}{bound:>8.0%}  "
                  f"{'yes' if agree else 'NO'}")
        print(json.dumps({"workload": args.workload, "heldout": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
