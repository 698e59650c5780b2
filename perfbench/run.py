#!/usr/bin/env python3
"""Build and run the spio end-to-end benchmark.

    python3 perfbench/run.py --workload <checkpoint_write|box_warm|serve_distinct>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The benchmark (perfbench/src) and the
spio libraries it drives (src/) are built with CMake into
``$CARGO_TARGET_DIR/perfbench`` (default ``.bench_build/perfbench``); datasets
go to a scratch directory under the same build root and are removed after the
run. Every ``SPIO_*`` variable is removed from the benchmark's environment.

The last line of standard output is the JSON result. Extra arguments
(``--tiny``, ``--fail-every N``) are passed to the benchmark binary; see
perfbench/README.md.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("checkpoint_write", "box_warm", "serve_distinct")
RUN_TIMEOUT_S = 175


def build(root: Path, build_dir: Path) -> Path:
    """Configure (once) and build the benchmark binary; return its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            subprocess.run(
                ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                check=True, stdout=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", str(build_dir), "--target", "spio_perfbench",
             "-j", jobs],
            check=True, stdout=sys.stderr)
    return build_dir / "spio_perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args, extra = ap.parse_known_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: no spio sources under {root}/src", file=sys.stderr)
        return 2
    target_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_root.is_absolute():
        target_root = root / target_root
    try:
        binary = build(root, target_root / "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    work = target_root / "work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(work)]
    if args.trace == "1":
        spans = target_root / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{args.workload}-seed{args.seed}.json")]
    cmd += extra
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPIO_")}
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
