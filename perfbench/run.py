#!/usr/bin/env python3
"""Builds and runs the end-to-end plan-serving benchmark.

    python3 perfbench/run.py --workload <cold_solve|warm_hit|epoch_churn> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which also compiles the libraries under
src/) into .bench_build/perfbench; later runs rebuild only what changed.
Build output goes to standard error, so the last line of standard output is
the benchmark's JSON result. Traced runs keep their spans and the census of
each (workload, seed) under .bench_build/perfbench-out/<source digest>, so a
census is compared only with runs of the same sources.

Exits 0 only when the benchmark ran and every check passed.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
RUN_TIMEOUT_S = 170
WORKLOADS = ("cold_solve", "warm_hit", "epoch_churn")


def build() -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-G", "Unix Makefiles",
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD_DIR / "perfbench"


def source_digest() -> str:
    """Digest of every file the benchmark binary is built from."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    out_dir = OUT_DIR / source_digest()
    out_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", str(out_dir)]
    sys.stdout.flush()
    try:
        # On timeout the child is killed and reaped before this returns.
        completed = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return 0 if completed.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
