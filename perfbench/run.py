#!/usr/bin/env python3
"""Build the benchmark (Release) and run one workload.

    python3 perfbench/run.py --workload sweep_service --seed 1 --seconds 45 --trace 0

Run from the repository root.  The first call configures and builds the
library and the benchmark under .bench_build/perfbench; later calls only
re-check the build.  Build output is shown (on stderr) only when a step
fails, so the last line of stdout is the benchmark's JSON result.  With --trace 1 the Chrome trace of the
traced rounds is written to .bench_build/perfbench-work/<workload>.trace.json.
"""

import argparse
import ctypes
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sweep_service", "plant_fig1")
ADDR_NO_RANDOMIZE = 0x0040000


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def fixed_layout():
    """Run the benchmark without address-space randomization.

    Identical rounds in processes with different random layouts differ by
    several per cent (code and data alignment); a fixed layout removes that
    per-process term from the run-to-run spread.  Only this child process is
    affected.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except OSError:
        pass


def build(repo, build_dir):
    source = repo / "perfbench"
    if not (repo / "src" / "mc" / "service.hpp").is_file():
        fail(f"library sources not found under {repo / 'src'}")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(source), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(build_dir), "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build step failed: {' '.join(step)}")
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    repo = Path(__file__).resolve().parent.parent
    exe = build(repo, repo / ".bench_build" / "perfbench")
    command = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(repo / ".bench_build" / "perfbench-work")]
    result = subprocess.run(command, cwd=repo, stdout=subprocess.PIPE, text=True,
                            preexec_fn=fixed_layout)
    lines = result.stdout.rstrip("\n").splitlines()
    if result.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(result.stdout)
        fail(f"workload {args.workload} exited with code {result.returncode}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
