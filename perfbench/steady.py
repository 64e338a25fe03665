#!/usr/bin/env python3
"""Re-check that the benchmark is steady: two interleaved sets of runs.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]

Runs every workload `runs` times in set A and `runs` times in set B, each run
with its own seed (1 upwards) and BENCHMARK.json's run_seconds, alternating
which set goes first.  For each end-to-end metric it prints both sets' median
and quartiles, the spread (Q3 - Q1) / median of each set, and the drift of B's
median from A's, beside the metric's bound from BENCHMARK.json.  A spread or a
drift in the worse direction above the bound is marked FAIL; the
failed-operation share must be identical in both sets.  Raw results go to
.bench_build/perfbench-steady.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(repo, command, workload, seed, seconds):
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, cwd=repo, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"steady: {workload} seed {seed} exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    repo = Path(__file__).resolve().parent.parent
    bench = json.loads((repo / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for s in order:
                seed = 1 + i + (args.runs if s == "B" else 0)
                r = run_once(repo, bench["command"], w, seed, bench["run_seconds"])
                results[w][s].append(r)
                print(f"{w} set {s} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)

    out_dir = repo / ".bench_build"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "perfbench-steady.json").write_text(json.dumps(results, indent=1))

    ok = True
    print(f"\n{'workload':18} {'metric':12} {'set':3} {'median':>11} {'Q1':>11} {'Q3':>11}"
          f" {'spread':>7} {'drift':>7} {'bound':>6}  verdict")
    for w in workloads:
        shares = {s: (sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs))
                  for s, rs in results[w].items()}
        fa, aa = shares["A"]
        fb, ab = shares["B"]
        if fa * ab != fb * aa or not all(r["correct"] for rs in results[w].values() for r in rs):
            ok = False
            print(f"{w}: FAIL failed share A {fa}/{aa} vs B {fb}/{ab}, or a run was incorrect")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = {}
            for s in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in results[w][s]]
                q1, med, q3 = quartiles(values)
                medians[s] = med
                spread = (q3 - q1) / med
                bad = spread > bound
                drift = ""
                if s == "B":
                    d = (med - medians["A"]) / medians["A"]
                    worse = d if m["better"] == "lower" else -d
                    bad = bad or worse > bound
                    drift = f"{d:+.3f}"
                ok = ok and not bad
                verdict = "FAIL" if bad else ("ok" if spread < bound / 3 else "ok (spread > bound/3)")
                print(f"{w:18} {name:12} {s:3} {med:11.5g} {q1:11.5g} {q3:11.5g}"
                      f" {spread:7.3f} {drift:>7} {bound:6.2f}  {verdict}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
