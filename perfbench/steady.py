#!/usr/bin/env python3
"""Steadiness check: run every workload several times and report, per
end-to-end metric, the median, the quartiles and the spread against the
metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--workload NAME ...]

Every run uses the run length of BENCHMARK.json; the runs of a set use
seeds 1..runs. Spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4). A spread within the bound passes;
within a third of it, the metric is steady. With
--sets 2 the whole measurement repeats and the second set's median must
not be worse than the first's by more than the bound. Exits non-zero
when a check fails or a run is not correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    delta = (second - first) / first
    return delta if better == "lower" else -delta


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        medians = []
        for s in range(args.sets):
            results = []
            for seed in range(1, args.runs + 1):
                result = run_once(workload, seed, bench["run_seconds"])
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: not correct "
                          f"({result['failed']} of {result['attempted']} failed)")
                    ok = False
                results.append(result["metrics"])
            print(f"\n{workload}, set {s + 1}: {args.runs} runs, "
                  f"seeds 1..{args.runs}")
            print(f"  {'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}"
                  f"{'spread':>9}{'bound':>7}  verdict")
            set_medians = {}
            for metric in bench["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                values = [r[name]["value"] for r in results]
                med, q1, q3, sp = spread(values)
                set_medians[name] = med
                if sp <= bound / 3:
                    verdict = "steady"
                elif sp <= bound:
                    verdict = "within bound"
                else:
                    verdict = "TOO WIDE"
                    ok = False
                print(f"  {name:<18}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{sp:>9.2%}{bound:>7.2f}  {verdict}")
            medians.append(set_medians)
        for s in range(1, len(medians)):
            for metric in bench["end_to_end"]:
                name = metric["name"]
                w = worse(medians[0][name], medians[s][name], metric["better"])
                flag = "ok" if w <= metric["bound"] else "WORSE"
                if flag != "ok":
                    ok = False
                print(f"  set {s + 1} vs set 1: {name:<18} {w:+.2%}  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
