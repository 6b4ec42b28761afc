#!/usr/bin/env python3
"""Checks that two sets of benchmark runs agree.

    bench/suite/agree.py DIR_A DIR_B

Each directory holds the stdout of individual runs (``run.sh --out-dir``
writes them as <workload>.s<seed>.t<trace>.<n>.json).  Runs are grouped by
workload and trace mode.  The bounds come from BENCHMARK.json at the root of
the checkout.

* Simulated-clock metrics are deterministic: every run of one workload and
  seed, in either directory, must print the same value, across
  GPUSEL_WORKERS and GPUSEL_SIMD settings too.  One known exception:
  with host workers, the radix backend compacts through a global atomic
  cursor, so its output order follows the block schedule, which moves the
  next level's aggregated atomic count and topk_skewed_1m's simulated time
  by a few parts per million.  On that workload, when any run used host
  workers, values may differ by RADIX_DRIFT; everywhere else they must be
  bit-identical.
* Host-clock metrics (host*, setup_s, trace.*, *_host_*) are noisy: the two
  medians must agree within the metric's BENCHMARK.json bound, and every
  run must lie within that bound of its own directory's median.  Per-layer
  host metrics have no bound and are shown for information.  When the two
  directories ran with a different worker count, SIMD tier or build type,
  host metrics are not compared.

Prints one row per workload x metric; exits 0 when every check passes.
"""
import argparse
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "BENCHMARK.json")
# Largest relative difference between runs of topk_skewed_1m with host
# workers (measured: ~5e-6).
RADIX_DRIFT = 1e-5
RADIX_DRIFT_WORKLOAD = "topk_skewed_1m"


def is_host_metric(name):
    return (name.startswith("host") or name == "setup_s" or name.startswith("trace.")
            or "_host_" in name)


def load_runs(directory):
    """Returns {(workload, trace): [run, ...]} with run = (context, result)."""
    groups = {}
    for entry in sorted(os.listdir(directory)):
        path = os.path.join(directory, entry)
        if not entry.endswith(".json") or not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        context, result = None, None
        for line in lines:
            if line.startswith('{"context"'):
                context = json.loads(line)["context"]
        if lines:
            result = json.loads(lines[-1])
        if context is None or result is None or "metrics" not in result:
            sys.exit(f"agree.py: {path} is not a benchmark run output")
        groups.setdefault((context["workload"], context["trace"]), []).append((context, result))
    return groups


def setting(runs):
    return {(c["host_workers"], c["simd"], c["build_type"]) for c, _ in runs}


def sim_verdict(workload, name, runs):
    """(ok, verdict) for a simulated-clock metric over all runs of a workload."""
    by_seed = {}
    for c, r in runs:
        by_seed.setdefault(c["seed"], set()).add(r["metrics"][name]["value"])
    worst = max((max(v) - min(v)) / max(abs(max(v)), abs(min(v))) if max(v) != min(v) else 0.0
                for v in by_seed.values())
    if worst == 0.0:
        return True, "identical"
    drift_allowed = (workload == RADIX_DRIFT_WORKLOAD and
                     any(c["host_workers"] > 0 for c, _ in runs))
    if drift_allowed and worst <= RADIX_DRIFT:
        return True, f"within {worst:.1e} (radix drift)"
    return False, f"DIFFERS by {worst:.1e} between runs of one seed"


def host_verdict(bound, va, vb, ma, mb):
    """(ok, verdict) for a host metric with a bound."""
    delta = (mb - ma) / ma if ma else 0.0
    within = all(abs(v - m) <= bound * m for vs, m in ((va, ma), (vb, mb)) for v in vs)
    if abs(delta) <= bound and within:
        return True, f"within {bound:.0%}"
    if not within:
        return False, f"UNRESOLVED: runs spread beyond {bound:.0%} of their median"
    return False, f"OUTSIDE {bound:.0%}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir_a")
    ap.add_argument("dir_b")
    args = ap.parse_args()

    with open(BENCHMARK) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    a, b = load_runs(args.dir_a), load_runs(args.dir_b)
    if not a or set(a) != set(b):
        sys.exit(f"agree.py: the directories hold different workloads: {sorted(a)} vs {sorted(b)}")

    failed = 0
    print(f"{'workload':16} {'t':1} {'metric':36} {'clock':5} {'median A':>14} {'median B':>14} "
          f"{'delta':>8}  verdict")
    for key in sorted(a):
        workload, trace = key
        runs_a, runs_b = a[key], b[key]
        comparable = setting(runs_a) == setting(runs_b)
        for name in runs_a[0][1]["metrics"]:
            va = [r["metrics"][name]["value"] for _, r in runs_a]
            vb = [r["metrics"][name]["value"] for _, r in runs_b]
            ma, mb = statistics.median(va), statistics.median(vb)
            delta = (mb - ma) / ma if ma else 0.0
            if not is_host_metric(name):
                clock = "sim"
                ok, verdict = sim_verdict(workload, name, runs_a + runs_b)
            else:
                clock = "host"
                bound = bounds.get(name)
                if not comparable:
                    ok, verdict = True, "n/a (worker count, SIMD tier or build type differ)"
                elif bound is None:
                    ok, verdict = True, "info (no bound)"
                else:
                    ok, verdict = host_verdict(bound, va, vb, ma, mb)
            failed += 0 if ok else 1
            print(f"{workload:16} {trace:1} {name:36} {clock:5} {ma:14.6g} {mb:14.6g} "
                  f"{delta:+8.2%}  {verdict}")
    print(f"agree.py: {failed} disagreement(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
